"""Byte goldens for every query command on the bundled sample corpus.

Each case runs one command through ``run_cli`` on an index built from
``sample.vrt`` and compares its stdout and every file it writes (``--out``,
``--tsv``, ``--svg``) with the bytes stored under ``tests/golden/``.  An
argument ``@NAME`` stands for a file ``NAME`` in a fresh directory; its
golden is ``<case>.NAME``, and a missing golden means the command must not
write that file.  Stdout goldens are ``<case>.stdout``.

After an intended output change, regenerate with::

    PYTHONPATH=src python tests/test_cli_golden.py
"""

from __future__ import annotations

import contextlib
import importlib.resources
import io
import sys
import tempfile
from pathlib import Path

import pytest

from diachrona import cli
from diachrona.cli import run_cli
from diachrona.corpus import CorpusIndex
from diachrona.indexio import load_index, save_index
from diachrona.synth import synthetic_index

from conftest import record_scans

SAMPLE = importlib.resources.files("diachrona") / "data" / "sample.vrt"
GOLDEN = Path(__file__).resolve().parent / "golden"

CASES = {
    "freq-count": ["freq", "count", "--lemma", "pater"],
    "freq-count-filter": ["freq", "count", "--lemma", "pater", "--filter", "date=700..999",
                          "--filter", "typology=charter", "--out", "@count.tsv"],
    "freq-table": ["freq", "table", "--lemmas", "pater,mater,dominus"],
    "freq-table-slices": ["freq", "table", "--lemmas", "pater,mater,nonexistent",
                          "--slice", "early:date=700..999",
                          "--slice", "late:date=1000..1400;typology=charter", "--out", "@table.tsv"],
    "freq-table-filter": ["freq", "table", "--lemmas", "pater,mater", "--filter", "typology=letter"],
    "freq-table-slices-filter": ["freq", "table", "--lemmas", "pater,mater,dominus",
                                 "--slice", "early:date=700..999", "--slice", "late:date=1000..1400",
                                 "--filter", "typology=charter", "--filter", "dated"],
    "freq-ratio": ["freq", "ratio", "--a", "pater", "--b", "mater"],
    "freq-ratio-filter": ["freq", "ratio", "--a", "mater", "--b", "pater", "--filter", "date=900..1200",
                          "--out", "@ratio.tsv"],
    "freq-rank": ["freq", "rank", "--lemma", "mater"],
    "freq-rank-filter": ["freq", "rank", "--lemma", "pater", "--filter", "typology=letter"],
    "freq-share": ["freq", "share", "--lemma", "pater", "--forms", "patres,patrum,patribus"],
    "freq-share-filter": ["freq", "share", "--lemma", "pater", "--forms", "pater,patris",
                          "--filter", "date=700..999", "--out", "@share.tsv"],
    "freq-series": ["freq", "series", "--lemma", "pater", "--bin", "100", "--svg", "@series.svg"],
    "freq-series-ma": ["freq", "series", "--lemma", "mater", "--bin", "50", "--ma", "3",
                       "--filter", "typology=charter", "--out", "@series.tsv", "--svg", "@series.svg"],
    "cooc-top": ["cooc", "top", "--pivot", "pater", "--k", "10"],
    "cooc-top-options": ["cooc", "top", "--pivot", "pater", "--window", "3", "--k", "5", "--pos", "NOM,ADJ",
                         "--min", "2", "--scale", "1000", "--filter", "date=800..1100", "--out", "@top.tsv"],
    "cooc-pair": ["cooc", "pair", "--a", "pater", "--b", "dominus", "--bin", "100", "--scale", "100",
                  "--svg", "@pair.svg"],
    "cooc-pair-filter": ["cooc", "pair", "--a", "pater", "--b", "sanctus", "--window", "3",
                         "--filter", "typology=charter", "--out", "@pair.tsv"],
    "cooc-adj": ["cooc", "adj", "--a", "pater", "--b", "noster"],
    "cooc-adj-filter": ["cooc", "adj", "--a", "deus", "--b", "pater", "--filter", "date=700..999",
                        "--out", "@adj.tsv"],
    "evolve": ["evolve", "--pivot", "pater", "--k", "10", "--min", "5", "--top", "5"],
    "evolve-options": ["evolve", "--pivot", "pater", "--k", "4", "--window", "3", "--pos", "NOM,ADJ",
                       "--out", "@evolve.tsv"],
    "map": ["map", "--pivot", "pater", "--terms", "8", "--min", "2", "--svg", "@field.svg",
            "--tsv", "@field.tsv"],
    "map-dice": ["map", "--pivot", "pater", "--terms", "6", "--min", "2", "--weight", "dice",
                 "--no-pivot", "--out", "@map.tsv"],
    "map-filter": ["map", "--pivot", "pater", "--terms", "8", "--window", "3",
                   "--filter", "date=700..1100"],
    "map-typology-filter": ["map", "--pivot", "pater", "--terms", "8", "--window", "3",
                            "--filter", "typology=charter"],
    "map-tsv-over-out": ["map", "--pivot", "pater", "--terms", "5", "--tsv", "@field.tsv",
                         "--out", "@ignored.tsv"],
}


def run_case(argv: list[str], index: Path, workdir: Path) -> tuple[int, str, str, dict[str, bytes]]:
    """Exit code, stdout, stderr and the bytes of each ``@NAME`` file written."""
    names = [a[1:] for a in argv if a.startswith("@")]
    full = [str(workdir / a[1:]) if a.startswith("@") else a for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run_cli(full + ["--index", str(index)])
    files = {n: (workdir / n).read_bytes() for n in names if (workdir / n).exists()}
    return code, out.getvalue(), err.getvalue(), files


def build_sample(path: Path) -> Path:
    with contextlib.redirect_stderr(io.StringIO()):
        assert run_cli(["index", "build", "--input", str(SAMPLE), "--out", str(path)]) == 0
    return path


@pytest.fixture(scope="module")
def golden_index(tmp_path_factory):
    return build_sample(tmp_path_factory.mktemp("golden") / "sample.csem")


def check_case(case: str, index: Path, workdir: Path) -> None:
    argv = CASES[case]
    code, out, err, files = run_case(argv, index, workdir)
    assert (code, err) == (0, ""), case
    assert out.encode("utf-8") == (GOLDEN / f"{case}.stdout").read_bytes()
    for name in (a[1:] for a in argv if a.startswith("@")):
        golden = GOLDEN / f"{case}.{name}"
        if golden.exists():
            assert files.get(name) == golden.read_bytes(), name
        else:
            assert name not in files, name


@pytest.mark.parametrize("case", sorted(CASES))
def test_cli_output_matches_golden(golden_index, tmp_path, case):
    check_case(case, golden_index, tmp_path)


def test_cold_queries_scan_each_lemma_at_most_once(golden_index, tmp_path, monkeypatch):
    # each query loads its own index; a lemma it looks up again, over any
    # docset, reads the positions that its first lookup cached
    scans = []  # per loaded index, the lemma of each scan of its lemma column

    def load(path):
        index = load_index(path)
        scans.append(record_scans(index))
        return index

    monkeypatch.setattr(cli, "load_index", load)
    for case in sorted(CASES):
        (tmp_path / case).mkdir()
        check_case(case, golden_index, tmp_path / case)
    assert len(scans) == len(CASES)
    assert all(len(lemmas) == len(set(lemmas)) for lemmas in scans)
    assert sum(map(len, scans)) >= len(CASES) // 2


def test_no_document_records_on_the_load_synth_build_and_query_paths(tmp_path, monkeypatch):
    # producers, the index file and every query read the document columns;
    # the Document records are built only for callers that ask for them
    def refuse(index):
        raise AssertionError("Document records built")

    monkeypatch.setattr(CorpusIndex, "documents", property(refuse))
    index = synthetic_index(5_000, 50, 40, seed=3, dated_fraction=0.7)
    save_index(index, tmp_path / "synth.csem")
    assert load_index(tmp_path / "synth.csem") == index
    sample = build_sample(tmp_path / "sample.csem")
    for case in sorted(CASES):
        (tmp_path / case).mkdir()
        check_case(case, sample, tmp_path / case)


def regenerate() -> None:
    GOLDEN.mkdir(exist_ok=True)
    for stale in GOLDEN.iterdir():
        stale.unlink()
    with tempfile.TemporaryDirectory() as tmp:
        index = build_sample(Path(tmp) / "sample.csem")
        for case, argv in sorted(CASES.items()):
            workdir = Path(tmp) / case
            workdir.mkdir()
            code, out, err, files = run_case(argv, index, workdir)
            if code != 0:
                sys.exit(f"{case}: exit {code}: {err}")
            (GOLDEN / f"{case}.stdout").write_bytes(out.encode("utf-8"))
            for name, data in files.items():
                (GOLDEN / f"{case}.{name}").write_bytes(data)


if __name__ == "__main__":
    regenerate()
