import importlib.resources
import os
import shutil
import subprocess
import sys
from pathlib import Path
import xml.etree.ElementTree as ET

import pytest

import diachrona
from diachrona.cli import run_cli
from diachrona.corpus import CorpusError, DateSpec
from diachrona.indexio import load_index, save_index
from diachrona.ingest import index_from_documents
from diachrona.synth import synthetic_index

SAMPLE = importlib.resources.files("diachrona") / "data" / "sample.vrt"


@pytest.fixture(scope="module")
def sample_index(tmp_path_factory):
    out = tmp_path_factory.mktemp("idx") / "sample.csem"
    code = run_cli(["index", "build", "--input", str(SAMPLE), "--out", str(out)])
    assert code == 0
    return out


def sample_lemma_count(lemma: str) -> int:
    """File-scan oracle: count retained token lines carrying the lemma."""
    count = 0
    for line in SAMPLE.read_text(encoding="utf-8").splitlines():
        if line.startswith("#doc") or not line.strip():
            continue
        form, pos, lem = line.split("\t")
        if pos not in ("PUN", "SENT") and lem == lemma:
            count += 1
    return count


class TestExitCodes:
    def test_no_arguments_is_usage_error(self, capsys):
        assert run_cli([]) == 2
        capsys.readouterr()

    def test_help_exits_zero_everywhere(self, capsys):
        groups = [[], ["index"], ["freq"], ["cooc"]]
        leaves = [["index", name] for name in ("build", "synth")]
        leaves += [["freq", name] for name in ("count", "table", "ratio", "rank", "share", "series")]
        leaves += [["cooc", name] for name in ("top", "pair", "adj")]
        leaves += [["evolve"], ["map"]]
        assert len(leaves) == 13
        for argv in groups + leaves:
            assert run_cli(argv + ["--help"]) == 0
            assert capsys.readouterr().out.startswith("usage: diachrona")

    def test_unknown_subcommand_is_usage_error(self, capsys):
        assert run_cli(["frobnicate"]) == 2
        capsys.readouterr()

    def test_unknown_flag_is_usage_error(self, capsys):
        assert run_cli(["freq", "count", "--lemma", "x", "--bogus"]) == 2
        capsys.readouterr()

    def test_missing_index_file_is_domain_error(self, capsys):
        assert run_cli(["freq", "count", "--lemma", "x", "--index", "/nonexistent.csem"]) == 1
        assert "error" in capsys.readouterr().err

    def test_domain_error_exits_one(self, sample_index, capsys):
        assert run_cli(["freq", "rank", "--lemma", "zzznope", "--index", str(sample_index)]) == 1
        assert "not present" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "old, new", [(b"pater", b"pa\xffer"), (b"s002", b"s001")], ids=["invalid-utf8", "repeated-doc-id"]
    )
    def test_corrupt_index_is_one_line_error(self, sample_index, tmp_path, capsys, old, new):
        bad = tmp_path / "bad.csem"
        bad.write_bytes(sample_index.read_bytes().replace(old, new, 1))
        assert run_cli(["freq", "count", "--lemma", "pater", "--index", str(bad)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv",
        [["freq", "series", "--lemma", "pater"], ["cooc", "pair", "--a", "pater", "--b", "mater"]],
        ids=["series", "pair"],
    )
    def test_bin_beyond_int64_is_one_line_error(self, sample_index, capsys, argv):
        code = run_cli(argv + ["--bin", "100000000000000000000", "--index", str(sample_index)])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: bin width must be <= 9223372036854775807\n"

    @pytest.mark.parametrize(
        "argv",
        [["freq", "series", "--lemma", "x"], ["cooc", "pair", "--a", "x", "--b", "y"]],
        ids=["series", "pair"],
    )
    def test_too_many_year_bins_is_one_line_error(self, tmp_path, capsys, argv):
        # int32 extremes are valid stored dates; at --bin 1 they span 2**32 bins
        path = tmp_path / "extremes.csem"
        docs = [("a", DateSpec.exact(-(2**31)), None, [("x", "NOM", "x"), ("y", "NOM", "y")])]
        docs.append(("b", DateSpec.exact(2**31 - 1), None, [("x", "NOM", "x")]))
        save_index(index_from_documents(docs), path)
        assert run_cli(argv + ["--bin", "1", "--index", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: 4294967296 year bins of width 1 exceed the limit of 1000000; use a wider bin\n"
        )

    @pytest.mark.parametrize(
        "argv",
        [
            ["cooc", "top", "--pivot", "pater", "--min", "0"],
            ["map", "--pivot", "pater", "--min", "-3"],
            ["evolve", "--pivot", "pater", "--min", "0"],
        ],
        ids=["top", "map", "evolve"],
    )
    def test_min_below_one_is_one_line_error(self, sample_index, capsys, argv):
        assert run_cli(argv + ["--index", str(sample_index)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: min_count must be >= 1\n"

    @pytest.mark.parametrize("ma", ["0", "-1", "2"])
    def test_series_ma_not_positive_odd_is_one_line_error(self, sample_index, capsys, ma):
        argv = ["freq", "series", "--lemma", "pater", "--bin", "100", "--ma", ma]
        assert run_cli(argv + ["--index", str(sample_index)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: moving average window must be a positive odd number\n"


class TestIndexBuild:
    def test_known_count_from_file_scan_oracle(self, sample_index, capsys):
        assert run_cli(["freq", "count", "--lemma", "pater", "--index", str(sample_index)]) == 0
        out = capsys.readouterr().out
        lemma, count = out.strip().split("\t")
        assert lemma == "pater"
        assert int(count) == sample_lemma_count("pater")

    def test_drop_pos_excluded_from_index(self, sample_index):
        index = load_index(sample_index)
        assert index.lemmas.id_of(".") is None

    def test_plain_mode_with_lexicon(self, tmp_path, capsys):
        doc = tmp_path / "plain.txt"
        doc.write_text("In nomine Patris et filii.", encoding="utf-8")
        lex = tmp_path / "lex.tsv"
        lex.write_text("patris\tpater\tNOM\nfilii\tfilius\tNOM\n", encoding="utf-8")
        out = tmp_path / "plain.csem"
        code = run_cli(
            ["index", "build", "--plain", "--lexicon", str(lex), "--input", str(doc), "--out", str(out)]
        )
        assert code == 0
        index = load_index(out)
        assert index.total_tokens == 5
        assert index.lemmas.id_of("pater") is not None
        run_cli(["freq", "count", "--lemma", "pater", "--index", str(out)])
        assert capsys.readouterr().out.strip().split("\t")[1] == "1"

    @pytest.mark.parametrize("plain", [False, True])
    def test_non_utf8_input_is_one_line_domain_error(self, tmp_path, capsys, plain):
        bad = tmp_path / "latin1.vrt"
        bad.write_bytes("#doc id=d1 date=900\ncaf\u00e9\tNOM\tcafe\n".encode("latin-1"))
        argv = ["index", "build", "--input", str(bad), "--out", str(tmp_path / "x.csem")]
        assert run_cli(argv + (["--plain"] if plain else [])) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("error: ") and str(bad) in err and "UTF-8" in err

    def test_synth_is_seed_deterministic(self, tmp_path):
        a = tmp_path / "a.csem"
        b = tmp_path / "b.csem"
        for out in (a, b):
            assert run_cli(
                ["index", "synth", "--tokens", "5000", "--vocab", "50", "--docs", "40",
                 "--seed", "3", "--out", str(out)]
            ) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_synth_negative_seed_is_one_line_error(self, tmp_path, capsys):
        with pytest.raises(CorpusError, match="seed must be >= 0"):
            synthetic_index(100, 10, 5, seed=-1)
        out = tmp_path / "neg.csem"
        code = run_cli(["index", "synth", "--tokens", "100", "--seed", "-1", "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err == "error: seed must be >= 0\n"
        assert not out.exists()

    @pytest.mark.parametrize("fraction", ["7", "-1", "nan", "1.0001"])
    def test_synth_dated_fraction_outside_unit_interval_is_one_line_error(
        self, tmp_path, capsys, fraction
    ):
        with pytest.raises(CorpusError, match=r"dated_fraction must be in \[0, 1\]"):
            synthetic_index(100, 10, 5, seed=1, dated_fraction=float(fraction))
        out = tmp_path / "bad.csem"
        argv = ["index", "synth", "--tokens", "100", "--dated-fraction", fraction, "--out", str(out)]
        assert run_cli(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: dated_fraction must be in [0, 1]") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("fraction", [0.0, 1.0])
    def test_synth_dated_fraction_bounds_are_accepted(self, fraction):
        index = synthetic_index(100, 10, 5, seed=1, dated_fraction=fraction)
        assert index.doc_dated.all() == (fraction == 1.0)
        assert index.doc_dated.any() == (fraction == 1.0)


class TestQueries:
    def test_freq_table_slices(self, sample_index, capsys):
        code = run_cli(
            [
                "freq", "table",
                "--lemmas", "pater,mater",
                "--slice", "early:date=700..999",
                "--slice", "late:date=1000..1400",
                "--index", str(sample_index),
            ]
        )
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "lemma\tearly\tlate\tsum"
        pater = lines[1].split("\t")
        assert pater[0] == "pater"
        assert int(pater[1]) + int(pater[2]) == int(pater[3])
        assert lines[-1].startswith("sum\t")

    def test_freq_table_filter_is_the_all_column(self, sample_index, capsys):
        code = run_cli(
            ["freq", "table", "--lemmas", "pater,mater", "--filter", "typology=nonexistent",
             "--index", str(sample_index)]
        )
        assert code == 0
        assert capsys.readouterr().out == "lemma\tall\tsum\npater\t0\t0\nmater\t0\t0\nsum\t0\t0\n"

    def test_freq_table_filter_is_anded_into_slices(self, sample_index, capsys):
        index = ["--index", str(sample_index)]
        code = run_cli(
            ["freq", "table", "--lemmas", "pater,mater", "--slice", "early:date=700..999",
             "--slice", "late:date=1000..1400", "--filter", "typology=charter", *index]
        )
        assert code == 0
        rows = [line.split("\t") for line in capsys.readouterr().out.splitlines()]
        assert rows[0] == ["lemma", "early", "late", "sum"]
        for row, lemma in zip(rows[1:], ("pater", "mater")):
            expected = []
            for span in ("date=700..999", "date=1000..1400"):
                run_cli(["freq", "count", "--lemma", lemma, "--filter", span,
                         "--filter", "typology=charter", *index])
                expected.append(capsys.readouterr().out.split("\t")[1].strip())
            assert row[:3] == [lemma, *expected]
            assert 0 < int(row[3]) < sample_lemma_count(lemma)

    def test_filter_restricts_counts(self, sample_index, capsys):
        run_cli(["freq", "count", "--lemma", "pater", "--index", str(sample_index)])
        total = int(capsys.readouterr().out.split("\t")[1])
        run_cli(
            ["freq", "count", "--lemma", "pater", "--filter", "date=700..999",
             "--index", str(sample_index)]
        )
        early = int(capsys.readouterr().out.split("\t")[1])
        assert 0 < early < total

    def test_bad_filter_is_domain_error(self, sample_index, capsys):
        assert run_cli(
            ["freq", "count", "--lemma", "pater", "--filter", "era=medieval",
             "--index", str(sample_index)]
        ) == 1
        capsys.readouterr()

    def test_cooc_top_tsv_columns(self, sample_index, capsys):
        code = run_cli(
            ["cooc", "top", "--pivot", "pater", "--window", "5", "--k", "5",
             "--pos", "NOM,ADJ", "--min", "2", "--index", str(sample_index)]
        )
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "lemma\tpair_count\tfreq\tdice"
        assert len(lines) == 6

    def test_cooc_scale_multiplies_display(self, sample_index, capsys):
        run_cli(["cooc", "top", "--pivot", "pater", "--k", "1", "--index", str(sample_index)])
        base = float(capsys.readouterr().out.strip().splitlines()[1].split("\t")[3])
        run_cli(
            ["cooc", "top", "--pivot", "pater", "--k", "1", "--scale", "1000",
             "--index", str(sample_index)]
        )
        scaled = float(capsys.readouterr().out.strip().splitlines()[1].split("\t")[3])
        assert scaled == pytest.approx(1000 * base, rel=1e-4)

    def test_evolve_tsv_shape(self, sample_index, capsys):
        code = run_cli(
            ["evolve", "--pivot", "pater", "--k", "10", "--window", "5",
             "--min", "5", "--top", "4", "--index", str(sample_index)]
        )
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        header = lines[0].split("\t")
        assert header[0] == "lemma" and header[1] == "d_1" and header[10] == "d_10"
        assert header[-1] == "direction"
        assert 2 <= len(lines) <= 5
        assert lines[1].split("\t")[-1] in ("rising", "falling", "flat")

    def test_evolve_window_zero_is_domain_error(self, sample_index, capsys):
        code = run_cli(
            ["evolve", "--pivot", "pater", "--k", "4", "--window", "0",
             "--index", str(sample_index)]
        )
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.strip() == "error: window must be >= 1"

    def test_map_outputs_tsv_and_svg(self, sample_index, tmp_path, capsys):
        svg_path = tmp_path / "field.svg"
        tsv_path = tmp_path / "field.tsv"
        code = run_cli(
            ["map", "--pivot", "pater", "--terms", "8", "--window", "5", "--min", "2",
             "--svg", str(svg_path), "--tsv", str(tsv_path), "--index", str(sample_index)]
        )
        assert code == 0
        lines = tsv_path.read_text(encoding="utf-8").splitlines()
        assert lines[0].startswith("# axis1_inertia\t")
        assert lines[3] == "lemma\tx\ty"
        assert len(lines) == 4 + 8
        root = ET.parse(svg_path).getroot()
        assert root.tag.endswith("svg")

    def test_series_svg_is_wellformed(self, sample_index, tmp_path, capsys):
        svg_path = tmp_path / "series.svg"
        code = run_cli(
            ["freq", "series", "--lemma", "pater", "--bin", "100",
             "--svg", str(svg_path), "--index", str(sample_index)]
        )
        assert code == 0
        capsys.readouterr()
        ET.parse(svg_path)

    def test_out_flag_writes_file_with_lf_endings(self, sample_index, tmp_path):
        out = tmp_path / "top.tsv"
        run_cli(
            ["cooc", "top", "--pivot", "pater", "--k", "3", "--index", str(sample_index),
             "--out", str(out)]
        )
        raw = out.read_bytes()
        assert b"\r" not in raw
        assert raw.decode("utf-8").endswith("\n")

    def test_cooc_pair_tsv_and_svg(self, sample_index, tmp_path, capsys):
        svg_path = tmp_path / "pair.svg"
        code = run_cli(
            ["cooc", "pair", "--a", "pater", "--b", "dominus", "--window", "5",
             "--bin", "100", "--svg", str(svg_path), "--index", str(sample_index)]
        )
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "start_year\tpair_count\tdice"
        assert len(lines) > 3
        ET.parse(svg_path)

    def test_series_moving_average_column(self, sample_index, capsys):
        code = run_cli(
            ["freq", "series", "--lemma", "pater", "--bin", "100", "--ma", "3",
             "--index", str(sample_index)]
        )
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0].endswith("\tma")

    def test_map_dice_weight_variant(self, sample_index, capsys):
        code = run_cli(
            ["map", "--pivot", "pater", "--terms", "6", "--min", "2",
             "--weight", "dice", "--index", str(sample_index)]
        )
        assert code == 0
        capsys.readouterr()

    def test_console_script_entry_point(self):
        if shutil.which("diachrona") is None:
            pytest.skip("console script not on PATH")
        proc = subprocess.run(["diachrona", "--help"], capture_output=True, text=True)
        assert proc.returncode == 0
        assert "usage: diachrona" in proc.stdout

    def test_module_entry_point_matches_run_cli(self, sample_index, capsys):
        argv = ["freq", "count", "--lemma", "pater", "--index", str(sample_index)]
        assert run_cli(argv) == 0
        expected = capsys.readouterr().out
        env = dict(os.environ)
        src = str(Path(diachrona.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "diachrona.cli", *argv], capture_output=True, text=True, env=env
        )
        assert proc.returncode == 0, proc.stderr
        assert expected and proc.stdout == expected
