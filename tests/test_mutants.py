"""A table of hand-made mutants of the program, and the tests that must kill them.

Each row is one one-line mutant: a file under ``src/diachrona``, a line of it
as it stands, the line that replaces it, the test files that judge it, and
whether they kill it ("yes") or not ("no, because ...": an equivalent mutant,
which changes speed only).  ``test_mutant`` applies a row to a copy of
``src/`` and ``tests/`` in a temporary directory and runs the named files
there with ``-x``: a killed mutant must fail a test, a survivor must pass
them all.  A row whose line no longer stands in its file fails, so the table
cannot drift from the code unseen.

Each row runs pytest again, for 2-90 s, so the test is opt-in:

    DIACHRONA_MUTANTS=1 python -m pytest tests/test_mutants.py
"""

import faulthandler
import os
import shutil
import subprocess
import sys
from pathlib import Path
from typing import NamedTuple

import pytest

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    file: str
    old: str
    new: str
    tests: tuple[str, ...]
    killed: str


EQUIVALENT = "no, because it is equivalent: it changes speed only"

MUTANTS = {
    "svg-bounds-widen-by-1": Mutant(
        "svgplot.py",
        "            lo, hi = lo - max(1.0, math.ulp(lo)), hi + max(1.0, math.ulp(hi))",
        "            lo, hi = lo - 1.0, hi + 1.0",
        ("test_svgplot.py",),
        "yes",
    ),
    "bare-string-names-accepted": Mutant(
        "corpus.py",
        "    if isinstance(names, str):",
        "    if False:",
        ("test_corpus.py",),
        "yes",
    ),
    "lemma-pairs-commoner-row": Mutant(
        "cooc.py",
        "    if len(_lemma_positions(index, b)) < len(_lemma_positions(index, a)):",
        "    if len(_lemma_positions(index, b)) > len(_lemma_positions(index, a)):",
        ("test_cooc.py",),
        "yes",
    ),
    "mirror-walk-one-step-short": Mutant(
        "cooc.py",
        "            for s in range(1, min(window, len(pos) - 1) + 1):",
        "            for s in range(1, min(window, len(pos) - 2) + 1):",
        ("test_cooc.py",),
        "yes",
    ),
    "dated-within-rejects-one-year": Mutant(
        "corpus.py",
        "    if lo > hi:",
        "    if lo >= hi:",
        ("test_corpus.py",),
        "yes",
    ),
    "empty-pos-option-accepted": Mutant(
        "cli.py",
        '    for option, what in (("pos", "POS tag"), ("forms", "form")):',
        '    for option, what in (("forms", "form"),):',
        ("test_cli.py",),
        "yes",
    ),
    "parser-rebuilt-per-call": Mutant(
        "cli.py",
        "    parser = _parser()",
        "    parser = build_parser()",
        ("test_cli.py",),
        "yes",
    ),
    "lemma-counts-drop-last-key": Mutant(
        "frequency.py",
        "        table += np.bincount(keys, minlength=len(table))",
        "        table += np.bincount(keys[:-1], minlength=len(table))",
        ("test_frequency.py",),
        "yes",
    ),
    "mirror-walk-continue": Mutant(
        "cooc.py",
        "                    break",
        "                    continue",
        ("test_cooc.py",),
        EQUIVALENT + " (key gaps grow with s, so once no pair passes, no later step does)",
    ),
    "key-buffer-flushed-when-full": Mutant(
        "cooc.py",
        "                if n + len(pos) > len(keys):",
        "                if n >= len(keys):",
        ("test_cooc.py",),
        "yes",
    ),
    "docset-bucket-map-always": Mutant(
        "cooc.py",
        "    return None if dmask.all() else np.where(dmask, 0, -1)",
        "    return np.where(dmask, 0, -1)",
        ("test_cooc.py",),
        EQUIVALENT + " (a map of zeros puts every occurrence in bucket 0, as no map does)",
    ),
    "typology-numbering-unchecked": Mutant(
        "corpus.py",
        '        if (typology > running[:-1] + 1).any() or running[-1] != len(typologies) - 1 or "" in typologies:',
        "        if False:",
        ("test_corpus.py", "test_indexio.py"),
        "yes",
    ),
    "pos-majority-strict": Mutant(
        "cooc.py",
        "        candidate &= 2 * good >= np.maximum(totals, 1)",
        "        candidate &= 2 * good > np.maximum(totals, 1)",
        ("test_cooc.py",),
        "yes",
    ),
    "candidates-by-largest-bucket": Mutant(
        "cooc.py",
        "    candidate = pairs.sum(axis=0) >= min_count",
        "    candidate = pairs.max(axis=0) >= min_count",
        # test_diachrony.py kills it at once; test_cooc.py takes a minute
        ("test_diachrony.py", "test_cooc.py"),
        "yes",
    ),
    "row-codes-from-zero": Mutant(
        "cooc.py",
        "    code_of[rows] = np.arange(1, len(rows) + 1)",
        "    code_of[rows] = np.arange(len(rows))",
        ("test_cooc.py",),
        "yes",
    ),
    "mirror-keys-always-int32": Mutant(
        "cooc.py",
        "            key = np.subtract(docs, docs[0], dtype=np.int32 if narrow else np.int64)",
        "            key = np.subtract(docs, docs[0], dtype=np.int32)",
        ("test_cooc.py",),
        "yes",
    ),
    "one-bucket-freqs-of-allowed-tags": Mutant(
        "cooc.py",
        "        freqs = (totals if good is not None else _docset_counts(index, docs))[None]",
        "        freqs = (good if good is not None else _docset_counts(index, docs))[None]",
        ("test_cooc.py",),
        "yes",
    ),
    "bucket-counts-keyed-by-k": Mutant(
        "frequency.py",
        "    if entry is not None and len(entry[1]) == n_buckets and np.array_equal(entry[0], doc_bucket):",
        "    if entry is not None and len(entry[1]) == n_buckets:",
        ("test_cooc.py",),
        "yes",
    ),
    "bucket-counts-never-replaced": Mutant(
        "frequency.py",
        "    index._bucket_counts = (key, table)",
        "    index._bucket_counts = entry or (key, table)",
        ("test_cooc.py",),
        "yes",
    ),
}


@pytest.mark.skipif(os.environ.get("DIACHRONA_MUTANTS") != "1", reason="opt-in: set DIACHRONA_MUTANTS=1")
@pytest.mark.parametrize("name", MUTANTS)
def test_mutant(tmp_path, name):
    # a survivor reruns whole test files, test_cooc.py alone about a minute on
    # a 2-core host, past the suite's 60 s hang guard (pyproject.toml); the
    # run's own timeout bounds each row instead
    faulthandler.cancel_dump_traceback_later()
    mutant = MUTANTS[name]
    shutil.copytree(ROOT / "src", tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    shutil.copytree(ROOT / "tests", tmp_path / "tests", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "pyproject.toml", tmp_path)
    source = tmp_path / "src" / "diachrona" / mutant.file
    lines = source.read_text(encoding="utf-8").split("\n")
    assert lines.count(mutant.old) == 1, f"the line to mutate stands {lines.count(mutant.old)} times"
    lines[lines.index(mutant.old)] = mutant.new
    source.write_text("\n".join(lines), encoding="utf-8")
    env = {key: value for key, value in os.environ.items() if key != "DIACHRONA_MUTANTS"}
    # pyproject.toml puts the copy's src/ first on the path
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *(f"tests/{t}" for t in mutant.tests)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=600,
    )
    # exit 1: a test failed; 0: every test passed; anything else is a broken run
    expected = 1 if mutant.killed == "yes" else 0
    assert run.returncode == expected, run.stdout[-3000:] + run.stderr[-2000:]
