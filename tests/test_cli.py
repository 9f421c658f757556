import argparse
import contextlib
import hashlib
import importlib.resources
import io
import os
import shutil
import subprocess
import sys
from pathlib import Path
import xml.etree.ElementTree as ET

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import diachrona
from diachrona import cli, frequency
from diachrona.cli import _comma_set, _docset_from_filters, build_parser, run_cli
from diachrona.corpus import CorpusError, DateSpec, dated_within, has_typology, is_dated, subcorpus
from diachrona.indexio import load_index, save_index
from diachrona.ingest import index_from_documents
from diachrona.synth import synthetic_index

from conftest import v2_set_section
from test_cli_golden import check_case

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

    @pytest.mark.parametrize("exc", [MemoryError(), MemoryError("Unable to allocate 8 EiB")])
    def test_memory_error_is_one_line_error(self, sample_index, tmp_path, capsys, monkeypatch, exc):
        def exhausted(*args):
            raise exc

        monkeypatch.setattr(frequency, "lemma_count", exhausted)
        out = tmp_path / "count.tsv"
        argv = ["freq", "count", "--lemma", "pater", "--out", str(out), "--index", str(sample_index)]
        assert run_cli(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {str(exc) or 'out of memory'}\n"
        assert not out.exists()

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

    def test_repeated_form_is_a_one_line_error_of_the_share_that_reads_it(self, sample_index, tmp_path, capsys):
        # "patrum" made a second "patres", with the CRC32 updated: the load and
        # a count read no form, a share reads the forms its hits carry
        forms = list(load_index(sample_index).forms)
        forms[forms.index("patrum")] = "patres"
        bad = tmp_path / "bad.csem"
        bad.write_bytes(v2_set_section(sample_index.read_bytes(), "forms text", "".join(forms).encode()))
        assert run_cli(["freq", "count", "--lemma", "pater", "--index", str(bad)]) == 0
        assert capsys.readouterr().out == f"pater\t{sample_lemma_count('pater')}\n"
        argv = ["freq", "share", "--lemma", "pater", "--forms", "patres,patrum,patribus", "--index", str(bad)]
        assert run_cli(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: duplicate form in the index file: 'patres'\n"

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

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["freq", "count", "--lemma", "pater", "--filter", "date=1000..999"],
             "reversed date range: 1000..999"),
            (["freq", "table", "--lemmas", "pater", "--slice", "a:date=9..-9"],
             "reversed date range: 9..-9"),
            (["cooc", "top", "--pivot", "pater", "--scale", "nan"],
             "--scale must be a finite number, not nan"),
            (["cooc", "pair", "--a", "pater", "--b", "deus", "--scale", "inf"],
             "--scale must be a finite number, not inf"),
            (["freq", "table", "--lemmas", "pater", "--slice", "a:dated", "--slice", "b:dated",
              "--slice", "a:dated"],
             "two slices are labelled 'a'"),
            (["freq", "table", "--lemmas", "pater,mater,pater"], "lemma 'pater' is listed twice"),
            (["freq", "table", "--lemmas", ""], "--lemmas names no lemma: ''"),
            (["freq", "table", "--lemmas", ","], "--lemmas names no lemma: ','"),
            (["freq", "count", "--lemma", "pater", "--filter", "typology="], "empty typology tag"),
            (["freq", "table", "--lemmas", "pater", "--slice", "x:typology="], "empty typology tag"),
            (["freq", "count", "--lemma", "pater", "--filter", "date=700"],
             "bad date filter (expected date=LO..HI): 'date=700'"),
            (["freq", "count", "--lemma", "pater", "--filter", "date=a..b"],
             "bad date filter (years must be integers): 'date=a..b'"),
            (["freq", "table", "--lemmas", "pater", "--slice", "early"],
             "bad slice (expected LABEL:FILTER): 'early'"),
            (["cooc", "top", "--pivot", "pater", "--pos", ","], "--pos names no POS tag"),
            (["evolve", "--pivot", "pater", "--pos", ","], "--pos names no POS tag"),
            (["map", "--pivot", "pater", "--pos", ""], "--pos names no POS tag"),
            (["freq", "share", "--lemma", "pater", "--forms", ","], "--forms names no form"),
            (["index", "build", "--input", str(SAMPLE), "--lexicon", "no-such.tsv", "--out", "no-dir/x.csem"],
             "--lexicon applies only with --plain"),
        ],
        ids=[
            "reversed-filter", "reversed-slice", "top-nan-scale", "pair-inf-scale", "repeated-slice-label",
            "repeated-lemma", "no-lemma", "comma-lemma", "empty-typology-filter", "empty-typology-slice",
            "one-year-filter", "non-integer-filter", "slice-without-label", "top-no-pos", "evolve-no-pos",
            "map-no-pos", "share-no-form", "lexicon-without-plain",
        ],
    )
    def test_absurd_input_is_one_line_error(self, sample_index, capsys, argv, message):
        # a query reads the sample index; `index build` takes no index
        assert run_cli(argv + (["--index", str(sample_index)] if argv[0] != "index" else [])) == 1
        assert capsys.readouterr() == ("", f"error: {message}\n")

    def test_no_dropped_tag_and_an_absent_tag_are_legal(self, sample_index, tmp_path, capsys):
        out = tmp_path / "all.csem"
        assert run_cli(["index", "build", "--input", str(SAMPLE), "--out", str(out), "--drop-pos", ""]) == 0
        assert load_index(out).pos_tags.id_of("PUN") is not None
        assert run_cli(["cooc", "top", "--pivot", "pater", "--pos", "XYZ", "--index", str(sample_index)]) == 0
        assert capsys.readouterr().out == "lemma\tpair_count\tfreq\tdice\n"


# (option, action, default, type, required) of each leaf command's options;
# "store_true" and "append" are argparse's action names
_QUERY = [("--index", "store", None, str, True), ("--out", "store", None, str, False)]
_FILTER = [("--filter", "append", None, str, False)]
LEAF_OPTIONS = {
    ("index", "build"): [
        ("--input", "extend", None, str, True),
        ("--out", "store", None, str, True),
        ("--drop-pos", "store", "PUN,SENT", _comma_set, False),
        ("--plain", "store_true", False, str, False),
        ("--lexicon", "store", None, str, False),
    ],
    ("index", "synth"): [
        ("--tokens", "store", None, int, True),
        ("--vocab", "store", 1000, int, False),
        ("--docs", "store", 100, int, False),
        ("--seed", "store", 0, int, False),
        ("--dated-fraction", "store", 1.0, float, False),
        ("--out", "store", None, str, True),
    ],
    ("freq", "count"): [("--lemma", "store", None, str, True), *_QUERY, *_FILTER],
    ("freq", "table"): [
        ("--lemmas", "store", None, str, True),
        ("--slice", "append", None, str, False),
        *_QUERY, *_FILTER,
    ],
    ("freq", "ratio"): [
        ("--a", "store", None, str, True), ("--b", "store", None, str, True), *_QUERY, *_FILTER
    ],
    ("freq", "rank"): [("--lemma", "store", None, str, True), *_QUERY, *_FILTER],
    ("freq", "share"): [
        ("--lemma", "store", None, str, True),
        ("--forms", "store", None, _comma_set, True),
        *_QUERY, *_FILTER,
    ],
    ("freq", "series"): [
        ("--lemma", "store", None, str, True),
        ("--bin", "store", 50, int, False),
        ("--ma", "store", None, int, False),
        ("--svg", "store", None, str, False),
        *_QUERY, *_FILTER,
    ],
    ("cooc", "top"): [
        ("--pivot", "store", None, str, True),
        ("--window", "store", 5, int, False),
        ("--k", "store", 50, int, False),
        ("--pos", "store", None, _comma_set, False),
        ("--min", "store", 1, int, False),
        ("--scale", "store", 1.0, float, False),
        *_QUERY, *_FILTER,
    ],
    ("cooc", "pair"): [
        ("--a", "store", None, str, True),
        ("--b", "store", None, str, True),
        ("--window", "store", 5, int, False),
        ("--bin", "store", 50, int, False),
        ("--scale", "store", 1.0, float, False),
        ("--svg", "store", None, str, False),
        *_QUERY, *_FILTER,
    ],
    ("cooc", "adj"): [
        ("--a", "store", None, str, True), ("--b", "store", None, str, True), *_QUERY, *_FILTER
    ],
    ("evolve",): [
        ("--pivot", "store", None, str, True),
        ("--k", "store", 10, int, False),
        ("--window", "store", 5, int, False),
        ("--min", "store", 1, int, False),
        ("--top", "store", 20, int, False),
        ("--pos", "store", None, _comma_set, False),
        *_QUERY,
    ],
    ("map",): [
        ("--pivot", "store", None, str, True),
        ("--terms", "store", 30, int, False),
        ("--window", "store", 5, int, False),
        ("--pos", "store", None, _comma_set, False),
        ("--min", "store", 1, int, False),
        ("--weight", "store", "raw", str, False),
        ("--no-pivot", "store_true", False, str, False),
        ("--svg", "store", None, str, False),
        ("--tsv", "store", None, str, False),
        *_QUERY, *_FILTER,
    ],
}


def _leaf_parsers(parser, path=()):
    """(command path, parser) of every leaf command under ``parser``."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                yield from _leaf_parsers(sub, path + (name,))
            return
    yield path, parser


class TestParser:
    def test_every_command_keeps_its_options(self):
        actions = {
            argparse._StoreAction: "store", argparse._AppendAction: "append",
            argparse._ExtendAction: "extend", argparse._StoreTrueAction: "store_true",
        }
        found = {}
        for path, sub in _leaf_parsers(build_parser()):
            found[path] = sorted(
                (a.option_strings[0], actions[type(a)], a.default, a.type or str, a.required)
                for a in sub._actions
                if not isinstance(a, argparse._HelpAction)
            )
        assert found == {path: sorted(rows) for path, rows in LEAF_OPTIONS.items()}

    def test_run_cli_builds_one_parser_per_process(self, sample_index, monkeypatch, capsys):
        built = []

        def spy():
            built.append(build_parser())
            return built[-1]

        monkeypatch.setattr(cli, "build_parser", spy)
        cli._parser.cache_clear()
        index = ["--index", str(sample_index)]
        calls = [
            (["freq", "count", "--lemma", "pater", *index], 0),
            (["cooc", "top", "--pivot", "pater", "--k", "3", *index], 0),
            (["freq", "count", "--lemma", "pater", "--bogus", *index], 2),
            (["freq", "count", "--help"], 0),
            (["--help"], 0),
            ([], 2),
            (["freq", "rank", "--lemma", "zzznope", *index], 1),
        ]
        assert [run_cli(argv) for argv, _ in calls] == [code for _, code in calls]
        capsys.readouterr()
        assert len(built) == 1
        # each build_parser() caller gets a parser of its own, which run_cli never sees
        first, second = build_parser(), build_parser()
        assert first is not second and built[0] not in (first, second)
        first.add_argument("--extra")
        argv = ["--extra", "x", "freq", "rank", "--lemma", "pater", *index]
        assert first.parse_args(argv).extra == "x"
        assert run_cli(argv) == 2
        assert capsys.readouterr().err.startswith("usage: diachrona ")
        assert len(built) == 1

    def test_help_follows_columns_at_each_call(self, monkeypatch, capsys):
        # the reused parser builds a help formatter per call, which reads COLUMNS then
        texts = []
        for columns in ("50", "200", "50"):
            monkeypatch.setenv("COLUMNS", columns)
            assert run_cli(["freq", "count", "--help"]) == 0
            texts.append(capsys.readouterr().out)
        assert texts[0] == texts[2] != texts[1]


_SYNTH_SIZES = "synthetic corpus needs n_tokens >= 0, vocab_size >= 1, n_docs >= 1"


class TestIndexBuild:
    def test_known_count_from_file_scan_oracle(self, sample_index, capsys):
        assert run_cli(["freq", "count", "--lemma", "pater", "--index", str(sample_index)]) == 0
        out = capsys.readouterr().out
        lemma, count = out.strip().split("\t")
        assert lemma == "pater"
        assert int(count) == sample_lemma_count("pater")

    def test_sample_index_bytes_are_pinned(self, sample_index):
        # any change to interning order or to the file format changes these
        # bytes (format version 2; tests/test_indexio.py pins version 1's)
        data = sample_index.read_bytes()
        assert len(data) == 23_016
        assert hashlib.sha256(data).hexdigest() == (
            "8abe2374019b539b1adc3c0adf537aeeb6c55c2d98dfd5fae1b4eb0697379318"
        )

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

    @pytest.mark.parametrize("plain", [False, True, "lexicon"])
    def test_non_utf8_input_is_one_line_domain_error(self, tmp_path, capsys, plain):
        # "lexicon": a plain input that is UTF-8, and a lexicon that is not
        bad = tmp_path / "latin1.vrt"
        bad.write_bytes("#doc id=d1 date=900\ncaf\u00e9\tNOM\tcafe\n".encode("latin-1"))
        good = tmp_path / "good.txt"
        good.write_text("pater\n", encoding="utf-8")
        lexicon = plain == "lexicon"
        argv = ["index", "build", "--input", str(good if lexicon else bad), "--out", str(tmp_path / "x.csem")]
        argv += (["--plain"] if plain else []) + (["--lexicon", str(bad)] if lexicon else [])
        assert run_cli(argv) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("error: ") and str(bad) in err and "UTF-8" in err

    @pytest.mark.parametrize("plain", [False, True])
    def test_non_utf8_second_input_is_named(self, tmp_path, capsys, plain):
        good = tmp_path / "good.vrt"
        good.write_text("#doc id=d1 date=900\npater\tNOM\tpater\n", encoding="utf-8")
        bad = tmp_path / "latin1.vrt"
        bad.write_bytes("#doc id=d2 date=950\ncafé\tNOM\tcafe\n".encode("latin-1"))
        out = tmp_path / "x.csem"
        argv = ["index", "build", "--input", str(good), str(bad), "--out", str(out)]
        assert run_cli(argv + (["--plain"] if plain else [])) == 1
        err = capsys.readouterr().err
        assert err == "error: " + str(bad) + ": not valid UTF-8 text (invalid continuation byte)\n"
        assert not out.exists()

    @pytest.mark.parametrize("repeated", [False, True], ids=["one-flag", "repeated-flag"])
    def test_line_numbers_run_on_across_inputs(self, tmp_path, capsys, repeated):
        first = tmp_path / "a.vrt"
        first.write_text("#doc id=d1 date=900\npater\tNOM\tpater\n", encoding="utf-8")
        second = tmp_path / "b.vrt"
        second.write_text("#doc id=d2 date=950\npater\tNOM\n", encoding="utf-8")
        inputs = [str(first), "--input", str(second)] if repeated else [str(first), str(second)]
        argv = ["index", "build", "--input", *inputs, "--out", str(tmp_path / "x")]
        assert run_cli(argv) == 1
        assert capsys.readouterr().err == "error: line 4: token line has 2 columns, expected 3\n"

    @pytest.mark.parametrize("repeated", [False, True], ids=["one-flag", "repeated-flag"])
    def test_every_input_is_indexed(self, tmp_path, repeated):
        paths = []
        for name, year in (("a", 900), ("b", 950), ("c", 1000)):
            paths.append(tmp_path / f"{name}.vrt")
            paths[-1].write_text(f"#doc id={name} date={year}\npater\tNOM\tpater\n", encoding="utf-8")
        first, *rest = map(str, paths)
        inputs = [first] + [arg for path in rest for arg in ("--input", path)] if repeated else [first, *rest]
        out = tmp_path / "x.csem"
        assert run_cli(["index", "build", "--input", *inputs, "--out", str(out)]) == 0
        index = load_index(out)
        assert [doc.doc_id for doc in index.documents] == ["a", "b", "c"]
        assert index.total_tokens == 3

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

    # only sizes at or above 2**63: they are rejected before any allocation
    @pytest.mark.parametrize(
        "sizes",
        [
            {"tokens": 2**63, "vocab": 1, "docs": 1},
            {"tokens": 10**29, "vocab": 1, "docs": 1},
            {"tokens": 10, "vocab": 10**20, "docs": 1},
            {"tokens": 10, "vocab": 3, "docs": 2**63},
        ],
    )
    def test_synth_size_beyond_int64_is_one_line_error(self, tmp_path, capsys, sizes):
        message = "synthetic corpus sizes above 1152921504606846975 exceed numpy's array size limit"
        with pytest.raises(CorpusError, match=message):
            synthetic_index(sizes["tokens"], sizes["vocab"], sizes["docs"], seed=1)
        out = tmp_path / "big.csem"
        argv = ["index", "synth", *(f"--{name}={n}" for name, n in sizes.items()), "--out", str(out)]
        assert run_cli(argv) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    # 2**62 elements: numpy refuses such an array before it allocates anything
    @pytest.mark.parametrize(
        "sizes",
        [
            {"tokens": 10, "vocab": 2**62, "docs": 1},
            {"tokens": 2**62, "vocab": 3, "docs": 1},
            {"tokens": 10, "vocab": 3, "docs": 2**62},
        ],
    )
    def test_synth_size_numpy_refuses_is_one_line_error(self, tmp_path, capsys, sizes):
        message = "synthetic corpus sizes above 1152921504606846975 exceed numpy's array size limit"
        with pytest.raises(CorpusError, match=message):
            synthetic_index(sizes["tokens"], sizes["vocab"], sizes["docs"], seed=1)
        out = tmp_path / "big.csem"
        argv = ["index", "synth", *(f"--{name}={n}" for name, n in sizes.items()), "--out", str(out)]
        assert run_cli(argv) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "sizes, message",
        [
            ({"tokens": -1, "vocab": 3, "docs": 1}, _SYNTH_SIZES),
            ({"tokens": 10, "vocab": 0, "docs": 1}, _SYNTH_SIZES),
            ({"tokens": 10, "vocab": 3, "docs": 0}, _SYNTH_SIZES),
            ({"tokens": 3, "vocab": 3, "docs": 5}, "more documents than tokens"),
        ],
        ids=["negative-tokens", "no-vocab", "no-docs", "docs-above-tokens"],
    )
    def test_synth_size_below_range_is_one_line_error(self, tmp_path, capsys, sizes, message):
        with pytest.raises(CorpusError, match=f"^{message}$"):
            synthetic_index(sizes["tokens"], sizes["vocab"], sizes["docs"], seed=1)
        out = tmp_path / "small.csem"
        argv = ["index", "synth", *(f"--{name}={n}" for name, n in sizes.items()), "--out", str(out)]
        assert run_cli(argv) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("tokens, docs, lengths", [(7, 1, [7]), (0, 3, [0, 0, 0])])
    def test_synth_one_document_or_no_tokens(self, tokens, docs, lengths):
        index = synthetic_index(tokens, 5, docs, seed=1)
        assert [d.token_len for d in index.documents] == lengths
        assert index.total_tokens == tokens

    @pytest.mark.parametrize("fraction", [0.0, 1.0])
    def test_synth_dated_fraction_bounds_are_accepted(self, fraction):
        index = synthetic_index(100, 10, 5, seed=1, dated_fraction=fraction)
        assert index.doc_dated.all() == (fraction == 1.0)
        assert index.doc_dated.any() == (fraction == 1.0)


_TAGS = ["charter", "letter", "", "absent"]
_YEARS = st.integers(-10**30, 10**30) | st.integers(-50, 1500)


@st.composite
def filter_cases(draw):
    """(index, filter expressions): undated, exact and ranged documents with
    negative years and optional typologies, and a list of 1-3 filters whose
    date bounds may lie beyond int64."""
    docs = []
    for i in range(draw(st.integers(0, 8))):
        lo = draw(st.none() | st.integers(-50, 1400))
        date = DateSpec.undated() if lo is None else DateSpec.year_range(lo, lo + draw(st.integers(0, 60)))
        typology = draw(st.sampled_from([None, *_TAGS[:3]]))
        docs.append((f"d{i}", date, typology, [("x", "NOM", "x")] * draw(st.integers(0, 2))))
    date_filter = st.builds(lambda lo, hi: f"date={lo}..{hi}", _YEARS, _YEARS)
    typology_filter = st.sampled_from(_TAGS).map(lambda tag: f"typology={tag}")
    expr = st.just("dated") | date_filter | typology_filter
    return index_from_documents(docs), draw(st.lists(expr, min_size=1, max_size=3))


def _oracle_mask(index, filters):
    """The documents matching every filter expression, decided from each
    document's :class:`Document` record alone."""

    def keeps(doc, expr):
        mid = doc.date.midpoint()
        if expr == "dated":
            return mid is not None
        key, value = expr.split("=", 1)
        if key == "date":
            lo, hi = map(int, value.split(".."))
            return mid is not None and lo <= mid <= hi
        return doc.typology == value

    return [all(keeps(doc, expr) for expr in filters) for doc in index.documents]


def _library_filters(filters):
    """The ``corpus`` document filters the expressions name."""
    out = []
    for expr in filters:
        key, _, value = expr.partition("=")
        if expr == "dated":
            out.append(is_dated)
        elif key == "date":
            out.append(dated_within(*map(int, value.split(".."))))
        else:
            out.append(has_typology(value))
    return out


def _refusal(expr):
    """The error pattern of an absurd filter expression, a reversed date
    range or an empty typology; None for any other."""
    key, _, value = expr.partition("=")
    lo, _, hi = value.partition("..")
    if key == "date" and int(lo) > int(hi):
        return "^reversed date range: "
    if key == "typology" and not value:
        return "^empty typology tag$"
    return None


def _check_filters(index, filters):
    refusals = [r for r in map(_refusal, filters) if r]
    if refusals:
        # both the command line and the library refuse the first absurd filter
        with pytest.raises(CorpusError, match=refusals[0]):
            _docset_from_filters(index, filters)
        with pytest.raises(CorpusError, match=refusals[0]):
            _library_filters(filters)
        return
    expected = _oracle_mask(index, filters)
    for mask in (_docset_from_filters(index, filters), subcorpus(index, *_library_filters(filters))):
        assert mask.dtype == bool
        assert mask.tolist() == expected


class TestFilterMasks:
    @settings(max_examples=150, deadline=None)
    @given(filter_cases())
    def test_filters_match_the_record_oracle(self, case):
        _check_filters(*case)

    @pytest.mark.parametrize(
        "filters",
        [
            ["date=0..1000000000000000000000000000000"],
            ["date=-1000000000000000000000000000000..-1"],
            ["date=-20..-5"],
            ["typology=absent"],
            ["typology="],
            ["dated", "typology=charter", "date=-10..700"],
        ],
    )
    def test_fixed_filters_match_the_record_oracle(self, filters):
        docs = [
            ("neg", DateSpec.year_range(-30, -10), "", [("x", "NOM", "x")]),
            ("zero", DateSpec.exact(0), "charter", []),
            ("mid", DateSpec.exact(650), "charter", [("y", "NOM", "y")]),
            ("late", DateSpec.year_range(900, 960), "letter", [("x", "NOM", "x")]),
            ("undated", DateSpec.undated(), None, [("y", "NOM", "y")]),
        ]
        _check_filters(index_from_documents(docs), filters)

    def test_filter_beyond_int64_on_the_command_line(self, sample_index, capsys):
        argv = ["freq", "count", "--lemma", "pater", "--index", str(sample_index)]
        assert run_cli(argv + ["--filter", "dated"]) == 0
        dated = capsys.readouterr().out
        assert run_cli(argv + ["--filter", f"date=-{10**30}..{10**30}"]) == 0
        assert capsys.readouterr().out == dated
        assert run_cli(argv + ["--filter", f"date={10**30}..{10**31}"]) == 0
        assert capsys.readouterr().out == "pater\t0\n"


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

    @pytest.mark.parametrize(
        "scale, message",
        [
            ("nan", "--scale must be a finite number, not nan"),
            ("inf", "--scale must be a finite number, not inf"),
            ("1e308", "cannot plot a NaN or infinite value"),
        ],
        ids=["nan", "inf", "1e308"],
    )
    def test_non_finite_scaled_dice_is_not_charted(self, sample_index, tmp_path, capsys, scale, message):
        # a non-finite scale is refused; pater's dice with itself exceeds 1,
        # so 1e308 times it overflows to inf, which the chart refuses
        svg = tmp_path / "pair.svg"
        code = run_cli(
            ["cooc", "pair", "--a", "pater", "--b", "pater", "--window", "50", "--scale", scale,
             "--svg", str(svg), "--index", str(sample_index)]
        )
        assert code == 1 and not svg.exists()
        assert capsys.readouterr().err == f"error: {message}\n"

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


# --------------------------------------------------------------------------
# fuzz: random argv over every subcommand
# --------------------------------------------------------------------------

def _mostly(good, bad):
    """Values from ``good``, and from ``bad`` about one time in six."""
    return st.integers(0, 5).flatmap(lambda roll: bad if roll == 0 else good)


_WORDS = _mostly(
    st.sampled_from(["pater", "mater", "filius", "zzz"]), st.sampled_from(["", "pa ter", "-x", "é"])
)
_INTS = _mostly(
    st.integers(1, 12).map(str),
    st.sampled_from(["0", "-3", "2147483648", str(2**63), str(-(2**63) - 1), str(10**30), "x", ""]),
)
_FLOATS = _mostly(st.sampled_from(["1", "0.5", "100"]), st.sampled_from(["-2.5", "nan", "inf", "1e308", "x"]))
_LISTS = st.lists(_WORDS, max_size=3).map(",".join)
_FILTERS = _mostly(
    st.sampled_from(["dated", "date=700..999", f"date=-{10**30}..{10**30}", "typology=charter"]),
    st.sampled_from(["date=900..800", "date=x..y", "date=5", "date=..", "typology=", "era=x", ""]),
)
_SLICES = _mostly(
    st.sampled_from(["early:date=700..999", "a:dated;typology=charter"]),
    st.sampled_from(["bad", "x:", ":dated", "b:era=1"]),
)
_REQUIRED = {
    "--input", "--out", "--tokens", "--index", "--lemma", "--lemmas", "--a", "--b", "--pivot", "--forms"
}


@st.composite
def cli_argv(draw, index, workdir):
    """A random argv for one of the 13 subcommands: each option present or
    not, with values mostly valid, sometimes out of range or malformed."""
    # a missing directory and a directory are unwritable output paths
    paths = _mostly(
        st.just(str(workdir / "out")), st.sampled_from([str(workdir / "missing" / "out"), str(workdir)])
    )
    indexes = _mostly(st.just(str(index)), st.sampled_from([str(workdir / "absent.csem"), str(SAMPLE)]))
    common = {"--index": indexes, "--filter": _FILTERS, "--out": paths}
    options = {
        ("index", "build"): {
            "--input": _mostly(
                st.just(str(SAMPLE)),
                st.sampled_from([str(workdir / "absent.vrt"), str(workdir / "latin1.txt")]),
            ),
            "--out": paths, "--drop-pos": _LISTS, "--plain": None,
            "--lexicon": st.sampled_from(
                [str(workdir / "lexicon.tsv"), str(SAMPLE), str(workdir / "absent.tsv")]
            ),
        },
        # sizes stay small or beyond the limit, so no draw allocates much
        ("index", "synth"): {
            "--tokens": st.integers(-2, 2000).map(str) | st.just(str(2**70)),
            "--vocab": st.integers(-1, 60).map(str) | st.just(str(2**70)),
            "--docs": st.integers(-1, 50).map(str) | st.just(str(2**70)),
            "--seed": st.integers(-2, 5).map(str), "--dated-fraction": _FLOATS, "--out": paths,
        },
        ("freq", "count"): {"--lemma": _WORDS, **common},
        ("freq", "table"): {"--lemmas": _LISTS, "--slice": _SLICES, **common},
        ("freq", "ratio"): {"--a": _WORDS, "--b": _WORDS, **common},
        ("freq", "rank"): {"--lemma": _WORDS, **common},
        ("freq", "share"): {"--lemma": _WORDS, "--forms": _LISTS, **common},
        ("freq", "series"): {"--lemma": _WORDS, "--bin": _INTS, "--ma": _INTS, "--svg": paths, **common},
        ("cooc", "top"): {
            "--pivot": _WORDS, "--window": _INTS, "--k": _INTS, "--pos": _LISTS, "--min": _INTS,
            "--scale": _FLOATS, **common,
        },
        ("cooc", "pair"): {
            "--a": _WORDS, "--b": _WORDS, "--window": _INTS, "--bin": _INTS, "--scale": _FLOATS,
            "--svg": paths, **common,
        },
        ("cooc", "adj"): {"--a": _WORDS, "--b": _WORDS, **common},
        ("evolve",): {
            "--pivot": _WORDS, "--k": _INTS, "--window": _INTS, "--min": _INTS, "--top": _INTS,
            "--pos": _LISTS, "--index": indexes, "--out": paths,
        },
        ("map",): {
            "--pivot": _WORDS, "--terms": _INTS, "--window": _INTS, "--pos": _LISTS, "--min": _INTS,
            "--weight": st.sampled_from(["raw", "dice", "log"]), "--no-pivot": None, "--svg": paths,
            "--tsv": paths, **common,
        },
    }
    command = draw(st.sampled_from(sorted(options)))
    argv = list(command)
    for flag, values in options[command].items():
        most = 2 if flag in ("--filter", "--slice", "--input") else 1
        times = draw(_mostly(st.just(1), st.just(0)) if flag in _REQUIRED else st.integers(0, most))
        for _ in range(times):
            argv += [flag] if values is None else [flag, draw(values)]
    if draw(st.integers(0, 9)) == 0:
        argv.insert(draw(st.integers(0, len(argv))), draw(st.sampled_from(["--bogus", "x", "--", "-h"])))
    return argv


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    workdir = tmp_path_factory.mktemp("fuzz")
    (workdir / "latin1.txt").write_bytes("pater\tNOM\tpater\nm\xe6ter\n".encode("latin-1"))
    (workdir / "lexicon.tsv").write_text("pater\tpater\tNOM\nmatris\tmater\tNOM\n", encoding="utf-8")
    return workdir


@settings(max_examples=250, deadline=None)
@given(data=st.data())
def test_random_argv_exits_cleanly(sample_index, fuzz_dir, data):
    # any argv ends in exit 0, 1 or 2, never in an exception; a domain error
    # is one line on stderr
    argv = data.draw(cli_argv(sample_index, fuzz_dir))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run_cli(argv)
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    if code == 1:
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1, err.getvalue()


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_random_argv_leaves_the_next_call_unchanged(sample_index, fuzz_dir, data):
    # run_cli reuses one parser across calls: after any argv (a usage error,
    # -h, a domain error or an unwritable --out among them), a golden case
    # that takes every default of its options still writes its golden bytes
    argv = data.draw(cli_argv(sample_index, fuzz_dir))
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        run_cli(argv)
    check_case("cooc-top", sample_index, fuzz_dir)
