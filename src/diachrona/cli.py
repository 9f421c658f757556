"""Command-line interface: index building plus TSV/SVG query commands.

Subcommands: ``index`` (build, synth), ``freq`` (count, table, ratio, rank,
share, series), ``cooc`` (top, pair, adj), ``evolve``, ``map``.
Exit codes: 0 success, 1 domain error, 2 usage error.

Every query command takes one path, :func:`_run_query`: load the index,
resolve ``--filter`` to a docset, run the query, write its tab-separated
rows to stdout or ``--out`` (``map --tsv`` takes precedence), then render
its chart to ``--svg`` when given.  A query is a function of
``(index, docset, args)`` returning ``(rows, chart)``.

``--filter`` restricts queries to a document subset and may be repeated
(conjunction).  Accepted forms: ``date=LO..HI`` (midpoint within the
interval, LO <= HI), ``typology=TAG``, ``dated``.  Each expression parses
into one of the document filters defined in :mod:`diachrona.corpus`
(``dated_within``, ``has_typology``, ``is_dated``), and
:func:`~diachrona.corpus.subcorpus` ANDs them into one document mask.
``evolve`` has no ``--filter``; it tranches the dated documents.  ``freq
table`` AND-s ``--filter`` into each ``--slice`` column (no two with one
label), or uses it as its single ``all`` column; ``count_table`` itself
rejects a lemma listed twice.

An option that several commands take is defined once, with one help text
and one default: ``--index``, ``--out``, ``--filter``, ``--lemma``, ``--a``
and ``--b``, ``--pivot``, ``--window 5``, ``--pos`` (a comma-separated
list naming at least one tag; ``freq share --forms`` likewise names at
least one form), ``--min 1`` (minimum pair count, at least 1), ``--bin
50`` (years), ``--scale 1.0`` (finite) and ``--svg``.

:func:`run_cli` builds one parser per process, on its first call, and
reuses it; :func:`build_parser` returns a new parser on each call.  The
subcommand handlers (``_freq_count``, ``_run_query``, ...) are bound into
that parser when it is built, so replacing one in this module's namespace
later changes nothing: patch the layer function the handler calls (such as
``frequency.lemma_count``) instead.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import math
import sys
from pathlib import Path

from . import cooc as cooc_mod
from . import frequency as freq_mod
from .corpus import CorpusError, CorpusIndex, DateSpec, dated_within, has_typology, is_dated, subcorpus
from .diachrony import evolving_cooccurrents, make_tranches
from .indexio import load_index, save_index
from .ingest import Lexicon, lemmatize, parse_vertical, tokenize_plain, index_from_documents
from .semfield import semantic_map
from .svgplot import PlotSpec, emit_svg
from .synth import synthetic_index

__all__ = ["run_cli", "entry", "build_parser"]


def _num(value: float) -> str:
    return f"{value:.6g}"


def _cell(value) -> str:
    """One TSV cell: floats to six significant digits, None as NA."""
    if value is None:
        return "NA"
    return _num(value) if isinstance(value, float) else str(value)


def _write_text(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


def _parse_filter(expr: str):
    """The document filter that one ``--filter`` expression names."""
    if expr == "dated":
        return is_dated
    key, sep, value = expr.partition("=")
    if key == "date" and sep:
        lo, dots, hi = value.partition("..")
        if not dots or not lo or not hi:
            raise CorpusError(f"bad date filter (expected date=LO..HI): {expr!r}")
        try:
            return dated_within(int(lo), int(hi))
        except ValueError:
            raise CorpusError(f"bad date filter (years must be integers): {expr!r}") from None
    if key == "typology" and sep:
        return has_typology(value)
    raise CorpusError(f"unknown filter: {expr!r}")


def _docset_from_filters(index: CorpusIndex, filters: list[str] | None):
    """The document mask of the ``--filter`` expressions; every document when none."""
    return subcorpus(index, *map(_parse_filter, filters or ()))


def _comma_set(raw: str) -> frozenset[str]:
    """A comma-separated option value as a set, without empty items."""
    return frozenset(part for part in raw.split(",") if part)


# --------------------------------------------------------------------------
# index
# --------------------------------------------------------------------------


def _cmd_index_build(args) -> int:
    if args.lexicon and not args.plain:
        raise CorpusError("--lexicon applies only with --plain")
    opened: list[str] = []

    def files(paths):
        for path in paths:
            opened.append(path)
            with open(path, encoding="utf-8") as fh:
                yield fh

    # every file is read while it is the last one opened, so a decoding
    # failure names it (parse_vertical reads the open files' lines directly)
    try:
        if args.plain:
            lex = Lexicon()
            for fh in files([args.lexicon] if args.lexicon else []):
                lex = Lexicon.from_tsv(fh)
            index = index_from_documents(
                (Path(fh.name).stem, DateSpec.undated(), None, lemmatize(tokenize_plain(fh.read()), lex))
                for fh in files(args.input)
            )
        else:
            index = parse_vertical(itertools.chain.from_iterable(files(args.input)), drop_pos=args.drop_pos)
    except UnicodeDecodeError as exc:
        raise CorpusError(f"{opened[-1]}: not valid UTF-8 text ({exc.reason})") from None
    save_index(index, args.out)
    sys.stderr.write(
        f"indexed {index.total_tokens} tokens in {len(index)} documents "
        f"({len(index.lemmas)} lemmas) -> {args.out}\n"
    )
    return 0


def _cmd_index_synth(args) -> int:
    index = synthetic_index(
        args.tokens,
        args.vocab,
        args.docs,
        seed=args.seed,
        dated_fraction=args.dated_fraction,
    )
    save_index(index, args.out)
    sys.stderr.write(f"synthesized {index.total_tokens} tokens -> {args.out}\n")
    return 0


# --------------------------------------------------------------------------
# queries: each maps (index, docset, args) to (TSV rows, chart or None)
# --------------------------------------------------------------------------


def _freq_count(index, docset, args):
    return [[args.lemma, freq_mod.lemma_count(index, docset, args.lemma)]], None


def _freq_table(index, docset, args):
    lemmas = [part for part in args.lemmas.split(",") if part]
    if not lemmas:
        raise CorpusError(f"--lemmas names no lemma: {args.lemmas!r}")
    labels, docsets = ["all"], [docset]
    if args.slice:
        labels, docsets = [], []
        for spec in args.slice:
            label, sep, expr = spec.partition(":")
            if not sep:
                raise CorpusError(f"bad slice (expected LABEL:FILTER): {spec!r}")
            if label in labels:
                raise CorpusError(f"two slices are labelled {label!r}")
            labels.append(label)
            docsets.append(_docset_from_filters(index, expr.split(";")) & docset)
    table = freq_mod.count_table(index, lemmas, docsets, labels)
    rows = [["lemma", *table.labels, "sum"]]
    rows += [[lemma, *table.counts[i], table.row_sums[i]] for i, lemma in enumerate(table.lemmas)]
    rows.append(["sum", *table.col_sums, table.grand_total])
    return rows, None


def _freq_ratio(index, docset, args):
    count_a = freq_mod.lemma_count(index, docset, args.a)
    count_b = freq_mod.lemma_count(index, docset, args.b)
    result = freq_mod.ratio(count_a, count_b)
    return [[args.a, result.a, args.b, result.b, result.value]], None


def _freq_rank(index, docset, args):
    rank = freq_mod.lemma_rank(index, docset, args.lemma)
    if rank is None:
        raise CorpusError(f"lemma {args.lemma!r} not present in docset")
    return [[args.lemma, rank]], None


def _freq_share(index, docset, args):
    return [[args.lemma, freq_mod.form_share(index, docset, args.lemma, args.forms)]], None


def _freq_series(index, docset, args):
    series = freq_mod.time_series(index, args.lemma, args.bin, docset=docset)
    rows = [["start_year", "count", "token_mass", "per_million"]]
    rows += [[b.start_year, b.count, b.token_mass, b.per_million] for b in series.bins]
    if args.ma is not None:
        smoothed = freq_mod.moving_average([b.per_million for b in series.bins], args.ma)
        for row, value in zip(rows, ["ma", *smoothed]):
            row.append(value)
    chart = PlotSpec(
        kind="series",
        title=f"{args.lemma} per {args.bin}-year bin",
        x_label="year",
        y_label="occurrences",
        curves=[(args.lemma, [(float(b.start_year), float(b.count)) for b in series.bins])],
    )
    return rows, chart


def _check_scale(args) -> None:
    """``--scale``, the display multiplier of Dice, must be finite."""
    if not math.isfinite(args.scale):
        raise CorpusError(f"--scale must be a finite number, not {args.scale}")


def _cooc_top(index, docset, args):
    _check_scale(args)
    ranked = cooc_mod.top_cooccurrents(
        index,
        docset,
        args.pivot,
        args.window,
        k=args.k,
        pos_filter=args.pos,
        min_count=args.min,
    )
    rows = [["lemma", "pair_count", "freq", "dice"]]
    rows += [[e.lemma, e.pair_count, e.freq, e.dice * args.scale] for e in ranked]
    return rows, None


def _cooc_pair(index, docset, args):
    _check_scale(args)
    bins = cooc_mod.pair_evolution(index, args.a, args.b, args.window, args.bin, docset=docset)
    rows = [["start_year", "pair_count", "dice"]]
    rows += [[b.start_year, b.pair_count, b.dice * args.scale] for b in bins]
    chart = PlotSpec(
        kind="series",
        title=f"{args.a} + {args.b} (window {args.window})",
        x_label="year",
        y_label="pairs / scaled dice",
        curves=[
            ("pairs", [(float(b.start_year), float(b.pair_count)) for b in bins]),
            ("dice", [(float(b.start_year), b.dice * args.scale) for b in bins]),
        ],
    )
    return rows, chart


def _cooc_adj(index, docset, args):
    return [[args.a, args.b, cooc_mod.adjacency_count(index, docset, args.a, args.b)]], None


def _evolve(index, docset, args):
    report = evolving_cooccurrents(
        index,
        make_tranches(index, args.k),
        args.pivot,
        args.window,
        pos_filter=args.pos,
        min_count=args.min,
        top_n=args.top,
    )
    rows = [["lemma", *(f"d_{t + 1}" for t in range(args.k)), "total", "score", "direction"]]
    for e in report.entries:
        rows.append([e.lemma, *e.dice_by_tranche, e.total_pairs, e.score, e.direction])
    return rows, None


def _map(index, docset, args):
    result = semantic_map(
        index,
        docset,
        args.pivot,
        args.window,
        args.terms,
        pos_filter=args.pos,
        min_count=args.min,
        include_pivot=not args.no_pivot,
        weight=args.weight,
    )
    rows = [
        ["# axis1_inertia", result.inertia_fractions[0]],
        ["# axis2_inertia", result.inertia_fractions[1]],
        ["# total_inertia", result.total_inertia],
        ["lemma", "x", "y"],
    ]
    rows += [[p.lemma, p.x, p.y] for p in result.points]
    chart = PlotSpec(
        kind="scatter",
        title=f"semantic field of {args.pivot}",
        x_label=f"axis 1 ({100 * result.inertia_fractions[0]:.1f}% of inertia)",
        y_label=f"axis 2 ({100 * result.inertia_fractions[1]:.1f}% of inertia)",
        points=[(p.x, p.y) for p in result.points],
        labels=[p.lemma for p in result.points],
    )
    return rows, chart


def _run_query(args) -> int:
    """Load the index, resolve ``--filter``, run the query, write its TSV, then its SVG."""
    # an empty --pos or --forms would quietly match nothing
    for option, what in (("pos", "POS tag"), ("forms", "form")):
        if getattr(args, option, None) == frozenset():
            raise CorpusError(f"--{option} names no {what}")
    index = load_index(args.index)
    docset = _docset_from_filters(index, getattr(args, "filter", None))
    rows, chart = args.query(index, docset, args)
    text = "".join("\t".join(map(_cell, row)) + "\n" for row in rows)
    _write_text(text, getattr(args, "tsv", None) or args.out)
    if chart is not None and args.svg:
        _write_text(emit_svg(chart), args.svg)
    return 0


# --------------------------------------------------------------------------
# parser
# --------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="diachrona",
        description="Corpus semantics over lemmatized diachronic corpora.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    # an option that several subcommands take is defined once, in a parent
    # parser that each of them lists
    def shared(flag, **kwargs) -> argparse.ArgumentParser:
        parent = argparse.ArgumentParser(add_help=False)
        parent.add_argument(flag, **kwargs)
        return parent

    index_path = shared("--index", required=True, help="path to a .csem index file")
    out = shared("--out", help="write TSV here instead of stdout")
    filtered = shared(
        "--filter", action="append", metavar="EXPR",
        help="restrict to documents matching EXPR (date=LO..HI, typology=TAG, dated); repeatable",
    )
    lemma = shared("--lemma", required=True, help="the lemma queried")
    pair = shared("--a", required=True, help="first lemma")
    pair.add_argument("--b", required=True, help="second lemma")
    pivot = shared("--pivot", required=True, help="the lemma whose collocates are scored")
    window = shared("--window", type=int, default=5, help="greatest token distance of a pair (default 5)")
    pos = shared("--pos", type=_comma_set, help="comma-separated allowed POS tags (majority rule)")
    min_count = shared("--min", type=int, default=1, help="minimum pair count, at least 1 (default 1)")
    bin_width = shared("--bin", type=int, default=50, help="bin width in years (default 50)")
    scale = shared("--scale", type=float, default=1.0, help="display multiplier for dice (default 1.0)")
    svg = shared("--svg", help="also render the chart here")

    def query(group, name, help, run, *parents) -> argparse.ArgumentParser:
        """A query subcommand running ``run``: ``parents``' options, then --index, --filter, --out."""
        sub = group.add_parser(name, help=help, parents=[*parents, index_path, filtered, out])
        sub.set_defaults(func=_run_query, query=run)
        return sub

    index_cmd = commands.add_parser("index", help="build or synthesize an index")
    index_sub = index_cmd.add_subparsers(dest="subcommand", required=True)

    build = index_sub.add_parser("build", help="index vertical (or plain) text files")
    build.add_argument(
        "--input", nargs="+", action="extend", required=True, help="input files (repeatable)"
    )
    build.add_argument("--out", required=True, help="output .csem path")
    build.add_argument(
        "--drop-pos", type=_comma_set, default="PUN,SENT",
        help="comma-separated POS tags dropped at ingestion (default PUN,SENT)",
    )
    build.add_argument("--plain", action="store_true", help="treat inputs as plain text")
    build.add_argument("--lexicon", help="form/lemma/POS TSV used with --plain")
    build.set_defaults(func=_cmd_index_build)

    synth = index_sub.add_parser("synth", help="generate a seeded synthetic corpus")
    synth.add_argument("--tokens", type=int, required=True)
    synth.add_argument("--vocab", type=int, default=1000)
    synth.add_argument("--docs", type=int, default=100)
    synth.add_argument("--seed", type=int, default=0, help="fixes the generated data")
    synth.add_argument("--dated-fraction", type=float, default=1.0)
    synth.add_argument("--out", required=True)
    synth.set_defaults(func=_cmd_index_synth)

    freq = commands.add_parser("freq", help="lemma frequency queries")
    freq_sub = freq.add_subparsers(dest="subcommand", required=True)
    query(freq_sub, "count", "occurrences of one lemma", _freq_count, lemma)
    table = query(freq_sub, "table", "lemma x slice count table with sums", _freq_table)
    table.add_argument("--lemmas", required=True, help="comma-separated lemma list")
    table.add_argument(
        "--slice", action="append", metavar="LABEL:FILTER",
        help="named docset column; FILTER may join filters with ';'",
    )
    query(freq_sub, "ratio", "count ratio of two lemmas", _freq_ratio, pair)
    query(freq_sub, "rank", "frequency rank of a lemma (1 = most frequent)", _freq_rank, lemma)
    share = query(
        freq_sub, "share", "share of a lemma's tokens with given surface forms", _freq_share, lemma
    )
    share.add_argument("--forms", type=_comma_set, required=True, help="comma-separated surface forms")
    series = query(freq_sub, "series", "dated time series of a lemma", _freq_series, lemma, bin_width, svg)
    series.add_argument("--ma", type=int, help="odd moving-average window (extra column)")

    cooc = commands.add_parser("cooc", help="windowed cooccurrence queries")
    cooc_sub = cooc.add_subparsers(dest="subcommand", required=True)
    top = query(
        cooc_sub, "top", "Dice-ranked collocates of a pivot", _cooc_top,
        pivot, window, pos, min_count, scale,
    )
    top.add_argument("--k", type=int, default=50)
    query(
        cooc_sub, "pair", "association of two lemmas over time", _cooc_pair,
        pair, window, bin_width, scale, svg,
    )
    query(cooc_sub, "adj", "directly adjacent pairs of two lemmas", _cooc_adj, pair)

    # evolve tranches the dated documents, so it takes no --filter
    evolve = commands.add_parser(
        "evolve",
        help="strongest-evolving collocates across tranches",
        parents=[pivot, window, pos, min_count, index_path, out],
    )
    evolve.add_argument("--k", type=int, default=10, help="tranche count")
    evolve.add_argument("--top", type=int, default=20)
    evolve.set_defaults(func=_run_query, query=_evolve)

    map_cmd = query(
        commands, "map", "correspondence-analysis semantic field map", _map,
        pivot, window, pos, min_count, svg,
    )
    map_cmd.add_argument("--terms", type=int, default=30, help="total terms on the map")
    map_cmd.add_argument("--weight", choices=("raw", "dice"), default="raw")
    map_cmd.add_argument("--no-pivot", action="store_true", help="exclude the pivot itself")
    map_cmd.add_argument("--tsv", help="write coordinates here")

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # parse_args writes no parser state (each call gets a new namespace,
    # append and extend copy their defaults, and help is formatted at the
    # COLUMNS of its call), so one parser serves every call
    return build_parser()


def run_cli(argv=None) -> int:
    """Parse and dispatch; returns the process exit code.

    The parser is built on the first call in a process and reused by every
    later one; :func:`build_parser` returns a new parser on each call.
    """
    parser = _parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 2
    try:
        return args.func(args)
    except (CorpusError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except MemoryError as exc:
        sys.stderr.write(f"error: {str(exc) or 'out of memory'}\n")
        return 1


def entry() -> None:
    raise SystemExit(run_cli())


if __name__ == "__main__":
    entry()
