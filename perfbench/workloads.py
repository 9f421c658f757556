"""The benchmark's workloads: seeded operation lists over diachrona's
public functions and ``run_cli``, with the checks for each operation.

A workload is set up, then ``run.run`` runs its fixed operation list in
whole rounds.  Each operation returns a result; ``output`` turns a result
into the bytes that must repeat exactly across rounds (and with tracing
on), and the operation's ``check`` compares a first-round result with the
reference counters or with a property the method must have.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import os
import sys
import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

import checks
import inputs
import reference as ref
from checks import expect

import diachrona as dc
from diachrona import cli

SETUP_REPS = 3
CLI_SETUP_REPS = 9  # its set-up is short, so take more of them
POS_FILTER = frozenset({"NOM", "ADJ"})


def _returned(result) -> bool:
    return True


@dataclass
class Op:
    name: str  # unique within the workload
    cls: str  # operation class reported in the summary line
    run: Callable[[], object]
    check: Callable[[object], None]
    ok: Callable[[object], bool] = _returned  # False counts the attempt as failed
    occurrences: int = 0  # pivot occurrences its collocate ranking touches
    docs: int = 0  # documents in the docset it resolves
    tokens: int = 0  # tokens in that docset


@dataclass
class Workload:
    name: str
    seed: int
    work: str  # private directory for the workload's files
    ops: list[Op] = field(default_factory=list)
    setup_steps: list[list] = field(default_factory=list)  # calibrated steps per set-up
    token_lines: int = 0  # vertical token lines per build (cli-lifecycle)
    speed = "numpy"  # calibration kernel that tracks the operations' speed

    def output(self, op: Op, result) -> bytes:
        """Bytes that stand for a result (results are plain tuples and
        dataclasses of numbers and strings, so ``repr`` is exact)."""
        return repr(result).encode("utf-8")

    def path(self, name: str) -> str:
        return os.path.join(self.work, name)


def _sizes(corpus: inputs.CorpusArrays, selection) -> tuple[int, int]:
    if selection is None:
        return len(corpus.starts), len(corpus.lemma)
    lens = corpus.ends - corpus.starts
    return int(selection.sum()), int(lens[selection].sum())


# ----------------------------------------------------------------------
# warm in-memory index: collocates and diachronic
# ----------------------------------------------------------------------


class WarmWorkload(Workload):
    """Set-up: generate the synthetic corpus, save it, load it back."""

    def setup(self, cal, tracer=None, tokens=inputs.WARM_TOKENS, vocab=inputs.WARM_VOCAB,
              docs=inputs.WARM_DOCS) -> None:
        path = self.path("warm.csem")
        for rep in range(SETUP_REPS):
            self.index = None
            gc.collect()
            last = rep == SETUP_REPS - 1
            if tracer is not None and last:
                tracer.enabled = True
            cal.mark()
            start = time.perf_counter()
            generated = dc.synthetic_index(tokens, vocab, docs, seed=self.seed)
            steps = [cal.step(time.perf_counter() - start, "numpy")]
            if last:
                self.generated_digest = inputs.index_digest(generated)
                self.ranks = _ranks(generated)
                cal.mark()
            start = time.perf_counter()
            dc.save_index(generated, path)
            del generated
            steps.append(cal.step(time.perf_counter() - start, "numpy"))
            start = time.perf_counter()
            self.index = dc.load_index(path)
            steps.append(cal.step(time.perf_counter() - start, "numpy"))
            if tracer is not None:
                tracer.enabled = False
            self.setup_steps.append(steps)
        os.remove(path)
        self._corpus = None

    @property
    def corpus(self) -> inputs.CorpusArrays:
        """Reference arrays, read from the loaded index once it is shown to
        hold exactly the generated corpus (only checks use this)."""
        if self._corpus is None:
            expect(inputs.index_digest(self.index) == self.generated_digest,
                   "loaded index differs from the generated corpus")
            self._corpus = inputs.arrays_of_index(self.index)
        return self._corpus


def _ranks(index) -> list[str]:
    """Lemmas by descending frequency, as far as the deepest rank used (a
    smaller test vocabulary clamps deeper ranks to its rarest lemma)."""
    freqs = np.bincount(index.lemma_ids, minlength=len(index.lemmas))
    order = np.argsort(-freqs, kind="stable")[: max(inputs.COLLOCATE_RANKS.values()) + 1]
    return [index.lemmas[int(i)] for i in order]


def _at(ranks: list[str], rank: int) -> str:
    return ranks[min(rank, len(ranks) - 1)]


class Collocates(WarmWorkload):
    def build_ops(self) -> None:
        lo, hi = inputs.slice_window(self.seed)
        piv = {band: _at(self.ranks, rank) for band, rank in inputs.COLLOCATE_RANKS.items()}
        index = self.index
        self.slice = (lo, hi)
        for band, pivot in piv.items():
            for window in (1, 5):
                # the wider window also carries the POS-majority filter and a min count
                pos, min_count = (POS_FILTER, 2) if window == 5 else (None, 1)
                for docset in ("full", "slice"):
                    self.ops.append(Op(
                        f"top/{band}/w{window}/{docset}",
                        f"top_{band}" if docset == "full" else "top_slice",
                        _top(index, pivot, window, pos, min_count, None if docset == "full" else (lo, hi)),
                        self._check_top(pivot, window, pos, min_count, docset),
                    ))
        for a, b, docset in (
            (piv["common"], self.ranks[1], "full"),
            (piv["mid"], piv["common"], "full"),
            (piv["rare"], piv["mid"], "slice"),
            (self.ranks[1], piv["common"], "slice"),
        ):
            span = None if docset == "full" else (lo, hi)
            self.ops.append(Op(
                f"adj/{a}/{b}/{docset}", "adj", _adj(index, a, b, span),
                self._check_adj(a, b, docset),
            ))

    def describe(self) -> None:
        """Per-op work sizes for the per-layer metrics (reads the corpus)."""
        corpus = self.corpus
        sel = corpus.slice_docs(*self.slice)
        freqs_full = np.bincount(corpus.lemma, minlength=corpus.n_lemmas)
        freqs_slice = ref.lemma_freqs(corpus, ref.selection_buckets(sel))[0]
        for op in self.ops:
            part = op.name.split("/")
            selection = sel if part[-1] == "slice" else None
            op.docs, op.tokens = _sizes(corpus, selection)
            if part[0] == "top":
                pivot = _at(self.ranks, inputs.COLLOCATE_RANKS[part[1]])
                freqs = freqs_full if selection is None else freqs_slice
                op.occurrences = int(freqs[corpus.lemma_names.index(pivot)])

    def _selection(self, docset):
        return None if docset == "full" else self.corpus.slice_docs(*self.slice)

    def _check_top(self, pivot, window, pos, min_count, docset):
        def check(result):
            want = ref.top_collocates(self.corpus, self._selection(docset), pivot, window, 20, pos, min_count)
            checks.check_top(result, want, f"top {pivot} w{window} {docset}")
        return check

    def _check_adj(self, a, b, docset):
        def check(result):
            checks.check_adjacency(result, self.corpus, self._selection(docset), a, b, f"adj {a}/{b} {docset}")
        return check


def _docset(index, span):
    return None if span is None else dc.subcorpus(index, dc.dated_within(*span))


def _top(index, pivot, window, pos, min_count, span):
    def run():
        return dc.top_cooccurrents(index, _docset(index, span), pivot, window, k=20,
                                   pos_filter=pos, min_count=min_count)
    return run


def _adj(index, a, b, span):
    def run():
        return dc.adjacency_count(index, _docset(index, span), a, b)
    return run


class Diachronic(WarmWorkload):
    K = 10
    WINDOW = 5
    BIN = 50
    MAP_TERMS = 30
    MIN_COUNT = 5

    def build_ops(self) -> None:
        index = self.index
        partner = _at(self.ranks, inputs.PAIR_PARTNER_RANK)
        for band, rank in inputs.DIACHRONIC_RANKS.items():
            pivot = _at(self.ranks, rank)
            pos = POS_FILTER if band == "mid" else None
            self.ops += [
                Op(f"evolve/{pivot}", "evolve", self._evolve(pivot, pos), self._check_evolve(pivot, pos)),
                Op(f"pair/{pivot}/{partner}", "pair_series",
                   lambda p=pivot: dc.pair_evolution(index, p, partner, self.WINDOW, self.BIN),
                   lambda r, p=pivot: checks.check_pair_series(r, self.corpus, p, partner, self.WINDOW, self.BIN)),
                Op(f"series/{pivot}", "series",
                   lambda p=pivot: dc.time_series(index, p, self.BIN),
                   lambda r, p=pivot: checks.check_series(r, self.corpus, p, self.BIN)),
                Op(f"map/{pivot}", "map", self._map(pivot), self._check_map(pivot)),
            ]

    def describe(self) -> None:
        corpus = self.corpus
        freqs = np.bincount(corpus.lemma, minlength=corpus.n_lemmas)
        for op in self.ops:
            op.docs, op.tokens = _sizes(corpus, corpus.dated if op.cls != "map" else None)
            if op.cls == "map":  # the map ranks the pivot's collocates once
                op.occurrences = int(freqs[corpus.lemma_names.index(op.name.split("/")[1])])

    def _evolve(self, pivot, pos):
        index = self.index

        def run():
            tranches = dc.make_tranches(index, self.K)
            return tranches, dc.evolving_cooccurrents(
                index, tranches, pivot, self.WINDOW, pos_filter=pos, min_count=self.MIN_COUNT, top_n=20)
        return run

    def _check_evolve(self, pivot, pos):
        def check(result):
            tranches, report = result
            checks.check_evolution(report, tranches, self.corpus, pivot, self.WINDOW, pos, self.MIN_COUNT, 20)
        return check

    def _map(self, pivot):
        index = self.index

        def run():
            field_map = dc.semantic_map(index, None, pivot, self.WINDOW, self.MAP_TERMS)
            spec = dc.PlotSpec(
                kind="scatter",
                title=f"semantic field of {pivot}",
                x_label="axis 1",
                y_label="axis 2",
                points=[(p.x, p.y) for p in field_map.points],
                labels=[p.lemma for p in field_map.points],
            )
            return field_map, dc.emit_svg(spec)
        return run

    def _check_map(self, pivot):
        def check(result):
            field_map, svg = result
            checks.check_map(field_map, self.corpus, None, pivot, self.WINDOW, self.MAP_TERMS)
            checks.check_svg(svg, f"map {pivot}")
        return check


# ----------------------------------------------------------------------
# cli-lifecycle: index build, then cold CLI queries
# ----------------------------------------------------------------------

EARLY = (700, 999)
LATE = (1000, 1300)
CLI_RANKS = {"common": 0, "mid": 50, "rare": 2000, "map": 10}


class CliLifecycle(Workload):
    """Set-up: generate the vertical file and write it."""

    speed = "python"

    def setup(self, cal, tracer=None, tokens=inputs.VRT_TOKENS, vocab=inputs.VRT_VOCAB,
              docs=inputs.VRT_DOCS) -> None:
        path = self.path("corpus.vrt")
        for _ in range(CLI_SETUP_REPS):
            self.vertical = None
            gc.collect()
            cal.mark()
            start = time.perf_counter()
            vertical = inputs.vertical_corpus(self.seed, tokens, vocab, docs)
            with open(path, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(vertical.text)
            self.setup_steps.append([cal.step(time.perf_counter() - start, "numpy")])
            self.vertical = vertical
        self.corpus = self.vertical.corpus
        self.token_lines = self.vertical.token_lines
        self.vertical = None  # drop the text, keep the arrays

    def build_ops(self) -> None:
        corpus = self.corpus
        ranks = corpus.lemma_ranks()
        lem = {name: _at(ranks, r) for name, r in CLI_RANKS.items()}
        rng = np.random.default_rng([self.seed, 31])
        lo = int(rng.integers(800, 1200))
        self.top_span = (lo, lo + 59)
        self.lemmas = lem
        idx = ["--index", self.path("corpus.csem")]
        self.commands = {
            "build": ["index", "build", "--input", self.path("corpus.vrt"), "--out", self.path("corpus.csem")],
            "count": ["freq", "count", "--lemma", lem["mid"], *idx, "--out", self.path("count.tsv")],
            "table": ["freq", "table", "--lemmas", f"{lem['common']},{lem['mid']},{lem['rare']}",
                      "--slice", f"early:date={EARLY[0]}..{EARLY[1]}",
                      "--slice", f"late:date={LATE[0]}..{LATE[1]}", *idx, "--out", self.path("table.tsv")],
            "series": ["freq", "series", "--lemma", lem["common"], "--bin", "50", *idx,
                       "--out", self.path("series.tsv"), "--svg", self.path("series.svg")],
            "top": ["cooc", "top", "--pivot", lem["mid"], "--window", "5", "--k", "20", "--pos", "NOM,ADJ",
                    "--min", "2", "--filter", f"date={lo}..{lo + 59}", *idx, "--out", self.path("top.tsv")],
            "map": ["map", "--pivot", lem["map"], "--window", "5", "--terms", "30", "--min", "2", *idx,
                    "--svg", self.path("map.svg"), "--tsv", self.path("map.tsv")],
        }
        self.files = {
            "build": ["corpus.csem"], "count": ["count.tsv"], "table": ["table.tsv"],
            "series": ["series.tsv", "series.svg"], "top": ["top.tsv"], "map": ["map.tsv", "map.svg"],
        }
        checkers = {
            "build": self._check_build, "count": self._check_count, "table": self._check_table,
            "series": self._check_series, "top": self._check_top, "map": self._check_map,
        }
        for name, argv in self.commands.items():
            self.ops.append(Op(name, "build" if name == "build" else "cold_query",
                               _cli(argv), _ignore_result(checkers[name]), ok=_exit_zero))

    def describe(self) -> None:
        corpus = self.corpus
        sel = {
            "count": None,
            "table": corpus.slice_docs(*EARLY) | corpus.slice_docs(*LATE),
            "series": corpus.dated,
            "top": corpus.slice_docs(*self.top_span),
            "map": None,
            "build": None,
        }
        for op in self.ops:
            op.docs, op.tokens = _sizes(corpus, sel[op.name])
            if op.name in ("top", "map"):
                buckets = ref.selection_buckets(sel[op.name])
                pivot = self.lemmas["mid" if op.name == "top" else "map"]
                op.occurrences = int(ref.lemma_freqs(corpus, buckets)[0, corpus.lemma_names.index(pivot)])

    def output(self, op: Op, result) -> bytes:
        h = hashlib.sha256(str(result).encode())
        for name in self.files[op.name]:
            with open(self.path(name), "rb") as fh:
                h.update(fh.read())
        return h.digest()

    def read(self, name: str) -> str:
        with open(self.path(name), encoding="utf-8") as fh:
            return fh.read()

    def _check_build(self) -> None:
        index_path = self.path("corpus.csem")
        built = inputs.arrays_of_index(loaded := dc.load_index(index_path))
        want = self.corpus
        for col, names in (("lemma", "lemma_names"), ("form", "form_names"), ("pos", "pos_names")):
            got_str = np.asarray(getattr(built, names), dtype=object)[getattr(built, col)]
            want_str = np.asarray(getattr(want, names), dtype=object)[getattr(want, col)]
            expect(len(got_str) == len(want_str) and bool(np.all(got_str == want_str)),
                   f"built index: {col} strings differ from the generated tokens")
            used = set(np.asarray(getattr(want, names), dtype=object)[np.unique(getattr(want, col))])
            expect(set(getattr(built, names)) == used, f"built index: {col} vocabulary differs")
        for col in ("doc_ids", "typologies"):
            expect(getattr(built, col) == getattr(want, col), f"built index: document {col} differ")
        for col in ("starts", "ends", "kinds", "lo", "hi"):
            expect(bool(np.array_equal(getattr(built, col), getattr(want, col))),
                   f"built index: document {col} differ")
        resaved = self.path("resaved.csem")
        dc.save_index(loaded, resaved)
        with open(index_path, "rb") as a, open(resaved, "rb") as b:
            expect(a.read() == b.read(), "saving the loaded index again changes its bytes")
        os.remove(resaved)

    def _check_count(self) -> None:
        lemma = self.lemmas["mid"]
        want = int(ref.lemma_freqs(self.corpus)[0, self.corpus.lemma_names.index(lemma)])
        expect(self.read("count.tsv") == f"{lemma}\t{want}\n", "freq count output differs")

    def _check_table(self) -> None:
        corpus = self.corpus
        lemmas = [self.lemmas["common"], self.lemmas["mid"], self.lemmas["rare"]]
        cols = [ref.lemma_freqs(corpus, ref.selection_buckets(corpus.slice_docs(*span)))[0]
                for span in (EARLY, LATE)]
        rows = [[int(c[corpus.lemma_names.index(lem)]) for c in cols] for lem in lemmas]
        lines = ["lemma\tearly\tlate\tsum"]
        lines += [f"{lem}\t{r[0]}\t{r[1]}\t{sum(r)}" for lem, r in zip(lemmas, rows)]
        sums = [sum(r[j] for r in rows) for j in range(2)]
        lines.append(f"sum\t{sums[0]}\t{sums[1]}\t{sum(sums)}")
        expect(self.read("table.tsv") == "\n".join(lines) + "\n", "freq table output differs")

    def _check_series(self) -> None:
        corpus = self.corpus
        lemma = self.lemmas["common"]
        first, bucket, n = ref.year_bins(corpus, 50)
        counts = ref.lemma_freqs(corpus, bucket, n)[:, corpus.lemma_names.index(lemma)]
        lens = corpus.ends - corpus.starts
        masses = np.bincount(bucket[bucket >= 0], weights=lens[bucket >= 0], minlength=n).astype(np.int64)
        lines = ["start_year\tcount\ttoken_mass\tper_million"]
        for b in range(n):
            rate = f"{1e6 * int(counts[b]) / int(masses[b]):.6g}" if masses[b] else "NA"
            lines.append(f"{first + 50 * b}\t{int(counts[b])}\t{int(masses[b])}\t{rate}")
        expect(self.read("series.tsv") == "\n".join(lines) + "\n", "freq series output differs")
        checks.check_svg(self.read("series.svg"), "freq series")

    def _check_top(self) -> None:
        corpus = self.corpus
        want = ref.top_collocates(corpus, corpus.slice_docs(*self.top_span), self.lemmas["mid"], 5, 20,
                                  POS_FILTER, 2)
        lines = ["lemma\tpair_count\tfreq\tdice"]
        lines += [f"{c.lemma}\t{c.pair_count}\t{c.freq}\t{c.dice:.6g}" for c in want]
        expect(self.read("top.tsv") == "\n".join(lines) + "\n", "cooc top output differs")

    def _check_map(self) -> None:
        corpus = self.corpus
        pivot = self.lemmas["map"]
        ranked = ref.top_collocates(corpus, None, pivot, 5, 29, None, 2)
        terms = [pivot] + [c.lemma for c in ranked]
        matrix = ref.submatrix(corpus, None, terms, 5)
        lines = self.read("map.tsv").splitlines()
        head = {}
        for line in lines[:3]:
            key, value = line[2:].split("\t")
            head[key] = float(value)
        expect(lines[3] == "lemma\tx\ty", "map TSV header differs")
        points = [(row.split("\t")[0], float(row.split("\t")[1]), float(row.split("\t")[2])) for row in lines[4:]]
        # the TSV holds six significant digits
        checks.check_ca(head["total_inertia"], (head["axis1_inertia"], head["axis2_inertia"]),
                        points, terms, matrix, rel=1e-5)
        checks.check_svg(self.read("map.svg"), "map")


def _cli(argv):
    def run():
        # keep the CLI's progress lines off the benchmark's own streams
        with contextlib.redirect_stderr(io.StringIO()) as err:
            code = cli.run_cli(list(argv))
        if code != 0:
            sys.stderr.write(err.getvalue())
        return code
    return run


def _exit_zero(code) -> bool:
    return code == 0


def _ignore_result(check_files):
    def check(code):
        check_files()
    return check


WORKLOADS = {
    "collocates": Collocates,
    "diachronic": Diachronic,
    "cli-lifecycle": CliLifecycle,
}
