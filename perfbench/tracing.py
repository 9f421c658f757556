"""Benchmark-side tracing of diachrona's layers.

``Tracer.install`` wraps every public function of each layer module (the
names in its ``__all__`` that the module itself defines) plus four
``CorpusIndex`` methods, and rebinds each wrapper wherever any package
module, or the package namespace, has bound the original.  Spans
(function, start, end, parent, operation tag) are kept in memory while
``enabled`` is set and written out by ``write``.

A span's layer is its module.  Its exclusive time is its duration minus
its direct children's durations; that time is charged to the innermost
span of the same unbroken same-layer chain whose function is reported
under its own key (``KEYS``), so a helper such as ``dice`` called inside
``top_cooccurrents`` counts as part of ``cooc.top_s``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import sys
import time
from collections import defaultdict

LAYERS = (
    "ingest",
    "indexio",
    "corpus",
    "frequency",
    "cooc",
    "diachrony",
    "semfield",
    "jacobi",
    "svgplot",
    "cli",
)
INDEX_METHODS = ("doc_mask", "token_mask", "doc_positions", "dated_order")

# function -> per-layer time metric its (self-chain) time is charged to
KEYS = {
    "ingest.parse_vertical": "ingest.parse_vertical_s",
    "indexio.save_index": "indexio.save_s",
    "indexio.load_index": "indexio.load_s",
    "corpus.subcorpus": "corpus.docset_s",
    "corpus.CorpusIndex.doc_mask": "corpus.docset_s",
    "corpus.CorpusIndex.token_mask": "corpus.docset_s",
    "corpus.CorpusIndex.doc_positions": "corpus.docset_s",
    "cooc.top_cooccurrents": "cooc.top_s",
    "cooc.adjacency_count": "cooc.adjacency_s",
    "cooc.pair_evolution": "cooc.pair_evolution_s",
    "diachrony.make_tranches": "diachrony.make_tranches_s",
    "diachrony.evolving_cooccurrents": "diachrony.evolve_s",
    "semfield.build_submatrix": "semfield.submatrix_s",
    "semfield.correspondence_analysis": "semfield.ca_s",
    "jacobi.jacobi_svd": "jacobi.svd_s",
    "svgplot.emit_svg": "svgplot.emit_s",
    "cli.run_cli": "cli.self_s",
}
# every public frequency function counts as frequency.count_s
LAYER_KEYS = {"frequency": "frequency.count_s"}
MASK_CALLS = ("corpus.CorpusIndex.doc_mask", "corpus.CorpusIndex.token_mask")


PACKAGE = "diachrona"


class Tracer:
    def __init__(self) -> None:
        self.enabled = False
        self.op = ""  # tag of the operation running now
        self.spans: list[tuple] = []  # (name id, start ns, end ns, parent, op)
        self.names: list[str] = []
        self.counters: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    # installation
    # ------------------------------------------------------------------

    def install(self) -> None:
        pkg = importlib.import_module(PACKAGE)
        modules = {name: importlib.import_module(f"{PACKAGE}.{name}") for name in LAYERS}
        wrapped: dict[int, object] = {}
        for layer, module in modules.items():
            for attr in getattr(module, "__all__", ()):
                fn = getattr(module, attr, None)
                if inspect.isfunction(fn) and fn.__module__ == module.__name__:
                    wrapped[id(fn)] = self._wrap(fn, f"{layer}.{attr}")
        # rebind every binding of a wrapped function, in every package module
        prefix = PACKAGE + "."
        namespaces = [pkg] + [m for n, m in sorted(sys.modules.items()) if n.startswith(prefix)]
        for ns in namespaces:
            for attr, value in list(vars(ns).items()):
                if id(value) in wrapped and inspect.isfunction(value):
                    self._rebind(ns, attr, wrapped[id(value)])
        index_cls = modules["corpus"].CorpusIndex
        for meth in INDEX_METHODS:
            fn = vars(index_cls)[meth]
            self._rebind(index_cls, meth, self._wrap(fn, f"corpus.CorpusIndex.{meth}"))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def _rebind(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _wrap(self, fn, name: str):
        name_id = len(self.names)
        self.names.append(name)
        spans = self.spans
        stack = self._stack
        hook = HOOKS.get(name)
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            slot = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(slot)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[slot] = (name_id, start, end, parent, self.op)
            if hook is not None:
                hook(self.counters, result, args, kwargs)
            return result

        return traced

    # ------------------------------------------------------------------
    # analysis
    # ------------------------------------------------------------------

    def charged(self) -> dict[str, float]:
        """Seconds charged to each metric key (see module docstring), plus
        per-operation-tag totals under ``"<key>@<op>"``."""
        names = self.names
        spans = self.spans
        child_time = [0] * len(spans)
        for name_id, start, end, parent, _ in spans:
            if parent >= 0:
                child_time[parent] += end - start
        owner = [None] * len(spans)  # metric key charged for each span
        out: dict[str, float] = defaultdict(float)
        for i, (name_id, start, end, parent, op) in enumerate(spans):
            name = names[name_id]
            layer = name.split(".", 1)[0]
            key = KEYS.get(name)
            if key is None and layer in LAYER_KEYS:
                key = LAYER_KEYS[layer]
            if key is None and parent >= 0 and names[spans[parent][0]].split(".", 1)[0] == layer:
                key = owner[parent]  # parents precede children in the list
            owner[i] = key or f"{layer}.other_s"
            seconds = (end - start - child_time[i]) / 1e9
            out[owner[i]] += seconds
            out[f"{owner[i]}@{op}"] += seconds
        return out

    def calls(self, names: tuple[str, ...]) -> int:
        ids = {i for i, n in enumerate(self.names) if n in names}
        return sum(1 for span in self.spans if span[0] in ids)

    def reset(self) -> None:
        self.spans.clear()
        self.counters.clear()

    def write(self, path: str) -> None:
        """Spans as TSV: name, start ns, end ns, parent row, operation."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name\tstart_ns\tend_ns\tparent\top\n")
            for name_id, start, end, parent, op in self.spans:
                fh.write(f"{self.names[name_id]}\t{start}\t{end}\t{parent}\t{op}\n")


def _count_svg(counters, result, args, kwargs) -> None:
    counters["svgplot.svg_bytes"] += len(result.encode("utf-8"))


def _count_tokens(counters, result, args, kwargs) -> None:
    counters["ingest.tokens"] += result.total_tokens


def _count_saved(counters, result, args, kwargs) -> None:
    index, path = args[0], args[1] if len(args) > 1 else kwargs["path"]
    counters["indexio.saved_bytes"] += os.path.getsize(path)
    counters["indexio.saved_tokens"] += index.total_tokens


HOOKS = {
    "svgplot.emit_svg": _count_svg,
    "ingest.parse_vertical": _count_tokens,
    "indexio.save_index": _count_saved,
}
