"""Host-speed calibration for the benchmark's timings."""

from __future__ import annotations

import io
import statistics
import time
from array import array

import numpy as np


class Calibration:
    """Two fixed kernels timed between timed steps: numpy scans over a
    2M-element array, and a Python loop that reads tab-separated lines
    from a text stream and interns their columns through small methods
    (the shape of vertical-file ingestion).

    The host's speed drifts by up to 2x within a minute when other tenants
    load it, and numpy-bound and Python-bound code drift apart.  A step's
    time is rescaled by the nominal time of the kernel of its own kind over
    the median of that kernel's samples around the step (the two that
    bracket it and two more on either side): the result is what the step
    takes when the kernel runs in its nominal time."""

    NOMINAL_S = {"numpy": 0.0065, "python": 0.015}
    SPAN = 2  # extra samples on either side of a step

    def __init__(self) -> None:
        rng = np.random.default_rng(12345)
        self._data = rng.integers(0, 30000, size=2_000_000).astype(np.uint32)
        entries = [f"w{i:05d}{suffix}\t{tag}\tw{i:05d}\n" for i in range(8000)
                   for suffix, tag in (("", "NOM"), ("us", "ADJ"), ("um", "VER"))]
        self._text = "".join(entries[i] for i in rng.integers(0, len(entries), size=12000).tolist())
        self.samples: list[dict[str, float]] = []

    def mark(self) -> None:
        """Take a calibration sample now."""
        data = self._data
        start = time.perf_counter()
        hit = (data[:-1] == 7) ^ (data[1:] == 7)
        np.bincount(data[1:][hit], minlength=30000)
        np.bincount(data, minlength=30000)
        middle = time.perf_counter()
        columns = _Columns()
        for raw in io.StringIO(self._text):
            form, tag, lemma = raw.rstrip("\n").split("\t")
            columns.add(form, tag, lemma)
        self.samples.append({"numpy": middle - start, "python": time.perf_counter() - middle})

    def step(self, seconds: float, kind: str) -> tuple[float, str, int]:
        """Close a step of ``seconds`` that ran since the previous sample."""
        self.mark()
        return seconds, kind, len(self.samples) - 2

    def rescaled(self, step: tuple[float, str, int]) -> float:
        seconds, kind, before = step
        window = self.samples[max(0, before - self.SPAN): before + 2 + self.SPAN]
        return seconds * self.NOMINAL_S[kind] / statistics.median(s[kind] for s in window)


class _Interner:
    def __init__(self) -> None:
        self.ids: dict[str, int] = {}

    def intern(self, entry: str) -> int:
        ident = self.ids.get(entry)
        if ident is None:
            ident = self.ids[entry] = len(self.ids)
        return ident


class _Columns:
    def __init__(self) -> None:
        self.vocabs = (_Interner(), _Interner(), _Interner())
        self.cols = (array("I"), array("I"), array("I"))

    def add(self, form: str, tag: str, lemma: str) -> None:
        for vocab, col, entry in zip(self.vocabs, self.cols, (form, tag, lemma)):
            col.append(vocab.intern(entry))
