"""Equal-token chronological tranching and strongest-evolving collocates.

Dated documents are sorted by date midpoint and cut into k contiguous
tranches of near-equal token mass (never splitting a document).  Counting
collocates per tranche, each tranche one bucket of the one collocate scorer
``cooc._pivot_scores``, and scoring each candidate by the least-squares
slope of its per-tranche Dice values relative to their mean, surfaces the
associations that rise or fall most strongly across the timeline.  The
per-tranche lemma frequencies do not depend on the pivot: the first
``evolving_cooccurrents`` call over a tranche set counts them, one pass
over each tranche's tokens, and the index keeps them
(``frequency._bucket_counts``), so a later call over the same tranches
pays only for the pivot's occurrences and its candidates.

The trend statistic is a documented reconstruction: slope / mean is
scale-equivariant (rescaling all Dice values leaves scores unchanged) and
sign-interpretable, and the raw per-tranche Dice vectors are always
exposed so callers can apply a different statistic.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from .cooc import _pivot_scores, _top_k
from .corpus import CorpusError, CorpusIndex

__all__ = [
    "TrancheSet",
    "TrendEntry",
    "TrendReport",
    "make_tranches",
    "evolving_cooccurrents",
    "ols_slope",
]

SCORE_EPSILON = 1e-12


@dataclass(frozen=True)
class TrancheSet:
    """An ordered partition of the dated documents into k token-mass slices.

    ``doc_order`` lists document positions sorted by (date midpoint,
    doc_id); ``boundaries`` are k+1 cut indices into that order, so tranche
    t covers doc_order[boundaries[t]:boundaries[t+1]].
    """

    k: int
    boundaries: tuple[int, ...]
    token_masses: tuple[int, ...]
    doc_order: tuple[int, ...]

    def tranche_positions(self, t: int) -> np.ndarray:
        lo, hi = self.boundaries[t], self.boundaries[t + 1]
        return np.asarray(self.doc_order[lo:hi], dtype=np.int64)


def make_tranches(index: CorpusIndex, k: int) -> TrancheSet:
    """Cut the date-sorted dated documents into k near-equal token masses.

    Boundary i falls after the document whose cumulative mass first
    reaches i*T/k, pulled one document earlier when that is strictly
    closer to the target.  Comparisons use exact integer arithmetic, so
    the cut is fully deterministic.
    """
    if k < 2:
        raise CorpusError("tranche count must be >= 2")
    order = index.dated_order()
    n = len(order)
    if n < k:
        raise CorpusError(f"need at least {k} dated documents, found {n}")
    cum = np.cumsum(np.diff(index.doc_starts)[index._dated_array])  # cum[j] = mass of docs 0..j
    total = int(cum[-1])
    k_cum = k * cum  # compared against i*total: exact integers

    boundaries = [0]
    for i in range(1, k):
        target = i * total
        j = min(int(np.searchsorted(k_cum, target, side="left")), n - 1)
        boundary = j + 1
        if j >= 1 and abs(int(k_cum[j - 1]) - target) < abs(int(k_cum[j]) - target):
            boundary = j
        # keep boundaries strictly increasing and leave one doc per tranche
        boundary = max(boundary, boundaries[-1] + 1)
        boundary = min(boundary, n - (k - i))
        boundaries.append(boundary)
    boundaries.append(n)

    masses = tuple(np.diff(np.concatenate(([0], cum))[boundaries]).tolist())
    return TrancheSet(k, tuple(boundaries), masses, order)


def ols_slope(values) -> float:
    """Ordinary-least-squares slope of values against positions 1..k."""
    y = np.ascontiguousarray(values, dtype=np.float64)
    if len(y) < 2:
        raise CorpusError("slope needs at least two values")
    return float(_slopes(y[None, :])[0])


def _slopes(rows: np.ndarray) -> np.ndarray:
    """OLS slope of each row of a C-contiguous (candidates x k) float array.
    Each equals ``np.dot(xc, y - y.mean()) / np.dot(xc, xc)`` of the row alone
    bit for bit; ``rows @ xc`` would round differently on some rows."""
    x = np.arange(1, rows.shape[1] + 1, dtype=np.float64)
    xc = x - x.mean()
    centred = rows - rows.mean(axis=1, keepdims=True)
    return (centred[:, None, :] @ xc[:, None])[:, 0, 0] / np.dot(xc, xc)


@dataclass(frozen=True)
class TrendEntry:
    lemma: str
    dice_by_tranche: tuple[float, ...]
    total_pairs: int
    score: float
    direction: str  # "rising" | "falling" | "flat"


@dataclass(frozen=True)
class TrendReport:
    pivot: str
    window: int
    k: int
    entries: tuple[TrendEntry, ...]


def evolving_cooccurrents(
    index: CorpusIndex,
    tranches: TrancheSet,
    pivot: str,
    window: int,
    pos_filter: Iterable[str] | None = None,
    min_count: int = 1,
    top_n: int = 20,
) -> TrendReport:
    """Collocates whose association with the pivot changes most across time.

    Score = OLS slope of the per-tranche Dice vector divided by
    max(mean Dice, epsilon); entries are ranked by |score| with ties broken
    by total pair count then lemma.  Direction follows the slope sign.
    """
    if window < 1:
        raise CorpusError("window must be >= 1")
    if min_count < 1:
        raise CorpusError("min_count must be >= 1")
    if top_n < 1:
        raise CorpusError("top_n must be >= 1")
    order, cuts = index.dated_order(), list(tranches.boundaries)
    # make_tranches stores the index's own dated order, so identity settles it
    same_order = tranches.doc_order is order or tranches.doc_order == order
    rising = len(cuts) == tranches.k + 1 >= 3 and cuts == sorted(set(cuts))
    if not (same_order and rising and cuts[0] == 0 and cuts[-1] == len(order)):
        raise CorpusError("tranches were not cut from this index's dated documents")
    pivot_id = index.lemmas.id_of(pivot)
    if pivot_id is None:
        return TrendReport(pivot, window, tranches.k, ())
    doc_bucket = np.full(len(index), -1, dtype=np.int64)
    doc_bucket[index._dated_array] = np.repeat(np.arange(tranches.k), np.diff(cuts))
    ids, pairs, dice, _ = _pivot_scores(
        index, doc_bucket, tranches.k, pivot_id, window, pos_filter, min_count
    )
    totals = pairs.sum(axis=0)
    rows = np.ascontiguousarray(dice.T)
    slopes = _slopes(rows)
    scores = slopes / np.maximum(rows.mean(axis=1), SCORE_EPSILON)
    entries = tuple(
        TrendEntry(
            index.lemmas[int(ids[i])],
            tuple(rows[i].tolist()),
            int(totals[i]),
            float(scores[i]),
            "rising" if slopes[i] > 0 else "falling" if slopes[i] < 0 else "flat",
        )
        for i in _top_k(index, ids, np.abs(scores), totals, top_n)
    )
    return TrendReport(pivot, window, tranches.k, entries)
