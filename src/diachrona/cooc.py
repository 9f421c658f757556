"""Windowed cooccurrence counting and Dice-scored collocate ranking.

Counting rule: every unordered token pair (i < j) inside one document with
position distance <= w, where exactly one of the two tokens carries the
pivot lemma, adds 1 to that neighbor's pair count.  Pairs never cross
document boundaries, and pivot-pivot pairs are excluded, so a pivot never
appears among its own neighbors.

Every window count in the package (collocate vectors, pair counts of two
lemmas, tranche and year-bin series, field-map submatrices) comes from one
kernel, ``_window_pairs``.  It looks at the 2w neighbours of each
occurrence of the requested row lemmas and bincounts them under one key,
(bucket, row, neighbor column), where a document's bucket (a docset
member, a tranche, a year bin, or -1 for left out) is fixed per call.  So
a per-tranche or per-bin series costs one pass, not one per bucket, and
the work follows the row occurrences, not the corpus size.  When the
columns are the rows (a field-map submatrix, or a lemma paired with
itself), every counted pair joins two row occurrences, so the kernel walks
the sorted row occurrences themselves instead of gathering neighbours: for
s = 1..w it pairs each occurrence with the s-th one after it, and stops at
the first s that pairs none, so it makes at most w passes.  The kernel
walks the occurrences in slabs of at most ``_SLAB`` of them, so its
temporary arrays are bounded by the slab, not by the occurrence count of
frequent rows (a field map's 30 terms can hold 4.3M occurrences at 10M
tokens); in the mirror walk a slab also reads, as right sides only, the at
most w occurrences after it that its last ones reach.

Every Dice value comes from one array function, ``_dice`` (0 where both
frequencies are 0), and every ranking from one helper, ``_top_k``, so
Python objects are built only for the rows a query returns.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .corpus import CorpusError, CorpusIndex
from .frequency import _bin_sums, _docset_counts, _occurrences, _year_bins

__all__ = [
    "CoocTable",
    "Cooccurrent",
    "PairBin",
    "cooc_counts",
    "dice",
    "top_cooccurrents",
    "adjacency_count",
    "pair_evolution",
]


def dice(pair_count: int, freq_a: int, freq_b: int) -> float:
    """Sorensen-Dice association: 2 * pair_count / (freq_a + freq_b)."""
    if pair_count < 0 or freq_a < 0 or freq_b < 0:
        raise CorpusError("dice arguments must be non-negative")
    if freq_a + freq_b == 0:
        raise CorpusError("dice undefined: both frequencies are zero")
    return float(_dice(pair_count, freq_a, freq_b))


def _dice(pairs, freq_a, freq_b) -> np.ndarray:
    """Elementwise, broadcasting Dice, 0 where both frequencies are 0."""
    denom = np.add(freq_a, freq_b)
    return np.where(denom > 0, 2.0 * np.asarray(pairs) / np.maximum(denom, 1), 0.0)


def _top_k(index: CorpusIndex, ids: np.ndarray, primary, secondary, k: int) -> list[int]:
    """Positions of the first k candidate lemmas ``ids`` in the order
    (primary desc, secondary desc, lemma asc).  Only candidates whose primary
    value reaches the k-th largest are sorted, so ties at it are all kept."""
    pool = np.flatnonzero(primary >= (np.partition(primary, -k)[-k] if len(ids) > k else -np.inf))
    lemmas = [index.lemmas[i] for i in ids[pool].tolist()]
    keys = zip((-primary[pool]).tolist(), (-secondary[pool]).tolist(), lemmas, pool.tolist())
    return [key[-1] for key in sorted(keys)[:k]]


@dataclass(frozen=True)
class CoocTable:
    """Sparse pivot-neighbor pair counts plus the marginals Dice needs."""

    pivot: str
    window: int
    pair_counts: dict[str, int]
    pivot_freq: int
    neighbor_freqs: dict[str, int]


# Most row occurrences one kernel step works on at once: each step holds a
# few int64 arrays of this length (~8 MB each), whatever the row count.
_SLAB = 1 << 20


class Cooccurrent(NamedTuple):
    lemma: str
    pair_count: int
    freq: int
    dice: float


def _window_pairs(
    index: CorpusIndex,
    doc_bucket: np.ndarray | None,
    n_buckets: int,
    rows,
    window: int,
    cols=None,
) -> np.ndarray:
    """Windowed pair counts, shape (n_buckets, len(rows), len(cols) or V).

    Cell [b, r, c] counts the token pairs at distance 1..window inside one
    document of bucket b where one side carries lemma ``rows[r]`` and the
    other carries lemma ``cols[c]`` (lemma c when ``cols`` is None).  A pair
    whose two sides carry the same row lemma counts once.  ``doc_bucket``
    maps each document position to its bucket, or to -1 to leave it out;
    None puts every document in bucket 0.  ``rows`` must be distinct.

    This is the only window counter.  It takes the row occurrences and their
    per-document counts from the one occurrence lookup, ``_occurrences``,
    and for each offset d looks d tokens to either side of every occurrence
    whose document reaches that far: the work follows the row occurrences,
    and a window wider than the longest document costs no more than it.
    When ``cols`` equals ``rows`` (the mirror case) it reads no neighbour
    token: for s = 1..window it pairs row occurrence i with occurrence i + s
    when both lie in one document at most ``window`` tokens apart, counts
    each pair once under (bucket, row of i, row of i + s), and stops at the
    first s where no pair passes; the counts plus their transpose are then
    the pairs seen from both sides.  The occurrences are taken ``_SLAB`` at
    a time, a mirror slab with the at most ``window`` occurrences after it
    that its last left side reaches, so the temporaries of one call stay
    within a few slab-length arrays.
    """
    lem = index.lemma_ids
    # no pair lies farther apart than the corpus is long, and position
    # arithmetic on this window cannot overflow
    window = min(window, len(lem))
    rows = np.asarray(rows, dtype=np.int64)
    n_rows = len(rows)
    n_cols = len(index.lemmas) if cols is None else len(cols)
    occ, per_doc = _occurrences(index, rows)
    occ_doc = np.repeat(np.arange(len(index), dtype=np.int32), per_doc)
    # with cols == rows the row occurrences themselves are walked
    mirror = cols is not None and np.array_equal(rows, cols)
    row_of = None
    if n_rows > 1 or mirror:
        row_of = np.zeros(len(index.lemmas), dtype=np.int64)
        row_of[rows] = np.arange(n_rows)
    col_of = None
    if cols is not None:
        col_of = np.full(len(index.lemmas), -1, dtype=np.int64)
        col_of[np.asarray(cols, dtype=np.int64)] = np.arange(n_cols)
    counts = np.zeros(n_buckets * n_rows * n_cols, dtype=np.int64)
    for lo in range(0, len(occ), _SLAB):
        hi = lo + _SLAB
        if mirror and hi < len(occ):
            # the right sides run on to the last occurrence that the slab's
            # last left side reaches: at most window occurrences more
            reach = min(occ[hi - 1] + window, index.doc_starts[occ_doc[hi - 1] + 1] - 1)
            hi = int(np.searchsorted(occ, reach, "right"))
        pos, docs = occ[lo:hi], occ_doc[lo:hi]
        n_left = min(_SLAB, len(pos))
        # base: flat offset of each occurrence's (bucket, row) block of cells
        base = 0
        if doc_bucket is not None:
            bucket = doc_bucket[docs]
            keep = bucket >= 0
            n_left = int(np.count_nonzero(keep[:n_left]))
            pos, docs = pos[keep], docs[keep]
            base = bucket[keep] * (n_rows * n_cols)
        if row_of is not None:
            row = row_of[lem[pos]]
            base = base + row * n_cols
        if mirror:
            # occurrence i pairs with occurrence i + s when both lie in one
            # document at most window tokens apart; left-out documents were
            # filtered out above, so a pair across them fails the document
            # test.  Distances grow with s, so once no i passes, no larger s
            # does either.
            for s in range(1, min(window, len(pos) - 1) + 1):
                m = min(n_left, len(pos) - s)
                ok = pos[s : s + m] - pos[:m] <= window
                ok &= docs[s : s + m] == docs[:m]
                if not ok.any():
                    break
                # weighting by the test counts the passing pairs without
                # compressing them; float sums of at most _SLAB ones are exact
                pairs = np.bincount(base[:m] + row[s : s + m], weights=ok, minlength=len(counts))
                counts += pairs.astype(np.int64)
            continue
        for step in (1, -1):
            # tokens between each occurrence and its document's edge on this side
            room = index.doc_starts[docs + 1] - 1 - pos if step == 1 else pos - index.doc_starts[docs]
            for d in range(1, min(window, int(room.max(initial=0))) + 1):
                col = np.take(lem, pos + step * d, mode="clip")
                ok = room >= d
                if col_of is not None:
                    col = col_of[col]
                    ok &= col >= 0
                counts += np.bincount((base + col)[ok], minlength=len(counts))
    counts = counts.reshape(n_buckets, n_rows, n_cols)
    if mirror:
        counts = counts + counts.transpose(0, 2, 1)
    # a pair of two occurrences of the same row lemma was reached from both
    self_cols = rows if col_of is None else col_of[rows]
    hit = self_cols >= 0
    counts[:, np.arange(n_rows)[hit], self_cols[hit]] //= 2
    return counts


def _docset_bucket(dmask: np.ndarray) -> np.ndarray | None:
    """Bucket map of a document mask (0 in, -1 out); None when it holds every document."""
    return None if dmask.all() else np.where(dmask, 0, -1)


def _pivot_pairs(
    index: CorpusIndex, doc_bucket: np.ndarray | None, n_buckets: int, pivot_id: int, window: int
) -> np.ndarray:
    """Per-bucket pair counts of every lemma with the pivot, shape
    (n_buckets, V); pivot-pivot pairs are excluded."""
    pairs = _window_pairs(index, doc_bucket, n_buckets, [pivot_id], window)[:, 0]
    pairs[:, pivot_id] = 0
    return pairs


def cooc_counts(index: CorpusIndex, docset, pivot: str, window: int) -> CoocTable:
    """Window-w pair counts of every lemma with ``pivot`` over the docset."""
    if window < 1:
        raise CorpusError("window must be >= 1")
    pivot_id = index.lemmas.id_of(pivot)
    dmask = index.doc_mask(docset)
    freqs = _docset_counts(index, dmask)
    if pivot_id is None:
        return CoocTable(pivot, window, {}, 0, {})
    pairs = _pivot_pairs(index, _docset_bucket(dmask), 1, pivot_id, window)[0]
    nonzero = np.nonzero(pairs)[0]
    pair_counts = {index.lemmas[int(i)]: int(pairs[i]) for i in nonzero}
    neighbor_freqs = {index.lemmas[int(i)]: int(freqs[i]) for i in nonzero}
    return CoocTable(pivot, window, pair_counts, int(freqs[pivot_id]), neighbor_freqs)


def _pos_majority_pass(
    index: CorpusIndex,
    dmask: np.ndarray,
    pos_filter: Iterable[str] | None,
) -> tuple[np.ndarray, np.ndarray | None]:
    """Per-lemma token counts in the document mask, and a boolean per-lemma
    vector: at least half of a lemma's tokens there carry an allowed POS tag
    (None when no filter applies).  Both come from one copy of the docset's
    tokens.
    """
    if pos_filter is None:
        return _docset_counts(index, dmask), None
    allowed = np.zeros(len(index.pos_tags), dtype=bool)
    allowed[[i for i in map(index.pos_tags.id_of, pos_filter) if i is not None]] = True
    freqs, good = _docset_counts(index, dmask, allowed)
    return freqs, 2 * good >= np.maximum(freqs, 1)


def top_cooccurrents(
    index: CorpusIndex,
    docset,
    pivot: str,
    window: int,
    k: int,
    pos_filter: Iterable[str] | None = None,
    min_count: int = 1,
) -> list[Cooccurrent]:
    """Top-k collocates of ``pivot`` ranked by Dice.

    Candidates must reach ``min_count`` pairs and, when a POS filter is
    given, have a majority of their docset tokens tagged with an allowed
    POS.  Ordering: Dice descending, then pair count descending, then
    lemma ascending.  An absent pivot yields an empty list.
    """
    if k < 1:
        raise CorpusError("k must be >= 1")
    if window < 1:
        raise CorpusError("window must be >= 1")
    if min_count < 1:
        raise CorpusError("min_count must be >= 1")
    dmask = index.doc_mask(docset)
    pivot_id = index.lemmas.id_of(pivot)
    if pivot_id is None:
        return []
    freqs, pos_ok = _pos_majority_pass(index, dmask, pos_filter)
    if freqs[pivot_id] == 0:
        return []
    counts = _pivot_pairs(index, _docset_bucket(dmask), 1, pivot_id, window)[0]
    candidate = counts >= min_count
    if pos_ok is not None:
        candidate &= pos_ok
    ids = np.flatnonzero(candidate)
    pairs, cand_freqs = counts[ids], freqs[ids]
    scores = _dice(pairs, freqs[pivot_id], cand_freqs)
    return [
        Cooccurrent(index.lemmas[int(ids[i])], int(pairs[i]), int(cand_freqs[i]), float(scores[i]))
        for i in _top_k(index, ids, scores, pairs, k)
    ]


def adjacency_count(index: CorpusIndex, docset, lemma_a: str, lemma_b: str) -> int:
    """Pairs of the two lemmas at distance exactly 1 (either order)."""
    doc_bucket = _docset_bucket(index.doc_mask(docset))
    a_id = index.lemmas.id_of(lemma_a)
    b_id = index.lemmas.id_of(lemma_b)
    if a_id is None or b_id is None:
        return 0
    # pair counts are symmetric and the kernel's work follows its row
    # lemma's occurrences, so the rarer lemma in the corpus is the row
    freqs = _docset_counts(index, index.doc_mask(None))
    row, col = (b_id, a_id) if freqs[b_id] < freqs[a_id] else (a_id, b_id)
    return int(_window_pairs(index, doc_bucket, 1, [row], 1, [col]).sum())


class PairBin(NamedTuple):
    start_year: int
    pair_count: int
    dice: float


def pair_evolution(
    index: CorpusIndex,
    lemma_a: str,
    lemma_b: str,
    window: int,
    bin_width: int,
    docset=None,
) -> list[PairBin]:
    """Per-period pair counts and Dice for two lemmas over dated documents.

    Bins align to multiples of ``bin_width`` (document midpoint binning);
    per-bin Dice uses per-bin frequencies and is 0 for bins where neither
    lemma occurs.
    """
    if window < 1:
        raise CorpusError("window must be >= 1")
    binning = _year_bins(index, index.doc_mask(docset), bin_width)
    if binning is None:
        return []
    lo, n_bins, doc_bin = binning
    starts = range(lo, lo + n_bins * bin_width, bin_width)
    a_id = index.lemmas.id_of(lemma_a)
    b_id = index.lemmas.id_of(lemma_b)
    if a_id is None or b_id is None:
        return [PairBin(start, 0, 0.0) for start in starts]
    freq_a = _bin_sums(doc_bin, n_bins, _occurrences(index, [a_id])[1])
    freq_b = _bin_sums(doc_bin, n_bins, _occurrences(index, [b_id])[1])
    # the rarer lemma in the bins is the kernel row, as in adjacency_count
    row, col = (b_id, a_id) if freq_b.sum() < freq_a.sum() else (a_id, b_id)
    pairs = _window_pairs(index, doc_bin, n_bins, [row], window, [col])[:, 0, 0]
    return list(map(PairBin, starts, pairs.tolist(), _dice(pairs, freq_a, freq_b).tolist()))
