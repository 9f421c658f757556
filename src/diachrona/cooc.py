"""Windowed cooccurrence counting and Dice-scored collocate ranking.

Counting rule: every unordered token pair (i < j) inside one document with
position distance <= w, where exactly one of the two tokens carries the
pivot lemma, adds 1 to that neighbor's pair count.  Pairs never cross
document boundaries, and pivot-pivot pairs are excluded, so a pivot never
appears among its own neighbors.

Every window count in the package comes from one kernel, ``_window_pairs``,
in one of three shapes: one pivot against every lemma (the collocate
vectors of ``cooc_counts`` and ``top_cooccurrents``, and the tranche series
of ``diachrony``), one lemma against one other (``adjacency_count`` and the
year-bin series of ``pair_evolution``, whose shared ``_lemma_pairs`` makes
the lemma with fewer positions in the corpus the row), and the pairs among
a set of lemmas (a field-map submatrix in ``semfield``, or a lemma paired
with itself).  A document's bucket (a docset member, a tranche, a year bin,
or -1 for left out) is fixed per call, so a per-tranche or per-bin series
costs one pass.  The kernel looks up its row occurrences itself, in the
documents of buckets >= 0 only, so it never reads a left-out document: one
row with ``frequency._occurrences`` (its cached positions), a set of rows
with ``_row_occurrences``, one chunked pass over the lemma column that
returns each occurrence's row with its position.  One row's 2w
neighbours are gathered around each of its occurrences, so the work
follows the row's occurrences in those documents, not the corpus size,
and one ``bincount`` per slab (below) counts the passing pairs of all 2w
offsets; against one other lemma, the hits at each offset are counted
directly.  Among a set of rows every counted pair joins two row
occurrences, so the kernel walks the sorted row occurrences themselves:
each gets a key that grows by its position within a document and by more
than w from one document to the next, so for s = 1..w one test of key
distances pairs each occurrence with the s-th one after it, and the walk
stops at the first s that pairs none.  A slab's keys count from its first
occurrence, so they are int32 unless its largest key passes 2**31 - 1.
It walks the occurrences in cache-sized slabs of at most ``_SLAB`` of
them, so its temporary arrays are bounded by the slab, not by the
occurrence count of frequent rows (a field map's 30 terms can hold 4.3M
occurrences at 10M tokens), and each step rereads arrays that are still in
the CPU caches; a mirror slab also reads the at most w occurrences after
it.

Collocates over a docset (``top_cooccurrents``) and per tranche
(``diachrony.evolving_cooccurrents``) come from one scorer,
``_pivot_scores``, the only place the candidate rule is applied.  Every
Dice value comes from one array function, ``_dice`` (0 where both
frequencies are 0), and every ranking from one helper, ``_top_k``, so
Python objects are built only for the rows a query returns.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .corpus import CorpusError, CorpusIndex, _require_collection
from .frequency import (
    _bin_counts,
    _bucket_counts,
    _docset_counts,
    _docset_runs,
    _docset_values,
    _lemma_positions,
    _occurrence_docs,
    _occurrences,
    _year_bins,
)

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
# few arrays of this length, of at most 8 bytes an entry (512 KB each, so
# they stay in the CPU caches while the walk passes over them once per
# offset), whatever the row count.  The mirror walk's lookup reads the lemma
# column 16 slabs at a time.
_SLAB = 1 << 16


class Cooccurrent(NamedTuple):
    lemma: str
    pair_count: int
    freq: int
    dice: float


def _row_occurrences(
    index: CorpusIndex, rows, dmask: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """The mirror walk's lookup: the token positions of the lemmas ``rows``
    in the documents of ``dmask`` (None or a full mask keeps them all), in
    corpus order, as intp, and the row code of each, 1 + its lemma's place
    in ``rows``, in the narrowest unsigned dtype that holds ``len(rows)``.

    One lemma reads its cached positions (``_occurrences``).  Several are one
    pass over the lemma column, or over a partial docset's copy of it
    (``_docset_values``): ``16 * _SLAB`` ids at a time are widened into one
    reused intp buffer and looked up in a table of each lemma's code (0 for
    a lemma that is no row), so no corpus-long index is cast and each hit's
    row comes with it.  Each temporary is dropped once read: the copy and
    the buffer after the pass, the code and hit flag per token read once
    the hits are taken.  Over a partial docset each hit found in the copy
    is moved back to its corpus position by its run's shift.
    """
    if len(rows) == 1:
        positions = _occurrences(index, int(rows[0]), dmask)
        return positions, np.ones(len(positions), dtype=np.uint8)
    code_of = np.zeros(len(index.lemmas), dtype=np.min_scalar_type(len(rows)))
    code_of[rows] = np.arange(1, len(rows) + 1)
    full = dmask is None or dmask.all()
    if full:
        column = index.lemma_ids
    else:
        first, end = _docset_runs(index, dmask)
        column = _docset_values(index.lemma_ids, first, end)
    codes = np.empty(len(column), dtype=code_of.dtype)
    hit = np.empty(len(column), dtype=bool)
    chunk = 16 * _SLAB
    buffer = np.empty(min(chunk, len(column)), dtype=np.intp)
    for lo in range(0, len(column), chunk):
        ids = buffer[: len(column) - lo]
        ids[:] = column[lo : lo + chunk]
        np.take(code_of, ids, out=codes[lo : lo + chunk], mode="clip")
        np.not_equal(codes[lo : lo + chunk], 0, out=hit[lo : lo + chunk])
    del column, buffer
    positions = np.flatnonzero(hit)
    del hit
    codes = codes[positions]
    if not full:
        lengths = end - first
        copied = np.cumsum(lengths) - lengths  # each run's offset in the copy
        per_run = np.diff(np.searchsorted(positions, copied), append=len(positions))
        positions += np.repeat(first - copied, per_run)
    return positions, codes


def _window_pairs(
    index: CorpusIndex,
    doc_bucket: np.ndarray | None,
    n_buckets: int,
    rows,
    window: int,
    col: int | None = None,
) -> np.ndarray:
    """Windowed pair counts per bucket, in one of three shapes.

    A pair is two tokens at distance 1..window inside one document, counted
    in its document's bucket: ``doc_bucket`` maps each document position to
    a bucket, or to -1 to leave it out; None puts every document in bucket 0.

    - ``rows`` one lemma id: shape (n_buckets, V), the pivot's pairs with
      each lemma, its own column 0 (``cooc_counts`` and ``_pivot_scores``).
    - ``rows`` and ``col`` two distinct lemma ids: shape (n_buckets,)
      (``adjacency_count`` and ``pair_evolution``, through ``_lemma_pairs``).
      At each offset the passing neighbours equal to ``col`` are counted
      directly, by ``count_nonzero`` with one bucket and by a ``bincount``
      of their buckets with several; no key is built for them.
    - ``rows`` a sequence of distinct lemma ids: shape (n_buckets, R, R),
      cell [b, r, c] the pairs of ``rows[r]`` with ``rows[c]``, a pair of two
      occurrences of one lemma counted once (``semfield.build_submatrix``,
      and ``_lemma_pairs`` for a lemma paired with itself).

    Every occurrence the kernel reads lies in a document of a bucket >= 0:
    it looks up every row occurrence itself, over those documents, with
    ``_occurrences`` for one row and ``_row_occurrences`` for a set of rows,
    which hands over each occurrence's row code too.  One row's
    neighbours are read d = 1..window tokens to either side of each
    occurrence whose document reaches that far, and the (bucket, column)
    keys of a slab's passing neighbours at all 2 * window offsets are
    counted by one ``bincount`` (a window past 8 fills the reused key
    buffer, 16 slab lengths, and is counted whenever it does).  A set of
    rows is walked as a mirror: each occurrence's key is its position past
    its slab's first occurrence plus ``window + 1`` times the number of
    documents it lies past that one's, int32 when the slab's largest key
    fits and int64 otherwise, so two keys lie at most ``window`` apart
    exactly when both occurrences lie in one document at most ``window``
    tokens apart.  For s = 1..window, occurrence i pairs with occurrence
    i + s when their keys pass that one test, counted once under (bucket,
    row of i, row of i + s) and then added to its transpose; the walk stops
    at the first s that pairs none.  Occurrences are taken ``_SLAB`` at a
    time (a mirror slab also reads the ``window`` occurrences after it, the
    farthest its left sides can pair with), so the temporaries of one call
    stay within a few arrays of at most ``_SLAB + window`` occurrences, plus
    the key buffer.
    """
    lem = index.lemma_ids
    # no pair lies farther apart than the corpus is long, and position
    # arithmetic on this window cannot overflow
    window = min(window, len(lem))
    mirror = np.ndim(rows) == 1
    rows = np.atleast_1d(np.asarray(rows, dtype=np.int64))
    n_rows = len(rows)
    n_cols = n_rows if mirror else 1 if col is not None else len(index.lemmas)
    in_buckets = None if doc_bucket is None else doc_bucket >= 0
    if mirror:
        occ, codes = _row_occurrences(index, rows, in_buckets)
    else:
        occ = _occurrences(index, int(rows[0]), in_buckets)
    occ_doc = _occurrence_docs(index, occ)
    counts = np.zeros(n_buckets * n_rows * n_cols, dtype=np.int64)
    # the pivot shape's passing keys of up to 16 offsets of a slab; the
    # two-lemma shape counts its passing hits directly
    pivot_shape = not mirror and col is None
    keys = np.empty(min(2 * window, 16) * min(_SLAB, len(occ)) if pivot_shape else 0, dtype=np.intp)
    one_bucket = doc_bucket is None or n_buckets == 1
    for lo in range(0, len(occ), _SLAB):
        # positions are distinct, so the right sides that the slab's left
        # sides reach lie at most window occurrences past it
        hi = lo + _SLAB + (window if mirror else 0)
        pos, docs = occ[lo:hi], occ_doc[lo:hi]
        # base: flat offset of each occurrence's (bucket, row) block of cells
        base = 0 if doc_bucket is None else doc_bucket[docs] * (n_rows * n_cols)
        if mirror:
            row = np.subtract(codes[lo:hi], 1, dtype=np.intp)
            base = base + row * n_cols
            # a strictly increasing key, relative to the slab's first
            # occurrence, that spaces documents more than window apart: two
            # occurrences pair exactly when their keys are at most window
            # apart, and key gaps grow with s, so once no i passes, no larger
            # s does either; no occurrence lies in a left-out document.  It is
            # int32 when its largest value fits, and the spacing too (larger
            # only when the slab lies in one document), else int64
            largest = int(docs[-1] - docs[0]) * (window + 1) + int(pos[-1] - pos[0])
            narrow = max(largest, window + 1) <= np.iinfo(np.int32).max
            key = np.subtract(docs, docs[0], dtype=np.int32 if narrow else np.int64)
            key *= window + 1
            key += pos - pos[0]
            for s in range(1, min(window, len(pos) - 1) + 1):
                m = min(_SLAB, len(pos) - s)
                ok = key[s : s + m] - key[:m] <= window
                if not ok.any():
                    break
                # weighting by the test counts the passing pairs without
                # compressing them; float sums of at most _SLAB ones are exact
                pairs = np.bincount(base[:m] + row[s : s + m], weights=ok, minlength=len(counts))
                counts += pairs.astype(np.int64)
            continue
        n = 0
        for step in (1, -1):
            # tokens between each occurrence and its document's edge on this side
            room = index.doc_starts[docs + 1] - 1 - pos if step == 1 else pos - index.doc_starts[docs]
            for d in range(1, min(window, int(room.max(initial=0))) + 1):
                neighbour = np.take(lem, pos + step * d, mode="clip")
                ok = room >= d
                if col is not None:
                    # the one column: count the passing hits, per bucket (base
                    # is each occurrence's bucket here) when there are several
                    ok &= neighbour == col
                    if one_bucket:
                        counts[0] += np.count_nonzero(ok)
                    else:
                        counts += np.bincount(base[ok], minlength=n_buckets)
                    continue
                if n + len(pos) > len(keys):
                    counts += np.bincount(keys[:n], minlength=len(counts))
                    n = 0
                passing = (base + neighbour)[ok]
                keys[n : n + len(passing)] = passing
                n += len(passing)
        counts += np.bincount(keys[:n], minlength=len(counts))
    if mirror:
        counts = counts.reshape(n_buckets, n_rows, n_rows)
        # the walk counted a pair of two occurrences of one row lemma on the
        # diagonal, so with the transpose it is counted twice
        counts = counts + counts.transpose(0, 2, 1)
        diagonal = np.arange(n_rows)
        counts[:, diagonal, diagonal] //= 2
    elif col is None:
        counts = counts.reshape(n_buckets, n_cols)
        counts[:, rows[0]] = 0  # pivot-pivot pairs are excluded
    return counts


def _docset_bucket(dmask: np.ndarray) -> np.ndarray | None:
    """Bucket map of a document mask (0 in, -1 out); None when it holds every document."""
    return None if dmask.all() else np.where(dmask, 0, -1)


def _lemma_pairs(
    index: CorpusIndex, doc_bucket: np.ndarray | None, n_buckets: int, a: int, b: int, window: int
) -> np.ndarray:
    """Per-bucket pair counts of lemmas ``a`` and ``b``, shape (n_buckets,).

    Pair counts are symmetric and the kernel's work follows its row lemma's
    occurrences, so the lemma with fewer positions in the corpus (cached by
    ``_lemma_positions``, which the kernel's lookup reads too) is the row,
    ``a`` on a tie; a lemma paired with itself is a one-row mirror walk."""
    if a == b:
        return _window_pairs(index, doc_bucket, n_buckets, [a], window)[:, 0, 0]
    if len(_lemma_positions(index, b)) < len(_lemma_positions(index, a)):
        a, b = b, a
    return _window_pairs(index, doc_bucket, n_buckets, a, window, b)


def cooc_counts(index: CorpusIndex, docset, pivot: str, window: int) -> CoocTable:
    """Window-w pair counts of every lemma with ``pivot`` over the docset."""
    if window < 1:
        raise CorpusError("window must be >= 1")
    pivot_id = index.lemmas.id_of(pivot)
    dmask = index.doc_mask(docset)
    freqs = _docset_counts(index, dmask)
    if pivot_id is None:
        return CoocTable(pivot, window, {}, 0, {})
    pairs = _window_pairs(index, _docset_bucket(dmask), 1, pivot_id, window)[0]
    nonzero = np.nonzero(pairs)[0]
    pair_counts = {index.lemmas[int(i)]: int(pairs[i]) for i in nonzero}
    neighbor_freqs = {index.lemmas[int(i)]: int(freqs[i]) for i in nonzero}
    return CoocTable(pivot, window, pair_counts, int(freqs[pivot_id]), neighbor_freqs)


def _pivot_scores(
    index: CorpusIndex,
    doc_bucket: np.ndarray | None,
    n_buckets: int,
    pivot_id: int,
    window: int,
    pos_filter: Iterable[str] | None,
    min_count: int,
):
    """The one collocate scorer: candidate ids, their pairs with the pivot
    and Dice per bucket (n_buckets x candidates), and every lemma's
    frequency per bucket (n_buckets x V); buckets as in ``_window_pairs``.

    A candidate's pairs over all buckets reach ``min_count`` and, with a POS
    filter, at least half its tokens in the buckets' documents carry an
    allowed tag.  One bucket counts its frequencies and tags in one pass;
    several count the tags once over their union, only when a filter is
    given, and read their frequencies from ``_bucket_counts``: counted per
    bucket on the index's first call with this bucket map, then cached on
    the index, so the returned table may be that cached, read-only one.
    """
    docs = None if doc_bucket is None else doc_bucket >= 0
    good = None
    if pos_filter is not None:
        _require_collection(pos_filter, "pos_filter")
        allowed = np.zeros(len(index.pos_tags), dtype=bool)
        allowed[[i for i in map(index.pos_tags.id_of, pos_filter) if i is not None]] = True
        totals, good = _docset_counts(index, docs, allowed)
    if n_buckets == 1:
        freqs = (totals if good is not None else _docset_counts(index, docs))[None]
    else:
        freqs = _bucket_counts(index, doc_bucket, n_buckets)
    pairs = _window_pairs(index, doc_bucket, n_buckets, pivot_id, window)
    candidate = pairs.sum(axis=0) >= min_count
    if good is not None:
        candidate &= 2 * good >= np.maximum(totals, 1)
    ids = np.flatnonzero(candidate)
    pairs = pairs[:, ids]
    return ids, pairs, _dice(pairs, freqs[:, pivot_id, None], freqs[:, ids]), freqs


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
    doc_bucket = _docset_bucket(index.doc_mask(docset))
    pivot_id = index.lemmas.id_of(pivot)
    if pivot_id is None:
        return []
    scored = _pivot_scores(index, doc_bucket, 1, pivot_id, window, pos_filter, min_count)
    ids, (pairs,), (scores,), (freqs,) = scored
    return [
        Cooccurrent(index.lemmas[int(ids[i])], int(pairs[i]), int(freqs[ids[i]]), float(scores[i]))
        for i in _top_k(index, ids, scores, pairs, k)
    ]


def adjacency_count(index: CorpusIndex, docset, lemma_a: str, lemma_b: str) -> int:
    """Pairs of the two lemmas at distance exactly 1 (either order)."""
    doc_bucket = _docset_bucket(index.doc_mask(docset))
    a_id, b_id = map(index.lemmas.id_of, (lemma_a, lemma_b))
    if a_id is None or b_id is None:
        return 0
    return int(_lemma_pairs(index, doc_bucket, 1, a_id, b_id, 1)[0])


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
    dmask = index.doc_mask(docset)
    binning = _year_bins(index, dmask, bin_width)
    if binning is None:
        return []
    lo, n_bins, doc_bin = binning
    starts = range(lo, lo + n_bins * bin_width, bin_width)
    a_id, b_id = map(index.lemmas.id_of, (lemma_a, lemma_b))
    if a_id is None or b_id is None:
        return [PairBin(start, 0, 0.0) for start in starts]
    freq_a, freq_b = (
        _bin_counts(index, _occurrences(index, lid, doc_bin >= 0), doc_bin, n_bins) for lid in (a_id, b_id)
    )
    pairs = _lemma_pairs(index, doc_bin, n_bins, a_id, b_id, window)
    return list(map(PairBin, starts, pairs.tolist(), _dice(pairs, freq_a, freq_b).tolist()))
