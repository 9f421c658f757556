"""Reference counts, written apart from diachrona, that the checks trust.

Counting rule (the package's documented one): every unordered token pair
inside one document at distance <= w where exactly one token is the pivot
adds 1 to the other token's lemma.  Here that is computed by gathering the
pivot's own positions at +-d, so the cost follows pivot occurrences, with
the same-document test done against document start/end offsets.  Docsets
are boolean document selections (see ``CorpusArrays.slice_docs``).
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from inputs import CorpusArrays


def doc_of_positions(corpus: CorpusArrays, positions: np.ndarray) -> np.ndarray:
    """Document number of each token position (empty documents never match)."""
    return np.searchsorted(corpus.starts, positions, side="right") - 1


def _pivot_sites(corpus: CorpusArrays, lemma_id: int, doc_bucket: np.ndarray | None):
    """Positions of ``lemma_id`` kept by the docset, with their document
    bounds and bucket; ``doc_bucket`` maps documents to buckets (-1 = out)."""
    p = np.flatnonzero(corpus.lemma == lemma_id)
    doc = doc_of_positions(corpus, p)
    bucket = np.zeros(len(p), dtype=np.int64) if doc_bucket is None else doc_bucket[doc]
    keep = bucket >= 0
    p, doc, bucket = p[keep], doc[keep], bucket[keep]
    return p, corpus.starts[doc], corpus.ends[doc], bucket


def _neighbours(corpus, lemma_id, window, doc_bucket, both_sides=True):
    """Yield (bucket, neighbour lemma) arrays for every in-document offset."""
    p, lo, hi, bucket = _pivot_sites(corpus, lemma_id, doc_bucket)
    for d in range(1, window + 1):
        ahead = p + d
        ok = ahead < hi
        yield bucket[ok], corpus.lemma[ahead[ok]]
        if both_sides:
            behind = p - d
            ok = behind >= lo
            yield bucket[ok], corpus.lemma[behind[ok]]


def pivot_pairs(
    corpus: CorpusArrays,
    pivot_id: int,
    window: int,
    doc_bucket: np.ndarray | None = None,
    n_buckets: int = 1,
) -> np.ndarray:
    """Pair counts of every lemma with the pivot, shape (n_buckets, V).

    Pivot-pivot pairs are excluded.  ``doc_bucket`` assigns each document a
    bucket (tranche or year bin) or -1 to leave it out; None keeps every
    document in bucket 0.
    """
    v = corpus.n_lemmas
    counts = np.zeros(n_buckets * v, dtype=np.int64)
    for bucket, lem in _neighbours(corpus, pivot_id, window, doc_bucket):
        keep = lem != pivot_id
        counts += np.bincount(bucket[keep] * v + lem[keep], minlength=n_buckets * v)
    return counts.reshape(n_buckets, v)


def pair_count(
    corpus: CorpusArrays,
    a_id: int,
    b_id: int,
    window: int,
    doc_bucket: np.ndarray | None = None,
    n_buckets: int = 1,
) -> np.ndarray:
    """Unordered a-b pairs at distance 1..window, per bucket."""
    counts = np.zeros(n_buckets, dtype=np.int64)
    same = a_id == b_id  # a-a pairs: look ahead only, so each is seen once
    for bucket, lem in _neighbours(corpus, a_id, window, doc_bucket, both_sides=not same):
        counts += np.bincount(bucket[lem == b_id], minlength=n_buckets)
    return counts


def lemma_freqs(
    corpus: CorpusArrays, doc_bucket: np.ndarray | None = None, n_buckets: int = 1
) -> np.ndarray:
    """Token counts per (bucket, lemma)."""
    v = corpus.n_lemmas
    if doc_bucket is None:
        return np.bincount(corpus.lemma, minlength=v).reshape(1, v)
    lens = corpus.ends - corpus.starts
    token_bucket = np.repeat(doc_bucket, lens)
    keep = token_bucket >= 0
    flat = np.bincount(token_bucket[keep] * v + corpus.lemma[keep], minlength=n_buckets * v)
    return flat.reshape(n_buckets, v)


def selection_buckets(selection: np.ndarray | None) -> np.ndarray | None:
    """Boolean document selection -> bucket map (0 inside, -1 outside)."""
    if selection is None:
        return None
    return np.where(selection, 0, -1)


def pos_majority(corpus: CorpusArrays, selection: np.ndarray | None, allowed) -> np.ndarray | None:
    """Per lemma: at least half of its docset tokens carry an allowed tag."""
    if allowed is None:
        return None
    lens = corpus.ends - corpus.starts
    inside = np.ones(len(corpus.lemma), dtype=bool)
    if selection is not None:
        inside = np.repeat(selection, lens)
    ok_tags = [i for i, tag in enumerate(corpus.pos_names) if tag in allowed]
    good_token = inside & np.isin(corpus.pos, ok_tags)
    total = np.bincount(corpus.lemma[inside], minlength=corpus.n_lemmas)
    good = np.bincount(corpus.lemma[good_token], minlength=corpus.n_lemmas)
    return 2 * good >= np.maximum(total, 1)


def dice(pairs, freq_a, freq_b):
    """Elementwise 2 * pairs / (freq_a + freq_b), 0 where both are 0."""
    pairs = np.asarray(pairs, dtype=np.float64)
    denom = np.asarray(freq_a, dtype=np.float64) + np.asarray(freq_b, dtype=np.float64)
    return np.where(denom > 0, 2.0 * pairs / np.where(denom > 0, denom, 1.0), 0.0)


class Collocate(NamedTuple):
    lemma: str
    pair_count: int
    freq: int
    dice: float


def top_collocates(
    corpus: CorpusArrays,
    selection: np.ndarray | None,
    pivot: str,
    window: int,
    k: int,
    pos_filter=None,
    min_count: int = 1,
) -> list[Collocate]:
    """Dice-ranked collocates: Dice desc, pair count desc, lemma asc."""
    names = corpus.lemma_names
    try:
        pid = names.index(pivot)
    except ValueError:
        return []
    buckets = selection_buckets(selection)
    freqs = lemma_freqs(corpus, buckets)[0]
    if freqs[pid] == 0:
        return []
    pairs = pivot_pairs(corpus, pid, window, buckets)[0]
    candidate = pairs >= max(min_count, 1)
    majority = pos_majority(corpus, selection, pos_filter)
    if majority is not None:
        candidate &= majority
    candidate[pid] = False
    ids = np.flatnonzero(candidate)
    scores = dice(pairs[ids], freqs[pid], freqs[ids])
    rows = [
        Collocate(names[i], int(pairs[i]), int(freqs[i]), float(s))
        for i, s in zip(ids.tolist(), scores.tolist())
    ]
    rows.sort(key=lambda c: (-c.dice, -c.pair_count, c.lemma))
    return rows[:k]


def submatrix(corpus: CorpusArrays, selection, terms: list[str], window: int) -> np.ndarray:
    """Symmetric pair counts among ``terms`` with a zero diagonal.

    Every token of any term is gathered once; looking ahead d = 1..window
    from each counts every unordered in-document pair exactly once.
    """
    slot = np.full(corpus.n_lemmas, -1, dtype=np.int64)
    slot[[corpus.lemma_names.index(t) for t in terms]] = np.arange(len(terms))
    t = len(terms)
    p = np.flatnonzero(slot[corpus.lemma] >= 0)
    doc = doc_of_positions(corpus, p)
    if selection is not None:
        keep = selection[doc]
        p, doc = p[keep], doc[keep]
    end = corpus.ends[doc]
    counts = np.zeros(t * t, dtype=np.int64)
    for d in range(1, window + 1):
        ahead = p + d
        ok = ahead < end
        a = slot[corpus.lemma[p[ok]]]
        b = slot[corpus.lemma[ahead[ok]]]
        hit = b >= 0
        counts += np.bincount(a[hit] * t + b[hit], minlength=t * t)
    mat = counts.reshape(t, t)
    mat = mat + mat.T
    np.fill_diagonal(mat, 0)
    return mat


def year_bins(corpus: CorpusArrays, width: int, selection=None):
    """Midpoint year bins over dated documents: (first start, doc bucket, n)."""
    inside = corpus.dated if selection is None else corpus.dated & selection
    starts = (corpus.mids // width) * width
    first = int(starts[inside].min())
    last = int(starts[inside].max())
    bucket = np.where(inside, (starts - first) // width, -1)
    return first, bucket, (last - first) // width + 1
