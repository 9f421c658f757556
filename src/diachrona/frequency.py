"""Lemma counting: totals, cross-slice count tables, ratios, ranks, form
shares, and dated time series.

All queries are pure reads over the columnar arrays; counts are exact
integers, never estimates.  Time series bin dated documents by interval
midpoint; undated documents never contribute.

Per-lemma docset counts come from one function, ``_docset_counts``, which
reads one class-major table of any docset: a row per class (a POS tag, or
one row for every token), a column per lemma, summed over its rows.  The
full docset reads the POS tag x lemma table, counted once per index and
cached on it (``_lemma_pos_counts``); a partial docset counts only its own
tokens, copied run by run of adjacent documents (``_docset_values``).  With
a POS filter its tag copy gives the classes: a row per tag, as in the
cached table, unless that table would have more cells than the docset has
tokens, when each tag's flag is looked up chunk by chunk and the table has
two rows.  Both count with one counter, ``_lemma_counts``, which widens
``_CHUNK`` ids at a time into one reused key buffer.  So the cost of a
count follows the docset's tokens, and no corpus-length token mask, key
array or per-token flag array is built.  The per-bucket counts of a bucket
map (the k tranches of ``evolve``) are one partial count per bucket, made
on the first call with that map and cached on the index with the map as
its key (``_bucket_counts``); one entry is kept, so a later call over
another map replaces it, and every call over the same map reads it.
Where a lemma occurs comes from one lookup, ``_occurrences``: the token
positions of one lemma inside a docset, in corpus order, which
``lemma_count`` (their number), ``form_share``, time series, pair series
and the window kernel all read, so no caller drops left-out documents
itself.  A lemma is found by one scan of the lemma column, the first time
an index is asked for it; its positions are cached on the index
(``_lemma_positions``), and every later lookup of that lemma reads them.
So a query pays one scan per distinct lemma, not one per lookup, and no
index builds positions for lemmas it is never asked for.  Over a partial
docset the lookup keeps only the cached positions inside the docset's
runs of adjacent documents, found by two ``searchsorted`` calls, so after
the first scan its cost follows the runs and the occurrences it returns,
not the corpus size.  The pairs among several lemmas (a field map) find
their occurrences in one chunked pass of their own, ``cooc._row_occurrences``,
which caches nothing.
Each position's document, or a count per document or year bin, is found by
whichever search is cheaper: each position among the document starts
(n log D) when there are fewer positions than documents, else each
document start among the positions (D log n).
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .corpus import CorpusError, CorpusIndex, _require_collection

__all__ = [
    "Ratio",
    "CountTable",
    "TimeBin",
    "TimeSeries",
    "lemma_count",
    "count_table",
    "ratio",
    "lemma_rank",
    "form_share",
    "time_series",
    "moving_average",
]


def _docset_values(column: np.ndarray, first: np.ndarray, end: np.ndarray) -> np.ndarray:
    """A token column's entries at the tokens of the runs ``first`` to
    ``end`` (``_docset_runs``), in corpus order.

    Adjacent documents of a docset are one run of tokens, so this copies one
    slice per run: the cost follows the docset's tokens and runs, not the
    corpus size, and no token positions or token mask are built.
    """
    runs = zip(first.tolist(), end.tolist())
    return np.concatenate([column[:0], *(column[lo:hi] for lo, hi in runs)])


def _docset_runs(index: CorpusIndex, dmask: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(first token, end token) of each run of adjacent documents in a
    document mask, in corpus order."""
    # edges[i] is 1 where a run starts at document i, -1 where one ends before it
    edges = np.diff(dmask.astype(np.int8), prepend=0, append=0)
    return index.doc_starts[edges == 1], index.doc_starts[edges == -1]


# Tokens a chunked pass reads at once: the lemma counter's key buffer is
# this long (~8 MB of intp), whatever the corpus or docset size.
_CHUNK = 1 << 20


def _lemma_counts(
    n_lemmas: int, lemma_ids: np.ndarray, classes=None, n_classes: int = 1, class_of=None
) -> np.ndarray:
    """Token counts by class and lemma, shape (n_classes, n_lemmas), int64:
    cell [c, i] counts the tokens with class c and lemma i, where
    ``classes`` holds each token's class below ``n_classes`` (None puts
    every token in class 0).  With ``class_of``, an array such as a flag per
    POS tag, a token's class is ``class_of[classes[t]]`` instead.

    The one per-lemma counter.  It counts ``_CHUNK`` tokens at a time
    through one reused intp key buffer: the chunk's classes (or, without
    classes, its lemma ids) are copied into it, which widens them, looked
    up in ``class_of`` if given, turned in place into the keys
    class * n_lemmas + lemma, and bincounted into the table.  So no key or
    class array as long as the input is built, and bincount never casts
    one.  The table is class-major, so a sum over classes adds a few
    contiguous lemma-long rows.
    """
    table = np.zeros(n_classes * n_lemmas, dtype=np.int64)
    buffer = np.empty(min(_CHUNK, len(lemma_ids)), dtype=np.intp)
    for lo in range(0, len(lemma_ids), _CHUNK):
        keys = buffer[: len(lemma_ids) - lo]
        if classes is None:
            keys[:] = lemma_ids[lo : lo + _CHUNK]
        else:
            keys[:] = classes[lo : lo + _CHUNK]
            if class_of is not None:
                keys[:] = class_of[keys]
            keys *= n_lemmas
            keys += lemma_ids[lo : lo + _CHUNK]
        table += np.bincount(keys, minlength=len(table))
    return table.reshape(n_classes, n_lemmas)


def _lemma_pos_counts(index: CorpusIndex) -> np.ndarray:
    """Full-corpus token counts by POS tag and lemma, shape (P, V).

    Counted once per index by ``_lemma_counts`` and cached on it, read
    only: P x V int64 cells, 3 x 30,000 (720 KB) on a 10M-token corpus of
    30,000 lemmas and three tags.  Full-docset counts read it.
    """
    if index._lemma_pos is None:
        table = _lemma_counts(len(index.lemmas), index.lemma_ids, index.pos_ids, len(index.pos_tags))
        table.flags.writeable = False
        index._lemma_pos = table
    return index._lemma_pos


def _docset_counts(
    index: CorpusIndex,
    dmask: np.ndarray | None,
    pos_allowed: np.ndarray | None = None,
):
    """Per-lemma token counts over the documents of a document mask (None
    for every document); with ``pos_allowed`` (a flag per POS tag), the pair
    (all tokens, tokens of allowed tags).

    Both come from one class x lemma table: the totals sum all its rows, the
    second count the rows of the allowed classes.  The full docset reads
    the cached POS tag x lemma table.  A partial docset counts its own
    tokens with ``_lemma_counts``, so its cost follows its tokens, not the
    corpus size: its runs are found once, and its lemma ids are copied once.
    Without POS flags every token is in one class.  With them its tags are
    copied once too and are the classes, a row per tag as in the cached
    table, while that table has no more cells than the docset has tokens;
    past that, a tagset too large for the docset would set the cost, so the
    counter looks each tag's flag up chunk by chunk and the table has two
    rows, the tokens of other and of allowed tags.
    """
    rows = pos_allowed
    if dmask is None or dmask.all():
        table = _lemma_pos_counts(index)
    else:
        runs = _docset_runs(index, dmask)
        lemma_ids = _docset_values(index.lemma_ids, *runs)
        n_lemmas, n_tags = len(index.lemmas), len(index.pos_tags)
        if pos_allowed is None:
            table = _lemma_counts(n_lemmas, lemma_ids)
        else:
            tags = _docset_values(index.pos_ids, *runs)
            if n_tags * n_lemmas <= len(tags):
                table = _lemma_counts(n_lemmas, lemma_ids, tags, n_tags)
            else:
                table = _lemma_counts(n_lemmas, lemma_ids, tags, 2, pos_allowed)
                rows = slice(1, 2)
    totals = table.sum(axis=0)
    return totals if pos_allowed is None else (totals, table[rows].sum(axis=0))


def _bucket_counts(index: CorpusIndex, doc_bucket: np.ndarray, n_buckets: int) -> np.ndarray:
    """Per-lemma token counts of each bucket of a bucket map, shape
    (n_buckets, V): row b counts the documents that ``doc_bucket`` maps to
    b (-1 leaves a document out).

    Each bucket is one ``_docset_counts``, so the first call with a map
    copies and counts the tokens of its buckets.  The table is then cached
    on the index, read only, with a read-only copy of the map as its key
    (``CorpusIndex._bucket_counts``), and a later call with an equal map
    (``np.array_equal``, one pass over the documents) and bucket count
    returns it as is, whatever object holds the map.  One entry is kept:
    another map replaces it, so the cache holds k x V x 8 bytes plus the
    map, 8 bytes per document.
    """
    entry = index._bucket_counts
    if entry is not None and len(entry[1]) == n_buckets and np.array_equal(entry[0], doc_bucket):
        return entry[1]
    table = np.empty((n_buckets, len(index.lemmas)), dtype=np.int64)
    for b in range(n_buckets):
        table[b] = _docset_counts(index, doc_bucket == b)
    key = doc_bucket.copy()
    key.flags.writeable = table.flags.writeable = False
    index._bucket_counts = (key, table)
    return table


def _lemma_positions(index: CorpusIndex, lid: int) -> np.ndarray:
    """The token positions of lemma ``lid``, ascending, as intp.

    Found by one scan of the lemma column on the index's first lookup of the
    lemma, then cached on it read only and returned as is: 8 bytes per
    occurrence, kept only for the lemmas the index is asked for.
    """
    positions = index._positions.get(lid)
    if positions is None:
        positions = np.flatnonzero(index.lemma_ids == lid)
        positions.flags.writeable = False
        index._positions[lid] = positions
    return positions


def _occurrences(index: CorpusIndex, lid: int, dmask: np.ndarray | None = None) -> np.ndarray:
    """The one occurrence lookup: token positions of lemma ``lid`` in the
    documents of ``dmask`` (None or a full mask keeps them all), in corpus
    order, as intp.

    It reads the lemma's cached positions (``_lemma_positions``): the full
    docset returns the cached array itself, read only.  Over a partial
    docset, two ``searchsorted`` calls find where each run of adjacent
    docset documents begins and ends in those positions, and only the
    positions inside the runs are gathered, so the lookup costs the runs and
    what it returns, never a copy of the whole array."""
    lemma = _lemma_positions(index, lid)
    if dmask is None or dmask.all():
        return lemma
    first, end = (np.searchsorted(lemma, bound) for bound in _docset_runs(index, dmask))
    lengths = end - first
    # index of each kept position: its run's first, plus its rank in the run
    kept = np.repeat(first - (np.cumsum(lengths) - lengths), lengths)
    kept += np.arange(len(kept))
    # each index is replaced by the position it holds, in place
    kept[:] = lemma[kept]
    return kept


def _doc_counts(index: CorpusIndex, positions: np.ndarray) -> np.ndarray:
    """How many of the ascending ``positions`` each document holds: one
    search of each document start among them (D log n)."""
    return np.diff(np.searchsorted(positions, index.doc_starts))


def _occurrence_docs(index: CorpusIndex, positions: np.ndarray) -> np.ndarray:
    """The document of each of the ascending ``positions``, by the cheaper
    search: fewer positions than documents search each position among the
    document starts (n log D, no document-length array); more expand the
    per-document counts (D log n, int32 documents)."""
    if len(positions) < len(index):
        # the last start at or before a position is its document's, past any
        # empty documents that start there too
        return np.searchsorted(index.doc_starts, positions, "right") - 1
    return np.repeat(np.arange(len(index), dtype=np.int32), _doc_counts(index, positions))


def lemma_count(index: CorpusIndex, docset, lemma: str) -> int:
    """Exact number of tokens with ``lemma`` inside the docset (0 if unknown)."""
    dmask = index.doc_mask(docset)
    lid = index.lemmas.id_of(lemma)
    if lid is None:
        return 0
    return len(_occurrences(index, lid, dmask))


@dataclass(frozen=True)
class CountTable:
    """Lemma x docset count matrix with exact marginal sums."""

    lemmas: tuple[str, ...]
    labels: tuple[str, ...]
    counts: np.ndarray  # shape (len(lemmas), len(labels)), int64

    @classmethod
    def from_counts(cls, lemmas: Sequence[str], labels: Sequence[str], counts) -> "CountTable":
        mat = np.asarray(counts, dtype=np.int64)
        if mat.shape != (len(lemmas), len(labels)):
            raise CorpusError(
                f"count matrix shape {mat.shape} does not match "
                f"{len(lemmas)} lemmas x {len(labels)} labels"
            )
        return cls(tuple(lemmas), tuple(labels), mat)

    @property
    def row_sums(self) -> np.ndarray:
        return self.counts.sum(axis=1)

    @property
    def col_sums(self) -> np.ndarray:
        return self.counts.sum(axis=0)

    @property
    def grand_total(self) -> int:
        return int(self.counts.sum())


def count_table(
    index: CorpusIndex,
    lemmas: Sequence[str],
    docsets: Sequence,
    labels: Sequence[str] | None = None,
) -> CountTable:
    """Cell (i, j) = count of lemmas[i] within docsets[j].  A lemma listed
    twice is an error: it would count twice in every sum."""
    _require_collection(lemmas, "lemmas")
    repeated = [lemma for i, lemma in enumerate(lemmas) if lemma in lemmas[:i]]
    if repeated:
        raise CorpusError(f"lemma {repeated[0]!r} is listed twice")
    if labels is None:
        labels = [f"docset{j}" for j in range(len(docsets))]
    mat = np.zeros((len(lemmas), len(docsets)), dtype=np.int64)
    for j, docset in enumerate(docsets):
        freqs = _docset_counts(index, index.doc_mask(docset))
        for i, lemma in enumerate(lemmas):
            lid = index.lemmas.id_of(lemma)
            if lid is not None:
                mat[i, j] = freqs[lid]
    return CountTable.from_counts(lemmas, labels, mat)


class Ratio(NamedTuple):
    """Quotient of two counts, with both operands kept for reporting."""

    a: int
    b: int
    value: float

    def __float__(self) -> float:
        return self.value


def ratio(count_a: int, count_b: int) -> Ratio:
    """count_a / count_b as a float; division by zero is an error, never inf."""
    if count_b == 0:
        raise CorpusError("ratio undefined: denominator count is zero")
    return Ratio(count_a, count_b, count_a / count_b)


def lemma_rank(index: CorpusIndex, docset, lemma: str) -> int | None:
    """1-based frequency rank of ``lemma`` in the docset.

    Lemmas are ordered by descending count, ties broken by ascending lemma
    string.  Returns None when the lemma does not occur in the docset.
    """
    dmask = index.doc_mask(docset)
    lid = index.lemmas.id_of(lemma)
    if lid is None:
        return None
    freqs = _docset_counts(index, dmask)
    target = freqs[lid]
    if target == 0:
        return None
    higher = int(np.count_nonzero(freqs > target))
    tied = np.nonzero(freqs == target)[0]
    before = sum(1 for other in tied if index.lemmas[int(other)] < lemma)
    return higher + before + 1


def form_share(index: CorpusIndex, docset, lemma: str, forms: Iterable[str]) -> float:
    """Share of the lemma's tokens whose surface form (case-folded) is in ``forms``."""
    _require_collection(forms, "forms")
    dmask = index.doc_mask(docset)
    lid = index.lemmas.id_of(lemma)
    hits = np.zeros(0, dtype=np.intp) if lid is None else _occurrences(index, lid, dmask)
    total = len(hits)
    if total == 0:
        raise CorpusError(f"form share undefined: lemma {lemma!r} has zero count in docset")
    folded = {f.casefold() for f in forms}
    per_form = np.bincount(index.form_ids[hits])
    # casefold only the distinct forms the lemma's hits carry
    wanted = [f for f in np.flatnonzero(per_form).tolist() if index.forms[f].casefold() in folded]
    return int(per_form[wanted].sum()) / total


class TimeBin(NamedTuple):
    start_year: int
    count: int
    token_mass: int
    per_million: float | None


@dataclass(frozen=True)
class TimeSeries:
    """Contiguous ordered year bins with counts, token mass, per-million rate."""

    lemma: str
    bin_width: int
    bins: tuple[TimeBin, ...]

    def total_count(self) -> int:
        return sum(b.count for b in self.bins)


# Most year bins one query may span, so a wide date range at a narrow bin
# width is an error rather than a huge allocation.  The vertical parser reads
# years 0..999999, so every parsed corpus fits at bin width 1.
_MAX_YEAR_BINS = 1_000_000


def _year_bins(
    index: CorpusIndex, dmask: np.ndarray, bin_width: int
) -> tuple[int, int, np.ndarray] | None:
    """(first bin start, bin count, bin of each document) of the midpoint
    year bins, aligned to multiples of ``bin_width``, of the dated documents
    in the document mask; other documents get bin -1.  None if none is dated.
    Every binned query reaches this, so the bin width is checked here."""
    if bin_width < 1:
        raise CorpusError("bin width must be >= 1")
    if bin_width > np.iinfo(np.int64).max:
        raise CorpusError(f"bin width must be <= {np.iinfo(np.int64).max}")
    dated = dmask & index.doc_dated
    if not dated.any():
        return None
    starts = (index.doc_mids // bin_width) * bin_width
    lo = int(starts[dated].min())
    n_bins = (int(starts[dated].max()) - lo) // bin_width + 1
    if n_bins > _MAX_YEAR_BINS:
        raise CorpusError(
            f"{n_bins} year bins of width {bin_width} exceed the limit of {_MAX_YEAR_BINS}; "
            "use a wider bin"
        )
    return lo, n_bins, np.where(dated, (starts - lo) // bin_width, -1)


def _bin_sums(doc_bin: np.ndarray, n_bins: int, per_doc: np.ndarray) -> np.ndarray:
    """Per-bin sums of a per-document count, where document i falls in bin
    ``doc_bin[i]`` (-1 leaves it out)."""
    binned = doc_bin >= 0
    return np.bincount(doc_bin[binned], weights=per_doc[binned], minlength=n_bins).astype(np.int64)


def _bin_counts(index: CorpusIndex, positions: np.ndarray, doc_bin: np.ndarray, n_bins: int) -> np.ndarray:
    """Per-bin counts of the occurrences at the ascending ``positions``, by
    the cheaper search: fewer occurrences than documents bin each one by its
    document; more bin their per-document counts."""
    if len(positions) < len(index):
        bins = doc_bin[_occurrence_docs(index, positions)]
        return np.bincount(bins[bins >= 0], minlength=n_bins)
    return _bin_sums(doc_bin, n_bins, _doc_counts(index, positions))


def time_series(
    index: CorpusIndex,
    lemma: str,
    bin_width: int,
    docset=None,
) -> TimeSeries:
    """Per-bin counts of ``lemma`` over dated documents.

    Bin edges align to multiples of ``bin_width``; a document lands in the
    bin containing its date midpoint.  Each bin reports the lemma count,
    the token mass of contributing documents, and the per-million rate
    (None for bins with zero mass).
    """
    dmask = index.doc_mask(docset)
    binning = _year_bins(index, dmask, bin_width)
    if binning is None:
        return TimeSeries(lemma, bin_width, ())
    lo, n_bins, doc_bin = binning
    masses = _bin_sums(doc_bin, n_bins, np.diff(index.doc_starts))
    counts = np.zeros(n_bins, dtype=np.int64)
    lid = index.lemmas.id_of(lemma)
    if lid is not None:
        counts = _bin_counts(index, _occurrences(index, lid, dmask), doc_bin, n_bins)

    bins = []
    for b in range(n_bins):
        mass = int(masses[b])
        count = int(counts[b])
        per_million = 1e6 * count / mass if mass > 0 else None
        bins.append(TimeBin(lo + b * bin_width, count, mass, per_million))
    return TimeSeries(lemma, bin_width, tuple(bins))


def moving_average(values: Sequence[float | None], window: int) -> list[float | None]:
    """Centered moving average skipping undefined entries; window must be odd."""
    if window < 1 or window % 2 == 0:
        raise CorpusError("moving average window must be a positive odd number")
    half = window // 2
    out: list[float | None] = []
    for i in range(len(values)):
        seen = [v for v in values[max(0, i - half) : i + half + 1] if v is not None]
        out.append(sum(seen) / len(seen) if seen else None)
    return out
