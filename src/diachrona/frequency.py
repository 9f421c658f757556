"""Lemma counting: totals, cross-slice count tables, ratios, ranks, form
shares, and dated time series.

All queries are pure reads over the columnar arrays; counts are exact
integers, never estimates.  Time series bin dated documents by interval
midpoint; undated documents never contribute.

Per-lemma docset counts come from one function, ``_docset_counts``.  The
full docset reads one lemma x POS table, counted once per index and cached
on it (``_lemma_pos_counts``); a partial docset counts only its own tokens,
copied run by run of adjacent documents (``_docset_values``).  So the cost
of a count follows the docset's tokens, and no corpus-length token mask is
built.  Where a lemma occurs comes from one lookup, ``_occurrences``: its
token positions and per-document counts, which ``lemma_count``,
``form_share``, time series and the window kernel all read.  An index's
first single-lemma lookups scan the lemma column; after
``_SCANS_BEFORE_POSTINGS`` of them the index builds its postings (token
positions grouped by lemma, ``_postings``) once, and every later lookup of
one lemma reads a slice of them, so its cost follows the lemma's
occurrences, not the corpus size.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .corpus import CorpusError, CorpusIndex

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


def _docset_values(index: CorpusIndex, dmask: np.ndarray, column: np.ndarray) -> np.ndarray:
    """A token column's entries at the tokens of the documents in a document
    mask, in corpus order.

    Adjacent documents of the mask are one run of tokens, so this copies one
    slice per run: the cost follows the docset's tokens and runs, not the
    corpus size, and no token positions or token mask are built.
    """
    # edges[i] is 1 where a run starts at document i, -1 where one ends before it
    edges = np.diff(dmask.astype(np.int8), prepend=0, append=0)
    runs = zip(index.doc_starts[edges == 1].tolist(), index.doc_starts[edges == -1].tolist())
    return np.concatenate([column[:0], *(column[lo:hi] for lo, hi in runs)])


def _lemma_pos_counts(index: CorpusIndex) -> np.ndarray:
    """Full-corpus token counts by lemma and POS tag, shape (V, P).

    Counted once per index and cached on it, read only: V x P int64 cells,
    30,000 x 3 (720 KB) on a 10M-token corpus of 30,000 lemmas and three
    tags.  Only full-docset counts read it.
    """
    if index._lemma_pos is None:
        n_pos = len(index.pos_tags)
        keys = index.lemma_ids.astype(np.int64)
        keys *= n_pos
        keys += index.pos_ids
        table = np.bincount(keys, minlength=len(index.lemmas) * n_pos)
        table = table.reshape(len(index.lemmas), n_pos)
        table.flags.writeable = False
        index._lemma_pos = table
    return index._lemma_pos


def _docset_counts(
    index: CorpusIndex,
    dmask: np.ndarray,
    pos_allowed: np.ndarray | None = None,
):
    """Per-lemma token counts over the documents of a document mask; with
    ``pos_allowed`` (a flag per POS tag), the pair (all tokens, tokens of
    allowed tags).

    The full docset reads the cached lemma x POS table.  A partial docset
    counts its own tokens, so its cost follows its tokens, not the corpus
    size or the tagset: its lemma ids are copied once and bincounted into a
    V-length vector, or with POS flags, turned in place into the keys
    2 * lemma + flag, whose one bincount holds both counts.
    """
    n_lemmas = len(index.lemmas)
    if dmask.all():
        table = _lemma_pos_counts(index)
        totals = table.sum(axis=1)
        allowed = None if pos_allowed is None else table[:, pos_allowed].sum(axis=1)
    elif pos_allowed is None:
        return np.bincount(_docset_values(index, dmask, index.lemma_ids), minlength=n_lemmas)
    else:
        # the POS flags come first, so their tag copy is freed before the lemma ids are copied
        keep = pos_allowed[_docset_values(index, dmask, index.pos_ids)]
        keys = _docset_values(index, dmask, index.lemma_ids)
        keys = keys.astype(np.int64) if n_lemmas > 1 << 31 else keys
        keys <<= 1
        keys += keep
        split = np.bincount(keys, minlength=2 * n_lemmas).reshape(n_lemmas, 2)
        totals, allowed = split.sum(axis=1), split[:, 1]
    return totals if pos_allowed is None else (totals, allowed)


# Single-lemma lookups an index answers by scanning its lemma column before
# it builds postings.  One build costs as much as 17-27 scans (measured at
# 1M and 10M tokens on a 2-core host), so building on the next lookup keeps
# the total lookup cost within about twice that of the best choice made in
# hindsight (the ski-rental rule), and a cold CLI query, which makes 1-3
# lookups per loaded index, never builds.
_SCANS_BEFORE_POSTINGS = 15


def _postings(index: CorpusIndex) -> tuple[np.ndarray, np.ndarray]:
    """(offsets, positions): the token positions of lemma i, in corpus order,
    are ``positions[offsets[i]:offsets[i + 1]]``.

    Built once per index and cached on it, read only.  Positions are uint32
    when they fit, 4 bytes per token (40 MB at 10M tokens); the int64 sort
    result is not kept.  Lemma ids sort as 16-bit keys when the vocabulary
    allows, which numpy radix-sorts.
    """
    if index._postings is None:
        lemma_ids = index.lemma_ids
        keys = lemma_ids.astype(np.uint16) if len(index.lemmas) <= 1 << 16 else lemma_ids
        order = np.argsort(keys, kind="stable")
        del keys
        positions = order.astype(np.uint32 if len(lemma_ids) < 1 << 32 else np.int64)
        del order
        offsets = np.zeros(len(index.lemmas) + 1, dtype=np.int64)
        np.cumsum(_lemma_pos_counts(index).sum(axis=1), out=offsets[1:])
        offsets.flags.writeable = False
        positions.flags.writeable = False
        index._postings = (offsets, positions)
    return index._postings


def _occurrences(index: CorpusIndex, rows) -> tuple[np.ndarray, np.ndarray]:
    """The one occurrence lookup: token positions of the lemmas ``rows`` in
    corpus order, and how many of them each document holds, found by one
    ``searchsorted`` of ``doc_starts`` over the positions.

    One lemma is a slice of the postings once the index has them, and a scan
    of the lemma column before; several lemmas are one gather pass, which
    costs less than merging their postings."""
    rows = np.asarray(rows, dtype=np.int64)
    if len(rows) == 1:
        lid = int(rows[0])
        if index._postings is None and index._lemma_scans < _SCANS_BEFORE_POSTINGS:
            index._lemma_scans += 1
            positions = np.flatnonzero(index.lemma_ids == lid)
        else:
            offsets, postings = _postings(index)
            # as intp, so that position arithmetic is signed under every numpy
            positions = postings[offsets[lid] : offsets[lid + 1]].astype(np.intp)
    else:
        is_row = np.zeros(len(index.lemmas), dtype=bool)
        is_row[rows] = True
        positions = np.flatnonzero(is_row[index.lemma_ids])
    return positions, np.diff(np.searchsorted(positions, index.doc_starts))


def lemma_count(index: CorpusIndex, docset, lemma: str) -> int:
    """Exact number of tokens with ``lemma`` inside the docset (0 if unknown)."""
    lid = index.lemmas.id_of(lemma)
    if lid is None:
        return 0
    _, per_doc = _occurrences(index, [lid])
    return int(per_doc[index.doc_mask(docset)].sum())


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
    """Cell (i, j) = count of lemmas[i] within docsets[j]."""
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
    lid = index.lemmas.id_of(lemma)
    if lid is None:
        return None
    freqs = _docset_counts(index, index.doc_mask(docset))
    target = freqs[lid]
    if target == 0:
        return None
    higher = int(np.count_nonzero(freqs > target))
    tied = np.nonzero(freqs == target)[0]
    before = sum(1 for other in tied if index.lemmas[int(other)] < lemma)
    return higher + before + 1


def form_share(index: CorpusIndex, docset, lemma: str, forms: Iterable[str]) -> float:
    """Share of the lemma's tokens whose surface form (case-folded) is in ``forms``."""
    lid = index.lemmas.id_of(lemma)
    hits = np.zeros(0, dtype=np.intp)
    if lid is not None:
        positions, per_doc = _occurrences(index, [lid])
        hits = positions[np.repeat(index.doc_mask(docset), per_doc)]
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
    binning = _year_bins(index, index.doc_mask(docset), bin_width)
    if binning is None:
        return TimeSeries(lemma, bin_width, ())
    lo, n_bins, doc_bin = binning
    masses = _bin_sums(doc_bin, n_bins, np.diff(index.doc_starts))
    counts = np.zeros(n_bins, dtype=np.int64)
    lid = index.lemmas.id_of(lemma)
    if lid is not None:
        counts = _bin_sums(doc_bin, n_bins, _occurrences(index, [lid])[1])

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
