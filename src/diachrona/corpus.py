"""Immutable corpus model: interned vocabularies, columnar token arrays,
and a columnar document table with dating metadata.

A :class:`CorpusIndex` stores three parallel integer arrays (lemma ids,
form ids, POS ids) covering every retained token of the corpus, plus a
document table of columns with one entry per document: ``doc_ids`` (a
:class:`Vocabulary`, so a document's position is its id's id),
``doc_starts`` (token offsets, one more entry than there are documents:
document i covers tokens ``doc_starts[i]:doc_starts[i+1]``), ``doc_kind``
(a :class:`DateKind`), ``doc_lo`` and ``doc_hi`` (0 when undated),
``doc_typology`` (an id into the ``typologies`` :class:`Vocabulary`, -1 for
no tag), and the derived ``doc_dated`` and ``doc_mids`` (floor midpoints, 0
when undated).  Years lie in int32, the range the index file stores, and
construction rejects any other.  ``documents`` reads the table as
:class:`Document` records, built on first access.  A docset is None (every
document) or a boolean mask over documents; ``doc_mask`` rejects any other.
The document filters (``is_dated``, ``dated_within``, ``has_typology``,
``with_ids``) are defined here once: each is a function of the index that
returns such a mask, :func:`subcorpus` ANDs them, and the CLI's ``--filter``
expressions parse into them.
The arrays are read-only after construction, and all query modules are pure
readers.  The lazy caches (the lemma x POS counts, each looked-up lemma's
positions, the dated order, the records, and the entries and lookup of a
:class:`Vocabulary` made by ``from_text``, as ``load_index`` makes the
forms table) are each built into a local and assigned once, so readers on
several threads can at worst build one twice: two threads may both scan
a lemma, and either's positions are correct.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass
from enum import IntEnum
from functools import cached_property

import numpy as np

__all__ = [
    "CorpusError",
    "Vocabulary",
    "DateKind",
    "DateSpec",
    "Document",
    "CorpusIndex",
    "subcorpus",
    "dated_within",
    "has_typology",
    "is_dated",
    "with_ids",
]

# POS ids are stored as u16 on disk; the vocabulary must fit.
MAX_POS_ENTRIES = 1 << 16
# years are stored as i32 on disk; every date must fit.
_I32_MIN, _I32_MAX = -(2**31), 2**31 - 1
# an index's arrays besides the derived doc_dated and doc_mids
_COLUMNS = (
    "lemma_ids", "form_ids", "pos_ids", "doc_starts", "doc_kind", "doc_lo", "doc_hi", "doc_typology"
)


class CorpusError(Exception):
    """Domain error raised by corpus construction and corpus queries."""


class _IdOutOfRange(CorpusError):
    """A token id outside its vocabulary; ``load_index`` reports it as a
    corrupt file's ``IdRangeError``."""


class Vocabulary:
    """Dense string table: entry ``i`` has id ``i``.  Duplicate entries are rejected.

    A table made by :meth:`from_text` keeps its entries as one string and
    their offsets into it: its length comes from the offsets, and its entries
    are sliced, their lookup built and their repeats rejected on the first
    use of any other method.
    """

    __slots__ = ("_size", "_table", "_text", "_offsets", "_what")

    def __init__(self, entries: Iterable[str] = (), what: str = "vocabulary entry") -> None:
        self._table = _interned(list(entries), what)
        self._size = len(self._table[0])
        self._text = self._offsets = None
        self._what = what

    @classmethod
    def from_text(cls, text: str, offsets: np.ndarray, what: str = "vocabulary entry") -> "Vocabulary":
        """The table whose entry ``i`` is ``text[offsets[i]:offsets[i + 1]]``.
        ``offsets`` must rise from 0 to ``len(text)``; nothing is sliced yet."""
        vocab = cls.__new__(cls)
        vocab._size, vocab._table = len(offsets) - 1, None
        vocab._text, vocab._offsets, vocab._what = text, offsets, what
        return vocab

    def _entries_and_lookup(self) -> tuple[list[str], dict[str, int]]:
        table = self._table
        if table is None:
            table = _interned(_split(self._text, self._offsets), self._what)
            self._table = table
        return table

    @property
    def entries(self) -> list[str]:
        return self._entries_and_lookup()[0]

    def id_of(self, entry: str) -> int | None:
        """Return the id of ``entry``, or None when it is not in the table."""
        return self._entries_and_lookup()[1].get(entry)

    def __getitem__(self, ident: int) -> str:
        return self._entries_and_lookup()[0][ident]

    def __contains__(self, entry: str) -> bool:
        return entry in self._entries_and_lookup()[1]

    def __len__(self) -> int:
        return self._size

    def __iter__(self):
        return iter(self._entries_and_lookup()[0])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Vocabulary):
            return NotImplemented
        return self.entries == other.entries

    def __repr__(self) -> str:
        return f"Vocabulary({self._size} entries)"


def _interned(entries: list[str], what: str) -> tuple[list[str], dict[str, int]]:
    """``entries`` and the id of each, or a :class:`CorpusError` naming the
    entry whose second occurrence comes first."""
    lookup = dict(zip(entries, range(len(entries))))
    if len(lookup) != len(entries):
        seen: set[str] = set()
        for entry in entries:
            if entry in seen:
                raise CorpusError(f"duplicate {what}: {entry!r}")
            seen.add(entry)
    return entries, lookup


def _split(text: str, offsets: np.ndarray) -> list[str]:
    """The entries ``text[offsets[i]:offsets[i + 1]]`` of a string table."""
    bounds = offsets.tolist()
    return [text[a:b] for a, b in zip(bounds, bounds[1:])]


class DateKind(IntEnum):
    """Wire values for document dating; stable in the index file format."""

    UNDATED = 0
    EXACT = 1
    RANGE = 2


@dataclass(frozen=True)
class DateSpec:
    """A document's dating: an exact year, a closed year interval, or unknown."""

    kind: DateKind
    lo: int | None = None
    hi: int | None = None

    def __post_init__(self) -> None:
        if self.kind is DateKind.UNDATED:
            if self.lo is not None or self.hi is not None:
                raise CorpusError("undated DateSpec must not carry years")
        else:
            if self.lo is None or self.hi is None:
                raise CorpusError("dated DateSpec requires lo and hi")
            if self.lo > self.hi:
                raise CorpusError(f"date interval reversed: {self.lo} > {self.hi}")
            if self.kind is DateKind.EXACT and self.lo != self.hi:
                raise CorpusError("exact DateSpec requires lo == hi")

    @classmethod
    def undated(cls) -> "DateSpec":
        return cls(DateKind.UNDATED)

    @classmethod
    def exact(cls, year: int) -> "DateSpec":
        return cls(DateKind.EXACT, year, year)

    @classmethod
    def year_range(cls, lo: int, hi: int) -> "DateSpec":
        if lo == hi:
            return cls(DateKind.EXACT, lo, hi)
        return cls(DateKind.RANGE, lo, hi)

    @property
    def is_dated(self) -> bool:
        return self.kind is not DateKind.UNDATED

    def midpoint(self) -> int | None:
        """Floor midpoint of the interval; None for undated documents."""
        if self.kind is DateKind.UNDATED:
            return None
        return (self.lo + self.hi) // 2


@dataclass(frozen=True)
class Document:
    """One document: id, dating, optional typology tag, and its token slice."""

    doc_id: str
    date: DateSpec
    typology: str | None
    token_start: int
    token_len: int


class CorpusIndex:
    """Read-only corpus: vocabularies + columnar token ids + document table.

    Construction validates every invariant once (column lengths, id ranges,
    contiguous document slices that cover the tokens, valid int32 dates,
    unique document ids) and makes the arrays read-only; afterwards the index
    is safe for concurrent readers (see the module docstring on its lazy
    caches).
    """

    def __init__(
        self,
        lemmas: Vocabulary,
        forms: Vocabulary,
        pos_tags: Vocabulary,
        lemma_ids: np.ndarray,
        form_ids: np.ndarray,
        pos_ids: np.ndarray,
        doc_ids: Iterable[str],
        doc_starts: Sequence[int] | np.ndarray,
        doc_kind: Sequence[int] | np.ndarray,
        doc_lo: Sequence[int] | np.ndarray,
        doc_hi: Sequence[int] | np.ndarray,
        doc_typology: Iterable[str | None],
    ) -> None:
        lemma_ids = np.ascontiguousarray(lemma_ids)
        form_ids = np.ascontiguousarray(form_ids)
        pos_ids = np.ascontiguousarray(pos_ids)
        n = len(lemma_ids)
        if len(form_ids) != n or len(pos_ids) != n:
            raise CorpusError("token id arrays differ in length")
        _check_ids(lemma_ids, len(lemmas), "lemma")
        _check_ids(form_ids, len(forms), "form")
        _check_ids(pos_ids, len(pos_tags), "POS")
        if len(pos_tags) > MAX_POS_ENTRIES:
            raise CorpusError("POS vocabulary exceeds u16 capacity")

        self.doc_ids = Vocabulary(doc_ids, what="document id")
        # tags get ids in first-seen order; an empty tag is no tag
        tags: dict[str, int] = {}
        typology = np.array([tags.setdefault(t, len(tags)) if t else -1 for t in doc_typology], np.int64)
        starts = _int64_column(doc_starts, "doc_starts")
        try:
            kind, lo, hi = (
                _int64_column(col, name)
                for col, name in ((doc_kind, "doc_kind"), (doc_lo, "doc_lo"), (doc_hi, "doc_hi"))
            )
        except OverflowError:
            raise CorpusError("a document's date is outside int32") from None
        n_docs = len(self.doc_ids)
        if {len(starts) - 1, len(kind), len(lo), len(hi), len(typology)} != {n_docs}:
            raise CorpusError(f"document columns differ in length for {n_docs} documents")
        if starts[0] != 0:
            raise CorpusError(f"documents start at token {starts[0]}, expected 0")
        if starts[-1] != n:
            raise CorpusError(f"documents cover {starts[-1]} tokens, arrays hold {n}")
        lengths = np.diff(starts)
        for bad, problem in (
            (lengths < 0, "token length {len} is negative"),
            ((kind < 0) | (kind > 2), "invalid date kind {kind}"),
            ((kind == DateKind.UNDATED) & ((lo | hi) != 0), "undated, yet carries years {lo}..{hi}"),
            ((kind == DateKind.EXACT) & (lo != hi), "exact date spans {lo}..{hi}"),
            (lo > hi, "date interval reversed: {lo} > {hi}"),
            ((lo < _I32_MIN) | (hi > _I32_MAX), "date {lo}..{hi} is outside int32"),
        ):
            if bad.any():
                i = int(np.argmax(bad))
                detail = problem.format(len=lengths[i], kind=kind[i], lo=lo[i], hi=hi[i])
                raise CorpusError(f"document {self.doc_ids[i]!r}: {detail}")

        self.lemmas = lemmas
        self.forms = forms
        self.pos_tags = pos_tags
        self.lemma_ids = lemma_ids.astype(np.uint32, copy=False)
        self.form_ids = form_ids.astype(np.uint32, copy=False)
        self.pos_ids = pos_ids.astype(np.uint16, copy=False)
        self.doc_starts, self.doc_kind, self.doc_lo, self.doc_hi = starts, kind, lo, hi
        self.doc_typology = typology
        self.typologies = Vocabulary(tags)
        self.doc_dated = kind != DateKind.UNDATED
        self.doc_mids = (lo + hi) >> 1
        for name in (*_COLUMNS, "doc_dated", "doc_mids"):
            getattr(self, name).flags.writeable = False
        # full-corpus (lemma, POS) token counts, filled by frequency._lemma_pos_counts
        self._lemma_pos: np.ndarray | None = None
        # lemma id -> its token positions, filled by frequency._lemma_positions
        self._positions: dict[int, np.ndarray] = {}

    @cached_property
    def documents(self) -> tuple[Document, ...]:
        """The document table as :class:`Document` records, built on first access."""
        dates = [
            DateSpec(DateKind(kind), lo, hi) if kind else DateSpec.undated()
            for kind, lo, hi in zip(self.doc_kind.tolist(), self.doc_lo.tolist(), self.doc_hi.tolist())
        ]
        tags = map([*self.typologies, None].__getitem__, self.doc_typology.tolist())
        starts, lengths = self.doc_starts.tolist(), np.diff(self.doc_starts).tolist()
        return tuple(map(Document, self.doc_ids, dates, tags, starts, lengths))

    @property
    def total_tokens(self) -> int:
        return len(self.lemma_ids)

    def __len__(self) -> int:
        return len(self.doc_ids)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CorpusIndex):
            return NotImplemented
        return (self.lemmas, self.forms, self.pos_tags, self.doc_ids, self.typologies) == (
            other.lemmas, other.forms, other.pos_tags, other.doc_ids, other.typologies
        ) and all(np.array_equal(getattr(self, name), getattr(other, name)) for name in _COLUMNS)

    def position_of(self, doc_id: str) -> int:
        position = self.doc_ids.id_of(doc_id)
        if position is None:
            raise CorpusError(f"unknown document id: {doc_id!r}")
        return position

    def dated_order(self) -> tuple[int, ...]:
        """Positions of dated documents sorted by (midpoint, doc_id)."""
        return self._dated_positions

    @cached_property
    def _dated_positions(self) -> tuple[int, ...]:
        # by id in Python string order, then a stable sort by midpoint
        dated = sorted(np.flatnonzero(self.doc_dated).tolist(), key=self.doc_ids.entries.__getitem__)
        by_id = np.array(dated, dtype=np.int64)
        return tuple(by_id[np.argsort(self.doc_mids[by_id], kind="stable")].tolist())

    def doc_mask(self, docset: np.ndarray | None) -> np.ndarray:
        """A docset as a boolean mask over document positions: every document
        for None, else ``docset`` itself, which must be such a mask."""
        n_docs = len(self)
        if docset is None:
            return np.ones(n_docs, dtype=bool)
        if not (isinstance(docset, np.ndarray) and docset.dtype == bool):
            what = f"{docset.dtype} array" if isinstance(docset, np.ndarray) else type(docset).__name__
            raise CorpusError(f"a docset is None or a boolean mask over the documents, not {what}")
        if docset.shape != (n_docs,):
            raise CorpusError(f"document mask of shape {docset.shape} for {n_docs} documents")
        return docset

    def doc_positions(self, docset: np.ndarray | None) -> np.ndarray:
        """Sorted document positions of a docset."""
        return np.flatnonzero(self.doc_mask(docset))

    def token_mask(self, docset: np.ndarray | None) -> np.ndarray | None:
        """Boolean mask over the tokens of a docset; None when it holds every document."""
        dmask = self.doc_mask(docset)
        if dmask.all():
            return None
        return np.repeat(dmask, np.diff(self.doc_starts))


def _int64_column(values: Sequence[int] | np.ndarray, name: str) -> np.ndarray:
    """``values`` as an int64 array, or a :class:`CorpusError` naming the
    column when the cast would change a value.  An array must have an integer
    dtype whose values int64 holds; each item of a sequence must equal its
    int64 value, and a Python int beyond int64 raises OverflowError."""
    if isinstance(values, np.ndarray) and values.dtype.kind != "O":
        exact = not values.size or np.can_cast(values.dtype, np.int64) or (
            values.dtype == np.uint64 and int(values.max()) < 2**63
        )
        col = values.astype(np.int64, copy=False) if exact else values
    else:
        try:
            col = np.asarray(values, dtype=np.int64)
        except ValueError:  # a NaN, or a string that is not an int
            col = None
        exact = col is not None and col.tolist() == list(values)
    if not exact:
        raise CorpusError(f"{name} holds values that do not convert to int64 exactly")
    return col


def _check_ids(ids: np.ndarray, size: int, what: str) -> None:
    if ids.dtype.kind not in "iu":
        raise CorpusError(f"{what} ids must be integers")
    if len(ids) == 0:
        return
    hi = int(ids.max())
    lo = int(ids.min()) if ids.dtype.kind == "i" else 0
    if lo < 0 or hi >= size:
        raise _IdOutOfRange(f"{what} id {hi if hi >= size else lo} out of range (vocabulary size {size})")


# a document filter: a function of the index returning a boolean mask over its documents
DocFilter = Callable[[CorpusIndex], np.ndarray]


def subcorpus(index: CorpusIndex, *filters: DocFilter) -> np.ndarray:
    """The documents every filter keeps, as a new writable boolean mask over
    document positions; every document when given no filter.

    A filter is a function of the index that returns a boolean mask over its
    documents; any other result raises :class:`CorpusError`.
    """
    mask = np.ones(len(index), dtype=bool)
    for keep in filters:
        got = keep(index)
        if not (isinstance(got, np.ndarray) and got.dtype == bool):
            raise CorpusError(f"a document filter returned {type(got).__name__}, not a boolean mask")
        mask &= index.doc_mask(got)
    return mask


def dated_within(lo: int, hi: int) -> DocFilter:
    """Filter: the document's date midpoint lies in [lo, hi] (undated never
    matches).  A reversed range, lo > hi, is a :class:`CorpusError`."""
    if lo > hi:
        raise CorpusError(f"reversed date range: {lo}..{hi}")
    return lambda index: index.doc_dated & (index.doc_mids >= lo) & (index.doc_mids <= hi)


def has_typology(tag: str) -> DocFilter:
    """Filter: the document carries typology ``tag`` (none does when the index
    lacks it).  An empty tag, which is stored as no tag, is a :class:`CorpusError`."""
    if not tag:
        raise CorpusError("empty typology tag")

    def keep(index: CorpusIndex) -> np.ndarray:
        ident = index.typologies.id_of(tag)
        return np.zeros(len(index), dtype=bool) if ident is None else index.doc_typology == ident

    return keep


def is_dated(index: CorpusIndex) -> np.ndarray:
    """Filter: the document is dated."""
    return index.doc_dated


def with_ids(*doc_ids: str) -> DocFilter:
    """Filter: the document's id is one of ``doc_ids``.  An unknown id, or an
    argument that is not an id string (such as one collection of ids), is a :class:`CorpusError`."""
    for doc_id in doc_ids:
        if not isinstance(doc_id, str):
            raise CorpusError(f"with_ids takes document id strings, not {type(doc_id).__name__}")
    return lambda index: np.isin(np.arange(len(index)), [index.position_of(d) for d in doc_ids])
