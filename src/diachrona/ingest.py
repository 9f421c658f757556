"""Ingestion: vertical-file parsing and a plain-text fallback path.

The primary input is tagger-style vertical text, one token per line with
tab-separated form / POS / lemma columns.  ``#doc`` header lines open a new
document and carry space-separated key=value pairs (``id`` required,
``date`` and ``typology`` optional).  The fallback path tokenizes raw text
and lemmatizes through a lookup lexicon.

Both paths give each distinct token line (or record) a type id at its first
token, and hand ``_index`` the types in id order, one type id per token and
one head per document.  ``_index`` interns each type's three strings once,
so a vertical line seen before costs one dict lookup and one append.

Ingestion fails loud: wrong column counts, empty forms, missing or reused
ids (the implicit ``doc0`` included), repeated header keys and malformed
dates raise :class:`VerticalParseError` with the offending line number.
Token lines whose POS tag is in the drop set (punctuation by default) are
not emitted as positions, so window distances downstream are measured on
the retained word stream.
"""

from __future__ import annotations

import re
from array import array
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .corpus import CorpusError, CorpusIndex, DateSpec, Vocabulary, _require_collection, _typology_column

__all__ = [
    "UNKNOWN_LEMMA",
    "UNKNOWN_POS",
    "DEFAULT_DROP_POS",
    "VerticalParseError",
    "VerticalRecord",
    "Lexicon",
    "parse_vertical",
    "tokenize_plain",
    "lemmatize",
    "index_from_documents",
]

UNKNOWN_LEMMA = "<unknown>"
UNKNOWN_POS = "<unk>"
DEFAULT_DROP_POS = frozenset({"PUN", "SENT"})

_DATE_RE = re.compile(r"^(\d{1,6})(?:-(\d{1,6}))?$")
_WORD_RE = re.compile(r"[^\W\d_]+")


class VerticalParseError(CorpusError):
    """Raised for malformed vertical input; message carries the line number."""

    def __init__(self, line_no: int, message: str) -> None:
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class VerticalRecord(NamedTuple):
    form: str
    pos: str
    lemma: str


@dataclass
class Lexicon:
    """Case-folded form -> (lemma, POS) lookup for the plain-text path.

    Lookups that miss fall back to lemma = form, POS = ``<unk>``.
    """

    mapping: dict[str, tuple[str, str]] = field(default_factory=dict)

    def add(self, form: str, lemma: str, pos: str) -> None:
        self.mapping[form.casefold()] = (lemma, pos)

    def lookup(self, form: str) -> tuple[str, str]:
        hit = self.mapping.get(form.casefold())
        if hit is None:
            return form, UNKNOWN_POS
        return hit

    @classmethod
    def from_tsv(cls, lines: Iterable[str] | str) -> "Lexicon":
        """Build from tab-separated lines: form, lemma, POS."""
        if isinstance(lines, str):
            lines = lines.splitlines()
        lex = cls()
        for line_no, line in enumerate(lines, start=1):
            line = line.rstrip("\n")
            if not line.strip():
                continue
            cols = line.split("\t")
            if len(cols) != 3:
                raise VerticalParseError(line_no, f"lexicon line has {len(cols)} columns, expected 3")
            lex.add(cols[0], cols[1], cols[2])
        return lex


_Head = tuple[str, DateSpec, str | None, int]


def _index(heads: list[_Head], types: Iterable[Sequence[str]], token_types: array) -> CorpusIndex:
    """Intern ``types``, (form, POS, lemma) records in type id order, into an
    index whose tokens have the type ids ``token_types``.

    Each vocabulary is a plain dict with dense ids.  A string's first token is
    its type's first token, so interning in type order keeps first-seen order.
    Each token column is a gather of a per-type id table, and ``heads``,
    (doc_id, date, typology, first_token) tuples, become the document columns.
    A record item, document id or typology that is not a string (a typology
    may also be None) raises :class:`CorpusError`.
    """
    lemmas: dict[str, int] = {}
    forms: dict[str, int] = {}
    tags: dict[str, int] = {}
    lemma_of, form_of, pos_of = array("I"), array("I"), array("I")
    for form, pos, lemma in types:
        form_of.append(forms.setdefault(form, len(forms)))
        pos_of.append(tags.setdefault(pos, len(tags)))
        lemma_of.append(lemmas.setdefault(lemma, len(lemmas)))
    token_ids = np.asarray(token_types)  # a uint32 view
    ids, dates, typologies, starts = zip(*heads) if heads else [()] * 4
    # every string the index file stores, each checked once, not per token
    for value in (*lemmas, *forms, *tags, *ids, *(t for t in typologies if t is not None)):
        if not isinstance(value, str):
            raise CorpusError(f"record items, document ids and typologies must be strings, not {value!r}")
    return CorpusIndex(
        Vocabulary(lemmas),
        Vocabulary(forms),
        Vocabulary(tags),
        np.asarray(lemma_of, dtype=np.uint32)[token_ids],
        np.asarray(form_of, dtype=np.uint32)[token_ids],
        np.asarray(pos_of, dtype=np.uint16)[token_ids],
        ids,
        [*starts, len(token_ids)],
        [date.kind for date in dates],
        [date.lo or 0 for date in dates],
        [date.hi or 0 for date in dates],
        *_typology_column(typologies),
    )


def _parse_header(line: str, line_no: int) -> tuple[str, DateSpec, str | None]:
    fields: dict[str, str] = {}
    for chunk in line[len("#doc"):].split():
        if "=" not in chunk:
            raise VerticalParseError(line_no, f"malformed header field {chunk!r} (expected key=value)")
        key, _, value = chunk.partition("=")
        if key in fields:
            raise VerticalParseError(line_no, f"repeated header key {key!r}")
        fields[key] = value
    doc_id = fields.get("id")
    if not doc_id:
        raise VerticalParseError(line_no, "document header missing id")
    date = DateSpec.undated()
    if "date" in fields:
        m = _DATE_RE.match(fields["date"])
        if m is None:
            raise VerticalParseError(line_no, f"invalid date syntax: {fields['date']!r}")
        lo = int(m.group(1))
        hi = int(m.group(2)) if m.group(2) is not None else lo
        if lo > hi:
            raise VerticalParseError(line_no, f"date interval reversed: {fields['date']!r}")
        date = DateSpec.year_range(lo, hi)
    return doc_id, date, fields.get("typology")


def parse_vertical(
    lines: Iterable[str] | str,
    drop_pos: frozenset[str] | set[str] = DEFAULT_DROP_POS,
) -> CorpusIndex:
    """Parse vertical text into a :class:`CorpusIndex`.

    ``lines`` is a line iterable (an open file works) or a single string.
    Tokens appearing before any ``#doc`` header go into an implicit
    undated document named ``doc0``.
    """
    _require_collection(drop_pos, "drop_pos")
    if isinstance(lines, str):
        lines = lines.splitlines()
    heads: list[_Head] = []
    seen: set[str] = set()
    types: dict[str, int] = {}  # raw token line -> type id; -1 for a blank or dropped line
    n_types, token_types = 0, array("I")
    for line_no, raw in enumerate(lines, start=1):
        type_id = types.get(raw)
        if type_id is None:
            line = raw.rstrip("\n").rstrip("\r")
            if line.startswith("#doc"):
                doc_id, date, typology = _parse_header(line, line_no)
                if doc_id in seen:
                    raise VerticalParseError(line_no, f"duplicate document id: {doc_id!r}")
                seen.add(doc_id)
                heads.append((doc_id, date, typology, len(token_types)))
                continue
            type_id = -1
            if line.strip():
                cols = line.split("\t")
                if len(cols) != 3:
                    raise VerticalParseError(line_no, f"token line has {len(cols)} columns, expected 3")
                if not cols[0]:
                    raise VerticalParseError(line_no, "empty form column")
                if cols[1] not in drop_pos:
                    type_id, n_types = n_types, n_types + 1
                    if not heads:  # the first token is always on a line not seen before
                        seen.add("doc0")
                        heads.append(("doc0", DateSpec.undated(), None, 0))
            types[raw] = type_id
        if type_id >= 0:
            token_types.append(type_id)
    kept = (raw.rstrip("\n").rstrip("\r").split("\t") for raw, t in types.items() if t >= 0)
    return _index(heads, kept, token_types)


def tokenize_plain(text: str) -> list[str]:
    """Maximal runs of Unicode letters; everything else separates tokens."""
    return _WORD_RE.findall(text)


def lemmatize(forms: Sequence[str], lex: Lexicon) -> list[VerticalRecord]:
    """Map each form through the lexicon (case-folded); misses keep the form."""
    records = []
    for form in forms:
        lemma, pos = lex.lookup(form)
        records.append(VerticalRecord(form, pos, lemma))
    return records


def index_from_documents(
    docs: Iterable[tuple[str, DateSpec, str | None, Sequence[VerticalRecord | tuple[str, str, str]]]],
) -> CorpusIndex:
    """Assemble an index from (doc_id, date, typology, records) tuples; a record
    is any sequence of three strings (form, POS, lemma).  The document id is a
    string and the typology a string or None; any other value raises
    :class:`CorpusError`."""
    heads: list[_Head] = []
    types: dict[tuple[str, ...], int] = {}
    token_types = array("I")
    for doc_id, date, typology, records in docs:
        heads.append((doc_id, date, typology, len(token_types)))
        token_types.extend(types.setdefault(tuple(record), len(types)) for record in records)
    return _index(heads, types, token_types)
