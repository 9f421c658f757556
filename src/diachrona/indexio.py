"""Binary persistence for :class:`~diachrona.corpus.CorpusIndex`.

Format version 1, all integers little-endian, strings length-prefixed UTF-8:

    magic "CSEM"
    version            u32
    lemma vocabulary   count u32, then per entry: byte length u32 + bytes
    form vocabulary    same layout
    POS vocabulary     same layout
    token count N      u64
    lemma ids          u32 x N
    form ids           u32 x N
    POS ids            u16 x N
    document count     u32
    per document:      doc_id (u32 length + bytes), date kind u8
                       (0 undated, 1 exact, 2 range), lo i32, hi i32,
                       typology (u32 length + bytes, empty = none),
                       token_start u64, token_len u32

Saving is deterministic: the same index always produces byte-identical
files.  Loading validates magic, version, completeness, and id ranges,
raising a distinct error for each failure mode.
"""

from __future__ import annotations

import os
import struct
from typing import BinaryIO

import numpy as np

from .corpus import CorpusError, CorpusIndex, DateKind, DateSpec, Document, Vocabulary

__all__ = [
    "MAGIC",
    "FORMAT_VERSION",
    "IndexFormatError",
    "BadMagicError",
    "UnsupportedVersionError",
    "TruncatedFileError",
    "IdRangeError",
    "save_index",
    "load_index",
]

MAGIC = b"CSEM"
FORMAT_VERSION = 1
_I32_MIN, _I32_MAX = -(2**31), 2**31 - 1


class IndexFormatError(CorpusError):
    """Base error for malformed index files."""


class BadMagicError(IndexFormatError):
    pass


class UnsupportedVersionError(IndexFormatError):
    pass


class TruncatedFileError(IndexFormatError):
    pass


class IdRangeError(IndexFormatError):
    """A stored token id exceeds its vocabulary size."""


def save_index(index: CorpusIndex, path: str | os.PathLike) -> None:
    """Write ``index`` to ``path`` in format version 1.

    A date year outside the stored int32 range raises :class:`CorpusError`
    before the file is opened.
    """
    parts: list[bytes] = [MAGIC, struct.pack("<I", FORMAT_VERSION)]
    for vocab in (index.lemmas, index.forms, index.pos_tags):
        parts.append(_pack_vocab(vocab))
    n = index.total_tokens
    parts.append(struct.pack("<Q", n))
    parts.append(index.lemma_ids.astype("<u4", copy=False).tobytes())
    parts.append(index.form_ids.astype("<u4", copy=False).tobytes())
    parts.append(index.pos_ids.astype("<u2", copy=False).tobytes())
    parts.append(struct.pack("<I", len(index.documents)))
    for doc in index.documents:
        parts.append(_pack_str(doc.doc_id))
        lo = doc.date.lo if doc.date.lo is not None else 0
        hi = doc.date.hi if doc.date.hi is not None else 0
        if not (_I32_MIN <= lo <= _I32_MAX and _I32_MIN <= hi <= _I32_MAX):
            raise CorpusError(f"document {doc.doc_id!r}: date {lo}..{hi} is outside int32")
        parts.append(struct.pack("<Bii", int(doc.date.kind), lo, hi))
        parts.append(_pack_str(doc.typology or ""))
        parts.append(struct.pack("<QI", doc.token_start, doc.token_len))
    with open(path, "wb") as fh:
        fh.write(b"".join(parts))


def load_index(path: str | os.PathLike) -> CorpusIndex:
    """Read an index written by :func:`save_index`.

    Every malformed file raises an :class:`IndexFormatError`.  Tables the
    index itself rejects (a repeated vocabulary entry or document id,
    documents that do not cover the tokens, a reversed date range) raise
    the base class with the index's message.
    """
    with open(path, "rb") as raw:
        try:
            return _read_index(raw)
        except IndexFormatError:
            raise
        except CorpusError as exc:
            raise IndexFormatError(f"corrupt index: {exc}") from None


def _read_index(raw: BinaryIO) -> CorpusIndex:
    fh = _Reader(raw)
    magic = raw.read(4)
    if len(magic) < 4:
        raise TruncatedFileError("file shorter than magic")
    if magic != MAGIC:
        raise BadMagicError(f"bad magic: {magic!r}")
    version = _unpack(fh, "<I")[0]
    if version != FORMAT_VERSION:
        raise UnsupportedVersionError(f"unsupported format version: {version}")
    lemmas = _read_vocab(fh)
    forms = _read_vocab(fh)
    pos_tags = _read_vocab(fh)
    n = _unpack(fh, "<Q")[0]
    lemma_ids = _read_array(fh, "<u4", n)
    form_ids = _read_array(fh, "<u4", n)
    pos_ids = _read_array(fh, "<u2", n)
    _check_range(lemma_ids, len(lemmas), "lemma")
    _check_range(form_ids, len(forms), "form")
    _check_range(pos_ids, len(pos_tags), "POS")
    doc_count = _unpack(fh, "<I")[0]
    documents = []
    for _ in range(doc_count):
        doc_id = _read_str(fh)
        kind_byte, lo, hi = _unpack(fh, "<Bii")
        try:
            kind = DateKind(kind_byte)
        except ValueError:
            raise IndexFormatError(f"invalid date kind byte: {kind_byte}") from None
        if kind is DateKind.UNDATED:
            date = DateSpec.undated()
        elif kind is DateKind.EXACT:
            date = DateSpec.exact(lo)
        else:
            date = DateSpec(DateKind.RANGE, lo, hi)
        typology = _read_str(fh) or None
        token_start, token_len = _unpack(fh, "<QI")
        documents.append(Document(doc_id, date, typology, token_start, token_len))
    if fh.remaining():
        raise IndexFormatError("trailing bytes after document table")
    return CorpusIndex(lemmas, forms, pos_tags, lemma_ids, form_ids, pos_ids, documents)


class _Reader:
    """Exact-size reads with an up-front length check, so a corrupt count
    field raises TruncatedFileError instead of attempting a huge allocation."""

    def __init__(self, fh: BinaryIO) -> None:
        self._fh = fh
        self._size = os.fstat(fh.fileno()).st_size

    def read_exact(self, size: int) -> bytes:
        if self._fh.tell() + size > self._size:
            raise TruncatedFileError(
                f"expected {size} bytes at offset {self._fh.tell()}, file has {self._size}"
            )
        buf = self._fh.read(size)
        if len(buf) != size:
            raise TruncatedFileError(f"expected {size} bytes, got {len(buf)}")
        return buf

    def remaining(self) -> int:
        return self._size - self._fh.tell()


def _pack_str(s: str) -> bytes:
    raw = s.encode("utf-8")
    return struct.pack("<I", len(raw)) + raw


def _pack_vocab(vocab: Vocabulary) -> bytes:
    parts = [struct.pack("<I", len(vocab))]
    for entry in vocab:
        parts.append(_pack_str(entry))
    return b"".join(parts)


def _unpack(fh: "_Reader", fmt: str) -> tuple:
    return struct.unpack(fmt, fh.read_exact(struct.calcsize(fmt)))


def _read_str(fh: "_Reader") -> str:
    length = _unpack(fh, "<I")[0]
    try:
        return fh.read_exact(length).decode("utf-8")
    except UnicodeDecodeError as exc:
        raise IndexFormatError(f"stored string is not valid UTF-8 ({exc.reason})") from None


def _read_vocab(fh: "_Reader") -> Vocabulary:
    count = _unpack(fh, "<I")[0]
    return Vocabulary(_read_str(fh) for _ in range(count))


def _read_array(fh: "_Reader", dtype: str, count: int) -> np.ndarray:
    raw = fh.read_exact(count * np.dtype(dtype).itemsize)
    return np.frombuffer(raw, dtype=dtype).copy()


def _check_range(ids: np.ndarray, size: int, what: str) -> None:
    if len(ids) and int(ids.max()) >= size:
        raise IdRangeError(f"{what} id {int(ids.max())} out of range (vocabulary size {size})")
