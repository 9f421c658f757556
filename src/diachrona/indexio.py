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
files, and it checks no year: an index holds only years that fit ``i32``.
Loading reads the file once and parses it at offsets; it validates
magic, version, completeness and id ranges, raising a distinct error for
each failure mode, and the index checks the document table it is given.
"""

from __future__ import annotations

import os
import struct

import numpy as np

from .corpus import CorpusError, CorpusIndex, Vocabulary

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

    The token columns are written straight from the index's arrays, so
    saving holds no copy of them.
    """
    header = [MAGIC, struct.pack("<I", FORMAT_VERSION)]
    header += [_pack_vocab(vocab) for vocab in (index.lemmas, index.forms, index.pos_tags)]
    header.append(struct.pack("<Q", index.total_tokens))
    docs = [struct.pack("<I", len(index))]
    starts = index.doc_starts.tolist()
    dates = zip(index.doc_kind.tolist(), index.doc_lo.tolist(), index.doc_hi.tolist())
    tags = map([*index.typologies, ""].__getitem__, index.doc_typology.tolist())
    for doc_id, (kind, lo, hi), typology, start, end in zip(index.doc_ids, dates, tags, starts, starts[1:]):
        docs.append(_pack_str(doc_id))
        docs.append(struct.pack("<Bii", kind, lo, hi))
        docs.append(_pack_str(typology))
        docs.append(struct.pack("<QI", start, end - start))
    with open(path, "wb") as fh:
        fh.write(b"".join(header))
        fh.write(index.lemma_ids.astype("<u4", copy=False))
        fh.write(index.form_ids.astype("<u4", copy=False))
        fh.write(index.pos_ids.astype("<u2", copy=False))
        fh.write(b"".join(docs))


def load_index(path: str | os.PathLike) -> CorpusIndex:
    """Read an index written by :func:`save_index`.

    Every malformed file raises an :class:`IndexFormatError`.  Tables the
    index itself rejects (a repeated vocabulary entry or document id,
    documents that do not cover the tokens, an invalid date) raise the base
    class with the index's message.
    """
    with open(path, "rb") as fh:
        buf = fh.read()
    try:
        return _read_index(_Cursor(buf))
    except IndexFormatError:
        raise
    except CorpusError as exc:
        raise IndexFormatError(f"corrupt index: {exc}") from None


def _read_index(cur: "_Cursor") -> CorpusIndex:
    cur.skip(4)
    if cur.data[:4] != MAGIC:
        raise BadMagicError(f"bad magic: {cur.data[:4]!r}")
    version = cur.unpack("<I")[0]
    if version != FORMAT_VERSION:
        raise UnsupportedVersionError(f"unsupported format version: {version}")
    lemmas, forms, pos_tags = (
        Vocabulary(cur.string() for _ in range(cur.unpack("<I")[0])) for _ in range(3)
    )
    n = cur.unpack("<Q")[0]
    lemma_ids = cur.array("<u4", n)
    form_ids = cur.array("<u4", n)
    pos_ids = cur.array("<u2", n)
    _check_range(lemma_ids, len(lemmas), "lemma")
    _check_range(form_ids, len(forms), "form")
    _check_range(pos_ids, len(pos_tags), "POS")
    # per document: id, date kind, lo, hi, typology, token start, token length
    docs = [
        (cur.string(), *cur.unpack("<Bii"), cur.string(), *cur.unpack("<QI"))
        for _ in range(cur.unpack("<I")[0])
    ]
    if cur.at != len(cur.data):
        raise IndexFormatError("trailing bytes after document table")
    ids, kinds, los, his, typologies, starts, lengths = zip(*docs) if docs else [()] * 7
    doc_starts = np.concatenate(([0], np.cumsum(lengths, dtype=np.int64)))
    if not np.array_equal(starts, doc_starts[:-1]):
        raise IndexFormatError("stored document starts disagree with the document lengths")
    return CorpusIndex(
        lemmas, forms, pos_tags, lemma_ids, form_ids, pos_ids, ids, doc_starts, kinds, los, his, typologies
    )


class _Cursor:
    """Parses a file image at a moving offset.  Every read checks its length
    against the image first, so a corrupt count field raises
    TruncatedFileError instead of attempting a huge allocation."""

    def __init__(self, data: bytes) -> None:
        self.data = data
        self.at = 0

    def skip(self, size: int) -> int:
        """Advance past ``size`` bytes; return the offset they start at."""
        start = self.at
        if start + size > len(self.data):
            raise TruncatedFileError(
                f"expected {size} bytes at offset {start}, file has {len(self.data)}"
            )
        self.at = start + size
        return start

    def unpack(self, fmt: str) -> tuple:
        return struct.unpack_from(fmt, self.data, self.skip(struct.calcsize(fmt)))

    def string(self) -> str:
        size = self.unpack("<I")[0]
        start = self.skip(size)
        try:
            return self.data[start : start + size].decode("utf-8")
        except UnicodeDecodeError as exc:
            raise IndexFormatError(f"stored string is not valid UTF-8 ({exc.reason})") from None

    def array(self, dtype: str, count: int) -> np.ndarray:
        start = self.skip(count * np.dtype(dtype).itemsize)
        return np.frombuffer(self.data, dtype, count, start).copy()


def _pack_str(s: str) -> bytes:
    raw = s.encode("utf-8")
    return struct.pack("<I", len(raw)) + raw


def _pack_vocab(vocab: Vocabulary) -> bytes:
    parts = [struct.pack("<I", len(vocab))]
    for entry in vocab:
        parts.append(_pack_str(entry))
    return b"".join(parts)


def _check_range(ids: np.ndarray, size: int, what: str) -> None:
    if len(ids) and int(ids.max()) >= size:
        raise IdRangeError(f"{what} id {int(ids.max())} out of range (vocabulary size {size})")
