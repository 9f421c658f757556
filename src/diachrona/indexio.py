"""Binary persistence for :class:`~diachrona.corpus.CorpusIndex`.

Format version 2, written by :func:`save_index`; all integers little-endian:

    magic "CSEM"
    version            u32
    section table      18 entries of (offset u64, byte length u64, CRC32 u32)
    sections           in table order, each starting at the first 8-byte
                       boundary at or after the end of the one before, the
                       bytes between them zero; the file ends with the last

The sections, in order:

    for each string table (lemmas, forms, POS tags, document ids, typology tags):
      text             the entries concatenated, as UTF-8
      offsets          u64 x (count + 1): character offsets into the decoded
                       text, from 0 to its length; entry i is text[o[i]:o[i+1]]
    lemma_ids          u32 x N
    form_ids           u32 x N
    pos_ids            u16 x N
    doc_starts         i64 x (documents + 1): token offsets from 0 to N
    doc_kind           u8 per document (0 undated, 1 exact, 2 range)
    doc_lo, doc_hi     i32 per document (0 when undated)
    doc_typology       i32 per document: an id into the typology tags, -1 none

A section's CRC32 is zlib's, over its bytes.  Saving is deterministic: the
same index always produces byte-identical files, and it checks no year: an
index holds only years that fit ``i32``.  Saving writes a temporary file
beside the target and renames it over the target, so a failed or
interrupted save leaves any earlier file there intact (a killed process
can leave the temporary file behind).

Loading reads the file once into a read-only buffer and takes each column
as a view of it.  It checks each section before use: that it lies inside the
file, starts where the layout puts it and holds whole items, and that its
CRC32 matches; then that each string table's text is UTF-8 and its offsets
rise from 0 to the text's length, raising a distinct error for each failure
mode.  The stored columns and tables go to the index as they are, and the
index checks them itself: every id against its table, the typology ids and
tags (numbered in first-seen document order, each used, none empty), and the
document table.  The lemma, POS, document id and typology tables are split
into their entries at load, and repeats in them are rejected there.  The
forms table is kept as its decoded text and offsets
(:meth:`Vocabulary.from_text`): no query looks a form up by its string, and
a form share reads only the forms its hits carry, so the forms are split,
and a repeated form reported, on their first use.

Format version 1 is read, never written.  Its strings are length-prefixed
UTF-8 (byte length u32, then the bytes) and it holds no checksum:

    magic "CSEM", version u32
    lemma, form and POS vocabularies: count u32, then the strings
    token count N u64, then lemma ids u32 x N, form ids u32 x N, POS ids u16 x N
    document count u32, then per document: id (string), date kind u8, lo i32,
    hi i32, typology (string, empty = none), token start u64, token length u32
"""

from __future__ import annotations

import os
import struct
import zlib

import numpy as np

from .corpus import CorpusError, CorpusIndex, Vocabulary, _IdOutOfRange, _split, _typology_column

__all__ = [
    "MAGIC",
    "FORMAT_VERSION",
    "IndexFormatError",
    "BadMagicError",
    "UnsupportedVersionError",
    "TruncatedFileError",
    "IdRangeError",
    "ChecksumError",
    "SectionLayoutError",
    "StringTableError",
    "save_index",
    "load_index",
]

MAGIC = b"CSEM"
FORMAT_VERSION = 2

_ALIGN = 8
_STRING_TABLES = ("lemmas", "forms", "pos_tags", "doc_ids", "typologies")
# (index attribute, stored dtype) of each column
_COLUMNS = (
    ("lemma_ids", "<u4"),
    ("form_ids", "<u4"),
    ("pos_ids", "<u2"),
    ("doc_starts", "<i8"),
    ("doc_kind", "<u1"),
    ("doc_lo", "<i4"),
    ("doc_hi", "<i4"),
    ("doc_typology", "<i4"),
)
# (name, dtype) of each section of a version 2 file, in file order
_SECTIONS = (
    *((f"{table} {part}", dtype)
      for table in _STRING_TABLES for part, dtype in (("text", "u1"), ("offsets", "<u8"))),
    *_COLUMNS,
)
_ENTRY = "QQI"  # offset, byte length, CRC32
_HEADER_SIZE = len(MAGIC) + 4 + struct.calcsize("<" + _ENTRY * len(_SECTIONS))


class IndexFormatError(CorpusError):
    """Base error for malformed index files."""


class BadMagicError(IndexFormatError):
    pass


class UnsupportedVersionError(IndexFormatError):
    pass


class TruncatedFileError(IndexFormatError):
    pass


class IdRangeError(IndexFormatError):
    """A stored token or typology id lies outside its table."""


class ChecksumError(IndexFormatError):
    """A section's bytes do not match its stored CRC32."""


class SectionLayoutError(IndexFormatError):
    """A section is misaligned, overlaps the bytes before it, leaves a gap or
    nonzero padding, or does not hold a whole number of items."""


class StringTableError(IndexFormatError):
    """A string table's offsets do not rise from 0 to the length of its text."""


def save_index(index: CorpusIndex, path: str | os.PathLike) -> None:
    """Write ``index`` to ``path`` in format version 2.

    The token columns are written, and their checksums taken, straight from
    the index's arrays, so saving holds no copy of them.  The file is
    written under a temporary name in the same directory and renamed over
    ``path`` once complete; a save that fails removes it.
    """
    sections = []
    for table in _STRING_TABLES:
        sections += _string_table(getattr(index, table).entries)
    sections += [getattr(index, name).astype(dtype, copy=False) for name, dtype in _COLUMNS]
    entries, layout = [], []
    end = _HEADER_SIZE
    for data in sections:
        size = memoryview(data).nbytes
        offset = end + -end % _ALIGN
        entries += [offset, size, zlib.crc32(data)]
        layout.append((offset - end, data))
        end = offset + size
    path = os.fspath(path)
    tmp = f"{path}.{os.urandom(4).hex()}.tmp"
    fh = open(tmp, "xb")
    try:
        with fh:
            fh.write(MAGIC + struct.pack("<I" + _ENTRY * len(sections), FORMAT_VERSION, *entries))
            for padding, data in layout:
                fh.write(bytes(padding))
                fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def load_index(path: str | os.PathLike) -> CorpusIndex:
    """Read an index written by :func:`save_index`, in format version 2 or 1.

    Every malformed file raises an :class:`IndexFormatError`.  Tables the
    index itself rejects (a repeated lemma, POS tag or document id,
    documents that do not cover the tokens, an invalid date, typology tags
    out of first-seen order, unused or empty) raise the base class with the
    index's message, except token or typology ids outside their table, which
    raise :class:`IdRangeError`.  A repeated form is reported by the first
    use of the forms table, as a :class:`CorpusError`.
    """
    # read into a numpy buffer, not bytes: numpy asks the kernel for huge
    # pages for a large buffer, so the read takes about half as long and the
    # columns that view it sit on huge pages
    image = np.fromfile(path, np.uint8)
    image.flags.writeable = False
    cur = _Cursor(memoryview(image))
    try:
        cur.skip(4)
        if cur.data[:4] != MAGIC:
            raise BadMagicError(f"bad magic: {bytes(cur.data[:4])!r}")
        version = cur.unpack("<I")[0]
        if version == FORMAT_VERSION:
            return _read_v2(cur)
        if version == 1:
            return _read_v1(cur)
        raise UnsupportedVersionError(f"unsupported format version: {version}")
    except IndexFormatError:
        raise
    except _IdOutOfRange as exc:
        raise IdRangeError(str(exc)) from None
    except CorpusError as exc:
        raise IndexFormatError(f"corrupt index: {exc}") from None


def _string_table(entries: list[str]) -> list:
    """The text and offsets sections of one string table."""
    offsets = np.zeros(len(entries) + 1, "<u8")
    np.cumsum(np.fromiter(map(len, entries), "<u8", len(entries)), out=offsets[1:])
    return ["".join(entries).encode("utf-8"), offsets]


def _read_v2(cur: "_Cursor") -> CorpusIndex:
    buf = cur.data
    entries = cur.unpack("<" + _ENTRY * len(_SECTIONS))
    end = cur.at
    sections = {}
    for i, (name, dtype) in enumerate(_SECTIONS):
        offset, size, crc = entries[3 * i : 3 * i + 3]
        if offset + size > len(buf):
            raise TruncatedFileError(f"section {name} ends at byte {offset + size}, file has {len(buf)}")
        if offset % _ALIGN:
            raise SectionLayoutError(f"section {name} starts at byte {offset}, not on an 8-byte boundary")
        if offset < end:
            raise SectionLayoutError(f"section {name} starts at byte {offset}, inside the bytes before it")
        if offset - end >= _ALIGN or any(buf[end:offset]):
            raise SectionLayoutError(f"section {name} starts at byte {offset}, after more than zero padding")
        itemsize = np.dtype(dtype).itemsize
        if size % itemsize:
            raise SectionLayoutError(f"section {name} holds {size} bytes, not whole {itemsize}-byte items")
        if zlib.crc32(buf[offset : offset + size]) != crc:
            raise ChecksumError(f"section {name} fails its CRC32 check")
        sections[name] = np.frombuffer(buf, dtype, size // itemsize, offset)
        end = offset + size
    if end != len(buf):
        raise IndexFormatError("trailing bytes after the last section")
    lemmas, forms, pos_tags, doc_ids, typologies = (_strings(sections, table) for table in _STRING_TABLES)
    # the forms alone are split on their first use (see the module docstring)
    lemmas, pos_tags, typologies = (Vocabulary(_split(*table)) for table in (lemmas, pos_tags, typologies))
    forms = Vocabulary.from_text(*forms, what="form in the index file")
    columns = [sections[name] for name, _ in _COLUMNS]  # the three token columns, then the document columns
    # the index checks every id column against its table itself, once
    return CorpusIndex(lemmas, forms, pos_tags, *columns[:3], _split(*doc_ids), *columns[3:], typologies)


def _strings(sections: dict, table: str) -> tuple[str, np.ndarray]:
    """The decoded text and the checked offsets of one string table."""
    offsets = sections[f"{table} offsets"]
    try:
        text = str(sections[f"{table} text"], "utf-8")
    except UnicodeDecodeError as exc:
        raise StringTableError(f"{table} text is not valid UTF-8 ({exc.reason})") from None
    if not len(offsets) or offsets[0] or offsets[-1] != len(text) or (offsets[1:] < offsets[:-1]).any():
        raise StringTableError(f"{table} offsets do not rise from 0 to the text length {len(text)}")
    return text, offsets


def _read_v1(cur: "_Cursor") -> CorpusIndex:
    lemmas, forms, pos_tags = (
        Vocabulary(cur.string() for _ in range(cur.unpack("<I")[0])) for _ in range(3)
    )
    n = cur.unpack("<Q")[0]
    lemma_ids = cur.array("<u4", n)
    form_ids = cur.array("<u4", n)
    pos_ids = cur.array("<u2", n)
    # per document: id, date kind, lo, hi, typology, token start, token length
    docs = [
        (cur.string(), *cur.unpack("<Bii"), cur.string(), *cur.unpack("<QI"))
        for _ in range(cur.unpack("<I")[0])
    ]
    if cur.at != len(cur.data):
        raise IndexFormatError("trailing bytes after document table")
    ids, kinds, los, his, tags, starts, lengths = zip(*docs) if docs else [()] * 7
    doc_starts = np.concatenate(([0], np.cumsum(lengths, dtype=np.int64)))
    if not np.array_equal(starts, doc_starts[:-1]):
        raise IndexFormatError("stored document starts disagree with the document lengths")
    return CorpusIndex(
        lemmas, forms, pos_tags, lemma_ids, form_ids, pos_ids, ids, doc_starts, kinds, los, his,
        *_typology_column(tags),
    )


class _Cursor:
    """Parses a file image at a moving offset.  Every read checks its length
    against the image first, so a corrupt count field raises
    TruncatedFileError instead of attempting a huge allocation."""

    def __init__(self, data: memoryview) -> None:
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
            return str(self.data[start : start + size], "utf-8")
        except UnicodeDecodeError as exc:
            raise IndexFormatError(f"stored string is not valid UTF-8 ({exc.reason})") from None

    def array(self, dtype: str, count: int) -> np.ndarray:
        start = self.skip(count * np.dtype(dtype).itemsize)
        return np.frombuffer(self.data, dtype, count, start).copy()
