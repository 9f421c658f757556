import hashlib
import importlib.resources
import struct
import tempfile
import tracemalloc
import zlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diachrona import indexio
from diachrona.corpus import CorpusError, CorpusIndex, DateSpec, Vocabulary
from diachrona.frequency import lemma_count
from diachrona.indexio import (
    MAGIC,
    BadMagicError,
    ChecksumError,
    IdRangeError,
    IndexFormatError,
    SectionLayoutError,
    StringTableError,
    TruncatedFileError,
    UnsupportedVersionError,
    load_index,
    save_index,
)
from diachrona.ingest import index_from_documents, parse_vertical
from diachrona.synth import synthetic_index

from conftest import (
    V2_HEADER,
    V2_NAMES,
    V2_SECTIONS,
    build_index,
    lemma_doc,
    random_index,
    save_v1,
    v2_entry,
    v2_set_entry,
    v2_set_section,
)


WRITERS = pytest.mark.parametrize("save", [save_index, save_v1], ids=["v2", "v1"])

@WRITERS
def test_empty_corpus_round_trips(tmp_path, save):
    index = parse_vertical("")
    path = tmp_path / "empty.csem"
    save(index, path)
    loaded = load_index(path)
    assert loaded == index
    assert loaded.total_tokens == 0
    assert len(loaded.documents) == 0


def test_two_doc_round_trip_and_byte_identical_resave(tmp_path):
    index = build_index(
        [
            ("d1", DateSpec.exact(856), "charter", [("patris", "NOM", "pater"), ("nostri", "ADJ", "noster")]),
            ("d2", DateSpec.year_range(900, 950), None, [("mater", "NOM", "mater")]),
        ]
    )
    first = tmp_path / "a.csem"
    second = tmp_path / "b.csem"
    save_index(index, first)
    loaded = load_index(first)
    assert loaded == index
    save_index(loaded, second)
    assert first.read_bytes() == second.read_bytes()


@WRITERS
def test_round_trip_preserves_all_date_kinds(tmp_path, save):
    index = build_index(
        [
            lemma_doc("u", DateSpec.undated(), ["a"]),
            lemma_doc("e", DateSpec.exact(800), ["b"]),
            lemma_doc("r", DateSpec.year_range(900, 990), ["c"], typology="charter"),
        ]
    )
    path = tmp_path / "dates.csem"
    save(index, path)
    loaded = load_index(path)
    assert [d.date for d in loaded.documents] == [d.date for d in index.documents]
    assert [d.typology for d in loaded.documents] == [None, None, "charter"]


@pytest.mark.parametrize(
    "date",
    [
        DateSpec.exact(2**31),
        DateSpec.exact(-(2**31) - 1),
        DateSpec.year_range(0, 2**31),
        DateSpec.year_range(-(2**31) - 1, 0),
    ],
    ids=["exact-high", "exact-low", "range-end", "range-start"],
)
def test_year_outside_int32_rejected_when_built(date):
    # the file stores years as i32, so an index that could not be saved is never built
    with pytest.raises(CorpusError, match=f"^document 'far': date {date.lo}..{date.hi} is outside int32$"):
        index_from_documents(
            [lemma_doc("ok", DateSpec.exact(2**31 - 1), ["x"]), lemma_doc("far", date, ["x"])]
        )


def test_save_holds_no_copy_of_the_token_columns(tmp_path):
    # the token columns go to the file, and through the CRC32, straight from
    # the index's arrays, so saving never holds the file's bytes in memory
    index = synthetic_index(1_000_000, 2_000, 500, seed=3)
    path = tmp_path / "big.csem"
    tracemalloc.start()
    try:
        save_index(index, path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    size = path.stat().st_size
    assert peak < size / 2, (peak, size)
    assert load_index(path) == index


def test_load_takes_the_token_columns_as_read_only_views_of_the_file(tmp_path):
    index = synthetic_index(10_000, 50, 20, seed=3)
    path = tmp_path / "x.csem"
    save_index(index, path)
    loaded = load_index(path)
    columns = [loaded.lemma_ids, loaded.form_ids, loaded.pos_ids, loaded.doc_starts]
    # each column views the one buffer the file was read into
    assert len({id(column.base.obj) for column in columns}) == 1
    assert not any(column.flags.owndata or column.flags.writeable for column in columns)


@pytest.mark.parametrize("error", [OSError(28, "No space left on device"), KeyboardInterrupt()])
def test_failed_save_leaves_the_earlier_index_intact(tmp_path, monkeypatch, error):
    path = tmp_path / "x.csem"
    save_index(build_index([lemma_doc("d", DateSpec.exact(800), ["a", "b"])]), path)
    before = path.read_bytes()

    class FailingFile:
        """A file whose third write fails, after the header is written."""

        def __init__(self, *args):
            self.fh = open(*args)
            self.writes = 0

        def write(self, data):
            self.writes += 1
            if self.writes == 3:
                raise error
            return self.fh.write(data)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

    monkeypatch.setattr(indexio, "open", FailingFile, raising=False)
    with pytest.raises(type(error)):
        save_index(synthetic_index(1_000, 20, 5, seed=1), path)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["x.csem"]


@WRITERS
def test_corrupted_magic(tmp_path, save):
    index = build_index([lemma_doc("d", DateSpec.undated(), ["a"])])
    path = tmp_path / "x.csem"
    save(index, path)
    raw = bytearray(path.read_bytes())
    raw[:4] = b"NOPE"
    path.write_bytes(bytes(raw))
    with pytest.raises(BadMagicError):
        load_index(path)


@WRITERS
def test_unsupported_version(tmp_path, save):
    index = build_index([lemma_doc("d", DateSpec.undated(), ["a"])])
    path = tmp_path / "x.csem"
    save(index, path)
    raw = bytearray(path.read_bytes())
    for version in (0, 3, 99):
        raw[4:8] = struct.pack("<I", version)
        path.write_bytes(bytes(raw))
        with pytest.raises(UnsupportedVersionError, match=f"^unsupported format version: {version}$"):
            load_index(path)


@WRITERS
def test_truncated_file(tmp_path, save):
    index = build_index([lemma_doc("d", DateSpec.exact(800), ["a", "b", "c"])])
    path = tmp_path / "x.csem"
    save(index, path)
    raw = path.read_bytes()
    for cut in (2, 10, len(raw) // 2, len(raw) - 1):
        path.write_bytes(raw[:cut])
        with pytest.raises(TruncatedFileError):
            load_index(path)


def test_id_out_of_vocabulary_range(tmp_path):
    # one token, one-lemma vocabulary: patch the stored lemma id to 7
    index = build_index([("d", DateSpec.undated(), None, [("a", "NOM", "a")])])
    path = tmp_path / "x.csem"
    save_v1(index, path)
    raw = bytearray(path.read_bytes())
    # layout: magic(4) version(4), vocabs "a"/"a"/"NOM" (9+9+11), N u64 (8)
    offset = 8 + 9 + 9 + 11 + 8
    raw[offset : offset + 4] = struct.pack("<I", 7)
    path.write_bytes(bytes(raw))
    with pytest.raises(IdRangeError):
        load_index(path)


def _patch_last_token_len(raw):
    return raw[:-4] + struct.pack("<I", 2)  # the last document holds 1 token


@pytest.mark.parametrize(
    "patch, message",
    [
        (lambda raw: raw.replace(b"aa", b"\xff\xfe", 1), "not valid UTF-8"),
        (lambda raw: raw.replace(b"bb", b"aa", 1), "duplicate vocabulary entry"),
        (lambda raw: raw.replace(b"docB", b"docA"), "duplicate document id"),
        (_patch_last_token_len, "documents cover 4 tokens"),
        (
            lambda raw: raw.replace(struct.pack("<Bii", 2, 900, 950), struct.pack("<Bii", 2, 950, 900)),
            "date interval reversed",
        ),
    ],
    ids=["invalid-utf8", "repeated-lemma", "repeated-doc-id", "token-len-overcovers", "reversed-range"],
)
def test_corrupt_tables_raise_index_format_error(tmp_path, patch, message):
    index = build_index(
        [
            lemma_doc("docA", DateSpec.exact(856), ["aa", "bb"]),
            lemma_doc("docB", DateSpec.year_range(900, 950), ["aa"]),
        ]
    )
    path = tmp_path / "x.csem"
    save_v1(index, path)
    raw = path.read_bytes()
    patched = patch(raw)
    assert len(patched) == len(raw) and patched != raw
    path.write_bytes(patched)
    with pytest.raises(IndexFormatError, match=message) as caught:
        load_index(path)
    assert "\n" not in str(caught.value)


@WRITERS
def test_empty_typology_survives_a_round_trip(tmp_path, save):
    index = parse_vertical("#doc id=a typology= date=900\nx\tNOM\tx\n")
    path = tmp_path / "x.csem"
    save(index, path)
    assert load_index(path) == index
    assert index.documents[0].typology is None


def _record(doc_id, kind, lo, hi, typology, start, length):
    """One document's bytes in a version 1 index file."""
    raw_id, raw_typology = doc_id.encode(), typology.encode()
    return (
        struct.pack("<I", len(raw_id)) + raw_id + struct.pack("<Bii", kind, lo, hi)
        + struct.pack("<I", len(raw_typology)) + raw_typology + struct.pack("<QI", start, length)
    )


_A = ("a", 1, 900, 900, "", 0, 1)
_B = ("b", 2, 950, 990, "charter", 1, 2)


@pytest.mark.parametrize(
    "old, new, error, message",
    [
        (
            struct.pack("<I", 2) + _record(*_A),
            struct.pack("<I", 3) + _record(*_A),
            TruncatedFileError,
            "expected",
        ),
        (_record(*_A), _record("a", 1, 900, 900, "", 1, 1), IndexFormatError, "starts disagree"),
        (_record(*_B), _record("b", 2, 950, 990, "charter", 0, 2), IndexFormatError, "starts disagree"),
        (_record(*_B), _record("b", 2, 950, 990, "charter", 1, 3), IndexFormatError, "cover 4 tokens"),
        (_record(*_A), _record("a", 3, 900, 900, "", 0, 1), IndexFormatError, "invalid date kind 3"),
        (_record(*_A), _record("a", 0, 900, 900, "", 0, 1), IndexFormatError, "undated, yet carries years"),
        (_record(*_A), _record("a", 1, 900, 901, "", 0, 1), IndexFormatError, "exact date spans 900..901"),
        (_record(*_B), _record("b", 2, 991, 990, "charter", 1, 2), IndexFormatError, "reversed: 991 > 990"),
        (_record(*_B), _record("a", 2, 950, 990, "charter", 1, 2), IndexFormatError, "duplicate document id"),
    ],
    ids=[
        "doc-count", "first-start", "start-before-previous-end", "cover", "kind-3",
        "undated-with-years", "exact-spans", "reversed-range", "duplicate-id",
    ],
)
def test_malformed_document_table_raises_one_line_index_format_error(tmp_path, old, new, error, message):
    index = build_index(
        [
            lemma_doc("a", DateSpec.exact(900), ["x"]),
            lemma_doc("b", DateSpec.year_range(950, 990), ["x", "y"], typology="charter"),
        ]
    )
    path = tmp_path / "x.csem"
    save_v1(index, path)
    raw = path.read_bytes()
    assert raw.count(old) == 1
    path.write_bytes(raw.replace(old, new))
    with pytest.raises(error, match=message) as caught:
        load_index(path)
    assert "\n" not in str(caught.value)


@WRITERS
def test_trailing_garbage_rejected(tmp_path, save):
    index = build_index([lemma_doc("d", DateSpec.undated(), ["a"])])
    path = tmp_path / "x.csem"
    save(index, path)
    path.write_bytes(path.read_bytes() + b"junk")
    with pytest.raises(IndexFormatError, match="^trailing bytes after"):
        load_index(path)


def test_format_layout_is_exactly_as_documented(tmp_path):
    # format version 1
    index = build_index([("d1", DateSpec.exact(856), "charter", [("ab", "NOM", "ab")])])
    path = tmp_path / "x.csem"
    save_v1(index, path)
    raw = path.read_bytes()
    assert raw[:4] == MAGIC
    assert struct.unpack_from("<I", raw, 4)[0] == 1
    # lemma vocabulary: count 1, entry "ab"
    assert struct.unpack_from("<I", raw, 8)[0] == 1
    assert struct.unpack_from("<I", raw, 12)[0] == 2
    assert raw[16:18] == b"ab"
    # forms and POS vocabularies follow, then u64 token count
    pos_voc_end = 18 + (4 + 4 + 2) + (4 + 4 + 3)  # forms "ab", pos "NOM"
    assert struct.unpack_from("<Q", raw, pos_voc_end)[0] == 1
    assert load_index(path) == index


def test_v2_format_layout_is_exactly_as_documented(tmp_path):
    index = build_index(
        [
            ("d1", DateSpec.exact(856), "charter", [("ab", "NOM", "ab"), ("pætris", "NOM", "pater")]),
            ("d2", DateSpec.year_range(900, 950), None, [("ab", "ADJ", "ab")]),
            ("d3", DateSpec.undated(), "letter", []),
        ]
    )
    path = tmp_path / "x.csem"
    save_index(index, path)
    raw = path.read_bytes()
    assert raw[:4] == MAGIC
    assert struct.unpack_from("<I", raw, 4)[0] == 2
    want = {
        "lemmas text": b"abpater", "lemmas offsets": [0, 2, 7],
        "forms text": "abpætris".encode(), "forms offsets": [0, 2, 8],  # character offsets
        "pos_tags text": b"NOMADJ", "pos_tags offsets": [0, 3, 6],
        "doc_ids text": b"d1d2d3", "doc_ids offsets": [0, 2, 4, 6],
        "typologies text": b"charterletter", "typologies offsets": [0, 7, 13],
        "lemma_ids": [0, 1, 0], "form_ids": [0, 1, 0], "pos_ids": [0, 0, 1],
        "doc_starts": [0, 2, 3, 3], "doc_kind": [1, 2, 0], "doc_lo": [856, 900, 0],
        "doc_hi": [856, 950, 0], "doc_typology": [0, -1, 1],
    }
    end = V2_HEADER
    for name, dtype in V2_SECTIONS:
        offset, size, crc = v2_entry(raw, name)
        # each section starts at the first 8-byte boundary at or after the
        # end of the one before, and the bytes between are zero
        assert offset == end + -end % 8 and raw[end:offset] == bytes(offset - end), name
        data = raw[offset : offset + size]
        assert crc == zlib.crc32(data), name
        got = data if dtype == "u1" and "text" in name else np.frombuffer(data, dtype).tolist()
        assert got == want[name], name
        end = offset + size
    assert end == len(raw)


@pytest.fixture(scope="module")
def v2_raw(tmp_path_factory):
    """A version 2 file in which every section holds at least one item."""
    index = build_index(
        [
            ("d1", DateSpec.exact(856), "charter",
             [("ab", "NOM", "ab"), ("cd", "ADJ", "ef"), ("g", "NOM", "ghi")]),
            ("d2", DateSpec.year_range(900, 950), None, [("ab", "NOM", "ab")]),
        ]
    )
    path = tmp_path_factory.mktemp("v2") / "x.csem"
    save_index(index, path)
    raw = path.read_bytes()
    assert all(v2_entry(raw, name)[1] for name in V2_NAMES)
    return raw


def _load_raw(tmp_path, raw):
    path = tmp_path / "x.csem"
    path.write_bytes(raw)
    return load_index(path)


@pytest.mark.parametrize("where", ["first", "last", "crc"])
@pytest.mark.parametrize("name", V2_NAMES)
def test_v2_flipped_byte_in_each_section_raises_checksum_error(tmp_path, v2_raw, name, where):
    offset, size, _ = v2_entry(v2_raw, name)
    at = {"first": offset, "last": offset + size - 1, "crc": 8 + 20 * V2_NAMES.index(name) + 16}[where]
    raw = bytearray(v2_raw)
    raw[at] ^= 0x40
    with pytest.raises(ChecksumError, match=f"^section {name} fails its CRC32 check$"):
        _load_raw(tmp_path, bytes(raw))


@pytest.mark.parametrize(
    "patch",
    [
        lambda raw: raw[: V2_HEADER - 1],
        lambda raw: raw[: 8 + 20 * 7 + 3],
        lambda raw: v2_set_entry(raw, "forms text", offset=2**63),
        lambda raw: v2_set_entry(raw, "doc_typology", size=2**64 - 1),
        lambda raw: v2_set_entry(raw, "doc_hi", size=v2_entry(raw, "doc_hi")[1] + len(raw)),
    ],
    ids=["table-cut-at-end", "table-cut-inside", "offset-beyond-file", "length-beyond-file", "section-past-end"],
)
def test_v2_truncated_or_out_of_bounds_section_table_raises_truncated_file_error(tmp_path, v2_raw, patch):
    with pytest.raises(TruncatedFileError):
        _load_raw(tmp_path, patch(v2_raw))


def _shift(raw, name, by):
    return v2_set_entry(raw, name, offset=v2_entry(raw, name)[0] + by)


def _overlap(raw, name):
    before = V2_NAMES[V2_NAMES.index(name) - 1]
    return v2_set_entry(raw, name, offset=v2_entry(raw, before)[0])


def _pad_byte(raw):
    # the zero padding before doc_lo (doc_kind holds 2 bytes)
    at = v2_entry(raw, "doc_lo")[0] - 1
    return raw[:at] + b"\x01" + raw[at + 1 :]


@pytest.mark.parametrize(
    "patch, message",
    [
        (lambda raw: _shift(raw, "forms offsets", 4), "not on an 8-byte boundary"),
        (lambda raw: _shift(raw, "lemmas text", 1), "not on an 8-byte boundary"),
        (lambda raw: _overlap(raw, "lemma_ids"), "inside the bytes before it"),
        (lambda raw: _shift(raw, "doc_starts", -8), "inside the bytes before it"),
        (lambda raw: v2_set_entry(raw, "lemmas text", offset=0), "inside the bytes before it"),
        (lambda raw: _shift(raw, "lemmas text", 8), "after more than zero padding"),
        (_pad_byte, "after more than zero padding"),
        (lambda raw: v2_set_entry(raw, "doc_typology", size=v2_entry(raw, "doc_typology")[1] - 1),
         "not whole 4-byte items"),
    ],
    ids=["misaligned-by-4", "misaligned-by-1", "overlapping", "overlapping-by-8", "over-the-header",
         "gap", "nonzero-padding", "partial-item"],
)
def test_v2_misplaced_sections_raise_section_layout_error(tmp_path, v2_raw, patch, message):
    with pytest.raises(SectionLayoutError, match=message) as caught:
        _load_raw(tmp_path, patch(v2_raw))
    assert "\n" not in str(caught.value)


def _column(dtype, *values):
    return np.array(values, dtype).tobytes()


@pytest.mark.parametrize(
    "name, content, message",
    [
        # lemmas "ab", "ef", "ghi": text "abefghi", offsets 0, 2, 4, 7
        ("lemmas offsets", _column("<u8", 0, 4, 2, 7), "do not rise from 0"),
        ("lemmas offsets", _column("<u8", 1, 2, 4, 7), "do not rise from 0"),
        ("lemmas offsets", _column("<u8", 0, 2, 4, 6), "do not rise from 0 to the text length 7"),
        ("lemmas offsets", _column("<u8", 0, 2, 4, 8), "do not rise from 0 to the text length 7"),
        ("forms text", b"a\xffcdg", "forms text is not valid UTF-8"),
    ],
    ids=["decreasing", "first-not-0", "last-short", "last-long", "invalid-utf8"],
)
def test_v2_bad_string_tables_raise_string_table_error(tmp_path, v2_raw, name, content, message):
    with pytest.raises(StringTableError, match=message):
        _load_raw(tmp_path, v2_set_section(v2_raw, name, content))


@pytest.mark.parametrize(
    "name, content, error, message",
    [
        # lemmas "ab", "ef", "ghi"; documents d1 (3 tokens, 856, charter) and d2 (1 token, 900..950)
        ("lemmas text", b"ababghi", IndexFormatError, "duplicate vocabulary entry: 'ab'"),
        ("doc_ids text", b"d1d1", IndexFormatError, "duplicate document id: 'd1'"),
        ("lemma_ids", _column("<u4", 0, 1, 7, 0), IdRangeError, "lemma id 7 out of range"),
        ("pos_ids", _column("<u2", 0, 1, 0, 9), IdRangeError, "POS id 9 out of range"),
        ("doc_typology", _column("<i4", 0, 1), IdRangeError, "typology id 1 out of range"),
        ("doc_typology", _column("<i4", 0, -2), IdRangeError, "typology id -2 out of range"),
        ("doc_typology", _column("<i4", -1, -1), IndexFormatError, "typology tags disagree"),
        ("doc_starts", _column("<i8", 0, 3, 5), IndexFormatError, "documents cover 5 tokens"),
        ("doc_starts", _column("<i8", 0, 5, 4), IndexFormatError, "token length -1 is negative"),
        ("doc_kind", _column("<u1", 1, 3), IndexFormatError, "invalid date kind 3"),
        ("doc_lo", _column("<i4", 856, 960), IndexFormatError, "date interval reversed: 960 > 950"),
        ("doc_hi", _column("<i4", 857, 950), IndexFormatError, "exact date spans 856..857"),
    ],
    ids=[
        "repeated-lemma", "repeated-doc-id", "lemma-id", "pos-id", "typology-id-high", "typology-id-low",
        "typology-tags", "cover", "negative-length", "kind-3", "reversed-range", "exact-spans",
    ],
)
def test_v2_corrupt_tables_raise_one_line_index_format_error(tmp_path, v2_raw, name, content, error, message):
    # the CRC32 is updated, so only the checks of the tables themselves can fail
    with pytest.raises(error, match=message) as caught:
        _load_raw(tmp_path, v2_set_section(v2_raw, name, content))
    assert "\n" not in str(caught.value)


@pytest.fixture(scope="module")
def v2_two_tags_raw(tmp_path_factory):
    """A version 2 file of two documents tagged "charter" and "diploma"."""
    docs = [("d1", DateSpec.undated(), "charter", [("ab", "NOM", "ab")]), ("d2", DateSpec.undated(), "diploma", [])]
    path = tmp_path_factory.mktemp("v2") / "x.csem"
    save_index(build_index(docs), path)
    return path.read_bytes()


@pytest.mark.parametrize(
    "name, content, message",
    [
        # typology tags "charter", "diploma": text "charterdiploma", offsets 0, 7, 14; ids 0, 1
        ("doc_typology", _column("<i4", 1, 0), "typology tags disagree"),
        ("typologies offsets", _column("<u8", 0, 0, 14), "typology tags disagree"),
        ("typologies text", b"chartercharter", "duplicate vocabulary entry: 'charter'"),
    ],
    ids=["out-of-first-seen-order", "empty-tag", "repeated-tag"],
)
def test_v2_typology_table_that_breaks_the_tag_rule_raises_one_line_index_format_error(
    tmp_path, v2_two_tags_raw, name, content, message
):
    with pytest.raises(IndexFormatError, match=message) as caught:
        _load_raw(tmp_path, v2_set_section(v2_two_tags_raw, name, content))
    assert "\n" not in str(caught.value)


def test_v2_repeated_form_is_reported_on_first_use(tmp_path, v2_raw):
    # forms "ab", "cd", "g" become "ab", "ab", "g", with the CRC32 updated.
    # The load and the index's form id check read only the offsets, and a
    # lemma query reads no form; the first use of any entry slices them all
    index = _load_raw(tmp_path, v2_set_section(v2_raw, "forms text", b"ababg"))
    assert len(index.forms) == 3 and repr(index.forms) == "Vocabulary(3 entries)"
    assert lemma_count(index, None, "ab") == 2
    first_uses = [
        lambda forms: forms[2], lambda forms: forms.id_of("g"), lambda forms: "g" in forms, list,
        lambda forms: forms.entries, lambda forms: forms == forms, lambda forms: save_index(index, tmp_path / "y"),
    ]
    for use in first_uses:
        with pytest.raises(CorpusError, match="^duplicate form in the index file: 'ab'$"):
            use(index.forms)
    assert not (tmp_path / "y").exists()


def test_a_cold_lemma_count_slices_no_form(tmp_path):
    # 60k distinct forms, one per token: sliced, with their lookup, they take
    # several times the whole file, so a load that slices them breaks the bound
    n = 60_000
    lemmas, forms, pos_tags = Vocabulary(["a", "b"]), Vocabulary(f"form{i:05d}" for i in range(n)), Vocabulary(["N"])
    lemma_ids, form_ids = np.arange(n, dtype=np.uint32) % 2, np.arange(n, dtype=np.uint32)
    index = CorpusIndex(
        lemmas, forms, pos_tags, lemma_ids, form_ids, np.zeros(n, np.uint16),
        ["d1", "d2"], [0, n // 2, n], [0, 0], [0, 0], [0, 0], [-1, -1], Vocabulary(),
    )
    path = tmp_path / "forms.csem"
    save_index(index, path)
    tracemalloc.start()
    try:
        loaded = load_index(path)
        assert lemma_count(loaded, None, "a") == n // 2
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        assert loaded.forms.id_of("form00007") == 7
        sliced = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert peak < sliced


def test_random_round_trips(tmp_path):
    # both formats load equal to the index, and a version 1 file re-saved
    # is the version 2 file of the same index
    rng = np.random.default_rng(5)
    for i in range(10):
        index = random_index(rng, min_tokens=5, max_tokens=300)
        v1, v2, resaved = (tmp_path / f"r{i}.{name}.csem" for name in ("v1", "v2", "resaved"))
        save_v1(index, v1)
        save_index(index, v2)
        assert load_index(v2) == index
        from_v1 = load_index(v1)
        assert from_v1 == index
        save_index(from_v1, resaved)
        assert resaved.read_bytes() == v2.read_bytes()


SAMPLE = importlib.resources.files("diachrona") / "data" / "sample.vrt"


def test_v1_writer_reproduces_the_pinned_sample_bytes(tmp_path):
    # the version 1 bytes `index build` wrote for the sample corpus, which
    # load_index must keep reading
    path = tmp_path / "sample.csem"
    index = parse_vertical(SAMPLE.read_text(encoding="utf-8"))
    save_v1(index, path)
    data = path.read_bytes()
    assert len(data) == 22_510
    assert hashlib.sha256(data).hexdigest() == (
        "2bd8d942c2d9de36cbaf5b9c7abf211ad0d550975d3952a44cb99251cbb9d93b"
    )
    assert load_index(path) == index


@pytest.fixture(scope="module", params=["v2", "v1"])
def sample_bytes(request, tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz") / "sample.csem"
    save = {"v2": save_index, "v1": save_v1}[request.param]
    save(parse_vertical(SAMPLE.read_text(encoding="utf-8")), path)
    return request.param, path.read_bytes()


@settings(max_examples=500, deadline=None)
@given(data=st.data())
def test_corrupt_sample_index_loads_or_raises_index_format_error(sample_bytes, data):
    """A truncated copy of the sample index, or one with a single bit flipped,
    raises an IndexFormatError subclass or loads; never a struct, numpy,
    Unicode or memory error.  In format version 2 every byte is checked, so
    no such copy loads."""
    version, raw = sample_bytes
    raw = bytearray(raw)
    truncate = data.draw(st.booleans(), label="truncate")
    if truncate:
        raw = raw[: data.draw(st.integers(0, len(raw) - 1), label="length")]
    else:
        bit = data.draw(st.integers(0, 8 * len(raw) - 1), label="bit")
        raw[bit // 8] ^= 1 << (bit % 8)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "fuzzed.csem"
        path.write_bytes(bytes(raw))
        try:
            loaded = load_index(path)
        except IndexFormatError:
            return
    assert not truncate, "a truncated index loaded"
    assert version == "v1", "a version 2 index with a flipped bit loaded"
    assert isinstance(loaded, CorpusIndex)
