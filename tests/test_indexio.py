import importlib.resources
import struct
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diachrona.corpus import CorpusError, CorpusIndex, DateSpec
from diachrona.indexio import (
    MAGIC,
    BadMagicError,
    IdRangeError,
    IndexFormatError,
    TruncatedFileError,
    UnsupportedVersionError,
    load_index,
    save_index,
)
from diachrona.ingest import index_from_documents, parse_vertical
from diachrona.synth import synthetic_index

from conftest import build_index, lemma_doc, random_index


def test_empty_corpus_round_trips(tmp_path):
    index = parse_vertical("")
    path = tmp_path / "empty.csem"
    save_index(index, path)
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


def test_round_trip_preserves_all_date_kinds(tmp_path):
    index = build_index(
        [
            lemma_doc("u", DateSpec.undated(), ["a"]),
            lemma_doc("e", DateSpec.exact(800), ["b"]),
            lemma_doc("r", DateSpec.year_range(900, 990), ["c"], typology="charter"),
        ]
    )
    path = tmp_path / "dates.csem"
    save_index(index, path)
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
    # the token columns go to the file straight from the index's arrays, so
    # saving never holds the file's bytes in memory
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


def test_corrupted_magic(tmp_path):
    index = build_index([lemma_doc("d", DateSpec.undated(), ["a"])])
    path = tmp_path / "x.csem"
    save_index(index, path)
    raw = bytearray(path.read_bytes())
    raw[:4] = b"NOPE"
    path.write_bytes(bytes(raw))
    with pytest.raises(BadMagicError):
        load_index(path)


def test_unsupported_version(tmp_path):
    index = build_index([lemma_doc("d", DateSpec.undated(), ["a"])])
    path = tmp_path / "x.csem"
    save_index(index, path)
    raw = bytearray(path.read_bytes())
    raw[4:8] = struct.pack("<I", 99)
    path.write_bytes(bytes(raw))
    with pytest.raises(UnsupportedVersionError):
        load_index(path)


def test_truncated_file(tmp_path):
    index = build_index([lemma_doc("d", DateSpec.exact(800), ["a", "b", "c"])])
    path = tmp_path / "x.csem"
    save_index(index, path)
    raw = path.read_bytes()
    for cut in (2, 10, len(raw) // 2, len(raw) - 1):
        path.write_bytes(raw[:cut])
        with pytest.raises(TruncatedFileError):
            load_index(path)


def test_id_out_of_vocabulary_range(tmp_path):
    # one token, one-lemma vocabulary: patch the stored lemma id to 7
    index = build_index([("d", DateSpec.undated(), None, [("a", "NOM", "a")])])
    path = tmp_path / "x.csem"
    save_index(index, path)
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
    save_index(index, path)
    raw = path.read_bytes()
    patched = patch(raw)
    assert len(patched) == len(raw) and patched != raw
    path.write_bytes(patched)
    with pytest.raises(IndexFormatError, match=message) as caught:
        load_index(path)
    assert "\n" not in str(caught.value)


def test_empty_typology_survives_a_round_trip(tmp_path):
    index = parse_vertical("#doc id=a typology= date=900\nx\tNOM\tx\n")
    path = tmp_path / "x.csem"
    save_index(index, path)
    assert load_index(path) == index
    assert index.documents[0].typology is None


def _record(doc_id, kind, lo, hi, typology, start, length):
    """One document's bytes in the index file."""
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
    save_index(index, path)
    raw = path.read_bytes()
    assert raw.count(old) == 1
    path.write_bytes(raw.replace(old, new))
    with pytest.raises(error, match=message) as caught:
        load_index(path)
    assert "\n" not in str(caught.value)


def test_trailing_garbage_rejected(tmp_path):
    index = build_index([lemma_doc("d", DateSpec.undated(), ["a"])])
    path = tmp_path / "x.csem"
    save_index(index, path)
    path.write_bytes(path.read_bytes() + b"junk")
    with pytest.raises(IndexFormatError):
        load_index(path)


def test_format_layout_is_exactly_as_documented(tmp_path):
    index = build_index([("d1", DateSpec.exact(856), "charter", [("ab", "NOM", "ab")])])
    path = tmp_path / "x.csem"
    save_index(index, path)
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


def test_random_round_trips(tmp_path):
    rng = np.random.default_rng(5)
    for i in range(10):
        index = random_index(rng, min_tokens=5, max_tokens=300)
        path = tmp_path / f"r{i}.csem"
        save_index(index, path)
        assert load_index(path) == index


SAMPLE = importlib.resources.files("diachrona") / "data" / "sample.vrt"


@pytest.fixture(scope="module")
def sample_bytes(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz") / "sample.csem"
    save_index(parse_vertical(SAMPLE.read_text(encoding="utf-8")), path)
    return path.read_bytes()


@settings(max_examples=500, deadline=None)
@given(data=st.data())
def test_corrupt_sample_index_loads_or_raises_index_format_error(sample_bytes, data):
    """A truncated copy of the sample index, or one with a single bit flipped,
    raises an IndexFormatError subclass or loads; never a struct, numpy,
    Unicode or memory error."""
    raw = bytearray(sample_bytes)
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
    assert isinstance(loaded, CorpusIndex)
