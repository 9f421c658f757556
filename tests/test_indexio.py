import struct

import numpy as np
import pytest

from diachrona.corpus import CorpusError, DateSpec
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
    [DateSpec.exact(2**31), DateSpec.exact(-(2**31) - 1), DateSpec.year_range(0, 2**31)],
    ids=["exact-high", "exact-low", "range-end"],
)
def test_year_outside_int32_rejected_before_writing(tmp_path, date):
    index = index_from_documents(
        [lemma_doc("ok", DateSpec.exact(2**31 - 1), ["x"]), lemma_doc("far", date, ["x"])]
    )
    path = tmp_path / "far.csem"
    with pytest.raises(CorpusError, match="document 'far'"):
        save_index(index, path)
    assert not path.exists()


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
