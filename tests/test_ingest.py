import io
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from diachrona.corpus import CorpusError, DateKind, DateSpec
from diachrona.indexio import save_index
from diachrona.ingest import (
    DEFAULT_DROP_POS,
    Lexicon,
    VerticalParseError,
    VerticalRecord,
    index_from_documents,
    lemmatize,
    parse_vertical,
    tokenize_plain,
)


class TestParseVertical:
    def test_header_and_two_tokens(self):
        text = "#doc id=d1 date=856\npatris\tNOM\tpater\nnostri\tADJ\tnoster\n"
        index = parse_vertical(text)
        assert len(index.documents) == 1
        doc = index.documents[0]
        assert doc.doc_id == "d1"
        assert doc.date.kind is DateKind.EXACT and doc.date.lo == 856
        assert index.total_tokens == 2
        assert index.lemmas.id_of("pater") is not None
        assert index.lemmas.id_of("noster") is not None
        assert [index.forms[int(i)] for i in index.form_ids] == ["patris", "nostri"]

    def test_empty_input(self):
        index = parse_vertical("")
        assert index.total_tokens == 0
        assert len(index.documents) == 0

    def test_wrong_column_count_names_line(self):
        text = "#doc id=d1\nok\tNOM\tok\nbad\tNOM\n"
        with pytest.raises(VerticalParseError, match="line 3"):
            parse_vertical(text)

    def test_header_missing_id(self):
        with pytest.raises(VerticalParseError, match="missing id"):
            parse_vertical("#doc date=900\n")

    def test_malformed_header_field(self):
        with pytest.raises(VerticalParseError, match="key=value"):
            parse_vertical("#doc id=d1 stray\n")

    def test_repeated_header_key_names_line_and_key(self):
        with pytest.raises(VerticalParseError, match=r"line 2: repeated header key 'date'"):
            parse_vertical("#doc id=d1\n#doc id=d2 date=900 date=1200\nx\tNOM\tx\n")

    def test_reused_document_id_names_line(self):
        text = "#doc id=a\nx\tNOM\tx\n#doc id=b\ny\tNOM\ty\n#doc id=a\nz\tNOM\tz\n"
        with pytest.raises(VerticalParseError, match=r"line 5: duplicate document id: 'a'"):
            parse_vertical(text)

    def test_reused_implicit_doc0_names_line(self):
        with pytest.raises(VerticalParseError, match=r"line 2: duplicate document id: 'doc0'"):
            parse_vertical("x\tNOM\tx\n#doc id=doc0\ny\tNOM\ty\n")
        # dropped tokens open no implicit document, so the id stays free
        index = parse_vertical(".\tPUN\t.\n#doc id=doc0\ny\tNOM\ty\n")
        assert [d.doc_id for d in index.documents] == ["doc0"]

    def test_invalid_date_syntax_fails_loud(self):
        for bad in ("ca.900", "900-", "-900", "900..950", "IXe"):
            with pytest.raises(VerticalParseError, match="date"):
                parse_vertical(f"#doc id=d1 date={bad}\n")

    def test_reversed_date_interval_names_line(self):
        with pytest.raises(VerticalParseError, match=r"^line 2: date interval reversed: '1200-1100'$"):
            parse_vertical("x\tNOM\tx\n#doc id=d1 date=1200-1100\n")

    def test_empty_form_column_names_line(self):
        with pytest.raises(VerticalParseError, match=r"^line 3: empty form column$"):
            parse_vertical("#doc id=d1\nx\tNOM\tx\n\tNOM\tx\n")

    def test_date_range_parses(self):
        index = parse_vertical("#doc id=d1 date=774-800\nx\tNOM\tx\n")
        date = index.documents[0].date
        assert date.kind is DateKind.RANGE
        assert (date.lo, date.hi) == (774, 800)

    def test_implicit_doc0_for_headerless_tokens(self):
        index = parse_vertical("verbum\tNOM\tverbum\n")
        assert [d.doc_id for d in index.documents] == ["doc0"]
        assert not index.documents[0].date.is_dated

    def test_drop_pos_removes_positions(self):
        from diachrona.cooc import adjacency_count

        text = "#doc id=d\na\tNOM\ta\n.\tPUN\t.\nb\tNOM\tb\n"
        index = parse_vertical(text)
        # the dropped punctuation token leaves a and b adjacent, so window
        # distances downstream see the retained stream only
        assert index.total_tokens == 2
        assert adjacency_count(index, None, "a", "b") == 1
        kept = parse_vertical(text, drop_pos=frozenset())
        assert kept.total_tokens == 3
        assert adjacency_count(kept, None, "a", "b") == 0

    def test_token_count_equals_well_formed_token_lines(self):
        text = "#doc id=a\nx\tNOM\tx\n\n#doc id=b date=900\ny\tVER\ty\nz\tNOM\tz\n"
        index = parse_vertical(text)
        token_lines = [
            l for l in text.splitlines() if l.strip() and not l.startswith("#doc")
        ]
        assert index.total_tokens == len(token_lines)

    def test_blank_lines_ignored(self):
        index = parse_vertical("#doc id=a\n\n   \nx\tNOM\tx\n\n")
        assert index.total_tokens == 1

    def test_unknown_lemma_sentinel_allowed(self):
        index = parse_vertical("#doc id=a\nxyzzy\tNOM\t<unknown>\n")
        assert index.lemmas.id_of("<unknown>") is not None

    def test_typology_recorded(self):
        index = parse_vertical("#doc id=a typology=charter\nx\tNOM\tx\n")
        assert index.documents[0].typology == "charter"

    def test_empty_document_is_legal(self):
        index = parse_vertical("#doc id=a\n#doc id=b\nx\tNOM\tx\n")
        assert [d.token_len for d in index.documents] == [0, 1]


# a token line: a record, or a blank line (None); PUN and SENT lines are dropped by default
_LINE = st.one_of(
    st.tuples(
        st.sampled_from(["a", "b", "Ab", "æ"]),
        st.sampled_from(["NOM", "ADJ", "VER"]),
        st.sampled_from(["a", "b", "c"]),
    ),
    st.sampled_from([(".", "PUN", "."), (",", "SENT", ","), None]),
)
_DATE = st.one_of(
    st.none(),
    st.integers(0, 2000),
    st.tuples(st.integers(0, 2000), st.integers(0, 60)),
)


@st.composite
def vertical_cases(draw):
    """(vertical text, drop set, expected (doc_id, date, typology, records) tuples).

    Lines end in LF or CRLF, the last one maybe in neither; blank lines hold
    nothing, spaces or tabs; headers separate their fields with spaces or
    tabs.  The small alphabet repeats token lines, dropped ones included,
    within and across documents."""
    drop = draw(st.sampled_from([DEFAULT_DROP_POS, frozenset(), frozenset({"ADJ"})]))
    lines, docs = [], []

    def body(doc_lines):
        records = []
        for item in doc_lines:
            if item is None:
                lines.append(draw(st.sampled_from(["", "   ", "\t", " \t "])))
                continue
            lines.append("\t".join(item))
            if item[1] not in drop:
                records.append(item)
        return records

    leading = body(draw(st.lists(_LINE, max_size=4)))
    if leading:
        docs.append(("doc0", DateSpec.undated(), None, leading))
    for i in range(draw(st.integers(0, 5))):
        fields = [f"id=d{i}"]
        raw_date = draw(_DATE)
        date = DateSpec.undated()
        if isinstance(raw_date, int):
            fields.append(f"date={raw_date}")
            date = DateSpec.exact(raw_date)
        elif raw_date is not None:
            lo, span = raw_date
            fields.append(f"date={lo}-{lo + span}")
            date = DateSpec.year_range(lo, lo + span)
        typology = draw(st.sampled_from([None, "charter", "letter"]))
        if typology is not None:
            fields.append(f"typology={typology}")
        sep = draw(st.sampled_from([" ", "\t"]))
        lines.append("#doc" + sep + sep.join(draw(st.permutations(fields))))
        docs.append((f"d{i}", date, typology, body(draw(st.lists(_LINE, max_size=8)))))
    end = draw(st.sampled_from(["\n", "\r\n"]))
    return end.join(lines) + draw(st.sampled_from([end, ""])), drop, docs


# a tab-separated header, a repeated dropped line, a blank line of spaces and
# tabs, a line repeated across documents, CRLF endings and no final newline
_EVERY_LINE_CASE = (
    "#doc\tid=d1\r\nx\tNOM\tx\r\n.\tPUN\t.\r\n \t \r\n.\tPUN\t.\r\n#doc id=d2\r\nx\tNOM\tx\r\ny\tVER\tx",
    DEFAULT_DROP_POS,
    [
        ("d1", DateSpec.undated(), None, [("x", "NOM", "x")]),
        ("d2", DateSpec.undated(), None, [("x", "NOM", "x"), ("y", "VER", "x")]),
    ],
)


class TestOneInterningPass:
    @settings(max_examples=150, deadline=None)
    @given(vertical_cases())
    @example(_EVERY_LINE_CASE)
    def test_vertical_text_indexes_like_its_records(self, case):
        text, drop, docs = case
        records = [tuple(r) for doc in docs for r in doc[3]]
        heads = [doc[:3] for doc in docs]
        starts = np.cumsum([0] + [len(doc[3]) for doc in docs]).tolist()
        built = index_from_documents(docs)
        for lines in (text, io.StringIO(text), text.splitlines(keepends=True)):
            parsed = parse_vertical(lines, drop_pos=drop)
            # each token's strings and each document's head and start, read
            # back through the vocabularies
            tokens = zip(parsed.form_ids.tolist(), parsed.pos_ids.tolist(), parsed.lemma_ids.tolist())
            assert [(parsed.forms[f], parsed.pos_tags[p], parsed.lemmas[l]) for f, p, l in tokens] == records
            assert [(d.doc_id, d.date, d.typology) for d in parsed.documents] == heads
            assert parsed.doc_starts.tolist() == starts
            assert parsed == built
        assert parsed.forms.entries == list(dict.fromkeys(r[0] for r in records))
        assert parsed.pos_tags.entries == list(dict.fromkeys(r[1] for r in records))
        assert parsed.lemmas.entries == list(dict.fromkeys(r[2] for r in records))
        with tempfile.TemporaryDirectory() as tmp:
            save_index(parsed, Path(tmp) / "parsed.csem")
            save_index(built, Path(tmp) / "built.csem")
            assert (Path(tmp) / "parsed.csem").read_bytes() == (Path(tmp) / "built.csem").read_bytes()

    def test_records_are_any_three_item_sequences(self):
        tuples = [("a", DateSpec.undated(), None, [("x", "NOM", "y"), VerticalRecord("z", "VER", "y")])]
        lists = [("a", DateSpec.undated(), None, [["x", "NOM", "y"], ["z", "VER", "y"]])]
        assert index_from_documents(lists) == index_from_documents(tuples)

    @pytest.mark.parametrize("record", [("x", "NOM"), ("x", "NOM", "y", "extra"), ["x", "NOM", "y", "extra"]])
    def test_record_of_another_length_raises(self, record):
        # a long record must not be cut to its first three items
        with pytest.raises(ValueError):
            index_from_documents([("a", DateSpec.undated(), None, [("x", "NOM", "y"), record])])

    @pytest.mark.parametrize(
        "doc",
        [
            ("a", DateSpec.undated(), None, [("x", "NOM", "y"), ("z", None, "y")]),  # a record item
            ("a", DateSpec.undated(), None, [("x", "NOM", "y"), ("x", "NOM", b"a")]),  # a record item
            (None, DateSpec.undated(), None, [("x", "NOM", "y")]),  # a document id
            ("a", DateSpec.undated(), 5, [("x", "NOM", "y")]),  # a typology
        ],
    )
    def test_a_value_that_is_not_a_string_raises(self, doc):
        # such an index could be built, yet not saved
        with pytest.raises(CorpusError) as info:
            index_from_documents([("ok", DateSpec.undated(), "charter", [("x", "NOM", "y")]), doc])
        assert "must be strings" in str(info.value) and "\n" not in str(info.value)


class TestTokenizePlain:
    def test_sentence_split(self):
        assert tokenize_plain("In nomine patris.") == ["In", "nomine", "patris"]

    def test_empty(self):
        assert tokenize_plain("") == []

    def test_hyphen_separates(self):
        assert tokenize_plain("pater-noster") == ["pater", "noster"]

    def test_digits_and_underscores_separate(self):
        assert tokenize_plain("anno813 dom_ini") == ["anno", "dom", "ini"]

    def test_unicode_letters_kept(self):
        assert tokenize_plain("sæcula sæculorum, amen") == ["sæcula", "sæculorum", "amen"]

    def test_rejoined_output_contains_no_separators(self):
        text = "Quid est, pater? (Nihil!) 42 fois — rien."
        joined = " ".join(tokenize_plain(text))
        assert all(ch.isalpha() or ch == " " for ch in joined)


class TestLemmatize:
    def test_case_folded_lookup(self):
        lex = Lexicon()
        lex.add("patris", "pater", "NOM")
        assert lemmatize(["Patris"], lex) == [VerticalRecord("Patris", "NOM", "pater")]

    def test_miss_keeps_form(self):
        assert lemmatize(["xyzzy"], Lexicon()) == [VerticalRecord("xyzzy", "<unk>", "xyzzy")]

    def test_empty(self):
        assert lemmatize([], Lexicon()) == []

    def test_length_preserving_and_deterministic(self):
        lex = Lexicon.from_tsv("patris\tpater\tNOM\nmatris\tmater\tNOM\n")
        forms = ["Patris", "matris", "ignotum", "PATRIS"] * 5
        first = lemmatize(forms, lex)
        assert len(first) == len(forms)
        assert first == lemmatize(forms, lex)

    def test_lexicon_tsv_rejects_bad_columns(self):
        with pytest.raises(VerticalParseError):
            Lexicon.from_tsv("only_two\tcolumns\n")

    def test_lexicon_tsv_skips_blank_lines_and_counts_them(self):
        lex = Lexicon.from_tsv(["\n", "patris\tpater\tNOM\n", " \t\n"])
        assert lemmatize(["patris"], lex) == [VerticalRecord("patris", "NOM", "pater")]
        with pytest.raises(VerticalParseError, match=r"^line 3: lexicon line has 2 columns, expected 3$"):
            Lexicon.from_tsv("\npatris\tpater\tNOM\nonly_two\tcolumns\n")
