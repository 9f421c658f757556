import pytest

from diachrona.corpus import DateKind
from diachrona.ingest import (
    Lexicon,
    VerticalParseError,
    VerticalRecord,
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
