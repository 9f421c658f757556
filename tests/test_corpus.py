import itertools
import tempfile
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from diachrona.cooc import adjacency_count, cooc_counts, pair_evolution, top_cooccurrents
from diachrona.corpus import (
    CorpusError,
    CorpusIndex,
    DateKind,
    DateSpec,
    Document,
    Vocabulary,
    dated_within,
    has_typology,
    is_dated,
    subcorpus,
    with_ids,
)
from diachrona.diachrony import evolving_cooccurrents, make_tranches
from diachrona.frequency import count_table, form_share, lemma_count, lemma_rank, time_series
from diachrona.indexio import load_index, save_index
from diachrona.ingest import index_from_documents
from diachrona.semfield import semantic_map

from conftest import (
    POS_TAGS, build_index, corpus_records, corpora, lemma_doc, permuted_documents, random_index,
)


class TestVocabulary:
    def test_dense_ids_round_trip(self):
        words = ["pater", "mater", "filius"]
        vocab = Vocabulary(words)
        assert [vocab.id_of(w) for w in words] == [0, 1, 2]
        assert len(vocab) == 3
        assert vocab.id_of("soror") is None
        for i in range(len(vocab)):
            assert vocab.id_of(vocab[i]) == i

    @pytest.mark.parametrize(
        "entries, repeat",
        [(["a", "a", "b", "c", "b"], "a"), (["a", "b", "c", "b", "a"], "b"), (["a", "b", "c", "d", "c"], "c")],
        ids=["start", "middle", "end"],
    )
    def test_duplicate_entries_rejected(self, entries, repeat):
        # the message names the entry whose second occurrence comes first
        with pytest.raises(CorpusError, match=f"^duplicate lemma: '{repeat}'$"):
            Vocabulary(iter(entries), what="lemma")

    def test_unicode_survives(self):
        vocab = Vocabulary(["sæculum", "æterna", "kyrié"])
        for word in ("sæculum", "æterna", "kyrié"):
            assert vocab[vocab.id_of(word)] == word


def _saved(forms: Vocabulary) -> bytes:
    """The file of an index with one token per entry of ``forms``."""
    n = len(forms)
    index = CorpusIndex(
        Vocabulary(["l"]), forms, Vocabulary(["N"]), np.zeros(n, np.uint32), np.arange(n, dtype=np.uint32),
        np.zeros(n, np.uint16), ["d"], [0, n], [0], [0], [0], [None],
    )
    with tempfile.TemporaryDirectory() as tmp:
        save_index(index, Path(tmp) / "t.csem")
        return (Path(tmp) / "t.csem").read_bytes()


def _table_use(use, vocab, arg):
    """What a use of a table returns, or the error it raises."""
    try:
        return "returns", use(vocab, arg)
    except (CorpusError, IndexError) as exc:
        return type(exc), str(exc)


# the uses of a table, each given the table and a drawn argument
_USES = {
    "len": lambda vocab, arg: len(vocab),
    "repr": lambda vocab, arg: repr(vocab),
    "getitem": lambda vocab, arg: vocab[arg],
    "iter": lambda vocab, arg: list(vocab),
    "entries": lambda vocab, arg: vocab.entries,
    "id_of": lambda vocab, arg: vocab.id_of(arg),
    "in": lambda vocab, arg: arg in vocab,
    "eq": lambda vocab, arg: (vocab == arg, arg == vocab),
    "save": lambda vocab, arg: _saved(vocab),
}
# few letters, so empty entries and repeats are common; the non-ASCII ones
# make character offsets differ from byte offsets
_LETTERS = st.sampled_from("ab\u00e6\u03a9\U0001d52d")


@settings(max_examples=300, deadline=None)
@given(
    entries=st.lists(st.text(_LETTERS, max_size=3), max_size=8),
    uses=st.lists(st.sampled_from(sorted(_USES)), max_size=12),
    data=st.data(),
)
def test_a_table_sliced_on_first_use_behaves_as_its_list(entries, uses, data):
    text = "".join(entries)
    offsets = np.array([0, *itertools.accumulate(map(len, entries))], "<u8")
    lazy = Vocabulary.from_text(text, offsets, what="form")
    repeats = [entry for i, entry in enumerate(entries) if entry in entries[:i]]
    eager = None if repeats else Vocabulary(entries, what="form")
    n = len(entries)
    probes = st.sampled_from(entries) | st.text(_LETTERS, max_size=3) if entries else st.text(_LETTERS, max_size=3)
    args = {
        "getitem": st.integers(-n - 1, n),
        "id_of": probes,
        "in": probes,
        "eq": st.builds(lambda: Vocabulary.from_text(text, offsets, what="form")),
    }
    for name in uses:
        arg = data.draw(args.get(name, st.none()), label=name)
        got = _table_use(_USES[name], lazy, arg)
        if eager is not None:
            assert got == _table_use(_USES[name], eager, arg), name
        elif name in ("len", "repr"):
            # a length needs only the offsets
            assert got == ("returns", n if name == "len" else f"Vocabulary({n} entries)")
        else:
            # every other use slices the entries first, and a repeat is
            # reported by each one, not only by the first
            assert got == (CorpusError, f"duplicate form: {repeats[0]!r}"), name


class TestDateSpec:
    def test_exact_midpoint(self):
        assert DateSpec.exact(856).midpoint() == 856

    def test_range_midpoint_floors(self):
        assert DateSpec.year_range(774, 800).midpoint() == 787
        assert DateSpec.year_range(774, 801).midpoint() == 787

    def test_undated_has_no_midpoint(self):
        d = DateSpec.undated()
        assert d.midpoint() is None
        assert not d.is_dated

    def test_reversed_interval_rejected(self):
        with pytest.raises(CorpusError):
            DateSpec(DateKind.RANGE, 900, 800)

    def test_exact_requires_equal_bounds(self):
        with pytest.raises(CorpusError):
            DateSpec(DateKind.EXACT, 800, 900)

    def test_degenerate_range_collapses_to_exact(self):
        assert DateSpec.year_range(800, 800).kind is DateKind.EXACT


def three_doc_index():
    return build_index(
        [
            lemma_doc("a", DateSpec.exact(750), ["pater", "mater"], typology="charter"),
            lemma_doc("b", DateSpec.exact(856), ["pater"], typology="letter"),
            lemma_doc("c", DateSpec.exact(1100), ["filius"], typology="charter"),
        ]
    )


class TestSubcorpus:
    def test_no_filter_keeps_every_document(self):
        index = three_doc_index()
        assert subcorpus(index).tolist() == [True, True, True]

    def test_interval_membership(self):
        index = three_doc_index()
        assert subcorpus(index, dated_within(800, 899)).tolist() == [False, True, False]

    def test_typology_matches_linear_scan(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            index = random_index(rng, min_tokens=30, max_tokens=200)
            got = subcorpus(index, has_typology("charter"))
            assert got.tolist() == [d.typology == "charter" for d in index.documents]

    def test_three_filters_are_anded(self):
        rng = np.random.default_rng(12)
        for _ in range(10):
            index = random_index(rng, min_tokens=30, max_tokens=400, dated_fraction=0.6)
            got = subcorpus(index, is_dated, dated_within(700, 1100), has_typology("letter"))
            expected = [
                d.date.is_dated and 700 <= d.date.midpoint() <= 1100 and d.typology == "letter"
                for d in index.documents
            ]
            assert got.tolist() == expected

    def test_empty_result_is_legal(self):
        index = three_doc_index()
        assert not subcorpus(index, dated_within(2000, 3000)).any()

    def test_reversed_range_is_an_error(self):
        dated_within(1000, 1000)
        with pytest.raises(CorpusError, match=r"^reversed date range: 1000\.\.999$"):
            dated_within(1000, 999)

    def test_empty_typology_is_an_error(self):
        # an empty tag is stored as no tag, so it could match nothing
        with pytest.raises(CorpusError, match="^empty typology tag$"):
            has_typology("")

    def test_is_dated(self):
        index = build_index(
            [
                lemma_doc("x", DateSpec.undated(), ["pater"]),
                lemma_doc("y", DateSpec.exact(900), ["pater"]),
            ]
        )
        assert subcorpus(index, is_dated).tolist() == [False, True]

    def test_result_is_a_new_writable_mask(self):
        index = three_doc_index()
        for filters in ((), (is_dated,)):
            mask = subcorpus(index, *filters)
            mask[0] = False
            assert index.doc_dated.all()
            assert subcorpus(index, *filters)[0]

    @pytest.mark.parametrize(
        "result",
        [
            np.ones(2, dtype=bool),
            np.ones((3, 1), dtype=bool),
            np.array([0, 1], dtype=np.int64),
            np.ones(3, dtype=np.uint8),
            [True, True, True],
            True,
            {"a"},
        ],
    )
    def test_filter_result_that_is_not_a_document_mask_rejected(self, result):
        index = three_doc_index()
        with pytest.raises(CorpusError):
            subcorpus(index, is_dated, lambda index: result)

    def test_filters_build_no_document_records(self):
        index = three_doc_index()
        mask = subcorpus(index, is_dated, dated_within(700, 900), has_typology("charter"))
        assert top_cooccurrents(index, mask, "pater", 2, 5)
        assert "documents" not in vars(index)


class TestWithIds:
    def test_keeps_the_named_documents_whatever_their_order_and_repeats(self):
        index = three_doc_index()
        for ids in (("a", "c"), ("c", "a"), ("c", "a", "c", "a")):
            assert subcorpus(index, with_ids(*ids)).tolist() == [True, False, True]
        assert not subcorpus(index, with_ids()).any()

    def test_unknown_id_keeps_its_message(self):
        index = three_doc_index()
        with pytest.raises(CorpusError, match="^unknown document id: 'x'$"):
            subcorpus(index, with_ids("a", "x"))

    @pytest.mark.parametrize(
        "collection, name", [({"a", "b"}, "set"), (["a"], "list"), (("a", "b"), "tuple")]
    )
    def test_one_collection_of_ids_is_rejected_by_with_ids(self, collection, name):
        # the ids go in as separate arguments; a collection of them is named
        # by type when the filter is made, not when it is applied
        with pytest.raises(CorpusError, match=f"^with_ids takes document id strings, not {name}$"):
            with_ids(collection)
        assert subcorpus(three_doc_index(), with_ids("a", "b")).tolist() == [True, True, False]

    def test_anded_with_dated_within(self):
        index = three_doc_index()
        ids, early = with_ids("a", "c"), dated_within(700, 999)
        assert subcorpus(index, ids, early).tolist() == [True, False, False]
        assert subcorpus(index, early, ids).tolist() == [True, False, False]

    def test_each_id_resolved_once_and_queries_resolve_none(self, monkeypatch):
        index = three_doc_index()
        calls = Counter()
        original = CorpusIndex.position_of

        def counting(self, doc_id):
            calls[doc_id] += 1
            return original(self, doc_id)

        monkeypatch.setattr(CorpusIndex, "position_of", counting)
        docset = subcorpus(index, with_ids("a", "b"))
        assert calls == {"a": 1, "b": 1}
        assert top_cooccurrents(index, docset, "pater", 2, 5, pos_filter=["NOM"])
        assert form_share(index, docset, "pater", ["pater"]) == 1.0
        assert calls == {"a": 1, "b": 1}


NOT_A_MASK = "a docset is None or a boolean mask over the documents, not "
REJECTED_DOCSETS = {
    "id-string": ("d000001", NOT_A_MASK + "str"),
    "id-set": ({"a", "b"}, NOT_A_MASK + "set"),
    "bool-list": ([True, False, True], NOT_A_MASK + "list"),
    "int-array": (np.array([0, 2], dtype=np.int64), NOT_A_MASK + "int64 array"),
    "wrong-length-mask": (np.ones(2, dtype=bool), "document mask of shape (2,) for 3 documents"),
}

DOCSET_QUERIES = {
    "lemma_count": lambda index, docset, lemma: lemma_count(index, docset, lemma),
    "count_table": lambda index, docset, lemma: count_table(index, [lemma], [None, docset]),
    "lemma_rank": lambda index, docset, lemma: lemma_rank(index, docset, lemma),
    "form_share": lambda index, docset, lemma: form_share(index, docset, lemma, [lemma]),
    "time_series": lambda index, docset, lemma: time_series(index, lemma, 50, docset=docset),
    "top_cooccurrents": lambda index, docset, lemma: top_cooccurrents(index, docset, lemma, 2, 5),
    "adjacency_count": lambda index, docset, lemma: adjacency_count(index, docset, lemma, "mater"),
    "pair_evolution": lambda index, docset, lemma: pair_evolution(index, lemma, "mater", 2, 100, docset),
    "semantic_map": lambda index, docset, lemma: semantic_map(index, docset, lemma, 2, 3),
}


@pytest.mark.parametrize("lemma", ["pater", "nemo"])
@pytest.mark.parametrize("query", DOCSET_QUERIES.values(), ids=list(DOCSET_QUERIES))
@pytest.mark.parametrize("docset, message", REJECTED_DOCSETS.values(), ids=list(REJECTED_DOCSETS))
def test_a_docset_that_is_not_none_or_a_document_mask_is_rejected(docset, message, query, lemma):
    # rejected before the lemma is looked up, so an unknown lemma is no way round
    with pytest.raises(CorpusError) as caught:
        query(three_doc_index(), docset, lemma)
    assert str(caught.value) == message


class TestCorpusIndex:
    def test_document_partition_reconstructs_arrays(self):
        rng = np.random.default_rng(7)
        index = random_index(rng)
        pieces = [
            index.lemma_ids[d.token_start : d.token_start + d.token_len]
            for d in index.documents
        ]
        assert np.array_equal(np.concatenate(pieces), index.lemma_ids)

    def test_arrays_frozen(self):
        index = three_doc_index()
        with pytest.raises(ValueError):
            index.lemma_ids[0] = 1

    def test_gap_in_token_ranges_rejected(self):
        # two one-token documents over three tokens leave one uncovered
        vocab = Vocabulary(["a"])
        ids = np.zeros(3, dtype=np.uint32)
        with pytest.raises(CorpusError):
            CorpusIndex(
                vocab, vocab, vocab, ids, ids, ids.astype(np.uint16),
                ["d1", "d2"], [0, 1, 2], [0, 0], [0, 0], [0, 0], [None, None],
            )

    @pytest.mark.parametrize("bad_id, dtype", [(5, np.uint32), (-1, np.int64), (1, np.int8)])
    def test_id_out_of_range_rejected(self, bad_id, dtype):
        # unsigned ids skip the minimum, signed ones must not
        vocab = Vocabulary(["a"])
        bad = np.array([bad_id], dtype=dtype)
        ok = np.zeros(1, dtype=np.uint32)
        with pytest.raises(CorpusError, match=f"lemma id {bad_id} out of range"):
            CorpusIndex(
                vocab, vocab, vocab, bad, ok, ok.astype(np.uint16), ["d1"], [0, 1], [0], [0], [0], [None]
            )

    def test_duplicate_doc_ids_rejected(self):
        with pytest.raises(CorpusError):
            build_index(
                [
                    lemma_doc("same", DateSpec.undated(), ["a"]),
                    lemma_doc("same", DateSpec.undated(), ["b"]),
                ]
            )

    def test_dated_order_sorts_by_midpoint_then_id(self):
        index = build_index(
            [
                lemma_doc("z", DateSpec.exact(900), ["a"]),
                lemma_doc("a", DateSpec.exact(900), ["a"]),
                lemma_doc("m", DateSpec.exact(700), ["a"]),
                lemma_doc("u", DateSpec.undated(), ["a"]),
            ]
        )
        ordered = [index.documents[p].doc_id for p in index.dated_order()]
        assert ordered == ["m", "a", "z"]

    def test_doc_positions_of_a_mask(self):
        index = three_doc_index()
        by_id = index.doc_positions(subcorpus(index, with_ids("a", "c")))
        mask = np.zeros(len(index), dtype=bool)
        mask[np.array([0, 2])] = True
        assert np.array_equal(by_id, index.doc_positions(mask))
        assert by_id.tolist() == [0, 2] and index.doc_positions(None).tolist() == [0, 1, 2]
        with pytest.raises(CorpusError):
            index.doc_positions({"a", "c"})

    def test_document_columns_match_documents(self):
        index = random_index(np.random.default_rng(5))
        docs = index.documents
        starts = [d.token_start for d in docs] + [index.total_tokens]
        assert index.doc_starts.tolist() == starts
        assert index.doc_dated.tolist() == [d.date.is_dated for d in docs]
        assert index.doc_mids.tolist() == [d.date.midpoint() or 0 for d in docs]
        assert index.doc_starts.dtype == np.int64 and index.doc_mids.dtype == np.int64
        for column in (index.doc_starts, index.doc_dated, index.doc_mids):
            with pytest.raises(ValueError):
                column[0] = column[-1]

    def test_doc_mask_forms(self):
        # None and a mask are the only docsets
        index = three_doc_index()
        assert index.doc_mask(None).tolist() == [True, True, True]
        mask = np.array([False, True, False])
        assert index.doc_mask(mask) is mask
        assert index.token_mask(None) is None
        assert index.token_mask(mask).tolist() == [False, False, True, False]
        assert index.doc_positions(mask).tolist() == [1]
        with pytest.raises(CorpusError, match="document mask"):
            index.doc_mask(np.array([True, False]))
        with pytest.raises(CorpusError, match="boolean mask"):
            index.doc_mask(np.array([2, 0]))

    def test_partial_docset_queries_build_no_token_mask(self, monkeypatch):
        # a partial docset is counted through its own token positions
        index = three_doc_index()

        def refuse(self, docset):
            raise AssertionError("corpus-length token mask built")

        monkeypatch.setattr(CorpusIndex, "token_mask", refuse)
        docset = subcorpus(index, with_ids("a", "b"))
        assert lemma_count(index, docset, "pater") == 2
        assert form_share(index, docset, "pater", ["pater"]) == 1.0
        assert lemma_rank(index, docset, "pater") == 1
        assert count_table(index, ["pater"], [docset]).counts.tolist() == [[2]]
        assert top_cooccurrents(index, docset, "pater", 2, 5, pos_filter=["NOM"])
        assert evolving_cooccurrents(index, make_tranches(index, 2), "pater", 2, ["NOM"]).entries

    @pytest.mark.parametrize("date", [DateSpec.exact(2**70), DateSpec.year_range(-(2**70), 5)])
    def test_date_midpoint_beyond_int64_rejected(self, date):
        with pytest.raises(CorpusError, match="^a document's date is outside int32$"):
            index_from_documents([("a", date, None, [("x", "NOM", "x")])])

    def test_queries_cache_no_token_length_array(self):
        # beyond its three token columns, an index holds nothing as long as
        # the corpus, whatever queries have run on it; its position cache
        # holds only the lemmas looked up on their own, fewer positions than
        # there are tokens
        index = random_index(np.random.default_rng(4), min_tokens=300, max_vocab=12)
        a, b = index.lemmas[0], index.lemmas[1]
        half = np.arange(len(index)) % 2 == 0
        for docset in (None, half):
            top_cooccurrents(index, docset, a, 3, 5, pos_filter=["NOM"])
            cooc_counts(index, docset, a, 2)
            adjacency_count(index, docset, a, b)
            pair_evolution(index, a, b, 2, 100, docset=docset)
            time_series(index, a, 50, docset=docset)
            lemma_count(index, docset, a)
            form_share(index, docset, a, [a])
            semantic_map(index, docset, a, 2, 4)
        evolving_cooccurrents(index, make_tranches(index, 3), a, 2, pos_filter=["NOM"])
        token_columns = {"lemma_ids", "form_ids", "pos_ids"}
        token_length = [
            name
            for name, value in vars(index).items()
            if isinstance(value, np.ndarray) and value.size == index.total_tokens
        ]
        assert set(token_length) == token_columns
        # the pivot a and the pair (a, b); the field maps gather their terms
        assert set(index._positions) == {0, 1}
        for lid, positions in index._positions.items():
            assert positions.tolist() == np.flatnonzero(index.lemma_ids == lid).tolist()
        assert sum(map(len, index._positions.values())) < index.total_tokens


@st.composite
def docset_cases(draw):
    """(document records, lemma names, docset ids): a small corpus with
    empty, undated, exact and ranged documents and mixed forms and POS
    tags, and a random subset of its document ids."""
    names = [f"l{v}" for v in range(draw(st.integers(1, 4)))]
    token = st.tuples(st.sampled_from(names), st.sampled_from(POS_TAGS), st.booleans())
    docs = []
    for i in range(draw(st.integers(1, 6))):
        lo = draw(st.none() | st.integers(800, 1100))
        if lo is None:
            date = DateSpec.undated()
        else:
            date = DateSpec.year_range(lo, lo + draw(st.integers(0, 60)))
        tokens = draw(st.lists(token, max_size=15))
        records = [(lem + "a" if alt else lem, pos, lem) for lem, pos, alt in tokens]
        docs.append((f"d{i}", date, None, records))
    ids = draw(st.sets(st.sampled_from([d[0] for d in docs])))
    return docs, names, ids


def _outcome(fn):
    try:
        return fn()
    except CorpusError as exc:
        return f"error: {exc}"


def _docset_queries(index, docset, names, window, bin_width):
    a, b = names[0], names[-1]
    return [
        lemma_count(index, docset, a),
        count_table(index, names, [docset]).counts.tolist(),
        lemma_rank(index, docset, a),
        _outcome(lambda: form_share(index, docset, a, [a])),
        time_series(index, a, bin_width, docset=docset),
        top_cooccurrents(index, docset, a, window, 5, pos_filter=["NOM", "ADJ"]),
        top_cooccurrents(index, docset, a, window, 5, pos_filter=["VER"]),
        pair_evolution(index, a, b, window, bin_width, docset=docset),
        adjacency_count(index, docset, a, b),
    ]


class TestDocsetForms:
    @settings(max_examples=80, deadline=None)
    @given(docset_cases(), st.integers(1, 4), st.integers(1, 80))
    def test_docset_forms_agree_with_a_subset_index(self, case, window, bin_width):
        # a mask set at the documents' positions and the with_ids filter of
        # their ids (reversed and repeated) give the answers of an index
        # built from those documents alone
        docs, names, ids = case
        index = build_index(docs)
        mask = np.zeros(len(index), dtype=bool)
        mask[[index.position_of(d) for d in ids]] = True
        by_ids = subcorpus(index, with_ids(*sorted(ids, reverse=True), *ids))
        alone = build_index([d for d in docs if d[0] in ids])
        expected = _docset_queries(alone, None, names, window, bin_width)
        for docset in (mask, by_ids):
            assert _docset_queries(index, docset, names, window, bin_width) == expected
            assert index.doc_positions(docset).tolist() == np.flatnonzero(mask).tolist()

    @settings(max_examples=60, deadline=None)
    @given(docset_cases(), st.integers(1, 4), st.sampled_from([["NOM", "ADJ"], ["VER"]]))
    def test_tranche_candidates_are_the_dated_docset_collocates(self, case, window, pos):
        # tranches cover the dated documents, so the candidates (any pair,
        # POS majority over the dated documents) are the collocates there
        docs, names, _ = case
        index = build_index(docs)
        assume(len(index.dated_order()) >= 2)
        everything = len(index.lemmas) + 1
        tranches = make_tranches(index, 2)
        report = evolving_cooccurrents(index, tranches, names[0], window, pos, top_n=everything)
        ranked = top_cooccurrents(index, subcorpus(index, is_dated), names[0], window, everything, pos)
        assert {e.lemma for e in report.entries} == {c.lemma for c in ranked}


def _order_free_answers(index, ids, a, b, window):
    """Every public query's answer for lemmas ``a`` and ``b`` over the
    documents ``ids`` (None: every document), in terms that name no
    document position."""
    docset = None if ids is None else subcorpus(index, with_ids(*ids))
    table = count_table(index, [a, b], [docset, None])
    return [
        lemma_count(index, docset, a),
        (table.lemmas, table.labels, table.counts.tolist()),
        lemma_rank(index, docset, b),
        _outcome(lambda: form_share(index, docset, a, [a])),
        time_series(index, a, 50, docset=docset),
        cooc_counts(index, docset, a, window),
        top_cooccurrents(index, docset, a, window, 6),
        top_cooccurrents(index, docset, a, window, 6, pos_filter=["NOM", "ADJ"]),
        adjacency_count(index, docset, a, b),
        pair_evolution(index, a, b, window, 50, docset=docset),
        _outcome(lambda: semantic_map(index, docset, a, window, 4)),
    ]


def _order_free_tranches(index, a, window):
    """The documents of 3 tranches by id, their boundaries and token masses,
    and the collocates of ``a`` that evolve across them."""
    tranches = make_tranches(index, 3)
    docs = [index.doc_ids[p] for p in tranches.doc_order]
    return docs, tranches.boundaries, tranches.token_masses, evolving_cooccurrents(index, tranches, a, window)


def _check_document_order_free(index, order, window):
    shuffled = permuted_documents(index, order)
    assert [shuffled.doc_ids[i] for i in range(len(index))] == [index.doc_ids[p] for p in order]
    a, b = index.lemmas[0], index.lemmas[len(index.lemmas) // 2]
    for ids in (None, index.doc_ids.entries[::2]):
        got, expected = (_order_free_answers(i, ids, a, b, window) for i in (shuffled, index))
        assert got == expected
    got, expected = (_outcome(lambda: _order_free_tranches(i, a, window)) for i in (shuffled, index))
    assert got == expected


class TestDocumentOrder:
    # every query answers the same on a copy of the index that stores its
    # documents in another order: no result depends on document position

    @settings(max_examples=80, deadline=None)
    @given(corpora(st.integers(1, 6), tagged=True), st.integers(1, 4), st.data())
    def test_small_corpora(self, index, window, data):
        _check_document_order_free(index, data.draw(st.permutations(range(len(index)))), window)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 4))
    def test_random_indexes(self, seed, window):
        rng = np.random.default_rng(seed)
        index = random_index(rng, max_tokens=600, max_vocab=12)
        _check_document_order_free(index, rng.permutation(len(index)), window)


def _columns(**changes):
    """Document columns of a valid two-document, three-token index, with
    ``changes`` applied."""
    columns = dict(
        doc_ids=["a", "b"],
        doc_starts=[0, 1, 3],
        doc_kind=[DateKind.EXACT, DateKind.RANGE],
        doc_lo=[900, 950],
        doc_hi=[900, 990],
        doc_typology=[None, "charter"],
    )
    columns.update(changes)
    vocab = Vocabulary(["a"])
    ids = np.zeros(3, dtype=np.uint32)
    return CorpusIndex(vocab, vocab, vocab, ids, ids, ids.astype(np.uint16), **columns)


class TestDocumentColumns:
    def test_valid_columns(self):
        index = _columns()
        assert len(index) == 2 and index.position_of("b") == 1
        assert index.doc_mids.tolist() == [900, 970]
        assert index.doc_dated.tolist() == [True, True]
        for column in (index.doc_kind, index.doc_lo, index.doc_hi):
            assert column.dtype == np.int64
            with pytest.raises(ValueError):
                column[0] = 0

    @pytest.mark.parametrize(
        "changes, message",
        [
            ({"doc_kind": [DateKind.EXACT]}, "document columns differ in length"),
            ({"doc_starts": [0, 1]}, "document columns differ in length"),
            ({"doc_starts": [1, 1, 3]}, "documents start at token 1, expected 0"),
            ({"doc_starts": [0, 4, 3]}, "document 'b': token length -1 is negative"),
            ({"doc_starts": [0, 1, 2]}, "documents cover 2 tokens, arrays hold 3"),
            ({"doc_kind": [3, DateKind.RANGE]}, "document 'a': invalid date kind 3"),
            ({"doc_kind": [DateKind.UNDATED, DateKind.RANGE]}, "document 'a': undated, yet carries years"),
            ({"doc_hi": [901, 990]}, "document 'a': exact date spans 900..901"),
            ({"doc_lo": [900, 991]}, "document 'b': date interval reversed: 991 > 990"),
            ({"doc_ids": ["a", "a"]}, "duplicate document id: 'a'"),
        ],
        ids=[
            "length-mismatch", "starts-length", "first-start", "decreasing-starts", "cover",
            "kind-3", "undated-with-years", "exact-spans", "reversed-range", "duplicate-id",
        ],
    )
    def test_malformed_columns_raise_one_line_errors(self, changes, message):
        with pytest.raises(CorpusError, match=message) as caught:
            _columns(**changes)
        assert "\n" not in str(caught.value)

    @pytest.mark.parametrize(
        "changes, column",
        [
            ({"doc_lo": np.array([2**64 - 5, 950], np.uint64), "doc_hi": [2**64 - 5, 990]}, "doc_lo"),
            ({"doc_lo": np.array([900.7, 950.0])}, "doc_lo"),
            ({"doc_hi": [900.7, 990]}, "doc_hi"),
            ({"doc_hi": [float("nan"), 990]}, "doc_hi"),
            ({"doc_starts": [0, 2.5, 3]}, "doc_starts"),
            ({"doc_kind": np.array([1.0, 2.0])}, "doc_kind"),
        ],
        ids=["uint64-year", "float-year-array", "float-year-list", "nan-year", "float-start", "float-kind"],
    )
    def test_column_that_does_not_convert_exactly_is_rejected(self, changes, column):
        # a cast to int64 would wrap 2**64 - 5 to -5 and truncate 900.7 and 2.5
        message = f"^{column} holds values that do not convert to int64 exactly$"
        with pytest.raises(CorpusError, match=message):
            _columns(**changes)

    @pytest.mark.parametrize("dtype", [np.int32, np.int64, np.uint32, np.uint64])
    def test_integer_array_columns_build(self, dtype):
        columns = {"doc_starts": [0, 1, 3], "doc_kind": [1, 2], "doc_lo": [900, 950], "doc_hi": [900, 990]}
        index = _columns(**{name: np.array(values, dtype) for name, values in columns.items()})
        assert index == _columns()
        assert index.doc_lo.dtype == np.int64 and index.doc_lo.tolist() == [900, 950]

    def test_empty_list_columns_build(self):
        vocab = Vocabulary(["a"])
        ids = np.zeros(0, dtype=np.uint32)
        index = CorpusIndex(vocab, vocab, vocab, ids, ids, ids.astype(np.uint16), [], [0], [], [], [], [])
        assert len(index) == 0 and index.total_tokens == 0
        assert index.doc_kind.dtype == np.int64 and index.doc_starts.tolist() == [0]

    @pytest.mark.parametrize(
        "lo, hi", [(-(2**31), -(2**31)), (2**31 - 1, 2**31 - 1), (-(2**31), 2**31 - 1), (-3, 0)]
    )
    def test_midpoints_at_the_int32_limits_are_exact(self, lo, hi):
        date = DateSpec.year_range(lo, hi)
        index = index_from_documents([lemma_doc("a", date, ["x"]), lemma_doc("b", DateSpec.exact(0), ["x"])])
        assert index.doc_mids.tolist() == [(lo + hi) // 2, 0]
        assert index.documents[0].date == date
        assert index.dated_order() == ((0, 1) if (lo + hi) // 2 < 0 else (1, 0))

    @settings(max_examples=100, deadline=None)
    @given(corpus_records(typologies=st.sampled_from(["charter", "", None])))
    def test_columns_hold_the_records_and_round_trip(self, docs):
        index = build_index(docs)
        starts = np.cumsum([0] + [len(tokens) for *_, tokens in docs]).tolist()
        assert index.documents == tuple(
            Document(doc_id, date, typology or None, start, len(tokens))
            for (doc_id, date, typology, tokens), start in zip(docs, starts)
        )
        dated = [p for p, (_, date, _, _) in enumerate(docs) if date.is_dated]
        assert index.dated_order() == tuple(
            sorted(dated, key=lambda p: (docs[p][1].midpoint(), docs[p][0]))
        )
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "x.csem"
            save_index(index, path)
            loaded = load_index(path)
        assert loaded == index
        assert loaded.documents == index.documents
