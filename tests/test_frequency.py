import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diachrona import frequency
from diachrona.corpus import CorpusError, CorpusIndex, DateKind, DateSpec, Vocabulary, dated_within, subcorpus
from diachrona.frequency import (
    CountTable,
    _bin_counts,
    _docset_counts,
    _docset_runs,
    _docset_values,
    _MAX_YEAR_BINS,
    _lemma_pos_counts,
    _lemma_positions,
    _occurrence_docs,
    _occurrences,
    _year_bins,
    count_table,
    form_share,
    lemma_count,
    lemma_rank,
    moving_average,
    ratio,
    time_series,
)

from diachrona.indexio import load_index, save_index
from diachrona.synth import synthetic_index

from conftest import build_index, corpora, doc_lemma_lists, id_docset, lemma_doc, random_index


@st.composite
def masked_corpora(draw):
    """(index, document mask): a tagged corpus and a random mask over its documents."""
    index = draw(corpora(tagged=True))
    flags = draw(st.lists(st.booleans(), min_size=len(index), max_size=len(index)))
    return index, np.array(flags, dtype=bool)


def _per_token_lemmas(index, dmask):
    """(document, lemma string) of every token inside the document mask."""
    return [
        (doc, index.lemmas[int(index.lemma_ids[t])])
        for doc, inside in zip(index.documents, dmask)
        for t in (range(doc.token_start, doc.token_start + doc.token_len) if inside else ())
    ]


class TestLemmaCount:
    def test_hand_count(self):
        index = build_index([lemma_doc("d", DateSpec.undated(), ["pater", "pater", "filius"])])
        assert lemma_count(index, None, "pater") == 2

    def test_absent_lemma_is_zero(self):
        index = build_index([lemma_doc("d", DateSpec.undated(), ["pater"])])
        assert lemma_count(index, None, "nemo") == 0

    def test_per_document_counts_sum_to_total(self):
        rng = np.random.default_rng(3)
        for _ in range(5):
            index = random_index(rng, min_tokens=50, max_tokens=400)
            lemma = index.lemmas[0]
            total = lemma_count(index, None, lemma)
            positions = np.arange(len(index))
            parts = sum(lemma_count(index, positions == i, lemma) for i in positions)
            assert parts == total

    def test_additivity_over_disjoint_docsets(self):
        rng = np.random.default_rng(4)
        index = random_index(rng, min_tokens=100, max_tokens=400)
        a = np.arange(len(index)) < len(index) // 2
        b = ~a
        lemma = index.lemmas[0]
        assert lemma_count(index, a, lemma) + lemma_count(index, b, lemma) == lemma_count(
            index, a | b, lemma
        )

    @settings(max_examples=60, deadline=None)
    @given(masked_corpora())
    def test_matches_per_token_counting_on_random_docsets(self, case):
        index, dmask = case
        tokens = _per_token_lemmas(index, dmask)
        for lemma in [*index.lemmas, "nemo"]:
            expected = sum(lem == lemma for _, lem in tokens)
            assert lemma_count(index, dmask, lemma) == expected


@pytest.mark.usefixtures("loaded_indexes")
class TestLemmaCountOnALoadedIndex(TestLemmaCount):
    """The lemma count tests again, on indexes read back from their file in
    either format."""


class TestCountTable:
    def test_one_by_one_degenerates_to_lemma_count(self):
        index = build_index([lemma_doc("d", DateSpec.undated(), ["a", "a", "b"])])
        table = count_table(index, ["a"], [None])
        assert table.counts.shape == (1, 1)
        assert int(table.counts[0, 0]) == lemma_count(index, None, "a")
        assert table.grand_total == 2

    def test_sums_match_brute_force_recount(self):
        rng = np.random.default_rng(9)
        index = random_index(rng, min_tokens=100, max_tokens=500)
        lemmas = [index.lemmas[i] for i in range(min(4, len(index.lemmas)))]
        ids = [d.doc_id for d in index.documents]
        docsets = [set(ids[: len(ids) // 2]), set(ids[len(ids) // 2 :])]
        table = count_table(index, lemmas, [id_docset(index, d) for d in docsets], labels=["early", "late"])

        by_doc = doc_lemma_lists(index)
        id_to_pos = {d.doc_id: i for i, d in enumerate(index.documents)}
        for i, lemma in enumerate(lemmas):
            for j, docset in enumerate(docsets):
                expected = sum(by_doc[id_to_pos[did]].count(lemma) for did in docset)
                assert table.counts[i, j] == expected
        assert np.array_equal(table.row_sums, table.counts.sum(axis=1))
        assert np.array_equal(table.col_sums, table.counts.sum(axis=0))
        assert table.grand_total == int(table.counts.sum())

    def test_repeated_lemma_is_an_error(self):
        index = random_index(np.random.default_rng(1))
        a, b = index.lemmas[0], index.lemmas[1]
        for lemmas in ([a, a], [a, b, a]):
            with pytest.raises(CorpusError, match=f"^lemma {a!r} is listed twice$"):
                count_table(index, lemmas, [None])
        empty = count_table(index, [], [None, None])
        assert empty.counts.shape == (0, 2) and empty.grand_total == 0

    def test_from_counts_validates_shape(self):
        with pytest.raises(CorpusError):
            CountTable.from_counts(["a"], ["x", "y"], [[1]])


class TestRatio:
    def test_identity(self):
        for x in (1, 17, 301528):
            assert ratio(x, x).value == 1.0

    def test_published_style_values(self):
        assert ratio(8670, 3244).value == pytest.approx(2.6726, abs=5e-4)
        assert ratio(50273, 8143).value == pytest.approx(6.1738, abs=5e-4)

    def test_operands_reported(self):
        r = ratio(10, 4)
        assert (r.a, r.b) == (10, 4)
        assert float(r) == 2.5

    def test_zero_denominator_is_error_not_inf(self):
        with pytest.raises(CorpusError):
            ratio(5, 0)


class TestLemmaRank:
    def test_spec_tie_breaking(self):
        index = build_index(
            [lemma_doc("d", DateSpec.undated(), ["a"] * 5 + ["b"] * 3 + ["c"] * 3 + ["d"])]
        )
        assert lemma_rank(index, None, "a") == 1
        assert lemma_rank(index, None, "b") == 2
        assert lemma_rank(index, None, "c") == 3
        assert lemma_rank(index, None, "d") == 4

    def test_single_lemma_corpus(self):
        index = build_index([lemma_doc("d", DateSpec.undated(), ["solus"])])
        assert lemma_rank(index, None, "solus") == 1

    def test_rank_invariant_under_corpus_duplication(self):
        rng = np.random.default_rng(12)
        index = random_index(rng, min_tokens=100, max_tokens=300)
        doubled = build_index(
            [
                (f"c{i}", d.date, d.typology, [
                    (index.forms[int(f)], index.pos_tags[int(p)], index.lemmas[int(l)])
                    for f, p, l in zip(
                        index.form_ids[d.token_start : d.token_start + d.token_len],
                        index.pos_ids[d.token_start : d.token_start + d.token_len],
                        index.lemma_ids[d.token_start : d.token_start + d.token_len],
                    )
                ] * 2)
                for i, d in enumerate(index.documents)
            ]
        )
        for lid in range(len(index.lemmas)):
            lemma = index.lemmas[lid]
            assert lemma_rank(index, None, lemma) == lemma_rank(doubled, None, lemma)

    def test_absent_lemma_reports_not_present(self):
        index = build_index([lemma_doc("d", DateSpec.undated(), ["a"])])
        assert lemma_rank(index, None, "zzz") is None

    def test_rank_consistency_counts_non_increasing(self):
        rng = np.random.default_rng(13)
        index = random_index(rng, min_tokens=200, max_tokens=600)
        freqs = {}
        for lid in range(len(index.lemmas)):
            lemma = index.lemmas[lid]
            count = lemma_count(index, None, lemma)
            if count:
                freqs[lemma_rank(index, None, lemma)] = count
        ranks = sorted(freqs)
        assert ranks == list(range(1, len(ranks) + 1))
        for r1, r2 in zip(ranks, ranks[1:]):
            assert freqs[r1] >= freqs[r2]


@pytest.mark.usefixtures("loaded_indexes")
class TestLemmaRankOnALoadedIndex(TestLemmaRank):
    """The rank tests again, on indexes read back from their file in
    either format."""


_FORM_POOL = ("a", "A", "b", "B", "ab", "aB")


@st.composite
def form_share_cases(draw):
    """(index, document mask, lemma, wanted forms): forms are drawn from a
    small case-varied pool independently of the lemma, so other lemmas
    often carry forms that casefold to a wanted one."""
    docs = []
    for i in range(draw(st.integers(1, 6))):
        pairs = draw(st.lists(st.tuples(st.sampled_from(_FORM_POOL), st.integers(0, 2)), max_size=15))
        docs.append((f"d{i}", DateSpec.undated(), None, [(f, "NOM", f"l{v}") for f, v in pairs]))
    docs[0][3].append(("a", "NOM", "l0"))
    index = build_index(docs)
    flags = draw(st.lists(st.booleans(), min_size=len(index), max_size=len(index)))
    lemma = draw(st.sampled_from(["l0", "l1", "l2"]))
    wanted = draw(st.sets(st.sampled_from(_FORM_POOL + ("AB", "c"))))
    return index, np.array(flags, dtype=bool), lemma, wanted


class TestFormShare:
    def test_hand_counted_share(self):
        index = build_index(
            [
                (
                    "d",
                    DateSpec.undated(),
                    None,
                    [
                        ("pater", "NOM", "pater"),
                        ("patres", "NOM", "pater"),
                        ("patris", "NOM", "pater"),
                        ("patribus", "NOM", "pater"),
                    ],
                )
            ]
        )
        share = form_share(index, None, "pater", {"patres", "patrum", "patribus"})
        assert share == 0.5

    def test_exhaustive_forms_give_one(self):
        index = build_index(
            [("d", DateSpec.undated(), None, [("Pater", "NOM", "pater"), ("patres", "NOM", "pater")])]
        )
        assert form_share(index, None, "pater", {"PATER", "Patres"}) == 1.0

    def test_empty_form_set_gives_zero(self):
        index = build_index([lemma_doc("d", DateSpec.undated(), ["pater"])])
        assert form_share(index, None, "pater", set()) == 0.0

    def test_zero_lemma_count_is_error(self):
        index = build_index([lemma_doc("d", DateSpec.undated(), ["alius"])])
        with pytest.raises(CorpusError):
            form_share(index, None, "pater", {"patres"})

    def test_other_lemmas_forms_never_count(self):
        tokens = [("Pater", "NOM", "pater"), ("patres", "NOM", "pater")]
        tokens += [("PATER", "NOM", "alius"), ("pater", "NOM", "alius")]
        index = build_index([("d", DateSpec.undated(), None, tokens)])
        assert form_share(index, None, "pater", {"pater"}) == 0.5

    @settings(max_examples=80, deadline=None)
    @given(form_share_cases())
    def test_matches_per_token_brute_force(self, case):
        index, dmask, lemma, wanted = case
        folded = {w.casefold() for w in wanted}
        total = hits = 0
        for doc, inside in zip(index.documents, dmask):
            for t in range(doc.token_start, doc.token_start + doc.token_len) if inside else ():
                if index.lemmas[int(index.lemma_ids[t])] == lemma:
                    total += 1
                    hits += index.forms[int(index.form_ids[t])].casefold() in folded
        if total == 0:
            with pytest.raises(CorpusError):
                form_share(index, dmask, lemma, wanted)
        else:
            assert form_share(index, dmask, lemma, wanted) == hits / total


@pytest.mark.usefixtures("loaded_indexes")
class TestFormShareOnALoadedIndex(TestFormShare):
    """The form share tests again, on indexes read back from their file in
    either format; a version 2 index splits its forms on first use."""


class TestTimeSeries:
    def test_bin_membership(self):
        index = build_index(
            [
                lemma_doc("a", DateSpec.exact(856), ["pater", "alius"]),
                lemma_doc("b", DateSpec.exact(1100), ["pater"]),
            ]
        )
        series = time_series(index, "pater", 100)
        starts = [b.start_year for b in series.bins]
        assert starts == [800, 900, 1000, 1100]
        by_start = {b.start_year: b for b in series.bins}
        assert by_start[800].count == 1
        assert by_start[1100].count == 1
        assert by_start[900].count == 0 and by_start[900].token_mass == 0
        assert by_start[900].per_million is None

    def test_all_undated_yields_empty_series(self):
        index = build_index([lemma_doc("a", DateSpec.undated(), ["pater"])])
        assert time_series(index, "pater", 50).bins == ()

    def test_conservation_against_recount(self):
        rng = np.random.default_rng(21)
        for _ in range(5):
            index = random_index(rng, min_tokens=100, max_tokens=600, dated_fraction=0.7)
            lemma = index.lemmas[0]
            series = time_series(index, lemma, 50)
            dated = {d.doc_id for d in index.documents if d.date.is_dated}
            assert series.total_count() == lemma_count(index, id_docset(index, dated), lemma)

    def test_range_documents_bin_by_midpoint(self):
        index = build_index([lemma_doc("a", DateSpec.year_range(774, 800), ["x"])])
        series = time_series(index, "x", 50)
        assert series.bins[0].start_year == 750  # midpoint 787

    def test_per_million_bounds(self):
        rng = np.random.default_rng(22)
        index = random_index(rng, min_tokens=200, max_tokens=800)
        for lid in range(min(5, len(index.lemmas))):
            series = time_series(index, index.lemmas[lid], 25)
            for b in series.bins:
                if b.per_million is not None:
                    assert 0.0 <= b.per_million <= 1e6

    def test_bin_width_validated(self):
        index = build_index([lemma_doc("a", DateSpec.exact(800), ["x"])])
        with pytest.raises(CorpusError):
            time_series(index, "x", 0)

    @pytest.mark.parametrize("bin_width", [2**63, 10**20])
    def test_bin_width_beyond_int64_rejected(self, bin_width):
        index = build_index([lemma_doc("a", DateSpec.exact(800), ["x"])])
        with pytest.raises(CorpusError, match="bin width must be <="):
            time_series(index, "x", bin_width)

    def test_too_many_year_bins_rejected(self):
        # int32 extremes are valid stored dates; at width 1 they span 2**32 bins
        index = build_index(
            [
                lemma_doc("a", DateSpec.exact(-(2**31)), ["x"]),
                lemma_doc("b", DateSpec.exact(2**31 - 1), ["x"]),
            ]
        )
        with pytest.raises(CorpusError, match="4294967296 year bins of width 1 exceed"):
            time_series(index, "x", 1)
        assert len(time_series(index, "x", 2**31).bins) == 2

    def test_parsable_year_range_fits_at_width_one(self):
        index = build_index(
            [
                lemma_doc("a", DateSpec.exact(0), ["x"]),
                lemma_doc("b", DateSpec.exact(999_999), ["x"]),
            ]
        )
        lo, n_bins, _ = _year_bins(index, index.doc_mask(None), 1)
        assert (lo, n_bins) == (0, _MAX_YEAR_BINS)

    @settings(max_examples=60, deadline=None)
    @given(masked_corpora(), st.integers(1, 150))
    def test_bins_match_per_token_counting_on_random_docsets(self, case, bin_width):
        index, dmask = case
        masses = {}
        for doc, inside in zip(index.documents, dmask):
            if inside and doc.date.is_dated:
                start = doc.date.midpoint() // bin_width * bin_width
                masses[start] = masses.get(start, 0) + doc.token_len
        starts = range(min(masses), max(masses) + 1, bin_width) if masses else range(0)
        tokens = _per_token_lemmas(index, dmask)
        for lemma in [*index.lemmas, "nemo"]:
            counts = dict.fromkeys(starts, 0)
            for doc, lem in tokens:
                if lem == lemma and doc.date.is_dated:
                    counts[doc.date.midpoint() // bin_width * bin_width] += 1
            series = time_series(index, lemma, bin_width, docset=dmask)
            assert [b.start_year for b in series.bins] == list(starts)
            assert [b.count for b in series.bins] == [counts[s] for s in starts]
            assert [b.token_mass for b in series.bins] == [masses.get(s, 0) for s in starts]


@pytest.mark.usefixtures("loaded_indexes")
class TestTimeSeriesOnALoadedIndex(TestTimeSeries):
    """The time series tests again, on indexes read back from their file in
    either format."""


class TestMovingAverage:
    def test_centered_window(self):
        assert moving_average([1.0, 2.0, 3.0], 3) == [1.5, 2.0, 2.5]

    def test_none_entries_skipped(self):
        out = moving_average([1.0, None, 3.0], 3)
        assert out == [1.0, 2.0, 3.0]

    def test_even_window_rejected(self):
        with pytest.raises(CorpusError):
            moving_average([1.0], 2)


# chunk lengths for the chunked counters: one token, a few, and the default
_chunks = st.sampled_from([1, 2, 3, 7, frequency._CHUNK])


class TestDocsetCountProperties:
    @settings(max_examples=60, deadline=None)
    @given(masked_corpora())
    def test_docset_values_are_the_token_mask_selection(self, case):
        index, dmask = case
        tokens = np.repeat(dmask, np.diff(index.doc_starts))
        for column in (index.lemma_ids, index.pos_ids):
            values = _docset_values(column, *_docset_runs(index, dmask))
            assert values.dtype == column.dtype
            assert values.tolist() == column[tokens].tolist()

    @settings(max_examples=60, deadline=None)
    @given(masked_corpora(), _chunks, st.data())
    def test_docset_counts_match_per_token_counting(self, case, chunk, data):
        index, dmask = case
        expected = np.zeros((len(index.lemmas), len(index.pos_tags)), dtype=np.int64)
        for doc, inside in zip(index.documents, dmask):
            span = range(doc.token_start, doc.token_start + doc.token_len)
            for t in span if inside else ():
                expected[index.lemma_ids[t], index.pos_ids[t]] += 1
        flags = data.draw(st.lists(st.booleans(), min_size=len(index.pos_tags), max_size=len(index.pos_tags)))
        allowed = np.array(flags, dtype=bool)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(frequency, "_CHUNK", chunk)
            counts = _docset_counts(index, dmask)
            totals, good = _docset_counts(index, dmask, allowed)
        assert counts.dtype == np.int64
        assert counts.tolist() == totals.tolist() == expected.sum(axis=1).tolist()
        assert good.tolist() == expected[:, allowed].sum(axis=1).tolist()

    @settings(max_examples=30, deadline=None)
    @given(corpora(tagged=True), _chunks)
    def test_full_table_is_cached_read_only(self, index, chunk):
        # class-major: a row per POS tag, a column per lemma
        expected = np.zeros((len(index.pos_tags), len(index.lemmas)), dtype=np.int64)
        np.add.at(expected, (index.pos_ids, index.lemma_ids), 1)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(frequency, "_CHUNK", chunk)
            table = _lemma_pos_counts(index)
        assert table.dtype == np.int64
        assert table.flags.c_contiguous
        assert table.shape == expected.shape
        assert table.tolist() == expected.tolist()
        assert _lemma_pos_counts(index) is table
        assert not table.flags.writeable
        with pytest.raises(ValueError):
            table[0, 0] += 1

    def test_full_table_temporaries_are_bounded_by_the_chunk(self, monkeypatch):
        index = synthetic_index(1_000_000, 2_000, 2_000, seed=13)
        chunk = 1 << 14
        monkeypatch.setattr(frequency, "_CHUNK", chunk)
        table, peak = _peak_bytes(lambda: _lemma_pos_counts(index))
        # the kept table, one bincount of its size, and a few chunk-long
        # intp buffers; never a token-long key array
        assert peak < 2 * table.nbytes + 3 * 8 * chunk + (64 << 10)

    @pytest.mark.parametrize("n_tags", [3, 600])
    def test_partial_pos_count_temporaries_follow_the_docset(self, monkeypatch, n_tags):
        index = _retagged(synthetic_index(1_000_000, 2_000, 2_000, seed=13), n_tags)
        chunk = 1 << 14
        monkeypatch.setattr(frequency, "_CHUNK", chunk)
        dmask = np.arange(len(index)) % 2 == 0  # about half the tokens, in one-document runs
        allowed = np.arange(len(index.pos_tags)) % 2 == 0
        n_docset = int(np.diff(index.doc_starts)[dmask].sum())
        counted, rows = frequency._lemma_counts, []

        def spy(n_lemmas, lemma_ids, classes=None, n_classes=1, class_of=None):
            rows.append(n_classes)
            return counted(n_lemmas, lemma_ids, classes, n_classes, class_of)

        monkeypatch.setattr(frequency, "_lemma_counts", spy)
        (totals, good), peak = _peak_bytes(lambda: _docset_counts(index, dmask, allowed))
        tokens = np.repeat(dmask, np.diff(index.doc_starts))
        assert totals.tolist() == np.bincount(index.lemma_ids[tokens], minlength=len(index.lemmas)).tolist()
        tokens &= allowed[index.pos_ids]
        assert good.tolist() == np.bincount(index.lemma_ids[tokens], minlength=len(index.lemmas)).tolist()
        # a uint32 lemma copy and a uint16 tag copy per docset token, plus a
        # few chunk-long buffers and tables of a few V-long rows: a row per
        # tag while that table has no more cells than the docset has tokens
        # (3 x 2,000 here), else two rows (not 600 x 2,000 cells); never an
        # intp key or a flag per token
        assert rows == [n_tags if n_tags * len(index.lemmas) <= n_docset else 2]
        table = 8 * rows[0] * len(index.lemmas)
        assert peak < 6 * n_docset + 3 * 8 * chunk + 4 * table + (64 << 10)


def _retagged(index, n_tags):
    """``index`` itself if it has ``n_tags`` POS tags, else a copy whose
    tokens each carry one of ``n_tags`` random tags: a fine tagset over the
    same lemmas and documents."""
    if n_tags == len(index.pos_tags):
        return index
    rng = np.random.default_rng(n_tags)
    return CorpusIndex(
        index.lemmas, index.forms, Vocabulary(f"T{i}" for i in range(n_tags)),
        index.lemma_ids, index.form_ids, rng.integers(0, n_tags, len(index.pos_ids)).astype(np.uint16),
        index.doc_ids, index.doc_starts, index.doc_kind, index.doc_lo, index.doc_hi,
        index.doc_typology, index.typologies,
    )


class TestPositionCache:
    @settings(max_examples=60, deadline=None)
    @given(masked_corpora())
    def test_each_lemma_is_scanned_once_and_cached_read_only(self, case):
        index, dmask = case
        for lid in range(len(index.lemmas)):
            positions = _occurrences(index, [lid])
            assert index._positions[lid] is positions
            assert positions.dtype == np.intp
            assert positions.tolist() == np.flatnonzero(index.lemma_ids == lid).tolist()
            assert not positions.flags.writeable
            with pytest.raises(ValueError):
                positions[:1] = 0
            # later lookups, over any docset, read the cached positions
            _occurrences(index, [lid], dmask)
            assert _occurrences(index, [lid]) is positions
            assert _lemma_positions(index, lid) is positions
        assert len(index._positions) == len(index.lemmas)

    @settings(max_examples=30, deadline=None)
    @given(masked_corpora())
    def test_a_several_lemma_gather_caches_nothing(self, case):
        index, dmask = case
        rows = list(range(len(index.lemmas)))
        for docset in (None, dmask):
            _occurrences(index, [*rows, 0], docset)  # a lemma named twice is still a gather
        assert index._positions == {}

    def test_vocabulary_beyond_16_bits(self):
        n_lemmas, n_tokens = 70_000, 5_000
        rng = np.random.default_rng(8)
        lemma_ids = rng.integers(0, n_lemmas, size=n_tokens)
        # ids that 16-bit keys would fold onto 0 and 7
        lemma_ids[:6] = [65_536, 0, 65_543, 7, 65_536, 0]
        index = CorpusIndex(
            Vocabulary(f"l{i}" for i in range(n_lemmas)),
            Vocabulary(["f"]),
            Vocabulary(["NOM"]),
            lemma_ids,
            np.zeros(n_tokens, dtype=np.uint32),
            np.zeros(n_tokens, dtype=np.uint16),
            ["a", "b"],
            [0, 3, n_tokens],
            [DateKind.UNDATED, DateKind.EXACT],
            [0, 900],
            [0, 900],
            [-1, -1],
            Vocabulary(),
        )
        for lid in (0, 7, 65_536, 65_543):
            want = np.flatnonzero(lemma_ids == lid)
            found = _occurrences(index, [lid])
            assert found.tolist() == want.tolist()
            assert _occurrence_docs(index, found).tolist() == [int(p >= 3) for p in want]
            assert lemma_count(index, None, f"l{lid}") == len(want)

    def test_caching_changes_neither_equality_nor_saved_bytes(self, tmp_path):
        index = random_index(np.random.default_rng(7))
        twin = random_index(np.random.default_rng(7))
        save_index(index, tmp_path / "before.csem")
        for lid in range(len(index.lemmas)):
            _occurrences(index, [lid])
        assert len(index._positions) == len(index.lemmas)
        save_index(index, tmp_path / "after.csem")
        assert (tmp_path / "before.csem").read_bytes() == (tmp_path / "after.csem").read_bytes()
        assert index == twin and twin == index
        assert load_index(tmp_path / "after.csem") == index

    def test_threads_sharing_an_index_read_every_lemma_right(self):
        # two threads may both scan a lemma and cache either result
        index = random_index(np.random.default_rng(9), min_tokens=2_000, max_tokens=4_000)
        scans = {lid: np.flatnonzero(index.lemma_ids == lid).tolist() for lid in range(len(index.lemmas))}
        wrong = []

        def look():
            for lid in [*scans] * 5:
                if _occurrences(index, [lid]).tolist() != scans[lid]:
                    wrong.append(lid)

        threads = [threading.Thread(target=look) for _ in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert wrong == []
        assert {lid: positions.tolist() for lid, positions in index._positions.items()} == scans

    def test_a_first_lookup_allocates_one_flag_per_token_and_its_positions(self):
        index = synthetic_index(1_000_000, 50, 2_000, seed=14)
        lid = int(np.argmax(np.bincount(index.lemma_ids)))
        positions, peak = _peak_bytes(lambda: _occurrences(index, [lid]))
        assert len(positions) > 10_000
        # the scan's bool per token and the kept intp positions; nothing else
        # as long as the corpus or the occurrences
        assert peak < index.total_tokens + 8 * len(positions) + (64 << 10)


def _peak_bytes(call):
    """(result, peak bytes that tracemalloc saw allocated during the call)."""
    tracemalloc.start()
    try:
        result = call()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestLookupCost:
    """A lookup of a cached lemma allocates for what it returns."""

    def test_a_partial_docset_gathers_only_its_occurrences(self):
        index = synthetic_index(2_000_000, 50, 2_000, seed=11)
        freqs = np.bincount(index.lemma_ids)
        lid = int(np.argmax(freqs))
        _occurrences(index, [lid])  # the scan that caches the lemma's positions
        mask = subcorpus(index, dated_within(900, 917))  # about 3% of the documents
        positions, peak = _peak_bytes(lambda: _occurrences(index, [lid], mask))
        docs = np.repeat(np.arange(len(index)), np.diff(index.doc_starts))
        want = np.flatnonzero((index.lemma_ids == lid) & mask[docs])
        assert positions.tolist() == want.tolist()
        # a few bytes per kept occurrence, plus a few per document for the runs
        bound = 24 * len(positions) + 8 * len(index) + (64 << 10)
        assert peak < bound
        assert 8 * freqs[lid] > 4 * bound  # copying the cached positions would break it

    def test_a_repeated_full_docset_count_allocates_nothing_occurrence_long(self):
        index = synthetic_index(1_000_000, 50, 2_000, seed=14)
        lid = int(np.argmax(np.bincount(index.lemma_ids)))
        lemma = index.lemmas[lid]
        count = lemma_count(index, None, lemma)  # the scan that caches the lemma's positions
        again, peak = _peak_bytes(lambda: lemma_count(index, None, lemma))
        assert again == count == np.count_nonzero(index.lemma_ids == lid) > 10_000
        # a copy of the cached positions would take 8 bytes per occurrence
        assert peak < count

    def test_a_rare_lemma_over_every_document_allocates_nothing_document_long(self):
        index = synthetic_index(400_000, 20_000, 20_000, seed=12)
        freqs = np.bincount(index.lemma_ids, minlength=len(index.lemmas))
        lid = int(np.flatnonzero((freqs > 0) & (freqs < 40))[0])
        _occurrences(index, [lid])  # the scan that caches the lemma's positions
        dmask = index.doc_mask(None)
        _, n_bins, doc_bin = _year_bins(index, dmask, 50)

        def lookup():
            positions = _occurrences(index, [lid], dmask)
            docs = _occurrence_docs(index, positions)
            return positions, docs, _bin_counts(index, positions, doc_bin, n_bins)

        (positions, docs, counts), peak = _peak_bytes(lookup)
        assert len(positions) == freqs[lid] < len(index)
        doc_of = np.repeat(np.arange(len(index)), np.diff(index.doc_starts))
        assert docs.tolist() == doc_of[positions].tolist()
        assert counts.tolist() == np.bincount(doc_bin[docs], minlength=n_bins).tolist()
        # a boolean mask over the documents would take len(index) bytes
        assert peak < len(index)
