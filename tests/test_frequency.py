import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diachrona import frequency
from diachrona.corpus import CorpusError, CorpusIndex, DateKind, DateSpec, Vocabulary
from diachrona.frequency import (
    CountTable,
    _docset_counts,
    _docset_values,
    _MAX_YEAR_BINS,
    _SCANS_BEFORE_POSTINGS,
    _lemma_pos_counts,
    _occurrences,
    _postings,
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

from conftest import build_index, corpora, doc_lemma_lists, lemma_doc, random_index


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
            parts = sum(
                lemma_count(index, {d.doc_id}, lemma) for d in index.documents
            )
            assert parts == total

    def test_additivity_over_disjoint_docsets(self):
        rng = np.random.default_rng(4)
        index = random_index(rng, min_tokens=100, max_tokens=400)
        ids = [d.doc_id for d in index.documents]
        half = len(ids) // 2
        a, b = set(ids[:half]), set(ids[half:])
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


@pytest.mark.usefixtures("lookup_path")
class TestLemmaCountOnEveryLookupPath(TestLemmaCount):
    """The lemma count tests again, with every lookup read from postings."""


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
        table = count_table(index, lemmas, docsets, labels=["early", "late"])

        by_doc = doc_lemma_lists(index)
        id_to_pos = {d.doc_id: i for i, d in enumerate(index.documents)}
        for i, lemma in enumerate(lemmas):
            for j, docset in enumerate(docsets):
                expected = sum(by_doc[id_to_pos[did]].count(lemma) for did in docset)
                assert table.counts[i, j] == expected
        assert np.array_equal(table.row_sums, table.counts.sum(axis=1))
        assert np.array_equal(table.col_sums, table.counts.sum(axis=0))
        assert table.grand_total == int(table.counts.sum())

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
            assert series.total_count() == lemma_count(index, dated, lemma)

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


@pytest.mark.usefixtures("lookup_path")
class TestTimeSeriesOnEveryLookupPath(TestTimeSeries):
    """The time series tests again, with every lookup read from postings."""


class TestMovingAverage:
    def test_centered_window(self):
        assert moving_average([1.0, 2.0, 3.0], 3) == [1.5, 2.0, 2.5]

    def test_none_entries_skipped(self):
        out = moving_average([1.0, None, 3.0], 3)
        assert out == [1.0, 2.0, 3.0]

    def test_even_window_rejected(self):
        with pytest.raises(CorpusError):
            moving_average([1.0], 2)


class TestDocsetCountProperties:
    @settings(max_examples=60, deadline=None)
    @given(masked_corpora())
    def test_docset_values_are_the_token_mask_selection(self, case):
        index, dmask = case
        tokens = np.repeat(dmask, np.diff(index.doc_starts))
        for column in (index.lemma_ids, index.pos_ids):
            values = _docset_values(index, dmask, column)
            assert values.dtype == column.dtype
            assert values.tolist() == column[tokens].tolist()

    @settings(max_examples=60, deadline=None)
    @given(masked_corpora())
    def test_docset_counts_match_per_token_counting(self, case):
        index, dmask = case
        expected = np.zeros((len(index.lemmas), len(index.pos_tags)), dtype=np.int64)
        for doc, inside in zip(index.documents, dmask):
            span = range(doc.token_start, doc.token_start + doc.token_len)
            for t in span if inside else ():
                expected[index.lemma_ids[t], index.pos_ids[t]] += 1
        counts = _docset_counts(index, dmask)
        assert counts.dtype == np.int64
        assert counts.tolist() == expected.sum(axis=1).tolist()
        allowed = np.arange(len(index.pos_tags)) % 2 == 0
        want = expected[:, allowed].sum(axis=1)
        assert _docset_counts(index, dmask, allowed)[1].tolist() == want.tolist()

    @settings(max_examples=30, deadline=None)
    @given(corpora(tagged=True))
    def test_full_table_is_cached_read_only(self, index):
        expected = np.zeros((len(index.lemmas), len(index.pos_tags)), dtype=np.int64)
        np.add.at(expected, (index.lemma_ids, index.pos_ids), 1)
        table = _lemma_pos_counts(index)
        assert table.tolist() == expected.tolist()
        assert _lemma_pos_counts(index) is table
        assert not table.flags.writeable
        with pytest.raises(ValueError):
            table[0, 0] += 1


def _check_postings(index, offsets, positions):
    """Lemma i's slice holds exactly its positions, ascending."""
    assert offsets.tolist() == [0, *np.cumsum(np.bincount(index.lemma_ids, minlength=len(index.lemmas)))]
    slice_lemma = np.repeat(np.arange(len(index.lemmas)), np.diff(offsets))
    assert index.lemma_ids[positions].tolist() == slice_lemma.tolist()
    ascending = np.diff(positions.astype(np.int64)) > 0
    assert ascending[slice_lemma[1:] == slice_lemma[:-1]].all()


class TestPostings:
    @settings(max_examples=60, deadline=None)
    @given(corpora())
    def test_each_lemma_slice_is_its_scan_read_only_and_narrow(self, index):
        offsets, positions = _postings(index)
        assert positions.dtype == np.uint32
        for lid in range(len(index.lemmas)):
            scan = np.flatnonzero(index.lemma_ids == lid)
            assert positions[offsets[lid] : offsets[lid + 1]].tolist() == scan.tolist()
        assert _postings(index)[1] is positions
        for arr in (offsets, positions):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[-1] = 0

    def test_vocabulary_beyond_16_bits_sorts_on_full_keys(self):
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
            [None, None],
        )
        offsets, positions = _postings(index)
        assert positions.dtype == np.uint32
        _check_postings(index, offsets, positions)
        for lid in (0, 7, 65_536, 65_543):
            want = np.flatnonzero(lemma_ids == lid)
            found, per_doc = _occurrences(index, [lid])
            assert found.tolist() == want.tolist()
            assert per_doc.tolist() == [np.count_nonzero(want < 3), np.count_nonzero(want >= 3)]

    def test_built_on_the_lookup_after_the_scan_threshold(self):
        index = random_index(np.random.default_rng(5))
        lemma = index.lemmas[0]
        expected = lemma_count(index, None, lemma)
        for _ in range(_SCANS_BEFORE_POSTINGS - 1):
            _occurrences(index, [0, 1])  # several lemmas are a gather pass and do not count
            assert lemma_count(index, None, lemma) == expected
        assert index._postings is None
        assert lemma_count(index, None, lemma) == expected
        assert index._postings is not None
        _check_postings(index, *index._postings)

    def test_postings_lookup_gives_signed_positions(self, monkeypatch):
        monkeypatch.setattr(frequency, "_SCANS_BEFORE_POSTINGS", 0)
        index = random_index(np.random.default_rng(6))
        positions, _ = _occurrences(index, [0])
        assert positions.dtype == np.intp
        assert (positions - index.total_tokens < 0).all()

    def test_building_changes_neither_equality_nor_saved_bytes(self, tmp_path):
        index = random_index(np.random.default_rng(7))
        twin = random_index(np.random.default_rng(7))
        save_index(index, tmp_path / "before.csem")
        _postings(index)
        save_index(index, tmp_path / "after.csem")
        assert (tmp_path / "before.csem").read_bytes() == (tmp_path / "after.csem").read_bytes()
        assert index == twin and twin == index
        assert load_index(tmp_path / "after.csem") == index
