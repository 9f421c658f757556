import numpy as np
import pytest

from diachrona.corpus import CorpusError, DateSpec
from diachrona.semfield import build_submatrix, correspondence_analysis, semantic_map

from conftest import build_index, doc_lemma_lists, lemma_doc, random_index


def chi_square_over_n(table):
    """Independent total-inertia oracle: chi-square / grand total."""
    t = np.asarray(table, dtype=np.float64)
    n = t.sum()
    expected = np.outer(t.sum(axis=1), t.sum(axis=0)) / n
    return float(np.sum((t - expected) ** 2 / expected) / n)


class TestCorrespondenceAnalysis:
    def test_independence_table_has_zero_inertia(self):
        result = correspondence_analysis([[4, 2], [2, 1]])
        assert result.total_inertia <= 1e-12
        assert np.all(np.abs(result.row_coords) <= 1e-9)

    def test_identity_table(self):
        result = correspondence_analysis([[1, 0], [0, 1]])
        xs = result.row_coords[:, 0]
        assert abs(abs(xs[0]) - 1.0) <= 1e-10 and abs(abs(xs[1]) - 1.0) <= 1e-10
        assert xs[0] == pytest.approx(-xs[1], abs=1e-10)
        assert result.inertia_fractions[0] == pytest.approx(1.0, abs=1e-12)
        assert result.inertia_fractions[1] == pytest.approx(0.0, abs=1e-12)

    def test_total_inertia_matches_chi_square_oracle(self):
        rng = np.random.default_rng(81)
        for _ in range(30):
            m = int(rng.integers(2, 12))
            n = int(rng.integers(2, 12))
            table = rng.integers(1, 40, size=(m, n)).astype(float)
            result = correspondence_analysis(table)
            assert result.total_inertia == pytest.approx(chi_square_over_n(table), abs=1e-10)

    def test_inertia_fractions_well_formed(self):
        rng = np.random.default_rng(82)
        table = rng.integers(1, 30, size=(6, 5)).astype(float)
        result = correspondence_analysis(table)
        f = result.inertia_fractions
        assert 0.0 <= f[1] <= f[0] <= 1.0
        assert f.sum() <= 1.0 + 1e-12

    def test_rank_one_second_axis_zero(self):
        # 2xN tables have at most one factor axis
        result = correspondence_analysis([[5, 1, 1], [1, 5, 5]])
        assert np.all(result.row_coords[:, 1] == 0.0)
        assert result.inertia_fractions[1] == 0.0
        assert result.inertia_fractions[0] == pytest.approx(1.0, abs=1e-12)

    def test_zero_row_or_column_rejected_with_pruning_hint(self):
        with pytest.raises(CorpusError, match="prune"):
            correspondence_analysis([[1, 2], [0, 0]])
        with pytest.raises(CorpusError, match="prune"):
            correspondence_analysis([[1, 0], [2, 0]])

    def test_negative_values_rejected(self):
        with pytest.raises(CorpusError):
            correspondence_analysis([[1, -1], [1, 1]])

    @pytest.mark.parametrize(
        "table",
        [[[1, np.nan], [2, 3]], [[1, np.inf], [2, 3]], [[1e308, 1e308], [1e308, 1]]],
        ids=["nan", "inf", "overflowing-total"],
    )
    def test_non_finite_table_rejected(self, table):
        with pytest.raises(CorpusError, match="finite"):
            correspondence_analysis(table)

    def test_underflowing_expected_counts_rejected(self):
        # finite cells and total, but 1e-300 * 1e-300 expected mass rounds to 0
        with pytest.raises(CorpusError, match="range"):
            correspondence_analysis([[1e300, 1e-300], [1e-300, 1]])

    def test_svd_failure_is_a_corpus_error(self, monkeypatch):
        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr(np.linalg, "svd", fail)
        with pytest.raises(CorpusError, match="did not converge"):
            correspondence_analysis([[5, 1], [2, 7]])

    def test_row_and_column_coordinates_coincide_for_symmetric_input(self):
        rng = np.random.default_rng(83)
        for _ in range(10):
            m = int(rng.integers(3, 9))
            half = rng.integers(0, 15, size=(m, m))
            table = (half + half.T).astype(float)
            np.fill_diagonal(table, 0)
            if np.any(table.sum(axis=1) == 0):
                continue
            result = correspondence_analysis(table)
            for axis in range(2):
                rc = result.row_coords[:, axis]
                cc = result.col_coords[:, axis]
                same = np.allclose(rc, cc, atol=1e-9)
                flipped = np.allclose(rc, -cc, atol=1e-9)
                assert same or flipped

    def test_deterministic_bit_identical(self):
        rng = np.random.default_rng(84)
        table = rng.integers(1, 20, size=(7, 7)).astype(float)
        a = correspondence_analysis(table)
        b = correspondence_analysis(table.copy())
        assert np.array_equal(a.row_coords, b.row_coords)
        assert np.array_equal(a.col_coords, b.col_coords)



def star_corpus(n_terms=5, reps=4):
    """Every satellite term pairs with the pivot only, never with another."""
    docs = []
    no = 0
    for i in range(n_terms):
        for _ in range(reps - i // 2):  # asymmetric counts break degeneracy
            docs.append(lemma_doc(f"d{no}", DateSpec.undated(), ["v", f"t{i}"]))
            no += 1
    return build_index(docs)


class TestBuildSubmatrix:
    def test_star_shape(self):
        index = star_corpus()
        sub = build_submatrix(index, None, "v", 1, m=4)
        assert sub.terms[0] == "v"
        assert len(sub.terms) == 4
        counts = sub.counts
        assert np.array_equal(counts, counts.T)
        assert np.all(np.diag(counts) == 0)
        # row 0 carries all the mass; satellites never touch each other
        assert np.all(counts[0, 1:] > 0)
        assert np.all(counts[1:, 1:] == 0)
        assert sub.pruned == ()

    def test_m_equal_to_all_candidates(self):
        index = star_corpus(n_terms=4)
        sub = build_submatrix(index, None, "v", 1, m=5)
        assert len(sub.terms) == 5

    def test_min_count_below_one_rejected(self):
        index = star_corpus()
        for min_count in (0, -3):
            with pytest.raises(CorpusError, match="min_count must be >= 1"):
                build_submatrix(index, None, "v", 1, m=4, min_count=min_count)

    def test_insufficient_cooccurrents_names_shortfall(self):
        index = star_corpus(n_terms=2)
        with pytest.raises(CorpusError, match="only 2"):
            build_submatrix(index, None, "v", 1, m=6)

    def test_cells_match_brute_force(self):
        rng = np.random.default_rng(91)
        for _ in range(8):
            index = random_index(rng, min_tokens=100, max_tokens=400, max_vocab=10)
            window = int(rng.integers(1, 5))
            lemma_lists = doc_lemma_lists(index)
            freqs = {}
            for lemmas in lemma_lists:
                for l in lemmas:
                    freqs[l] = freqs.get(l, 0) + 1
            pivot = max(freqs, key=lambda l: (freqs[l], l))
            try:
                sub = build_submatrix(index, None, pivot, window, m=4)
            except CorpusError:
                continue
            for i, a in enumerate(sub.terms):
                for j, b in enumerate(sub.terms):
                    if i == j:
                        assert sub.counts[i, j] == 0
                        continue
                    expected = 0
                    for lemmas in lemma_lists:
                        for x in range(len(lemmas)):
                            for y in range(x + 1, min(x + window, len(lemmas) - 1) + 1):
                                if {lemmas[x], lemmas[y]} == {a, b}:
                                    expected += 1
                    assert sub.counts[i, j] == expected

    def test_pruning_disconnected_terms_warns(self):
        # with the pivot excluded, satellites have no pairs at all unless
        # they touch each other; u and w do, the rest get pruned
        docs = [lemma_doc(f"s{i}", DateSpec.undated(), ["v", f"t{i}"]) for i in range(3)] * 3
        docs = [(f"{d[0]}_{n}", d[1], d[2], d[3]) for n, d in enumerate(docs)]
        docs += [lemma_doc(f"uw{i}", DateSpec.undated(), ["v", "u", "w"]) for i in range(3)]
        index = build_index(docs)
        with pytest.warns(UserWarning, match="pruned"):
            sub = build_submatrix(index, None, "v", 2, m=5, include_pivot=False)
        assert set(sub.terms) == {"u", "w"}
        assert set(sub.pruned) == {"t0", "t1", "t2"}

    def test_dice_weighting_variant(self):
        index = star_corpus()
        raw = build_submatrix(index, None, "v", 1, m=4, weight="raw")
        weighted = build_submatrix(index, None, "v", 1, m=4, weight="dice")
        assert weighted.counts.dtype.kind == "f"
        assert (weighted.counts > 0).sum() == (raw.counts > 0).sum()


class TestSemanticMap:
    def test_two_cliques_separate_on_axis_one(self):
        docs = []
        no = 0
        for _ in range(12):
            docs.append(lemma_doc(f"a{no}", DateSpec.undated(), ["v", "a1", "a2", "a3"]))
            no += 1
        for _ in range(8):
            docs.append(lemma_doc(f"b{no}", DateSpec.undated(), ["v", "b1", "b2"]))
            no += 1
        index = build_index(docs)
        result = semantic_map(index, None, "v", 3, m=6)
        coords = {p.lemma: p.x for p in result.points}
        a_signs = {np.sign(coords[l]) for l in ("a1", "a2", "a3")}
        b_signs = {np.sign(coords[l]) for l in ("b1", "b2")}
        assert len(a_signs) == 1 and len(b_signs) == 1
        assert a_signs != b_signs

    def test_minimal_three_term_map(self):
        index = star_corpus(n_terms=3)
        result = semantic_map(index, None, "v", 1, m=3)
        assert len(result.points) == 3
        assert all(np.isfinite([p.x, p.y]).all() for p in result.points)

    def test_pivot_oriented_non_negative(self):
        index = star_corpus()
        result = semantic_map(index, None, "v", 1, m=4)
        assert result.points[0].lemma == "v"
        assert result.points[0].x >= 0
        assert result.points[0].y >= 0

    def test_permutation_invariance_per_lemma(self):
        rng = np.random.default_rng(92)
        index = random_index(rng, min_tokens=300, max_tokens=600, max_vocab=8)
        pivot = index.lemmas[0]
        try:
            base = semantic_map(index, None, pivot, 3, m=4)
        except CorpusError:
            pytest.skip("random corpus too sparse for a map")
        docs = []
        for d in index.documents:
            span = slice(d.token_start, d.token_start + d.token_len)
            docs.append(
                (
                    d.doc_id,
                    d.date,
                    d.typology,
                    [
                        (index.forms[int(f)], index.pos_tags[int(p)], index.lemmas[int(l)])
                        for f, p, l in zip(
                            index.form_ids[span], index.pos_ids[span], index.lemma_ids[span]
                        )
                    ],
                )
            )
        order = rng.permutation(len(docs))
        permuted_index = build_index([docs[int(i)] for i in order])
        permuted = semantic_map(permuted_index, None, pivot, 3, m=4)
        a = {p.lemma: (p.x, p.y) for p in base.points}
        b = {p.lemma: (p.x, p.y) for p in permuted.points}
        assert set(a) == set(b)
        for lemma in a:
            assert a[lemma][0] == pytest.approx(b[lemma][0], abs=1e-9)
            assert a[lemma][1] == pytest.approx(b[lemma][1], abs=1e-9)
