import numpy as np
import pytest

from diachrona.cooc import cooc_counts
from diachrona.corpus import CorpusError, DateSpec
from diachrona.diachrony import (
    TrancheSet,
    cooc_by_tranche,
    evolving_cooccurrents,
    make_tranches,
    ols_slope,
)

from conftest import build_index, lemma_doc, random_index


class TestMakeTranches:
    def test_exact_divisibility_one_doc_per_tranche(self):
        docs = [lemma_doc(f"d{i}", DateSpec.exact(700 + i), ["x"] * 100) for i in range(10)]
        index = build_index(docs)
        tranches = make_tranches(index, 10)
        assert tranches.token_masses == (100,) * 10
        assert tranches.boundaries == tuple(range(11))

    def test_documented_boundary_rule(self):
        docs = [lemma_doc(f"d{i}", DateSpec.exact(800 + i), ["x"] * 100) for i in range(3)]
        index = build_index(docs)
        tranches = make_tranches(index, 2)
        # first-reach rule fires at the second document; tie |200-150| = |100-150|
        # does not move the boundary earlier
        assert tranches.token_masses == (200, 100)

    def test_errors(self):
        index = build_index([lemma_doc("d", DateSpec.exact(800), ["x"])])
        with pytest.raises(CorpusError):
            make_tranches(index, 1)
        with pytest.raises(CorpusError):
            make_tranches(index, 2)  # only one dated document

    def test_undated_documents_never_assigned(self):
        docs = [lemma_doc(f"d{i}", DateSpec.exact(700 + i), ["x"] * 10) for i in range(4)]
        docs.append(lemma_doc("u", DateSpec.undated(), ["x"] * 500))
        index = build_index(docs)
        tranches = make_tranches(index, 2)
        assert sum(tranches.token_masses) == 40

    def test_random_corpora_partition_and_deviation(self):
        rng = np.random.default_rng(61)
        for _ in range(30):
            index = random_index(rng, min_tokens=200, max_tokens=900, dated_fraction=1.0)
            if len(index.dated_order()) < 10:
                continue
            tranches = make_tranches(index, 10)
            order = tranches.doc_order
            lens = [index.documents[p].token_len for p in order]
            total = sum(lens)
            assert sum(tranches.token_masses) == total
            longest = max(lens)
            for mass in tranches.token_masses:
                assert abs(mass - total / 10) <= longest
            # contiguity + date monotonicity between consecutive tranches
            mids = [index.documents[p].date.midpoint() for p in order]
            for t in range(9):
                left = mids[tranches.boundaries[t] : tranches.boundaries[t + 1]]
                right = mids[tranches.boundaries[t + 1] : tranches.boundaries[t + 2]]
                assert left and right
                assert max(left) <= min(right)

    def test_giant_document_keeps_boundaries_strictly_increasing(self):
        docs = [lemma_doc("big", DateSpec.exact(700), ["x"] * 1000)]
        docs += [lemma_doc(f"s{i}", DateSpec.exact(800 + i), ["x"]) for i in range(3)]
        index = build_index(docs)
        tranches = make_tranches(index, 4)
        assert list(tranches.boundaries) == sorted(set(tranches.boundaries))
        assert sum(tranches.token_masses) == 1003


class TestCoocByTranche:
    def test_dice_localized_to_one_tranche(self):
        docs = []
        for t in range(5):
            words = ["p", "z"] * 10
            if t == 2:
                words = ["p", "loc"] * 10
            docs.append(lemma_doc(f"d{t}", DateSpec.exact(800 + t * 50), words))
        index = build_index(docs)
        tranches = make_tranches(index, 5)
        _, vectors = cooc_by_tranche(index, tranches, "p", 2)
        vec = vectors["loc"]
        assert vec[2] > 0
        assert all(vec[t] == 0 for t in (0, 1, 3, 4))

    def test_concatenation_identity(self):
        rng = np.random.default_rng(62)
        index = random_index(rng, min_tokens=300, max_tokens=700, dated_fraction=1.0)
        if len(index.dated_order()) < 4:
            pytest.skip("too few dated docs drawn")
        tranches = make_tranches(index, 4)
        pivot = index.lemmas[0]
        tables, _ = cooc_by_tranche(index, tranches, pivot, 3)
        merged = {}
        for table in tables:
            for lemma, count in table.pair_counts.items():
                merged[lemma] = merged.get(lemma, 0) + count
        dated = np.asarray(index.dated_order(), dtype=np.int64)
        whole = cooc_counts(index, dated, pivot, 3)
        assert merged == whole.pair_counts

    def test_k1_degenerates_to_plain_counts(self):
        rng = np.random.default_rng(63)
        index = random_index(rng, min_tokens=100, max_tokens=300, dated_fraction=0.8)
        order = index.dated_order()
        if not order:
            pytest.skip("no dated docs drawn")
        lens = [index.documents[p].token_len for p in order]
        tranches = TrancheSet(1, (0, len(order)), (sum(lens),), order)
        pivot = index.lemmas[0]
        tables, _ = cooc_by_tranche(index, tranches, pivot, 4)
        whole = cooc_counts(index, np.asarray(order, dtype=np.int64), pivot, 4)
        assert tables[0].pair_counts == whole.pair_counts
        assert tables[0].pivot_freq == whole.pivot_freq


class TestOlsSlope:
    def test_matches_polyfit_oracle(self):
        rng = np.random.default_rng(64)
        for _ in range(50):
            y = rng.normal(size=int(rng.integers(2, 15)))
            expected = np.polyfit(np.arange(1, len(y) + 1), y, 1)[0]
            assert ols_slope(y) == pytest.approx(expected, abs=1e-10)

    def test_reversal_negates(self):
        rng = np.random.default_rng(65)
        for _ in range(20):
            y = rng.normal(size=10)
            assert ols_slope(y[::-1]) == pytest.approx(-ols_slope(y), abs=1e-12)

    def test_flat_is_zero(self):
        assert ols_slope([3.0] * 8) == 0.0

    def test_bit_identical_to_the_one_row_formula(self):
        # Dice-like rows (ratios with zeros), read both as contiguous rows
        # and as strided columns of a (k x 7) matrix
        rng = np.random.default_rng(66)
        for k in range(2, 41):
            x = np.arange(1, k + 1, dtype=np.float64)
            xc = x - x.mean()
            mat = 2.0 * rng.integers(0, 5, size=(k, 7)) / rng.integers(1, 400, size=(k, 7))
            for y in [*np.ascontiguousarray(mat.T), *(mat[:, j] for j in range(7))]:
                assert ols_slope(y) == np.dot(xc, y - y.mean()) / np.dot(xc, xc)


def staircase_corpus(blocks_per_doc=10):
    """Ten equal dated docs; X pairs with the pivot only in the last five,
    Y pairs uniformly, per-tranche frequencies identical."""
    docs = []
    for t in range(1, 11):
        words = []
        other = "X" if t >= 6 else f"g{t}"
        for _ in range(blocks_per_doc):
            words += ["z", "p", "Y", "z"]
            words += ["z", "p", other, "z"]
        docs.append(lemma_doc(f"d{t:02d}", DateSpec.exact(t * 100), words))
    return build_index(docs)


class TestEvolvingCooccurrents:
    def test_staircase_ranks_x_first_rising(self):
        index = staircase_corpus()
        tranches = make_tranches(index, 10)
        report = evolving_cooccurrents(
            index, tranches, "p", 1, min_count=2 * 10, top_n=5
        )
        assert report.entries[0].lemma == "X"
        assert report.entries[0].direction == "rising"
        by_lemma = {e.lemma: e for e in report.entries}
        assert abs(by_lemma["Y"].score) < 0.1 * abs(by_lemma["X"].score)

    def test_hand_computed_score(self):
        index = staircase_corpus()
        tranches = make_tranches(index, 10)
        report = evolving_cooccurrents(index, tranches, "p", 1, min_count=20, top_n=5)
        entry = {e.lemma: e for e in report.entries}["X"]
        # dice vector is 2/3 * [0]*5 + [1]*5: slope (2/3)*(5/33), mean 1/3
        assert entry.score == pytest.approx((2 / 3) * (5 / 33) * 3, abs=1e-12)

    def test_constant_association_scores_zero(self):
        index = staircase_corpus()
        tranches = make_tranches(index, 10)
        report = evolving_cooccurrents(index, tranches, "p", 1, min_count=20, top_n=10)
        flat = {e.lemma: e for e in report.entries}["Y"]
        assert flat.score == 0.0
        assert flat.direction == "flat"
        assert report.entries[-1].lemma in ("Y", "z")  # zero scores sort last

    def test_reversed_chronology_negates_scores(self):
        index = staircase_corpus()
        flipped = build_index(
            [
                (
                    d.doc_id,
                    DateSpec.exact(1100 - d.date.midpoint()),
                    d.typology,
                    [
                        (index.forms[int(f)], index.pos_tags[int(p)], index.lemmas[int(l)])
                        for f, p, l in zip(
                            index.form_ids[d.token_start : d.token_start + d.token_len],
                            index.pos_ids[d.token_start : d.token_start + d.token_len],
                            index.lemma_ids[d.token_start : d.token_start + d.token_len],
                        )
                    ],
                )
                for d in index.documents
            ]
        )
        fwd = evolving_cooccurrents(index, make_tranches(index, 10), "p", 1, min_count=20, top_n=10)
        rev = evolving_cooccurrents(flipped, make_tranches(flipped, 10), "p", 1, min_count=20, top_n=10)
        fwd_scores = {e.lemma: e.score for e in fwd.entries}
        rev_scores = {e.lemma: e.score for e in rev.entries}
        for lemma, score in fwd_scores.items():
            assert rev_scores[lemma] == pytest.approx(-score, abs=1e-12)

    def test_scale_equivariance_of_scores(self):
        # doubling every document (all counts x2) leaves per-tranche dice,
        # hence scores, unchanged
        index = staircase_corpus(blocks_per_doc=5)
        doubled = staircase_corpus(blocks_per_doc=10)
        a = evolving_cooccurrents(index, make_tranches(index, 10), "p", 1, min_count=10, top_n=5)
        b = evolving_cooccurrents(doubled, make_tranches(doubled, 10), "p", 1, min_count=20, top_n=5)
        sa = {e.lemma: e.score for e in a.entries}
        sb = {e.lemma: e.score for e in b.entries}
        assert set(sa) == set(sb)
        for lemma in sa:
            assert sa[lemma] == pytest.approx(sb[lemma], abs=1e-12)

    def test_window_below_one_rejected(self):
        index = staircase_corpus()
        tranches = make_tranches(index, 10)
        for window in (0, -3):
            with pytest.raises(CorpusError, match="window must be >= 1"):
                evolving_cooccurrents(index, tranches, "p", window)

    def test_min_count_gate(self):
        index = staircase_corpus()
        tranches = make_tranches(index, 10)
        report = evolving_cooccurrents(index, tranches, "p", 1, min_count=15, top_n=50)
        lemmas = {e.lemma for e in report.entries}
        assert not any(l.startswith("g") for l in lemmas)  # g_t has only 10 pairs
        assert {"X", "Y", "z"} <= lemmas
