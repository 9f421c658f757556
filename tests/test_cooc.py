import time
import warnings
from collections import Counter

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from diachrona import cooc
from diachrona.cooc import (
    adjacency_count,
    cooc_counts,
    dice,
    pair_evolution,
    top_cooccurrents,
)
from diachrona.corpus import CorpusError, DateSpec
from diachrona.diachrony import (
    SCORE_EPSILON,
    cooc_by_tranche,
    evolving_cooccurrents,
    make_tranches,
    ols_slope,
)
from diachrona.frequency import lemma_count
from diachrona.semfield import build_submatrix
from diachrona.synth import synthetic_index

from conftest import build_index, corpora, doc_lemma_lists, lemma_doc, random_index


def brute_pairs(index, window, docs=None):
    """Unordered in-document lemma pairs at distance 1..window, keyed by the
    sorted lemma pair; every token pair of every document in ``docs`` (all
    when None) is enumerated, O(N^2)."""
    counts = Counter()
    for doc, lemmas in zip(index.documents, doc_lemma_lists(index)):
        if docs is not None and doc.doc_id not in docs:
            continue
        for i in range(len(lemmas)):
            for j in range(i + 1, len(lemmas)):
                if j - i <= window:
                    counts[tuple(sorted((lemmas[i], lemmas[j])))] += 1
    return counts


def brute_pair_counts(index, pivot, window, docs=None):
    """Pair counts of every other lemma with ``pivot`` (pivot-pivot pairs
    excluded), from the all-pairs enumeration."""
    counts = Counter()
    for (a, b), n in brute_pairs(index, window, docs).items():
        if (a == pivot) != (b == pivot):
            counts[b if a == pivot else a] += n
    return dict(counts)


def brute_freqs(index, docs=None):
    freqs = Counter()
    for doc, lemmas in zip(index.documents, doc_lemma_lists(index)):
        if docs is None or doc.doc_id in docs:
            freqs.update(lemmas)
    return freqs


def brute_pos_majority(index, pos_filter, docs=None):
    """Lemmas with at least half of their docset tokens tagged in ``pos_filter``."""
    good, freqs = Counter(), Counter()
    for doc in index.documents:
        if docs is not None and doc.doc_id not in docs:
            continue
        span = slice(doc.token_start, doc.token_start + doc.token_len)
        for lid, pid in zip(index.lemma_ids[span], index.pos_ids[span]):
            lemma = index.lemmas[int(lid)]
            freqs[lemma] += 1
            good[lemma] += index.pos_tags[int(pid)] in pos_filter
    return {lemma for lemma in freqs if 2 * good[lemma] >= freqs[lemma]}


def single_doc(tokens, pivot=None):
    return build_index([lemma_doc("d0", DateSpec.undated(), tokens)])


class TestCoocCounts:
    def test_single_in_window_pair(self):
        index = single_doc("p c x x x".split())
        table = cooc_counts(index, None, "p", 5)
        assert table.pair_counts["c"] == 1
        assert table.pivot_freq == 1
        # the filler tokens are real tokens and count too (distances 2..4)
        assert table.pair_counts["x"] == 3

    def test_beyond_window_not_counted(self):
        index = single_doc("p x x x x x c".split())
        table = cooc_counts(index, None, "p", 5)
        assert "c" not in table.pair_counts  # distance 6 > 5

    def test_exhaustive_pair_enumeration(self):
        index = single_doc("a b a b".split())
        table = cooc_counts(index, None, "a", 1)
        assert table.pair_counts == {"b": 3}  # pairs (0,1), (1,2), (2,3)
        assert table.pivot_freq == 2

    def test_pivot_never_its_own_neighbor(self):
        index = single_doc("p p p q".split())
        table = cooc_counts(index, None, "p", 3)
        assert "p" not in table.pair_counts

    def test_windows_do_not_cross_documents(self):
        index = build_index(
            [
                lemma_doc("d1", DateSpec.undated(), ["p"]),
                lemma_doc("d2", DateSpec.undated(), ["q"]),
            ]
        )
        assert cooc_counts(index, None, "p", 5).pair_counts == {}

    def test_absent_pivot_gives_empty_table(self):
        index = single_doc(["a"])
        table = cooc_counts(index, None, "zzz", 3)
        assert table.pair_counts == {} and table.pivot_freq == 0

    def test_docset_restriction(self):
        index = build_index(
            [
                lemma_doc("d1", DateSpec.undated(), ["p", "a"]),
                lemma_doc("d2", DateSpec.undated(), ["p", "b"]),
            ]
        )
        table = cooc_counts(index, {"d1"}, "p", 2)
        assert table.pair_counts == {"a": 1}
        assert table.pivot_freq == 1

    def test_matches_brute_force_on_random_corpora(self):
        rng = np.random.default_rng(31)
        for _ in range(30):
            index = random_index(rng, min_tokens=10, max_tokens=300, max_vocab=12)
            window = int(rng.integers(1, 7))
            freqs = brute_freqs(index)
            pivot = max(freqs, key=lambda l: (freqs[l], l))
            table = cooc_counts(index, None, pivot, window)
            assert table.pair_counts == brute_pair_counts(index, pivot, window)

    def test_document_locality_shuffle_invariance(self):
        rng = np.random.default_rng(32)
        index = random_index(rng, min_tokens=100, max_tokens=300, max_vocab=10)
        docs = []
        for d in index.documents:
            span = slice(d.token_start, d.token_start + d.token_len)
            tokens = [
                (index.forms[int(f)], index.pos_tags[int(p)], index.lemmas[int(l)])
                for f, p, l in zip(
                    index.form_ids[span], index.pos_ids[span], index.lemma_ids[span]
                )
            ]
            docs.append((d.doc_id, d.date, d.typology, tokens))
        order = rng.permutation(len(docs))
        shuffled = build_index([docs[int(i)] for i in order])
        pivot = index.lemmas[0]
        a = cooc_counts(index, None, pivot, 4)
        b = cooc_counts(shuffled, None, pivot, 4)
        assert a.pair_counts == b.pair_counts
        assert a.neighbor_freqs == b.neighbor_freqs

    def test_pair_count_bound(self):
        rng = np.random.default_rng(34)
        for _ in range(10):
            index = random_index(rng, min_tokens=10, max_tokens=200, max_vocab=8)
            window = int(rng.integers(1, 7))
            freqs = brute_freqs(index)
            pivot = index.lemmas[0]
            table = cooc_counts(index, None, pivot, window)
            for lemma, count in table.pair_counts.items():
                bound = 2 * window * min(table.pivot_freq, freqs[lemma])
                assert count <= bound

    def test_window_validated(self):
        index = single_doc(["a"])
        with pytest.raises(CorpusError):
            cooc_counts(index, None, "a", 0)


class TestDice:
    def test_perfect_one_shot(self):
        assert dice(1, 1, 1) == 1.0

    def test_no_cooccurrence(self):
        assert dice(0, 10, 3) == 0.0

    def test_token_pair_counting_can_exceed_one(self):
        index = single_doc("a b a b".split())
        table = cooc_counts(index, None, "a", 1)
        assert dice(table.pair_counts["b"], table.pivot_freq, table.neighbor_freqs["b"]) == 1.5

    def test_symmetry_is_bit_exact(self):
        rng = np.random.default_rng(41)
        for _ in range(200):
            c = int(rng.integers(0, 50))
            fa = int(rng.integers(0, 1000))
            fb = int(rng.integers(0, 1000))
            if fa + fb == 0:
                continue
            assert dice(c, fa, fb) == dice(c, fb, fa)

    def test_both_zero_frequencies_error(self):
        with pytest.raises(CorpusError):
            dice(0, 0, 0)

    def test_provable_upper_bound_two_w(self):
        # pair_count <= 2*w*min(fa, fb) <= w*(fa+fb), so dice <= 2*w; reached
        # only by degenerate clustering (the "a b a b" case gives 1.5 at w=1)
        rng = np.random.default_rng(42)
        for _ in range(30):
            index = random_index(rng, min_tokens=5, max_tokens=250, max_vocab=10)
            window = int(rng.integers(1, 7))
            for lid in range(len(index.lemmas)):
                pivot = index.lemmas[lid]
                table = cooc_counts(index, None, pivot, window)
                for lemma, count in table.pair_counts.items():
                    val = dice(count, table.pivot_freq, table.neighbor_freqs[lemma])
                    assert 0.0 <= val <= 2.0 * window


class TestTopCooccurrents:
    def test_constructed_ranking(self):
        # q always adjacent to the pivot, r never near it
        docs = [lemma_doc(f"d{i}", DateSpec.undated(), ["p", "q", "z", "z", "z", "r"]) for i in range(3)]
        index = build_index(docs)
        ranked = top_cooccurrents(index, None, "p", 1, k=10)
        assert ranked[0].lemma == "q"
        assert all(c.lemma != "r" for c in ranked)

    def test_k_larger_than_candidates_no_padding(self):
        index = single_doc("p a b".split())
        ranked = top_cooccurrents(index, None, "p", 2, k=50)
        assert len(ranked) == 2

    def test_absent_pivot_empty(self):
        index = single_doc(["a"])
        assert top_cooccurrents(index, None, "zzz", 3, k=5) == []

    @pytest.mark.parametrize("min_count", [0, -3])
    def test_min_count_below_one_rejected(self, min_count):
        index = single_doc("p a b".split())
        for pivot in ("p", "zzz"):
            with pytest.raises(CorpusError, match="min_count must be >= 1"):
                top_cooccurrents(index, None, pivot, 2, k=5, min_count=min_count)

    def test_min_count_monotonicity(self):
        rng = np.random.default_rng(51)
        index = random_index(rng, min_tokens=200, max_tokens=500, max_vocab=10)
        pivot = index.lemmas[0]
        previous = None
        for mc in (1, 2, 4, 8):
            got = {c.lemma for c in top_cooccurrents(index, None, pivot, 4, k=100, min_count=mc)}
            if previous is not None:
                assert got <= previous
            previous = got

    def test_pos_majority_rule(self):
        # q is tagged NOM in 2 of 3 tokens -> majority passes {NOM};
        # r is NOM in 1 of 3 -> fails
        docs = [
            ("d0", DateSpec.undated(), None, [("p", "NOM", "p"), ("q", "NOM", "q"), ("r", "NOM", "r")]),
            ("d1", DateSpec.undated(), None, [("p", "NOM", "p"), ("q", "NOM", "q"), ("r", "VER", "r")]),
            ("d2", DateSpec.undated(), None, [("p", "NOM", "p"), ("q", "VER", "q"), ("r", "VER", "r")]),
        ]
        index = build_index(docs)
        ranked = top_cooccurrents(index, None, "p", 2, k=10, pos_filter={"NOM"})
        lemmas = {c.lemma for c in ranked}
        assert "q" in lemmas and "r" not in lemmas

    def test_exactly_half_passes_pos_majority(self):
        docs = [
            ("d0", DateSpec.undated(), None, [("p", "NOM", "p"), ("q", "NOM", "q")]),
            ("d1", DateSpec.undated(), None, [("p", "NOM", "p"), ("q", "VER", "q")]),
        ]
        index = build_index(docs)
        ranked = top_cooccurrents(index, None, "p", 1, k=10, pos_filter={"NOM"})
        assert {c.lemma for c in ranked} == {"q"}

    def test_matches_brute_force_ranking(self):
        rng = np.random.default_rng(52)
        for _ in range(20):
            index = random_index(rng, min_tokens=50, max_tokens=500, max_vocab=15)
            window = int(rng.integers(1, 7))
            freqs = brute_freqs(index)
            pivot = max(freqs, key=lambda l: (freqs[l], l))
            got = top_cooccurrents(index, None, pivot, window, k=1000)
            pairs = brute_pair_counts(index, pivot, window)
            expected = [
                (lemma, count, freqs[lemma], 2.0 * count / (freqs[pivot] + freqs[lemma]))
                for lemma, count in pairs.items()
            ]
            expected.sort(key=lambda t: (-t[3], -t[1], t[0]))
            assert [tuple(c) for c in got] == expected


class TestAdjacency:
    def test_rarer_lemma_is_the_kernel_row(self, monkeypatch):
        index = build_index([lemma_doc("d0", DateSpec.exact(900), ["x", "y", "y", "z", "y"])])
        rows = []
        kernel = cooc._window_pairs

        def spy(index, doc_bucket, n_buckets, row_ids, window, cols=None):
            rows.append(index.lemmas[row_ids[0]])
            return kernel(index, doc_bucket, n_buckets, row_ids, window, cols)

        monkeypatch.setattr(cooc, "_window_pairs", spy)
        for a, b in (("y", "x"), ("x", "y"), ("z", "x")):
            adjacency_count(index, None, a, b)
            pair_evolution(index, a, b, 2, 100)
        assert rows == ["x", "x", "x", "x", "z", "z"]  # a tie keeps the order

    def test_single_bigram(self):
        assert adjacency_count(single_doc("sanctus pater".split()), None, "pater", "sanctus") == 1

    def test_gap_not_adjacent(self):
        assert adjacency_count(single_doc("sanctus x pater".split()), None, "pater", "sanctus") == 0

    def test_both_bigrams_counted(self):
        index = single_doc("pater sanctus pater".split())
        assert adjacency_count(index, None, "pater", "sanctus") == 2

    def test_order_symmetric(self):
        index = single_doc("a b b a a b".split())
        assert adjacency_count(index, None, "a", "b") == adjacency_count(index, None, "b", "a")

    def test_unknown_lemma_gives_zero(self):
        assert adjacency_count(single_doc(["a"]), None, "a", "zzz") == 0


class TestPairEvolution:
    def test_single_nonzero_bin(self):
        index = build_index(
            [
                lemma_doc("a", DateSpec.exact(850), ["x", "y"]),
                lemma_doc("b", DateSpec.exact(1050), ["z", "z"]),
            ]
        )
        bins = pair_evolution(index, "x", "y", 5, 100)
        by_start = {b.start_year: b for b in bins}
        assert by_start[800].pair_count == 1
        assert sum(b.pair_count for b in bins) == 1

    def test_no_dated_docs_empty(self):
        index = build_index([lemma_doc("a", DateSpec.undated(), ["x", "y"])])
        assert pair_evolution(index, "x", "y", 5, 100) == []

    def test_association_doubling_doubles_dice(self):
        # era 1: one adjacent pair; era 2: two adjacent pairs, same frequencies
        era1 = ["x", "y", "f1", "f2", "x", "f3", "y", "f4"]
        era2 = ["x", "y", "f1", "f2", "x", "y", "f3", "f4"]
        index = build_index(
            [
                lemma_doc("e1", DateSpec.exact(800), era1),
                lemma_doc("e2", DateSpec.exact(900), era2),
            ]
        )
        bins = pair_evolution(index, "x", "y", 1, 100)
        by_start = {b.start_year: b for b in bins}
        assert by_start[900].dice == pytest.approx(2 * by_start[800].dice, abs=1e-12)

    def test_undated_docs_excluded(self):
        index = build_index(
            [
                lemma_doc("a", DateSpec.exact(850), ["x", "y"]),
                lemma_doc("u", DateSpec.undated(), ["x", "y"]),
            ]
        )
        bins = pair_evolution(index, "x", "y", 3, 100)
        assert sum(b.pair_count for b in bins) == 1

    @pytest.mark.parametrize("bin_width", [0, 2**63, 10**20])
    def test_bin_width_validated(self, bin_width):
        index = build_index([lemma_doc("a", DateSpec.exact(850), ["x", "y"])])
        with pytest.raises(CorpusError, match="bin width must be"):
            pair_evolution(index, "x", "y", 3, bin_width)

    def test_too_many_year_bins_rejected(self):
        index = build_index(
            [
                lemma_doc("a", DateSpec.exact(-(2**31)), ["x", "y"]),
                lemma_doc("b", DateSpec.exact(2**31 - 1), ["x", "y"]),
            ]
        )
        with pytest.raises(CorpusError, match="year bins of width 1 exceed the limit of 1000000"):
            pair_evolution(index, "x", "y", 3, 1)

    def test_largest_bin_width_is_one_bin(self):
        index = build_index([lemma_doc("a", DateSpec.exact(850), ["x", "y"])])
        assert pair_evolution(index, "x", "y", 3, 2**63 - 1) == [(0, 1, 1.0)]


# ---------------------------------------------------------------------------
# properties: every window-counting entry point against the all-pairs oracle
# ---------------------------------------------------------------------------

PROPERTY = settings(max_examples=60, deadline=None)


@st.composite
def cases(draw, vocab_sizes=st.integers(1, 5), tagged=False):
    """(index, window, docs, lemma a, lemma b); docs is None or an id set."""
    index = draw(corpora(vocab_sizes, tagged))
    lemmas = st.sampled_from(index.lemmas.entries)
    ids = [d.doc_id for d in index.documents]
    docs = draw(st.none() | st.sets(st.sampled_from(ids)))
    return index, draw(st.integers(1, 8)), docs, draw(lemmas), draw(lemmas)


class TestKernelProperties:
    @PROPERTY
    @given(cases())
    def test_cooc_counts_match_brute_force(self, case):
        index, window, docs, a, _ = case
        table = cooc_counts(index, docs, a, window)
        assert table.pair_counts == brute_pair_counts(index, a, window, docs)
        assert table.pivot_freq == brute_freqs(index, docs)[a]

    @PROPERTY
    @given(cases())
    def test_adjacency_count_matches_brute_force(self, case):
        index, _, docs, a, b = case  # a == b counts each a-a pair once
        assert adjacency_count(index, docs, a, b) == brute_pairs(index, 1, docs)[tuple(sorted((a, b)))]

    @PROPERTY
    @given(cases(), st.integers(1, 80))
    def test_pair_evolution_matches_brute_force(self, case, bin_width):
        index, window, docs, a, b = case
        groups = {}
        for doc in index.documents:
            mid = doc.date.midpoint()
            if mid is not None and (docs is None or doc.doc_id in docs):
                groups.setdefault(mid // bin_width * bin_width, set()).add(doc.doc_id)
        bins = pair_evolution(index, a, b, window, bin_width, docset=docs)
        if not groups:
            assert bins == []
            return
        starts = range(min(groups), max(groups) + 1, bin_width)
        assert [pb.start_year for pb in bins] == list(starts)
        for pb in bins:
            members = groups.get(pb.start_year, set())
            pairs = brute_pairs(index, window, members)[tuple(sorted((a, b)))]
            freqs = brute_freqs(index, members)
            total = freqs[a] + freqs[b]
            assert pb.pair_count == pairs
            assert pb.dice == (2.0 * pairs / total if total else 0.0)

    @PROPERTY
    @given(cases(), st.data())
    def test_cooc_by_tranche_matches_brute_force(self, case, data):
        index, window, _, a, _ = case
        n_dated = len(index.dated_order())
        assume(n_dated >= 2)
        tranches = make_tranches(index, data.draw(st.integers(2, n_dated)))
        tables, vectors = cooc_by_tranche(index, tranches, a, window)
        totals = Counter()
        expected_dice = {}
        for t, table in enumerate(tables):
            members = {index.documents[int(p)].doc_id for p in tranches.tranche_positions(t)}
            pairs = brute_pair_counts(index, a, window, members)
            freqs = brute_freqs(index, members)
            assert table.pair_counts == pairs
            assert table.pivot_freq == freqs[a]
            totals.update(pairs)
            for lemma in index.lemmas:
                denom = freqs[lemma] + freqs[a]
                value = 2.0 * pairs.get(lemma, 0) / denom if denom else 0.0
                expected_dice.setdefault(lemma, []).append(value)
        assert set(vectors) == set(totals)
        for lemma, vector in vectors.items():
            assert vector.tolist() == expected_dice[lemma]

    @PROPERTY
    @given(cases(st.integers(4, 8)), st.integers(3, 5), st.booleans())
    def test_build_submatrix_matches_brute_force(self, case, m, include_pivot):
        index, window, docs, a, _ = case
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            try:
                sub = build_submatrix(index, docs, a, window, m, include_pivot=include_pivot)
            except CorpusError:
                assume(False)  # too few collocates for an m-term map
        pairs = brute_pairs(index, window, docs)
        terms = sub.terms + sub.pruned
        for i, x in enumerate(sub.terms):
            for j, y in enumerate(sub.terms):
                assert sub.counts[i, j] == (0 if i == j else pairs[tuple(sorted((x, y)))])
        for x in sub.pruned:
            assert all(pairs[tuple(sorted((x, y)))] == 0 for y in terms if y != x)

    @PROPERTY
    @given(cases(), st.data())
    def test_docset_partition_additivity(self, case, data):
        index, window, _, a, b = case
        n_groups = data.draw(st.integers(1, 4))
        group_of = data.draw(
            st.lists(st.integers(0, n_groups - 1), min_size=len(index), max_size=len(index))
        )
        parts = [
            {doc.doc_id for doc, g in zip(index.documents, group_of) if g == part}
            for part in range(n_groups)
        ]
        whole = cooc_counts(index, None, a, window).pair_counts
        summed = Counter()
        for part in parts:
            summed.update(cooc_counts(index, part, a, window).pair_counts)
        assert summed == Counter(whole)
        assert sum(adjacency_count(index, part, a, b) for part in parts) == adjacency_count(
            index, None, a, b
        )

    @PROPERTY
    @given(cases(), st.integers(1, 80))
    def test_pair_counts_do_not_depend_on_argument_order(self, case, bin_width):
        # the kernel row is the rarer lemma, whichever argument it came in
        index, window, docs, a, b = case
        assert adjacency_count(index, docs, a, b) == adjacency_count(index, docs, b, a)
        assert pair_evolution(index, a, b, window, bin_width, docs) == pair_evolution(
            index, b, a, window, bin_width, docs
        )


class TestRankingProperties:
    """Few lemmas give many tied scores, so the k-th value is often shared."""

    @settings(max_examples=200, deadline=None)  # at 60, a tie-dropping top-k often slips by
    @given(cases(st.integers(3, 8), tagged=True), st.integers(1, 5), st.integers(1, 3), st.booleans())
    def test_top_cooccurrents_is_the_head_of_a_full_sort(self, case, k, min_count, filtered):
        index, window, docs, a, _ = case
        pos_filter = {"NOM"} if filtered else None
        freqs = brute_freqs(index, docs)
        passing = brute_pos_majority(index, pos_filter, docs) if filtered else set(freqs)
        scored = [
            (lemma, n, freqs[lemma], dice(n, freqs[a], freqs[lemma]))
            for lemma, n in brute_pair_counts(index, a, window, docs).items()
            if n >= min_count and lemma in passing
        ]
        scored.sort(key=lambda c: (-c[3], -c[1], c[0]))
        got = top_cooccurrents(index, docs, a, window, k, pos_filter=pos_filter, min_count=min_count)
        assert [tuple(c) for c in got] == scored[:k]

    @PROPERTY
    @given(cases(st.integers(3, 8), tagged=True), st.data())
    def test_evolving_cooccurrents_prefixes_and_scores(self, case, data):
        index, window, _, a, _ = case
        n_dated = len(index.dated_order())
        assume(n_dated >= 2)
        tranches = make_tranches(index, data.draw(st.integers(2, n_dated)))
        min_count = data.draw(st.integers(1, 3))
        pos_filter = data.draw(st.none() | st.just({"NOM"}))

        def entries(top_n):
            return evolving_cooccurrents(
                index, tranches, a, window, pos_filter, min_count, top_n=top_n
            ).entries

        full = entries(10**9)
        assert list(full) == sorted(full, key=lambda e: (-abs(e.score), -e.total_pairs, e.lemma))
        tables, vectors = cooc_by_tranche(index, tranches, a, window, pos_filter, min_count)
        assert {e.lemma: list(e.dice_by_tranche) for e in full} == {
            lemma: v.tolist() for lemma, v in vectors.items()
        }
        for e in full:
            d = np.array(e.dice_by_tranche)
            slope = ols_slope(d)
            assert e.score == slope / max(d.mean(), SCORE_EPSILON)
            assert e.direction == ("rising" if slope > 0 else "falling" if slope < 0 else "flat")
            assert e.total_pairs == sum(t.pair_counts.get(e.lemma, 0) for t in tables)
        for n in range(1, 6):
            assert entries(n) == full[:n]


def test_huge_window_counts_like_the_longest_document():
    # pairs never cross documents, so no window beyond the longest document
    # adds a pair, and a huge window must not cost a pass per offset
    index = synthetic_index(200_000, 500, 20_000, seed=5)
    longest = max(doc.token_len for doc in index.documents)
    pivot = index.lemmas[0]
    began = time.perf_counter()
    huge = cooc_counts(index, None, pivot, 10**9)
    elapsed = time.perf_counter() - began
    exact = cooc_counts(index, None, pivot, longest)
    assert (huge.pair_counts, huge.neighbor_freqs) == (exact.pair_counts, exact.neighbor_freqs)
    assert huge.pivot_freq == exact.pivot_freq
    assert elapsed < 10.0
