import time
import tracemalloc
import warnings
from collections import Counter
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from diachrona import cooc, frequency
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
    evolving_cooccurrents,
    make_tranches,
    ols_slope,
)
from diachrona.frequency import _occurrence_docs, _occurrences, form_share, lemma_count, time_series
from diachrona.semfield import build_submatrix
from diachrona.synth import synthetic_index

from conftest import (
    POS_TAGS,
    build_index,
    corpora,
    doc_lemma_lists,
    id_docset,
    lemma_doc,
    random_index,
    record_scans,
)


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


def brute_pair_bins(index, a, b, window, bin_width, docs=None):
    """(start year, pair count, Dice) of ``a`` and ``b`` per midpoint year
    bin of the dated documents in ``docs`` (all when None), from the
    all-pairs enumeration; Dice is 0 in a bin where neither lemma occurs."""
    groups = {}
    for doc in index.documents:
        mid = doc.date.midpoint()
        if mid is not None and (docs is None or doc.doc_id in docs):
            groups.setdefault(mid // bin_width * bin_width, set()).add(doc.doc_id)
    bins = []
    for start in range(min(groups, default=0), max(groups, default=-1) + 1, bin_width):
        members = groups.get(start, set())
        pairs = brute_pairs(index, window, members)[tuple(sorted((a, b)))]
        freqs = brute_freqs(index, members)
        total = freqs[a] + freqs[b]
        bins.append((start, pairs, 2.0 * pairs / total if total else 0.0))
    return bins


def bucket_members(index, doc_bucket, bucket):
    """Ids of the documents that ``doc_bucket`` (None: all in bucket 0) puts in ``bucket``."""
    return {
        doc.doc_id
        for i, doc in enumerate(index.documents)
        if (0 if doc_bucket is None else doc_bucket[i]) == bucket
    }


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


class BruteTranches(NamedTuple):
    pairs: list  # per tranche: lemma -> pair count with the pivot
    freqs: list  # per tranche: lemma -> frequency
    dice: dict  # lemma -> per-tranche Dice with the pivot
    totals: Counter  # lemma -> pair count over all tranches, for paired lemmas


def brute_tranche_scores(index, tranches, pivot, window):
    """Per-tranche pair counts, frequencies and Dice values with ``pivot``,
    each tranche enumerated on its own by the all-pairs oracle."""
    out = BruteTranches([], [], {}, Counter())
    for t in range(tranches.k):
        members = {index.documents[int(p)].doc_id for p in tranches.tranche_positions(t)}
        pairs = brute_pair_counts(index, pivot, window, members)
        freqs = brute_freqs(index, members)
        out.pairs.append(pairs)
        out.freqs.append(freqs)
        out.totals.update(pairs)
        for lemma in index.lemmas:
            denom = freqs[lemma] + freqs[pivot]
            out.dice.setdefault(lemma, []).append(2.0 * pairs.get(lemma, 0) / denom if denom else 0.0)
    return out


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
        table = cooc_counts(index, np.array([True, False]), "p", 2)
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

    @pytest.mark.parametrize("args", [(-1, 1, 1), (1, -1, 1), (1, 1, -1)])
    def test_negative_argument_rejected(self, args):
        with pytest.raises(CorpusError, match="^dice arguments must be non-negative$"):
            dice(*args)

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

    def test_pos_filter_copies_a_partial_docset_once(self, monkeypatch):
        # the totals and the allowed-tag counts share one copy of each column
        index = random_index(np.random.default_rng(12), min_tokens=200, max_tokens=400)
        docs = np.arange(len(index)) % 2 == 0
        pivot = index.lemmas[0]
        expected = top_cooccurrents(index, docs, pivot, 3, 5, pos_filter={"NOM"})
        copied = Counter()
        real = frequency._docset_values

        def spy(column, first, end):
            copied["lemma" if column is index.lemma_ids else "pos"] += 1
            return real(column, first, end)

        monkeypatch.setattr(frequency, "_docset_values", spy)
        assert top_cooccurrents(index, docs, pivot, 3, 5, pos_filter={"NOM"}) == expected
        assert copied == {"lemma": 1, "pos": 1}

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


def spy_kernel(monkeypatch) -> list:
    """Record the (rows, col) of every kernel call that cooc makes."""
    calls = []
    kernel = cooc._window_pairs

    def spy(index, doc_bucket, n_buckets, rows, window, col=None):
        calls.append((rows, col))
        return kernel(index, doc_bucket, n_buckets, rows, window, col)

    monkeypatch.setattr(cooc, "_window_pairs", spy)
    return calls


class TestAdjacency:
    def test_rarer_lemma_is_the_kernel_row(self, monkeypatch):
        # adjacency_count and pair_evolution share _lemma_pairs, which makes
        # the rarer lemma in the corpus the row and pairs a lemma with
        # itself as a one-row set
        index = build_index([lemma_doc("d0", DateSpec.exact(900), ["x", "y", "y", "z", "y"])])
        calls = spy_kernel(monkeypatch)
        for a, b in (("y", "x"), ("x", "y"), ("z", "x")):
            adjacency_count(index, None, a, b)
            pair_evolution(index, a, b, 2, 100)
        # a tie keeps the order
        assert [index.lemmas[row] for row, _ in calls] == ["x", "x", "x", "x", "z", "z"]
        assert [index.lemmas[col] for _, col in calls] == ["y", "y", "y", "y", "x", "x"]
        calls.clear()
        assert adjacency_count(index, None, "y", "y") == 1
        assert pair_evolution(index, "y", "y", 2, 100) == [(900, 2, 2 / 3)]
        assert calls == [([index.lemmas.id_of("y")], None)] * 2

    def test_row_is_the_rarer_lemma_in_the_corpus_not_in_the_docset(self, monkeypatch):
        # x is the rarer lemma in the corpus (3 against 6), y in d0 (1
        # against 2): x is the row, and the counts are those of d0 alone
        index = build_index(
            [
                lemma_doc("d0", DateSpec.exact(900), ["x", "y", "x"]),
                lemma_doc("d1", DateSpec.exact(950), ["x"] + ["y"] * 5),
            ]
        )
        d0 = id_docset(index, {"d0"})
        calls = spy_kernel(monkeypatch)
        for a, b in (("x", "y"), ("y", "x")):
            assert adjacency_count(index, d0, a, b) == brute_pairs(index, 1, {"d0"})[("x", "y")] == 2
            assert pair_evolution(index, a, b, 2, 100, d0) == brute_pair_bins(index, a, b, 2, 100, {"d0"})
        assert calls == [(index.lemmas.id_of("x"), index.lemmas.id_of("y"))] * 4

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

    @pytest.mark.parametrize("window", [0, -3])
    def test_window_below_one_rejected(self, window):
        index = build_index([lemma_doc("a", DateSpec.exact(900), ["x", "y"])])
        with pytest.raises(CorpusError, match="^window must be >= 1$"):
            pair_evolution(index, "x", "y", window, 100)

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
    """(index, window, docs, lemma a, lemma b); docs is None or an id set,
    which the oracles read and ``id_docset`` turns into the library's docset."""
    index = draw(corpora(vocab_sizes, tagged))
    lemmas = st.sampled_from(index.lemmas.entries)
    ids = [d.doc_id for d in index.documents]
    docs = draw(st.none() | st.sets(st.sampled_from(ids)))
    return index, draw(st.integers(1, 8)), docs, draw(lemmas), draw(lemmas)


@st.composite
def doc_buckets(draw, n_docs):
    """(n_buckets, doc_bucket): None, or a bucket in -1..n_buckets - 1 per document."""
    n_buckets = draw(st.integers(1, 3))
    bucket = st.lists(st.integers(-1, n_buckets - 1), min_size=n_docs, max_size=n_docs)
    return n_buckets, draw(st.none() | bucket.map(np.array))


@st.composite
def run_docsets(draw, n_docs):
    """(1, doc_bucket): a docset of 1-3 runs of adjacent documents, in
    bucket 0, with every other document left out (-1)."""
    n_runs = draw(st.integers(1, min(3, (n_docs + 1) // 2)))
    # strictly increasing edges, so that the runs are not empty and a left-out
    # document lies between two of them
    edges = sorted(draw(st.sets(st.integers(0, n_docs), min_size=2 * n_runs, max_size=2 * n_runs)))
    doc_bucket = np.full(n_docs, -1)
    for lo, hi in zip(edges[::2], edges[1::2]):
        doc_bucket[lo:hi] = 0
    return 1, doc_bucket


class TestKernelProperties:
    @PROPERTY
    @given(cases())
    def test_cooc_counts_match_brute_force(self, case):
        index, window, docs, a, _ = case
        table = cooc_counts(index, id_docset(index, docs), a, window)
        assert table.pair_counts == brute_pair_counts(index, a, window, docs)
        assert table.pivot_freq == brute_freqs(index, docs)[a]

    @PROPERTY
    @given(cases())
    def test_adjacency_count_matches_brute_force(self, case):
        index, _, docs, a, b = case  # a == b counts each a-a pair once
        got = adjacency_count(index, id_docset(index, docs), a, b)
        assert got == brute_pairs(index, 1, docs)[tuple(sorted((a, b)))]

    @PROPERTY
    @given(cases(), st.integers(1, 80))
    def test_pair_evolution_matches_brute_force(self, case, bin_width):
        index, window, docs, a, b = case
        bins = pair_evolution(index, a, b, window, bin_width, docset=id_docset(index, docs))
        assert bins == brute_pair_bins(index, a, b, window, bin_width, docs)

    @PROPERTY
    @given(cases(tagged=True), st.data())
    def test_pivot_scores_match_brute_force(self, case, data):
        # one bucket over a docset, or k tranches of the dated documents, each
        # with a drawn POS filter (an unknown tag among them) and min_count
        index, window, docs, a, _ = case
        pos_filter = data.draw(st.none() | st.sets(st.sampled_from((*POS_TAGS, "XX"))))
        min_count = data.draw(st.integers(1, 3))
        n_dated = len(index.dated_order())
        if n_dated >= 2 and data.draw(st.booleans()):
            tranches = make_tranches(index, data.draw(st.integers(2, n_dated)))
            positions = map(tranches.tranche_positions, range(tranches.k))
            groups = [{index.documents[int(p)].doc_id for p in tranche} for tranche in positions]
            union = set().union(*groups)
        else:
            groups, union = [docs], docs
        doc_bucket = None if union is None else np.array(
            [next((b for b, group in enumerate(groups) if doc.doc_id in group), -1) for doc in index.documents]
        )
        ids, pairs, dice_, freqs = cooc._pivot_scores(
            index, doc_bucket, len(groups), index.lemmas.id_of(a), window, pos_filter, min_count
        )
        lemmas = index.lemmas.entries
        want_pairs = [brute_pair_counts(index, a, window, group) for group in groups]
        want_freqs = [brute_freqs(index, group) for group in groups]
        totals = sum(map(Counter, want_pairs), Counter())
        passing = set(lemmas) if pos_filter is None else brute_pos_majority(index, pos_filter, union)
        candidates = [x for x in lemmas if totals[x] >= min_count and x in passing]
        assert [lemmas[i] for i in ids] == candidates
        assert freqs.tolist() == [[f[x] for x in lemmas] for f in want_freqs]
        assert pairs.tolist() == [[p.get(x, 0) for x in candidates] for p in want_pairs]
        assert dice_.tolist() == [
            [2.0 * p.get(x, 0) / (f[a] + f[x]) if f[a] + f[x] else 0.0 for x in candidates]
            for p, f in zip(want_pairs, want_freqs)
        ]

    @PROPERTY
    @given(cases(st.integers(4, 8)), st.integers(3, 5), st.booleans())
    def test_build_submatrix_matches_brute_force(self, case, m, include_pivot):
        index, window, docs, a, _ = case
        docset = id_docset(index, docs)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            try:
                sub = build_submatrix(index, docset, a, window, m, include_pivot=include_pivot)
            except CorpusError as exc:
                if "qualifying cooccurrents" not in str(exc):
                    raise
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
    def test_one_other_lemma_is_a_column_of_the_pivot_shape(self, case, data):
        # in every bucket; documents in bucket -1 count in neither shape
        index, window, _, _, _ = case
        assume(len(index.lemmas) > 1)
        n_buckets, doc_bucket = data.draw(doc_buckets(len(index)))
        row, col = data.draw(st.permutations(range(len(index.lemmas))))[:2]
        pivot = cooc._window_pairs(index, doc_bucket, n_buckets, row, window)
        pair = cooc._window_pairs(index, doc_bucket, n_buckets, row, window, col)
        assert pivot.shape == (n_buckets, len(index.lemmas))
        assert pair.shape == (n_buckets,)
        assert pair.tolist() == pivot[:, col].tolist()

    @PROPERTY
    @given(cases(), st.data())
    def test_mirror_walk_matches_brute_force(self, case, data):
        # a set of rows: every cell, the diagonal included, in every bucket
        index, window, _, _, _ = case
        n_buckets, doc_bucket = data.draw(doc_buckets(len(index)) | run_docsets(len(index)))
        order = data.draw(st.permutations(range(len(index.lemmas))))
        rows = order[: data.draw(st.integers(1, len(order)))]
        counts = cooc._window_pairs(index, doc_bucket, n_buckets, rows, window)
        assert counts.shape == (n_buckets, len(rows), len(rows))
        lemmas = [index.lemmas[r] for r in rows]
        for b in range(n_buckets):
            pairs = brute_pairs(index, window, bucket_members(index, doc_bucket, b))
            assert counts[b].tolist() == [[pairs[tuple(sorted((x, y)))] for y in lemmas] for x in lemmas]

    @PROPERTY
    @given(cases(), st.data())
    def test_docset_partition_additivity(self, case, data):
        index, window, _, a, b = case
        n_groups = data.draw(st.integers(1, 4))
        group_of = data.draw(
            st.lists(st.integers(0, n_groups - 1), min_size=len(index), max_size=len(index))
        )
        parts = [
            id_docset(index, {doc.doc_id for doc, g in zip(index.documents, group_of) if g == part})
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
        docset = id_docset(index, docs)
        assert adjacency_count(index, docset, a, b) == adjacency_count(index, docset, b, a)
        assert pair_evolution(index, a, b, window, bin_width, docset) == pair_evolution(
            index, b, a, window, bin_width, docset
        )


@pytest.mark.usefixtures("kernel_slab")
class TestKernelPropertiesOnSmallSlabs(TestKernelProperties):
    """The oracle properties again, with the kernel walking slabs of 1, 2
    and 7 occurrences."""


@pytest.mark.usefixtures("loaded_indexes")
class TestKernelPropertiesOnALoadedIndex(TestKernelProperties):
    """The oracle properties again, on indexes read back from their file in
    either format."""


@pytest.mark.usefixtures("kernel_slab")
class TestWideWindowsOnSmallSlabs:
    """Windows past 8: the pivot walk's 2w offsets outgrow its key buffer of
    16 slab lengths, so the buffer is counted part way through a slab."""

    @PROPERTY
    @given(cases(), st.integers(9, 20), st.data())
    def test_pivot_shape_matches_brute_force(self, case, window, data):
        index, _, _, a, _ = case
        n_buckets, doc_bucket = data.draw(doc_buckets(len(index)) | run_docsets(len(index)))
        counts = cooc._window_pairs(index, doc_bucket, n_buckets, index.lemmas.id_of(a), window)
        for b in range(n_buckets):
            brute = brute_pair_counts(index, a, window, bucket_members(index, doc_bucket, b))
            assert counts[b].tolist() == [brute.get(x, 0) for x in index.lemmas]

    @PROPERTY
    @given(cases(), st.integers(9, 20), st.data())
    def test_two_lemma_shape_matches_brute_force(self, case, window, data):
        # with and without a bucket map (None puts every document in bucket 0)
        index, _, _, _, _ = case
        assume(len(index.lemmas) > 1)
        n_buckets, doc_bucket = data.draw(doc_buckets(len(index)) | run_docsets(len(index)))
        row, col = data.draw(st.permutations(range(len(index.lemmas))))[:2]
        counts = cooc._window_pairs(index, doc_bucket, n_buckets, row, window, col)
        assert counts.shape == (n_buckets,)
        for bucket in range(n_buckets):
            members = bucket_members(index, doc_bucket, bucket)
            brute = brute_pair_counts(index, index.lemmas[row], window, members)
            assert counts[bucket] == brute.get(index.lemmas[col], 0)


@st.composite
def lookup_cases(draw):
    """(index, mask): 2-9 documents, some empty and some undated, where
    lemma "hi" occurs as often as there are documents and "lo" once (so
    their lookups over every document lie on either side of the
    occurrences-versus-documents crossover), among filler lemmas, each token
    with one of two forms and a random tag; and a mask over the documents:
    empty, full, one document, random, or random with both end documents in.
    """
    n_docs = draw(st.integers(2, 9))
    filled = draw(st.lists(st.booleans(), min_size=n_docs, max_size=n_docs))
    filled[draw(st.integers(0, n_docs - 1))] = True
    lemmas = [draw(st.lists(st.sampled_from(["f0", "f1"]), max_size=5)) if f else [] for f in filled]
    in_filled = st.sampled_from([i for i, f in enumerate(filled) if f])
    for lemma in ["hi"] * n_docs + ["lo"]:
        lemmas[draw(in_filled)].append(lemma)
    docs = []
    for i, doc_lemmas in enumerate(lemmas):
        tokens = [
            (lemma + draw(st.sampled_from(["", "a"])), draw(st.sampled_from(POS_TAGS)), lemma)
            for lemma in draw(st.permutations(doc_lemmas))
        ]
        lo = draw(st.none() | st.integers(800, 1100))
        date = DateSpec.undated() if lo is None else DateSpec.year_range(lo, lo + draw(st.integers(0, 60)))
        docs.append((f"d{i}", date, None, tokens))
    kind = draw(st.sampled_from(["empty", "full", "single", "random", "ends"]))
    mask = np.full(n_docs, kind == "full")
    if kind == "single":
        mask[draw(st.integers(0, n_docs - 1))] = True
    elif kind in ("random", "ends"):
        mask[:] = draw(st.lists(st.booleans(), min_size=n_docs, max_size=n_docs))
        if kind == "ends":
            mask[[0, -1]] = True
    return build_index(docs), mask


class TestDocsetLookup:
    """A lookup over a docset against the full lookup and brute force."""

    @PROPERTY
    @given(lookup_cases())
    def test_restricted_lookup_is_the_full_lookup_filtered(self, case):
        index, mask = case
        doc_of = [i for i, doc in enumerate(index.documents) for _ in range(doc.token_len)]
        sizes = {}
        for lid, lemma in enumerate(index.lemmas):
            full = _occurrences(index, [lid])
            assert full.tolist() == np.flatnonzero(index.lemma_ids == lid).tolist()
            assert _occurrence_docs(index, full).tolist() == [doc_of[p] for p in full.tolist()]
            want = [p for p in full.tolist() if mask[doc_of[p]]]
            got = _occurrences(index, [lid], mask)
            assert got.dtype == np.intp
            assert got.tolist() == want
            assert _occurrence_docs(index, got).tolist() == [doc_of[p] for p in want]
            sizes[lemma] = len(full)
        assert sizes["hi"] >= len(index) > sizes["lo"]

    @PROPERTY
    @given(lookup_cases(), st.data())
    def test_several_lemmas_are_the_union_of_their_restricted_lookups(self, case, data):
        index, mask = case
        rows = data.draw(st.lists(st.integers(0, len(index.lemmas) - 1), min_size=2, unique=True))
        got = _occurrences(index, rows, mask)
        assert got.dtype == np.intp
        union = np.concatenate([_occurrences(index, [lid], mask) for lid in rows])
        assert got.tolist() == sorted(union.tolist())

    @pytest.mark.usefixtures("kernel_slab")
    @PROPERTY
    @given(lookup_cases(), st.integers(1, 4), st.integers(1, 80), st.booleans())
    def test_queries_over_the_mask_match_brute_force(self, case, window, bin_width, filtered):
        index, mask = case
        inside = [doc for doc, keep in zip(index.documents, mask) if keep]
        ids = {doc.doc_id for doc in inside}
        freqs = brute_freqs(index, ids)
        pos_filter = {"NOM"} if filtered else None
        passing = brute_pos_majority(index, pos_filter, ids) if filtered else set(freqs)
        dated = [doc for doc in inside if doc.date.is_dated]
        starts = {doc.date.midpoint() // bin_width * bin_width for doc in dated}
        lemma_lists = dict(zip(index.doc_ids, doc_lemma_lists(index)))
        for lemma in index.lemmas:
            assert lemma_count(index, mask, lemma) == freqs[lemma]
            forms = [
                index.forms[int(index.form_ids[t])]
                for doc in inside
                for t in range(doc.token_start, doc.token_start + doc.token_len)
                if index.lemmas[int(index.lemma_ids[t])] == lemma
            ]
            if forms:
                assert form_share(index, mask, lemma, [lemma.upper()]) == forms.count(lemma) / len(forms)
            else:
                with pytest.raises(CorpusError, match="zero count in docset"):
                    form_share(index, mask, lemma, [lemma])
            counts = Counter()
            for doc in dated:
                counts[doc.date.midpoint() // bin_width * bin_width] += lemma_lists[doc.doc_id].count(lemma)
            series = time_series(index, lemma, bin_width, docset=mask)
            span = range(min(starts), max(starts) + 1, bin_width) if starts else range(0)
            assert [(b.start_year, b.count) for b in series.bins] == [(s, counts[s]) for s in span]
            scored = [
                (other, n, freqs[other], dice(n, freqs[lemma], freqs[other]))
                for other, n in brute_pair_counts(index, lemma, window, ids).items()
                if other in passing
            ]
            scored.sort(key=lambda c: (-c[3], -c[1], c[0]))
            got = top_cooccurrents(index, mask, lemma, window, 10, pos_filter=pos_filter)
            assert [tuple(c) for c in got] == scored


@pytest.mark.usefixtures("loaded_indexes")
class TestDocsetLookupOnALoadedIndex(TestDocsetLookup):
    """The docset lookup tests again, on indexes read back from their file in
    either format."""


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
        docset = id_docset(index, docs)
        got = top_cooccurrents(index, docset, a, window, k, pos_filter=pos_filter, min_count=min_count)
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
        brute = brute_tranche_scores(index, tranches, a, window)
        dated = {d.doc_id for d in index.documents if d.date.is_dated}
        passing = brute_pos_majority(index, pos_filter, dated) if pos_filter else set(index.lemmas)
        candidates = {x for x, n in brute.totals.items() if n >= min_count and x in passing}
        assert {e.lemma: list(e.dice_by_tranche) for e in full} == {x: brute.dice[x] for x in candidates}
        for e in full:
            d = np.array(e.dice_by_tranche)
            slope = ols_slope(d)
            assert e.score == slope / max(d.mean(), SCORE_EPSILON)
            assert e.direction == ("rising" if slope > 0 else "falling" if slope < 0 else "flat")
            assert e.total_pairs == brute.totals[e.lemma]
        for n in range(1, 6):
            assert entries(n) == full[:n]


def test_two_lemma_counts_scan_each_lemma_at_most_once():
    # the row is picked by the lengths of the cached positions, which the
    # kernel's and the per-bin lookups read too, so on a fresh index each
    # lemma's column scan is its first lookup, and no lemma x POS table is built
    def fresh():
        index = random_index(np.random.default_rng(31), min_tokens=300, max_vocab=12)
        return index, record_scans(index)

    index, _ = fresh()
    a, b = index.lemmas[0], index.lemmas[1]
    ids = {a: 0, b: 1}
    pair = tuple(sorted((a, b)))
    queries = [
        ((a, b), lambda index: pair_evolution(index, a, b, 3, 50), brute_pair_bins(index, a, b, 3, 50)),
        ((a,), lambda index: pair_evolution(index, a, a, 3, 50), brute_pair_bins(index, a, a, 3, 50)),
        ((a, b), lambda index: adjacency_count(index, None, a, b), brute_pairs(index, 1)[pair]),
    ]
    for lemmas, query, expected in queries:
        index, scans = fresh()
        assert query(index) == expected
        assert sorted(scans) == [ids[x] for x in lemmas]
        assert index._lemma_pos is None


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


def test_mirror_walk_across_a_slab_edge_and_a_left_out_document(monkeypatch):
    # slabs of two occurrences, every token a row occurrence (positions 0-7):
    # with d1 left out, its positions 2-4 are never looked up, so the slab
    # {0, 1} of d0 is followed by the slab {5, 6} of d2, which pairs 5 and 6
    # with 7 across its edge; with d1 in bucket 1, the slab {2, 3} reads
    # position 4 as a right side, and the slab {4, 5} pairs 5 with 6 and 7
    index = build_index(
        [
            lemma_doc("d0", DateSpec.exact(900), ["a", "b"]),
            lemma_doc("d1", DateSpec.exact(900), ["a", "a", "a"]),
            lemma_doc("d2", DateSpec.exact(900), ["b", "a", "b"]),
        ]
    )
    monkeypatch.setattr(cooc, "_SLAB", 2)
    rows = [index.lemmas.id_of("a"), index.lemmas.id_of("b")]
    counts = cooc._window_pairs(index, np.array([0, -1, 0]), 1, rows, 2)
    # d0: a-b; d2: b-a, a-b, b-b
    assert counts[0].tolist() == [[0, 3], [3, 1]]
    counts = cooc._window_pairs(index, np.array([0, 1, 0]), 2, rows, 2)
    assert counts[1].tolist() == [[3, 0], [0, 0]]


@pytest.mark.parametrize("between", [[], ["c"]], ids=["empty-document", "one-token-document"])
@pytest.mark.parametrize("slab", [1, 2])
@pytest.mark.parametrize("buckets", [None, [0, 1, 1]], ids=["one-bucket", "two-buckets"])
def test_mirror_walk_pairs_nothing_across_documents(monkeypatch, between, slab, buckets):
    # a at positions 1 and 2 (3 past a one-token document) lie within the
    # window but in two documents, whose keys the walk spaces more than the
    # window apart; only b-a in d0 and a-b in d2 are pairs
    index = build_index(
        [
            lemma_doc("d0", DateSpec.exact(900), ["b", "a"]),
            lemma_doc("d1", DateSpec.exact(900), between),
            lemma_doc("d2", DateSpec.exact(900), ["a", "b"]),
        ]
    )
    monkeypatch.setattr(cooc, "_SLAB", slab)
    rows = [index.lemmas.id_of("a"), index.lemmas.id_of("b")]
    doc_bucket = None if buckets is None else np.array(buckets)
    counts = cooc._window_pairs(index, doc_bucket, 1 + (buckets is not None), rows, 2)
    per_document = [[0, 1], [1, 0]]
    want = [[[0, 2], [2, 0]]] if buckets is None else [per_document, per_document]
    assert counts.tolist() == want


def test_mirror_walk_takes_any_window(monkeypatch):
    # a window past int64 counts like the corpus length, with no overflow
    # where a slab's right sides are found or in the keys, whose documents
    # (int32 when there are more occurrences than documents) are spaced the
    # corpus length plus one apart
    monkeypatch.setattr(cooc, "_SLAB", 2)
    index = single_doc("a b a a b".split())
    rows = [index.lemmas.id_of("a"), index.lemmas.id_of("b")]
    huge = cooc._window_pairs(index, None, 1, rows, 2**63)
    assert huge.tolist() == cooc._window_pairs(index, None, 1, rows, 5).tolist() == [[[3, 6], [6, 1]]]
    index = build_index(
        [
            lemma_doc(f"d{i}", DateSpec.exact(900), lemmas.split())
            for i, lemmas in enumerate(["a b a", "", "b", "a a b a", "b a"])
        ]
    )
    assert _occurrence_docs(index, _occurrences(index, rows)).dtype == np.int32
    pairs = brute_pairs(index, len(index.lemma_ids))
    want = [[[pairs[tuple(sorted((x, y)))] for y in "ab"] for x in "ab"]]
    assert want == [[[4, 6], [6, 0]]]
    for doc_bucket in (None, np.array([0, 0, -1, 0, 0])):
        assert cooc._window_pairs(index, doc_bucket, 1, rows, 2**63).tolist() == want


@pytest.mark.parametrize("window", [2, 11])
@pytest.mark.parametrize("slab", [1, 2, 7])
def test_pivot_walk_of_slabs_without_neighbours(monkeypatch, slab, window):
    # nine one-token pivot documents between two long ones: with slabs of 1,
    # 2 or 7 occurrences, some slab holds only pivots with no in-document
    # neighbour, and so no key; a window of 11 fills the slab's key buffer
    # (16 offsets) and counts it more than once
    filler = "x y z w x y z w x y z w".split()
    index = build_index(
        [lemma_doc("d0", DateSpec.exact(900), ["p"] * 7 + filler)]
        + [lemma_doc(f"s{i}", DateSpec.exact(900), ["p"]) for i in range(9)]
        + [lemma_doc("d1", DateSpec.exact(900), filler + ["p", "x", "p"])]
    )
    monkeypatch.setattr(cooc, "_SLAB", slab)
    pivot = index.lemmas.id_of("p")
    doc_bucket = np.array([0, 1, 0, 1, 0, 1, 0, 1, 0, 2, 2])
    counts = cooc._window_pairs(index, doc_bucket, 3, pivot, window)
    for b in range(3):
        brute = brute_pair_counts(index, "p", window, bucket_members(index, doc_bucket, b))
        assert dict(zip(index.lemmas, counts[b].tolist())) == {x: brute.get(x, 0) for x in index.lemmas}
    for col in (index.lemmas.id_of("x"), index.lemmas.id_of("w")):
        assert cooc._window_pairs(index, doc_bucket, 3, pivot, window, col).tolist() == counts[:, col].tolist()
    assert counts[0].any() and counts[2].any() and not counts[1].any()


@pytest.mark.parametrize(
    "cols, partial",
    [("rows", False), ("rows", True), ("all", False)],
    ids=["rows", "rows-partial-docset", "all"],
)
def test_kernel_temporaries_are_bounded_by_the_slab(monkeypatch, cols, partial):
    # every token is a row occurrence: eight lemmas, all of them rows, or
    # one lemma, the pivot against every lemma
    if cols == "rows":
        index, rows = synthetic_index(200_000, 8, 50, seed=3), list(range(8))
    else:  # its pairs are all pivot-pivot pairs, so every count is 0
        index, rows = synthetic_index(200_000, 1, 50, seed=3), 0
    n_occ = index.total_tokens
    # a partial docset: every third document left out
    doc_bucket = np.where(np.arange(len(index)) % 3 == 1, -1, 0) if partial else None

    def peak(slab):
        monkeypatch.setattr(cooc, "_SLAB", slab)
        tracemalloc.start()
        try:
            counts = cooc._window_pairs(index, doc_bucket, 1, rows, 5)
            return tracemalloc.get_traced_memory()[1], counts
        finally:
            tracemalloc.stop()

    slab = 1024
    # kept whole: the int64 occurrence positions and their int32 documents;
    # everything else is a few int64 arrays per slab, plus small V-length tables
    bound = 12 * n_occ + 128 * slab + (256 << 10)
    small, counts = peak(slab)
    assert small < bound
    whole, same = peak(n_occ)
    assert np.array_equal(counts, same)
    assert whole > bound  # one slab of every occurrence would break the bound
