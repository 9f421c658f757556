"""The benchmark's reference counters against an O(N^2) all-pairs
enumeration, and its checkers against deliberately corrupted results."""

from __future__ import annotations

import itertools
import os
import sys

import numpy as np
import pytest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import checks  # noqa: E402
import reference as ref  # noqa: E402
from inputs import CorpusArrays  # noqa: E402

import diachrona as dc  # noqa: E402


def random_corpus(rng: np.random.Generator) -> CorpusArrays:
    n_docs = int(rng.integers(1, 8))
    lens = rng.integers(0, 25, size=n_docs)
    lens[rng.integers(0, n_docs)] += 1  # at least one token
    n = int(lens.sum())
    vocab = int(rng.integers(2, 7))
    starts = np.concatenate(([0], np.cumsum(lens)[:-1])).astype(np.int64)
    kinds = rng.integers(0, 3, size=n_docs)
    lo = np.where(kinds > 0, rng.integers(900, 1000, size=n_docs), 0)
    hi = np.where(kinds == 2, lo + rng.integers(1, 30, size=n_docs), lo)
    return CorpusArrays(
        lemma=rng.integers(0, vocab, size=n).astype(np.int64),
        pos=rng.integers(0, 3, size=n).astype(np.int64),
        form=np.zeros(n, dtype=np.int64),
        lemma_names=[f"l{i}" for i in range(vocab)],
        pos_names=["NOM", "ADJ", "VER"],
        form_names=["f"],
        doc_ids=[f"d{i}" for i in range(n_docs)],
        starts=starts,
        ends=starts + lens,
        kinds=kinds,
        lo=lo,
        hi=hi,
        typologies=[None] * n_docs,
    )


def all_pairs(corpus: CorpusArrays, window: int, selection):
    """Every unordered in-document token pair (i < j) at distance <= window
    inside the selected documents, by brute force."""
    doc = np.full(len(corpus.lemma), -1)
    for d, (s, e) in enumerate(zip(corpus.starts, corpus.ends)):
        doc[s:e] = d
    for i, j in itertools.combinations(range(len(corpus.lemma)), 2):
        if j - i <= window and doc[i] == doc[j] and (selection is None or selection[doc[i]]):
            yield int(corpus.lemma[i]), int(corpus.lemma[j])


def oracle_pivot_pairs(corpus, pivot, window, selection):
    counts = np.zeros(corpus.n_lemmas, dtype=np.int64)
    for a, b in all_pairs(corpus, window, selection):
        if (a == pivot) != (b == pivot):
            counts[b if a == pivot else a] += 1
    return counts


def oracle_pair_count(corpus, a, b, window, selection):
    return sum(1 for x, y in all_pairs(corpus, window, selection) if {x, y} == {a, b} and (a != b or x == y))


def random_selection(rng, corpus):
    return None if rng.random() < 0.3 else rng.random(len(corpus.starts)) < 0.6


@pytest.mark.parametrize("seed", range(40))
def test_pivot_pairs_match_all_pairs_enumeration(seed):
    rng = np.random.default_rng(seed)
    corpus = random_corpus(rng)
    window = int(rng.integers(1, 7))
    selection = random_selection(rng, corpus)
    for pivot in range(corpus.n_lemmas):
        got = ref.pivot_pairs(corpus, pivot, window, ref.selection_buckets(selection))[0]
        assert np.array_equal(got, oracle_pivot_pairs(corpus, pivot, window, selection))


@pytest.mark.parametrize("seed", range(40))
def test_pair_count_matches_all_pairs_enumeration(seed):
    rng = np.random.default_rng(1000 + seed)
    corpus = random_corpus(rng)
    window = int(rng.integers(1, 7))
    selection = random_selection(rng, corpus)
    for a, b in itertools.product(range(corpus.n_lemmas), repeat=2):
        got = int(ref.pair_count(corpus, a, b, window, ref.selection_buckets(selection))[0])
        assert got == oracle_pair_count(corpus, a, b, window, selection)


def test_buckets_partition_the_counts():
    rng = np.random.default_rng(7)
    corpus = random_corpus(rng)
    bucket = rng.integers(-1, 3, size=len(corpus.starts))
    by_bucket = ref.pivot_pairs(corpus, 0, 3, bucket, 3)
    for b in range(3):
        assert np.array_equal(by_bucket[b], oracle_pivot_pairs(corpus, 0, 3, bucket == b))


def test_midpoint_selection_uses_floor_midpoints():
    rng = np.random.default_rng(3)
    corpus = random_corpus(rng)
    sel = corpus.slice_docs(940, 960)
    for d in range(len(corpus.starts)):
        mid = (corpus.lo[d] + corpus.hi[d]) // 2
        assert sel[d] == (corpus.kinds[d] > 0 and 940 <= mid <= 960)


def program_index(corpus: CorpusArrays):
    docs = []
    for d, (s, e) in enumerate(zip(corpus.starts.tolist(), corpus.ends.tolist())):
        date = (dc.DateSpec.undated() if corpus.kinds[d] == 0
                else dc.DateSpec.year_range(int(corpus.lo[d]), int(corpus.hi[d])))
        records = [(corpus.lemma_names[corpus.lemma[i]], corpus.pos_names[corpus.pos[i]],
                    corpus.lemma_names[corpus.lemma[i]]) for i in range(s, e)]
        docs.append((corpus.doc_ids[d], date, None, records))
    return dc.index_from_documents(docs)


def dense_corpus(seed: int = 11) -> CorpusArrays:
    rng = np.random.default_rng(seed)
    while True:
        corpus = random_corpus(rng)
        if len(corpus.lemma) > 40:
            return corpus


def test_check_top_accepts_the_program_and_rejects_an_off_by_one_count():
    corpus = dense_corpus()
    index = program_index(corpus)
    want = ref.top_collocates(corpus, None, "l0", 3, 10)
    got = dc.top_cooccurrents(index, None, "l0", 3, k=10)
    checks.check_top(got, want, "top")
    bumped = list(got)
    bumped[0] = bumped[0]._replace(pair_count=bumped[0].pair_count + 1)
    with pytest.raises(checks.CheckFailure):
        checks.check_top(bumped, want, "top")


def test_check_pair_series_rejects_an_off_by_one_bin():
    corpus = dense_corpus()
    corpus = CorpusArrays(**{**corpus.__dict__, "kinds": np.ones_like(corpus.kinds),
                             "lo": np.arange(len(corpus.starts)) * 10 + 900,
                             "hi": np.arange(len(corpus.starts)) * 10 + 900})
    index = program_index(corpus)
    bins = dc.pair_evolution(index, "l0", "l1", 3, 20)
    checks.check_pair_series(bins, corpus, "l0", "l1", 3, 20)
    hit = next(i for i, b in enumerate(bins) if b.pair_count)
    broken = list(bins)
    broken[hit] = broken[hit]._replace(pair_count=broken[hit].pair_count - 1)
    with pytest.raises(checks.CheckFailure):
        checks.check_pair_series(broken, corpus, "l0", "l1", 3, 20)


def test_check_ca_rejects_a_wrong_inertia():
    matrix = np.array([[0, 5, 2], [5, 0, 7], [2, 7, 0]])
    result = dc.correspondence_analysis(matrix)
    points = [(f"t{i}", *result.row_coords[i]) for i in range(3)]
    terms = ["t0", "t1", "t2"]
    checks.check_ca(result.total_inertia, result.inertia_fractions, points, terms, matrix)
    with pytest.raises(checks.CheckFailure):
        checks.check_ca(result.total_inertia * 1.001, result.inertia_fractions, points, terms, matrix)


@pytest.mark.parametrize("seed", range(20))
def test_submatrix_matches_all_pairs_enumeration(seed):
    rng = np.random.default_rng(2000 + seed)
    corpus = random_corpus(rng)
    window = int(rng.integers(1, 7))
    selection = random_selection(rng, corpus)
    terms = corpus.lemma_names[: max(2, corpus.n_lemmas - 1)]
    want = np.zeros((len(terms), len(terms)), dtype=np.int64)
    ids = [corpus.lemma_names.index(t) for t in terms]
    for a, b in all_pairs(corpus, window, selection):
        if a in ids and b in ids and a != b:
            want[ids.index(a), ids.index(b)] += 1
            want[ids.index(b), ids.index(a)] += 1
    assert np.array_equal(ref.submatrix(corpus, selection, terms, window), want)


def test_check_map_rejects_one_submatrix_count_off_by_one():
    corpus = dense_corpus()
    index = program_index(corpus)
    field = dc.semantic_map(index, None, "l0", 3, 3)
    checks.check_map(field, corpus, None, "l0", 3, 3)
    terms = [p.lemma for p in field.points]
    points = [(p.lemma, p.x, p.y) for p in field.points]
    matrix = ref.submatrix(corpus, None, terms, 3)
    matrix[0, 1] += 1
    matrix[1, 0] += 1
    with pytest.raises(checks.CheckFailure):
        checks.check_ca(field.total_inertia, field.inertia_fractions, points, terms, matrix)
