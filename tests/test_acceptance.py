"""Acceptance criteria, one test per criterion, each at its stated tolerance
and runtime budget.  The conftest hook prints one pass/fail line per
criterion; run with ``pytest tests/test_acceptance.py -v``.
"""

import resource
import time
from collections import Counter

import numpy as np
import pytest

from diachrona.cli import run_cli
from diachrona.cooc import cooc_counts, dice, top_cooccurrents
from diachrona.corpus import CorpusIndex, subcorpus, with_ids
from diachrona.diachrony import evolving_cooccurrents, make_tranches
from diachrona.frequency import CountTable, lemma_count, ratio, time_series
from diachrona.indexio import load_index, save_index
from diachrona.ingest import parse_vertical
from diachrona.jacobi import jacobi_svd
from diachrona.semfield import correspondence_analysis
from diachrona.synth import synthetic_index

from conftest import random_index
from test_cli import SAMPLE
from test_diachrony import staircase_corpus

# Published pater/mater-family counts (9 lemma rows x 11 corpus columns)
# used as external input data for the arithmetic criteria.
FAMILY_LEMMAS = (
    "mater", "pater", "filius", "filia", "avus",
    "proavus", "abavus", "atavus", "tritavus",
)
FAMILY_SLICES = (
    "Antique", "Vulgate", "CEMA", "OpenMGH", "PL_II_V", "PL_V_VII",
    "PL_VIII_IX", "PL_X_XImid", "PL_XImid_XIII", "Thomisticum", "Latin_XV",
)
FAMILY_COUNTS = [
    [3244, 323, 25425, 4074, 8143, 3472, 7059, 9357, 9943, 2330, 1685],
    [8670, 1608, 47503, 14699, 50273, 21676, 45484, 40257, 48410, 16850, 6098],
    [5354, 4689, 175945, 18865, 63772, 20793, 54926, 47466, 64119, 20135, 6504],
    [1586, 1194, 21275, 3365, 4130, 1931, 4271, 5321, 5447, 895, 835],
    [779, 2, 3993, 709, 492, 370, 672, 774, 607, 109, 207],
    [108, 0, 384, 113, 73, 42, 66, 107, 72, 13, 25],
    [15, 0, 23, 20, 1, 6, 13, 18, 12, 1, 0],
    [23, 0, 103, 42, 22, 22, 29, 49, 21, 0, 5],
    [7, 0, 0, 9, 0, 12, 5, 10, 0, 0, 0],
]


class Budget:
    def __init__(self, seconds: float):
        self.seconds = seconds
        self.start = time.monotonic()

    def check(self):
        elapsed = time.monotonic() - self.start
        assert elapsed < self.seconds, f"runtime {elapsed:.1f}s exceeds {self.seconds}s budget"


@pytest.mark.criterion(1, "ratio reproduction from published counts")
def test_criterion_01_ratio_reproduction():
    budget = Budget(1.0)
    assert ratio(8670, 3244).value == pytest.approx(2.672, abs=1e-3)
    assert ratio(1608, 323).value == pytest.approx(4.978, abs=1e-3)
    assert ratio(50273, 8143).value == pytest.approx(6.174, abs=1e-3)
    # the last ratio is published rounded to one decimal: 6.2 to 1
    assert round(ratio(50273, 8143).value, 1) == 6.2
    budget.check()


@pytest.mark.criterion(2, "published count-table arithmetic is exact")
def test_criterion_02_count_table_arithmetic():
    budget = Budget(1.0)
    table = CountTable.from_counts(FAMILY_LEMMAS, FAMILY_SLICES, FAMILY_COUNTS)
    pater_row = table.row_sums[list(FAMILY_LEMMAS).index("pater")]
    assert int(pater_row) == 301528
    assert table.grand_total == 919586
    budget.check()


# ---------------------------------------------------------------------------
# shared random corpora for criteria 3 and 4
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def oracle_corpora():
    rng = np.random.default_rng(20260810)
    out = []
    for _ in range(200):
        index = random_index(rng, min_tokens=300, max_tokens=1000, max_vocab=30)
        window = int(rng.integers(1, 7))
        freqs = Counter()
        for i in index.lemma_ids:
            freqs[index.lemmas[int(i)]] += 1
        pivot = max(freqs, key=lambda l: (freqs[l], l))
        out.append((index, window, pivot, freqs))
    return out


def enumerate_all_pairs(index: CorpusIndex, pivot: str, window: int) -> dict[str, int]:
    """Independent O(N^2) oracle: every in-document token pair is generated
    and filtered by distance, with no windowed scanning."""
    counts: Counter = Counter()
    for doc in index.documents:
        span = index.lemma_ids[doc.token_start : doc.token_start + doc.token_len]
        n = len(span)
        if n < 2:
            continue
        ii, jj = np.triu_indices(n, 1)
        keep = (jj - ii) <= window
        ii, jj = ii[keep], jj[keep]
        left, right = span[ii], span[jj]
        pid = index.lemmas.id_of(pivot)
        lp, rp = left == pid, right == pid
        sel = lp ^ rp
        for neighbor in np.where(lp[sel], right[sel], left[sel]):
            counts[index.lemmas[int(neighbor)]] += 1
    return dict(counts)


@pytest.mark.criterion(3, "cooccurrence counts and rankings match the O(N^2) oracle")
def test_criterion_03_cooccurrence_oracle(oracle_corpora):
    budget = Budget(30.0)
    for case_no, (index, window, pivot, freqs) in enumerate(oracle_corpora):
        expected = enumerate_all_pairs(index, pivot, window)
        table = cooc_counts(index, None, pivot, window)
        assert table.pair_counts == expected
        assert table.pivot_freq == freqs[pivot]

        ranked = top_cooccurrents(index, None, pivot, window, k=10_000)
        oracle = [
            (lemma, count, freqs[lemma], 2.0 * count / (freqs[pivot] + freqs[lemma]))
            for lemma, count in expected.items()
        ]
        oracle.sort(key=lambda t: (-t[3], -t[1], t[0]))
        assert [tuple(c) for c in ranked] == oracle

        if case_no % 8 == 0:
            # POS-majority filtering against its own brute oracle
            allowed = {"NOM"}
            pos_of: dict[str, list[int]] = {}
            for lid, pid_ in zip(index.lemma_ids, index.pos_ids):
                pos_of.setdefault(index.lemmas[int(lid)], []).append(int(pid_))
            nom = index.pos_tags.id_of("NOM")
            passing = {
                lemma
                for lemma, tags in pos_of.items()
                if 2 * sum(1 for t in tags if t == nom) >= len(tags)
            }
            got = top_cooccurrents(index, None, pivot, window, k=10_000, pos_filter=allowed)
            expected_filtered = [t for t in oracle if t[0] in passing]
            assert [tuple(c) for c in got] == expected_filtered
    budget.check()


@pytest.mark.criterion(4, "dice bounds and bit-exact symmetry")
def test_criterion_04_dice_bounds_and_symmetry(oracle_corpora):
    budget = Budget(10.0)
    checked = 0
    for index, window, pivot, freqs in oracle_corpora:
        table = cooc_counts(index, None, pivot, window)
        for lemma, count in table.pair_counts.items():
            fa, fb = table.pivot_freq, table.neighbor_freqs[lemma]
            value = dice(count, fa, fb)
            assert 0.0 <= value <= window
            assert value == dice(count, fb, fa)  # bit-exact symmetry
            checked += 1
    assert checked > 1000
    budget.check()


@pytest.mark.criterion(5, "equal-token tranching: partition, monotone dates, mass bound")
def test_criterion_05_tranching():
    budget = Budget(10.0)
    rng = np.random.default_rng(55)
    done = 0
    while done < 100:
        index = random_index(
            rng, min_tokens=600, max_tokens=1500, dated_fraction=1.0, max_doc_len=60
        )
        order_all = index.dated_order()
        if len(order_all) < 10:
            continue
        done += 1
        tranches = make_tranches(index, 10)
        assert tranches.k == 10
        assert tranches.boundaries[0] == 0
        assert tranches.boundaries[-1] == len(order_all)
        assert list(tranches.boundaries) == sorted(set(tranches.boundaries))

        lens = [index.documents[p].token_len for p in tranches.doc_order]
        total = sum(lens)
        assert sum(tranches.token_masses) == total  # exact partition
        longest = max(lens)
        for mass in tranches.token_masses:
            assert abs(mass - total / 10) <= longest

        mids = [index.documents[p].date.midpoint() for p in tranches.doc_order]
        for t in range(10):
            lo, hi = tranches.boundaries[t], tranches.boundaries[t + 1]
            assert hi > lo
            if t < 9:
                nxt = mids[hi : tranches.boundaries[t + 2]]
                assert max(mids[lo:hi]) <= min(nxt)
    budget.check()


@pytest.mark.criterion(6, "trend detection ranks the late-rising collocate first")
def test_criterion_06_trend_detection():
    budget = Budget(5.0)
    index = staircase_corpus()
    tranches = make_tranches(index, 10)
    report = evolving_cooccurrents(index, tranches, "p", 1, min_count=20, top_n=10)
    assert report.entries[0].lemma == "X"
    assert report.entries[0].direction == "rising"
    scores = {e.lemma: abs(e.score) for e in report.entries}
    assert scores["Y"] < 0.1 * scores["X"]
    budget.check()


@pytest.mark.criterion(7, "correspondence analysis: inertia, axes, SVD validity")
def test_criterion_07_correspondence_analysis():
    budget = Budget(10.0)
    # (a) independence table
    result = correspondence_analysis([[4, 2], [2, 1]])
    assert result.total_inertia <= 1e-12
    # (b) identity table
    result = correspondence_analysis([[1, 0], [0, 1]])
    xs = result.row_coords[:, 0]
    assert abs(abs(xs[0]) - 1.0) <= 1e-10
    assert abs(abs(xs[1]) - 1.0) <= 1e-10
    assert xs[0] * xs[1] < 0
    assert result.inertia_fractions[0] == pytest.approx(1.0, abs=1e-12)
    # (c) 50 random tables: chi-square oracle + SVD validity
    rng = np.random.default_rng(77)
    for _ in range(50):
        m = int(rng.integers(2, 30))
        n = int(rng.integers(2, 30))
        table = rng.integers(1, 50, size=(m, n)).astype(np.float64)
        result = correspondence_analysis(table)

        grand = table.sum()
        expected_mat = np.outer(table.sum(axis=1), table.sum(axis=0)) / grand
        chi2_over_n = float(np.sum((table - expected_mat) ** 2 / expected_mat) / grand)
        assert result.total_inertia == pytest.approx(chi2_over_n, abs=1e-10)

        p = table / grand
        r = p.sum(axis=1)
        c = p.sum(axis=0)
        s = (p - np.outer(r, c)) / np.sqrt(np.outer(r, c))
        u, sigma, vt = jacobi_svd(s)
        k = min(m, n)
        assert np.max(np.abs(u.T @ u - np.eye(k))) <= 1e-10
        assert np.max(np.abs(vt @ vt.T - np.eye(k))) <= 1e-10
        recon = u @ np.diag(sigma) @ vt
        denom = max(np.linalg.norm(s), 1e-30)
        assert np.linalg.norm(recon - s) <= 1e-8 * max(denom, 1.0)
    budget.check()


@pytest.mark.criterion(8, "time-series bin counts conserve the dated total exactly")
def test_criterion_08_time_series_conservation():
    budget = Budget(5.0)
    rng = np.random.default_rng(88)
    for _ in range(20):
        index = random_index(rng, min_tokens=100, max_tokens=800, dated_fraction=0.7)
        dated = {d.doc_id for d in index.documents if d.date.is_dated}
        for lid in range(min(4, len(index.lemmas))):
            lemma = index.lemmas[lid]
            expected = lemma_count(index, subcorpus(index, with_ids(*dated)), lemma)
            for width in (25, 50, 100):
                series = time_series(index, lemma, width)
                assert series.total_count() == expected
    budget.check()


@pytest.mark.criterion(9, "index round-trip equality and byte-identical re-save")
def test_criterion_09_round_trip(tmp_path):
    budget = Budget(10.0)
    rng = np.random.default_rng(99)
    corpora = [parse_vertical("")]
    corpora += [random_index(rng, min_tokens=5, max_tokens=500) for _ in range(49)]
    for i, index in enumerate(corpora):
        first = tmp_path / f"{i}.csem"
        second = tmp_path / f"{i}b.csem"
        save_index(index, first)
        loaded = load_index(first)
        assert loaded == index
        save_index(loaded, second)
        assert first.read_bytes() == second.read_bytes()
    budget.check()


@pytest.mark.criterion(10, "10M-token corpus: build + top collocates in budget")
def test_criterion_10_scale():
    start = time.monotonic()
    index = synthetic_index(10_000_000, 30_000, 50_000, seed=7)
    assert index.total_tokens == 10_000_000
    ranked = top_cooccurrents(index, None, index.lemmas[0], 5, k=50, min_count=5)
    elapsed = time.monotonic() - start
    assert len(ranked) == 50
    assert elapsed < 60.0, f"scale run took {elapsed:.1f}s"
    peak_gb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / (1024**2)
    assert peak_gb < 2.0, f"peak RSS {peak_gb:.2f} GB exceeds 2 GB"


@pytest.mark.criterion(11, "end-to-end CLI pipeline is byte-deterministic")
def test_criterion_11_cli_determinism(tmp_path, capsys):
    def pipeline(workdir):
        workdir.mkdir()
        idx = workdir / "c.csem"
        assert run_cli(["index", "build", "--input", str(SAMPLE), "--out", str(idx)]) == 0
        assert run_cli(
            ["freq", "series", "--lemma", "pater", "--bin", "100", "--index", str(idx),
             "--out", str(workdir / "series.tsv"), "--svg", str(workdir / "series.svg")]
        ) == 0
        assert run_cli(
            ["cooc", "top", "--pivot", "pater", "--window", "5", "--k", "10",
             "--pos", "NOM,ADJ", "--min", "2", "--index", str(idx),
             "--out", str(workdir / "top.tsv")]
        ) == 0
        assert run_cli(
            ["evolve", "--pivot", "pater", "--k", "10", "--window", "5", "--min", "5",
             "--top", "10", "--index", str(idx), "--out", str(workdir / "evolve.tsv")]
        ) == 0
        assert run_cli(
            ["map", "--pivot", "pater", "--terms", "8", "--window", "5", "--min", "2",
             "--index", str(idx), "--tsv", str(workdir / "map.tsv"),
             "--svg", str(workdir / "map.svg")]
        ) == 0
        return ["c.csem", "series.tsv", "series.svg", "top.tsv", "evolve.tsv", "map.tsv", "map.svg"]

    files = pipeline(tmp_path / "run1")
    pipeline(tmp_path / "run2")
    for name in files:
        a = (tmp_path / "run1" / name).read_bytes()
        b = (tmp_path / "run2" / name).read_bytes()
        assert a == b, f"{name} differs between identical runs"
