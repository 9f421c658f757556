"""Output checks: every result is compared with the reference counters or
with a property the method must have, never with stored output."""

from __future__ import annotations

import math
import xml.etree.ElementTree as ET

import numpy as np

import reference as ref
from inputs import CorpusArrays

REL = 1e-9  # tolerance for floats computed along a different path


class CheckFailure(AssertionError):
    """A program output disagrees with the reference or a required property."""


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailure(message)


def close(a: float, b: float, rel: float = REL, abs_: float = 1e-12) -> bool:
    return math.isclose(a, b, rel_tol=rel, abs_tol=abs_)


# ----------------------------------------------------------------------
# collocates
# ----------------------------------------------------------------------


def check_top(result, expected: list[ref.Collocate], what: str) -> None:
    """Same collocates in the same order with the same counts and Dice."""
    expect(len(result) == len(expected), f"{what}: {len(result)} collocates, reference {len(expected)}")
    for rank, (got, want) in enumerate(zip(result, expected), start=1):
        expect(
            (got.lemma, got.pair_count, got.freq) == (want.lemma, want.pair_count, want.freq),
            f"{what}: rank {rank} is {tuple(got[:3])}, reference {tuple(want[:3])}",
        )
        expect(close(got.dice, want.dice), f"{what}: rank {rank} dice {got.dice} != {want.dice}")


def check_adjacency(value: int, corpus: CorpusArrays, selection, a: str, b: str, what: str) -> None:
    names = corpus.lemma_names
    want = int(
        ref.pair_count(corpus, names.index(a), names.index(b), 1, ref.selection_buckets(selection))[0]
    )
    expect(value == want, f"{what}: adjacency {value}, reference {want}")


# ----------------------------------------------------------------------
# diachronic
# ----------------------------------------------------------------------


def tranche_buckets(corpus: CorpusArrays, tranches) -> np.ndarray:
    """Check that tranches partition the dated documents in date order with
    near-equal masses; return the document -> tranche map."""
    k = tranches.k
    bucket = np.full(len(corpus.starts), -1, dtype=np.int64)
    lens = corpus.ends - corpus.starts
    last_mid = -(10**9)
    for t in range(k):
        docs = np.asarray(tranches.tranche_positions(t), dtype=np.int64)
        expect(len(docs) > 0, f"tranche {t} is empty")
        expect(bool(np.all(bucket[docs] == -1)), f"tranche {t} overlaps an earlier tranche")
        bucket[docs] = t
        mids = corpus.mids[docs]
        expect(bool(np.all(corpus.dated[docs])), f"tranche {t} holds an undated document")
        expect(bool(np.all(np.diff(mids) >= 0)) and mids[0] >= last_mid, f"tranche {t} breaks date order")
        last_mid = int(mids[-1])
        expect(
            int(tranches.token_masses[t]) == int(lens[docs].sum()),
            f"tranche {t} reports mass {tranches.token_masses[t]}, documents hold {int(lens[docs].sum())}",
        )
    expect(bool(np.array_equal(bucket >= 0, corpus.dated)), "tranches do not cover exactly the dated documents")
    total = int(lens[corpus.dated].sum())
    slack = int(lens[corpus.dated].max())
    for t, mass in enumerate(tranches.token_masses):
        expect(abs(k * int(mass) - total) <= k * slack, f"tranche {t} mass {mass} is more than one document off T/k")
    return bucket


def ols_scores(dice_rows: np.ndarray, epsilon: float = 1e-12) -> tuple[np.ndarray, np.ndarray]:
    """(slope, slope / max(mean, epsilon)) per column, via numpy least squares."""
    k = dice_rows.shape[0]
    x = np.arange(1, k + 1, dtype=np.float64)
    design = np.vstack([x, np.ones(k)]).T
    slope = np.linalg.lstsq(design, dice_rows, rcond=None)[0][0]
    return slope, slope / np.maximum(dice_rows.mean(axis=0), epsilon)


def check_evolution(report, tranches, corpus: CorpusArrays, pivot: str, window: int,
                    pos_filter, min_count: int, top_n: int) -> None:
    bucket = tranche_buckets(corpus, tranches)
    k = tranches.k
    pid = corpus.lemma_names.index(pivot)
    pairs = ref.pivot_pairs(corpus, pid, window, bucket, k)
    freqs = ref.lemma_freqs(corpus, bucket, k)
    dice = ref.dice(pairs, freqs, freqs[:, [pid]])
    totals = pairs.sum(axis=0)
    candidate = totals >= min_count
    majority = ref.pos_majority(corpus, corpus.dated, pos_filter)
    if majority is not None:
        candidate &= majority
    candidate[pid] = False
    ids = np.flatnonzero(candidate)
    slope, score = ols_scores(dice[:, ids])
    by_lemma = {corpus.lemma_names[i]: j for j, i in enumerate(ids.tolist())}
    entries = report.entries
    expect(len(entries) == min(top_n, len(ids)), f"evolve {pivot}: {len(entries)} entries for {len(ids)} candidates")
    for e in entries:
        j = by_lemma.get(e.lemma)
        expect(j is not None, f"evolve {pivot}: {e.lemma} is not a candidate")
        i = ids[j]
        expect(e.total_pairs == int(totals[i]), f"evolve {pivot}: {e.lemma} total {e.total_pairs} != {int(totals[i])}")
        for t in range(k):
            expect(close(e.dice_by_tranche[t], dice[t, i]), f"evolve {pivot}: {e.lemma} tranche {t} dice differs")
        expect(close(e.score, score[j], rel=1e-7, abs_=1e-9), f"evolve {pivot}: {e.lemma} score {e.score} != {score[j]}")
        flat = abs(slope[j]) <= 1e-12 * max(1e-300, float(np.abs(dice[:, i]).max()))
        want = "rising" if slope[j] > 0 else "falling" if slope[j] < 0 else "flat"
        expect(flat or e.direction == want, f"evolve {pivot}: {e.lemma} direction {e.direction}, want {want}")
    mags = [abs(e.score) for e in entries]
    expect(all(a >= b * (1 - 1e-9) for a, b in zip(mags, mags[1:])), f"evolve {pivot}: entries not ranked by |score|")
    if entries and len(ids) > len(entries):
        listed = {e.lemma for e in entries}
        rest = [abs(score[j]) for lemma, j in by_lemma.items() if lemma not in listed]
        expect(max(rest) <= mags[-1] * (1 + 1e-7) + 1e-12, f"evolve {pivot}: a higher-scoring collocate was left out")


def check_pair_series(bins, corpus: CorpusArrays, a: str, b: str, window: int, width: int) -> None:
    names = corpus.lemma_names
    a_id, b_id = names.index(a), names.index(b)
    first, bucket, n = ref.year_bins(corpus, width)
    pairs = ref.pair_count(corpus, a_id, b_id, window, bucket, n)
    freqs = ref.lemma_freqs(corpus, bucket, n)
    dice = ref.dice(pairs, freqs[:, a_id], freqs[:, b_id])
    expect(len(bins) == n, f"pair {a}/{b}: {len(bins)} bins, reference {n}")
    for i, pb in enumerate(bins):
        expect(pb.start_year == first + i * width, f"pair {a}/{b}: bin {i} starts at {pb.start_year}")
        expect(pb.pair_count == int(pairs[i]), f"pair {a}/{b}: bin {pb.start_year} count {pb.pair_count} != {int(pairs[i])}")
        expect(close(pb.dice, dice[i]), f"pair {a}/{b}: bin {pb.start_year} dice differs")
    dated_total = int(ref.pair_count(corpus, a_id, b_id, window, ref.selection_buckets(corpus.dated))[0])
    expect(sum(pb.pair_count for pb in bins) == dated_total, f"pair {a}/{b}: bins do not sum to the dated total")


def check_series(series, corpus: CorpusArrays, lemma: str, width: int, selection=None) -> None:
    lid = corpus.lemma_names.index(lemma)
    first, bucket, n = ref.year_bins(corpus, width, selection)
    counts = ref.lemma_freqs(corpus, bucket, n)[:, lid]
    lens = corpus.ends - corpus.starts
    masses = np.bincount(bucket[bucket >= 0], weights=lens[bucket >= 0], minlength=n).astype(np.int64)
    expect(len(series.bins) == n, f"series {lemma}: {len(series.bins)} bins, reference {n}")
    for i, tb in enumerate(series.bins):
        want = (first + i * width, int(counts[i]), int(masses[i]))
        expect((tb.start_year, tb.count, tb.token_mass) == want, f"series {lemma}: bin {i} is {tuple(tb[:3])}, reference {want}")
        pm = 1e6 * want[1] / want[2] if want[2] else None
        expect(tb.per_million == pm or close(tb.per_million, pm), f"series {lemma}: bin {i} rate differs")
    inside = corpus.dated if selection is None else corpus.dated & selection
    total = int(ref.lemma_freqs(corpus, ref.selection_buckets(inside))[0, lid])
    expect(series.total_count() == total, f"series {lemma}: bins do not sum to the dated total")


def ca_reference(matrix: np.ndarray):
    """(chi2 / n, first two inertia fractions, first two row coordinate
    columns) computed with numpy's SVD."""
    table = np.asarray(matrix, dtype=np.float64)
    n = table.sum()
    r = table.sum(axis=1) / n
    c = table.sum(axis=0) / n
    expected = np.outer(r, c) * n
    chi2 = float(((table - expected) ** 2 / expected).sum())
    s = (table / n - np.outer(r, c)) / np.sqrt(np.outer(r, c))
    u, sigma, _ = np.linalg.svd(s)
    rows = u[:, :2] * sigma[:2] / np.sqrt(r)[:, None]
    return chi2 / n, sigma[:2] ** 2 / (sigma**2).sum(), rows


def check_map(field, corpus: CorpusArrays, selection, pivot: str, window: int, m: int,
              pos_filter=None, min_count: int = 1) -> None:
    """The map's terms are the pivot plus its reference top collocates, and
    its CA matches numpy's on the reference submatrix: total inertia to
    1e-7 relative, which one pair count off by one already breaks."""
    ranked = ref.top_collocates(corpus, selection, pivot, window, m - 1, pos_filter, min_count)
    terms = [pivot] + [c.lemma for c in ranked]
    want = ref.submatrix(corpus, selection, terms, window)
    check_ca(field.total_inertia, field.inertia_fractions, [(p.lemma, p.x, p.y) for p in field.points], terms, want)


def check_ca(total_inertia, fractions, points, terms, matrix, rel: float = 1e-7) -> None:
    inertia, want_fractions, rows = ca_reference(matrix)
    expect([p[0] for p in points] == terms, "map: point labels differ from the submatrix terms")
    expect(close(total_inertia, inertia, rel=rel), f"map: total inertia {total_inertia} != chi2/n {inertia}")
    for axis in range(2):
        expect(close(fractions[axis], want_fractions[axis], rel=rel, abs_=1e-9), f"map: axis {axis + 1} inertia share differs")
        got = np.array([p[1 + axis] for p in points])
        want = rows[:, axis]
        scale = max(float(np.abs(want).max()), 1e-12)
        same = np.allclose(got, want, rtol=0, atol=rel * 10 * scale)
        flipped = np.allclose(got, -want, rtol=0, atol=rel * 10 * scale)
        expect(same or flipped, f"map: axis {axis + 1} coordinates differ from numpy's CA")


def check_svg(text: str, what: str) -> None:
    try:
        root = ET.fromstring(text)
    except ET.ParseError as exc:
        raise CheckFailure(f"{what}: SVG does not parse: {exc}") from None
    expect(root.tag.endswith("svg"), f"{what}: root element is {root.tag}")
