"""Semantic-field maps: pivot-centered cooccurrence submatrices projected
onto their first two factor axes by correspondence analysis.

The submatrix takes the pivot plus its strongest collocates and counts
windowed pairs among them; correspondence analysis then decomposes the
table in the chi-square metric, yielding per-term planar coordinates whose
axes carry decreasing shares of the table's total inertia (chi-square /
grand total).  Raw counts feed the decomposition by default because CA's
geometry expects a contingency-like table; a Dice-weighted variant is
available for exploration.
"""

from __future__ import annotations

import warnings
from collections.abc import Iterable
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .cooc import _dice, _docset_bucket, _window_pairs, top_cooccurrents
from .corpus import CorpusError, CorpusIndex
from .frequency import _docset_counts
from .jacobi import jacobi_svd

__all__ = [
    "DSMSubmatrix",
    "CAResult",
    "SemanticMap",
    "MapPoint",
    "build_submatrix",
    "correspondence_analysis",
    "semantic_map",
]

_RANK_EPS = 1.0e-12
# a field map is planar: correspondence analysis keeps two factor axes
_AXES = 2


@dataclass(frozen=True)
class DSMSubmatrix:
    """Symmetric windowed pair counts among a pivot's top collocates.

    Diagonal is forced to zero; rows/columns that ended up all-zero have
    been pruned (their lemmas are listed in ``pruned``).
    """

    terms: tuple[str, ...]
    counts: np.ndarray  # square int64, symmetric, zero diagonal
    pruned: tuple[str, ...]


def build_submatrix(
    index: CorpusIndex,
    docset,
    pivot: str,
    window: int,
    m: int,
    pos_filter: Iterable[str] | None = None,
    min_count: int = 1,
    include_pivot: bool = True,
    weight: str = "raw",
) -> DSMSubmatrix:
    """Pair-count matrix over the pivot and its top Dice-ranked collocates.

    ``m`` is the total number of terms on the map; with ``include_pivot``
    the pivot occupies slot 0 and the top m-1 collocates follow.  Cells use
    the cooccurrence module's unordered-pair counting rule.  ``weight``
    may be "raw" (counts, the default) or "dice" (each cell rescaled by
    the marginal frequencies of its two terms).
    """
    if m < 3:
        raise CorpusError("submatrix needs at least 3 terms")
    if weight not in ("raw", "dice"):
        raise CorpusError(f"unknown weight mode: {weight!r}")
    needed = m - 1 if include_pivot else m
    dmask = index.doc_mask(docset)
    ranked = top_cooccurrents(
        index, dmask, pivot, window, k=needed, pos_filter=pos_filter, min_count=min_count
    )
    if len(ranked) < needed:
        raise CorpusError(
            f"pivot {pivot!r} has only {len(ranked)} qualifying cooccurrents, "
            f"need {needed} for a {m}-term map"
        )
    terms = ([pivot] if include_pivot else []) + [c.lemma for c in ranked]
    term_ids = np.asarray([index.lemmas.id_of(t) for t in terms], dtype=np.int64)

    counts = _window_pairs(index, _docset_bucket(dmask), 1, term_ids, window)[0]
    np.fill_diagonal(counts, 0)

    if weight == "dice":
        freqs = _docset_counts(index, dmask)[term_ids]
        counts = _dice(counts, freqs[:, None], freqs[None, :])

    keep = ~np.all(counts == 0, axis=1)
    pruned = tuple(t for t, ok in zip(terms, keep) if not ok)
    if pruned:
        warnings.warn(
            f"pruned {len(pruned)} all-zero term(s) from submatrix: {', '.join(pruned)}",
            stacklevel=2,
        )
        counts = counts[np.ix_(keep, keep)]
        terms = [t for t, ok in zip(terms, keep) if ok]
    return DSMSubmatrix(tuple(terms), counts, pruned)


class CAResult(NamedTuple):
    """First two factor axes of a correspondence analysis."""

    row_coords: np.ndarray  # (m, 2)
    col_coords: np.ndarray  # (n, 2)
    inertia_fractions: np.ndarray  # (2,)
    total_inertia: float
    singular_values: np.ndarray  # all min(m, n) values, descending


def correspondence_analysis(matrix) -> CAResult:
    """Row/column coordinates on the first two factor axes, plus inertias.

    Total inertia equals chi-square / grand-total; per-axis inertia is the
    squared singular value.  A rank-1 (independence-like) table yields zero
    inertia and all-zero coordinates; a rank-deficient second axis comes
    back as zeros with zero inertia.
    """
    table = np.asarray(matrix, dtype=np.float64)
    if table.ndim != 2 or table.shape[0] < 1 or table.shape[1] < 1:
        raise CorpusError("correspondence analysis needs a 2-D table")
    # a non-finite cell, or finite cells whose total overflows, is reported here
    with np.errstate(over="ignore", invalid="ignore"):
        grand = table.sum()
    if not np.isfinite(grand):
        raise CorpusError("correspondence analysis needs finite values with a finite total")
    if np.any(table < 0):
        raise CorpusError("correspondence analysis needs non-negative values")
    if grand <= 0:
        raise CorpusError("correspondence analysis needs a positive grand total")
    row_zero = np.nonzero(table.sum(axis=1) == 0)[0]
    col_zero = np.nonzero(table.sum(axis=0) == 0)[0]
    if len(row_zero) or len(col_zero):
        raise CorpusError(
            "table has all-zero rows/columns "
            f"(rows {row_zero.tolist()}, columns {col_zero.tolist()}); prune them first"
        )

    p = table / grand
    r = p.sum(axis=1)
    c = p.sum(axis=0)
    # cells far below the total can underflow the expected counts to zero
    with np.errstate(divide="ignore", invalid="ignore"):
        s = (p - np.outer(r, c)) / np.sqrt(np.outer(r, c))
    if not np.all(np.isfinite(s)):
        raise CorpusError("correspondence analysis: table values span too wide a range")
    try:
        u, sigma, vt = jacobi_svd(s)
    except np.linalg.LinAlgError as exc:
        raise CorpusError(f"correspondence analysis failed: {exc}") from exc
    if len(sigma) and sigma[0] > 0:
        # axes below working precision are rank artifacts: report as zero
        sigma = np.where(sigma <= sigma[0] * _RANK_EPS, 0.0, sigma)

    rank = min(_AXES, len(sigma))
    sig = np.zeros(_AXES)
    sig[:rank] = sigma[:rank]
    u_pad = np.zeros((table.shape[0], _AXES))
    u_pad[:, :rank] = u[:, :rank]
    v_pad = np.zeros((table.shape[1], _AXES))
    v_pad[:, :rank] = vt.T[:, :rank]
    row = (u_pad * sig) / np.sqrt(r)[:, None]
    col = (v_pad * sig) / np.sqrt(c)[:, None]

    total = float(np.sum(sigma**2))
    if total > _RANK_EPS:
        fractions = (sig**2) / total
    else:
        fractions = np.zeros(_AXES)
    return CAResult(row, col, fractions, total, sigma)


class MapPoint(NamedTuple):
    lemma: str
    x: float
    y: float


@dataclass(frozen=True)
class SemanticMap:
    """Planar factor coordinates of a pivot's semantic field."""

    pivot: str
    points: tuple[MapPoint, ...]
    inertia_fractions: tuple[float, float]
    total_inertia: float


def semantic_map(
    index: CorpusIndex,
    docset,
    pivot: str,
    window: int,
    m: int,
    pos_filter: Iterable[str] | None = None,
    min_count: int = 1,
    include_pivot: bool = True,
    weight: str = "raw",
) -> SemanticMap:
    """Compose the submatrix and its correspondence analysis into a map.

    Axis orientation is made deterministic by flipping each axis, when
    needed, so the first term's coordinate is non-negative.
    """
    sub = build_submatrix(
        index,
        docset,
        pivot,
        window,
        m,
        pos_filter=pos_filter,
        min_count=min_count,
        include_pivot=include_pivot,
        weight=weight,
    )
    result = correspondence_analysis(sub.counts)
    coords = result.row_coords.copy()
    for axis in range(coords.shape[1]):
        if coords[0, axis] < 0:
            coords[:, axis] = -coords[:, axis]
    points = tuple(
        MapPoint(term, float(coords[i, 0]), float(coords[i, 1]))
        for i, term in enumerate(sub.terms)
    )
    fractions = (float(result.inertia_fractions[0]), float(result.inertia_fractions[1]))
    return SemanticMap(pivot, points, fractions, result.total_inertia)
