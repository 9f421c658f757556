"""Thin SVD of a real matrix with canonical signs, for correspondence analysis.

The decomposition is numpy's LAPACK SVD (``np.linalg.svd``); this module adds
only the sign convention that makes field-map axes deterministic.  Singular
values come back in descending order, and each left singular vector has its
largest-magnitude entry positive, with the matching right singular vector
flipped alongside it.

The module and function keep the names of the one-sided Jacobi SVD they once
held: ``jacobi_svd`` is part of the package's public API, and perfbench's
tracer (``perfbench/tracing.py``) imports this module by name to time the SVD
layer.
"""

from __future__ import annotations

import numpy as np

__all__ = ["jacobi_svd"]


def jacobi_svd(matrix) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Thin SVD of a real matrix: returns (U, s, Vt) with A = U @ diag(s) @ Vt.

    U is m x r and V is n x r with r = min(m, n); both are orthonormal even
    when A is rank-deficient.  Raises ``numpy.linalg.LinAlgError`` when the
    SVD does not converge.
    """
    a = np.asarray(matrix, dtype=np.float64)
    if a.ndim != 2:
        raise ValueError("jacobi_svd expects a 2-D matrix")
    u, s, vt = np.linalg.svd(a, full_matrices=False)
    # canonical signs: largest |entry| of each U column is positive
    for j in range(u.shape[1]):
        if u[np.argmax(np.abs(u[:, j])), j] < 0:
            u[:, j] = -u[:, j]
            vt[j] = -vt[j]
    return u, s, vt
