"""Direct eigen-solvers and graph-spectral helpers.

These wrap :mod:`scipy.sparse.linalg` (Arnoldi / Lanczos) for the *direct*
variants of HND and ABH from the paper:

* ``HND-direct`` needs the eigenvector of the 2nd largest eigenvalue of the
  asymmetric AVGHITS matrix ``U`` (Arnoldi, :func:`second_largest_eigenvector`).
* ``ABH-direct`` needs the Fiedler vector, i.e. the eigenvector of the 2nd
  smallest eigenvalue of the Laplacian of ``C C^T`` (Lanczos,
  :func:`fiedler_vector`).

Small matrices fall back to dense :func:`numpy.linalg.eig` because ARPACK
requires ``k < n - 1`` and is unreliable for tiny problems.  Every ARPACK
call starts from one seeded vector, so two solves of one matrix are
bit-identical (ARPACK otherwise draws a new random start each call).
"""

from __future__ import annotations

from typing import Union

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

MatrixLike = Union[np.ndarray, sp.spmatrix]

_DENSE_FALLBACK_SIZE = 16


def _to_dense(matrix: MatrixLike) -> np.ndarray:
    if sp.issparse(matrix):
        return np.asarray(matrix.todense(), dtype=float)
    return np.asarray(matrix, dtype=float)


def _start_vector(size: int) -> np.ndarray:
    """The seeded ARPACK start vector.

    Not the constant vector: that is an exact eigenvector of the
    row-stochastic ``U`` and the Laplacian's null vector.
    """
    return np.random.default_rng(0).standard_normal(size)


def second_largest_eigenvector(matrix: MatrixLike) -> np.ndarray:
    """Return a real eigenvector for the 2nd largest (by real part) eigenvalue.

    Used by HND-direct on the row-stochastic update matrix ``U`` whose
    spectrum is real in the ideal case; for general inputs we keep the real
    part of the Arnoldi vector, which preserves the ordering information the
    ranking needs.
    """
    size = matrix.shape[0]
    if size < 2:
        raise ValueError("need at least a 2x2 matrix")
    if size <= _DENSE_FALLBACK_SIZE:
        dense = _to_dense(matrix)
        values, vectors = np.linalg.eig(dense)
        order = np.argsort(-values.real)
        return np.real(vectors[:, order[1]]).astype(float)
    operator = matrix if sp.issparse(matrix) else np.asarray(matrix, dtype=float)
    values, vectors = spla.eigs(operator, k=2, which="LR",
                                v0=_start_vector(size))
    order = np.argsort(-values.real)
    return np.real(vectors[:, order[1]]).astype(float)


def laplacian(matrix: MatrixLike) -> MatrixLike:
    """Return the combinatorial Laplacian ``L = D - A`` of a symmetric matrix.

    ``D`` is the diagonal matrix of row sums of ``A``.  For ABH, ``A`` is the
    user-similarity matrix ``C C^T``.
    """
    if sp.issparse(matrix):
        matrix = matrix.tocsr().astype(float)
        degrees = np.asarray(matrix.sum(axis=1)).ravel()
        return sp.diags(degrees) - matrix
    matrix = np.asarray(matrix, dtype=float)
    degrees = matrix.sum(axis=1)
    return np.diag(degrees) - matrix


def fiedler_vector(laplacian_matrix: MatrixLike) -> np.ndarray:
    """Return the Fiedler vector (2nd smallest eigenvector) of a Laplacian.

    Uses Lanczos (``eigsh`` with ``which="SM"`` via shift-invert fallback) for
    large matrices and a dense symmetric solver for small ones.
    """
    size = laplacian_matrix.shape[0]
    if size < 2:
        raise ValueError("need at least a 2x2 Laplacian")
    if size <= _DENSE_FALLBACK_SIZE or not sp.issparse(laplacian_matrix):
        dense = _to_dense(laplacian_matrix)
        values, vectors = np.linalg.eigh(dense)
        return vectors[:, 1].astype(float)
    start = _start_vector(size)
    try:
        values, vectors = spla.eigsh(laplacian_matrix.tocsc(), k=2, sigma=0,
                                     which="LM", v0=start)
    except (RuntimeError, spla.ArpackNoConvergence, ValueError):
        values, vectors = spla.eigsh(laplacian_matrix, k=2, which="SM",
                                     v0=start)
    order = np.argsort(values)
    return vectors[:, order[1]].astype(float)


def orderings_equivalent(order_a: np.ndarray, order_b: np.ndarray) -> bool:
    """True when two orderings are identical or exact reverses of each other.

    The paper treats an ordering and its reverse as the same (footnote 4);
    symmetry breaking is handled separately by the decile-entropy heuristic.
    """
    order_a = np.asarray(order_a)
    order_b = np.asarray(order_b)
    if order_a.shape != order_b.shape:
        return False
    return bool(np.array_equal(order_a, order_b) or np.array_equal(order_a, order_b[::-1]))
