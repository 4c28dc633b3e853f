"""Eigenvalue computation and positive-semidefinite order checks.

Two routes to the same quantities: a dense route (LAPACK ``eigh`` on the full
symmetric matrix, capped at DENSE_CAP vertices) and an iterative route
(shifted power iteration with the known top eigenvector of a regular graph
deflated) that scales to the graph sizes used by the spectral frequency
sweeps.  The two routes are cross-checked against each other in the tests.

All comparisons use absolute slack after the matrices involved are naturally
normalized to spectral radius <= degree; tolerances are pinned at call sites.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graphs import BipartiteRegularGraph, bipartite_complement, complement_regular

DENSE_CAP = 4096
SYMMETRY_TOL = 1e-12


class DenseCapError(ValueError):
    """Matrix larger than the configured dense cap."""


class IterationError(RuntimeError):
    """Power iteration failed to converge within its cap."""


@dataclass(frozen=True)
class SpectrumSummary:
    """Top two eigenvalues and the bottom one, with the route that produced them."""

    lambda1: float
    lambda2: float
    lambda_min: float
    method: str
    residual: float

    def __post_init__(self) -> None:
        if not (self.lambda1 >= self.lambda2 >= self.lambda_min):
            raise ValueError("eigenvalues out of order")


def check_symmetric(m: np.ndarray, tol: float = SYMMETRY_TOL) -> None:
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("matrix must be square")
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix has non-finite entries")
    if m.size and np.max(np.abs(m - m.T)) > tol:
        raise ValueError("matrix is not symmetric within tolerance")


def adjacency_matrix(g, dense_cap: int = DENSE_CAP) -> np.ndarray:
    """Dense 0/1 adjacency over global ids; bipartite graphs get the
    [[0, B], [B^T, 0]] layout."""
    n = len(g.global_adj)
    if n > dense_cap:
        raise DenseCapError(f"{n} vertices exceed dense cap {dense_cap}")
    return g.adjacency()


def eigen_summary(m: np.ndarray) -> SpectrumSummary:
    """Dense symmetric eigendecomposition summarized as (λ1, λ2, λ_min)."""
    check_symmetric(m)
    vals, vecs = np.linalg.eigh(m)
    lam1 = float(vals[-1])
    lam2 = float(vals[-2]) if len(vals) > 1 else lam1
    lam_min = float(vals[0])
    idx = [-1, -2, 0] if len(vals) > 1 else [0]
    residual = max(
        float(np.linalg.norm(m @ vecs[:, i] - vals[i] * vecs[:, i])) for i in idx)
    return SpectrumSummary(lam1, lam2, lam_min, "dense", residual)


# -- iterative route -------------------------------------------------------------


def neighbor_index_matrix(g) -> np.ndarray:
    """(N, degree) neighbor-index array of the global adjacency, such that
    (A v)_i = sum(v[idx[i]])."""
    return np.asarray(g.global_adj, dtype=np.int64)


def pairing_index_matrix(rows_x: np.ndarray) -> np.ndarray:
    """Neighbor-index array for a bipartite pairing draw (multiedges kept)."""
    n, degree = rows_x.shape
    top = rows_x.astype(np.int64) + n
    src = np.repeat(np.arange(n, dtype=np.int64), degree)
    order = np.argsort(rows_x.ravel(), kind="stable")
    bottom = src[order].reshape(n, degree)
    return np.vstack([top, bottom])


def _power_top(idx: np.ndarray, shift: float, sign: float,
               deflate: list[np.ndarray], rng: np.random.Generator,
               tol: float, max_iter: int, min_iter: int) -> tuple[float, np.ndarray, int]:
    """Rayleigh quotient of the dominant eigenpair of sign*A + shift*I.

    The operator must be PSD on the complement of the deflated span for the
    Rayleigh quotients to increase monotonically to the target value.
    """
    n = idx.shape[0]
    v = rng.standard_normal(n)
    for d in deflate:
        v -= (d @ v) * d
    v /= np.linalg.norm(v)
    theta_prev = -np.inf
    for it in range(1, max_iter + 1):
        w = sign * v[idx].sum(axis=1) + shift * v
        for d in deflate:
            w -= (d @ w) * d
        theta = float(v @ w)
        nrm = np.linalg.norm(w)
        if nrm == 0.0:
            return 0.0, v, it
        v = w / nrm
        if it >= min_iter and abs(theta - theta_prev) <= tol * max(1.0, abs(theta)):
            return theta, v, it
        theta_prev = theta
    raise IterationError(f"power iteration did not converge in {max_iter} steps")


def iterative_summary(g_or_idx, degree: int | None = None, *, seed: int = 0,
                      tol: float = 1e-10, max_iter: int = 200_000,
                      min_iter: int = 64) -> SpectrumSummary:
    """Spectrum summary of a regular graph's adjacency by power iteration.

    λ1 = degree exactly (regularity); λ2 comes from A + d·I with the all-ones
    vector deflated; λ_min from d·I − A.  Convergence is declared when
    successive Rayleigh quotients differ by less than ``tol`` relatively.
    Accepts a graph or a prebuilt neighbor-index array plus its degree.
    """
    if degree is None:
        idx = neighbor_index_matrix(g_or_idx)
        degree = g_or_idx.degree
    else:
        idx = g_or_idx
    d = float(degree)
    n = idx.shape[0]
    if n < 2:
        return SpectrumSummary(d, d, d, "iterative", 0.0)
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    ones = np.full(n, 1.0 / np.sqrt(n))
    theta2, v2, _ = _power_top(idx, d, 1.0, [ones], rng, tol, max_iter, min_iter)
    lam2 = theta2 - d
    theta_min, vmin, _ = _power_top(idx, d, -1.0, [], rng, tol, max_iter, min_iter)
    lam_min = d - theta_min
    res2 = float(np.linalg.norm(v2[idx].sum(axis=1) - lam2 * v2))
    resm = float(np.linalg.norm(vmin[idx].sum(axis=1) - lam_min * vmin))
    lam2 = max(lam2, lam_min)  # guard fp ordering when the spectrum is degenerate
    return SpectrumSummary(d, lam2, lam_min, "iterative", max(res2, resm))


def iterative_lambda2(g_or_idx, degree: int | None = None, *, seed: int = 0,
                      tol: float = 1e-10, max_iter: int = 200_000) -> float:
    """Second adjacency eigenvalue only (one shifted power iteration).

    The frequency sweeps need lambda2 of hundreds of large graphs; skipping
    the bottom-of-spectrum iteration halves their cost.
    """
    if degree is None:
        idx = neighbor_index_matrix(g_or_idx)
        degree = g_or_idx.degree
    else:
        idx = g_or_idx
    d = float(degree)
    n = idx.shape[0]
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    ones = np.full(n, 1.0 / np.sqrt(n))
    theta, _, _ = _power_top(idx, d, 1.0, [ones], rng, tol, max_iter, 64)
    return theta - d


def spectrum(g, method: str = "auto", dense_cap: int = DENSE_CAP, seed: int = 0) -> SpectrumSummary:
    """Adjacency spectrum summary with automatic dense/iterative routing."""
    if method == "auto":
        method = "dense" if len(g.global_adj) <= 512 else "iterative"
    if method == "dense":
        return eigen_summary(adjacency_matrix(g, dense_cap))
    if method == "iterative":
        return iterative_summary(g, seed=seed)
    raise ValueError(f"unknown method {method!r}")


# -- order checks ----------------------------------------------------------------


def psd_dominance(a: np.ndarray, b: np.ndarray, tol: float = 1e-9):
    """True iff b − a is PSD up to ``tol``; returns the witness pair when not.

    The witness is (most negative eigenvalue, its eigenvector) of b − a.
    """
    if a.shape != b.shape:
        raise ValueError("shape mismatch")
    diff = b - a
    check_symmetric(diff, tol=1e-10)
    vals, vecs = np.linalg.eigh(diff)
    if vals[0] >= -tol:
        return True, None
    return False, (float(vals[0]), vecs[:, 0])


def complement_interlacing_check(g, tol: float = 1e-9) -> bool:
    """Second eigenvalue of the complement never exceeds its graph-side cap.

    Bipartite graphs: λ2(crossing complement) <= λ2(A) + tol, which holds
    deterministically for degree-biregular graphs.  Regular graphs:
    λ2(complement) <= −λ_min(A) − 1 + tol, which holds for every graph.
    """
    if isinstance(g, BipartiteRegularGraph):
        lam2 = eigen_summary(adjacency_matrix(g)).lambda2
        comp = eigen_summary(adjacency_matrix(bipartite_complement(g))).lambda2
        return comp <= lam2 + tol
    summary = eigen_summary(adjacency_matrix(g))
    comp = eigen_summary(adjacency_matrix(complement_regular(g))).lambda2
    return comp <= -summary.lambda_min - 1.0 + tol
