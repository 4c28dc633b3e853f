"""Eigenvalue computation and positive-semidefinite order checks.

Two routes to the second adjacency eigenvalue: a dense route (LAPACK
``eigvalsh`` on the full symmetric matrix, capped at DENSE_CAP vertices) and a
sparse Lanczos route (ARPACK ``eigsh``) that returns the upper end of a
residual enclosure and scales to the graph sizes used by the spectral
frequency sweeps.  The two routes are cross-checked against each other in the
tests.

All comparisons use absolute slack after the matrices involved are naturally
normalized to spectral radius <= degree; tolerances are pinned at call sites.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graphs import BipartiteRegularGraph, bipartite_complement, complement_regular

DENSE_CAP = 4096
SYMMETRY_TOL = 1e-12
# Absolute slack of the order checks: psd_dominance and complement interlacing.
ORDER_TOL = 1e-9


class DenseCapError(ValueError):
    """Matrix larger than the configured dense cap."""


@dataclass(frozen=True)
class SpectrumSummary:
    """Top two eigenvalues and the bottom one."""

    lambda1: float
    lambda2: float
    lambda_min: float

    def __post_init__(self) -> None:
        if not (self.lambda1 >= self.lambda2 >= self.lambda_min):
            raise ValueError("eigenvalues out of order")


def check_symmetric(m: np.ndarray, tol: float = SYMMETRY_TOL) -> None:
    """Raise unless ``m`` is a finite symmetric matrix, or a stack of them
    along leading axes."""
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise ValueError("matrix must be square")
    # m − mᵀ is antisymmetric (max = max |entry|); inf or nan in m stays in its slot
    with np.errstate(invalid="ignore"):
        gap = np.max(m - m.swapaxes(-1, -2)) if m.size else 0.0
    if not gap <= tol:
        if not np.all(np.isfinite(m)):
            raise ValueError("matrix has non-finite entries")
        raise ValueError("matrix is not symmetric within tolerance")


def adjacency_matrix(g) -> np.ndarray:
    """Dense 0/1 adjacency over global ids; bipartite graphs get the
    [[0, B], [B^T, 0]] layout."""
    n = len(g.global_adj)
    if n > DENSE_CAP:
        raise DenseCapError(f"{n} vertices exceed dense cap {DENSE_CAP}")
    return g.adjacency()


def eigen_summary(m: np.ndarray) -> SpectrumSummary:
    """Dense symmetric eigenvalues summarized as (λ1, λ2, λ_min)."""
    check_symmetric(m)
    vals = np.linalg.eigvalsh(m)
    lam1 = float(vals[-1])
    lam2 = float(vals[-2]) if len(vals) > 1 else lam1
    return SpectrumSummary(lam1, lam2, float(vals[0]))


# -- sparse route --------------------------------------------------------------------


def pairing_index_matrix(rows_x: np.ndarray) -> np.ndarray:
    """Neighbor-index array for a bipartite pairing draw (multiedges kept)."""
    n, degree = rows_x.shape
    top = rows_x.astype(np.int64) + n
    src = np.repeat(np.arange(n, dtype=np.int64), degree)
    order = np.argsort(rows_x.ravel(), kind="stable")
    bottom = src[order].reshape(n, degree)
    return np.vstack([top, bottom])


def iterative_lambda2(g_or_idx, degree: int | None = None, *, seed: int = 0) -> float:
    """Second adjacency eigenvalue of a regular graph by Lanczos (ARPACK ``eigsh``).

    Accepts a graph, or a prebuilt neighbor-index array together with its
    degree; repeated neighbors (pairing-model multiedges) count with their
    multiplicity.  Lanczos targets the two largest eigenvalues, so λ1 = degree
    is the other Ritz value and needs no deflation.  Returns the upper end
    θ + ‖Av − θv‖/‖v‖ of the residual enclosure of the Ritz pair (θ, v)
    (Parlett, *The Symmetric Eigenvalue Problem*, §4), with the rounding
    error of the residual added, so a check ``λ2 <= bound`` is made against
    an upper end rather than a Ritz value that may sit below λ2.
    """
    # Imported here rather than at module level: every CLI start imports this
    # module through verify, and scipy.sparse.linalg adds about 0.14 s and
    # 32 MB to each process.
    from scipy.sparse import csr_array
    from scipy.sparse.linalg import eigsh

    idx = np.asarray(g_or_idx.global_adj) if degree is None else g_or_idx
    n, d = idx.shape
    a = csr_array((np.ones(n * d), idx.ravel(), np.arange(n + 1) * d), shape=(n, n))
    if n < 3 or d == 0:
        # ARPACK needs k < n and a start vector that A does not annihilate
        return eigen_summary(a.toarray()).lambda2
    v0 = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed))).standard_normal(n)
    vals, vecs = eigsh(a, k=2, which="LA", tol=0, v0=v0)
    i = int(np.argmin(vals))
    theta, v = float(vals[i]), vecs[:, i]
    norm = float(np.linalg.norm(v))
    # Each residual entry sums d + 1 rounded terms, so the computed residual
    # is off by at most (d + 1)·u·(‖A‖ + |θ|)·‖v‖ to first order, with
    # ‖A‖ = d; eps = 2u also covers the rounding of the norms.
    rounding = (d + 1) * np.finfo(float).eps * (d + abs(theta)) * norm
    return float(theta + (np.linalg.norm(a @ v - theta * v) + rounding) / norm)


# -- order checks ----------------------------------------------------------------


def psd_dominance(a: np.ndarray, b: np.ndarray):
    """True iff b − a ⪰ −``ORDER_TOL``·I.

    The certificate is a Cholesky factorization of b − a + ORDER_TOL·I: when
    it succeeds, the matrix factored is within a few ulps of a positive
    definite one (Higham, *Accuracy and Stability of Numerical Algorithms*,
    §10.1), so its smallest eigenvalue is not below −ORDER_TOL beyond
    rounding.  A stack of matrix pairs (a leading axis) is factored by one
    stacked ``cholesky`` call and gives a boolean array.  When the
    factorization of a stack fails, the stack's smallest eigenvalues
    (``eigvalsh``) name the pairs that fail, with the same rule: b − a passes
    where its smallest eigenvalue is at least −ORDER_TOL.
    """
    if a.shape != b.shape:
        raise ValueError("shape mismatch")
    diff = b - a
    check_symmetric(diff, tol=1e-10)
    np.einsum("...ii->...i", diff)[...] += ORDER_TOL  # b − a + ORDER_TOL·I, in place
    try:
        np.linalg.cholesky(diff)
        ok = np.ones(diff.shape[:-2], dtype=bool)
    except np.linalg.LinAlgError:
        ok = np.linalg.eigvalsh(b - a)[..., 0] >= -ORDER_TOL
    return bool(ok) if diff.ndim == 2 else ok


def complement_interlacing_check(g) -> bool:
    """Second eigenvalue of the complement never exceeds its graph-side cap.

    Bipartite graphs: λ2(crossing complement) <= λ2(A) + ORDER_TOL, which
    holds deterministically for degree-biregular graphs.  Regular graphs:
    λ2(complement) <= −λ_min(A) − 1 + ORDER_TOL, which holds for every graph.
    """
    if isinstance(g, BipartiteRegularGraph):
        lam2 = eigen_summary(adjacency_matrix(g)).lambda2
        comp = eigen_summary(adjacency_matrix(bipartite_complement(g))).lambda2
        return comp <= lam2 + ORDER_TOL
    summary = eigen_summary(adjacency_matrix(g))
    comp = eigen_summary(adjacency_matrix(complement_regular(g))).lambda2
    return comp <= -summary.lambda_min - 1.0 + ORDER_TOL
