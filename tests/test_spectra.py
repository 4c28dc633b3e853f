from __future__ import annotations

import numpy as np
import pytest

from slicewalk import spectra
from slicewalk.graphs import RegularGraph, gen_bipartite_regular, gen_regular
from slicewalk.spectra import (DenseCapError, adjacency_matrix,
                               complement_interlacing_check, eigen_summary,
                               iterative_lambda2, psd_dominance)


def test_adjacency_matrix_shapes(bipartite_c6, six_cycle, monkeypatch):
    a = adjacency_matrix(bipartite_c6)
    assert a.shape == (6, 6)
    assert np.all(a.sum(axis=1) == 2)  # regularity
    assert adjacency_matrix(six_cycle).shape == (6, 6)
    monkeypatch.setattr(spectra, "DENSE_CAP", 4)
    with pytest.raises(DenseCapError):
        adjacency_matrix(six_cycle)


def test_eigen_summary_cycle(six_cycle):
    s = eigen_summary(adjacency_matrix(six_cycle))
    # cycle eigenvalues are 2 cos(2 pi k / 6)
    assert s.lambda1 == pytest.approx(2.0, abs=1e-9)
    assert s.lambda2 == pytest.approx(1.0, abs=1e-9)
    assert s.lambda_min == pytest.approx(-2.0, abs=1e-9)


def test_eigen_summary_trivial_cases(complete_bipartite_33):
    zero = np.zeros((4, 4))
    s = eigen_summary(zero)
    assert s.lambda1 == s.lambda2 == s.lambda_min == 0.0
    s = eigen_summary(adjacency_matrix(complete_bipartite_33))
    assert s.lambda1 == pytest.approx(3.0, abs=1e-9)
    assert s.lambda2 == pytest.approx(0.0, abs=1e-9)
    assert s.lambda_min == pytest.approx(-3.0, abs=1e-9)


def test_eigen_summary_rejects_asymmetric():
    with pytest.raises(ValueError, match="not symmetric"):
        eigen_summary(np.array([[0.0, 1.0], [0.5, 0.0]]))


@pytest.mark.parametrize("entries", [
    {(0, 1): np.inf, (1, 0): np.inf},
    {(0, 1): -np.inf, (1, 0): -np.inf},
    {(2, 2): np.nan},
    {(1, 1): np.inf},
])
def test_check_symmetric_rejects_symmetric_non_finite_entries(entries):
    # each leaves inf - inf or nan on its own slot of m - m^T
    m = np.eye(3)
    for at, value in entries.items():
        m[at] = value
    for stack in (m, np.stack([np.eye(3), m])):
        with pytest.raises(ValueError, match="non-finite"):
            spectra.check_symmetric(stack)


@pytest.mark.parametrize("seed", range(4))
def test_lambda1_equals_degree(seed):
    g = gen_bipartite_regular(10, 3, seed=seed)
    assert eigen_summary(adjacency_matrix(g)).lambda1 == pytest.approx(3.0, abs=1e-9)
    r = gen_regular(10, 3, seed=seed)
    assert eigen_summary(adjacency_matrix(r)).lambda1 == pytest.approx(3.0, abs=1e-9)


def assert_encloses_dense(g, seed=0):
    # the sparse route returns the upper end of an enclosure: never below the
    # dense value, and above it only by the residual
    lam2 = iterative_lambda2(g, seed=seed)
    dense = eigen_summary(adjacency_matrix(g)).lambda2
    assert dense <= lam2 <= dense + 1e-9, (lam2, dense)


# The edgeless graph and K_2 (fewer than 3 vertices) are inputs ARPACK cannot
# take; their lambda2 is 0 and -1.
@pytest.mark.parametrize("case", [*range(6), "bipartite_c6", "six_cycle",
                                  "complete_bipartite_33", "edgeless_bipartite_5", "k2"])
def test_dense_and_iterative_agree(case, request):
    if isinstance(case, int):
        assert_encloses_dense(gen_bipartite_regular(40, 3, seed=case), seed=case)
        assert_encloses_dense(gen_regular(40, 4, seed=case), seed=case)
    elif case == "k2":
        assert_encloses_dense(RegularGraph(2, 1, ((1,), (0,))))
    else:
        assert_encloses_dense(request.getfixturevalue(case))


def test_iterative_lambda2_not_below_dense_at_side_1000():
    # a Rayleigh quotient stopped on stagnation falls 2.67e-6 below dense here
    assert_encloses_dense(gen_bipartite_regular(1000, 3, seed=1000), seed=0)


def test_psd_dominance_basics():
    eye = np.eye(3)
    assert psd_dominance(eye, eye) is True
    assert psd_dominance(eye, 2 * eye) is True
    assert psd_dominance(2 * eye, eye) is False
    stacked = psd_dominance(np.stack([eye, 2 * eye]), np.stack([2 * eye, eye]))
    assert stacked.tolist() == [True, False]


def _with_smallest_eigenvalues(lows, m=6, seed=0):
    """Symmetric matrices with the given smallest eigenvalues, the others in [0.1, 3]."""
    rng = np.random.default_rng(seed)
    out = []
    for low in lows:
        q, _ = np.linalg.qr(rng.standard_normal((m, m)))
        vals = np.concatenate([[low], rng.uniform(0.1, 3.0, m - 1)])
        d = (q * vals) @ q.T
        out.append((d + d.T) / 2)
    return np.stack(out)


def test_psd_dominance_matches_the_eigenvalue_rule():
    tol = spectra.ORDER_TOL
    lows = [0.5, -tol / 2, 0.0, -2 * tol, 1e-3, -0.4, tol / 2, -2 * tol, 2.0]
    diff = _with_smallest_eigenvalues(lows)
    a = _with_smallest_eigenvalues([1.0] * len(lows), seed=1)
    b = a + diff
    want = np.linalg.eigvalsh(b - a)[:, 0] >= -tol
    assert want.tolist() == [low >= -tol for low in lows]
    assert psd_dominance(a, b).tolist() == want.tolist()
    passing = want.nonzero()[0]
    assert psd_dominance(a[passing], b[passing]).tolist() == [True] * len(passing)
    for i, w in enumerate(want.tolist()):
        assert psd_dominance(a[i], b[i]) is w


def test_psd_dominance_certifies_a_passing_stack_without_eigenvalues(monkeypatch):
    def no_eigvalsh(*args, **kwargs):
        raise AssertionError("eigvalsh called")

    diff = _with_smallest_eigenvalues([0.0, -spectra.ORDER_TOL / 2, 1.0])
    monkeypatch.setattr(np.linalg, "eigvalsh", no_eigvalsh)
    assert psd_dominance(np.zeros_like(diff), diff).tolist() == [True] * 3


def test_cauchy_interlacing_on_random_matrices():
    rng = np.random.default_rng(0)
    for _ in range(100):
        n = int(rng.integers(3, 12))
        m = rng.standard_normal((n, n))
        m = (m + m.T) / 2
        k = int(rng.integers(2, n + 1))
        keep = np.sort(rng.choice(n, size=k, replace=False))
        sub = m[np.ix_(keep, keep)]
        full_vals = np.linalg.eigvalsh(m)
        sub_vals = np.linalg.eigvalsh(sub)
        assert sub_vals[-2] <= full_vals[-2] + 1e-9


def test_complement_check_trivial(complete_bipartite_33, bipartite_c6):
    assert complement_interlacing_check(complete_bipartite_33)
    # equality case: the complement of the bipartite 6-cycle is a perfect
    # matching with lambda2 = 1, matching lambda2 of the cycle
    assert complement_interlacing_check(bipartite_c6)


@pytest.mark.parametrize("seed", range(10))
def test_complement_check_random_sweep(seed):
    g = gen_bipartite_regular(20, 3, seed=seed)
    assert complement_interlacing_check(g)
    r = gen_regular(20, 3, seed=seed)
    assert complement_interlacing_check(r)


def test_regular_lambda_min_frequency():
    # random regular graphs keep |lambda_min| near 2 sqrt(degree - 1)
    bound = 2 * np.sqrt(2) + 0.2
    good = 0
    for seed in range(20):
        g = gen_regular(500, 3, seed=3000 + seed)
        s = eigen_summary(adjacency_matrix(g))
        good += abs(s.lambda_min) <= bound
    assert good >= 19


def test_complement_check_50_instances_n200():
    # deterministic inequality for degree-biregular graphs; a failure here is
    # a build-breaking bug, not noise
    for seed in range(50):
        g = gen_bipartite_regular(200, 3, seed=100 + seed)
        assert complement_interlacing_check(g)
