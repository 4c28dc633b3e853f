"""Acceptance suite: one test per acceptance criterion, with pinned tolerances.

Each test prints a single `[criterion N] PASS/FAIL` line (visible with -s or
on failure).  Criteria marked as sampled checks state so explicitly; the
deterministic-inequality sweeps treat any failure beyond tolerance as a
defect.

The corpora follow the stated scales: criteria 1-2 use random graphs with at
most 14 vertices and state spaces at most 2000 facets; criterion 3 sweeps
degree-3 instances with side size at most 16; criterion 4 uses the 16-vertex
counting corpus; criteria 6-7 run at their stated sizes, with the pairing
model standing in for rejection sampling where rejection is computationally
impossible (degree 8 and up).  Criterion 8 keeps its stated budget (100
chains of 1e6 steps, seed 88, k = 4, side 8) on two complete bipartite
components, where the two-component bottleneck exists; it is marked slow
(about 28 seconds on a 2-core machine: the 100 chains step together in arrays).
"""
from __future__ import annotations

import json
import math
from itertools import combinations

import numpy as np
import pytest

from slicewalk.counting import (ThresholdParams,
                                estimate_one_sided_partition, estimate_partition_hat,
                                estimate_two_sided_count, exact_one_sided_partition,
                                exact_partition, exact_partition_hat, exact_slice_count)
from slicewalk.experiments import (ExperimentConfig,
                                   experiment_neighborhood_concentration,
                                   experiment_slow_mixing)
from slicewalk.graphs import gen_bipartite_regular, gen_regular, pairing_bipartite_rows
from slicewalk.rng import rng_stream
from slicewalk.slices import (EnumerationCapError, OneSidedSlice, RegularSlice, SliceError,
                              TwoSidedSlice, _facet_ids, local_walk_exact,
                              one_sided_link_walk_closed_form,
                              regular_link_walk_closed_form,
                              two_sided_link_walk_closed_form)
from slicewalk.spectra import (complement_interlacing_check, iterative_lambda2,
                               pairing_index_matrix)
from slicewalk.verify import (verify_one_sided_identities, verify_top_link_one_sided,
                              verify_top_link_regular, verify_top_link_two_sided)
from slicewalk.walks import ChainConfig, exact_transition_matrix, run_chain

DB_TOL = 1e-12
CLOSED_FORM_TOL = 1e-12


def report(criterion: int, passed: bool, detail: str) -> None:
    print(f"[criterion {criterion}] {'PASS' if passed else 'FAIL'}: {detail}")


@pytest.fixture(scope="module")
def small_corpus():
    """Random graphs with at most 14 vertices, for criteria 1 and 2."""
    bipartite = [gen_bipartite_regular(n, d, seed=10 * n + d + s)
                 for n, d in ((5, 2), (6, 2), (6, 3), (7, 2), (7, 3))
                 for s in (0, 1, 2)]
    regular = [gen_regular(n, 3, seed=n + s)
               for n in (10, 12, 14) for s in (0, 1, 2)]
    return bipartite, regular


def _feasible_slices(bipartite, regular, cap=2000):
    for g in bipartite:
        n = g.n_side
        for kx in range(n + 1):
            for ky in range(n + 1):
                try:
                    facets = _facet_ids(TwoSidedSlice(g, kx, ky), cap)
                except EnumerationCapError:
                    continue
                if facets:
                    yield TwoSidedSlice(g, kx, ky), len(facets)
        for k in range(n + 1):
            if math.comb(n, k) <= cap:
                yield OneSidedSlice(g, k, 0.5), math.comb(n, k)
    for g in regular:
        for k in range(g.n + 1):
            try:
                facets = _facet_ids(RegularSlice(g, k), cap)
            except EnumerationCapError:
                continue
            if facets:
                yield RegularSlice(g, k), len(facets)


def test_criterion_1_stationary_correctness(small_corpus):
    bipartite, regular = small_corpus
    checked = 0
    worst_db = 0.0
    tv_candidates = {"two": [], "one": [], "reg": []}
    for slc, n_facets in _feasible_slices(bipartite, regular):
        facets, p, pi = exact_transition_matrix(slc)
        flow = pi[:, None] * p
        dev = float(np.max(np.abs(flow - flow.T)))
        worst_db = max(worst_db, dev)
        assert dev <= DB_TOL, f"detailed balance violated ({dev:.2e}) on {slc}"
        checked += 1
        if 30 <= n_facets <= 130:
            kind = ("two" if isinstance(slc, TwoSidedSlice)
                    else "one" if isinstance(slc, OneSidedSlice) else "reg")
            if len(tv_candidates[kind]) < 3:
                lazy = 0.5 * (np.eye(len(facets)) + p)
                from slicewalk.walks import spectral_gap
                _, _, gap = spectral_gap(lazy, pi)
                if gap >= 0.05:  # the chain actually targets the law
                    tv_candidates[kind].append(slc)
    assert checked >= 100
    tv_values = []
    for kind, slices in tv_candidates.items():
        assert slices, f"no connected chain instance found for {kind}"
        for i, slc in enumerate(slices):
            cfg = ChainConfig(steps=1_000_000, seed=40 + i, lazy=True)
            _, mix = run_chain(slc, cfg)
            assert mix.empirical_tv is not None
            tv_values.append(mix.empirical_tv)
            assert mix.empirical_tv <= 0.02, (kind, i, mix.empirical_tv)
    report(1, True, f"detailed balance <= {worst_db:.1e} on {checked} slices; "
                    f"{len(tv_values)} lazy chains of 1e6 steps, "
                    f"max TV = {max(tv_values):.4f} <= 0.02")


def test_criterion_2_closed_form_equivalence(small_corpus):
    bipartite, regular = small_corpus
    compared = 0
    worst = 0.0

    def check(exact_op, closed_op):
        nonlocal compared, worst
        assert exact_op.ground == closed_op.ground
        dev = max(float(np.max(np.abs(exact_op.matrix - closed_op.matrix))),
                  float(np.max(np.abs(exact_op.pi - closed_op.pi))))
        worst = max(worst, dev)
        assert dev <= CLOSED_FORM_TOL
        compared += 1

    for g in bipartite:
        n = g.n_side
        two = TwoSidedSlice(g, 2, 2)
        for fx in range(n):
            for fy in range(n):
                if fy in g.adj_x[fx]:
                    continue
                try:
                    closed = two_sided_link_walk_closed_form(two, (fx,), (fy,))
                except SliceError:
                    continue
                check(local_walk_exact(two, ((fx,), (fy,))), closed)
        for k in (2, 3):
            one = OneSidedSlice(g, k, 0.35)
            for tau in combinations(range(n), k - 2):
                check(local_walk_exact(one, tau),
                      one_sided_link_walk_closed_form(one, tau))
    for g in regular:
        reg = RegularSlice(g, 3)
        for tau in combinations(range(g.n), 1):
            try:
                closed = regular_link_walk_closed_form(reg, tau)
            except SliceError:
                continue
            check(local_walk_exact(reg, tau), closed)
    assert compared >= 300
    report(2, True, f"{compared} links: closed form vs enumeration "
                    f"entrywise <= {worst:.1e} (tol 1e-12)")


@pytest.fixture(scope="module")
def sweep_instances():
    bipartite = [gen_bipartite_regular(n, 3, seed=7 * n + s)
                 for n in (10, 12, 14, 16) for s in (0, 1, 2, 3)]
    regular = [gen_regular(n, 3, seed=3 * n + s)
               for n in (12, 14, 16) for s in (0, 1)]
    return bipartite, regular


def test_criterion_3_deterministic_spectral_inequalities(sweep_instances):
    bipartite, regular = sweep_instances
    assert len(bipartite) + len(regular) >= 20
    sweeps = []
    for g in bipartite:
        sweeps.append(verify_top_link_two_sided(g, 2, 2))
        sweeps.append(verify_top_link_one_sided(g, 3, 0.25))
        sweeps.append(verify_one_sided_identities(g, 3, 0.25))
        assert complement_interlacing_check(g), "bipartite complement interlacing"
    for g in bipartite[:4]:
        sweeps.append(verify_top_link_one_sided(g, 4, 0.25))
        sweeps.append(verify_one_sided_identities(g, 4, 0.25))
    for g in regular:
        sweeps.append(verify_top_link_regular(g, 3))
        assert complement_interlacing_check(g), "regular complement cap"
    checked = sum(s.checked for s in sweeps)
    failures = [(s.name, r) for s in sweeps for r in s.records if r.status == "fail"]
    hypothesis_gated = sum(1 for s in sweeps for r in s.records
                           if r.status == "hypothesis_not_met")
    assert checked >= 1000
    assert not failures, failures[:5]
    report(3, True, f"{checked} link comparisons across {len(sweeps)} sweeps, "
                    f"0 failures ({hypothesis_gated} links gated by the "
                    f"common-neighbor hypotheses)")


@pytest.fixture(scope="module")
def counting_corpus():
    return [gen_bipartite_regular(8, 3, seed=500 + s) for s in range(50)]


def test_criterion_4_counting_accuracy_two_sided(counting_corpus):
    combos = [(kx, ky) for kx in range(5) for ky in range(5) if 1 <= kx + ky <= 4]
    runs = hits = 0
    for i, g in enumerate(counting_corpus):
        for kx, ky in combos:
            exact = exact_slice_count(g, kx, ky)
            if exact == 0:
                continue
            est = estimate_two_sided_count(g, kx, ky, 0.1, 0.1, seed=9000 + 31 * i)
            runs += 1
            if abs(est.value / exact - 1.0) <= 0.1:
                hits += 1
    assert runs >= 500
    rate = hits / runs
    passed = rate >= 0.9
    report(4, passed, f"two-sided counts within 10% in {hits}/{runs} runs "
                      f"({100 * rate:.1f}%, need >= 90%)")
    assert passed


def test_criterion_4_counting_accuracy_one_sided(counting_corpus):
    runs = hits = 0
    for i, g in enumerate(counting_corpus):
        for k in (1, 2, 3, 4):
            exact = exact_one_sided_partition(g, k, 0.4)
            est = estimate_one_sided_partition(g, k, 0.4, 0.1, 0.1,
                                               seed=17_000 + 53 * i + k)
            runs += 1
            if abs(est.value / exact - 1.0) <= 0.1:
                hits += 1
    rate = hits / runs
    passed = rate >= 0.9
    report(4, passed, f"one-sided partitions within 10% in {hits}/{runs} runs "
                      f"({100 * rate:.1f}%, need >= 90%)")
    assert passed


def test_criterion_4_partition_hat_widened_bands(counting_corpus):
    lam = 0.25
    worst = 0.0
    for i, g in enumerate(counting_corpus[:4]):
        thr = ThresholdParams(alpha=0.15, beta=1.0)
        zhat_exact, double = exact_partition_hat(g, lam, thr)
        z = exact_partition(g, lam)
        assert zhat_exact == pytest.approx(z + double, rel=1e-12)
        est = estimate_partition_hat(g, lam, 0.1, 0.1, seed=70_000 + i, thr=thr)
        rel = abs(est.value / zhat_exact - 1.0)
        worst = max(worst, rel)
        assert rel <= 0.1, (i, est.value, zhat_exact)
    report(4, True, f"banded estimate within eps of exact Z plus the "
                    f"double-counted band on 4 instances (worst {worst:.3f})")


def test_criterion_5_band_identity_exact():
    worst = 0.0
    for seed in range(6):
        g = gen_bipartite_regular(10, 3, seed=800 + seed)
        for lam in (0.3, 0.8):
            z = exact_partition(g, lam)
            total = math.fsum(exact_one_sided_partition(g, k, lam)
                              for k in range(11))
            rel = abs(total - z) / z
            worst = max(worst, rel)
            assert rel <= 1e-10
    report(5, True, f"sum of one-sided partitions equals the partition function "
                    f"to {worst:.1e} (tol 1e-10) on 12 graph/fugacity pairs")


def test_criterion_6_near_ramanujan_frequency():
    n = 2000
    results = {}
    for degree in (3, 8):
        bound = 2.0 * math.sqrt(degree - 1) + 0.2
        good = 0
        for s in range(100):
            if degree == 3:
                # rejection sampling is cheap at this degree
                g = gen_bipartite_regular(n, degree, seed=1000 + s)
                lam2 = iterative_lambda2(np.asarray(g.global_adj), degree, seed=s)
            else:
                # acceptance rate exp(-(d-1)^2/2): stay in the pairing model
                rows = pairing_bipartite_rows(n, degree, rng_stream(2000 + s))
                lam2 = iterative_lambda2(pairing_index_matrix(rows), degree, seed=s)
            if lam2 <= bound:
                good += 1
        results[degree] = good
        assert good >= 95, (degree, good)
    report(6, True, "lambda2 <= 2 sqrt(d-1) + 0.2 in "
                    f"{results[3]}/100 (d=3, simple) and {results[8]}/100 "
                    f"(d=8, pairing model) samples at side 2000")


def test_criterion_7_concentration_echo():
    degree, n, gamma = 64, 50_000, 0.1
    cfg = ExperimentConfig("neighborhood-concentration", n_side=n, degree=degree,
                           seed=77, gamma=gamma, samples=200)
    rep = experiment_neighborhood_concentration(cfg)
    bracket = rep["critical"]["bracket_fraction"]
    expansion = rep["above"]["expansion_fraction_coupled"]
    anti = rep["below"]["anti_expansion_fraction_coupled"]
    passed = bracket >= 0.95 and expansion >= 0.95 and anti >= 0.95
    report(7, passed,
           f"sampled-tau check at degree 64, side 50000: bracket {bracket:.3f}, "
           f"expansion {expansion:.3f}, anti-expansion {anti:.3f} (all >= 0.95); "
           "branch thresholds use the expectation-coupled ell "
           f"({rep['coupled_ell']:.3f}); for-all-tau is explicitly not verified")
    assert passed


@pytest.mark.slow
def test_criterion_8_slow_mixing_echo():
    """Two K_{8,8} components (side 8, degree 8), k = 4, fugacity 31: the
    exact conductance of the majority-in-first-component set S must sit a
    factor of at least 5 below the within-component conductance bound, and
    99% of 100 seeded chains must stay inside S for 1e6 steps.

    The bottleneck needs half-sets that cover a component's opposite side, so
    the components are complete bipartite; random components of degree 2
    admit none (phi(S) = 0.31 against a bound of 0.16, see
    test_experiments).  The exact chance that one chain started at
    {0, 1, 2, 3} stays in S for the whole budget, which the experiment
    computes from its transition matrix restricted to S, is checked first:
    the 99/100 threshold then fails a correct program with probability about
    4e-9.  Slow: the 1e8 steps take about 28 s on a 2-core machine with the
    chains stepped in lockstep.
    """
    m, steps = 8, 1_000_000
    cfg = ExperimentConfig("slow-mixing", n_side=m, degree=m, seed=88, k=4,
                           fugacity=31.0, runs=100, steps=steps)
    rep = experiment_slow_mixing(cfg)
    stay_exact = rep["exact"]["stay_probability"]
    assert stay_exact >= 0.9999, stay_exact
    phi = rep["exact"]["phi_bottleneck"]
    within = rep["exact"]["within_component_conductance_lower"]
    stayed = rep["empirical"]["never_escaped_fraction"]
    separation_ok = phi * 5.0 <= within
    stay_ok = stayed >= 0.99
    passed = separation_ok and stay_ok
    escape = rep["empirical"]["median_escape_steps"]
    report(8, passed,
           f"phi(S) = {phi:.2e} vs within-component lower bound {within:.3f} "
           f"(factor {within / phi:.2e}, need >= 5); never-escaped fraction "
           f"{stayed:.2f} over 100 runs of 1e6 steps (need >= 0.99; exact "
           f"per-chain stay probability {stay_exact:.7f}); "
           + ("no chain escaped" if escape is None
              else f"median escape {escape} steps"))
    assert passed, (
        f"phi(S) = {phi:.2e} (within/5 = {within / 5:.3f}), never-escaped "
        f"fraction = {stayed:.2f}, although the exact chain stays in S for "
        f"1e6 steps with probability {stay_exact:.7f} per run")


def test_criterion_9_byte_reproducibility(tmp_path, capsys):
    from slicewalk.cli import main

    graph = tmp_path / "g.txt"
    commands = [
        ["gen-graph", "--bipartite", "--n", "10", "--delta", "3", "--seed", "5",
         "--out", str(graph)],
        ["sample", "--in", str(graph), "--family", "one-sided", "--k", "3",
         "--lambda", "0.4", "--steps", "4000", "--seed", "6"],
        ["estimate-z", "--in", str(graph), "--lambda", "0.25", "--eps", "0.2",
         "--delta", "0.3", "--seed", "7"],
        ["verify-spectral", "--one-sided", "--k", "3", "--lambda", "0.3",
         "--in", str(graph), "--seed", "8"],
        ["experiment", "--name", "neighborhood-concentration", "--n", "400",
         "--delta", "8", "--samples", "20", "--seed", "9"],
    ]
    for argv in commands:
        code1 = main(list(argv))
        out1 = capsys.readouterr().out
        file1 = graph.read_bytes() if argv[0] == "gen-graph" else None
        code2 = main(list(argv))
        out2 = capsys.readouterr().out
        assert code1 == code2 == 0
        assert out1 == out2, f"stdout differs for {argv[0]}"
        if file1 is not None:
            assert graph.read_bytes() == file1
        json.loads(out1)  # every report is valid JSON
    report(9, True, "all five commands byte-identical across consecutive runs")
