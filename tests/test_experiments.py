from __future__ import annotations

import math
from itertools import combinations

import numpy as np
import pytest

from slicewalk import experiments, slices, walks
from slicewalk.experiments import (ExperimentConfig, MarginalHardcoreSampler,
                                   alpha_threshold, coupled_ell, disjoint_union,
                                   exact_conductance, experiment_independent_set_size,
                                   experiment_large_set_expansion,
                                   experiment_neighborhood_concentration,
                                   experiment_slow_mixing, pairing_support_adjacency)
from slicewalk.experiments import _escape_times
from slicewalk.graphs import BipartiteRegularGraph, gen_bipartite_regular, pairing_bipartite_rows
from slicewalk.rng import UniformBuffer, rng_stream
from slicewalk.slices import OneSidedSlice
from slicewalk.walks import _make_state, _step, tv_distance


def _escape_time(slc, members, m, k, budget, seed, run):
    """Scalar reference for ``_escape_times``: one chain stepped by ``_step``."""
    state = _make_state(slc, tuple(sorted(members)))
    rand = UniformBuffer(rng_stream(seed, 1000 + run)).next
    for t in range(1, budget + 1):
        _step(slc, state, rand)
        if sum(1 for v in state.free if v < m) <= k / 2.0:
            return t
    return None


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            ExperimentConfig("x", n_side=10, degree=3, a=1.5)
        with pytest.raises(ValueError):
            ExperimentConfig("x", n_side=10, degree=3, c=0.4)
        with pytest.raises(ValueError):
            ExperimentConfig("x", n_side=10, degree=3, steps=-1)
        cfg = ExperimentConfig("x", n_side=10, degree=3)
        assert cfg.gamma == 0.1 and cfg.ell == 2.0

    @pytest.mark.parametrize("fugacity, message", [
        (-1.0, "fugacity must be positive"),
        (-0.5, "fugacity must be positive"),
        (0.0, "fugacity must be positive"),
        (math.nan, "fugacity must be a positive finite number, got nan"),
        (math.inf, "fugacity must be a positive finite number, got inf"),
    ], ids=["-1.0", "-0.5", "0.0", "nan", "inf"])
    def test_fugacity_must_be_positive(self, fugacity, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            ExperimentConfig("x", n_side=10, degree=3, fugacity=fugacity)

    @pytest.mark.parametrize("gamma", [-2.5, -2.0, -1e-9, float("nan")])
    def test_gamma_must_be_nonnegative(self, gamma):
        with pytest.raises(ValueError, match="gamma must be nonnegative"):
            ExperimentConfig("x", n_side=10, degree=3, gamma=gamma)
        assert ExperimentConfig("x", n_side=10, degree=3, gamma=0.0).gamma == 0.0

    @pytest.mark.parametrize("field, value, message", [
        ("ell", math.nan, "ell must be a finite number, got nan"),
        ("ell", math.inf, "ell must be a finite number, got inf"),
        ("ell", -math.inf, "ell must be a finite number, got -inf"),
        ("gamma", math.inf, "gamma must be a nonnegative finite number, got inf"),
    ], ids=["ell-nan", "ell-inf", "ell--inf", "gamma-inf"])
    def test_ell_and_gamma_must_be_finite(self, field, value, message):
        # a nan ell failed every comparison and reported expansion fractions
        # of 0.0; an infinite gamma reported alpha 0.0 and tau size 1
        with pytest.raises(ValueError, match=f"^{message}$"):
            ExperimentConfig("x", n_side=10, degree=3, **{field: value})
        assert ExperimentConfig("x", n_side=10, degree=3, ell=-1.5).ell == -1.5


class TestNeighborhoodConcentration:
    def test_extreme_sizes(self):
        # tau = everything covers Y entirely on a connected regular graph
        cfg = ExperimentConfig("nc", n_side=200, degree=8, seed=0, samples=20)
        rep = experiment_neighborhood_concentration(cfg)
        assert 0 <= rep["below"]["mean_fraction"] <= 1

    def test_critical_bracketing_moderate_scale(self):
        cfg = ExperimentConfig("nc", n_side=5000, degree=32, seed=1, samples=60)
        rep = experiment_neighborhood_concentration(cfg)
        assert rep["critical"]["bracket_fraction"] >= 0.95
        assert rep["above"]["expansion_fraction_coupled"] >= 0.95
        assert rep["below"]["anti_expansion_fraction_coupled"] >= 0.95
        assert rep["notes"].startswith("sampled-tau")

    def test_deterministic(self):
        cfg = ExperimentConfig("nc", n_side=500, degree=8, seed=3, samples=10)
        assert experiment_neighborhood_concentration(cfg) == \
            experiment_neighborhood_concentration(cfg)


class TestLargeSetExpansion:
    def test_insufficient_scale_flag(self):
        cfg = ExperimentConfig("ls", n_side=12, degree=8, seed=0, samples=5)
        rep = experiment_large_set_expansion(cfg)
        assert rep["insufficient_scale"]  # floor(alpha * 12) < 2

    def test_moderate_scale_pass_fraction(self):
        cfg = ExperimentConfig("ls", n_side=2000, degree=16, seed=2, samples=60,
                               a=0.5, b=0.4)
        rep = experiment_large_set_expansion(cfg)
        assert not rep["insufficient_scale"]
        assert rep["pass_fraction"] >= 0.99


class TestMarginalSampler:
    @pytest.mark.parametrize("seed,lam", [(5, 0.7), (2, 0.3)])
    def test_matches_exact_marginal(self, seed, lam):
        g = gen_bipartite_regular(6, 2, seed=seed)
        weights = {}
        for size in range(7):
            for s in combinations(range(6), size):
                u = 6 - len(g.neighbor_set("x", s))
                weights[s] = lam ** size * (1 + lam) ** u
        total = sum(weights.values())
        sampler = MarginalHardcoreSampler([list(r) for r in g.adj_x], 6, lam, seed=11)
        for _ in range(2000):
            sampler.step()
        counts: dict = {}
        n_samples = 40_000
        for _ in range(n_samples):
            for _ in range(12):
                sampler.step()
            key = tuple(sorted(sampler.members))
            counts[key] = counts.get(key, 0) + 1
        keys = sorted(weights)
        hist = np.array([counts.get(k, 0) for k in keys], dtype=float)
        exact = np.array([weights[k] / total for k in keys])
        assert tv_distance(hist, exact) <= 0.03

    def test_single_edge_marginal_cap(self):
        # x occupied in 1 of the 3 independent sets at fugacity 1, below the
        # cap fugacity/(1+fugacity) = 1/2
        g = BipartiteRegularGraph(1, 1, ((0,),), ((0,),))
        sampler = MarginalHardcoreSampler([[0]], 1, 1.0, seed=3)
        hits = 0
        n = 30_000
        for _ in range(n):
            for _ in range(4):
                sampler.step()
            hits += len(sampler.members)
        assert hits / n == pytest.approx(1 / 3, abs=0.02)
        assert hits / n <= 0.5


class TestIndependentSetSize:
    def test_zero_fugacity_limit(self):
        # tiny fugacity: events never fire
        cfg = ExperimentConfig("is", n_side=100, degree=8, seed=1, samples=200,
                               fugacity=0.01)
        rep = experiment_independent_set_size(cfg)
        assert rep["size_event_fraction"] == 0.0
        assert rep["both_sides_event_fraction"] == 0.0
        assert rep["size_event_pass"] and rep["both_sides_event_pass"]

    def test_occupancy_below_marginal_cap(self):
        cfg = ExperimentConfig("is", n_side=200, degree=8, seed=2, samples=300,
                               fugacity=0.05)
        rep = experiment_independent_set_size(cfg)
        assert rep["mean_x_occupancy"] <= rep["marginal_cap"] + 0.02


class TestSlowMixing:
    def test_conductance_definition(self):
        p = np.array([[0.9, 0.1, 0.0], [0.1, 0.8, 0.1], [0.0, 0.1, 0.9]])
        pi = np.full(3, 1 / 3)
        mask = np.array([True, False, False])
        # flow out of state 0 is pi * 0.1; the smaller side has mass 1/3
        assert exact_conductance(p, pi, mask) == pytest.approx(0.1)
        with pytest.raises(ValueError):
            exact_conductance(p, pi, np.array([True, True, True]))

    def test_disjoint_union_structure(self):
        g1 = gen_bipartite_regular(5, 2, seed=0)
        g2 = gen_bipartite_regular(5, 2, seed=1)
        g = disjoint_union(g1, g2)
        g.validate()
        assert g.n_side == 10
        assert all(j >= 5 for j in g.adj_x[7])  # no cross-component edges

    def test_no_bottleneck_at_weak_parameters(self):
        # free flow between components at low fugacity and small k: the
        # conductance of the majority set is comparable to the control's.
        # Seed 88 is the configuration acceptance criterion 8 first pinned:
        # its separation factor is 0.51, far from the 5 it asked for.
        for seed in (1, 88):
            cfg = ExperimentConfig("sm", n_side=8, degree=2, seed=seed, k=4,
                                   fugacity=0.5, runs=10, steps=5000)
            rep = experiment_slow_mixing(cfg)
            ctl = experiment_slow_mixing(cfg, control=True)
            assert rep["exact"]["phi_bottleneck"] > 0.1
            assert rep["exact"]["phi_bottleneck"] == pytest.approx(
                ctl["exact"]["phi_bottleneck"], rel=0.5)
            assert rep["exact"]["separation_factor"] < 5.0
            assert rep["empirical"]["never_escaped_fraction"] == 0.0

    def test_bottleneck_with_saturating_components(self):
        # near-complete components at strong fugacity: pure states dominate
        # and the majority cut's conductance collapses
        cfg = ExperimentConfig("sm", n_side=8, degree=8, seed=2, k=4,
                               fugacity=3.0, runs=8, steps=50_000)
        rep = experiment_slow_mixing(cfg)  # two K_{8,8} components
        exact = rep["exact"]
        assert exact["phi_bottleneck"] < 1e-3
        assert exact["separation_factor"] >= 5.0
        assert rep["empirical"]["median_escape_steps"] is None or \
            rep["empirical"]["median_escape_steps"] > 1000

    @pytest.mark.slow
    def test_deep_valley_never_escapes(self):
        cfg = ExperimentConfig("sm", n_side=16, degree=16, seed=2, k=4,
                               fugacity=3.0, runs=6, steps=100_000)
        rep = experiment_slow_mixing(cfg)  # two K_{16,16} components
        assert rep["empirical"]["never_escaped_fraction"] == 1.0

    def test_lockstep_escape_times_match_single_chains(self, monkeypatch):
        # the array engine replays each run's own stream step for step: fast
        # escapes, blocks of 3, 7 and 64 steps, a pinned vertex, runs that
        # escape next to runs that never do, class weights that underflow to
        # zero, a table of C(16, 6) = 8,008 facets and 48,048 rows, and
        # criterion 8's slice in blocks of 5 steps, whose buffers of 20
        # uniforms double before a step fits and refill before every call,
        # where about 1 chain-step in 400 accepts none of its window
        g = disjoint_union(gen_bipartite_regular(8, 2, seed=88),
                           gen_bipartite_regular(8, 2, seed=89))
        k88 = disjoint_union(gen_bipartite_regular(8, 8, seed=0),
                             gen_bipartite_regular(8, 8, seed=1))
        criterion_8 = disjoint_union(gen_bipartite_regular(8, 8, seed=88),
                                     gen_bipartite_regular(8, 8, seed=89))
        cases = [(OneSidedSlice(g, 4, 0.5), (0, 1, 2, 3), 3),
                 (OneSidedSlice(g, 4, 0.5, pinned=frozenset({9})), (0, 1, 2, 9), 7),
                 (OneSidedSlice(k88, 4, 1.0), (0, 1, 2, 3), 64),
                 (OneSidedSlice(k88, 4, 1e300), (0, 1, 2, 3), 64),
                 (OneSidedSlice(k88, 6, 1.0), (0, 1, 2, 3, 4, 5), 64),
                 (OneSidedSlice(criterion_8, 4, 31.0), (0, 1, 2, 3), 5)]
        singles = []
        for slc, members, block in cases:
            k = len(members)
            single = [_escape_time(slc, members, 8, k, 400, 5, run) for run in range(20)]
            monkeypatch.setattr(experiments, "ESCAPE_BLOCK", block)
            assert _escape_times(slc, members, 8, k, 400, 5, 20) == single
            singles.append(single)
        assert None in singles[2] and any(t is not None for t in singles[2])

    def test_escape_times_above_the_exact_cap_enumerate_nothing(self, monkeypatch):
        # C(32, 4) = 35,960 facets: every run steps alone through the kernel
        def refuse(*args):
            raise AssertionError("enumerated a slice above the exact cap")

        for module in (slices, walks):
            monkeypatch.setattr(module, "_facet_ids", refuse)
        g = disjoint_union(gen_bipartite_regular(16, 2, seed=88),
                           gen_bipartite_regular(16, 2, seed=89))
        slc = OneSidedSlice(g, 4, 0.5)
        assert math.comb(32, 4) > experiments.SLOW_MIXING_EXACT_CAP
        single = [_escape_time(slc, range(4), 16, 4, 200, 5, run) for run in range(3)]
        assert _escape_times(slc, range(4), 16, 4, 200, 5, 3) == single

    def test_odd_k_rejected(self):
        cfg = ExperimentConfig("sm", n_side=8, degree=2, seed=1, k=3,
                               fugacity=0.5, runs=2, steps=100)
        with pytest.raises(ValueError):
            experiment_slow_mixing(cfg)

    @pytest.mark.parametrize("n, k", [(8, 0), (8, 16), (8, 18), (20, 0), (20, 40)])
    def test_k_without_a_proper_majority_set_rejected(self, monkeypatch, n, k):
        # k = 0 puts every facet outside the majority set, k = 2n every facet
        # inside it, and a larger k has no facet at all; side 20 lies above SLOW_MIXING_EXACT_CAP, so the
        # check comes before the exact chain and before any graph is built
        def refuse(*args, **kwargs):
            raise AssertionError("built a graph")

        monkeypatch.setattr(experiments, "gen_bipartite_regular", refuse)
        cfg = ExperimentConfig("sm", n_side=n, degree=2, seed=1, k=k,
                               fugacity=0.5, runs=2, steps=100)
        with pytest.raises(ValueError, match=rf"^k = {k} lies outside "
                                             rf"\[2, 2n - 2\] = \[2, {2 * n - 2}\]"):
            experiment_slow_mixing(cfg)


def test_alpha_and_coupled_ell_values():
    assert alpha_threshold(64, 0.1) == pytest.approx(math.log(64) / (2.1 * 64))
    # the coupled ell is small/negative at desk-scale degrees
    assert coupled_ell(64, 0.1) < 0
    # degree 1 used to divide by log 1 = 0
    assert math.isfinite(coupled_ell(2, 0.1))
    with pytest.raises(ValueError, match="degree must be at least 2"):
        coupled_ell(1, 0.1)


def test_uncovered_counts_on_multiedges():
    # a pairing draw at side 30 and degree 8 holds multiedges
    rows = pairing_bipartite_rows(30, 8, rng_stream(0, 0))
    assert any(len(set(row.tolist())) < len(row) for row in rows)
    ref = rng_stream(5, 1)
    want = [30 - len({int(j) for i in ref.choice(30, size=4, replace=False) for j in rows[i]})
            for _ in range(50)]
    assert experiments._uncovered_counts(rows, rng_stream(5, 1), 4, 50).tolist() == want


def test_pairing_support_adjacency_roundtrip():
    rows = pairing_bipartite_rows(30, 4, rng_stream(5))
    adj_x = pairing_support_adjacency(rows)
    assert adj_x == [sorted(set(row)) for row in rows.tolist()]
    # five rows hold a multiedge, which collapses to one neighbor
    assert sum(len(row) < 4 for row in adj_x) == 5
