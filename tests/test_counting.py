from __future__ import annotations

import ast
import inspect
import math
from itertools import combinations

import numpy as np
import pytest

from slicewalk import counting, slices, walks
from slicewalk.counting import (EXACT_COUNT_CAP, DegenerateBandError, ThresholdParams,
                                LOG_ZERO, SystemRecord, _uncovered_histogram, _z_quantile,
                                estimate_one_sided_partition, estimate_partition_hat,
                                estimate_two_sided_count, exact_one_sided_partition,
                                exact_partition, exact_partition_hat, exact_slice_count,
                                occupancy_profile, thresholds)
from slicewalk.graphs import BipartiteRegularGraph, gen_bipartite_regular
from slicewalk.slices import OneSidedSlice, TwoSidedSlice


class TestExactPartition:
    def test_single_edge(self):
        g = BipartiteRegularGraph(1, 1, ((0,),), ((0,),))
        assert exact_partition(g, 1.0) == pytest.approx(3.0)  # {}, {x}, {y}

    def test_six_cycle(self, six_cycle):
        assert exact_partition(six_cycle, 1.0) == pytest.approx(18.0)

    def test_edgeless(self, edgeless_bipartite_5):
        assert exact_partition(edgeless_bipartite_5, 0.5) == pytest.approx(1.5 ** 10, rel=1e-12)

    def test_size_cap(self):
        g = gen_bipartite_regular(21, 3, seed=0)
        with pytest.raises(ValueError):
            exact_partition(g, 0.5)

    @pytest.mark.parametrize("seed,lam", [(0, 0.5), (1, 1.0), (2, 0.3)])
    def test_matches_direct_enumeration(self, seed, lam):
        g = gen_bipartite_regular(6, 2, seed=seed)
        # independent oracle: enumerate X subsets, count Y completions
        total = 0.0
        from itertools import combinations
        for size in range(7):
            for s in combinations(range(6), size):
                u = 6 - len(g.neighbor_set("x", s))
                total += sum(math.comb(u, b) * lam ** (size + b) for b in range(u + 1))
        assert exact_partition(g, lam) == pytest.approx(total, rel=1e-12)


class TestExactSliceCount:
    def test_trivial(self, bipartite_c6):
        assert exact_slice_count(bipartite_c6, 0, 0) == 1
        assert exact_slice_count(bipartite_c6, 4, 0) == 0

    def test_c6_values(self, bipartite_c6):
        assert exact_slice_count(bipartite_c6, 1, 1) == 3
        assert exact_slice_count(bipartite_c6, 2, 0) == 3

    def test_agrees_with_facet_enumeration(self):
        from slicewalk.slices import enumerate_facets
        g = gen_bipartite_regular(7, 3, seed=5)
        for kx in range(3):
            for ky in range(3):
                expected = len(enumerate_facets(TwoSidedSlice(g, kx, ky)))
                assert exact_slice_count(g, kx, ky) == expected


class TestBandIdentity:
    def test_k0_closed_form(self, bipartite_c6):
        assert exact_one_sided_partition(bipartite_c6, 0, 0.5) == pytest.approx(1.5 ** 3)

    def test_c6_k1(self, bipartite_c6):
        assert exact_one_sided_partition(bipartite_c6, 1, 0.5) == pytest.approx(2.25)

    @pytest.mark.parametrize("seed,lam", [(0, 0.4), (1, 0.8), (2, 1.3), (3, 0.1)])
    def test_band_sum_equals_partition(self, seed, lam):
        # the one-sided weights split the partition function by |I ∩ X|
        g = gen_bipartite_regular(10, 3, seed=seed)
        total = math.fsum(exact_one_sided_partition(g, k, lam) for k in range(11))
        z = exact_partition(g, lam)
        assert abs(total - z) / z <= 1e-10

    def test_profile_matches_partition(self):
        g = gen_bipartite_regular(8, 3, seed=7)
        w = occupancy_profile(g, 0.6)
        assert w.sum() == pytest.approx(exact_partition(g, 0.6), rel=1e-12)
        for k in range(9):
            assert w[k, :].sum() == pytest.approx(
                exact_one_sided_partition(g, k, 0.6), rel=1e-12)


def _brute_uncovered(g, k):
    """Reference histogram: c[u] k-subsets of X leave u vertices of Y uncovered."""
    hist = [0] * (g.n_side + 1)
    for s in combinations(range(g.n_side), k):
        hist[g.n_side - len(g.neighbor_set("x", s))] += 1
    return hist


def _no_pass(*args):
    raise AssertionError("the subsets of X were enumerated")


class TestUncoveredHistogram:
    @pytest.mark.parametrize("n, degree, seed", [
        (1, 1, 0), (2, 1, 3), (4, 2, 1), (5, 3, 2), (6, 2, 7), (7, 3, 4), (8, 3, 1),
        (9, 4, 5), (10, 3, 6), (11, 2, 8), (12, 3, 9), (12, 4, 10)])
    def test_one_pass_matches_brute_force_at_every_size(self, n, degree, seed):
        g = gen_bipartite_regular(n, degree, seed=seed)
        full = _uncovered_histogram(g, 0, n)
        assert len(full) == n + 1
        for k in range(n + 1):
            want = _brute_uncovered(g, k)
            assert full[k] == want
            # a single size, with the prefixes that cannot reach k pruned
            assert _uncovered_histogram(g, k, k) == [[0] * (n + 1)] * k + [want]

    @pytest.mark.parametrize("n, degree, seed", [
        (1, 1, 0), (2, 1, 3), (4, 2, 1), (5, 3, 2), (6, 2, 7), (7, 3, 4), (8, 3, 1),
        (9, 4, 5), (10, 3, 6), (11, 2, 8), (12, 3, 9), (12, 4, 10)])
    def test_single_sizes_near_the_side_match_brute_force(self, n, degree, seed):
        # above half the side a row is enumerated by the vertices it leaves out
        g = gen_bipartite_regular(n, degree, seed=seed)
        for k in range(max(0, n - 3), n + 2):
            assert counting._uncovered_row(g, k) == _brute_uncovered(g, k)

    def test_sizes_near_the_side_skip_the_prefix_pass(self, monkeypatch):
        # C(40, 38) = 780 subsets, whose prefixes number C(41, 38) = 10,660
        g = gen_bipartite_regular(40, 3, seed=2)
        want = [_brute_uncovered(g, k) for k in (38, 39, 40)]
        monkeypatch.setattr(counting, "_uncovered_histogram", _no_pass)
        assert [counting._uncovered_row(g, k) for k in (38, 39, 40)] == want
        assert exact_slice_count(g, 38, 0) == 780

    @pytest.mark.parametrize("lo, hi", [(0, 0), (0, 3), (2, 4), (3, 7), (7, 7)])
    def test_rows_outside_the_range_are_zero(self, lo, hi):
        g = gen_bipartite_regular(7, 3, seed=2)
        hist = _uncovered_histogram(g, lo, hi)
        assert len(hist) == hi + 1
        for a, row in enumerate(hist):
            assert row == (_brute_uncovered(g, a) if a >= lo else [0] * 8)

    def test_edgeless_graph(self, edgeless_bipartite_5):
        # no subset covers anything: every a-subset leaves all five uncovered
        hist = _uncovered_histogram(edgeless_bipartite_5, 0, 5)
        assert hist == [[0] * 5 + [math.comb(5, a)] for a in range(6)]
        assert exact_slice_count(edgeless_bipartite_5, 2, 3) == math.comb(5, 2) * math.comb(5, 3)

    def test_sizes_beyond_the_side_count_nothing(self, bipartite_c6):
        assert _uncovered_histogram(bipartite_c6, 4, 4)[4] == [0] * 4
        assert exact_one_sided_partition(bipartite_c6, 4, 0.5) == 0.0


class TestOracleCaps:
    def test_single_size_oracles_refuse_above_the_cap_before_enumerating(self, monkeypatch):
        monkeypatch.setattr(counting, "_uncovered_histogram", _no_pass)
        g = gen_bipartite_regular(100, 3, seed=1)
        assert math.comb(100, 4) > EXACT_COUNT_CAP
        with pytest.raises(ValueError, match="enumeration cap"):
            exact_slice_count(g, 4, 0)
        with pytest.raises(ValueError, match="enumeration cap"):
            exact_one_sided_partition(g, 4, 0.4)

    def test_cap_is_inclusive(self, monkeypatch):
        # C(8, 4) = 70 subsets: accepted at a cap of 70, refused at 69
        g = gen_bipartite_regular(8, 3, seed=1)
        monkeypatch.setattr(counting, "EXACT_COUNT_CAP", 70)
        assert exact_slice_count(g, 4, 0) == 70
        assert exact_one_sided_partition(g, 4, 0.4) > 0
        monkeypatch.setattr(counting, "EXACT_COUNT_CAP", 69)
        for oracle in (lambda: exact_slice_count(g, 4, 0),
                       lambda: exact_one_sided_partition(g, 4, 0.4)):
            with pytest.raises(ValueError, match="enumeration cap"):
                oracle()

    def test_profile_refuses_above_side_22_before_enumerating(self, monkeypatch):
        calls = []

        def fake_pass(g, lo, hi):
            calls.append((g.n_side, lo, hi))
            return [[0] * (g.n_side + 1) for _ in range(hi + 1)]

        monkeypatch.setattr(counting, "_uncovered_histogram", fake_pass)
        assert occupancy_profile(gen_bipartite_regular(22, 3, seed=1), 0.3).shape == (23, 23)
        assert calls == [(22, 0, 22)]  # one pass for every size
        with pytest.raises(ValueError, match="n_side <= 22"):
            occupancy_profile(gen_bipartite_regular(23, 3, seed=1), 0.3)
        assert calls == [(22, 0, 22)]


# Estimator internals that no exact oracle may reach, directly or through a
# helper of the counting module: the oracles are the specification.
ESTIMATOR_NAMES = {"run_chain", "facet_table", "_particle_system", "_smc", "_RowParticles",
                   "_BandParticles"}
EXACT_ORACLES = ("exact_partition", "exact_slice_count", "exact_one_sided_partition",
                 "occupancy_profile", "exact_partition_hat")


def test_exact_oracles_name_no_estimator_internals():
    tree = ast.parse(inspect.getsource(counting))
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    todo, seen = list(EXACT_ORACLES), set()
    while todo:
        name = todo.pop()
        if name in seen:
            continue
        seen.add(name)
        names = {n.id for n in ast.walk(functions[name]) if isinstance(n, ast.Name)}
        names |= {n.attr for n in ast.walk(functions[name]) if isinstance(n, ast.Attribute)}
        assert not names & ESTIMATOR_NAMES, (name, names & ESTIMATOR_NAMES)
        todo += [n for n in names if n in functions]
    assert {"_uncovered_histogram", "_uncovered_row", "_band_caps"} <= seen


class TestThresholds:
    def test_arithmetic_examples(self):
        t = thresholds(8, 0.05, gamma=0.0)
        assert t.alpha == pytest.approx(math.log(8) / 16, abs=1e-12)
        assert t.beta == pytest.approx(0.2)
        t = thresholds(64, 0.0125, gamma=0.1)
        assert t.alpha == pytest.approx(0.030944, abs=1e-5)
        assert t.beta == pytest.approx(0.05)
        assert t.alpha < t.beta

    def test_degenerate_band(self):
        with pytest.raises(DegenerateBandError):
            thresholds(3, 0.01)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            thresholds(2, 0.5)
        with pytest.raises(ValueError):
            thresholds(8, -1.0)


def _count_enumerations(monkeypatch):
    """Record each enumeration and each compiled facet table from here on."""
    enumerations, tables = [], []
    real_enumerate, real_table = slices._facet_ids, walks.facet_table

    def enumerate_spy(slc, cap):
        enumerations.append((slc, cap))
        return real_enumerate(slc, cap)

    def table_spy(slc):
        tables.append(slc)
        return real_table(slc)

    for module in (slices, walks, counting):
        if getattr(module, "_facet_ids", None) is real_enumerate:
            monkeypatch.setattr(module, "_facet_ids", enumerate_spy)
        if getattr(module, "facet_table", None) is real_table:
            monkeypatch.setattr(module, "facet_table", table_spy)
    return enumerations, tables


class TestEstimators:
    def test_two_sided_zero_sizes(self, bipartite_c6):
        est = estimate_two_sided_count(bipartite_c6, 0, 0, 0.1, 0.1, seed=0)
        assert est.value == pytest.approx(1.0)

    def test_two_sided_c6_disconnected_slice(self, bipartite_c6):
        # 3 facets and a frozen chain: every X vertex leaves one Y vertex
        # uncovered, so every particle carries the same weight
        est = estimate_two_sided_count(bipartite_c6, 1, 1, 0.1, 0.1, seed=1)
        assert est.value == pytest.approx(3.0, rel=1e-9)

    def test_one_sided_trivial_ends(self, bipartite_c6):
        est = estimate_one_sided_partition(bipartite_c6, 0, 0.5, 0.1, 0.1, seed=0)
        assert est.value == pytest.approx(1.5 ** 3, rel=1e-12)
        est = estimate_one_sided_partition(bipartite_c6, 3, 0.5, 0.1, 0.1, seed=0)
        assert est.value == pytest.approx(
            exact_one_sided_partition(bipartite_c6, 3, 0.5), rel=1e-12)

    def test_one_sided_c6_example(self, bipartite_c6):
        est = estimate_one_sided_partition(bipartite_c6, 1, 0.5, 0.1, 0.1, seed=2)
        assert est.value == pytest.approx(2.25, rel=0.1)

    def test_trace_and_determinism(self):
        g = gen_bipartite_regular(8, 3, seed=3)
        a = estimate_two_sided_count(g, 2, 2, 0.1, 0.1, seed=5)
        b = estimate_two_sided_count(g, 2, 2, 0.1, 0.1, seed=5)
        assert a.log_value == b.log_value and a.trace == b.trace
        record, = a.trace  # the row k_x = 2, run up to k_y = 2
        assert (record.band, record.k_x, record.top) == ("two-sided", 2, 2)
        assert record.particles >= counting.PARTICLE_FLOOR and record.samples == a.samples

    def test_particle_count_follows_the_pilot(self):
        # the main run takes max(PARTICLE_FLOOR, ceil(z(delta)^2 relvar / eps^2))
        g = gen_bipartite_regular(8, 3, seed=1)
        for eps in (0.3, 0.05, 0.02):
            record, = estimate_two_sided_count(g, 2, 2, eps, 0.1, seed=5).trace
            want = math.ceil(_z_quantile(0.1) ** 2 * record.relvar / eps ** 2)
            assert record.particles == max(counting.PARTICLE_FLOOR, want)
        assert record.particles > counting.PARTICLE_FLOOR

    @pytest.mark.parametrize("rejuvenating", [True, False])
    def test_a_phase_builds_at_most_two_generators(self, monkeypatch, rejuvenating):
        # a system builds one generator: both runs, the pilot and the main
        # one, draw their particles and resamplings from it, and their kernel
        # steps, whether or not they rejuvenate, from a buffer of it
        if rejuvenating:
            monkeypatch.setattr(counting, "ESS_FRACTION", math.inf)
        paths = []
        real_stream = counting.rng_stream

        def stream_spy(seed, *path):
            paths.append((seed, *path))
            return real_stream(seed, *path)

        monkeypatch.setattr(counting, "rng_stream", stream_spy)
        est = estimate_two_sided_count(gen_bipartite_regular(8, 3, seed=1), 2, 2,
                                       0.3, 0.1, seed=5)
        assert paths == [(5,)]
        assert (est.trace[0].resamplings > 0) == rejuvenating

    def test_samples_count_what_the_chains_collected(self, monkeypatch):
        # the X-sets drawn: both runs' particles, and each particle a
        # rejuvenation moved; a reweighting draws none
        monkeypatch.setattr(counting, "ESS_FRACTION", math.inf)
        runs = []
        smc = counting._smc

        def spy(particles, count, rng, rand):
            got = smc(particles, count, rng, rand)
            runs.append((count, got[2]))
            return got

        monkeypatch.setattr(counting, "_smc", spy)
        est = estimate_two_sided_count(gen_bipartite_regular(8, 3, seed=1), 1, 3,
                                       0.3, 0.1, seed=0)
        record, = est.trace
        assert [r for _, r in runs] == [2, 2]  # after cells 1 and 2, not the last
        assert est.samples == record.samples == sum(c * (1 + r) for c, r in runs)
        assert record.resamplings == 4
        # each run moves its particles at free sizes 1 + 1 and 1 + 2
        assert record.steps == counting.MOVE_SCALE * sum(c * (2 + 3) for c, _ in runs)

    def test_each_table_level_enumerates_once(self, monkeypatch):
        # a slice whose facets once fit a facet table, a reducible one
        # included, was enumerated once for it; a particle system reads no law
        # off its slice, so these estimates enumerate nothing and compile no table
        enumerations, tables = _count_enumerations(monkeypatch)
        monkeypatch.setattr(counting, "ESS_FRACTION", math.inf)  # rejuvenate too
        estimate_two_sided_count(gen_bipartite_regular(8, 3, seed=1), 2, 2, 0.3, 0.1, seed=5)
        estimate_one_sided_partition(gen_bipartite_regular(8, 3, seed=1), 3, 0.3, 0.3, 0.1,
                                     seed=5)
        est = estimate_two_sided_count(gen_bipartite_regular(8, 3, seed=500), 2, 2, 0.1, 0.1,
                                       seed=9000)  # its first cell is reducible
        assert est.samples > 0 and est.trace[0].resamplings > 0
        assert enumerations == [] and tables == []

    def test_a_top_level_with_a_small_exact_bound_compiles_no_table(self, monkeypatch):
        # C(8, 2) = 28 one-sided facets, and the low terms of the banded sum
        # are smaller still: the estimates run their particles all the same
        enumerations, tables = _count_enumerations(monkeypatch)
        g = gen_bipartite_regular(8, 3, seed=1)
        assert slices._facet_bound(OneSidedSlice(g, 2, 0.4)) == (28, True)
        record, = estimate_one_sided_partition(g, 2, 0.4, 0.1, 0.1, seed=5).trace
        assert record.particles >= counting.PARTICLE_FLOOR and record.samples > 0
        est = estimate_partition_hat(g, 0.25, 0.3, 0.3, seed=1, thr=thresholds(3, 0.25))
        assert est.samples > 0 and math.isfinite(est.log_value)
        assert enumerations == [] and tables == []

    def test_a_level_above_the_exact_bound_enumerates_nothing(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("an estimator enumerated a slice")

        for name in ("_facet_ids", "_law_within", "facet_table"):
            for module in (slices, walks, counting):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, refuse)
        for seed in (1, 500):
            # C(8, 3) = 56 facets, and (2, 2) two-sided a bound of 784
            g = gen_bipartite_regular(8, 3, seed=seed)
            assert slices._facet_bound(OneSidedSlice(g, 3, 0.4)) == (56, True)
            assert estimate_one_sided_partition(g, 3, 0.4, 0.3, 0.1, seed=5).samples > 0
            assert estimate_two_sided_count(g, 2, 2, 0.3, 0.1, seed=5).samples > 0

    def test_rejuvenation_keeps_the_estimates_unbiased(self, monkeypatch):
        # an infinite ESS_FRACTION resamples and rejuvenates after every cell
        # but the last, so every estimate runs the chains; the particle
        # estimate is unbiased for any kernel that leaves the cell's law
        # invariant, so over 120 cells the mean relative error lies within 3
        # standard errors of 0.  The first cell is reducible: its chain holds
        # a frozen facet, which pooled chains once weighed by where they started.
        monkeypatch.setattr(counting, "ESS_FRACTION", math.inf)
        monkeypatch.setattr(counting, "PARTICLE_FLOOR", 64)
        cells = [(gen_bipartite_regular(8, 3, seed=500), (2, 2))]
        for s in range(40):
            g = gen_bipartite_regular(8, 3, seed=600 + s)
            cells += [(g, (2, 2)), (g, (1, 3)), (g, 3)]
        errors = []
        for i, (g, k) in enumerate(cells):
            if isinstance(k, tuple):
                exact = exact_slice_count(g, *k)
                if not exact:
                    continue
                est = estimate_two_sided_count(g, *k, 0.3, 0.3, seed=i)
            else:
                exact = exact_one_sided_partition(g, k, 0.4)
                est = estimate_one_sided_partition(g, k, 0.4, 0.3, 0.3, seed=i)
            record, = est.trace
            assert record.resamplings > 0 and record.steps > 0
            errors.append(est.value / exact - 1.0)
        assert len(errors) >= 100
        assert abs(np.mean(errors)) <= 3 * np.std(errors, ddof=1) / math.sqrt(len(errors))

    def test_a_cell_whose_particles_all_weigh_zero(self):
        # no 3-regular side-8 graph holds an independent set with 7 ids on
        # each side: the single-cell estimate raises and names the cell
        g = gen_bipartite_regular(8, 3, seed=1)
        assert exact_slice_count(g, 7, 7) == 0
        with pytest.raises(counting.InsufficientSamplesError, match=r"cell \(7, 7\)"):
            estimate_two_sided_count(g, 7, 7, 0.3, 0.1, seed=0)

    def test_z_quantile_upper_tail(self):
        assert _z_quantile(0.01) == pytest.approx(2.5758293035489, rel=1e-12)

    @pytest.mark.slow
    def test_two_sided_mcmc_accuracy_sweep(self):
        hits = 0
        runs = 0
        for seed in range(10):
            g = gen_bipartite_regular(8, 3, seed=seed)
            exact = exact_slice_count(g, 2, 2)
            if exact == 0:
                continue
            est = estimate_two_sided_count(g, 2, 2, 0.1, 0.1, seed=100 + seed)
            runs += 1
            if abs(est.value / exact - 1) <= 0.1:
                hits += 1
        assert hits >= 0.9 * runs

    @pytest.mark.slow
    def test_one_sided_mcmc_accuracy_sweep(self):
        hits = 0
        runs = 0
        for seed in range(10):
            g = gen_bipartite_regular(8, 3, seed=seed)
            exact = exact_one_sided_partition(g, 3, 0.4)
            est = estimate_one_sided_partition(g, 3, 0.4, 0.1, 0.1, seed=200 + seed)
            runs += 1
            if abs(est.value / exact - 1) <= 0.1:
                hits += 1
        assert hits >= 0.9 * runs


class TestPartitionHat:
    def test_edgeless_small_fugacity(self, edgeless_bipartite_5):
        lam = 0.2
        thr = ThresholdParams(alpha=0.45, beta=1.0)
        zhat_exact, double = exact_partition_hat(edgeless_bipartite_5, lam, thr)
        est = estimate_partition_hat(edgeless_bipartite_5, lam, 0.15, 0.2, seed=3, thr=thr)
        assert est.value == pytest.approx(zhat_exact, rel=0.15)

    def test_widened_bands_equal_z_plus_double_count(self):
        g = gen_bipartite_regular(7, 3, seed=11)
        lam = 0.3
        thr = ThresholdParams(alpha=0.15, beta=1.0)
        zhat_exact, double = exact_partition_hat(g, lam, thr)
        z = exact_partition(g, lam)
        assert zhat_exact == pytest.approx(z + double, rel=1e-12)
        est = estimate_partition_hat(g, lam, 0.1, 0.1, seed=4, thr=thr)
        assert est.value == pytest.approx(zhat_exact, rel=0.1)
        kinds = [b.kind for b in est.bands]
        assert kinds == ["two-sided", "one-sided-x", "one-sided-y"]

    def test_one_record_per_term(self):
        g = gen_bipartite_regular(8, 3, seed=1)
        lam, thr = 0.25, thresholds(3, 0.25)
        est = estimate_partition_hat(g, lam, 0.3, 0.3, seed=1, thr=thr)
        a_cap, b_cap = counting._band_caps(8, thr)
        assert (a_cap, b_cap) == (1, 8)
        terms = [t for b in est.bands for t in b.terms]
        assert [(t.band, t.k) for t in terms] == (
            [("two-sided", (kx, ky)) for kx in range(2) for ky in range(2)]
            + [(band, k) for band in ("one-sided-x", "one-sided-y") for k in range(2, 9)])
        # one system per row and per band; the bands stop short of k = n, the
        # closed form
        assert [(r.band, r.k_x, r.top) for r in est.trace] == [
            ("two-sided", 0, 1), ("two-sided", 1, 1), ("one-sided-x", None, 7),
            ("one-sided-y", None, 7)]
        assert sum(r.samples for r in est.trace) == est.samples
        for b in est.bands:
            assert b.samples == sum(r.samples for r in est.trace if r.band == b.kind)
            assert b.value_log == counting._logsumexp(t.value_log for t in b.terms)

    def test_a_term_whose_particles_all_weigh_zero_is_zero(self):
        # a grid up to a_cap = 7 holds infeasible cells, such as (7, 7); each
        # comes out as a zero term, and the estimate stays finite
        g = gen_bipartite_regular(8, 3, seed=1)
        est = estimate_partition_hat(g, 0.25, 0.3, 0.3, seed=1, thr=ThresholdParams(0.9, 1.0))
        grid = est.bands[0].terms
        assert len(grid) == 64 and math.isfinite(est.log_value)
        infeasible = [t for t in grid if exact_slice_count(g, *t.k) == 0]
        assert infeasible and all(t.value_log == LOG_ZERO for t in infeasible)

    def test_monotone_in_beta(self):
        # with exact inner terms, widening beta only adds nonnegative mass
        g = gen_bipartite_regular(7, 3, seed=2)
        lam = 0.3
        values = []
        for beta in (0.3, 0.6, 1.0):
            thr = ThresholdParams(alpha=0.15, beta=beta)
            values.append(exact_partition_hat(g, lam, thr)[0])
        assert values[0] <= values[1] <= values[2] + 1e-12

    @pytest.mark.parametrize("n, degree, lam, thr", [
        (8, 3, 0.25, thresholds(3, 0.25)),  # the one-sided bands end at k = n
        (12, 3, 0.05, thresholds(3, 0.05)),  # a_cap = b_cap: both bands empty
        (10, 3, 0.3, ThresholdParams(0.15, 1.0)),
        (14, 4, 0.1, thresholds(4, 0.1)),
    ])
    def test_terms_sum_to_the_exact_banded_value(self, monkeypatch, n, degree, lam, thr):
        # with every particle system replaced by its cells' exact values, each
        # term is its exact weight on its own graph times its scale, and the
        # terms sum to the exact banded value
        g = gen_bipartite_regular(n, degree, seed=1)
        seeds = []

        def exact_cells(particles, band, k_x, epsilon, delta, seed):
            seeds.append(seed)
            slc = particles.slc
            if band == "two-sided":
                assert k_x == slc.k_x
                counts = [exact_slice_count(g, k_x, ky) for ky in range(slc.k_y + 1)]
                logs = [math.log(c) if c else LOG_ZERO for c in counts]
            else:
                assert k_x is None and slc.fugacity == lam and slc.k < n
                logs = [math.log(exact_one_sided_partition(slc.graph, k, lam))
                        for k in range(slc.k + 1)]
            return logs, SystemRecord(band, k_x, particles.top, 0, 0.0, 0, 0, 0)

        monkeypatch.setattr(counting, "_particle_system", exact_cells)
        est = estimate_partition_hat(g, lam, 0.1, 0.1, seed=0, thr=thr)
        assert len(set(seeds)) == len(seeds)
        graphs = {"one-sided-x": g, "one-sided-y": counting._mirror(g)}
        for t in (t for b in est.bands for t in b.terms):
            if t.band == "two-sided":
                want = exact_slice_count(g, *t.k) * lam ** sum(t.k)
            else:
                want = exact_one_sided_partition(graphs[t.band], t.k, lam)
            assert math.exp(t.value_log) == pytest.approx(want, rel=1e-12)
        assert est.value == pytest.approx(exact_partition_hat(g, lam, thr)[0], rel=1e-12)


class TestAccuracyArguments:
    @pytest.mark.parametrize("epsilon, delta", [(0.3, 0.0), (0.3, 1.0), (0.0, 0.1),
                                                (1.5, 0.1), (0.3, 2.0)])
    def test_rejected_before_any_chain_runs(self, monkeypatch, epsilon, delta):
        # delta = 2 split over the terms would pass each term's own check
        def no_chain(*args):
            raise AssertionError("a particle was drawn")

        monkeypatch.setattr(counting, "_smc", no_chain)
        g = gen_bipartite_regular(8, 3, seed=1)
        runs = [lambda: estimate_two_sided_count(g, 2, 2, epsilon, delta, seed=0),
                lambda: estimate_one_sided_partition(g, 3, 0.3, epsilon, delta, seed=0),
                lambda: estimate_partition_hat(g, 0.25, epsilon, delta, seed=0,
                                               thr=thresholds(3, 0.25))]
        for run in runs:
            with pytest.raises(ValueError, match=r"epsilon and delta must lie in \(0, 1\)"):
                run()


def test_internals_work_on_global_ids(monkeypatch):
    """Exact laws, the link-walk oracle and the estimator take and hand out
    global ids: with the two-sided format conversions broken they give the
    same results."""
    g = gen_bipartite_regular(8, 3, seed=1)
    y = min(set(range(8)) - set(g.adj_x[0]))
    codim2 = TwoSidedSlice(g, 2, 2, pinned_x=frozenset({0}), pinned_y=frozenset({y}))
    kinds = [TwoSidedSlice(g, 2, 2), TwoSidedSlice(g, 2, 1, pinned_y=frozenset({y})), codim2]

    def run():
        laws = [slices._law_within(slc, 20_000) for slc in kinds]
        op = slices.local_walk_exact(codim2)
        est = estimate_two_sided_count(g, 2, 2, 0.3, 0.1, seed=5)
        return laws, (op.ground, op.matrix, op.pi), est

    def refuse(*args):
        raise AssertionError("converted a facet inside the package")

    monkeypatch.setattr(counting, "ESS_FRACTION", math.inf)  # the estimate rejuvenates
    want = run()
    monkeypatch.setattr(TwoSidedSlice, "to_ids", refuse)
    monkeypatch.setattr(TwoSidedSlice, "from_ids", refuse)
    got = run()
    for (facets, logw, probs), (ref_facets, ref_logw, ref_probs) in zip(got[0], want[0]):
        assert facets == ref_facets
        assert logw.tobytes() == ref_logw.tobytes() and probs.tobytes() == ref_probs.tobytes()
    (ground, matrix, pi), (ref_ground, ref_matrix, ref_pi) = got[1], want[1]
    assert ground == ref_ground
    assert matrix.tobytes() == ref_matrix.tobytes() and pi.tobytes() == ref_pi.tobytes()
    assert got[2] == want[2]
    assert got[2].trace[0].resamplings > 0
