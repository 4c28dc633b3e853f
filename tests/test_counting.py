from __future__ import annotations

import ast
import inspect
import math
from itertools import combinations

import numpy as np
import pytest

import slicewalk
from slicewalk import counting, slices, walks
from slicewalk.counting import (EXACT_COUNT_CAP, DegenerateBandError, ThresholdParams,
                                _banded_terms, _uncovered_histogram, _z_quantile, estimate_one_sided_partition, estimate_partition_hat,
                                estimate_two_sided_count, exact_one_sided_partition,
                                exact_partition, exact_partition_hat, exact_slice_count,
                                occupancy_profile, thresholds)
from slicewalk.graphs import BipartiteRegularGraph, gen_bipartite_regular
from slicewalk.slices import OneSidedSlice, TwoSidedSlice
from slicewalk.rng import rng_stream
from slicewalk.walks import _make_state


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
ESTIMATOR_NAMES = {"run_chain", "facet_table", "_telescope_log", "_banded_terms"}
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


class TestEstimators:
    def test_two_sided_zero_sizes(self, bipartite_c6):
        est = estimate_two_sided_count(bipartite_c6, 0, 0, 0.1, 0.1, seed=0)
        assert est.value == pytest.approx(1.0)

    def test_two_sided_c6_disconnected_slice(self, bipartite_c6):
        # 3-facet slice with a frozen chain: handled by the exact-marginal path
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
        assert len(a.trace) == 4
        assert all(0 < t.marginal <= 1 for t in a.trace)

    def test_levels_record_how_they_were_decided(self):
        # the golden estimate's path: an 82-facet top slice with one
        # communicating class is sampled, the smaller links are enumerated
        est = estimate_two_sided_count(gen_bipartite_regular(8, 3, seed=1), 2, 2,
                                       0.3, 0.1, seed=5)
        assert [t.method for t in est.trace] == ["sampled", "exact", "exact", "exact"]
        assert [t.samples > 0 for t in est.trace] == [True, False, False, False]
        # the sampled level fits a facet table, so its replicas start from its law
        assert [t.burn_in for t in est.trace] == [0, 0, 0, 0]

    def test_levels_above_the_table_cap_burn_in_from_a_greedy_facet(self, monkeypatch):
        # with no level under the cap, the sampled level starts its replicas at
        # greedy facets and traces the burn-in each ran
        monkeypatch.setattr(walks, "TABLE_ROW_CAP", 0)
        g = gen_bipartite_regular(8, 3, seed=1)
        est = estimate_two_sided_count(g, 2, 2, 0.3, 0.1, seed=5)
        assert [t.method for t in est.trace] == ["sampled", "exact", "exact", "exact"]
        burn = counting._burn_in(TwoSidedSlice(g, 2, 2), 0.3)
        assert burn > 0 and [t.burn_in for t in est.trace] == [burn, 0, 0, 0]

    def test_reducible_level_takes_the_exact_marginal(self):
        # At (2, 2) on this graph the down-up chain has more than one
        # communicating class (one facet is frozen: every move from it is a
        # self-loop), so pooled replicas weigh each class by where they
        # started; from chain samples this estimate came out at 0.566 x exact.
        g = gen_bipartite_regular(8, 3, seed=500)
        exact = exact_slice_count(g, 2, 2)
        est = estimate_two_sided_count(g, 2, 2, 0.1, 0.1, seed=9000)
        assert est.value == pytest.approx(exact, rel=0.1)
        assert est.trace[0].method == "reducible" and est.trace[0].samples == 0
        assert est.trace[0].burn_in == 0

    def test_pool_kernels_give_the_facet_table_estimates(self, monkeypatch):
        # slices above the table cap step through the pool kernels, which
        # read the same time-major uniforms: with as many replicas, started
        # where the table's draws start and run without burn-in, they give
        # the same estimates
        monkeypatch.setattr(counting, "TABLE_REPLICAS", counting.REPLICAS)
        g = gen_bipartite_regular(8, 3, seed=1)
        runs = [lambda: estimate_two_sided_count(g, 2, 2, 0.3, 0.1, seed=5),
                lambda: estimate_one_sided_partition(g, 3, 0.3, 0.3, 0.1, seed=5)]
        tabled = [run() for run in runs]
        assert any(t.method == "sampled" for est in tabled for t in est.trace)

        def table_start(slc, rng):
            table = walks.facet_table(slc)
            free = table.free[table.draw(rng, 1)[0]].tolist()
            return _make_state(slc, sorted(set(free) | slc.pinned_ids))

        monkeypatch.setattr(counting, "facet_table", lambda slc: None)
        monkeypatch.setattr(counting, "_burn_in", lambda slc, epsilon: 0)
        monkeypatch.setattr(counting, "greedy_initial_state", table_start)
        for est, run in zip(tabled, runs):
            assert run() == est

    @pytest.mark.parametrize("block", [1, 40, 8192])
    @pytest.mark.parametrize("tabled", [True, False])
    def test_membership_counts_replay_the_scalar_kernel(self, monkeypatch, tabled, block):
        # each replica is _step on its column of the phase's time-major step
        # stream, from its start in replica order, sampled after burn + thin,
        # burn + 2 thin, ... steps; the table path starts at the law's draws,
        # the kernel path at greedy facets after 13 unsampled steps, more than
        # the thinning; blocks of one step, of a few, and of the whole phase
        monkeypatch.setattr("slicewalk.rng.BLOCK", block)
        monkeypatch.setattr(counting, "TABLE_REPLICAS", 3)
        monkeypatch.setattr(counting, "REPLICAS", 3)
        g = gen_bipartite_regular(8, 3, seed=1)
        for slc in (TwoSidedSlice(g, 2, 2), OneSidedSlice(g, 3, 0.4)):
            table = walks.facet_table(slc) if tabled else None
            burn = 0 if tabled else 13
            counts, got = counting._membership_counts(slc, 7, 4, (0, 1, 1), table, burn)
            per, thin, unit = 3, 2 * slc.free_size, 3 if slc.coverage_weighted else 2
            assert got == 3 * per
            start = rng_stream(4, 0, 1, 1, 0)
            if tabled:
                t = walks.facet_table(slc)
                states = [_make_state(slc, sorted(set(t.free[f].tolist()) | slc.pinned_ids))
                          for f in t.draw(start, 3)]
            else:
                states = [walks.greedy_initial_state(slc, start) for _ in range(3)]
            steps = burn + per * thin
            columns = rng_stream(4, 0, 1, 1, 1).random((steps, 3, unit))
            want = np.zeros_like(counts)
            for r, state in enumerate(states):
                rand = iter(columns[:, r].ravel().tolist()).__next__
                for t in range(1, steps + 1):
                    walks._step(slc, state, rand)
                    if t > burn and (t - burn) % thin == 0:
                        want[state.free] += 1
            assert counts.tolist() == want.tolist()

    @pytest.mark.parametrize("tabled", [True, False])
    def test_a_phase_builds_at_most_two_generators(self, monkeypatch, tabled):
        # one stream for the starts and one for the steps, whatever the
        # replica count, on the table path and on the kernel path alike
        if not tabled:
            monkeypatch.setattr(walks, "TABLE_ROW_CAP", 0)
        paths = []
        real_stream = counting.rng_stream

        def stream_spy(seed, *path):
            paths.append(path)
            return real_stream(seed, *path)

        monkeypatch.setattr(counting, "rng_stream", stream_spy)
        for replicas in (4, 64):
            monkeypatch.setattr(counting, "TABLE_REPLICAS", replicas)
            monkeypatch.setattr(counting, "REPLICAS", replicas)
            paths.clear()
            est = estimate_two_sided_count(gen_bipartite_regular(8, 3, seed=1), 2, 2,
                                           0.3, 0.1, seed=5)
            phases = {path[:-1] for path in paths}
            sampled = sum(t.method == "sampled" for t in est.trace)
            assert sampled and len(phases) == 2 * sampled  # a pilot and a main phase each
            assert all(sum(p[:-1] == phase for p in paths) <= 2 for phase in phases)

    def test_each_table_level_enumerates_once(self, monkeypatch):
        # the table's rows and the law its replicas start from (or the
        # marginal of a reducible level) come from one enumeration, and the
        # levels below it, exact ones included, read their tables by
        # restriction: an estimate whose top level fits a table enumerates once
        enumerations, tables = [], []
        real_enumerate, real_table = slices._facet_ids, counting.facet_table

        def enumerate_spy(slc, cap):
            enumerations.append((slc, cap))
            return real_enumerate(slc, cap)

        def table_spy(slc):
            table = real_table(slc)
            if table is not None:
                tables.append(slc)
            return table

        for module in (slicewalk, slices, walks, counting):
            if getattr(module, "_facet_ids", None) is real_enumerate:
                monkeypatch.setattr(module, "_facet_ids", enumerate_spy)
        monkeypatch.setattr(counting, "facet_table", table_spy)
        estimate_two_sided_count(gen_bipartite_regular(8, 3, seed=1), 2, 2, 0.3, 0.1, seed=5)
        estimate_one_sided_partition(gen_bipartite_regular(8, 3, seed=1), 3, 0.3, 0.3, 0.1,
                                     seed=5)
        estimate_two_sided_count(gen_bipartite_regular(8, 3, seed=500), 2, 2, 0.1, 0.1,
                                 seed=9000)  # a reducible level
        assert len(tables) == 3  # the top level of each estimate
        assert [cap for _, cap in enumerations] == [walks.TABLE_ROW_CAP] * 3
        assert all(a is b for (a, _), b in zip(enumerations, tables))

    def test_a_top_level_with_a_small_exact_bound_compiles_no_table(self, monkeypatch):
        # C(8, 2) = 28 one-sided facets: each level enumerates its own law
        # within EXACT_MARGINAL_CAP, and no table is compiled
        caps, real_enumerate = [], slices._facet_ids

        def enumerate_spy(slc, cap):
            caps.append(cap)
            return real_enumerate(slc, cap)

        def refuse(slc):
            raise AssertionError("compiled a table for a level known to be exact")

        monkeypatch.setattr(slices, "_facet_ids", enumerate_spy)
        monkeypatch.setattr(counting, "facet_table", refuse)
        est = estimate_one_sided_partition(gen_bipartite_regular(8, 3, seed=1), 2, 0.4, 0.1,
                                           0.1, seed=5)
        assert [t.method for t in est.trace] == ["exact", "exact"]
        assert caps == [counting.EXACT_MARGINAL_CAP] * 2

    def test_repetitions_share_one_compile(self, monkeypatch):
        # the median-of-repetitions path runs 92 telescopes of the same top
        # slice from one compiled table
        calls = []
        real_table = counting.facet_table

        def table_spy(slc):
            calls.append(slc)
            return real_table(slc)

        monkeypatch.setattr(counting, "facet_table", table_spy)
        est = estimate_two_sided_count(gen_bipartite_regular(8, 3, seed=1), 2, 2, 0.3, 5e-4,
                                       seed=5)
        assert counting._repetitions(5e-4) == 92 and len(calls) == 1
        assert [t.method for t in est.trace] == ["sampled", "exact", "exact", "exact"]

    def test_the_first_level_that_fits_compiles_and_the_rest_pin(self, monkeypatch):
        # under a cap of 1,000 rows the (2, 2) top level (a bound of 784
        # facets, 4 free) steps through the kernels, the next level compiles
        # its table, and the two below pin it; each exact level's marginal,
        # read off a table, is the one its own enumeration gives
        monkeypatch.setattr(walks, "TABLE_ROW_CAP", 1000)
        calls = []
        real_table = counting.facet_table

        def table_spy(slc):
            table = real_table(slc)
            calls.append((slc.free_size, table is not None))
            return table

        monkeypatch.setattr(counting, "facet_table", table_spy)
        g = gen_bipartite_regular(8, 3, seed=1)
        est = estimate_two_sided_count(g, 2, 2, 0.3, 0.1, seed=5)
        assert calls == [(4, False), (3, True)]
        assert [t.method for t in est.trace] == ["sampled", "exact", "exact", "exact"]
        assert est.trace[0].burn_in > 0
        slc = TwoSidedSlice(g, 2, 2)
        for t in est.trace:
            v = t.pinned[1] + g.n_side * t.pinned[0]
            if t.method == "exact":
                assert counting._exact_marginal(slc) == (v, t.marginal)
            slc = slc.pin((v,))

    def test_a_level_above_the_exact_bound_enumerates_nothing(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("enumerated a level whose exact bound exceeds the cap")

        monkeypatch.setattr(slices, "_facet_ids", refuse)
        # C(8, 3) = 56 facets, above EXACT_MARGINAL_CAP = 32
        slc = OneSidedSlice(gen_bipartite_regular(8, 3, seed=1), 3, 0.4)
        assert slices._facet_bound(slc) == (56, True)
        assert counting._exact_marginal(slc) is None

    def test_samples_count_what_the_chains_collected(self, monkeypatch):
        # at side 12 the top level fits a facet table: the pilot asks for 299
        # samples and its 299 lockstep replicas collect one each
        collected = []
        membership_counts = counting._membership_counts

        def spy(*args):
            counts, got = membership_counts(*args)
            collected.append(got)
            return counts, got

        monkeypatch.setattr(counting, "_membership_counts", spy)
        est = estimate_two_sided_count(gen_bipartite_regular(12, 3, seed=1), 2, 2,
                                       0.3, 0.1, seed=0)
        assert collected and est.samples == sum(collected)

    @pytest.mark.parametrize("need", [1, 200, 513, 2910, 8513])
    def test_a_table_phase_overshoots_by_less_than_one_replica_share(self, need):
        # per = ceil(need / TABLE_REPLICAS) samples each on ceil(need / per)
        # replicas, so the last replica's share is the most a phase overshoots
        slc = TwoSidedSlice(gen_bipartite_regular(8, 3, seed=1), 2, 2)
        counts, got = counting._membership_counts(slc, need, 4, (0, 0, 1),
                                                  walks.facet_table(slc), 0)
        assert 0 <= got - need < math.ceil(need / counting.TABLE_REPLICAS)
        assert counts.sum() == got * slc.free_size

    def test_above_the_cap_a_phase_runs_every_replica(self):
        # from 13 samples on, the rule gives REPLICAS replicas of
        # ceil(need / REPLICAS) samples, the split every pilot (200 or more)
        # and main phase (64 or more) had before it: their chains are unchanged
        slc = TwoSidedSlice(gen_bipartite_regular(8, 3, seed=1), 1, 1)
        for need in range(13, 300):
            counts, got = counting._membership_counts(slc, need, 4, (0, 0, 1), None, 0)
            assert got == counting.REPLICAS * math.ceil(need / counting.REPLICAS)
            assert counts.sum() == got * slc.free_size

    def test_z_quantile_upper_tail(self):
        assert _z_quantile(0.01) == pytest.approx(2.5758293035489, rel=1e-12)

    def test_trace_marginals_exceed_half_side_floor(self):
        # the argmax pilot rule keeps every pinned marginal above 1/(2 * side)
        floor = 1.0 / (2 * 8)
        for seed in range(8):
            g = gen_bipartite_regular(8, 3, seed=40 + seed)
            est = estimate_two_sided_count(g, 2, 2, 0.1, 0.1, seed=300 + seed)
            assert all(t.marginal > floor for t in est.trace)

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
        terms = [t for b in est.bands for t in b.terms]
        assert [(t.band, t.k) for t in terms] == [
            (band, k) for band, k, *_ in _banded_terms(g, lam, thr, seed=1)]
        assert sum(t.samples for t in terms) == est.samples
        for b in est.bands:
            assert b.samples == sum(t.samples for t in b.terms)
            assert b.value_log == counting._logsumexp(t.value_log for t in b.terms)
        for t in terms:
            # the levels' main-phase samples; the term also counts its pilots
            assert sum(level.samples for level in t.levels) <= t.samples
            assert all(level.method in ("exact", "reducible", "sampled") for level in t.levels)
        assert any(t.levels for t in terms)

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
    def test_terms_sum_to_the_exact_banded_value(self, n, degree, lam, thr):
        # each term's exact weight on its own graph, scaled by its log scale
        g = gen_bipartite_regular(n, degree, seed=1)
        terms = _banded_terms(g, lam, thr, seed=0)
        assert len({seed for *_, seed in terms}) == len(terms)
        weights = []
        for band, k, slc, log_scale, _ in terms:
            if band == "two-sided":
                assert k == (slc.k_x, slc.k_y)
                assert log_scale == (slc.k_x + slc.k_y) * math.log(lam)
                weight = exact_slice_count(slc.graph, slc.k_x, slc.k_y)
            else:
                assert k == slc.k and log_scale == 0.0 and slc.fugacity == lam
                weight = exact_one_sided_partition(slc.graph, slc.k, lam)
            weights.append(weight * math.exp(log_scale))
        assert math.fsum(weights) == pytest.approx(exact_partition_hat(g, lam, thr)[0],
                                                   rel=1e-12)


class TestAccuracyArguments:
    @pytest.mark.parametrize("epsilon, delta", [(0.3, 0.0), (0.3, 1.0), (0.0, 0.1),
                                                (1.5, 0.1), (0.3, 2.0)])
    def test_rejected_before_any_chain_runs(self, monkeypatch, epsilon, delta):
        # delta = 2 split over the terms would pass each term's own check
        def no_chain(*args):
            raise AssertionError("a chain ran")

        monkeypatch.setattr(counting, "_telescope_log", no_chain)
        g = gen_bipartite_regular(8, 3, seed=1)
        runs = [lambda: estimate_two_sided_count(g, 2, 2, epsilon, delta, seed=0),
                lambda: estimate_one_sided_partition(g, 3, 0.3, epsilon, delta, seed=0),
                lambda: estimate_partition_hat(g, 0.25, epsilon, delta, seed=0,
                                               thr=thresholds(3, 0.25))]
        for run in runs:
            with pytest.raises(ValueError, match=r"epsilon and delta must lie in \(0, 1\)"):
                run()


def test_internals_work_on_global_ids(monkeypatch):
    """Facet tables, exact laws, the link-walk oracle and the estimator take
    and hand out global ids: with the two-sided format conversions broken
    they give the same results."""
    g = gen_bipartite_regular(8, 3, seed=1)
    y = min(set(range(8)) - set(g.adj_x[0]))
    codim2 = TwoSidedSlice(g, 2, 2, pinned_x=frozenset({0}), pinned_y=frozenset({y}))
    kinds = [TwoSidedSlice(g, 2, 2), TwoSidedSlice(g, 2, 1, pinned_y=frozenset({y})), codim2]

    def run():
        tables = [vars(walks.facet_table(slc)) for slc in kinds]
        laws = [slices._law_within(slc, walks.TABLE_ROW_CAP) for slc in kinds]
        op = slices.local_walk_exact(codim2)
        est = estimate_two_sided_count(g, 2, 2, 0.3, 0.1, seed=5)
        return tables, laws, (op.ground, op.matrix, op.pi), est

    def refuse(*args):
        raise AssertionError("converted a facet inside the package")

    want = run()
    monkeypatch.setattr(TwoSidedSlice, "to_ids", refuse)
    monkeypatch.setattr(TwoSidedSlice, "from_ids", refuse)
    got = run()
    for table, ref in zip(got[0], want[0]):
        assert table.keys() == ref.keys()
        for name, value in ref.items():
            assert np.array_equal(table[name], value), name
    for (facets, logw, probs), (ref_facets, ref_logw, ref_probs) in zip(got[1], want[1]):
        assert facets == ref_facets
        assert logw.tobytes() == ref_logw.tobytes() and probs.tobytes() == ref_probs.tobytes()
    (ground, matrix, pi), (ref_ground, ref_matrix, ref_pi) = got[2], want[2]
    assert ground == ref_ground
    assert matrix.tobytes() == ref_matrix.tobytes() and pi.tobytes() == ref_pi.tobytes()
    assert got[3] == want[3]
    assert any(t.method == "sampled" for t in got[3].trace)
