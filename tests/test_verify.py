from __future__ import annotations

import pytest

from slicewalk.graphs import (BipartiteRegularGraph, gen_bipartite_regular,
                              gen_regular)
from slicewalk.verify import (one_sided_hypotheses_met, verify_one_sided_identities,
                              verify_psd_chain, verify_top_link_one_sided,
                              verify_top_link_regular, verify_top_link_two_sided,
                              verify_walk_factorization)
from slicewalk.slices import OneSidedSlice, neighbor_graph


class TestTwoSidedSweep:
    def test_c6_equality_case(self, bipartite_c6):
        r = verify_top_link_two_sided(bipartite_c6, 1, 1)
        assert r.all_pass()
        rec = r.records[0]
        # lambda2 = 1 meets the bound lambda2(A)/(3 - 2) = 1 with equality
        assert rec.lambda2 == pytest.approx(1.0, abs=1e-9)
        assert rec.bound == pytest.approx(1.0, abs=1e-9)

    def test_same_side_faces_nonpositive(self, edgeless_bipartite_5):
        r = verify_top_link_two_sided(edgeless_bipartite_5, 2, 1)
        same = [rec for rec in r.records if rec.detail.startswith("same-side")]
        assert same and all(rec.status == "pass" for rec in same)
        assert all(rec.lambda2 <= 1e-9 for rec in same)

    @pytest.mark.parametrize("seed", range(6))
    def test_random_sweep_all_pass(self, seed):
        g = gen_bipartite_regular(10, 3, seed=seed)
        r = verify_top_link_two_sided(g, 2, 2)
        assert r.all_pass(), r.summary()
        assert r.checked > 0

    def test_sampled_policy_small_cap(self):
        g = gen_bipartite_regular(10, 3, seed=1)
        r = verify_top_link_two_sided(g, 2, 2, face_cap=10, sample_count=25, seed=3)
        assert r.all_pass()
        cross = [rec for rec in r.records if not rec.detail]
        assert 0 < len(cross) <= 25

    def test_same_side_faces_obey_the_cap(self):
        g = gen_bipartite_regular(10, 3, seed=1)
        r = verify_top_link_two_sided(g, 3, 3, face_cap=10, sample_count=25, seed=3)
        # a same-side face keeps one vertex on the side that misses two
        same_x = [rec for rec in r.records if len(rec.face[0]) == 1]
        same_y = [rec for rec in r.records if len(rec.face[1]) == 1]
        assert 0 < len(same_x) <= 25 and 0 < len(same_y) <= 25
        assert r.all_pass()


class TestOneSidedSweep:
    def test_edgeless_negative_bound_passes(self, edgeless_bipartite_5):
        r = verify_top_link_one_sided(edgeless_bipartite_5, 2, 0.5)
        rec = r.records[0]
        assert rec.status == "pass"
        # complete-graph link: lambda2 = -1/(m-1) below the negative bound
        assert rec.lambda2 == pytest.approx(-0.25, abs=1e-9)
        assert rec.bound < 0

    def test_c6_nonpositive_numerator_is_vacuous(self, bipartite_c6):
        # fugacity * lambda2^2 + fugacity^2 - 1 < 0 here and the stated bound
        # is numerically violated; since it is not derivable in this regime the
        # link is recorded vacuous, with the provable sign statement holding
        r = verify_top_link_one_sided(bipartite_c6, 2, 0.3)
        rec = r.records[0]
        assert rec.status == "vacuous"
        assert rec.detail == "nonpositive numerator"
        assert rec.lambda2 <= 0

    @pytest.mark.parametrize("seed", range(6))
    def test_random_sweep_all_pass(self, seed):
        g = gen_bipartite_regular(12, 3, seed=seed)
        r = verify_top_link_one_sided(g, 3, 0.25)
        assert r.all_pass(), r.summary()

    def test_hypothesis_gate_reported(self):
        # dense small graphs violate the common-neighbor hypotheses often
        g = gen_bipartite_regular(6, 3, seed=0)
        r = verify_top_link_one_sided(g, 3, 0.25)
        statuses = {rec.status for rec in r.records}
        assert statuses <= {"pass", "vacuous", "hypothesis_not_met"}


class TestRegularSweep:
    def test_six_cycle_tight(self, six_cycle):
        r = verify_top_link_regular(six_cycle, 2)
        rec = r.records[0]
        assert rec.status == "pass"
        assert rec.lambda2 == pytest.approx(1 / 3, abs=1e-9)
        assert rec.bound == pytest.approx(1 / 3, abs=1e-9)

    @pytest.mark.parametrize("seed", range(6))
    def test_random_sweep_all_pass(self, seed):
        g = gen_regular(12, 3, seed=seed)
        r = verify_top_link_regular(g, 3)
        assert r.all_pass(), r.summary()
        assert r.checked > 0


class TestWalkFactorization:
    def test_edgeless_zero_deviation(self, edgeless_bipartite_5):
        ok, dev = verify_walk_factorization(edgeless_bipartite_5, 2, 0.5, ())
        assert ok and dev == pytest.approx(0.0, abs=1e-15)

    def test_c6(self, bipartite_c6):
        ok, dev = verify_walk_factorization(bipartite_c6, 2, 0.5, ())
        assert ok and dev <= 1e-10

    @pytest.mark.parametrize("seed", range(8))
    def test_random_sweep(self, seed):
        g = gen_bipartite_regular(10, 3, seed=seed)
        for tau in ((0,), (4,), (9,)):
            ok, dev = verify_walk_factorization(g, 3, 0.35, tau)
            assert ok, dev


class TestPsdChain:
    def test_edgeless_trivial(self, edgeless_bipartite_5):
        out = verify_psd_chain(edgeless_bipartite_5, 2, 0.5, ())
        assert out["hypotheses_met"]
        assert out["neighbor_below_squared"]
        assert out["weight_below_affine"]
        assert out["weight_below_squared_affine"]

    def test_c6(self, bipartite_c6):
        out = verify_psd_chain(bipartite_c6, 2, 0.5, ())
        assert all(out[k] for k in ("hypotheses_met", "neighbor_below_squared",
                                    "weight_below_affine", "weight_below_squared_affine"))

    def test_hypothesis_violation_gates_affine_checks(self):
        # two x vertices sharing three common neighbors break the hypotheses
        adj_x = ((0, 1, 2), (0, 1, 2), (0, 1, 2))
        g = BipartiteRegularGraph(3, 3, adj_x, adj_x)
        slc = OneSidedSlice(g, 2, 0.5)
        assert not one_sided_hypotheses_met(neighbor_graph(slc, ()))
        out = verify_psd_chain(g, 2, 0.5, ())
        assert out["hypotheses_met"] is False
        assert out["weight_below_affine"] is None
        assert out["weight_below_squared_affine"] is None
        assert out["neighbor_below_squared"] is not None  # unconditional check ran

    def test_identity_sweep_samples_above_the_cap(self):
        g = gen_bipartite_regular(10, 3, seed=1)
        r = verify_one_sided_identities(g, 3, 0.3, face_cap=5)
        swept = verify_top_link_one_sided(g, 3, 0.3, face_cap=5)
        assert r.checked > 0 and r.all_pass()
        assert {rec.face for rec in r.records} == {rec.face for rec in swept.records}

    @pytest.mark.parametrize("seed", range(10))
    def test_identity_sweep_random_instances(self, seed):
        g = gen_bipartite_regular(10, 3, seed=100 + seed)
        r = verify_one_sided_identities(g, 3, 0.3)
        assert r.all_pass(), r.summary()
