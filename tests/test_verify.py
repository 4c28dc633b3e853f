from __future__ import annotations

import math
import warnings

import numpy as np
import pytest

from slicewalk import verify
from slicewalk.graphs import (BipartiteRegularGraph, gen_bipartite_regular,
                              gen_regular)
from slicewalk.verify import (_psd_chain, _walk_factorization, one_sided_bound,
                              one_sided_hypotheses_met,
                              verify_one_sided_identities, verify_top_link_one_sided,
                              verify_top_link_regular, verify_top_link_two_sided)
from slicewalk.slices import (NeighborGraph, OneSidedSlice, RegularSlice, SliceError, TwoSidedSlice,
                              _neighbor_graphs, _one_sided_walk, neighbor_graph,
                              one_sided_link_walk_closed_form,
                              regular_link_walk_closed_form, two_sided_link_walk_closed_form)
from slicewalk.walks import spectral_gap


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


    def test_walks_are_built_only_where_the_bound_applies(self, monkeypatch):
        walked = []

        def spy(slc, nbr):
            walked.append(len(nbr.counts))
            return _one_sided_walk(slc, nbr)

        monkeypatch.setattr(verify, "_one_sided_walk", spy)
        g = gen_bipartite_regular(8, 3, seed=0)
        r = verify_top_link_one_sided(g, 3, 0.25)
        statuses = [rec.status for rec in r.records]
        assert 0 < statuses.count("hypothesis_not_met") < len(statuses)
        assert sum(walked) == len(statuses) - statuses.count("hypothesis_not_met")

    def test_huge_fugacity_saturates_the_bound(self):
        g = gen_bipartite_regular(12, 3, seed=1)
        assert verify._numerator(1e200, 2.0) == math.inf
        assert one_sided_bound(g, 2.0, 1e200, 1, 2.5) is None
        assert one_sided_bound(g, 2.0, 1e200, 1, 0.0) is None
        with pytest.raises(SliceError, match=r"fugacity 1e\+200"):
            verify_top_link_one_sided(g, 3, 1e200)

    def test_underflowing_stationary_weights_stop_both_sweeps(self):
        # an underflow is the fugacity's fault, not an empty link: neither
        # sweep records it, and no nan reaches a record or an eigensolver
        g = gen_bipartite_regular(6, 1, seed=1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for sweep in (verify_top_link_one_sided, verify_one_sided_identities):
                with pytest.raises(SliceError, match=r"fugacity 1e\+200 .* underflow float64"):
                    sweep(g, 3, 1e200)


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


def _factorization(g, k, fugacity, tau):
    slc = OneSidedSlice(g, k, fugacity)
    nbr = _neighbor_graphs(slc, [sorted(tau)])
    ok, dev = _walk_factorization(_one_sided_walk(slc, nbr),
                                  nbr.weight_exponential(slc.powers))
    return bool(ok[0]), float(dev[0])


def _psd(g, k, fugacity, tau):
    """(hypotheses met, H <= G2, E <= J + lam H + ..., E <= J + lam G2 + ...)
    for one face."""
    slc = OneSidedSlice(g, k, fugacity)
    nbr = _neighbor_graphs(slc, [sorted(tau)])
    return tuple(bool(x[0]) for x in _psd_chain(slc, nbr, nbr.weight_exponential(slc.powers)))


class TestWalkFactorization:
    def test_edgeless_zero_deviation(self, edgeless_bipartite_5):
        ok, dev = _factorization(edgeless_bipartite_5, 2, 0.5, ())
        assert ok and dev == pytest.approx(0.0, abs=1e-15)

    def test_c6(self, bipartite_c6):
        ok, dev = _factorization(bipartite_c6, 2, 0.5, ())
        assert ok and dev <= 1e-10

    @pytest.mark.parametrize("seed", range(8))
    def test_random_sweep(self, seed):
        g = gen_bipartite_regular(10, 3, seed=seed)
        for tau in ((0,), (4,), (9,)):
            ok, dev = _factorization(g, 3, 0.35, tau)
            assert ok, dev


class TestPsdChain:
    def test_edgeless_trivial(self, edgeless_bipartite_5):
        assert _psd(edgeless_bipartite_5, 2, 0.5, ()) == (True, True, True, True)

    def test_c6(self, bipartite_c6):
        assert _psd(bipartite_c6, 2, 0.5, ()) == (True, True, True, True)

    def test_hypothesis_violation_gates_affine_checks(self):
        # two x vertices sharing three common neighbors break the hypotheses
        adj_x = ((0, 1, 2), (0, 1, 2), (0, 1, 2))
        g = BipartiteRegularGraph(3, 3, adj_x, adj_x)
        slc = OneSidedSlice(g, 2, 0.5)
        assert not one_sided_hypotheses_met(neighbor_graph(slc, ()))
        met, neighbor_ok, affine_ok, squared_ok = _psd(g, 2, 0.5, ())
        assert not met
        # the gated checks are not run; the unconditional one is
        assert not affine_ok and not squared_ok
        assert neighbor_ok

    def test_identity_sweep_samples_above_the_cap(self):
        g = gen_bipartite_regular(10, 3, seed=1)
        # 10 faces: above both the cap and the sample count, so they are sampled
        r = verify_one_sided_identities(g, 3, 0.3, face_cap=5, sample_count=8)
        swept = verify_top_link_one_sided(g, 3, 0.3, face_cap=5, sample_count=8)
        assert r.checked > 0 and r.all_pass()
        assert {rec.face for rec in r.records} == {rec.face for rec in swept.records}

    def test_kinds_within_the_sample_count_are_enumerated_without_a_chain(self, monkeypatch):
        def no_chain(*args, **kwargs):
            raise AssertionError("run_chain called")

        monkeypatch.setattr(verify, "run_chain", no_chain)
        g = gen_bipartite_regular(10, 3, seed=1)
        # 10 faces exceed the cap but not the default sample count
        for sweep in (verify_top_link_one_sided, verify_one_sided_identities):
            r = sweep(g, 3, 0.3, face_cap=5)
            assert list(dict.fromkeys(rec.face for rec in r.records)) == [(v,) for v in range(10)]

    def test_identity_sweep_shares_one_weight_matrix_per_chunk(self, monkeypatch):
        def no_eigvalsh(*args, **kwargs):
            raise AssertionError("eigvalsh called")

        built = []
        exponential = NeighborGraph.weight_exponential

        def spy(nbr, powers):
            built.append(len(nbr.counts))
            return exponential(nbr, powers)

        monkeypatch.setattr(NeighborGraph, "weight_exponential", spy)
        monkeypatch.setattr(np.linalg, "eigvalsh", no_eigvalsh)
        # the golden one-sided graph's 12 faces in chunks of 5, 5 and 2
        monkeypatch.setattr(verify, "STACK_ELEMENTS", 5 * 24 ** 2)
        r = verify_one_sided_identities(gen_bipartite_regular(12, 3, seed=2), 3, 0.25)
        assert r.all_pass() and r.checked > 0
        assert built == [5, 5, 2]

    @pytest.mark.parametrize("seed", range(10))
    def test_identity_sweep_random_instances(self, seed):
        g = gen_bipartite_regular(10, 3, seed=100 + seed)
        r = verify_one_sided_identities(g, 3, 0.3)
        assert r.all_pass(), r.summary()

    def test_identity_sweep_calls_an_underflowing_factorization_vacuous(self):
        # at lambda = 1e100 every link's stationary law underflows to 0 at
        # some vertex, where both sides of the factorization are 0
        g = gen_bipartite_regular(12, 3, seed=1)
        with pytest.raises(ValueError, match="positive probability"):
            one_sided_link_walk_closed_form(OneSidedSlice(g, 3, 1e100), (0,)).validate()
        r = verify_one_sided_identities(g, 3, 1e100)
        faces = [(v,) for v in range(12)]
        by_detail = {}
        for rec in r.records:
            by_detail.setdefault(rec.detail, []).append((rec.face, rec.status))
        assert by_detail["factorization: stationary law underflows to 0"] == [
            (face, "vacuous") for face in faces]
        assert "factorization" not in by_detail
        # the dominations do not read pi and are still checked
        assert by_detail["neighbor domination"] == [(face, "pass") for face in faces]
        assert r.all_pass()


class TestClosedFormsAgainstTheDenseSpectrum:
    """Sweep records against ``spectral_gap`` on each face's dense operator.

    Two-sided cross links are solved by singular values of their half-size
    block and same-side links by -1/(m-1), so they agree to 1e-12; regular
    and one-sided links go through the same symmetrized ``eigvalsh``,
    stacked, and agree bit for bit.
    """

    @pytest.fixture(scope="class")
    def bipartite(self):
        # criterion 3's bipartite corpus
        return [gen_bipartite_regular(n, 3, seed=7 * n + s)
                for n in (10, 12, 14, 16) for s in range(4)]

    @staticmethod
    def _two_sided_links(g, k_x, k_y):
        """(records, dense operators) of every two-sided link with a walk."""
        slc = TwoSidedSlice(g, k_x, k_y)
        out = []
        for rec in verify_top_link_two_sided(g, k_x, k_y).records:
            try:
                op = two_sided_link_walk_closed_form(slc, *rec.face)
            except SliceError as e:
                assert rec.status == "empty" and rec.detail == str(e)
                continue
            assert abs(rec.lambda2 - spectral_gap(op.matrix, op.pi)[0]) <= 1e-12
            out.append((rec, op))
        return out

    def test_two_sided_on_the_corpus(self, bipartite):
        links = [x for g in bipartite for x in self._two_sided_links(g, 2, 2)]
        assert sum(1 for rec, _ in links if rec.detail.startswith("same-side")) > 1000
        assert sum(1 for rec, _ in links if not rec.detail.startswith("same-side")) > 1000

    def test_two_sided_edge_cases(self):
        g = gen_bipartite_regular(8, 3, seed=0)
        links = self._two_sided_links(g, 2, 3)
        cross = [(rec, op) for rec, op in links if not rec.detail.startswith("same-side")]
        sides = [sum(1 for side, _ in op.ground if side == "x") for _, op in cross]
        lone = [(rec, op) for (rec, op), xs in zip(cross, sides) if 1 in (xs, len(op.ground) - xs)]
        # a side with one vertex: 0, or -1 with one vertex on each side
        assert {rec.lambda2 for rec, op in lone if len(op.ground) > 2} == {0.0}
        assert {rec.lambda2 for rec, op in lone if len(op.ground) == 2} == {-1.0}
        # some cross link drops a survivor that is isolated in its skeleton
        def survivors(fx, fy):
            return (2 * g.n_side - len(set(fx) | g.neighbor_set("y", fy))
                    - len(set(fy) | g.neighbor_set("x", fx)))
        assert any(len(op.ground) < survivors(*rec.face) for rec, op in cross)
        empty_same = [rec for rec in verify_top_link_two_sided(g, 2, 3).records
                      if rec.status == "empty" and (len(rec.face[0]), len(rec.face[1])) != (1, 2)]
        assert empty_same and all(rec.lambda2 is None for rec in empty_same)

    def test_regular_bit_equal(self):
        compared = 0
        for g in [gen_regular(n, 3, seed=3 * n + s) for n in (12, 14, 16) for s in (0, 1)]:
            slc = RegularSlice(g, 3)
            for rec in verify_top_link_regular(g, 3).records:
                op = regular_link_walk_closed_form(slc, rec.face)
                assert rec.lambda2 == spectral_gap(op.matrix, op.pi)[0]
                compared += 1
        assert compared > 50

    def test_one_sided_bit_equal(self, bipartite):
        compared = 0
        for g in bipartite:
            slc = OneSidedSlice(g, 3, 0.25)
            for rec in verify_top_link_one_sided(g, 3, 0.25).records:
                if rec.lambda2 is not None:
                    op = one_sided_link_walk_closed_form(slc, rec.face)
                    assert rec.lambda2 == spectral_gap(op.matrix, op.pi)[0]
                    compared += 1
        assert compared > 50
