from __future__ import annotations

import ast
import math
import warnings
from pathlib import Path
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slicewalk import slices
from slicewalk.graphs import RegularGraph, gen_bipartite_regular, gen_regular
from slicewalk.rng import rng_stream
from slicewalk.slices import (EnumerationCapError, OneSidedSlice, RegularSlice,
                              SliceError, TwoSidedSlice, enumerate_facets,
                              exact_distribution, greedy_facet, link, local_walk_exact,
                              neighbor_graph, one_sided_link_walk_closed_form,
                              regular_link_walk_closed_form,
                              two_sided_link_walk_closed_form)


def brute_one_sided_weight(g, s, lam):
    """Independent oracle: enumerate every Y-subset, keep actual independent sets."""
    s = set(s)
    n = g.n_side
    total = 0.0
    for mask in range(1 << n):
        t = [j for j in range(n) if (mask >> j) & 1]
        if any(i in s for j in t for i in g.adj_y[j]):
            continue
        total += lam ** (len(s) + len(t))
    return total


@pytest.mark.parametrize("make", [
    lambda: TwoSidedSlice(gen_bipartite_regular(12, 3, seed=1), 1, 1,
                          pinned_y=frozenset({99})),
    lambda: OneSidedSlice(gen_bipartite_regular(12, 3, seed=1), 3, 0.5,
                          pinned=frozenset({-1})),
    lambda: RegularSlice(gen_regular(12, 3, seed=1), 3, pinned=frozenset({-1})),
], ids=["two_sided", "one_sided", "regular"])
def test_pinned_ids_out_of_range_rejected(make):
    with pytest.raises(SliceError, match="range"):
        make()


class TestOneSidedWeight:
    def test_empty_set(self, bipartite_c6):
        slc = OneSidedSlice(bipartite_c6, 0, 0.7)
        assert math.exp(slc.log_weight(())) == pytest.approx(1.7 ** 3, rel=1e-12)

    def test_single_edge(self):
        g = gen_bipartite_regular(1, 1, seed=0)
        slc = OneSidedSlice(g, 1, 1.0)
        assert math.exp(slc.log_weight((0,))) == pytest.approx(1.0, rel=1e-12)

    def test_c6_example(self, bipartite_c6):
        slc = OneSidedSlice(bipartite_c6, 1, 0.5)
        assert math.exp(slc.log_weight((0,))) == pytest.approx(0.75, rel=1e-12)

    def test_wrong_size_rejected(self, bipartite_c6):
        slc = OneSidedSlice(bipartite_c6, 2, 0.5)
        with pytest.raises(SliceError):
            slc.log_weight((0,))

    @pytest.mark.parametrize("seed,lam", [(0, 0.5), (1, 0.25), (2, 1.5)])
    def test_matches_brute_force(self, seed, lam):
        g = gen_bipartite_regular(8, 3, seed=seed)
        for k in (1, 2, 3):
            slc = OneSidedSlice(g, k, lam)
            for s in combinations(range(8), k):
                expected = brute_one_sided_weight(g, s, lam)
                assert math.exp(slc.log_weight(s)) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("seed,lam", [(0, 0.5), (1, 0.25), (2, 1e-3), (3, 4.0)])
    def test_log_weights_are_the_per_facet_formula_bit_for_bit(self, seed, lam):
        g = gen_bipartite_regular(9, 3, seed=seed)
        for k in (0, 1, 3, 9):
            slc = OneSidedSlice(g, k, lam)
            facets = list(combinations(range(9), k))
            want = [k * math.log(lam)
                    + (9 - len(g.neighbor_set("x", frozenset(s)))) * math.log1p(lam)
                    for s in facets]
            assert slc.log_weights(facets).tolist() == want

    @pytest.mark.parametrize("lam", [float("nan"), float("inf"), float("-inf"), 0.0, -1.0])
    def test_fugacity_must_be_positive_and_finite(self, bipartite_c6, lam):
        with pytest.raises(SliceError, match="fugacity must be a positive finite number"):
            OneSidedSlice(bipartite_c6, 2, lam)

    def test_log_space_no_overflow(self):
        g = gen_bipartite_regular(60, 3, seed=4)
        slc = OneSidedSlice(g, 5, 0.5)
        lw = slc.log_weight(tuple(range(5)))
        assert math.isfinite(lw)


class TestEnumeration:
    def test_two_sided_c6(self, bipartite_c6):
        slc = TwoSidedSlice(bipartite_c6, 1, 1)
        assert enumerate_facets(slc) == [((0,), (2,)), ((1,), (0,)), ((2,), (1,))]

    def test_regular_k0(self, six_cycle):
        assert enumerate_facets(RegularSlice(six_cycle, 0)) == [()]

    def test_one_sided_full_side(self, bipartite_c6):
        slc = OneSidedSlice(bipartite_c6, 3, 0.5)
        assert enumerate_facets(slc) == [(0, 1, 2)]

    def test_cap_enforced(self, monkeypatch):
        g = gen_bipartite_regular(16, 3, seed=0)
        monkeypatch.setattr(slices, "ENUMERATION_CAP", 100)  # read at call time
        with pytest.raises(EnumerationCapError):
            enumerate_facets(OneSidedSlice(g, 8, 0.5))

    def test_pinned_enumeration_consistent(self, bipartite_c6):
        slc = TwoSidedSlice(bipartite_c6, 1, 1, pinned_x=frozenset({0}))
        assert enumerate_facets(slc) == [((0,), (2,))]

    @pytest.mark.parametrize("seed", range(3))
    def test_pinned_enumeration_matches_brute_force(self, seed):
        """Facets of pinned uniform slices are the sorted independent supersets."""
        g = gen_bipartite_regular(7, 3, seed=seed)
        for k_x, k_y in ((2, 2), (3, 1)):
            for px, py in (((), ()), ((0,), ()), ((1,), (5,)), ((0, 2), ())):
                try:
                    slc = TwoSidedSlice(g, k_x, k_y, frozenset(px), frozenset(py))
                except SliceError:
                    continue
                brute = [(xs, ys) for xs in combinations(range(7), k_x)
                         for ys in combinations(range(7), k_y)
                         if set(px) <= set(xs) and set(py) <= set(ys)
                         and not g.neighbor_set("x", xs) & set(ys)]
                assert enumerate_facets(slc) == brute
        r = gen_regular(10, 3, seed=seed)
        for k, pins in ((3, ()), (3, (0,)), (4, (1, 6))):
            try:
                slc = RegularSlice(r, k, frozenset(pins))
            except SliceError:
                continue
            brute = [t for t in combinations(range(10), k) if set(pins) <= set(t)
                     and all(b not in r.adj[a] for a, b in combinations(t, 2))]
            assert enumerate_facets(slc) == brute


    @pytest.mark.parametrize("seed", range(3))
    def test_one_sided_facets_are_every_superset_of_the_pins(self, seed):
        # X has no internal edges: the generic independent-set enumeration
        # of the one X part is every k-subset holding the pins, in order
        g = gen_bipartite_regular(8, 3, seed=seed)
        for k, pins in ((0, ()), (3, ()), (3, (2,)), (4, (0, 7)), (2, (1, 5))):
            slc = OneSidedSlice(g, k, 0.3, frozenset(pins))
            brute = [t for t in combinations(range(8), k) if set(pins) <= set(t)]
            assert enumerate_facets(slc) == brute

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(family=st.sampled_from(["two", "one", "reg"]), n=st.integers(2, 8),
           degree=st.integers(1, 3), seed=st.integers(0, 2 ** 16),
           sizes=st.tuples(st.integers(0, 4), st.integers(0, 4)),
           pin_mask=st.integers(0, 2 ** 8 - 1))
    def test_facet_bound_holds_and_is_exact_when_it_says_so(self, family, n, degree, seed,
                                                            sizes, pin_mask):
        # _law_within enumerates nothing when an exact bound exceeds its cap,
        # so the bound must hold, and be the count when it says it is, on
        # small random slices of every family pinned at part of a greedy facet
        degree = min(degree, n - (family == "reg"))
        if family == "reg":
            n += (n * degree) % 2
            slc = RegularSlice(gen_regular(n, degree, seed=seed), min(sizes[0], n))
        else:
            g = gen_bipartite_regular(n, degree, seed=seed)
            slc = (TwoSidedSlice(g, min(sizes[0], n), min(sizes[1], n)) if family == "two"
                   else OneSidedSlice(g, min(sizes[0], n), 0.5))
        facet = greedy_facet(slc, rng_stream(seed), restarts=16)
        if facet is not None:
            ids = slc.to_ids(facet)
            slc = slc.pin(v for i, v in enumerate(ids) if pin_mask >> i & 1)
        count = len(enumerate_facets(slc))
        bound, exact = slices._facet_bound(slc)
        assert bound == count if exact else bound >= count
        assert exact or family != "one"


class TestExactDistribution:
    def test_uniform_two_sided(self, bipartite_c6):
        facets, probs = exact_distribution(TwoSidedSlice(bipartite_c6, 1, 1))
        assert len(facets) == 3
        assert np.allclose(probs, 1 / 3)

    def test_one_sided_symmetric(self, bipartite_c6):
        facets, probs = exact_distribution(OneSidedSlice(bipartite_c6, 1, 0.5))
        assert np.allclose(probs, 1 / 3)

    def test_point_mass(self, bipartite_c6):
        _, probs = exact_distribution(OneSidedSlice(bipartite_c6, 3, 0.5))
        assert probs.tolist() == [1.0]

    def test_empty_slice_raises(self, complete_bipartite_33):
        with pytest.raises(SliceError):
            exact_distribution(TwoSidedSlice(complete_bipartite_33, 1, 1))

    @pytest.mark.parametrize("seed", range(3))
    def test_one_sided_probs_proportional_to_weights(self, seed):
        g = gen_bipartite_regular(7, 2, seed=seed)
        slc = OneSidedSlice(g, 3, 0.4)
        facets, probs = exact_distribution(slc)
        weights = np.array([brute_one_sided_weight(g, f, 0.4) for f in facets])
        assert np.allclose(probs, weights / weights.sum(), rtol=1e-12)


class TestLink:
    def test_empty_face_is_identity(self, bipartite_c6):
        slc = TwoSidedSlice(bipartite_c6, 1, 1)
        out = link(slc, ((), ()))
        assert out.pinned_x == frozenset() and out.pinned_y == frozenset()

    def test_two_sided_link_facets(self, bipartite_c6):
        slc = TwoSidedSlice(bipartite_c6, 1, 1)
        out = link(slc, ((0,), ()))
        assert enumerate_facets(out) == [((0,), (2,))]

    def test_unextendable_face_raises(self, complete_bipartite_33):
        slc = TwoSidedSlice(complete_bipartite_33, 1, 0)
        with pytest.raises(SliceError):
            link(slc, ((), ())) and link(
                TwoSidedSlice(complete_bipartite_33, 1, 1), ((0,), ()))

    def test_greedy_failure_decided_by_enumeration(self, monkeypatch):
        # this slice has exactly one facet, which 64 greedy restarts miss
        slc = TwoSidedSlice(gen_bipartite_regular(10, 3, seed=4), 4, 4)
        assert len(enumerate_facets(slc)) == 1
        out = link(slc, ((), ()))
        assert enumerate_facets(out) == enumerate_facets(slc)
        monkeypatch.setattr(slices, "ENUMERATION_CAP", 0)
        with pytest.raises(EnumerationCapError, match="undecided"):
            link(slc, ((), ()))

    def test_weights_compose(self):
        # conditional of the parent law on facets containing u equals the law
        # of the link at u
        g = gen_bipartite_regular(7, 2, seed=3)
        slc = OneSidedSlice(g, 3, 0.6)
        facets, probs = exact_distribution(slc)
        sub = link(slc, (2,))
        sub_facets, sub_probs = exact_distribution(sub)
        mask = [2 in f for f in facets]
        parent = {f: p for f, p, m in zip(facets, probs, mask) if m}
        norm = sum(parent.values())
        for f, p in zip(sub_facets, sub_probs):
            assert p == pytest.approx(parent[f] / norm, rel=1e-12)


class TestLocalWalkExact:
    def test_c6_permutation_link(self, bipartite_c6):
        op = local_walk_exact(TwoSidedSlice(bipartite_c6, 1, 1))
        op.validate()
        assert np.allclose(op.matrix @ op.matrix, np.eye(6))  # permutation pairing

    def test_complete_complex_link(self, edgeless_bipartite_5):
        slc = OneSidedSlice(edgeless_bipartite_5, 2, 0.5)
        op = local_walk_exact(slc)
        op.validate()
        m = len(op.ground)
        expected = (np.ones((m, m)) - np.eye(m)) / (m - 1)
        assert np.allclose(op.matrix, expected, atol=1e-12)

    def test_rows_sum_to_one(self, six_cycle):
        op = local_walk_exact(RegularSlice(six_cycle, 2))
        assert np.allclose(op.matrix.sum(axis=1), 1.0, atol=1e-12)

    def test_codim_enforced(self, bipartite_c6):
        with pytest.raises(SliceError):
            local_walk_exact(TwoSidedSlice(bipartite_c6, 2, 1))


class TestClosedForms:
    def test_two_sided_matches_exact_on_c6(self, bipartite_c6):
        slc = TwoSidedSlice(bipartite_c6, 1, 1)
        exact = local_walk_exact(slc)
        closed = two_sided_link_walk_closed_form(slc, (), ())
        assert exact.ground == closed.ground
        assert np.max(np.abs(exact.matrix - closed.matrix)) <= 1e-12
        assert np.max(np.abs(exact.pi - closed.pi)) <= 1e-12

    def test_two_sided_empty_link_raises(self, complete_bipartite_33):
        slc = TwoSidedSlice(complete_bipartite_33, 1, 1)
        with pytest.raises(SliceError):
            two_sided_link_walk_closed_form(slc, (), ())

    def test_one_sided_matches_exact_on_c6(self, bipartite_c6):
        slc = OneSidedSlice(bipartite_c6, 2, 0.5)
        exact = local_walk_exact(slc)
        closed = one_sided_link_walk_closed_form(slc, ())
        closed.validate()
        assert np.max(np.abs(exact.matrix - closed.matrix)) <= 1e-12
        assert np.max(np.abs(exact.pi - closed.pi)) <= 1e-12
        assert closed.z_total is not None and closed.z_vertex is not None

    def test_one_sided_uniform_on_edgeless(self, edgeless_bipartite_5):
        closed = one_sided_link_walk_closed_form(
            OneSidedSlice(edgeless_bipartite_5, 2, 0.3), ())
        m = len(closed.ground)
        assert np.allclose(closed.matrix, (np.ones((m, m)) - np.eye(m)) / (m - 1))

    def test_one_sided_k_too_small(self, bipartite_c6):
        with pytest.raises(SliceError):
            one_sided_link_walk_closed_form(OneSidedSlice(bipartite_c6, 1, 0.5), ())

    def test_regular_matches_exact_on_cycle(self, six_cycle):
        slc = RegularSlice(six_cycle, 2)
        exact = local_walk_exact(slc)
        closed = regular_link_walk_closed_form(slc, ())
        assert exact.ground == closed.ground
        assert np.max(np.abs(exact.matrix - closed.matrix)) <= 1e-12

    def test_regular_empty_slice_on_complete_graph(self):
        k4 = RegularGraph(4, 3, tuple(tuple(sorted(set(range(4)) - {v})) for v in range(4)))
        with pytest.raises(SliceError):
            regular_link_walk_closed_form(RegularSlice(k4, 2), ())

    @pytest.mark.parametrize("seed", range(8))
    def test_oracle_equivalence_random_corpus(self, seed):
        """Closed forms agree with the enumeration oracle entrywise to 1e-12.

        Two-sided links are checked at cross faces and at same-side faces
        of either side; regular links at faces of one and of two vertices.
        """
        def agree(build, slc, face) -> int:
            """1 when the link was compared, 0 when it is empty."""
            try:
                closed = build(slc, *face)
                exact = local_walk_exact(slc, face)
            except SliceError:
                return 0
            assert exact.ground == closed.ground
            assert np.max(np.abs(exact.matrix - closed.matrix)) <= 1e-12
            assert np.max(np.abs(exact.pi - closed.pi)) <= 1e-12
            return 1

        g = gen_bipartite_regular(7, 2, seed=seed)
        two = TwoSidedSlice(g, 2, 2)
        pairs = list(combinations(range(7), 2))
        for fx in range(7):
            for fy in range(7):
                if fy not in g.adj_x[fx]:
                    agree(two_sided_link_walk_closed_form, two, ((fx,), (fy,)))
        same_side = [((), pair) for pair in pairs] + [(pair, ()) for pair in pairs]
        assert sum(agree(two_sided_link_walk_closed_form, two, face) for face in same_side)
        one = OneSidedSlice(g, 3, 0.35)
        for tau in combinations(range(7), 1):
            closed = one_sided_link_walk_closed_form(one, tau)
            exact = local_walk_exact(one, tau)
            assert np.max(np.abs(exact.matrix - closed.matrix)) <= 1e-12
            assert np.max(np.abs(exact.pi - closed.pi)) <= 1e-12
        r = gen_regular(10, 3, seed=seed)
        for k in (3, 4):
            compared = sum(agree(lambda slc, *face: regular_link_walk_closed_form(slc, face),
                                 RegularSlice(r, k), tau)
                           for tau in combinations(range(10), k - 2))
            assert compared


class TestNeighborGraph:
    def test_c6_entries(self, bipartite_c6):
        nbr = neighbor_graph(OneSidedSlice(bipartite_c6, 2, 0.5), ())
        # x0 and x1 share exactly y1
        assert nbr.counts[0, 1] == 1
        assert np.all(np.diag(nbr.counts) == 0)

    def test_edgeless_zero(self, edgeless_bipartite_5):
        nbr = neighbor_graph(OneSidedSlice(edgeless_bipartite_5, 2, 0.5), ())
        assert np.all(nbr.counts == 0)

    def test_two_vertex_ground(self, bipartite_c6):
        nbr = neighbor_graph(OneSidedSlice(bipartite_c6, 3, 0.5), (2,))
        assert nbr.ground == (0, 1)
        # with x2 pinned, y0 and y2 are covered; x0 and x1 share y1 among survivors
        assert nbr.counts[0, 1] == 1

    def test_entries_bounded_by_degree(self):
        g = gen_bipartite_regular(9, 3, seed=1)
        nbr = neighbor_graph(OneSidedSlice(g, 2, 0.5), ())
        assert nbr.counts.max() <= 3

    @pytest.mark.parametrize("lam", [1e-3, 0.25, 1 / math.sqrt(3), 4.0])
    def test_powers_by_lookup_equal_np_power(self, lam):
        g = gen_bipartite_regular(12, 3, seed=2)
        slc = OneSidedSlice(g, 4, lam)
        assert np.array_equal(slc.powers, np.power(1.0 + lam, np.arange(-3, 4, dtype=float)))
        nbr = slices._neighbor_graphs(slc, list(combinations(range(12), 2)))
        walk = nbr.counts - nbr.survivor_degrees[:, None, :]
        for expo in (walk, nbr.counts, -nbr.survivor_degrees):
            assert set(np.unique(expo).tolist()) <= set(range(-3, 4))
            assert np.array_equal(slices._power_of(slc.powers, expo),
                                  np.power(1.0 + lam, expo.astype(float)))

    def test_powers_that_overflow_name_the_fugacity(self, bipartite_c6):
        slc = OneSidedSlice(bipartite_c6, 2, 1e200)
        with pytest.raises(SliceError, match=r"fugacity 1e\+200 .* overflows float64"):
            one_sided_link_walk_closed_form(slc, ())
        # (1 + 1e100)^2 fits
        assert np.isfinite(OneSidedSlice(bipartite_c6, 2, 1e100).powers).all()

    def test_stationary_weights_that_underflow_name_the_fugacity(self):
        # at degree 1 the powers fit, but with tau = (0,) each of the five
        # link vertices has one survivor neighbour and none in common, so its
        # stationary weight c^-1 Z_u is 4 c^-2, which underflows: pi was 0/0
        slc = OneSidedSlice(gen_bipartite_regular(6, 1, seed=1), 3, 1e200)
        assert np.isfinite(slc.powers).all()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SliceError, match=r"fugacity 1e\+200 .* underflow float64"):
                one_sided_link_walk_closed_form(slc, (0,))

    def test_weight_exponential(self, bipartite_c6):
        slc = OneSidedSlice(bipartite_c6, 2, 0.5)
        e = neighbor_graph(slc, ()).weight_exponential(slc.powers)
        assert e[0, 1] == pytest.approx(1.5)
        assert np.all(np.diag(e) == 0.0)


class TestLinkOperatorInvariants:
    @pytest.mark.parametrize("seed", range(5))
    def test_pi_is_stationary(self, seed):
        g = gen_bipartite_regular(9, 3, seed=seed)
        ops = [one_sided_link_walk_closed_form(OneSidedSlice(g, 3, 0.4), (seed % 9,))]
        two = TwoSidedSlice(g, 2, 2)
        for fy in range(9):
            if fy not in g.adj_x[0]:
                try:
                    ops.append(two_sided_link_walk_closed_form(two, (0,), (fy,)))
                except SliceError:
                    continue
                break
        for op in ops:
            op.validate()
            assert np.abs(op.pi @ op.matrix - op.pi).sum() <= 1e-10


def test_no_isinstance_on_a_slice_type():
    """Each family declares what differs on its class; no module asks which
    family a slice is."""
    families = {"TwoSidedSlice", "OneSidedSlice", "RegularSlice"}
    found = []
    for path in sorted(Path(slices.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not (isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance"
                    and len(node.args) == 2):
                continue
            kinds = node.args[1]
            for kind in kinds.elts if isinstance(kinds, ast.Tuple) else [kinds]:
                name = kind.id if isinstance(kind, ast.Name) else getattr(kind, "attr", None)
                if name in families:
                    found.append(f"{path.name}:{node.lineno}")
    assert found == []


# Public names that only the tests use, each a reference or a check the tests
# apply to the program's results.
TEST_ONLY_NAMES = {
    # exact Z by branch-and-bound, the oracle for the occupancy profile and
    # the banded sum
    "exact_partition",
    # link walks by facet enumeration, the oracle for the closed forms
    "local_walk_exact",
    # complement spectra against their graph-side caps (criterion 3)
    "complement_interlacing_check",
}


def test_every_public_name_has_a_consumer():
    """Every public top-level function, class and alias in the package is used
    by other package code or by the benchmark, unless it is a reference the
    tests compare against (``TEST_ONLY_NAMES``).  Imports do not count as
    uses, so neither does the ``__init__`` re-export."""
    root = Path(__file__).resolve().parents[1]
    package = sorted((root / "src" / "slicewalk").glob("*.py"))
    defined = {}
    uses: dict[str, list[tuple[Path, int]]] = {}
    for path in package + sorted((root / "perfbench").glob("*.py")):
        tree = ast.parse(path.read_text())
        if path in package:
            for node in tree.body:
                if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                    names = [node.name]
                elif (isinstance(node, ast.Assign)
                      and isinstance(node.value, (ast.Name, ast.Attribute))):
                    names = [t.id for t in node.targets if isinstance(t, ast.Name)]
                else:
                    continue
                for name in names:
                    if not name.startswith("_"):
                        defined[name] = (path, node.lineno, node.end_lineno)
        for node in ast.walk(tree):
            if isinstance(node, (ast.Name, ast.Attribute)):
                name = node.id if isinstance(node, ast.Name) else node.attr
                uses.setdefault(name, []).append((path, node.lineno))
    unused = sorted(
        f"{path.name}:{name}" for name, (path, lo, hi) in defined.items()
        if name not in TEST_ONLY_NAMES
        and all(p == path and lo <= line <= hi for p, line in uses.get(name, [])))
    assert not unused, "no consumer outside the tests: " + ", ".join(unused)


# Settable values of the package, tracked in CHANGES.md: a new one has to
# replace an old one.
MAX_DEFAULTED_PARAMETERS = 24
MAX_ADD_ARGUMENT_CALLS = 52
THRESHOLD_FIELDS = 2
MAX_CONFIG_DEFAULTS = 16  # ChainConfig 5, ExperimentConfig 11


def test_settable_values_do_not_grow():
    """Function parameters with a default across the package, ``add_argument``
    calls, ``ThresholdParams`` fields and the defaulted fields of the
    ``*Config`` dataclasses, counted on the AST."""
    defaulted = arguments = config_defaults = 0
    threshold_fields = None
    for path in sorted(Path(slices.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                defaulted += len(node.args.defaults)
                defaulted += sum(d is not None for d in node.args.kw_defaults)
            elif isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "add_argument":
                arguments += 1
            elif isinstance(node, ast.ClassDef) and node.name == "ThresholdParams":
                threshold_fields = sum(isinstance(b, ast.AnnAssign) for b in node.body)
            elif isinstance(node, ast.ClassDef) and node.name.endswith("Config"):
                config_defaults += sum(isinstance(b, ast.AnnAssign) and b.value is not None
                                       for b in node.body)
    assert defaulted <= MAX_DEFAULTED_PARAMETERS
    assert arguments <= MAX_ADD_ARGUMENT_CALLS
    assert threshold_fields == THRESHOLD_FIELDS
    assert config_defaults <= MAX_CONFIG_DEFAULTS
