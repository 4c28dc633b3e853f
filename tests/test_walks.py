from __future__ import annotations

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.sparse.csgraph import connected_components

from slicewalk import slices, walks
from slicewalk.graphs import gen_bipartite_regular, gen_regular
from slicewalk.rng import rng_stream, uniform_blocks
from slicewalk.slices import (OneSidedSlice, RegularSlice, TwoSidedSlice, enumerate_facets,
                              exact_distribution, greedy_facet)
from slicewalk.walks import (ChainConfig, InitialStateError, _make_state, _step, down_up_step,
                             exact_transition_matrix, facet_table, format_facet,
                             greedy_initial_state, run_chain, spectral_gap, tv_distance)


class TestTvDistance:
    def test_identical(self):
        p = np.array([0.25, 0.75])
        assert tv_distance(p, p) == 0.0

    def test_disjoint(self):
        assert tv_distance(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 1.0

    def test_half_half_vs_uniform3(self):
        assert tv_distance(np.array([0.5, 0.5, 0.0]), np.full(3, 1 / 3)) == pytest.approx(1 / 3)

    def test_counts_are_normalized(self):
        assert tv_distance(np.array([5, 5, 0]), np.full(3, 1 / 3)) == pytest.approx(1 / 3)


class TestSpectralGap:
    def test_identity_chain(self):
        lam2, lam_star, gap = spectral_gap(np.eye(3), np.full(3, 1 / 3))
        assert gap == pytest.approx(0.0, abs=1e-12)
        assert lam2 == pytest.approx(1.0)

    def test_complete_graph_walk(self):
        m = 5
        p = (np.ones((m, m)) - np.eye(m)) / (m - 1)
        lam2, lam_star, gap = spectral_gap(p, np.full(m, 1 / m))
        assert lam2 == pytest.approx(-1 / (m - 1), abs=1e-12)
        assert lam_star == pytest.approx(1 / (m - 1), abs=1e-12)

    def test_underflowed_stationary_entries(self):
        # a birth-death chain whose pi falls by about 1e-150 a state: the
        # last entry underflows to 0, where sqrt(P_ij P_ji) replaces the
        # conjugation by diag(pi)^(1/2).  The symmetrized off-diagonal
        # entries are at most sqrt(r / 2) ~ 7e-76, so the eigenvalues are the
        # diagonal (1 - r, 0.5 - r, 0.5 - r, 0.9) up to 1e-150, and lambda2
        # is the diagonal entry of the state whose pi underflowed
        r = 1e-150
        p = np.diag([r, r, r], 1) + np.diag([0.5, 0.5, 0.1], -1)
        p += np.diag(1.0 - p.sum(1))
        pi = np.array([1.0, 2 * r, 4 * r * r, 40 * r ** 3])
        assert pi[-1] == 0.0 and pi[-2] > 0.0
        with np.errstate(divide="raise", invalid="raise"):
            lam2, _, gap = spectral_gap(p, pi / pi.sum())
        assert lam2 == pytest.approx(0.9, abs=1e-12) and gap == pytest.approx(0.1, abs=1e-12)
        # with every entry positive the conjugation is unchanged, bit for bit
        q = np.array([[0.5, 0.5, 0.0], [0.25, 0.5, 0.25], [0.0, 0.5, 0.5]])
        rho = np.array([0.25, 0.5, 0.25])
        root = np.sqrt(rho)
        want = np.linalg.eigvalsh(rho[:, None] * q / (root[:, None] * root[None, :]))[-2]
        assert spectral_gap(q, rho)[0] == want

    def test_non_reversible_rejected(self):
        p = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]])
        with pytest.raises(ValueError):
            spectral_gap(p, np.full(3, 1 / 3))


class TestGreedyInitialState:
    def test_zero_sizes(self, bipartite_c6):
        state = greedy_initial_state(TwoSidedSlice(bipartite_c6, 0, 0), rng_stream(0))
        assert state.facet() == ((), ())

    def test_one_sided_always_succeeds(self, bipartite_c6):
        for k in range(4):
            state = greedy_initial_state(OneSidedSlice(bipartite_c6, k, 0.5), rng_stream(k))
            assert len(state.facet()) == k

    def test_budget_exhaustion(self, complete_bipartite_33):
        with pytest.raises(InitialStateError):
            greedy_initial_state(TwoSidedSlice(complete_bipartite_33, 1, 1), rng_stream(0))

    def test_two_sided_random_graphs_succeed(self, monkeypatch):
        monkeypatch.setattr(walks, "INITIAL_RESTARTS", 10)
        ok = 0
        for seed in range(100):
            g = gen_bipartite_regular(20, 3, seed=seed)
            try:
                greedy_initial_state(TwoSidedSlice(g, 3, 3), rng_stream(seed))
                ok += 1
            except InitialStateError:
                pass
        assert ok >= 99


class TestDownUpStep:
    def test_single_facet_fixed_point(self, bipartite_c6):
        slc = OneSidedSlice(bipartite_c6, 3, 0.5)
        state = greedy_initial_state(slc, rng_stream(1))
        rng = rng_stream(2)
        for _ in range(50):
            down_up_step(slc, state, rng)
        assert state.facet() == (0, 1, 2)
        assert state.steps == 50

    @pytest.mark.parametrize("family", ["two", "one", "reg"])
    def test_counters_stay_consistent(self, family):
        if family == "two":
            g = gen_bipartite_regular(8, 3, seed=0)
            slc = TwoSidedSlice(g, 2, 2)
        elif family == "one":
            g = gen_bipartite_regular(8, 3, seed=1)
            slc = OneSidedSlice(g, 3, 0.4)
        else:
            slc = RegularSlice(gen_regular(10, 3, seed=2), 3)
        state = greedy_initial_state(slc, rng_stream(3))
        rng = rng_stream(4)
        for t in range(400):
            down_up_step(slc, state, rng)
            if t % 50 == 0:
                assert state.recount_ok()
        assert state.recount_ok()

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(family=st.sampled_from(["two", "one", "reg"]), n=st.integers(2, 9),
           degree=st.integers(1, 3), seed=st.integers(0, 2 ** 16),
           sizes=st.tuples(st.integers(0, 4), st.integers(0, 4)),
           fugacity=st.sampled_from([0.3, 2.0, 1e300]),
           pin_mask=st.integers(0, 2 ** 8 - 1), steps=st.integers(1, 40))
    def test_pools_match_a_rebuild_along_walks(self, family, n, degree, seed, sizes,
                                               fugacity, pin_mask, steps):
        # small random slices of every family, with pinned faces drawn from
        # the starting facet: after each step the running counters and pools
        # equal a fresh rebuild and each pool is exactly its candidate set
        made = _small_slice(family, n, degree, seed, sizes, fugacity, pin_mask)
        assume(made is not None)
        slc, facet = made
        state = _make_state(slc, facet)
        rng = rng_stream(seed, 1)
        for _ in range(steps):
            down_up_step(slc, state, rng)
            assert state.recount_ok()
            _assert_pools_are_candidate_sets(slc, state)
        assert slc.pinned_ids <= set(slc.to_ids(state.facet()))

    @pytest.mark.parametrize("lazy", [False, True])
    @pytest.mark.parametrize("pins", [0, 0b101, 0xFF])
    @pytest.mark.parametrize("family", ["two", "one", "reg"])
    def test_kernel_intervals_equal_single_steps(self, family, pins, lazy):
        # the multi-step kernel over random intervals against one-step calls
        # on the same stream: equal state after each interval and equal next
        # uniform; pins 0xFF pin the whole facet, whose kernel draws nothing
        slc, facet = _small_slice(family, 9, 3, 21, (4, 3), 0.6, pins)
        assert (slc.free_size == 0) == (pins == 0xFF)
        state, ref = _make_state(slc, facet), _make_state(slc, facet)
        rng, ref_rng = rng_stream(22, 1), rng_stream(22, 1)
        for steps in rng_stream(22, 2).integers(0, 30, size=12).tolist():
            state.kernel(slc, state, rng.random, steps, lazy)
            for _ in range(steps):
                ref.kernel(slc, ref, ref_rng.random, 1, lazy)
            assert state.free == ref.free and state.member == ref.member
            assert (state.cover, state.pools, state.unc) == (ref.cover, ref.pools, ref.unc)
            assert state.recount_ok()
        assert rng.random() == ref_rng.random()

    def test_pinned_vertices_never_removed(self):
        g = gen_bipartite_regular(8, 3, seed=5)
        slc = OneSidedSlice(g, 3, 0.4, pinned=frozenset({2}))
        state = greedy_initial_state(slc, rng_stream(6))
        rng = rng_stream(7)
        for _ in range(200):
            down_up_step(slc, state, rng)
            assert 2 in state.facet()


def _small_slice(family, n, degree, seed, sizes, fugacity, pin_mask):
    """A small random slice of ``family`` pinned at part of a greedy facet,
    with that facet, or None when greedy search finds none."""
    degree = min(degree, n - (family == "reg"))
    if degree < 1:
        return None
    if family == "reg":
        n += (n * degree) % 2
        slc = RegularSlice(gen_regular(n, degree, seed=seed), min(sizes[0], n))
    else:
        g = gen_bipartite_regular(n, degree, seed=seed)
        slc = (TwoSidedSlice(g, min(sizes[0], n), min(sizes[1], n)) if family == "two"
               else OneSidedSlice(g, min(sizes[0], n), fugacity))
    facet = greedy_facet(slc, rng_stream(seed), restarts=16)
    if facet is None:
        return None
    ids = slc.to_ids(facet)
    return slc.with_face(slc.from_ids(v for i, v in enumerate(ids) if pin_mask >> i & 1)), facet


def _replay_histogram(slc, facet, table, rand, count, thinning):
    """Facet histogram and final state of ``_step`` on the uniforms ``rand``
    serves, sampled after every ``thinning`` steps."""
    state = _make_state(slc, facet)
    want = [0] * len(table.free_ids)
    for t in range(1, count * thinning + 1):
        _step(slc, state, rand)
        if t % thinning == 0:
            want[table.start(state.free) // table.width] += 1
    return want, state


def _lockstep(table, starts, rng, steps, unit):
    """Row bases after every step (shape (steps, chains)) and final free ids
    of ``FacetTable.advance`` on one chain per entry of ``starts`` (free ids
    in stepping order), reading ``unit`` uniforms a step from time-major
    ``rng.uniform_blocks`` of ``rng`` as the estimator does."""
    chains = len(starts)
    free = np.array(starts, np.intp).reshape(chains, -1)
    base = np.array([table.start(f) for f in starts], np.intp)
    out = [np.empty((0, chains), np.intp)]
    for u in uniform_blocks(rng, unit * chains * steps, unit * chains):
        out.append(table.advance(free, base, u.reshape(-1, chains, unit)))
        base = out[-1][-1]
    return np.concatenate(out), free


def _check_rows_replay(slc, table, starts, seed, count, thinning):
    """Each lockstep chain r against ``_step`` on column r of the same
    time-major uniforms: the same samples, free order and uniform count."""
    unit = 3 if table.weighted else 2
    steps = count * thinning
    bases, free = _lockstep(table, starts, rng_stream(seed, 1), steps, unit)
    assert bases.shape == (steps, len(starts))
    columns = rng_stream(seed, 1).random((steps, len(starts), unit))
    for r, start in enumerate(starts):
        col = iter(columns[:, r].ravel().tolist())
        facet = slc.from_ids(set(start) | slc.pinned_ids)
        want, state = _replay_histogram(slc, facet, table, col.__next__, count, thinning)
        got = np.bincount(bases[thinning - 1::thinning, r] // table.width,
                          minlength=len(table.free_ids))
        assert got.tolist() == want
        assert free[r].tolist() == state.free
        # the scalar chain drew its whole column, or nothing when nothing is free
        assert len(list(col)) == (0 if slc.free_size else unit * steps)


class TestFacetTable:
    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(family=st.sampled_from(["two", "one", "reg"]), n=st.integers(2, 8),
           degree=st.integers(1, 3), seed=st.integers(0, 2 ** 16),
           sizes=st.tuples(st.integers(0, 4), st.integers(0, 4)),
           fugacity=st.sampled_from([0.3, 2.0, 1e300]),
           pin_mask=st.integers(0, 2 ** 8 - 1), count=st.integers(0, 20),
           thinning=st.integers(1, 5))
    def test_table_replays_the_kernel(self, family, n, degree, seed, sizes, fugacity,
                                      pin_mask, count, thinning):
        made = _small_slice(family, n, degree, seed, sizes, fugacity, pin_mask)
        assume(made is not None)
        slc, facet = made
        table = facet_table(slc)
        assert table is not None
        # three chains in lockstep: one at the greedy facet, two at draws
        # from the law; each row replays the scalar kernel on its column
        drawn = table.draw(rng_stream(seed, 0), 2).tolist()
        starts = [_make_state(slc, facet).free] + [list(table.free_ids[f]) for f in drawn]
        _check_rows_replay(slc, table, starts, seed, count, thinning)
        # every row follows from enumerate_facets alone: the candidates of
        # (facet, v) are the ids c, v among them, that complete the face
        # without v to a facet, ascending; a weighted row groups them by their
        # uncovered neighbours under the face from the smallest count up, with
        # (sums, total) the sequential sums of the class weights
        adj = slc.graph.global_adj
        pinned = slc.pinned_ids
        width = table.width
        per_row = table.class_count
        assert per_row == (slc.graph.degree + 1 if table.weighted else 1)
        facet_ids = {frozenset(slc.to_ids(f)) for f in enumerate_facets(slc)}
        for f, ids in enumerate(table.free_ids):
            for j, v in enumerate(ids):
                face = (set(ids) - {v}) | pinned
                cands = [c for c in range(width)
                         if c not in face and frozenset(face | {c}) in facet_ids]
                assert v in cands
                row = int(table.row_at[f * width + v])
                assert row == f * len(ids) + j  # a facet's rows in its free ids' order
                if table.weighted:
                    covered = {j for u in face for j in adj[u]}
                    unc = {c: sum(1 for j in adj[c] if j not in covered) for c in cands}
                    classes = [[c for c in cands if unc[c] == e]
                               for e in range(min(unc.values()), slc.graph.degree + 1)]
                    acc, total = [], 0.0
                    for members, w in zip(classes, slc.class_weights):
                        total += len(members) * w
                        acc.append(total)
                    pad = per_row - len(classes)
                    assert table.sums[row].tolist() == acc + [np.inf] * pad
                    assert table.total[row] == total
                    classes += [[]] * pad
                else:
                    classes = [cands]
                    assert table.sums[row].tolist() == [table.total[row]] == [len(cands)]
                for c, want in enumerate(classes):
                    at = row * per_row + c
                    lo, hi = table.first[at], table.first[at] + table.size[at]
                    assert table.cands[lo:hi].tolist() == want
                    assert [table.free_ids[b // width] for b in table.succ[lo:hi]] == [
                        tuple(sorted(set(ids) - {v} | {c})) for c in want]
        # communicating classes against the exact chain's support
        facets, p, _ = exact_transition_matrix(slc)
        assert len(facets) == len(table.free_ids)
        bound, exact = slices._facet_bound(slc)
        assert bound == len(facets) if exact else bound >= len(facets)
        assert exact or family != "one"
        if not table.weighted:
            assert table.classes() == connected_components(p > 0)[0]
        else:
            assert table.classes() == 1  # every k-subset has positive weight

    @pytest.mark.parametrize("block", [1, 2, 5, 7, 20, 50])
    def test_histogram_across_block_boundaries(self, monkeypatch, block):
        # blocks of whole steps of every chain, one step when a step of all
        # three takes more than BLOCK
        monkeypatch.setattr("slicewalk.rng.BLOCK", block)
        g = gen_bipartite_regular(8, 3, seed=12)
        for slc in (TwoSidedSlice(g, 2, 1), OneSidedSlice(g, 3, 0.4),
                    RegularSlice(gen_regular(10, 3, seed=2), 3)):
            table = facet_table(slc)
            starts = [_make_state(slc, greedy_facet(slc, rng_stream(4))).free]
            starts += [list(table.free_ids[f]) for f in table.draw(rng_stream(5), 2)]
            _check_rows_replay(slc, table, starts, 9, 13, 3)

    def test_face_with_nothing_free(self):
        # the pinned face is the only facet: every chain stays, drawing nothing
        g = gen_bipartite_regular(8, 3, seed=12)
        for slc in (TwoSidedSlice(g, 2, 1), OneSidedSlice(g, 3, 0.4)):
            facet = greedy_facet(slc, rng_stream(4))
            slc = slc.with_face(facet)
            table = facet_table(slc)
            assert slc.free_size == 0 and len(table.free_ids) == 1
            _check_rows_replay(slc, table, [[], []], 3, 5, 1)

    def test_slices_above_the_cap_get_no_table(self):
        # decided by the binomial bound before any enumeration
        g = gen_bipartite_regular(100, 3, seed=1)
        assert facet_table(TwoSidedSlice(g, 2, 2)) is None
        assert facet_table(OneSidedSlice(g, 3, 0.4)) is None
        assert facet_table(RegularSlice(gen_regular(100, 3, seed=1), 3)) is None

    def test_reducible_slice_has_several_classes(self):
        # criterion 4's graph seed 500 at (2, 2) holds a frozen facet
        table = facet_table(TwoSidedSlice(gen_bipartite_regular(8, 3, seed=500), 2, 2))
        assert table.classes() > 1


class TestStationaryStart:
    """``FacetTable.draw``: chain starts drawn from the law the table carries."""

    @pytest.mark.parametrize("weighted", [False, True])
    def test_start_draws_follow_the_exact_law(self, weighted):
        # 20,000 draws: every facet's frequency lies within 4.5 binomial
        # standard deviations of its exact probability; a correct sampler
        # breaks this on one of the 82 (or 56) facets with chance below 1e-3
        g = gen_bipartite_regular(8, 3, seed=1)
        slc = OneSidedSlice(g, 3, 0.4) if weighted else TwoSidedSlice(g, 2, 2)
        facets, probs = exact_distribution(slc)
        table = facet_table(slc)
        assert table.probs.tolist() == probs.tolist()  # in the enumeration's order
        draws = 20_000
        drawn = table.draw(rng_stream(3), draws)
        # one draw at a time reads the same uniforms and picks the same facets
        rng = rng_stream(3)
        assert [int(table.draw(rng, 1)[0]) for _ in range(50)] == drawn[:50].tolist()
        counts = np.bincount(drawn, minlength=len(facets))
        # a draw's free ids are a facet in a chain state's stepping order
        for f in drawn[:20].tolist():
            free = list(table.free_ids[f])
            assert table.start(free) == f * table.width
            state = _make_state(slc, slc.from_ids(set(free) | slc.pinned_ids))
            assert state.free == free and state.recount_ok()
        assert len(facets) == (56 if weighted else 82)
        assert np.all(np.abs(counts / draws - probs) <= 4.5 * np.sqrt(probs * (1 - probs) / draws))

    @pytest.mark.parametrize("weighted", [False, True])
    def test_table_chain_from_a_start_needs_no_burn_in(self, weighted):
        # 400 chains in lockstep, 10 samples each, thinned as the estimator
        # thins, started from the law with no burn-in: the pooled TV stays
        # within 1.5 x 0.5 sum sqrt(p (1 - p) / N), the bound on the expected
        # TV of N independent draws
        g = gen_bipartite_regular(8, 3, seed=1)
        slc = OneSidedSlice(g, 3, 0.4) if weighted else TwoSidedSlice(g, 2, 2)
        _, probs = exact_distribution(slc)
        table = facet_table(slc)
        reps, per, thin = 400, 10, 2 * slc.free_size
        starts = [list(table.free_ids[f]) for f in table.draw(rng_stream(8, 0), reps)]
        bases, _ = _lockstep(table, starts, rng_stream(8, 1), per * thin, 3 if weighted else 2)
        hist = np.bincount(bases[thin - 1::thin].ravel() // table.width,
                           minlength=len(probs))
        assert hist.sum() == reps * per
        noise = 0.5 * np.sqrt(probs * (1 - probs) / (reps * per)).sum()
        assert tv_distance(hist, probs) <= 1.5 * noise


class TestExactTransitionMatrix:
    def test_single_facet_identity(self, bipartite_c6):
        facets, p, pi = exact_transition_matrix(OneSidedSlice(bipartite_c6, 3, 0.5))
        assert p.shape == (1, 1) and p[0, 0] == 1.0

    def test_rows_sum_to_one(self, six_cycle):
        _, p, _ = exact_transition_matrix(RegularSlice(six_cycle, 2))
        assert np.allclose(p.sum(axis=1), 1.0, atol=1e-12)

    def test_rows_stay_finite_at_extreme_fugacity(self):
        # at this fugacity most facets weigh 0 relative to the slice's
        # heaviest, so each face's conditional is taken against its own
        # heaviest facet
        slc = OneSidedSlice(gen_bipartite_regular(6, 2, seed=0), 3, 1e300)
        _, p, _ = exact_transition_matrix(slc)
        assert np.isfinite(p).all()
        assert np.allclose(p.sum(axis=1), 1.0, atol=1e-12)

    def test_two_sided_c6_doubly_stochastic(self, bipartite_c6):
        _, p, _ = exact_transition_matrix(TwoSidedSlice(bipartite_c6, 1, 1))
        assert np.allclose(p.sum(axis=0), 1.0, atol=1e-12)
        assert np.allclose(p.sum(axis=1), 1.0, atol=1e-12)

    def test_one_sided_c6_uniform_stationary(self, bipartite_c6):
        facets, p, pi = exact_transition_matrix(OneSidedSlice(bipartite_c6, 1, 0.5))
        assert np.allclose(pi, 1 / 3)
        assert np.allclose(pi @ p, pi, atol=1e-12)

    @pytest.mark.parametrize("seed", range(6))
    def test_detailed_balance_random_corpus(self, seed):
        g = gen_bipartite_regular(7, 2, seed=seed)
        r = gen_regular(12, 3, seed=seed)
        slices = [TwoSidedSlice(g, 2, 2), OneSidedSlice(g, 3, 0.45),
                  RegularSlice(r, 3)]
        for slc in slices:
            try:
                facets, p, pi = exact_transition_matrix(slc)
            except Exception:
                continue
            flow = pi[:, None] * p
            assert np.max(np.abs(flow - flow.T)) <= 1e-12

    def test_lazy_chain_realizes_half_identity_plus_p(self):
        # empirical lazy transition frequencies track (I + P)/2
        g = gen_bipartite_regular(6, 2, seed=8)
        slc = OneSidedSlice(g, 2, 0.6)
        facets, p, pi = exact_transition_matrix(slc)
        lazy = 0.5 * (np.eye(len(facets)) + p)
        index = {f: i for i, f in enumerate(facets)}
        from slicewalk.rng import UniformBuffer
        from slicewalk.walks import _step, greedy_initial_state as gis
        state = gis(slc, rng_stream(0))
        rand = UniformBuffer(rng_stream(3)).next
        counts = np.zeros_like(p)
        prev = index[state.facet()]
        for _ in range(400_000):
            if rand() >= 0.5:
                _step(slc, state, rand)
            cur = index[state.facet()]
            counts[prev, cur] += 1
            prev = cur
        freq = counts / counts.sum(axis=1, keepdims=True)
        visited = counts.sum(axis=1) > 5000
        assert np.max(np.abs(freq[visited] - lazy[visited])) <= 0.01


class TestRunChain:
    def test_zero_steps(self, bipartite_c6):
        slc = TwoSidedSlice(bipartite_c6, 1, 1)
        samples, report = run_chain(slc, ChainConfig(steps=0, seed=3))
        assert len(samples) == 1
        assert report.steps == 0

    def test_fully_pinned_slices_stay_put(self, bipartite_c6, six_cycle):
        # with no free element the pinned face is the only facet
        for slc, facet in ((TwoSidedSlice(bipartite_c6, 0, 0), ((), ())),
                           (RegularSlice(six_cycle, 0), ()),
                           (OneSidedSlice(bipartite_c6, 1, 0.5, frozenset({2})), (2,))):
            samples, report = run_chain(slc, ChainConfig(steps=20, seed=3))
            assert set(samples) == {facet} and report.steps == 20

    def test_negative_run_lengths_are_rejected(self):
        with pytest.raises(ValueError, match="burn_in"):
            ChainConfig(steps=10, seed=0, burn_in=-5)
        with pytest.raises(ValueError, match="steps"):
            ChainConfig(steps=-1, seed=0)

    def test_zero_oracle_caps_skip_the_enumeration(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("enumerated a slice with zero oracle caps")

        monkeypatch.setattr(slices, "enumerate_facets", refuse)
        g = gen_bipartite_regular(8, 3, seed=9)
        for slc in (OneSidedSlice(g, 3, 0.4), TwoSidedSlice(g, 2, 2)):
            _, report = run_chain(slc, ChainConfig(steps=50, seed=1, oracle_cap=0, gap_cap=0))
            assert report.empirical_tv is None and report.exact_gap is None

    def test_oracles_skip_a_slice_whose_exact_bound_exceeds_the_cap(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("enumerated a slice known to exceed the cap")

        monkeypatch.setattr(slices, "enumerate_facets", refuse)
        # the README sample slice: C(100, 8) facets, far above both caps
        slc = OneSidedSlice(gen_bipartite_regular(100, 3, seed=7), 8, 0.2)
        _, report = run_chain(slc, ChainConfig(steps=200, seed=1))
        assert report.empirical_tv is None and report.exact_gap is None

    def test_one_enumeration_feeds_both_oracles(self, monkeypatch):
        caps = []

        def spy(slc, cap):
            caps.append(cap)
            return enumerate_facets(slc, cap)

        monkeypatch.setattr(slices, "enumerate_facets", spy)
        slc = TwoSidedSlice(gen_bipartite_regular(8, 3, seed=1), 2, 2)
        _, report = run_chain(slc, ChainConfig(steps=1000, seed=1))
        assert caps == [20_000]
        assert report.empirical_tv is not None and report.exact_gap is not None

    def test_a_loose_bound_above_the_cap_keeps_the_oracles(self):
        slc = TwoSidedSlice(gen_bipartite_regular(8, 3, seed=9), 2, 2)
        count = len(enumerate_facets(slc))
        bound, exact = slices._facet_bound(slc)
        assert not exact and bound > count
        cfg = ChainConfig(steps=2000, seed=1, oracle_cap=count, gap_cap=count)
        _, report = run_chain(slc, cfg)
        assert report.empirical_tv is not None and report.exact_gap is not None

    def test_seed_determinism(self):
        g = gen_bipartite_regular(8, 3, seed=9)
        slc = OneSidedSlice(g, 3, 0.4)
        cfg = ChainConfig(steps=2000, seed=17)
        s1, r1 = run_chain(slc, cfg)
        s2, r2 = run_chain(slc, cfg)
        assert s1 == s2 and r1 == r2

    def test_two_sided_c6_tv(self, bipartite_c6):
        slc = TwoSidedSlice(bipartite_c6, 1, 1)
        cfg = ChainConfig(steps=100_000, seed=5, lazy=True, thinning=10)
        samples, report = run_chain(slc, cfg)
        # the (1,1) slice of this fixture is disconnected, but uniform greedy
        # restarts are not used mid-chain; the chain is frozen at its start,
        # so only the exact-matrix diagnostics are meaningful here
        assert report.exact_gap == pytest.approx(0.0, abs=1e-9)

    def test_one_sided_tv_small(self):
        g = gen_bipartite_regular(8, 3, seed=21)
        slc = OneSidedSlice(g, 3, 0.3)
        cfg = ChainConfig(steps=1_000_000, seed=10, lazy=True)
        samples, report = run_chain(slc, cfg)
        assert report.empirical_tv is not None and report.empirical_tv <= 0.02

    def test_empirical_transitions_match_exact_rows(self):
        g = gen_bipartite_regular(7, 2, seed=2)
        _check_transition_rows(OneSidedSlice(g, 3, 0.5), steps=1_000_000, seed=1)

    @pytest.mark.parametrize("slc", [
        TwoSidedSlice(gen_bipartite_regular(6, 2, seed=1), 2, 1),
        RegularSlice(gen_regular(10, 3, seed=2), 3)], ids=["two-sided", "regular"])
    def test_uniform_kernel_transitions_match_exact_rows(self, slc):
        _check_transition_rows(slc, steps=400_000, seed=3)


def _assert_pools_are_candidate_sets(slc, state) -> None:
    adj = slc.graph.global_adj
    member, cover = state.member, state.cover
    for pool in state.pools:
        assert pool == sorted(set(pool))
    if isinstance(slc, OneSidedSlice):
        n = slc.graph.n_side
        unc = [sum(1 for j in adj[x] if cover[j] == 0) for x in range(n)]
        assert state.unc == unc
        assert state.pools == [[x for x in range(n) if not member[x] and unc[x] == e]
                               for e in range(slc.graph.degree + 1)]
    else:
        assert state.pools == [[v for v in range(lo, hi) if not member[v] and cover[v] == 0]
                               for lo, hi, _ in slc.parts]


def _check_transition_rows(slc, steps: int, seed: int) -> None:
    """One-step empirical transition frequencies of the non-lazy chain
    against the rows of ``exact_transition_matrix``: every entry within
    6 sigma, and three-sigma violations no more frequent than chance."""
    facets, p, pi = exact_transition_matrix(slc)
    index = {f: i for i, f in enumerate(facets)}
    state = greedy_initial_state(slc, rng_stream(0))
    rng = rng_stream(seed)
    counts = np.zeros_like(p)
    prev = index[state.facet()]
    for _ in range(steps):
        down_up_step(slc, state, rng)
        cur = index[state.facet()]
        counts[prev, cur] += 1
        prev = cur
    visits = counts.sum(axis=1)
    bad = 0
    checked = 0
    for i in range(len(facets)):
        if visits[i] < 200:
            continue
        for j in range(len(facets)):
            if p[i, j] == 0.0:
                assert counts[i, j] == 0
                continue
            checked += 1
            se = np.sqrt(p[i, j] * (1 - p[i, j]) / visits[i])
            if abs(counts[i, j] / visits[i] - p[i, j]) > 3 * se:
                bad += 1
                assert abs(counts[i, j] / visits[i] - p[i, j]) <= 6 * se
    # per-entry three-sigma violations occur at the expected rare rate
    assert checked > 0 and bad <= max(5, 0.01 * checked)


def test_format_facet(bipartite_c6, six_cycle):
    assert format_facet(TwoSidedSlice(bipartite_c6, 1, 1), ((0,), (2,))) == "x0 | y2"
    assert format_facet(OneSidedSlice(bipartite_c6, 2, 0.5), (0, 2)) == "x0 x2 |"
    assert format_facet(RegularSlice(six_cycle, 2), (1, 4)) == "v1 v4"
