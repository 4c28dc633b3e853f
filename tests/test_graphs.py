from __future__ import annotations

import numpy as np
import pytest

from slicewalk.graphs import (RejectionBudgetError, X, Y, bipartite_complement,
                              complement_regular, gen_bipartite_regular, gen_regular,
                              load_graph, pairing_bipartite_rows, rows_are_simple,
                              save_graph)
from slicewalk.rng import rng_stream


def test_single_edge_graph():
    g = gen_bipartite_regular(1, 1, seed=0)
    assert g.adj_x == ((0,),) and g.adj_y == ((0,),)


def test_degree_invariant_small():
    g = gen_bipartite_regular(4, 2, seed=3)
    g.validate()
    assert all(len(row) == 2 for row in g.adj_x)
    assert all(len(row) == 2 for row in g.adj_y)


def test_two_regular_is_cycle_cover():
    g = gen_regular(6, 2, seed=1)
    g.validate()
    # every vertex has degree two and the edge set splits into cycles
    seen = set()
    components = 0
    for start in range(6):
        if start in seen:
            continue
        components += 1
        prev, cur = None, start
        while cur not in seen:
            seen.add(cur)
            nxt = [u for u in g.adj[cur] if u != prev]
            prev, cur = cur, nxt[0]
    assert len(seen) == 6 and components >= 1


def test_single_edge_regular():
    g = gen_regular(2, 1, seed=9)
    assert g.adj == ((1,), (0,))


@pytest.mark.parametrize("seed", range(5))
def test_generators_deterministic(seed):
    a = gen_bipartite_regular(10, 3, seed=seed)
    b = gen_bipartite_regular(10, 3, seed=seed)
    assert a.adj_x == b.adj_x
    c = gen_regular(12, 3, seed=seed)
    d = gen_regular(12, 3, seed=seed)
    assert c.adj == d.adj


def test_rejection_budget_error():
    # degrees n_side and n_side - 1 are drawn without rejection, but tiny
    # budgets can still be exhausted at degree close to n_side
    with pytest.raises(RejectionBudgetError):
        gen_bipartite_regular(8, 6, seed=0, max_retries=1)


@pytest.mark.parametrize("n", [1, 2, 3, 8, 16])
def test_full_degree_is_the_complete_bipartite_graph(n):
    # K_{n,n} is the only simple n-regular bipartite graph on sides of n, so
    # every seed gives it, with no rejection budget to exhaust
    row = tuple(range(n))
    for seed in range(3):
        g = gen_bipartite_regular(n, n, seed=seed, max_retries=1)
        g.validate()
        assert g.adj_x == g.adj_y == (row,) * n


@pytest.mark.parametrize("n", [2, 3, 6, 8, 16])
def test_degree_one_below_the_side_misses_one_distinct_y_per_x(n):
    # K_{n,n} less a perfect matching, drawn as the complement of a uniform
    # permutation, with no rejection budget to exhaust
    for seed in range(20):
        g = gen_bipartite_regular(n, n - 1, seed=seed, max_retries=1)
        g.validate()
        missing = [set(range(n)) - set(row) for row in g.adj_x]
        assert all(len(m) == 1 for m in missing)
        assert set().union(*missing) == set(range(n))
        assert g.adj_y == tuple(tuple(i for i in range(n) if j in g.adj_x[i])
                                for j in range(n))


def test_neighborhoods(bipartite_c6):
    assert bipartite_c6.neighbor_set(X, ()) == frozenset()
    assert bipartite_c6.neighbor_set(X, (0,)) == {0, 1}
    assert bipartite_c6.neighbor_set(Y, (0, 1)) == {0, 1, 2}
    with pytest.raises(IndexError):
        bipartite_c6.neighbor_set(X, (99,))


def test_global_adjacency(bipartite_c6, six_cycle):
    # X keeps ids 0..2 and Y becomes 3..5
    assert bipartite_c6.global_adj == ((3, 4), (4, 5), (3, 5), (0, 2), (0, 1), (1, 2))
    assert six_cycle.global_adj == six_cycle.adj
    a = bipartite_c6.adjacency()
    assert np.array_equal(a, a.T) and not a[:3, :3].any() and not a[3:, 3:].any()


def test_bipartite_complement(bipartite_c6, complete_bipartite_33):
    comp = bipartite_complement(bipartite_c6)
    comp.validate()
    # complement of the 6-cycle fixture is the perfect matching x_i ~ y_{i+2 mod 3}
    assert comp.adj_x == ((2,), (0,), (1,))
    empty = bipartite_complement(complete_bipartite_33)
    assert empty.degree == 0
    double = bipartite_complement(comp)
    assert double.adj_x == bipartite_c6.adj_x


def test_complement_is_involution():
    g = gen_bipartite_regular(9, 3, seed=2)
    assert bipartite_complement(bipartite_complement(g)).adj_x == g.adj_x
    r = gen_regular(10, 3, seed=2)
    assert complement_regular(complement_regular(r)).adj == r.adj


def test_pairing_rows_shape_and_simplicity_flag():
    rng = rng_stream(42)
    rows = pairing_bipartite_rows(50, 4, rng)
    assert rows.shape == (50, 4)
    assert np.all(np.sort(rows, axis=1) == rows)
    counts = np.bincount(rows.ravel(), minlength=50)
    assert np.all(counts == 4)  # every y endpoint is used exactly degree times
    assert rows_are_simple(np.array([[0, 1], [1, 2], [0, 2]]))
    assert not rows_are_simple(np.array([[0, 0], [1, 2], [1, 2]]))


def _common_neighbor_violations(rows: np.ndarray, n: int) -> tuple[int, int]:
    """(pairs sharing >= 3 neighbors, vertices with > 1 partner at >= 2).

    Counted on the X side via the Y rows of a pairing draw: each y
    contributes its unordered x-pairs, and pair multiplicity equals the
    common-neighbor count.
    """
    degree = rows.shape[1]
    src = np.repeat(np.arange(n, dtype=np.int64), degree)
    order = np.argsort(rows.ravel(), kind="stable")
    y_rows = src[order].reshape(n, degree)
    keys = []
    for row in y_rows:
        r = np.unique(row)
        if len(r) < 2:
            continue
        iu, ju = np.triu_indices(len(r), k=1)
        keys.append(r[iu] * n + r[ju])
    uniq, counts = np.unique(np.concatenate(keys), return_counts=True)
    heavy = uniq[counts >= 2]
    verts, partner_counts = np.unique(
        np.concatenate([heavy // n, heavy % n]), return_counts=True)
    return int((counts >= 3).sum()), int((partner_counts >= 2).sum())


def test_common_neighbor_events_hold_at_degree_three():
    # at degree 3 and side 2000 the expected violating pair count is ~0.03,
    # so both events hold in essentially every sample
    hold_pairs = hold_partners = 0
    samples = 50
    for s in range(samples):
        rows = pairing_bipartite_rows(2000, 3, rng_stream(7000 + s))
        ge3, multi = _common_neighbor_violations(rows, 2000)
        hold_pairs += ge3 == 0
        hold_partners += multi == 0
    assert hold_pairs >= 0.9 * samples
    assert hold_partners >= 0.9 * samples


@pytest.mark.parametrize("degree", [8, 16])
def test_common_neighbor_violations_match_pairing_rate(degree):
    # the all-pairs event is impossible at these degrees and this side size:
    # violating pairs arrive at rate ~ degree^6 / (12 n) (about 11 at degree 8,
    # 700 at degree 16, for n = 2000), so the correct desk-scale echo bounds
    # the violation count by a small multiple of that rate
    n = 2000
    expected = degree ** 6 / (12 * n)
    for s in range(10):
        rows = pairing_bipartite_rows(n, degree, rng_stream(7100 + s))
        ge3, _ = _common_neighbor_violations(rows, n)
        assert ge3 <= 3 * expected + 5


@pytest.mark.xfail(strict=True, reason=(
    "stated invariant is numerically impossible: at side 2000 the expected "
    "number of pairs sharing >= 3 neighbors is ~degree^6/(12 n), i.e. ~11 at "
    "degree 8, so the every-pair event essentially never holds (see ledger)"))
def test_common_neighbor_every_pair_event_at_degree_eight():
    holds = 0
    samples = 20
    for s in range(samples):
        rows = pairing_bipartite_rows(2000, 8, rng_stream(7200 + s))
        ge3, _ = _common_neighbor_violations(rows, 2000)
        holds += ge3 == 0
    assert holds >= 0.9 * samples


def test_graph_file_roundtrip(tmp_path, bipartite_c6, six_cycle):
    p = tmp_path / "g.txt"
    save_graph(bipartite_c6, p)
    text = p.read_text().splitlines()
    assert text[0] == "bipartite 3 2"
    loaded = load_graph(p)
    assert loaded.adj_x == bipartite_c6.adj_x
    save_graph(six_cycle, p)
    loaded = load_graph(p)
    assert loaded.adj == six_cycle.adj


def test_loader_rejects_bad_files(tmp_path):
    p = tmp_path / "bad.txt"
    p.write_text("bipartite 2 1\n0 0\n0 1\n")
    with pytest.raises(ValueError):
        load_graph(p)  # vertex y0 has degree 2, y1 unused
    p.write_text("nonsense 2 1\n")
    with pytest.raises(ValueError):
        load_graph(p)
