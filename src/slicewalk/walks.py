"""Down-up walk engines and mixing diagnostics.

One step of the down-up walk removes a uniformly random free element of the
current facet and resamples its replacement from the conditional distribution
of the slice given the remainder; the removed element always remains a
candidate, so a step may be a self-loop.  States carry incremental coverage
counters over the graph's global vertex ids and sorted pools of replacement
candidates, updated only where a step changes coverage: a step does
O(degree^2) Python work plus the C-level shifts of inserting into and
deleting from sorted lists, and chains are a pure function of (slice, config
seed).  There is one kernel per kind of constraint: a uniform draw within the
removed vertex's part for the independent-set slices (two-sided, regular),
and the coverage-weighted draw of the one-sided slice, which picks a weight
class and then a uniform member of it.

Exact transition matrices are assembled from the facet enumeration alone
(grouping facets by shared codimension-1 faces), deliberately not reusing the
stepping code, so the two implementations check each other.
"""
from __future__ import annotations

from bisect import bisect_left, bisect_right, insort
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .rng import UniformBuffer, rng_stream
from .slices import (ENUMERATION_CAP, EnumerationCapError, OneSidedSlice, Slice,
                     SliceError, TwoSidedSlice, exact_distribution, facet_log_weight,
                     greedy_facet)

Rand = Callable[[], float]


class InitialStateError(RuntimeError):
    """Greedy restarts exhausted; parameters are near the feasibility frontier."""


@dataclass(eq=False)
class ChainState:
    """Current facet plus the incremental bookkeeping the steppers need.

    Vertices are the slice graph's global ids.  ``free`` holds the non-pinned
    facet members in stepping order: a step replaces one entry in place with
    a vertex of the same part.  ``member`` flags facet members, pinned ones
    included, and ``cover[u]`` counts facet members adjacent to u.

    ``pools`` are sorted lists of the replacement candidates, updated only
    where a step changes coverage.  For the uniform kernel there is one per
    part: its non-members with zero cover.  For the one-sided kernel
    ``unc[x]`` counts the uncovered neighbours of each X vertex, and
    ``pools[e]`` lists the non-members with ``unc = e``.  ``kernel`` is the
    step function that keeps them.
    """

    slc: Slice
    free: list[int]
    member: list[bool]
    cover: list[int]
    pools: list[list[int]]
    unc: list[int]
    kernel: Callable[[Slice, "ChainState", Rand], None]
    steps: int = 0

    def facet(self):
        return self.slc.from_ids(set(self.free) | self.slc.pinned_ids)

    def recount_ok(self) -> bool:
        """Recompute every counter and pool from scratch and compare with the
        running ones."""
        fresh = _make_state(self.slc, self.facet())
        return (fresh.cover == self.cover and fresh.member == self.member
                and sorted(fresh.free) == sorted(self.free)
                and fresh.pools == self.pools and fresh.unc == self.unc)


def _make_state(slc: Slice, facet) -> ChainState:
    ids = slc.to_ids(facet)
    adj = slc.graph.global_adj
    member = [False] * len(adj)
    cover = [0] * len(adj)
    for v in ids:
        member[v] = True
        for u in adj[v]:
            cover[u] += 1
    if any(cover[v] for v in ids):
        raise SliceError("facet is not an independent set")
    pinned = slc.pinned_ids
    free = [v for v in ids if v not in pinned]
    if isinstance(slc, OneSidedSlice):
        n = slc.graph.n_side
        unc = [sum(1 for j in adj[x] if cover[j] == 0) for x in range(n)]
        pools: list[list[int]] = [[] for _ in range(slc.graph.degree + 1)]
        for x in range(n):
            if not member[x]:
                pools[unc[x]].append(x)
        return ChainState(slc, free, member, cover, pools, unc, _step_one_sided)
    pools = [[v for v in range(lo, hi) if not member[v] and cover[v] == 0]
             for lo, hi, _ in slc.parts]
    return ChainState(slc, free, member, cover, pools, [], _step_uniform)


def greedy_initial_state(slc: Slice, rng: np.random.Generator,
                         restarts: int = 256) -> ChainState:
    """Randomized greedy facet construction with restarts.

    One-sided slices always succeed in one draw; for the constrained families
    an exhausted budget signals parameters near or beyond the feasibility
    frontier (the slice may have no facets at all).
    """
    facet = greedy_facet(slc, rng, restarts=restarts)
    if facet is None:
        raise InitialStateError(
            f"no facet found in {restarts} greedy restarts; "
            "slice parameters may be infeasible")
    return _make_state(slc, facet)


# -- single steps ---------------------------------------------------------------


def down_up_step(slc: Slice, state: ChainState, rng: np.random.Generator) -> ChainState:
    """One exact down-up transition, mutating and returning ``state``."""
    _step(slc, state, rng.random)
    return state


def _step(slc: Slice, state: ChainState, rand: Rand) -> None:
    # with no free element the pinned face is the only facet, so the step stays
    if state.free:
        state.kernel(slc, state, rand)
    state.steps += 1


def _step_one_sided(slc: OneSidedSlice, state: ChainState, rand: Rand) -> None:
    """Coverage-weighted replacement: x' has weight (1+fugacity)^-unc[x'].

    Three uniforms: the removal slot, the weight class e (class weight
    |pools[e]| * (1+fugacity)^-(e - e_min), summed in class order from the
    smallest occupied class, whose weight 1 keeps the total at least 1), and
    the index within the class.  Only the X vertices next to a Y vertex whose
    cover crosses 0 change class, at most degree^2 per step.
    """
    adj = slc.graph.global_adj
    free = state.free
    member = state.member
    cover = state.cover
    pools = state.pools
    unc = state.unc
    pos = int(rand() * len(free))
    x_out = free[pos]
    # x_out still counts as a member here, so it is not moved between classes
    for j in adj[x_out]:
        cover[j] -= 1
        if cover[j] == 0:
            for x in adj[j]:
                e = unc[x]
                unc[x] = e + 1
                if not member[x]:
                    pool = pools[e]
                    del pool[bisect_left(pool, x)]
                    insort(pools[e + 1], x)
    member[x_out] = False
    insort(pools[unc[x_out]], x_out)
    emin = 0
    while not pools[emin]:
        emin += 1
    acc = []
    total = 0.0
    for pool, w in zip(pools[emin:], slc.class_weights):
        total += len(pool) * w
        acc.append(total)
    pool = pools[emin + bisect_right(acc, rand() * total)]
    at = int(rand() * len(pool))
    x_new = pool[at]
    del pool[at]
    member[x_new] = True
    for j in adj[x_new]:
        cover[j] += 1
        if cover[j] == 1:
            for x in adj[j]:
                e = unc[x]
                unc[x] = e - 1
                if not member[x]:
                    pool = pools[e]
                    del pool[bisect_left(pool, x)]
                    insort(pools[e - 1], x)
    free[pos] = x_new


def _step_uniform(slc: Slice, state: ChainState, rand: Rand) -> None:
    """Uniform replacement among the uncovered non-members of the removed
    vertex's part: the kernel of every independent-set slice with part quotas.
    The part's pool lists them in index order."""
    adj = slc.graph.global_adj
    free = state.free
    member = state.member
    cover = state.cover
    pools = state.pools
    part_of = slc.part_of
    pos = int(rand() * len(free))
    v_out = free[pos]
    member[v_out] = False
    for u in adj[v_out]:
        cover[u] -= 1
        if cover[u] == 0:
            insort(pools[part_of[u]], u)
    pool = pools[part_of[v_out]]
    insort(pool, v_out)
    at = int(rand() * len(pool))
    v_new = pool[at]
    del pool[at]
    member[v_new] = True
    for u in adj[v_new]:
        cover[u] += 1
        if cover[u] == 1:
            pool = pools[part_of[u]]
            del pool[bisect_left(pool, u)]
    free[pos] = v_new


# -- chains -----------------------------------------------------------------------


@dataclass(frozen=True)
class ChainConfig:
    """Run parameters; burn-in defaults to half the steps, thinning to the
    number of free facet elements."""

    steps: int
    seed: int
    lazy: bool = True
    burn_in: int | None = None
    thinning: int | None = None
    oracle_cap: int = 20_000  # enumerate the exact law for TV when below this
    gap_cap: int = 512        # build the exact chain matrix when below this

    def __post_init__(self) -> None:
        if self.steps < 0:
            raise ValueError("steps must be nonnegative")
        if self.thinning is not None and self.thinning < 1:
            raise ValueError("thinning must be at least 1")


@dataclass(frozen=True)
class MixingReport:
    empirical_tv: float | None
    exact_gap: float | None
    autocorr_lag1: float | None
    samples: int
    steps: int


def run_chain(slc: Slice, config: ChainConfig, initial: ChainState | None = None):
    """Run a (lazy) down-up chain; returns (samples, MixingReport).

    Samples are facets collected every ``thinning`` steps after burn-in.  The
    report includes empirical total variation against the enumerated law and
    the exact chain's spectral gap whenever those oracles fit their caps.
    Deterministic given (slice, config, initial).
    """
    init_rng = rng_stream(config.seed, 0)
    state = initial if initial is not None else greedy_initial_state(slc, init_rng)
    burn_in = config.steps // 2 if config.burn_in is None else config.burn_in
    thinning = config.thinning if config.thinning is not None else max(1, slc.free_size)
    buf = UniformBuffer(rng_stream(config.seed, 1))
    rand = buf.next
    lazy = config.lazy
    samples = []
    member = state.member
    ref = [v for v, inside in enumerate(member) if inside]
    series: list[int] = []
    for t in range(1, config.steps + 1):
        if not lazy or rand() >= 0.5:
            _step(slc, state, rand)
        else:
            state.steps += 1
        if t > burn_in and (t - burn_in) % thinning == 0:
            samples.append(state.facet())
            series.append(sum(member[v] for v in ref))
    if not samples:
        samples = [state.facet()]
    tv = _oracle_tv(slc, samples, config.oracle_cap)
    gap = _oracle_gap(slc, config)
    auto = _lag1_autocorr(series)
    return samples, MixingReport(tv, gap, auto, len(samples), config.steps)


def _oracle_tv(slc: Slice, samples: Sequence, cap: int) -> float | None:
    try:
        facets, probs = exact_distribution(slc, cap)
    except EnumerationCapError:
        return None
    counts: dict = {}
    for f in samples:
        counts[f] = counts.get(f, 0) + 1
    hist = np.array([counts.get(f, 0) for f in facets], dtype=float)
    if hist.sum() != len(samples):
        raise SliceError("chain visited a facet outside the enumerated slice")
    return tv_distance(hist, probs)


def _oracle_gap(slc: Slice, config: ChainConfig) -> float | None:
    try:
        facets, p, probs = exact_transition_matrix(slc, cap=config.gap_cap)
    except EnumerationCapError:
        return None
    if config.lazy:
        p = 0.5 * (np.eye(len(facets)) + p)
    _, _, gap = spectral_gap(p, probs)
    return gap


def _lag1_autocorr(series: Sequence[int]) -> float | None:
    if len(series) < 3:
        return None
    s = np.asarray(series, dtype=float)
    s = s - s.mean()
    denom = float(s @ s)
    if denom == 0.0:
        return 0.0
    return float(s[1:] @ s[:-1]) / denom


# -- exact oracles ------------------------------------------------------------------


def exact_transition_matrix(slc: Slice, cap: int = ENUMERATION_CAP):
    """(facets, P, stationary) for the exact non-lazy down-up chain.

    Built purely from the facet enumeration: facets are grouped by each
    codimension-1 face obtained by deleting a free element, and within a group
    the replacement law is the conditional of the slice weights.
    """
    facets, probs = exact_distribution(slc, cap)
    k_free = slc.free_size
    if k_free == 0:
        return facets, np.ones((1, 1)), probs
    logw = np.array([facet_log_weight(slc, f) for f in facets])
    weights = np.exp(logw - logw.max())
    groups: dict = {}
    for i, f in enumerate(facets):
        for sub in _codim1_faces(slc, f):
            groups.setdefault(sub, []).append(i)
    p = np.zeros((len(facets), len(facets)))
    for members in groups.values():
        w = weights[members]
        cond = w / w.sum()
        for i in members:
            p[i, members] += cond / k_free
    return facets, p, probs


def _codim1_faces(slc: Slice, facet):
    """Each face left by deleting one free element, as a tuple of global ids."""
    ids = slc.to_ids(facet)
    pinned = slc.pinned_ids
    for v in ids:
        if v not in pinned:
            yield tuple(u for u in ids if u != v)


def spectral_gap(p: np.ndarray, pi: np.ndarray, reversibility_tol: float = 1e-10):
    """(lambda2, lambda_star, gap) of a reversible row-stochastic matrix.

    The matrix is symmetrized by conjugating with diag(pi)^(1/2); a detailed
    balance violation beyond ``reversibility_tol`` raises.  ``gap`` is
    1 - lambda2, the quantity that controls the lazy chain's mixing.
    """
    flow = pi[:, None] * p
    if np.max(np.abs(flow - flow.T)) > reversibility_tol:
        raise ValueError("matrix is not reversible with respect to pi")
    root = np.sqrt(pi)
    sym = flow / np.outer(root, root)
    vals = np.linalg.eigvalsh(sym)
    lam2 = float(vals[-2]) if len(vals) > 1 else float(vals[-1])
    lam_star = max(lam2, abs(float(vals[0])))
    return lam2, lam_star, 1.0 - lam2


def tv_distance(histogram: np.ndarray, exact: np.ndarray) -> float:
    """Half the L1 distance; the histogram is normalized if it holds counts."""
    h = np.asarray(histogram, dtype=float)
    total = h.sum()
    if total <= 0:
        raise ValueError("empty histogram")
    h = h / total
    e = np.asarray(exact, dtype=float)
    if h.shape != e.shape:
        raise ValueError("support indexing mismatch")
    return float(0.5 * np.abs(h - e).sum())


def format_facet(slc: Slice, facet) -> str:
    """Sample stream line: sorted side-tagged indices, e.g. ``x3 x7 | y1 y4``."""
    if isinstance(slc, TwoSidedSlice):
        xs = " ".join(f"x{i}" for i in facet[0])
        ys = " ".join(f"y{j}" for j in facet[1])
        return f"{xs} | {ys}".strip()
    if isinstance(slc, OneSidedSlice):
        return (" ".join(f"x{i}" for i in facet) + " |").strip()
    return " ".join(f"v{i}" for i in facet)
