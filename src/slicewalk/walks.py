"""Down-up walk engines and mixing diagnostics.

One step of the down-up walk removes a uniformly random free element of the
current facet and resamples its replacement from the conditional distribution
of the slice given the remainder; the removed element always remains a
candidate, so a step may be a self-loop.  States carry incremental coverage
counters over the graph's global vertex ids, updated only where a step
changes coverage, and chains are a pure function of (slice, config seed).
There is one kernel per kind of constraint.  The independent-set slices
(two-sided, regular) propose uniform ids of the removed vertex's part until
one is a non-member with zero cover: O(degree) Python work a step and no
pool.  The one-sided slice keeps sorted pools of its candidates by weight
class (``_pools`` builds them, the kernel updates them) and picks a class,
then a uniform member: O(degree^2) Python work plus the C-level shifts of
sorted-list inserts and deletes.  A kernel is one loop over a given number
of (optionally lazy) steps, called once per sample interval.

A one-sided slice small enough to enumerate can be compiled into a
``FacetTable``: for every facet and free element, the weight classes of the
face left without it, stored in flat arrays with the class sums and each
candidate's successor facet.  ``facet_table`` reads each row off the chain
state the kernel itself starts from (``_make_state`` at the face), so a
table step is a row lookup and the kernel's three uniform draws, replaying
it bit for bit, and ``FacetTable.advance`` takes it for many chains at once,
one array row each, in a few NumPy calls.  The table holds no law.  Its one
consumer is the slow-mixing experiment, whose lockstep escape-time chains
step through ``advance``.

Exact transition matrices are assembled from the facet enumeration alone
(grouping facets by shared codimension-1 faces), deliberately not reusing the
stepping code, so the two implementations check each other.  One exact-law
query (``slices._law_within``) feeds both oracles of ``run_chain``.

Inside the package a facet is an ascending tuple of global ids; only
``ChainState.facet`` (hence ``run_chain``'s samples),
``exact_transition_matrix``, ``greedy_initial_state`` and ``format_facet``
use the family's format.
"""
from __future__ import annotations

from bisect import bisect_left, bisect_right, insort
from collections import Counter
from dataclasses import dataclass
from itertools import accumulate, dropwhile
from operator import mul, not_
from typing import Callable, Iterable, Sequence

import numpy as np

from .rng import UniformBuffer, rng_stream
from .slices import (ENUMERATION_CAP, OneSidedSlice, Slice, SliceError, _facet_ids,
                     _facet_weights, _free_ids, _law_within, greedy_facet)

Rand = Callable[[], float]

# Largest detailed-balance violation that spectral_gap accepts.
REVERSIBILITY_TOL = 1e-10
# Greedy attempts greedy_initial_state makes before giving up.
INITIAL_RESTARTS = 256


class InitialStateError(RuntimeError):
    """Greedy restarts exhausted; parameters are near the feasibility frontier."""


@dataclass(eq=False)
class ChainState:
    """Current facet plus the incremental bookkeeping the steppers need.

    Vertices are the slice graph's global ids.  ``free`` holds the non-pinned
    facet members in stepping order: a step replaces one entry in place with
    a vertex of the same part.  ``member`` flags facet members, pinned ones
    included, and ``cover[u]`` counts facet members adjacent to u.

    The uniform kernel draws by rejection from these flags and counters,
    so its ``pools`` and ``unc`` are empty.  For the one-sided kernel
    ``unc[x]`` counts the uncovered neighbours of each X vertex, and
    ``pools[e]`` is the sorted list of the non-members with ``unc = e``,
    updated where a step changes coverage.  ``kernel(slc, state, rand,
    steps, lazy)`` runs steps, or none when nothing is free.
    """

    slc: Slice
    free: list[int]
    member: list[bool]
    cover: list[int]
    pools: list[list[int]]
    unc: list[int]
    kernel: Callable[[Slice, "ChainState", Rand, int, bool], None]
    steps: int = 0

    def facet(self):
        """The current facet in the family's public format."""
        return self.slc.from_ids(set(self.free) | self.slc.pinned_ids)

    def recount_ok(self) -> bool:
        """Recompute every counter and pool from scratch and compare with the
        running ones."""
        fresh = _make_state(self.slc, [*self.free, *self.slc.pinned_ids])
        return (fresh.cover == self.cover and fresh.member == self.member
                and sorted(fresh.free) == sorted(self.free)
                and fresh.pools == self.pools and fresh.unc == self.unc)


def _make_state(slc: Slice, ids: Sequence[int]) -> ChainState:
    """State at the facet of global ids ``ids``; its free ids step in that order."""
    member, cover, unc = _counts(slc, ids)
    if any(cover[v] for v in ids):
        raise SliceError("facet is not an independent set")
    pinned = slc.pinned_ids
    free = [v for v in ids if v not in pinned]
    kernel = _kernel_one_sided if slc.coverage_weighted else _kernel_uniform
    pools = _pools(slc, member, unc) if slc.coverage_weighted else []
    return ChainState(slc, free, member, cover, pools, unc, kernel if free else _stay)


def _counts(slc: Slice, ids: Iterable[int]) -> tuple[list[bool], list[int], list[int]]:
    """(member, cover, unc) of the ids: member flags, the count of ids next to
    each vertex, and on a coverage-weighted slice the uncovered neighbours
    of each X vertex (else [])."""
    adj = slc.graph.global_adj
    member = [False] * len(adj)
    cover = [0] * len(adj)
    for v in ids:
        member[v] = True
        for u in adj[v]:
            cover[u] += 1
    if not slc.coverage_weighted:
        return member, cover, []
    bare = list(map(not_, cover))
    return member, cover, [sum(map(bare.__getitem__, adj[x])) for x in range(slc.graph.n_side)]


def _pools(slc: OneSidedSlice, member: list[bool], unc: list[int]) -> list[list[int]]:
    """The sorted candidate pools of the one-sided facet or face flagged by
    ``member``: per uncovered count e = 0..degree, the non-members with
    ``unc = e``."""
    pools: list[list[int]] = [[] for _ in range(slc.graph.degree + 1)]
    for x in range(slc.graph.n_side):
        if not member[x]:
            pools[unc[x]].append(x)
    return pools


def greedy_initial_state(slc: Slice, rng: np.random.Generator) -> ChainState:
    """Randomized greedy facet construction with restarts.

    One-sided slices always succeed in one draw; for the constrained families
    an exhausted budget signals parameters near or beyond the feasibility
    frontier (the slice may have no facets at all).
    """
    facet = greedy_facet(slc, rng, restarts=INITIAL_RESTARTS)
    if facet is None:
        raise InitialStateError(
            f"no facet found in {INITIAL_RESTARTS} greedy restarts; "
            "slice parameters may be infeasible")
    return _make_state(slc, slc.to_ids(facet))


# -- kernels ----------------------------------------------------------------------


def down_up_step(slc: Slice, state: ChainState, rng: np.random.Generator) -> ChainState:
    """One exact down-up transition, mutating and returning ``state``."""
    _step(slc, state, rng.random)
    return state


def _step(slc: Slice, state: ChainState, rand: Rand) -> None:
    state.kernel(slc, state, rand, 1, False)
    state.steps += 1


def _stay(slc: Slice, state: ChainState, rand: Rand, steps: int, lazy: bool) -> None:
    """Kernel of a state with no free element: every step stays, drawing nothing."""


def _kernel_uniform(slc: Slice, state: ChainState, rand: Rand, steps: int,
                    lazy: bool) -> None:
    """``steps`` steps replacing a uniform free slot by a uniform candidate
    of its part, a non-member with zero cover once the removed vertex is
    out: the kernel of every independent-set slice with part quotas.  It
    proposes uniform ids of the part until one is a candidate; all facets
    weigh the same, so the accepted id is the down-up draw.  The removed
    vertex qualifies, so the loop ends, after |part|/|candidates| proposals
    in expectation.  A step draws the lazy coin when ``lazy`` (it stays
    below 1/2), then the removal slot and one uniform a proposal.
    """
    adj = slc.graph.global_adj
    part_of = slc.part_of
    spans = [(lo, hi - lo) for lo, hi, _ in slc.parts]
    free, member, cover = state.free, state.member, state.cover
    k = len(free)
    for _ in range(steps):
        if lazy and rand() < 0.5:
            continue
        pos = int(rand() * k)
        v = free[pos]
        member[v] = False
        for u in adj[v]:
            cover[u] -= 1
        lo, size = spans[part_of[v]]
        v = lo + int(rand() * size)
        while member[v] or cover[v]:
            v = lo + int(rand() * size)
        member[v] = True
        for u in adj[v]:
            cover[u] += 1
        free[pos] = v


def _kernel_one_sided(slc: OneSidedSlice, state: ChainState, rand: Rand, steps: int,
                      lazy: bool) -> None:
    """``steps`` coverage-weighted replacements: x' has weight
    (1+fugacity)^-unc[x'] once the removed vertex is out.

    A step draws the lazy coin when ``lazy``, then the removal slot, the
    weight class and the index within the class.  The class is the number of
    sequential sums ``acc`` of |pools[e]| * (1+fugacity)^-(e - e_min), from
    the smallest occupied class e_min up, that are at most u * total; the
    weight 1 of class e_min keeps the total at least 1.  Only the X vertices
    next to a Y vertex whose cover falls to 0 or rises to 1 change class.
    """
    adj = slc.graph.global_adj
    weights = slc.class_weights
    free, member, cover, pools, unc = (state.free, state.member, state.cover, state.pools,
                                       state.unc)
    k = len(free)
    for _ in range(steps):
        if lazy and rand() < 0.5:
            continue
        pos = int(rand() * k)
        x_out = free[pos]
        # x_out still counts as a member here, so it is not moved between classes
        for j in adj[x_out]:
            c = cover[j] - 1
            cover[j] = c
            if not c:
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
        acc = [*accumulate(map(mul, map(len, pools[emin:]), weights))]
        pool = pools[emin + bisect_right(acc, rand() * acc[-1])]
        x_new = pool.pop(int(rand() * len(pool)))
        member[x_new] = True
        for j in adj[x_new]:
            c = cover[j] + 1
            cover[j] = c
            if c == 1:
                for x in adj[j]:
                    e = unc[x]
                    unc[x] = e - 1
                    if not member[x]:
                        pool = pools[e]
                        del pool[bisect_left(pool, x)]
                        insort(pools[e - 1], x)
        free[pos] = x_new


# -- facet tables -------------------------------------------------------------------


@dataclass(eq=False)
class FacetTable:
    """The down-up chain of an enumerated one-sided slice, one row per
    (facet, free id), compiled into flat arrays.

    ``free[f]`` holds facet f's free ids in increasing order, one row of a
    (facets, free size) array.  Facet f's row base is ``f * width``, and
    free id v has row ``row_at[f * width + v]``, the candidate pools of the
    face left when v is removed, as the chain state at that face holds
    them; facet f's rows are its free ids' rows in order.  A row holds
    ``class_count`` weight classes, every uncovered count from the smallest
    occupied one up, then empty padding.  Class c of row r is entry
    ``r * class_count + c`` of ``first`` and ``size``, which give its run of
    ``cands`` (the candidates in pool order) and of ``succ`` (the row base
    of the facet each one leads to).  ``sums[r]`` holds the kernel's
    sequential class sums, padded with infinities; the last real one is
    ``total[r]``.
    """

    width: int
    free: np.ndarray
    class_count: int
    row_at: np.ndarray
    sums: np.ndarray
    total: np.ndarray
    first: np.ndarray
    size: np.ndarray
    cands: np.ndarray
    succ: np.ndarray

    def start(self, free: Sequence[int]) -> int:
        """Row base of the facet whose free ids are ``free``, in any order."""
        f, = np.flatnonzero((self.free == np.sort(free)).all(1))
        return int(f) * self.width

    def advance(self, free: np.ndarray, base: np.ndarray, u: np.ndarray) -> np.ndarray:
        """Step chains in lockstep, one per row of ``free``, and return the
        row base of each after every step, shape (steps, chains).

        Chain i is at the facet with row base ``base[i]``, whose free ids
        ``free[i]`` (a C-contiguous array, updated in place) are in its
        stepping order.  Step s reads ``u[s, i]``: the removal slot, the
        weight class and the index within the class, the uniforms ``_step``
        draws, so every chain replays the pool kernel on them bit for bit.
        ``(u * k).astype(np.intp)`` is ``int(u * k)`` and the class is the
        first whose sum exceeds u * total (u * total < total in floating
        point), which is ``bisect_right`` over the sums.
        """
        steps, chains = u.shape[:2]
        k = free.shape[1]
        out = np.empty((steps, chains), np.intp)
        if not k:  # the pinned face is the only facet, and a step moves nothing
            out[:] = base
            return out
        u = np.ascontiguousarray(np.moveaxis(u, 2, 0))  # (uniform, step, chain)
        slots = (u[0] * k).astype(np.intp) + np.arange(0, chains * k, k)
        flat = free.reshape(-1)
        row_at, first, size, cands, succ = (self.row_at, self.first, self.size, self.cands,
                                             self.succ)
        sums, total, per_row = self.sums, self.total, self.class_count
        for s in range(steps):
            slot = slots[s]
            at = row_at.take(base + flat.take(slot))
            below = sums.take(at, axis=0) <= (u[1, s] * total.take(at))[:, None]
            at = at * per_row + below.argmin(1)
            pick = first.take(at) + (u[2, s] * size.take(at)).astype(np.intp)
            flat.put(slot, cands.take(pick))
            base = out[s] = succ.take(pick)
        return out


def facet_table(slc: OneSidedSlice) -> FacetTable:
    """Compile the chain of ``slc`` from its enumeration (EnumerationCapError
    past ``ENUMERATION_CAP`` facets; the caller bounds the facet count).

    Row r = f * k + j removes ``free[f, j]``.  Its classes are the pools of
    the chain state at the face left, from the smallest occupied one up,
    with the kernel's sequential sums over the class weights, so a table
    step draws what the kernel draws.  Each candidate c leads to the facet
    whose free ids are the face's and c.
    """
    free = _free_ids(slc, _facet_ids(slc, ENUMERATION_CAP))
    width = len(slc.graph.global_adj)
    per_row = slc.graph.degree + 1
    pinned = [*slc.pinned_ids]
    base_of = {frozenset(ids): f * width for f, ids in enumerate(free.tolist())}
    row_at = np.zeros(len(free) * width, np.intp)
    sums: list[float] = []
    total: list[float] = []
    first: list[int] = []
    size: list[int] = []
    cands: list[int] = []
    succ: list[int] = []
    for ids, base in base_of.items():
        for v in sorted(ids):
            face = ids - {v}
            pools = [*dropwhile(not_, _make_state(slc, [*face, *pinned]).pools)]
            acc = [*accumulate(map(mul, map(len, pools), slc.class_weights))]
            row_at[base + v] = len(total)
            sums += acc + [np.inf] * (per_row - len(acc))
            total.append(acc[-1])
            for pool in pools + [[]] * (per_row - len(pools)):
                first.append(len(cands))
                size.append(len(pool))
                cands += pool
                succ += [base_of[face | {c}] for c in pool]
    runs = (np.array(run, np.intp) for run in (first, size, cands, succ))
    return FacetTable(width, free, per_row, row_at, np.array(sums).reshape(-1, per_row),
                      np.array(total), *runs)


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
    oracle_cap: int = 20_000  # TV against the exact law up to this many facets
    gap_cap: int = 512        # the exact chain's gap up to this many facets

    def __post_init__(self) -> None:
        if self.steps < 0:
            raise ValueError("steps must be nonnegative")
        if self.burn_in is not None and self.burn_in < 0:
            raise ValueError("burn_in must be nonnegative")
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
    the exact chain's spectral gap whenever the slice's facets fit the
    oracle's cap.  One enumeration, within the larger cap, feeds both.
    Deterministic given (slice, config, initial).
    """
    state = initial or greedy_initial_state(slc, rng_stream(config.seed, 0))
    burn_in = config.steps // 2 if config.burn_in is None else config.burn_in
    thinning = config.thinning if config.thinning is not None else max(1, slc.free_size)
    rand = UniformBuffer(rng_stream(config.seed, 1)).next
    lazy = config.lazy
    samples = []
    member = state.member
    ref = [*state.free, *slc.pinned_ids]  # the starting facet
    series: list[int] = []
    kernel = state.kernel
    done = 0
    for t in range(burn_in + thinning, config.steps + 1, thinning):
        kernel(slc, state, rand, t - done, lazy)
        done = t
        samples.append(state.facet())
        series.append(sum(member[v] for v in ref))
    kernel(slc, state, rand, config.steps - done, lazy)
    state.steps += config.steps
    if not samples:
        samples = [state.facet()]
    tv = gap = None
    law = _law_within(slc, max(config.oracle_cap, config.gap_cap))
    if law is not None:
        facets, logw, probs = law
        if len(facets) <= config.oracle_cap:
            tv = _oracle_tv(slc, samples, facets, probs)
        if len(facets) <= config.gap_cap:
            p = _transition_matrix(slc, facets, logw)
            gap = spectral_gap(0.5 * (np.eye(len(p)) + p) if lazy else p, probs)[2]
    auto = _lag1_autocorr(series)
    return samples, MixingReport(tv, gap, auto, len(samples), config.steps)


def _oracle_tv(slc: Slice, samples: Sequence, facets: list, probs: np.ndarray) -> float:
    counts = Counter(samples)
    hist = np.array([counts[slc.from_ids(f)] for f in facets], dtype=float)
    if hist.sum() != len(samples):
        raise SliceError("chain visited a facet outside the enumerated slice")
    return tv_distance(hist, probs)


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


def exact_transition_matrix(slc: Slice):
    """(facets, P, stationary) for the exact non-lazy down-up chain."""
    facets, logw, probs = _facet_weights(slc, ENUMERATION_CAP)
    return [slc.from_ids(f) for f in facets], _transition_matrix(slc, facets, logw), probs


def _transition_matrix(slc: Slice, facets: list, logw: np.ndarray) -> np.ndarray:
    """P of the exact non-lazy down-up chain on the enumerated id ``facets``.

    Built purely from the facet enumeration: facets are grouped by each
    codimension-1 face obtained by deleting a free element, and within a group
    the replacement law is the conditional of the slice weights ``logw``,
    taken relative to the group's heaviest facet so that no group underflows
    at extreme fugacity.
    """
    k_free = slc.free_size
    if k_free == 0:
        return np.ones((1, 1))
    groups: dict = {}
    for i, f in enumerate(facets):
        for sub in _codim1_faces(slc, f):
            groups.setdefault(sub, []).append(i)
    p = np.zeros((len(facets), len(facets)))
    for members in groups.values():
        w = np.exp(logw[members] - logw[members].max())
        cond = w / w.sum()
        for i in members:
            p[i, members] += cond / k_free
    return p


def _codim1_faces(slc: Slice, ids: tuple[int, ...]):
    """Each face left by deleting one free element of the facet ``ids``."""
    pinned = slc.pinned_ids
    for v in ids:
        if v not in pinned:
            yield tuple(u for u in ids if u != v)


def spectral_gap(p: np.ndarray, pi: np.ndarray):
    """(lambda2, lambda_star, gap) of a reversible row-stochastic matrix.

    The matrix is symmetrized by conjugating with diag(pi)^(1/2); a detailed
    balance violation beyond ``REVERSIBILITY_TOL`` raises.  Where pi
    underflows to 0 (a slice at extreme fugacity), an entry whose
    conjugation would divide by 0 is sqrt(P_ij P_ji) instead, the same entry
    of a reversible P.  ``gap`` is 1 - lambda2, the quantity that controls
    the lazy chain's mixing.  A stack of matrices (a leading axis on ``p``
    and ``pi``) is solved by one stacked ``eigvalsh`` call and gives three
    arrays, one entry per matrix.
    """
    flow = pi[..., :, None] * p
    if np.max(np.abs(flow - flow.swapaxes(-1, -2))) > REVERSIBILITY_TOL:
        raise ValueError("matrix is not reversible with respect to pi")
    root = np.sqrt(pi)
    scale = root[..., :, None] * root[..., None, :]
    if scale.all():
        sym = flow / scale
    else:
        sym = np.sqrt(p * p.swapaxes(-1, -2))
        np.divide(flow, scale, out=sym, where=scale != 0)
    vals = np.linalg.eigvalsh(sym)
    lam2 = vals[..., -2] if vals.shape[-1] > 1 else vals[..., -1]
    lam_star = np.maximum(lam2, np.abs(vals[..., 0]))
    if p.ndim == 2:
        return float(lam2), float(lam_star), 1.0 - float(lam2)
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
    """Sample stream line: sorted side-tagged indices, e.g. ``x3 x7 | y1 y4``,
    from equal blocks of global ids, one per entry of ``slc.stream_tags``."""
    tags = slc.stream_tags
    block = len(slc.graph.global_adj) // len(tags)
    sides: list[list[str]] = [[] for _ in tags]
    for v in sorted(slc.to_ids(facet)):
        sides[v // block].append(f"{tags[v // block]}{v % block}")
    return " | ".join(" ".join(side) for side in sides).strip()
