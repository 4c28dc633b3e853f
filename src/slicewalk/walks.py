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
class and then a uniform member of it.  A kernel is one loop over a given
number of (optionally lazy) steps, called once per sample interval.  One
pool builder, ``_pools``, makes pools from counters; kernels update them.

Slices whose facet count times free size stays within ``TABLE_ROW_CAP`` rows
(checked first against a binomial bound, so large slices never enumerate)
can be compiled into a ``FacetTable``: for every facet and free element, the
pool builder makes the pools of the face left without it, stored with the
class sums and each candidate's successor facet.  A table step is a row
lookup and the same uniform draws, replaying the kernel bit for bit.  The
estimator runs each chain as one ``FacetTable.histogram`` call, drawing its
uniforms in blocks of at most ``rng.BLOCK`` floats (the stream of
``UniformBuffer``) with each block's removal slots computed in NumPy.  The
table carries its facets' law, from the same enumeration, and starts each
chain at an exact draw from it (``FacetTable.draw``), so the chain needs no
burn-in.  The lockstep escape-time experiment steps through tables too.

Exact transition matrices are assembled from the facet enumeration alone
(grouping facets by shared codimension-1 faces), deliberately not reusing the
stepping code, so the two implementations check each other.  One exact-law
query (``slices._law_within``) feeds both oracles of ``run_chain``.
"""
from __future__ import annotations

from bisect import bisect_left, bisect_right, insort
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate, dropwhile
from operator import mul, not_
from typing import Callable, Iterable, Sequence

import numpy as np

from .rng import UniformBuffer, rng_stream, uniform_blocks
from .slices import (ENUMERATION_CAP, OneSidedSlice, Slice, SliceError, _facet_bound,
                     _facet_weights, _law_within, greedy_facet)

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

    ``pools`` are sorted lists of the replacement candidates, updated only
    where a step changes coverage.  For the uniform kernel there is one per
    part: its non-members with zero cover.  For the one-sided kernel
    ``unc[x]`` counts the uncovered neighbours of each X vertex, and
    ``pools[e]`` lists the non-members with ``unc = e``.  ``kernel(slc,
    state, rand, steps, lazy)`` runs steps, or none when nothing is free.
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
    member, cover, unc = _counts(slc, ids)
    if any(cover[v] for v in ids):
        raise SliceError("facet is not an independent set")
    pinned = slc.pinned_ids
    free = [v for v in ids if v not in pinned]
    kernel = _kernel_one_sided if slc.coverage_weighted else _kernel_uniform
    return ChainState(slc, free, member, cover, _pools(slc, member, cover, unc), unc,
                      kernel if free else _stay)


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


def _pools(slc: Slice, member: list[bool], cover: list[int], unc: list[int]):
    """The sorted candidate pools of the facet or face flagged by ``member``:
    per part, the non-members with zero cover (``_part_pool``); on a
    coverage-weighted slice, per uncovered count e = 0..degree, the
    non-members with ``unc = e``."""
    if not slc.coverage_weighted:
        return [_part_pool(member, cover, lo, hi) for lo, hi, _ in slc.parts]
    pools: list[list[int]] = [[] for _ in range(slc.graph.degree + 1)]
    for x in range(slc.graph.n_side):
        if not member[x]:
            pools[unc[x]].append(x)
    return pools


def _part_pool(member: list[bool], cover: list[int], lo: int, hi: int) -> list[int]:
    return [v for v in range(lo, hi) if not member[v] and cover[v] == 0]


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
    return _make_state(slc, facet)


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
    """``steps`` steps replacing a uniform free slot by a uniform member of
    its part's pool (the removed vertex included): the kernel of every
    independent-set slice with part quotas.  A step draws the lazy coin when
    ``lazy`` (it stays below 1/2), then the removal slot and the pool index.
    """
    adj = slc.graph.global_adj
    part_of = slc.part_of
    free, member, cover, pools = state.free, state.member, state.cover, state.pools
    k = len(free)
    for _ in range(steps):
        if lazy and rand() < 0.5:
            continue
        pos = int(rand() * k)
        v = free[pos]
        member[v] = False
        for u in adj[v]:
            c = cover[u] - 1
            cover[u] = c
            if not c:
                insort(pools[part_of[u]], u)
        pool = pools[part_of[v]]
        insort(pool, v)
        v = pool.pop(int(rand() * len(pool)))
        member[v] = True
        for u in adj[v]:
            c = cover[u] + 1
            cover[u] = c
            if c == 1:
                pool = pools[part_of[u]]
                del pool[bisect_left(pool, u)]
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

# Slices whose facets times free elements may exceed this many rows step
# through the kernels instead of a compiled table.
TABLE_ROW_CAP = 20_000


@dataclass(eq=False)
class FacetTable:
    """The down-up chain of an enumerated slice, one row per (facet, free id).

    ``free_ids[f]`` lists facet f's free ids in increasing order and
    ``index`` maps the bitmask of a facet's free ids to f.  Facet f's rows
    start at base ``f * width`` in ``rows``; free id v has row ``f * width +
    v``, holding the candidate pools of the face left when v is removed.  A
    uniform row is (cands, succ): the candidates in pool order and the base
    of the facet each one leads to.  A ``weighted`` (one-sided) row is (acc,
    total, classes) with the kernel's class sums and one (cands, succ) pair
    per weight class from the smallest occupied one.  ``probs[f]`` is facet
    f's probability under the slice's law and ``acc`` their running sums.
    """

    width: int
    free_ids: list[tuple[int, ...]]
    index: dict[int, int]
    rows: list
    weighted: bool
    probs: np.ndarray
    acc: list[float]

    def start(self, free: Sequence[int]) -> int:
        """Row base of the facet whose free ids are ``free``."""
        return self.index[_id_mask(free)] * self.width

    def draw(self, rng: np.random.Generator) -> list[int]:
        """The free ids, in stepping order, of a facet drawn from the slice's
        law with one uniform u of ``rng``: the first facet whose running sum
        exceeds u times the total.  A chain started there is stationary from
        its first step."""
        return list(self.free_ids[bisect_right(self.acc, rng.random() * self.acc[-1])])

    def histogram(self, rng: np.random.Generator, free: list[int], count: int,
                  thinning: int) -> np.ndarray:
        """Facet counts of ``count`` samples, one every ``thinning`` non-lazy
        steps, of the chain started at the facet whose free ids are ``free``
        in a chain state's stepping order.

        ``free`` is updated in place, and the uniforms are drawn from ``rng``
        in ``rng.uniform_blocks``, two a step (three on a weighted table): the
        same uniforms in the same order as ``_step`` on ``rng``, so the
        ``free`` sequence, the samples and the generator's next uniform are
        those of the pool kernel.  The removal slots of a block are computed
        at once, ``(u * k).astype(np.intp)`` being ``int(u * k)``.
        """
        rows = self.rows
        hist = [0] * len(rows)  # indexed by row base
        base = self.start(free)
        k = len(free)
        steps = count * thinning if k else 0
        if not k:  # the pinned face is the only facet, and a step draws nothing
            hist[base] = count
        unit = 3 if self.weighted else 2
        left = thinning  # steps to the next sample
        for u in uniform_blocks(rng, unit * steps, unit):
            slots = (u[0::unit] * k).astype(np.intp).tolist()
            if self.weighted:
                for pos, u_class, u_at in zip(slots, u[1::3].tolist(), u[2::3].tolist()):
                    acc, total, classes = rows[base + free[pos]]
                    cands, succ = classes[bisect_right(acc, u_class * total)]
                    at = int(u_at * len(cands))
                    free[pos] = cands[at]
                    base = succ[at]
                    left -= 1
                    if not left:
                        hist[base] += 1
                        left = thinning
            else:
                for pos, u_at in zip(slots, u[1::2].tolist()):
                    cands, succ = rows[base + free[pos]]
                    at = int(u_at * len(cands))
                    free[pos] = cands[at]
                    base = succ[at]
                    left -= 1
                    if not left:
                        hist[base] += 1
                        left = thinning
        return np.array(hist[::self.width], dtype=np.int64)

    @cached_property
    def incidence(self) -> np.ndarray:
        """(facets, width) 0/1 integer matrix of free membership, built once."""
        out = np.zeros((len(self.free_ids), self.width), dtype=np.int64)
        for f, ids in enumerate(self.free_ids):
            out[f, list(ids)] = 1
        return out

    def classes(self) -> int:
        """Number of communicating classes.  The chain is reversible, so
        they are the connected components of the successor lists."""
        width = self.width
        seen = [False] * len(self.free_ids)
        count = 0
        for root in range(len(seen)):
            if seen[root]:
                continue
            count += 1
            seen[root] = True
            stack = [root]
            while stack:
                f = stack.pop()
                for v in self.free_ids[f]:
                    row = self.rows[f * width + v]
                    for _, succ in (row[2] if self.weighted else (row,)):
                        for g in {b // width for b in succ}:
                            if not seen[g]:
                                seen[g] = True
                                stack.append(g)
        return count


def _id_mask(ids: Iterable[int]) -> int:
    mask = 0
    for v in ids:
        mask |= 1 << v
    return mask


def _draw(cands: list[int], base_of: dict[int, int], rest: int):
    """(cands, succ) for a row: the candidates, and the row base of the facet
    each completes when added to the free ids in the bitmask ``rest``."""
    return tuple(cands), tuple([base_of[rest | 1 << c] for c in cands])


def facet_table(slc: Slice) -> FacetTable | None:
    """Compile the chain and the law of ``slc``, or None when the facet bound
    times the free size exceeds ``TABLE_ROW_CAP`` rows (decided before any
    enumeration) or the slice has no facet.

    The facets and their probabilities come from one enumeration.  The
    counts of each facet are made once.  For each free id v only those
    that change when v leaves are adjusted, and the chain state's pool
    builder turns them into the pools of the face: v's part on a uniform row,
    every class on a weighted one.
    """
    if _facet_bound(slc)[0] * max(1, slc.free_size) > TABLE_ROW_CAP:
        return None
    try:
        facets, _, probs = _facet_weights(slc, TABLE_ROW_CAP)
    except SliceError:  # no facet
        return None
    adj = slc.graph.global_adj
    width = len(adj)
    pinned = slc.pinned_ids
    free_ids = [tuple(v for v in slc.to_ids(f) if v not in pinned) for f in facets]
    index = {_id_mask(ids): f for f, ids in enumerate(free_ids)}
    # one int object per base, shared by every successor list
    base_of = {mask: f * width for mask, f in index.items()}
    rows: list = [None] * (len(facets) * width)
    weighted = slc.coverage_weighted
    part_of = slc.part_of
    for f, facet in enumerate(facets):
        member, cover, unc = _counts(slc, slc.to_ids(facet))
        mask = _id_mask(free_ids[f])
        for v in free_ids[f]:
            face_member, face_cover, face_unc = member.copy(), cover.copy(), unc.copy()
            face_member[v] = False
            for u in adj[v]:
                face_cover[u] -= 1
                if weighted and not face_cover[u]:
                    for x in adj[u]:
                        face_unc[x] += 1
            rest = mask ^ (1 << v)
            if weighted:  # the classes from the smallest occupied one
                classes = list(dropwhile(not_, _pools(slc, face_member, face_cover, face_unc)))
                acc = [*accumulate(map(mul, map(len, classes), slc.class_weights))]
                rows[f * width + v] = (acc, acc[-1], [_draw(p, base_of, rest) for p in classes])
            else:
                lo, hi, _ = slc.parts[part_of[v]]
                rows[f * width + v] = _draw(_part_pool(face_member, face_cover, lo, hi),
                                            base_of, rest)
    return FacetTable(width, free_ids, index, rows, weighted, probs,
                      [*accumulate(probs.tolist())])


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
            tv = _oracle_tv(samples, facets, probs)
        if len(facets) <= config.gap_cap:
            p = _transition_matrix(slc, facets, logw)
            gap = spectral_gap(0.5 * (np.eye(len(p)) + p) if lazy else p, probs)[2]
    auto = _lag1_autocorr(series)
    return samples, MixingReport(tv, gap, auto, len(samples), config.steps)


def _oracle_tv(samples: Sequence, facets: list, probs: np.ndarray) -> float:
    counts: dict = {}
    for f in samples:
        counts[f] = counts.get(f, 0) + 1
    hist = np.array([counts.get(f, 0) for f in facets], dtype=float)
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
    return facets, _transition_matrix(slc, facets, logw), probs


def _transition_matrix(slc: Slice, facets: list, logw: np.ndarray) -> np.ndarray:
    """P of the exact non-lazy down-up chain on the enumerated ``facets``.

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


def _codim1_faces(slc: Slice, facet):
    """Each face left by deleting one free element, as a tuple of global ids."""
    ids = slc.to_ids(facet)
    pinned = slc.pinned_ids
    for v in ids:
        if v not in pinned:
            yield tuple(u for u in ids if u != v)


def spectral_gap(p: np.ndarray, pi: np.ndarray):
    """(lambda2, lambda_star, gap) of a reversible row-stochastic matrix.

    The matrix is symmetrized by conjugating with diag(pi)^(1/2); a detailed
    balance violation beyond ``REVERSIBILITY_TOL`` raises.  ``gap`` is
    1 - lambda2, the quantity that controls the lazy chain's mixing.  A
    stack of matrices (a leading axis on ``p`` and ``pi``) is solved by one
    stacked ``eigvalsh`` call and gives three arrays, one entry per matrix.
    """
    flow = pi[..., :, None] * p
    if np.max(np.abs(flow - flow.swapaxes(-1, -2))) > REVERSIBILITY_TOL:
        raise ValueError("matrix is not reversible with respect to pi")
    root = np.sqrt(pi)
    sym = flow / (root[..., :, None] * root[..., None, :])
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
