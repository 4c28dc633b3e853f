"""Counting: exact brute-force oracles and sampling-based estimators.

The estimators reduce counting to sampling through links: at each level a
down-up chain on the current pinned slice estimates the marginal of a heavy
vertex, the vertex is pinned (passing to its link), and the telescoping
product of inverse marginals gives the count.  The heavy vertex is the argmax
of pilot-estimated marginals; an averaging argument guarantees the true max
marginal is at least (level size)/(side size), so the pilot only needs
constant-factor accuracy.  Levels small enough for a facet table step
TABLE_REPLICAS replicas through it in lockstep (``FacetTable.advance``), each
started at an exact draw from the law the table carries (``FacetTable.draw``),
so every sample is stationary and no replica burns in.  A level whose table
splits into several communicating classes takes the exact marginal from that
law instead: replicas never cross between classes, so they cannot weigh the
classes.  Larger levels run REPLICAS replicas from greedy facets, burn in,
and are sampled unchecked.  Either way a phase draws its starts from one
stream and its steps from another, read time-major, replica r reading
column r, so the two paths count the same samples from the same starts.

Exact oracles are kept deliberately independent of the estimators: the
partition function uses exact rational branch-and-bound, slice counts use
binomial convolution over one side, so estimator bugs cannot cancel.

All estimates are carried in log space; sums of positive terms use stable
log-sum-exp, and a positive linear combination of (1 +- eps)-accurate terms is
itself (1 +- eps)-accurate, so band terms are estimated at the full epsilon
with the confidence budget split across terms.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from statistics import NormalDist

import numpy as np

from .graphs import BipartiteRegularGraph
from .rng import rng_stream, uniform_blocks
from .slices import OneSidedSlice, Slice, SliceError, TwoSidedSlice, _law_within
from .walks import FacetTable, InitialStateError, facet_table, greedy_initial_state

LOG_ZERO = float("-inf")


class DegenerateBandError(ValueError):
    """beta <= alpha after clamping: the one-sided bands vanish."""


class InsufficientSamplesError(RuntimeError):
    """A level marginal came out nonpositive; increase the budget."""


@dataclass(frozen=True)
class ThresholdParams:
    """Occupancy thresholds separating the two-sided and one-sided regimes."""

    alpha: float
    beta: float

    def __post_init__(self) -> None:
        if not (0.0 < self.alpha < 1.0 and 0.0 < self.beta <= 1.0):
            raise ValueError("thresholds must lie in (0, 1]")
        if self.beta <= self.alpha:
            raise DegenerateBandError(
                "beta <= alpha: fugacity too small for a nonempty one-sided band")


def alpha_threshold(degree: int, gamma: float) -> float:
    """The occupancy threshold log(degree)/((2+gamma) degree)."""
    return math.log(degree) / ((2.0 + gamma) * degree)


def threshold_pair(degree: int, fugacity: float, gamma: float) -> tuple[float, float]:
    """(alpha, beta) = (alpha_threshold(degree, gamma), 4*fugacity), clamped to
    (0, 1]; the pair itself is validated by ThresholdParams."""
    if degree < 3:
        raise ValueError("degree must be at least 3")
    if fugacity <= 0:
        raise ValueError("fugacity must be positive")
    if gamma < 0:
        raise ValueError("gamma must be nonnegative")
    alpha = min(alpha_threshold(degree, gamma), 1.0 - 1e-12)
    return alpha, min(4.0 * fugacity, 1.0)


def thresholds(degree: int, fugacity: float, gamma: float = 0.1) -> ThresholdParams:
    """The validated default thresholds of a degree-``degree`` graph."""
    return ThresholdParams(*threshold_pair(degree, fugacity, gamma))


@dataclass(frozen=True)
class LevelTrace:
    """One telescoping level: the pinned vertex, its marginal, the chain
    samples behind it, and how it was decided: ``exact`` (the slice
    enumerates within EXACT_MARGINAL_CAP), ``reducible`` (its chain has more
    than one communicating class, so the marginal is enumerated instead of
    sampled) or ``sampled``.  ``burn_in`` is each replica's unsampled steps:
    0 on a sampled level whose replicas start from its law, and on exact
    and reducible levels, which run no chain."""

    pinned: tuple | int
    marginal: float
    samples: int
    method: str
    burn_in: int


@dataclass(frozen=True)
class TermRecord:
    """One term of the banded sum: its band, its k (one-sided) or (k_x, k_y)
    (two-sided), its log value with the term's scale, and the samples and
    levels of its estimate.  An infeasible two-sided term has log value -inf
    and no levels."""

    band: str
    k: tuple[int, int] | int
    value_log: float
    samples: int
    levels: tuple[LevelTrace, ...]


@dataclass(frozen=True)
class BandRecord:
    kind: str
    k_range: tuple[int, int]
    value_log: float
    samples: int
    terms: tuple[TermRecord, ...]


@dataclass(frozen=True)
class CountEstimate:
    """Point estimate in log space with its accuracy contract and audit trail."""

    log_value: float
    epsilon: float
    delta: float
    samples: int
    trace: tuple[LevelTrace, ...] = ()
    bands: tuple[BandRecord, ...] = ()
    seed: int = 0

    def __post_init__(self) -> None:
        _check_accuracy(self.epsilon, self.delta)
        for t in self.trace:
            if not (0.0 < t.marginal <= 1.0):
                raise ValueError("traced marginals must lie in (0, 1]")

    @property
    def value(self) -> float:
        return math.exp(self.log_value)


# Telescoping budget.  A level above the table cap burns in for CHAIN_SCALE *
# (free size) * (vertex count) * log(1/epsilon) steps.
CHAIN_SCALE = 20.0
# Independent chains pooled per level.  Above the table cap REPLICAS chains
# start from greedy facets, and pooling lets the pilot see more than one
# greedy basin.  On a table level TABLE_REPLICAS chains start at their own
# draws from the level's law and step in lockstep, one NumPy call a step for
# all of them: every sample is stationary and the down-up operator is
# positive semidefinite, so spreading a phase's samples over more chains,
# each as thinned, can only lower the estimate's variance.
REPLICAS = 4
TABLE_REPLICAS = 128
PILOT_FLOOR = 200
SAFETY = 3.0
THIN_SCALE = 2
# Levels whose pinned slice enumerates within this many facets use the exact
# conditional marginal instead of chain samples: this keeps tiny and possibly
# disconnected late links exact while leaving real state spaces to the sampler.
EXACT_MARGINAL_CAP = 32


def _check_accuracy(epsilon: float, delta: float) -> None:
    if not (0.0 < epsilon < 1.0 and 0.0 < delta < 1.0):
        raise ValueError("epsilon and delta must lie in (0, 1)")


def _z_quantile(delta: float) -> float:
    """Two-sided standard normal quantile."""
    return NormalDist().inv_cdf(1.0 - delta / 2.0)


# -- exact oracles -----------------------------------------------------------------

# Most vertices exact_partition accepts, and most k-subsets of X that
# exact_slice_count and exact_one_sided_partition enumerate.
EXACT_PARTITION_CAP = 40
EXACT_COUNT_CAP = 10 ** 6


def exact_partition(g, fugacity: float) -> float:
    """Exact hardcore partition function by rational branch-and-bound.

    Recursion on a highest-degree vertex v: Z(G) = Z(G - v) + fugacity *
    Z(G - N[v]), with connected components multiplied and memoized on the
    surviving vertex bitmask.  Arithmetic is exact over the rationals (any
    float fugacity is dyadic), converted to float only at the end.
    """
    adj = g.global_adj
    n = len(adj)
    if n > EXACT_PARTITION_CAP:
        raise ValueError(f"{n} vertices exceed the exact-partition cap {EXACT_PARTITION_CAP}")
    lam = Fraction(fugacity)
    masks = [0] * n
    for v, row in enumerate(adj):
        for u in row:
            masks[v] |= 1 << u
    memo: dict[int, Fraction] = {}

    def component_of(mask: int) -> int:
        start = (mask & -mask).bit_length() - 1
        comp = 1 << start
        frontier = [start]
        while frontier:
            v = frontier.pop()
            new = masks[v] & mask & ~comp
            while new:
                bit = new & -new
                comp |= bit
                frontier.append(bit.bit_length() - 1)
                new ^= bit
        return comp

    def z(mask: int) -> Fraction:
        if mask == 0:
            return Fraction(1)
        cached = memo.get(mask)
        if cached is not None:
            return cached
        comp = component_of(mask)
        if comp != mask:
            result = z(comp) * z(mask & ~comp)
        else:
            best, best_deg = -1, -1
            m = mask
            while m:
                bit = m & -m
                v = bit.bit_length() - 1
                deg = (masks[v] & mask).bit_count()
                if deg > best_deg:
                    best, best_deg = v, deg
                m ^= bit
            if best_deg == 0:
                result = (1 + lam) ** mask.bit_count()
            else:
                without = mask & ~(1 << best)
                result = z(without) + lam * z(without & ~masks[best])
        memo[mask] = result
        return result

    return float(z((1 << n) - 1))


def _uncovered_histogram(g: BipartiteRegularGraph, lo: int, hi: int) -> list[list[int]]:
    """h with h[a][u] the number of a-subsets S of X, lo <= a <= hi, that
    leave u = |Y \\ N[S]| vertices of Y uncovered; rows below lo are zero.

    One depth-first pass over the subsets of X carries N(S) as a bitmask over
    Y, built from each x's neighbour mask, so |N(S)| is one ``int.bit_count``.
    Each S is reached once, from S without its largest element, and a subset
    is extended only while it can still reach lo elements: the pass visits
    all 2^n subsets when lo = 0, and the C(n + 1, k) prefixes of k-subsets
    when lo = hi = k.
    """
    n = g.n_side
    masks = [sum(1 << j for j in row) for row in g.adj_x]
    hist = [[0] * (n + 1) for _ in range(hi + 1)]  # indexed by |N(S)| until the end
    if lo == 0:
        hist[0][0] = 1
    # (N(S), smallest index S may add, |S| + 1), with the children of S
    # counted when S is popped; a child is pushed only if it has children
    stack = [(0, 0, 1)] if 0 < hi and lo <= n else []
    pop, push = stack.pop, stack.append
    below = [0] * (n + 1)  # counts of the sizes below lo, dropped
    while stack:
        covered, start, size = pop()
        row = hist[size] if size >= lo else below
        stop = n - lo + size if lo > size else n  # room for the lo - size others
        if size < hi:
            size += 1
            for i in range(start, stop - 1):
                c = covered | masks[i]
                row[c.bit_count()] += 1
                push((c, i + 1, size))
            c = covered | masks[stop - 1]
            row[c.bit_count()] += 1
            if stop < n:
                push((c, stop, size))
        else:
            for m in masks[start:stop]:
                row[(covered | m).bit_count()] += 1
    return [row[::-1] for row in hist]


def _uncovered_row(g: BipartiteRegularGraph, k: int) -> list[int]:
    """Row k of ``_uncovered_histogram``, refused before the pass when X has
    more than EXACT_COUNT_CAP k-subsets.  Above half the side the k-subsets
    are enumerated by the n - k vertices they leave out, so the pass costs
    about C(n, k) (n + 1) / (k + 1) steps in place of C(n + 1, k)."""
    n = g.n_side
    if math.comb(n, k) > EXACT_COUNT_CAP:
        raise ValueError("enumeration cap exceeded")
    if 2 * k <= n or k > n:
        return _uncovered_histogram(g, k, k)[k]
    return _uncovered_by_exclusion(g, n - k)


def _uncovered_by_exclusion(g: BipartiteRegularGraph, m: int) -> list[int]:
    """h with h[u] the number of subsets S of X, all but m of its vertices,
    that leave u vertices of Y uncovered.

    One depth-first pass over the left-out sets E = {e_1 < ... < e_m}: N(S)
    is the union of the neighbour masks below e_1, between consecutive
    left-out vertices and above e_m.  A pass carries the union up to the
    next choice and reads the part above e_m from a suffix table.
    """
    n = g.n_side
    masks = [sum(1 << j for j in row) for row in g.adj_x]
    above = [0] * (n + 1)  # above[i]: the union of masks[i:]
    for i in range(n - 1, -1, -1):
        above[i] = above[i + 1] | masks[i]
    row = [0] * (n + 1)  # indexed by |N(S)| until the end
    if not m:
        row[above[0].bit_count()] = 1
    # (union of the masks below start, smallest vertex E may leave out next,
    # vertices left to leave out)
    stack = [(0, 0, m)] if m else []
    pop, push = stack.pop, stack.append
    while stack:
        covered, start, left = pop()
        if left == 1:
            for e in range(start, n):
                row[(covered | above[e + 1]).bit_count()] += 1
                covered |= masks[e]
            continue
        for e in range(start, n - left + 1):
            push((covered, e + 1, left - 1))
            covered |= masks[e]
    return row[::-1]


def exact_slice_count(g: BipartiteRegularGraph, k_x: int, k_y: int) -> int:
    """|{independent I : |I ∩ X| = k_x, |I ∩ Y| = k_y}| by one-side enumeration.

    X carries no internal edges, so every k_x-subset S of X is independent and
    contributes binom(|Y \\ N[S]|, k_y) completions.
    """
    return sum(c * math.comb(u, k_y) for u, c in enumerate(_uncovered_row(g, k_x)))


def exact_one_sided_partition(g: BipartiteRegularGraph, k: int, fugacity: float) -> float:
    """Sum of fugacity^k (1+fugacity)^{|Y \\ N[S]|} over k-subsets S of X.

    Each of the n+1 float weights is multiplied by its subset count and the
    products are summed as rationals, then rounded once: the correctly
    rounded sum of every subset's weight, as ``math.fsum`` over one weight
    per subset would give.
    """
    hist = _uncovered_row(g, k)
    weights = [fugacity ** k * (1.0 + fugacity) ** u for u in range(len(hist))]
    terms = [(c, w) for c, w in zip(hist, weights) if c]
    if all(math.isfinite(w) for _, w in terms):
        return float(sum(c * Fraction(w) for c, w in terms))
    return math.fsum(w for _, w in terms)  # an infinite or NaN weight decides the sum


def occupancy_profile(g: BipartiteRegularGraph, fugacity: float) -> np.ndarray:
    """Matrix W with W[a, b] = sum of fugacity^{a+b} over independent I with
    |I ∩ X| = a, |I ∩ Y| = b.  Row sums over b reproduce the one-sided Z_k."""
    n = g.n_side
    if n > 22:
        raise ValueError("profile enumeration limited to n_side <= 22")
    sizes = range(n + 1)
    hists = np.array(_uncovered_histogram(g, 0, n), dtype=np.int64)
    binom = np.array([[math.comb(u, b) for b in sizes] for u in sizes], dtype=np.int64)
    powers = fugacity ** np.arange(n + 1, dtype=float)
    return (hists @ binom) * np.outer(powers, powers)


# -- chain-based marginal estimation --------------------------------------------------


def _burn_in(slc: Slice, epsilon: float) -> int:
    verts = len(slc.graph.global_adj)
    return int(CHAIN_SCALE * max(1, slc.free_size) * verts
               * max(1.0, math.log(1.0 / epsilon)))


def _membership_counts(slc: Slice, n_samples: int, seed: int, path: tuple[int, ...],
                       table: FacetTable | None, burn: int):
    """Pool thinned membership indicators from independent replicas.

    Returns (counts, n_collected); counts index free vertices by global id.
    The replicas take their starts from the one stream (seed, *path, 0), in
    replica order, and their steps from the one stream (seed, *path, 1),
    drawn time-major in ``rng.uniform_blocks``: step t of replica r reads
    the uniforms at (t, r).  With the slice's facet ``table``,
    TABLE_REPLICAS replicas start at ``FacetTable.draw`` and step in
    lockstep through ``FacetTable.advance``, and the samples are counted per
    facet.  Without one, REPLICAS replicas start at greedy facets and each
    runs the kernel on its own column, ``burn`` unsampled steps first.  Both
    replay the same kernel on the same uniforms, so at equal replica counts
    and equal starts they count the same samples.
    """
    reps = REPLICAS if table is None else TABLE_REPLICAS
    per = (n_samples + reps - 1) // reps
    k = slc.free_size
    thin = max(1, THIN_SCALE * k)
    unit = 3 if slc.coverage_weighted else 2
    start, rng = rng_stream(seed, *path, 0), rng_stream(seed, *path, 1)
    # a state with nothing free draws nothing, and its samples count no member
    blocks = uniform_blocks(rng, unit * reps * (burn + per * thin) if k else 0, unit * reps)
    counts = np.zeros(len(slc.graph.global_adj), dtype=np.int64)
    done = 0
    if table is not None:
        facets = table.draw(start, reps)
        free = np.array(table.free_ids, np.intp)[facets]
        base = facets * table.width
        sampled = []
        for u in blocks:
            bases = table.advance(free, base, u.reshape(-1, reps, unit))
            sampled.append(bases[_first_sample(done, burn, thin)::thin])
            base = bases[-1]
            done += len(bases)
        if sampled:
            hist = np.bincount(np.concatenate(sampled).ravel() // table.width,
                               minlength=len(table.free_ids))
            counts += hist @ table.incidence
        return counts, per * reps
    states = [greedy_initial_state(slc, start) for _ in range(reps)]
    for u in blocks:
        u = u.reshape(-1, reps, unit)
        samples = range(_first_sample(done, burn, thin), len(u), thin)
        for r, state in enumerate(states):
            rand = iter(u[:, r].ravel().tolist()).__next__
            at = 0
            for t in samples:
                state.kernel(slc, state, rand, t + 1 - at, False)
                at = t + 1
                counts[state.free] += 1
            state.kernel(slc, state, rand, len(u) - at, False)
        done += len(u)
    return counts, per * reps


def _first_sample(done: int, burn: int, thin: int) -> int:
    """Offset, in a block of steps after ``done`` earlier ones, of the first
    step a sample follows: the samples follow steps burn + thin, burn + 2
    thin, ... (counted from 1)."""
    at = max(done, burn + thin - 1)
    return at + (burn + thin - 1 - at) % thin - done


def _exact_marginal(slc: Slice):
    """(argmax global id, exact marginal) from the conditional enumerated
    within EXACT_MARGINAL_CAP facets, or None."""
    law = _law_within(slc, EXACT_MARGINAL_CAP)
    return None if law is None else _argmax_marginal(slc, map(slc.to_ids, law[0]), law[2])


def _argmax_marginal(slc: Slice, facet_ids, probs):
    """(argmax free global id, marginal) under the law ``probs`` of the
    facets whose ids are ``facet_ids``, summed facet by facet."""
    marg = np.zeros(len(slc.graph.global_adj))
    pinned = slc.pinned_ids
    for ids, p in zip(facet_ids, probs):
        for v in ids:
            if v not in pinned:
                marg[v] += p
    # Marginals that are equal in exact arithmetic can differ in their last
    # bits; comparing them on a 2**-40 grid lets such ties go to the lowest id.
    v = int(np.argmax(np.floor(marg * 2 ** 40)))
    return v, float(marg[v])


def _trace_label(slc: Slice, v: int):
    """Traced name of global id ``v``: (part index, offset in the part) on a
    slice of several parts, such as (0, i) for X and (1, j) for Y on a
    two-sided slice; the id itself on a slice of one part."""
    if len(slc.parts) == 1:
        return v
    p = slc.part_of[v]
    return p, v - slc.parts[p][0]


def _telescope_log(slc: Slice, epsilon: float, per_level_z2: float, seed: int,
                   rep: int):
    """One telescoping pipeline: returns (log of prod 1/p_hat, trace, samples, final slice)."""
    levels = slc.free_size
    log_value = 0.0
    trace: list[LevelTrace] = []
    total = 0
    lo, hi, _ = slc.parts[0]
    n = hi - lo  # the side size, or the vertex count of a regular graph
    for level in range(levels):
        method, table, burn = "exact", None, 0
        exact = _exact_marginal(slc)
        if exact is None:
            table = facet_table(slc)
            if table is not None and table.classes() > 1:
                # chains started in different classes never meet, so samples
                # would weigh each class by where its replicas started
                method, exact = "reducible", _argmax_marginal(slc, table.free_ids,
                                                              table.probs)
        if exact is not None:
            v, p_hat = exact
            got = 0
        else:
            method = "sampled"
            # a level that enumerates starts each replica at a draw from its
            # law, so it needs no burn-in; a larger one burns in from a greedy facet
            burn = _burn_in(slc, epsilon) if table is None else 0
            pilot_n = max(PILOT_FLOOR, math.ceil(10 * n * math.log(max(2, n))))
            counts, pilot_got = _membership_counts(slc, pilot_n, seed, (rep, level, 0),
                                                   table, burn)
            # argmax takes the first maximum, so ties go to the lowest id
            v = int(np.argmax(counts))
            if counts[v] <= 0:
                raise InsufficientSamplesError("pilot saw no facet members")
            p_pilot = min(1.0 - 1e-12, max(int(counts[v]) / pilot_got, 1.0 / (4.0 * n)))
            need = math.ceil(SAFETY * per_level_z2 * levels
                             * (1.0 / p_pilot - 1.0) / (epsilon * epsilon))
            need = max(need, 64)
            counts, got = _membership_counts(slc, need, seed, (rep, level, 1), table,
                                             burn)
            hits = int(counts[v])
            if hits <= 0:
                raise InsufficientSamplesError(
                    f"marginal estimate for vertex {_trace_label(slc, v)} came out zero")
            p_hat = hits / got
            total += got + pilot_got
            # second-order bias correction for E[1/p_hat] = (1/p)(1 + (1-p)/(pN))
            log_value -= math.log1p((1.0 - p_hat) / hits)
        log_value -= math.log(p_hat)
        trace.append(LevelTrace(_trace_label(slc, v), p_hat, got, method, burn))
        slc = slc.with_face(slc.from_ids((v,)))
    return log_value, trace, total, slc


def _repetitions(delta: float) -> int:
    # z-budgeted single pipelines already scale like log(1/delta) through
    # z(delta)^2; the median-of-means fallback is for extreme confidence only
    if delta >= 1e-3:
        return 1
    return math.ceil(12.0 * math.log(1.0 / delta))


def _estimate(slc: Slice, epsilon: float, delta: float, seed: int) -> CountEstimate:
    """Median over repetitions of the telescoped log value, each closed by the
    log weight of its fully pinned final slice."""
    _check_accuracy(epsilon, delta)
    reps = _repetitions(delta)
    z2 = _z_quantile(delta) ** 2 if reps == 1 else _z_quantile(0.25) ** 2
    runs = []
    for rep in range(reps):
        log_v, trace, total, final = _telescope_log(slc, epsilon, z2, seed, rep)
        runs.append((log_v + final.log_weight(final.from_ids(final.pinned_ids)), trace, total))
    runs.sort(key=lambda r: r[0])
    mid = runs[len(runs) // 2]
    samples = sum(r[2] for r in runs)
    return CountEstimate(mid[0], epsilon, delta, samples, tuple(mid[1]), seed=seed)


def estimate_two_sided_count(g: BipartiteRegularGraph, k_x: int, k_y: int,
                             epsilon: float, delta: float, seed: int) -> CountEstimate:
    """Estimate the number of independent sets with the given side sizes.

    Telescopes over links: pin the pilot-argmax vertex, estimate its marginal
    by pooled down-up chains, multiply the inverse marginals; the empty base
    face contributes one.  Meets the (epsilon, delta) contract via z-budgeted
    per-level sampling (median over repetitions when delta < 1e-3).
    """
    return _estimate(TwoSidedSlice(g, k_x, k_y), epsilon, delta, seed)


def estimate_one_sided_partition(g: BipartiteRegularGraph, k: int, fugacity: float,
                                 epsilon: float, delta: float, seed: int) -> CountEstimate:
    """Estimate Z_k = sum over k-subsets S of X of fugacity^k (1+fugacity)^{|Y\\N[S]|}.

    Same telescoping as the two-sided count; the fully pinned base case is
    evaluated exactly by the closed-form weight.
    """
    slc = OneSidedSlice(g, k, fugacity)
    if k == g.n_side:
        return CountEstimate(slc.log_weight(range(g.n_side)),
                             epsilon, delta, 0, seed=seed)
    return _estimate(slc, epsilon, delta, seed)


def _mirror(g: BipartiteRegularGraph) -> BipartiteRegularGraph:
    return BipartiteRegularGraph(g.n_side, g.degree, g.adj_y, g.adj_x)


def _logsumexp(values) -> float:
    finite = [v for v in values if v != LOG_ZERO]
    if not finite:
        return LOG_ZERO
    m = max(finite)
    return m + math.log(math.fsum(math.exp(v - m) for v in finite))


def _band_caps(n: int, thr: ThresholdParams) -> tuple[int, int]:
    """(a_cap, b_cap): the two-sided grid takes each side occupancy up to
    a_cap, the one-sided bands take a_cap < k <= b_cap."""
    return math.floor(thr.alpha * n), math.floor(thr.beta * n)


def _banded_terms(g: BipartiteRegularGraph, fugacity: float, thr: ThresholdParams,
                  seed: int) -> list[tuple[str, tuple[int, int] | int, Slice, float, int]]:
    """The terms of the banded sum as (band, k, slice, log scale, seed), in
    estimation order: the two-sided grid row by row, with k = (k_x, k_y) and
    scaled by fugacity^{k_x+k_y}, then the X band and the Y band (on the
    mirrored graph), whose slices carry their own weights."""
    a_cap, b_cap = _band_caps(g.n_side, thr)
    log_lam = math.log(fugacity)
    grid = [(kx, ky) for kx in range(a_cap + 1) for ky in range(a_cap + 1)]
    terms = [("two-sided", (kx, ky), TwoSidedSlice(g, kx, ky), (kx + ky) * log_lam,
              seed + 1000003 * (t + 1)) for t, (kx, ky) in enumerate(grid)]
    for side, (band, graph) in enumerate((("one-sided-x", g), ("one-sided-y", _mirror(g)))):
        terms += [(band, k, OneSidedSlice(graph, k, fugacity), 0.0,
                   seed + 2000003 * (t + 1) + side)
                  for t, k in enumerate(range(a_cap + 1, b_cap + 1))]
    return terms


def estimate_partition_hat(g: BipartiteRegularGraph, fugacity: float,
                           epsilon: float, delta: float, seed: int,
                           thr: ThresholdParams) -> CountEstimate:
    """Banded approximation to the partition function, estimated term by term.

    Three bands: the two-sided grid k_x, k_y <= floor(alpha n); the X-side
    one-sided band floor(alpha n) < k <= floor(beta n); the mirrored Y-side
    band.  Sets heavy on both sides in the band are double counted by
    construction; that discrepancy is part of the approximation, not corrected
    here, and is the second value of ``exact_partition_hat``.

    Each term is estimated at the full epsilon (positive sums preserve
    relative error) with the confidence budget split evenly across terms.
    An infeasible two-sided slice contributes zero.  Each band record holds
    its terms' records, in estimation order.
    """
    _check_accuracy(epsilon, delta)
    if not fugacity > 0:
        raise ValueError("fugacity must be positive")
    terms = _banded_terms(g, fugacity, thr, seed)
    a_cap, b_cap = _band_caps(g.n_side, thr)
    k_ranges = {"two-sided": (0, a_cap), "one-sided-x": (a_cap + 1, b_cap),
                "one-sided-y": (a_cap + 1, b_cap)}
    results: dict[str, list[TermRecord]] = {band: [] for band in k_ranges}
    for band, k, slc, log_scale, term_seed in terms:
        try:
            est = _estimate(slc, epsilon, delta / len(terms), term_seed)
            term = TermRecord(band, k, est.log_value + log_scale, est.samples, est.trace)
        except (InitialStateError, SliceError):  # an infeasible two-sided slice
            term = TermRecord(band, k, LOG_ZERO, 0, ())
        results[band].append(term)
    bands = tuple(BandRecord(band, k_ranges[band], _logsumexp(t.value_log for t in r),
                             sum(t.samples for t in r), tuple(r))
                  for band, r in results.items())
    return CountEstimate(_logsumexp([b.value_log for b in bands]), epsilon, delta,
                         sum(b.samples for b in bands), bands=bands, seed=seed)


def exact_partition_hat(g: BipartiteRegularGraph, fugacity: float,
                        thr: ThresholdParams) -> tuple[float, float]:
    """(exact banded approximation, exact double-counted band weight).

    The first value is what the banded estimator targets; the second is the
    weight of sets with both side occupancies inside (alpha, beta], which the
    construction counts twice.
    """
    w = occupancy_profile(g, fugacity)
    a_cap, b_cap = _band_caps(g.n_side, thr)
    t1 = float(w[: a_cap + 1, : a_cap + 1].sum())
    t2 = float(w[a_cap + 1: b_cap + 1, :].sum())
    t3 = float(w[:, a_cap + 1: b_cap + 1].sum())
    double = float(w[a_cap + 1: b_cap + 1, a_cap + 1: b_cap + 1].sum())
    return t1 + t2 + t3, double
