"""Counting: exact brute-force oracles and sampling-based estimators.

The estimators count by sequential Monte Carlo over X-sets, with Y
integrated out (Del Moral, Doucet & Jasra 2006).  With u(S) = |Y \\ N(S)|
the Y vertices an X-set S leaves uncovered, N(k_x, k_y) = C(n, k_x)
E[C(u(S), k_y)] and Z_k = fugacity^k C(n, k) E[(1+fugacity)^u(S)], both over
uniform k-subsets S of X.  A particle is an X-set.  One particle system runs
along a two-sided row, from exact uniform k_x-subsets at k_y = 0 up, each
step reweighting the particles; another runs up a one-sided band, from the
empty set at k = 0, each step adding a uniform vertex outside S.  The
product of a run's mean weights is an unbiased estimate of every cell it
passes.  When the weights' effective sample size falls below ESS_FRACTION
of the particles, the run resamples them and rejuvenates each with a few
steps of the slice's own down-up kernel, which leaves the cell's law
invariant, so the estimate stays unbiased however well the kernel mixes.  A
pilot run measures the weights' summed relative variance, which sets the
particle count of the main run.

Exact oracles are kept deliberately independent of the estimators: the
partition function uses exact rational branch-and-bound, slice counts use
binomial convolution over one side, so estimator bugs cannot cancel.

All estimates are carried in log space; sums of positive terms use stable
log-sum-exp.  The relative sd of a sum of positive terms is at most the
largest relative sd of a term, so every system of the banded sum runs at the
full epsilon and delta.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from statistics import NormalDist

import numpy as np

from .graphs import BipartiteRegularGraph
from .rng import UniformBuffer, rng_stream
from .slices import OneSidedSlice, TwoSidedSlice
from .walks import _make_state

LOG_ZERO = float("-inf")
# The slack gamma of the occupancy threshold log(degree)/((2+gamma) degree)
# when the caller gives none.
GAMMA = 0.1


class DegenerateBandError(ValueError):
    """beta <= alpha after clamping: the one-sided bands vanish."""


class InsufficientSamplesError(RuntimeError):
    """Every particle of the cell an estimate reads carries weight 0: the
    particles met none of its sets."""


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


def thresholds(degree: int, fugacity: float, gamma: float = GAMMA) -> ThresholdParams:
    """The validated default thresholds of a degree-``degree`` graph."""
    return ThresholdParams(*threshold_pair(degree, fugacity, gamma))


@dataclass(frozen=True)
class SystemRecord:
    """One particle system: a two-sided row, whose cells are k_y = 0..``top``
    at its ``k_x``, or a one-sided band, whose cells are k = 0..``top`` (its
    k_x is None).  ``particles`` is the main run's count, sized from
    ``relvar``, the pilot's largest summed per-epoch relative variance of the
    weights over the cells.  ``resamplings`` and ``steps`` count both runs'
    rejuvenations and their kernel steps, and ``samples`` the X-sets both
    drew: their particles, and each particle a rejuvenation moved."""

    band: str
    k_x: int | None
    top: int
    particles: int
    relvar: float
    resamplings: int
    steps: int
    samples: int


@dataclass(frozen=True)
class TermRecord:
    """One term of the banded sum: its band, its k (one-sided) or (k_x, k_y)
    (two-sided), and its log value with the term's scale.  A term whose
    every particle carries weight 0 has log value -inf."""

    band: str
    k: tuple[int, int] | int
    value_log: float


@dataclass(frozen=True)
class BandRecord:
    kind: str
    k_range: tuple[int, int]
    value_log: float
    samples: int
    terms: tuple[TermRecord, ...]


@dataclass(frozen=True)
class CountEstimate:
    """Point estimate in log space with its accuracy contract and audit trail:
    one record per particle system in ``trace``."""

    log_value: float
    epsilon: float
    delta: float
    samples: int
    trace: tuple[SystemRecord, ...] = ()
    bands: tuple[BandRecord, ...] = ()
    seed: int = 0

    def __post_init__(self) -> None:
        _check_accuracy(self.epsilon, self.delta)

    @property
    def value(self) -> float:
        return math.exp(self.log_value)


# A particle system resamples and rejuvenates its particles when their
# effective sample size falls below ESS_FRACTION of their count; each
# rejuvenation runs MOVE_SCALE * (free size) kernel steps on every particle.
# The pilot that sizes a system runs PARTICLE_FLOOR particles, and so does
# at least its main run.
ESS_FRACTION = 0.5
MOVE_SCALE = 2
PARTICLE_FLOOR = 512

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


# -- particle systems ---------------------------------------------------------------


def _uncovered(g: BipartiteRegularGraph, sets: np.ndarray) -> np.ndarray:
    """Flags of Y \\ N(S) for each set S of X ids, one row per row of ``sets``."""
    count = len(sets)
    bare = np.ones((count, g.n_side), bool)
    bare[np.arange(count)[:, None], np.array(g.adj_x, np.intp)[sets].reshape(count, -1)] = False
    return bare


class _RowParticles:
    """The particles of a two-sided row: k_x-subsets S of X, each with u =
    |Y \\ N(S)|.  Cell k_y weighs S by C(u, k_y), since N(k_x, k_y) =
    C(n, k_x) E[C(u(S), k_y)] over uniform S: cell 0 is exact, and the step
    to k_y + 1 multiplies a weight by (u - k_y) / (k_y + 1).  The row's last
    cell is the slice's k_y."""

    def __init__(self, slc: TwoSidedSlice):
        self.slc, self.top = slc, slc.k_y
        n = slc.graph.n_side
        self.base = math.log(math.comb(n, slc.k_x))
        self.log_of = np.log(np.arange(n + 1), where=np.arange(n + 1) > 0,
                             out=np.full(n + 1, LOG_ZERO))  # log of 0..n, log 0 = -inf

    def start(self, count: int, rng: np.random.Generator) -> None:
        n = self.slc.graph.n_side
        self.sets = np.argsort(rng.random((count, n)), axis=1)[:, :self.slc.k_x]
        self.u = _uncovered(self.slc.graph, self.sets).sum(1)

    def weigh(self, k_y: int) -> np.ndarray:
        return self.log_of[np.maximum(self.u - k_y, 0)] - math.log(k_y + 1)

    def select(self, rows: np.ndarray) -> None:
        self.sets, self.u = self.sets[rows], self.u[rows]

    def move(self, k_y: int, rng: np.random.Generator, rand) -> int:
        """Rejuvenate every particle at cell k_y: draw T uniformly from the
        k_y-subsets of Y \\ N(S), run the kernel of the (k_x, k_y) slice from
        S and T, and read S back.  Returns the kernel steps."""
        slc = replace(self.slc, k_y=k_y)
        g, n = slc.graph, slc.graph.n_side
        steps = MOVE_SCALE * slc.free_size
        bare = _uncovered(g, self.sets)
        for i, s in enumerate(self.sets.tolist()):
            ys = rng.choice(np.flatnonzero(bare[i]) + n, k_y, replace=False)
            state = _make_state(slc, [*s, *ys.tolist()])
            state.kernel(slc, state, rand, steps, False)
            self.sets[i] = [v for v in state.free if v < n]
        self.u = _uncovered(g, self.sets).sum(1)
        return steps * len(self.sets)


class _BandParticles:
    """The particles of a one-sided band: k-subsets S of X, each held as an
    order of X that lists S first and then the rest in uniform order, with
    the cover count of every Y vertex (one flat array, n entries a particle).  Cell k weighs S by fugacity^k
    (1+fugacity)^u(S): cell 0 is exact, and the step to k + 1 adds the next
    x of the order, uniform outside S, with weight fugacity (n - k)/(k + 1)
    (1+fugacity)^-e, where e counts the uncovered Y neighbours of x.  The
    band's last cell is the slice's k."""

    def __init__(self, slc: OneSidedSlice):
        self.slc, self.top = slc, slc.k
        self.base = slc.graph.n_side * math.log1p(slc.fugacity)
        self.adj = np.array(slc.graph.adj_x, np.intp)

    def start(self, count: int, rng: np.random.Generator) -> None:
        n = self.slc.graph.n_side
        self.order = np.argsort(rng.random((count, n)), axis=1)
        self.cover = np.zeros(count * n, np.intp)
        self.offsets = np.arange(0, count * n, n)[:, None]

    def weigh(self, k: int) -> np.ndarray:
        at = self.adj[self.order[:, k]] + self.offsets  # x's Y neighbours, flat
        seen = self.cover.take(at)
        gain = (seen == 0).sum(1)
        self.cover.put(at, seen + 1)
        lam, n = self.slc.fugacity, self.slc.graph.n_side
        return math.log(lam) + math.log((n - k) / (k + 1)) - gain * math.log1p(lam)

    def select(self, rows: np.ndarray) -> None:
        n = self.slc.graph.n_side
        self.order, self.cover = self.order[rows], self.cover.reshape(-1, n)[rows].ravel()

    def move(self, k: int, rng: np.random.Generator, rand) -> int:
        """Rejuvenate every particle at cell k: run the kernel of the k-slice
        from S, read S back, and order the rest of X afresh.  Returns the
        kernel steps."""
        slc = replace(self.slc, k=k)
        steps = MOVE_SCALE * k
        sets = self.order[:, :k].copy()
        for i, s in enumerate(sets.tolist()):
            state = _make_state(slc, s)
            state.kernel(slc, state, rand, steps, False)
            sets[i] = state.free
        member = np.zeros(self.order.shape)
        member[np.arange(len(sets))[:, None], sets] = 1.0
        self.order = np.argsort(rng.random(member.shape) - member, axis=1)  # S first
        at = self.adj[sets].reshape(len(sets), -1) + self.offsets
        self.cover = np.bincount(at.ravel(), minlength=len(self.cover))
        return steps * len(sets)


_Particles = _RowParticles | _BandParticles


def _systematic(weights: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Systematic resampling: the particle of each of len(weights) evenly
    spaced marks, one uniform offset for all, on the running sums of the
    normalized ``weights``; a particle of weight 0 is never drawn."""
    count = len(weights)
    marks = (rng.random() + np.arange(count)) / count
    return np.searchsorted(np.cumsum(weights)[:-1], marks, side="right")


def _smc(particles: _Particles, count: int, rng: np.random.Generator, rand):
    """One run of ``count`` particles from cell 0 to ``particles.top``:
    (log value of every cell, the largest summed relvar over the cells,
    resamplings, kernel steps).  The run draws its particles and
    resamplings from ``rng`` and its kernel steps from ``rand``.

    Each particle carries its log weight since the last resampling, and a
    cell's estimate is the value where that epoch began times the mean
    weight.  The relvar of an epoch's weights is count * sum(W^2) - 1 for
    the normalized weights W; a cell's summed relvar adds those of the
    epochs closed before it.  When the relvar exceeds 1 / ESS_FRACTION - 1,
    the effective sample size is below ESS_FRACTION * count, and the run
    resamples and rejuvenates before the next cell.  From a cell where
    every weight is 0 on, every cell is -inf."""
    particles.start(count, rng)
    logs = [particles.base]
    epoch = particles.base
    logw = np.zeros(count)
    closed = most = 0.0
    resamplings = steps = 0
    for t in range(particles.top):
        logw = logw + particles.weigh(t)
        peak = logw.max()
        if peak == LOG_ZERO:
            logs += [LOG_ZERO] * (particles.top - t)
            break
        w = np.exp(logw - peak)
        total = w.sum()
        logs.append(epoch + peak + math.log(total / count))
        relvar = count * float(w @ w / (total * total)) - 1.0
        most = max(most, closed + relvar)
        if relvar > 1.0 / ESS_FRACTION - 1.0 and t + 1 < particles.top:
            closed, epoch = closed + relvar, logs[-1]
            particles.select(_systematic(w / total, rng))
            steps += particles.move(t + 1, rng, rand)
            logw = np.zeros(count)
            resamplings += 1
    return logs, most, resamplings, steps


def _particle_system(particles: _Particles, band: str, k_x: int | None, epsilon: float,
                     delta: float, seed: int) -> tuple[list[float], SystemRecord]:
    """(log value of every cell 0..particles.top, the system's record).

    A pilot run of PARTICLE_FLOOR particles measures relvar, and the main
    run takes max(PARTICLE_FLOOR, ceil(z(delta)^2 relvar / epsilon^2)), so
    that every cell's relative sd is at most about epsilon / z(delta).  Both
    runs, the pilot first, draw from the one stream of ``seed``, and their
    kernel steps from a ``UniformBuffer`` of it, which draws its blocks
    only when a rejuvenation reads them.  The cells are the main run's."""
    rng = rng_stream(seed)
    rand = UniformBuffer(rng).next
    _, relvar, pilot_resamplings, pilot_steps = _smc(particles, PARTICLE_FLOOR, rng, rand)
    count = max(PARTICLE_FLOOR, math.ceil(_z_quantile(delta) ** 2 * relvar / epsilon ** 2))
    logs, _, resamplings, steps = _smc(particles, count, rng, rand)
    samples = (1 + pilot_resamplings) * PARTICLE_FLOOR + (1 + resamplings) * count
    return logs, SystemRecord(band, k_x, particles.top, count, relvar,
                              pilot_resamplings + resamplings, pilot_steps + steps, samples)


def _cell_value(particles: _Particles, band: str, k_x: int | None, cell,
                   epsilon: float, delta: float, seed: int) -> CountEstimate:
    """The estimate of the system's last cell, named ``cell`` in the error
    raised when every particle of it carries weight 0."""
    logs, record = _particle_system(particles, band, k_x, epsilon, delta, seed)
    if logs[-1] == LOG_ZERO:
        raise InsufficientSamplesError(
            f"every particle of the {band} cell {cell} carries weight 0")
    return CountEstimate(logs[-1], epsilon, delta, record.samples, (record,), seed=seed)


def estimate_two_sided_count(g: BipartiteRegularGraph, k_x: int, k_y: int,
                             epsilon: float, delta: float, seed: int) -> CountEstimate:
    """Estimate the number of independent sets with the given side sizes.

    One particle system over the row k_x, from the exact C(n, k_x) at k_y =
    0 up to k_y, which it reads alone when k_y is 0.
    """
    _check_accuracy(epsilon, delta)
    row = _RowParticles(TwoSidedSlice(g, k_x, k_y))
    if not k_y:
        return CountEstimate(row.base, epsilon, delta, 0, seed=seed)
    return _cell_value(row, "two-sided", k_x, (k_x, k_y), epsilon, delta, seed)


def estimate_one_sided_partition(g: BipartiteRegularGraph, k: int, fugacity: float,
                                 epsilon: float, delta: float, seed: int) -> CountEstimate:
    """Estimate Z_k = sum over k-subsets S of X of fugacity^k (1+fugacity)^{|Y\\N[S]|}.

    One particle system over the band from k = 0 up to k; at k = 0 and k = n
    the one k-subset's closed-form weight is the value.
    """
    _check_accuracy(epsilon, delta)
    slc = OneSidedSlice(g, k, fugacity)
    if k in (0, g.n_side):
        return CountEstimate(slc.log_weight(range(k)), epsilon, delta, 0, seed=seed)
    return _cell_value(_BandParticles(slc), "one-sided", None, k, epsilon, delta, seed)


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


def estimate_partition_hat(g: BipartiteRegularGraph, fugacity: float,
                           epsilon: float, delta: float, seed: int,
                           thr: ThresholdParams) -> CountEstimate:
    """Banded approximation to the partition function, one particle system
    per two-sided row and per one-sided band.

    Three bands: the two-sided grid k_x, k_y <= floor(alpha n); the X-side
    one-sided band floor(alpha n) < k <= floor(beta n); the mirrored Y-side
    band.  Sets heavy on both sides in the band are double counted by
    construction; that discrepancy is part of the approximation, not corrected
    here, and is the second value of ``exact_partition_hat``.

    Row k_x gives the terms (k_x, k_y), scaled by fugacity^{k_x+k_y}, and a
    band's system, run from k = 0, gives its terms but k = n, which is the
    closed form.  Every system meets the full epsilon at the full delta: the
    relative sd of a sum of positive terms is at most the largest relative
    sd of a term.  A term whose every particle carries weight 0 is zero.
    Each band record holds its terms' records in order, and the trace one
    record per system.
    """
    _check_accuracy(epsilon, delta)
    if not fugacity > 0:
        raise ValueError("fugacity must be positive")
    n = g.n_side
    a_cap, b_cap = _band_caps(n, thr)
    log_lam = math.log(fugacity)
    records: list[SystemRecord] = []

    def cells(particles: _Particles, band: str, k_x: int | None, system_seed: int):
        if not particles.top:
            return [particles.base]
        logs, record = _particle_system(particles, band, k_x, epsilon, delta, system_seed)
        records.append(record)
        return logs

    two = [TermRecord("two-sided", (k_x, k_y), v + (k_x + k_y) * log_lam)
           for k_x in range(a_cap + 1)
           for k_y, v in enumerate(cells(_RowParticles(TwoSidedSlice(g, k_x, a_cap)),
                                         "two-sided", k_x, seed + 1000003 * (k_x + 1)))]
    results = {"two-sided": ((0, a_cap), two)}
    for side, (band, graph) in enumerate((("one-sided-x", g), ("one-sided-y", _mirror(g)))):
        top = min(b_cap, n - 1)
        logs = (cells(_BandParticles(OneSidedSlice(graph, top, fugacity)), band, None,
                      seed + 2000003 * (side + 1)) if top > a_cap else [])
        values = logs[a_cap + 1:]
        if b_cap == n:
            values.append(OneSidedSlice(graph, n, fugacity).log_weight(range(n)))
        results[band] = ((a_cap + 1, b_cap), [TermRecord(band, k, v) for k, v in
                                               zip(range(a_cap + 1, b_cap + 1), values)])
    bands = tuple(BandRecord(band, k_range, _logsumexp(t.value_log for t in terms),
                             sum(r.samples for r in records if r.band == band), tuple(terms))
                  for band, (k_range, terms) in results.items())
    return CountEstimate(_logsumexp([b.value_log for b in bands]), epsilon, delta,
                         sum(r.samples for r in records), tuple(records), bands, seed)

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
