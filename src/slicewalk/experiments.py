"""Experiment drivers: neighborhood concentration, typical independent-set
sizes, and the two-component slow-mixing construction.

The concentration experiments sample subsets tau of one side and measure the
uncovered fraction |Y \\ N[tau]| / |Y|.  They run directly in the bipartite
pairing model (multigraph): rejection to a simple graph has acceptance rate
exp(-(d-1)^2/2), hopeless at the degrees of interest, while neighborhood
statistics cannot see multiedges at all.  Every report states explicitly that
a sampled-tau check does not verify a for-all-tau statement.

The size experiment needs hardcore samples at scale.  It uses the X-marginal
decomposition: the projection of the hardcore law onto S = I ∩ X has weight
fugacity^{|S|} (1+fugacity)^{|Y \\ N[S]|}, sampled by Metropolis moves that
each propose adding or removing one vertex of X, after which I ∩ Y is
completed exactly (each uncovered y independently with odds fugacity : 1).

The slow-mixing experiment builds a disjoint union of two regular bipartite
graphs and examines the one-sided chain's bottleneck set S = {tau : more than
half of tau in the first component}: exact conductance of S against the
within-component spectral lower bounds, and empirical escape statistics.
"""
from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Iterable

import numpy as np

from .counting import GAMMA, alpha_threshold
from .graphs import BipartiteRegularGraph, gen_bipartite_regular, pairing_bipartite_rows
from .rng import UniformBuffer, rng_stream
from .slices import OneSidedSlice, _facet_bound
from .walks import _make_state, _step, exact_transition_matrix, facet_table, spectral_gap

# The slow-mixing experiment takes the exact chain, and steps its escape chains
# through a facet table, up to this many facets.
SLOW_MIXING_EXACT_CAP = 20_000
# Steps the lockstep escape-time chains take between escape checks.
ESCAPE_BLOCK = 4096
# Largest event frequency the independent-set size experiment passes.
EVENT_CEILING = 0.01
SAMPLED_TAU_NOTE = ("sampled-tau frequencies only; the for-all-tau statement "
                    "is not verified")


@dataclass(frozen=True)
class ExperimentConfig:
    """Flat experiment parameters; unused fields are ignored by each driver."""

    name: str
    n_side: int
    degree: int
    seed: int = 0
    k: int = 4
    fugacity: float = 0.5
    gamma: float = GAMMA
    ell: float = 2.0
    a: float = 0.4
    b: float = 0.4
    c: float = 0.6
    samples: int = 200
    steps: int = 1_000_000
    runs: int = 100

    def __post_init__(self) -> None:
        if self.n_side < 1 or self.degree < 1:
            raise ValueError("n_side and degree must be positive")
        if not math.isfinite(self.fugacity):
            raise ValueError(f"fugacity must be a positive finite number, got {self.fugacity}")
        if not self.fugacity > 0:
            raise ValueError("fugacity must be positive")
        if not self.gamma >= 0:
            raise ValueError("gamma must be nonnegative")
        if not math.isfinite(self.gamma):
            raise ValueError(f"gamma must be a nonnegative finite number, got {self.gamma}")
        if not math.isfinite(self.ell):
            raise ValueError(f"ell must be a finite number, got {self.ell}")
        if not (0.0 < self.a < 1.0 and 0.0 < self.b < 1.0):
            raise ValueError("a and b must lie in (0, 1)")
        if not (0.5 < self.c < 1.0):
            raise ValueError("c must lie in (1/2, 1)")
        if self.samples < 1 or self.runs < 1 or self.steps < 0:
            raise ValueError("samples and runs must be positive, steps nonnegative")


def coupled_ell(degree: int, gamma: float) -> float:
    """ell making the expectation identity hold at the critical size.

    The expected uncovered fraction at |tau| = alpha |X| is degree^(-1/(2+gamma));
    equating it with (2 ell + 1)/2 * log(degree)/sqrt(degree) couples ell to
    gamma.  At desk-scale degrees this value is small or negative, which is
    why fixed (gamma, ell) pairs taken from asymptotic statements can be
    mutually inconsistent.  Degree 1 (log(degree) = 0) has no such ell.
    """
    if degree < 2:
        raise ValueError("degree must be at least 2")
    return degree ** (-1.0 / (2.0 + gamma)) * math.sqrt(degree) / math.log(degree) - 0.5


def _uncovered_counts(rows: np.ndarray, rng: np.random.Generator,
                      tau_size: int, n_samples: int) -> np.ndarray:
    """|Y \\ N[tau]| for uniformly sampled tau of the given size, each
    neighbourhood counted as the set entries of a bitmap over Y."""
    n = rows.shape[0]
    out = np.empty(n_samples, dtype=np.int64)
    covered = np.zeros(n, dtype=bool)
    for t in range(n_samples):
        tau = rng.choice(n, size=tau_size, replace=False)
        hit = rows[tau]
        covered[hit] = True
        out[t] = n - np.count_nonzero(covered)
        covered[hit] = False
    return out


def experiment_neighborhood_concentration(config: ExperimentConfig) -> dict:
    """Uncovered-fraction statistics at sizes straddling the critical one.

    At the critical size the uncovered fraction should bracket
    degree^(-1/(2+gamma)); above it the expansion branch caps the fraction,
    below it the anti-expansion branch floors it.  Branch thresholds use the
    configured ell; the coupled ell and the fractions under it are reported
    alongside, since fixed ell values are incoherent at small degree.
    """
    n, d, gamma, ell = config.n_side, config.degree, config.gamma, config.ell
    rng = rng_stream(config.seed, 1)
    rows = pairing_bipartite_rows(n, d, rng_stream(config.seed, 0))
    alpha = alpha_threshold(d, gamma)
    critical = max(1, math.floor(alpha * n))
    sizes = {"below": max(1, math.floor(0.8 * alpha * n)),
             "critical": critical,
             "above": max(1, math.floor(1.2 * alpha * n))}
    predicted = d ** (-1.0 / (2.0 + gamma))
    log_term = math.log(d) / math.sqrt(d)
    ell_c = coupled_ell(d, gamma)
    report: dict = {
        "experiment": "neighborhood-concentration",
        "config": asdict(config),
        "alpha": alpha, "predicted_uncovered_fraction": predicted,
        "coupled_ell": ell_c, "sizes": sizes, "notes": SAMPLED_TAU_NOTE,
    }
    for label, size in sizes.items():
        counts = _uncovered_counts(rows, rng, size, config.samples)
        frac = counts / n
        entry = {"tau_size": size, "mean_fraction": float(frac.mean()),
                 "min_fraction": float(frac.min()), "max_fraction": float(frac.max())}
        if label == "critical":
            inside = np.abs(frac - predicted) <= 0.15 * predicted
            entry["bracket_fraction"] = float(inside.mean())
        if label in ("critical", "above"):
            entry["expansion_fraction"] = float((frac <= (ell + 1) * log_term).mean())
            entry["expansion_fraction_coupled"] = float(
                (frac <= predicted + 0.5 * log_term).mean())
        if label in ("critical", "below"):
            entry["anti_expansion_fraction"] = float((frac >= ell * log_term).mean())
            entry["anti_expansion_fraction_coupled"] = float(
                (frac >= predicted - 0.5 * log_term).mean())
        report[label] = entry
    return report


def experiment_large_set_expansion(config: ExperimentConfig) -> dict:
    """Above |X|/degree^a, the uncovered fraction should fall below degree^-b."""
    n, d = config.n_side, config.degree
    alpha = alpha_threshold(d, config.gamma)
    report: dict = {
        "experiment": "large-set-expansion",
        "config": asdict(config),
        "insufficient_scale": math.floor(alpha * n) < 2,
        "notes": SAMPLED_TAU_NOTE,
    }
    rows = pairing_bipartite_rows(n, d, rng_stream(config.seed, 0))
    rng = rng_stream(config.seed, 1)
    size = min(n, math.ceil(n / d ** config.a))
    counts = _uncovered_counts(rows, rng, size, config.samples)
    frac = counts / n
    threshold = d ** (-config.b)
    report.update({
        "tau_size": size, "threshold_fraction": threshold,
        "mean_fraction": float(frac.mean()),
        "pass_fraction": float((frac < threshold).mean()),
    })
    return report


# -- hardcore sampling at scale ---------------------------------------------------------


def pairing_support_adjacency(rows: np.ndarray) -> list[list[int]]:
    """Deduplicated X adjacency lists of a pairing draw (multiedges collapsed)."""
    return [sorted(set(int(j) for j in row)) for row in rows]


class MarginalHardcoreSampler:
    """Exact-stationary sampler for the X projection of the hardcore law.

    State S ⊆ X with weight fugacity^{|S|} (1+fugacity)^{|Y \\ N[S]|}.  Each
    step proposes adding a uniform vertex of X (a no-op when it is a member)
    or removing a uniform member (probability 1/2 each) and accepts by the
    Metropolis ratio, computed in O(degree) from coverage counters.
    """

    def __init__(self, adj_x: list[list[int]], n_y: int, fugacity: float, seed: int):
        self.adj = adj_x
        self.n = len(adj_x)
        self.n_y = n_y
        self.lam = fugacity
        self.members: list[int] = []
        self.in_set = [False] * self.n
        self.cover = [0] * n_y
        self._rand = UniformBuffer(rng_stream(seed, 7)).next

    def _uncovered_by_add(self, x: int) -> int:
        return sum(1 for y in self.adj[x] if self.cover[y] == 0)

    def _uncovered_by_remove(self, x: int) -> int:
        return sum(1 for y in self.adj[x] if self.cover[y] == 1)

    def step(self) -> None:
        # add proposes a uniform vertex out of all n (member picks no-op), so
        # the reverse/forward proposal ratio is n/(|S|+1); remove mirrors it
        rand = self._rand
        size = len(self.members)
        if rand() < 0.5:
            x = int(rand() * self.n)
            if self.in_set[x]:
                return
            u = self._uncovered_by_add(x)
            ratio = self.lam * (1.0 + self.lam) ** (-u) * self.n / (size + 1)
            if ratio >= 1.0 or rand() < ratio:
                self.in_set[x] = True
                self.members.append(x)
                for y in self.adj[x]:
                    self.cover[y] += 1
        else:
            if size == 0:
                return
            idx = int(rand() * size)
            x = self.members[idx]
            u = self._uncovered_by_remove(x)
            ratio = (1.0 + self.lam) ** u / self.lam * size / self.n
            if ratio >= 1.0 or rand() < ratio:
                self.members[idx] = self.members[-1]
                self.members.pop()
                self.in_set[x] = False
                for y in self.adj[x]:
                    self.cover[y] -= 1

    def complete(self, rng: np.random.Generator) -> tuple[int, int]:
        """(|I ∩ X|, |I ∩ Y|) with the Y part drawn from the exact conditional."""
        uncovered = self.n_y - sum(1 for c in self.cover if c > 0)
        p = self.lam / (1.0 + self.lam)
        y_count = int(rng.binomial(uncovered, p)) if uncovered else 0
        return len(self.members), y_count


def experiment_independent_set_size(config: ExperimentConfig) -> dict:
    """Frequencies of atypically large hardcore samples.

    Events: |I| >= 4 * fugacity * |V|, and both side occupancies above
    alpha * side.  Both should occur with frequency at most ``EVENT_CEILING``
    in the sampled regime.
    """
    n, d, lam = config.n_side, config.degree, config.fugacity
    rows = pairing_bipartite_rows(n, d, rng_stream(config.seed, 0))
    adj_x = pairing_support_adjacency(rows)
    sampler = MarginalHardcoreSampler(adj_x, n, lam, config.seed)
    complete_rng = rng_stream(config.seed, 8)
    alpha = alpha_threshold(d, config.gamma)
    size_cut = 4.0 * lam * 2 * n
    side_cut = alpha * n
    burn = 20 * n
    thin = max(1, n // 4)
    for _ in range(burn):
        sampler.step()
    big = both = 0
    x_sizes = np.empty(config.samples, dtype=np.int64)
    for t in range(config.samples):
        for _ in range(thin):
            sampler.step()
        kx, ky = sampler.complete(complete_rng)
        x_sizes[t] = kx
        if kx + ky >= size_cut:
            big += 1
        if kx > side_cut and ky > side_cut:
            both += 1
    m = config.samples
    return {
        "experiment": "independent-set-size",
        "config": asdict(config),
        "size_event_fraction": big / m,
        "both_sides_event_fraction": both / m,
        "event_ceiling": EVENT_CEILING,
        "size_event_pass": big / m <= EVENT_CEILING,
        "both_sides_event_pass": both / m <= EVENT_CEILING,
        "mean_x_occupancy": float(x_sizes.mean()) / n,
        "marginal_cap": lam / (1.0 + lam),
        "notes": "sampled frequencies; exponential tail bounds are echoed "
                 "qualitatively, not asserted",
    }


# -- slow mixing --------------------------------------------------------------------


def disjoint_union(g1: BipartiteRegularGraph, g2: BipartiteRegularGraph) -> BipartiteRegularGraph:
    if g1.degree != g2.degree:
        raise ValueError("components must share the degree")
    m = g1.n_side
    adj_x = tuple(tuple(row) for row in g1.adj_x) + \
        tuple(tuple(j + m for j in row) for row in g2.adj_x)
    adj_y = tuple(tuple(row) for row in g1.adj_y) + \
        tuple(tuple(i + m for i in row) for row in g2.adj_y)
    return BipartiteRegularGraph(2 * m, g1.degree, adj_x, adj_y)


def _bottleneck_mask(facets, m: int, k: int) -> np.ndarray:
    half = k / 2.0
    return np.array([sum(1 for v in f if v < m) > half for f in facets])


def exact_conductance(p: np.ndarray, pi: np.ndarray, mask: np.ndarray) -> float:
    """phi(S) = flow(S, S^c) / min(pi(S), pi(S^c)) for the given subset mask."""
    if not mask.any() or mask.all():
        raise ValueError("subset must be proper and nonempty")
    flow = float((pi[mask, None] * p[mask][:, ~mask]).sum())
    return flow / min(float(pi[mask].sum()), float(pi[~mask].sum()))


def experiment_slow_mixing(config: ExperimentConfig, control: bool = False) -> dict:
    """Bottleneck diagnostics for the one-sided chain on a two-component graph.

    Exact mode (state space within ``SLOW_MIXING_EXACT_CAP``): conductance of
    the majority-in-first-component set S from the exact chain, compared with each
    component's spectral lower bound gap/2 <= conductance, and the exact
    probability that one run stays in S for the step budget.  Empirical mode:
    chains started with all members in the first component, reporting the
    fraction that never leave S within the step budget and escape-time stats.
    With ``control=True`` the same diagnostics run on a single connected-ish
    random graph of the same total size, where no bottleneck should appear.
    At degree ``n_side`` both components are K_{n,n}, where the bottleneck
    regime lives.
    """
    m, d, k, lam = config.n_side, config.degree, config.k, config.fugacity
    if k % 2 != 0:
        raise ValueError("k must be even so the boundary splits evenly")
    if not 2 <= k <= 2 * m - 2:
        raise ValueError(f"k = {k} lies outside [2, 2n - 2] = [2, {2 * m - 2}], where the "
                         "majority set is proper and nonempty")
    if control:
        g = gen_bipartite_regular(2 * m, d, seed=config.seed + 51)
    else:
        g1 = gen_bipartite_regular(m, d, seed=config.seed)
        g2 = gen_bipartite_regular(m, d, seed=config.seed + 1)
        g = disjoint_union(g1, g2)
    slc = OneSidedSlice(g, k, lam)
    report: dict = {
        "experiment": "slow-mixing", "config": asdict(config), "control": control,
        "suggested_k": 2 * m / d ** config.c,
    }

    if math.comb(2 * m, k) <= SLOW_MIXING_EXACT_CAP:
        facets, p, pi = exact_transition_matrix(slc)
        mask = _bottleneck_mask(facets, m, k)
        phi = exact_conductance(p, pi, mask)
        # chance that one non-lazy run from the start face stays in S throughout
        face = tuple(range(k))
        start = np.array([f == face for f in facets], dtype=float)[mask]
        p_s = np.linalg.matrix_power(p[np.ix_(mask, mask)], config.steps)
        report["exact"] = {
            "facets": len(facets),
            "phi_bottleneck": phi,
            "bottleneck_mass": float(pi[mask].sum()),
            "stay_probability": float((start @ p_s).sum()),
        }
        if not control:
            within = []
            for comp in (g1, g2):
                cslc = OneSidedSlice(comp, k, lam)
                _, cp, cpi = exact_transition_matrix(cslc)
                _, _, gap = spectral_gap(cp, cpi)
                within.append(gap / 2.0)
            report["exact"]["within_component_conductance_lower"] = min(within)
            report["exact"]["separation_factor"] = (
                min(within) / phi if phi > 0 else float("inf"))

    # every run starts at the face range(k): all members in the first component
    times = _escape_times(slc, range(k), m, k, config.steps, config.seed, config.runs)
    escapes = [t for t in times if t is not None]
    never = len(times) - len(escapes)
    report["empirical"] = {
        "runs": config.runs, "steps": config.steps,
        "never_escaped_fraction": never / config.runs,
        "median_escape_steps": float(np.median(escapes)) if escapes else None,
        "max_escape_steps": max(escapes) if escapes else None,
    }
    return report


def _escape_times(slc: OneSidedSlice, members: Iterable[int], m: int, k: int,
                  budget: int, seed: int, runs: int) -> list[int | None]:
    """First step at which each run 0..runs-1 holds at most k/2 vertices
    below m, or None within ``budget`` steps.

    Run ``run`` is the scalar chain started at ``members`` and stepped by
    ``_step`` on the stream ``rng_stream(seed, 1000 + run)``.  When the
    slice has at most ``SLOW_MIXING_EXACT_CAP`` facets (its exact facet
    bound, known before any enumeration), it compiles into a facet table
    (the table's one consumer), and the runs step in lockstep through
    ``FacetTable.advance``, one array row each.  Each run keeps a buffer of
    its stream and a read position in it: a step reads the removal slot and
    then two uniforms a proposal, as the one-sided kernel does, so every run
    replays exactly.  Before each call the unread rest of every buffer moves
    to its front and the stream fills the remainder; a buffer that cannot
    hold one step doubles.  Rows that escape inside a block of at most
    ESCAPE_BLOCK steps are dropped after it.  Above the cap each run steps
    alone through the slice's kernel.
    """
    facet = tuple(sorted(members))
    half = k / 2.0
    if _facet_bound(slc)[0] > SLOW_MIXING_EXACT_CAP:
        return [_escape_time(slc, facet, m, half, budget, rng_stream(seed, 1000 + run))
                for run in range(runs)]
    table = facet_table(slc)
    inside = (table.free < m).sum(1)
    times: list[int | None] = [None] * runs
    active = np.arange(runs)
    gens = [rng_stream(seed, 1000 + run) for run in range(runs)]
    start = _make_state(slc, facet).free
    free = np.tile(np.array(start, dtype=np.intp), (runs, 1))
    base = np.full(runs, table.start(start), np.intp)
    room = 4 * ESCAPE_BLOCK
    u, pos = np.empty((runs, 0)), np.zeros(runs, np.intp)
    rows = active  # the row of u and pos that holds each active run's stream
    done = 0
    while done < budget and len(active):
        buffer = np.empty((len(active), room))
        for i, (row, run) in enumerate(zip(rows.tolist(), active.tolist())):
            rest = u[row, pos[row]:]
            buffer[i, :len(rest)] = rest
            gens[run].random(out=buffer[i, len(rest):])
        u, pos, rows = buffer, np.zeros(len(active), np.intp), np.arange(len(active))
        bases = table.advance(free, base, u, pos, min(ESCAPE_BLOCK, budget - done))
        if not len(bases):
            room *= 2
            continue
        hit = inside.take(bases // table.width) <= half
        escaped = hit.any(0)
        for i, first_hit in zip(np.flatnonzero(escaped), hit.argmax(0)[escaped]):
            times[int(active[i])] = done + int(first_hit) + 1
        rows = np.flatnonzero(~escaped)
        active, free, base = active[rows], free[rows], bases[-1][rows]
        done += len(bases)
    return times


def _escape_time(slc: OneSidedSlice, facet: tuple[int, ...], m: int, half: float,
                 budget: int, rng: np.random.Generator) -> int | None:
    """One run of ``_escape_times`` stepped alone by ``_step``."""
    state = _make_state(slc, facet)
    rand = UniformBuffer(rng).next
    for t in range(1, budget + 1):
        _step(slc, state, rand)
        if sum(1 for v in state.free if v < m) <= half:
            return t
    return None
