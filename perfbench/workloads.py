"""The three workloads, their seeded inputs and their correctness gates.

Each workload is a closed loop with one client: one operation at a time,
in-process calls and ``slicewalk`` CLI subprocesses alike.  ``setup`` builds
every input from the run seed (graphs and the exact reference values the
gates compare against); ``run_round`` makes one pass over a fixed operation
list and returns a :class:`harness.Round`.  Rounds of one run repeat the same
inputs and chain seeds, so their output hashes must agree.

Why these three: ``sample-chains`` is the step kernel in ``walks`` with
``counting`` and ``spectra`` absent; ``count-small`` is many short chains on
tiny pinned links, where interpreter overhead and the estimator budget matter
and O(n) step cost does not; ``spectral-sweep`` is ``spectra``, ``verify`` and
``experiments`` with no ``run_chain`` at all.  A change to one layer should
show on its own workload and read unchanged on the others.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from time import perf_counter

import numpy as np

from slicewalk.counting import (estimate_one_sided_partition, estimate_two_sided_count,
                                exact_one_sided_partition, exact_partition_hat,
                                exact_slice_count, thresholds)
from slicewalk.graphs import (X, gen_bipartite_regular, gen_regular,
                              pairing_bipartite_rows, save_graph)
from slicewalk.slices import OneSidedSlice, RegularSlice, SliceError, TwoSidedSlice
from slicewalk.spectra import (adjacency_matrix, eigen_summary, iterative_lambda2,
                               pairing_index_matrix)
from slicewalk.verify import (verify_one_sided_identities, verify_top_link_one_sided,
                              verify_top_link_regular, verify_top_link_two_sided)
from slicewalk.walks import (ChainConfig, exact_transition_matrix, greedy_initial_state,
                             run_chain, spectral_gap)

from harness import (CliRunner, Round, Tracer, derive, parse_report, rescaled_timed,
                     spread_evenly, timed)

FAMILIES = ("one_sided", "two_sided", "regular")


def family_slice(family: str, n: int, seed: int):
    """The d=3 slice a family runs at side (or vertex count) n: one-sided
    k=n/12 at fugacity 0.2, two-sided k_x=k_y=n/25, regular k=n/8."""
    if family == "regular":
        return RegularSlice(gen_regular(n, 3, seed=derive(seed, "regular-graph", n)),
                            max(2, n // 8))
    g = gen_bipartite_regular(n, 3, seed=derive(seed, "bipartite-graph", n))
    if family == "one_sided":
        return OneSidedSlice(g, max(2, n // 12), 0.2)
    return TwoSidedSlice(g, max(1, n // 25), max(1, n // 25))


def is_member(family: str, slc, facet) -> bool:
    """Benchmark-side check that a facet belongs to the slice (sizes, pins, independence)."""
    g = slc.graph
    if family == "two_sided":
        xs, ys = facet
        ys_set = set(ys)
        return (len(set(xs)) == slc.k_x and len(ys_set) == slc.k_y
                and slc.pinned_x <= set(xs) and slc.pinned_y <= ys_set
                and all(0 <= v < g.n_side for v in (*xs, *ys))
                and not any(ys_set.intersection(g.neighbors(X, i)) for i in xs))
    members = set(facet)
    size = g.n if family == "regular" else g.n_side
    if len(members) != slc.k or not slc.pinned <= members:
        return False
    if not all(0 <= v < size for v in members):
        return False
    return family != "regular" or not any(members.intersection(g.neighbors(v))
                                          for v in members)


@dataclass
class OracleSlice:
    """Small slice with its exact law and the exact spectral gap of the lazy chain."""

    family: str
    slc: object
    facets: list
    probs: np.ndarray
    lazy_gap: float


def oracle_slice(family: str, seed: int) -> OracleSlice:
    """First seed-derived small slice with 30-130 facets and lazy gap >= 0.05.

    These are the selection rules of the stationary-correctness acceptance
    test: a chain on a slice that passes them actually targets its law.
    """
    for attempt in range(200):
        s = derive(seed, "oracle", family, attempt)
        try:
            if family == "one_sided":
                slc = OneSidedSlice(gen_bipartite_regular(8, 3, seed=s), 3, 0.4)
            elif family == "two_sided":
                n, d = ((7, 2), (8, 3))[attempt % 2]
                slc = TwoSidedSlice(gen_bipartite_regular(n, d, seed=s), 1, 2)
            else:
                slc = RegularSlice(gen_regular(12, 3, seed=s), 3)
            facets, p, pi = exact_transition_matrix(slc)
        except SliceError:
            continue
        if not 30 <= len(facets) <= 130:
            continue
        _, _, gap = spectral_gap(0.5 * (np.eye(len(facets)) + p), pi)
        if gap >= 0.05:
            return OracleSlice(family, slc, facets, pi, gap)
    raise RuntimeError(f"no {family} oracle slice found for seed {seed}")


def tv_noise_bound(probs: np.ndarray, samples: int, lazy_gap: float, thinning: int) -> float:
    """Three times an upper bound on the expected TV of a chain histogram.

    Samples ``thinning`` lazy steps apart have correlation at most
    (1 - gap)^thinning, which shrinks the sample count to an effective
    n (1 - r) / (1 + r); each histogram cell then has standard deviation at
    most sqrt(p (1 - p) / n_eff).
    """
    r = (1.0 - lazy_gap) ** thinning
    n_eff = samples * (1.0 - r) / (1.0 + r)
    return 3.0 * 0.5 * float(np.sum(np.sqrt(probs * (1.0 - probs) / n_eff)))


class Workload:
    """``tiny`` shrinks every size for the smoke test; ``trace`` shrinks the input
    counts, since a traced run makes two rounds and the layer probes."""

    name = ""

    def __init__(self, tiny: bool, trace: bool = False):
        self.tiny = tiny
        self.trace = trace

    def setup(self, seed: int, workdir: Path):
        raise NotImplementedError

    def gates(self, inp, tracer: Tracer, cli: CliRunner) -> Round:
        """Checks made once per run, before the timed rounds."""
        return Round()

    def run_round(self, inp, tracer: Tracer, cli: CliRunner) -> Round:
        raise NotImplementedError


# -- sample-chains ------------------------------------------------------------------

# Steps per run_chain segment, sized so a segment takes about 0.05 s at the
# commit that introduced the benchmark (non-lazy, so every step is a transition).
SEGMENT_STEPS = {("one_sided", 200): 750, ("two_sided", 200): 2500,
                 ("regular", 200): 3000, ("one_sided", 1000): 175,
                 ("two_sided", 1000): 750, ("regular", 1000): 750}


@dataclass
class ChainInputs:
    seed: int
    chains: list          # (family, n, slice, steps per segment)
    oracles: list         # OracleSlice per family
    readme_graph: str


class SampleChains(Workload):
    """Down-up chains for all three families, run as timed segments.

    Every segment continues its chain (``run_chain`` with the previous state
    as ``initial``), so segment times are step-kernel times at a steady state.
    The timed operation (``op_s``) is one segment of every chain, which costs
    the same each time; a median over segments of different chains would sit
    between two chains and jump with small shifts.  The README ``sample``
    command runs as a subprocess once a round.  One small chain per family is
    checked against its exact law once a run, before the rounds.
    """

    name = "sample-chains"

    def __init__(self, tiny: bool, trace: bool = False):
        super().__init__(tiny, trace)
        self.sizes = (40,) if tiny else (200, 1000)
        self.segments = 2 if tiny else 6
        self.readme_steps = 4000 if tiny else 100_000
        self.oracle_steps = 4000 if tiny else 100_000

    def setup(self, seed: int, workdir: Path) -> ChainInputs:
        chains = []
        for n in self.sizes:
            for family in FAMILIES:
                steps = 100 if self.tiny else SEGMENT_STEPS[family, n]
                chains.append((family, n, family_slice(family, n, seed), steps))
        oracles = [oracle_slice(family, seed) for family in FAMILIES]
        g = gen_bipartite_regular(100, 3, seed=derive(seed, "readme-graph"))
        save_graph(g, workdir / "readme-g100.txt")
        return ChainInputs(seed, chains, oracles, "readme-g100.txt")

    def gates(self, inp: ChainInputs, tracer: Tracer, cli: CliRunner) -> Round:
        rnd = Round()
        for orc in inp.oracles:
            self._oracle_chain(inp, tracer, rnd, orc)
        return rnd

    def run_round(self, inp: ChainInputs, tracer: Tracer, cli: CliRunner) -> Round:
        rnd = Round()
        states: dict = {}
        segments = [partial(self._segment, inp, tracer, rnd, states, seg)
                    for seg in range(self.segments)]
        for task in spread_evenly(segments, [partial(self._readme_sample, inp, tracer, cli,
                                                     rnd)]):
            task()
        return rnd

    def _segment(self, inp: ChainInputs, tracer: Tracer, rnd: Round, states: dict,
                 seg: int) -> None:
        """Segment ``seg`` of every chain."""
        rnd.op_s[seg] = rnd.work[seg] = rnd.work_s[seg] = 0.0
        for family, n, slc, steps in inp.chains:
            with rnd.op(f"{family} n={n} segment {seg}"), tracer.span("bench.segment"):
                self._chain_segment(inp, tracer, rnd, states, seg, family, n, slc, steps)

    def _chain_segment(self, inp: ChainInputs, tracer: Tracer, rnd: Round, states: dict,
                       seg: int, family: str, n: int, slc, steps: int) -> None:
        """The first segment builds the greedy start, the last checks the running counters."""
        if seg == 0:
            rng = np.random.default_rng(derive(inp.seed, "init", family, n))
            states[family, n], _ = timed(tracer, "walks.greedy_initial_state",
                                         greedy_initial_state, slc, rng)
        cfg = ChainConfig(steps=steps, seed=derive(inp.seed, "segment", family, n, seg),
                          lazy=False, burn_in=0, oracle_cap=0, gap_cap=0)
        (samples, mix), dt = rescaled_timed(tracer, "walks.run_chain", run_chain, slc, cfg,
                                            initial=states[family, n])
        rnd.op_s[seg] += dt
        if n == self.sizes[-1]:
            rnd.work[seg] += steps
            rnd.work_s[seg] += dt
        tracer.count("walks.run_chain.steps", steps)
        rnd.check(mix.steps == steps and len(samples) >= 1,
                  f"{family} n={n}: {mix.steps} steps, {len(samples)} samples")
        bad = sum(1 for f in samples if not is_member(family, slc, f))
        rnd.check(bad == 0, f"{family} n={n}: {bad} samples are not slice members")
        rnd.record(samples)
        if seg == self.segments - 1:
            rnd.check(states[family, n].recount_ok(), f"{family} n={n}: counters drifted")

    def _oracle_chain(self, inp: ChainInputs, tracer: Tracer, rnd: Round,
                      orc: OracleSlice) -> None:
        with rnd.op(f"{orc.family} oracle chain"), tracer.span("bench.oracle_chain"):
            cfg = ChainConfig(steps=self.oracle_steps,
                              seed=derive(inp.seed, "oracle-chain", orc.family))
            (samples, mix), _ = timed(tracer, "walks.run_chain", run_chain, orc.slc, cfg)
            known = set(orc.facets)
            rnd.check(all(f in known for f in samples),
                      f"{orc.family} oracle: sample outside the enumerated slice")
            bound = tv_noise_bound(orc.probs, mix.samples, orc.lazy_gap,
                                   max(1, orc.slc.free_size))
            ok = mix.empirical_tv is not None and mix.empirical_tv <= bound
            rnd.check(ok, f"{orc.family} oracle: TV {mix.empirical_tv} above {bound:.4f}")
            rnd.check(mix.exact_gap is not None and abs(mix.exact_gap - orc.lazy_gap) <= 1e-9,
                      f"{orc.family} oracle: gap {mix.exact_gap} != {orc.lazy_gap}")
            rnd.accuracy(ok)
            rnd.record((samples, mix.empirical_tv, mix.exact_gap))

    def _readme_sample(self, inp: ChainInputs, tracer: Tracer, cli: CliRunner,
                       rnd: Round) -> None:
        """The README command at half its steps, so that it repeats in every round."""
        with rnd.op("README sample command"):
            argv = ["sample", "--in", inp.readme_graph, "--family", "one-sided", "--k", "8",
                    "--lambda", "0.2", "--steps", str(self.readme_steps),
                    "--seed", str(derive(inp.seed, "cli-sample")), "--stream-out", "samples.txt"]
            proc, rnd.cli_s["sample"] = cli.run(tracer, argv)
            report = parse_report(proc, "sample", rnd)
            stream = (cli.workdir / "samples.txt").read_text()
            lines = stream.splitlines()
            rnd.check(report["samples"] == len(lines) > 0,
                      f"sample: report says {report['samples']} samples, stream has {len(lines)}")
            rnd.check(report["mixing"]["steps"] == self.readme_steps, "sample: step count")
            rnd.check(all(_stream_line_ok(line, 8, 100) for line in lines),
                      "sample: malformed stream line")
            rnd.record((proc.stdout, stream))


def _stream_line_ok(line: str, k: int, n: int) -> bool:
    """One-sided stream lines read ``x3 x7 ... |`` with k distinct in-range indices."""
    tokens = line.split()
    if not tokens or tokens[-1] != "|" or not all(t[:1] == "x" for t in tokens[:-1]):
        return False
    idx = {int(t[1:]) for t in tokens[:-1]}
    return len(idx) == len(tokens) - 1 == k and all(0 <= i < n for i in idx)


# -- count-small --------------------------------------------------------------------

EPS = DELTA = 0.1
TWO_SIDED_COMBOS = tuple((kx, ky) for kx in range(5) for ky in range(5) if 1 <= kx + ky <= 4)
ONE_SIDED_KS = (1, 2, 3, 4)
ONE_SIDED_LAMBDA = 0.4
Z_LAMBDA = 0.05
Z_EPS = 0.3             # at eps 0.1 one estimate-z takes 12-16 s, too long to repeat
GATE_P = 1e-3           # chance that a correct estimator fails the accuracy gate


def misses_allowed(n: int, delta: float = DELTA, p: float = GATE_P) -> int:
    """Fewest misses m such that n estimates meeting their (eps, delta) contract
    miss more than m times with probability below p (a binomial tail)."""
    below = 0.0
    for m in range(n + 1):
        below += math.comb(n, m) * delta ** m * (1.0 - delta) ** (n - m)
        if 1.0 - below < p:
            return m
    return n


def corpus_graph(seed: int, i: int):
    return gen_bipartite_regular(8, 3, seed=derive(seed, "corpus", i))


def z_graph(seed: int, tiny: bool, i: int):
    """A graph ``estimate-z`` runs on; the README size (n=100) is out of reach."""
    return gen_bipartite_regular(10 if tiny else 12, 3, seed=derive(seed, "z-graph", i))


@dataclass
class CountInputs:
    seed: int
    two_sided: list       # (graph index, graph, kx, ky, exact count)
    one_sided: list       # (graph index, graph, k, exact partition)
    z_graphs: list        # (graph file, exact Z-hat)


class CountSmall(Workload):
    """Telescoping estimators over the n=8 corpus, plus the CLI ``estimate-z``.

    The timed operation (``op_s``) is one corpus graph's estimates.  Each graph
    runs every third of the 18 estimate kinds (criterion-4 combinations and
    one-sided k), and the three resulting mixes cost about the same, so the
    median does not sit between two kinds of very different cost.
    """

    name = "count-small"

    def __init__(self, tiny: bool, trace: bool = False):
        super().__init__(tiny, trace)
        self.graphs = 1 if tiny else 3 if trace else 4
        self.stride = 7 if tiny else 3
        # one estimate-z call varies by 50% from call to call, so it runs on
        # four graphs a round
        self.z_graphs = 1 if tiny or trace else 4

    def setup(self, seed: int, workdir: Path) -> CountInputs:
        two, one = [], []
        jobs = list(TWO_SIDED_COMBOS) + [(k,) for k in ONE_SIDED_KS]
        for i in range(self.graphs):
            g = corpus_graph(seed, i)
            for ks in jobs[i % self.stride::self.stride]:
                if len(ks) == 1:
                    exact = exact_one_sided_partition(g, ks[0], ONE_SIDED_LAMBDA)
                    one.append((i, g, ks[0], exact))
                else:
                    exact = exact_slice_count(g, *ks)
                    if exact > 0:
                        two.append((i, g, *ks, exact))
        zs = []
        for i in range(self.z_graphs):
            gz = z_graph(seed, self.tiny, i)
            save_graph(gz, workdir / f"z-graph-{i}.txt")
            z_exact, _ = exact_partition_hat(gz, Z_LAMBDA, thresholds(gz.degree, Z_LAMBDA))
            zs.append((f"z-graph-{i}.txt", z_exact))
        return CountInputs(seed, two, one, zs)

    def run_round(self, inp: CountInputs, tracer: Tracer, cli: CliRunner) -> Round:
        rnd = Round()
        hits = {"two_sided": [], "one_sided": []}
        jobs: dict = {}
        for i, g, kx, ky, exact in inp.two_sided:
            jobs.setdefault(i, []).append(("two_sided", i, g, (kx, ky), exact))
        for i, g, k, exact in inp.one_sided:
            jobs.setdefault(i, []).append(("one_sided", i, g, (k,), exact))
        estimates = [partial(self._graph_estimates, inp, tracer, rnd, hits, i, graph_jobs)
                     for i, graph_jobs in jobs.items()]
        commands = [partial(self._estimate_z, inp, tracer, cli, rnd, i, *z)
                    for i, z in enumerate(inp.z_graphs)]
        for task in spread_evenly(estimates, commands):
            task()
        # the acceptance test asks 90% within eps of 500 and more estimates; a run
        # makes about 20, so the gate is the binomial tail at the contract's delta
        for kind, got in hits.items():
            misses, allowed = len(got) - sum(got), misses_allowed(len(got))
            rnd.batch_check(misses <= allowed, f"{kind}: {misses} of {len(got)} estimates "
                            f"missed eps; at most {allowed} expected")
        return rnd

    def _graph_estimates(self, inp: CountInputs, tracer: Tracer, rnd: Round, hits: dict,
                         i: int, graph_jobs: list) -> None:
        rnd.op_s[i] = rnd.work[i] = rnd.work_s[i] = 0.0
        for job in graph_jobs:
            dt = self._estimate(inp, tracer, rnd, hits, *job)
            rnd.op_s[i] += dt
            rnd.work_s[i] += dt

    def _estimate(self, inp: CountInputs, tracer: Tracer, rnd: Round, hits: dict, kind: str,
                  i: int, g, ks: tuple, exact: float) -> float:
        """One estimate against its exact oracle; returns its seconds (0 if it raised)."""
        dt = 0.0
        with rnd.op(f"{kind} estimate graph={i} k={ks}"), tracer.span("bench.estimate"):
            est_seed = derive(inp.seed, "estimate", kind, i, *ks)
            if kind == "two_sided":
                est, dt = rescaled_timed(tracer, "counting.estimate_two_sided_count",
                                         estimate_two_sided_count, g, *ks, EPS, DELTA,
                                         seed=est_seed)
            else:
                est, dt = rescaled_timed(tracer, "counting.estimate_one_sided_partition",
                                         estimate_one_sided_partition, g, *ks,
                                         ONE_SIDED_LAMBDA, EPS, DELTA, seed=est_seed)
            rnd.work[i] += est.samples
            tracer.count("counting.samples", est.samples)
            rnd.check(math.isfinite(est.log_value),
                      f"{kind} graph={i} k={ks}: log estimate {est.log_value}")
            # single estimates may miss by more than eps (the contract allows
            # a delta share), so accuracy is gated per family in run_round
            rel = abs(math.exp(est.log_value) / exact - 1.0)
            hits[kind].append(rel <= EPS)
            rnd.accuracy(rel <= EPS)
            rnd.record((est.log_value, est.samples))
        return dt

    def _estimate_z(self, inp: CountInputs, tracer: Tracer, cli: CliRunner, rnd: Round,
                    i: int, z_file: str, z_exact: float) -> None:
        with rnd.op(f"estimate-z command on {z_file}"):
            argv = ["estimate-z", "--in", z_file, "--lambda", str(Z_LAMBDA),
                    "--eps", str(Z_EPS), "--delta", str(DELTA),
                    "--seed", str(derive(inp.seed, "cli-estimate-z", i))]
            proc, rnd.cli_s[i] = cli.run(tracer, argv)
            report = parse_report(proc, "estimate-z", rnd)
            rel = abs(math.exp(report["estimate_log"]) / z_exact - 1.0)
            rnd.check(rel <= Z_EPS, f"estimate-z: relative error {rel:.4f} against exact Z-hat")
            rnd.accuracy(rel <= Z_EPS)
            rnd.record(proc.stdout)


# -- spectral-sweep -----------------------------------------------------------------

RAMANUJAN_SLACK = 0.2     # lambda2 <= 2 sqrt(d - 1) + 0.2, the frequency criterion
RAMANUJAN_RATE = 0.95
CROSS_CHECK_TOL = 1e-6    # iterative against dense lambda2, as in the spectra tests


def sweep_calls(seed: int, i: int) -> list:
    """(name, verifier, args) for the exhaustive-face sweeps on the i-th graph set."""
    gb16 = gen_bipartite_regular(16, 3, seed=derive(seed, "verify-b16", i))
    gb24 = gen_bipartite_regular(24, 3, seed=derive(seed, "verify-b24", i))
    gr24 = gen_regular(24, 3, seed=derive(seed, "verify-r24", i))
    return [("two_sided", verify_top_link_two_sided, (gb16, 2, 2)),
            ("one_sided", verify_top_link_one_sided, (gb24, 4, 0.25)),
            ("identities", verify_one_sided_identities, (gb24, 4, 0.25)),
            ("regular", verify_top_link_regular, (gr24, 4))]


@dataclass
class SpectralInputs:
    seed: int
    lambda2_inputs: list  # (degree, index, graph or neighbor-index array)
    cross_checks: list    # (degree, graph, dense lambda2)
    sweeps: list          # per graph set: [(name, verifier, args)]
    concentration: list   # CLI argv per call


class SpectralSweep(Workload):
    """Exhaustive top-link sweeps and the concentration command, timed; lambda2 at
    side 2000, checked.

    The timed operation (``op_s``) is one graph set's four sweeps, which cost
    about the same on every set.  Power-iteration time varies about 50% from
    graph to graph, so no timing a run can afford over lambda2 calls would be
    steady from seed to seed: lambda2 runs once a run, before the rounds, as a
    gate, and is timed by the per-layer probes.
    """

    name = "spectral-sweep"

    def __init__(self, tiny: bool, trace: bool = False):
        super().__init__(tiny, trace)
        self.side = 100 if tiny else 2000
        self.per_degree = 2
        self.sweep_graphs = 2 if tiny or trace else 8
        # one CLI call varies by up to 50% from call to call, so the command
        # runs twice a round, at half the samples
        self.concentration_calls = 1 if tiny or trace else 2

    def setup(self, seed: int, workdir: Path) -> SpectralInputs:
        l2 = []
        for j in range(self.per_degree):
            # d=3 by rejection to a simple graph; d=8 stays in the pairing model,
            # where rejection would need about e^24 attempts
            l2.append((3, j, gen_bipartite_regular(self.side, 3, seed=derive(seed, "l2-d3", j))))
            rows = pairing_bipartite_rows(self.side, 8,
                                          np.random.default_rng(derive(seed, "l2-d8", j)))
            l2.append((8, j, pairing_index_matrix(rows)))
        cross = []
        for d in (3, 4):
            g = gen_bipartite_regular(60 if self.tiny else 200, d, seed=derive(seed, "cross", d))
            cross.append((d, g, eigen_summary(adjacency_matrix(g)).lambda2))
        sweeps = [sweep_calls(seed, i) for i in range(self.sweep_graphs)]
        # the README command at an eighth of its samples, so that it repeats in
        # every round
        n, d, samples = (2000, 16, 20) if self.tiny else (50000, 64, 25)
        concentration = [["experiment", "--name", "neighborhood-concentration", "--n", str(n),
                          "--delta", str(d), "--samples", str(samples),
                          "--seed", str(derive(seed, "cli-concentration", rep))]
                         for rep in range(self.concentration_calls)]
        return SpectralInputs(seed, l2, cross, sweeps, concentration)

    def gates(self, inp: SpectralInputs, tracer: Tracer, cli: CliRunner) -> Round:
        rnd = Round()
        within = {3: [], 8: []}
        for x in inp.lambda2_inputs:
            self._lambda2(inp, tracer, rnd, within, *x)
        for x in inp.cross_checks:
            self._cross_check(inp, tracer, rnd, *x)
        for d, got in within.items():
            rate = sum(got) / len(got)
            rnd.batch_check(rate >= RAMANUJAN_RATE,
                            f"d={d}: {rate:.3f} of lambda2 near Ramanujan, need {RAMANUJAN_RATE}")
        return rnd

    def run_round(self, inp: SpectralInputs, tracer: Tracer, cli: CliRunner) -> Round:
        rnd = Round()
        sweeps = [partial(self._sweeps, tracer, rnd, i, calls)
                  for i, calls in enumerate(inp.sweeps)]
        commands = [partial(self._concentration, tracer, cli, rnd, rep, argv)
                    for rep, argv in enumerate(inp.concentration)]
        for task in spread_evenly(sweeps, commands):
            task()
        return rnd

    def _lambda2(self, inp: SpectralInputs, tracer: Tracer, rnd: Round, within: dict, d: int,
                 j: int, graph) -> None:
        with rnd.op(f"lambda2 d={d} graph={j}"), tracer.span("bench.lambda2"):
            s = derive(inp.seed, "lambda2", d, j)
            if d == 3:
                lam2, _ = timed(tracer, "spectra.iterative_lambda2", iterative_lambda2, graph,
                                seed=s)
            else:
                lam2, _ = timed(tracer, "spectra.iterative_lambda2", iterative_lambda2, graph, d,
                                seed=s)
            rnd.check(math.isfinite(lam2) and 0.0 < lam2 < d, f"lambda2 d={d}: {lam2}")
            ok = lam2 <= 2.0 * math.sqrt(d - 1) + RAMANUJAN_SLACK
            within[d].append(ok)
            rnd.accuracy(ok)
            rnd.record(lam2)

    def _cross_check(self, inp: SpectralInputs, tracer: Tracer, rnd: Round, d: int, g,
                     dense: float) -> None:
        with rnd.op(f"cross-check d={d}"), tracer.span("bench.cross_check"):
            lam2, _ = timed(tracer, "spectra.iterative_lambda2", iterative_lambda2, g,
                            seed=derive(inp.seed, "cross-check", d))
            rnd.check(abs(lam2 - dense) <= CROSS_CHECK_TOL,
                      f"cross-check d={d}: iterative {lam2} against dense {dense}")
            rnd.record(lam2)

    def _sweeps(self, tracer: Tracer, rnd: Round, i: int, calls: list) -> None:
        with rnd.op(f"sweeps on graph set {i}"), tracer.span("bench.sweeps"):
            rnd.op_s[i] = rnd.work[i] = 0.0
            for name, verify, args in calls:
                report, dt = rescaled_timed(tracer, f"verify.{verify.__name__}", verify, *args)
                rnd.op_s[i] += dt
                rnd.work[i] += report.checked
                tracer.count("verify.links_checked", report.checked)
                rnd.check(report.failures == 0 and len(report.records) > 0,
                          f"{name} sweep on set {i}: {report.failures} failures in "
                          f"{len(report.records)} records")
                rnd.record(report.summary())
            rnd.work_s[i] = rnd.op_s[i]

    def _concentration(self, tracer: Tracer, cli: CliRunner, rnd: Round, rep: int,
                       argv: list) -> None:
        with rnd.op("neighborhood-concentration command"):
            proc, rnd.cli_s[rep] = cli.run(tracer, argv)
            report = parse_report(proc, "experiment", rnd)
            rnd.check(report.get("experiment") == "neighborhood-concentration"
                      and bool(report.get("notes")), "concentration: report kind or notes")
            for label in ("below", "critical", "above"):
                e = report[label]
                rnd.check(e["tau_size"] > 0 and 0.0 <= e["min_fraction"] <= e["mean_fraction"]
                          <= e["max_fraction"] <= 1.0, f"concentration: {label} fractions {e}")
            rnd.record(proc.stdout)


WORKLOADS = {w.name: w for w in (SampleChains, CountSmall, SpectralSweep)}


def run_rounds(workload: Workload, inp, tracer: Tracer, cli: CliRunner,
               seconds: float, between=None) -> list[Round]:
    """Rounds until the next one would end past ``seconds``; always at least one.

    ``between`` is called after each round, inside the time box.
    """
    rounds: list[Round] = []
    longest = 0.0
    start = perf_counter()
    while True:
        t0 = perf_counter()
        rnd = workload.run_round(inp, tracer, cli)
        rnd.wall_s = perf_counter() - t0
        rounds.append(rnd)
        if between is not None:
            between()
        longest = max(longest, perf_counter() - t0)
        if perf_counter() - start + longest > seconds:
            return rounds
