"""Per-layer probes for the traced run.

Each probe times the benchmark's own calls into one module's public
functions, inside a span named ``<module>.<function>``, on inputs derived
from the run seed.  Layers are measured from outside: what happens inside a
call (pilot versus main samples, power-iteration counts, rejection attempts)
is not visible here.  Every traced run emits every probe, whatever its
workload, so that each per-layer metric is defined on each workload.
"""
from __future__ import annotations

import statistics
from pathlib import Path
from time import perf_counter

import numpy as np

from slicewalk.counting import (estimate_one_sided_partition, estimate_partition_hat,
                                estimate_two_sided_count, exact_one_sided_partition,
                                exact_partition_hat, exact_slice_count, thresholds)
from slicewalk.experiments import ExperimentConfig, experiment_neighborhood_concentration
from slicewalk.graphs import (gen_bipartite_regular, gen_regular, load_graph,
                              pairing_bipartite_rows, save_graph)
from slicewalk.reports import reproducibility_stanza, to_json
from slicewalk.rng import UniformBuffer
from slicewalk.slices import (OneSidedSlice, RegularSlice, TwoSidedSlice, exact_distribution,
                              greedy_facet, link, neighbor_graph,
                              one_sided_link_walk_closed_form, regular_link_walk_closed_form,
                              two_sided_link_walk_closed_form)
from slicewalk.spectra import (adjacency_matrix, eigen_summary, iterative_lambda2,
                               pairing_index_matrix)
from slicewalk.walks import (ChainConfig, down_up_step, exact_transition_matrix,
                             format_facet, greedy_initial_state, run_chain, spectral_gap,
                             tv_distance)

from harness import CliRunner, Round, Tracer, derive, timed
from workloads import (EPS, DELTA, FAMILIES, ONE_SIDED_LAMBDA, TWO_SIDED_COMBOS, Z_EPS,
                       Z_LAMBDA, corpus_graph, family_slice, oracle_slice, sweep_calls, z_graph)

STEP_SIZES = (50, 200, 1000, 5000)

# name -> unit, in the order they are reported
LAYER_METRICS = {
    "graphs.gen_s": "s", "graphs.pairing_s": "s", "graphs.load_s": "s",
    "rng.uniforms_per_s": "1/s",
    "slices.greedy_facet_s": "s", "slices.greedy_facet_calls": "count",
    "slices.link_s": "s",
    "slices.exact_distribution_s": "s", "slices.exact_distribution_calls": "count",
    **{f"slices.closed_form_walk_s.{f}": "s" for f in FAMILIES},
    "slices.neighbor_graph_s": "s",
    **{f"walks.step_per_s.{f}.n{n}": "steps/s" for f in FAMILIES for n in STEP_SIZES},
    "walks.step_per_s.one_sided.n8": "steps/s", "walks.step_per_s.two_sided.n8": "steps/s",
    **{f"walks.self_loop_fraction.{f}": "ratio" for f in FAMILIES},
    "walks.facet_s": "s", "walks.oracle_tv_s": "s", "walks.oracle_gap_s": "s",
    "walks.spectral_gap_s": "s",
    "counting.estimate_s.two_sided": "s", "counting.estimate_s.one_sided": "s",
    "counting.samples_per_estimate": "count", "counting.samples_per_s": "1/s",
    "counting.sampled_level_fraction": "ratio", "counting.partition_hat_s": "s",
    "counting.exact_oracle_s": "s",
    "spectra.lambda2_s.d3": "s", "spectra.lambda2_s.d8": "s", "spectra.eigen_summary_s": "s",
    "verify.sweep_s.two_sided": "s", "verify.sweep_s.one_sided": "s",
    "verify.sweep_s.regular": "s", "verify.sweep_s.identities": "s",
    "verify.links_checked": "count",
    "experiments.concentration_s": "s",
    "reports.to_json_s": "s", "cli.import_s": "s",
    "trace.overhead_s": "s", "trace.spans": "count",
}


class LayerProbes:
    def __init__(self, seed: int, tracer: Tracer, cli: CliRunner, workdir: Path, tiny: bool):
        self.seed = seed
        self.tr = tracer
        self.cli = cli
        self.workdir = workdir
        self.tiny = tiny
        self.out: dict[str, float] = {}

    def median_call(self, name: str, fn, calls) -> float:
        """Median seconds per call of ``fn`` over the argument tuples in ``calls``."""
        return statistics.median(timed(self.tr, name, fn, *args)[1] for args in calls)

    def rate(self, seconds: float, step) -> float:
        """Calls of ``step`` per second, over a time box of ``seconds``."""
        done = 0
        t0 = perf_counter()
        while True:
            for _ in range(16):
                step()
            done += 16
            elapsed = perf_counter() - t0
            if elapsed >= seconds:
                return done / elapsed

    def run(self, rnd: Round) -> dict[str, float]:
        """Every probe, each one attempted operation of ``rnd``."""
        for probe in (self.graphs, self.rng, self.slices, self.walks, self.counting,
                      self.spectra, self.verify, self.experiments, self.reports):
            with rnd.op(f"{probe.__name__} probe"), self.tr.span(f"bench.probe.{probe.__name__}"):
                probe()
        return self.out

    def graphs(self):
        s = self.seed
        side = 200 if self.tiny else 1000
        gens = [timed(self.tr, "graphs.gen_bipartite_regular", gen_bipartite_regular, side, 3,
                      seed=derive(s, "probe-gen", i))[1] for i in range(3)]
        gens += [timed(self.tr, "graphs.gen_regular", gen_regular, side, 3,
                       seed=derive(s, "probe-gen-regular", i))[1] for i in range(3)]
        self.out["graphs.gen_s"] = statistics.median(gens)
        self.out["graphs.pairing_s"] = self.median_call(
            "graphs.pairing_bipartite_rows", pairing_bipartite_rows,
            [(2000, 8, np.random.default_rng(derive(s, "probe-pairing", i))) for i in range(3)])
        path = self.workdir / "probe-g100.txt"
        save_graph(gen_bipartite_regular(100, 3, seed=derive(s, "readme-graph")), path)
        self.out["graphs.load_s"] = self.median_call("graphs.load_graph", load_graph,
                                                     [(path,)] * 5)

    def rng(self):
        buf = UniformBuffer(np.random.default_rng(derive(self.seed, "probe-rng")))
        with self.tr.span("rng.UniformBuffer.next"):
            self.out["rng.uniforms_per_s"] = self.rate(0.05 if self.tiny else 0.2, buf.next)

    def slices(self):
        g = corpus_graph(self.seed, 0)
        roots = [TwoSidedSlice(g, 2, 2), OneSidedSlice(g, 3, ONE_SIDED_LAMBDA)]
        faces = [((v,), ()) for v in range(8)] + [((), (v,)) for v in range(8)]
        links = [timed(self.tr, "slices.link", link, roots[0], f) for f in faces]
        one_faces = [(v,) for v in range(8)]
        links += [timed(self.tr, "slices.link", link, roots[1], f) for f in one_faces]
        self.out["slices.link_s"] = statistics.median(dt for _, dt in links)
        pinned = [slc for slc, _ in links]
        rng = np.random.default_rng(derive(self.seed, "probe-greedy"))
        self.out["slices.greedy_facet_s"] = self.median_call(
            "slices.greedy_facet", greedy_facet, [(slc, rng) for slc in pinned])
        self.out["slices.greedy_facet_calls"] = len(pinned)
        self.out["slices.exact_distribution_s"] = self.median_call(
            "slices.exact_distribution", exact_distribution, [(slc,) for slc in pinned])
        self.out["slices.exact_distribution_calls"] = len(pinned)

        gb16 = gen_bipartite_regular(16, 3, seed=derive(self.seed, "verify-b16", 0))
        gb24 = gen_bipartite_regular(24, 3, seed=derive(self.seed, "verify-b24", 0))
        gr24 = gen_regular(24, 3, seed=derive(self.seed, "verify-r24", 0))
        two = TwoSidedSlice(gb16, 3, 3)
        two_faces = [((a, a + 1), tuple(j for j in range(16) if j not in
                                         gb16.neighbor_set("x", (a, a + 1)))[:2])
                     for a in range(0, 14, 2)]
        one = OneSidedSlice(gb24, 4, 0.25)
        one_faces = [(a, a + 1) for a in range(0, 22, 2)]
        reg = RegularSlice(gr24, 5)
        reg_faces = [t for t in ((a, b, c) for a in range(24) for b in range(a + 1, 24)
                                 for c in range(b + 1, 24))
                     if all(v not in gr24.neighbors(u) for u, v in ((t[0], t[1]), (t[0], t[2]),
                                                                    (t[1], t[2])))][:12]
        ops = []
        for family, fn, calls in (
                ("two_sided", two_sided_link_walk_closed_form,
                 [(two, tx, ty) for tx, ty in two_faces]),
                ("one_sided", one_sided_link_walk_closed_form, [(one, t) for t in one_faces]),
                ("regular", regular_link_walk_closed_form, [(reg, t) for t in reg_faces])):
            timings = []
            for args in calls:
                op, dt = timed(self.tr, f"slices.{fn.__name__}", fn, *args)
                ops.append(op)
                timings.append(dt)
            self.out[f"slices.closed_form_walk_s.{family}"] = statistics.median(timings)
        self.out["slices.neighbor_graph_s"] = self.median_call(
            "slices.neighbor_graph", neighbor_graph, [(one, t) for t in one_faces])
        self.out["walks.spectral_gap_s"] = self.median_call(
            "walks.spectral_gap", spectral_gap, [(op.matrix, op.pi) for op in ops])

    def walks(self):
        box = 0.02 if self.tiny else 0.25
        sizes = STEP_SIZES[:2] if self.tiny else STEP_SIZES
        rng = np.random.default_rng(derive(self.seed, "probe-steps"))
        for family in FAMILIES:
            for n in STEP_SIZES:
                slc = family_slice(family, n if n in sizes else sizes[-1], self.seed)
                state = greedy_initial_state(slc, rng)
                with self.tr.span("walks.down_up_step"):
                    self.out[f"walks.step_per_s.{family}.n{n}"] = self.rate(
                        box, lambda: down_up_step(slc, state, rng))
        g8 = corpus_graph(self.seed, 0)
        for family, slc in (("two_sided", link(TwoSidedSlice(g8, 2, 2), ((0,), ()))),
                            ("one_sided", link(OneSidedSlice(g8, 3, ONE_SIDED_LAMBDA), (0,)))):
            state = greedy_initial_state(slc, rng)
            with self.tr.span("walks.down_up_step"):
                self.out[f"walks.step_per_s.{family}.n8"] = self.rate(
                    box, lambda: down_up_step(slc, state, rng))

        facet_times = []
        for family in FAMILIES:
            slc = family_slice(family, sizes[1], self.seed)
            state = greedy_initial_state(slc, rng)
            loops = 0
            steps = 100 if self.tiny else 2000
            with self.tr.span("walks.down_up_step"):
                for _ in range(steps):
                    before = state.facet()
                    down_up_step(slc, state, rng)
                    loops += state.facet() == before
            self.out[f"walks.self_loop_fraction.{family}"] = loops / steps
            big = family_slice(family, sizes[-1], self.seed)
            big_state = greedy_initial_state(big, rng)
            facet_times += [timed(self.tr, "walks.ChainState.facet", big_state.facet)[1]
                            for _ in range(50)]
        self.out["walks.facet_s"] = statistics.median(facet_times)

        tv_times, gap_times = [], []
        for family in FAMILIES:
            orc = oracle_slice(family, self.seed)
            cfg = ChainConfig(steps=4000 if self.tiny else 20000,
                              seed=derive(self.seed, "probe-oracle", family),
                              oracle_cap=0, gap_cap=0)
            samples, _ = run_chain(orc.slc, cfg)
            with self.tr.span("bench.oracle_tv"):
                t0 = perf_counter()
                facets, probs = timed(self.tr, "slices.exact_distribution",
                                      exact_distribution, orc.slc)[0]
                index = {f: i for i, f in enumerate(facets)}
                hist = np.bincount([index[f] for f in samples], minlength=len(facets))
                timed(self.tr, "walks.tv_distance", tv_distance, hist, probs)
                tv_times.append(perf_counter() - t0)
            with self.tr.span("bench.oracle_gap"):
                t0 = perf_counter()
                facets, p, pi = timed(self.tr, "walks.exact_transition_matrix",
                                      exact_transition_matrix, orc.slc)[0]
                timed(self.tr, "walks.spectral_gap", spectral_gap,
                      0.5 * (np.eye(len(facets)) + p), pi)
                gap_times.append(perf_counter() - t0)
        self.out["walks.oracle_tv_s"] = statistics.median(tv_times)
        self.out["walks.oracle_gap_s"] = statistics.median(gap_times)

    def counting(self):
        s = self.seed
        g = corpus_graph(s, 0)
        combos = TWO_SIDED_COMBOS[:2] if self.tiny else ((1, 1), (1, 2), (2, 1), (2, 2))
        ks = (2,) if self.tiny else (2, 3, 4)
        ests, two_t, one_t = [], [], []
        for kx, ky in combos:
            est, dt = timed(self.tr, "counting.estimate_two_sided_count",
                            estimate_two_sided_count, g, kx, ky, EPS, DELTA,
                            seed=derive(s, "probe-estimate", kx, ky))
            ests.append((est, dt))
            two_t.append(dt)
        for k in ks:
            est, dt = timed(self.tr, "counting.estimate_one_sided_partition",
                            estimate_one_sided_partition, g, k, ONE_SIDED_LAMBDA, EPS, DELTA,
                            seed=derive(s, "probe-estimate", k))
            ests.append((est, dt))
            one_t.append(dt)
        self.out["counting.estimate_s.two_sided"] = statistics.median(two_t)
        self.out["counting.estimate_s.one_sided"] = statistics.median(one_t)
        self.out["counting.samples_per_estimate"] = statistics.median(e.samples for e, _ in ests)
        self.out["counting.samples_per_s"] = (sum(e.samples for e, _ in ests)
                                              / sum(dt for _, dt in ests))
        levels = [t for e, _ in ests for t in e.trace]
        self.out["counting.sampled_level_fraction"] = (
            sum(1 for t in levels if t.samples > 0) / max(1, len(levels)))

        gz = z_graph(s, self.tiny, 0)
        thr = thresholds(gz.degree, Z_LAMBDA)
        _, self.out["counting.partition_hat_s"] = timed(
            self.tr, "counting.estimate_partition_hat", estimate_partition_hat, gz, Z_LAMBDA,
            Z_EPS, DELTA, seed=derive(s, "cli-estimate-z", 0), thr=thr)
        with self.tr.span("bench.exact_oracles"):
            t0 = perf_counter()
            for kx, ky in TWO_SIDED_COMBOS:
                timed(self.tr, "counting.exact_slice_count", exact_slice_count, g, kx, ky)
            for k in (1, 2, 3, 4):
                timed(self.tr, "counting.exact_one_sided_partition", exact_one_sided_partition,
                      g, k, ONE_SIDED_LAMBDA)
            timed(self.tr, "counting.exact_partition_hat", exact_partition_hat, gz, Z_LAMBDA, thr)
            self.out["counting.exact_oracle_s"] = perf_counter() - t0

    def spectra(self):
        s = self.seed
        side = 200 if self.tiny else 2000
        g = gen_bipartite_regular(side, 3, seed=derive(s, "probe-l2-d3"))
        _, self.out["spectra.lambda2_s.d3"] = timed(
            self.tr, "spectra.iterative_lambda2", iterative_lambda2, g, seed=derive(s, "l2", 3))
        idx = pairing_index_matrix(pairing_bipartite_rows(
            side, 8, np.random.default_rng(derive(s, "probe-l2-d8"))))
        _, self.out["spectra.lambda2_s.d8"] = timed(
            self.tr, "spectra.iterative_lambda2", iterative_lambda2, idx, 8,
            seed=derive(s, "l2", 8))
        g200 = gen_bipartite_regular(60 if self.tiny else 200, 3, seed=derive(s, "cross", 3))
        self.out["spectra.eigen_summary_s"] = self.median_call(
            "spectra.eigen_summary", eigen_summary, [(adjacency_matrix(g200),)] * 3)

    def verify(self):
        checked = 0
        for name, fn, args in sweep_calls(self.seed, 0):
            report, self.out[f"verify.sweep_s.{name}"] = timed(
                self.tr, f"verify.{fn.__name__}", fn, *args)
            checked += report.checked
        self.out["verify.links_checked"] = checked

    def experiments(self):
        n, d = (2000, 16) if self.tiny else (50000, 64)
        cfg = ExperimentConfig(name="neighborhood-concentration", n_side=n, degree=d,
                               seed=derive(self.seed, "probe-concentration"),
                               samples=10 if self.tiny else 50)
        _, self.out["experiments.concentration_s"] = timed(
            self.tr, "experiments.experiment_neighborhood_concentration",
            experiment_neighborhood_concentration, cfg)

    def reports(self):
        g = gen_bipartite_regular(100, 3, seed=derive(self.seed, "readme-graph"))
        slc = OneSidedSlice(g, 8, 0.2)
        cfg = ChainConfig(steps=2000 if self.tiny else 20000, seed=derive(self.seed, "probe-report"))
        samples, mix = run_chain(slc, cfg)
        report = {"reproducibility": reproducibility_stanza("sample", {"k": 8}, cfg.seed),
                  "samples": len(samples),
                  "mixing": {"empirical_tv": mix.empirical_tv, "exact_gap": mix.exact_gap,
                             "autocorr_lag1": mix.autocorr_lag1, "steps": mix.steps},
                  "stream": [format_facet(slc, f) for f in samples]}
        self.out["reports.to_json_s"] = self.median_call("reports.to_json", to_json,
                                                         [(report,)] * 5)
        with self.tr.span("cli.import"):
            self.out["cli.import_s"] = statistics.median(
                self.cli.import_seconds() for _ in range(3))
