#!/usr/bin/env python3
"""Benchmark for slicewalk: three seeded workloads, checked outputs, one JSON result.

Run from the root of a checkout:

    python3 perfbench/run.py --workload sample-chains --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics.  ``--trace 1`` is the separate
traced run: one untraced round, one traced round (the difference is the
tracing overhead), then the per-layer probes; spans are written to
``perfbench/.work/traces/``.  The last line of standard output is the result
object; the line before it holds provenance, sample counts and the output hash.
"""
from __future__ import annotations

import os

# Pin BLAS before numpy is imported anywhere: eigh and eigvalsh would
# otherwise contend for the machine's cores.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent

# name -> unit; the per-workload meaning of each is documented in README.md
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
    "op_s_p50": "s",
    "op_s_tail": "s",
    "cli_s": "s",
    "work_per_s": "1/s",
    "accurate_fraction": "ratio",
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=("sample-chains", "count-small", "spectral-sweep"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="smallest sizes that still run every code path (smoke test)")
    return p.parse_args(argv)


def import_program(root: Path):
    """Put the checkout's ``src`` first on the path; refuse any other slicewalk."""
    src = root / "src"
    if not (src / "slicewalk" / "__init__.py").is_file():
        raise SystemExit(f"error: {src}/slicewalk not found; run from the root of a "
                         "slicewalk checkout")
    sys.path.insert(0, str(src))
    import slicewalk

    if Path(slicewalk.__file__).resolve().parent != (src / "slicewalk").resolve():
        raise SystemExit(f"error: imported slicewalk from {slicewalk.__file__}, not {src}")
    return src


def end_to_end(rounds, setup_times, gates) -> tuple[dict[str, float], dict]:
    """Metric values, and the sample counts behind the percentiles.

    Every timing is in seconds at reference speed (``harness.rescaled_timed``).
    ``cli_s`` is the median over every CLI call of the run: one call varies by
    50% from call to call on a shared machine, so no call is worth more than
    another.
    """
    from harness import peak_rss_mb, per_input_medians, tail

    ops = list(per_input_medians(rounds).values())
    tail_value, tail_percentile = tail(ops)
    work_s = per_input_medians(rounds, "work_s")
    return {
        "setup_s": statistics.median(setup_times),
        "wall_s": statistics.median(r.timed_s for r in rounds),
        "peak_rss_mb": peak_rss_mb(),
        "op_s_p50": statistics.median(ops),
        "op_s_tail": tail_value,
        "cli_s": statistics.median(t for r in rounds for t in r.cli_s.values()),
        "work_per_s": sum(rounds[0].work.values()) / sum(work_s.values()),
        "accurate_fraction": (sum(r.hits for r in [gates, *rounds])
                              / sum(r.checked for r in [gates, *rounds])),
    }, {"op_samples": len(ops), "op_tail_percentile": tail_percentile}


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    root = Path.cwd()
    src = import_program(root)

    from harness import CliRunner, Round, Tracer, machine_info, rescaled_timed
    from workloads import WORKLOADS, run_rounds

    workload = WORKLOADS[args.workload](args.tiny, trace=bool(args.trace))
    workdir = HERE / ".work" / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        setup_times = []

        def setup():
            inp, dt = rescaled_timed(Tracer(False), "setup", workload.setup, args.seed, workdir)
            setup_times.append(dt)
            return inp

        inputs = setup()
        cli = CliRunner(src, workdir)
        cli.import_seconds()  # the first start of the CLI reads its imports from disk
        # one-off gates; they also warm caches before anything is timed
        gates = workload.gates(inputs, Tracer(False), cli)
        info: dict = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
                      "tiny": args.tiny, "machine": machine_info()}
        if args.trace:
            from layers import LAYER_METRICS, LayerProbes

            untraced = run_rounds(workload, inputs, Tracer(False), cli, 0)
            tracer = Tracer(True)
            traced = run_rounds(workload, inputs, tracer, cli, 0)
            spans = len(tracer.spans)
            info["round_module_self_s"] = tracer.module_self_times()
            probes = Round()
            values = LayerProbes(args.seed, tracer, cli, workdir, args.tiny).run(probes)
            # raw walls: the spans sit outside the timed calls
            values["trace.overhead_s"] = traced[0].wall_s - untraced[0].wall_s
            values["trace.spans"] = spans
            rounds = untraced + traced
            units = LAYER_METRICS
            trace_file = HERE / ".work" / "traces" / f"{args.workload}-seed{args.seed}.json"
            tracer.write(trace_file, {"workload": args.workload, "seed": args.seed,
                                      "untraced_wall_s": untraced[0].wall_s,
                                      "traced_wall_s": traced[0].wall_s,
                                      "round_spans": spans})
            info["trace_file"] = str(trace_file.relative_to(root))
        else:
            # setup repeats after every round, so its median spans the run
            rounds = run_rounds(workload, inputs, Tracer(False), cli, args.seconds,
                                between=setup)
            values, samples = end_to_end(rounds, setup_times, gates)
            units = END_TO_END
            info.update(samples)
        attempted = gates.attempted + sum(r.attempted for r in rounds)
        failed = gates.failed + sum(r.failed for r in rounds)
        if args.trace:
            attempted += probes.attempted
            failed += probes.failed
        digests = {r.digest for r in rounds}
        if len(rounds) > 1:
            attempted += 1
            if len(digests) != 1:
                failed += 1
                print("[perfbench] check failed: rounds of one run produced different outputs",
                      file=sys.stderr)
        info.update(rounds=len(rounds), output_sha256=rounds[0].digest,
                    gates_sha256=gates.digest,
                    setup_times_s=setup_times, round_walls_s=[r.wall_s for r in rounds],
                    round_timed_s=[r.timed_s for r in rounds],
                    cli_calls_s=[t for r in rounds for t in r.cli_s.values()])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({"perfbench": info}, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        # a probe that raised leaves its metrics at 0, and the run is not correct
        "metrics": {name: {"value": values.get(name, 0.0), "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
