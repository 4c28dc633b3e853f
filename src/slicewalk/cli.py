"""Command-line front end.

Subcommands: gen-graph, sample, estimate-z, verify-spectral, experiment.
Every run prints a machine-readable report that starts with a reproducibility
stanza (full effective config, seed, version); with identical config and seed
the output is byte-identical.  Exit codes: 0 success, 1 verification failure,
2 usage error, 3 runtime failure (an infeasible slice, an exhausted rejection
budget, too few samples, an enumeration above its cap).

A flat key=value config file can seed any option (--config); explicit
command-line flags take precedence over the file in every form argparse
accepts (``--flag value``, ``--flag=value``, an abbreviated ``--fl``).
"""
from __future__ import annotations

import argparse
import sys
import time
from dataclasses import asdict, fields
from pathlib import Path
from typing import Callable, NamedTuple

from . import __version__
from .counting import GAMMA, ThresholdParams, estimate_partition_hat, threshold_pair
from .experiments import (ExperimentConfig, experiment_independent_set_size,
                          experiment_large_set_expansion,
                          experiment_neighborhood_concentration,
                          experiment_slow_mixing)
from .graphs import (BipartiteRegularGraph, RegularGraph, gen_bipartite_regular, gen_regular,
                     load_graph, save_graph)
from .reports import emit, reproducibility_stanza, to_csv, to_json
from .slices import OneSidedSlice, RegularSlice, TwoSidedSlice
from .verify import (EXHAUSTIVE_FACE_CAP, SAMPLED_FACES, verify_one_sided_identities,
                     verify_top_link_one_sided, verify_top_link_regular, verify_top_link_two_sided)
from .walks import ChainConfig, format_facet, run_chain


class UsageError(ValueError):
    pass


def load_config_file(path: str) -> dict[str, str]:
    """Flat key=value lines; '#' starts a comment.  Values stay text: each
    option converts its own."""
    out: dict[str, str] = {}
    for lineno, line in enumerate(Path(path).read_text().splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{lineno}: expected key=value")
        key, raw = line.split("=", 1)
        out[key.strip().replace("-", "_")] = raw.strip()
    return out


class Family(NamedTuple):
    """A slice family: its class, the graph type it needs, the options it reads
    (by dest, in constructor and sweep order) and its verify-spectral sweeps."""

    slice: type
    graph: type
    reads: tuple[str, ...]
    sweeps: tuple[Callable, ...]


FAMILIES = {
    "two-sided": Family(TwoSidedSlice, BipartiteRegularGraph, ("kx", "ky"),
                        (verify_top_link_two_sided,)),
    "one-sided": Family(OneSidedSlice, BipartiteRegularGraph, ("k", "lam"),
                        (verify_top_link_one_sided, verify_one_sided_identities)),
    "regular": Family(RegularSlice, RegularGraph, ("k",), (verify_top_link_regular,)),
}


# Each experiment's driver and the options it reads, by dest.
EXPERIMENTS = {
    "neighborhood-concentration": (experiment_neighborhood_concentration,
                                   ("gamma", "ell", "samples")),
    "large-set-expansion": (experiment_large_set_expansion, ("gamma", "a", "b", "samples")),
    "independent-set-size": (experiment_independent_set_size, ("lam", "gamma", "samples")),
    "slow-mixing": (experiment_slow_mixing, ("k", "lam", "c", "steps", "runs", "control")),
}


def _build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """(top-level parser, subcommand parsers by name)."""
    parser = argparse.ArgumentParser(
        prog="slicewalk",
        description="Sampling, spectral verification, and approximate counting "
                    "for hardcore-model slices on regular bipartite graphs")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", type=str, default=None)
        p.add_argument("--format", choices=("json", "csv"), default="json")
        p.add_argument("--config", type=str, default=None,
                       help="flat key=value file providing defaults")
        p.add_argument("--timing", action="store_true",
                       help="include wall_time, the command's elapsed seconds, "
                            "in the report (breaks byte-reproducibility)")

    p = sub.add_parser("gen-graph", help="generate a random regular (bipartite) graph")
    kind = p.add_mutually_exclusive_group(required=True)
    kind.add_argument("--bipartite", action="store_true")
    kind.add_argument("--regular", action="store_true")
    p.add_argument("--n", type=int, required=True,
                   help="side size (bipartite) or vertex count (regular)")
    p.add_argument("--delta", type=int, required=True, help="degree")
    p.add_argument("--max-retries", type=int, default=10_000)
    common(p)

    p = sub.add_parser("sample", help="run a down-up chain and emit the sample stream")
    p.add_argument("--in", dest="graph_in", type=str, required=True)
    p.add_argument("--family", choices=tuple(FAMILIES), required=True)
    p.add_argument("--kx", type=int, default=1)
    p.add_argument("--ky", type=int, default=1)
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--lambda", dest="lam", type=float, default=0.5, help="fugacity")
    p.add_argument("--steps", type=int, default=100_000)
    p.add_argument("--burn-in", type=int, default=None)
    p.add_argument("--thin", type=int, default=None)
    p.add_argument("--no-lazy", action="store_true")
    p.add_argument("--stream-out", type=str, default=None,
                   help="write the facet stream here (default: inside the report)")
    common(p)

    p = sub.add_parser("estimate-z", help="banded partition-function estimate")
    p.add_argument("--in", dest="graph_in", type=str, required=True)
    p.add_argument("--lambda", dest="lam", type=float, required=True, help="fugacity")
    p.add_argument("--eps", type=float, default=0.1)
    p.add_argument("--delta", type=float, default=0.1)
    p.add_argument("--gamma", type=float, default=GAMMA)
    p.add_argument("--alpha", type=float, default=None,
                   help="override the occupancy threshold")
    p.add_argument("--beta", type=float, default=None,
                   help="override the band ceiling")
    common(p)

    p = sub.add_parser("verify-spectral", help="deterministic top-link bound sweeps")
    p.add_argument("--in", dest="graph_in", type=str, required=True)
    fam = p.add_mutually_exclusive_group(required=True)
    for name in FAMILIES:
        fam.add_argument(f"--{name}", action="store_true")
    p.add_argument("--kx", type=int, default=2)
    p.add_argument("--ky", type=int, default=2)
    p.add_argument("--k", type=int, default=3)
    p.add_argument("--lambda", dest="lam", type=float, default=0.25, help="fugacity")
    p.add_argument("--face-cap", type=int, default=EXHAUSTIVE_FACE_CAP)
    p.add_argument("--sample-count", type=int, default=SAMPLED_FACES)
    p.add_argument("--full-records", action="store_true",
                   help="include every per-link record in the report")
    common(p)

    p = sub.add_parser("experiment", help="concentration and slow-mixing drivers")
    p.add_argument("--name", required=True, choices=tuple(EXPERIMENTS))
    p.add_argument("--n", type=int, required=True, help="side size")
    p.add_argument("--delta", type=int, required=True, help="degree")
    defaults = {f.name: f.default for f in fields(ExperimentConfig)}
    p.add_argument("--k", type=int, default=defaults["k"])
    p.add_argument("--lambda", dest="lam", type=float, default=defaults["fugacity"],
                   help="fugacity")
    p.add_argument("--gamma", type=float, default=defaults["gamma"])
    p.add_argument("--ell", type=float, default=defaults["ell"])
    p.add_argument("--a", type=float, default=defaults["a"])
    p.add_argument("--b", type=float, default=defaults["b"])
    p.add_argument("--c", type=float, default=defaults["c"])
    p.add_argument("--samples", type=int, default=defaults["samples"])
    p.add_argument("--steps", type=int, default=defaults["steps"])
    p.add_argument("--runs", type=int, default=defaults["runs"])
    p.add_argument("--control", action="store_true")
    common(p)
    return parser, sub.choices


def _effective_args(argv):
    """Parse ``argv``; a --config file becomes the subcommand's defaults and
    the command line is parsed again, so argparse lets every explicit flag
    win over the file.  ``given`` on the result maps each dest that the
    command line or the file sets to its flag."""
    parser, commands = _build_parser()
    args = parser.parse_args(argv)
    sub = commands[args.command]
    bare, bare_commands = _build_parser()  # no defaults: parses to the dests argv sets
    for action in bare_commands[args.command]._actions:
        action.default = argparse.SUPPRESS
    given = set(vars(bare.parse_args(argv)))
    overrides = load_config_file(args.config) if args.config else {}
    unknown = [k for k in overrides if k == "command" or not hasattr(args, k)]
    if unknown:
        raise UsageError(f"unknown config keys: {', '.join(sorted(unknown))}")
    for action in sub._actions:  # set_defaults bypasses argparse's type and choices
        if action.dest in overrides:
            overrides[action.dest] = _config_value(action, overrides[action.dest])
    # argparse counts a group member as given only when its value is not its
    # default, so the file must not touch a group the command line set
    for group in sub._mutually_exclusive_groups:
        if any(a.dest in given for a in group._group_actions):
            for a in group._group_actions:
                overrides.pop(a.dest, None)
    if overrides:
        sub.set_defaults(**overrides)
        args = parser.parse_args(argv)
    args.given = {a.dest: a.option_strings[0] for a in sub._actions
                  if a.dest in given or a.dest in overrides}
    return args


def _config_value(action: argparse.Action, raw: str):
    """The config file's text ``raw`` for ``action`` converted as the
    command line converts it: by the option's ``type`` and checked against
    its choices; a flag takes true or false."""
    if action.nargs == 0:
        if raw.lower() not in ("true", "false"):
            raise UsageError(f"config {action.dest} = {raw}: expected true or false")
        return raw.lower() == "true"
    try:
        value = raw if action.type is None else action.type(raw)
    except ValueError:
        raise UsageError(f"config {action.dest} = {raw}: "
                         f"invalid {action.type.__name__} value") from None
    if action.choices and value not in action.choices:
        raise UsageError(f"config {action.dest} = {raw}: "
                         f"choose from {', '.join(map(str, action.choices))}")
    return value


def _family(args) -> str:
    """The family that ``sample --family`` names or a verify-spectral flag sets."""
    if args.command == "sample":
        return args.family
    return next(f for f in FAMILIES if getattr(args, f.replace("-", "_")))


def _check_reads(args) -> None:
    """Reject an option that the command line or the config file sets when
    the chosen variant of the command does not read it: a slice parameter of
    another family, an option of another experiment, or --gamma next to
    --alpha."""
    if args.command in ("sample", "verify-spectral"):
        family = _family(args)
        variant, reads = f"{family} family", FAMILIES[family].reads
        optional = {d for f in FAMILIES.values() for d in f.reads}
    elif args.command == "experiment":
        variant, (_, reads) = f"{args.name} experiment", EXPERIMENTS[args.name]
        optional = {d for _, e in EXPERIMENTS.values() for d in e}
    elif args.command == "estimate-z":  # gamma only sets the default alpha
        variant, optional = "explicit threshold --alpha", {"gamma"}
        reads = optional if args.alpha is None else ()
    else:
        return
    unused = sorted((args.given.keys() & optional) - set(reads))
    if unused:
        raise UsageError(f"{', '.join(args.given[d] for d in unused)} not read by the "
                         f"{variant}")


def _public_config(args) -> dict:
    skip = {"command", "config", "out", "format", "timing", "given"}
    return {k: v for k, v in sorted(vars(args).items()) if k not in skip}


# Each handler returns (report, failed, records); main adds the
# reproducibility stanza and wall time and emits the report.  With --format
# csv, ``records`` (when not None) are the rows instead of the report.


def _cmd_gen_graph(args):
    if args.bipartite:
        g = gen_bipartite_regular(args.n, args.delta, args.seed,
                                  max_retries=args.max_retries)
        kind = "bipartite"
    else:
        g = gen_regular(args.n, args.delta, args.seed, max_retries=args.max_retries)
        kind = "regular"
    report = {"kind": kind, "n": args.n, "degree": args.delta}
    if args.out:
        save_graph(g, args.out)
        report["path"] = args.out
    else:  # the edge list goes into the report
        report["edges"] = g.edges()
    return report, False, None


def _load_graph(path: str, graph: type):
    """The graph in ``path``, which must be of type ``graph``."""
    g = load_graph(path)
    if not isinstance(g, graph):
        kind = "bipartite" if graph is BipartiteRegularGraph else "regular (non-bipartite)"
        raise UsageError(f"this operation needs a {kind} graph file")
    return g


def _cmd_sample(args):
    family = FAMILIES[args.family]
    slc = family.slice(_load_graph(args.graph_in, family.graph),
                       *(getattr(args, d) for d in family.reads))
    cfg = ChainConfig(steps=args.steps, seed=args.seed, lazy=not args.no_lazy,
                      burn_in=args.burn_in, thinning=args.thin)
    samples, mix = run_chain(slc, cfg)
    lines = [format_facet(slc, f) for f in samples]
    report = {"samples": len(samples),
              "mixing": {"empirical_tv": mix.empirical_tv, "exact_gap": mix.exact_gap,
                         "autocorr_lag1": mix.autocorr_lag1, "steps": mix.steps}}
    if args.stream_out:
        Path(args.stream_out).write_text("\n".join(lines) + "\n")
        report["stream_path"] = args.stream_out
    else:
        report["stream"] = lines
    return report, False, None


def _cmd_estimate_z(args):
    g = _load_graph(args.graph_in, BipartiteRegularGraph)
    pair = (args.alpha, args.beta)
    if None in pair:  # a threshold not given comes from the graph's degree
        pair = [mine if mine is not None else default
                for mine, default in zip(pair, threshold_pair(g.degree, args.lam, args.gamma))]
    thr = ThresholdParams(*pair)
    est = estimate_partition_hat(g, args.lam, args.eps, args.delta, seed=args.seed, thr=thr)
    report = {
        "estimate_log": est.log_value, "epsilon": est.epsilon, "delta": est.delta,
        "bands": [{"kind": b.kind, "k_range": list(b.k_range),
                   "value_log": b.value_log, "samples": b.samples}
                  for b in est.bands],
        # one record per term (band, k, value_log), and one per particle system
        "trace": [asdict(t) for b in est.bands for t in b.terms],
        "systems": [asdict(r) for r in est.trace],
        "seed": est.seed,
        "thresholds": {"alpha": thr.alpha, "beta": thr.beta, "gamma": args.gamma},
        "note": "sets heavy on both sides inside (alpha, beta] are counted in "
                "both one-sided bands by construction",
    }
    return report, False, None


def _cmd_verify_spectral(args):
    family = FAMILIES[_family(args)]
    g = _load_graph(args.graph_in, family.graph)
    params = [getattr(args, d) for d in family.reads]
    reports = [sweep(g, *params, face_cap=args.face_cap, sample_count=args.sample_count,
                     seed=args.seed) for sweep in family.sweeps]
    failed = any(not r.all_pass() for r in reports)
    payload = {
        "sweeps": [r.summary() for r in reports],
        "all_pass": not failed,
    }
    records = None
    if args.full_records or args.format == "csv":
        records = [{"sweep": r.name, "face": list(rec.face), "lambda2": rec.lambda2,
                    "bound": rec.bound, "status": rec.status, "detail": rec.detail}
                   for r in reports for rec in r.records]
        payload["records"] = records
    else:
        payload["failures"] = [
            {"sweep": r.name, "face": list(rec.face), "lambda2": rec.lambda2,
             "bound": rec.bound} for r in reports for rec in r.records
            if rec.status == "fail"]
    return payload, failed, records


def _cmd_experiment(args):
    cfg = ExperimentConfig(name=args.name, n_side=args.n, degree=args.delta,
                           seed=args.seed, k=args.k, fugacity=args.lam,
                           gamma=args.gamma, ell=args.ell, a=args.a, b=args.b,
                           c=args.c, samples=args.samples, steps=args.steps,
                           runs=args.runs)
    driver, reads = EXPERIMENTS[args.name]
    report = driver(cfg, control=args.control) if "control" in reads else driver(cfg)
    return report, False, None


def main(argv=None) -> int:
    started = time.monotonic()
    argv = sys.argv[1:] if argv is None else argv
    try:
        args = _effective_args(argv)
        _check_reads(args)
    except UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    handlers = {"gen-graph": _cmd_gen_graph, "sample": _cmd_sample,
                "estimate-z": _cmd_estimate_z, "verify-spectral": _cmd_verify_spectral,
                "experiment": _cmd_experiment}
    try:
        report, failed, records = handlers[args.command](args)
        report["reproducibility"] = reproducibility_stanza(args.command,
                                                           _public_config(args), args.seed)
        if args.timing:  # the seconds since main started
            report["wall_time"] = time.monotonic() - started
        text = (to_csv([report] if records is None else records) if args.format == "csv"
                else to_json(report))
        # gen-graph writes the graph itself to --out
        emit(text, None if args.command == "gen-graph" else args.out)
        return 1 if failed else 0
    except (ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except RuntimeError as e:
        print(f"error: runtime failure: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
