"""Shared machinery of the benchmark: seeds, tracing, gates, statistics.

Nothing here imports slicewalk, so ``run.py`` can refuse to start before the
package is importable.
"""
from __future__ import annotations

import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path
from time import perf_counter

import numpy as np

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
TAIL_BEYOND = 10  # samples that must lie beyond the reported tail percentile


def derive(seed: int, *labels) -> int:
    """31-bit seed for one input or chain, a pure function of the run seed.

    Hashing the labels keeps every derived seed stable when inputs are added
    or reordered, and independent of the program's own random streams.
    """
    text = repr((seed,) + labels).encode()
    return int.from_bytes(hashlib.blake2b(text, digest_size=8).digest(), "big") >> 33


# -- tracing ---------------------------------------------------------------------


@dataclass
class Span:
    sid: int
    parent: int | None
    op: int
    name: str
    start: float
    end: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start


class _SpanContext:
    __slots__ = ("tracer", "name", "span")

    def __init__(self, tracer: "Tracer", name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self) -> Span:
        tr = self.tracer
        parent = tr._stack[-1] if tr._stack else None
        if parent is None:
            tr._ops += 1
        span = Span(len(tr.spans), parent.sid if parent else None,
                    parent.op if parent else tr._ops, self.name, perf_counter())
        tr.spans.append(span)
        tr._stack.append(span)
        self.span = span
        return span

    def __exit__(self, *exc) -> bool:
        self.span.end = perf_counter()
        self.tracer._stack.pop()
        return False


_NULL = nullcontext()


class Tracer:
    """Spans recorded around the benchmark's calls into each layer.

    A span opened with no enclosing span starts a new operation; its
    descendants share its operation id.  Disabled tracers hand out one shared
    null context, so untraced runs pay a method call per boundary and nothing
    else.  Spans stay in memory until ``write`` is called at the end of a run.
    """

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[Span] = []
        self.counts: dict[str, float] = {}
        self._stack: list[Span] = []
        self._ops = 0

    def span(self, name: str):
        return _SpanContext(self, name) if self.enabled else _NULL

    def count(self, name: str, amount: float = 1) -> None:
        if self.enabled:
            self.counts[name] = self.counts.get(name, 0) + amount

    def self_times(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total seconds, and self seconds (children removed)."""
        child_time = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent is not None:
                child_time[s.parent] += s.duration
        out: dict[str, dict[str, float]] = {}
        for s in self.spans:
            row = out.setdefault(s.name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += s.duration
            row["self_s"] += s.duration - child_time[s.sid]
        return out

    def module_self_times(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for name, row in self.self_times().items():
            module = name.split(".", 1)[0]
            out[module] = out.get(module, 0.0) + row["self_s"]
        return out

    def write(self, path: Path, extra: dict) -> None:
        payload = dict(extra)
        payload["spans"] = [{"id": s.sid, "parent": s.parent, "op": s.op, "name": s.name,
                             "start": s.start, "end": s.end} for s in self.spans]
        payload["counts"] = self.counts
        payload["self_times"] = self.self_times()
        payload["module_self_s"] = self.module_self_times()
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")


def timed(tracer: Tracer, name: str, fn, *args, **kwargs):
    """(result, seconds) of one call, inside a span named ``<module>.<function>``."""
    with tracer.span(name):
        t0 = perf_counter()
        out = fn(*args, **kwargs)
        dt = perf_counter() - t0
    return out, dt


# -- machine speed ----------------------------------------------------------------

# Seconds one reference pass takes on the reference machine in a quiet spell
# (2-core Intel Xeon VM, Python 3, one BLAS thread); the unit of every
# rescaled timing.
REFERENCE_S = 0.0035
_REFERENCE_MATRIX = np.add.outer(np.arange(16.0), np.arange(16.0)) % 7.0


def reference_pass() -> float:
    """Seconds for a fixed mix of the work the workloads do: interpreter loops
    over ints and sets, small-array NumPy calls, and small LAPACK eigensolves."""
    t0 = perf_counter()
    acc = 0
    seen = set()
    for i in range(18000):
        acc += i * i
        seen.add(i % 97)
    v = np.arange(32.0)
    for _ in range(450):
        v = np.sqrt(v * v + 1.0)
    for _ in range(45):
        np.linalg.eigvalsh(_REFERENCE_MATRIX)
    return perf_counter() - t0


def rescaled_timed(tracer: Tracer, name: str, fn, *args, **kwargs):
    """(result, seconds at reference speed) of one call, inside a span.

    The shared machine the benchmark was tuned on changes speed by up to 2x
    every few seconds, for reasons outside the guest.  A reference pass right
    before and right after the call measures the speed it ran at, and its
    seconds are multiplied by ``REFERENCE_S`` over the mean of the two.
    """
    before = reference_pass()
    out, dt = timed(tracer, name, fn, *args, **kwargs)
    return out, dt * 2.0 * REFERENCE_S / (before + reference_pass())


# -- one pass over a workload ---------------------------------------------------------


@dataclass
class Round:
    """Everything one pass over a workload's fixed operation list produced.

    ``op_s`` maps an input key to the seconds its operation took; keys repeat
    across rounds, so the per-input median is taken before percentiles.
    ``cli_s`` does the same for the workload's CLI commands.  ``work`` maps a
    key to the workload's units of work done in ``work_s[key]`` seconds.
    All are seconds at reference speed (``rescaled_timed``, ``CliRunner``).
    """

    op_s: dict = field(default_factory=dict)
    work: dict = field(default_factory=dict)
    work_s: dict = field(default_factory=dict)
    cli_s: dict = field(default_factory=dict)
    hits: int = 0
    checked: int = 0
    attempted: int = 0
    failed: int = 0
    wall_s: float = 0.0
    _digest: object = field(default_factory=hashlib.sha256)
    _op_ok: bool = True

    @contextmanager
    def op(self, what: str):
        """One attempted operation: it fails if it raises or any check inside fails."""
        self.attempted += 1
        self._op_ok = True
        try:
            yield
        except Exception:  # noqa: BLE001 - a failed operation is counted, the run goes on
            print(f"[perfbench] operation raised: {what}", file=sys.stderr)
            traceback.print_exc(file=sys.stderr)
            self._op_ok = False
        if not self._op_ok:
            self.failed += 1

    def check(self, ok: bool, what: str) -> None:
        if not ok:
            print(f"[perfbench] check failed: {what}", file=sys.stderr)
            self._op_ok = False

    def batch_check(self, ok: bool, what: str) -> None:
        """A gate over many operations; counts as one attempted item of its own."""
        self.attempted += 1
        if not ok:
            print(f"[perfbench] check failed: {what}", file=sys.stderr)
            self.failed += 1

    @property
    def timed_s(self) -> float:
        """The round's timed calls and CLI commands, summed."""
        return sum(self.op_s.values()) + sum(self.cli_s.values())

    def accuracy(self, hit: bool) -> None:
        self.checked += 1
        self.hits += int(hit)

    def record(self, obj) -> None:
        """Feed a program output into the round's output hash."""
        self._digest.update(repr(obj).encode())
        self._digest.update(b"\0")

    @property
    def digest(self) -> str:
        return self._digest.hexdigest()


def spread_evenly(*kinds: list) -> list:
    """Merge task lists so each list's tasks are spread evenly over the result.

    Machine speed drifts over seconds.  Spreading every kind of operation over
    the whole round lets each metric see the same mix of fast and slow spells.
    Tasks of one list keep their order.
    """
    keyed = [((k + 0.5) / len(tasks), i, k) for i, tasks in enumerate(kinds)
             for k in range(len(tasks))]
    return [kinds[i][k] for _, i, k in sorted(keyed)]


# -- statistics -------------------------------------------------------------------


def tail(values: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with TAIL_BEYOND samples beyond it."""
    s = sorted(values)
    n = len(s)
    if n <= TAIL_BEYOND:
        return s[-1], 100.0
    return s[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def per_input_medians(rounds: list[Round], field_name: str = "op_s") -> dict:
    """Each input's median over rounds, for the timings in ``Round.<field_name>``."""
    keys = getattr(rounds[0], field_name).keys()
    return {k: statistics.median(getattr(r, field_name)[k] for r in rounds) for k in keys}


def peak_rss_mb() -> float:
    """Peak resident set of this process or its largest child, in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


# -- command-line subprocesses -------------------------------------------------------


class CliRunner:
    """Runs ``python -m slicewalk.cli`` from a work directory, one call at a time.

    A command runs for seconds, over which the machine's speed changes, so the
    benchmark process makes a reference pass every 50 ms while it waits, and
    the command's seconds are rescaled by the median of those passes.
    """

    def __init__(self, src: Path, workdir: Path, timeout: float = 170.0):
        self.workdir = workdir
        self.timeout = timeout
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = str(src)
        for var in THREAD_VARS:
            self.env[var] = "1"

    def run(self, tracer: Tracer, argv: list[str]) -> tuple[subprocess.CompletedProcess, float]:
        """The finished command and its seconds at reference speed."""
        cmd = [sys.executable, "-m", "slicewalk.cli", *argv]
        out_path, err_path = self.workdir / "cli.stdout", self.workdir / "cli.stderr"
        refs = [reference_pass()]
        with tracer.span(f"cli.{argv[0]}"), open(out_path, "w") as out, \
                open(err_path, "w") as err:
            t0 = perf_counter()
            proc = subprocess.Popen(cmd, cwd=self.workdir, env=self.env, stdout=out, stderr=err)
            try:
                while True:
                    try:
                        proc.wait(timeout=0.05)
                        break
                    except subprocess.TimeoutExpired:
                        if perf_counter() - t0 > self.timeout:
                            raise
                        refs.append(reference_pass())
            finally:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
            dt = perf_counter() - t0
        refs.append(reference_pass())
        done = subprocess.CompletedProcess(cmd, proc.returncode, out_path.read_text(),
                                           err_path.read_text())
        if done.returncode != 0:
            print(done.stderr, file=sys.stderr)
        return done, dt * REFERENCE_S / statistics.median(refs)

    def import_seconds(self) -> float:
        t0 = perf_counter()
        subprocess.run([sys.executable, "-c", "import slicewalk.cli"], cwd=self.workdir,
                       env=self.env, check=True, timeout=self.timeout)
        return perf_counter() - t0


def parse_report(proc: subprocess.CompletedProcess, command: str, rnd: Round) -> dict:
    """JSON report of a CLI call, after checking its exit code and reproducibility stanza."""
    rnd.check(proc.returncode == 0, f"{command}: exit code {proc.returncode}")
    report = json.loads(proc.stdout)
    stanza = report.get("reproducibility", {})
    rnd.check(stanza.get("command") == command and isinstance(stanza.get("config"), dict)
              and isinstance(stanza.get("seed"), int) and bool(stanza.get("version"))
              and bool(stanza.get("schema")),
              f"{command}: reproducibility stanza incomplete: {stanza}")
    return report


# -- provenance -------------------------------------------------------------------


def machine_info() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    try:
        scipy_version = metadata.version("scipy")
    except metadata.PackageNotFoundError:
        scipy_version = None
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy_version,
        "blas": blas,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
    }
