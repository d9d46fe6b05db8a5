"""Command line, sandbox and result printing shared by every workload.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 10 --trace 0

With ``--trace 0`` the last line of standard output carries every
end-to-end metric; with ``--trace 1`` a separate traced run carries every
per-layer metric.  The line before it is a ``report`` object with the
workload's own figures (sample counts, percentiles, correctness checks).
All scratch files live under ``.perfbench_work/`` in the checkout and are
removed on exit.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import sys
import tempfile
from dataclasses import dataclass, field
from pathlib import Path

WORKLOADS = ("sweep", "serve", "search", "long_trace")
#: Workloads whose measured work runs on this process's one thread: it and
#: the host speed sampler share one CPU (``serve`` needs both).
PINNED = ("sweep", "search", "long_trace")

#: End-to-end metrics, in BENCHMARK.json order, with their units.
END_TO_END = {"setup_s": "s", "peak_rss_mb": "MB", "minstr_per_s": "Minstr/s",
              "p50_ms": "ms"}


@dataclass
class Context:
    root: Path
    work: Path
    workload: str
    seed: int
    seconds: float
    trace: bool
    #: Host speed sampler (untraced runs only): every gated timing is
    #: scaled to the nominal speed, see :mod:`perfbench.speed`.
    speed: object = None

    def scratch(self, name: str) -> Path:
        path = self.work / name
        path.mkdir(parents=True, exist_ok=True)
        return path


@dataclass
class Result:
    """What a workload run hands back to the harness."""

    end_to_end: dict = field(default_factory=dict)
    per_layer: dict = field(default_factory=dict)
    report: dict = field(default_factory=dict)
    attempted: int = 0
    #: One line per failed operation or failed correctness check.
    failures: list = field(default_factory=list)

    def fail(self, message: str) -> None:
        self.failures.append(message)


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        prog="perfbench/run.py",
        description="End-to-end and per-layer benchmark of the repro "
                    "in-order model: sweep, serve, search, long_trace.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def peak_rss_mb(pid: int | str = "self") -> float:
    """Peak resident set (``VmHWM``) of a live process, in MB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for process {pid}")


def child_env(ctx: Context) -> dict:
    """Environment for program subprocesses: sources on the path, scratch
    files inside the checkout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ctx.root / "src")
    env["TMPDIR"] = str(ctx.work)
    return env


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    # A terminated run still stops its server and removes its scratch files.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    root = Path(__file__).resolve().parents[1]
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources under {root / 'src'}; run "
              "from the root of a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    work = root / ".perfbench_work" / str(os.getpid())
    work.mkdir(parents=True, exist_ok=True)
    tempfile.tempdir = str(work)
    os.environ["TMPDIR"] = str(work)
    ctx = Context(root=root, work=work, workload=args.workload,
                  seed=args.seed, seconds=args.seconds,
                  trace=bool(args.trace))
    try:
        from importlib import import_module

        from perfbench.speed import Sampler

        module = import_module(f"perfbench.workloads.{args.workload}")
        if not ctx.trace:
            cpu = None
            if ctx.workload in PINNED:
                cpu = min(os.sched_getaffinity(0))
                os.sched_setaffinity(0, {cpu})
            ctx.speed = Sampler(child_env(ctx), cpu)
        result: Result = module.run(ctx)
    finally:
        if ctx.speed is not None:
            ctx.speed.close()
        tempfile.tempdir = None
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass
    return emit(ctx, result)


def emit(ctx: Context, result: Result) -> int:
    """Print the report line, then the machine-readable result line."""
    from perfbench.layers import per_layer_names

    if ctx.trace:
        units = per_layer_names()
        values = {name: result.per_layer.get(name, 0.0) for name in units}
    else:
        units = END_TO_END
        values = {name: result.end_to_end[name] for name in units}
    metrics = {}
    for name, unit in units.items():
        value = float(values[name])
        if not math.isfinite(value):
            # A failed request has no latency; the run is already failed.
            result.fail(f"{name} is not finite")
            value = 0.0
        metrics[name] = {"value": value, "unit": unit}
    report = {"report": ctx.workload, "seed": ctx.seed,
              "trace": int(ctx.trace), **result.report,
              "failures": result.failures[:20]}
    if ctx.speed is not None and ctx.speed.samples:
        # Mean host speed over the run (1.0 = nominal).
        report["host_speed"] = ctx.speed.speed(-math.inf, math.inf)
    print(json.dumps(report, default=float))
    print(json.dumps({
        "correct": not result.failures,
        "attempted": max(1, int(result.attempted)),
        "failed": len(result.failures),
        "metrics": metrics,
    }))
    sys.stdout.flush()
    return 0
