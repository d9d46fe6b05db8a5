"""Host speed reference: CPU times scaled to a fixed reference speed.

The benchmark shares a few cores of a host with other tenants.  Their load
slows a run in two ways.  It takes the host away for time slices, which
stretches wall time but not CPU time.  And it slows every instruction that
does run (shared caches and memory, clock speed), which stretches CPU time
too, by up to 2.5x for minutes.  Either way the medians of runs of the
same code spread past any useful bound.

So the gated timings are CPU seconds (:class:`Timer`), scaled to a nominal
speed.  A sampler process times a fixed reference loop every
:data:`PERIOD_S` seconds for the whole run; the loop is the benchmark's own
code and never calls the program, so no change to the program changes it.
A CPU time is multiplied by ``NOMINAL_S / mean CPU time of the loop`` over
the samples taken during it (at least :data:`MIN_SAMPLES`, the nearest
ones when the interval is short).  The scaled value reads as the CPU time
on a host that runs the loop in :data:`NOMINAL_S`; a change to the program
moves it as it moves the raw CPU time.  Workloads print raw wall times on
their report line too.

For a workload whose work runs on the benchmark's own thread, the harness
pins that thread and the sampler to one CPU, so the samples meet the host
conditions of the CPU the work runs on.  Run as a script this module is
the sampler: ``speed.py [CPU]`` prints one ``start cpu_s`` line per sample
until standard input closes.
"""

from __future__ import annotations

import json
import os
import re
import resource
import select
import subprocess
import sys
import threading
import time
from pathlib import Path

#: Seconds between samples (a sample, two passes of the loop, takes 3 to
#: 6 ms, so the sampler uses 3 to 6% of one CPU).
PERIOD_S = 0.1
#: About the reference loop's CPU time on an unloaded 2.1 GHz Xeon vCPU
#: (CPython 3.11, numpy 2.4).  It only fixes the unit of the scaled timings.
NOMINAL_S = 0.0013
#: Samples averaged for one interval, at the least.
MIN_SAMPLES = 25

try:
    import numpy
    # A fixed scrambled order of 20000 values (no numpy.random: this module
    # is also imported by the measured process).
    _ARRAY = numpy.arange(20000) * 7919 % 20011 / 20011.0
except ImportError:  # pragma: no cover - numpy is a program dependency
    numpy = None

_WORD = re.compile(r"(\w+)-(\d+)\.(\w+)")
_DOCUMENT = {"items": [{"name": f"n{i}", "values": list(range(i % 7)),
                        "weight": i / 3} for i in range(60)]}


class _Point:
    __slots__ = ("x", "y", "tag")

    def __init__(self, x: int, y: int, tag: str):
        self.x, self.y, self.tag = x, y, tag

    def norm(self) -> int:
        return abs(self.x) + abs(self.y)


def reference() -> int:
    """A fixed mix of the work an interpreted program does: objects and
    method calls, keyed sorts, dicts and sets, JSON, regular expressions,
    rational arithmetic and numpy sorting.  A narrower loop (a counting
    loop, a dict and one numpy sort) slowed by less than the workloads on
    a busy host: it left a third of their slowdown in the scaled times."""
    total = 0
    points = [_Point(i % 17 - 8, (i * 7) % 13 - 6, f"t{i % 5}")
              for i in range(600)]
    points.sort(key=lambda point: (point.norm(), point.tag))
    total += sum(point.norm() for point in points[:100])
    groups: dict = {}
    for point in points:
        groups.setdefault(point.tag, []).append(point.x)
    total += len({x for xs in groups.values() for x in xs})
    total += len(json.loads(json.dumps(_DOCUMENT))["items"])
    for i in range(200):
        total += int(_WORD.match(f"word{i}-{i * 3}.ext").group(2)) & 7
    import fractions

    fraction = fractions.Fraction(0)
    for i in range(1, 40):
        fraction += fractions.Fraction(1, i)
    total += fraction.numerator & 7
    if numpy is not None:
        total += int(numpy.argsort(_ARRAY)[:10].sum())
        total += int(numpy.unique((_ARRAY * 500).astype(numpy.int64)).size)
    return total


def mean_speed(samples, start: float, end: float) -> float:
    """``NOMINAL_S`` over the mean CPU time of the ``(start, cpu_s)``
    samples that started in ``[start, end]``, or of the
    :data:`MIN_SAMPLES` nearest to its middle when fewer did."""
    if not samples:
        raise RuntimeError("no host speed samples")
    chosen = [sample for sample in samples if start <= sample[0] <= end]
    if len(chosen) < MIN_SAMPLES:
        middle = (start + end) / 2.0
        chosen = sorted(samples, key=lambda s: abs(s[0] - middle))[:MIN_SAMPLES]
    return NOMINAL_S * len(chosen) / sum(cpu for _, cpu in chosen)


class Timer:
    """Wall interval and CPU seconds of a block, this process's and those
    of the children it waited for: ``with Timer() as timer: ...``."""

    start = end = cpu = 0.0

    @staticmethod
    def _cpu() -> float:
        children = resource.getrusage(resource.RUSAGE_CHILDREN)
        return time.process_time() + children.ru_utime + children.ru_stime

    def __enter__(self) -> "Timer":
        self._cpu_start = self._cpu()
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.end = time.perf_counter()
        self.cpu = self._cpu() - self._cpu_start

    @property
    def wall(self) -> float:
        return self.end - self.start


class Samples:
    """Reference samples ``(start, cpu_s)`` and the speeds they give."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []

    def speed(self, start: float, end: float) -> float:
        """The host's mean speed over ``[start, end]`` (1.0 = nominal)."""
        return mean_speed(self.samples, start, end)

    def scaled(self, timer: Timer) -> float:
        """The timer's CPU seconds at the nominal speed."""
        return timer.cpu * self.speed(timer.start, timer.end)


class Sampler(Samples):
    """A sampler process, pinned to ``cpu`` when given, and the samples it
    has reported so far."""

    def __init__(self, env: dict | None = None, cpu: int | None = None):
        super().__init__()
        command = [sys.executable, str(Path(__file__).resolve())]
        if cpu is not None:
            command.append(str(cpu))
        self.process = subprocess.Popen(
            command, env=env, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            text=True)
        self._reader = threading.Thread(target=self._read, daemon=True)
        self._reader.start()

    def _read(self) -> None:
        for line in self.process.stdout:
            self.samples.append(tuple(map(float, line.split())))

    def close(self) -> None:
        """Stop the sampler and wait for it and its reader."""
        if self.process.poll() is None:
            try:
                self.process.stdin.close()
            except OSError:
                pass
            try:
                self.process.wait(10)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self._reader.join(10)


def _sample_forever() -> None:
    while True:
        # An untimed first pass: the loop's data back in cache and the core
        # out of any idle state, whatever ran or slept before it.
        reference()
        started, cpu = time.perf_counter(), time.thread_time()
        reference()
        cpu = time.thread_time() - cpu
        sys.stdout.write(f"{started!r} {cpu!r}\n")
        sys.stdout.flush()
        ready, _, _ = select.select([sys.stdin], [], [], PERIOD_S)
        if ready and not sys.stdin.readline():
            return


if __name__ == "__main__":
    if len(sys.argv) > 1:
        os.sched_setaffinity(0, {int(sys.argv[1])})
    try:
        _sample_forever()
    except (BrokenPipeError, KeyboardInterrupt):
        pass
