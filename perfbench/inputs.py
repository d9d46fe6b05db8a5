"""Seeded input generators: every request the benchmark sends comes from here.

Machine points are drawn from the fixed axis lists below, which belong to
the benchmark, not from ``SearchSpace.sample`` or ``SweepRequest.expand``:
a change to those layers cannot change what is measured.  Every generator
takes a seed and a purpose string, so one ``--seed`` gives the same inputs
on every run and in every process.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

#: The 19 MiBench-like and 6 SPEC-like workloads the program registers.
MIBENCH = ("adpcm_c", "adpcm_d", "dijkstra", "gsm_c", "jpeg_c", "jpeg_d",
           "lame", "patricia", "qsort", "rsynth", "sha", "stringsearch",
           "susan_c", "susan_e", "susan_s", "tiff2bw", "tiff2rgba",
           "tiffdither", "tiffmedian")
SPECLIKE = ("bzip2_like", "lbm_like", "libquantum_like", "mcf_like",
            "milc_like", "soplex_like")
WORKLOADS = MIBENCH + SPECLIKE

#: The paper's Table 2 space: 3 depth/frequency pairs x 4 widths x 4 L2
#: sizes x 2 L2 associativities x 2 branch predictors = 192 points.
TABLE2_AXES = (
    ("pipeline_stages,frequency_mhz", ((5, 600), (7, 800), (9, 1000))),
    ("width", (1, 2, 3, 4)),
    ("l2_size", ("128KB", "256KB", "512KB", "1MB")),
    ("l2_associativity", (8, 16)),
    ("branch_predictor", ("global_1kb", "hybrid_3.5kb")),
)

#: A 14-axis space of >10^6 points over cache geometry, core shape and
#: latencies.  ``l2_associativity`` only applies from 256KB of L2 up.
SYNTHETIC_AXES = (
    ("pipeline_stages,frequency_mhz",
     ((5, 600), (6, 700), (7, 800), (8, 900), (9, 1000))),
    ("width", (1, 2, 3, 4)),
    ("l2_size", ("128KB", "256KB", "512KB", "1MB")),
    ("l2_associativity", (4, 8, 16)),
    ("l1i_size", ("8KB", "16KB", "32KB", "64KB")),
    ("l1d_size", ("8KB", "16KB", "32KB", "64KB")),
    ("l1i_associativity", (2, 4)),
    ("l1d_associativity", (2, 4)),
    ("line_size", (32, 64)),
    ("l1_hit_cycles", (1, 2)),
    ("tlb_entries", (16, 32, 64)),
    ("mul_latency", (2, 4, 6)),
    ("div_latency", (12, 20, 28)),
    ("branch_predictor", ("global_1kb", "hybrid_3.5kb")),
)
SYNTHETIC_WHEN = {"l2_associativity": "l2_size>=256KB"}

#: Machine preset every override applies to.
PRESET = "paper_default"


def rng(seed: int, purpose: str) -> random.Random:
    """An independent stream per purpose (string seeds hash with SHA-512)."""
    return random.Random(f"perfbench:{seed}:{purpose}")


def _assign(point: dict, axis: str, value) -> None:
    fields = axis.split(",")
    values = value if len(fields) > 1 else (value,)
    point.update(zip(fields, values))


def table2_points() -> list[dict]:
    """The 192 Table-2 override dicts, in axis order."""
    points = []
    for combination in itertools.product(*(values for _, values in TABLE2_AXES)):
        point: dict = {}
        for (axis, _), value in zip(TABLE2_AXES, combination):
            _assign(point, axis, value)
        points.append(point)
    return points


def space_axes(axes, when: dict | None = None) -> list[dict]:
    """An axis list in the ``SearchSpace`` JSON form (for ``optimize``)."""
    entries = []
    for axis, values in axes:
        entry = {"axis": axis, "values": [list(v) if isinstance(v, tuple)
                                          else v for v in values]}
        if when and axis in when:
            entry["when"] = when[axis]
        entries.append(entry)
    return entries


def _balanced(stream: random.Random, values, count: int) -> list:
    """``values`` repeated to ``count`` entries, shuffled."""
    values = list(values)
    column = [values[index % len(values)] for index in range(count)]
    stream.shuffle(column)
    return column


def balanced_points(seed: int, purpose: str, count: int) -> list[dict]:
    """``count`` seeded points in which every axis value appears equally often.

    Each axis's values are repeated to ``count`` entries (counts differ by at
    most one) and shuffled on their own, so the points are random
    combinations but every seed covers each axis the same way.  That keeps
    the profiling cost of the set, which depends mostly on per-axis values
    such as the line and L1 sizes, nearly the same from seed to seed.
    """
    stream = rng(seed, purpose)
    columns = [(axis, _balanced(stream, values, count))
               for axis, values in SYNTHETIC_AXES]
    points = []
    for index in range(count):
        point: dict = {}
        for axis, column in columns:
            _assign(point, axis, column[index])
        if point["l2_size"] == "128KB":
            del point["l2_associativity"]
        points.append(point)
    return points


def machine(point: dict) -> dict:
    """The ``MachineSpec`` JSON form of an override dict."""
    return {"preset": PRESET, **point}


def eval_request(workload: str, point: dict) -> dict:
    return {"workload": {"name": workload, "flags": "O3"},
            "machine": machine(point), "backend": "analytical"}


# ----------------------------------------------------------------------
# sweep
# ----------------------------------------------------------------------
def sweep_batches(seed: int, random_count: int,
                  round_index: int = 0) -> list[list[dict]]:
    """One batch per workload: its 192 Table-2 points plus balanced random ones.

    The random points are shared by all workloads, so every geometry is a
    profiling pass on each trace; the workload order is shuffled.  Each
    round of a run draws its own random points and order, so a run averages
    over several sets of geometries.
    """
    points = table2_points() + balanced_points(
        seed, f"sweep.points.{round_index}", random_count)
    order = list(WORKLOADS)
    rng(seed, f"sweep.order.{round_index}").shuffle(order)
    return [[eval_request(name, point) for point in points] for name in order]


def sample_pairs(seed: int, purpose: str, batches: list[list[dict]],
                 count: int) -> list[tuple[int, int]]:
    """``count`` distinct (batch, position) pairs, seeded."""
    stream = rng(seed, purpose)
    pairs: set[tuple[int, int]] = set()
    while len(pairs) < count:
        batch = stream.randrange(len(batches))
        pairs.add((batch, stream.randrange(len(batches[batch]))))
    return sorted(pairs)


# ----------------------------------------------------------------------
# serve
# ----------------------------------------------------------------------
#: Offered request rates (requests/s) of the three phases, from mostly
#: idle to past the knee.
RATES = (6.0, 18.0, 120.0)
#: Share of ``--seconds`` each phase lasts; the middle rate is reported.
PHASE_SHARES = (0.2, 0.6, 0.2)
#: Seeded machine points the served requests draw from: a new point often
#: reuses earlier profiling passes.
GEOMETRIES = 40
#: (workload, machine) points the evals draw from, Zipf-wise.
UNIVERSE = 200
ZIPF_EXPONENT = 1.3
#: Every this-many-th request is a ``POST /v1/sweep``.
SWEEP_EVERY = 5


@dataclass(frozen=True)
class Event:
    """One request of the open-loop schedule."""

    due: float
    phase: int
    path: str
    body: dict


def poisson_arrivals(stream: random.Random, rate: float, start: float,
                     duration: float) -> list[float]:
    """Arrival offsets of a Poisson process of ``rate`` in [start, start+duration)."""
    times = []
    now = start + stream.expovariate(rate)
    while now < start + duration:
        times.append(now)
        now += stream.expovariate(rate)
    return times


def zipf_cumulative(count: int, exponent: float) -> list[float]:
    total = 0.0
    cumulative = []
    for rank in range(1, count + 1):
        total += 1.0 / rank ** exponent
        cumulative.append(total)
    return cumulative


def phase_durations(seconds: float) -> tuple[float, ...]:
    return tuple(share * seconds for share in PHASE_SHARES)


def sweep_shapes(stream: random.Random, count: int) -> list[tuple[int, int]]:
    """``count`` sweep shapes (1-4 workloads, 4-16 machines) in seeded order.

    The set of shapes depends only on ``count`` (the 52 shapes are walked in
    a fixed interleaved order), so every seed asks a phase for nearly the
    same sweep work and the phase's median sweep size barely moves.
    """
    shapes = [(1 + index % 4, 4 + 5 * index % 13) for index in range(count)]
    stream.shuffle(shapes)
    return shapes


def serve_schedule(seed: int, seconds: float) -> list[Event]:
    """The whole open-loop schedule, fixed before the first request is sent.

    Phases of Poisson arrivals at :data:`RATES` run back to back over
    ``seconds``.  Every :data:`SWEEP_EVERY`-th request is a small
    ``POST /v1/sweep`` of 1-4 workloads x 4-16 machines, with the shapes
    of each phase from :func:`sweep_shapes`; the rest are
    ``POST /v1/eval`` drawn Zipf-wise from :data:`UNIVERSE` (workload,
    machine) points, so popular points repeat and hit the result cache.
    Machines come from a pool of :data:`GEOMETRIES` seeded points.
    """
    pool = balanced_points(seed, "serve.geometries", GEOMETRIES)
    picker = rng(seed, "serve.universe")
    points = [(picker.choice(WORKLOADS), picker.choice(pool))
              for _ in range(UNIVERSE)]
    cumulative = zipf_cumulative(UNIVERSE, ZIPF_EXPONENT)
    arrivals = rng(seed, "serve.arrivals")
    timed, start = [], 0.0
    for phase, (rate, duration) in enumerate(zip(RATES,
                                                   phase_durations(seconds))):
        timed += [(due, phase) for due in
                  poisson_arrivals(arrivals, rate, start, duration)]
        start += duration
    mix = rng(seed, "serve.mix")
    offset = mix.randrange(SWEEP_EVERY)
    sweep_phases = [phase for index, (_, phase) in enumerate(timed)
                    if index % SWEEP_EVERY == offset]
    shapes = {phase: sweep_shapes(mix, sweep_phases.count(phase))
              for phase in range(len(RATES))}
    events = []
    for index, (due, phase) in enumerate(timed):
        if index % SWEEP_EVERY == offset:
            width, height = shapes[phase].pop()
            names = mix.sample(WORKLOADS, width)
            machines = [machine(point) for point in mix.sample(pool, height)]
            events.append(Event(due, phase, "/v1/sweep",
                                {"workloads": names, "machines": machines}))
        else:
            rank = mix.choices(range(UNIVERSE), cum_weights=cumulative)[0]
            events.append(Event(due, phase, "/v1/eval",
                                eval_request(*points[rank])))
    return events


# ----------------------------------------------------------------------
# long_trace
# ----------------------------------------------------------------------
def long_trace_machines(seed: int, count: int,
                        iteration: int = 0) -> list[dict]:
    """Machine specs for one iteration over the long trace; the first is
    the preset itself, the others are drawn anew each iteration."""
    return [machine({})] + [machine(point) for point in balanced_points(
        seed, f"long_trace.machines.{iteration}", count - 1)]
