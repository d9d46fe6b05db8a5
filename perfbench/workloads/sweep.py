"""``sweep``: a closed loop of in-process ``repro.api.evaluate_many`` calls.

One caller, ``jobs=1``.  Each round sends one batch per workload (25
workloads x (192 Table-2 points + seeded random points over 14 axes, new
ones each round)): first on a fresh ``Session`` with an empty
artifact-cache directory (the cold pass: compilation, trace generation,
profiling passes, model, artifact writes), then the same batches through
a new ``Session`` on the same directory (the rerun pass: artifact reads).
After the timed rounds a seeded sample of pairs also runs on the
``simulator`` backend, the in-repo cycle-accurate reference the model's
CPI error is stated against.

Should move: trace, profiler, accel, core, api, runtime artifact layers.
Bypasses: the worker pool, the data plane and the service.
"""

from __future__ import annotations

import subprocess
import sys
import time

from perfbench import inputs, layers, spans, stats
from perfbench.harness import Context, Result, child_env, peak_rss_mb
from perfbench.speed import Timer

#: Seeded random points added to the 192 Table-2 points of every workload.
RANDOM_POINTS = 24
#: Pairs re-run on the simulator backend, and re-run one at a time.
SIM_PAIRS = 12
CHECK_PAIRS = 16
SETUP_REPEATS = 5

#: Time to a first answer in a fresh interpreter: import, kernel backend,
#: one evaluation.
_COLD_START = (
    "import repro.api\n"
    "from repro.accel import get_kernels\n"
    "from repro.runtime.session import Session\n"
    "get_kernels()\n"
    "repro.api.evaluate({'workload': 'sha'}, session=Session())\n"
)


def _setup_once(ctx: Context) -> Timer:
    with Timer() as timer:
        subprocess.run([sys.executable, "-c", _COLD_START],
                       env=child_env(ctx), cwd=ctx.work, check=True,
                       timeout=120)
    return timer


def _passes(ctx: Context, batches: list[list[dict]], index: int) -> dict:
    """One cold pass and one rerun pass on a fresh artifact directory."""
    import shutil

    import repro.api
    from repro.runtime.session import Session

    cache = ctx.scratch(f"sweep-cache-{index}")
    record: dict = {}
    for phase in ("cold", "rerun"):
        session = Session(cache_dir=str(cache))
        calls, results = [], []
        for batch in batches:
            with Timer() as timer:
                answers = repro.api.evaluate_many(batch, session=session)
            calls.append(timer)
            results.append(answers)
        record[phase] = {"calls": calls, "results": results,
                         "stats": session.stats.as_dict()}
    shutil.rmtree(cache, ignore_errors=True)
    return record


def _simulate(ctx: Context, batches, cold_results) -> dict:
    """The seeded simulator sample: host speed and CPI error."""
    import repro.api
    from repro.runtime.session import Session

    pairs = inputs.sample_pairs(ctx.seed, "sweep.simulator", batches,
                                SIM_PAIRS)
    session = Session()
    for batch, _ in pairs:
        session.workload(batches[batch][0]["workload"]["name"])
    seconds, instructions, errors = 0.0, 0, []
    for batch, position in pairs:
        request = dict(batches[batch][position], backend="simulator")
        with Timer() as timer:
            simulated = repro.api.evaluate(request, session=session)
        seconds += (timer.wall if ctx.speed is None
                    else ctx.speed.scaled(timer))
        instructions += simulated.instructions
        model = cold_results[batch][position]
        errors.append(abs(model.cpi - simulated.cpi) / simulated.cpi * 100.0)
    return {"seconds": seconds, "instructions": instructions,
            "errors": errors, "pairs": len(pairs)}


def _warm_up() -> None:
    import repro.api
    from repro.accel import get_kernels
    from repro.runtime.session import Session

    get_kernels()
    repro.api.evaluate({"workload": "sha"}, session=Session())


def _check(ctx: Context, out: Result, batches, record: dict) -> None:
    """Rerun == cold byte for byte; a sample == plain one-at-a-time calls."""
    import repro.api
    from repro.runtime.session import Session

    cold, rerun = record["cold"]["results"], record["rerun"]["results"]
    for batch, (first, second) in enumerate(zip(cold, rerun)):
        out.attempted += 1
        if [r.to_json() for r in first] != [r.to_json() for r in second]:
            out.fail(f"sweep: rerun pass differs from cold pass in batch "
                     f"{batch} ({batches[batch][0]['workload']['name']})")
    stats_rerun = record["rerun"]["stats"]
    if stats_rerun["traces_generated"] or stats_rerun["workloads_compiled"]:
        out.fail(f"sweep: rerun pass regenerated state: {stats_rerun}")
    plain = Session()
    for batch, position in inputs.sample_pairs(ctx.seed, "sweep.check",
                                               batches, CHECK_PAIRS):
        out.attempted += 1
        single = repro.api.evaluate(batches[batch][position], session=plain)
        if single.to_json() != cold[batch][position].to_json():
            out.fail(f"sweep: batch result {batch}/{position} differs from "
                     "a plain evaluate() of the same request")


def run(ctx: Context) -> Result:
    out = Result()
    batches = inputs.sweep_batches(ctx.seed, RANDOM_POINTS)
    requests = sum(len(batch) for batch in batches)
    if ctx.trace:
        return _traced(ctx, out, batches, requests)

    setups = [_setup_once(ctx) for _ in range(SETUP_REPEATS)]
    _warm_up()
    records, started = [], time.perf_counter()
    while not records or time.perf_counter() - started < ctx.seconds:
        records.append(_passes(ctx, inputs.sweep_batches(
            ctx.seed, RANDOM_POINTS, len(records)), len(records)))
        if len(records) > 1:
            # Keep only the first round's results (checked below).
            for phase in ("cold", "rerun"):
                records[-1][phase]["results"] = None
    first = records[0]
    sim = _simulate(ctx, batches, first["cold"]["results"])
    out.attempted += 2 * requests * len(records) + sim["pairs"]

    def seconds(phase: str, scale: bool) -> list[list[float]]:
        """Per round, the call times of one pass: CPU seconds at nominal
        speed, or raw wall seconds."""
        return [[ctx.speed.scaled(call) if scale else call.wall
                 for call in record[phase]["calls"]] for record in records]

    cold, rerun = seconds("cold", True), seconds("rerun", True)
    raw_cold = seconds("cold", False)
    instructions = sum(result.instructions for answers in
                       first["cold"]["results"] for result in answers)
    cold_latencies = [lat for calls in cold for lat in calls]
    _check(ctx, out, batches, first)
    tail = stats.tail(cold_latencies)
    out.end_to_end = {
        "setup_s": stats.median([ctx.speed.scaled(setup) for setup in setups]),
        "peak_rss_mb": peak_rss_mb(),
        "minstr_per_s": instructions * len(records) / sum(map(sum, cold))
        / 1e6,
        "p50_ms": stats.median(cold_latencies) * 1000.0,
    }
    out.report = {
        "rounds": len(records), "requests_per_pass": requests,
        "calls_per_pass": len(batches),
        "evals_per_s": requests * len(records) / sum(map(sum, cold)),
        "rerun_evals_per_s": requests * len(records) / sum(map(sum, rerun)),
        "cold_call_p50_ms": stats.median(cold_latencies) * 1000.0,
        "cold_call_tail": tail, "cold_calls": len(cold_latencies),
        "sim_minstr_per_s": sim["instructions"] / sim["seconds"] / 1e6,
        "cpi_err_pct": sum(sim["errors"]) / len(sim["errors"]),
        "cpi_err_pairs": sim["pairs"],
        "cpi_err_reference": "in-repo cycle-accurate simulator "
                             "(backend 'simulator'), not hardware",
        "setup_samples_s": [setup.wall for setup in setups],
        "raw": {"minstr_per_s": instructions * len(records)
                / sum(map(sum, raw_cold)) / 1e6,
                "p50_ms": stats.median([lat for calls in raw_cold
                                        for lat in calls]) * 1000.0,
                "setup_s": stats.median([setup.wall for setup in setups])},
    }
    return out


def _traced(ctx: Context, out: Result, batches, requests: int) -> Result:
    """One untraced round, then the same round with every probe installed."""
    _warm_up()
    started = time.perf_counter()
    plain = _passes(ctx, batches, 0)
    sim = _simulate(ctx, batches, plain["cold"]["results"])
    untraced_s = time.perf_counter() - started

    recorder = spans.Recorder()
    probes = layers.install(recorder)
    try:
        window_start = time.perf_counter()
        _passes(ctx, batches, 1)
        _simulate(ctx, batches, plain["cold"]["results"])
        window = (window_start, time.perf_counter())
    finally:
        probes.remove()
    traced_s = window[1] - window[0]
    out.per_layer = layers.layer_metrics(recorder.spans, [window])
    out.per_layer["traced_overhead_pct"] = (traced_s / untraced_s - 1) * 100
    out.attempted += 4 * requests + 2 * sim["pairs"]
    _check(ctx, out, batches, plain)
    out.report = {"untraced_s": untraced_s, "traced_s": traced_s,
                  "spans": len(recorder.spans),
                  "cpi_err_pct": sum(sim["errors"]) / len(sim["errors"])}
    return out
