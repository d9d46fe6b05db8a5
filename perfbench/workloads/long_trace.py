"""``long_trace``: a spilled synthetic trace, evaluated exactly and by sampling.

Set-up generates a seeded synthetic workload :data:`SCALE` times the
in-memory default straight into an on-disk trace store (chunks of
:data:`CHUNK_LENGTH` instructions).  Each timed iteration evaluates it
exactly through one ``StreamingEngine`` walk for :data:`EXACT_MACHINES`
seeded machines, then by ``sample_evaluate`` on :data:`SAMPLED_MACHINES`
machines (the exact ones first; the first is the preset, the others are
drawn anew each iteration).  Every exact CPI must fall inside the sampled
estimate's own error bar.

Should move: trace.store reads, profiler.streaming, profiler.sampling.
Bypasses: the in-memory trace path, the planner, the pool and the service.
"""

from __future__ import annotations

import time

from perfbench import inputs, layers, spans, stats
from perfbench.harness import Context, Result, peak_rss_mb
from perfbench.speed import Timer

SCALE = 40
CHUNK_LENGTH = 16384
RATE = 16
WARMUP = 3
WARMING = 2
EXACT_MACHINES = 2
SAMPLED_MACHINES = 8


def _generate(ctx: Context, name: str = "store"):
    from repro.workloads.synthetic import (
        SyntheticWorkloadSpec,
        generate_synthetic_store,
    )

    spec = SyntheticWorkloadSpec(
        name="synthetic-long",
        seed=inputs.rng(ctx.seed, "long_trace.spec").randrange(2**31))
    with Timer() as timer:
        chunked = generate_synthetic_store(ctx.scratch("long_trace") / name,
                                           spec, scale=SCALE,
                                           chunk_length=CHUNK_LENGTH)
    return chunked, timer


def _machines(seed: int, iteration: int = 0):
    from repro.api.spec import MachineSpec

    return [MachineSpec.parse(spec).resolve() for spec in
            inputs.long_trace_machines(seed, SAMPLED_MACHINES, iteration)]


def _iteration(chunked, machines) -> dict:
    """One exact walk for the first machines, then every sampled estimate."""
    import repro.profiler.sampling
    from repro.core.model import InOrderMechanisticModel
    from repro.profiler.streaming import StreamingEngine

    exact_machines = machines[:EXACT_MACHINES]
    with Timer() as exact_t:
        engine = StreamingEngine(chunked)
        program = engine.program_profile()
        exact = [InOrderMechanisticModel(machine).predict(program, misses)
                 for machine, misses in zip(
                     exact_machines, engine.profile_machines(exact_machines))]
    sampled, sampled_t = [], []
    for machine in machines:
        with Timer() as timer:
            sampled.append(repro.profiler.sampling.sample_evaluate(
                chunked, machine, RATE, warmup=WARMUP, warming=WARMING))
        sampled_t.append(timer)
    return {"exact": exact, "exact_t": exact_t, "sampled": sampled,
            "sampled_t": sampled_t}


def _check(out: Result, record: dict) -> list[float]:
    """Exact CPI inside each sampled error bar; returns the errors in %."""
    errors = []
    for index, (exact, sampled) in enumerate(zip(record["exact"],
                                                 record["sampled"])):
        out.attempted += 1
        radius = sampled.est_rel_error["cpi"] * sampled.cpi
        errors.append((sampled.cpi - exact.cpi) / exact.cpi * 100.0)
        if abs(sampled.cpi - exact.cpi) > radius:
            out.fail(f"long_trace: exact CPI {exact.cpi:.4f} outside the "
                     f"sampled estimate {sampled.cpi:.4f} +- {radius:.4f} "
                     f"on machine {index}")
    return errors


def run(ctx: Context) -> Result:
    from repro.accel import get_kernels

    out = Result()
    get_kernels()
    if ctx.trace:
        return _traced(ctx, out, _machines(ctx.seed))
    chunked, setup = _generate(ctx)
    instructions = len(chunked)
    records, started = [], time.perf_counter()
    while not records or time.perf_counter() - started < ctx.seconds:
        records.append(_iteration(chunked, _machines(ctx.seed, len(records))))
    out.attempted += len(records) * (EXACT_MACHINES + SAMPLED_MACHINES)
    errors = [error for record in records for error in _check(out, record)]
    scaled = ctx.speed.scaled
    exact_s = sum(scaled(record["exact_t"]) for record in records)
    sampled_s = [scaled(t) for record in records for t in record["sampled_t"]]
    first = records[0]["sampled"]
    walked = instructions * EXACT_MACHINES * len(records)
    out.end_to_end = {
        # One generation per run: it is most of the run's set-up, and a
        # second one would double the run (see README.md).
        "setup_s": scaled(setup),
        "peak_rss_mb": peak_rss_mb(),
        "minstr_per_s": walked / exact_s / 1e6,
        "p50_ms": stats.median(sampled_s) * 1000.0,
    }
    out.report = {
        "iterations": len(records), "instructions": instructions,
        "chunks": chunked.num_chunks, "scale": SCALE,
        "exact_minstr_per_s": out.end_to_end["minstr_per_s"],
        "sampled_minstr_per_s": instructions * len(sampled_s)
        / sum(sampled_s) / 1e6,
        "sampled_err_pct": sum(abs(e) for e in errors) / len(errors),
        "sampled_signed_err_pct": errors,
        "sampled_est_rel_error": [s.est_rel_error["cpi"] for s in first],
        "intervals_profiled": first[0].plan.intervals_profiled,
        "sampled_evaluations": len(sampled_s),
        "raw": {"minstr_per_s": walked / sum(record["exact_t"].wall
                                            for record in records) / 1e6,
                "p50_ms": stats.median([t.wall for record in records
                                        for t in record["sampled_t"]]) * 1000.0,
                "setup_s": setup.wall},
    }
    return out


def _traced(ctx: Context, out: Result, machines) -> Result:
    """Generation and one iteration untraced, then both traced."""
    started = time.perf_counter()
    chunked, _ = _generate(ctx)
    plain = _iteration(chunked, machines)
    untraced_s = time.perf_counter() - started

    recorder = spans.Recorder()
    probes = layers.install(recorder)
    try:
        window_start = time.perf_counter()
        chunked, _ = _generate(ctx, "traced-store")
        traced = _iteration(chunked, machines)
        window = (window_start, time.perf_counter())
    finally:
        probes.remove()
    traced_s = window[1] - window[0]
    out.per_layer = layers.layer_metrics(recorder.spans, [window])
    out.per_layer["traced_overhead_pct"] = (traced_s / untraced_s - 1) * 100
    out.attempted += 2 * (EXACT_MACHINES + SAMPLED_MACHINES)
    errors = _check(out, plain)
    for first, second in zip(plain["sampled"], traced["sampled"]):
        if first.cpi != second.cpi:
            out.fail("long_trace: traced sampled CPI differs from untraced")
    out.report = {"untraced_s": untraced_s, "traced_s": traced_s,
                  "spans": len(recorder.spans), "sampled_err_pct": errors}
    return out
