"""``search``: a closed loop of in-process surrogate ``repro.search.optimize``.

Each round runs seeded surrogate searches, each on a fresh session holding
the trace generated in set-up and its program profile (miss profiles start
cold): one over the >10^6-point synthetic space at budget 36 under
``area_proxy<=700``, and :data:`TABLE2_SEARCHES` over the 192-point
Table-2 space at budget 64.  Both spaces are built from the benchmark's
own axis lists.  Set-up also runs the exhaustive search of
the Table-2 space, whose best point every surrogate search must find.

A synthetic search takes 5 to 9 surrogate rounds depending on its seed (the
extra rounds propose nothing new), so its whole time varies with the seed
while the time of one round (scoring a 512-candidate pool and evaluating a
batch) does not: that per-round time is the gated latency.  A Table-2
search always takes 7 rounds but lasts only ~0.2 s, so a round runs
several, each with its own seed and correctness check; their evaluated
instructions per second are the gated throughput.

Should move: the search layer, above all ``SearchSpace`` index decoding.
Bypasses: the batch planner's multi-workload grouping, the pool and the
service (``sweep`` and ``serve`` should not change with this layer).
"""

from __future__ import annotations

import time

from perfbench import inputs, layers, spans, stats
from perfbench.harness import Context, Result, peak_rss_mb
from perfbench.speed import Timer

WORKLOAD = "dijkstra"
TABLE2_BUDGET = 64
SYNTHETIC_BUDGET = 36
BATCH = 8
CONSTRAINT = "area_proxy<=700"
SETUP_REPEATS = 7
#: Table-2 searches per round, each with its own seed.
TABLE2_SEARCHES = 8


def _table2(search_seed: int) -> dict:
    return {"workload": {"name": WORKLOAD}, "objectives": ["edp"],
            "strategy": "surrogate", "batch": BATCH, "seed": search_seed,
            "space": {"axes": inputs.space_axes(inputs.TABLE2_AXES)},
            "budget": TABLE2_BUDGET}


def _requests(seed: int, round_index: int) -> dict:
    stream = inputs.rng(seed, f"search.round{round_index}")
    synthetic = dict(_table2(stream.randrange(2**31)),
                     space={"axes": inputs.space_axes(
                         inputs.SYNTHETIC_AXES, inputs.SYNTHETIC_WHEN)},
                     budget=SYNTHETIC_BUDGET, constraints=[CONSTRAINT])
    return {"synthetic": synthetic,
            "table2": [_table2(stream.randrange(2**31))
                       for _ in range(TABLE2_SEARCHES)]}


def _setup_once():
    """A fresh session holding the workload's trace and program profile,
    and the exhaustive Table-2 best every surrogate search must find."""
    import repro.search
    from repro.runtime.session import Session

    with Timer() as timer:
        session = Session()
        session.program_profile(session.workload(WORKLOAD))
        request = dict(_table2(0), strategy="exhaustive", budget=192)
        del request["seed"]
        best = repro.search.optimize(request, session=session).best["index"]
    return session, best, timer


def _session_from(payload):
    """A new session on an already generated trace (profiling starts cold)."""
    from repro.runtime.session import Session
    from repro.trace.trace import Trace

    session = Session()
    session.program_profile(
        session.adopt_trace(WORKLOAD, "O3", Trace.from_payload(payload)))
    return session


def _timed(request: dict, session):
    import repro.search

    with Timer() as timer:
        result = repro.search.optimize(request, session=session)
    return result, timer


def _round(payload, requests: dict) -> dict:
    # Every search starts from its own session, so its cost does not depend
    # on the profiles the searches before it in the run left behind.
    synthetic, synthetic_t = _timed(requests["synthetic"],
                                    _session_from(payload))
    table2 = [_timed(request, _session_from(payload))
              for request in requests["table2"]]
    return {"synthetic": synthetic, "synthetic_t": synthetic_t,
            "table2": [result for result, _ in table2],
            "table2_t": [timer for _, timer in table2]}


def _timers(record: dict) -> list[Timer]:
    return [record["synthetic_t"], *record["table2_t"]]


def _check(out: Result, rounds: list[dict], best: int) -> None:
    for index, record in enumerate(rounds):
        out.attempted += 1 + len(record["table2"])
        for table2 in record["table2"]:
            if table2.best["index"] != best:
                out.fail(f"search: round {index} surrogate Table-2 best "
                         f"{table2.best['index']} != exhaustive best {best}")
        if record["synthetic"].cardinality <= 10**6:
            out.fail(f"search: synthetic space has "
                     f"{record['synthetic'].cardinality} points, expected "
                     "more than 10^6")


def run(ctx: Context) -> Result:
    out = Result()
    setups, bests = [], set()
    for _ in range(1 if ctx.trace else SETUP_REPEATS):
        session, best, timer = _setup_once()
        setups.append(timer)
        bests.add(best)
    out.attempted += len(setups)
    if len(bests) != 1:
        out.fail(f"search: exhaustive Table-2 best differs between set-ups: {bests}")
    payload = session.trace(WORKLOAD).to_payload()
    instructions = len(session.trace(WORKLOAD))
    if ctx.trace:
        return _traced(ctx, out, payload, best)

    rounds, started = [], time.perf_counter()
    while not rounds or time.perf_counter() - started < ctx.seconds:
        rounds.append(_round(payload, _requests(ctx.seed, len(rounds))))
    _check(out, rounds, best)

    scaled = ctx.speed.scaled
    per_round_ms = [scaled(record["synthetic_t"])
                    / len(record["synthetic"].trajectory) * 1000.0
                    for record in rounds]
    search_s = [sum(map(scaled, _timers(record))) for record in rounds]
    table2 = [(result, timer) for record in rounds
              for result, timer in zip(record["table2"], record["table2_t"])]
    # Throughput over the Table-2 searches only: a synthetic search takes 5
    # to 9 surrogate rounds for its 36 evaluations, depending on its seed.
    evaluated = sum(result.evaluations for result, _ in table2) * instructions
    out.end_to_end = {
        "setup_s": stats.median(list(map(scaled, setups))),
        "peak_rss_mb": peak_rss_mb(),
        "minstr_per_s": evaluated / sum(scaled(t) for _, t in table2) / 1e6,
        "p50_ms": stats.median(per_round_ms),
    }
    out.report = {
        "rounds": len(rounds),
        "search_s": stats.median(search_s),
        "synthetic_s": [scaled(record["synthetic_t"]) for record in rounds],
        "synthetic_rounds": [len(record["synthetic"].trajectory)
                             for record in rounds],
        "synthetic_round_ms": per_round_ms,
        "synthetic_evals_to_best": [
            record["synthetic"].best_found_at_evaluation for record in rounds],
        "table2_s": [scaled(timer) for _, timer in table2],
        "evals_to_best": [result.best_found_at_evaluation
                          for result, _ in table2],
        "exhaustive_best": best,
        "synthetic_cardinality": rounds[0]["synthetic"].cardinality,
        "setup_samples_s": [timer.wall for timer in setups],
        "raw": {"minstr_per_s": evaluated
                / sum(timer.wall for _, timer in table2) / 1e6,
                "p50_ms": stats.median([
                    record["synthetic_t"].wall
                    / len(record["synthetic"].trajectory) * 1000.0
                    for record in rounds]),
                "setup_s": stats.median([timer.wall for timer in setups])},
    }
    return out


def _traced(ctx: Context, out: Result, payload, best: int) -> Result:
    """One untraced round, then the same round with every probe installed."""
    requests = _requests(ctx.seed, 0)
    plain = _round(payload, requests)
    untraced_s = sum(timer.wall for timer in _timers(plain))
    recorder = spans.Recorder()
    probes = layers.install(recorder)
    try:
        window_start = time.perf_counter()
        traced = _round(payload, requests)
        window = (window_start, time.perf_counter())
    finally:
        probes.remove()
    traced_s = sum(timer.wall for timer in _timers(traced))
    out.per_layer = layers.layer_metrics(recorder.spans, [window])
    out.per_layer["traced_overhead_pct"] = (traced_s / untraced_s - 1) * 100
    _check(out, [plain, traced], best)
    for first, second in zip([plain["synthetic"], *plain["table2"]],
                             [traced["synthetic"], *traced["table2"]]):
        if first.to_json() != second.to_json():
            out.fail("search: traced search result differs from untraced")
    out.report = {"untraced_s": untraced_s, "traced_s": traced_s,
                  "spans": len(recorder.spans),
                  "evals_to_best": [result.best_found_at_evaluation
                                    for result in plain["table2"]]}
    return out
