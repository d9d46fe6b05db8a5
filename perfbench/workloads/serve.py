"""``serve``: an open loop against ``repro-experiments serve --jobs 2``.

The server runs as a subprocess on a fresh artifact-cache directory; set-up
starts it and warms every workload's trace.  The seeded schedule
(:func:`perfbench.inputs.serve_schedule`) runs three Poisson phases back
to back at :data:`perfbench.inputs.RATES`, from mostly idle to past the
knee.  Four in five requests are ``POST /v1/eval`` drawn Zipf-wise from a
few hundred (workload, machine) points, so repeats hit the result cache
while new geometries force profiling; every fifth is a small
``POST /v1/sweep`` batch that goes through the worker pool and the data
plane.  Load comes from this one process over :data:`SENDERS` connections.

Should move: service, result cache, job queue, pool, data plane, api.
Bypasses: the artifact rerun path and the search layer.
"""

from __future__ import annotations

import dataclasses
import json
import os
import signal
import subprocess
import sys
import threading
import time
import urllib.request

from perfbench import inputs, layers, loadgen, spans, stats
from perfbench.harness import Context, Result, child_env, peak_rss_mb
from perfbench.speed import Timer

#: The phase whose latencies are gated (18 req/s).
MIDDLE = 1
#: A rate is sustained when its highest reportable tail percentile (p99
#: with enough samples, else the highest one with ten samples beyond it,
#: at least p90) stays within this limit, nothing fails and the backlog
#: does not grow.
LATENCY_LIMIT_MS = 250.0
MIN_TAIL_LEVEL = 90.0
#: Connections the generator opens (the machine's core count).
SENDERS = 2
JOBS = 2
SETUP_REPEATS = 3
#: The schedule's pace follows the host speed measured just before it,
#: within these limits (a run at the lowest lasts twice as long).
PACE_LIMITS = (0.5, 2.0)
#: Served eval answers re-computed in process and compared byte for byte.
CHECK_BODIES = 15
#: Served sweep answers re-computed in process and compared result by result.
CHECK_SWEEPS = 3


class Server:
    """One ``repro-experiments serve`` subprocess and its lifetime."""

    def __init__(self, ctx: Context, name: str, spans_out: str | None = None):
        cache = ctx.scratch(f"serve-cache-{name}")
        serve = ["serve", "--jobs", str(JOBS), "--port", "0",
                 "--cache-dir", str(cache)]
        if spans_out is None:
            command = [sys.executable, "-m", "repro.cli", *serve]
        else:
            command = [sys.executable,
                       str(ctx.root / "perfbench" / "serve_traced.py"),
                       spans_out, *serve]
        env = child_env(ctx)
        env["REPRO_LOG"] = "json"
        self.process = subprocess.Popen(
            command, env=env, cwd=ctx.root, stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
            start_new_session=True)
        self.port = None
        self._ready = threading.Event()
        self._log: list[str] = []
        self._drain = threading.Thread(target=self._read_log, daemon=True)
        self._drain.start()
        if not self._ready.wait(60) or self.port is None:
            self.stop()
            raise RuntimeError("server did not start: " + "".join(self._log[-5:]))

    def _read_log(self) -> None:
        for line in self.process.stderr:
            if len(self._log) < 200:
                self._log.append(line)
            if self.port is None and '"url"' in line:
                try:
                    url = json.loads(line)["url"]
                except (ValueError, KeyError):
                    continue
                self.port = int(url.rsplit(":", 1)[1])
                self._ready.set()
        self._ready.set()

    def get(self, path: str) -> dict:
        with urllib.request.urlopen(f"http://127.0.0.1:{self.port}{path}",
                                    timeout=30) as response:
            return json.loads(response.read())

    def warm(self) -> None:
        """Generate every workload's trace through the service."""
        import http.client

        connection = http.client.HTTPConnection("127.0.0.1", self.port,
                                                timeout=60)
        try:
            for name in inputs.WORKLOADS:
                connection.request("POST", "/v1/eval",
                                   json.dumps({"workload": name}),
                                   {"Content-Type": "application/json"})
                response = connection.getresponse()
                response.read()
                if response.status != 200:
                    raise RuntimeError(f"warm-up of {name} answered "
                                       f"{response.status}")
        finally:
            connection.close()

    def stop(self) -> None:
        """SIGINT drains the server; escalate if it does not exit."""
        process = self.process
        for sig, wait in ((signal.SIGINT, 30), (signal.SIGTERM, 10),
                          (signal.SIGKILL, 10)):
            if process.poll() is not None:
                break
            process.send_signal(sig)
            try:
                process.wait(wait)
            except subprocess.TimeoutExpired:
                continue
        try:
            # Stragglers of the server's process group (pool workers).
            os.killpg(process.pid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            pass
        self._drain.join(10)


def _start(ctx: Context, name: str, spans_out: str | None = None):
    """A warmed server, and the timer of its start (whose ``cpu`` is this
    process's; the server's own is :func:`cpu_seconds`)."""
    with Timer() as timer:
        server = Server(ctx, name, spans_out)
        try:
            server.warm()
        except BaseException:
            server.stop()
            raise
    return server, timer


def _instructions(outcome: loadgen.Outcome) -> int:
    payload = json.loads(outcome.body)
    if outcome.event.path == "/v1/eval":
        return payload["instructions"]
    return sum(result["instructions"] for result in payload["results"])


def _service_delta(before: dict, after: dict) -> tuple[dict, dict]:
    """``service.*`` figures and pool stage seconds over the schedule."""
    hits = after["cache"]["hits"] - before["cache"]["hits"]
    misses = after["cache"]["misses"] - before["cache"]["misses"]
    responses = {code: after["responses"].get(code, 0)
                 - before["responses"].get(code, 0)
                 for code in after["responses"]}
    eval_latency = after["endpoints"].get("POST /v1/eval", {}).get(
        "latency_ms", {})
    service = {
        "service.cache_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "service.queue_wait_p50_ms": after["queue_wait_ms"].get("p50", 0.0),
        "service.queue_wait_p99_ms": after["queue_wait_ms"].get("p99", 0.0),
        "service.server_p50_ms": eval_latency.get("p50", 0.0),
        "service.rejected": sum(responses.get(str(code), 0)
                                for code in loadgen.REFUSALS),
    }
    stage_before = before["session"]["stages"]
    stages = {name: value - stage_before.get(name, 0.0)
              for name, value in after["session"]["stages"].items()}
    return service, stages


def cpu_seconds(pid: int) -> float:
    """User+system CPU seconds of ``pid`` and its live descendants (the
    server's pool workers live for the whole schedule)."""
    tick = os.sysconf("SC_CLK_TCK")
    parents: dict[int, int] = {}
    times: dict[int, float] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="ascii") as fh:
                fields = fh.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        parents[int(entry)] = int(fields[1])
        times[int(entry)] = (int(fields[11]) + int(fields[12])) / tick
    total, frontier = 0.0, [pid]
    while frontier:
        current = frontier.pop()
        total += times.get(current, 0.0)
        frontier.extend(child for child, parent in parents.items()
                        if parent == current)
    return total


def _drive(ctx: Context, server: Server, events) -> dict:
    before = server.get("/v1/metrics")
    cpu_before = cpu_seconds(server.process.pid)
    generator = loadgen.OpenLoop("127.0.0.1", server.port, SENDERS)
    outcomes, begin = generator.run(events)
    end = time.perf_counter()
    cpu = cpu_seconds(server.process.pid) - cpu_before
    after = server.get("/v1/metrics")
    return {"outcomes": outcomes, "begin": begin, "end": end,
            "before": before, "cpu": cpu, "after": after,
            "rss": peak_rss_mb(server.process.pid)}


def _phase_report(outcomes, durations) -> list[dict]:
    report, start = [], 0.0
    for phase, (rate, duration) in enumerate(zip(inputs.RATES, durations)):
        chosen = [o for o in outcomes if o.event.phase == phase]
        latencies = [o.latency if o.ok else float("inf") for o in chosen]
        finite = [value for value in latencies if value != float("inf")]
        tail = stats.tail(latencies) if latencies else None
        grows = loadgen.backlog_grows(outcomes, start, start + duration)
        lateness = [o.lateness for o in chosen]
        meets = (tail is not None and tail["level"] >= MIN_TAIL_LEVEL
                 and tail["value"] * 1000.0 <= LATENCY_LIMIT_MS)
        report.append({
            "rate": rate, "requests": len(chosen),
            "failed": len(latencies) - len(finite),
            "p50_ms": stats.median(latencies) * 1000.0 if latencies else None,
            "tail_ms": None if tail is None else {
                "level": tail["level"], "value": tail["value"] * 1000.0,
                "count": tail["count"], "beyond": tail["beyond"]},
            "lateness_p50_ms": stats.median(lateness) * 1000.0 if lateness else None,
            "lateness_max_ms": max(lateness) * 1000.0 if lateness else None,
            "backlog_grows": grows,
            "meets_limit": meets and not grows and len(finite) == len(chosen),
        })
        start += duration
    return report


def _check(ctx: Context, out: Result, outcomes) -> None:
    """Non-200 answers fail, and so does every sweep slot that carries an
    ``error`` (a contained pool failure still answers 200).  Sampled eval
    and sweep bodies must equal the in-process answer."""
    import repro.api
    from repro.api.sweep import SweepRequest
    from repro.runtime.session import Session

    evals: dict[str, bytes] = {}
    sweeps: dict[str, bytes] = {}
    for outcome in outcomes:
        if not outcome.ok:
            out.attempted += 1
            kind = ("refused" if outcome.status in loadgen.REFUSALS
                    else "timed out" if "timeout" in outcome.error.lower()
                    else "failed")
            out.fail(f"serve: {outcome.event.path} {kind}: "
                     f"{outcome.status} {outcome.error}".strip())
            continue
        key = json.dumps(outcome.event.body, sort_keys=True)
        if outcome.event.path == "/v1/eval":
            out.attempted += 1
            evals.setdefault(key, outcome.body)
            continue
        sweeps.setdefault(key, outcome.body)
        payload = json.loads(outcome.body)
        body = outcome.event.body
        asked = len(body["workloads"]) * len(body["machines"])
        out.attempted += asked
        if payload["count"] != asked or len(payload["results"]) != asked:
            out.fail(f"serve: sweep of {asked} points answered "
                     f"{len(payload['results'])} results")
        for result in payload["results"]:
            if result.get("error"):
                out.fail(f"serve: sweep slot {result['workload']} on "
                         f"{result['machine']} failed: {result['error']}")
    picker = inputs.rng(ctx.seed, "serve.check")
    session = Session()
    for key in picker.sample(sorted(evals), min(CHECK_BODIES, len(evals))):
        out.attempted += 1
        expected = repro.api.evaluate(json.loads(key), session=session)
        if expected.to_json().encode("utf-8") != evals[key]:
            out.fail(f"serve: served body differs from in-process "
                     f"EvalResult.to_json() for {key}")
    for key in picker.sample(sorted(sweeps), min(CHECK_SWEEPS, len(sweeps))):
        out.attempted += 1
        requests = SweepRequest.from_dict(json.loads(key)).expand()
        expected = repro.api.evaluate_many(requests, session=session)
        served = json.loads(sweeps[key])["results"]
        if served != json.loads(json.dumps([r.to_dict() for r in expected])):
            out.fail(f"serve: served sweep differs from in-process "
                     f"evaluate_many for {key}")


def _repeats(outcomes) -> set[int]:
    """Indices of eval requests asking what an earlier-due request asked."""
    seen, repeats = set(), set()
    for index, outcome in enumerate(outcomes):
        if outcome.event.path != "/v1/eval":
            continue
        key = json.dumps(outcome.event.body, sort_keys=True)
        if key in seen:
            repeats.add(index)
        seen.add(key)
    return repeats


def _summary(run: dict, durations, sampler=None) -> dict:
    """Figures of one schedule; with ``sampler`` (the samples taken during
    it) the server's CPU seconds and the middle rate's latencies are scaled
    to the nominal host speed."""
    outcomes = run["outcomes"]
    served = [o for o in outcomes if o.ok]
    answered = sum(_instructions(o) for o in served)
    busy = loadgen.busy_time(outcomes)
    repeats = _repeats(outcomes)
    begin = run["begin"]

    def factor(start: float, end: float) -> float:
        if sampler is None:
            return 1.0
        return sampler.speed(begin + start, begin + end)

    # One speed for the whole middle phase: a request's own few samples
    # would add their noise to its latency.
    middle_start = sum(durations[:MIDDLE])
    middle_speed = factor(middle_start, middle_start + durations[MIDDLE])

    def middle_ms(keep) -> list[float]:
        return [(o.latency * middle_speed if o.ok else float("inf")) * 1000.0
                for index, o in enumerate(outcomes)
                if o.event.phase == MIDDLE and keep(index, o)]

    every = middle_ms(lambda index, o: True)
    repeated = middle_ms(lambda index, o: index in repeats)
    fresh = middle_ms(lambda index, o: o.event.path == "/v1/eval"
                      and index not in repeats)
    sweeps = middle_ms(lambda index, o: o.event.path == "/v1/sweep")
    phases = _phase_report(outcomes, durations)
    return {
        # Per CPU second of the server and its workers: independent of how
        # much of the schedule the server sat idle or overlapped requests.
        "minstr_per_s": answered / run["cpu"]
        / factor(0.0, run["end"] - begin) / 1e6,
        "cpu_s": run["cpu"],
        "busy_minstr_per_s": answered / busy / 1e6,
        "busy_s": busy,
        # Gated: the median of repeated evals (result-cache answers).  The
        # medians of all requests, computed evals and sweeps move by up to
        # twofold between runs of one seed, past any bound the benchmark
        # may set; they stay on the report line under "middle".
        "p50_ms": stats.median(repeated),
        "middle": {name: {"p50_ms": stats.median(values),
                          "tail_ms": stats.tail(values),
                          "count": len(values)}
                   for name, values in (("all", every),
                                        ("repeated_evals", repeated),
                                        ("new_evals", fresh),
                                        ("sweeps", sweeps))},
        "phases": phases,
        "sustained_rps": max((phase["rate"] for phase in phases
                              if phase["meets_limit"]), default=0.0),
        "latency_limit_ms": LATENCY_LIMIT_MS,
    }


def run(ctx: Context) -> Result:
    out = Result()
    durations = inputs.phase_durations(ctx.seconds)
    events = inputs.serve_schedule(ctx.seed, ctx.seconds)
    if ctx.trace:
        return _traced(ctx, out, events, durations)
    setups, server = [], None
    for attempt in range(SETUP_REPEATS):
        if server is not None:
            server.stop()
        server, timer = _start(ctx, str(attempt))
        setups.append((timer, timer.cpu + cpu_seconds(server.process.pid)))
    try:
        events, durations, pace = _paced(ctx, events, durations)
        result = _drive(ctx, server, events)
    finally:
        server.stop()
    summary = _summary(result, durations, ctx.speed)
    _check(ctx, out, result["outcomes"])
    service, stages = _service_delta(result["before"], result["after"])
    out.end_to_end = {
        # CPU seconds of this process and of the server tree to a warmed
        # server, at nominal speed.
        "setup_s": stats.median([
            cpu * ctx.speed.speed(timer.start, timer.end)
            for timer, cpu in setups]),
        "peak_rss_mb": result["rss"],
        "minstr_per_s": summary["minstr_per_s"],
        "p50_ms": summary["p50_ms"]}
    raw = _summary(result, durations)
    out.report = {**summary, **service, "stages_s": stages, "pace": pace,
                  "setup_samples_s": [timer.wall for timer, _ in setups],
                  "raw": {"minstr_per_s": raw["minstr_per_s"],
                          "p50_ms": raw["p50_ms"],
                          "setup_s": stats.median([
                              timer.wall for timer, _ in setups])}}
    return out


def _paced(ctx: Context, events, durations):
    """The schedule at the host's current speed.

    The rates are requests per nominal second (see :mod:`perfbench.speed`):
    on a host running at half speed every request costs twice the time, so
    the same requests arrive half as often, the server is as busy as on the
    nominal host, and the latencies scaled by the speed read the same.
    Without this a slow host also pushes the server towards its knee, and
    latency grows faster than any scaling can take out."""
    now = time.perf_counter()
    low, high = PACE_LIMITS
    pace = min(max(ctx.speed.speed(now, now), low), high)
    return ([dataclasses.replace(event, due=event.due / pace)
             for event in events],
            tuple(duration / pace for duration in durations), pace)


def _traced(ctx: Context, out: Result, events, durations) -> Result:
    """The schedule on an untraced server, then on a traced one."""
    server, _ = _start(ctx, "untraced")
    try:
        plain = _drive(ctx, server, events)
    finally:
        server.stop()
    spans_out = str(ctx.work / "server-spans.json")
    server, _ = _start(ctx, "traced", spans_out)
    try:
        traced = _drive(ctx, server, events)
    finally:
        server.stop()
    with open(spans_out, encoding="utf-8") as fh:
        recorded = spans.spans_from_list(json.load(fh))
    begin = traced["begin"]
    busy = [(begin + o.sent, begin + o.done) for o in traced["outcomes"]]
    service, stages = _service_delta(traced["before"], traced["after"])
    window = [span for span in recorded if span.start >= begin]
    out.per_layer = layers.layer_metrics(window, busy, service, stages)
    # Server CPU seconds for the same schedule, traced over untraced.
    out.per_layer["traced_overhead_pct"] = (traced["cpu"] / plain["cpu"] - 1) * 100
    _check(ctx, out, traced["outcomes"])
    out.report = {"untraced": _summary(plain, durations),
                  "traced": _summary(traced, durations),
                  "spans": len(window), "stages_s": stages}
    return out
