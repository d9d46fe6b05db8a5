"""Which program calls the traced run wraps, and the per-layer metrics.

Every wrapped call is a public function or method of one layer (or the
kernel object ``repro.accel.get_kernels()`` returns).  :func:`install`
wraps them all; :func:`layer_metrics` turns the recorded spans into the
``per_layer`` metrics named in ``BENCHMARK.json``.  Metrics of layers a
workload does not reach read 0.
"""

from __future__ import annotations

import os
import sys

from perfbench import spans as sp

#: Layers whose self time is reported as ``self.<layer>_s``.
LAYERS = ("trace", "trace.store", "profiler", "accel", "core", "api",
          "runtime", "search", "pipeline")

#: The pool stages ``Session.stages`` / ``GET /v1/metrics`` export.
STAGES = ("ship", "attach", "profile", "model", "collect")
#: Stages a pool unit times inside ``Session.map_resilient`` and returns
#: with its answers; ``ship`` and ``collect`` are timed around the map.
MAP_STAGES = ("attach", "profile", "model")

#: Single-pass and streamed profiling passes (kernel methods).
PASS_KERNELS = ("accel.base_pass", "accel.l2_pass", "accel.control_stream",
                "accel.branch_profile", "accel.base_stream",
                "accel.l2_stream", "accel.branch_stream")

SERVICE_METRICS = ("service.cache_hit_ratio", "service.queue_wait_p50_ms",
                   "service.queue_wait_p99_ms", "service.server_p50_ms",
                   "service.rejected")


def _count_len(key: str):
    def count(span, args, kwargs, result):
        span.counts[key] = len(result)
    return count


def _count_instructions(span, args, kwargs, result):
    span.counts["instructions"] = result.instructions


def _count_eval(span, args, kwargs, result):
    span.counts["evals"] = len(args[1])


def _count_pooled(span, args, kwargs, result):
    """Mark maps that reach the pool and add up the stages their units return.

    A map of one item, or on a ``jobs=1`` session, runs inline.  Planned
    groups come back as ``(answers, stages)``; a contained failure as a
    ``UnitFailure`` with no stages.
    """
    if args[0].jobs <= 1 or len(result) <= 1:
        return
    span.counts["pooled"] = 1
    for outcome in result:
        if isinstance(outcome, tuple) and len(outcome) == 2 \
                and isinstance(outcome[1], dict):
            for stage in MAP_STAGES:
                key = f"stage.{stage}"
                span.counts[key] = (span.counts.get(key, 0.0)
                                    + outcome[1].get(stage, 0.0))


def _artifact_bytes(hit_only: bool):
    from repro.runtime.artifacts import MISSING

    def count(span, args, kwargs, result):
        if hit_only and result is MISSING:
            return
        cache, kind = args[0], args[-1]
        span.counts["hits"] = 1
        path = cache.path_for(kind, **kwargs)
        if path is not None:
            try:
                span.counts["bytes"] = os.path.getsize(path)
            except OSError:
                pass
    return count


def install(recorder: sp.Recorder) -> sp.Probes:
    """Wrap every layer boundary the per-layer metrics read."""
    import repro.accel
    import repro.api
    import repro.api.batch
    import repro.api.planner
    import repro.profiler.sampling
    import repro.search
    from repro.core.model import InOrderMechanisticModel
    from repro.pipeline.inorder import InOrderPipeline
    from repro.profiler.streaming import StreamingEngine
    from repro.runtime.artifacts import ArtifactCache
    from repro.runtime.session import Session
    from repro.search.space import SearchSpace
    from repro.search.strategies import SearchDriver
    from repro.trace.functional import FunctionalSimulator
    from repro.trace.trace import ChunkedTrace
    from repro.workloads.synthetic import SyntheticTraceGenerator

    # The package re-exports ``optimize`` under the submodule's own name.
    optimize_module = sys.modules["repro.search.optimize"]
    probes = sp.Probes(recorder)
    wrap = probes.wrap
    wrap(FunctionalSimulator, "run", "trace.gen", "trace",
         _count_len("instructions"))
    wrap(SyntheticTraceGenerator, "generate_store", "trace.gen", "trace",
         _count_len("instructions"))
    wrap(ChunkedTrace, "chunk", "trace.store.read", "trace.store")
    wrap(Session, "miss_profile", "profiler.miss_profile", "profiler")
    wrap(Session, "program_profile", "profiler.program_profile", "profiler")
    for method in ("profile_machines", "miss_profile", "program_profile"):
        wrap(StreamingEngine, method, "profiler.streaming", "profiler")
    wrap(repro.profiler.sampling, "sample_evaluate", "profiler.sampling",
         "profiler")
    wrap(repro.profiler.sampling, "profile_interval",
         "profiler.sampling.interval", "profiler")
    wrap(InOrderMechanisticModel, "predict", "core.predict", "core")
    wrap(repro.api.planner, "plan_requests", "api.plan", "api",
         _count_len("groups"))
    wrap(repro.api.batch, "evaluate_many", "api.evaluate_many", "api")
    probes.replace(repro.api, "evaluate_many", repro.api.batch.evaluate_many)
    wrap(repro.api.batch, "evaluate", "api.evaluate", "api")
    probes.replace(repro.api, "evaluate", repro.api.batch.evaluate)
    wrap(ArtifactCache, "load", "runtime.artifact_load", "runtime",
         _artifact_bytes(hit_only=True))
    wrap(ArtifactCache, "store", "runtime.artifact_store", "runtime",
         _artifact_bytes(hit_only=False))
    wrap(Session, "map", "runtime.map", "runtime", _count_pooled)
    wrap(Session, "map_resilient", "runtime.map", "runtime", _count_pooled)
    wrap(optimize_module, "optimize", "search.optimize", "search")
    probes.replace(repro.search, "optimize", optimize_module.optimize)
    wrap(SearchDriver, "evaluate", "search.eval", "search", _count_eval)
    wrap(SearchSpace, "overrides", "search.decode", "search")
    wrap(InOrderPipeline, "run", "pipeline.sim", "pipeline",
         _count_instructions)
    probes.replace(repro.accel, "_ACTIVE",
                   sp.KernelProxy(repro.accel.get_kernels(), recorder))
    return probes


def layer_metrics(spans: list[sp.Span], windows: list[tuple[float, float]],
                  service: dict | None = None,
                  stages: dict | None = None) -> dict[str, float]:
    """Every per-layer metric from the spans of one traced run.

    ``windows`` is the traced wall time whose uncovered part is reported:
    the whole traced phase in process, the busy periods for a server.
    ``service`` carries the ``service.*`` figures and ``stages`` the
    ``ship`` and ``collect`` seconds, both read from the server's
    ``GET /v1/metrics``.  The in-map stages come from the pooled maps'
    own results (:func:`_count_pooled`).
    """
    inclusive = sp.inclusive
    gen_s = inclusive(spans, "trace.gen")
    gen_instructions = sp.counted(spans, "trace.gen", "instructions")
    pooled_maps = [span for span in sp.outermost(
        spans, lambda span: span.name == "runtime.map")
        if span.counts.get("pooled")]
    map_s = sum(span.duration for span in pooled_maps)
    stage_values = {name: float((stages or {}).get(name, 0.0))
                    for name in STAGES if name not in MAP_STAGES}
    for name in MAP_STAGES:
        stage_values[name] = sum(span.counts.get(f"stage.{name}", 0.0)
                                 for span in pooled_maps)
    accel_spans = sp.outermost(spans, lambda span: span.layer == "accel")
    own = sp.self_times(spans)

    def self_of(name: str) -> float:
        return sum(own[span.id] for span in spans if span.name == name)

    metrics = {
        "trace.gen_s": gen_s,
        "trace.instr_per_s": gen_instructions / gen_s if gen_s else 0.0,
        "profiler.passes": sum(sp.calls(spans, name) for name in PASS_KERNELS),
        "profiler.miss_profile_s": inclusive(spans, "profiler.miss_profile"),
        "profiler.program_profile_s":
            inclusive(spans, "profiler.program_profile"),
        "accel.kernel_calls": sum(1 for span in spans
                                  if span.layer == "accel"),
        "accel.kernel_s": sum(span.duration for span in accel_spans),
        "core.predict_calls": sp.calls(spans, "core.predict"),
        "core.predict_s": inclusive(spans, "core.predict"),
        "api.plan_s": inclusive(spans, "api.plan"),
        "api.groups": sp.counted(spans, "api.plan", "groups"),
        "api.batch_self_s": self_of("api.evaluate_many"),
        "runtime.artifact_loads":
            sp.counted(spans, "runtime.artifact_load", "hits"),
        "runtime.artifact_load_s": inclusive(spans, "runtime.artifact_load"),
        "runtime.artifact_stores": sp.calls(spans, "runtime.artifact_store"),
        "runtime.artifact_store_s":
            inclusive(spans, "runtime.artifact_store"),
        "runtime.artifact_bytes":
            sp.counted(spans, "runtime.artifact_load", "bytes")
            + sp.counted(spans, "runtime.artifact_store", "bytes"),
        "runtime.map_s": map_s,
        **{f"runtime.stage.{name}_s": stage_values[name] for name in STAGES},
        # Pooled map wall minus the stage seconds its units report, as is:
        # the dispatch time no stage names.  Both workers' unit times add
        # up, so it turns negative when they overlap more than the pool
        # spends on dispatch.
        "runtime.unattributed_s":
            map_s - sum(stage_values[name] for name in MAP_STAGES),
        "search.decode_calls": sp.calls(spans, "search.decode"),
        "search.decode_s": inclusive(spans, "search.decode"),
        "search.propose_s": self_of("search.optimize"),
        "search.eval_s": inclusive(spans, "search.eval"),
        "search.evals": sp.counted(spans, "search.eval", "evals"),
        "pipeline.sim_instr": sp.counted(spans, "pipeline.sim",
                                         "instructions"),
        "pipeline.sim_s": inclusive(spans, "pipeline.sim"),
        "trace.store.chunk_reads": sp.calls(spans, "trace.store.read"),
        "trace.store.read_s": inclusive(spans, "trace.store.read"),
        "profiler.streaming_s": inclusive(spans, "profiler.streaming"),
        "profiler.sampling.intervals":
            sp.calls(spans, "profiler.sampling.interval"),
        "profiler.sampling_s": inclusive(spans, "profiler.sampling"),
    }
    for name in SERVICE_METRICS:
        metrics[name] = float((service or {}).get(name, 0.0))
    layer_self = sp.layer_self_times(spans)
    for layer in LAYERS:
        metrics[f"self.{layer.replace('.', '_')}_s"] = layer_self.get(layer, 0.0)
    metrics["uncovered_s"] = sp.uncovered(spans, windows)
    return metrics


def per_layer_names() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    names = {}
    sample = layer_metrics([], [])
    sample["traced_overhead_pct"] = 0.0
    for name in sample:
        if name.endswith("_per_s"):
            unit = "1/s"
        elif name.endswith("_s"):
            unit = "s"
        elif name.endswith("_ms"):
            unit = "ms"
        elif name.endswith("_pct"):
            unit = "%"
        elif name.endswith("_ratio"):
            unit = "ratio"
        elif name.endswith("_bytes"):
            unit = "bytes"
        else:
            unit = "count"
        names[name] = unit
    return names
