"""Tests of the benchmark's own code: generators, statistics, spans, load."""

import json
from pathlib import Path

import pytest

from perfbench import inputs, layers, loadgen, spans, speed, stats
from perfbench.harness import END_TO_END
from perfbench.layers import per_layer_names

ROOT = Path(__file__).resolve().parents[2]


# ----------------------------------------------------------------------
# Generators are deterministic per seed.
# ----------------------------------------------------------------------
def test_sweep_inputs_repeat_per_seed_and_differ_across_seeds():
    assert inputs.sweep_batches(7, 24) == inputs.sweep_batches(7, 24)
    assert inputs.sweep_batches(7, 24) != inputs.sweep_batches(8, 24)
    assert (inputs.sample_pairs(7, "x", inputs.sweep_batches(7, 4), 12)
            == inputs.sample_pairs(7, "x", inputs.sweep_batches(7, 4), 12))


def test_serve_schedule_is_fixed_by_the_seed():
    first = inputs.serve_schedule(3, 5.0)
    assert first == inputs.serve_schedule(3, 5.0)
    assert first != inputs.serve_schedule(4, 5.0)
    assert [event.due for event in first] == sorted(e.due for e in first)
    assert {event.phase for event in first} == {0, 1, 2}
    assert all(0.0 <= event.due < 5.0 for event in first)
    for event in first:
        if event.path == "/v1/sweep":
            assert 1 <= len(event.body["workloads"]) <= 4
            assert 4 <= len(event.body["machines"]) <= 16


def test_long_trace_machines_and_points_are_deterministic():
    assert (inputs.long_trace_machines(5, 8)
            == inputs.long_trace_machines(5, 8))
    assert inputs.long_trace_machines(5, 8)[0] == {"preset": inputs.PRESET}
    for point in inputs.balanced_points(5, "check", 200):
        # The conditional axis only appears from 256KB of L2 up.
        assert ("l2_associativity" in point) == (point["l2_size"] != "128KB")


def test_balanced_points_cover_every_axis_value_equally():
    points = inputs.balanced_points(9, "check", 24)
    assert points != inputs.balanced_points(10, "check", 24)
    for axis, values in inputs.SYNTHETIC_AXES:
        if axis in inputs.SYNTHETIC_WHEN:
            continue  # dropped from the points with 128KB of L2
        fields = axis.split(",")
        column = [tuple(p[f] for f in fields) if len(fields) > 1 else p[axis]
                  for p in points]
        counts = [column.count(value) for value in values]
        assert max(counts) - min(counts) <= 1, axis


def test_table2_points_are_the_192_distinct_paper_points():
    points = inputs.table2_points()
    assert len(points) == 192
    assert len({json.dumps(p, sort_keys=True) for p in points}) == 192
    assert points[0] == {"pipeline_stages": 5, "frequency_mhz": 600,
                         "width": 1, "l2_size": "128KB",
                         "l2_associativity": 8,
                         "branch_predictor": "global_1kb"}


# ----------------------------------------------------------------------
# Percentiles and the sample-count rule.
# ----------------------------------------------------------------------
def test_percentile_interpolates_between_ranks():
    values = [4.0, 1.0, 3.0, 2.0]
    assert stats.percentile(values, 0) == 1.0
    assert stats.percentile(values, 100) == 4.0
    assert stats.percentile(values, 50) == pytest.approx(2.5)
    assert stats.median([7.0]) == 7.0
    with pytest.raises(ValueError):
        stats.percentile([], 50)


@pytest.mark.parametrize("count, level, beyond", [
    (1000, 99.0, 10), (999, 99.0, 9), (200, 95.0, 10), (20, 50.0, 10),
])
def test_samples_beyond(count, level, beyond):
    assert stats.samples_beyond(count, level) == beyond


def test_tail_reports_p99_only_with_ten_samples_beyond_it():
    assert stats.tail(list(range(1000)))["level"] == 99.0
    assert stats.tail(list(range(999)))["level"] == 98.0
    report = stats.tail(list(range(200)))
    assert (report["level"], report["count"], report["beyond"]) == (95.0, 200, 10)
    assert stats.tail(list(range(20)))["level"] == 50.0
    assert stats.tail(list(range(19))) is None


def test_union_length_merges_overlaps():
    assert stats.union_length([(0, 2), (1, 3), (5, 6), (6, 6)]) == 4


# ----------------------------------------------------------------------
# Self time on a synthetic span tree.
# ----------------------------------------------------------------------
def _tree():
    return [
        spans.Span(1, None, "api.evaluate_many", "api", 0.0, 10.0),
        spans.Span(2, 1, "profiler.miss_profile", "profiler", 1.0, 3.0),
        spans.Span(3, 1, "profiler.miss_profile", "profiler", 2.0, 5.0),
        spans.Span(4, 3, "accel.base_pass", "accel", 2.5, 4.0),
        spans.Span(5, 1, "core.predict", "core", 6.0, 7.0),
        spans.Span(6, None, "api.evaluate_many", "api", 12.0, 13.0),
    ]


def test_self_time_subtracts_the_union_of_children():
    own = spans.self_times(_tree())
    assert own[1] == pytest.approx(10.0 - 4.0 - 1.0)
    assert own[3] == pytest.approx(3.0 - 1.5)
    assert own[4] == pytest.approx(1.5)
    layer = spans.layer_self_times(_tree())
    assert layer == pytest.approx({"api": 6.0, "profiler": 3.5,
                                   "accel": 1.5, "core": 1.0})


def test_inclusive_counts_nested_reentry_once_and_uncovered_is_the_rest():
    tree = _tree()
    assert spans.inclusive(tree, "profiler.miss_profile") == pytest.approx(5.0)
    assert spans.calls(tree, "profiler.miss_profile") == 2
    assert spans.uncovered(tree, [(0.0, 14.0)]) == pytest.approx(3.0)
    assert spans.uncovered(tree, [(11.0, 12.5), (12.0, 14.0)]) == pytest.approx(2.0)


def test_unattributed_is_pooled_map_wall_minus_the_stages_inside_it():
    class Session:
        jobs = 2

    def mapped(items, result):
        span = spans.Span(len(items), None, "runtime.map", "runtime", 0.0, 0.0)
        layers._count_pooled(span, (Session(), None, items), {}, result)
        return span

    pooled = mapped([1, 2], [([], {"attach": 0.1, "profile": 0.5}),
                             ([], {"profile": 0.25, "model": 0.125})])
    pooled.end = 2.0
    inline = mapped([1], [([], {"profile": 9.0})])
    inline.start, inline.end = 3.0, 12.0
    metrics = layers.layer_metrics([pooled, inline], [],
                                   stages={"ship": 0.75, "collect": 0.5,
                                           "profile": 99.0})
    assert metrics["runtime.map_s"] == pytest.approx(2.0)
    assert metrics["runtime.stage.profile_s"] == pytest.approx(0.75)
    assert metrics["runtime.stage.ship_s"] == 0.75
    assert metrics["runtime.stage.collect_s"] == 0.5
    # ship and collect are timed outside the map and are not subtracted.
    assert metrics["runtime.unattributed_s"] == pytest.approx(
        2.0 - 0.1 - 0.75 - 0.125)


def test_probes_record_spans_and_restore_the_original():
    class Layer:
        def work(self, value):
            return value * 2

    recorder = spans.Recorder()
    probes = spans.Probes(recorder)
    probes.wrap(Layer, "work", "layer.work", "layer",
                lambda span, args, kwargs, result: span.counts.update(out=result))
    assert Layer().work(4) == 8
    probes.remove()
    assert Layer().work(5) == 10
    [span] = recorder.spans
    assert (span.name, span.layer, span.counts) == ("layer.work", "layer",
                                                     {"out": 8})


# ----------------------------------------------------------------------
# Open-loop lateness accounting.
# ----------------------------------------------------------------------
class _FakeTime:
    def __init__(self):
        self.now = 100.0

    def clock(self):
        return self.now

    def sleep(self, seconds):
        self.now += seconds


def test_open_loop_times_from_due_and_reports_lateness():
    fake = _FakeTime()
    events = [inputs.Event(due, 0, "/v1/eval", {}) for due in (0.0, 0.1, 0.2, 1.0)]

    def send(connection, event):
        fake.now += 0.25
        return 200, b"{}"

    generator = loadgen.OpenLoop(None, 0, senders=1, clock=fake.clock,
                                 sleep=fake.sleep)
    outcomes, begin = generator.run(events, send=send)
    assert begin == 100.0
    assert [o.sent for o in outcomes] == pytest.approx([0.0, 0.25, 0.5, 1.0])
    assert [o.lateness for o in outcomes] == pytest.approx([0.0, 0.15, 0.3, 0.0])
    assert [o.latency for o in outcomes] == pytest.approx([0.25, 0.4, 0.55, 0.25])
    assert all(o.ok for o in outcomes)
    assert loadgen.busy_time(outcomes) == pytest.approx(1.0)
    assert loadgen.outstanding(outcomes, 0.3) == 2


def test_open_loop_counts_connection_errors_as_failures():
    fake = _FakeTime()

    def send(connection, event):
        raise ConnectionResetError("reset by peer")

    generator = loadgen.OpenLoop(None, 0, senders=1, clock=fake.clock,
                                 sleep=fake.sleep)
    [outcome], _ = generator.run([inputs.Event(0.0, 0, "/v1/eval", {})],
                                 send=send)
    assert not outcome.ok and "ConnectionResetError" in outcome.error


def test_backlog_growth_needs_a_doubling_backlog():
    steady = [loadgen.Outcome(inputs.Event(t / 10, 0, "/v1/eval", {}),
                              sent=t / 10, done=t / 10 + 0.05)
              for t in range(100)]
    assert not loadgen.backlog_grows(steady, 0.0, 10.0)
    late = [loadgen.Outcome(inputs.Event(t / 10, 0, "/v1/eval", {}),
                            sent=t / 10, done=t / 10 + t / 20)
            for t in range(100)]
    assert loadgen.backlog_grows(late, 0.0, 9.95)


# ----------------------------------------------------------------------
# Host speed scaling.
# ----------------------------------------------------------------------
def test_mean_speed_is_nominal_over_the_mean_reference_time():
    nominal = speed.NOMINAL_S
    # (start, cpu): the host ran at full speed until t=10, then at half.
    samples = ([(t / 10, nominal) for t in range(100)]
               + [(10 + t / 10, 2 * nominal) for t in range(100)])
    assert speed.mean_speed(samples, 0.0, 9.9) == pytest.approx(1.0)
    assert speed.mean_speed(samples, 10.0, 19.9) == pytest.approx(0.5)
    # Mean of the times, not of the speeds: half the samples at each speed.
    assert speed.mean_speed(samples, 5.0, 14.95) == pytest.approx(2 / 3)
    # A short interval takes the MIN_SAMPLES samples nearest its middle.
    assert speed.mean_speed(samples, 15.0, 15.0) == pytest.approx(0.5)
    with pytest.raises(RuntimeError):
        speed.mean_speed([], 0.0, 1.0)


def test_scaled_is_cpu_seconds_times_the_speed_during_them():
    samples = speed.Samples()
    samples.samples = [(t / 10, 2 * speed.NOMINAL_S) for t in range(50)]
    timer = speed.Timer()
    timer.start, timer.end, timer.cpu = 1.0, 4.0, 2.5
    assert samples.scaled(timer) == pytest.approx(1.25)


def test_timer_counts_cpu_not_sleep():
    import time

    with speed.Timer() as timer:
        time.sleep(0.05)
    assert timer.wall >= 0.05 and timer.cpu < 0.04


def test_sampler_process_reports_samples_and_stops():
    sampler = speed.Sampler()
    import time

    time.sleep(0.5)
    sampler.close()
    assert sampler.process.returncode == 0
    assert len(sampler.samples) >= 3
    assert all(cpu > 0 for _, cpu in sampler.samples)


# ----------------------------------------------------------------------
# The metric names the benchmark prints are the ones BENCHMARK.json lists.
# ----------------------------------------------------------------------
def test_benchmark_json_lists_exactly_the_printed_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == per_layer_names()
    assert [w["name"] for w in spec["workloads"]] == [
        "sweep", "serve", "search", "long_trace"]
