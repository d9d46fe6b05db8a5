"""Figure 5: cumulative distribution of the model error across the design space.

The paper validates the model on a 192-point design space (Table 2) crossed
with 19 benchmarks: 90% of the design points show an error below 6%, the
average error is 2.5% and the maximum 9.6%.  Because each point requires a
detailed simulation, the default invocation uses the reduced design space and
a representative benchmark subset; pass ``full=True`` to sweep everything the
paper did.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.dse.space import default_design_space, reduced_design_space
from repro.experiments.common import (
    FIGURE5_FAST_BENCHMARKS,
    ensure_session,
    mibench_names,
)
from repro.runtime import ExperimentResult, Session, experiment
from repro.validation.compare import (
    ValidationRow,
    ValidationSummary,
    cumulative_distribution,
    summarize,
)


@dataclass
class Figure5Result:
    summary: ValidationSummary
    cdf: list[tuple[float, float]]
    design_points: int
    benchmarks: tuple[str, ...]

    @property
    def fraction_below_6_percent(self) -> float:
        return self.summary.fraction_below(0.06)


def _space_validation(session: Session, item) -> tuple[ValidationRow, ...]:
    """All design-space points of one benchmark (a parallel work unit).

    The space's points become an explicit-``machines`` sweep: every
    (configuration, backend) question is a declarative
    :class:`~repro.api.spec.EvalRequest` answered by the batch facade, and
    the model/simulator answers are paired back into validation rows.
    """
    from repro.api import SweepRequest, evaluate_many

    name, full = item
    space = default_design_space() if full else reduced_design_space()
    sweep = SweepRequest.make((name,), machines=space.specs(range(len(space))),
                              backends=("analytical", "simulator"))
    results = evaluate_many(sweep.expand(), session=session)
    rows = []
    for predicted, simulated in zip(results[0::2], results[1::2]):
        rows.append(
            ValidationRow(
                name=predicted.workload,
                configuration=predicted.machine,
                predicted_cpi=predicted.cpi,
                simulated_cpi=simulated.cpi,
            )
        )
    return tuple(rows)


def run(full: bool = False, benchmarks: tuple[str, ...] | None = None,
        session: Session | None = None) -> Figure5Result:
    session = ensure_session(session)
    space = default_design_space() if full else reduced_design_space()
    if benchmarks is None:
        benchmarks = (
            tuple(mibench_names()) if full else FIGURE5_FAST_BENCHMARKS
        )
    per_benchmark = session.map(
        _space_validation, [(name, full) for name in benchmarks]
    )
    rows = [row for benchmark_rows in per_benchmark for row in benchmark_rows]
    summary = summarize(rows)
    errors = [row.absolute_error for row in summary.rows]
    return Figure5Result(
        summary=summary,
        cdf=cumulative_distribution(errors, points=21),
        design_points=len(space),
        benchmarks=tuple(benchmarks),
    )


def to_experiment_result(result: Figure5Result) -> ExperimentResult:
    summary = result.summary
    return ExperimentResult(
        experiment="figure5",
        title=(
            f"Figure 5 — error CDF over {result.design_points} design points x "
            f"{len(result.benchmarks)} benchmarks ({summary.count} points)"
        ),
        headers=("absolute error <=", "fraction of points"),
        rows=tuple(
            (f"{threshold:.1%}", f"{fraction:.0%}")
            for threshold, fraction in result.cdf
        ),
        footnotes=(
            f"average |error| = {summary.average_absolute_error:.1%}  "
            f"max |error| = {summary.maximum_absolute_error:.1%}  "
            f"fraction below 6% = {result.fraction_below_6_percent:.0%}  "
            "(paper: 2.5% average, 9.6% max, 90% below 6%)",
        ),
        metadata={
            "design_points": result.design_points,
            "benchmarks": list(result.benchmarks),
            "average_absolute_error": summary.average_absolute_error,
            "maximum_absolute_error": summary.maximum_absolute_error,
            "fraction_below_6_percent": result.fraction_below_6_percent,
        },
    )


def format_result(result: Figure5Result) -> str:
    from repro.runtime.reporters import render_text

    return render_text(to_experiment_result(result))


@experiment(
    "figure5",
    title="Figure 5 — error CDF across the design space",
    options=("full", "benchmarks"),
    smoke={"benchmarks": ("sha", "qsort")},
)
def figure5_experiment(session: Session, full: bool = False,
                       benchmarks: tuple[str, ...] | None = None) -> ExperimentResult:
    return to_experiment_result(run(full=full, benchmarks=benchmarks,
                                    session=session))
