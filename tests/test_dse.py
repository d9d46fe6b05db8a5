"""Tests for the Table-2 design space and for exploring it through the API."""

import dataclasses

import pytest

from repro.api import MachineSpec, SweepRequest, evaluate_many
from repro.dse import default_design_space, reduced_design_space
from repro.machine import MachineConfig
from repro.runtime.session import Session
from repro.search import SearchSpace
from repro.validation.compare import ValidationRow, summarize


def _configurations(space):
    return [spec.resolve() for spec in space.specs(range(len(space)))]


class TestDesignSpace:
    def test_full_space_has_192_points(self):
        space = default_design_space()
        assert len(space) == 192
        configurations = _configurations(space)
        assert len(configurations) == 192
        assert len({machine.name for machine in configurations}) == 192

    def test_reduced_space_is_subset_sized(self):
        space = reduced_design_space()
        assert 0 < len(space) < 192
        assert len(_configurations(space)) == len(space)

    def test_configurations_cover_table2_ranges(self):
        configurations = _configurations(default_design_space())
        assert {machine.width for machine in configurations} == {1, 2, 3, 4}
        assert {machine.pipeline_stages for machine in configurations} == {5, 7, 9}
        assert {machine.frequency_mhz for machine in configurations} == {600, 800, 1000}
        assert {machine.l2_size for machine in configurations} == {
            128 * 1024, 256 * 1024, 512 * 1024, 1024 * 1024
        }
        assert {machine.l2_associativity for machine in configurations} == {8, 16}
        assert {machine.branch_predictor for machine in configurations} == {
            "global_1kb", "hybrid_3.5kb"
        }

    def test_depth_frequency_coupled(self):
        for machine in _configurations(default_design_space()):
            if machine.pipeline_stages == 5:
                assert machine.frequency_mhz == 600
            elif machine.pipeline_stages == 9:
                assert machine.frequency_mhz == 1000

    def test_custom_base_config_propagates(self):
        space = dataclasses.replace(
            default_design_space(),
            base=MachineSpec.from_machine(MachineConfig(l1d_size=16 * 1024)),
        )
        assert all(machine.l1d_size == 16 * 1024
                   for machine in _configurations(space))

    def test_iteration(self):
        space = reduced_design_space()
        specs = space.specs(range(len(space)))
        assert specs == [space.spec(index) for index in range(len(space))]


#: A 4-point space, small enough to simulate in tests.
TINY_MACHINES = tuple(
    MachineSpec.from_machine(MachineConfig(
        width=width, pipeline_stages=stages, frequency_mhz=freq,
        name=f"w{width}_d{stages}"))
    for width, stages, freq in [(1, 5, 600), (2, 5, 600), (4, 9, 1000), (2, 9, 1000)]
)


def _evaluate(workload, *, simulate=False, with_power=False, session=None,
              plan=True):
    """Model (and simulator) answers per point: (predicted, simulated) pairs."""
    backends = ("analytical", "simulator") if simulate else ("analytical",)
    sweep = SweepRequest.make([workload], machines=TINY_MACHINES,
                              backends=backends, with_power=with_power)
    results = evaluate_many(sweep.expand(), session=session or Session(),
                            plan=plan)
    if not simulate:
        return [(result, None) for result in results]
    return list(zip(results[0::2], results[1::2]))


class TestExplorer:
    """Exploring a small space through `evaluate_many`."""

    def test_empty_space_rejected(self):
        with pytest.raises(ValueError, match="no values"):
            SearchSpace.make({"width": []})

    def test_evaluate_model_only(self):
        points = _evaluate("sha")
        assert len(points) == 4
        assert all(simulated is None for _, simulated in points)
        assert all(model.cpi > 0 for model, _ in points)
        # Wider configurations should not have a higher predicted CPI... but a
        # deeper pipeline can; just check the scalar machine is the slowest.
        scalar = points[0][0]
        assert scalar.machine == "w1_d5"
        assert all(scalar.cpi >= model.cpi for model, _ in points)

    def test_evaluate_with_simulation_and_power(self):
        for model, simulated in _evaluate("sha", simulate=True, with_power=True):
            assert simulated.cpi > 0
            assert model.energy_joules > 0
            assert simulated.energy_joules > 0
            assert model.edp > 0
            assert simulated.edp > 0

    def test_validation_summary(self):
        summary = summarize([
            ValidationRow(name=model.workload, configuration=model.machine,
                          predicted_cpi=model.cpi, simulated_cpi=simulated.cpi)
            for model, simulated in _evaluate("sha", simulate=True)
        ])
        assert summary.count == 4
        assert 0 <= summary.average_absolute_error < 0.2
        assert summary.maximum_absolute_error < 0.3

    def test_edp_exploration(self):
        points = _evaluate("gsm_c", simulate=True, with_power=True)
        best_model, best_model_simulated = min(points, key=lambda p: p[0].edp)
        best_simulated = min((s for _, s in points), key=lambda s: s.edp)
        assert best_model.machine in {m.machine for m, _ in points}
        assert best_simulated.edp <= min(s.edp for _, s in points) * 1.0001
        assert best_model_simulated.edp >= best_simulated.edp

    def test_profiles_are_cached_in_the_session(self):
        # Unplanned: one backend call, hence one miss profile, per point.
        session = Session()
        _evaluate("sha", session=session, plan=False)
        built = session.stats.miss_profiles_built
        assert built >= len(TINY_MACHINES)
        _evaluate("sha", session=session, plan=False)
        # The second sweep is answered entirely from the session memo.
        assert session.stats.miss_profiles_built == built

    def test_same_name_configs_do_not_collide(self):
        # Two distinct configurations sharing a name (here: empty) must get
        # distinct miss profiles — the session memo is keyed on the frozen
        # config itself.
        small = MachineConfig(l2_size=128 * 1024)
        big = MachineConfig(l2_size=1024 * 1024)
        assert small.name == big.name == ""
        session = Session()
        results = evaluate_many(
            SweepRequest.make(["sha"], machines=[small, big]).expand(),
            session=session, plan=False,
        )
        assert len(results) == 2
        workload = session.workload("sha")
        small_profile = session.miss_profile(workload, small)
        big_profile = session.miss_profile(workload, big)
        assert session.stats.miss_profiles_built == 2
        assert small_profile.machine.l2_size != big_profile.machine.l2_size
