"""Tests for the statistical (synthetic) trace generator."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.model import InOrderMechanisticModel
from repro.isa.opcodes import OpClass
from repro.machine import MachineConfig
from repro.pipeline.inorder import InOrderPipeline
from repro.profiler import collect_dependencies, profile_program
from repro.workloads.synthetic import (
    SyntheticTraceGenerator,
    SyntheticWorkloadSpec,
    generate_synthetic_trace,
)


class TestSpecValidation:
    def test_defaults_are_valid(self):
        spec = SyntheticWorkloadSpec()
        assert spec.instructions > 0

    def test_fractions_must_not_exceed_one(self):
        with pytest.raises(ValueError):
            SyntheticWorkloadSpec(load_fraction=0.6, store_fraction=0.5)

    def test_rates_must_be_probabilities(self):
        with pytest.raises(ValueError):
            SyntheticWorkloadSpec(branch_taken_rate=1.5)
        with pytest.raises(ValueError):
            SyntheticWorkloadSpec(streaming_fraction=-0.1)

    def test_structural_parameters_validated(self):
        with pytest.raises(ValueError):
            SyntheticWorkloadSpec(instructions=0)
        with pytest.raises(ValueError):
            SyntheticWorkloadSpec(static_code_size=0)
        with pytest.raises(ValueError):
            SyntheticWorkloadSpec(data_footprint_bytes=0)
        with pytest.raises(ValueError):
            SyntheticWorkloadSpec(dependency_distances={})
        with pytest.raises(ValueError):
            SyntheticWorkloadSpec(dependency_distances={0: 1.0})


class TestDependencyDistanceValidation:
    """The distance draw trusts the spec: bad weights or distances that the
    register rotation cannot represent are rejected up front."""

    def test_longest_exact_distance_accepted(self):
        SyntheticWorkloadSpec(dependency_distances={30: 1.0})

    def test_distance_must_fit_the_register_rotation(self):
        # 31 registers rotate, so distance 40 would alias distance 9.
        with pytest.raises(ValueError, match="integers in"):
            SyntheticWorkloadSpec(dependency_distances={1: 0.5, 40: 0.5})

    def test_distance_must_be_an_integer(self):
        with pytest.raises(ValueError, match="integers in"):
            SyntheticWorkloadSpec(dependency_distances={1.5: 1.0})

    def test_weights_must_be_non_negative(self):
        with pytest.raises(ValueError, match="non-negative"):
            SyntheticWorkloadSpec(dependency_distances={1: 1.0, 2: -0.5})

    def test_weights_must_be_finite(self):
        with pytest.raises(ValueError, match="finite"):
            SyntheticWorkloadSpec(dependency_distances={1: float("inf")})

    def test_weights_must_have_a_positive_sum(self):
        with pytest.raises(ValueError, match="positive sum"):
            SyntheticWorkloadSpec(dependency_distances={1: 0.0, 2: 0.0})


class TestGeneratedTraces:
    def test_length_and_name(self):
        trace = generate_synthetic_trace(SyntheticWorkloadSpec(name="x", instructions=5000))
        assert len(trace) == 5000
        assert trace.name == "x"

    def test_deterministic_for_same_seed(self):
        spec = SyntheticWorkloadSpec(instructions=3000, seed=7)
        first = generate_synthetic_trace(spec)
        second = generate_synthetic_trace(spec)
        assert [d.pc for d in first] == [d.pc for d in second]
        assert [d.mem_addr for d in first] == [d.mem_addr for d in second]

    def test_different_seed_differs(self):
        first = generate_synthetic_trace(SyntheticWorkloadSpec(instructions=3000, seed=1))
        second = generate_synthetic_trace(SyntheticWorkloadSpec(instructions=3000, seed=2))
        assert [d.mem_addr for d in first] != [d.mem_addr for d in second]

    def test_instruction_mix_matches_spec(self):
        spec = SyntheticWorkloadSpec(
            instructions=30_000,
            load_fraction=0.25,
            store_fraction=0.10,
            multiply_fraction=0.05,
            branch_fraction=0.15,
        )
        mix = generate_synthetic_trace(spec).instruction_mix()
        total = sum(mix.values())
        assert mix[OpClass.LOAD] / total == pytest.approx(0.25, abs=0.02)
        assert mix[OpClass.STORE] / total == pytest.approx(0.10, abs=0.02)
        assert mix[OpClass.INT_MUL] / total == pytest.approx(0.05, abs=0.01)
        assert mix[OpClass.BRANCH] / total == pytest.approx(0.15, abs=0.02)

    def test_dependency_distances_match_spec(self):
        spec = SyntheticWorkloadSpec(
            instructions=20_000,
            dependency_distances={1: 0.5, 4: 0.5},
            branch_fraction=0.0,
            load_fraction=0.0,
            store_fraction=0.0,
            multiply_fraction=0.0,
            divide_fraction=0.0,
        )
        deps = collect_dependencies(generate_synthetic_trace(spec))
        total = deps.total()
        assert deps.count("unit", 1) / total == pytest.approx(0.5, abs=0.03)
        assert deps.count("unit", 4) / total == pytest.approx(0.5, abs=0.03)

    def test_memory_footprint_respected(self):
        spec = SyntheticWorkloadSpec(instructions=10_000, data_footprint_bytes=4096)
        trace = generate_synthetic_trace(spec)
        addresses = [d.mem_addr for d in trace if d.mem_addr is not None]
        assert addresses
        assert max(addresses) < 0x100000 + 4096
        assert min(addresses) >= 0x100000

    def test_static_code_footprint_respected(self):
        spec = SyntheticWorkloadSpec(instructions=10_000, static_code_size=512)
        trace = generate_synthetic_trace(spec)
        assert max(d.pc for d in trace) < 512 * 4

    def test_branch_taken_rate(self):
        spec = SyntheticWorkloadSpec(instructions=20_000, branch_fraction=0.2,
                                     branch_taken_rate=0.8)
        trace = generate_synthetic_trace(spec)
        branches = [d for d in trace if d.is_branch]
        taken = sum(1 for d in branches if d.taken)
        assert taken / len(branches) == pytest.approx(0.8, abs=0.08)


class TestModelOnSyntheticTraces:
    @pytest.mark.parametrize("width", [1, 2, 4])
    def test_model_tracks_simulator_on_synthetic_traces(self, width):
        machine = MachineConfig(width=width, name=f"synthetic-w{width}")
        trace = generate_synthetic_trace(SyntheticWorkloadSpec(instructions=12_000))
        model = InOrderMechanisticModel(machine).predict_trace(trace)
        simulated = InOrderPipeline(machine).run(trace)
        error = abs(model.cpi - simulated.cpi) / simulated.cpi
        assert error < 0.20

    def test_more_dependencies_means_higher_cpi(self):
        machine = MachineConfig(name="dep-study")
        tight = SyntheticWorkloadSpec(
            instructions=10_000, dependency_distances={1: 1.0}, seed=3
        )
        loose = SyntheticWorkloadSpec(
            instructions=10_000, dependency_distances={16: 1.0}, seed=3
        )
        tight_cpi = InOrderMechanisticModel(machine).predict_trace(
            generate_synthetic_trace(tight)
        ).cpi
        loose_cpi = InOrderMechanisticModel(machine).predict_trace(
            generate_synthetic_trace(loose)
        ).cpi
        assert tight_cpi > loose_cpi

    def test_divides_raise_cpi(self):
        machine = MachineConfig(name="div-study")
        with_div = SyntheticWorkloadSpec(instructions=10_000, divide_fraction=0.05, seed=4)
        without_div = SyntheticWorkloadSpec(instructions=10_000, divide_fraction=0.0, seed=4)
        cpi_with = InOrderMechanisticModel(machine).predict_trace(
            generate_synthetic_trace(with_div)
        ).cpi
        cpi_without = InOrderMechanisticModel(machine).predict_trace(
            generate_synthetic_trace(without_div)
        ).cpi
        assert cpi_with > cpi_without

    @given(
        load_fraction=st.floats(min_value=0.0, max_value=0.3),
        branch_fraction=st.floats(min_value=0.0, max_value=0.25),
        width=st.sampled_from([1, 2, 4]),
    )
    @settings(max_examples=10, deadline=None)
    def test_cpi_never_below_ideal(self, load_fraction, branch_fraction, width):
        """Property: model CPI >= 1/W for any synthetic workload."""
        spec = SyntheticWorkloadSpec(
            instructions=3_000,
            load_fraction=load_fraction,
            branch_fraction=branch_fraction,
        )
        machine = MachineConfig(width=width, name=f"prop-w{width}")
        trace = SyntheticTraceGenerator(spec).generate()
        model = InOrderMechanisticModel(machine).predict_trace(trace)
        assert model.cpi >= 1.0 / width
        simulated = InOrderPipeline(machine).run(trace)
        assert simulated.cpi >= 1.0 / width

    def test_profile_roundtrip(self):
        trace = generate_synthetic_trace(SyntheticWorkloadSpec(instructions=8_000))
        profile = profile_program(trace)
        assert profile.instructions == 8_000
        assert profile.dependencies.total() > 0
