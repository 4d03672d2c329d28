"""Differential validation of the closed-form vector engine.

The vector engine must be *bit-identical* to the per-layer reference ("event")
engine -- not approximately equal -- because experiment outputs, the result
cache and the Pareto frontiers all hash/compare the raw floats.  These tests
enforce that over the full (network x accelerator x precision-profile)
matrix, on DRAM-attached and scaled configurations, and on the edge cases
(networks with no compute layers, 1-wide tiles), plus the event-engine
anchor: analytical Loom schedules executed callback by callback.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.accelerators import AcceleratorConfig, DPNN
from repro.core import Loom
from repro.memory.dram import LPDDR4_4267
from repro.nn import Network, available_networks
from repro.nn.layers import Conv2D, FullyConnected, ReLU, TensorShape
from repro.sim import run_network
from repro.sim.batched import (
    ENGINES,
    build_layer_table,
    get_default_engine,
    set_default_engine,
    simulate_layer_table,
    supports_vector_engine,
    use_engine,
)
from repro.sim.jobs import AcceleratorSpec, NetworkSpec, SimJob
from repro.sim.jobs.spec import execute_job
from repro.sim.validate import (
    default_accelerator_matrix,
    validate_job,
    validate_tile_level,
    validate_zoo,
)

# Every stock design variant the experiments instantiate.
ACCELERATOR_SPECS = {
    "dpnn": AcceleratorSpec.create("dpnn"),
    "stripes": AcceleratorSpec.create("stripes"),
    "dstripes": AcceleratorSpec.create("dstripes"),
    "loom-1b": AcceleratorSpec.create("loom", bits_per_cycle=1),
    "loom-2b": AcceleratorSpec.create("loom", bits_per_cycle=2),
    "loom-4b": AcceleratorSpec.create("loom", bits_per_cycle=4),
    "loom-effw": AcceleratorSpec.create("loom",
                                        use_effective_weight_precision=True),
    "loom-nocascade": AcceleratorSpec.create("loom", use_cascading=False,
                                             replicate_filters=True),
}

PROFILES = [
    pytest.param("100%", False, id="100"),
    pytest.param("99%", False, id="99"),
    pytest.param("100%", True, id="effective-weights"),
]


def _assert_case_ok(case):
    details = "\n".join(m.describe() for m in case.mismatches[:10])
    assert case.ok, (
        f"vector engine diverges from the event-engine reference on "
        f"{case.network}/{case.accelerator}:\n{details}"
    )


class TestZooDifferential:
    """vector == event for every (network, accelerator, profile) combination."""

    @pytest.mark.parametrize("accelerator", sorted(ACCELERATOR_SPECS))
    @pytest.mark.parametrize("accuracy,effective", PROFILES)
    @pytest.mark.parametrize("network", available_networks())
    def test_cycle_exact(self, network, accuracy, effective, accelerator):
        job = SimJob(
            network=NetworkSpec(network, accuracy,
                                with_effective_weights=effective),
            accelerator=ACCELERATOR_SPECS[accelerator],
        )
        case = validate_job(job)
        assert case.layers_compared > 0
        _assert_case_ok(case)

    @pytest.mark.parametrize("equivalent_macs", [32, 256])
    def test_cycle_exact_with_dram_and_scaling(self, equivalent_macs):
        config = AcceleratorConfig(equivalent_macs=equivalent_macs,
                                   dram=LPDDR4_4267,
                                   charge_offchip_energy=False)
        report = validate_zoo(networks=["alexnet", "vgg19"],
                              accuracies=["100%"],
                              include_effective_weights=False,
                              config=config)
        assert report.layers_compared > 0
        assert report.ok, report.summary()

    def test_validator_catches_injected_drift(self, monkeypatch):
        """The harness must actually detect disagreement, not vacuously pass."""
        from repro.core import closed_form

        original = closed_form.loom_conv_cycles_array

        def off_by_one(*args, **kwargs):
            return original(*args, **kwargs) + 1.0

        monkeypatch.setattr(closed_form, "loom_conv_cycles_array", off_by_one)
        job = SimJob(network=NetworkSpec("alexnet"),
                     accelerator=ACCELERATOR_SPECS["loom-1b"])
        case = validate_job(job)
        assert not case.ok
        assert any(m.field in ("cycles", "compute_cycles")
                   for m in case.mismatches)


class TestEventEngineAnchor:
    """Analytical schedules match the event-driven tile simulation exactly."""

    def test_tile_level_checks_pass(self):
        checks = validate_tile_level()
        # conv + fc + matmul anchors for each of LM1b / LM2b / LM4b.
        assert len(checks) == 9
        for check in checks:
            assert check.ok, check.describe()


class TestEdgeCases:
    def test_no_compute_layers(self):
        network = Network("empty", TensorShape(3, 8, 8))
        network.add(ReLU(name="relu"))
        vector = run_network(Loom(), network, engine="vector")
        event = run_network(Loom(), network, engine="event")
        assert vector.layers == [] and event.layers == []
        assert vector.total_cycles() == event.total_cycles() == 0.0

    def test_one_wide_tiles(self):
        """1x1 input, 1 filter, 1 output: every chunk count degenerates to 1."""
        network = Network("onewide", TensorShape(1, 1, 1))
        network.add(Conv2D(name="conv", out_channels=1, kernel=1))
        network.add(FullyConnected(name="fc", out_features=1))
        config = AcceleratorConfig(equivalent_macs=16)
        for accelerator in (Loom(config), Loom(config, bits_per_cycle=4),
                            DPNN(config)):
            vector = run_network(accelerator, network, engine="vector")
            event = run_network(accelerator, network, engine="event")
            assert ([dataclasses.asdict(lr) for lr in vector.layers]
                    == [dataclasses.asdict(lr) for lr in event.layers])
            assert vector.layers[0].cycles >= 1.0

    def test_empty_layer_table(self):
        table = build_layer_table([])
        assert len(table) == 0
        assert simulate_layer_table(Loom(), table) == []

    def test_result_fields_are_plain_python_scalars(self, alexnet_100):
        result = run_network(Loom(), alexnet_100, engine="vector")
        layer = result.layers[0]
        assert type(layer.cycles) is float
        assert type(layer.energy_pj) is float
        assert type(layer.macs) is int
        assert type(layer.utilization) is float


class TestEngineSelection:
    def test_engines_tuple(self):
        assert ENGINES == ("vector", "event")
        assert get_default_engine() in ENGINES

    @pytest.mark.parametrize("retired", ["fast", "batched"])
    def test_retired_engine_names_rejected(self, retired):
        with pytest.raises(ValueError, match="available: vector/event"):
            set_default_engine(retired)

    def test_set_and_restore(self):
        previous = set_default_engine("event")
        try:
            assert get_default_engine() == "event"
        finally:
            set_default_engine(previous)

    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError, match="unknown engine"):
            set_default_engine("warp")

    def test_use_engine_context(self):
        before = get_default_engine()
        with use_engine("event"):
            assert get_default_engine() == "event"
        assert get_default_engine() == before

    def test_run_network_rejects_unknown_engine(self, alexnet_100, loom_1b):
        with pytest.raises(ValueError, match="unknown engine"):
            run_network(loom_1b, alexnet_100, engine="warp")

    def test_execute_job_rejects_unknown_engine(self):
        job = SimJob(network=NetworkSpec("nin"),
                     accelerator=ACCELERATOR_SPECS["dpnn"])
        with pytest.raises(ValueError, match="unknown engine"):
            execute_job(job, engine="warp")

    def test_custom_subclass_falls_back_to_reference(self, tiny_network):
        class TunedLoom(Loom):
            def compute_cycles(self, layer):
                return super().compute_cycles(layer) * 2.0

        tuned = TunedLoom()
        assert not supports_vector_engine(tuned)
        # The vector engine must not silently mis-simulate the subclass: the
        # fallback runs the overridden hooks.
        vector_mode = run_network(tuned, tiny_network, engine="vector")
        reference = run_network(tuned, tiny_network, engine="event")
        assert vector_mode.total_cycles() == reference.total_cycles()
        assert vector_mode.total_cycles() > \
            run_network(Loom(), tiny_network).total_cycles()
        with pytest.raises(TypeError, match="no vector kernel"):
            simulate_layer_table(tuned, build_layer_table(
                tiny_network.compute_layers()))

    def test_stock_designs_supported(self, dpnn_default, loom_1b,
                                     stripes_default, dstripes_default):
        for accelerator in (dpnn_default, loom_1b, stripes_default,
                            dstripes_default):
            assert supports_vector_engine(accelerator)


class TestDefaultMatrix:
    def test_matrix_covers_all_kinds(self):
        kinds = {spec.kind for spec in default_accelerator_matrix()}
        assert kinds == {"dpnn", "stripes", "dstripes", "loom"}


class TestValidateReporting:
    def test_report_summary_verbose_lists_cases(self):
        report = validate_zoo(networks=["nin"], accuracies=["100%"],
                              include_effective_weights=False,
                              accelerators=[AcceleratorSpec.create("dpnn")])
        text = report.summary(verbose=True)
        assert "nin" in text and "cycle-exact" in text
        assert not report.failures()

    def test_report_summary_shows_mismatches(self, monkeypatch):
        from repro.core import closed_form

        original = closed_form.dpnn_conv_cycles_array
        monkeypatch.setattr(closed_form, "dpnn_conv_cycles_array",
                            lambda *a, **k: original(*a, **k) + 1.0)
        report = validate_zoo(networks=["nin"], accuracies=["100%"],
                              include_effective_weights=False,
                              accelerators=[AcceleratorSpec.create("dpnn")])
        assert not report.ok
        text = report.summary()
        assert "ENGINES DISAGREE" in text and "MISMATCH" in text

    def test_cli_validate_quick(self, capsys):
        from repro.cli import main

        assert main(["validate", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "cycle-exact" in out and "event-engine anchor" in out

    def test_cli_engine_flag_round_trip(self, capsys):
        from repro.cli import main

        default_engine = get_default_engine()
        try:
            assert main(["--engine", "event", "networks"]) == 0
            assert main(["--engine", "vector", "networks"]) == 0
        finally:
            set_default_engine(default_engine)


class TestScheduleDelayCoercion:
    """Regression: CycleEngine.schedule silently accepted non-int delays."""

    def test_integral_float_is_coerced(self):
        from repro.sim import CycleEngine

        engine = CycleEngine()
        event = engine.schedule(3.0, lambda: None)
        assert event.cycle == 3 and type(event.cycle) is int
        assert engine.run() == 3

    def test_fractional_float_rejected(self):
        from repro.sim import CycleEngine

        engine = CycleEngine()
        with pytest.raises(ValueError, match="whole number of cycles"):
            engine.schedule(1.5, lambda: None)

    def test_numpy_scalars_accepted(self):
        from repro.sim import CycleEngine

        engine = CycleEngine()
        assert engine.schedule(np.int64(2), lambda: None).cycle == 2
        assert engine.schedule(np.float64(4.0), lambda: None).cycle == 4
        with pytest.raises(ValueError):
            engine.schedule(np.float64(2.5), lambda: None)

    def test_non_numeric_rejected(self):
        from repro.sim import CycleEngine

        engine = CycleEngine()
        with pytest.raises(TypeError, match="integer cycle count"):
            engine.schedule("3", lambda: None)

    def test_negative_still_rejected(self):
        from repro.sim import CycleEngine

        engine = CycleEngine()
        with pytest.raises(ValueError, match=">= 0"):
            engine.schedule(-1.0, lambda: None)

    def test_schedule_at_accepts_integral_float(self):
        from repro.sim import CycleEngine

        engine = CycleEngine()
        event = engine.schedule_at(5.0, lambda: None)
        assert event.cycle == 5
