"""Tests for the simulation infrastructure (results, metrics, engine, runner)."""

import dataclasses
import json

import pytest

from repro.nn import available_networks
from repro.sim.batched import simulate_jobs_batched
from repro.sim.engine import CycleEngine
from repro.sim.jobs.spec import (
    ACCELERATOR_KINDS,
    AcceleratorSpec,
    NetworkSpec,
    SimJob,
)
from repro.sim.metrics import efficiency_ratio, geomean, harmonic_mean, speedup
from repro.sim.results import (
    LayerResult,
    NetworkResult,
    combine_layer_results,
    compare,
)
from repro.sim.runner import AcceleratorRunner, LayerSelection, run_network


def make_layer(name="l0", kind="conv", cycles=100.0, energy=50.0, macs=1000):
    return LayerResult(layer_name=name, layer_kind=kind, cycles=cycles,
                       energy_pj=energy, macs=macs)


class TestLayerResult:
    def test_defaults_fill_compute_cycles(self):
        layer = make_layer(cycles=123.0)
        assert layer.compute_cycles == 123.0
        assert layer.memory_cycles == 0.0

    def test_traffic_total(self):
        layer = LayerResult("l", "fc", 10, weight_bits_read=100,
                            activation_bits_read=20, activation_bits_written=5)
        assert layer.total_traffic_bits == 125

    def test_kind_flags(self):
        assert make_layer(kind="conv").is_conv
        assert make_layer(kind="fc").is_fc

    def test_invalid_kind(self):
        with pytest.raises(ValueError):
            LayerResult("l", "pool", 10)

    def test_negative_cycles_rejected(self):
        with pytest.raises(ValueError):
            LayerResult("l", "conv", -1)

    @pytest.mark.parametrize("network", available_networks())
    def test_to_dict_matches_asdict_for_every_design(self, network):
        jobs = [SimJob(NetworkSpec(network), AcceleratorSpec.create(kind))
                for kind in sorted(ACCELERATOR_KINDS)]
        names = [f.name for f in dataclasses.fields(LayerResult)]
        for result in simulate_jobs_batched(jobs):
            for layer in result.layers:
                encoded = layer.to_dict()
                # Every field, in declaration order: a future field cannot
                # be dropped silently.
                assert list(encoded) == names
                assert encoded == dataclasses.asdict(layer)
                assert json.dumps(encoded) \
                    == json.dumps(dataclasses.asdict(layer))
                assert encoded["extra"] is not layer.extra


class TestNetworkResult:
    def build(self):
        result = NetworkResult(network="net", accelerator="acc", clock_ghz=1.0)
        result.add(make_layer("c1", "conv", cycles=100, energy=10, macs=1000))
        result.add(make_layer("c2", "conv", cycles=300, energy=30, macs=3000))
        result.add(make_layer("f1", "fc", cycles=600, energy=60, macs=6000))
        return result

    def test_totals_by_kind(self):
        result = self.build()
        assert result.total_cycles("conv") == 400
        assert result.total_cycles("fc") == 600
        assert result.total_cycles() == 1000
        assert result.total_energy_pj() == 100
        assert result.total_macs("conv") == 4000

    def test_execution_time_and_fps(self):
        result = self.build()
        assert result.execution_time_s() == pytest.approx(1000 / 1e9)
        assert result.frames_per_second() == pytest.approx(1e6)

    def test_layer_lookup(self):
        result = self.build()
        assert result.layer("c2").cycles == 300
        with pytest.raises(KeyError):
            result.layer("missing")

    def test_average_utilization_weighted_by_cycles(self):
        result = NetworkResult("n", "a")
        result.add(LayerResult("a", "conv", 100, utilization=1.0))
        result.add(LayerResult("b", "conv", 300, utilization=0.5))
        assert result.average_utilization() == pytest.approx(0.625)

    def test_select_all(self):
        assert len(self.build().select(None)) == 3


class TestCompare:
    def test_speedup_and_efficiency(self):
        base = NetworkResult("n", "dpnn")
        base.add(make_layer(cycles=1000, energy=100))
        fast = NetworkResult("n", "loom")
        fast.add(make_layer(cycles=250, energy=50))
        comp = compare(fast, base)
        assert comp.speedup == 4.0
        assert comp.energy_efficiency == 2.0
        assert comp.design == "loom" and comp.baseline == "dpnn"

    def test_mismatched_networks_rejected(self):
        a = NetworkResult("n1", "x")
        b = NetworkResult("n2", "y")
        with pytest.raises(ValueError):
            compare(a, b)

    def test_combine_layer_results(self):
        merged = combine_layer_results("merged", [
            make_layer("a", cycles=10, energy=1, macs=5),
            make_layer("b", cycles=30, energy=3, macs=15),
        ])
        assert merged.cycles == 40
        assert merged.energy_pj == 4
        assert merged.macs == 20

    def test_combine_empty_rejected(self):
        with pytest.raises(ValueError):
            combine_layer_results("x", [])


class TestMetrics:
    def test_geomean(self):
        assert geomean([2, 8]) == pytest.approx(4.0)
        assert geomean([3.0]) == pytest.approx(3.0)

    def test_geomean_validation(self):
        with pytest.raises(ValueError):
            geomean([])
        with pytest.raises(ValueError):
            geomean([1.0, 0.0])

    def test_harmonic_mean(self):
        assert harmonic_mean([1, 1]) == pytest.approx(1.0)
        assert harmonic_mean([2, 6]) == pytest.approx(3.0)
        with pytest.raises(ValueError):
            harmonic_mean([])

    def test_speedup_and_efficiency_helpers(self):
        assert speedup(100, 25) == 4.0
        assert efficiency_ratio(10, 5) == 2.0
        with pytest.raises(ValueError):
            speedup(10, 0)
        with pytest.raises(ValueError):
            efficiency_ratio(10, 0)


class TestCycleEngine:
    def test_events_run_in_cycle_order(self):
        engine = CycleEngine()
        order = []
        engine.schedule(5, lambda: order.append("late"))
        engine.schedule(1, lambda: order.append("early"))
        last = engine.run()
        assert order == ["early", "late"]
        assert last == 5
        assert engine.events_processed == 2

    def test_same_cycle_fifo(self):
        engine = CycleEngine()
        order = []
        engine.schedule(3, lambda: order.append(1))
        engine.schedule(3, lambda: order.append(2))
        engine.run()
        assert order == [1, 2]

    def test_chained_scheduling(self):
        engine = CycleEngine()
        ticks = []

        def tick(n):
            ticks.append(engine.now)
            if n > 0:
                engine.schedule(2, lambda: tick(n - 1))

        engine.schedule(0, lambda: tick(3))
        last = engine.run()
        assert ticks == [0, 2, 4, 6]
        assert last == 6

    def test_schedule_at_and_past_rejected(self):
        engine = CycleEngine()
        engine.schedule_at(4, lambda: None)
        assert engine.run() == 4
        with pytest.raises(ValueError):
            engine.schedule_at(1, lambda: None)

    def test_negative_delay_rejected(self):
        with pytest.raises(ValueError):
            CycleEngine().schedule(-1, lambda: None)

    def test_max_cycles_pauses(self):
        engine = CycleEngine()
        engine.schedule(10, lambda: None)
        engine.schedule(100, lambda: None)
        engine.run(max_cycles=50)
        assert engine.last_active_cycle == 10
        assert engine.pending == 1
        engine.run()
        assert engine.last_active_cycle == 100


class TestRunner:
    def test_run_network_produces_one_result_per_compute_layer(
            self, alexnet_100, dpnn_default):
        result = run_network(dpnn_default, alexnet_100)
        assert len(result.layers) == 8  # 5 conv + 3 fc
        assert result.network == "alexnet"
        assert result.accelerator == "DPNN"

    def test_runner_batches_designs(self, alexnet_100, dpnn_default, loom_1b):
        runner = AcceleratorRunner(designs={"dpnn": dpnn_default,
                                            "loom-1b": loom_1b})
        results = runner.run([alexnet_100])
        assert set(results["alexnet"]) == {"dpnn", "loom-1b"}
        comparisons = runner.compare_all(results, kind=LayerSelection.CONV)
        assert "loom-1b" in comparisons["alexnet"]
        assert "dpnn" not in comparisons["alexnet"]
        assert comparisons["alexnet"]["loom-1b"].speedup > 1.0

    def test_duplicate_design_label_rejected(self, dpnn_default):
        runner = AcceleratorRunner(designs={"dpnn": dpnn_default})
        with pytest.raises(ValueError):
            runner.add_design("dpnn", dpnn_default)

    def test_missing_baseline_rejected(self, alexnet_100, loom_1b):
        runner = AcceleratorRunner(designs={"loom": loom_1b}, baseline="dpnn")
        results = runner.run([alexnet_100])
        with pytest.raises(ValueError):
            runner.compare_all(results)
