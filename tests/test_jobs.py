"""Tests for the declarative simulation-job pipeline (repro.sim.jobs).

Covers content-key determinism and invalidation, cache hit/miss semantics,
corrupted persistent entries being ignored, and the ``loom-repro all`` guarantee
that every unique (network, accelerator, configuration) job is simulated
exactly once across all experiment harnesses.
"""

import json

import pytest

from repro.accelerators import AcceleratorConfig
from repro.core import Loom
from repro.experiments import ablation, area, figure4, figure5, table2, table4
from repro.experiments.common import build_profiled_network, loom_spec
from repro.memory.dram import LPDDR4_4267
from repro.quant.dynamic import DynamicPrecisionModel
from repro.serve.store import SQLiteResultStore
from repro.sim import run_network
from repro.sim.validate import compare_layer_results
from repro.sim.jobs import (
    AcceleratorSpec,
    JobExecutor,
    NetworkSpec,
    ResultCache,
    SimJob,
    build_accelerator,
    execute_job,
    job_key,
    network_layer_counts,
    spec_dict,
    spec_payload,
    use_executor,
)


def _disk_cache(tmp_path, **options):
    """A ResultCache over the SQLite store ``--cache-dir`` would install."""
    return ResultCache(backend=SQLiteResultStore(tmp_path / "results.db"),
                       **options)


def _job(network="alexnet", accuracy="100%", kind="loom", config=None, **options):
    return SimJob(
        network=NetworkSpec(network, accuracy),
        accelerator=AcceleratorSpec.create(kind, **options),
        config=config if config is not None else AcceleratorConfig(),
    )


class TestSpecsAndKeys:
    def test_same_spec_same_key(self):
        assert job_key(_job(bits_per_cycle=1)) == job_key(_job(bits_per_cycle=1))

    def test_network_changes_key(self):
        assert job_key(_job("alexnet")) != job_key(_job("nin"))

    def test_accuracy_changes_key(self):
        assert job_key(_job(accuracy="100%")) != job_key(_job(accuracy="99%"))

    def test_accelerator_option_changes_key(self):
        assert job_key(_job(bits_per_cycle=1)) != job_key(_job(bits_per_cycle=2))

    def test_config_knob_changes_key(self):
        base = _job(config=AcceleratorConfig())
        for changed in (
            AcceleratorConfig(equivalent_macs=256),
            AcceleratorConfig(clock_ghz=0.5),
            AcceleratorConfig(am_capacity_bytes=512 * 1024),
            AcceleratorConfig(dram=LPDDR4_4267),
            AcceleratorConfig(charge_offchip_energy=False),
        ):
            assert job_key(base) != job_key(
                _job(config=changed)), f"key ignored {changed}"

    def test_default_valued_options_are_normalised_away(self):
        # Loom(use_cascading=True) IS the default design; the specs (and
        # hence the cache keys) must coincide.
        assert loom_spec(use_cascading=True) == loom_spec()
        assert loom_spec(use_cascading=False) != loom_spec()

    def test_dpnn_key_ignores_precision_profile(self):
        # Bit-parallel designs do not exploit precision, so the same design
        # simulated under any profile shares one cache entry.
        k100 = job_key(_job(kind="dpnn", accuracy="100%"))
        k99 = job_key(_job(kind="dpnn", accuracy="99%"))
        assert k100 == k99
        assert job_key(_job(kind="stripes", accuracy="100%")) != \
            job_key(_job(kind="stripes", accuracy="99%"))

    def test_dynamic_precision_model_canonicalises(self):
        enabled = loom_spec(dynamic_precision=DynamicPrecisionModel(enabled=True))
        disabled = loom_spec(dynamic_precision=DynamicPrecisionModel(enabled=False))
        assert enabled != disabled
        assert job_key(_job(dynamic_precision=DynamicPrecisionModel(enabled=False))) \
            == job_key(_job(dynamic_precision=DynamicPrecisionModel(enabled=False)))

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown accelerator kind"):
            AcceleratorSpec.create("tpu")

    def test_nested_option_values_stay_hashable(self):
        # Lists and nested mappings must canonicalise to hashable tuples so
        # the spec can key the lru caches.
        spec = AcceleratorSpec.create(
            "loom", future_knob={"weights": [1, 2], "nested": {"a": True}})
        assert hash(spec) is not None
        assert spec == AcceleratorSpec.create(
            "loom", future_knob={"nested": {"a": True}, "weights": (1, 2)})

    def test_spec_dict_is_json_serialisable(self):
        payload = spec_dict(_job(config=AcceleratorConfig(dram=LPDDR4_4267)))
        round_trip = json.loads(json.dumps(payload, sort_keys=True))
        assert round_trip["network"]["name"] == "alexnet"
        assert round_trip["config"]["dram"]["name"] == "LPDDR4-4267"

    def test_network_layer_counts(self):
        assert network_layer_counts("nin") == (12, 0)
        assert network_layer_counts("googlenet") == (57, 1)


class TestExecution:
    def test_execute_job_matches_run_network(self):
        job = _job(bits_per_cycle=2)
        via_jobs = execute_job(job)
        legacy = run_network(Loom(bits_per_cycle=2),
                             build_profiled_network("alexnet", "100%"))
        assert [lr.cycles for lr in via_jobs.layers] == \
            [lr.cycles for lr in legacy.layers]
        assert via_jobs.total_energy_pj() == legacy.total_energy_pj()

    def test_results_ordered_like_submissions(self):
        jobs = [_job(kind="dpnn"), _job(bits_per_cycle=1), _job(kind="stripes")]
        results = JobExecutor().run(jobs)
        assert [r.accelerator for r in results] == ["DPNN", "Loom-1b", "Stripes"]

    def test_cache_hit_and_miss_semantics(self):
        executor = JobExecutor()
        job = _job()
        first = executor.run([job])[0]
        assert executor.stats.executed == 1
        assert executor.cache.stats.misses == 1
        second = executor.run([job])[0]
        # Answered from the in-memory cache, which holds the result's text:
        # the hit decodes a fresh object, field-for-field equal to the first.
        assert executor.stats.executed == 1
        assert executor.cache.stats.memory_hits == 1
        assert compare_layer_results(second.layers, first.layers) == []
        assert (second.network, second.accelerator, second.clock_ghz) \
            == (first.network, first.accelerator, first.clock_ghz)

    def test_batch_duplicates_deduplicated(self):
        executor = JobExecutor()
        results = executor.run([_job(), _job(), _job()])
        assert executor.stats.executed == 1
        assert executor.stats.dedup_hits == 2
        assert results[0] is results[1] is results[2]

    def test_no_cache_executes_every_submission(self):
        executor = JobExecutor(cache=None)
        executor.run([_job(), _job()])
        assert executor.stats.executed == 2

    def test_progress_events(self):
        events = []
        executor = JobExecutor(progress=events.append)
        executor.run([_job(), _job()])
        assert [e.status for e in events] == ["executed", "deduplicated"]
        executor.run([_job()])
        assert events[-1].status == "cached"

    def test_no_cache_progress_reports_every_execution(self):
        # Without a cache nothing is shared, so no event may claim it was.
        events = []
        executor = JobExecutor(cache=None, progress=events.append)
        executor.run([_job(), _job()])
        assert [e.status for e in events] == ["executed", "executed"]

    def test_progress_streams_during_execution(self):
        # Events must fire as jobs resolve, not after the whole batch.
        seen_during = []
        executor = JobExecutor()
        executor.progress = lambda event: seen_during.append(
            (event.status, executor.stats.executed))
        executor.run([_job(kind="dpnn"), _job(kind="stripes")])
        # Each "executed" event arrived while later jobs were still pending:
        # at the first event only one execution had been recorded.
        assert seen_during[0] == ("executed", 1)
        assert seen_during[1] == ("executed", 2)


class TestDiskCache:
    def test_results_survive_to_disk(self, tmp_path):
        job = _job()
        with JobExecutor(cache=_disk_cache(tmp_path)) as first:
            expected = first.run([job])[0]
        fresh = JobExecutor(cache=_disk_cache(tmp_path))
        result = fresh.run([job])[0]
        assert fresh.stats.executed == 0
        assert fresh.cache.stats.disk_hits == 1
        assert result.to_dict() == expected.to_dict()

    @staticmethod
    def _damage(tmp_path, job, column, value):
        import sqlite3

        conn = sqlite3.connect(str(tmp_path / "results.db"))
        with conn:
            conn.execute(f"UPDATE results SET {column} = ? WHERE key = ?",
                         (value, job_key(job)))
        conn.close()

    def test_corrupted_entry_ignored_not_fatal(self, tmp_path):
        job = _job()
        JobExecutor(cache=_disk_cache(tmp_path)).run([job])
        self._damage(tmp_path, job, "result", "{not json at all")
        fresh = JobExecutor(cache=_disk_cache(tmp_path))
        result = fresh.run([job])[0]
        assert fresh.cache.stats.invalid_disk_entries == 1
        assert fresh.stats.executed == 1  # recomputed
        assert result.total_cycles() > 0
        # The bad entry was overwritten with a good one.
        assert _disk_cache(tmp_path).get(job_key(job)) is not None

    def test_truncated_and_mismatched_entries_ignored(self, tmp_path):
        job = _job()
        JobExecutor(cache=_disk_cache(tmp_path)).run([job])
        self._damage(tmp_path, job, "format", 99)
        fresh = _disk_cache(tmp_path)
        assert fresh.get(job_key(job)) is None
        assert fresh.stats.invalid_disk_entries == 1


class TestMemoryBound:
    """The optional LRU bound on the in-memory result dict (long-running
    processes must not grow without limit)."""

    @staticmethod
    def _fake_result(tag):
        from repro.sim.results import LayerResult, NetworkResult
        result = NetworkResult(network=tag, accelerator="AccX")
        result.add(LayerResult(layer_name="l", layer_kind="conv", cycles=1.0))
        return result

    def test_default_is_unbounded(self):
        cache = ResultCache()
        for index in range(100):
            cache.put(f"key{index}", self._fake_result(f"net{index}"))
        assert len(cache) == 100
        assert cache.stats.evictions == 0

    def test_lru_bound_evicts_least_recently_used(self):
        cache = ResultCache(max_memory_entries=3)
        for index in range(3):
            cache.put(f"key{index}", self._fake_result(f"net{index}"))
        assert cache.get("key0") is not None  # key1 is now the LRU entry
        cache.put("key3", self._fake_result("net3"))
        assert len(cache) == 3
        assert cache.stats.evictions == 1
        assert cache.get("key1") is None
        assert cache.get("key0") is not None

    def test_evictions_fall_back_to_the_backend(self, tmp_path):
        # A bounded memory layer over a persistent backend: evicted entries
        # remain loadable (they come back as disk hits, not misses).
        cache = _disk_cache(tmp_path, max_memory_entries=1)
        cache.put("key0", self._fake_result("net0"))
        cache.put("key1", self._fake_result("net1"))  # evicts key0 from memory
        assert cache.stats.evictions == 1
        revived = cache.get("key0")
        assert revived is not None
        assert revived.network == "net0"
        assert cache.stats.disk_hits == 1

    def test_bound_must_be_positive(self):
        with pytest.raises(ValueError, match="max_memory_entries"):
            ResultCache(max_memory_entries=0)

    def test_stats_to_dict_round_trips_every_counter(self):
        cache = ResultCache(max_memory_entries=1)
        cache.put("a", self._fake_result("a"))
        cache.put("b", self._fake_result("b"))
        cache.get("b")
        cache.get("missing")
        stats = cache.stats.to_dict()
        assert stats["stores"] == 2
        assert stats["evictions"] == 1
        assert stats["memory_hits"] == 1
        assert stats["misses"] == 1

    def test_threads_racing_one_cache_stay_consistent(self, tmp_path):
        # Two threads hammering the same key through one ResultCache (the
        # service's exact sharing pattern) must never corrupt an entry.
        import threading

        cache = _disk_cache(tmp_path, max_memory_entries=4)
        expected = self._fake_result("raced").to_dict()
        errors = []
        barrier = threading.Barrier(2)

        def worker():
            try:
                barrier.wait()
                for _ in range(50):
                    cache.put("raced", self._fake_result("raced"))
                    loaded = cache.get("raced")
                    if loaded is not None and loaded.to_dict() != expected:
                        errors.append("corrupt entry")
            except Exception as error:  # pragma: no cover
                errors.append(repr(error))

        threads = [threading.Thread(target=worker) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == []
        assert cache.get("raced").to_dict() == expected


class TestPipelineSharing:
    def test_all_experiments_simulate_each_unique_job_exactly_once(self):
        """The ``loom-repro all`` guarantee: one shared executor, no repeats.

        Runs every simulation-driven harness on one executor (as the CLI
        does) and asserts via the executor's statistics that no content key
        was ever simulated twice -- overlapping matrices (table2/figure4/
        area/table4's baseline) are answered from the shared cache instead.
        """
        executor = JobExecutor()
        table2.run(executor=executor)
        figure4.run(executor=executor)
        area.run(executor=executor)
        figure5.run(configs=(32, 128), executor=executor)
        table4.run(executor=executor)
        ablation.run(executor=executor)
        stats = executor.stats
        assert stats.executed > 0
        assert stats.max_executions_per_key == 1
        # Sharing must actually have happened across harnesses (area and the
        # table4 baseline are fully redundant, among others).
        assert stats.cache_hits > 0
        assert stats.executed < stats.submitted

    def test_use_executor_context_restores_previous_default(self):
        inner = JobExecutor()
        with use_executor(inner) as active:
            assert active is inner
            result = figure4.run(networks=("alexnet",))
            assert result.performance["alexnet"]
        assert inner.stats.executed > 0

    def test_build_accelerator_matches_direct_construction(self):
        loom = build_accelerator(loom_spec(bits_per_cycle=4),
                                 AcceleratorConfig(equivalent_macs=256))
        direct = Loom(AcceleratorConfig(equivalent_macs=256), bits_per_cycle=4)
        assert loom.name == direct.name
        assert loom.config == direct.config
        assert loom.core_area_mm2() == direct.core_area_mm2()


class TestModernLayerTypeCaching:
    """Content keys and on-disk round-trips for the modern layer types."""

    def test_groups_override_changes_key(self):
        base = SimJob(network=NetworkSpec("resnet18"),
                      accelerator=AcceleratorSpec.create("loom"))
        grouped = SimJob(network=NetworkSpec("resnet18", groups=4),
                         accelerator=AcceleratorSpec.create("loom"))
        assert job_key(base) != job_key(grouped)
        assert job_key(grouped) == job_key(SimJob(
            network=NetworkSpec("resnet18", groups=4),
            accelerator=AcceleratorSpec.create("loom"),
        ))

    def test_heads_override_changes_key(self):
        keys = {
            job_key(SimJob(network=NetworkSpec("tiny_transformer", heads=h),
                           accelerator=AcceleratorSpec.create("loom")))
            for h in (None, 2, 4, 8)
        }
        assert len(keys) == 4

    def test_overrides_appear_in_spec_dict(self):
        job = SimJob(network=NetworkSpec("tiny_transformer", heads=8),
                     accelerator=AcceleratorSpec.create("loom"))
        payload = json.loads(json.dumps(spec_dict(job)))
        assert payload["network"]["heads"] == 8
        # Absent overrides are omitted (not serialised as null) so content
        # keys of jobs that predate the override fields stay stable.
        assert "groups" not in payload["network"]
        plain = json.loads(json.dumps(spec_dict(_job("alexnet"))))
        assert "groups" not in plain["network"]
        assert "heads" not in plain["network"]

    def test_dpnn_normalisation_keeps_structural_overrides(self):
        # The DPNN key ignores precision profiles but must NOT collapse
        # different geometries (groups/heads change the simulated network).
        with_heads = SimJob(network=NetworkSpec("tiny_transformer", heads=8),
                            accelerator=AcceleratorSpec.create("dpnn"))
        without = SimJob(network=NetworkSpec("tiny_transformer"),
                         accelerator=AcceleratorSpec.create("dpnn"))
        assert job_key(with_heads) != job_key(without)

    @pytest.mark.parametrize("spec", [
        NetworkSpec("mobilenet_v1"),
        NetworkSpec("resnet18", groups=4),
        NetworkSpec("tiny_transformer", heads=8),
    ], ids=["depthwise", "grouped-residual", "attention"])
    def test_disk_round_trip_preserves_modern_results(self, tmp_path, spec):
        job = SimJob(network=spec, accelerator=AcceleratorSpec.create("loom"))
        with JobExecutor(cache=_disk_cache(tmp_path)) as warm:
            (original,) = warm.run([job])
        # A fresh executor over the same store must hit the disk and
        # reconstruct an identical result, including the matmul layer kind.
        with JobExecutor(cache=_disk_cache(tmp_path)) as cold:
            (reloaded,) = cold.run([job])
        assert cold.cache.stats.disk_hits == 1
        assert cold.stats.executed == 0
        assert reloaded.to_dict() == original.to_dict()
        kinds = {layer.layer_kind for layer in reloaded.layers}
        if spec.name == "tiny_transformer":
            assert "matmul" in kinds

    def test_matmul_kind_survives_json(self, tmp_path):
        job = SimJob(network=NetworkSpec("tiny_transformer"),
                     accelerator=AcceleratorSpec.create("loom"))
        result = execute_job(job)
        cache = _disk_cache(tmp_path)
        cache.put(job_key(job), result, spec=spec_payload(job))
        fresh = _disk_cache(tmp_path).get(job_key(job))
        assert fresh is not None
        assert [layer.layer_kind for layer in fresh.layers] == \
            [layer.layer_kind for layer in result.layers]
