"""Tests for the design-space exploration subsystem (repro.explore)."""

import json
import random
import zlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.accelerators import AcceleratorConfig
from repro.experiments import figure5
from repro.experiments.common import design_label, loom_spec
from repro.explore import (
    STRATEGIES,
    Axis,
    Constraint,
    CoordinateDescentSearch,
    EvaluatedPoint,
    GridSearch,
    PointEvaluator,
    RandomSearch,
    SearchStrategy,
    SweepSpec,
    am_fits_working_set,
    canonical_point,
    dominance_ranks,
    encode_parameter,
    explore,
    drive_search,
    job_to_point,
    point_to_job,
    frontier_table,
    pareto_frontier,
    parse_accelerator,
    parse_strategy_options,
    parse_value,
    register_strategy,
    resolve_objectives,
    resolve_strategy,
    scalar_score,
    strategy_from_request,
    sweep_markdown,
    sweep_table,
    sweep_to_csv,
)
from repro.memory.dram import LPDDR4_4267
from repro.sim import geomean
from repro.sim.jobs import AcceleratorSpec, JobExecutor, NetworkSpec, SimJob, job_key
from repro.sim.results import compare


def small_space(**overrides):
    kwargs = dict(
        axes=[
            Axis("equivalent_macs", (32, 64)),
            Axis("accelerator", ("loom", "dstripes")),
        ],
        base={"network": "alexnet"},
    )
    kwargs.update(overrides)
    return SweepSpec(**kwargs)


class TestSpaceExpansion:
    def test_product_order_last_axis_fastest(self):
        points = small_space().points()
        coords = [(p["equivalent_macs"], p["accelerator"].kind) for p in points]
        assert coords == [(32, "loom"), (32, "dstripes"),
                          (64, "loom"), (64, "dstripes")]

    def test_expansion_is_deterministic(self):
        space = small_space()
        first, second = space.points(), space.points()
        assert first == second
        assert [job_key(j) for j in space.jobs()] \
            == [job_key(j) for j in space.jobs()]

    def test_base_values_reach_every_job(self):
        space = small_space(base={"network": "nin", "accuracy": "99%",
                                  "dram": "lpddr4-4267"})
        for job in space.jobs():
            assert job.network == NetworkSpec("nin", "99%")
            assert job.config.dram == LPDDR4_4267

    def test_unique_jobs_collapse_profile_insensitive_baseline(self):
        # DPNN ignores precision profiles entirely, so sweeping it across
        # profiles yields one unique simulation for two points.
        space = SweepSpec(
            axes=[Axis("accuracy", ("100%", "99%"))],
            base={"network": "alexnet", "accelerator": "dpnn"},
        )
        assert len(space.points()) == 2
        assert len(space.unique_jobs()) == 1

    def test_unknown_parameter_rejected(self):
        with pytest.raises(ValueError, match="unknown sweep parameter"):
            SweepSpec(axes=[Axis("frequency", (1, 2))])
        with pytest.raises(ValueError, match="unknown base parameter"):
            SweepSpec(axes=[Axis("equivalent_macs", (32,))],
                      base={"nonsense": 1})

    def test_axis_and_base_conflict_rejected(self):
        with pytest.raises(ValueError, match="both an axis and a base"):
            small_space(base={"network": "alexnet", "equivalent_macs": 32})

    def test_point_without_network_rejected(self):
        space = SweepSpec(axes=[Axis("equivalent_macs", (32,))],
                          base={"accelerator": "dpnn"})
        with pytest.raises(ValueError, match="network"):
            space.jobs()

    def test_size_counts_pre_constraint_product(self):
        assert small_space().size == 4

    def test_points_memoised_and_callers_get_fresh_lists(self):
        calls = []
        space = small_space(constraints=[
            Constraint("count", lambda p: calls.append(p) or True)
        ])
        first = space.points()
        evaluations = len(calls)
        second = space.points()
        assert evaluations == len(calls)  # constraint pass ran once
        assert first == second and first is not second
        first.clear()
        assert space.points() == second  # caller mutation cannot corrupt


class TestConstraints:
    def test_callable_constraint_filters_points(self):
        space = small_space(constraints=[
            Constraint("small_only", lambda p: p["equivalent_macs"] <= 32)
        ])
        assert [p["equivalent_macs"] for p in space.points()] == [32, 32]

    def test_am_fits_working_set(self):
        # AlexNet's worst layer needs ~0.9 MB of 16-bit activations: a 64 KB
        # AM is infeasible, a 4 MB AM is fine.
        space = SweepSpec(
            axes=[Axis("am_capacity_bytes", (64 * 1024, 4 * 1024 * 1024))],
            base={"network": "alexnet", "accelerator": "dpnn"},
            constraints=[am_fits_working_set()],
        )
        points = space.points()
        assert [p["am_capacity_bytes"] for p in points] == [4 * 1024 * 1024]

    def test_named_constraint_from_string(self):
        space = SweepSpec(
            axes=[Axis("am_capacity_bytes", (64 * 1024,))],
            base={"network": "alexnet", "accelerator": "dpnn"},
            constraints=["am_fits_working_set"],
        )
        assert space.points() == []
        with pytest.raises(ValueError, match="unknown constraint"):
            SweepSpec(axes=[Axis("equivalent_macs", (32,))],
                      constraints=["no_such_thing"])


class TestParsing:
    def test_parse_value(self):
        assert parse_value("32") == 32
        assert parse_value("0.5") == 0.5
        assert parse_value("true") is True
        assert parse_value("none") is None
        assert parse_value("alexnet") == "alexnet"

    def test_parse_accelerator_forms(self):
        expected = AcceleratorSpec.create("loom", bits_per_cycle=2)
        assert parse_accelerator("loom:bits_per_cycle=2") == expected
        assert parse_accelerator(("loom", {"bits_per_cycle": 2})) == expected
        assert parse_accelerator({"kind": "loom", "bits_per_cycle": 2}) == expected
        assert parse_accelerator(expected) is expected

    def test_parse_accelerator_rejects_bad_tokens(self):
        with pytest.raises(ValueError, match="key=value"):
            parse_accelerator("loom:bits_per_cycle")
        with pytest.raises(ValueError, match="kind"):
            parse_accelerator({"bits_per_cycle": 2})

    def test_design_label(self):
        assert design_label(parse_accelerator("loom")) == "loom-1b"
        assert design_label(parse_accelerator("loom:bits_per_cycle=4")) == "loom-4b"
        assert design_label(parse_accelerator("dpnn")) == "dpnn"
        assert design_label(
            parse_accelerator("loom:bits_per_cycle=2:window_fanout=4")
        ) == "loom-2b[window_fanout=4]"

    def test_dict_roundtrip(self):
        space = SweepSpec(
            axes=[Axis("equivalent_macs", (32, 64)),
                  Axis("accelerator", ("loom:bits_per_cycle=2", "dstripes"))],
            base={"network": "alexnet", "dram": "lpddr4-4267"},
            constraints=["am_fits_working_set"],
        )
        restored = SweepSpec.from_json(json.dumps(space.to_dict()))
        assert restored.points() == space.points()
        assert [c.name for c in restored.constraints] == ["am_fits_working_set"]

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ValueError, match="unknown sweep spec keys"):
            SweepSpec.from_dict({"axes": {"equivalent_macs": [32]},
                                 "oops": 1})


def _point(label, **metrics):
    return EvaluatedPoint(
        point=next(iter(small_space().points())),  # point identity is unused
        baseline="DPNN",
        metrics=metrics,
    )


class TestFrontier:
    OBJECTIVES = resolve_objectives(("speedup", "energy_efficiency", "area"))

    def test_pareto_frontier_on_hand_built_results(self):
        dominated = _point("a", speedup=1.0, energy_efficiency=1.0, area_mm2=5.0)
        fast = _point("b", speedup=4.0, energy_efficiency=1.5, area_mm2=6.0)
        small = _point("c", speedup=1.5, energy_efficiency=1.2, area_mm2=2.0)
        best = _point("d", speedup=4.0, energy_efficiency=2.0, area_mm2=6.0)
        frontier = pareto_frontier([dominated, fast, small, best],
                                   self.OBJECTIVES)
        assert frontier == [small, best]

    def test_equal_points_do_not_dominate_each_other(self):
        a = _point("a", speedup=2.0, energy_efficiency=2.0, area_mm2=3.0)
        b = _point("b", speedup=2.0, energy_efficiency=2.0, area_mm2=3.0)
        assert pareto_frontier([a, b], self.OBJECTIVES) == [a, b]

    def test_dominance_ranks_peel_successive_frontiers(self):
        layers = [
            _point("r0", speedup=4.0, energy_efficiency=4.0, area_mm2=1.0),
            _point("r1", speedup=3.0, energy_efficiency=3.0, area_mm2=2.0),
            _point("r2", speedup=2.0, energy_efficiency=2.0, area_mm2=3.0),
        ]
        assert dominance_ranks(layers, self.OBJECTIVES) == [0, 1, 2]

    def test_scalar_score_direction(self):
        better = _point("a", speedup=4.0, energy_efficiency=2.0, area_mm2=1.0)
        worse = _point("b", speedup=4.0, energy_efficiency=2.0, area_mm2=2.0)
        assert scalar_score(better.metrics, self.OBJECTIVES) \
            > scalar_score(worse.metrics, self.OBJECTIVES)
        bad = _point("c", speedup=float("inf"), energy_efficiency=1.0,
                     area_mm2=1.0)
        assert scalar_score(bad.metrics, self.OBJECTIVES) == float("-inf")

    def test_resolve_objectives_from_string(self):
        names = [o.name for o in resolve_objectives("speedup,area")]
        assert names == ["speedup", "area"]
        with pytest.raises(ValueError, match="unknown objective"):
            resolve_objectives("speedup,banana")


class TestStrategies:
    def test_grid_evaluates_every_feasible_point(self):
        space = small_space()
        with JobExecutor() as executor:
            result = explore(space, strategy="grid", executor=executor)
        assert len(result.evaluated) == len(space.points()) == 4
        assert executor.stats.max_executions_per_key == 1

    def test_random_is_seed_reproducible(self):
        space = small_space()
        with JobExecutor() as executor:
            first = explore(space, strategy=RandomSearch(samples=2, seed=7),
                            executor=executor)
            second = explore(space, strategy=RandomSearch(samples=2, seed=7),
                             executor=executor)
            other = explore(space, strategy=RandomSearch(samples=2, seed=8),
                            executor=executor)
        assert [ep.point for ep in first.evaluated] \
            == [ep.point for ep in second.evaluated]
        assert len(first.evaluated) == 2
        # A different seed draws a different sample (true for this space).
        assert [ep.point for ep in first.evaluated] \
            != [ep.point for ep in other.evaluated]

    def test_coordinate_descent_is_seed_reproducible_and_cached(self):
        space = SweepSpec(
            axes=[Axis("equivalent_macs", (32, 64, 128)),
                  Axis("accelerator",
                       ("loom", "loom:bits_per_cycle=2", "dstripes"))],
            base={"network": "alexnet"},
        )
        with JobExecutor() as executor:
            first = explore(space, strategy=CoordinateDescentSearch(seed=3),
                            executor=executor)
            executed_once = executor.stats.executed
            second = explore(space, strategy=CoordinateDescentSearch(seed=3),
                             executor=executor)
            # The repeat search re-simulates nothing: every candidate is
            # answered by the shared executor's cache.
            assert executor.stats.executed == executed_once
        assert [ep.point for ep in first.evaluated] \
            == [ep.point for ep in second.evaluated]
        assert executor.stats.max_executions_per_key == 1

    def test_coordinate_descent_finds_the_scalar_optimum(self):
        # On this small space the composite score is monotone enough that
        # the adaptive search must land on the exhaustive optimum.
        space = small_space()
        objectives = resolve_objectives(("speedup", "energy_efficiency",
                                         "area"))
        with JobExecutor() as executor:
            grid = explore(space, strategy="grid", objectives=objectives,
                           executor=executor)
            adaptive = explore(space,
                               strategy=CoordinateDescentSearch(seed=0,
                                                                starts=2),
                               objectives=objectives, executor=executor)
        best_grid = max(grid.evaluated,
                        key=lambda ep: scalar_score(ep.metrics, objectives))
        best_adaptive = max(adaptive.evaluated,
                            key=lambda ep: scalar_score(ep.metrics, objectives))
        assert best_adaptive.point == best_grid.point

    def test_resolve_strategy(self):
        assert isinstance(resolve_strategy(None), GridSearch)
        assert isinstance(resolve_strategy("random", samples=4), RandomSearch)
        strategy = CoordinateDescentSearch()
        assert resolve_strategy(strategy) is strategy
        with pytest.raises(ValueError, match="unknown search strategy"):
            resolve_strategy("simulated_annealing")


class TestEvaluator:
    def test_baseline_jobs_dedupe_across_points(self):
        # Four design points share two (network, config) pairs, so only two
        # baseline simulations run in addition to the four designs.
        space = small_space()
        with JobExecutor() as executor:
            evaluator = PointEvaluator(space, executor=executor)
            evaluator.evaluate(space.points())
            assert executor.stats.executed == 4 + 2

    def test_metrics_match_direct_comparison(self):
        space = small_space()
        point = space.points()[0]
        with JobExecutor() as executor:
            evaluator = PointEvaluator(space, executor=executor)
            (evaluated,) = evaluator.evaluate([point])
            job = space.job(point)
            baseline_job = SimJob(network=job.network,
                                  accelerator=AcceleratorSpec.create("dpnn"),
                                  config=job.config)
            design, baseline = executor.run([job, baseline_job])
        comparison = compare(design, baseline)
        assert evaluated.metrics["speedup"] == pytest.approx(comparison.speedup)
        assert evaluated.metrics["energy_efficiency"] \
            == pytest.approx(comparison.energy_efficiency)
        assert evaluated.metrics["cycles"] == design.total_cycles()
        assert evaluated.metrics["area_mm2"] > 0

    def test_memoisation_skips_the_executor(self):
        space = small_space()
        point = space.points()[0]
        with JobExecutor() as executor:
            evaluator = PointEvaluator(space, executor=executor)
            evaluator.evaluate([point])
            submitted = executor.stats.submitted
            evaluator.evaluate([point, point])
            assert executor.stats.submitted == submitted

    def test_warm_presence_checks_decode_nothing(self, monkeypatch):
        # The cache tiers hold result texts: asking whether a point is
        # warm must test key presence, not decode results it throws away.
        from repro.sim.results import NetworkResult

        space = small_space()
        points = space.points()
        with JobExecutor() as executor:
            PointEvaluator(space, executor=executor).evaluate(points)
            decoded = []
            for name in ("from_json", "from_dict"):
                monkeypatch.setattr(NetworkResult, name, classmethod(
                    lambda cls, data, name=name: decoded.append(name)),
                    raising=False)
            fresh = PointEvaluator(space, executor=executor)
            assert fresh.warm(points) == points
            assert decoded == []


class TestReporting:
    @pytest.fixture(scope="class")
    def result(self):
        with JobExecutor() as executor:
            return explore(small_space(), executor=executor)

    def test_sweep_table_lists_every_point(self, result):
        text = sweep_table(result)
        assert "loom-1b" in text and "dstripes" in text
        assert text.count("\n") >= 4 + 2

    def test_frontier_table_only_rank_zero(self, result):
        text = frontier_table(result)
        for line in text.splitlines()[2:]:
            assert line.rstrip().endswith("0")

    def test_markdown_table_shape(self, result):
        lines = sweep_markdown(result).splitlines()
        assert lines[0].startswith("| equivalent_macs |")
        assert set(lines[1].replace("|", "").split()) <= {":---", "---:"}
        assert len(lines) == 2 + len(result.evaluated)

    def test_csv_has_one_row_per_point(self, result):
        rows = sweep_to_csv(result).strip().splitlines()
        assert len(rows) == 1 + len(result.evaluated)
        header = rows[0].split(",")
        assert "speedup" in header and "pareto_rank" in header

    def test_best_by_objective(self, result):
        best = result.best("speedup")
        assert best.metrics["speedup"] \
            == max(ep.metrics["speedup"] for ep in result.evaluated)


class TestFigure5ViaExplore:
    """The scaling study must be a thin wrapper over the sweep subsystem."""

    CONFIGS = (32, 64)
    NETWORKS = ("alexnet", "nin")

    def _pre_refactor_run(self, executor):
        """The PR-1 implementation of figure5.run: hand-rolled job batches."""
        nets = [NetworkSpec(name, "100%") for name in self.NETWORKS]
        dpnn_spec = AcceleratorSpec.create("dpnn")
        loom_1b_spec = loom_spec(bits_per_cycle=1)
        dstripes_spec = AcceleratorSpec.create("dstripes")
        designs = (dpnn_spec, loom_1b_spec, dstripes_spec)
        from repro.sim.jobs import build_accelerator
        result = figure5.Figure5Result()
        for macs in self.CONFIGS:
            config = AcceleratorConfig(equivalent_macs=macs, dram=LPDDR4_4267,
                                       charge_offchip_energy=False)
            jobs = [SimJob(network=net, accelerator=design, config=config)
                    for net in nets for design in designs]
            flat = executor.run(jobs)
            loom_perf_all, loom_perf_conv = [], []
            ds_perf_all, ds_perf_conv = [], []
            loom_eff_all, loom_fps_all, loom_fps_conv = [], [], []
            for index, _ in enumerate(nets):
                base, loom_result, ds_result = flat[3 * index:3 * index + 3]
                loom_perf_all.append(compare(loom_result, base).speedup)
                loom_perf_conv.append(
                    compare(loom_result, base, kind="conv").speedup)
                ds_perf_all.append(compare(ds_result, base).speedup)
                ds_perf_conv.append(
                    compare(ds_result, base, kind="conv").speedup)
                loom_eff_all.append(
                    compare(loom_result, base).energy_efficiency)
                loom_fps_all.append(loom_result.frames_per_second())
                loom_fps_conv.append(
                    loom_result.frames_per_second(kind="conv"))
            loom = build_accelerator(loom_1b_spec, config)
            dpnn = build_accelerator(dpnn_spec, config)
            result.points.append(figure5.Figure5Point(
                equivalent_macs=macs,
                loom_rel_perf_all=geomean(loom_perf_all),
                loom_rel_perf_conv=geomean(loom_perf_conv),
                dstripes_rel_perf_all=geomean(ds_perf_all),
                dstripes_rel_perf_conv=geomean(ds_perf_conv),
                loom_fps_all=geomean(loom_fps_all),
                loom_fps_conv=geomean(loom_fps_conv),
                loom_weight_memory_mb=loom.hierarchy.weight_memory.capacity_mb,
                loom_area_ratio=loom.total_area_mm2() / dpnn.total_area_mm2(),
                loom_energy_efficiency=geomean(loom_eff_all),
            ))
        return result

    def test_sweep_space_declares_the_pre_refactor_job_matrix(self):
        space = figure5.sweep_space(configs=self.CONFIGS,
                                    networks=self.NETWORKS)
        nets = [NetworkSpec(name, "100%") for name in self.NETWORKS]
        designs = (AcceleratorSpec.create("dpnn"), loom_spec(bits_per_cycle=1),
                   AcceleratorSpec.create("dstripes"))
        expected = []
        for macs in self.CONFIGS:
            config = AcceleratorConfig(equivalent_macs=macs, dram=LPDDR4_4267,
                                       charge_offchip_energy=False)
            expected.extend(
                SimJob(network=net, accelerator=design, config=config)
                for net in nets for design in designs
            )
        assert space.jobs() == expected

    def test_figure5_output_byte_identical_to_pre_refactor(self):
        with JobExecutor() as executor:
            via_spec = figure5.run(configs=self.CONFIGS,
                                   networks=self.NETWORKS, executor=executor)
            pre_refactor = self._pre_refactor_run(executor)
        assert figure5.format_figure(via_spec) \
            == figure5.format_figure(pre_refactor)

    def test_figure5_accepts_duplicate_configs_like_the_seed(self):
        # The seed implementation simply looped, so a repeated entry
        # reported its row twice; the sweep-spec wrapper must preserve that.
        with JobExecutor() as executor:
            result = figure5.run(configs=(32, 32), networks=("alexnet",),
                                 executor=executor)
        assert [p.equivalent_macs for p in result.points] == [32, 32]
        assert result.points[0] == result.points[1]

    def test_figure5_empty_configs_give_empty_result(self):
        with JobExecutor() as executor:
            result = figure5.run(configs=(), networks=("alexnet",),
                                 executor=executor)
        assert result.points == []


class TestExploreIntegration:
    def test_shared_executor_simulates_each_unique_job_once(self):
        # A 48-point grid (the acceptance-criterion scale) through one
        # executor: every unique (network, design, config) simulated once.
        space = SweepSpec(
            axes=[
                Axis("equivalent_macs", (32, 64, 128, 256)),
                Axis("accelerator",
                     ("loom", "loom:bits_per_cycle=2",
                      "loom:bits_per_cycle=4", "dstripes")),
                Axis("network", ("alexnet", "nin", "googlenet")),
            ],
        )
        points = space.points()
        assert len(points) == 48
        with JobExecutor() as executor:
            result = explore(space, executor=executor)
            assert executor.stats.max_executions_per_key == 1
            # 48 designs + 12 shared (network x config) DPNN baselines.
            assert executor.stats.executed == 48 + 12
        assert len(result.evaluated) == 48
        assert result.frontier
        ranks = dominance_ranks(result.evaluated, result.objectives)
        assert all(rank >= 0 for rank in ranks)


class TestWireFormat:
    """canonical_point / job_to_point: the serve subsystem's wire format."""

    def test_canonical_point_accepts_explore_style_values(self):
        point = canonical_point({
            "network": "alexnet",
            "accelerator": "loom:bits_per_cycle=2",
            "dram": "lpddr4-4267",
            "equivalent_macs": 256,
        })
        job = point_to_job(point)
        assert job.accelerator == AcceleratorSpec.create("loom",
                                                         bits_per_cycle=2)
        assert job.config.equivalent_macs == 256
        assert job.config.dram == LPDDR4_4267

    def test_canonical_point_rejects_unknown_parameters(self):
        with pytest.raises(ValueError, match="flux"):
            canonical_point({"network": "alexnet", "flux": 88})

    @pytest.mark.parametrize("job", [
        SimJob(network=NetworkSpec("alexnet"),
               accelerator=AcceleratorSpec.create("dpnn")),
        SimJob(network=NetworkSpec("nin", "99%"),
               accelerator=AcceleratorSpec.create("loom", bits_per_cycle=2)),
        SimJob(network=NetworkSpec("resnet18", groups=4),
               accelerator=AcceleratorSpec.create("dstripes"),
               config=AcceleratorConfig(equivalent_macs=256,
                                        dram=LPDDR4_4267)),
        SimJob(network=NetworkSpec("vggm", with_effective_weights=True,
                                   accuracy="99%"),
               accelerator=AcceleratorSpec.create(
                   "loom", use_effective_weight_precision=True)),
        SimJob(network=NetworkSpec("tiny_transformer", heads=8),
               accelerator=AcceleratorSpec.create("loom"),
               config=AcceleratorConfig(am_capacity_bytes=512 * 1024,
                                        charge_offchip_energy=False)),
    ], ids=["plain", "options", "dram-scaled", "effective-weights",
            "structural-override"])
    def test_job_round_trips_through_json_preserving_its_key(self, job):
        wire = json.loads(json.dumps(job_to_point(job)))
        rebuilt = point_to_job(canonical_point(wire))
        assert job_key(rebuilt) == job_key(job)

    def test_job_to_point_omits_defaults(self):
        wire = job_to_point(SimJob(network=NetworkSpec("alexnet"),
                                   accelerator=AcceleratorSpec.create("dpnn")))
        assert wire == {"network": "alexnet", "accelerator": {"kind": "dpnn"}}

    def test_job_to_point_refuses_unencodable_values(self):
        import dataclasses

        from repro.energy.tech import TSMC_65NM

        exotic_tech = SimJob(
            network=NetworkSpec("alexnet"),
            accelerator=AcceleratorSpec.create("dpnn"),
            config=AcceleratorConfig(
                tech=dataclasses.replace(TSMC_65NM, name="exotic-7nm")),
        )
        with pytest.raises(ValueError, match="technology"):
            job_to_point(exotic_tech)

    def test_encode_parameter_round_trips_sweep_specs(self):
        assert encode_parameter("accelerator",
                                "loom:bits_per_cycle=2") == \
            {"kind": "loom", "bits_per_cycle": 2}
        assert encode_parameter("dram", LPDDR4_4267) == "lpddr4-4267"
        assert encode_parameter("equivalent_macs", 64) == 64
        space = SweepSpec(
            axes=[Axis("equivalent_macs", (32, 64)),
                  Axis("accelerator", ("loom", "loom:bits_per_cycle=2"))],
            base={"network": "alexnet", "dram": "lpddr4-4267"},
        )
        round_tripped = SweepSpec.from_dict(
            json.loads(json.dumps(space.to_dict())))
        assert round_tripped.to_dict() == space.to_dict()
        assert [job_key(j) for j in round_tripped.unique_jobs()] == \
            [job_key(j) for j in space.unique_jobs()]

    def test_exploration_result_to_dict_is_json_serialisable(self):
        space = SweepSpec(axes=[Axis("accelerator", ("loom", "dpnn"))],
                          base={"network": "alexnet"})
        result = explore(space, executor=JobExecutor())
        payload = json.loads(json.dumps(result.to_dict()))
        assert payload["strategy"] == "grid"
        assert len(payload["evaluated"]) == 2
        assert payload["ranks"] == result.ranks
        assert payload["evaluated"][0]["metrics"]["speedup"] == \
            result.evaluated[0].metrics["speedup"]
        assert payload["space"]["base"]["network"] == "alexnet"


# -- the ask/tell driver -------------------------------------------------------


def _synthetic_metrics(point):
    """Deterministic, positive fake metrics -- a pure function of the point."""
    digest = zlib.crc32(point.label().encode("utf-8"))
    return {
        "speedup": 1.0 + (digest % 997) / 100.0,
        "energy_efficiency": 1.0 + ((digest >> 10) % 991) / 100.0,
        "area_mm2": 1.0 + ((digest >> 20) % 983) / 100.0,
    }


class _StubEvaluator:
    """PointEvaluator stand-in: no simulator, synthetic metrics, same API."""

    def __init__(self, space):
        self.space = space
        self._memo = {}

    def known(self, point):
        return point in self._memo

    def warm(self, points):
        return [point for point in points if point in self._memo]

    def evaluate(self, points):
        for point in points:
            if point not in self._memo:
                self._memo[point] = EvaluatedPoint(
                    point=point, baseline="dpnn",
                    metrics=_synthetic_metrics(point))
        return [self._memo[point] for point in points]


def _trace_json(trace):
    return json.dumps([ep.to_dict() for ep in trace], sort_keys=True)


_DRIVER_OBJECTIVES = resolve_objectives(("speedup", "energy_efficiency",
                                         "area"))


class TestAskTellDriver:
    def test_budget_must_be_positive(self):
        space = small_space()
        with pytest.raises(ValueError, match="budget must be >= 1"):
            drive_search(GridSearch(), space, _StubEvaluator(space),
                         _DRIVER_OBJECTIVES, budget=0)

    def test_budget_caps_fresh_evaluations(self):
        space = small_space()
        trace = drive_search(RandomSearch(samples=4, seed=0), space,
                             _StubEvaluator(space), _DRIVER_OBJECTIVES,
                             budget=2)
        assert len(trace) == 2

    def test_warm_points_do_not_consume_the_budget(self):
        space = small_space()
        evaluator = _StubEvaluator(space)
        evaluator.evaluate(space.points())  # everything warm
        trace = drive_search(GridSearch(), space, evaluator,
                             _DRIVER_OBJECTIVES, budget=1)
        assert len(trace) == len(space.points())

    def test_driver_dedups_batches_and_tracks_state(self):
        space = small_space()

        class Probe(SearchStrategy):
            name = "probe"

            def __init__(self):
                self.observed = []
                self.state = None

            def propose(self, state):
                self.state = state
                if state.rounds:
                    return []
                point = state.space.points()[0]
                return [point, point]  # in-batch duplicate

            def observe(self, evaluated):
                self.observed.append(list(evaluated))

        probe = Probe()
        trace = drive_search(probe, space, _StubEvaluator(space),
                             _DRIVER_OBJECTIVES, budget=5)
        assert len(trace) == 1
        assert [len(batch) for batch in probe.observed] == [1]
        assert probe.state.rounds == 1
        assert probe.state.spent == 1
        assert probe.state.remaining == 4

    def test_strategy_without_propose_or_run_rejected(self):
        space = small_space()
        with pytest.raises(NotImplementedError, match="propose"):
            drive_search(SearchStrategy(), space, _StubEvaluator(space),
                         _DRIVER_OBJECTIVES)


# Pre-redesign strategy implementations, reproduced verbatim so the property
# test below can pin that the ask/tell driver yields byte-identical traces.
# They are plain objects with their own run(); the driver never sees them.


class _LegacyGrid:
    def run(self, space, evaluator, objectives):
        return evaluator.evaluate(space.points())


class _LegacyRandom:
    def __init__(self, samples, seed):
        self.samples = samples
        self.seed = seed

    def run(self, space, evaluator, objectives):
        points = space.points()
        if len(points) > self.samples:
            points = random.Random(self.seed).sample(points, self.samples)
        return evaluator.evaluate(points)


class _LegacyCoordinate:
    def __init__(self, seed, starts, max_rounds):
        self.seed = seed
        self.starts = starts
        self.max_rounds = max_rounds

    def run(self, space, evaluator, objectives):
        points = space.points()
        if not points:
            return []
        axis_names = space.axis_names
        by_coords = {
            tuple(point[name] for name in axis_names): point
            for point in points
        }
        rng = random.Random(self.seed)
        trace = []
        traced = set()

        def record(evaluated):
            for ep in evaluated:
                if ep.point not in traced:
                    traced.add(ep.point)
                    trace.append(ep)

        def score_of(ep):
            return scalar_score(ep.metrics, objectives)

        for _ in range(self.starts):
            current = rng.choice(points)
            (current_ep,) = evaluator.evaluate([current])
            record([current_ep])
            for _ in range(self.max_rounds):
                improved = False
                for index, axis in enumerate(space.axes):
                    if len(axis.values) < 2:
                        continue
                    coords = tuple(current[name] for name in axis_names)
                    candidates = []
                    for value in axis.values:
                        candidate_coords = (coords[:index] + (value,)
                                            + coords[index + 1:])
                        candidate = by_coords.get(candidate_coords)
                        if candidate is not None:
                            candidates.append(candidate)
                    evaluated = evaluator.evaluate(candidates)
                    record(evaluated)
                    best = max(evaluated, key=score_of)
                    if best.point != current \
                            and score_of(best) > score_of(current_ep):
                        current, current_ep = best.point, best
                        improved = True
                if not improved:
                    break
        return trace


def _equivalence_space():
    return SweepSpec(
        axes=[
            Axis("equivalent_macs", (32, 64, 128)),
            Axis("accelerator", ("loom", "loom:bits_per_cycle=2",
                                 "dstripes")),
            Axis("am_capacity_bytes", (1 << 20, 2 << 20)),
        ],
        base={"network": "alexnet"},
        constraints=[Constraint(
            "no-big-dstripes",
            lambda p: not (p["equivalent_macs"] == 128
                           and p["accelerator"].kind == "dstripes"))],
    )


class TestLegacyTraceEquivalence:
    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 10_000), samples=st.integers(1, 18),
           starts=st.integers(1, 3), max_rounds=st.integers(1, 4))
    def test_driver_reproduces_pre_redesign_traces(self, seed, samples,
                                                   starts, max_rounds):
        space = _equivalence_space()
        pairs = [
            (GridSearch(), _LegacyGrid()),
            (RandomSearch(samples=samples, seed=seed),
             _LegacyRandom(samples, seed)),
            (CoordinateDescentSearch(seed=seed, starts=starts,
                                     max_rounds=max_rounds),
             _LegacyCoordinate(seed, starts, max_rounds)),
        ]
        for current, legacy in pairs:
            new_trace = drive_search(current, space, _StubEvaluator(space),
                                     _DRIVER_OBJECTIVES)
            old_trace = legacy.run(space, _StubEvaluator(space),
                                   _DRIVER_OBJECTIVES)
            assert _trace_json(new_trace) == _trace_json(old_trace), \
                f"{type(current).__name__} trace diverged from pre-redesign"


class TestCoordinateInfeasibleAxes:
    def test_axis_with_all_alternatives_infeasible_is_skipped(self):
        # Feasible set is the diagonal {(32, loom), (64, dstripes)}: from
        # either point every single-axis alternative is constraint-pruned,
        # which used to leave the axis sweep with an empty candidate batch
        # (and `max(evaluated)` with an empty sequence).
        space = small_space(constraints=[Constraint(
            "diagonal",
            lambda p: (p["equivalent_macs"] == 32)
            == (p["accelerator"].kind == "loom"))])
        assert len(space.points()) == 2
        with JobExecutor(cache=None) as executor:
            result = explore(
                space, strategy=CoordinateDescentSearch(seed=0, starts=2),
                executor=executor)
        assert 1 <= len(result.evaluated) <= 2
        for ep in result.evaluated:
            assert (ep.point["equivalent_macs"] == 32) \
                == (ep.point["accelerator"].kind == "loom")


class TestStrategyRegistry:
    def test_register_strategy_sets_name_and_resolves(self):
        @register_strategy("registry-probe")
        class Probe(SearchStrategy):
            def propose(self, state):
                return []

        try:
            assert Probe.name == "registry-probe"
            assert isinstance(resolve_strategy("registry-probe"), Probe)
        finally:
            del STRATEGIES["registry-probe"]

    def test_duplicate_name_for_different_class_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            register_strategy("grid")(RandomSearch)

    def test_reregistering_the_same_class_is_idempotent(self):
        assert register_strategy("grid")(GridSearch) is GridSearch

    def test_bad_constructor_options_become_value_errors(self):
        with pytest.raises(ValueError, match="bad option"):
            resolve_strategy("random", bogus=1)


class TestStrategyOptions:
    def test_parse_strategy_options_types_the_values(self):
        assert parse_strategy_options(None) == {}
        assert parse_strategy_options([]) == {}
        assert parse_strategy_options(
            ["samples=8", "model=gp", "kappa=1.5"]
        ) == {"samples": 8, "model": "gp", "kappa": 1.5}

    def test_malformed_and_duplicate_tokens_rejected(self):
        with pytest.raises(ValueError, match="expected key=value"):
            parse_strategy_options(["samples"])
        with pytest.raises(ValueError, match="expected key=value"):
            parse_strategy_options(["=8"])
        with pytest.raises(ValueError, match="duplicate strategy option"):
            parse_strategy_options(["seed=1", "seed=2"])

    def test_strategy_from_request_defaults_to_grid(self):
        strategy, budget = strategy_from_request({})
        assert isinstance(strategy, GridSearch)
        assert budget is None

    def test_strategy_from_request_uniform_form(self):
        strategy, budget = strategy_from_request({
            "strategy": "random",
            "options": {"samples": 3, "seed": 9},
            "budget": 7,
        })
        assert isinstance(strategy, RandomSearch)
        assert (strategy.samples, strategy.seed) == (3, 9)
        assert budget == 7

    def test_strategy_from_request_legacy_keys_still_work(self):
        strategy, budget = strategy_from_request(
            {"strategy": "random", "samples": 5, "seed": 2})
        assert (strategy.samples, strategy.seed) == (5, 2)
        assert budget is None
        # The uniform options form wins over the legacy top-level keys.
        strategy, _ = strategy_from_request(
            {"strategy": "random", "samples": 5, "options": {"samples": 11}})
        assert strategy.samples == 11
        # Legacy keys only apply to the strategies that understand them.
        strategy, _ = strategy_from_request(
            {"strategy": "coordinate", "samples": 5, "seed": 4})
        assert isinstance(strategy, CoordinateDescentSearch)
        assert strategy.seed == 4

    def test_strategy_from_request_bad_inputs_rejected(self):
        with pytest.raises(ValueError, match="mapping"):
            strategy_from_request({"options": ["samples", 3]})
        with pytest.raises(ValueError, match="budget must be >= 1"):
            strategy_from_request({"budget": 0})
        with pytest.raises(ValueError, match="unknown search strategy"):
            strategy_from_request({"strategy": "annealing"})
