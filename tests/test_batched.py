"""Tests for the vector engine's batch entry point.

The batched engine's whole contract is *bit-exactness at sweep scale*: any
mix of jobs -- ragged network sizes, heterogeneous design points, exotic
fallbacks -- must come back field-for-field equal to running the event
reference job by job, in submission order.  The property-based tests
generate random job mixes against that contract; the directed tests pin the
edges (empty batch, single job, cross-design merging, fallback ordering).
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.accelerators.base import AcceleratorConfig
from repro.memo import DESIGN_MEMO_SIZE, POINT_MEMO_SIZE, clear_memos
from repro.sim import batched
from repro.sim.batched import (
    _design_record,
    _spec_record,
    simulate_jobs_batched,
    simulate_layer_table,
    stack_layer_tables,
    use_engine,
)
from repro.sim.jobs import spec as jobs_spec
from repro.sim.jobs.executor import JobExecutor
from repro.sim.jobs.spec import (
    AcceleratorSpec,
    NetworkSpec,
    SimJob,
    build_accelerator,
    execute_job,
)
from repro.sim.validate import validate_jobs

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402


def _jobs_equal(batched_results, reference_results):
    """Field-for-field equality across whole result lists."""
    assert len(batched_results) == len(reference_results)
    for got_result, reference in zip(batched_results, reference_results):
        assert got_result.network == reference.network
        assert got_result.accelerator == reference.accelerator
        assert got_result.clock_ghz == reference.clock_ghz
        assert len(got_result.layers) == len(reference.layers)
        for got, want in zip(got_result.layers, reference.layers):
            assert got == want  # dataclass ==: every field, exact floats


def _reference(jobs):
    """The event-engine oracle, job by job."""
    return [execute_job(job, engine="event") for job in jobs]


#: Networks with different layer counts and kinds (conv-only, conv+fc,
#: matmul-bearing, effective-weights) -- the ragged/mixed axis.
_NETWORKS = (
    NetworkSpec("alexnet", "100%"),
    NetworkSpec("alexnet", "99%"),
    NetworkSpec("nin", "100%"),
    NetworkSpec("alexnet", "100%", with_effective_weights=True),
    NetworkSpec("tiny_transformer", "100%"),
)

#: Design points across all four stock kinds, Loom serial widths and flag
#: variants, plus scale/memory/clock spreads -- the grouping/merging axis.
_DESIGNS = (
    (AcceleratorSpec.create("dpnn"), AcceleratorConfig()),
    (AcceleratorSpec.create("stripes"), AcceleratorConfig(equivalent_macs=64)),
    (AcceleratorSpec.create("dstripes"), AcceleratorConfig()),
    (AcceleratorSpec.create("loom"), AcceleratorConfig()),
    (AcceleratorSpec.create("loom"),
     AcceleratorConfig(equivalent_macs=256, clock_ghz=1.2)),
    (AcceleratorSpec.create("loom"),
     AcceleratorConfig(am_capacity_bytes=512 * 1024)),
    (AcceleratorSpec.create("loom", bits_per_cycle=2), AcceleratorConfig()),
    (AcceleratorSpec.create("loom", bits_per_cycle=4),
     AcceleratorConfig(equivalent_macs=64)),
    (AcceleratorSpec.create("loom", use_effective_weight_precision=True),
     AcceleratorConfig()),
    (AcceleratorSpec.create("loom", use_cascading=False,
                            replicate_filters=True), AcceleratorConfig()),
)


class TestStacking:
    def test_ragged_stack_shapes(self):
        tables = [
            jobs_spec._spec_layer_table(NetworkSpec("alexnet", "100%")),
            jobs_spec._spec_layer_table(NetworkSpec("nin", "100%")),
        ]
        stacked = stack_layer_tables(tables)
        assert stacked.jobs == 2
        assert stacked.lengths == (len(tables[0]), len(tables[1]))
        # The flat view is the member columns concatenated end to end.
        assert len(stacked.flat) == sum(stacked.lengths)
        assert stacked.flat.names == tables[0].names + tables[1].names
        assert (stacked.flat.windows[:len(tables[0])]
                == tables[0].windows).all()

    def test_empty_stack(self):
        stacked = stack_layer_tables([])
        assert stacked.jobs == 0
        assert len(stacked.flat) == 0
        assert simulate_layer_table(build_accelerator(
            AcceleratorSpec.create("loom"), AcceleratorConfig()),
            stacked.flat) == []

    def test_tables_pass_equals_event_path(self):
        accelerator = build_accelerator(AcceleratorSpec.create("loom"),
                                        AcceleratorConfig())
        stacked = stack_layer_tables(
            [jobs_spec._spec_layer_table(spec) for spec in _NETWORKS[:3]])
        layers = simulate_layer_table(accelerator, stacked.flat)
        cursor = 0
        for spec, length in zip(_NETWORKS[:3], stacked.lengths):
            assert layers[cursor:cursor + length] == [
                accelerator.simulate_layer(lw)
                for lw in jobs_spec._spec_layers(spec)]
            cursor += length


class TestBatchedVsPerJob:
    def test_empty_batch(self):
        assert simulate_jobs_batched([]) == []

    def test_single_job_batch(self):
        job = SimJob(network=_NETWORKS[0], accelerator=_DESIGNS[3][0],
                     config=_DESIGNS[3][1])
        _jobs_equal(simulate_jobs_batched([job]), _reference([job]))

    def test_full_design_matrix_bit_exact(self):
        jobs = [SimJob(network=network, accelerator=spec, config=config)
                for network in _NETWORKS
                for spec, config in _DESIGNS]
        _jobs_equal(simulate_jobs_batched(jobs), _reference(jobs))

    def test_duplicate_jobs_allowed(self):
        job = SimJob(network=_NETWORKS[2], accelerator=_DESIGNS[6][0],
                     config=_DESIGNS[6][1])
        _jobs_equal(simulate_jobs_batched([job, job, job]),
                    _reference([job, job, job]))

    @settings(max_examples=25, deadline=None)
    @given(picks=st.lists(
        st.tuples(st.integers(0, len(_NETWORKS) - 1),
                  st.integers(0, len(_DESIGNS) - 1)),
        min_size=0, max_size=8,
    ))
    def test_random_ragged_mixes_scatter_exactly(self, picks):
        jobs = [
            SimJob(network=_NETWORKS[n], accelerator=_DESIGNS[d][0],
                   config=_DESIGNS[d][1])
            for n, d in picks
        ]
        _jobs_equal(simulate_jobs_batched(jobs), _reference(jobs))

    def test_exotic_subclass_falls_back_in_order(self, monkeypatch):
        from repro.core import Loom

        class TunedLoom(Loom):
            def compute_cycles(self, layer):
                return super().compute_cycles(layer) * 2.0

        monkeypatch.setitem(jobs_spec.ACCELERATOR_KINDS, "tunedloom",
                            lambda config, options: TunedLoom(config))
        monkeypatch.setitem(jobs_spec._KIND_CLASSES, "tunedloom",
                            ("repro.core", "Loom"))
        exotic = SimJob(network=_NETWORKS[0],
                        accelerator=AcceleratorSpec("tunedloom"))
        stock = SimJob(network=_NETWORKS[0], accelerator=_DESIGNS[3][0],
                       config=_DESIGNS[3][1])
        jobs = [stock, exotic, stock]
        results = simulate_jobs_batched(jobs)
        _jobs_equal(results, _reference(jobs))
        # The exotic result really ran the overridden hook (2x cycles).
        assert results[1].total_cycles() == pytest.approx(
            2.0 * results[0].total_cycles())


def _count_planes(monkeypatch):
    """Count the planes the vector engine evaluates from here on."""
    evaluated = []
    original = batched._plane_numbers

    def counting(plane):
        evaluated.append(plane)
        return original(plane)

    monkeypatch.setattr(batched, "_plane_numbers", counting)
    return evaluated


class TestDesignSignatures:
    """Designs share a plane exactly when they run on one kernel."""

    def test_scale_variants_share_a_plane(self):
        spec = AcceleratorSpec.create("loom")
        small = _spec_record(spec, AcceleratorConfig(equivalent_macs=64))
        large = _spec_record(spec, AcceleratorConfig(equivalent_macs=512))
        assert small.kernel == large.kernel == "loom"

    def test_serial_width_variants_share_a_plane(self, monkeypatch):
        planes = _count_planes(monkeypatch)
        jobs = [SimJob(_NETWORKS[0], AcceleratorSpec.create(
                    "loom", bits_per_cycle=width), AcceleratorConfig())
                for width in (1, 2, 4)]
        _jobs_equal(simulate_jobs_batched(jobs), _reference(jobs))
        assert len(planes) == 1
        assert planes[0].params["bits_per_cycle"].tolist() == [1] * 8 \
            + [2] * 8 + [4] * 8

    def test_kind_variants_do_not(self):
        loom = _spec_record(AcceleratorSpec.create("loom"),
                            AcceleratorConfig())
        stripes = _spec_record(AcceleratorSpec.create("stripes"),
                               AcceleratorConfig())
        assert loom.kernel != stripes.kernel

    def test_design_alone_equals_design_in_a_plane(self):
        # _DESIGNS[3..5] are Loom-1b at three scales: one kernel, so
        # batched together they share one multi-design plane.
        jobs = [SimJob(network=_NETWORKS[4], accelerator=spec, config=config)
                for spec, config in _DESIGNS[3:6]]
        assert len({_spec_record(j.accelerator, j.config).kernel
                    for j in jobs}) == 1
        together = simulate_jobs_batched(jobs)
        alone = [simulate_jobs_batched([job])[0] for job in jobs]
        _jobs_equal(together, alone)
        _jobs_equal(together, _reference(jobs))


class TestValidateJobs:
    def test_batched_candidate_against_event_reference(self):
        jobs = [SimJob(network=_NETWORKS[0], accelerator=spec, config=config)
                for spec, config in _DESIGNS[:4]]
        report = validate_jobs(jobs, engine="vector")
        assert report.ok
        assert len(report.cases) == len(jobs)
        assert report.layers_compared == sum(
            len(r.layers) for r in _reference(jobs))

    def test_empty_job_list(self):
        report = validate_jobs([], engine="vector")
        assert report.ok and report.cases == []


class TestExecutorIntegration:
    def _jobs(self):
        # alexnet vs nin (not the 100%/99% pair: DPNN ignores precision
        # profiles, so those two would collapse to one cache key).
        return [SimJob(network=network, accelerator=spec, config=config)
                for network in (_NETWORKS[0], _NETWORKS[2])
                for spec, config in _DESIGNS[:5]]

    def test_batched_engine_serial(self):
        jobs = self._jobs()
        with JobExecutor() as executor:
            _jobs_equal(executor.run(jobs), _reference(jobs))
            assert executor.stats.batched_jobs == len(jobs)

    def test_event_engine_bypasses_the_batch_call(self, monkeypatch):
        def forbidden(jobs):
            raise AssertionError("the event engine must not batch")

        monkeypatch.setattr(batched, "simulate_jobs_batched", forbidden)
        jobs = self._jobs()
        with use_engine("event"), JobExecutor() as executor:
            _jobs_equal(executor.run(jobs), _reference(jobs))
            assert executor.stats.batched_jobs == 0

    def test_run_engine_overrides_executor_engine(self):
        # The engine is read at each run(), not fixed at construction.
        jobs = self._jobs()
        with use_engine("event"):
            executor = JobExecutor()
        executor.run(jobs)
        assert executor.stats.batched_jobs == len(jobs)

    def test_cache_answers_second_batched_run(self):
        jobs = self._jobs()
        with JobExecutor() as executor:
            executor.run(jobs)
            executor.run(jobs)
            assert executor.stats.executed == len(jobs)
            assert executor.stats.cache_hits == len(jobs)
            assert executor.stats.max_executions_per_key == 1

    def test_stats_dict_exposes_new_counters(self):
        stats = JobExecutor().stats.to_dict()
        for key in ("batched_jobs", "layer_table_hits", "layer_table_builds"):
            assert key in stats


    def test_unknown_engine_rejected_eagerly(self):
        with pytest.raises(ValueError, match="unknown engine"):
            with use_engine("warp"):
                pass
        with JobExecutor() as executor:
            assert executor.run([]) == []


class TestCLIEngineSelection:
    def test_validate_accepts_vector_engine(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(["validate", "--engine", "vector"])
        assert args.validate_engine == "vector"

    def test_validate_rejects_unknown_engine(self, capsys):
        from repro.cli import build_parser

        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["validate", "--engine", "warp"])
        assert excinfo.value.code == 2
        assert "invalid choice: 'warp'" in capsys.readouterr().err

    @pytest.mark.parametrize("retired", ["fast", "batched"])
    def test_global_engine_rejects_retired_names(self, retired, capsys):
        from repro.cli import build_parser

        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["--engine", retired, "networks"])
        assert excinfo.value.code == 2
        assert f"invalid choice: '{retired}'" in capsys.readouterr().err

    def test_global_engine_rejects_unknown(self, capsys):
        from repro.cli import build_parser

        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["--engine", "warp", "networks"])
        assert excinfo.value.code == 2
        assert "invalid choice: 'warp'" in capsys.readouterr().err


class TestClearMemos:
    def test_a_mixed_batch_is_unchanged_by_clearing_every_memo(
            self, monkeypatch):
        from repro.core import Loom

        class TunedLoom(Loom):
            def compute_cycles(self, layer):
                return super().compute_cycles(layer) * 2.0

        monkeypatch.setitem(jobs_spec.ACCELERATOR_KINDS, "tunedloom",
                            lambda config, options: TunedLoom(config))
        monkeypatch.setitem(jobs_spec._KIND_CLASSES, "tunedloom",
                            ("repro.core", "Loom"))
        networks = _NETWORKS + (NetworkSpec("resnet18", groups=2),
                                NetworkSpec("tiny_transformer", heads=2))
        jobs = [SimJob(network, spec, config)
                for network in networks for spec, config in _DESIGNS]
        jobs.insert(5, SimJob(networks[-2], AcceleratorSpec("tunedloom")))
        before = simulate_jobs_batched(jobs)
        simulate_jobs_batched(jobs)  # a repeat answers from warm memos
        clear_memos()
        after = simulate_jobs_batched(jobs)
        _jobs_equal(before, after)
        _jobs_equal(after, _reference(jobs))


class TestBoundedMemos:
    """Never-seen points cannot pin memory through the process memos."""

    def test_memos_stay_within_their_bounds(self):
        network = NetworkSpec("nin", "100%")
        loom = AcceleratorSpec.create("loom")
        jobs = [SimJob(network, loom,
                       AcceleratorConfig(clock_ghz=2.0 + index / 100_000))
                for index in range(3 * POINT_MEMO_SIZE + 1)]
        first = jobs[0]
        evicted = _spec_record(first.accelerator, first.config)
        for job in jobs:
            jobs_spec.job_key(job)
        assert jobs_spec.job_key.cache_info().currsize <= POINT_MEMO_SIZE
        designs = jobs[1:3 * DESIGN_MEMO_SIZE + 2]
        assert len(simulate_jobs_batched(designs)) == len(designs)
        assert batched._spec_record.cache_info().maxsize == DESIGN_MEMO_SIZE
        assert batched._spec_record.cache_info().currsize \
            <= DESIGN_MEMO_SIZE
        # The first design's record was evicted; it is derived again, and
        # the design is still bit-identical to the event engine.
        assert _spec_record(first.accelerator, first.config) is not evicted
        _jobs_equal(simulate_jobs_batched([first]), _reference([first]))
        assert build_accelerator.cache_info().currsize <= DESIGN_MEMO_SIZE



# -- records from specs, planes per kernel ----------------------------------------

_STOCK_KINDS = ("dpnn", "stripes", "dstripes", "loom")


@st.composite
def _configs(draw):
    from repro.energy.tech import TSMC_65NM
    from repro.memory.dram import LPDDR4_4267, DRAMChannel

    macs = draw(st.sampled_from((16, 32, 48, 64, 128, 256, 512)))
    dram = draw(st.sampled_from((
        None, LPDDR4_4267,
        DRAMChannel("slow", transfer_rate_mts=800.0, efficiency=0.5,
                    energy_pj_per_bit=0.0))))
    tech = draw(st.sampled_from((
        TSMC_65NM, dataclasses.replace(TSMC_65NM, activity_factor=0.4))))
    return AcceleratorConfig(
        equivalent_macs=macs,
        clock_ghz=draw(st.sampled_from((0.5, 1.0, 1.337, 2.0))),
        am_capacity_bytes=draw(st.sampled_from((None, 64 * 1024, 1 << 20))),
        wm_capacity_bytes=draw(st.sampled_from((None, 512 * 1024, 3 << 20))),
        abin_bytes=draw(st.sampled_from((1, 1024, 8 * 1024, 1 << 16))),
        about_bytes=draw(st.sampled_from((512, 8 * 1024))),
        dram=dram,
        charge_offchip_energy=draw(st.booleans()),
        tech=tech,
    )


@st.composite
def _specs(draw, macs: int = 16):
    """A stock spec valid at every scale that is a multiple of ``macs``."""
    kind = draw(st.sampled_from(_STOCK_KINDS))
    options = {}
    if kind != "dpnn" and draw(st.booleans()):
        dynamic = {}
        if kind != "dstripes" and draw(st.booleans()):
            dynamic["enabled"] = draw(st.booleans())
        if draw(st.booleans()):
            dynamic["activation_reduction"] = draw(
                st.sampled_from((0.5, 0.78, 1.0)))
        options["dynamic_precision"] = dynamic
    if kind == "loom":
        for name in ("use_effective_weight_precision", "use_cascading",
                     "replicate_filters"):
            if draw(st.booleans()):
                options[name] = draw(st.booleans())
        options["bits_per_cycle"] = draw(st.sampled_from((1, 2, 4)))
        options["window_fanout"] = draw(st.sampled_from(
            [f for f in (1, 2, 4, 16) if macs % f == 0]))
    return AcceleratorSpec.create(kind, **options)


@st.composite
def _designs(draw):
    config = draw(_configs())
    return draw(_specs(config.equivalent_macs)), config


class TestSpecRecords:
    """A design's record derived from its spec equals the one read off the
    accelerator that spec builds."""

    @given(design=_designs())
    @settings(max_examples=150, deadline=None)
    def test_spec_records_equal_records_of_built_accelerators(self, design):
        spec, config = design
        derived = _spec_record(spec, config)
        built = _design_record(build_accelerator(spec, config))
        assert derived == built
        assert repr(derived) == repr(built)  # float bits and types too

    @pytest.mark.parametrize("kind, options", [
        ("loom", {"bits_per_cycle": 3}),
        ("loom", {"window_fanout": 3}),
        ("loom", {"warp": True}),
        ("dstripes", {"dynamic_precision": {"enabled": False}}),
        ("stripes", {"dynamic_precision": {"activation_reduction": 0.0}}),
        ("dpnn", {"bits_per_cycle": 2}),
    ])
    def test_an_invalid_spec_raises_the_constructors_error(self, kind,
                                                            options):
        spec = AcceleratorSpec.create(kind, **options)
        config = AcceleratorConfig(equivalent_macs=64)
        with pytest.raises(Exception) as built:
            build_accelerator.__wrapped__(spec, config)
        with pytest.raises(type(built.value)) as derived:
            simulate_jobs_batched([SimJob(_NETWORKS[2], spec, config)])
        assert str(derived.value) == str(built.value)

    def test_a_non_canonical_option_is_read_off_the_built_design(self):
        # A raw spec keeps a spelling create() would have normalised; the
        # constructor's view of it (a Loom-Trueb) is what the record reads.
        spec = AcceleratorSpec("loom", (("bits_per_cycle", True),))
        job = SimJob(_NETWORKS[0], spec)
        (result,) = simulate_jobs_batched([job])
        assert result.accelerator == "Loom-Trueb"
        _jobs_equal([result], _reference([job]))


class TestKernelPlanes:
    @given(picks=st.lists(
        st.tuples(st.integers(0, len(_NETWORKS) - 1), _designs()),
        min_size=1, max_size=8))
    @settings(max_examples=40, deadline=None)
    def test_mixed_flag_planes_equal_the_event_engine(self, picks):
        jobs = [SimJob(_NETWORKS[n], spec, config)
                for n, (spec, config) in picks]
        _jobs_equal(simulate_jobs_batched(jobs), _reference(jobs))

    def test_a_mixed_batch_takes_one_plane_per_kernel(self, monkeypatch):
        planes = _count_planes(monkeypatch)
        jobs = [SimJob(network, spec, config)
                for network in _NETWORKS[:3] for spec, config in _DESIGNS]
        _jobs_equal(simulate_jobs_batched(jobs), _reference(jobs))
        assert sorted(plane.kernel for plane in planes) \
            == ["dpnn", "loom", "stripes"]

    def test_the_vector_path_never_builds_an_accelerator(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("the vector engine built an accelerator")

        clear_memos()
        monkeypatch.setattr(jobs_spec, "build_accelerator", forbidden)
        jobs = [SimJob(network, spec, config)
                for network in _NETWORKS for spec, config in _DESIGNS]
        results = simulate_jobs_batched(jobs)
        monkeypatch.undo()
        _jobs_equal(results, _reference(jobs))

    def test_exotic_subclasses_fall_back_inside_mixed_planes(
            self, monkeypatch):
        from repro.accelerators import DStripes

        class TunedDStripes(DStripes):
            def datapath_pj_per_cycle(self):
                return 2.0 * super().datapath_pj_per_cycle()

        monkeypatch.setitem(jobs_spec.ACCELERATOR_KINDS, "tuned",
                            lambda config, options: TunedDStripes(config))
        monkeypatch.setitem(jobs_spec._KIND_CLASSES, "tuned",
                            ("repro.accelerators", "DStripes"))
        # A stock kind re-registered to another factory is exotic too.
        monkeypatch.setitem(jobs_spec.ACCELERATOR_KINDS, "stripes",
                            lambda config, options: TunedDStripes(config))
        jobs = [SimJob(_NETWORKS[n], spec, config)
                for n in (0, 4) for spec, config in _DESIGNS]
        jobs[3:3] = [SimJob(_NETWORKS[1], AcceleratorSpec("tuned")),
                     SimJob(_NETWORKS[2], AcceleratorSpec("stripes"))]
        try:
            results = simulate_jobs_batched(jobs)
            _jobs_equal(results, _reference(jobs))
        finally:
            clear_memos()  # build_accelerator memoised the re-registered kind
        assert results[3].accelerator == results[4].accelerator == "DStripes"
        assert results[3].total_energy_pj() > simulate_jobs_batched(
            [SimJob(_NETWORKS[1], AcceleratorSpec.create("dstripes"))]
        )[0].total_energy_pj()
