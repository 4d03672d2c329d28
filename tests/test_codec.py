"""The one result codec and the spliced wire path.

``NetworkResult.to_json`` / ``from_json`` are the only encoding a result
takes at rest and on the wire: every cache tier holds the text, and the
nodes splice it into their bodies.  These tests pin that the round trip is
exact (field for field, float bits included) for drawn design points and
hand-picked edge values, and that results served warm from a live cluster's
SQLite stores -- spliced, never re-encoded -- equal the event engine.
"""

import dataclasses
import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import ClusterCoordinator
from repro.cluster.worker import build_worker
from repro.explore.space import canonical_point, point_to_job
from repro.nn import available_networks
from repro.serve import ServeClient
from repro.sim.batched import simulate_jobs_batched
from repro.sim.jobs import ACCELERATOR_KINDS, execute_job
from repro.sim.results import _LAYER_FIELDS, LayerResult, NetworkResult
from repro.sim.validate import compare_layer_results

points = st.fixed_dictionaries({
    "network": st.sampled_from(available_networks()),
    "accelerator": st.sampled_from(sorted(ACCELERATOR_KINDS)),
    "equivalent_macs": st.sampled_from((16, 32, 64, 128, 256, 512)),
    "clock_ghz": st.integers(500, 2499).map(lambda mhz: mhz / 1000),
    "abin_bytes": st.sampled_from(tuple(1024 << j for j in range(8))),
})


def _job(point):
    return point_to_job(canonical_point(point))


def assert_same(decoded, original):
    """Field-for-field equality, float bits included."""
    assert compare_layer_results(decoded.layers, original.layers) == []
    assert (decoded.network, decoded.accelerator, decoded.clock_ghz) \
        == (original.network, original.accelerator, original.clock_ghz)
    # Equal values that print differently (-0.0 vs 0.0) differ here.
    assert decoded.to_dict() == original.to_dict()
    assert NetworkResult(decoded.network, decoded.accelerator,
                         list(decoded.layers),
                         decoded.clock_ghz).to_json() == original.to_json()


class TestCodec:
    @given(point=points)
    @settings(max_examples=40, deadline=None)
    def test_round_trip_of_drawn_points_is_exact(self, point):
        (result,) = simulate_jobs_batched([_job(point)])
        assert_same(NetworkResult.from_json(result.to_json()), result)

    def test_edge_values_round_trip(self):
        result = NetworkResult(network="edge", accelerator="Acc",
                               clock_ghz=1.25)
        result.add(LayerResult(
            layer_name="conv1", layer_kind="conv", cycles=-0.0,
            energy_pj=5e-324, weight_bits_read=math.ulp(1.0),
            activation_bits_read=1.7976931348623157e308,
            macs=2 ** 53 + 1, utilization=0.1 + 0.2,
            extra={"avg_activation_bits": 3.25, "avg_weight_bits": -0.0}))
        result.add(LayerResult(layer_name="fcé", layer_kind="fc",
                               cycles=1.0, macs=2 ** 64 + 7))
        decoded = NetworkResult.from_json(result.to_json())
        assert_same(decoded, result)
        assert math.copysign(1.0, decoded.layers[0].cycles) == -1.0
        assert decoded.layers[0].energy_pj == 5e-324
        assert decoded.layers[0].macs == 2 ** 53 + 1
        assert decoded.layers[1].macs == 2 ** 64 + 7
        assert decoded.layers[0].extra == {"avg_activation_bits": 3.25,
                                           "avg_weight_bits": -0.0}

    def test_encoding_is_memoised_until_the_result_changes(self):
        result = NetworkResult(network="n", accelerator="a")
        result.add(LayerResult(layer_name="l", layer_kind="conv", cycles=1.0))
        text = result.to_json()
        assert result.to_json() is text
        result.add(LayerResult(layer_name="m", layer_kind="fc", cycles=2.0))
        assert result.to_json() != text
        assert NetworkResult.from_json(result.to_json()).layers[1] \
            .layer_name == "m"


#: Two zoo networks x every accelerator kind, at non-default knobs.
CLUSTER_POINTS = [
    {"network": network, "accelerator": kind, "equivalent_macs": 32,
     "clock_ghz": 1.337, "abin_bytes": 4096}
    for network in ("alexnet", "mobilenet_v1")
    for kind in sorted(ACCELERATOR_KINDS)
]


class TestSplicedPath:
    def test_warm_store_answers_through_a_cluster_match_the_event_engine(
            self, tmp_path):
        workers = [build_worker(str(tmp_path / f"worker-{index}.db"))
                   for index in range(2)]
        for worker in workers:
            worker.start()
        coordinator = ClusterCoordinator([worker.url for worker in workers],
                                         health_interval_s=60.0)
        coordinator.start()
        try:
            client = ServeClient(coordinator.url, timeout_s=120.0)
            cold = client.submit_points(CLUSTER_POINTS)
            assert {entry.status for entry in cold} == {"executed"}
            for worker in workers:
                worker.core.cache.clear()  # warm answers come from SQLite
            warm = client.submit_points(CLUSTER_POINTS)
            streamed = client.submit_points_stream(CLUSTER_POINTS)
            assert sum(worker.core.cache.stats.disk_hits
                       for worker in workers) == len(CLUSTER_POINTS)
        finally:
            coordinator.stop()
            for worker in workers:
                worker.stop()
        for point, first, again, line in zip(CLUSTER_POINTS, cold, warm,
                                             streamed):
            assert again.status == line.status == "cached"
            assert again.key == first.key == line.key
            event = execute_job(_job(point), engine="event")
            for served in (again.result, line.result):
                assert compare_layer_results(served.layers,
                                             event.layers) == []
                assert (served.network, served.accelerator,
                        served.clock_ghz) == (event.network,
                                              event.accelerator,
                                              event.clock_ghz)


# -- LayerResult.from_dict's fast path ------------------------------------------

#: Floats with the cycle fix-up's zeros (both signs) drawn often.
floats = st.one_of(st.sampled_from((0.0, -0.0, 1.0)), st.floats())
layer_dicts = st.fixed_dictionaries({
    "layer_name": st.text(max_size=12),
    "layer_kind": st.sampled_from(("conv", "fc", "matmul")),
    "cycles": st.one_of(st.sampled_from((0.0, -0.0)),
                        st.floats(min_value=0.0), st.integers(0, 2 ** 70)),
    "compute_cycles": floats,
    "memory_cycles": floats,
    "energy_pj": floats,
    "weight_bits_read": floats,
    "activation_bits_read": floats,
    "activation_bits_written": floats,
    "macs": st.integers(0, 2 ** 70),
    "utilization": floats,
    "extra": st.dictionaries(st.text(max_size=8), floats, max_size=3),
})


def _spelling(layer):
    """Every attribute with its type and repr, in storage order."""
    return [(name, type(value), repr(value))
            for name, value in vars(layer).items()]


def _outcome(build, data):
    try:
        return build(data)
    except Exception as error:  # compared by type and message
        return type(error), str(error)


class TestLayerDecode:
    @given(data=layer_dicts)
    @settings(max_examples=300, deadline=None)
    def test_matches_the_keyword_constructor(self, data):
        fast = LayerResult.from_dict(data)
        slow = LayerResult(**data)
        assert type(fast) is LayerResult
        assert _spelling(fast) == _spelling(slow)
        assert fast.extra is slow.extra is data["extra"]

    def test_rejects_what_the_constructor_rejects_with_the_same_error(self):
        good = LayerResult(layer_name="l", layer_kind="conv",
                           cycles=1.0).to_dict()
        missing = dict(good)
        del missing["cycles"]
        bad = [
            {**good, "layer_kind": "pool"},
            {**good, "layer_kind": ["conv"]},
            {**good, "cycles": -1.0},
            {**good, "cycles": "1"},
            {**good, "compute_cycles": 0.0, "memory_cycles": 0.0,
             "cycles": -0.5},
            missing,
            {**good, "unknown": 1},
            {"layer_name": "l", "layer_kind": "conv"},
            [("layer_name", "l")],
        ]
        for data in bad:
            expected = _outcome(lambda d: LayerResult(**d), data)
            assert isinstance(expected, tuple), data  # it does raise
            assert _outcome(LayerResult.from_dict, data) == expected, data

    def test_a_partial_dict_takes_the_constructor_and_its_defaults(self):
        data = {"layer_name": "l", "layer_kind": "conv", "cycles": 4.0}
        assert _spelling(LayerResult.from_dict(data)) \
            == _spelling(LayerResult(**data))

    def test_compute_cycles_fix_up_is_kept(self):
        base = LayerResult(layer_name="l", layer_kind="fc",
                           cycles=7.0).to_dict()
        both_zero = LayerResult.from_dict(
            {**base, "compute_cycles": 0.0, "memory_cycles": -0.0})
        assert both_zero.compute_cycles == 7.0
        memory_bound = LayerResult.from_dict(
            {**base, "compute_cycles": 0.0, "memory_cycles": 3.0})
        assert memory_bound.compute_cycles == 0.0
        assert memory_bound.memory_cycles == 3.0

    def test_the_fast_path_stores_every_field(self):
        assert _LAYER_FIELDS == {
            f.name for f in dataclasses.fields(LayerResult)}

    def test_a_subclass_takes_the_constructor(self):
        class Tagged(LayerResult):
            def __post_init__(self):
                super().__post_init__()
                self.extra = {**self.extra, "tagged": 1.0}

        data = LayerResult(layer_name="l", layer_kind="matmul",
                           cycles=2.0).to_dict()
        decoded = Tagged.from_dict(data)
        assert type(decoded) is Tagged
        assert decoded.extra == {"tagged": 1.0}
