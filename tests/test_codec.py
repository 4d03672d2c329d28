"""The one result codec and the spliced wire path.

``NetworkResult.to_json`` / ``from_json`` are the only encoding a result
takes at rest and on the wire: every cache tier holds the text, and the
nodes splice it into their bodies.  The text is columnar -- ``{"network",
"accelerator", "clock_ghz", "layers": {<field>: [...]}}``, one list per
``LayerResult`` field.  These tests pin that the round trip is exact (field
for field, float bits included, re-encoding byte-identical) for drawn
design points, drawn layers and hand-picked edge values; that decoding
rejects what ``LayerResult`` rejects, and the old row form outright (a peer
answering one is a miss); and that results served warm from a live
cluster's SQLite stores -- spliced, never re-encoded -- equal the event
engine.
"""

import contextlib
import dataclasses
import json
import math
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.cluster import (ClusterCoordinator, ClusterWorker, PeerCacheBackend,
                           wire)
from repro.cluster.worker import build_worker
from repro.explore.space import canonical_point, point_to_job
from repro.nn import available_networks
from repro.serve import ServeClient
from repro.sim.batched import simulate_jobs_batched
from repro.sim.jobs import ACCELERATOR_KINDS, execute_job
from repro.sim.results import (
    LAYER_FIELDS,
    LayerResult,
    NetworkResult,
    _check_columns,
)
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
    text = original.to_json()
    # Re-encoding is byte-identical from the columns and from the rows.
    assert NetworkResult.from_dict(json.loads(text)).to_json() == text
    assert NetworkResult(decoded.network, decoded.accelerator,
                         list(decoded.layers),
                         decoded.clock_ghz).to_json() == text


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

    @given(rows=st.lists(st.fixed_dictionaries({
        "layer_name": st.text(max_size=8),
        "layer_kind": st.sampled_from(("conv", "fc", "matmul")),
        "cycles": st.one_of(st.sampled_from((0.0, -0.0, 5e-324)),
                            st.floats(min_value=0.0, allow_infinity=False),
                            st.integers(0, 2 ** 70)),
        "compute_cycles": st.floats(allow_nan=False),
        "memory_cycles": st.floats(allow_nan=False),
        "energy_pj": st.floats(allow_nan=False),
        "macs": st.integers(0, 2 ** 70),
        "utilization": st.floats(allow_nan=False),
        "extra": st.dictionaries(st.text(max_size=4),
                                 st.floats(allow_nan=False), max_size=2),
    }), max_size=6))
    @settings(max_examples=150, deadline=None)
    def test_drawn_layers_round_trip_exactly(self, rows):
        result = NetworkResult("n", "a", [LayerResult(**row) for row in rows],
                               clock_ghz=0.1 + 0.2)
        assert_same(NetworkResult.from_json(result.to_json()), result)

    def test_the_text_is_columnar(self):
        (result,) = simulate_jobs_batched([_job({"network": "alexnet",
                                                 "accelerator": "loom"})])
        data = json.loads(result.to_json())
        assert list(data) == ["network", "accelerator", "clock_ghz",
                              "layers"]
        assert list(data["layers"]) == list(LAYER_FIELDS)
        assert data["layers"]["layer_name"][:2] == ["conv1", "conv2"]
        assert {len(column) for column in data["layers"].values()} \
            == {len(result.layers)}

    def test_a_column_held_result_never_builds_rows(self):
        (result,) = simulate_jobs_batched([_job({"network": "nin",
                                                 "accelerator": "dpnn"})])
        decoded = NetworkResult.from_json(result.to_json())
        for held in (result, decoded):
            held.to_json()
            held.to_dict()
            held.total_cycles("conv"), held.average_utilization()
            assert held == decoded
            assert held._layers is None  # still columns
        assert decoded.total_traffic_bits("fc") \
            == sum(lr.total_traffic_bits for lr in result.layers if lr.is_fc)
        assert result._layers is not None and result._columns is None

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
    @given(key=st.text(max_size=70), status=st.text(max_size=10),
           value=st.dictionaries(st.text(max_size=5), st.floats(),
                                 max_size=3))
    @settings(max_examples=300, deadline=None)
    def test_an_entry_is_what_json_dumps_writes(self, key, status, value):
        text = json.dumps(value)
        assert wire.entry(key, status, text) == json.dumps(
            {"key": key, "status": status,
             "result": json.loads(text)}).encode("utf-8")

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


# -- decoding columns into layers ------------------------------------------------

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


def _columnar(rows):
    """The columnar ``to_dict`` form of layer dicts ``rows``."""
    return {"network": "n", "accelerator": "a", "clock_ghz": 1.0,
            "layers": {name: [row[name] for row in rows]
                       for name in LAYER_FIELDS}}


def _decoded_layers(rows):
    return NetworkResult.from_dict(_columnar(rows)).layers


#: Odd values a decoded JSON text may hold where a layer kind or a cycle
#: count belongs: unknown strings, other JSON types (unhashable included)
#: and, for counts, NaN, infinities and negatives.
_odd_kinds = st.one_of(
    st.text(max_size=3), st.none(), st.integers(-2, 2), st.booleans(),
    st.lists(st.just("conv"), max_size=1),
    st.dictionaries(st.just("k"), st.just("conv"), max_size=1))
_odd_cycles = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True), st.integers(-3, -1),
    st.booleans(), st.none(), st.text(max_size=2),
    st.lists(st.integers(0, 1), max_size=1))


def _with_odd(values, odd):
    """``values`` with each ``(index, value)`` of ``odd`` put in place."""
    values = list(values)
    for index, value in odd:
        if values:
            values[index % len(values)] = value
    return values


def _per_layer_check(columns):
    """The column check's reference: every layer through the constructor's
    tests, one by one."""
    for kind, cycles in zip(columns["layer_kind"], columns["cycles"]):
        if kind not in ("conv", "fc", "matmul") or cycles < 0:
            LayerResult(layer_name="", layer_kind=kind, cycles=cycles)


class TestLayerDecode:
    @given(rows=st.lists(layer_dicts, max_size=4))
    @settings(max_examples=300, deadline=None)
    def test_matches_the_keyword_constructor(self, rows):
        decoded = _decoded_layers(rows)
        assert [_spelling(layer) for layer in decoded] \
            == [_spelling(LayerResult(**row)) for row in rows]
        for layer, row in zip(decoded, rows):
            assert type(layer) is LayerResult
            assert layer.extra is row["extra"]

    def test_rejects_what_the_constructor_rejects_with_the_same_error(self):
        good = LayerResult(layer_name="l", layer_kind="conv",
                           cycles=1.0).to_dict()
        bad = [
            {**good, "layer_kind": "pool"},
            {**good, "layer_kind": ["conv"]},
            {**good, "cycles": -1.0},
            {**good, "cycles": "1"},
            {**good, "compute_cycles": 0.0, "memory_cycles": 0.0,
             "cycles": -0.5},
        ]
        for row in bad:
            expected = _outcome(lambda d: LayerResult(**d), row)
            assert isinstance(expected, tuple), row  # it does raise
            assert _outcome(_decoded_layers, [good, row]) == expected, row

    @given(kinds=st.lists(st.sampled_from(["conv", "fc", "matmul"]),
                          min_size=6, max_size=6),
           cycles=st.lists(st.floats(0.0, 1e9) | st.integers(0, 10 ** 6),
                           min_size=6, max_size=6),
           count=st.integers(0, 6),
           odd_kinds=st.lists(st.tuples(st.integers(0, 5), _odd_kinds),
                              max_size=2),
           odd_cycles=st.lists(st.tuples(st.integers(0, 5), _odd_cycles),
                               max_size=2))
    @example(kinds=["conv"] * 6, cycles=[1.0] * 6, count=2, odd_kinds=[],
             odd_cycles=[(0, math.nan), (1, -1)])  # a NaN that comes first
    @settings(max_examples=500, deadline=None)
    def test_the_fast_column_check_accepts_exactly_what_the_loop_does(
            self, kinds, cycles, count, odd_kinds, odd_cycles):
        columns = {name: [0.0] * count for name in LAYER_FIELDS}
        columns["layer_kind"] = _with_odd(kinds[:count], odd_kinds)
        columns["cycles"] = _with_odd(cycles[:count], odd_cycles)
        assert _outcome(_check_columns, columns) \
            == _outcome(_per_layer_check, columns)

    def test_rejects_anything_but_one_list_per_field(self):
        good = _columnar([LayerResult(layer_name="l", layer_kind="conv",
                                      cycles=1.0).to_dict()])
        columns = good["layers"]
        missing = dict(columns)
        del missing["cycles"]
        bad = [
            missing,
            {**columns, "unknown": [1]},
            {**columns, "cycles": (1.0,)},
            {**columns, "cycles": [1.0, 2.0]},
            [dict(zip(LAYER_FIELDS, values))
             for values in zip(*columns.values())],  # the row form
            "layers",
        ]
        for layers in bad:
            with pytest.raises((TypeError, ValueError)):
                NetworkResult.from_dict({**good, "layers": layers})
        with pytest.raises(KeyError):
            NetworkResult.from_dict({"network": "n", "accelerator": "a",
                                     "layers": columns})

    def test_a_partial_dict_takes_the_constructor_and_its_defaults(self):
        data = {"layer_name": "l", "layer_kind": "conv", "cycles": 4.0}
        assert _spelling(LayerResult.from_dict(data)) \
            == _spelling(LayerResult(**data))

    def test_compute_cycles_fix_up_is_kept(self):
        base = LayerResult(layer_name="l", layer_kind="fc",
                           cycles=7.0).to_dict()
        both_zero, memory_bound = _decoded_layers([
            {**base, "compute_cycles": 0.0, "memory_cycles": -0.0},
            {**base, "compute_cycles": 0.0, "memory_cycles": 3.0}])
        assert both_zero.compute_cycles == 7.0
        assert memory_bound.compute_cycles == 0.0
        assert memory_bound.memory_cycles == 3.0

    def test_the_columns_are_every_field(self):
        assert LAYER_FIELDS == tuple(
            f.name for f in dataclasses.fields(LayerResult))
        result = NetworkResult("n", "a", [LayerResult(
            layer_name="l", layer_kind="conv", cycles=1.0,
            extra={"x": 1.0})])
        assert tuple(result.to_dict()["layers"]) == LAYER_FIELDS

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


# -- the row form is refused ---------------------------------------------------------


def _row_form_text(result):
    """``result`` in the row form texts used before the columnar codec."""
    return json.dumps({"network": result.network,
                       "accelerator": result.accelerator,
                       "clock_ghz": result.clock_ghz,
                       "layers": [layer.to_dict() for layer in result.layers]})


@contextlib.contextmanager
def row_form_peer(text):
    """A fake peer answering every ``POST /cache/lookup`` key with
    ``text``; yields its URL."""

    class Handler(BaseHTTPRequestHandler):
        def do_POST(self):
            keys = json.loads(self.rfile.read(
                int(self.headers.get("Content-Length", 0))))["keys"]
            body = wire.frame_texts({key: text for key in keys})
            self.send_response(200)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        def log_message(self, *args):
            pass

    server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield f"http://127.0.0.1:{server.server_address[1]}"
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5.0)


class TestRowForm:
    def test_a_row_form_text_fails_from_json(self):
        (result,) = simulate_jobs_batched([_job({"network": "nin",
                                                 "accelerator": "loom"})])
        with pytest.raises(TypeError):
            NetworkResult.from_json(_row_form_text(result))

    def test_a_peer_answering_the_row_form_counts_a_miss(self):
        (result,) = simulate_jobs_batched([_job({"network": "nin",
                                                 "accelerator": "loom"})])
        with row_form_peer(_row_form_text(result)) as url, \
                ClusterWorker() as host:
            backend = PeerCacheBackend(host.loop, timeout_s=5.0)
            backend.configure([url, "http://nowhere:1"],
                              self_url="http://nowhere:1", recovery=True)
            assert backend.load_many(["k" * 64, "j" * 64]) == {}
            assert backend.peer_misses == 2
            assert backend.peer_hits == 0
