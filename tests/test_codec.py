"""The result codecs and the spliced wire path.

``NetworkResult.to_packed`` / ``from_packed`` are the encoding a result
takes at rest and between nodes: every cache tier holds the bytes, and the
nodes splice them into packed frames.  ``to_json`` / ``from_json`` are the
rendering for clients that ask for JSON; the text is columnar --
``{"network", "accelerator", "clock_ghz", "layers": {<field>: [...]}}``,
one list per ``LayerResult`` field.  These tests pin that both round trips
are exact (field for field, float bits and value types included,
re-encoding byte-identical) for drawn design points, drawn layers and
hand-picked edge values, and that a packed round trip renders the same
JSON bytes; that decoding rejects what ``LayerResult`` rejects, truncated
packed bytes, and the old row form outright (a peer answering one is a
miss); that a JSON client gets the same bytes it always did from a worker
and from a coordinator; that a shard answering a bad frame is failed over;
and that results served warm from a live cluster's SQLite stores --
spliced, never re-encoded -- equal the event engine.
"""

import contextlib
import dataclasses
import json
import math
import struct
import threading
import urllib.request
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.cluster import (ClusterCoordinator, ClusterWorker, PeerCacheBackend,
                           wire)
from repro.cluster.aio import AsyncHTTPServer, HTTPRequest
from repro.cluster.worker import build_worker
from repro.explore.space import canonical_point, point_to_job
from repro.nn import available_networks
from repro.serve import ServeClient, ServeError
from repro.serve.core import keyed_jobs, parse_jobs_request
from repro.sim.batched import simulate_jobs_batched
from repro.sim.jobs import ACCELERATOR_KINDS, execute_job, job_key
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
            body = json.dumps({"results": {key: json.loads(text)
                                           for key in keys}}).encode("utf-8")
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


# -- the packed codec ----------------------------------------------------------------


def _bits(value):
    """A value's type and spelling; a float's IEEE-754 bits.  NaN is NaN:
    its payload does not survive JSON (``extra`` travels as JSON in both
    codecs)."""
    if type(value) is float and value == value:
        return float, struct.pack("<d", value)
    return type(value), repr(value)


def _spelled(result):
    """Every field of ``result`` by :func:`_bits`: equal exactly when two
    results agree field for field, float bits and value types included."""
    columns = result.to_dict()["layers"]
    return ([_bits(result.network), _bits(result.accelerator),
             _bits(result.clock_ghz)],
            {name: [sorted((key, _bits(item)) for key, item in value.items())
                    if name == "extra" else _bits(value)
                    for value in values]
             for name, values in columns.items()})


#: Drawn results: any names, clocks of either number type and drawn layers
#: (``-0.0``, ``5e-324``, infinities and NaN among the floats, ints up to
#: 2**70 in a float column and in ``macs``, non-ASCII names and extras).
results = st.builds(
    lambda network, accelerator, clock_ghz, rows: NetworkResult(
        network, accelerator, [LayerResult(**row) for row in rows],
        clock_ghz=clock_ghz),
    st.text(max_size=8), st.text(max_size=8),
    st.one_of(st.sampled_from((1.0, -0.0, 5e-324)), st.floats(),
              st.integers(-2 ** 70, 2 ** 70)),
    st.lists(layer_dicts, max_size=5))


def _edge_result():
    result = NetworkResult(network="edgé", accelerator="Acc", clock_ghz=1.25)
    result.add(LayerResult(
        layer_name="conv1", layer_kind="conv", cycles=-0.0,
        energy_pj=5e-324, weight_bits_read=math.inf, macs=2 ** 63 - 1,
        extra={"avg_activation_bits": 3.25}))
    result.add(LayerResult(layer_name="fc\n\x00é", layer_kind="fc",
                           cycles=2 ** 70, macs=2 ** 64 + 7))
    return result


class TestPackedCodec:
    @given(result=results)
    @settings(max_examples=300, deadline=None)
    def test_a_packed_round_trip_is_exact_and_renders_the_same_json(
            self, result):
        decoded = NetworkResult.from_packed(result.to_packed())
        assert _spelled(decoded) == _spelled(result)
        assert decoded.to_json() == result.to_json()

    @given(point=points)
    @settings(max_examples=40, deadline=None)
    def test_drawn_points_round_trip_exactly(self, point):
        (result,) = simulate_jobs_batched([_job(point)])
        decoded = NetworkResult.from_packed(result.to_packed())
        assert_same(decoded, result)
        assert decoded.to_json() == result.to_json()
        assert len(result.to_packed()) < len(result.to_json())

    def test_edge_values_round_trip(self):
        result = _edge_result()
        decoded = NetworkResult.from_packed(result.to_packed())
        assert _spelled(decoded) == _spelled(result)
        assert decoded.layers[1].macs == 2 ** 64 + 7
        assert type(decoded.layers[1].cycles) is int
        assert math.copysign(1.0, decoded.layers[0].cycles) == -1.0

    def test_truncated_or_extended_bytes_are_rejected(self):
        packed = _edge_result().to_packed()
        for cut in range(len(packed)):
            with pytest.raises((ValueError, TypeError, KeyError)):
                NetworkResult.from_packed(packed[:cut])
        with pytest.raises(ValueError):
            NetworkResult.from_packed(packed + b"\x00")
        with pytest.raises(ValueError):
            NetworkResult.from_packed(b"JSON" + packed[4:])

    def test_decoding_validates_through_from_dict(self):
        bad = NetworkResult("n", "a", [LayerResult(
            layer_name="l", layer_kind="conv", cycles=1.0)])
        bad._layers[0].layer_kind = "pool"
        with pytest.raises(ValueError, match="layer_kind"):
            NetworkResult.from_packed(bad.to_packed())

    def test_decoded_results_share_no_mutable_column(self):
        # The layout and design sections are memoised; what a decode hands
        # out must still be its own.
        (result,) = simulate_jobs_batched([_job({"network": "nin",
                                                 "accelerator": "loom"})])
        packed = result.to_packed()
        first, second = (NetworkResult.from_packed(packed) for _ in range(2))
        for name in LAYER_FIELDS:
            assert first._columns[name] is not second._columns[name]
        assert first._columns["extra"][0] is not second._columns["extra"][0]
        first.layers[0].layer_name = "renamed"
        assert second.layers[0].layer_name == result.layers[0].layer_name

    def test_encoding_is_memoised_until_the_result_changes(self):
        result = NetworkResult(network="n", accelerator="a")
        result.add(LayerResult(layer_name="l", layer_kind="conv", cycles=1.0))
        packed = result.to_packed()
        assert result.to_packed() is packed
        result.add(LayerResult(layer_name="m", layer_kind="fc", cycles=2.0))
        assert NetworkResult.from_packed(result.to_packed()) \
            .layers[1].layer_name == "m"


# -- JSON at the edge ------------------------------------------------------------------


def _raw(url, path, payload=None, accept=None):
    """``(content type, body)`` of one plain HTTP request."""
    headers = {"Content-Type": "application/json"}
    if accept is not None:
        headers["Accept"] = accept
    request = urllib.request.Request(
        url + path, headers=headers, method="POST" if payload else "GET",
        data=json.dumps(payload).encode("utf-8") if payload else None)
    with urllib.request.urlopen(request, timeout=120.0) as response:
        return response.headers["Content-Type"], response.read()


EDGE_POINTS = CLUSTER_POINTS[:6]


def _expected_entries(status):
    """The JSON entries an in-process run renders for :data:`EDGE_POINTS`."""
    jobs = [_job(point) for point in EDGE_POINTS]
    return [wire.entry(job_key(job), status, result.to_json())
            for job, result in zip(jobs, simulate_jobs_batched(jobs))]


class TestJSONAtTheEdge:
    def test_a_worker_renders_the_bytes_a_json_client_always_got(self):
        with ClusterWorker() as worker:
            body = {"points": EDGE_POINTS}
            assert _raw(worker.url, "/jobs", body) == (
                "application/json",
                wire.frame_entries(_expected_entries("executed")))
            cached = _expected_entries("cached")
            # A worker never streams: an NDJSON client gets the document.
            assert _raw(worker.url, "/jobs", body,
                        accept="application/x-ndjson")[1] \
                == wire.frame_entries(cached)
            assert _raw(worker.url, "/jobs",
                        {"point": EDGE_POINTS[0]})[1] == cached[0]

    def test_a_coordinator_renders_the_bytes_a_json_client_always_got(self):
        workers = [ClusterWorker() for _ in range(2)]
        for worker in workers:
            worker.start()
        coordinator = ClusterCoordinator([worker.url for worker in workers],
                                         health_interval_s=60.0)
        coordinator.start()
        try:
            body = {"points": EDGE_POINTS}
            assert _raw(coordinator.url, "/jobs", body) == (
                "application/json",
                wire.frame_entries(_expected_entries("executed")))
            cached = _expected_entries("cached")
            content_type, streamed = _raw(coordinator.url, "/jobs", body,
                                          accept="application/x-ndjson")
            assert content_type == "application/x-ndjson"
            assert streamed == b"".join(
                wire.ndjson_line(index, entry)
                for index, entry in enumerate(cached)) \
                + b'{"done": true, "count": 6}\n'
            key = json.loads(cached[0])["key"]
            text = json.loads(cached[0])["result"]
            assert _raw(coordinator.url, f"/jobs/{key}")[1] == wire.entry(
                key, "done", json.dumps(text))
            # Packed when asked: the same results, spliced.
            content_type, packed = _raw(coordinator.url, "/jobs", body,
                                        accept=wire.PACKED)
            assert content_type == wire.PACKED
            assert [wire.json_entry(entry) for entry in wire.unframe(packed)] \
                == cached
        finally:
            coordinator.stop()
            for worker in workers:
                worker.stop()

    @pytest.mark.parametrize("accept", [
        "application/x-ndjson;q=0",
        "application/x-ndjson-seq",
        "application/x-loom-packed; q=0, application/x-ndjson;q=0.0",
        "*/*",
    ])
    def test_a_refused_or_unknown_type_gets_the_json_document(self, accept):
        workers = [ClusterWorker() for _ in range(2)]
        for worker in workers:
            worker.start()
        coordinator = ClusterCoordinator([worker.url for worker in workers],
                                         health_interval_s=60.0)
        coordinator.start()
        try:
            content_type, body = _raw(coordinator.url, "/jobs",
                                      {"points": EDGE_POINTS[:2]},
                                      accept=accept)
        finally:
            coordinator.stop()
            for worker in workers:
                worker.stop()
        assert content_type == "application/json"
        assert body == wire.frame_entries(_expected_entries("executed")[:2])


class TestAccept:
    @staticmethod
    def _wants(header, media_type):
        request = HTTPRequest(method="GET", path="/", headers={
            "accept": header}, body=b"", client="127.0.0.1:1")
        return request.wants(media_type)

    def test_media_ranges_are_split_and_parameters_dropped(self):
        header = "text/html, Application/X-NDJSON ;charset=utf-8;q=0.5"
        assert self._wants(header, "application/x-ndjson")
        assert self._wants(header, "text/html")
        assert not self._wants(header, "application/json")

    def test_q_zero_is_a_refusal(self):
        for header in ("application/x-ndjson;q=0",
                       "application/x-ndjson; q=0.000",
                       "application/x-ndjson;Q=0"):
            assert not self._wants(header, "application/x-ndjson"), header
        assert self._wants("application/x-ndjson;q=bad",
                           "application/x-ndjson")

    def test_a_longer_type_does_not_select_a_shorter_one(self):
        assert not self._wants("application/x-ndjson-seq",
                               "application/x-ndjson")
        assert not self._wants("*/*", wire.PACKED)
        assert not self._wants("", "application/x-ndjson")


# -- a shard that answers a bad frame ------------------------------------------------


@contextlib.contextmanager
def bad_shard(kind):
    """A shard that simulates its points but answers a truncated packed
    frame (``kind`` "truncated") or a JSON document ("json")."""
    async def handler(request, responder):
        if request.path == "/healthz":
            await responder.send_json(200, {"ok": True, "ring": True})
            return
        points, _ = parse_jobs_request(request.json())
        keyed = keyed_jobs(points)
        entries = [wire.packed_entry(key, "executed", result.to_packed())
                   for (_, key), result in zip(keyed, simulate_jobs_batched(
                       [job for job, _ in keyed]))]
        if kind == "truncated":
            await responder.send(200, wire.frame(entries)[:-7], wire.PACKED)
        else:
            await responder.send(200, wire.frame_entries(
                [wire.json_entry(entry) for entry in entries]),
                "application/json")

    server = AsyncHTTPServer(handler)
    server.start()
    try:
        yield server.url
    finally:
        server.stop()


class TestBadShardFrames:
    @pytest.mark.parametrize("kind", ["truncated", "json"])
    def test_a_bad_frame_fails_the_shard_over_bit_identically(self, kind):
        with bad_shard(kind) as bad_url, ClusterWorker() as worker:
            coordinator = ClusterCoordinator([bad_url, worker.url],
                                             peer_cache=False,
                                             health_interval_s=60.0)
            coordinator.start()
            try:
                jobs = [_job(point) for point in CLUSTER_POINTS]
                owners = [coordinator.ring.node_for(job_key(job))
                          for job in jobs]
                assert bad_url in owners and worker.url in owners
                served = ServeClient(coordinator.url, timeout_s=120.0) \
                    .submit_points(CLUSTER_POINTS)
                assert not coordinator.shards[bad_url].healthy
                assert coordinator.stats.shard_retries \
                    == owners.count(bad_url)
            finally:
                coordinator.stop()
        assert [job.status for job in served] \
            == ["executed"] * len(CLUSTER_POINTS)
        for job, entry, reference in zip(jobs, served,
                                         simulate_jobs_batched(jobs)):
            assert entry.key == job_key(job)
            assert _spelled(entry.result) == _spelled(reference)

    def test_a_failed_packed_stream_ends_in_its_error_record(self):
        with ClusterWorker() as worker:
            coordinator = ClusterCoordinator([worker.url], peer_cache=False,
                                             health_interval_s=60.0)
            coordinator.start()
            try:
                worker._server.stop(drain_timeout_s=0.0)
                with pytest.raises(ServeError) as excinfo:
                    ServeClient(coordinator.url, timeout_s=60.0) \
                        .submit_points_stream(CLUSTER_POINTS[:2])
            finally:
                coordinator.stop()
        assert excinfo.value.status == 503
        assert "no healthy workers" in excinfo.value.message
