"""Content keys: pinned golden keys, the canonical-payload oracle, and
spelling-independence of equal jobs.

``GOLDEN_KEYS`` pins the keys of a fixed job set as the original
``asdict``-based formula produced them; every existing store is keyed by
them, so any change here invalidates warm caches and must be deliberate.
"""

import dataclasses
import functools
import hashlib
import itertools
import json
import math
import struct
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.accelerators.base import AcceleratorConfig
from repro.canonical import canonical_number
from repro.energy.tech import TSMC_65NM
from repro.explore.space import canonical_point, point_to_job
from repro.memo import DESIGN_MEMO_SIZE, POINT_MEMO_SIZE, clear_memos
from repro.memory.dram import DRAMChannel, LPDDR4_4267
from repro.quant.dynamic import DynamicPrecisionModel
from repro.nn import available_networks
from repro.serve import core as serve_core
from repro.serve.core import keyed_jobs
from repro.sim.jobs import (
    AcceleratorSpec, NetworkSpec, SimJob, execute_job, job_key, spec_dict,
    spec_payload,
)
from repro.sim.jobs import spec as jobs_spec
from repro.sim.validate import compare_layer_results

#: The perfbench networks and designs (the paper's six networks, its
#: stock designs with Loom at 1, 2 and 4 bits per cycle).
NETWORKS = ("nin", "alexnet", "googlenet", "vggs", "vggm", "vgg19")
DESIGNS = (("dpnn", {}), ("stripes", {}), ("dstripes", {}),
           ("loom", {"bits_per_cycle": 1}), ("loom", {"bits_per_cycle": 2}),
           ("loom", {"bits_per_cycle": 4}))

CUSTOM_TECH = dataclasses.replace(TSMC_65NM, name="custom-28nm",
                                  feature_nm=28.0, activity_factor=0.6)


def oracle_payload(job: SimJob) -> str:
    """The original payload formula: ``json.dumps`` of ``spec_dict``."""
    return json.dumps(spec_dict(job), sort_keys=True, separators=(",", ":"))


def oracle_key(job: SimJob) -> str:
    """The original key formula: sha256 over :func:`oracle_payload`."""
    return hashlib.sha256(oracle_payload(job).encode("utf-8")).hexdigest()


def golden_jobs():
    """``(name, job)`` pairs of the pinned job set."""
    for network in NETWORKS:
        for kind, options in DESIGNS:
            label = "-".join([network, kind] + [f"{k}{v}" for k, v in
                                                options.items()])
            yield label, SimJob(NetworkSpec(network),
                                AcceleratorSpec.create(kind, **options))
    yield "dpnn-99", SimJob(NetworkSpec("alexnet", "99%"),
                            AcceleratorSpec.create("dpnn"))
    yield "loom-bpc2-dynamic", SimJob(
        NetworkSpec("googlenet", "99%"),
        AcceleratorSpec.create(
            "loom", bits_per_cycle=2,
            dynamic_precision=DynamicPrecisionModel(
                activation_reduction=0.5)))
    yield "stripes-effective-weights", SimJob(
        NetworkSpec("vggs", with_effective_weights=True),
        AcceleratorSpec.create("stripes"))
    yield "resnet18-groups", SimJob(NetworkSpec("resnet18", groups=2),
                                    AcceleratorSpec.create("loom"))
    yield "transformer-heads", SimJob(
        NetworkSpec("tiny_transformer", heads=2),
        AcceleratorSpec.create("dstripes"))
    yield "lpddr4", SimJob(NetworkSpec("alexnet"),
                           AcceleratorSpec.create("loom"),
                           AcceleratorConfig(dram=LPDDR4_4267))
    yield "capacities", SimJob(
        NetworkSpec("nin"), AcceleratorSpec.create("dpnn"),
        AcceleratorConfig(am_capacity_bytes=512 * 1024,
                          wm_capacity_bytes=3 * 1024 * 1024))
    yield "custom-tech", SimJob(NetworkSpec("vggm"),
                                AcceleratorSpec.create("loom"),
                                AcceleratorConfig(tech=CUSTOM_TECH))
    yield "perfbench-point", point_to_job(canonical_point({
        "network": "vgg19",
        "accelerator": {"kind": "loom", "bits_per_cycle": 4},
        "equivalent_macs": 256, "clock_ghz": 1.337, "abin_bytes": 4096,
        "charge_offchip_energy": False,
    }))


GOLDEN_KEYS = {
    "nin-dpnn":
        "018463176e29e623382349c5c4d17063ebe32652d6717cd98f4cd036b7a2eed0",
    "nin-stripes":
        "37469c278fabf2a84f96ad432ae8123f9ee89fc7c285b0b00caedb619e44b0a8",
    "nin-dstripes":
        "cca4dbe7690e9a620d2bad9c20d1d1597f255173314d32548c4564bb0d731a13",
    "nin-loom-bits_per_cycle1":
        "1b28149a106c091daaacc0482b533339b09ecb7730b76ae3c558724e76a73599",
    "nin-loom-bits_per_cycle2":
        "ea20eb2521576d730e33b8e80352266bfa539ef19eafe93b98947fd0189af743",
    "nin-loom-bits_per_cycle4":
        "4ffd623a8686aabf1f5ede52aae573119371766214a6376493c1f54330f8eeec",
    "alexnet-dpnn":
        "cfa91a0d967e1567108339a44bc587812675b6aa486690b773f60e8b1ad34c16",
    "alexnet-stripes":
        "6b7b2804d950b0ba2a9b85751e2cc080c4068f7666c9c67b1e8de66b720fae89",
    "alexnet-dstripes":
        "3d3cb2b9f6577695a4c28305b588811cc9eab057018c5b8abdb3e0d3b60781db",
    "alexnet-loom-bits_per_cycle1":
        "9be2d913815cd653506fa55d5f2185e3afa4404ff8ad2e93558f09cb896f44b2",
    "alexnet-loom-bits_per_cycle2":
        "d1417ea4305693f2e8dbe83b07c534252ce0933b599d563e81aedbffc1ea8515",
    "alexnet-loom-bits_per_cycle4":
        "1f584bf9766a34f374f354f5c409abc0ef3b9133ea119044ecbfb8758af565dd",
    "googlenet-dpnn":
        "f5b4b644eb1eeed4978405aeffa897463475b01a97870ff4db1ed4e585ad47a7",
    "googlenet-stripes":
        "100311afec10b08c0badd508513fd79d53e95cf0495dd9e8b81a513954cb5eb6",
    "googlenet-dstripes":
        "813946bacda48cce89caa2900acbb5c4c41aedd29d2b9834fb87d7950181e6c6",
    "googlenet-loom-bits_per_cycle1":
        "9a88a33576f16a386174139aac7a255f6ad7461e90941050d189fcf35e96c9be",
    "googlenet-loom-bits_per_cycle2":
        "f5143e6b9b9f3bd6482c44dc57655f4bf377a45ecfd2f571ef942a96bbccf460",
    "googlenet-loom-bits_per_cycle4":
        "45b09a807ab9a2567d8fd7398f5df771b604c01a180f1a255884c40c43a89ee5",
    "vggs-dpnn":
        "b3ce83cf094cb407cbf358c2480839b1fa668eb10887bf208fc45bc3c158c795",
    "vggs-stripes":
        "6e73a31e6ea3918feaacd903dbffdb691444085adbed4010e6e3adfe82bab2b4",
    "vggs-dstripes":
        "61e204eb08a6b78e0d7cf6902ace941624da06695603df60d6f91d039867442a",
    "vggs-loom-bits_per_cycle1":
        "6db665d4aa785a7a6dcd49119008e418dcfe28cb0e320246cc359424ee9f8fb0",
    "vggs-loom-bits_per_cycle2":
        "12ec3661a3abc5400ce9f3858bb660e1bd27fd96f5f3b20e0b1452fa73b29229",
    "vggs-loom-bits_per_cycle4":
        "88402247e8b70ea9c736ed282831de62b3c279aaaa73ac129a455b22dd8bbdc7",
    "vggm-dpnn":
        "a9e87da008ef9baa522da284d8dd0bb6ec9975cf5fadfbd4ccf6d69e62f2c515",
    "vggm-stripes":
        "2e3a6c23b65507d435f2aaebec20a5e6ec05f2eec6ae2ce78c32a2516109679a",
    "vggm-dstripes":
        "2e0e8f3af7fa25793d5c454dd770afa8b831bd9ad05c2cc3439cda75163a5bed",
    "vggm-loom-bits_per_cycle1":
        "7ed65f07988e52ccca6f0d303a0beb53cc7c9eecf460a57d021b2fa9cdebce40",
    "vggm-loom-bits_per_cycle2":
        "58cb015a00fb15159b7616b658f6dbccc69b6f89e686b40f8b4efc9f65ce4f99",
    "vggm-loom-bits_per_cycle4":
        "9c902c6c0422973902e00b6de9d68ab5d86ee8e94bae3f21f20aa5adaa4b614e",
    "vgg19-dpnn":
        "1ccbc68a2341aaa0efe43647f532be08f935672938fc0d8fb2affa224f1cf19b",
    "vgg19-stripes":
        "681866cd4d5ed3fbba19c30866913afdc4ab9973aacd93e5d88a44db18aa7822",
    "vgg19-dstripes":
        "ce60e9b5bfcd320618210325f027e5618c2d0720a24d1de92c713bd6aa3372b4",
    "vgg19-loom-bits_per_cycle1":
        "220efc89b1fbe7ebbcf90b9567998bd355105d860acadf858ac3a01839af4d7d",
    "vgg19-loom-bits_per_cycle2":
        "3fe0c5a01eadd757d4cba00a4e5ca866d1dc73b056102150112cc5c97031e562",
    "vgg19-loom-bits_per_cycle4":
        "7c45c4e7797d2f89080bc966b0a7e2c10cab63a32ff9819f4b5c95e4a0812a1d",
    "dpnn-99":
        "cfa91a0d967e1567108339a44bc587812675b6aa486690b773f60e8b1ad34c16",
    "loom-bpc2-dynamic":
        "e64dc5ca163dc4a5d6528607e7f68579143606192d1795b549c7d53c71fc37ce",
    "stripes-effective-weights":
        "418a122ea99408776f2790bc1cca4a3f31a3703cc235d51dad46e16fe573d637",
    "resnet18-groups":
        "9e1e8603b4a165fada3add6d0850a5c3a5c5dc5c52f3ab13ef26bbfa2ec5e2df",
    "transformer-heads":
        "b34aaa47b77231de4a5469cf1ebd3b2ba18ae58baabcec8a00a1814bad82afca",
    "lpddr4":
        "71887787b477842b94a45bb8f9523105b81fea292a70a9584ad98e8c4883ffe9",
    "capacities":
        "c1acf9e9f910e29b5a668d00dd7dd6b427852781b568c46982e1677cc8b07924",
    "custom-tech":
        "246ce9cad3f3b3c73f884dfd61f50aa0e99b468ea7ef763d25b2430cb6752563",
    "perfbench-point":
        "2f49a3171b9b9581539ac12fbd273fa5965dcb56f795ff16f76a80b74fd7a065",
}


class TestGoldenKeys:
    def test_every_golden_key_is_unchanged(self):
        keys = {name: job_key(job) for name, job in golden_jobs()}
        assert keys == GOLDEN_KEYS

    def test_golden_keys_match_the_oracle(self):
        for name, job in golden_jobs():
            assert oracle_key(job) == GOLDEN_KEYS[name], name

    def test_profile_insensitive_design_shares_the_100_percent_key(self):
        assert GOLDEN_KEYS["dpnn-99"] == GOLDEN_KEYS["alexnet-dpnn"]


# -- the oracle over drawn jobs -----------------------------------------------

finite = st.floats(allow_nan=False, allow_infinity=False)
accelerators = st.one_of(
    st.sampled_from(("dpnn", "stripes", "dstripes")).map(AcceleratorSpec.create),
    st.builds(
        lambda bits, fanout, cascading, reduction: AcceleratorSpec.create(
            "loom", bits_per_cycle=bits, window_fanout=fanout,
            use_cascading=cascading,
            **({} if reduction is None else {
                "dynamic_precision": DynamicPrecisionModel(
                    activation_reduction=reduction)})),
        st.sampled_from((1, 2, 4)), st.integers(1, 4), st.booleans(),
        st.one_of(st.none(), st.floats(0.01, 1.0))),
)
networks = st.builds(
    NetworkSpec,
    name=st.sampled_from(available_networks()),
    accuracy=st.sampled_from(("100%", "99%")),
    with_effective_weights=st.booleans(),
    groups=st.one_of(st.none(), st.integers(1, 64)),
    heads=st.one_of(st.none(), st.integers(1, 16)),
)
configs = st.builds(
    AcceleratorConfig,
    equivalent_macs=st.integers(1, 64).map(lambda units: 16 * units),
    clock_ghz=st.floats(min_value=5e-324, max_value=1e6),
    am_capacity_bytes=st.one_of(st.none(), st.integers(1, 2 ** 40)),
    wm_capacity_bytes=st.one_of(st.none(), st.integers(1, 2 ** 40)),
    abin_bytes=st.integers(1, 2 ** 20),
    about_bytes=st.integers(1, 2 ** 20),
    dram=st.sampled_from((None, LPDDR4_4267)),
    charge_offchip_energy=st.booleans(),
    tech=st.one_of(
        st.just(TSMC_65NM),
        st.builds(lambda factor, name: dataclasses.replace(
            TSMC_65NM, activity_factor=factor, name=name),
            st.floats(0.01, 1.0), st.text(max_size=8))),
)
jobs = st.builds(SimJob, network=networks, accelerator=accelerators,
                 config=configs)


class TestOracle:
    @given(job=jobs)
    @settings(max_examples=300, deadline=None)
    def test_payload_and_key_match_the_original_formula(self, job):
        assert spec_payload(job) == oracle_payload(job)
        assert job_key(job) == oracle_key(job)

    @given(value=st.one_of(finite, st.just(float("nan")),
                           st.just(float("inf")), st.just(-float("inf")),
                           st.integers(-2 ** 80, 2 ** 80), st.text(),
                           st.booleans(), st.none()))
    @settings(max_examples=200, deadline=None)
    def test_any_config_scalar_encodes_like_json(self, value):
        assert jobs_spec._value_json(value) == json.dumps(value)

    def test_the_key_hashes_the_payload(self):
        for _, job in golden_jobs():
            assert job_key(job) == hashlib.sha256(
                spec_payload(job).encode()).hexdigest()

    def test_fragment_memo_is_bounded(self):
        assert jobs_spec._fragment.cache_info().maxsize == DESIGN_MEMO_SIZE


# -- equal jobs, one key ------------------------------------------------------

BASE_POINT = {"network": "alexnet", "accelerator": {"kind": "loom"}}

#: Pairs of raw points that describe one job, canonical spelling first.
SPELLINGS = (
    ({"clock_ghz": 1.0}, {"clock_ghz": 1}),
    ({"clock_ghz": 2.0}, {"clock_ghz": 2}),
    ({"equivalent_macs": 128}, {"equivalent_macs": 128.0}),
    ({"abin_bytes": 4096}, {"abin_bytes": 4096.0}),
    ({"am_capacity_bytes": 1 << 20}, {"am_capacity_bytes": float(1 << 20)}),
    ({"charge_offchip_energy": False}, {"charge_offchip_energy": 0}),
    ({"accelerator": {"kind": "loom", "bits_per_cycle": 2}},
     {"accelerator": {"kind": "loom", "bits_per_cycle": 2.0}}),
    ({"accelerator": {"kind": "loom", "use_cascading": False}},
     {"accelerator": {"kind": "loom", "use_cascading": 0}}),
    ({"network": "resnet18", "groups": 2}, {"network": "resnet18",
                                            "groups": 2.0}),
)


def _point_job(overrides):
    return point_to_job(canonical_point({**BASE_POINT, **overrides}))


class TestSpellings:
    def test_equal_jobs_share_one_key_in_either_memo_order(self):
        for canonical, other in SPELLINGS:
            first, second = _point_job(canonical), _point_job(other)
            assert first == second
            keys = []
            for order in ((first, second), (second, first)):
                clear_memos()
                keys += [job_key(job) for job in order]
            assert set(keys) == {oracle_key(first)}, (canonical, other)
            assert spec_payload(second) == oracle_payload(first)

    def test_equal_spellings_simulate_alike(self):
        first = _point_job({"clock_ghz": 1.0, "equivalent_macs": 128,
                            "accelerator": {"kind": "loom",
                                            "bits_per_cycle": 2}})
        second = _point_job({"clock_ghz": 1, "equivalent_macs": 128.0,
                             "accelerator": {"kind": "loom",
                                             "bits_per_cycle": 2.0}})
        results = [execute_job(job) for job in (first, second)]
        assert compare_layer_results(results[0].layers,
                                     results[1].layers) == []
        assert results[0].to_dict() == results[1].to_dict()
        assert results[0].to_json() == results[1].to_json()

    def test_python_api_spellings_are_canonical_too(self):
        assert type(AcceleratorConfig(clock_ghz=1).clock_ghz) is float
        clear_memos()
        spelled = SimJob(NetworkSpec("alexnet", groups=None),
                         AcceleratorSpec.create("loom"),
                         AcceleratorConfig(clock_ghz=1))
        assert job_key(spelled) == GOLDEN_KEYS["alexnet-loom-bits_per_cycle1"]
        assert type(NetworkSpec("resnet18", groups=2.0).groups) is int

    def test_every_scalar_config_field_has_a_declared_type(self):
        from repro.accelerators.base import _SCALAR_FIELDS

        nested = {"dram", "tech"}
        assert {name for name, _ in _SCALAR_FIELDS} == {
            f.name for f in dataclasses.fields(AcceleratorConfig)} - nested


class TestCanonicalNumber:
    def test_spells_equal_values_as_the_declared_type(self):
        assert type(canonical_number(1, float)) is float
        assert type(canonical_number(2.0, int)) is int
        assert type(canonical_number(True, int)) is int
        assert canonical_number(0.0, bool) is False

    def test_leaves_values_it_cannot_convert_exactly(self):
        for value, declared in ((1.5, int), (float("nan"), int),
                                (float("inf"), int), (2 ** 60 + 1, float),
                                (2, bool), ("1", int), (None, int)):
            assert canonical_number(value, declared) is value

    def test_spells_a_float_zero_as_positive_zero(self):
        for value in (-0.0, 0.0, 0, False):
            converted = canonical_number(value, float)
            assert type(converted) is float
            assert math.copysign(1.0, converted) == 1.0
        assert canonical_number(-0.0, int) == 0
        assert type(canonical_number(-0.0, int)) is int


# -- custom technology parameters and DRAM channels ----------------------------


def _custom_tech(**spelled):
    return dataclasses.replace(TSMC_65NM, name="custom", **spelled)


def _custom_dram(**spelled):
    return DRAMChannel(**{"name": "custom", "transfer_rate_mts": 4267.0,
                          "interface_bits": 32, "efficiency": 0.85,
                          "energy_pj_per_bit": 15.0, **spelled})


#: Pairs of equal nested config values, canonical spelling first.
NESTED_SPELLINGS = (
    ({"tech": _custom_tech(feature_nm=65.0)},
     {"tech": _custom_tech(feature_nm=65)}),
    ({"tech": _custom_tech(clock_ghz=1.0, activity_factor=1.0)},
     {"tech": _custom_tech(clock_ghz=True, activity_factor=1)}),
    ({"dram": _custom_dram(energy_pj_per_bit=0.0)},
     {"dram": _custom_dram(energy_pj_per_bit=-0.0)}),
    ({"dram": _custom_dram(transfer_rate_mts=4267.0, interface_bits=32)},
     {"dram": _custom_dram(transfer_rate_mts=4267, interface_bits=32.0)}),
)


class TestNestedSpellings:
    def test_numeric_fields_are_stored_as_their_declared_types(self):
        tech = _custom_tech(feature_nm=65, clock_ghz=True)
        assert type(tech.feature_nm) is float
        assert type(tech.clock_ghz) is float
        dram = _custom_dram(transfer_rate_mts=4267, interface_bits=32.0,
                            energy_pj_per_bit=-0.0)
        assert type(dram.transfer_rate_mts) is float
        assert type(dram.interface_bits) is int
        assert math.copysign(1.0, dram.energy_pj_per_bit) == 1.0

    def test_equal_custom_sets_share_one_key_in_either_memo_order(self):
        for canonical, other in NESTED_SPELLINGS:
            first, second = (SimJob(NetworkSpec("alexnet"),
                                    AcceleratorSpec.create("loom"),
                                    AcceleratorConfig(**spelled))
                             for spelled in (canonical, other))
            assert first == second
            keys, payloads = [], []
            for order in ((first, second), (second, first)):
                clear_memos()
                keys += [job_key(job) for job in order]
                payloads += [spec_payload(job) for job in order]
            assert set(keys) == {oracle_key(first)}, other
            assert set(payloads) == {oracle_payload(first)}, other
            results = [execute_job(job) for job in (first, second)]
            assert compare_layer_results(results[0].layers,
                                         results[1].layers) == []
            assert results[0].to_json() == results[1].to_json()

    def test_invalid_values_are_still_rejected(self):
        for spelled in ({"feature_nm": 0}, {"feature_nm": -0.0},
                        {"activity_factor": 0}):
            with pytest.raises(ValueError):
                _custom_tech(**spelled)
        for spelled in ({"transfer_rate_mts": 0}, {"interface_bits": 0.0},
                        {"energy_pj_per_bit": -1}):
            with pytest.raises(ValueError):
                _custom_dram(**spelled)


# -- the raw point memo in keyed_jobs -------------------------------------------


def oracle_entry(raw):
    """What ``keyed_jobs`` must answer for ``raw``, computed without it."""
    job = point_to_job(canonical_point(raw))
    return job, job_key(job)


def assert_matches_oracle(entry, raw):
    job, key = entry
    oracle_job, oracle_job_key = oracle_entry(raw)
    assert job == oracle_job
    assert spec_payload(job) == oracle_payload(oracle_job)
    assert key == oracle_job_key == oracle_key(oracle_job)


#: The perfbench axes, plus spellings of the same values.
PERFBENCH_ACCELERATORS = ({"kind": "dpnn"}, {"kind": "stripes"},
                          {"kind": "dstripes"},
                          {"kind": "loom", "bits_per_cycle": 1},
                          {"kind": "loom", "bits_per_cycle": 2},
                          {"kind": "loom", "bits_per_cycle": 4})


def _spelled(value):
    """``value`` and its equal spellings as a raw point may carry them."""
    spellings = [st.just(value)]
    if type(value) is int:
        spellings.append(st.just(float(value)))
        if value in (0, 1):
            spellings.append(st.just(bool(value)))
    elif type(value) is float:
        if value == int(value):
            spellings.append(st.just(int(value)))
        if value == 0.0:
            spellings.append(st.just(-0.0))
    return st.one_of(*spellings)


def _raw_accelerator(design):
    options = {name: value for name, value in design.items()
               if name != "kind"}
    spelled = st.fixed_dictionaries(
        {"kind": st.just(design["kind"]),
         **{name: _spelled(value) for name, value in options.items()}})
    forms = [spelled,
             spelled.map(lambda d: [d["kind"], {k: v for k, v in d.items()
                                                if k != "kind"}])]
    if not options:
        forms.append(st.just(design["kind"]))
    return st.one_of(*forms)


raw_points = st.fixed_dictionaries(
    {"network": st.sampled_from(NETWORKS),
     "accelerator": st.sampled_from(PERFBENCH_ACCELERATORS).flatmap(
         _raw_accelerator),
     "equivalent_macs": st.sampled_from((32, 64, 128, 256, 512)).flatmap(
         _spelled),
     "clock_ghz": st.sampled_from((0.5, 1.0, 1.337, 2.0)).flatmap(_spelled),
     "abin_bytes": st.sampled_from((1024, 4096, 65536)).flatmap(_spelled)},
    optional={"accuracy": st.sampled_from(("100%", "99%")),
              "charge_offchip_energy": st.sampled_from(
                  (True, False, 1, 0, 1.0, 0.0, -0.0)),
              "dram": st.just("lpddr4-4267"),
              "am_capacity_bytes": st.sampled_from(
                  (None, 1 << 20)).flatmap(_spelled)},
)


def point_memo_size() -> int:
    return serve_core._keyed_spelling.cache_info().currsize


#: Raw JSON-like values as points may carry them, floats of every bit
#: pattern (NaN, -0.0, infinities) included.
_hashable_scalars = (st.none() | st.booleans() | st.integers()
                     | st.floats() | st.text(max_size=4))
spelled_values = st.recursive(
    _hashable_scalars,
    lambda children: (st.lists(children, max_size=3)
                      | st.lists(children, max_size=3).map(tuple)
                      | st.dictionaries(_hashable_scalars, children,
                                        max_size=3)),
    max_leaves=12)


def spelled_alike(a, b) -> bool:
    """Same types throughout, same float bits, same dict item order."""
    if type(a) is not type(b):
        return False
    if type(a) is float:
        return struct.pack("<d", a) == struct.pack("<d", b)
    if type(a) is dict:
        return len(a) == len(b) and all(
            spelled_alike(ka, kb) and spelled_alike(va, vb)
            for (ka, va), (kb, vb) in zip(a.items(), b.items()))
    if type(a) in (list, tuple):
        return len(a) == len(b) and all(map(spelled_alike, a, b))
    return a == b


class TestPointMemo:
    @given(raw=raw_points)
    @settings(max_examples=150, deadline=None)
    def test_drawn_points_match_the_oracle_on_first_sight_and_repeat(
            self, raw):
        serve_core._keyed_spelling.cache_clear()
        (first,) = keyed_jobs([raw])
        assert_matches_oracle(first, raw)
        (again,) = keyed_jobs([raw])
        assert again[0] is first[0]  # answered by the memo
        assert_matches_oracle(again, raw)

    #: Groups of equal raw spellings of one point (over ``BASE_POINT``).
    SPELLING_GROUPS = (
        [{"clock_ghz": 1}, {"clock_ghz": 1.0}, {"clock_ghz": True}],
        [{"charge_offchip_energy": 0.0}, {"charge_offchip_energy": -0.0},
         {"charge_offchip_energy": False}, {"charge_offchip_energy": 0}],
        [{"accelerator": {"kind": "loom", "use_cascading": -0.0}},
         {"accelerator": {"kind": "loom", "use_cascading": 0.0}}],
        [{"accelerator": {"kind": "loom", "bits_per_cycle": 1}},
         {"accelerator": {"kind": "loom", "bits_per_cycle": 1.0}},
         {"accelerator": {"kind": "loom", "bits_per_cycle": True}}],
        # Nested accelerator options take DynamicPrecisionModel's types.
        [{"accelerator": {"kind": "loom",
                          "dynamic_precision": {"enabled": True}}},
         {"accelerator": {"kind": "loom",
                          "dynamic_precision": {"enabled": 1}}},
         {"accelerator": {"kind": "loom",
                          "dynamic_precision": {"enabled": 1.0}}}],
        [{"accelerator": {"kind": "loom",
                          "dynamic_precision": {"enabled": False}}},
         {"accelerator": {"kind": "loom",
                          "dynamic_precision": {"enabled": 0}}},
         {"accelerator": {"kind": "loom",
                          "dynamic_precision": {"enabled": -0.0}}}],
        [{"accelerator": {"kind": "dstripes", "dynamic_precision": {
            "activation_reduction": 1.0}}},
         {"accelerator": {"kind": "dstripes", "dynamic_precision": {
            "activation_reduction": 1}}},
         {"accelerator": {"kind": "dstripes", "dynamic_precision": {
            "activation_reduction": True}}}],
        [{"accelerator": {"kind": "loom", "dynamic_precision": {
            "enabled": True, "activation_reduction": 0.5}}},
         {"accelerator": {"kind": "loom", "dynamic_precision": {
            "activation_reduction": 0.5, "enabled": 1}}}],
    )

    def test_spellings_match_the_oracle_in_every_memo_order(self):
        for group in self.SPELLING_GROUPS:
            points = [{**BASE_POINT, **spelled} for spelled in group]
            for order in itertools.permutations(points):
                clear_memos()
                for raw in order + order:
                    (entry,) = keyed_jobs([raw])
                    assert_matches_oracle(entry, raw)
                assert point_memo_size() == len(group)

    @given(value=spelled_values)
    @settings(max_examples=300, deadline=None)
    def test_thawing_inverts_freezing(self, value):
        thawed = serve_core._thawed(serve_core._frozen(value))
        assert spelled_alike(thawed, value)
        assert serve_core._frozen(thawed) == serve_core._frozen(value)

    def test_spellings_never_share_an_entry(self):
        frozen = serve_core._frozen
        values = [True, 1, 1.0, "1", 0.0, -0.0, 0, False, None, "",
                  [1], (1,), {"a": 1}, {"a": 1.0}, {"a": True}, [1.0],
                  {1: 1}, {True: 1}, {"a": 1, "b": 2}, {"b": 2, "a": 1},
                  [[1]], [(1,)], [{"a": -0.0}], [{"a": 0.0}],
                  float("inf"), -float("inf")]
        spellings = [frozen(value) for value in values]
        for (i, a), (j, b) in itertools.combinations(
                enumerate(spellings), 2):
            assert a != b, (values[i], values[j])
        assert frozen({"a": [1, {"b": 2.5}]}) == frozen({"a": [1, {"b": 2.5}]})

    def test_values_it_cannot_spell_bypass_the_memo(self):
        class Clock(float):
            pass

        clear_memos()
        raw = {**BASE_POINT, "clock_ghz": Clock(1.5)}
        for _ in range(2):
            (entry,) = keyed_jobs([raw])
            assert_matches_oracle(entry, raw)
        assert point_memo_size() == 0

    def test_an_invalid_point_raises_the_same_error_every_time(self):
        clear_memos()
        for raw in ({"network": "alexnet"},
                    {"network": "alexnet", "accelerator": {"kind": "nope"}},
                    {**BASE_POINT, "equivalent_macs": 20},
                    {**BASE_POINT, "no_such_parameter": 1},
                    [1, 2]):
            errors = []
            for _ in range(2):
                try:
                    keyed_jobs([raw])
                except ValueError as error:
                    errors.append(str(error))
            assert len(errors) == 2 and errors[0] == errors[1], raw
        assert point_memo_size() == 0

    def test_the_memo_is_bounded(self, monkeypatch):
        assert serve_core._keyed_spelling.cache_info().maxsize \
            == POINT_MEMO_SIZE
        small = functools.lru_cache(maxsize=8)(
            serve_core._keyed_spelling.__wrapped__)
        monkeypatch.setattr(serve_core, "_keyed_spelling", small)
        points = [{**BASE_POINT, "clock_ghz": 1.0 + index / 64}
                  for index in range(40)]
        for raw in points:
            keyed_jobs([raw, points[0]])  # keeps the first point recent
            assert small.cache_info().currsize <= 8
        assert small.cache_info().currsize == 8
        first = small(serve_core._frozen(points[0]))
        misses = small.cache_info().misses
        (entry,) = keyed_jobs([points[0]])
        assert entry is first
        assert small.cache_info().misses == misses  # still memoised
        keyed_jobs([points[1]])
        assert small.cache_info().misses == misses + 1  # was evicted

    def test_threads_keying_the_same_points_agree(self):
        clear_memos()
        points = [
            {"network": network, "accelerator": dict(design),
             "equivalent_macs": macs, "clock_ghz": clock}
            for network, design, macs, clock in itertools.islice(
                itertools.product(NETWORKS, PERFBENCH_ACCELERATORS,
                                  (32, 64, 128, 256, 512),
                                  (0.5, 0.75, 1.0, 1.25, 1.5, 2.0)), 1000)
        ]
        answers = [None] * 8
        start = threading.Barrier(len(answers))

        def key_all(slot):
            start.wait()
            keys = []
            for index in range(0, len(points), 16):
                keys += [key for _, key in keyed_jobs(points[index:index + 16])]
            answers[slot] = keys

        threads = [threading.Thread(target=key_all, args=(slot,))
                   for slot in range(len(answers))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        expected = [oracle_key(point_to_job(canonical_point(raw)))
                    for raw in points]
        assert all(keys == expected for keys in answers)
        assert point_memo_size() == len(points)
