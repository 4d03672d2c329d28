"""Property-based differential tests for the simulation engines.

Hypothesis generates random layer geometries -- spatial shapes, strides,
paddings, group counts, attention head counts and precisions -- and for every
generated layer asserts the three contracts the engines promise:

* **exactness**: the vector engine produces a
  :class:`~repro.sim.results.LayerResult` that equals the per-layer event
  reference field for field (``==`` on the floats, no tolerance);
* **sanity**: cycle and energy counts are finite and non-negative, and
  utilization stays in [0, 1];
* **monotonicity**: raising an activation or weight precision never makes a
  precision-exploiting design faster or more energy-frugal.

The Hypothesis profile is pinned in the root ``conftest.py`` (derandomized,
bounded examples) so CI runs are deterministic.
"""

from __future__ import annotations

import dataclasses

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, strategies as st  # noqa: E402

from repro.accelerators import AcceleratorConfig, DPNN, DStripes, Stripes  # noqa: E402
from repro.core import Loom  # noqa: E402
from repro.nn.layers import Conv2D, FullyConnected, MatMul, TensorShape  # noqa: E402
from repro.nn.network import LayerWithPrecision  # noqa: E402
from repro.quant.precision import LayerPrecision  # noqa: E402
from repro.sim.batched import build_layer_table, simulate_layer_table  # noqa: E402
from repro.sim.results import LayerResult  # noqa: E402

# Small-scale configuration keeps the generated tile math fast while still
# exercising every closed form; one design per distinct vector kernel.
_CONFIG = AcceleratorConfig(equivalent_macs=32)
DESIGNS = [
    DPNN(_CONFIG),
    Stripes(_CONFIG),
    DStripes(_CONFIG),
    Loom(_CONFIG, bits_per_cycle=1),
    Loom(_CONFIG, bits_per_cycle=2),
    Loom(_CONFIG, bits_per_cycle=4),
    Loom(_CONFIG, use_effective_weight_precision=True),
    Loom(_CONFIG, use_cascading=False, replicate_filters=True),
]


def _resolved(layer, input_shape: TensorShape,
              precision: LayerPrecision) -> LayerWithPrecision:
    return LayerWithPrecision(
        layer=layer,
        input_shape=input_shape,
        output_shape=layer.output_shape(input_shape),
        precision=precision,
    )


@st.composite
def precisions(draw) -> LayerPrecision:
    effective = draw(st.one_of(
        st.none(),
        st.floats(min_value=1.0, max_value=16.0,
                  allow_nan=False, allow_infinity=False),
    ))
    return LayerPrecision(
        activation_bits=draw(st.integers(1, 16)),
        weight_bits=draw(st.integers(1, 16)),
        effective_weight_bits=effective,
    )


@st.composite
def conv_layers(draw) -> LayerWithPrecision:
    groups = draw(st.sampled_from([1, 2, 3, 4]))
    in_per_group = draw(st.integers(1, 6))
    out_per_group = draw(st.integers(1, 6))
    kernel = draw(st.integers(1, 5))
    stride = draw(st.integers(1, 3))
    padding = draw(st.integers(0, 2))
    min_dim = max(1, kernel - 2 * padding)
    height = draw(st.integers(min_dim, 14))
    width = draw(st.integers(min_dim, 14))
    layer = Conv2D(name="conv", out_channels=out_per_group * groups,
                   kernel=kernel, stride=stride, padding=padding,
                   groups=groups)
    shape = TensorShape(in_per_group * groups, height, width)
    return _resolved(layer, shape, draw(precisions()))


@st.composite
def depthwise_layers(draw) -> LayerWithPrecision:
    channels = draw(st.integers(1, 48))
    kernel = draw(st.sampled_from([3, 5]))
    stride = draw(st.integers(1, 2))
    padding = kernel // 2
    size = draw(st.integers(max(1, kernel - 2 * padding), 14))
    layer = Conv2D(name="dw", out_channels=channels, kernel=kernel,
                   stride=stride, padding=padding, groups=channels)
    return _resolved(layer, TensorShape(channels, size, size),
                     draw(precisions()))


@st.composite
def matmul_layers(draw) -> LayerWithPrecision:
    heads = draw(st.sampled_from([1, 2, 4, 8]))
    in_per_head = draw(st.integers(1, 8))
    out_per_head = draw(st.integers(1, 8))
    seq_len = draw(st.integers(1, 12))
    layer = MatMul(name="matmul", out_features=out_per_head * heads,
                   heads=heads,
                   transpose_b=draw(st.booleans()))
    shape = TensorShape(in_per_head * heads, seq_len, 1)
    return _resolved(layer, shape, draw(precisions()))


@st.composite
def fc_layers(draw) -> LayerWithPrecision:
    layer = FullyConnected(name="fc", out_features=draw(st.integers(1, 300)))
    shape = draw(st.one_of(
        st.builds(TensorShape, st.integers(1, 512)),
        st.builds(TensorShape, st.integers(1, 32),
                  st.integers(1, 6), st.integers(1, 6)),
    ))
    return _resolved(layer, shape, draw(precisions()))


any_compute_layer = st.one_of(conv_layers(), depthwise_layers(),
                              matmul_layers(), fc_layers())


def _vector_and_event(accelerator, lw):
    table = build_layer_table([lw])
    vector = simulate_layer_table(accelerator, table)[0]
    event = accelerator.simulate_layer(lw)
    return vector, event


class TestEnginesAgreeExactly:
    @given(lw=any_compute_layer)
    def test_every_field_identical_across_engines(self, lw):
        for accelerator in DESIGNS:
            vector, event = _vector_and_event(accelerator, lw)
            for field in dataclasses.fields(LayerResult):
                a, b = getattr(vector, field.name), getattr(event, field.name)
                assert a == b, (
                    f"{accelerator.name}/{lw.name}.{field.name}: "
                    f"vector={a!r} event={b!r}"
                )


class TestPlaneMembershipIsInvisible:
    """A design's rows come out the same whether it has a plane to itself or
    shares one with other scales of the same design (the event oracle)."""

    @given(lw=any_compute_layer,
           scales=st.lists(st.sampled_from([16, 32, 64, 256]),
                           min_size=2, max_size=4))
    def test_shared_plane_rows_match_event(self, lw, scales):
        from repro.sim.batched import (
            _design_plane,
            _design_record,
            _simulate_plane,
        )

        table = build_layer_table([lw])
        for make in (DPNN, Stripes, DStripes, Loom,
                     lambda config: Loom(config, bits_per_cycle=2)):
            designs = [make(AcceleratorConfig(equivalent_macs=macs))
                       for macs in scales]
            shared = _simulate_plane(_design_plane(
                [(_design_record(design), [table]) for design in designs]))
            assert shared == [design.simulate_layer(lw)
                              for design in designs]


class TestResultSanity:
    @given(lw=any_compute_layer)
    def test_counts_non_negative_and_utilization_bounded(self, lw):
        for accelerator in DESIGNS:
            result = accelerator.simulate_layer(lw)
            assert result.cycles >= 0
            assert result.compute_cycles > 0  # every layer does some work
            assert result.memory_cycles >= 0
            assert result.energy_pj >= 0
            assert result.weight_bits_read >= 0
            assert result.activation_bits_read >= 0
            assert result.activation_bits_written >= 0
            assert 0.0 <= result.utilization <= 1.0
            assert result.layer_kind == lw.kind


def _with_precision(lw, activation_bits=None, weight_bits=None):
    precision = LayerPrecision(
        activation_bits=(lw.precision.activation_bits
                         if activation_bits is None else activation_bits),
        weight_bits=(lw.precision.weight_bits
                     if weight_bits is None else weight_bits),
    )
    return LayerWithPrecision(
        layer=lw.layer, input_shape=lw.input_shape,
        output_shape=lw.output_shape, precision=precision,
    )


class TestPrecisionMonotonicity:
    """More precision bits can never make Loom/Stripes faster or cheaper."""

    @given(
        lw=st.one_of(conv_layers(), depthwise_layers(), matmul_layers()),
        lo=st.integers(1, 16),
        hi=st.integers(1, 16),
    )
    def test_loom_monotone_in_activation_precision(self, lw, lo, hi):
        lo, hi = min(lo, hi), max(lo, hi)
        loom = DESIGNS[3]
        low = loom.simulate_layer(_with_precision(lw, activation_bits=lo))
        high = loom.simulate_layer(_with_precision(lw, activation_bits=hi))
        assert low.cycles <= high.cycles
        assert low.energy_pj <= high.energy_pj

    @given(
        lw=st.one_of(conv_layers(), depthwise_layers(), matmul_layers(),
                     fc_layers()),
        lo=st.integers(1, 16),
        hi=st.integers(1, 16),
    )
    def test_loom_monotone_in_weight_precision(self, lw, lo, hi):
        lo, hi = min(lo, hi), max(lo, hi)
        loom = DESIGNS[3]
        low = loom.simulate_layer(_with_precision(lw, weight_bits=lo))
        high = loom.simulate_layer(_with_precision(lw, weight_bits=hi))
        assert low.cycles <= high.cycles
        assert low.energy_pj <= high.energy_pj

    @given(
        lw=st.one_of(conv_layers(), depthwise_layers(), matmul_layers()),
        lo=st.integers(1, 16),
        hi=st.integers(1, 16),
    )
    def test_stripes_monotone_in_activation_precision(self, lw, lo, hi):
        lo, hi = min(lo, hi), max(lo, hi)
        stripes = DESIGNS[1]
        low = stripes.simulate_layer(_with_precision(lw, activation_bits=lo))
        high = stripes.simulate_layer(_with_precision(lw, activation_bits=hi))
        assert low.cycles <= high.cycles
        assert low.energy_pj <= high.energy_pj
