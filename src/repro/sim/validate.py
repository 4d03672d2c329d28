"""Differential validation of the simulation engines.

Three layers of cross-checking keep the vector engine honest:

1. **vector vs reference** -- every (network, accelerator, precision-profile)
   job is executed through both engines and every field of every
   :class:`~repro.sim.results.LayerResult` is compared for *exact* equality
   (``==`` on the floats, not a tolerance).  The vector engine mirrors the
   reference arithmetic operation for operation, so any drift is a bug.
2. **reference vs event engine** -- Loom schedules with integer precisions
   are executed callback by callback on the
   :class:`~repro.core.tile.LoomTileSimulator` and must land on the
   analytical cycle count exactly (the cross-check the paper's custom
   simulator provided).
3. **zoo sweep** -- :func:`validate_zoo` runs check (1) over the full network
   zoo and the full stock-design matrix, which is what ``loom-repro
   validate`` and the CI gate execute.

All checks return structured reports rather than asserting, so the CLI can
print what disagreed; the pytest suite asserts the reports are clean.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Iterable, List, Optional, Sequence, Tuple

from repro.sim.jobs.spec import AcceleratorSpec, NetworkSpec, SimJob, execute_job
from repro.sim.results import LayerResult

__all__ = [
    "FieldMismatch",
    "ValidationCase",
    "ValidationReport",
    "TileCheck",
    "compare_layer_results",
    "default_accelerator_matrix",
    "validate_job",
    "validate_jobs",
    "validate_zoo",
    "validate_tile_level",
]


@dataclass(frozen=True)
class FieldMismatch:
    """One LayerResult field on which the two engines disagreed."""

    layer: str
    field: str
    candidate: object
    event: object

    def describe(self) -> str:
        return (f"{self.layer}.{self.field}: candidate={self.candidate!r} "
                f"event={self.event!r}")


@dataclass(frozen=True)
class ValidationCase:
    """Differential result for one (network, accelerator, profile) job."""

    network: str
    accuracy: str
    with_effective_weights: bool
    accelerator: str
    layers_compared: int
    mismatches: Tuple[FieldMismatch, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.mismatches

    def describe(self) -> str:
        profile = self.accuracy + (
            "+effective-weights" if self.with_effective_weights else ""
        )
        status = "ok" if self.ok else f"{len(self.mismatches)} MISMATCHES"
        return (f"{self.network:<10s} {profile:<22s} {self.accelerator:<22s} "
                f"{self.layers_compared:>3d} layers  {status}")


@dataclass
class ValidationReport:
    """Outcome of a differential sweep."""

    cases: List[ValidationCase]

    @property
    def ok(self) -> bool:
        return all(case.ok for case in self.cases)

    @property
    def layers_compared(self) -> int:
        return sum(case.layers_compared for case in self.cases)

    def failures(self) -> List[ValidationCase]:
        return [case for case in self.cases if not case.ok]

    def summary(self, verbose: bool = False) -> str:
        lines = ["== differential validation: vector engine vs event-engine "
                 "reference =="]
        shown = self.cases if verbose else self.failures()
        for case in shown:
            lines.append("  " + case.describe())
            for mismatch in case.mismatches[:8]:
                lines.append("      " + mismatch.describe())
        verdict = "cycle-exact" if self.ok else "ENGINES DISAGREE"
        lines.append(
            f"{len(self.cases)} jobs, {self.layers_compared} layers compared: "
            f"{verdict}"
        )
        return "\n".join(lines)


def compare_layer_results(candidate: Sequence[LayerResult],
                          event: Sequence[LayerResult]) -> List[FieldMismatch]:
    """Field-for-field exact comparison of two per-layer result sequences.

    Returns one :class:`FieldMismatch` per disagreeing field (empty list =
    bit-identical).  This is the equality the engine validator enforces, and
    the same comparator the ``loom-repro serve`` contract uses: a served
    result must be indistinguishable from an in-process ``execute_job`` run.
    """
    mismatches: List[FieldMismatch] = []
    if len(candidate) != len(event):
        mismatches.append(FieldMismatch(
            layer="<network>", field="layer_count",
            candidate=len(candidate), event=len(event),
        ))
        return mismatches
    for candidate_layer, event_layer in zip(candidate, event):
        for field in fields(LayerResult):
            a = getattr(candidate_layer, field.name)
            b = getattr(event_layer, field.name)
            if a != b:
                mismatches.append(FieldMismatch(
                    layer=event_layer.layer_name, field=field.name,
                    candidate=a, event=b,
                ))
    return mismatches


def validate_job(job: SimJob, engine: str = "vector") -> ValidationCase:
    """Run ``job`` through ``engine`` and the event-engine reference and
    compare every layer exactly."""
    return validate_jobs([job], engine=engine).cases[0]


def validate_jobs(jobs: Sequence[SimJob],
                  engine: str = "vector") -> ValidationReport:
    """Differentially validate ``jobs``: ``engine`` vs the event reference.

    With ``engine="vector"`` the whole candidate side runs as one
    :func:`repro.sim.batched.simulate_jobs_batched` call -- exactly the code
    path every executor uses in production -- while the reference side
    executes job by job, so batching/scattering bugs cannot cancel out.
    """
    from repro.sim import batched

    jobs = list(jobs)
    if batched.resolve_engine(engine) == "vector":
        candidates = batched.simulate_jobs_batched(jobs)
    else:
        candidates = [execute_job(job, engine="event") for job in jobs]
    cases = []
    for job, candidate in zip(jobs, candidates):
        event = execute_job(job, engine="event")
        cases.append(ValidationCase(
            network=job.network.name,
            accuracy=job.network.accuracy,
            with_effective_weights=job.network.with_effective_weights,
            accelerator=event.accelerator,
            layers_compared=len(event.layers),
            mismatches=tuple(
                compare_layer_results(candidate.layers, event.layers)
            ),
        ))
    return ValidationReport(cases=cases)


def default_accelerator_matrix() -> List[AcceleratorSpec]:
    """The stock designs the paper evaluates (all vector kernels)."""
    return [
        AcceleratorSpec.create("dpnn"),
        AcceleratorSpec.create("stripes"),
        AcceleratorSpec.create("dstripes"),
        AcceleratorSpec.create("loom", bits_per_cycle=1),
        AcceleratorSpec.create("loom", bits_per_cycle=2),
        AcceleratorSpec.create("loom", bits_per_cycle=4),
        AcceleratorSpec.create("loom", use_effective_weight_precision=True),
        AcceleratorSpec.create("loom", use_cascading=False,
                               replicate_filters=True),
    ]


def validate_zoo(
    networks: Optional[Iterable[str]] = None,
    accuracies: Iterable[str] = ("100%", "99%"),
    accelerators: Optional[Iterable[AcceleratorSpec]] = None,
    include_effective_weights: bool = True,
    config=None,
    engine: str = "vector",
) -> ValidationReport:
    """Differentially validate every (network, accelerator, profile) job.

    ``networks`` defaults to the full zoo; ``config`` optionally overrides the
    :class:`~repro.accelerators.base.AcceleratorConfig` of every job (used to
    cover DRAM-attached and scaled configurations).  ``engine`` selects the
    candidate engine compared against the event reference; ``"vector"``
    validates the whole matrix through one batched pass (see
    :func:`validate_jobs`).
    """
    from repro.nn import available_networks

    network_names = list(networks) if networks is not None \
        else available_networks()
    accelerator_specs = list(accelerators) if accelerators is not None \
        else default_accelerator_matrix()
    network_specs: List[NetworkSpec] = []
    for name in network_names:
        for accuracy in accuracies:
            network_specs.append(NetworkSpec(name, accuracy))
        if include_effective_weights:
            network_specs.append(
                NetworkSpec(name, "100%", with_effective_weights=True)
            )
    jobs: List[SimJob] = []
    for network_spec in network_specs:
        for accelerator_spec in accelerator_specs:
            jobs.append(
                SimJob(network=network_spec, accelerator=accelerator_spec)
                if config is None else
                SimJob(network=network_spec, accelerator=accelerator_spec,
                       config=config)
            )
    return validate_jobs(jobs, engine=engine)


# -- analytical vs event-driven tile simulation --------------------------------


@dataclass(frozen=True)
class TileCheck:
    """One analytical-vs-event-engine schedule comparison."""

    description: str
    analytical_cycles: float
    event_cycles: int

    @property
    def ok(self) -> bool:
        return float(self.event_cycles) == self.analytical_cycles

    def describe(self) -> str:
        status = "ok" if self.ok else "MISMATCH"
        return (f"{self.description:<46s} "
                f"analytical={self.analytical_cycles:>10.0f} "
                f"event={self.event_cycles:>10d}  {status}")


def validate_tile_level() -> List[TileCheck]:
    """Execute integer-precision Loom schedules on the event engine.

    The event-driven :class:`~repro.core.tile.LoomTileSimulator` models the
    weight bus and the per-column pipelines explicitly; its cycle counts must
    equal the analytical schedules the (vector and reference) engines price, so
    this anchors both closed forms to an actual cycle-by-cycle execution.
    """
    from repro.core.scheduler import (
        LoomGeometry, schedule_conv_layer, schedule_fc_layer,
    )
    from repro.core.tile import LoomTileSimulator
    from repro.nn.layers import Conv2D, FullyConnected, MatMul, TensorShape
    from repro.nn.network import LayerWithPrecision
    from repro.quant.precision import LayerPrecision

    simulator = LoomTileSimulator()
    checks: List[TileCheck] = []
    for bits_per_cycle in (1, 2, 4):
        geometry = LoomGeometry(equivalent_macs=32,
                                bits_per_cycle=bits_per_cycle)
        conv = Conv2D(name="cvl", out_channels=48, kernel=3, padding=1)
        in_shape = TensorShape(8, 6, 6)
        conv_layer = LayerWithPrecision(
            layer=conv, input_shape=in_shape,
            output_shape=conv.output_shape(in_shape),
            precision=LayerPrecision(activation_bits=8, weight_bits=5),
        )
        schedule = schedule_conv_layer(conv_layer, geometry)
        result = simulator.run_conv(schedule)
        checks.append(TileCheck(
            description=f"conv 48f 3x3 Pa=8 Pw=5 LM{bits_per_cycle}b",
            analytical_cycles=float(schedule.total_cycles),
            event_cycles=result.cycles,
        ))
        fc = FullyConnected(name="fcl", out_features=96)
        fc_layer = LayerWithPrecision(
            layer=fc, input_shape=TensorShape(128),
            output_shape=fc.output_shape(TensorShape(128)),
            precision=LayerPrecision(activation_bits=16, weight_bits=7),
        )
        fc_schedule = schedule_fc_layer(fc_layer, geometry)
        fc_result = simulator.run_fc(fc_schedule)
        checks.append(TileCheck(
            description=f"fc 96o 128t Pw=7 LM{bits_per_cycle}b",
            analytical_cycles=float(fc_schedule.total_cycles),
            event_cycles=fc_result.cycles,
        ))
        # Attention-style MatMul work executes on the CVL path; anchor it too.
        matmul = MatMul(name="mml", out_features=64, heads=4)
        mm_shape = TensorShape(64, 16, 1)
        mm_layer = LayerWithPrecision(
            layer=matmul, input_shape=mm_shape,
            output_shape=matmul.output_shape(mm_shape),
            precision=LayerPrecision(activation_bits=9, weight_bits=6),
        )
        mm_schedule = schedule_conv_layer(mm_layer, geometry)
        mm_result = simulator.run_conv(mm_schedule)
        checks.append(TileCheck(
            description=f"matmul 64f 4h 16t Pa=9 Pw=6 LM{bits_per_cycle}b",
            analytical_cycles=float(mm_schedule.total_cycles),
            event_cycles=mm_result.cycles,
        ))
    return checks
