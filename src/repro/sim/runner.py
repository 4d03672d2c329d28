"""Run networks through accelerator models and aggregate the results.

The runner is the glue every experiment uses: it takes a network (with a
bound precision profile), walks its compute layers through an accelerator's
``simulate_layer`` and collects the per-layer results into a
:class:`repro.sim.results.NetworkResult`.  :class:`AcceleratorRunner` batches
this over several designs and networks and produces the relative
(speedup / energy-efficiency) numbers the paper's tables report.

Two kinds of design mapping are accepted:

* live :class:`~repro.accelerators.base.Accelerator` instances, simulated
  in-process exactly as before; or
* declarative :class:`~repro.sim.jobs.AcceleratorSpec` entries, which are
  expanded into :class:`~repro.sim.jobs.SimJob` batches and dispatched
  through a (possibly shared, caching)
  :class:`~repro.sim.jobs.JobExecutor` -- the path every experiment harness
  now uses.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional

from repro.nn.network import Network
from repro.sim.results import ComparisonResult, NetworkResult, compare

__all__ = ["LayerSelection", "run_network", "AcceleratorRunner"]


class LayerSelection:
    """Layer-kind selectors used throughout the experiments."""

    CONV = "conv"
    FC = "fc"
    ALL = None


def run_network(accelerator, network: Network,
                clock_ghz: Optional[float] = None,
                engine: Optional[str] = None) -> NetworkResult:
    """Simulate every compute layer of ``network`` on ``accelerator``.

    The network must have shapes that resolve; attach a precision profile
    first if the accelerator exploits precision (Loom/Stripes fall back to the
    16-bit baseline precisions otherwise, which simply yields no benefit).

    ``engine`` picks between the closed-form vector engine (``"vector"``)
    and the per-layer reference path (``"event"``); ``None`` follows the
    process default (see :mod:`repro.sim.batched`).  Both produce
    bit-identical results; custom accelerator subclasses without a vector
    kernel always take the reference path.
    """
    from repro.sim import batched

    engine = batched.resolve_engine(engine)
    result = NetworkResult(
        network=network.name,
        accelerator=accelerator.name,
        clock_ghz=clock_ghz if clock_ghz is not None
        else accelerator.config.clock_ghz,
    )
    if engine == "vector" and batched.supports_vector_engine(accelerator):
        result.layers.extend(batched.simulate_layer_table(
            accelerator, batched.build_layer_table(network.compute_layers())))
        return result
    for layer in network.compute_layers():
        result.add(accelerator.simulate_layer(layer))
    return result


@dataclass
class AcceleratorRunner:
    """Batch runner: several designs over several networks.

    Attributes
    ----------
    designs:
        Mapping from a label (e.g. ``"loom-1b"``) to either an accelerator
        instance or a declarative :class:`~repro.sim.jobs.AcceleratorSpec`.
    baseline:
        Label of the design the others are compared against (``"dpnn"`` in
        every experiment).
    config:
        :class:`~repro.accelerators.base.AcceleratorConfig` applied when
        materialising spec designs (``None`` = the default configuration).
    executor:
        :class:`~repro.sim.jobs.JobExecutor` used for spec designs; ``None``
        falls back to the process-wide default executor.
    """

    designs: Dict[str, object] = field(default_factory=dict)
    baseline: str = "dpnn"
    config: Optional[object] = None
    executor: Optional[object] = None

    def add_design(self, label: str, accelerator) -> None:
        if label in self.designs:
            raise ValueError(f"duplicate design label {label!r}")
        self.designs[label] = accelerator

    def _uses_specs(self) -> bool:
        from repro.sim.jobs import AcceleratorSpec

        kinds = {isinstance(d, AcceleratorSpec) for d in self.designs.values()}
        if kinds == {True, False}:
            raise TypeError(
                "designs must be either all Accelerator instances or all "
                "AcceleratorSpec entries, not a mixture"
            )
        return kinds == {True}

    def run(self, networks: Iterable[object]) -> Dict[str, Dict[str, NetworkResult]]:
        """Run all designs over all networks.

        ``networks`` holds :class:`~repro.nn.network.Network` objects for
        instance designs, or :class:`~repro.sim.jobs.NetworkSpec` entries for
        spec designs (simulated through the job executor, so repeated runs
        hit the result cache).  Returns
        ``{network_name: {design_label: NetworkResult}}``.
        """
        networks = list(networks)
        if self.designs and self._uses_specs():
            return self._run_jobs(networks)
        results: Dict[str, Dict[str, NetworkResult]] = {}
        for network in networks:
            per_design: Dict[str, NetworkResult] = {}
            for label, accelerator in self.designs.items():
                per_design[label] = run_network(accelerator, network)
            results[network.name] = per_design
        return results

    def _run_jobs(self, networks: List[object]) -> Dict[str, Dict[str, NetworkResult]]:
        from repro.sim.jobs import SimJob, get_default_executor

        executor = self.executor if self.executor is not None \
            else get_default_executor()
        jobs = []
        for network_spec in networks:
            for spec in self.designs.values():
                jobs.append(
                    SimJob(network=network_spec, accelerator=spec,
                           config=self.config) if self.config is not None
                    else SimJob(network=network_spec, accelerator=spec)
                )
        flat = executor.run(jobs)
        results: Dict[str, Dict[str, NetworkResult]] = {}
        index = 0
        for network_spec in networks:
            per_design: Dict[str, NetworkResult] = {}
            for label in self.designs:
                per_design[label] = flat[index]
                index += 1
            results[network_spec.name] = per_design
        return results

    def compare_all(
        self,
        results: Mapping[str, Mapping[str, NetworkResult]],
        kind: Optional[str] = None,
    ) -> Dict[str, Dict[str, ComparisonResult]]:
        """Compare every design against the baseline for every network.

        Returns ``{network_name: {design_label: ComparisonResult}}``; the
        baseline itself is omitted (its ratio is 1.0 by construction).
        """
        if not self.designs:
            raise ValueError("no designs registered")
        if self.baseline not in self.designs:
            raise ValueError(
                f"baseline {self.baseline!r} is not a registered design"
            )
        comparisons: Dict[str, Dict[str, ComparisonResult]] = {}
        for network_name, per_design in results.items():
            base = per_design[self.baseline]
            comparisons[network_name] = {
                label: compare(result, base, kind=kind)
                for label, result in per_design.items()
                if label != self.baseline
            }
        return comparisons
