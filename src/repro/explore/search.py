"""Search strategies: the ask/tell protocol plus grid, random and descent.

Strategies no longer evaluate points themselves.  Each one implements the
ask/tell protocol -- :meth:`SearchStrategy.propose` returns the next batch of
candidate :class:`~repro.explore.space.DesignPoint`\\ s and
:meth:`SearchStrategy.observe` receives the evaluated batch -- while the
single driver loop in :func:`repro.explore.engine.drive_search` owns
evaluation, the budget cap on true simulations, and trace recording.  Because
candidates go through one shared :class:`~repro.sim.jobs.JobExecutor` batch
per round, anything already simulated -- earlier in the search, by another
strategy, or in a previous invocation via the on-disk cache -- costs nothing
to revisit.  All randomness is seeded, so a strategy's trajectory (and thus
its reported point set) is reproducible.

Strategies register under their CLI/wire name with the
:func:`register_strategy` class decorator; :func:`resolve_strategy` turns a
name plus uniform ``key=value`` options (``--strategy-opt`` on the CLI,
``"options"`` on the wire) into an instance.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Sequence, Tuple, Type, Union

from repro.explore.engine import EvaluatedPoint, SearchState
from repro.explore.frontier import scalar_score
from repro.explore.space import DesignPoint, parse_value

__all__ = [
    "SearchStrategy",
    "GeneratorStrategy",
    "GridSearch",
    "RandomSearch",
    "CoordinateDescentSearch",
    "STRATEGIES",
    "register_strategy",
    "resolve_strategy",
    "parse_strategy_options",
    "strategy_from_request",
]


class SearchStrategy:
    """Picks which points of a sweep to evaluate, possibly adaptively.

    The contract is ask/tell: the driver repeatedly calls :meth:`propose`
    for the next candidate batch, evaluates it (applying any budget), and
    hands the results back through :meth:`observe`.  Strategies never touch
    the evaluator -- which is what lets one driver own budgets, trace
    recording and per-round streaming for every strategy.
    """

    name: str = "strategy"

    def start(self, state: SearchState) -> None:
        """Hook: (re)initialise per-run state before the first ``propose``."""

    def propose(self, state: SearchState) -> List[DesignPoint]:
        """The next candidate batch to evaluate; ``[]`` ends the search."""
        raise NotImplementedError(
            f"{type(self).__name__} does not implement propose()")

    def observe(self, evaluated: Sequence[EvaluatedPoint]) -> None:
        """Receive the evaluated batch (proposal order; budget-trimmed)."""


class GeneratorStrategy(SearchStrategy):
    """Ask/tell adapter for multi-round strategies written as one generator.

    Subclasses implement :meth:`rounds`, a generator that yields each
    candidate batch and receives the evaluated batch back from the driver::

        def rounds(self, state):
            evaluated = yield [first, batch]
            ...
            evaluated = yield [next, batch]

    -- the natural shape for adaptive searches, without hand-managing a
    propose/observe state machine.  A batch may come back short (budget
    trimming) or empty (nothing in it was affordable); generators must
    tolerate both.
    """

    _generator = None
    _primed = False
    _observed: Optional[List[EvaluatedPoint]] = None

    def rounds(self, state: SearchState):
        """Generator of candidate batches; sent each evaluated batch."""
        raise NotImplementedError(f"{type(self).__name__} must implement "
                                  "rounds()")

    def start(self, state: SearchState) -> None:
        self._generator = self.rounds(state)
        self._primed = False
        self._observed = None

    def propose(self, state: SearchState) -> List[DesignPoint]:
        if self._generator is None:
            self.start(state)
        try:
            if self._primed:
                observed, self._observed = (self._observed or []), None
                return list(self._generator.send(observed))
            self._primed = True
            return list(next(self._generator))
        except StopIteration:
            self._generator = None
            return []

    def observe(self, evaluated: Sequence[EvaluatedPoint]) -> None:
        self._observed = list(evaluated)


#: Registry of strategy classes by CLI/wire name (see register_strategy).
STRATEGIES: Dict[str, Type[SearchStrategy]] = {}


def register_strategy(name: str):
    """Class decorator: register a :class:`SearchStrategy` under ``name``.

    The name becomes the class's ``name`` attribute and its key in
    :data:`STRATEGIES`, which is what ``--strategy`` on the CLI, the serve
    and cluster wire protocols and :func:`resolve_strategy` look up.
    """
    def decorate(cls: Type[SearchStrategy]) -> Type[SearchStrategy]:
        existing = STRATEGIES.get(name)
        if existing is not None and existing is not cls:
            raise ValueError(
                f"strategy name {name!r} is already registered to "
                f"{existing.__name__}"
            )
        cls.name = name
        STRATEGIES[name] = cls
        return cls
    return decorate


@register_strategy("grid")
class GridSearch(SearchStrategy):
    """Exhaustive: propose every feasible point, one batch."""

    _proposed = False

    def start(self, state: SearchState) -> None:
        self._proposed = False

    def propose(self, state: SearchState) -> List[DesignPoint]:
        if self._proposed:
            return []
        self._proposed = True
        return state.space.points()


@register_strategy("random")
class RandomSearch(SearchStrategy):
    """Seeded uniform sampling without replacement."""

    _proposed = False

    def __init__(self, samples: int = 16, seed: int = 0) -> None:
        if samples < 1:
            raise ValueError(f"samples must be >= 1, got {samples}")
        self.samples = samples
        self.seed = seed

    def start(self, state: SearchState) -> None:
        self._proposed = False

    def propose(self, state: SearchState) -> List[DesignPoint]:
        if self._proposed:
            return []
        self._proposed = True
        points = state.space.points()
        if len(points) > self.samples:
            points = random.Random(self.seed).sample(points, self.samples)
        return points


@register_strategy("coordinate")
class CoordinateDescentSearch(GeneratorStrategy):
    """Adaptive coordinate descent over the sweep's axes.

    From each of ``starts`` seeded random feasible points, the search sweeps
    one axis at a time: every feasible alternative value of that axis (other
    coordinates held fixed) is proposed as one batch, the best point under
    the scalarised objective (:func:`~repro.explore.frontier.scalar_score`)
    becomes the new current point, and the process repeats until a full pass
    over the axes improves nothing or ``max_rounds`` is hit.  An axis whose
    alternatives are all infeasible (constraint-pruned) -- or were all
    trimmed by the driver's budget -- is skipped, not an error.  Points
    already measured are never re-simulated, so restarts are cheap.
    """

    def __init__(self, seed: int = 0, starts: int = 2,
                 max_rounds: int = 8) -> None:
        if starts < 1:
            raise ValueError(f"starts must be >= 1, got {starts}")
        if max_rounds < 1:
            raise ValueError(f"max_rounds must be >= 1, got {max_rounds}")
        self.seed = seed
        self.starts = starts
        self.max_rounds = max_rounds

    def rounds(self, state: SearchState):
        space = state.space
        points = space.points()
        if not points:
            return
        axis_names = space.axis_names
        by_coords: Dict[Tuple, DesignPoint] = {
            tuple(point[name] for name in axis_names): point
            for point in points
        }
        rng = random.Random(self.seed)

        def score_of(ep: EvaluatedPoint) -> float:
            return scalar_score(ep.metrics, state.objectives)

        for _ in range(self.starts):
            current = rng.choice(points)
            observed = yield [current]
            if not observed:
                continue  # budget exhausted before this start was measured
            current_ep = observed[0]
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
                        if candidate is not None and candidate != current:
                            candidates.append(candidate)
                    if not candidates:
                        continue  # every alternative on this axis infeasible
                    evaluated = yield candidates
                    if not evaluated:
                        continue  # whole batch trimmed by the budget
                    best = max(evaluated, key=score_of)
                    if score_of(best) > score_of(current_ep):
                        current, current_ep = best.point, best
                        improved = True
                if not improved:
                    break


def resolve_strategy(
    strategy: Union[str, SearchStrategy, None], **options
) -> SearchStrategy:
    """Coerce a name (plus options) or an instance into a strategy object."""
    if strategy is None:
        strategy = "grid"
    if isinstance(strategy, SearchStrategy):
        if options:
            raise ValueError("options only apply when naming a strategy")
        return strategy
    if strategy not in STRATEGIES:
        raise ValueError(
            f"unknown search strategy {strategy!r}; known: {sorted(STRATEGIES)}"
        )
    try:
        return STRATEGIES[strategy](**options)
    except TypeError as error:
        raise ValueError(
            f"bad option(s) for strategy {strategy!r}: {error}"
        ) from None


def parse_strategy_options(tokens: Sequence[str]) -> Dict[str, object]:
    """Parse repeated ``key=value`` CLI tokens into a strategy-options dict.

    Values go through :func:`~repro.explore.space.parse_value`, so
    ``--strategy-opt samples=32 --strategy-opt model=gp`` becomes
    ``{"samples": 32, "model": "gp"}``.
    """
    options: Dict[str, object] = {}
    for token in tokens or ():
        key, sep, raw = token.partition("=")
        if not sep or not key:
            raise ValueError(
                f"bad strategy option {token!r}; expected key=value"
            )
        if key in options:
            raise ValueError(f"duplicate strategy option {key!r}")
        options[key] = parse_value(raw)
    return options


def strategy_from_request(
    request,
) -> Tuple[SearchStrategy, Optional[int]]:
    """Build ``(strategy, budget)`` from an explore wire request.

    The uniform form is ``{"strategy": name, "options": {key: value},
    "budget": N}``; the pre-redesign top-level ``samples`` / ``seed`` keys
    keep working for older clients (merged into ``options`` unless the new
    form already sets them).  Called by
    :func:`repro.serve.core.parse_explore_request`, so every node speaks the
    same dialect.
    """
    strategy_name = request.get("strategy", "grid")
    raw_options = request.get("options") or {}
    if not isinstance(raw_options, dict) or any(
            not isinstance(key, str) for key in raw_options):
        raise ValueError("explore 'options' must be a {name: value} mapping")
    options = dict(raw_options)
    if "samples" in request and strategy_name == "random":
        options.setdefault("samples", int(request["samples"]))
    if "seed" in request and strategy_name in ("random", "coordinate",
                                               "surrogate"):
        options.setdefault("seed", int(request["seed"]))
    budget = request.get("budget")
    if budget is not None:
        budget = int(budget)
        if budget < 1:
            raise ValueError(f"budget must be >= 1, got {budget}")
    return resolve_strategy(strategy_name, **options), budget
