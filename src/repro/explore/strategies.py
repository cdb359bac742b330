"""Search strategies: how the next generation of candidates is chosen.

Every strategy implements the same two-call, *generation-oriented* protocol:

* :meth:`Strategy.propose` returns the next batch of candidates to
  evaluate (empty = the search is over);
* :meth:`Strategy.observe` feeds the batch's results back, in proposal
  order, before the next ``propose``.

Proposing whole generations (instead of one candidate at a time) is what
lets the driver evaluate a batch as parallel task-graph nodes — and it is
also the determinism mechanism: a generation's composition depends only on
the seed and on previously *observed* results, never on evaluation timing,
so serial and ``-j N`` runs walk exactly the same search
trajectory (see ``tests/test_explore.py``).

All randomness flows from one ``random.Random(seed)`` instance consumed in
a fixed order.  The sequential strategies (``greedy``, ``annealing``)
descend :func:`repro.explore.frontier.scalar_cost` — the Pareto frontier is
still computed over *everything* they evaluated, so dominated steps of the
walk contribute design points too.

A budget is the number of **unique** candidates evaluated; re-proposing an
already-evaluated candidate (annealing revisits happen) costs nothing, in
tokens or in compute — the driver resolves it from memory or the cache.
"""

from __future__ import annotations

import math
import random
from typing import Any, Dict, List, Optional, Type

from repro.config import CompilerConfig
from repro.errors import ReproError
from repro.explore.frontier import scalar_cost
from repro.explore.space import Candidate, SearchSpace

#: Candidates per generation for the enumerative strategies — the unit of
#: parallel fan-out.
GENERATION_SIZE = 8

#: Parallel proposals per generation for the walk strategies.
WALK_WIDTH = 4


class Strategy:
    """The pluggable search interface (see module docstring for the protocol)."""

    name = "base"

    def __init__(self, space: SearchSpace, budget: int, seed: int,
                 config: Optional[CompilerConfig] = None):
        if budget < 1:
            raise ReproError(f"exploration budget must be >= 1, got {budget}")
        self.space = space
        self.budget = budget
        self.seed = seed
        self.config = config or CompilerConfig()
        self.rng = random.Random(seed)
        self.evaluated: Dict[Candidate, Dict[str, Any]] = {}

    @property
    def remaining(self) -> int:
        return max(self.budget - len(self.evaluated), 0)

    def propose(self) -> List[Candidate]:
        """The next generation (unique within the batch; [] ends the search)."""
        raise NotImplementedError

    def observe(self, results: "List[tuple[Candidate, Dict[str, Any]]]") -> None:
        """Record one generation's results (in proposal order)."""
        for candidate, result in results:
            self.evaluated[candidate] = result

    def _cost(self, candidate: Candidate) -> float:
        return scalar_cost(self.evaluated[candidate])


class ExhaustiveStrategy(Strategy):
    """Enumerate the whole space in canonical order, budget permitting."""

    name = "exhaustive"

    def __init__(self, *args: Any, **kwargs: Any):
        super().__init__(*args, **kwargs)
        self._order = list(self.space.candidates())

    def propose(self) -> List[Candidate]:
        pending = [c for c in self._order if c not in self.evaluated]
        return pending[: min(GENERATION_SIZE, self.remaining)]


class RandomStrategy(ExhaustiveStrategy):
    """Uniform sampling without replacement, from the seeded RNG."""

    name = "random"

    def __init__(self, *args: Any, **kwargs: Any):
        super().__init__(*args, **kwargs)
        self.rng.shuffle(self._order)


class GreedyStrategy(Strategy):
    """Steepest-descent hill climb on the scalar cost from the baseline point.

    Each generation evaluates every unvisited neighbour of the current
    point in parallel; the walk then moves to the cheapest evaluated
    neighbour if it improves, and stops at a local optimum (or when the
    budget runs out).  Fully deterministic — ties break on the candidates'
    canonical parameter keys.
    """

    name = "greedy"

    def __init__(self, *args: Any, **kwargs: Any):
        super().__init__(*args, **kwargs)
        self.current = self.space.initial(self.config)
        self._done = False

    def propose(self) -> List[Candidate]:
        if self._done or not self.remaining:
            return []
        batch: List[Candidate] = []
        if self.current not in self.evaluated:
            batch.append(self.current)
        for neighbour in self.space.neighbours(self.current):
            if neighbour not in self.evaluated and neighbour not in batch:
                batch.append(neighbour)
        batch = batch[: self.remaining]
        if not batch:
            self._done = True  # every neighbour known and none improved
        return batch

    def observe(self, results: "List[tuple[Candidate, Dict[str, Any]]]") -> None:
        super().observe(results)
        known = [
            c for c in self.space.neighbours(self.current) if c in self.evaluated
        ]
        if not known:
            self._done = True
            return
        best = min(known, key=lambda c: (self._cost(c), c.key()))
        if self._cost(best) < self._cost(self.current):
            self.current = best
        else:
            self._done = True


class AnnealingStrategy(Strategy):
    """Simulated annealing on the scalar cost with batched proposals.

    Each generation draws :data:`WALK_WIDTH` random single-step moves from
    the current point; after evaluation the Metropolis rule is applied to
    the proposals **sequentially in proposal order** (accept when cheaper,
    or with probability ``exp(-delta/T)``), cooling the temperature after
    each decision.  Batching trades a little chain fidelity for parallel
    evaluation while keeping the trajectory a pure function of the seed.
    """

    name = "annealing"

    #: Initial temperature and geometric cooling factor, in scalar-cost
    #: (log-objective) units: T0=0.5 accepts ~40% of moves that double the
    #: objective product early on; alpha cools to near-greedy by ~30 steps.
    INITIAL_TEMPERATURE = 0.5
    COOLING = 0.88

    def __init__(self, *args: Any, **kwargs: Any):
        super().__init__(*args, **kwargs)
        self.current = self.space.initial(self.config)
        self.temperature = self.INITIAL_TEMPERATURE
        self._proposals: List[Candidate] = []
        self._started = False

    def propose(self) -> List[Candidate]:
        if not self._started:
            self._started = True
            self._proposals = [self.current]
            return [self.current]
        if not self.remaining:
            return []
        batch: List[Candidate] = []
        fresh = 0
        # Bounded draw loop: tiny spaces can exhaust fresh neighbours, at
        # which point the walk ends rather than spinning on revisits.
        for _ in range(WALK_WIDTH * 8):
            if len(batch) >= WALK_WIDTH or fresh >= self.remaining:
                break
            neighbours = self.space.neighbours(self.current)
            move = self.rng.choice(neighbours)
            if move in batch:
                continue
            batch.append(move)
            if move not in self.evaluated:
                fresh += 1
        if not fresh:
            return []
        self._proposals = batch
        return batch

    def observe(self, results: "List[tuple[Candidate, Dict[str, Any]]]") -> None:
        super().observe(results)
        for candidate in self._proposals:
            if candidate == self.current:
                continue
            delta = self._cost(candidate) - self._cost(self.current)
            if delta < 0 or self.rng.random() < math.exp(-delta / max(self.temperature, 1e-9)):
                self.current = candidate
            self.temperature *= self.COOLING
        self._proposals = []


#: Strategy registry, by CLI name.
STRATEGIES: Dict[str, Type[Strategy]] = {
    cls.name: cls
    for cls in (ExhaustiveStrategy, RandomStrategy, GreedyStrategy, AnnealingStrategy)
}


def make_strategy(
    name: str,
    space: SearchSpace,
    budget: int,
    seed: int,
    config: Optional[CompilerConfig] = None,
) -> Strategy:
    """Instantiate a registered strategy by name (helpful error otherwise)."""
    cls = STRATEGIES.get(name)
    if cls is None:
        known = ", ".join(sorted(STRATEGIES))
        raise ReproError(f"unknown exploration strategy '{name}' (known: {known})")
    return cls(space, budget, seed, config=config)
