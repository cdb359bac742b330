"""The exploration driver: strategies on top, the task graph underneath.

:class:`ExplorationDriver` holds one budgeted search for one workload, and
:func:`run_searches` runs any number of them at once.  Each round, the next
generation of every unfinished search becomes ordinary task-graph nodes —
one ``explore`` node per fresh candidate, hanging off its workload's
compile node — executed as one graph through
:meth:`repro.eval.harness.EvaluationHarness.execute`, so candidate
evaluation inherits everything the evaluation stack already does:
process-pool parallelism (``--jobs``, one pool for every round),
content-addressed disk caching, and single-flight across concurrent
processes.

**Resumability.**  The search keeps no state of its own beside the cache.
A strategy's proposals are a deterministic function of its seed and of the
results it observed, and every candidate evaluation is a content-addressed
task-graph node.  So a search killed mid-way, re-run with the same inputs,
re-proposes the same generations, and every candidate the killed run
evaluated (even in an unfinished generation) comes back as a cache hit;
the search executes only what the killed run never reached, and a warm
re-run executes nothing.  Determinism of the whole construction (same
seed + budget ⇒ byte-identical frontier, serial vs parallel vs resumed) is
asserted by ``tests/test_explore.py``.
"""

from __future__ import annotations

from typing import Any, Dict, Generator, List, Optional, Sequence, Tuple

from repro.errors import ReproError
from repro.eval.harness import EvaluationHarness
from repro.eval.taskgraph import TaskGraph, explore_task_id
from repro.explore.frontier import OBJECTIVES, Frontier, scalar_cost
from repro.explore.space import Candidate, SearchSpace, default_space
from repro.explore.strategies import make_strategy
from repro.obs import tracing as obs_tracing

class ExplorationResult:
    """Everything one search produced, separated into *content* and *effort*.

    :meth:`to_json_dict` is the deterministic content (parameters,
    evaluations in evaluation order, the Pareto frontier, per-objective
    bests, search progress) — two runs of the same search emit identical
    bytes.  ``stats`` is the effort (how many candidates actually executed
    vs hit the cache) and is deliberately *not* part of the JSON document,
    because it legitimately differs between cold, warm and resumed runs.
    """

    def __init__(
        self,
        workload: str,
        strategy: str,
        budget: int,
        seed: int,
        space: SearchSpace,
        evaluations: List[Tuple[Candidate, Dict[str, Any]]],
        generations: int,
        stats: Dict[str, int],
    ):
        self.workload = workload
        self.strategy = strategy
        self.budget = budget
        self.seed = seed
        self.space = space
        self.evaluations = evaluations
        self.generations = generations
        self.stats = stats
        self.frontier = Frontier([(c.params(), r) for c, r in evaluations])

    def best_row(self) -> Dict[str, Any]:
        """The scalar-best evaluated candidate (params + objective values)."""
        candidate, result = min(
            self.evaluations, key=lambda pair: (scalar_cost(pair[1]), pair[0].key())
        )
        return {
            "params": candidate.params(),
            "cycles": result["cycles"],
            "area_luts": result["area_luts"],
            "power_mw": result["power_mw"],
            "speedup_vs_sw": result["speedup_vs_sw"],
        }

    def to_json_dict(self) -> Dict[str, Any]:
        """The deterministic, machine-readable search outcome."""
        return {
            "workload": self.workload,
            "strategy": self.strategy,
            "budget": self.budget,
            "seed": self.seed,
            "space": self.space.to_dict(),
            "objectives": [o.name for o in OBJECTIVES],
            "evaluations": [
                {
                    "params": c.params(),
                    "result": {"workload": self.workload, "params": c.params(), **r},
                }
                for c, r in self.evaluations
            ],
            "generations": self.generations,
            "frontier": self.frontier.to_rows(),
            "best": self.best_row(),
        }


class ExplorationDriver:
    """Run one strategy over one workload's configuration space."""

    def __init__(
        self,
        harness: EvaluationHarness,
        workload: str,
        strategy: str = "annealing",
        budget: int = 32,
        seed: int = 0,
        space: Optional[SearchSpace] = None,
        jobs: Optional[int] = None,
        max_generations: Optional[int] = None,
    ):
        if workload not in harness.benchmark_names:
            raise ReproError(
                f"workload '{workload}' is not in this harness's benchmark set "
                f"({', '.join(harness.benchmark_names)})"
            )
        self.harness = harness
        self.workload = workload
        self.strategy_name = strategy
        self.budget = budget
        self.seed = seed
        self.space = space or default_space()
        self.jobs = jobs
        #: Test/interrupt hook: stop after this many generations.
        self.max_generations = max_generations
        #: Aggregated effort over the whole search (all generations).
        self.stats: Dict[str, int] = {
            "evaluated": 0, "executed": 0, "cache_hits": 0, "seeded": 0,
        }

    # -- the search ------------------------------------------------------------

    def run(self) -> ExplorationResult:
        """Execute the search; returns the deterministic exploration result."""
        return run_searches(self.harness, [self], self.jobs)[0]

    def _search(self) -> "Search":
        """The search as a generator: it yields each generation's fresh
        candidates and is sent back their results, in the order it asked;
        it returns the :class:`ExplorationResult`."""
        strategy = make_strategy(
            self.strategy_name, self.space, self.budget, self.seed,
            config=self.harness.config,
        )
        evaluations: List[Tuple[Candidate, Dict[str, Any]]] = []
        known: Dict[Candidate, Dict[str, Any]] = {}
        generation = 0
        while True:
            if self.max_generations is not None and generation >= self.max_generations:
                break
            batch = strategy.propose()
            if not batch:
                break
            fresh = [c for c in batch if c not in known]
            computed = (yield fresh) if fresh else {}
            batch_results = {c: known.get(c, computed.get(c)) for c in batch}
            for candidate in batch:
                if candidate not in known:
                    known[candidate] = batch_results[candidate]
                    evaluations.append((candidate, batch_results[candidate]))
            strategy.observe([(c, batch_results[c]) for c in batch])
            generation += 1
        if not evaluations:
            raise ReproError(
                f"exploration of '{self.workload}' evaluated no candidates "
                f"(strategy={self.strategy_name}, budget={self.budget})"
            )
        self.stats["evaluated"] = len(evaluations)
        return ExplorationResult(
            workload=self.workload,
            strategy=self.strategy_name,
            budget=self.budget,
            seed=self.seed,
            space=self.space,
            evaluations=evaluations,
            generations=generation,
            stats=dict(self.stats),
        )


#: One search as a generator (:meth:`ExplorationDriver._search`).
Search = Generator[List[Candidate], Dict[Candidate, Dict[str, Any]], ExplorationResult]

#: The driver's effort counter for each way the scheduler satisfied a task.
_EFFORT = {"seeded": "seeded", "cache_hit": "cache_hits", "executed": "executed"}


def run_searches(
    harness: EvaluationHarness,
    drivers: Sequence[ExplorationDriver],
    jobs: Optional[int] = None,
) -> List[ExplorationResult]:
    """Run several searches at once; returns their results in order.

    Each round declares the next generation of every unfinished search on
    one graph and executes it once, on one process pool for all rounds.  A
    ``-j N`` pool keeps each workload on one slot, so the slots re-time
    different workloads side by side instead of idling while one
    workload's generation runs.  Every search is sent its results in the
    order it asked, so each result is the one a search run alone produces.
    """
    results: Dict[int, ExplorationResult] = {}
    asks: Dict[int, Tuple[Search, List[Candidate]]] = {}

    def advance(index: int, search: Search, sent: Any) -> None:
        try:
            asks[index] = (search, search.send(sent))
        except StopIteration as stop:
            results[index] = stop.value

    with harness.pool(jobs), obs_tracing.span(
        "explore.run",
        kind="explore",
        workloads=",".join(driver.workload for driver in drivers),
    ):
        for index, driver in enumerate(drivers):
            advance(index, driver._search(), None)
        generation = 0
        while asks:
            graph = TaskGraph()
            for index, (_, fresh) in asks.items():
                for candidate in fresh:
                    harness.declare_explore_point(
                        graph, drivers[index].workload, drivers[index].space, candidate
                    )
            with obs_tracing.span(
                f"explore.generation:{generation}",
                kind="explore",
                generation=generation,
                searches=len(asks),
                candidates=sum(len(fresh) for _, fresh in asks.values()),
            ):
                values = harness.execute(graph, parallel=jobs)
            outcomes = harness.last_outcomes
            current, asks = asks, {}
            for index, (search, fresh) in current.items():
                driver = drivers[index]
                computed = {}
                for candidate in fresh:
                    task_id = explore_task_id(driver.workload, candidate)
                    driver.stats[_EFFORT[outcomes[task_id]]] += 1
                    computed[candidate] = values[task_id]
                advance(index, search, computed)
            generation += 1
    return [results[index] for index in range(len(drivers))]
