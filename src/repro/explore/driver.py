"""The exploration driver: strategies on top, the task graph underneath.

:class:`ExplorationDriver` runs one budgeted search for one workload.  Each
generation the strategy proposes becomes ordinary task-graph nodes — one
``explore`` node per fresh candidate, hanging off the workload's compile
node — executed through :meth:`repro.eval.harness.EvaluationHarness.execute`,
so candidate evaluation inherits everything the evaluation stack already
does: process-pool parallelism (``--jobs``), remote workers (``--workers``),
content-addressed disk caching, and single-flight across concurrent
processes.

**Resumability.**  After every generation the search state is journaled as a
structured-JSON derived artifact: the journal key hashes the workload's
compile key, the strategy, budget, seed and the space digest, so a journal
can only ever resume *the same* search.  On start the driver replays the
journal through the strategy (propose → match → observe), which restores
both the evaluated set and the strategy's RNG position; a search killed
mid-way fast-forwards through its completed generations without executing
anything, then continues live — and because candidate evaluations are
content-addressed, even the un-journaled tail of a killed generation is
recovered from the cache rather than recomputed.  Determinism of the whole
construction (same seed + budget ⇒ byte-identical frontier, serial vs
parallel vs resumed) is asserted by ``tests/test_explore.py``.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from repro.errors import ReproError
from repro.eval.cache import derived_key
from repro.eval.harness import EvaluationHarness
from repro.eval.taskgraph import TaskExecutor, TaskGraph
from repro.explore.evaluate import explore_task, explore_task_id
from repro.explore.frontier import OBJECTIVES, Frontier, scalar_cost
from repro.explore.space import Candidate, SearchSpace, default_space
from repro.explore.strategies import make_strategy
from repro.obs import tracing as obs_tracing

#: Journal document schema version (bump on incompatible layout changes;
#: old journals are then discarded and the search replays from the cache).
JOURNAL_SCHEMA = 1


def journal_key(
    compile_key: str, strategy: str, budget: int, seed: int, space_digest: str
) -> str:
    """The content address of one search's journal.

    Unlike ordinary derived artifacts the journal *evolves* under this key
    (each generation overwrites it with a longer prefix); that is sound
    because the full trajectory is a deterministic function of exactly the
    inputs hashed here, so any stored prefix is a prefix of the one true
    search.
    """
    return derived_key(
        compile_key,
        "explore-journal",
        {"strategy": strategy, "budget": budget, "seed": seed, "space": space_digest},
    )


class ExplorationResult:
    """Everything one search produced, separated into *content* and *effort*.

    :meth:`to_json_dict` is the deterministic content (parameters,
    evaluations in evaluation order, the Pareto frontier, per-objective
    bests, search progress) — two runs of the same search emit identical
    bytes.  ``stats`` is the effort (how many candidates actually executed
    vs hit the cache vs were replayed from the journal) and is deliberately
    *not* part of the JSON document, because it legitimately differs
    between cold, warm and resumed runs.
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

    def progress_rows(self) -> List[Dict[str, Any]]:
        """Best-so-far scalar cost after each evaluation (the search curve)."""
        rows = []
        best = float("inf")
        for index, (_, result) in enumerate(self.evaluations, start=1):
            best = min(best, scalar_cost(result))
            rows.append({"evaluation": index, "best_cost": best})
        return rows

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
                {"params": c.params(), "result": r} for c, r in self.evaluations
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
        executor: Optional[TaskExecutor] = None,
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
        self.executor = executor
        #: Test/interrupt hook: stop (journaled) after this many generations.
        self.max_generations = max_generations
        #: Aggregated effort over the whole search (all generations).
        self.stats: Dict[str, int] = {
            "evaluated": 0, "executed": 0, "cache_hits": 0, "seeded": 0, "replayed": 0,
        }

    # -- journal ---------------------------------------------------------------

    def _journal_key(self) -> str:
        return journal_key(
            self.harness._compile_key(self.workload),
            self.strategy_name,
            self.budget,
            self.seed,
            self.space.digest(),
        )

    def _load_journal(self) -> List[List[Dict[str, Any]]]:
        """The journaled generations (``[]`` when absent or unusable)."""
        if self.harness.cache is None:
            return []
        doc = self.harness.cache.get(self._journal_key())
        if not isinstance(doc, dict) or doc.get("schema") != JOURNAL_SCHEMA:
            return []
        generations = doc.get("generations")
        if not isinstance(generations, list):
            return []
        return generations

    def _write_journal(self, generations: List[List[Dict[str, Any]]]) -> None:
        if self.harness.cache is None:
            return
        self.harness.cache.put(
            self._journal_key(),
            {
                "schema": JOURNAL_SCHEMA,
                "workload": self.workload,
                "strategy": self.strategy_name,
                "budget": self.budget,
                "seed": self.seed,
                "space": self.space.to_dict(),
                "generations": generations,
            },
            serializer="json",
        )

    # -- evaluation ------------------------------------------------------------

    def _evaluate(self, candidates: List[Candidate]) -> Dict[Candidate, Dict[str, Any]]:
        """Evaluate fresh candidates as one task-graph generation."""
        graph = TaskGraph()
        self.harness.declare_compile(graph, self.workload)
        for candidate in candidates:
            graph.add(
                explore_task(
                    self.workload,
                    self.harness.config,
                    self.harness._cache_root,
                    self.space,
                    candidate,
                    self.harness._compile_key(self.workload),
                )
            )
        results = self.harness.execute(graph, parallel=self.jobs, executor=self.executor)
        stats = self.harness.last_stats
        self.stats["executed"] += stats.get("executed", {}).get("explore", 0)
        self.stats["cache_hits"] += stats.get("cache_hit_kinds", {}).get("explore", 0)
        self.stats["seeded"] += stats.get("seeded", 0)
        return {
            candidate: results[explore_task_id(self.workload, candidate)]
            for candidate in candidates
        }

    # -- the search loop -------------------------------------------------------

    def run(self) -> ExplorationResult:
        """Execute the search; returns the deterministic exploration result."""
        with obs_tracing.span(
            "explore.run",
            kind="explore",
            workload=self.workload,
            strategy=self.strategy_name,
            budget=self.budget,
        ):
            return self._run()

    def _run(self) -> ExplorationResult:
        strategy = make_strategy(
            self.strategy_name, self.space, self.budget, self.seed,
            config=self.harness.config,
        )
        journal = self._load_journal()
        evaluations: List[Tuple[Candidate, Dict[str, Any]]] = []
        known: Dict[Candidate, Dict[str, Any]] = {}
        generation = 0
        while True:
            if self.max_generations is not None and generation >= self.max_generations:
                break
            batch = strategy.propose()
            if not batch:
                break
            journalled = journal[generation] if generation < len(journal) else None
            if journalled is not None and [e.get("params") for e in journalled] == [
                c.params() for c in batch
            ]:
                # Fast-forward: this generation already ran in a previous
                # (killed or completed) search with identical inputs.
                batch_results = {
                    self.space.candidate(entry["params"]): entry["result"]
                    for entry in journalled
                }
                self.stats["replayed"] += len(batch_results)
            else:
                if journalled is not None:
                    # The stored trajectory diverged (schema/space drift):
                    # discard the stale suffix rather than replaying it.
                    journal = journal[:generation]
                fresh = [c for c in batch if c not in known]
                if fresh:
                    with obs_tracing.span(
                        f"explore.generation:{generation}",
                        kind="explore",
                        generation=generation,
                        candidates=len(fresh),
                    ):
                        computed = self._evaluate(fresh)
                else:
                    computed = {}
                batch_results = {c: known.get(c, computed.get(c)) for c in batch}
                journal = journal[:generation] + [
                    [
                        {"params": c.params(), "result": batch_results[c]}
                        for c in batch
                    ]
                ]
                self._write_journal(journal)
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
