"""Tests of the design-space exploration subsystem (``repro.explore``).

Layered cheapest-first, like the viz suite:

* pure unit tests of Pareto dominance (ties, duplicated points,
  single-objective collapse) and of the search space / strategies on
  synthetic cost functions — no compiles;
* end-to-end determinism on the cheapest workload: identical frontiers for
  the same seed + budget whether the search runs serially, over ``-j 2``,
  or is killed after one generation and resumed; a warm re-run evaluates
  nothing; and the report's embedded exploration artefact is
  byte-identical serial vs parallel.
"""

import json

import pytest

from repro.config import CompilerConfig
from repro.errors import ConfigError, ReproError
from repro.eval.cache import compile_key
from repro.eval.harness import EvaluationHarness
from repro.explore.driver import ExplorationDriver
from repro.explore.frontier import Frontier, Objective, dominates, pareto_indices, scalar_cost
from repro.explore.space import Dimension, SearchSpace, default_space, report_space
from repro.explore.strategies import STRATEGIES, make_strategy
from repro.workloads import get_workload

# A deliberately tiny space so end-to-end searches stay cheap: 6 candidates.
SMALL_SPACE = SearchSpace(
    dimensions=(
        Dimension("sw_fraction", "partition", "sw_fraction", (0.25, 0.5, 0.75)),
        Dimension("queue_depth", "runtime", "queue_depth", (4, 8)),
    )
)


#: The compile key of blowfish under the default config, the parent of
#: every explore point the payload tests evaluate.
BLOWFISH_KEY = compile_key(get_workload("blowfish").source, CompilerConfig())


def make_harness(tmp_path, **kwargs):
    return EvaluationHarness(
        benchmarks=["blowfish"], cache_dir=str(tmp_path / "cache"), **kwargs
    )


# ---------------------------------------------------------------------------
# Pareto dominance
# ---------------------------------------------------------------------------


def test_dominates_requires_strict_improvement_somewhere():
    assert dominates((1.0, 1.0), (2.0, 1.0))
    assert not dominates((1.0, 1.0), (1.0, 1.0))  # equality is not dominance
    assert not dominates((1.0, 2.0), (2.0, 1.0))  # trade-off: incomparable


def test_pareto_front_basic_and_deterministic_order():
    objectives = (Objective("a", "a"), Objective("b", "b"))
    results = [
        {"a": 3.0, "b": 1.0},   # frontier
        {"a": 2.0, "b": 2.0},   # frontier
        {"a": 3.0, "b": 3.0},   # dominated by both
        {"a": 1.0, "b": 4.0},   # frontier
    ]
    keys = ["p0", "p1", "p2", "p3"]
    front = pareto_indices(results, objectives, keys)
    assert front == [3, 1, 0]  # sorted by objective vector
    assert front == pareto_indices(results, objectives, keys)


def test_pareto_ties_are_incomparable_and_both_kept():
    objectives = (Objective("a", "a"), Objective("b", "b"))
    results = [
        {"a": 1.0, "b": 2.0},
        {"a": 2.0, "b": 1.0},
        {"a": 1.0, "b": 2.0 + 0.0},  # duplicate of the first vector
    ]
    # Distinct params behind an identical vector: exactly one survives,
    # chosen by the smallest canonical key, not by position.
    front = pareto_indices(results, objectives, ["z", "m", "a"])
    assert front == [2, 1]
    front = pareto_indices(results, objectives, ["a", "m", "z"])
    assert front == [0, 1]


def test_pareto_single_objective_collapses_to_the_minimum():
    objectives = (Objective("cost", "cost"),)
    results = [{"cost": c} for c in (5.0, 2.0, 9.0, 2.0)]
    front = pareto_indices(results, objectives, ["w", "x", "y", "b"])
    assert len(front) == 1
    assert results[front[0]]["cost"] == 2.0
    assert front == [3]  # the duplicate minimum with the smaller key wins


def test_pareto_maximise_sense_inverts():
    objectives = (Objective("speed", "speed", sense="max"),)
    results = [{"speed": 1.0}, {"speed": 7.0}, {"speed": 3.0}]
    assert pareto_indices(results, objectives, ["a", "b", "c"]) == [1]


def test_frontier_rows_and_best_by():
    evaluations = [
        ({"x": 1}, {"area_luts": 100, "cycles": 50.0, "power_mw": 10.0, "speedup_vs_sw": 2.0}),
        ({"x": 2}, {"area_luts": 50, "cycles": 80.0, "power_mw": 10.0, "speedup_vs_sw": 1.5}),
        ({"x": 3}, {"area_luts": 120, "cycles": 90.0, "power_mw": 20.0, "speedup_vs_sw": 1.0}),
    ]
    frontier = Frontier(evaluations)
    assert len(frontier) == 2  # x=3 is dominated by x=1
    assert [row["params"]["x"] for row in frontier.to_rows()] == [2, 1]
    assert frontier.best_by("cycles")[0] == {"x": 1}
    assert frontier.best_by("area")[0] == {"x": 2}


# ---------------------------------------------------------------------------
# search space
# ---------------------------------------------------------------------------


def test_space_enumeration_is_deterministic_and_complete():
    assert SMALL_SPACE.size() == 6
    first = list(SMALL_SPACE.candidates())
    assert len(set(first)) == 6
    assert first == list(SMALL_SPACE.candidates())


def test_space_rejects_bad_dimensions():
    with pytest.raises(ConfigError, match="unknown config section"):
        SearchSpace((Dimension("x", "nope", "sw_fraction", (0.5,)),))
    with pytest.raises(ConfigError, match="no field"):
        SearchSpace((Dimension("x", "partition", "ghost_knob", (1,)),))
    with pytest.raises(ConfigError):
        # 1.5 fails PartitionConfig.validate (sw_fraction must be in [0, 1]).
        SearchSpace((Dimension("x", "partition", "sw_fraction", (0.5, 1.5)),))


def test_candidate_apply_builds_validated_configs():
    from repro.config import CompilerConfig

    base = CompilerConfig()
    candidate = SMALL_SPACE.candidate({"sw_fraction": 0.75, "queue_depth": 4})
    config = candidate.apply(SMALL_SPACE, base)
    assert config.partition.sw_fraction == 0.75
    assert config.runtime.queue_depth == 4
    assert base.partition.sw_fraction == 0.25  # baseline untouched
    assert config.content_hash() != base.content_hash()
    with pytest.raises(ReproError):
        SMALL_SPACE.candidate({"sw_fraction": 0.33, "queue_depth": 4})  # off-grid
    with pytest.raises(ReproError):
        SMALL_SPACE.candidate({"sw_fraction": 0.5})  # missing dimension


def test_neighbours_step_one_dimension_at_a_time():
    centre = SMALL_SPACE.candidate({"sw_fraction": 0.5, "queue_depth": 4})
    neighbours = SMALL_SPACE.neighbours(centre)
    assert len(neighbours) == 3  # sw down, sw up, depth up (4 is the edge)
    for neighbour in neighbours:
        diffs = [
            name for name in ("sw_fraction", "queue_depth")
            if neighbour.value(name) != centre.value(name)
        ]
        assert len(diffs) == 1


def test_initial_snaps_to_the_baseline_config():
    initial = default_space().initial()
    assert initial.value("sw_fraction") == 0.25  # the thesis default
    assert initial.value("queue_depth") == 8


# ---------------------------------------------------------------------------
# strategies on a synthetic cost surface (no compiles)
# ---------------------------------------------------------------------------


def synthetic_result(candidate):
    """A convex-ish deterministic cost surface over SMALL_SPACE."""
    sw = candidate.value("sw_fraction")
    depth = candidate.value("queue_depth")
    cost = (sw - 0.5) ** 2 + (depth - 8) ** 2 / 64.0
    return {"area_luts": 1000.0 + cost, "cycles": 1000.0 + cost, "power_mw": 100.0}


def drive(strategy):
    """Run a strategy to completion against the synthetic surface."""
    generations = 0
    while True:
        batch = strategy.propose()
        if not batch:
            break
        strategy.observe([(c, synthetic_result(c)) for c in batch])
        generations += 1
        assert generations < 100, "strategy failed to terminate"
    return strategy


@pytest.mark.parametrize("name", sorted(STRATEGIES))
def test_every_strategy_respects_the_budget_and_terminates(name):
    strategy = drive(make_strategy(name, SMALL_SPACE, budget=4, seed=9))
    assert 1 <= len(strategy.evaluated) <= 4


def test_exhaustive_covers_the_space_within_budget():
    strategy = drive(make_strategy("exhaustive", SMALL_SPACE, budget=10, seed=0))
    assert len(strategy.evaluated) == SMALL_SPACE.size()


def test_random_is_seed_reproducible_and_seed_sensitive():
    one = drive(make_strategy("random", SMALL_SPACE, budget=3, seed=5))
    two = drive(make_strategy("random", SMALL_SPACE, budget=3, seed=5))
    assert list(one.evaluated) == list(two.evaluated)
    other = drive(make_strategy("random", default_space(), budget=3, seed=6))
    same = drive(make_strategy("random", default_space(), budget=3, seed=5))
    assert list(other.evaluated) != list(same.evaluated)


def test_greedy_descends_to_the_synthetic_optimum():
    strategy = drive(make_strategy("greedy", SMALL_SPACE, budget=6, seed=0))
    best = min(strategy.evaluated.values(), key=scalar_cost)
    optimum = SMALL_SPACE.candidate({"sw_fraction": 0.5, "queue_depth": 8})
    assert strategy.evaluated[optimum] == best


def test_annealing_walk_is_seed_deterministic():
    one = drive(make_strategy("annealing", SMALL_SPACE, budget=5, seed=11))
    two = drive(make_strategy("annealing", SMALL_SPACE, budget=5, seed=11))
    assert list(one.evaluated) == list(two.evaluated)


def test_unknown_strategy_fails_cleanly():
    with pytest.raises(ReproError, match="unknown exploration strategy"):
        make_strategy("gradient", SMALL_SPACE, budget=4, seed=0)


# ---------------------------------------------------------------------------
# end-to-end determinism: serial vs parallel vs resumed-after-kill
# ---------------------------------------------------------------------------


def run_search(harness, **overrides):
    options = dict(
        strategy="annealing", budget=5, seed=7, space=SMALL_SPACE,
    )
    options.update(overrides)
    return ExplorationDriver(harness, "blowfish", **options)


def test_same_seed_serial_vs_parallel_vs_resumed_identical(tmp_path):
    serial_driver = run_search(make_harness(tmp_path / "serial"))
    serial = serial_driver.run().to_json_dict()

    parallel = run_search(make_harness(tmp_path / "parallel"), jobs=2).run().to_json_dict()
    assert json.dumps(serial, sort_keys=True) == json.dumps(parallel, sort_keys=True)

    # "Kill" a third search after its first generation (its candidates stay
    # in the cache), then resume with a fresh driver: identical frontier,
    # the completed generation comes back as cache hits, and only the rest
    # of the search executes.
    killed = run_search(make_harness(tmp_path / "resumed"), max_generations=1)
    killed.run()
    assert killed.stats["executed"] == killed.stats["evaluated"] >= 1
    resumed_driver = run_search(make_harness(tmp_path / "resumed"))
    resumed = resumed_driver.run()
    assert json.dumps(resumed.to_json_dict(), sort_keys=True) == json.dumps(
        serial, sort_keys=True
    )
    assert resumed_driver.stats["cache_hits"] == killed.stats["executed"]
    assert resumed_driver.stats["executed"] < serial_driver.stats["executed"]
    assert (
        resumed_driver.stats["executed"]
        == serial_driver.stats["executed"] - killed.stats["executed"]
    )


def test_parallel_search_keeps_one_pool_and_matches_serial(tmp_path, monkeypatch):
    """A multi-generation ``-j 2`` search runs every generation on one pool:
    each slot forks at most once, no slot outlives the search, and the
    result is the serial one byte for byte."""
    import multiprocessing

    from repro.eval.taskgraph import LocalProcessExecutor

    forks = []
    fork_slot = LocalProcessExecutor._fork_slot

    def counting(self, tasks):
        forks.append(1)
        return fork_slot(self, tasks)

    monkeypatch.setattr(LocalProcessExecutor, "_fork_slot", counting)
    serial = run_search(make_harness(tmp_path / "serial")).run()
    assert forks == []
    parallel = run_search(make_harness(tmp_path / "parallel"), jobs=2).run()
    assert parallel.generations > 2
    assert 1 <= len(forks) <= 2
    assert multiprocessing.active_children() == []
    assert json.dumps(parallel.to_json_dict(), sort_keys=True) == json.dumps(
        serial.to_json_dict(), sort_keys=True
    )


def test_warm_rerun_evaluates_nothing_and_is_byte_identical(tmp_path):
    cold_driver = run_search(make_harness(tmp_path))
    cold = cold_driver.run().to_json_dict()
    assert cold_driver.stats["executed"] > 0
    warm_driver = run_search(make_harness(tmp_path))
    warm = warm_driver.run().to_json_dict()
    assert warm_driver.stats["executed"] == 0  # the cache satisfies everything
    assert json.dumps(cold, sort_keys=True) == json.dumps(warm, sort_keys=True)


def test_search_without_cache_still_works(tmp_path):
    harness = EvaluationHarness(benchmarks=["blowfish"], use_cache=False)
    result = run_search(harness, strategy="exhaustive", budget=3).run()
    assert len(result.evaluations) == 3
    assert len(result.frontier) >= 1


def test_frontier_members_are_evaluated_candidates(tmp_path):
    result = run_search(make_harness(tmp_path), strategy="exhaustive", budget=6).run()
    evaluated_params = [c.params() for c, _ in result.evaluations]
    frontier_rows = result.frontier.to_rows()
    assert frontier_rows, "exhaustive search over a real workload found no frontier"
    for row in frontier_rows:
        assert row["params"] in evaluated_params
        assert row["area_luts"] > 0 and row["cycles"] > 0 and row["power_mw"] > 0


def test_driver_rejects_foreign_workloads(tmp_path):
    with pytest.raises(ReproError, match="not in this harness's benchmark set"):
        ExplorationDriver(make_harness(tmp_path), "mips")


# ---------------------------------------------------------------------------
# the report's embedded exploration artefact
# ---------------------------------------------------------------------------


def test_report_exploration_artefact_serial_vs_parallel(tmp_path):
    from repro.eval import experiments

    serial = experiments.run_report(harness=make_harness(tmp_path / "s"))
    parallel = experiments.run_report(harness=make_harness(tmp_path / "p"), parallel=2)
    assert serial["exploration"] == parallel["exploration"]
    exploration = serial["exploration"]
    assert exploration["workloads"] == ["blowfish"]
    assert len(exploration["rows"]) == report_space().size()
    assert exploration["frontier_sizes"]["blowfish"] >= 1
    assert any(row["pareto"] for row in exploration["rows"])
    # The progress curve is monotonically non-increasing and starts at 1.0.
    curve = exploration["progress"]["blowfish"]
    assert curve[0] == 1.0
    assert all(b <= a + 1e-12 for a, b in zip(curve, curve[1:]))


def test_a_split_point_and_its_exploration_candidate_are_one_node(tmp_path):
    """A split point is the design point of the harness config with another
    ``sw_fraction``.  In one report graph, ``sweep:split:<w>:0.5`` and the
    exploration candidate {sw_fraction: 0.5, queue_depth: 8} (the default
    depth) have one key, so a cold serial report computes the 12 split and
    18 exploration nodes of mips and blowfish as 24 design points."""
    from repro.eval import experiments
    from repro.eval.taskgraph import TaskGraph, explore_task_id

    harness = EvaluationHarness(benchmarks=["blowfish", "mips"], cache_dir=str(tmp_path / "cache"))
    graph = TaskGraph()
    experiments.declare_report(graph, harness)
    candidate = report_space().candidate({"sw_fraction": 0.5, "queue_depth": 8})
    for name in ("mips", "blowfish"):
        split = graph.task(f"sweep:split:{name}:0.5")
        assert split.kind == "explore"
        assert split.key == graph.task(explore_task_id(name, candidate)).key
    design = [task for task in graph if task.kind == "explore"]
    assert len(design) == 30 and len({task.key for task in design}) == 24

    experiments.run_report(harness=harness)
    assert harness.last_stats["executed"]["explore"] == 24
    assert harness.last_stats["cache_hit_kinds"]["explore"] == 6
    runtime_keys = {task.key for task in graph if task.kind == "runtime"}
    assert len(list(harness.cache.objects_dir.rglob("*.json"))) == len(runtime_keys) + 24


@pytest.mark.parametrize("name", ["blowfish", "mips"])
def test_every_split_row_is_the_design_point_of_its_configuration(tmp_path, name):
    """Each row of a split sweep is the explore payload's value for the
    harness config with that ``sw_fraction``, computed here without a cache."""
    from repro.eval import experiments
    from repro.explore import evaluate

    harness = EvaluationHarness(benchmarks=[name], cache_dir=str(tmp_path / "cache"))
    rows = experiments.split_sweep(name, harness)["rows"]
    assert [row["sw_fraction"] for row in rows] == experiments.SPLIT_POINTS
    space = SearchSpace(
        dimensions=(
            Dimension("sw_fraction", "partition", "sw_fraction", tuple(experiments.SPLIT_POINTS)),
        )
    )
    config = CompilerConfig()
    parent = compile_key(get_workload(name).source, config)
    for row in rows:
        point = space.candidate({"sw_fraction": row["sw_fraction"]}).apply(space, config)
        value = evaluate.compute_explore_point(name, config, None, point, parent)
        assert row["cycles"] == value["cycles"]
        assert row["queues"] == int(value["queues"])
        assert row["speedup_vs_sw"] == value["speedup_vs_sw"]
        assert harness.twill_cycles_with_split(name, row["sw_fraction"]) == {
            "cycles": value["cycles"], "queues": value["queues"],
            "speedup_vs_sw": value["speedup_vs_sw"],
        }


def test_report_and_explore_store_only_artifacts_and_json(tmp_path, monkeypatch):
    """A cold report with its explore figure, then ``repro explore all``,
    store every cache entry as a compile artifact or JSON: nothing pickled."""
    from repro import cli
    from repro.eval import experiments
    from repro.explore import evaluate

    monkeypatch.chdir(tmp_path)
    evaluate._DSWP_MEMO.clear()
    cache_dir = str(tmp_path / "cache")
    harness = EvaluationHarness(benchmarks=["blowfish", "mips"], cache_dir=cache_dir)
    assert experiments.run_report(harness=harness)["exploration"]["rows"]
    argv = ["explore", "all", "--budget", "12", "--benchmarks", "blowfish,mips"]
    assert cli.main(argv + ["--cache-dir", cache_dir]) == 0
    stored = [p.suffix for p in (tmp_path / "cache" / "objects").rglob("*") if p.is_file()]
    assert set(stored) == {".art", ".json"}
    assert stored.count(".art") == 2


# ---------------------------------------------------------------------------
# incremental evaluation: the shared re-partition stage
# ---------------------------------------------------------------------------


def test_repartition_runs_once_per_distinct_partition(tmp_path, monkeypatch):
    """Candidates differing only in runtime dimensions share one DSWP run.

    SMALL_SPACE is 3 split targets x 2 queue depths = 6 candidates; the
    re-partition stage is keyed by partition parameters alone, so a cold
    sweep must invoke DSWP exactly 3 times — the memo absorbs the other 3 —
    and a second sweep in the same process must invoke it 0 times.
    """
    from repro.config import CompilerConfig
    from repro.explore import evaluate
    from repro.sim import system

    evaluate._DSWP_MEMO.clear()
    calls = []
    real_repartition = system.repartition

    def counting(*args, **kwargs):
        calls.append(1)
        return real_repartition(*args, **kwargs)

    # The explore payload imports the DSWP stage where it runs it.
    monkeypatch.setattr(system, "repartition", counting)
    config = CompilerConfig()
    cache_root = str(tmp_path / "cache")

    def sweep():
        return [
            evaluate.compute_explore_point(
                "blowfish", config, cache_root, c.apply(SMALL_SPACE, config), BLOWFISH_KEY
            )
            for c in SMALL_SPACE.candidates()
        ]

    cold = sweep()
    assert len(cold) == 6
    assert len(calls) == 3  # one per distinct sw_fraction

    warm = sweep()
    assert len(calls) == 3  # memo hits: no further DSWP runs
    assert json.dumps(warm, sort_keys=True) == json.dumps(cold, sort_keys=True)


def test_memoized_points_byte_identical_to_fresh(tmp_path):
    """Memo reuse must not perturb a single objective byte.

    The same candidate list is evaluated three ways: cold (fresh process
    state, populating the cache and the memo), memo-warm (same process),
    and memo-cleared (DSWP re-run on the same compile result).  All three
    must serialise identically.
    """
    from repro.config import CompilerConfig
    from repro.explore import evaluate

    config = CompilerConfig()
    cache_root = str(tmp_path / "cache")

    def sweep():
        return json.dumps(
            [
                evaluate.compute_explore_point(
                    "blowfish", config, cache_root, c.apply(SMALL_SPACE, config), BLOWFISH_KEY
                )
                for c in SMALL_SPACE.candidates()
            ],
            sort_keys=True,
        )

    evaluate._DSWP_MEMO.clear()
    cold = sweep()
    memo_warm = sweep()
    evaluate._DSWP_MEMO.clear()
    recomputed = sweep()
    assert memo_warm == cold
    assert recomputed == cold


def test_dswp_memo_binds_to_the_compile_results_own_instructions(tmp_path, monkeypatch):
    """The DSWP stage lives in a per-process memo only: nothing of it
    reaches the cache.  A memo entry is bound to the module it was computed
    on — every partitioned instruction *is* one of its instructions — and
    one computed on another copy of the module is recomputed for the
    caller's copy."""
    from repro.config import CompilerConfig
    from repro.core.compiler import TwillCompiler
    from repro.eval.worker import sweep_input
    from repro.eval.cache import compile_key
    from repro.explore import evaluate
    from repro.results import CompilationResult
    from repro.sim import system
    from repro.workloads import get_workload

    config = CompilerConfig()
    cache_root = str(tmp_path / "cache")
    parent = compile_key(get_workload("blowfish").source, config)
    result = sweep_input("blowfish", config, cache_root, parent)
    candidates = list(SMALL_SPACE.candidates())

    def points():
        return [
            evaluate.compute_explore_point(
                "blowfish", config, cache_root, c.apply(SMALL_SPACE, config), BLOWFISH_KEY
            )
            for c in candidates
        ]

    def assert_bound(dswp, module):
        instructions = {i for fn in module.functions.values() for i in fn.instructions()}
        assert dswp.partitioning.module is module
        for fn_name, fp in dswp.partitioning.functions.items():
            assert fp.function is module.get_function(fn_name)
            for partition in fp.partitions:
                assert all(i in instructions for i in partition.instructions)
                assert all(fp.assignment[i] == partition.index for i in partition.instructions)

    evaluate._DSWP_MEMO.clear()
    fresh = points()
    stored = [p.suffix for p in (tmp_path / "cache" / "objects").rglob("*") if p.is_file()]
    assert set(stored) <= {".art"}  # at most the compile artifact: no DSWP-stage entry
    calls = []
    real_repartition = system.repartition

    def counting(*args, **kwargs):
        calls.append(1)
        return real_repartition(*args, **kwargs)

    monkeypatch.setattr(system, "repartition", counting)
    assert points() == fresh and calls == []  # memo hits
    for candidate in candidates:
        candidate_config = candidate.apply(SMALL_SPACE, config)
        assert_bound(evaluate._candidate_dswp(parent, result, candidate_config), result.module)
    assert calls == []

    copy = CompilationResult(
        name="blowfish",
        system=None,
        **TwillCompiler(config).build(get_workload("blowfish").source, "blowfish"),
    )
    candidate_config = candidates[0].apply(SMALL_SPACE, config)
    rebound = evaluate._candidate_dswp(parent, copy, candidate_config)
    assert_bound(rebound, copy.module)
    assert calls == [1]
    assert rebound.summary() == evaluate._candidate_dswp(parent, copy, candidate_config).summary()
    assert calls == [1]  # bound to the copy now: a hit
    again = evaluate._candidate_dswp(parent, result, candidate_config)
    assert_bound(again, result.module)
    assert calls == [1, 1]
