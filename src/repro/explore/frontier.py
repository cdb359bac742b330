"""Exact multi-objective Pareto sets with deterministic tie-breaking.

The exploration objectives are the three axes the thesis trades off —
FPGA **area** (Twill LUTs incl. the MicroBlaze), execution **cycles** and
estimated **power** — all minimised, read from the structured result dict
each ``explore`` task produces (``repro.hls.area`` via the system roll-up,
``repro.sim.timing`` cycles, ``repro.sim.power`` milliwatts).

:func:`pareto_indices` is exact (pairwise dominance, no approximation) and
fully deterministic:

* a point **dominates** another when it is no worse on every objective and
  strictly better on at least one (so objective-identical duplicates do not
  dominate each other);
* duplicated objective vectors are collapsed to the candidate with the
  lexicographically smallest canonical parameter key, so the frontier is a
  *set* of design points, not an artifact of evaluation order;
* the returned frontier is sorted by objective vector, then by that same
  canonical key — identical inputs give identical output bytes.

:func:`scalar_cost` is the single-number collapse (sum of log-objectives,
i.e. the log of their product) that hill-climb and annealing strategies
descend; being scale-free it weighs a 2x area increase like a 2x slowdown.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Any, Dict, List, Sequence, Tuple


@dataclass(frozen=True)
class Objective:
    """One optimisation axis: display name, result-dict key, and sense."""

    name: str
    key: str
    sense: str = "min"  # "min" or "max"

    def value(self, result: Dict[str, Any]) -> float:
        """The objective's canonical minimise-me value for one result."""
        raw = float(result[self.key])
        return -raw if self.sense == "max" else raw


#: The standard exploration objectives, in report order (all minimised).
OBJECTIVES: Tuple[Objective, ...] = (
    Objective("area", "area_luts"),
    Objective("cycles", "cycles"),
    Objective("power", "power_mw"),
)


def objective_vector(
    result: Dict[str, Any], objectives: Sequence[Objective] = OBJECTIVES
) -> Tuple[float, ...]:
    """The minimise-me vector of one evaluated candidate's result dict."""
    return tuple(objective.value(result) for objective in objectives)


def dominates(a: Sequence[float], b: Sequence[float]) -> bool:
    """Whether vector *a* Pareto-dominates *b* (<= everywhere, < somewhere)."""
    return all(x <= y for x, y in zip(a, b)) and any(x < y for x, y in zip(a, b))


def scalar_cost(
    result: Dict[str, Any], objectives: Sequence[Objective] = OBJECTIVES
) -> float:
    """Scale-free scalar collapse of the objectives (lower is better).

    The sum of natural logs — the log of the objectives' product — so
    relative improvements count equally whatever the objective's unit, and
    no weighting constants need tuning.  Non-positive values clamp to a tiny
    epsilon rather than exploding (a zero-area candidate should win, not
    crash the search).
    """
    return sum(math.log(max(value, 1e-12)) for value in objective_vector(result, objectives))


def pareto_indices(
    results: Sequence[Dict[str, Any]],
    objectives: Sequence[Objective] = OBJECTIVES,
    tie_keys: Sequence[str] = (),
) -> List[int]:
    """Indices of the exact Pareto-optimal entries of *results*.

    *tie_keys* supplies the deterministic tie-break identity per entry (the
    candidate's canonical parameter key); when omitted, the entry's index
    string is used, which keeps order-determinism but not set-semantics —
    always pass real keys when duplicates are possible.

    Returned indices are sorted by (objective vector, tie key), and
    objective-identical duplicates keep only the smallest tie key.
    """
    keys = [tie_keys[i] if tie_keys else str(i) for i in range(len(results))]
    vectors = [objective_vector(result, objectives) for result in results]
    frontier: List[int] = []
    seen_vectors: Dict[Tuple[float, ...], int] = {}
    for index, vector in enumerate(vectors):
        if any(dominates(other, vector) for other in vectors):
            continue
        twin = seen_vectors.get(vector)
        if twin is not None:
            # Duplicate design point: keep the lexicographically smaller key.
            if keys[index] < keys[twin]:
                frontier[frontier.index(twin)] = index
                seen_vectors[vector] = index
            continue
        seen_vectors[vector] = index
        frontier.append(index)
    return sorted(frontier, key=lambda i: (vectors[i], keys[i]))


class Frontier:
    """The Pareto set over a list of evaluated candidates.

    Construction is a pure function of ``(params, result)`` pairs; the
    stored rows carry the objective values plus the originating parameters,
    already in the canonical deterministic order, so serialising a frontier
    (``to_rows``) is what ``repro explore --json`` emits byte-identically
    run after run.
    """

    def __init__(
        self,
        evaluations: Sequence[Tuple[Dict[str, Any], Dict[str, Any]]],
        objectives: Sequence[Objective] = OBJECTIVES,
    ):
        self.objectives = tuple(objectives)
        self._evaluations = list(evaluations)
        tie_keys = [
            json.dumps(params, sort_keys=True, separators=(",", ":"))
            for params, _ in self._evaluations
        ]
        self._indices = pareto_indices(
            [result for _, result in self._evaluations], self.objectives, tie_keys
        )

    def __len__(self) -> int:
        return len(self._indices)

    @property
    def indices(self) -> List[int]:
        return list(self._indices)

    def points(self) -> List[Tuple[Dict[str, Any], Dict[str, Any]]]:
        """The frontier's ``(params, result)`` pairs in canonical order."""
        return [self._evaluations[i] for i in self._indices]

    def to_rows(self) -> List[Dict[str, Any]]:
        """One JSON-ready row per frontier point: params + objective values."""
        rows = []
        for params, result in self.points():
            row: Dict[str, Any] = {"params": dict(params)}
            for objective in self.objectives:
                row[objective.key] = result[objective.key]
            if "speedup_vs_sw" in result:
                row["speedup_vs_sw"] = result["speedup_vs_sw"]
            rows.append(row)
        return rows
