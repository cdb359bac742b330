"""The declarative search space: typed dimensions over the compiler config.

A :class:`Dimension` names one knob of the configuration tree
(``section.field`` on :class:`repro.config.CompilerConfig`) together with the
finite, ordered list of values the search may assign it.  A
:class:`SearchSpace` is a tuple of dimensions; a :class:`Candidate` is one
point of their cartesian product — frozen and hashable, so strategies can
use candidates as dictionary keys, and canonically serialisable
(``params()``), so every candidate maps onto exactly one cache content key
(:func:`repro.eval.cache.derived_key` over the parent compile key and the
params).

Dimensions are *validated against the config dataclasses* at construction:
an unknown section/field, an empty value list, or a value the corresponding
``validate()`` would reject fails fast instead of mid-search.  Applying a
candidate (:meth:`Candidate.apply`) rebuilds a full
:class:`~repro.config.CompilerConfig` via ``dataclasses.replace``, never
mutating the baseline.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from dataclasses import dataclass, replace
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.config import CompilerConfig
from repro.errors import ConfigError, ReproError

#: Config sections a dimension may address (the nested dataclasses).
_SECTIONS = ("partition", "runtime", "hls")


@dataclass(frozen=True)
class Dimension:
    """One searchable knob: a config field plus its enumerable values.

    ``name`` is the short identifier used in params and reports
    (unique within a space); ``section``/``field`` address the knob on the
    configuration tree; ``values`` is the ordered list a step-based strategy
    walks (so neighbouring values should be adjacent trade-offs).
    """

    name: str
    section: str
    field: str
    values: Tuple[Any, ...]

    def validate(self) -> None:
        if self.section not in _SECTIONS:
            raise ConfigError(
                f"dimension '{self.name}': unknown config section '{self.section}' "
                f"(expected one of {_SECTIONS})"
            )
        probe = CompilerConfig()
        section = getattr(probe, self.section)
        if not hasattr(section, self.field):
            raise ConfigError(
                f"dimension '{self.name}': {self.section} config has no field '{self.field}'"
            )
        if not self.values:
            raise ConfigError(f"dimension '{self.name}' has no values")
        if len(set(self.values)) != len(self.values):
            raise ConfigError(f"dimension '{self.name}' has duplicate values")
        for value in self.values:
            # Each value must survive the dataclass's own validation when
            # applied alone to the default config.
            replace(probe, **{self.section: replace(section, **{self.field: value})}).validate()

    def index_of(self, value: Any) -> int:
        try:
            return self.values.index(value)
        except ValueError:
            raise ReproError(
                f"value {value!r} is not in dimension '{self.name}' "
                f"(allowed: {list(self.values)})"
            ) from None


@dataclass(frozen=True)
class Candidate:
    """One point of the search space: an assignment per dimension, by name.

    ``assignment`` is sorted by dimension name, which makes equal candidates
    compare (and hash) equal regardless of how they were constructed, and
    makes :meth:`key` a canonical serialisation usable for content
    addresses and task ids.
    """

    assignment: Tuple[Tuple[str, Any], ...]

    def params(self) -> Dict[str, Any]:
        """The candidate as a plain, JSON-serialisable parameter dict."""
        return dict(self.assignment)

    def key(self) -> str:
        """Canonical JSON form (sorted keys, compact) — the tie-break order."""
        return json.dumps(self.params(), sort_keys=True, separators=(",", ":"))

    def short_id(self) -> str:
        """Eight hex characters identifying the candidate in task ids."""
        return hashlib.sha256(self.key().encode("utf-8")).hexdigest()[:8]

    def value(self, name: str) -> Any:
        for dim_name, value in self.assignment:
            if dim_name == name:
                return value
        raise ReproError(f"candidate has no dimension '{name}'")

    def apply(self, space: "SearchSpace", config: CompilerConfig) -> CompilerConfig:
        """A fresh :class:`CompilerConfig`: *config* with this assignment applied."""
        sections: Dict[str, Dict[str, Any]] = {}
        by_name = {dim.name: dim for dim in space.dimensions}
        for name, value in self.assignment:
            dim = by_name.get(name)
            if dim is None:
                raise ReproError(f"candidate dimension '{name}' is not in the search space")
            sections.setdefault(dim.section, {})[dim.field] = value
        updates = {
            section: replace(getattr(config, section), **fields)
            for section, fields in sections.items()
        }
        candidate_config = replace(config, **updates)
        candidate_config.validate()
        return candidate_config


@dataclass(frozen=True)
class SearchSpace:
    """An ordered tuple of dimensions; the search iterates their product."""

    dimensions: Tuple[Dimension, ...]

    def __post_init__(self) -> None:
        names = [dim.name for dim in self.dimensions]
        if len(set(names)) != len(names):
            raise ConfigError(f"duplicate dimension names in search space: {names}")
        for dim in self.dimensions:
            dim.validate()

    def size(self) -> int:
        total = 1
        for dim in self.dimensions:
            total *= len(dim.values)
        return total

    def dimension(self, name: str) -> Dimension:
        for dim in self.dimensions:
            if dim.name == name:
                return dim
        raise ReproError(f"search space has no dimension '{name}'")

    def _make(self, values: Tuple[Any, ...]) -> Candidate:
        pairs = sorted(zip((d.name for d in self.dimensions), values))
        return Candidate(assignment=tuple(pairs))

    def candidates(self) -> Iterator[Candidate]:
        """Every candidate, in deterministic (row-major product) order."""
        for values in itertools.product(*(dim.values for dim in self.dimensions)):
            yield self._make(values)

    def candidate(self, params: Dict[str, Any]) -> Candidate:
        """Build (and validate) a candidate from a parameter dict."""
        if set(params) != {dim.name for dim in self.dimensions}:
            raise ReproError(
                f"params {sorted(params)} do not match the space's dimensions "
                f"{sorted(dim.name for dim in self.dimensions)}"
            )
        for dim in self.dimensions:
            dim.index_of(params[dim.name])  # raises on out-of-space values
        return Candidate(assignment=tuple(sorted(params.items())))

    def initial(self, config: Optional[CompilerConfig] = None) -> Candidate:
        """The search's start point: the baseline config snapped into the space.

        Each dimension takes the baseline's value when it is one of the
        dimension's values, else the middle value — so hill-climbers start
        from (near) the thesis configuration rather than a corner.
        """
        config = config or CompilerConfig()
        values = []
        for dim in self.dimensions:
            baseline = getattr(getattr(config, dim.section), dim.field)
            if baseline in dim.values:
                values.append(baseline)
            else:
                values.append(dim.values[len(dim.values) // 2])
        return self._make(tuple(values))

    def neighbours(self, candidate: Candidate) -> List[Candidate]:
        """Candidates one step away along one dimension, in deterministic order."""
        out: List[Candidate] = []
        for dim in self.dimensions:
            index = dim.index_of(candidate.value(dim.name))
            for step in (-1, 1):
                neighbour_index = index + step
                if 0 <= neighbour_index < len(dim.values):
                    params = candidate.params()
                    params[dim.name] = dim.values[neighbour_index]
                    out.append(Candidate(assignment=tuple(sorted(params.items()))))
        return out

    def to_dict(self) -> Dict[str, Any]:
        """JSON form (task payloads, ``repro explore --json`` metadata)."""
        return {
            "dimensions": [
                {
                    "name": dim.name,
                    "section": dim.section,
                    "field": dim.field,
                    "values": list(dim.values),
                }
                for dim in self.dimensions
            ]
        }


def default_space() -> SearchSpace:
    """The full CLI search space: split, pipeline depth, queue geometry, HLS.

    240 candidates — large enough that budgeted strategies matter, small
    enough that ``exhaustive`` stays feasible for a workload or two.
    """
    return SearchSpace(
        dimensions=(
            Dimension("sw_fraction", "partition", "sw_fraction",
                      (0.1, 0.25, 0.4, 0.5, 0.6, 0.75)),
            Dimension("max_partitions", "partition", "max_partitions_per_function",
                      (2, 3, 4, 6)),
            Dimension("queue_depth", "runtime", "queue_depth", (2, 4, 8, 16, 32)),
            Dimension("loop_pipelining", "hls", "loop_pipelining", (False, True)),
        )
    )


def report_space() -> SearchSpace:
    """The small, fixed space every ``repro report`` explores exhaustively.

    Nine candidates per workload (3 split targets x 3 queue depths): cheap
    enough to ride along with the sweeps, rich enough for a non-trivial
    frontier in the report's exploration section.
    """
    return SearchSpace(
        dimensions=(
            Dimension("sw_fraction", "partition", "sw_fraction", (0.25, 0.5, 0.75)),
            Dimension("queue_depth", "runtime", "queue_depth", (4, 8, 16)),
        )
    )
