"""Configuration dataclasses for the whole Twill pipeline.

Defaults reproduce the evaluation configuration of the thesis (§6): 8-entry
32-bit queues, a single area-optimised MicroBlaze at 100 MHz, a targeted
75%/25% hardware/software work split, and the runtime cycle costs of
Chapter 4.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, fields
from typing import Any, Dict, Optional

from repro.errors import ConfigError


def _fields_dict(config: Any) -> Dict[str, Any]:
    """A flat config dataclass as a plain dict, in field order.

    What :func:`dataclasses.asdict` gives for these scalar-only sections,
    without its recursive deep copy (task keys build one per sweep point).
    """
    return {f.name: getattr(config, f.name) for f in fields(config)}


def _from_fields(cls: Any, data: Dict[str, Any]) -> Any:
    """Inverse of :func:`_fields_dict` (unknown keys ignored, defaults fill gaps)."""
    known = {f.name for f in fields(cls)}
    return cls(**{k: v for k, v in data.items() if k in known})


@dataclass
class PartitionConfig:
    """DSWP partitioner knobs (thesis §5.2)."""

    # Targeted fraction of work placed on the software (processor) partition.
    # The thesis reports the partitioner settles around a 75%/25% HW/SW split.
    sw_fraction: float = 0.25
    # Maximum pipeline partitions per function (1 software + N-1 hardware).
    max_partitions_per_function: int = 4
    # Minimum software-cycle weight that justifies opening another partition.
    work_per_partition: float = 2_000.0
    # Keep the master of main() on the processor (required for SoC boot flow, §5.3).
    master_in_software: bool = True
    # Use the dynamic profile for weights (True) or the static loop-depth
    # estimate the thesis uses (False).
    use_profile_weights: bool = True
    # Number of DSWP refinement iterations (the thesis caps this at two).
    max_refinement_iterations: int = 2

    def validate(self) -> None:
        if not 0.0 <= self.sw_fraction <= 1.0:
            raise ConfigError(f"sw_fraction must be in [0, 1], got {self.sw_fraction}")
        if self.max_partitions_per_function < 1:
            raise ConfigError("max_partitions_per_function must be >= 1")
        if self.work_per_partition <= 0:
            raise ConfigError("work_per_partition must be positive")

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "PartitionConfig":
        """Inverse of ``dataclasses.asdict`` (unknown keys ignored, defaults fill gaps)."""
        return _from_fields(cls, data)


@dataclass
class RuntimeConfig:
    """Twill runtime architecture parameters (thesis Chapter 4)."""

    # Queue geometry (§6: "All of the tests were run with only 8x32 sized queues").
    queue_depth: int = 8
    queue_width_bits: int = 32
    # Extra latency cycles a dequeued value spends in flight (swept in Fig 6.5).
    queue_latency: int = 2
    # Bus: one-cycle latency, one message per cycle (§4.1).
    bus_latency: int = 1
    # Memory bus: writes one cycle, reads two (§4.1); cross-domain visibility 2 cycles.
    memory_write_cycles: int = 1
    memory_read_cycles: int = 2
    coherency_delay: int = 2
    # Processor interface: five cycles for any runtime operation (§4.5).
    processor_op_cycles: int = 5
    # Number of MicroBlaze processors attached (the evaluation uses one).
    num_processors: int = 1
    # Semaphore costs (§4.2).
    semaphore_raise_cycles: int = 1
    semaphore_lower_cycles: int = 2
    # System clock for both domains (§6).
    clock_mhz: float = 100.0
    # Evaluation-host cache policy, not a simulated-architecture knob: when
    # set, the evaluation harness LRU-prunes the on-disk artifact cache to at
    # most this many bytes after each run.  Policy fields are excluded from
    # to_dict()/content_hash() so changing them never invalidates artefacts.
    cache_max_bytes: Optional[int] = None

    #: Cycle counts that may be fractional; ``queue_depth`` and
    #: ``queue_latency`` index the replay's queue slots and must be integers.
    _CYCLE_FIELDS = (
        "bus_latency",
        "memory_write_cycles",
        "memory_read_cycles",
        "coherency_delay",
        "processor_op_cycles",
        "semaphore_raise_cycles",
        "semaphore_lower_cycles",
    )

    def validate(self) -> None:
        for name in ("queue_depth", "queue_latency"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int):
                raise ConfigError(f"{name} must be an integer, got {value!r}")
        for name in self._CYCLE_FIELDS:
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise ConfigError(f"{name} must be a number, got {value!r}")
        if self.queue_depth < 1:
            raise ConfigError("queue_depth must be >= 1")
        if self.queue_width_bits not in (1, 8, 16, 32):
            raise ConfigError("queue_width_bits must be one of 1, 8, 16, 32 (§4.3)")
        if self.queue_latency < 1:
            raise ConfigError("queue_latency must be >= 1")
        if self.num_processors < 1:
            raise ConfigError("num_processors must be >= 1")
        if self.cache_max_bytes is not None and self.cache_max_bytes < 0:
            raise ConfigError("cache_max_bytes must be non-negative when set")

    #: Fields that tune the evaluation host rather than the simulated
    #: architecture; kept out of the content hash so they never change keys.
    _POLICY_FIELDS = ("cache_max_bytes",)

    def to_dict(self) -> Dict:
        """Plain-dict form (stable field order) used for cache keys and reports.

        Excludes host-side policy fields (`cache_max_bytes`): two runtimes
        that simulate identically must hash identically, whatever cache
        policy the evaluation harness runs under.
        """
        data = _fields_dict(self)
        for name in self._POLICY_FIELDS:
            data.pop(name, None)
        return data



@dataclass
class HLSConfig:
    """LegUp-analogue scheduler knobs."""

    # Peak operations issued per FSM state (functional-unit budget per state).
    issue_width: int = 8
    # Allow chaining of cheap combinational ops within one state.
    enable_chaining: bool = True
    # Allow hardware threads to overlap successive basic-block executions
    # (iterative-modulo-scheduling-style loop pipelining).  LegUp's FSMs do
    # not overlap blocks in general, so the baseline keeps this off.
    loop_pipelining: bool = False

    def validate(self) -> None:
        if self.issue_width < 1:
            raise ConfigError("issue_width must be >= 1")



@dataclass
class CompilerConfig:
    """Top-level configuration of the Twill compiler + simulator."""

    partition: PartitionConfig = field(default_factory=PartitionConfig)
    runtime: RuntimeConfig = field(default_factory=RuntimeConfig)
    hls: HLSConfig = field(default_factory=HLSConfig)
    # Inliner threshold (IR instructions) used by the pre-DSWP pipeline.
    inline_threshold: int = 60
    # Run Twill's globals-to-arguments pass before DSWP (thesis §5.2 pass 1).
    globals_to_arguments: bool = True
    # Materialise partition threads as IR functions (produce/consume form).
    extract_threads: bool = False
    # Verify IR after each transform pass.
    verify_passes: bool = True
    # Functional-interpreter step budget.
    max_interpreter_steps: int = 20_000_000

    def validate(self) -> None:
        self.partition.validate()
        self.runtime.validate()
        self.hls.validate()
        if self.inline_threshold < 0:
            raise ConfigError("inline_threshold must be non-negative")

    def to_dict(self) -> Dict:
        """Plain nested-dict form of the whole configuration tree.

        The runtime section goes through :meth:`RuntimeConfig.to_dict` so
        host-side policy fields stay out of cache keys and ``shared()`` keys.
        """
        data = _fields_dict(self)
        data["partition"] = _fields_dict(self.partition)
        data["runtime"] = self.runtime.to_dict()
        data["hls"] = _fields_dict(self.hls)
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "CompilerConfig":
        """Inverse of :meth:`to_dict`."""
        config = _from_fields(cls, data)
        config.partition = PartitionConfig.from_dict(data["partition"])
        config.runtime = _from_fields(RuntimeConfig, data["runtime"])
        config.hls = _from_fields(HLSConfig, data["hls"])
        return config

    def content_hash(self) -> str:
        """Hex digest identifying this configuration's contents.

        Two configs hash equal iff every knob (including the nested partition,
        runtime and HLS sections) is equal, so the digest can key the on-disk
        artifact cache and :meth:`repro.eval.EvaluationHarness.shared`.
        """
        canonical = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()
