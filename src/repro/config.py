"""Configuration dataclasses for the whole Twill pipeline.

Defaults reproduce the evaluation configuration of the thesis (§6): 8-entry
32-bit queues, a single area-optimised MicroBlaze at 100 MHz, a targeted
75%/25% hardware/software work split, and the runtime cycle costs of
Chapter 4.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field, fields, replace
from typing import Any, Dict, Optional, Type, TypeVar

from repro.errors import ConfigError

_T = TypeVar("_T")


def _from_flat_dict(cls: Type[_T], data: Dict[str, Any]) -> _T:
    """Build a flat config dataclass from a plain dict.

    Unknown keys are ignored (so a newer producer can talk to an older
    consumer over the remote-execution wire), and missing keys fall back to
    the dataclass defaults.
    """
    known = {f.name for f in fields(cls)}  # type: ignore[arg-type]
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
        """Inverse of ``asdict`` (unknown keys ignored, defaults fill gaps)."""
        return _from_flat_dict(cls, data)


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
    # Host policy: shared secret required (constant-time checked) on every
    # cache-service and coordinator request (docs/DISTRIBUTED.md "Trust
    # model").  Falls back to the REPRO_SERVICE_TOKEN environment variable;
    # never part of content hashes, never sent as a task argument.
    service_token: Optional[str] = None

    def validate(self) -> None:
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

    def with_queue_latency(self, latency: int) -> "RuntimeConfig":
        return replace(self, queue_latency=latency)

    def with_queue_depth(self, depth: int) -> "RuntimeConfig":
        return replace(self, queue_depth=depth)

    #: Fields that tune the evaluation host rather than the simulated
    #: architecture; kept out of the content hash so they never change keys.
    _POLICY_FIELDS = ("cache_max_bytes", "service_token")

    def to_dict(self) -> Dict:
        """Plain-dict form (stable field order) used for cache keys and reports.

        Excludes host-side policy fields (`cache_max_bytes`): two runtimes
        that simulate identically must hash identically, whatever cache
        policy the evaluation harness runs under.
        """
        data = asdict(self)
        for name in self._POLICY_FIELDS:
            data.pop(name, None)
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "RuntimeConfig":
        """Inverse of :meth:`to_dict` (policy fields stay at their defaults)."""
        return _from_flat_dict(cls, data)


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

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "HLSConfig":
        """Inverse of ``asdict`` (unknown keys ignored, defaults fill gaps)."""
        return _from_flat_dict(cls, data)


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
        data = asdict(self)
        data["runtime"] = self.runtime.to_dict()
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "CompilerConfig":
        """Inverse of :meth:`to_dict`: rebuild the nested configuration tree.

        A round trip preserves :meth:`content_hash` exactly, which is what
        lets a remote worker recompute the same cache keys as the parent that
        serialised the config onto the wire.
        """
        nested = {
            "partition": PartitionConfig.from_dict(data.get("partition", {})),
            "runtime": RuntimeConfig.from_dict(data.get("runtime", {})),
            "hls": HLSConfig.from_dict(data.get("hls", {})),
        }
        flat = {k: v for k, v in data.items() if k not in nested}
        config = _from_flat_dict(cls, flat)
        return replace(config, **nested)

    def content_hash(self) -> str:
        """Hex digest identifying this configuration's contents.

        Two configs hash equal iff every knob (including the nested partition,
        runtime and HLS sections) is equal, so the digest can key the on-disk
        artifact cache and :meth:`repro.eval.EvaluationHarness.shared`.
        """
        canonical = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()
