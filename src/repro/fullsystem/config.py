"""Full-system configuration (Table II)."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.core.config import ApproximatorConfig
from repro.cpu.core import CoreConfig
from repro.errors import ConfigurationError
from repro.mem.cache import CacheConfig
from repro.noc.network import NocConfig


@dataclass(frozen=True)
class FullSystemConfig:
    """The Table II platform.

    ================  ==========================================
    Processor         4 IA-32 cores, 2 GHz, 4-wide OoO, 32-entry ROB
    Private L1 cache  16 KB, 8-way, 1-cycle latency, 64 B blocks
    Shared L2 cache   512 KB distributed, 16-way, 6-cycle latency
    Main memory       1 GB, 160-cycle latency
    Cache coherence   MSI protocol
    Network-on-chip   2x2 mesh, 3-cycle routers
    ================  ==========================================

    ``approximate`` selects LVA mode; ``approximator`` configures the
    per-core approximators (value delay is *not* applied from the config in
    phase 2 — the real in-flight fetch latency provides it, averaging ~1 as
    the paper observes).
    """

    num_cores: int = 4
    core: CoreConfig = field(default_factory=CoreConfig)
    l1: CacheConfig = field(
        default_factory=lambda: CacheConfig(
            size_bytes=16 * 1024, associativity=8, block_bytes=64, latency=1
        )
    )
    l2: CacheConfig = field(
        default_factory=lambda: CacheConfig(
            size_bytes=512 * 1024, associativity=16, block_bytes=64, latency=6
        )
    )
    memory_latency: int = 160
    noc: NocConfig = field(default_factory=NocConfig)
    approximate: bool = False
    approximator: Optional[ApproximatorConfig] = None

    def __post_init__(self) -> None:
        if self.num_cores != self.noc.width * self.noc.height:
            raise ConfigurationError(
                "one core per mesh node required: "
                f"{self.num_cores} cores vs {self.noc.width}x{self.noc.height} mesh"
            )
        if self.l1.block_bytes != self.l2.block_bytes:
            raise ConfigurationError("L1 and L2 must share a block size")
        if self.memory_latency < 0:
            raise ConfigurationError("memory latency must be >= 0")

    def resolved_approximator(self) -> ApproximatorConfig:
        """The approximator configuration, defaulting to the baseline."""
        return self.approximator or ApproximatorConfig()
