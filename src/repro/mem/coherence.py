"""A directory-based MSI coherence protocol (Table II).

The full-system configuration runs MSI over a 2x2 mesh. This directory
tracks, per block, which cores hold it and in what state, and returns the
invalidation/downgrade messages a request generates so the caller can
charge NoC traffic and invalidate the private caches.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Set


class CoherenceState(enum.Enum):
    """MSI coherence states (the protocol of Table II)."""

    INVALID = "I"
    SHARED = "S"
    MODIFIED = "M"


class CoherenceAction(enum.Enum):
    """Messages the directory asks the requester/system to perform."""

    INVALIDATE = "invalidate"
    DOWNGRADE = "downgrade"  # M -> S at the former owner, with writeback
    FETCH_FROM_MEMORY = "fetch"
    FETCH_FROM_OWNER = "forward"


@dataclass(slots=True)
class CoherenceResponse:
    """Result of a directory request."""

    #: Per-core actions, as (core_id, action) pairs; charge one NoC control
    #: message for each.
    actions: List[tuple]
    #: State the requester installs the block in.
    new_state: CoherenceState


@dataclass(slots=True)
class DirectoryEntry:
    """Sharers/owner bookkeeping for one block."""

    sharers: Set[int] = field(default_factory=set)
    owner: int = -1  # core holding the block Modified, or -1


@dataclass(slots=True)
class DirectoryStats:
    """Protocol event counters."""

    read_requests: int = 0
    write_requests: int = 0
    invalidations_sent: int = 0
    downgrades_sent: int = 0
    memory_fetches: int = 0
    owner_forwards: int = 0


class MSIDirectory:
    """Full-map directory for an ``num_cores``-core MSI system."""

    def __init__(self, num_cores: int = 4) -> None:
        self.num_cores = num_cores
        self.stats = DirectoryStats()
        self._entries: Dict[int, DirectoryEntry] = {}

    def _entry(self, block_addr: int) -> DirectoryEntry:
        entry = self._entries.get(block_addr)
        if entry is None:
            entry = DirectoryEntry()
            self._entries[block_addr] = entry
        return entry

    def read(self, core: int, block_addr: int) -> CoherenceResponse:
        """Core issues a GetS (read miss) for the block."""
        self.stats.read_requests += 1
        entry = self._entry(block_addr)
        actions: List[tuple] = []
        if entry.owner >= 0 and entry.owner != core:
            # Owner must downgrade M -> S and supply the data.
            actions.append((entry.owner, CoherenceAction.DOWNGRADE))
            self.stats.downgrades_sent += 1
            entry.sharers.add(entry.owner)
            entry.owner = -1
            self.stats.owner_forwards += 1
            actions.append((core, CoherenceAction.FETCH_FROM_OWNER))
        else:
            self.stats.memory_fetches += 1
            actions.append((core, CoherenceAction.FETCH_FROM_MEMORY))
        entry.sharers.add(core)
        return CoherenceResponse(actions=actions, new_state=CoherenceState.SHARED)

    def write(self, core: int, block_addr: int) -> CoherenceResponse:
        """Core issues a GetM (write miss / upgrade) for the block."""
        self.stats.write_requests += 1
        entry = self._entry(block_addr)
        actions: List[tuple] = []
        if entry.owner >= 0 and entry.owner != core:
            actions.append((entry.owner, CoherenceAction.INVALIDATE))
            self.stats.invalidations_sent += 1
            self.stats.owner_forwards += 1
            actions.append((core, CoherenceAction.FETCH_FROM_OWNER))
        else:
            for sharer in sorted(entry.sharers):
                if sharer != core:
                    actions.append((sharer, CoherenceAction.INVALIDATE))
                    self.stats.invalidations_sent += 1
            if core not in entry.sharers:
                self.stats.memory_fetches += 1
                actions.append((core, CoherenceAction.FETCH_FROM_MEMORY))
        entry.sharers = {core}
        entry.owner = core
        return CoherenceResponse(actions=actions, new_state=CoherenceState.MODIFIED)

    def evict(self, core: int, block_addr: int) -> None:
        """Core silently drops (or writes back) its copy."""
        entry = self._entries.get(block_addr)
        if entry is None:
            return
        entry.sharers.discard(core)
        if entry.owner == core:
            entry.owner = -1
        if not entry.sharers and entry.owner < 0:
            del self._entries[block_addr]

    def state_of(self, core: int, block_addr: int) -> CoherenceState:
        """The directory's view of ``core``'s copy of the block."""
        entry = self._entries.get(block_addr)
        if entry is None:
            return CoherenceState.INVALID
        if entry.owner == core:
            return CoherenceState.MODIFIED
        if core in entry.sharers:
            return CoherenceState.SHARED
        return CoherenceState.INVALID

    @property
    def tracked_blocks(self) -> int:
        """Number of blocks with at least one cached copy."""
        return len(self._entries)

    def reset(self) -> None:
        """Drop all directory state and statistics."""
        self._entries.clear()
        self.stats = DirectoryStats()
