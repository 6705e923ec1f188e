"""The 4-core full-system timing and energy simulator.

Trace-driven: each captured thread is pinned to a core; cores advance their
own clocks and the simulator always processes the core that is furthest
behind, so cross-core NoC contention is resolved in (approximate) global
time order. An L1 miss sends a request packet to the home L2 bank of the
block, pays the L2 (and, on an L2 miss, main-memory) latency, and returns a
data packet; the core overlaps the latency with younger work until its ROB
fills.

With approximation enabled, each core owns a private approximator. An
approximated miss retires immediately (never occupying the miss window);
its training fetch — when the approximation degree allows one — still
traverses the NoC and L2 off the critical path, and the approximator is
trained when that fetch completes, so the *value delay emerges from real
fetch latencies* instead of being a configured constant (Section VI-E
observes ~1 load on average).
"""

from __future__ import annotations

import heapq
import math
from typing import Dict, List, Optional, Tuple, Union

from repro.core.approximator import LoadValueApproximator, TrainToken
from repro.cpu.core import CoreTimingModel
from repro.energy.model import EnergyModel
from repro.errors import SimulationError
from repro.mem.cache import SetAssociativeCache
from repro.mem.coherence import CoherenceAction, MSIDirectory
from repro.noc.network import MeshNetwork
from repro.fullsystem.config import FullSystemConfig
from repro.fullsystem.result import FullSystemResult
from repro.sim.trace import PackedTrace, Trace

Number = Union[int, float]


class _PendingTraining:
    """Per-core queue of in-flight training fetches, ordered by completion.

    :attr:`next_due` is the head's completion time (``inf`` when empty),
    so the replay loop pays one float compare per load and calls
    :meth:`due` only once the core clock reaches it.
    """

    __slots__ = ("_heap", "_seq", "next_due")

    def __init__(self) -> None:
        self._heap: List[Tuple[float, int, TrainToken, Number]] = []
        self._seq = 0
        self.next_due = math.inf

    def push(self, completion: float, token: TrainToken, value: Number) -> None:
        heapq.heappush(self._heap, (completion, self._seq, token, value))
        self._seq += 1
        self.next_due = self._heap[0][0]

    def due(self, now: float) -> List[Tuple[TrainToken, Number]]:
        heap = self._heap
        ready = []
        while heap and heap[0][0] <= now:
            _, _, token, value = heapq.heappop(heap)
            ready.append((token, value))
        self.next_due = heap[0][0] if heap else math.inf
        return ready

    def drain(self) -> List[Tuple[TrainToken, Number]]:
        ready = [(token, value) for _, _, token, value in self._heap]
        self._heap.clear()
        self.next_due = math.inf
        return ready


class FullSystemSimulator:
    """Replay a 4-thread trace through the Table II platform."""

    def __init__(self, config: Optional[FullSystemConfig] = None) -> None:
        self.config = config or FullSystemConfig()
        cfg = self.config
        self.cores = [CoreTimingModel(cfg.core) for _ in range(cfg.num_cores)]
        self.l1s = [
            SetAssociativeCache(cfg.l1, name=f"L1-{i}") for i in range(cfg.num_cores)
        ]
        self.l2 = SetAssociativeCache(cfg.l2, name="L2")
        self.noc = MeshNetwork(cfg.noc)
        self.directory = MSIDirectory(cfg.num_cores)
        self.energy_model = EnergyModel(
            l1_size_bytes=cfg.l1.size_bytes,
            l1_associativity=cfg.l1.associativity,
            l2_size_bytes=cfg.l2.size_bytes,
            l2_associativity=cfg.l2.associativity,
            approximator_entries=cfg.resolved_approximator().table_entries,
            approximator_lhb=cfg.resolved_approximator().lhb_size,
        )
        if cfg.approximate:
            approx_cfg = cfg.resolved_approximator()
            self.approximators: Optional[List[LoadValueApproximator]] = [
                LoadValueApproximator(approx_cfg) for _ in range(cfg.num_cores)
            ]
        else:
            self.approximators = None
        self._pending = [_PendingTraining() for _ in range(cfg.num_cores)]
        # Outstanding-fetch completion times per core: a finite MSHR file
        # paces how fast a core can pump fetches into the NoC (8 entries,
        # a typical L1 MSHR budget). Training fetches for approximated
        # misses are off the critical path and deprioritized (Section VI-C
        # suggests exactly this): they have their own small budget and are
        # *dropped* rather than queued when it is exhausted, so they can
        # never delay a demand miss.
        self._outstanding_demand: List[List[float]] = [[] for _ in range(cfg.num_cores)]
        self._outstanding_training: List[List[float]] = [
            [] for _ in range(cfg.num_cores)
        ]
        self.mshr_entries = 8
        self.training_fetch_budget = 4
        self.dropped_trainings = 0
        # Per-fetch constants, resolved once rather than on every miss.
        self._block_shift = cfg.l1.block_bytes.bit_length() - 1
        self._control_flits = cfg.noc.control_flits
        self._data_flits = cfg.noc.data_flits(cfg.l1.block_bytes)
        # Counters.
        self._loads = 0
        self._raw_misses = 0
        self._covered = 0
        self._fetches = 0
        self._l2_accesses = 0
        self._memory_accesses = 0
        self._total_miss_latency = 0.0
        self._instructions = 0

    # ------------------------------------------------------------------ #
    # Topology helpers                                                    #
    # ------------------------------------------------------------------ #

    def _bank_of(self, addr: int) -> int:
        """Home L2 bank (mesh node) of a block: low block-address interleave."""
        return (addr >> self._block_shift) % self.config.num_cores

    # ------------------------------------------------------------------ #
    # Miss servicing                                                      #
    # ------------------------------------------------------------------ #

    def _fetch_block(
        self, core_id: int, addr: int, departure: float, training: bool = False
    ) -> Optional[float]:
        """Fetch a block through NoC + L2 (+ memory); returns the completion
        time at the requesting core (or None for a dropped training fetch).
        Charges traffic and fills caches.

        Demand issue is paced by the core's MSHR file: with
        ``mshr_entries`` fetches already in flight the request waits for
        the oldest to complete. Training fetches use their own small budget
        and are dropped when it is full.
        """
        pool = (
            self._outstanding_training[core_id]
            if training
            else self._outstanding_demand[core_id]
        )
        while pool and pool[0] <= departure:
            heapq.heappop(pool)
        if training:
            if len(pool) >= self.training_fetch_budget:
                self.dropped_trainings += 1
                return None
        else:
            while len(pool) >= self.mshr_entries:
                departure = max(departure, heapq.heappop(pool))
        self._fetches += 1
        bank = self._bank_of(addr)
        request = self.noc.send(
            core_id, bank, int(departure), self._control_flits, low_priority=training
        )
        self._l2_accesses += 1
        service_done = request.arrival + self.config.l2.latency
        if not self.l2.probe(addr):
            self._memory_accesses += 1
            service_done += self.config.memory_latency
            self.l2.fill(addr)
        reply = self.noc.send(
            bank, core_id, int(service_done), self._data_flits, low_priority=training
        )
        l1 = self.l1s[core_id]
        # The directory keys blocks by their aligned address, as the store
        # path does, so a store sees the sharers any load of its block made.
        self.directory.read(core_id, l1.block_address(addr))
        l1.fill(addr)
        heapq.heappush(pool, float(reply.arrival))
        return float(reply.arrival)

    # ------------------------------------------------------------------ #
    # Event processing                                                    #
    # ------------------------------------------------------------------ #

    def _apply_due_trainings(self, core_id: int) -> None:
        if self.approximators is None:
            return
        for token, value in self._pending[core_id].due(self.cores[core_id].clock):
            self.approximators[core_id].train(token, value)

    def _process_store(self, core_id: int, addr: int) -> None:
        """A store event (present only in traces captured with
        ``record_stores=True``): write-no-allocate with MSI invalidation of
        remote sharers. Stores retire through the store buffer and never
        stall the core (Section V-A: store misses are off the critical
        path); their cost here is the coherence traffic they generate."""
        core = self.cores[core_id]
        block = self.l1s[core_id].block_address(addr)
        hit = self.l1s[core_id].contains(addr)
        response = self.directory.write(core_id, block)
        for target, action in response.actions:
            if action is CoherenceAction.INVALIDATE and target != core_id:
                if self.l1s[target].invalidate(addr):
                    # One invalidation control message per remote sharer.
                    self.noc.send(
                        self._bank_of(addr), target,
                        int(core.clock), self._control_flits,
                    )
        if hit:
            self.l1s[core_id].probe(addr, is_write=True)
        else:
            # Write-through to the home bank: a control-sized message.
            self.noc.send(
                core_id, self._bank_of(addr),
                int(core.clock), self._control_flits,
            )
            self.directory.evict(core_id, block)  # no allocation performed
        core.advance(1)

    def _process_load(
        self,
        core_id: int,
        pc: int,
        addr: int,
        value: Number,
        is_float: bool,
        approximable: bool,
    ) -> None:
        """One load, step by step (:meth:`replay_events`' path; :meth:`run`
        inlines the hit half)."""
        self._apply_due_trainings(core_id)
        self._loads += 1
        if self.l1s[core_id].probe(addr):
            self.cores[core_id].issue_load(0)
        else:
            self._process_load_miss(core_id, pc, addr, value, is_float, approximable)

    def _process_load_miss(
        self,
        core_id: int,
        pc: int,
        addr: int,
        value: Number,
        is_float: bool,
        approximable: bool,
    ) -> None:
        """An L1 load miss: approximate it, or fetch it through the NoC."""
        core = self.cores[core_id]
        self._raw_misses += 1
        if self.approximators is not None and approximable:
            decision = self.approximators[core_id].on_miss(pc, is_float)
            if decision.approximated:
                self._covered += 1
                core.issue_load(0, blocking=False)
                if decision.fetch:
                    # Off the critical path: the fetch trains the entry when
                    # it lands, providing the emergent value delay. It may
                    # be dropped entirely under pressure.
                    completion = self._fetch_block(
                        core_id, addr, core.clock, training=True
                    )
                    if completion is not None:
                        self._pending[core_id].push(
                            completion, decision.token, value
                        )
                return
            # Not approximated (cold/unconfident): a normal blocking miss
            # whose arrival also trains the approximator.
            completion = self._fetch_block(core_id, addr, core.clock)
            latency = completion - core.clock
            self._total_miss_latency += latency
            core.issue_load(int(latency))
            if decision.token is not None:
                self._pending[core_id].push(completion, decision.token, value)
            return

        completion = self._fetch_block(core_id, addr, core.clock)
        latency = completion - core.clock
        self._total_miss_latency += latency
        core.issue_load(int(latency))

    # ------------------------------------------------------------------ #
    # Entry point                                                         #
    # ------------------------------------------------------------------ #

    def run(self, trace: Union[Trace, PackedTrace]) -> FullSystemResult:
        """Replay ``trace`` and return the phase-2 metrics.

        Each core's rows are gathered columnarily (``select`` +
        ``event_tuples`` over ``per_core_indices``) into a queue of plain
        tuples. The scheduler is a heap of ``(clock, rank, core_id)``,
        where ``rank`` is the core's position in ``per_core_indices``
        order (the first appearance of its first thread). The popped core
        is the one :meth:`replay_events`' ``min()`` picks, ties included;
        it keeps stepping while it would still be picked, which is exact
        because a step moves no other core's clock. ``Trace`` inputs are
        packed first; the result is bit-identical to :meth:`replay_events`
        on the same events.
        """
        packed = trace.pack() if isinstance(trace, Trace) else trace
        if not len(packed):
            raise SimulationError("cannot replay an empty trace")
        cores = self.cores
        heap: List[Tuple[float, int, int]] = []
        queues: List[List[tuple]] = []
        for rank, (core_id, rows) in enumerate(
            packed.per_core_indices(self.config.num_cores).items()
        ):
            heap.append((cores[core_id].clock, rank, core_id))
            queues.append(packed.select(rows).event_tuples())
        heapq.heapify(heap)
        cursors = [0] * len(queues)
        # Whether the event at a core's cursor still owes its gap.
        gap_pending = [True] * len(queues)
        loads = 0

        # Always advance the core that is furthest behind in time, so NoC
        # link reservations happen in near-global time order. Gap execution
        # and the load itself are separate scheduling steps: otherwise a
        # long gap would let one core stamp a packet far in the future and
        # spuriously queue every slower core's traffic behind it.
        while heap:
            _, rank, core_id = heapq.heappop(heap)
            # The next core in line; this one yields once it passes it.
            next_clock, next_rank, _ = heap[0] if heap else (math.inf, 0, 0)
            core = cores[core_id]
            probe = self.l1s[core_id].probe
            pending = self._pending[core_id]
            events = queues[rank]
            end = len(events)
            index = cursors[rank]
            owes_gap = gap_pending[rank]
            while True:
                pc, addr, value, is_float, approximable, gap, is_store = events[index]
                if gap and owes_gap:
                    core.advance(gap)
                    owes_gap = False
                else:
                    if is_store:
                        self._process_store(core_id, addr)
                    else:
                        # _process_load with its hit half inline.
                        if pending.next_due <= core.clock:
                            self._apply_due_trainings(core_id)
                        loads += 1
                        if probe(addr):
                            core.issue_load(0)
                        else:
                            self._process_load_miss(
                                core_id, pc, addr, value, is_float, approximable
                            )
                    index += 1
                    if index == end:
                        break
                    owes_gap = True
                clock = core.clock
                if clock > next_clock or (clock == next_clock and rank > next_rank):
                    break
            if index < end:
                cursors[rank] = index
                gap_pending[rank] = owes_gap
                heapq.heappush(heap, (core.clock, rank, core_id))

        self._loads += loads
        return self._finalize()

    def replay_events(self, trace: Trace) -> FullSystemResult:
        """Replay the object-list representation directly.

        The reference interpreter for the packed hot loop: identical
        scheduling over ``LoadEvent`` objects, kept so the differential
        tests can pin :meth:`run`'s bit-equality against it. Not the
        production path — :meth:`run` packs and uses the columnar loop.
        """
        streams = trace.per_thread()
        if not streams:
            raise SimulationError("cannot replay an empty trace")
        queues: Dict[int, List] = {}
        for tid, events in streams.items():
            queues.setdefault(tid % self.config.num_cores, []).extend(events)
        cursors = {core_id: 0 for core_id in queues}
        gap_pending = {core_id: True for core_id in queues}

        while cursors:
            core_id = min(cursors, key=lambda c: self.cores[c].clock)
            events = queues[core_id]
            index = cursors[core_id]
            event = events[index]
            if gap_pending[core_id]:
                gap_pending[core_id] = False
                if event.gap:
                    self.cores[core_id].advance(event.gap)
                    continue
            if event.is_store:
                self._process_store(core_id, event.addr)
            else:
                self._process_load(
                    core_id,
                    event.pc,
                    event.addr,
                    event.value,
                    event.is_float,
                    event.approximable,
                )
            if index + 1 >= len(events):
                del cursors[core_id]
            else:
                cursors[core_id] = index + 1
                gap_pending[core_id] = True

        return self._finalize()

    def _finalize(self) -> FullSystemResult:
        for core_id, core in enumerate(self.cores):
            core.finish()
            if self.approximators is not None:
                for token, value in self._pending[core_id].drain():
                    self.approximators[core_id].train(token, value)

        self._instructions = sum(core.stats.instructions for core in self.cores)
        approximator_accesses = 0
        if self.approximators is not None:
            approximator_accesses = sum(
                approx.stats.lookups + approx.stats.trainings
                for approx in self.approximators
            )
        energy = self.energy_model.account(
            l1_accesses=self._loads,
            l2_accesses=self._l2_accesses,
            memory_accesses=self._memory_accesses,
            noc_flit_hops=self.noc.stats.flit_hops,
            approximator_accesses=approximator_accesses,
        )
        return FullSystemResult(
            cycles=max(core.clock for core in self.cores),
            instructions=self._instructions,
            loads=self._loads,
            raw_misses=self._raw_misses,
            covered_misses=self._covered,
            fetches=self._fetches,
            l2_accesses=self._l2_accesses,
            memory_accesses=self._memory_accesses,
            noc_flit_hops=self.noc.stats.flit_hops,
            approximator_accesses=approximator_accesses,
            total_miss_latency=self._total_miss_latency,
            energy=energy,
            core_cycles=[core.clock for core in self.cores],
        )
