"""The phase-1 trace-driven simulator (Pin + cache-simulator substitute).

Models a private L1 data cache and one technique on its miss stream:

* ``PRECISE``  — conventional cache: every miss fetches its block (1:1).
* ``LVA``     — the load value approximator: approximable misses may be
  served with generated values, and the approximation degree may cancel
  the fetch entirely.
* ``LVP``     — idealized load value prediction: every miss fetches; a miss
  counts as covered when the actual value appears in the entry's LHB.
* ``PREFETCH`` — GHB prefetcher: every miss fetches and additionally issues
  up to ``degree`` prefetches (applied to all data, not just annotated).
* ``PREDICTOR`` — any registered miss predictor (:mod:`repro.predictors`),
  resolved by name from ``config.predictor`` (or the ``REPRO_PREDICTOR``
  override). Resolving ``"lva"``/``"lvp"`` builds the exact objects the
  fixed modes build, so those runs are bit-identical to ``LVA``/``LVP``.

The simulator implements :class:`~repro.sim.frontend.MemoryFrontend`, so
workloads run against it unmodified; with ``LVA`` the values returned to the
workload are clobbered, which is how output error is measured (Section V-A).
"""

from __future__ import annotations

import enum
from typing import Optional, Union

from repro.core.approximator import DelayQueue, LoadValueApproximator
from repro.core.config import ApproximatorConfig
from repro.faults.memory import build_memory_model
from repro.errors import ConfigurationError
from repro.mem.cache import CacheConfig, SetAssociativeCache
from repro.predictors import registry as predictor_registry
from repro.predictors.lvp import IdealizedLoadValuePredictor
from repro.prefetch.base import Prefetcher
from repro.prefetch.ghb import GHBPrefetcher
from repro.sim.frontend import MemoryFrontend
from repro.sim.stats import SimulationStats
from repro.sim.trace import PackedTrace, Trace, TraceRecorder
from repro.telemetry import sim_hook

Number = Union[int, float]

#: L1 configuration of the design-space phase: 64 KB private data cache.
PHASE1_L1 = CacheConfig(size_bytes=64 * 1024, associativity=8, block_bytes=64, latency=1)


class Mode(enum.Enum):
    """Which technique observes the L1 miss stream."""

    PRECISE = "precise"
    LVA = "lva"
    LVP = "lvp"
    PREFETCH = "prefetch"
    #: Registry-resolved predictor (config.predictor / REPRO_PREDICTOR).
    PREDICTOR = "predictor"


class TraceSimulator(MemoryFrontend):
    """L1 + technique simulator behind the workload memory interface."""

    def __init__(
        self,
        mode: Mode = Mode.PRECISE,
        approximator_config: Optional[ApproximatorConfig] = None,
        l1_config: CacheConfig = PHASE1_L1,
        prefetcher: Optional[Prefetcher] = None,
        prefetch_degree: int = 4,
        recorder: Optional[TraceRecorder] = None,
    ) -> None:
        super().__init__(recorder=recorder)
        self.mode = mode
        self.stats = SimulationStats()
        self.l1 = SetAssociativeCache(l1_config, name="L1D")
        self.approximator: Optional[LoadValueApproximator] = None
        self.predictor: Optional[IdealizedLoadValuePredictor] = None
        #: Any other registry predictor (MissPredictor contract).
        self.generic_predictor: Optional[object] = None
        #: Registry name of the technique driven on misses (None = none).
        self.predictor_name: Optional[str] = None
        self.prefetcher: Optional[Prefetcher] = None
        # Injected memory faults (None in the overwhelmingly common clean
        # case; the miss path pays one is-None test). Built per simulator
        # so the seeded fault pattern is deterministic per run.
        self._mem_faults = build_memory_model()
        # Telemetry hook (None in the common disabled case; the hot path
        # pays one is-None test per load, same idiom as the fault model).
        self._tel = sim_hook()

        config = approximator_config or ApproximatorConfig()
        # Trainings wait here for the value delay. Modes without a
        # technique never push, so the queue stays empty and a load pays
        # the same one compare against ``next_due`` in every mode.
        self._delay = DelayQueue(config.value_delay)
        if mode in (Mode.LVA, Mode.LVP, Mode.PREDICTOR):
            # All technique modes resolve through the registry. The fixed
            # modes pin their historical names; PREDICTOR honours the env
            # override, then config.predictor. Registry "lva"/"lvp" build
            # the same classes as ever, so dispatch below stays on the
            # bit-identical hard-coded paths for them.
            name = predictor_registry.resolve_name(mode.value, config)
            technique = predictor_registry.create(name, config)
            self.predictor_name = name
            if isinstance(technique, LoadValueApproximator):
                self.approximator = technique
            elif isinstance(technique, IdealizedLoadValuePredictor):
                self.predictor = technique
            else:
                self.generic_predictor = technique
        elif mode is Mode.PREFETCH:
            self.prefetcher = prefetcher or GHBPrefetcher(
                degree=prefetch_degree, block_bytes=l1_config.block_bytes
            )
        elif mode is not Mode.PRECISE:
            raise ConfigurationError(f"unknown mode {mode!r}")

    # ------------------------------------------------------------------ #
    # MemoryFrontend implementation                                       #
    # ------------------------------------------------------------------ #

    def _serve_load(
        self, pc: int, addr: int, actual: Number, approximable: bool, is_float: bool
    ) -> Number:
        stats = self.stats
        loads = stats.loads + 1
        stats.loads = loads
        if approximable:
            stats.approx_loads += 1
            stats.static_approx_pcs.add(pc)
        if self._tel is not None:
            # stats.instructions is otherwise written only by finish().
            stats.instructions = self.instructions
            self._tel.on_load(stats)

        # Value-delayed trainings fall due by load ordinal (DelayQueue).
        if loads >= self._delay.next_due:
            for token, value in self._delay.due(loads):
                self._train(token, value)

        if self.l1.probe(addr):
            return actual

        stats.raw_misses += 1

        # On a miss the value comes from the memory hierarchy; an injected
        # fault model may corrupt it in flight (silent data corruption).
        # Only approximable data is exposed: pointers and control data live
        # in reliable storage (the paper's EnerJ-style annotation separates
        # exactly these), so a corrupted value degrades output quality
        # rather than crashing the modelled program.
        if approximable and self._mem_faults is not None:
            actual, flipped = self._mem_faults.corrupt_value(actual, is_float)
            if flipped:
                self.stats.value_bit_flips += 1
                if self._tel is not None:
                    self._tel.on_fault("value_bit_flip", addr)

        if self.prefetcher is not None:
            self._fetch(addr)
            for candidate in self.prefetcher.on_miss(pc, addr):
                if not self.l1.contains(candidate):
                    self._fetch(candidate, prefetched=True)
            return actual

        if approximable:
            if self.approximator is not None:
                return self._serve_lva_miss(pc, addr, actual, is_float)

            if self.predictor is not None:
                decision = self.predictor.on_miss(pc, is_float)
                if self._fetch(addr):  # LVP must always validate: 1:1 fetches
                    self._delay.push(self.stats.loads, decision.token, actual)
                return actual  # rollbacks restore precision

            if self.generic_predictor is not None:
                return self._serve_generic_miss(pc, addr, actual, is_float)

        self._fetch(addr)
        return actual

    def _serve_lva_miss(
        self, pc: int, addr: int, actual: Number, is_float: bool
    ) -> Number:
        decision = self.approximator.on_miss(pc, is_float)
        if self._tel is not None:
            self._tel.on_decision(pc, addr, decision.approximated, decision.fetch)
        if decision.fetch:
            # A dropped fetch means the block never arrives: no training.
            if self._fetch(addr):
                self._delay.push(self.stats.loads, decision.token, actual)
        else:
            self.stats.fetches_avoided += 1
        if decision.approximated:
            self.stats.covered_misses += 1
            return decision.value
        return actual

    def _serve_generic_miss(
        self, pc: int, addr: int, actual: Number, is_float: bool
    ) -> Number:
        """Drive a registry predictor through the MissPredictor
        contract (see :mod:`repro.predictors.base`).

        A returned value covers the miss at decision time (LVA-style); a
        value-less decision proceeds precisely, and its training may still
        report the miss as covered (rollback-style, like LVP/CLP).
        """
        decision = self.generic_predictor.on_miss(pc, is_float, addr)
        if self._tel is not None:
            self._tel.on_decision(pc, addr, decision.value is not None, decision.fetch)
        if decision.fetch:
            # A dropped fetch means the block never arrives: no training.
            if self._fetch(addr) and decision.token is not None:
                self._delay.push(self.stats.loads, decision.token, actual)
        else:
            self.stats.fetches_avoided += 1
        if decision.value is not None:
            self.stats.covered_misses += 1
            return decision.value
        return actual

    def _serve_store(self, addr: int) -> None:
        self.stats.stores += 1
        # Write-no-allocate: a store miss goes straight to the next level
        # (store misses are off the critical path, Section V-A) and does not
        # fetch a block; a store hit just dirties the resident block.
        if self.l1.contains(addr):
            self.l1.probe(addr, is_write=True)

    def _serve_store_streaming(self, addr: int) -> None:
        self.stats.stores += 1
        # Non-temporal/DMA write: the cached copy (if any) is stale now.
        self.l1.invalidate(addr)

    def _serve_streaming_span(self, first: int, count: int, itemsize: int) -> None:
        self.stats.stores += count
        # Streaming stores touch neither the cache clock nor recency, so
        # only the set of blocks matters. With elements no larger than a
        # block, their first bytes land in every block of the span.
        if itemsize <= self.l1.config.block_bytes:
            self.l1.invalidate_range(first, first + (count - 1) * itemsize + 1)
            return
        for addr in range(first, first + count * itemsize, itemsize):
            self.l1.invalidate(addr)

    # ------------------------------------------------------------------ #
    # Internals                                                          #
    # ------------------------------------------------------------------ #

    def _train(self, token, actual: Number) -> None:
        if self.approximator is not None:
            self.approximator.train(token, actual)
            return
        # Rollback techniques: coverage is resolved when the block arrives.
        technique = self.predictor if self.predictor is not None else self.generic_predictor
        if technique.train(token, actual):
            self.stats.covered_misses += 1

    def _fetch(self, addr: int, prefetched: bool = False) -> bool:
        """Fetch a block into the L1; False when an injected fault drops it."""
        if self._mem_faults is not None and self._mem_faults.drop_fetch():
            self.stats.fetches_dropped += 1
            if self._tel is not None:
                self._tel.on_fault("fetch_drop", addr)
            return False
        self.stats.fetches += 1
        if prefetched:
            self.stats.prefetch_fetches += 1
        self.l1.fill(addr, prefetched=prefetched)
        return True

    # ------------------------------------------------------------------ #
    # Trace replay                                                       #
    # ------------------------------------------------------------------ #

    def replay(self, trace: Union[Trace, PackedTrace]) -> SimulationStats:
        """Drive the simulator from a captured trace instead of a live
        workload; returns the final stats (:meth:`finish` is applied).

        A :class:`Trace` is packed first; the loop then unpacks one
        column tuple per event (no per-event dataclass dispatch).

        Replay is *open loop*: recorded values are fed to the technique
        exactly as captured, so an LVA run cannot steer the address
        stream the way a live (closed-loop) execution does. It measures
        cache/approximator behaviour on a fixed load stream — the same
        caveat as every trace-driven simulator, including the paper's
        phase-2 — and is therefore not a substitute for
        :func:`repro.experiments.common.run_technique`'s live phase-1
        runs, whose output error depends on the clobbered values.
        """
        packed = trace.pack() if isinstance(trace, Trace) else trace
        instructions = self.instructions
        serve_load = self._serve_load
        serve_store = self._serve_store
        events = packed.event_tuples()
        for pc, addr, value, is_float, approximable, gap, is_store in events:
            instructions += gap + 1
            self.instructions = instructions
            if is_store:
                serve_store(addr)
            else:
                serve_load(pc, addr, value, approximable, is_float)
        return self.finish()

    # ------------------------------------------------------------------ #
    # Lifecycle                                                          #
    # ------------------------------------------------------------------ #

    def finish(self) -> SimulationStats:
        """Flush in-flight trainings and return the final statistics.

        Must be called once after the workload completes; pending
        value-delayed trainings are applied so LVP coverage and LVA
        confidence are fully accounted.
        """
        for token, actual in self._delay.drain():
            self._train(token, actual)
        self.stats.instructions = self.instructions
        if self._tel is not None:
            self._tel.finish(self.stats)
        return self.stats
