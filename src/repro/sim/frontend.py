"""The memory front-end workloads program against.

Workloads allocate named regions from an :class:`AddressSpace`, then issue
``store`` / ``store_many`` / ``load`` / ``load_approx`` / ``advance`` calls
against a :class:`MemoryFrontend`. Two implementations exist:

* :class:`PreciseMemory` — a functional store with no microarchitecture;
  used to produce the reference (precise) output and instruction counts.
* :class:`repro.sim.tracesim.TraceSimulator` — models the L1 and the
  approximator and may clobber load values, exactly like the paper's Pin
  tool.

Because both implement the same interface, *the same workload code* runs
precisely or approximately; output error is measured by comparing the two
outputs with the workload's error metric.
"""

from __future__ import annotations

import abc
from typing import Dict, Optional, Sequence, Union

from repro.errors import AddressError, ConfigurationError
from repro.sim.trace import TraceRecorder

Number = Union[int, float]


class Region:
    """A named, contiguous allocation of fixed-size elements."""

    __slots__ = ("name", "base", "count", "itemsize")

    def __init__(self, name: str, base: int, count: int, itemsize: int) -> None:
        self.name = name
        self.base = base
        self.count = count
        self.itemsize = itemsize

    def addr(self, index: int) -> int:
        """Byte address of element ``index``.

        Raises:
            AddressError: for an out-of-bounds index.
        """
        if not 0 <= index < self.count:
            raise AddressError(
                f"index {index} out of range for region {self.name!r} "
                f"(count={self.count})"
            )
        return self.base + index * self.itemsize

    @property
    def end(self) -> int:
        """One past the last byte of the region."""
        return self.base + self.count * self.itemsize

    def __repr__(self) -> str:
        return (
            f"Region({self.name!r}, base={self.base:#x}, count={self.count}, "
            f"itemsize={self.itemsize})"
        )


class AddressSpace:
    """A bump allocator handing out page-aligned regions.

    Regions are page-aligned so distinct arrays never share a cache block,
    which keeps the workloads' locality behaviour easy to reason about.
    """

    PAGE = 4096

    def __init__(self, base: int = 0x10000) -> None:
        self._next = base
        self._regions: Dict[str, Region] = {}

    def alloc(self, name: str, count: int, itemsize: int = 8) -> Region:
        """Allocate ``count`` elements of ``itemsize`` bytes under ``name``."""
        if count <= 0 or itemsize <= 0:
            raise ConfigurationError("count and itemsize must be positive")
        if name in self._regions:
            raise ConfigurationError(f"region {name!r} already allocated")
        region = Region(name, self._next, count, itemsize)
        size = count * itemsize
        self._next += (size + self.PAGE - 1) // self.PAGE * self.PAGE
        self._regions[name] = region
        return region

    def region(self, name: str) -> Region:
        """Look up a previously allocated region."""
        return self._regions[name]

    def regions(self):
        """All allocated regions (read-only view)."""
        return tuple(self._regions.values())


class MemoryFrontend(abc.ABC):
    """Interface between workloads and the simulated memory system.

    Subclasses implement :meth:`_serve_load`; this base class provides
    the value store, instruction accounting, thread tracking and optional
    trace recording shared by every implementation.
    """

    def __init__(self, recorder: Optional[TraceRecorder] = None) -> None:
        self.space = AddressSpace()
        self.values: Dict[int, Number] = {}
        self.recorder = recorder
        self.instructions = 0
        self._tid = 0

    # -- workload-facing API ------------------------------------------- #

    def set_thread(self, tid: int) -> None:
        """Switch the issuing thread (workloads run 4 logical threads)."""
        self._tid = tid

    @property
    def thread(self) -> int:
        """The currently issuing thread id."""
        return self._tid

    def advance(self, instructions: int = 1) -> None:
        """Account ``instructions`` non-memory instructions."""
        self.instructions += instructions
        if self.recorder is not None:
            self.recorder.on_advance(self._tid, instructions)

    def store(self, addr: int, value: Number, streaming: bool = False) -> None:
        """Write ``value`` to ``addr`` (counts one instruction).

        ``streaming=True`` models a non-temporal store (or a DMA write,
        e.g. a camera frame arriving): the data bypasses the cache and any
        stale resident copy is invalidated, so subsequent loads miss.
        """
        self.instructions += 1
        self.values[addr] = value
        if streaming:
            self._serve_store_streaming(addr)
        else:
            self._serve_store(addr)
        if self.recorder is not None:
            if getattr(self.recorder, "record_stores", False):
                self.recorder.on_store(self._tid, addr)
            else:
                self.recorder.on_advance(self._tid, 1)

    def store_many(self, region: Region, values: Sequence[Number]) -> None:
        """Stream ``values`` into ``region`` from element 0, like a DMA write.

        Exactly ``store(region.addr(i), values[i], streaming=True)`` for
        each ``i`` in order, except that one bounds check covers the whole
        span: more values than the region holds raise
        :class:`AddressError` before anything is written. Values are stored
        as given, so pass plain Python numbers (``array.tolist()``), as
        ``store`` callers do.
        """
        count = len(values)
        if not count:
            return
        region.addr(count - 1)  # raises before anything is written
        first = region.base
        itemsize = region.itemsize
        addrs = range(first, first + count * itemsize, itemsize)
        self.instructions += count
        self.values.update(zip(addrs, values))
        self._serve_streaming_span(first, count, itemsize)
        recorder = self.recorder
        if recorder is not None:
            if getattr(recorder, "record_stores", False):
                tid = self._tid
                for addr in addrs:
                    recorder.on_store(tid, addr)
            else:
                recorder.on_advance(self._tid, count)

    def load(self, pc: int, addr: int) -> Number:
        """A precise load — never approximated, always returns the true value
        (but still exercises the cache in simulating front-ends)."""
        return self._issue(pc, addr, False, True)

    def load_approx(self, pc: int, addr: int, is_float: bool = True) -> Number:
        """A load annotated approximate (the EnerJ-style ISA hint of
        Section IV); simulating front-ends may clobber its value."""
        return self._issue(pc, addr, True, is_float)

    # -- shared mechanics ----------------------------------------------- #

    def _issue(self, pc: int, addr: int, approximable: bool, is_float: bool) -> Number:
        self.instructions += 1
        try:
            actual = self.values[addr]
        except KeyError:
            raise AddressError(
                f"load from unwritten address {addr:#x} (pc={pc:#x})"
            ) from None
        returned = self._serve_load(pc, addr, actual, approximable, is_float)
        if self.recorder is not None:
            self.recorder.on_load(self._tid, pc, addr, actual, is_float, approximable)
        return returned

    @abc.abstractmethod
    def _serve_load(
        self, pc: int, addr: int, actual: Number, approximable: bool, is_float: bool
    ) -> Number:
        """Model the load and return the value the core receives."""

    def _serve_store(self, addr: int) -> None:
        """Model the store (default: functional only)."""

    def _serve_store_streaming(self, addr: int) -> None:
        """Model a non-temporal store (default: same as a plain store)."""
        self._serve_store(addr)

    def _serve_streaming_span(self, first: int, count: int, itemsize: int) -> None:
        """Model ``count`` non-temporal stores at ``first``, ``first +
        itemsize``, ... (default: one :meth:`_serve_store_streaming` each)."""
        for addr in range(first, first + count * itemsize, itemsize):
            self._serve_store_streaming(addr)


class PreciseMemory(MemoryFrontend):
    """The reference front-end: no cache, no approximation, true values."""

    def _serve_load(
        self, pc: int, addr: int, actual: Number, approximable: bool, is_float: bool
    ) -> Number:
        del pc, approximable, is_float
        return actual
