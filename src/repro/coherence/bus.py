"""The shared snooping bus and the version-stamped main memory.

The bus is *atomic*: one transaction completes — including every
snooper's reaction and any memory update — before the next begins.
This matches the paper's evaluation granularity (message counts, not
cycle timing).

Data is modelled as monotonically increasing *version stamps* per
physical block rather than bytes: a write bumps the stamp, and a read
observing a stale stamp is a coherence bug the test suite can detect.
"""

from __future__ import annotations

from collections.abc import Callable
from typing import Protocol

from ..common.errors import ProtocolError
from ..common.stats import CounterBag
from .messages import BusOp, BusResult, BusTransaction, SnoopReply


class MainMemory:
    """Version-stamped physical memory.

    Blocks start at version 0 ("as initialised"); every write-back
    stores the writer's stamp.
    """

    __slots__ = ("_versions", "stats")

    def __init__(self) -> None:
        self._versions: dict[int, int] = {}
        self.stats = CounterBag()

    def read(self, pblock: int) -> int:
        """Current version of *pblock*."""
        self.stats.add("reads")
        return self._versions.get(pblock, 0)

    def write(self, pblock: int, version: int) -> None:
        """Store *version* as the new contents of *pblock*."""
        self.stats.add("writes")
        self._versions[pblock] = version

    def peek(self, pblock: int) -> int:
        """Version without counting a memory access (for checkers)."""
        return self._versions.get(pblock, 0)

    def export_state(self) -> dict:
        """Checkpointable snapshot of contents and access counters."""
        return {
            "versions": dict(self._versions),
            "stats": self.stats.export_state(),
        }

    def restore_state(self, state: dict) -> None:
        """Replace memory contents with a snapshot's."""
        self._versions = dict(state["versions"])
        self.stats.restore_state(state["stats"])


class Snooper(Protocol):
    """What the bus requires of an attached cache hierarchy."""

    def snoop(self, txn: BusTransaction) -> SnoopReply:
        """React to a coherence transaction from another hierarchy."""
        ...


class Bus:
    """Atomic shared bus connecting the second-level caches and memory.

    Hierarchies attach once at construction time of the system; the
    attach order defines their snoop order (irrelevant to results, but
    deterministic).
    """

    __slots__ = ("memory", "stats", "_snoopers", "observer")

    def __init__(self, memory: MainMemory | None = None) -> None:
        self.memory = memory if memory is not None else MainMemory()
        self.stats = CounterBag()
        self._snoopers: list[Snooper] = []
        # Called after each completed transaction (coherence boundary);
        # the invariant guard hooks in here.  One observer suffices —
        # it is installed by whoever owns the machine.
        self.observer: Callable[[BusTransaction], None] | None = None

    def attach(self, snooper: Snooper) -> int:
        """Register a hierarchy; returns its bus index (CPU id)."""
        self._snoopers.append(snooper)
        return len(self._snoopers) - 1

    def detach_all(self) -> None:
        """Forget every hierarchy and the observer: the machine is done.

        Each hierarchy holds the bus and the bus holds each hierarchy,
        so without this a finished machine is freed only by a full
        garbage collection, which large resident traces make rare.
        """
        self._snoopers.clear()
        self.observer = None

    @property
    def n_snoopers(self) -> int:
        """Number of attached hierarchies."""
        return len(self._snoopers)

    def issue(self, txn: BusTransaction) -> BusResult:
        """Run one transaction to completion and return its outcome.

        * READ_MISS — every other hierarchy snoops; a hierarchy holding
          the block dirty supplies the data (and the bus writes it to
          memory); otherwise memory supplies.
        * INVALIDATE — every other hierarchy drops its copy; no data.
        * READ_MODIFIED_WRITE — read-miss semantics for the data, then
          the snoopers invalidate (the paper treats it as a read-miss
          followed by an invalidation; the bus runs both phases inside
          one atomic transaction).
        * WRITE_UPDATE — a write-update protocol broadcast: snoopers
          refresh their copies with the carried version and memory is
          written; ``shared`` in the result reports whether any other
          cache still holds the block.
        * WRITE_BACK — memory update only; nothing snoops.
        """
        result = self._complete(txn)
        if self.observer is not None:
            self.observer(txn)
        return result

    def _complete(self, txn: BusTransaction) -> BusResult:
        """The transaction body (snoop round plus memory update)."""
        self.stats.add(txn.op.value)
        if txn.op is BusOp.WRITE_BACK:
            raise ProtocolError(
                "write-backs carry a data version; use Bus.write_back()"
            )
        if txn.op is BusOp.WRITE_UPDATE and txn.version is None:
            raise ProtocolError("a write-update must carry a data version")

        shared = False
        supplied: int | None = None
        supplier_count = 0
        for index, snooper in enumerate(self._snoopers):
            if index == txn.origin:
                continue
            reply = snooper.snoop(txn)
            shared = shared or reply.has_copy
            if reply.supplied_version is not None:
                supplier_count += 1
                supplied = reply.supplied_version
        if supplier_count > 1:
            raise ProtocolError(
                f"{supplier_count} caches supplied dirty data for block "
                f"{txn.pblock:#x}; at most one may hold a block dirty"
            )

        if txn.op is BusOp.INVALIDATE:
            return BusResult(shared=shared, version=None)

        if txn.op is BusOp.WRITE_UPDATE:
            if txn.version is None:
                raise ProtocolError(
                    "write-update lost its data version mid-transaction",
                    pblock=txn.pblock,
                )
            self.memory.write(txn.pblock, txn.version)
            return BusResult(shared=shared, version=txn.version)

        if supplied is not None:
            # Dirty peer supplied: memory is updated as part of the
            # transaction (the paper's flush semantics).
            self.memory.write(txn.pblock, supplied)
            self.stats.add("cache_to_cache")
            return BusResult(shared=shared, version=supplied)
        return BusResult(shared=shared, version=self.memory.read(txn.pblock))

    def write_back(self, pblock: int, version: int) -> None:
        """Write dirty data back to memory (no snooping)."""
        self.stats.add(BusOp.WRITE_BACK.value)
        self.memory.write(pblock, version)
