"""Multi-tenant job queueing: per-client FIFO, round-robin, bounded.

One greedy client must not starve everyone else, and the server must
shed load rather than queue unboundedly. :class:`FairScheduler` gives
each client its own FIFO and serves clients round-robin — a client
that enqueues 100 jobs while another enqueues 2 sees the interleaving
``A B A B A A A ...``, not ``A×100 B B`` — with one global capacity
bound; :meth:`enqueue` refuses (returns ``False``) when the bound is
hit, which the server surfaces as the 429 backpressure response.

The scheduler is a plain data structure with no locks or awaits: the
server confines every mutation to the asyncio event-loop thread, and
the unit tests drive it directly.
"""

from __future__ import annotations

import collections
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional

from ..errors import ServeError
from ..exec.jobs import JobSpec
from ..obs import get_registry
from .protocol import STATE_QUEUED

DEFAULT_QUEUE_LIMIT = 256


@dataclass
class JobRecord:
    """Server-side state of one submitted job (keyed by content address)."""

    id: str
    spec: JobSpec
    client: str
    state: str = STATE_QUEUED
    submitted_s: float = 0.0
    wall_s: Optional[float] = None
    #: How many submissions beyond the first coalesced onto this record.
    coalesced: int = 0
    #: Result provenance once done: "cache", "pool", or "serial".
    source: Optional[str] = None
    #: Serialised RunResult (``result_to_dict``) once done.
    result: Optional[dict] = None
    error: Optional[str] = None
    #: Heartbeat lines appended by the executing worker thread.
    progress: List[str] = field(default_factory=list)


class FairScheduler:
    """Per-client FIFOs drained round-robin under one global bound."""

    def __init__(self, queue_limit: int = DEFAULT_QUEUE_LIMIT) -> None:
        if queue_limit <= 0:
            raise ServeError(f"queue_limit must be positive, got {queue_limit}")
        self.queue_limit = queue_limit
        # Client order doubles as the round-robin rotation: pop serves
        # the first client that has work, then rotates it to the back.
        self._queues: "collections.OrderedDict[str, Deque[JobRecord]]" = (
            collections.OrderedDict()
        )
        self._depth = 0

    # ------------------------------------------------------------------
    def depth(self) -> int:
        """Total queued records across all clients."""
        return self._depth

    def room(self) -> int:
        """How many more records fit before backpressure."""
        return self.queue_limit - self._depth

    def depths_by_client(self) -> Dict[str, int]:
        return {client: len(q) for client, q in self._queues.items() if q}

    # ------------------------------------------------------------------
    def enqueue(self, record: JobRecord) -> bool:
        """Append ``record`` to its client's FIFO.

        Returns ``False`` — enqueueing nothing — when the global bound
        is reached; the caller turns that into backpressure.
        """
        if self._depth >= self.queue_limit:
            return False
        queue = self._queues.get(record.client)
        if queue is None:
            queue = self._queues[record.client] = collections.deque()
        queue.append(record)
        self._depth += 1
        self._update_gauges()
        return True

    def pop(self) -> Optional[JobRecord]:
        """Next record, round-robin across clients; ``None`` when idle.

        The serving client is rotated to the back of the order whether
        or not it has more work, so a burst from one client never
        blocks another's single job for more than one slot.
        """
        for client in list(self._queues):
            queue = self._queues[client]
            self._queues.move_to_end(client)
            if queue:
                self._depth -= 1
                record = queue.popleft()
                if not queue:
                    del self._queues[client]
                self._update_gauges()
                return record
            del self._queues[client]  # empty queue left by a prior pop
        return None

    def _update_gauges(self) -> None:
        """Mirror queue state into the registry at every transition, so
        ``/metrics`` (JSON or Prometheus) always shows the live depth
        without the server having to remember to refresh it."""
        registry = get_registry()
        registry.gauge("serve.queue_depth").set(self._depth)
        registry.gauge("serve.queue_clients").set(
            sum(1 for q in self._queues.values() if q)
        )
