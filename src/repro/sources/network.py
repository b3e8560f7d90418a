"""Deterministic wide-area network simulation.

The 1989 GIS ran over WANs whose transfer costs dominated query time; the
trade-offs this repo reproduces (pushdown, semijoins, scale-out) are driven
by the *shape* of that cost — per-message latency plus bytes over
bandwidth — not by absolute numbers. :class:`SimulatedNetwork` charges every
mediator↔source transfer against a virtual clock and keeps per-source
accounting, so experiments report identical numbers on any machine.

Latency and bandwidth defaults model a late-80s leased line upgraded to
something laptop-friendly: 20 ms round trips, 1 MB/s.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Dict, Optional

from ..errors import GISError

#: Bytes of protocol overhead charged per message (headers, framing).
DEFAULT_MESSAGE_OVERHEAD = 64


@dataclass(frozen=True)
class NetworkLink:
    """Characteristics of the mediator's link to one source."""

    latency_ms: float = 20.0
    bandwidth_bytes_per_s: float = 1_000_000.0
    message_overhead_bytes: int = DEFAULT_MESSAGE_OVERHEAD

    def transfer_time_ms(self, payload_bytes: float, messages: int = 1) -> float:
        """Virtual milliseconds to move ``payload_bytes`` in ``messages``
        request/response exchanges."""
        if messages < 1:
            raise GISError("a transfer involves at least one message")
        total_bytes = payload_bytes + messages * self.message_overhead_bytes
        return self.latency_ms * messages + (total_bytes / self.bandwidth_bytes_per_s) * 1000.0


#: Ledgers sum float charges as exact integer counts of 2**-1074, the
#: smallest positive float, of which every finite float is a multiple.
#: ``int / int`` rounds correctly, so a total is rounded once, on read.
EXACT_UNIT = 1 << 1074


def exact_units(value: float) -> int:
    """``value`` as an exact integer count of ``1 / EXACT_UNIT``."""
    numerator, denominator = value.as_integer_ratio()
    return numerator * (EXACT_UNIT // denominator)


class TransferMetrics:
    """Accumulated traffic between the mediator and one source.

    ``bytes`` and ``simulated_ms`` are summed exactly and rounded to float
    on read (see :data:`EXACT_UNIT`), so a ledger depends only on the
    multiset of transfers charged to it, never on the order concurrent
    workers charged them in.
    """

    __slots__ = ("rows", "messages", "_bytes", "_simulated_ms")

    def __init__(
        self,
        rows: int = 0,
        bytes: float = 0.0,
        messages: int = 0,
        simulated_ms: float = 0.0,
    ) -> None:
        self.rows = rows
        self.messages = messages
        self._bytes = exact_units(bytes)
        self._simulated_ms = exact_units(simulated_ms)

    @property
    def bytes(self) -> float:
        return self._bytes / EXACT_UNIT

    @property
    def simulated_ms(self) -> float:
        return self._simulated_ms / EXACT_UNIT

    def merge(self, other: "TransferMetrics") -> None:
        self.rows += other.rows
        self._bytes += other._bytes
        self.messages += other.messages
        self._simulated_ms += other._simulated_ms

    def __repr__(self) -> str:
        return (
            f"TransferMetrics(rows={self.rows}, bytes={self.bytes}, "
            f"messages={self.messages}, simulated_ms={self.simulated_ms})"
        )


class SimulatedNetwork:
    """Per-source links plus global and per-source transfer accounting.

    The executor calls :meth:`record_transfer` once per exchange page; the
    returned virtual time also accumulates into the per-source ledger, which
    benchmarks read to compute sequential (sum) and parallel (max) elapsed
    time.

    Accounting is lock-protected: the fragment scheduler's worker threads
    charge transfers concurrently. The virtual clock itself stays
    deterministic: each transfer's cost depends only on its own link and
    payload, and :class:`TransferMetrics` sums those costs exactly, so
    accumulation order does not change the totals.
    """

    def __init__(self, default_link: Optional[NetworkLink] = None) -> None:
        self._default_link = default_link or NetworkLink()
        self._links: Dict[str, NetworkLink] = {}
        self._per_source: Dict[str, TransferMetrics] = {}
        self._lock = threading.Lock()
        self.total = TransferMetrics()

    # -- configuration ---------------------------------------------------------

    def set_link(self, source_name: str, link: NetworkLink) -> None:
        """Assign a dedicated link for one source."""
        self._links[source_name.lower()] = link

    def link_for(self, source_name: str) -> NetworkLink:
        """The link used for a source (dedicated, or the default)."""
        return self._links.get(source_name.lower(), self._default_link)

    def remove_link(self, source_name: str) -> bool:
        """Drop a source's dedicated link (the source left the federation);
        True if there was one. Its transfer ledger is kept — the bytes
        really were shipped."""
        return self._links.pop(source_name.lower(), None) is not None

    # -- accounting ---------------------------------------------------------------

    def record_transfer(
        self,
        source_name: str,
        payload_bytes: float,
        rows: int,
        messages: int = 1,
        extra_latency_ms: float = 0.0,
    ) -> float:
        """Charge one transfer; returns its virtual duration in ms.

        ``extra_latency_ms`` adds that many virtual milliseconds *per
        message* on top of the link's own latency — the hook fault
        injection uses for scripted latency spikes, charged through the
        same deterministic ledgers as ordinary traffic. The default of
        0.0 keeps fault-free accounting bit-identical.
        """
        link = self.link_for(source_name)
        elapsed = link.transfer_time_ms(payload_bytes, messages)
        if extra_latency_ms > 0:
            elapsed += extra_latency_ms * messages
        metrics = TransferMetrics(
            rows=rows, bytes=payload_bytes, messages=messages, simulated_ms=elapsed
        )
        with self._lock:
            self.total.merge(metrics)
            self._per_source.setdefault(
                source_name.lower(), TransferMetrics()
            ).merge(metrics)
        return elapsed

    def per_source(self) -> Dict[str, TransferMetrics]:
        """Per-source ledgers (keys lower-cased)."""
        with self._lock:
            return dict(self._per_source)

    def parallel_elapsed_ms(self) -> float:
        """Virtual elapsed time if all sources were drained concurrently
        (critical path = the slowest source)."""
        with self._lock:
            if not self._per_source:
                return 0.0
            return max(m.simulated_ms for m in self._per_source.values())

    def reset(self) -> None:
        """Zero all counters (links stay configured)."""
        with self._lock:
            self._per_source.clear()
            self.total = TransferMetrics()
