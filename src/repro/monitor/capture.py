"""Capture process model: input buffers and uncontrolled packet drops.

Real deployments use DAG capture cards with a fixed amount of buffer memory
(256 MB in the paper's online executions).  When the monitoring process falls
behind, the buffer absorbs the backlog; once it fills up, packets are dropped
*uncontrollably* — these are the "DAG drops" of Figure 4.2, the failure mode
load shedding is designed to avoid.

This module models the buffer in units of CPU cycles of backlog: the system
is ``delay`` cycles behind real time, the buffer can absorb up to
``capacity_cycles`` of backlog, and a batch arriving while the buffer is full
is lost before any query sees it.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Backlog the capture buffer absorbs, in seconds of processing: the
#: paper's experiments emulate a buffer of 200 ms of traffic (Section
#: 5.5.3).
BUFFER_SECONDS = 0.2


@dataclass
class BufferStatus:
    """Occupation of the capture buffer at a point in time."""

    occupation: float        # fraction of the buffer in use, [0, 1]
    dropping: bool           # True when an arriving batch would be lost


class CaptureBuffer:
    """Finite capture buffer expressed in cycles of processing backlog.

    Parameters
    ----------
    capacity_seconds:
        How many seconds of processing backlog the buffer can absorb
        (default :data:`BUFFER_SECONDS`).  ``None`` means an infinite
        buffer (used for reference executions, which must never drop
        packets).
    cycles_per_second:
        Conversion factor between backlog seconds and cycles.
    """

    def __init__(self, capacity_seconds: float = BUFFER_SECONDS,
                 cycles_per_second: float = 3e8) -> None:
        if capacity_seconds is not None and capacity_seconds < 0:
            raise ValueError("capacity_seconds must be non-negative or None")
        self.capacity_seconds = capacity_seconds
        self.cycles_per_second = float(cycles_per_second)

    @property
    def infinite(self) -> bool:
        return self.capacity_seconds is None

    @property
    def capacity_cycles(self) -> float:
        if self.infinite:
            return float("inf")
        return self.capacity_seconds * self.cycles_per_second

    def status(self, delay_cycles: float) -> BufferStatus:
        """Occupation given the current processing backlog."""
        if self.infinite:
            return BufferStatus(occupation=0.0, dropping=False)
        capacity = self.capacity_cycles
        occupation = 0.0 if capacity <= 0 else min(1.0, delay_cycles / capacity)
        return BufferStatus(occupation=occupation,
                            dropping=delay_cycles >= capacity)
