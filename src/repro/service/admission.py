"""Admission control: bounded concurrency, bounded queue, explicit shed.

The serving tier must degrade *explicitly* under overload: a request either
runs, waits in a bounded queue, or is turned away with a shed/timeout
result — never queued without bound.  :class:`AdmissionController` is the
gate: at most ``max_concurrent`` requests hold a service permit, at most
``queue_limit`` more wait for one, and a request that finds the queue full
is shed at once.  A per-request deadline bounds the wait; exceeding it
yields a ``timeout`` outcome rather than an exception.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass

from repro.errors import ConfigurationError

__all__ = ["AdmissionController", "AdmissionDecision"]

#: Outcome names — also the suffixes of the ``service.admission.*`` counters.
ADMITTED = "admitted"
SHED = "shed"
TIMEOUT = "timeout"


@dataclass
class AdmissionDecision:
    """How one request fared at the gate."""

    outcome: str  # "admitted" | "shed" | "timeout"
    queue_ms: float = 0.0

    @property
    def admitted(self) -> bool:
        return self.outcome == ADMITTED


class AdmissionController:
    """A permit gate with a bounded wait queue.

    ``admit`` blocks (up to the deadline) while the queue has room, sheds
    when the queue itself is full, and returns an explicit
    :class:`AdmissionDecision` either way.  ``release`` returns a permit;
    always pair them (``try/finally``).
    """

    def __init__(self, max_concurrent: int = 8, queue_limit: int = 32):
        if max_concurrent < 1:
            raise ConfigurationError(
                f"max_concurrent must be >= 1, got {max_concurrent}"
            )
        if queue_limit < 0:
            raise ConfigurationError(
                f"queue_limit must be >= 0, got {queue_limit}"
            )
        self.max_concurrent = max_concurrent
        self.queue_limit = queue_limit
        self._condition = threading.Condition()
        self._in_service = 0
        self._queued = 0

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def in_service(self) -> int:
        with self._condition:
            return self._in_service

    @property
    def queued(self) -> int:
        with self._condition:
            return self._queued

    # ------------------------------------------------------------------
    # The gate
    # ------------------------------------------------------------------
    def admit(self, deadline_ms: float | None = None) -> AdmissionDecision:
        """Try to obtain a service permit.

        Waits in the bounded queue while every permit is busy, and sheds at
        once when the queue is full.  *deadline_ms* bounds the wait
        (``None`` = wait in the queue indefinitely).
        """
        start = time.perf_counter()
        outcome = self._enter(start, deadline_ms)
        queue_ms = (time.perf_counter() - start) * 1000.0
        return AdmissionDecision(outcome, queue_ms=queue_ms)

    def release(self) -> None:
        """Return a permit and wake the queued waiters.

        Wakes all of them rather than one: a single notify can land on a
        waiter that is about to time out, stranding the permit while other
        waiters sleep.  Queues here are small, so the herd is too.
        """
        with self._condition:
            self._in_service -= 1
            self._condition.notify_all()

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _enter(self, start: float, deadline_ms: float | None) -> str:
        """Take a permit, wait in the queue for one, or find it full."""
        with self._condition:
            if self._in_service < self.max_concurrent:
                self._in_service += 1
                return ADMITTED
            if self._queued >= self.queue_limit:
                return SHED
            self._queued += 1
            try:
                while self._in_service >= self.max_concurrent:
                    remaining = self._remaining_s(start, deadline_ms)
                    if remaining is not None and remaining <= 0:
                        return TIMEOUT
                    if not self._condition.wait(remaining):
                        return TIMEOUT
                self._in_service += 1
                return ADMITTED
            finally:
                self._queued -= 1

    @staticmethod
    def _remaining_s(start: float, deadline_ms: float | None) -> float | None:
        if deadline_ms is None:
            return None
        return deadline_ms / 1000.0 - (time.perf_counter() - start)
