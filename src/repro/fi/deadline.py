"""Wall-clock deadlines for campaign cells.

A hung cell — an interpreter bug spinning past ``max_cycles``, a
worker pipe that never closes, a store that blocks forever — must
*fail* so the lease protocol (:mod:`repro.dist`, which local sweeps
drain too) can retry or poison it, instead of blocking the whole
campaign.  :func:`wall_clock_deadline` is the shared primitive: a
context manager that raises :class:`CellTimeout` inside the guarded
block once *seconds* of wall time elapse.

Implementation is ``SIGALRM``/``setitimer``, which interrupts pure
Python loops, ``connection.wait`` multiplexing and SQLite calls alike.
That restricts the primitive to the **main thread of a Unix process**
— exactly where sweep cells and distributed workers execute.  Anywhere
else (worker threads, platforms without ``SIGALRM``) the guard
degrades to a no-op and reports so through its ``as`` value, keeping
callers portable: the deadline is an extra safety net, never a
correctness dependency.
"""

import signal
import threading
from contextlib import contextmanager

from repro.errors import ReproError


class CellTimeout(ReproError):
    """A guarded block exceeded its wall-clock deadline."""


def deadline_supported():
    """True when :func:`wall_clock_deadline` can actually arm a timer
    here (Unix ``SIGALRM``, main thread)."""
    return (hasattr(signal, "SIGALRM")
            and threading.current_thread() is threading.main_thread())


@contextmanager
def wall_clock_deadline(seconds, what="cell"):
    """Raise :class:`CellTimeout` inside the block after *seconds*.

    ``seconds`` of ``None`` or ``0`` disables the guard entirely.  The
    yielded value is True when a timer is armed and False when the
    guard degraded to a no-op (unsupported platform or a non-main
    thread); the previous ``SIGALRM`` disposition and any outer
    ``setitimer`` are restored on exit, so guards nest with whatever
    the host application does with alarms.
    """
    if not seconds or not deadline_supported():
        yield False
        return

    def _expired(signum, frame):
        raise CellTimeout(
            f"{what} exceeded its wall-clock deadline of {seconds}s")

    previous_handler = signal.signal(signal.SIGALRM, _expired)
    previous_timer = signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield True
    finally:
        signal.setitimer(signal.ITIMER_REAL, *previous_timer)
        signal.signal(signal.SIGALRM, previous_handler)
