"""Forked worker processes that report home over one pipe each.

Both process-level fan-outs fork through :class:`ForkPool`: the
campaign engine's workers (:mod:`repro.fi.engine`, one per part of the
block schedule) and a local sweep's queue workers
(:mod:`repro.store.sweep`, one per kernel group).  Children are forked,
not spawned, so they inherit the caller's objects (golden snapshots,
classifiers, compiled kernels) by reference instead of pickling them.

A child runs ``target(send, *args)``.  Each ``send(*message)`` ships
the message home together with the child's metrics delta and its
finished trace spans since the previous message; what is left when
*target* returns rides one last trailer.  The parent merges both into
its own registry and tracer before it hands the message on, so every
message a child delivered is counted and traced even when the child
dies later.  The spans keep the child's pid, so each child renders as
its own process row.  A child exception goes home as
``("error", "ExcType: message")``.

The parent learns that a child ended when its pipe reads EOF.  The
drain loop also wakes every :data:`POLL_INTERVAL` seconds to poll
exitcodes: a ``repro serve`` pool thread can fork while a sibling
thread's pipe end is still open, and then a dead child's pipe never
reads as EOF.  What to do about an ended child — respawn it, expire
its leases, finish its work in-process — is the caller's policy.
"""

import contextlib
import gc
import multiprocessing
from multiprocessing.connection import wait

from repro import obs

#: Seconds the drain loop waits on the pipes before polling exitcodes.
#: A dead child's pipe normally reads EOF at once, so this only bounds
#: how late a child whose pipe never does is noticed.
POLL_INTERVAL = 0.25


def available():
    """True where this platform can fork workers."""
    return "fork" in multiprocessing.get_all_start_methods()


def _child(conn, target, args):
    """The body of every forked child; see the module docstring."""
    tracer = obs.tracer()
    tracer.follow_fork()
    registry = obs.metrics()
    mark = registry.mark()

    def ship(message):
        nonlocal mark
        delta = registry.delta_since(mark)
        mark = registry.mark()
        conn.send((message, delta, tracer.take()))

    try:
        target(lambda *message: ship(message), *args)
        ship(None)
    except Exception as exc:
        with contextlib.suppress(OSError):  # parent gone: nobody to tell
            ship(("error", f"{type(exc).__name__}: {exc}"))
        raise
    finally:
        conn.close()


class ForkPool:
    """The forked children of one caller, each with its own pipe home.

    :meth:`spawn` starts a child, :meth:`drain` hands their messages
    and their ends to the caller until none is left, and leaving the
    ``with`` block terminates and joins whatever still runs."""

    def __init__(self):
        self._context = multiprocessing.get_context("fork")
        self._children = {}     # pipe -> (key, process)

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        for pipe, (_, process) in self._children.items():
            process.terminate()
            process.join()
            pipe.close()
        self._children.clear()
        return False

    def event(self):
        """A flag the parent can set and forked children can wait on."""
        return self._context.Event()

    def spawn(self, key, target, *args):
        """Fork a child running ``target(send, *args)``; *key* names it
        to the :meth:`drain` callbacks.  Raises :class:`OSError` when
        process creation is refused (sandbox, rlimits)."""
        receive, send = self._context.Pipe(duplex=False)
        process = self._context.Process(target=_child,
                                        args=(send, target, args))
        # The child's collector then leaves the inherited objects
        # alone instead of touching (and copying) their pages.
        gc.freeze()
        try:
            process.start()
        except OSError:
            receive.close()
            raise
        finally:
            gc.unfreeze()
            send.close()        # so that a dead child reads as EOF
        self._children[receive] = (key, process)

    def drain(self, on_message, on_end):
        """Deliver each child message to ``on_message(key, message)``
        and each child's end to ``on_end(key, exitcode)`` until no child
        is left; either callback may :meth:`spawn` more."""
        registry, tracer = obs.metrics(), obs.tracer()
        while self._children:
            ready = wait(list(self._children), timeout=POLL_INTERVAL)
            if not ready:
                for pipe, (key, process) in list(self._children.items()):
                    if process.exitcode is not None and not pipe.poll(0):
                        on_end(key, self._reap(pipe))
                continue
            for pipe in ready:
                key = self._children[pipe][0]
                try:
                    message, metrics, spans = pipe.recv()
                except (EOFError, OSError):     # ended, or cut mid-message
                    on_end(key, self._reap(pipe))
                    continue
                registry.merge(metrics)
                tracer.extend(spans)
                if message is not None:
                    on_message(key, message)

    def _reap(self, pipe):
        """Forget the child behind *pipe*; returns its exitcode."""
        _, process = self._children.pop(pipe)
        pipe.close()
        process.join()
        return process.exitcode
