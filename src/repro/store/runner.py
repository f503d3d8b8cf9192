"""Cache-or-execute front end to the campaign engine.

:class:`CachingRunner` is the one campaign entry point above
:mod:`repro.fi` (``repro sweep``, ``repro campaign``/``memory``, the
experiment harnesses, :mod:`repro.harden.evaluate`) and the one place
that decides whether a campaign is cached.  With a store it computes
the content address of the requested cell, returns the archived result
on a hit, otherwise executes the plan through
:class:`repro.fi.engine.CampaignEngine` and archives the outcome;
without one (``CachingRunner()``) it only executes.  Because the key
excludes the parity knobs (``workers``, ``checkpoint_interval``), a
result computed serially is a hit for a 16-worker request and vice
versa.

A miss captures the engine's chunk stream compressed
(:class:`repro.store.db.ChunkCapture`, chunks of
:data:`repro.fi.engine.DEFAULT_CHUNK_SIZE` records) and archives it
with one :meth:`repro.store.db.ResultStore.archive` call after the
campaign finishes, so a failed campaign writes nothing and the store's
write lock is held only for that commit.  Per-run records reach the
caller through the *sink* it passes, on either path: a miss tees the
engine's stream into it next to the capture, and a hit replays the
archive into it chunk by chunk (:meth:`ResultStore.replay`), so the
sink cannot tell a cached campaign from a fresh one.  Neither path
holds more than one chunk of records beyond what the sink keeps.
"""

import sqlite3
import warnings

from repro import obs
from repro.fi.engine import CampaignEngine
from repro.fi.sink import TeeSink
from repro.store.db import ChunkCapture, archive_meta, is_lock_error
from repro.store.keys import campaign_key


class CachingRunner:
    """Runs fault plans, through a :class:`repro.store.db.ResultStore`
    when *store* is given.

    Counters accumulate across calls so orchestrators can report cache
    behaviour: ``hits`` / ``misses`` per cell, and ``simulator_runs`` —
    the number of injections actually simulated (cache hits and
    liveness-pruned entries contribute zero).
    """

    def __init__(self, store=None, force=False):
        self.store = store
        self.force = force
        self.hits = 0
        self.misses = 0
        self.simulator_runs = 0
        self.last_key = None    # content address of the latest run()
        #: The latest ``commit=False`` run's :class:`ChunkCapture`
        #: (empty on a hit), for the caller to archive.
        self.last_capture = None

    def key_for(self, machine, plan, regs=None, prune=None,
                harden="none", budget=None, max_cycles=None):
        """The content address the cell will be stored under."""
        return campaign_key(
            machine.function, plan, regs=regs,
            memory_image=machine.memory_image,
            memory_size=machine.memory_size,
            config={"core": machine.core, "prune": prune,
                    "harden": harden, "budget": budget,
                    "max_cycles": max_cycles})

    def run(self, machine, plan, regs=None, golden=None, max_cycles=None,
            workers=1, checkpoint_interval=None, prune=None,
            harden="none", budget=None, progress=None, sink=None,
            commit=True):
        """:class:`repro.fi.campaign.CampaignResult` for the cell:
        cached when the store holds it, executed (and archived)
        otherwise.  Without a store the campaign just executes: no key,
        no capture, *sink* straight to the engine.

        ``result.cached`` tells the caller which path was taken.
        *sink*, a :class:`repro.fi.sink.RunSink`, receives the cell's
        plan-ordered record stream either way: executed on a miss,
        replayed from the archive (same chunks, records, byte sizes
        and ``begin`` meta, with the caller's *plan* and *golden*) on
        a hit.
        ``commit=False`` executes a miss without touching the store and
        leaves its chunk stream in :attr:`last_capture` — the caller
        owns archiving (the distributed worker's signed envelope).  A
        committed miss whose store stays locked past the commit retries
        is not archived: the computed result stands, the cell simply
        misses next time (a warning and ``store.archives_dropped``).
        With a store, a *sink* needs the caller's *golden*: a hit
        cannot recompute the trace a miss's engine would hand to
        ``begin``.
        """
        capture = None
        if self.store is not None:
            if sink is not None and golden is None:
                raise ValueError("CachingRunner.run(sink=...) needs golden=")
            plan = list(plan)
            key = self.key_for(machine, plan, regs=regs, prune=prune,
                               harden=harden, budget=budget,
                               max_cycles=max_cycles)
            self.last_key = key
            capture = ChunkCapture()
            self.last_capture = None if commit else capture
            if not self.force:
                cached = self.store.get(key)
                if cached is not None:
                    self.hits += 1
                    if sink is not None:
                        self.store.replay(key, sink, plan=plan, golden=golden)
                    return cached
            sink = capture if sink is None else TeeSink([capture, sink])
        engine = CampaignEngine(machine, plan, regs=regs, golden=golden,
                                max_cycles=max_cycles)
        result = engine.run(workers=workers,
                            checkpoint_interval=checkpoint_interval,
                            progress=progress, prune=prune, sink=sink)
        self.misses += 1
        self.simulator_runs += len(engine.plan) - result.pruned_runs
        if capture is not None and commit:
            self._archive(key, capture, result)
        return result

    def _archive(self, key, capture, result):
        try:
            self.store.archive(key, capture.chunks,
                               archive_meta(result, capture.chunk_size))
        except sqlite3.OperationalError as exc:
            # Archiving is an optimization, not the campaign: if the
            # store stayed locked past its own retries, drop the
            # archive and let the computed result stand.
            if not is_lock_error(exc):
                raise
            obs.logger().warning("store.archive_dropped", key=key,
                                 error=str(exc))
            obs.metrics().counter("store.archives_dropped").inc()
            warnings.warn(
                f"result store stayed locked; campaign not archived "
                f"under {key} ({exc})", RuntimeWarning, stacklevel=3)
