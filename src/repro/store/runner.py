"""Cache-or-execute front end to the campaign engine.

:class:`CachingRunner` is the one integration point every store
consumer shares (``repro sweep``, the experiment harnesses, the CLI's
``campaign --store``): compute the content address of the requested
cell, return the archived result on a hit, otherwise execute the plan
through :class:`repro.fi.engine.CampaignEngine` and archive the
outcome.  Because the key excludes the parity knobs (``workers``,
``checkpoint_interval``), a result computed serially is a hit for a
16-worker request and vice versa.

Both directions of the store dataflow stream: a miss attaches a
:class:`repro.store.db.StoreWriterSink` so chunks of the engine's
:data:`repro.fi.engine.DEFAULT_CHUNK_SIZE` records archive as they
retire (rolled back if the campaign fails mid-flight), and a hit
replays the archive as a lazy chunk iterator — neither path holds more
than one chunk of records.
"""

from repro.fi.engine import CampaignEngine
from repro.fi.sink import TeeSink
from repro.store.db import StoreWriterSink
from repro.store.keys import campaign_key


class CachingRunner:
    """Runs fault plans through a :class:`repro.store.db.ResultStore`.

    Counters accumulate across calls so orchestrators can report cache
    behaviour: ``hits`` / ``misses`` per cell, and ``simulator_runs`` —
    the number of injections actually simulated (cache hits and
    liveness-pruned entries contribute zero).
    """

    def __init__(self, store, force=False):
        self.store = store
        self.force = force
        self.hits = 0
        self.misses = 0
        self.simulator_runs = 0
        self.last_key = None    # content address of the latest run()

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
        """Cached :class:`repro.fi.campaign.CampaignResult` for the
        cell, executing (and archiving) it on a miss.

        ``result.cached`` tells the caller which path was taken.
        *sink* joins the engine's fan-out on a miss (a distributed
        worker's local chunk capture, say); ``commit=False`` drops the
        store-writer sink entirely, so the miss executes without
        touching the store — the caller owns archiving (the envelope
        commit path).
        """
        plan = list(plan)
        key = self.key_for(machine, plan, regs=regs, prune=prune,
                           harden=harden, budget=budget,
                           max_cycles=max_cycles)
        self.last_key = key
        if not self.force:
            cached = self.store.get(key)
            if cached is not None:
                self.hits += 1
                return cached
        engine = CampaignEngine(machine, plan, regs=regs, golden=golden,
                                max_cycles=max_cycles)
        sinks = []
        if commit:
            sinks.append(StoreWriterSink(self.store, key))
        if sink is not None:
            sinks.append(sink)
        engine_sink = sinks[0] if len(sinks) == 1 else (
            TeeSink(sinks) if sinks else None)
        try:
            result = engine.run(workers=workers,
                                checkpoint_interval=checkpoint_interval,
                                progress=progress,
                                prune=None if prune in (None, "none")
                                else prune,
                                sink=engine_sink)
        except BaseException:
            if engine_sink is not None:
                abort = getattr(engine_sink, "abort", None)
                if abort is not None:
                    abort()
            raise
        self.misses += 1
        self.simulator_runs += len(plan) - result.pruned_runs
        return result
