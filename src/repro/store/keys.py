"""Content-addressed cache keys for campaign results.

A campaign's aggregates are a pure function of *what* is simulated —
the program, its inputs, the fault plan — and of the handful of engine
knobs that select genuinely different semantics (the hardening
transform baked into the program, the effect-class bookkeeping of
``prune``, the timeout budget).  They are **not** a function of *how*
the simulation is scheduled: the engine's parity invariants guarantee
bit-identical aggregates across ``workers`` and
``checkpoint_interval``, so those knobs are deliberately excluded from
the key — a result produced by one schedule is valid under every other.

:func:`campaign_key` digests the canonical JSON encoding of

* the serialized IR (:func:`repro.ir.printer.format_function` — the
  same text the parser round-trips, so two structurally identical
  functions share a key however they were built),
* the machine image (memory image bytes, memory size),
* the initial register values,
* the fault plan (one ``[cycle, reg, bit, pp, rep, epoch]`` row per
  planned run, in plan order),
* the engine config (:func:`canonical_config`).

Versioning is split on purpose.  Bump :data:`KEY_VERSION` only when
the key *recipe* changes (what is digested) — that invalidates every
address, so results must be recomputed.  Bump :data:`SCHEMA_VERSION`
when only the stored *payload layout* changes: addresses stay stable,
and the store keeps a read path for older payload versions, so a store
written before the bump still serves hits instead of re-simulating.
"""

import hashlib
import itertools
import json

from repro.errors import SimulationError
from repro.fi.campaign import Plan
from repro.ir.printer import format_function

#: Version stamp of the key recipe (the digested payload below).
KEY_VERSION = 1

#: Version stamp of the stored payload layout.  v2: chunked,
#: zlib-compressed run segments in ``campaign_chunks`` with an
#: aggregate meta row.  The store reads and writes only this layout; a
#: row stamped with any other version (such as v1, one monolithic JSON
#: run list per row) misses and is recomputed.
SCHEMA_VERSION = 2

#: Engine knobs excluded from the key: campaign aggregates are
#: bit-identical across them (the engine's parity invariants), so one
#: cached result serves every setting.
PARITY_KNOBS = ("workers", "checkpoint_interval")

#: Engine knobs that *do* participate in the key.
KEY_KNOBS = ("core", "prune", "harden", "budget", "max_cycles")


def canonical_config(config=None):
    """Normalize an engine-config dict for keying.

    Accepts the :data:`KEY_KNOBS` (missing ones default) and silently
    drops the :data:`PARITY_KNOBS`; any other key is an error, so a
    future knob must make an explicit appearance in one of the two
    lists before results made with it can be cached.
    """
    config = dict(config or {})
    for knob in PARITY_KNOBS:
        config.pop(knob, None)
    unknown = set(config) - set(KEY_KNOBS)
    if unknown:
        raise SimulationError(
            f"unknown engine-config keys for the result store: "
            f"{sorted(unknown)} (add them to KEY_KNOBS or PARITY_KNOBS)")
    harden = config.get("harden") or "none"
    return {
        "core": config.get("core") or "threaded",
        "prune": config.get("prune") or "none",
        "harden": harden,
        # The budget only shapes the transform under the bec strategy.
        "budget": config.get("budget") if harden == "bec" else None,
        "max_cycles": config.get("max_cycles") or "auto",
    }


def plan_rows(plan):
    """Canonical JSON-safe rows for a fault plan, in plan order."""
    return [[planned.injection.cycle, planned.injection.reg,
             planned.injection.bit, planned.pp, planned.rep,
             planned.epoch]
            for planned in plan]


#: Plan rows encoded per step while a key is hashed.
KEY_ROWS_PER_STEP = 4096


def _row_steps(plan):
    """The plan's canonical rows, :data:`KEY_ROWS_PER_STEP` at a time: a
    :class:`repro.fi.campaign.Plan` reads them straight from its
    columns, any other sequence of runs goes through :func:`plan_rows`."""
    if isinstance(plan, Plan):
        for start in range(0, len(plan), KEY_ROWS_PER_STEP):
            yield plan.tuples(start, start + KEY_ROWS_PER_STEP)
        return
    runs = iter(plan)
    while True:
        rows = plan_rows(itertools.islice(runs, KEY_ROWS_PER_STEP))
        if not rows:
            return
        yield rows


def _dumps(value):
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def campaign_key(function, plan, regs=None, memory_image=None,
                 memory_size=1 << 16, config=None):
    """Hex digest addressing one campaign cell in the store.

    The digested bytes are the canonical JSON of the whole payload
    (sorted keys, no spaces), but the plan's rows are encoded and
    hashed :data:`KEY_ROWS_PER_STEP` at a time, so the key of a
    million-run plan holds one step of rows at once."""
    payload = {
        "schema": KEY_VERSION,
        "function": format_function(function),
        "memory_image": bytes(memory_image or b"").hex(),
        "memory_size": memory_size,
        "regs": sorted((reg, int(value))
                       for reg, value in (regs or {}).items()),
        "config": canonical_config(config),
    }
    # Keys sort around "plan": the prefix object ends just before it,
    # the suffix object starts just after it.
    before = _dumps({key: value for key, value in payload.items()
                     if key < "plan"})
    after = _dumps({key: value for key, value in payload.items()
                    if key > "plan"})
    digest = hashlib.blake2b(digest_size=16)
    digest.update(before[:-1].encode() + b',"plan":[')
    separator = b""
    for rows in _row_steps(plan):
        digest.update(separator + _dumps(rows)[1:-1].encode())
        separator = b","
    digest.update(b"]," + after[1:].encode())
    return digest.hexdigest()
