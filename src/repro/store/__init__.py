"""Content-addressed campaign-result store and sweep orchestration.

The missing leg of the ROADMAP's scale triad (sharding, batching,
**caching**): campaign aggregates are pure functions of their inputs,
so they are stored once under a content address
(:func:`repro.store.keys.campaign_key`) and never recomputed.

* :class:`ResultStore` — the SQLite-backed store (results +
  provenance);
* :class:`CachingRunner` — cache-or-execute front end to the campaign
  engine, shared by every consumer;
* :class:`SweepSpec` / :func:`load_spec` — declarative TOML/JSON grid
  specs;
* :func:`run_sweep` / :class:`SweepReport` — the ``repro sweep``
  orchestrator: expand the grid, skip hits, run misses in
  kernel-affine queue workers, emit a consolidated report.
"""

from repro.store.db import ResultStore
from repro.store.keys import (PARITY_KNOBS, SCHEMA_VERSION, campaign_key,
                              canonical_config)
from repro.store.runner import CachingRunner
from repro.store.spec import (SweepCell, SweepSpec, SweepSpecError,
                              load_spec, parse_spec)
from repro.store.sweep import (CellOutcome, SweepReport, SweepRunner,
                               run_sweep)

__all__ = [
    "CachingRunner",
    "CellOutcome",
    "PARITY_KNOBS",
    "ResultStore",
    "SCHEMA_VERSION",
    "SweepCell",
    "SweepReport",
    "SweepRunner",
    "SweepSpec",
    "SweepSpecError",
    "campaign_key",
    "canonical_config",
    "load_spec",
    "parse_spec",
    "run_sweep",
]
