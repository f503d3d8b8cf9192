"""``repro.obs`` — unified telemetry for the campaign pipeline.

One process-wide registry of counters/histograms
(:mod:`repro.obs.metrics`), one span tracer with Chrome trace-event
export (:mod:`repro.obs.spans`) and one structured key-value event log
(:mod:`repro.obs.log`).  The engine, the batched core, the sink
fan-out, the result store and the sweep orchestrator all report into
these singletons; the CLI surfaces them as ``--trace FILE.json`` /
``--metrics [FILE|-]`` plus ``repro obs summarize``.

Cost model: the metrics registry and event ring are always on (their
events are chunk/lifecycle-granular), while spans are off by default —
a disabled ``tracer().span(...)`` returns a shared no-op singleton, so
instrumented paths stay near-free until a caller opts in.

Typical use::

    from repro import obs

    obs.tracer().start()                    # opt into spans
    ... run a campaign ...
    obs.tracer().export_chrome("trace.json")
    print(obs.metrics().to_prometheus())    # scrape surface
"""

from repro.obs.log import StructLogger
from repro.obs.metrics import (DEFAULT_BUCKETS, MetricsRegistry,
                               parse_exposition, prometheus_name)
from repro.obs.spans import NULL_SPAN, Span, Tracer, to_chrome

__all__ = [
    "DEFAULT_BUCKETS", "MetricsRegistry", "NULL_SPAN", "Span",
    "StructLogger", "Tracer", "logger", "metrics", "parse_exposition",
    "prometheus_name", "to_chrome", "tracer",
]

_REGISTRY = MetricsRegistry()
_TRACER = Tracer()
_LOGGER = StructLogger()


def metrics():
    """The process-wide :class:`MetricsRegistry`."""
    return _REGISTRY


def tracer():
    """The process-wide :class:`Tracer` (disabled until ``start()``)."""
    return _TRACER


def logger():
    """The process-wide :class:`StructLogger`."""
    return _LOGGER
