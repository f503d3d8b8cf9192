"""Process-local metrics registry: counters and histograms.

One :class:`MetricsRegistry` per process (the module-level singleton
lives in :mod:`repro.obs`) holds named metric *families*; a family
fans out into labeled children (``registry.counter("batch.escapes",
pp="12", opcode="BEQ")``), so per-divergence-point attribution and
per-sink timings are first-class instead of ad-hoc dict juggling at
every call site.

The registry is deliberately always-on: increments happen at
chunk/lifecycle granularity (never per simulated cycle), so the cost
of a live registry is a dict lookup and a lock per event — invisible
next to a 2048-run chunk.  What *is* guarded behind explicit opt-in
is the span tracer (:mod:`repro.obs.spans`).

Concurrency model:

* **Threads** share one registry; every mutation takes the registry
  lock, so concurrent increments never lose updates.
* **Forked workers** inherit the registry by copy.  Every worker the
  package forks goes through :class:`repro.fork.ForkPool`, whose child
  wrapper takes a :meth:`MetricsRegistry.mark` right after the fork
  and ships :meth:`delta_since` its previous mark with each message;
  the parent :meth:`merge`\\ s each delta before it reads the message.
  Counter and histogram deltas add exactly, so what a worker counted
  for the work it delivered reaches the parent even when the worker
  dies later.

Export surfaces:

* :meth:`MetricsRegistry.snapshot` — nested dict (JSON-safe) with one
  sample per labeled child.
* :meth:`MetricsRegistry.totals` — flat ``{"store.hits": 3, ...}``
  rollup across labels (histograms contribute ``.count``/``.sum``),
  the shape CI assertions and sweep reports consume.
* :meth:`MetricsRegistry.to_prometheus` — text exposition format
  (``# TYPE`` headers, escaped labels, cumulative histogram buckets),
  the scrape surface the future campaign service mounts.
  :func:`parse_exposition` round-trips it for tests.
"""

import json
import re
import threading

#: Default histogram buckets, in seconds: spans per-chunk sink timings
#: (sub-millisecond) up to whole-campaign walls.
DEFAULT_BUCKETS = (0.0001, 0.0005, 0.001, 0.005, 0.01, 0.05, 0.1,
                   0.5, 1.0, 5.0, 10.0, 60.0)

_NAME_SANITIZER = re.compile(r"[^a-zA-Z0-9_]")

#: Prefix of every exported Prometheus metric name.
PROM_PREFIX = "repro_"


def _labels_key(labels):
    """Canonical hashable identity of a label set."""
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def prometheus_name(name):
    """``store.hits`` -> ``repro_store_hits``."""
    return PROM_PREFIX + _NAME_SANITIZER.sub("_", name)


def escape_label_value(value):
    """Prometheus label-value escaping: backslash, quote, newline."""
    return (value.replace("\\", "\\\\").replace('"', '\\"')
            .replace("\n", "\\n"))


def _unescape_label_value(value):
    out = []
    index = 0
    while index < len(value):
        char = value[index]
        if char == "\\" and index + 1 < len(value):
            follower = value[index + 1]
            if follower == "n":
                out.append("\n")
            elif follower in ("\\", '"'):
                out.append(follower)
            else:
                out.append(follower)
            index += 2
            continue
        out.append(char)
        index += 1
    return "".join(out)


def _format_value(value):
    if isinstance(value, float) and value == int(value) \
            and abs(value) < 1e15:
        return str(int(value))
    return repr(value) if isinstance(value, float) else str(value)


def _format_labels(labels_key, extra=None):
    pairs = list(labels_key)
    if extra:
        pairs = pairs + list(extra)
    if not pairs:
        return ""
    body = ",".join(f'{name}="{escape_label_value(value)}"'
                    for name, value in pairs)
    return "{" + body + "}"


class Counter:
    """Monotonically increasing child value."""

    __slots__ = ("_lock", "_value")

    def __init__(self, lock):
        self._lock = lock
        self._value = 0

    def inc(self, amount=1):
        if amount < 0:
            raise ValueError("counters only go up")
        with self._lock:
            self._value += amount

    @property
    def value(self):
        return self._value


class Histogram:
    """Fixed-bucket child histogram (count, sum, per-bucket counts).

    Buckets store *non-cumulative* counts internally; the Prometheus
    exposition renders them cumulative with the trailing ``+Inf``
    bucket, as the format requires.
    """

    __slots__ = ("_lock", "buckets", "_counts", "count", "sum")

    def __init__(self, lock, buckets):
        self._lock = lock
        self.buckets = buckets
        self._counts = [0] * (len(buckets) + 1)     # last = +Inf
        self.count = 0
        self.sum = 0.0

    def observe(self, value):
        with self._lock:
            self.count += 1
            self.sum += value
            for index, bound in enumerate(self.buckets):
                if value <= bound:
                    self._counts[index] += 1
                    return
            self._counts[-1] += 1

    def bucket_counts(self):
        """Non-cumulative per-bucket counts (last bucket is +Inf)."""
        return list(self._counts)

    def cumulative(self):
        """``[(le, cumulative_count), ...]`` ending with ``+Inf``."""
        out = []
        running = 0
        for bound, count in zip(self.buckets, self._counts):
            running += count
            out.append((bound, running))
        out.append((float("inf"), running + self._counts[-1]))
        return out


class _Family:
    __slots__ = ("name", "kind", "help", "buckets", "children", "_lock")

    def __init__(self, name, kind, lock, help=None, buckets=None):
        self.name = name
        self.kind = kind
        self.help = help
        self.buckets = buckets
        self.children = {}              # labels_key -> child
        self._lock = lock

    def child(self, labels):
        key = _labels_key(labels)
        child = self.children.get(key)
        if child is None:
            with self._lock:
                child = self.children.get(key)
                if child is None:
                    if self.kind == "counter":
                        child = Counter(self._lock)
                    else:
                        child = Histogram(self._lock, self.buckets)
                    self.children[key] = child
        return child


class MetricsRegistry:
    """Named metric families with labeled children.

    ``registry.counter(name, **labels)`` (and ``histogram``)
    returns the same child object for the same name+labels every time,
    so call sites can cache it or re-resolve it cheaply.
    """

    def __init__(self):
        self._lock = threading.RLock()
        self._families = {}

    # -- family access -----------------------------------------------------

    def _family(self, name, kind, help=None, buckets=None):
        family = self._families.get(name)
        if family is None:
            with self._lock:
                family = self._families.get(name)
                if family is None:
                    family = _Family(name, kind, self._lock, help=help,
                                     buckets=buckets)
                    self._families[name] = family
        if family.kind != kind:
            raise ValueError(
                f"metric {name!r} already registered as {family.kind}")
        return family

    def counter(self, name, help=None, **labels):
        return self._family(name, "counter", help=help).child(labels)

    def histogram(self, name, help=None, buckets=None, **labels):
        family = self._family(name, "histogram", help=help,
                              buckets=tuple(buckets or DEFAULT_BUCKETS))
        return family.child(labels)

    def reset(self):
        """Drop every family (tests)."""
        with self._lock:
            self._families = {}

    # -- snapshots and rollups ---------------------------------------------

    def snapshot(self):
        """Nested JSON-safe view: one sample dict per labeled child."""
        out = {}
        with self._lock:
            for name, family in sorted(self._families.items()):
                samples = []
                for key, child in sorted(family.children.items()):
                    labels = dict(key)
                    if family.kind == "histogram":
                        samples.append({
                            "labels": labels, "count": child.count,
                            "sum": child.sum,
                            "buckets": [[le if le != float("inf")
                                         else "+Inf", total]
                                        for le, total
                                        in child.cumulative()]})
                    else:
                        samples.append({"labels": labels,
                                        "value": child.value})
                out[name] = {"kind": family.kind, "samples": samples}
        return out

    def totals(self, dump=None):
        """Flat ``{name: number}`` rollup summed across labels.

        Histograms contribute ``<name>.count`` and ``<name>.sum``.
        With *dump* (a :meth:`dump`/:meth:`delta_since` state) the
        rollup is computed over that state instead of the live one —
        how sweep reports embed a per-invocation metrics delta.
        """
        if dump is None:
            dump = self.dump()
        out = {}
        for name, family in sorted(dump.items()):
            kind = family["kind"]
            if kind == "histogram":
                count = sum(state["count"]
                            for state in family["children"].values())
                total = sum(state["sum"]
                            for state in family["children"].values())
                out[name + ".count"] = count
                out[name + ".sum"] = total
            else:
                out[name] = sum(family["children"].values())
        return out

    # -- fork-safe delta protocol ------------------------------------------

    def dump(self):
        """Picklable full state: the mark/merge wire format."""
        out = {}
        with self._lock:
            for name, family in self._families.items():
                children = {}
                for key, child in family.children.items():
                    if family.kind == "histogram":
                        children[key] = {"count": child.count,
                                         "sum": child.sum,
                                         "counts": child.bucket_counts()}
                    else:
                        children[key] = child.value
                out[name] = {"kind": family.kind,
                             "buckets": family.buckets,
                             "children": children}
        return out

    mark = dump

    def delta_since(self, mark):
        """What happened since *mark* (a prior :meth:`dump`), in dump
        shape: counters and histograms subtract exactly."""
        now = self.dump()
        delta = {}
        for name, family in now.items():
            old_children = mark.get(name, {}).get("children", {})
            children = {}
            for key, state in family["children"].items():
                old = old_children.get(key)
                if family["kind"] == "counter":
                    value = state - (old or 0)
                    if value:
                        children[key] = value
                else:
                    old = old or {"count": 0, "sum": 0.0,
                                  "counts": [0] * len(state["counts"])}
                    count = state["count"] - old["count"]
                    if count:
                        children[key] = {
                            "count": count,
                            "sum": state["sum"] - old["sum"],
                            "counts": [new - prev for new, prev
                                       in zip(state["counts"],
                                              old["counts"])]}
            if children:
                delta[name] = {"kind": family["kind"],
                               "buckets": family["buckets"],
                               "children": children}
        return delta

    def merge(self, dump):
        """Fold a :meth:`dump`/:meth:`delta_since` state in: counters
        and histograms add."""
        for name, family in dump.items():
            kind = family["kind"]
            for key, state in family["children"].items():
                labels = dict(key)
                if kind == "counter":
                    self.counter(name, **labels).inc(state)
                else:
                    child = self.histogram(
                        name, buckets=family["buckets"], **labels)
                    with self._lock:
                        child.count += state["count"]
                        child.sum += state["sum"]
                        for index, count in enumerate(state["counts"]):
                            child._counts[index] += count

    # -- export ------------------------------------------------------------

    def to_json(self, indent=None):
        return json.dumps({"totals": self.totals(),
                           "families": self.snapshot()},
                          indent=indent, sort_keys=True)

    def to_prometheus(self):
        """Text exposition format (the scrape endpoint's body)."""
        lines = []
        with self._lock:
            families = sorted(self._families.items())
        for name, family in families:
            exported = prometheus_name(name)
            if family.help:
                lines.append(f"# HELP {exported} {family.help}")
            lines.append(f"# TYPE {exported} {family.kind}")
            for key, child in sorted(family.children.items()):
                if family.kind == "histogram":
                    for le, total in child.cumulative():
                        le_text = "+Inf" if le == float("inf") \
                            else _format_value(float(le))
                        labels = _format_labels(key, [("le", le_text)])
                        lines.append(
                            f"{exported}_bucket{labels} {total}")
                    labels = _format_labels(key)
                    lines.append(f"{exported}_sum{labels} "
                                 f"{_format_value(child.sum)}")
                    lines.append(f"{exported}_count{labels} "
                                 f"{child.count}")
                else:
                    labels = _format_labels(key)
                    lines.append(f"{exported}{labels} "
                                 f"{_format_value(child.value)}")
        return "\n".join(lines) + "\n"


def _parse_labels(body):
    """Label dict from the inside of ``{...}`` (escaped values)."""
    labels = {}
    index = 0
    length = len(body)
    while index < length:
        while index < length and body[index] in ", ":
            index += 1
        if index >= length:
            break
        eq = body.index("=", index)
        name = body[index:eq].strip()
        index = eq + 1
        if body[index] != '"':
            raise ValueError(f"unquoted label value near {body[index:]!r}")
        index += 1
        out = []
        while index < length:
            char = body[index]
            if char == "\\":
                out.append(body[index:index + 2])
                index += 2
                continue
            if char == '"':
                break
            out.append(char)
            index += 1
        if index >= length:
            raise ValueError("unterminated label value")
        labels[name] = _unescape_label_value("".join(out))
        index += 1
    return labels


def parse_exposition(text):
    """Parse Prometheus text exposition into
    ``(types, samples)`` where ``types`` maps metric name -> kind and
    ``samples`` maps ``(name, frozenset(labels.items()))`` -> value.

    A deliberately strict line-format parser: it is the round-trip
    check for :meth:`MetricsRegistry.to_prometheus`, so malformed
    output fails tests instead of a scrape.
    """
    types = {}
    samples = {}
    for raw in text.splitlines():
        line = raw.strip()
        if not line:
            continue
        if line.startswith("# TYPE "):
            _, _, rest = line.partition("# TYPE ")
            name, kind = rest.split()
            types[name] = kind
            continue
        if line.startswith("#"):
            continue
        if "{" in line:
            name, _, rest = line.partition("{")
            body, _, value_text = rest.rpartition("}")
            labels = _parse_labels(body)
            value_text = value_text.strip()
        else:
            name, value_text = line.split()
            labels = {}
        value = float(value_text)
        samples[(name, frozenset(labels.items()))] = value
    return types, samples
