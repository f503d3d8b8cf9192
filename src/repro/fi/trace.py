"""Execution traces.

A :class:`Trace` is what the paper compares between a golden run and a
fault-injection run: the sequence of executed instructions, the side
effects (memory writes and ``out`` values), the observable outcome
(return value, trap, or timeout).  Two fault sites are *observed* to be
equivalent iff their injected traces are equal.

Traces can be reduced to a compact :meth:`Trace.signature` so that
exhaustive campaigns do not need to keep every trace in memory — this is
the reproduction of the paper's "only distinguishable traces are
archived" trick from §V / Table I.
"""

import hashlib
import itertools
import struct

OUTCOME_OK = "ok"
OUTCOME_TRAP = "trap"
OUTCOME_TIMEOUT = "timeout"

#: Trap kind raised by the ``check`` instruction of hardened programs:
#: the run terminated because software redundancy *detected* a fault
#: (:mod:`repro.harden`).  Campaign classification maps this trap kind
#: to its own effect class instead of the generic ``trap``.
TRAP_DETECTED = "detected-fault"


#: Bytes per packed path entry and per packed store record.
PATH_ENTRY = 4
STORE_RECORD = 17


def pack_path(executed):
    """The byte form of an executed path that signatures hash: one
    little-endian int32 per program point, packed in one bulk call.
    The ``Struct`` is built per call rather than through ``struct``'s
    format cache, which would otherwise fill with one entry per
    distinct length."""
    return struct.Struct(f"<{len(executed)}i").pack(*executed)


def pack_stores(stores):
    """The byte form of store records that signatures hash: ``"<qqB"``
    per ``(address, value, size)`` record, packed in one bulk call."""
    return struct.Struct("<" + "qqB" * len(stores)).pack(
        *itertools.chain.from_iterable(stores))


def _resumed_pieces(records, pack, width, head, start, tail, n_tail):
    """Packed pieces of *records* whose first *start* records are the
    prefix of the golden image *head* and, when a *tail* image is
    given, whose last *n_tail* records are its suffix: only the records
    in between — the ones the run simulated — are packed."""
    prefix = memoryview(head)[:width * start]
    if tail is None:
        return (prefix, pack(records[start:]))
    end = len(records) - n_tail
    return (prefix, pack(records[start:end]),
            memoryview(tail)[len(tail) - width * n_tail:])


class SignatureForge:
    """Incremental form of :meth:`Trace.signature` for families of
    traces that share an executed path, store records and outcome —
    the lockstep-vectorized core's on-path lanes
    (:mod:`repro.fi.batch`): the path prefix is hashed once and forked
    per member with its own outputs and return value.

    The path and the store records arrive packed, as pieces whose
    concatenations are :func:`pack_path` and :func:`pack_stores` of
    them (plus the path length), so callers can feed slices of cached
    golden images instead of re-packing shared records.
    :meth:`Trace.signature` itself routes through this class, so the
    digest's byte layout is defined in exactly one place.
    """

    __slots__ = ("_prefix", "_stores", "_suffix")

    def __init__(self, n_executed, path, stores, outcome, trap_kind):
        digest = hashlib.blake2b(digest_size=16)
        digest.update(struct.pack("<q", n_executed))
        for piece in path:
            digest.update(piece)
        self._prefix = digest
        self._stores = (b"|stores",) + tuple(stores)
        self._suffix = outcome.encode() + (trap_kind or "").encode()

    def signature(self, outputs, returned):
        """Digest of the member trace with these *outputs*/*returned*."""
        digest = self._prefix.copy()
        digest.update(b"|outputs")
        digest.update(struct.pack(f"<{len(outputs)}q", *outputs))
        for piece in self._stores:
            digest.update(piece)
        digest.update(b"|ret")
        digest.update(repr(returned).encode())
        digest.update(self._suffix)
        return digest.digest()


class Trace:
    """Record of one (possibly fault-injected) program execution."""

    __slots__ = ("executed", "outputs", "stores", "loads", "returned",
                 "outcome", "trap_kind", "cycles", "resumed_from",
                 "spliced_at", "reused", "_images")

    def __init__(self):
        self.executed = []      # program points in execution order
        self.outputs = []       # values passed to `out`
        self.stores = []        # (address, value, size) in order
        self.loads = []         # (cycle, pp, address, size, rd) in order;
        #                         not part of the comparison key (loads
        #                         are not architectural side effects)
        self.returned = None    # return value (or None)
        self.outcome = OUTCOME_OK
        self.trap_kind = None
        self.cycles = 0
        self.resumed_from = None  # Snapshot a resumed run started from
        self.spliced_at = None    # Snapshot whose golden suffix it spliced
        self.reused = None        # record of an earlier run whose state
        #                           it reached (repro.fi.tails); the
        #                           trace then stops at that state
        self._images = None       # cached packed path and stores

    def key(self):
        """Full comparison key (everything observable)."""
        return (tuple(self.executed), tuple(self.outputs),
                tuple(self.stores), self.returned, self.outcome,
                self.trap_kind)

    def same_as(self, other):
        """Trace equality in the paper's sense (field-wise, cheapest
        first, so campaign classification short-circuits without
        materializing :meth:`key` tuples)."""
        return (self.returned == other.returned
                and self.outcome == other.outcome
                and self.trap_kind == other.trap_kind
                and self.outputs == other.outputs
                and self.stores == other.stores
                and self.executed == other.executed)

    def architectural_key(self):
        """Observable behaviour without the instruction path: outputs,
        memory side effects and outcome.  Used to classify divergences."""
        return (tuple(self.outputs), tuple(self.stores), self.returned,
                self.outcome, self.trap_kind)

    def packed(self):
        """``(pack_path(executed), pack_stores(stores))``, cached:
        golden traces share theirs with every run resumed from their
        snapshots."""
        images = self._images
        if images is None \
                or len(images[0]) != PATH_ENTRY * len(self.executed) \
                or len(images[1]) != STORE_RECORD * len(self.stores):
            images = self._images = (pack_path(self.executed),
                                     pack_stores(self.stores))
        return images

    def _packed_pieces(self):
        """Packed path and store pieces.  Only the records this run
        simulated are packed: a resumed run's prefix, and a spliced
        run's suffix, are slices of the golden trace's cached images."""
        resume = self.resumed_from
        if resume is None:
            return (pack_path(self.executed),), (pack_stores(self.stores),)
        head_path, head_stores = resume.trace.packed()
        splice = self.spliced_at
        tail_path = tail_stores = None
        path_tail = store_tail = 0
        if splice is not None:
            golden = splice.trace
            tail_path, tail_stores = golden.packed()
            path_tail = len(golden.executed) - splice.n_executed
            store_tail = len(golden.stores) - splice.n_stores
        return (_resumed_pieces(self.executed, pack_path, PATH_ENTRY,
                                head_path, resume.n_executed, tail_path,
                                path_tail),
                _resumed_pieces(self.stores, pack_stores, STORE_RECORD,
                                head_stores, resume.n_stores, tail_stores,
                                store_tail))

    def signature(self):
        """Stable 16-byte digest of :meth:`key` (for archiving)."""
        path, stores = self._packed_pieces()
        return SignatureForge(len(self.executed), path, stores,
                              self.outcome, self.trap_kind).signature(
                                  self.outputs, self.returned)

    def byte_size(self):
        """Approximate archived size of the full trace in bytes
        (4 bytes per executed instruction plus side-effect records);
        used by the Table I disk-space accounting."""
        return (4 * len(self.executed) + 8 * len(self.outputs)
                + 13 * len(self.stores) + 16)

    def __repr__(self):
        return (f"<Trace cycles={self.cycles} outcome={self.outcome} "
                f"outputs={len(self.outputs)} ret={self.returned}>")
