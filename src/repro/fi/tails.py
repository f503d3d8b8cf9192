"""Cross-run tail reuse: one campaign's memo of faulty states.

Many injected runs of one campaign end up in the same corrupted state
— the coalescing BEC predicts — and from then on execute the same
tail.  Golden reconvergence (:meth:`repro.fi.machine.Machine.run_from`
with ``converge=``) only notices a run re-joining the *golden* state;
a :class:`TailMemo` also notices a run re-joining the state an earlier
run of the campaign had, and hands it that run's finished record
instead of simulating the tail again.

**Key.**  At a convergence stop ``c`` (a golden snapshot cycle past
every upset) the state of a register-injected run is its pc, its
register slot list and its memory.  The run resumed from snapshot
``s``, so its memory is ``s.memory`` plus the stores its trace
recorded since ``s``, and its trace so far is the golden prefix up to
``s`` plus the segment since ``s``.  The key therefore covers ``c``,
the pc and the registers; when the segment differs from the golden
run's over the same span (path, outputs or stores) it also covers the
segment, whose path length ``c - s.cycle`` fixes ``s``.  When the
segment equals the golden one, trace prefix and memory are the golden
run's at ``c`` whatever ``s`` was, so runs resumed from different
snapshots share the key.

**Soundness.**  Equal keys mean equal trace prefixes up to ``c`` and
equal machine states at ``c``; the tail is determined by that state
(and the campaign's fixed cycle budget), so the whole trace — and with
it the ``(effect, signature, byte_size)`` record — is the same.  A
:class:`~repro.fi.machine.MemoryInjection` changes memory without a
store record, so such runs never use the memo; the test-local
reference interpreter (``tests/fi/reference.py``) never probes it, and
stays the oracle that checks this shortcut.

**Bound.**  Before each run the memo drops every entry whose stop
cycle is at or below the run's resume cycle: the run cannot probe
there, and neither can any later run of a cycle-ordered plan.
Eviction only loses hits, never changes a record.
"""

import hashlib
import struct

from repro.fi.trace import pack_path, pack_stores

#: Convergence stops past the horizon at which a run probes the memo
#: (read when a memo is built).  Later stops rarely hit: a run that
#: has not met an earlier run's state three snapshots after its upset
#: mostly carries a state of its own.
TAIL_STOPS = 3


def _pack_outputs(outputs):
    return struct.Struct(f"<{len(outputs)}Q").pack(*outputs)


class TailMemo:
    """Maps the digest of a run's state at a convergence stop to the
    record of the first run of the campaign that reached it.

    One run at a time: :meth:`begin` before the run, :meth:`probe` at
    each of its first :attr:`stops` failed golden checks (from
    :meth:`Machine._execute_threaded`), :meth:`commit` with the run's
    record after it — which files every key the run missed.
    """

    def __init__(self, n_registers):
        self.stops = TAIL_STOPS
        self._state = struct.Struct(f"<q{n_registers}Q")
        self._by_stop = {}          # stop cycle -> {key: record}
        self._floor = None          # lowest stop cycle in _by_stop
        self._pending = []          # [(records, key)] the run missed
        self._resume = None         # the run's resume snapshot
        self._checked = None        # (n_executed, n_outputs, n_stores)
        self._segment = None        # path/outputs/stores hashers

    def __len__(self):
        return sum(len(records) for records in self._by_stop.values())

    def begin(self, snapshot):
        """Start a run resumed from *snapshot*: evict the entries it
        cannot reach and reset the per-run state."""
        cycle = snapshot.cycle
        if self._floor is not None and self._floor <= cycle:
            for stop in [stop for stop in self._by_stop if stop <= cycle]:
                del self._by_stop[stop]
            self._floor = min(self._by_stop, default=None)
        self._pending = []
        self._resume = snapshot
        self._checked = (snapshot.n_executed, snapshot.n_outputs,
                         snapshot.n_stores)
        self._segment = None

    def probe(self, trace, stop, pc, registers):
        """The record filed under the run's state at golden snapshot
        *stop* (where the golden check just failed), or ``None`` — then
        the key waits for :meth:`commit`."""
        digest = hashlib.blake2b(self._state.pack(pc, *registers),
                                 digest_size=16)
        executed, outputs, stores = self._checked
        if self._segment is None:
            golden = stop.trace
            if trace.executed[executed:] == \
                    golden.executed[executed:stop.n_executed] \
                    and trace.outputs[outputs:] == \
                    golden.outputs[outputs:stop.n_outputs] \
                    and trace.stores[stores:] == \
                    golden.stores[stores:stop.n_stores]:
                self._checked = (stop.n_executed, stop.n_outputs,
                                 stop.n_stores)
            else:
                # The segment left the golden trace: from here on the
                # key covers the whole segment.
                resume = self._resume
                self._segment = (hashlib.blake2b(digest_size=16),
                                 hashlib.blake2b(digest_size=16),
                                 hashlib.blake2b(digest_size=16))
                executed, outputs, stores = (resume.n_executed,
                                             resume.n_outputs,
                                             resume.n_stores)
        if self._segment is not None:
            path_hash, outputs_hash, stores_hash = self._segment
            path_hash.update(pack_path(trace.executed[executed:]))
            outputs_hash.update(_pack_outputs(trace.outputs[outputs:]))
            stores_hash.update(pack_stores(trace.stores[stores:]))
            self._checked = (len(trace.executed), len(trace.outputs),
                             len(trace.stores))
            for hasher in self._segment:
                digest.update(hasher.digest())
        key = digest.digest()
        records = self._by_stop.get(stop.cycle)
        if records is None:
            records = self._by_stop[stop.cycle] = {}
            if self._floor is None or stop.cycle < self._floor:
                self._floor = stop.cycle
        record = records.get(key)
        if record is None:
            self._pending.append((records, key))
        return record

    def commit(self, record):
        """File the run's *record* under every key it missed."""
        for records, key in self._pending:
            records[key] = record
        self._pending = []
