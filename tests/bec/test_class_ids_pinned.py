"""Pinned coalescing class ids of the nightly grid's kernels.

Class ids enter the content keys of every stored campaign, so a
refactor of the analyses must reproduce them exactly: same classes and
the same representative for each (union-by-size ties decide those).
One digest covers ``class_of`` over every fault site of bitcount, CRC32
and AES, each unprotected and hardened with ``bec`` at budget 0.3 (the
variants a nightly sweep analyses).  A change that moves a class id
must bump ``KEY_VERSION`` and re-pin this literal in the same commit.
"""

import hashlib

from repro.bec.analysis import run_bec
from repro.harden import harden_checked

PINNED = "d085bf19af2ac7d403178175f9998c7b"


def _class_ids(bec, digest):
    space = bec.fault_space
    ids = [bec.class_of(*space.site(site))
           for site in range(1, space.site_count + 1)]
    digest.update(repr((bec.function.name, len(ids))).encode())
    digest.update(repr(ids).encode())


def test_class_ids_of_nightly_kernels_are_pinned(kernel_runs):
    digest = hashlib.blake2b(digest_size=16)
    for name in ("bitcount", "CRC32", "AES"):
        run = kernel_runs[name]
        _class_ids(run.bec, digest)
        result, _, _ = harden_checked(
            run.function, "bec", run.golden, budget=0.3, bec=run.bec,
            regs=run.regs, memory_image=run.memory_image)
        _class_ids(run_bec(result.function), digest)
    assert digest.hexdigest() == PINNED
