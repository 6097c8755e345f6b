"""The URL-seen set as a per-round value: one sorted ``int64`` array.

The reference never revisits a URL because a folder *tree* has no cycles
(structural guarantee, ``SharePointClient.cs:325-336``).  A web link graph has
cycles, so the engine makes the seen set explicit: the sorted, unique 63-bit
hashes of every url the crawl has attempted.

Round protocol (SURVEY.md §7.6.2): the set changes only at the round barrier,
so it is a value per round, not a service.  During round R selection only
reads the array frozen at the end of round R-1: in process on the driver
path, or as one ``ray.put`` object per round that distributed stage-0
workers read zero-copy and cache.  At the barrier the driver builds the next
array from the round's attempted hashes, read back from the checkpoint (the
seen set's source of truth, also on resume): an add is a sorted merge, a
recrawl invalidation a set difference.  Adds are idempotent.

There is no prefilter.  A membership filter (Bloom, cuckoo) in front of the
exact keys pays only when the exact check is expensive, such as an RPC or a
disk read.  Here the keys sit in the prober's memory: a probe batch is
sorted once and answered by one ``searchsorted``, which costs less than
building and probing filter bits.  The whole set lives in the driver's
memory; past that, stage 0 becomes an anti-join against the url_hash column
of the checkpoint's schedule parts (not implemented).
"""

from __future__ import annotations

import numpy as np


def _frozen(keys: np.ndarray) -> np.ndarray:
    keys.flags.writeable = False
    return keys


def _member(keys: np.ndarray, cand: np.ndarray) -> np.ndarray:
    """``cand`` in the sorted array ``keys``; sorted ``cand`` walks the keys
    in order."""
    if not len(keys):
        return np.zeros(len(cand), dtype=bool)
    ins = np.minimum(np.searchsorted(keys, cand), len(keys) - 1)
    return keys[ins] == cand


class SeenSet:
    """The driver's current seen value, ``keys``: sorted, unique, read-only.

    ``add_many``/``delete_many`` replace ``keys`` with a new array; a value
    handed out before (``ray.put`` for a distributed round) is unaffected.
    """

    def __init__(self):
        self.keys = _frozen(np.zeros(0, dtype=np.int64))

    def add_many(self, hashes: np.ndarray) -> None:
        """Barrier-time merge of a round's attempted hashes. Idempotent."""
        new = np.unique(np.asarray(hashes, dtype=np.int64))
        new = new[~_member(self.keys, new)]
        if new.size:
            self.keys = _frozen(np.insert(self.keys, np.searchsorted(self.keys, new), new))

    def delete_many(self, hashes: np.ndarray) -> None:
        """Recrawl invalidation. Unknown hashes are ignored."""
        keep = ~np.isin(self.keys, hashes)
        if not keep.all():
            self.keys = _frozen(self.keys[keep])

    def check_many(self, hashes: np.ndarray) -> np.ndarray:
        return check_many_via_handles(self.keys, hashes)

    def stats(self) -> list:
        return [{"n_exact": len(self.keys)}]


def check_many_via_handles(keys: np.ndarray, hashes: np.ndarray) -> np.ndarray:
    """Exact membership of each hash in the seen value ``keys``.

    Runs wherever the value is: the driver, or a stage-0 worker that fetched
    it.  The probes are sorted for one ``searchsorted`` and the mask is
    scattered back into input order.
    """
    hashes = np.asarray(hashes, dtype=np.int64)
    order = np.argsort(hashes)
    out = np.empty(len(hashes), dtype=bool)
    out[order] = _member(keys, hashes[order])
    return out
