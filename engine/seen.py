"""Sharded URL-seen set as a per-round value (SURVEY.md §2.7 D1, §7.4).

The reference never revisits a URL because a folder *tree* has no cycles
(structural guarantee, ``SharePointClient.cs:325-336``).  A web link graph has
cycles, so the engine makes the seen set explicit: ``N`` shards, shard ``s``
owning the hash range ``{h : h % N == s}``.

Each shard is an immutable ``SeenShard`` value holding

- a **Bloom bitmap** (4 probe positions derived from the 63-bit URL hash,
  sized to at least 16 bits per key) — the prefilter: a negative Bloom
  answer needs no exact lookup;
- a **sorted int64 array** of the member hashes — the exact confirmation
  (Bloom false positives would wrongly drop URLs and break crawl-order /
  seen-set conformance), probed with ``np.searchsorted``.

Round protocol (SURVEY.md §7.6.2): the set changes only at the round barrier,
so it is a value per round, not a service.  During round R selection only
reads the shards frozen at the end of round R-1: in process on the driver
path, or as one ``ray.put`` object per round that distributed stage-0
workers fetch once and cache.  At the barrier the driver builds the next
value from the round's attempted hashes, read back from the checkpoint (the
seen set's source of truth, also on resume): an add is a sorted merge, a
recrawl invalidation a set difference with the Bloom bits rebuilt.  Adds are
idempotent.  The whole set lives in the driver's memory; past that, stage 0
becomes an anti-join against the url_hash column of the checkpoint's
per-round schedule parts (not implemented).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_N_PROBES = 4  # Bloom probes per key


def _bloom_probes(hashes: np.ndarray, n_bytes: int) -> tuple:
    """(byte index, bit mask) of each hash's ``_N_PROBES`` probes into an
    ``n_bytes`` bitmap, derived from disjoint hash bits (double hashing)."""
    h = hashes.astype(np.uint64)
    h1 = h & np.uint64(0xFFFFFFFF)
    h2 = (h >> np.uint64(32)) | np.uint64(1)
    ks = np.arange(_N_PROBES, dtype=np.uint64)
    pos = (h1[:, None] + ks[None, :] * h2[:, None]) % np.uint64(n_bytes * 8)
    return (pos >> np.uint64(3)).astype(np.int64), (np.uint64(1) << (pos & np.uint64(7))).astype(np.uint8)


def _bloom_bytes(n_keys: int) -> int:
    """Bitmap size for ``n_keys``: a power of two with at least 16 bits per
    key (about 0.24% false positives at 4 probes), at least 64 bytes."""
    return 1 << max(6, (2 * n_keys - 1).bit_length())


def _set_bits(bloom: np.ndarray, hashes: np.ndarray) -> None:
    byte, bit = _bloom_probes(hashes, len(bloom))
    np.bitwise_or.at(bloom, byte.ravel(), bit.ravel())


def _member(keys: np.ndarray, cand: np.ndarray) -> np.ndarray:
    """``cand`` in the sorted array ``keys``, vectorized."""
    if not len(keys):
        return np.zeros(len(cand), dtype=bool)
    ins = np.searchsorted(keys, cand)
    return (ins < len(keys)) & (keys[np.minimum(ins, len(keys) - 1)] == cand)


@dataclass(frozen=True, eq=False)
class SeenShard:
    """One hash-range shard: Bloom bits + sorted exact keys, never mutated."""

    bloom: np.ndarray  # uint8 bitmap
    keys: np.ndarray   # sorted, unique int64 hashes

    @classmethod
    def build(cls, keys: np.ndarray) -> "SeenShard":
        """The shard holding exactly ``keys`` (sorted, unique)."""
        bloom = np.zeros(_bloom_bytes(len(keys)), dtype=np.uint8)
        _set_bits(bloom, keys)
        return cls(bloom, keys)

    def __post_init__(self):
        self.bloom.flags.writeable = False
        self.keys.flags.writeable = False

    def contains(self, hashes: np.ndarray) -> tuple:
        """(exact membership mask, number of Bloom-positive probes)."""
        byte, bit = _bloom_probes(hashes, len(self.bloom))
        out = np.zeros(len(hashes), dtype=bool)
        hit_idx = np.flatnonzero(((self.bloom[byte] & bit) != 0).all(axis=1))
        if hit_idx.size:
            out[hit_idx] = _member(self.keys, hashes[hit_idx])
        return out, int(hit_idx.size)

    def merged(self, hashes: np.ndarray) -> "SeenShard":
        """This shard plus ``hashes``: a sorted merge of the new keys.  The
        Bloom bits gain the new keys, or are rebuilt when the bitmap has to
        grow (at most log2(n) times, so O(1) amortized per key)."""
        new = np.unique(hashes)
        new = new[~_member(self.keys, new)]
        if not new.size:
            return self
        keys = np.insert(self.keys, np.searchsorted(self.keys, new), new)
        if _bloom_bytes(len(keys)) != len(self.bloom):
            return SeenShard.build(keys)
        bloom = self.bloom.copy()
        _set_bits(bloom, new)
        return SeenShard(bloom, keys)

    def without(self, hashes: np.ndarray) -> "SeenShard":
        """This shard minus ``hashes``: a set difference.  Bloom bits cannot
        be cleared (they are shared between keys), so they are rebuilt."""
        keep = ~np.isin(self.keys, hashes)
        if keep.all():
            return self
        return SeenShard.build(self.keys[keep])


class SeenSet:
    """The driver's current seen value (``shards``) and its probe counts.

    ``add_many``/``delete_many`` replace ``shards`` with new values; a value
    handed out before (``ray.put`` for a distributed round) is unaffected.
    """

    def __init__(self, n_shards: int):
        empty = np.zeros(0, dtype=np.int64)
        self.shards = tuple(SeenShard.build(empty) for _ in range(n_shards))
        # driver-path probes only: distributed stage-0 workers probe copies
        self._false_positives = np.zeros(n_shards, dtype=np.int64)

    def _replace(self, hashes: np.ndarray, op) -> None:
        hashes = np.asarray(hashes, dtype=np.int64)
        sid = hashes % len(self.shards)
        self.shards = tuple(
            op(sh, hashes[sid == s]) if (sid == s).any() else sh
            for s, sh in enumerate(self.shards)
        )

    def add_many(self, hashes: np.ndarray) -> None:
        """Barrier-time merge of a round's attempted hashes. Idempotent."""
        self._replace(hashes, SeenShard.merged)

    def delete_many(self, hashes: np.ndarray) -> None:
        """Recrawl invalidation. Unknown hashes are ignored."""
        self._replace(hashes, SeenShard.without)

    def check_many(self, hashes: np.ndarray) -> np.ndarray:
        return check_many_via_handles(self.shards, hashes, self._false_positives)

    def stats(self) -> list:
        return [
            {
                "shard_id": s,
                "n_exact": len(sh.keys),
                "bloom_fill": float(np.unpackbits(sh.bloom).mean()),
                "bloom_false_positives": int(self._false_positives[s]),
            }
            for s, sh in enumerate(self.shards)
        ]

    def dump_all(self) -> np.ndarray:
        return np.concatenate([sh.keys for sh in self.shards])


def check_many_via_handles(shards, hashes: np.ndarray, false_positives=None) -> np.ndarray:
    """Exact membership of each hash in the seen value ``shards``.

    Runs wherever the value is: the driver, or a stage-0 worker that fetched
    it.  Partitions the batch by ``hash % len(shards)`` and reassembles the
    mask in input order.  ``false_positives`` (one counter per shard) gathers
    Bloom-positive probes the exact keys rejected.
    """
    hashes = np.asarray(hashes, dtype=np.int64)
    out = np.zeros(len(hashes), dtype=bool)
    sid = hashes % len(shards)
    for s, shard in enumerate(shards):
        idx = np.flatnonzero(sid == s)
        if idx.size:
            out[idx], n_bloom = shard.contains(hashes[idx])
            if false_positives is not None:
                false_positives[s] += n_bloom - int(out[idx].sum())
    return out
