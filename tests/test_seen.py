"""Seen-set tests: the per-round SeenSet value (SURVEY.md §2.7 D1, §7.4)."""

import numpy as np
import pytest


@pytest.fixture()
def seen_set():
    from engine.seen import SeenSet

    return SeenSet(3)


def test_no_false_negatives_and_exactness(seen_set):
    rng = np.random.default_rng(7)
    added = rng.integers(0, 2**62, size=5000, dtype=np.int64)
    other = rng.integers(0, 2**62, size=5000, dtype=np.int64)
    other = np.setdiff1d(other, added)
    seen_set.add_many(added)
    assert seen_set.check_many(added).all()          # no false negatives
    assert not seen_set.check_many(other).any()      # exact (bloom FPs confirmed away)


def test_add_idempotent(seen_set):
    h = np.arange(100, dtype=np.int64)
    seen_set.add_many(h)
    seen_set.add_many(h)  # retry-safe
    stats = seen_set.stats()
    assert sum(s["n_exact"] for s in stats) == 100


def test_empty_batch(seen_set):
    assert seen_set.check_many(np.zeros(0, dtype=np.int64)).shape == (0,)


def test_sharding_partitions_by_hash(seen_set):
    h = np.arange(300, dtype=np.int64)
    seen_set.add_many(h)
    stats = seen_set.stats()
    assert len(stats) == 3
    assert all(s["n_exact"] == 100 for s in stats)


def test_dump_roundtrip(seen_set):
    h = np.array([5, 17, 92], dtype=np.int64)
    seen_set.add_many(h)
    assert set(seen_set.dump_all().tolist()) == {5, 17, 92}


def test_delete_then_readd(seen_set):
    keys = np.arange(1, 501, dtype=np.int64)
    seen_set.add_many(keys)
    seen_set.delete_many(keys[:100])
    chk = seen_set.check_many(keys)
    assert not chk[:100].any()      # deleted keys gone (recrawl invalidation)
    assert chk[100:].all()          # survivors intact
    assert sum(s["n_exact"] for s in seen_set.stats()) == 400
    seen_set.add_many(keys[:100])   # re-add after invalidation
    assert seen_set.check_many(keys).all()
    assert np.array_equal(np.sort(seen_set.dump_all()), keys)


def test_add_idempotent_under_retry_then_delete(seen_set):
    keys = np.arange(1, 101, dtype=np.int64)
    seen_set.add_many(keys)
    seen_set.add_many(keys)  # simulated task retry
    assert sum(s["n_exact"] for s in seen_set.stats()) == 100
    seen_set.delete_many(np.concatenate([keys, [10**12]]))  # unknown key ignored
    assert not seen_set.check_many(keys).any()
    assert sum(s["n_exact"] for s in seen_set.stats()) == 0


def test_exact_across_many_merges(seen_set):
    """Adds arriving in many barrier-sized batches stay exact and sorted."""
    rng = np.random.default_rng(5)
    added = np.unique(rng.integers(1, 2**62, size=6000, dtype=np.int64))
    other = np.setdiff1d(rng.integers(1, 2**62, size=6000, dtype=np.int64), added)
    for i in range(0, len(added), 700):
        seen_set.add_many(added[i : i + 700])
    assert seen_set.check_many(added).all()
    assert not seen_set.check_many(other).any()
    for sh in seen_set.shards:
        assert np.all(np.diff(sh.keys) > 0)  # sorted, unique
    assert np.array_equal(np.sort(seen_set.dump_all()), added)


def test_bloom_false_positives_are_confirmed_away(seen_set):
    """Bloom false positives cost an exact lookup, never a wrong answer; the
    bitmap grows with the keys, so the false-positive rate stays low."""
    rng = np.random.default_rng(3)
    keys = np.unique(rng.integers(0, 2**62, size=20_000, dtype=np.int64))
    for i in range(0, len(keys), 1000):  # barrier-sized merges grow the bitmap
        seen_set.add_many(keys[i : i + 1000])
    absent = np.setdiff1d(rng.integers(0, 2**62, size=200_000, dtype=np.int64), keys)
    assert seen_set.check_many(keys).all()
    assert not seen_set.check_many(absent).any()
    stats = seen_set.stats()
    fp = sum(st["bloom_false_positives"] for st in stats)
    assert 0 < fp < 0.01 * len(absent)
    for sh in seen_set.shards:
        assert len(sh.bloom) * 8 >= 16 * len(sh.keys)


def test_value_handed_out_is_unaffected_by_later_adds(seen_set):
    """A round's value (what ray.put ships to stage 0) never changes: the
    barrier builds a new one."""
    from engine.seen import check_many_via_handles

    before = seen_set.shards
    keys = np.arange(1, 50, dtype=np.int64)
    seen_set.add_many(keys)
    assert not check_many_via_handles(before, keys).any()
    assert check_many_via_handles(seen_set.shards, keys).all()
    assert not before[0].keys.flags.writeable and not before[0].bloom.flags.writeable


def test_crawl_starts_no_actors(small_corpus, tmp_path, ray_session):
    """With enforce_delays=False a crawl creates no Ray actor: the seen set
    is a value in the driver, not a set of shard actors.  The GCS actor
    table keeps dead actors, so actors started and killed inside the crawl
    still show up."""
    from ray._private import state

    from engine.crawl import crawl

    corpus_dir, _cfg = small_corpus
    budget = {"max_urls_total": 60, "max_per_host_per_round": 4, "max_depth": 3, "max_rounds": 3}
    # a first crawl starts whatever session-wide helpers Ray Data needs
    crawl(corpus_dir, str(tmp_path / "warm"), budget)
    before = set(state.actors())
    res = crawl(corpus_dir, str(tmp_path / "ckpt"), budget)
    assert res.rounds >= 2
    new = {k: v for k, v in state.actors().items() if k not in before}
    assert not new, [v.get("ActorClassName") for v in new.values()]
