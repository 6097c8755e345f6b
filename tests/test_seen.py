"""Seen-set tests: the per-round SeenSet value (SURVEY.md §2.7 D1, §7.4), and
crawls that match the oracle through it, recrawl invalidation included."""

import numpy as np
import pytest


@pytest.fixture()
def seen_set():
    from engine.seen import SeenSet

    return SeenSet()


def test_no_false_negatives_and_exactness(seen_set):
    rng = np.random.default_rng(7)
    added = rng.integers(0, 2**62, size=5000, dtype=np.int64)
    other = rng.integers(0, 2**62, size=5000, dtype=np.int64)
    other = np.setdiff1d(other, added)
    seen_set.add_many(added)
    assert seen_set.check_many(added).all()          # no false negatives
    assert not seen_set.check_many(other).any()      # exact


def test_add_idempotent(seen_set):
    h = np.arange(100, dtype=np.int64)
    seen_set.add_many(h)
    seen_set.add_many(h)  # retry-safe
    stats = seen_set.stats()
    assert sum(s["n_exact"] for s in stats) == 100


def test_empty_batch(seen_set):
    assert seen_set.check_many(np.zeros(0, dtype=np.int64)).shape == (0,)


def test_dump_roundtrip(seen_set):
    h = np.array([5, 17, 92], dtype=np.int64)
    seen_set.add_many(h)
    assert set(seen_set.keys.tolist()) == {5, 17, 92}


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
    assert np.array_equal(np.sort(seen_set.keys), keys)


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
    assert np.all(np.diff(seen_set.keys) > 0)  # sorted, unique
    assert not seen_set.keys.flags.writeable
    assert np.array_equal(seen_set.keys, added)


def test_bloom_false_positives_are_confirmed_away(seen_set):
    """No false positive at scale: 20k keys grown by barrier-sized merges,
    200k absent probes."""
    rng = np.random.default_rng(3)
    keys = np.unique(rng.integers(0, 2**62, size=20_000, dtype=np.int64))
    for i in range(0, len(keys), 1000):
        seen_set.add_many(keys[i : i + 1000])
    absent = np.setdiff1d(rng.integers(0, 2**62, size=200_000, dtype=np.int64), keys)
    assert seen_set.check_many(keys).all()
    assert not seen_set.check_many(absent).any()


def test_value_handed_out_is_unaffected_by_later_adds(seen_set):
    """A round's value (what ray.put ships to stage 0) never changes: the
    barrier builds a new one."""
    from engine.seen import check_many_via_handles

    before = seen_set.keys
    keys = np.arange(1, 50, dtype=np.int64)
    seen_set.add_many(keys)
    assert not check_many_via_handles(before, keys).any()
    assert check_many_via_handles(seen_set.keys, keys).all()
    for value in (before, seen_set.keys):
        assert np.all(np.diff(value) > 0) and not value.flags.writeable


def test_probe_mask_in_input_order(seen_set):
    """Probes are sorted for the lookup; the mask comes back in the order
    the batch arrived, repeats included."""
    rng = np.random.default_rng(9)
    keys = np.unique(rng.integers(0, 2**62, size=3000, dtype=np.int64))
    seen_set.add_many(keys[::2])
    probes = rng.choice(keys, size=10_000)  # every key repeats about 3 times
    rng.shuffle(probes)
    want = np.isin(probes, keys[::2])
    assert want.any() and not want.all()
    assert np.array_equal(seen_set.check_many(probes), want)


@pytest.mark.parametrize("enforce_delays", [False, True])
def test_crawl_starts_no_actors(small_corpus, tmp_path, ray_session, enforce_delays):
    """A crawl creates no Ray actor: the seen set is a value in the driver,
    not a set of shard actors, and politeness is a per-row offset in the
    fetch feed, not a set of rate-limiter actors.  The GCS actor table keeps
    dead actors, so actors started and killed inside the crawl still show
    up."""
    from ray._private import state

    from engine.crawl import crawl

    corpus_dir, _cfg = small_corpus
    budget = {"max_urls_total": 60, "max_per_host_per_round": 4, "max_depth": 3, "max_rounds": 3}
    # a first crawl starts whatever session-wide helpers Ray Data needs
    crawl(corpus_dir, str(tmp_path / "warm"), budget)
    before = set(state.actors())
    res = crawl(corpus_dir, str(tmp_path / "ckpt"), budget, enforce_delays=enforce_delays)
    assert res.rounds >= 2
    new = {k: v for k, v in state.actors().items() if k not in before}
    assert not new, [v.get("ActorClassName") for v in new.values()]


@pytest.mark.parametrize(
    "budget",
    [
        {"max_urls_total": 120, "max_per_host_per_round": 5, "max_depth": 4, "max_rounds": 5},
        {"max_urls_total": 250, "max_per_host_per_round": 6, "max_depth": 5, "max_rounds": 8},
    ],
    ids=["5rounds", "8rounds"],
)
def test_crawl_matches_oracle(small_corpus, tmp_path, ray_session, budget):
    """Crawl order, counters and seen set match the sequential oracle."""
    from engine.crawl import crawl
    from engine.oracle import crawl_oracle

    corpus_dir, _cfg = small_corpus
    oracle = crawl_oracle(corpus_dir, budget)
    engine = crawl(corpus_dir, str(tmp_path / "ckpt"), budget)
    assert engine.cumulative == oracle["cumulative"]
    got = engine.order_table().to_pylist()
    assert [(x["fetch_seq"], x["url"]) for x in got] == [
        (x["fetch_seq"], x["url"]) for x in oracle["order"]
    ]
    assert set(engine.seen_hashes().tolist()) == oracle["seen_hashes"]


def test_recrawl_invalidation_workflow(small_corpus, tmp_path, ray_session):
    """The recrawl-after-N-days workflow: invalidate a few fetched urls on
    resume, and they are fetched AGAIN with fresh fetch_seq while everything
    else stays seen."""
    from engine.crawl import crawl

    corpus_dir, _cfg = small_corpus
    ck = str(tmp_path / "ckpt_recrawl")
    # budget deliberately NOT exhausted by the first crawl (the lineage
    # check refuses budget changes on resume, by design)
    budget = {"max_urls_total": 400, "max_per_host_per_round": 6, "max_depth": 2, "max_rounds": 3}
    first = crawl(corpus_dir, ck, budget)
    order1 = first.order_table().to_pylist()
    fetched_urls = [r["url"] for r in order1]
    assert len(fetched_urls) >= 10
    targets = fetched_urls[:3]

    second = crawl(corpus_dir, ck, budget, invalidate_urls=targets)
    order2 = second.order_table().to_pylist()
    new_rows = [r for r in order2 if r["fetch_seq"] >= len(order1)]
    new_urls = {r["url"] for r in new_rows}
    assert set(targets) <= new_urls          # invalidated urls re-fetched
    # non-invalidated depth-0 urls (the seeds) stay seen: any new depth-0
    # fetch must be an invalidated url
    for r in new_rows:
        assert r["depth"] > 0 or r["url"] in targets
    # the first crawl's schedule is untouched (append-only history)
    assert [x["url"] for x in order2[: len(order1)]] == [x["url"] for x in order1]
