"""Robots matching + token-bucket rate limiter tests (SURVEY.md §2.1/§4.2)."""

import numpy as np
import pytest

from engine.politeness import RobotsRules, TokenBucket


def test_robots_prefix_match():
    r = RobotsRules({"a.test": ["/d3", "/d4"], "b.test": ["/"], "c.test": []})
    assert r.blocked("a.test", "/d3/p1.html")
    assert r.blocked("a.test", "/d4/x")
    assert not r.blocked("a.test", "/d2/p1.html")
    assert r.blocked("b.test", "/anything")
    assert not r.blocked("c.test", "/d3/p1.html")
    assert not r.blocked("unknown.test", "/d3/p1.html")


def test_robots_batch():
    r = RobotsRules({"a.test": ["/d3"]})
    out = r.blocked_many(["a.test", "a.test", "b.test"], ["/d3/x", "/d1/x", "/d3/x"])
    assert out.tolist() == [True, False, False]


def test_robots_from_parquet(small_corpus):
    import os

    corpus_dir, cfg = small_corpus
    r = RobotsRules.from_parquet(os.path.join(corpus_dir, "robots.parquet"))
    assert r.blocked("h13.example.test", "/d0/p1.html")   # full disallow
    assert r.blocked("h7.example.test", "/d3/p1.html")    # d3+ prefixes
    assert not r.blocked("h7.example.test", "/d2/p1.html")
    assert not r.blocked("h0.example.test", "/d3/p1.html")


def test_token_bucket_deterministic():
    tb = TokenBucket(delay_ms=100, burst=1)
    assert tb.try_acquire(0.0)
    assert not tb.try_acquire(0.05)   # only 50ms elapsed
    assert tb.try_acquire(0.101)      # refilled
    assert not tb.try_acquire(0.102)


def test_token_bucket_zero_delay():
    tb = TokenBucket(delay_ms=0)
    assert all(tb.try_acquire(t) for t in np.linspace(0, 1, 50))


def test_token_bucket_reserve():
    tb = TokenBucket(delay_ms=100, burst=1)
    assert tb.reserve(1, 0.0) == 0.0            # first request free (burst)
    assert tb.reserve(2, 0.0) == pytest.approx(0.2)  # two more: 200ms debt
    assert tb.reserve(1, 0.25) == pytest.approx(0.05)  # debt partially repaid


def test_rate_limited_crawl_slower_but_identical(small_corpus, tmp_path):
    """enforce_delays=True: same results, wall clock respects crawl_delay_ms."""
    import time

    from engine.crawl import crawl

    corpus_dir, _cfg = small_corpus
    budget = {"max_urls_total": 40, "max_per_host_per_round": 8, "max_depth": 3, "max_rounds": 3}
    fast = crawl(corpus_dir, str(tmp_path / "fast"), budget)
    t0 = time.time()
    slow = crawl(corpus_dir, str(tmp_path / "slow"), budget, enforce_delays=True)
    elapsed = time.time() - t0
    assert slow.cumulative == fast.cumulative
    a = [(r["fetch_seq"], r["url"]) for r in fast.order_table().to_pylist()]
    b = [(r["fetch_seq"], r["url"]) for r in slow.order_table().to_pylist()]
    assert a == b
    # the corpus assigns every host >=100ms crawl delay; with ~8 fetches on
    # the busiest host the enforced run must have slept a noticeable amount
    assert elapsed > 0.5


def test_politeness_offset_is_a_token_bucket_wait(tmp_path):
    """The schedule's per-row politeness offset: host h's j-th scheduled row
    (0-based, crawl order) waits what a fresh TokenBucket gives its (j+1)-th
    request plus one interval.  No delay gives no offset, and the offset
    rides in the fetch feed only, not in the schedule part."""
    import os
    import random
    from glob import glob

    import pyarrow as pa
    import pyarrow.parquet as pq

    from engine.crawl import _finalize_block
    from engine.frontier import FRONTIER_SCHEMA, frontier_row

    rng = random.Random(3)
    hosts = ["a.test", "b.test", "c.test", "d.test"]
    rows = [
        frontier_row(f"https://{h}/p{j}.html", rng.randrange(3), rng.randrange(2), 10 * i + j)
        for i, h in enumerate(hosts)
        for j in range(6)
    ]
    rng.shuffle(rows)
    tbl = pa.Table.from_pylist(rows, schema=FRONTIER_SCHEMA)
    tbl = tbl.append_column("status", pa.array(["cand"] * len(rows), pa.string()))
    sel_n = len(rows) - 3  # the budget cut: offsets count scheduled rows only
    for name, delays in (("delays", {"a.test": 100, "b.test": 250, "c.test": 0}), ("none", {})):
        deferred, selected = (str(tmp_path / name / d) for d in ("deferred", "selected"))
        os.makedirs(deferred)
        os.makedirs(selected)
        feed = _finalize_block(tbl, sel_n, 100, 0, 4, delays, deferred, selected)
        feed = feed.sort_by("fetch_seq").to_pylist()
        assert len(feed) == sel_n
        j: dict = {}
        for row in feed:
            j[row["host"]] = j.get(row["host"], -1) + 1
            d = delays.get(row["host"], 0)
            want = TokenBucket(d).reserve(j[row["host"]] + 1, 0.0) + d / 1000
            assert row["wait_s"] == pytest.approx(want), row
            if not d:
                assert row["wait_s"] == 0.0
        assert max(j.values()) >= 4
        (part,) = glob(os.path.join(selected, "*.parquet"))
        assert "wait_s" not in pq.read_schema(part).names


def test_fetch_step_spaces_one_hosts_rows_by_their_offsets(tmp_path, monkeypatch):
    """Two rows of one host in one pages bucket, with offsets d and 2d, are
    fetched as two groups at least d apart, not together at the larger
    offset (in process, no Ray)."""
    import os
    import time

    import pyarrow as pa

    import engine.crawl as crawl_mod
    from engine.frontier import FRONTIER_SCHEMA, frontier_row

    calls = []
    real = crawl_mod.fetch_bucket_group

    def spy(group, pages_dir):
        calls.append((time.time(), group["url"].to_pylist()))
        return real(group, pages_dir)

    monkeypatch.setattr(crawl_mod, "fetch_bucket_group", spy)
    d = 0.2
    urls = ["https://h.example.test/b.html", "https://h.example.test/a.html"]
    feed = pa.Table.from_pylist([frontier_row(u, 0, 0, i) for i, u in enumerate(urls)],
                                schema=FRONTIER_SCHEMA)
    feed = (
        feed.append_column("fetch_seq", pa.array([3, 4], pa.int64()))
        .append_column("round", pa.array([0, 0], pa.int32()))
        .append_column("wait_s", pa.array([2 * d, d], pa.float64()))
        .append_column("bucket", pa.array([0, 0], pa.int32()))
    )
    dirs = [str(tmp_path / x) for x in ("docs", "children")]
    for x in dirs:
        os.makedirs(x)
    fetch_start = time.time()
    # no pages directory at all: both urls miss
    misses = crawl_mod._fetch_extract_feed(feed, str(tmp_path / "pages"), 3, True, *dirs,
                                           fetch_start=fetch_start, block_bytes=1 << 27)
    assert sorted(misses["url"].to_pylist()) == sorted(urls)
    assert [u for _, u in calls] == [[urls[1]], [urls[0]]]
    (t1, _), (t2, _) = calls
    assert t1 >= fetch_start + d
    assert t2 - t1 >= d
