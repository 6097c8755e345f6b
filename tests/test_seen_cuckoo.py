"""Crawl cases for the deletable seen set (SURVEY.md §2.7 D1): the cuckoo
backend name is still accepted, and recrawl invalidation deletes from the
seen value.  The other unit tests of the set live in test_seen.py."""

import numpy as np


def test_no_false_negatives_and_exact():
    from engine.seen import SeenSet

    seen = SeenSet(2)
    rng = np.random.default_rng(11)
    added = rng.integers(1, 2**62, size=4000, dtype=np.int64)
    other = np.setdiff1d(rng.integers(1, 2**62, size=4000, dtype=np.int64), added)
    seen.add_many(added)
    assert seen.check_many(added).all()
    assert not seen.check_many(other).any()


def test_crawl_with_cuckoo_backend_matches_oracle(small_corpus, tmp_path, ray_session):
    """The deletable backend is a drop-in: same crawl results as bloom."""
    from engine.crawl import crawl
    from engine.oracle import crawl_oracle

    corpus_dir, _cfg = small_corpus
    budget = {"max_urls_total": 120, "max_per_host_per_round": 5, "max_depth": 4, "max_rounds": 5}
    oracle = crawl_oracle(corpus_dir, budget)
    engine = crawl(
        corpus_dir, str(tmp_path / "ckpt"), budget, seen_backend="cuckoo"
    )
    assert engine.cumulative == oracle["cumulative"]
    got = engine.order_table().to_pylist()
    assert [(x["fetch_seq"], x["url"]) for x in got] == [
        (x["fetch_seq"], x["url"]) for x in oracle["order"]
    ]


def test_recrawl_invalidation_workflow(small_corpus, tmp_path, ray_session):
    """The recrawl-after-N-days workflow: crawl with the cuckoo backend,
    invalidate a few fetched urls on resume, and they are fetched AGAIN with
    fresh fetch_seq while everything else stays seen."""
    from engine.crawl import crawl

    corpus_dir, _cfg = small_corpus
    ck = str(tmp_path / "ckpt_recrawl")
    # budget deliberately NOT exhausted by the first crawl (the lineage
    # check refuses budget changes on resume, by design)
    budget = {"max_urls_total": 400, "max_per_host_per_round": 6, "max_depth": 2, "max_rounds": 3}
    first = crawl(corpus_dir, ck, budget, seen_backend="cuckoo")
    order1 = first.order_table().to_pylist()
    fetched_urls = [r["url"] for r in order1]
    assert len(fetched_urls) >= 10
    targets = fetched_urls[:3]

    second = crawl(
        corpus_dir, ck, budget, seen_backend="cuckoo", invalidate_urls=targets
    )
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
