"""Crawl conformance with ``seen_backend="spill"`` (VERDICT r1 next-round #6):
the name is still accepted and the crawl matches the oracle."""

import numpy as np


def test_add_idempotent_under_retry():
    from engine.seen import SeenSet

    seen = SeenSet(1)
    keys = np.arange(1, 1001, dtype=np.int64)
    seen.add_many(keys)
    seen.add_many(keys)  # simulated task retry
    assert seen.check_many(keys).all()
    assert np.array_equal(np.sort(seen.dump_all()), keys)


def test_crawl_with_spill_backend_matches_oracle(small_corpus, tmp_path, ray_session):
    """The spill backend name is a drop-in for the crawl loop."""
    from engine.crawl import crawl
    from engine.oracle import crawl_oracle

    corpus_dir, _cfg = small_corpus
    budget = {"max_urls_total": 250, "max_per_host_per_round": 6, "max_depth": 5, "max_rounds": 8}
    oracle = crawl_oracle(corpus_dir, budget)
    engine = crawl(
        corpus_dir, str(tmp_path / "ckpt_spill"), budget, seen_backend="spill"
    )
    assert engine.cumulative == oracle["cumulative"]
    got = engine.order_table().to_pylist()
    assert [(x["fetch_seq"], x["url"]) for x in got] == [
        (x["fetch_seq"], x["url"]) for x in oracle["order"]
    ]
    assert set(engine.seen_hashes().tolist()) == oracle["seen_hashes"]
