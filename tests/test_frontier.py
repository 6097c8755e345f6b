"""Frontier ordering / dedup / salted-politeness exactness tests (SURVEY.md §7.5-7.6)."""

import numpy as np
import pandas as pd
import pytest

from engine.frontier import (
    N_SALT,
    child_discovery_seq,
    dedup_and_salt_topk,
    host_topk,
    frontier_row,
)


def _rand_frontier(n, n_hosts, n_urls, seed):
    rng = np.random.default_rng(seed)
    urls = [f"https://h{rng.integers(n_hosts)}.t/p{rng.integers(n_urls)}" for _ in range(n)]
    df = pd.DataFrame([frontier_row(u, 0, 0, 0) for u in urls])
    df["depth"] = rng.integers(0, 5, n)
    df["priority"] = rng.integers(0, 3, n)
    df["discovery_seq"] = rng.permutation(n).astype(np.int64)
    df["retry"] = rng.choice([0, 0, 0, 1], n).astype(np.int8)
    df["status"] = "cand"
    df["salt"] = (df["url_hash"] % N_SALT).astype(np.int32)
    return df


def _reference_selection(df, k):
    """Unsalted, unpartitioned dedup + per-host top-k (the oracle rule)."""
    out = set()
    for host, g in df.groupby("host"):
        g = g.sort_values(["depth", "priority", "discovery_seq"], kind="mergesort")
        g = g[~g["url_hash"].duplicated(keep="first")]
        out.update(g.head(k)["url"].tolist())
    return out


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("k", [1, 3, 8])
def test_salted_two_stage_equals_unsalted(seed, k):
    """stage1 groupby(host,salt) + stage2 groupby(host) == exact per-host top-k."""
    df = _rand_frontier(600, n_hosts=5, n_urls=80, seed=seed)
    stage1 = pd.concat(
        [dedup_and_salt_topk(g, k) for _, g in df.groupby("salt", sort=False)],
        ignore_index=True,
    )
    final = pd.concat(
        [host_topk(g, k) for _, g in stage1.groupby("host", sort=False)],
        ignore_index=True,
    )
    got = set(final[final["status"] == "cand"]["url"])
    assert got == _reference_selection(df, k)
    # every input row is accounted for exactly once
    assert len(final) == len(df)
    assert set(final["status"]) <= {"cand", "dup", "deferred"}

    # The engine's stage 2 runs the stage-1 group function over blocks of
    # whole hosts of stage-1 survivors: the same rows as host_topk per host.
    survivors = stage1[stage1["status"] == "cand"]
    hosts = sorted(survivors["host"].unique())
    rng = np.random.default_rng(seed)
    cuts = np.sort(rng.choice(np.arange(1, len(hosts)), 2, replace=False))
    cols = ["url_hash", "status", "retry"]

    def rows(frame):
        return sorted(map(tuple, frame[cols].itertuples(index=False)))

    for block_hosts in np.split(np.asarray(hosts), cuts):
        block = survivors[survivors["host"].isin(block_hosts)].sample(frac=1, random_state=seed)
        want = pd.concat(
            [host_topk(g, k) for _, g in block.groupby("host", sort=False)], ignore_index=True
        )
        assert rows(dedup_and_salt_topk(block, k)) == rows(want)


def test_dedup_winner_inherits_retry():
    df = _rand_frontier(1, 1, 1, 0).iloc[0:0]
    rows = [
        {**frontier_row("https://h0.t/a", 1, 0, 50), "retry": 1, "status": "cand", "salt": 0},
        {**frontier_row("https://h0.t/a", 0, 0, 10), "retry": 0, "status": "cand", "salt": 0},
    ]
    df = pd.DataFrame(rows)
    out = dedup_and_salt_topk(df, 8)
    winner = out[out["status"] == "cand"]
    assert len(winner) == 1
    assert winner.iloc[0]["discovery_seq"] == 10   # min order key wins
    assert winner.iloc[0]["retry"] == 1            # bypass survives dedup


def test_child_discovery_seq_unique_and_after_seeds():
    seqs = {child_discovery_seq(p, i) for p in range(50) for i in range(9)}
    assert len(seqs) == 50 * 9
    assert min(seqs) >= 1024  # seeds occupy [0, n_seeds); children start at STRIDE


def test_seeds_to_frontier_canonicalizes(small_corpus):
    import os

    from engine.frontier import seeds_to_frontier

    corpus_dir, _cfg = small_corpus
    t = seeds_to_frontier(os.path.join(corpus_dir, "seeds.parquet"))
    urls = t["url"].to_pylist()
    # the 5th seed is an uppercase+utm variant of the 1st: canonical forms equal
    assert urls[-1] == urls[0]
    assert all(u.startswith("https://h") for u in urls)
