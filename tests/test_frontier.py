"""Frontier ordering / dedup / salted-politeness exactness tests (SURVEY.md §7.5-7.6),
and the url_hash ranges the selection runs over."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from engine.frontier import (
    FRONTIER_SCHEMA,
    N_SALT,
    add_salt,
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


@pytest.mark.parametrize("p", [2, 4, 16])
@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("k", [1, 3, 8])
def test_range_salted_two_stage_equals_unsalted(seed, k, p):
    """Stage 1 over P url_hash ranges (runs of N_SALT/P range salts,
    url_hash >> 59) + stage 2 as the engine runs it (one call of the same
    group function over all the ranges' candidates) == exact per-host
    top-k, with every input row accounted for exactly once."""
    df = _rand_frontier(600, n_hosts=5, n_urls=80, seed=seed)
    df["salt"] = add_salt(pa.Table.from_pandas(df[["url_hash"]]))["salt"].to_numpy()
    assert (df["salt"].to_numpy() == df["url_hash"].to_numpy() >> 59).all()
    stage1 = pd.concat(
        [dedup_and_salt_topk(g, k) for _, g in df.groupby(df["salt"] // (N_SALT // p))],
        ignore_index=True,
    )
    # at most P*k candidates per host reach stage 2
    assert stage1[stage1["status"] == "cand"].groupby("host").size().max() <= p * k
    final = pd.concat(
        [stage1[stage1["status"] != "cand"],
         dedup_and_salt_topk(stage1[stage1["status"] == "cand"], k)],
        ignore_index=True,
    )
    assert set(final[final["status"] == "cand"]["url"]) == _reference_selection(df, k)
    assert len(final) == len(df)
    assert set(final["status"]) <= {"cand", "dup", "deferred"}


def test_range_salt_of_the_edge_hashes():
    t = pa.table({"url_hash": pa.array([0, 2**59 - 1, 2**59, 2**62, 2**63 - 1], pa.int64())})
    assert add_salt(t)["salt"].to_pylist() == [0, 0, 1, 8, N_SALT - 1]
    assert add_salt(t)["salt"].type == pa.int32()


def test_range_reads_partition_the_frontier(tmp_path):
    """The P ranges of a frontier (several part files plus ``extra``, with
    the edge hashes 0, 2**59-1, 2**59, 2**62 and 2**63-1) hold each row
    exactly once, each row inside its range's bounds, and each range's seen
    keys are exactly the seen keys inside those bounds.  The last range is
    open above: 2**63 never reaches an int64 filter."""
    from engine.crawl import _read_range, _split_ranges

    rng = np.random.default_rng(12)
    edges = [0, 2**59 - 1, 2**59, 2**62, 2**63 - 1]

    def table(n, first):
        hashes = np.r_[edges, rng.integers(0, 2**63 - 1, n - len(edges), dtype=np.int64)]
        rows = [frontier_row(f"https://h{i % 5}.t/p{first + i}", 0, 0, first + i) for i in range(n)]
        t = pa.Table.from_pylist(rows, schema=FRONTIER_SCHEMA)
        return t.set_column(7, FRONTIER_SCHEMA.field("url_hash"), pa.array(hashes, pa.int64()))

    files = []
    for i, n in enumerate([40, 6, 25]):
        files.append(str(tmp_path / f"part_{i}.parquet"))
        pq.write_table(table(n, 100 * i), files[-1], row_group_size=16)
    pq.write_table(FRONTIER_SCHEMA.empty_table(), str(tmp_path / "empty.parquet"))
    files.append(str(tmp_path / "empty.parquet"))
    extra = table(30, 1000)
    every = pa.concat_tables([pq.read_table(f) for f in files] + [extra])
    keys = np.unique(np.r_[edges, every["url_hash"].to_numpy()[::3],
                           rng.integers(0, 2**63 - 1, 50, dtype=np.int64)])
    for p in (1, 2, 4, 16):
        ranges = _split_ranges(extra, keys, p)
        assert len(ranges) == p and ranges[0][0] == 0 and ranges[-1][1] is None
        got = []
        for lo, hi, extra_rows, seen in ranges:
            rows = _read_range(files, lo, hi, extra_rows)
            assert rows.schema == FRONTIER_SCHEMA
            h = rows["url_hash"].to_numpy()
            assert (h >= lo).all() and (hi is None or (h < hi).all()), (p, lo)
            inside = keys >= lo if hi is None else (keys >= lo) & (keys < hi)
            assert np.array_equal(seen, keys[inside]), (p, lo)
            got += rows.to_pylist()
        key = lambda r: (r["discovery_seq"], r["url_hash"])  # noqa: E731
        assert sorted(got, key=key) == sorted(every.to_pylist(), key=key), p


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
