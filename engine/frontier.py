"""Frontier schema, priority ordering, dedup + politeness slicing.

The frontier is the engine's analog of the reference's implicit DFS recursion
state (``SharePointClient.cs:243-337``): a Dataset of candidate URLs with the
ordering reified as explicit columns (SURVEY.md §1.3) —

    url, host, path, depth, priority, discovery_seq, retry, url_hash

``discovery_seq`` is assigned by a deterministic rule — seeds get their seed
index; a link gets ``(parent_fetch_seq + 1) * SEQ_STRIDE + link_index`` — so
the total crawl order never depends on task scheduling (SURVEY.md §7.6.6).

The per-round selection order (the analog of the reference's
files-before-folders listing order) is::

    (host, depth, priority, discovery_seq)

Skew handling (SURVEY.md §7.5-§7.6.4): dedup and politeness top-k per host
run as a two-stage tree over url-closed url_hash ranges —

    stage 1: one range of salts (salt = url_hash >> 59, the top 4 of its 63
             bits) -> exact in-round dedup (same url => same range) +
             per-host top-k within the range, in the range's task
    stage 2: the same function, in process on the driver, over the
             concatenation of the ranges' candidates (<= P*k distinct
             survivors per host, P <= N_SALT ranges) -> exact top-k

so stage 2 never holds more than ``N_SALT * k`` rows per host even for a hot
host with 10^8 candidate URLs, and the result is exactly the unpartitioned
per-host top-k.  A frontier small enough for one pass is one range (P = 1)
and needs no stage 2.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq

from .canonicalize import canonicalize, host_of, path_of, url_hash64

SEQ_STRIDE = 1024  # max links considered per page for discovery_seq uniqueness
N_SALT = 16  # range salts (url_hash >> 59), and the most ranges a round selects in

ORDER_COLS = ["host", "depth", "priority", "discovery_seq"]

FRONTIER_SCHEMA = pa.schema(
    [
        pa.field("url", pa.string()),
        pa.field("host", pa.string()),
        pa.field("path", pa.string()),
        pa.field("depth", pa.int32()),
        pa.field("priority", pa.int32()),
        pa.field("discovery_seq", pa.int64()),
        pa.field("retry", pa.int8()),
        pa.field("url_hash", pa.int64()),
    ]
)


def frontier_row(url: str, depth: int, priority: int, discovery_seq: int, retry: int = 0) -> dict:
    return {
        "url": url,
        "host": host_of(url),
        "path": path_of(url),
        "depth": depth,
        "priority": priority,
        "discovery_seq": discovery_seq,
        "retry": retry,
        "url_hash": url_hash64(url),
    }


def seeds_to_frontier(seeds_path: str) -> pa.Table:
    """Round-0 frontier from the seeds table (canonicalized; seed index = seq)."""
    t = pq.read_table(seeds_path)
    rows = []
    for i, (u, p) in enumerate(zip(t["url"].to_pylist(), t["priority"].to_pylist())):
        cu = canonicalize(u)
        if cu is None:
            continue
        rows.append(frontier_row(cu, 0, int(p), i))
    return pa.Table.from_pylist(rows, schema=FRONTIER_SCHEMA)


def child_discovery_seq(parent_fetch_seq: int, link_index: int) -> int:
    return (parent_fetch_seq + 1) * SEQ_STRIDE + min(link_index, SEQ_STRIDE - 1)


def dedup_and_salt_topk(df: pd.DataFrame, k: int) -> pd.DataFrame:
    """Vectorized in-round dedup + per-host top-k over one group.

    Valid for any group that is CLOSED under url (same url => same group):
    a whole host, one url_hash range (a run of salts, see ``add_salt``), or
    the whole frontier.  Output statuses: "dup" (in-round duplicate url;
    loser by order key), "deferred" (beyond per-host top-k *within this
    group*), "cand" (survivor).  The winner of a duplicate group inherits
    retry = max(retry) so a retry entry's seen-bypass survives dedup.
    Non-"cand" rows pass through untouched.

    One pandas pass — sort by (host, depth, priority, discovery_seq), global
    keep-first on url_hash (same url => same host => per-host min-key winner),
    per-host cumcount rank — no per-fine-group Python calls.
    """
    other = df[df["status"] != "cand"]
    cand = df[df["status"] == "cand"].sort_values(
        ["host", "depth", "priority", "discovery_seq"], kind="mergesort"
    )
    dup_mask = cand["url_hash"].duplicated(keep="first").to_numpy()
    retry_max = cand.groupby("url_hash", sort=False)["retry"].transform("max")
    dup = cand.iloc[dup_mask.nonzero()[0]].copy()
    dup["status"] = "dup"
    winners = cand.iloc[(~dup_mask).nonzero()[0]].copy()
    winners["retry"] = retry_max.iloc[(~dup_mask).nonzero()[0]].astype("int8")
    rank = winners.groupby("host", sort=False).cumcount()
    winners.loc[rank >= k, "status"] = "deferred"
    return pd.concat([winners, dup, other], ignore_index=True)


def host_topk(df: pd.DataFrame, k: int) -> pd.DataFrame:
    """Exact top-k over one host's range winners: a test reference for
    stage 2, which runs ``dedup_and_salt_topk`` over every host's winners in
    one call.  The name is kept for the benchmark tracer's ``TARGETS``."""
    cand = df[df["status"] == "cand"]
    other = df[df["status"] != "cand"]
    cand = cand.sort_values(["depth", "priority", "discovery_seq"], kind="mergesort")
    keep = cand.iloc[:k].copy()
    rest = cand.iloc[k:].copy()
    rest["status"] = "deferred"
    return pd.concat([keep, rest, other], ignore_index=True)


def add_salt(batch: pa.Table) -> pa.Table:
    """Append the range salt ``url_hash >> 59`` (int32): the top 4 of the
    hash's 63 bits, so salt s is the url_hash range [s << 59, (s+1) << 59),
    and P ranges of N_SALT/P consecutive salts each are url-closed.  The
    name is kept for the benchmark tracer's ``TARGETS``."""
    salt = pa.compute.cast(pa.compute.shift_right(batch["url_hash"], 59), pa.int32())
    return batch.append_column("salt", salt)


def global_order_indices(table: pa.Table) -> np.ndarray:
    """Row indices of `table` in the defined total order (host, depth, priority, seq)."""
    return np.asarray(
        pa.compute.sort_indices(
            table,
            sort_keys=[(c, "ascending") for c in ORDER_COLS],
        )
    )
