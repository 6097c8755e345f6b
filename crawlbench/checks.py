"""Output checks for one crawl, run outside the timed section.

The expected result of a workload comes from ``engine.oracle`` — the
sequential reference-semantics crawl — computed once per run after the
timed window.  Every crawl is checked on four things: cumulative counters, crawl order, seen set, and an
order-independent digest of the docs table's ``(url, status, markdown,
etag)`` rows; ``engine.checkpoint.validate_docs_output`` must pass too.

A workload that resumes from a base checkpoint (``prefetch``) is checked as
two oracle problems: round 0 over the prefetch list, then one round over the
timed frontier minus the rows already seen (those count as deduped — seen
rows are dropped before in-round dedup, and a fetched page is never robots-
blocked or filtered, so the split is exact).
"""

from __future__ import annotations

import hashlib
import json
import os
from glob import glob

import pyarrow.parquet as pq

from engine.canonicalize import url_hash64
from engine.checkpoint import COUNTER_KEYS, validate_docs_output
from engine.crawl import _etag
from engine.oracle import crawl_oracle_from_state, load_pages
from engine.politeness import RobotsRules

_MASK = (1 << 64) - 1


def _row_hash(url, status, markdown, etag) -> int:
    blob = json.dumps([url, status, markdown, etag]).encode()
    return int.from_bytes(hashlib.blake2b(blob, digest_size=8).digest(), "big")


def docs_digest(rows) -> str:
    """Multiset digest: the sum of per-row hashes, so row order is irrelevant."""
    total = 0
    for r in rows:
        total = (total + _row_hash(*r)) & _MASK
    return f"{total:016x}"


def docs_rows(docs_dir: str):
    cols = ("url", "status", "markdown", "etag")
    for f in sorted(glob(os.path.join(docs_dir, "round=*", "*.parquet"))):
        t = pq.read_table(f, columns=list(cols))
        yield from zip(*(t[c].to_pylist() for c in cols))


def _oracle_rows(res: dict, pages: dict):
    for o in res["order"]:
        if o["status"] == "hit":
            yield o["url"], "hit", res["docs"][o["url"]], _etag(pages[o["url"]])
        else:
            yield o["url"], "miss", None, None


def compute_expected(wl) -> dict:
    pages = load_pages(wl.corpus_dir)
    robots = RobotsRules.from_parquet(os.path.join(wl.corpus_dir, "robots.parquet"))
    budget = dict(wl.budget)
    cumulative = {k: 0 for k in COUNTER_KEYS}
    order, rows, seen, roff = [], [], set(), 0
    seeds = wl.seeds
    if wl.prefetch:
        base = crawl_oracle_from_state(pages, wl.prefetch, robots,
                                       dict(budget, max_rounds=1), wl.filters)
        cumulative = dict(base["cumulative"])
        order = [(o["fetch_seq"], o["round"], o["url"]) for o in base["order"]]
        rows = list(_oracle_rows(base, pages))
        seen = set(base["seen_hashes"])
        roff = base["rounds"]
        kept = [(u, p) for u, p in seeds if url_hash64(u) not in seen]
        cumulative["deduped"] += len(seeds) - len(kept)
        seeds = kept
        budget = dict(budget,
                      max_urls_total=budget["max_urls_total"] - cumulative["attempted"],
                      max_rounds=budget["max_rounds"] - base["rounds"])
    res = crawl_oracle_from_state(pages, seeds, robots, budget, wl.filters)
    off = cumulative["attempted"]
    order += [(o["fetch_seq"] + off, o["round"] + roff, o["url"]) for o in res["order"]]
    rows += list(_oracle_rows(res, pages))
    for k in COUNTER_KEYS:
        cumulative[k] = res["cumulative"][k] + (cumulative[k] if k != "deferred" else 0)
    seen |= res["seen_hashes"]
    return {
        "cumulative": cumulative,
        "order": order,
        "seen": sorted(seen),
        "digest": docs_digest(rows),
        "rounds": roff + res["rounds"],
    }


def check_crawl(res, expected: dict) -> list:
    """Problems found in one crawl's output; an empty list means correct."""
    problems = []
    if dict(res.cumulative) != expected["cumulative"]:
        problems.append(f"counters {res.cumulative} != {expected['cumulative']}")
    try:
        validate_docs_output(res.docs_dir)
    except (ValueError, OSError) as e:
        problems.append(f"docs validation: {e}")
    t = res.order_table()
    order = [list(x) for x in zip(t["fetch_seq"].to_pylist(), t["round"].to_pylist(),
                                  t["url"].to_pylist())]
    if order != [list(x) for x in expected["order"]]:
        problems.append("crawl order differs from the oracle")
    if sorted(int(h) for h in res.seen_hashes()) != expected["seen"]:
        problems.append("seen set differs from the oracle")
    try:
        digest = docs_digest(docs_rows(res.docs_dir))
    except (ValueError, OSError) as e:
        digest = f"unreadable: {e}"
    if digest != expected["digest"]:
        problems.append(f"docs digest {digest} != {expected['digest']}")
    return problems
