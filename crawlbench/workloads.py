"""The benchmark's workloads, each a pure function of ``(name, seed, size)``.

A workload is a corpus (``engine.synth``, generated under the run's own
directory in a subdirectory named by ``CorpusConfig.cache_key()``), a crawl
budget and URL filter, and the first frontier of the timed crawl:

- ``steady_html``: every page url, plus 20% duplicate entries and 2% dead
  urls, over Common-Crawl-weight HTML pages (``content_scale=8``),
  ``max_depth=1``.  One fetch-heavy round; selection stays on the driver.
- ``bfs_pdf``: a BFS from a seed list (the first 12 pages of each of the
  corpus' 8 hosts) over FlateDecode PDF pages, with a budget of 6 urls per
  host per round and a fixed round count: a dozen rounds of ~48 pages, so
  the cost is round orchestration, checkpoint commits and PDF content-stream
  parsing.
  ``max_depth`` is high enough that the crawl ends on the round cap, not
  because the frontier ran dry.
- ``dup_frontier``: a frontier of 250k rows, a quarter above
  ``SMALL_FRONTIER_ROWS``, in which every url appears ~250 times, including
  robots-blocked hosts and pages fetched in an earlier round, with a small
  fetch budget.  The timed crawl resumes from a round-0 checkpoint built
  in set-up, so the distributed selection reads a populated seen set.

Every workload plants a fixed number of dead urls, and every crawl denies
the corpus' own dead links (``/d9/``), so the fetch misses per crawl are a
designed constant rather than a draw from the link graph.
"""

from __future__ import annotations

import os
import shutil
from dataclasses import dataclass

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from engine.canonicalize import host_of, path_of, url_hash64
from engine.frontier import FRONTIER_SCHEMA
from engine.synth import CorpusConfig, generate_corpus

from crawlbench import WORKLOADS

# synth writes every dead link under /d9/ (pages live under /d0../d6/)
DENY_DEAD_LINKS = {"deny_url_regex": ["/d9/"]}
DEAD_HOST = "dead.example.test"
# bfs_pdf's per-round host budget.  Rounds of 48 pages over 8 hosts, rather
# than 8 pages over 4, put PDF parsing beside the per-round orchestration,
# and in an interleaved five-seed comparison on a shared 4-vCPU VM halved
# the run-to-run spread of round_p50_s (0.32 to 0.16).
BFS_HOST_BUDGET = 6
# bfs_pdf starts from this many pages per host, twice the per-round host
# budget, so every round can fill its budget: with the corpus' one seed
# page per host, rounds on a host whose seed page has few links go short,
# and the urls per crawl varied by a third between seeds.
BFS_SEEDS_PER_HOST = 2 * BFS_HOST_BUDGET

# Sizes: "full" is what the benchmark runs; "tiny" keeps the benchmark's own
# tests fast (its dup_frontier stays below SMALL_FRONTIER_ROWS, so it takes
# the driver selection path).
SIZES = {
    "full": {"steady_pages": 300, "bfs_pages": 1500, "bfs_rounds": 12,
             "dup_pages": 1000, "dup_rows": 250_000, "dup_fetch": 60},
    "tiny": {"steady_pages": 60, "bfs_pages": 120, "bfs_rounds": 4,
             "dup_pages": 120, "dup_rows": 2_400, "dup_fetch": 12},
}


@dataclass
class Workload:
    name: str
    seed: int
    corpus_dir: str
    budget: dict
    filters: dict
    seeds: list          # [(canonical url, priority)]: the timed crawl's first frontier
    prefetch: list       # [(url, priority)] crawled in round 0 before the timed crawl
    base_dir: str | None = None  # round-0 checkpoint the timed crawl resumes


def _corpus(root: str, cfg: CorpusConfig) -> str:
    """Generate the corpus cold: whatever an earlier set-up left is removed."""
    out = os.path.join(root, cfg.cache_key())
    shutil.rmtree(out, ignore_errors=True)
    return generate_corpus(out, cfg, use_ray=False)


def _page_urls(corpus_dir: str) -> list:
    from glob import glob

    urls = []
    for f in sorted(glob(os.path.join(corpus_dir, "pages", "bucket=*", "*.parquet"))):
        urls.extend(pq.read_table(f, columns=["url"])["url"].to_pylist())
    return sorted(urls)


def _first_pages_per_host(urls: list, k: int) -> list:
    """The first ``k`` of ``urls`` (sorted) on each host, hosts in name order."""
    per_host: dict = {}
    for u in urls:
        per_host.setdefault(host_of(u), []).append(u)
    return [u for h in sorted(per_host) for u in per_host[h][:k]]


def _dead(n: int, host: str) -> list:
    return [f"https://{host}/gone/x{j}.html" for j in range(n)]


def build(name: str, seed: int, work_dir: str, size: str = "full") -> Workload:
    """Generate the corpus under ``work_dir`` and derive the workload's inputs."""
    sz = SIZES[size]
    corpus_root = os.path.join(work_dir, "corpus")
    if name == "steady_html":
        cfg = CorpusConfig(n_pages=sz["steady_pages"], n_hosts=20, seed=seed,
                           n_buckets=8, with_golden=False, content_scale=8)
        corpus = _corpus(corpus_root, cfg)
        urls = _page_urls(corpus)
        n = len(urls)
        seeds = [(u, 0) for u in urls + urls[::5] + _dead(max(1, n // 50), "h0.example.test")]
        budget = {"max_urls_total": len(seeds) + 10_000,
                  "max_per_host_per_round": len(seeds),
                  "max_depth": 1, "max_rounds": 2}
        return Workload(name, seed, corpus, budget, DENY_DEAD_LINKS, seeds, [])
    if name == "bfs_pdf":
        cfg = CorpusConfig(n_pages=sz["bfs_pages"], n_hosts=8, seed=seed,
                           n_buckets=8, with_golden=False, encoding="pdf_flate")
        corpus = _corpus(corpus_root, cfg)
        seeds = [(u, 0) for u in _first_pages_per_host(_page_urls(corpus), BFS_SEEDS_PER_HOST)]
        seeds += [(u, 0) for u in _dead(4, DEAD_HOST)]
        budget = {"max_urls_total": 10_000, "max_per_host_per_round": BFS_HOST_BUDGET,
                  "max_depth": 50, "max_rounds": sz["bfs_rounds"]}
        return Workload(name, seed, corpus, budget, DENY_DEAD_LINKS, seeds, [])
    if name == "dup_frontier":
        k = 4
        cfg = CorpusConfig(n_pages=sz["dup_pages"], n_hosts=20, seed=seed,
                           n_buckets=8, with_golden=False)
        corpus = _corpus(corpus_root, cfg)
        urls = _page_urls(corpus)
        prefetch = [(u, 0) for u in _first_pages_per_host(urls, k)]
        unique = urls + _dead(2 * k, DEAD_HOST)
        reps = -(-sz["dup_rows"] // len(unique))
        order = np.random.default_rng(seed).permutation(len(unique) * reps) % len(unique)
        seeds = [(unique[i], 0) for i in order]
        budget = {"max_urls_total": len(prefetch) + sz["dup_fetch"],
                  "max_per_host_per_round": k, "max_depth": 1, "max_rounds": 2}
        wl = Workload(name, seed, corpus, budget, DENY_DEAD_LINKS, seeds, prefetch)
        wl.base_dir = os.path.join(work_dir, "base")
        return wl
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")


def frontier_table(seeds: list) -> pa.Table:
    """FRONTIER_SCHEMA rows for ``seeds``: depth 0, discovery_seq = position.

    Host, path and hash are computed once per distinct url, so a frontier
    that repeats a url hundreds of times costs what its distinct urls cost.
    """
    urls = [u for u, _ in seeds]
    distinct = {}
    for u in urls:
        if u not in distinct:
            distinct[u] = (host_of(u), path_of(u), url_hash64(u))
    n = len(urls)
    return pa.table(
        {
            "url": pa.array(urls, pa.string()),
            "host": pa.array([distinct[u][0] for u in urls], pa.string()),
            "path": pa.array([distinct[u][1] for u in urls], pa.string()),
            "depth": pa.array(np.zeros(n, np.int32), pa.int32()),
            "priority": pa.array([p for _, p in seeds], pa.int32()),
            "discovery_seq": pa.array(np.arange(n, dtype=np.int64), pa.int64()),
            "retry": pa.array(np.zeros(n, np.int8), pa.int8()),
            "url_hash": pa.array([distinct[u][2] for u in urls], pa.int64()),
        },
        schema=FRONTIER_SCHEMA,
    )


def build_base(wl: Workload, frontier: pa.Table) -> None:
    """Build the round-0 checkpoint a resuming workload starts from.

    Round 0 crawls ``wl.prefetch`` (so those pages are in the seen set);
    its next frontier is then replaced by ``frontier`` — the checkpoint's
    own handoff format — so the timed crawl's first round selects over it.
    """
    from engine.crawl import crawl

    shutil.rmtree(wl.base_dir, ignore_errors=True)
    crawl(wl.corpus_dir, wl.base_dir, wl.budget, resume=False,
          initial_frontier=frontier_table(wl.prefetch), filters=wl.filters,
          stop_after_round=0)
    r0 = os.path.join(wl.base_dir, "round=0")
    for sub in ("frontier_children", "frontier_deferred"):
        shutil.rmtree(os.path.join(r0, sub), ignore_errors=True)
    pq.write_table(frontier, os.path.join(r0, "frontier_next.parquet"))


def fresh_checkpoint(wl: Workload, path: str) -> str:
    """An empty checkpoint dir, or a copy of the workload's base checkpoint."""
    shutil.rmtree(path, ignore_errors=True)
    if wl.base_dir:
        shutil.copytree(wl.base_dir, path)
    return path


def run_crawl(wl: Workload, ckpt: str, frontier: pa.Table, max_rounds: int | None = None):
    """The one timed call: the public crawl API on the workload's inputs.

    ``max_rounds`` caps the budget's round count (for the warm-up crawl).
    """
    from engine.crawl import crawl

    budget = dict(wl.budget)
    if max_rounds is not None:
        budget["max_rounds"] = min(budget["max_rounds"], max_rounds)
    if wl.base_dir:
        return crawl(wl.corpus_dir, ckpt, budget, resume=True, filters=wl.filters)
    return crawl(wl.corpus_dir, ckpt, budget, resume=False,
                 initial_frontier=frontier, filters=wl.filters)
