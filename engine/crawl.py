"""The BSP crawl loop: iterative frontier expansion on Ray Data.

The Ray-Data-native re-expression of the reference's sequential recursive
traversal (``SharePointClient.cs:201-342``, SURVEY.md §3.1): instead of one
async chain with one request in flight, each *round* runs four steps, and
each step hands the driver loop one small record:

    frontier handle (_LazyFrontier): the previous round's checkpoint parts
      plus driver-small ``extra`` rows (seeds, an initial frontier, recrawl
      invalidations); narrow columns only —
      (url, host, path, depth, priority, discovery_seq, retry, url_hash)
      -> select: robots + allow/deny gate, seen probe (retry bypass), in-round
         dedup and per-host top-k by ONE group function (dedup_and_salt_topk);
         then ONE close per disposition block (_close_block) writes its
         politeness-deferred rows to round=R/frontier_deferred/ and returns
         its status counts.  It returns the counts and the unsorted candidate
         blocks.  The plan is picked from runtime sizes here and nowhere else:
         frontier <= SMALL_FRONTIER_ROWS: one vectorized driver pass over the
           handle read into a table (zero dataset executions); one block;
         larger: STAGED so decided rows never enter an all-to-all (at steady
           state already-seen rows ARE the frontier), in two exchanges:
           stage 0  map_batches(robots_seen_batch) straight off the parts
                    [broadcast rules + the round's seen value, one ray.put
                    each, cached per worker]
           stage 1  survivors -> add_salt -> groupby(salt).map_groups(
                    dedup_and_salt_topk)  [url-closed groups: exact]
           stage 2  stage-1 cands -> sort(host) -> dedup_and_salt_topk per
                    block [whole hosts of distinct urls, bounded by N_SALT*k
                    per host]; its blocks are the candidate blocks
           close    one map_batches(_close_block) over all three stages,
                    the fourth and last execution.
      -> schedule: the only place the crawl order is applied.  Blocks are
         ranked by their candidates' ORDER_COLS key range (overlaps raise),
         rank offsets by prefix sum; then ONE finalize per block
         (_finalize_block; in process for a driver block, a Ray task
         otherwise): sort, fetch_seq, budget cut (overflow ->
         frontier_deferred/overflow_*), schedule part -> round=R/selected/,
         and the fetch feed as bucket-pure tables, each row carrying its
         politeness offset ``wait_s``.  The driver groups the feeds by
         pages bucket across blocks, in ascending bucket id.
      -> fetch_extract: ONE plain Ray task per free fetch slot, so
         min(buckets fetched, slots) per round, slots = the cluster's CPUs
         // _FETCH_CPUS (allocation-heavy Python — see BENCH/BASELINE.md);
         task i takes every n-th bucket from the i-th.  A task
         (_fetch_extract_feed) walks its rows in ascending ``wait_s``
         groups, each after its offset from the round's fetch start, and
         within a group runs fetch_bucket_group (an Arrow left join against
         pages/bucket=K/) once per bucket; the fetched rows are buffered up
         to Ray Data's target block size, and each full buffer is one
         extract_batch_fn (the feed's columns pass through; one row loop
         extracts) and one explode, appended as a row group to the task's
         ONE docs/round=R part and ONE children part in
         round=R/frontier_children/; the task returns its miss rows.  The
         driver collects them and writes the docs manifest, also for a round
         that fetches nothing.
      -> commit: counters, errors and retries (frontier_next.parquet, from
         the miss rows), the checkpoint barrier (``write_round``), then the
         round's seen delta — the url_hash column of its schedule parts —
         merged into the seen value.  Returns the next frontier handle.

Crawl-order semantics: the fetch schedule of round R is the candidates that
survive robots/dedup/seen/politeness, in the total order
``(host, depth, priority, discovery_seq)``, truncated to the remaining global
budget; ``fetch_seq`` numbers attempts consecutively across rounds.  A fetch
miss (URL absent from the pages table — the 404 analog) is retried exactly
once in the next round, then counted ``failed`` (the reference retries never:
``SharePointClient.cs:283-293``; the engine's single retry exercises the
north-rule's ``retried`` counter).

Scale notes: past the size threshold the driver holds neither the frontier
nor the schedule — only status counts, one count and key range per
candidate block and the fetch misses; no html/text ever enters the frontier.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import tempfile
import time
from dataclasses import dataclass, field
from glob import glob
from typing import NamedTuple

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

import ray
import ray.data as rd

from .canonicalize import canonicalize, host_of, path_of, url_hash64
from .checkpoint import (
    COUNTER_KEYS,
    CheckpointManager,
    read_seen_delta,
    seen_hashes_through,
    selected_files,
    validate_docs_output,
    write_docs_manifest,
)
from .extract import extract_document, page_layout
from .frontier import (
    FRONTIER_SCHEMA,
    ORDER_COLS,
    frontier_row,
    SEQ_STRIDE,
    add_salt,
    dedup_and_salt_topk,
    global_order_indices,
    seeds_to_frontier,
)
from .politeness import RobotsRules, UrlGate
from .seen import SeenSet, check_many_via_handles
from .synth import default_budget

# Up to this many frontier rows a round selects and finalizes on the driver
# (one vectorized pass); above it, the staged distributed selection with the
# salted two-stage tree (skew-bounded) and one finalize task per block.
SMALL_FRONTIER_ROWS = 200_000

DOCS_SCHEMA = pa.schema(
    [
        pa.field("url", pa.string()),
        pa.field("fetch_seq", pa.int64()),
        pa.field("round", pa.int32()),
        pa.field("depth", pa.int32()),
        pa.field("priority", pa.int32()),
        pa.field("retry", pa.int8()),
        pa.field("status", pa.string()),  # hit | miss
        pa.field("markdown", pa.string()),
        pa.field("title", pa.string()),
        pa.field("header_doc", pa.string()),
        # The open metadata map (M3, ``DocumentInfo.Metadata``,
        # ``SharePointClient.cs:358-370``): every parsed header field rides
        # here string-typed; title/header_doc stay promoted as hot columns.
        pa.field("metadata", pa.map_(pa.string(), pa.string())),
        pa.field("links", pa.list_(pa.struct([
            pa.field("url", pa.string()),
            pa.field("host", pa.string()),
            pa.field("path", pa.string()),
            pa.field("url_hash", pa.int64()),
        ]))),
        # Change-detection columns (the reference carries etag +
        # last_modified on every wire payload, ``DocumentPayload.cs:10-25``,
        # metadata map ``SharePointClient.cs:358-370``): etag = content
        # hash of the fetched bytes, last_modified = the page's warc_ts.
        # ``detect_changed_urls`` anti-joins these against the current
        # corpus to derive a recrawl invalidation set.
        pa.field("url_hash", pa.int64()),
        pa.field("etag", pa.string()),
        pa.field("last_modified", pa.timestamp("us")),
    ]
)


def _etag(html: bytes) -> str:
    # sha256 for speed, not security: hardware SHA-NI makes it ~2.7x blake2b
    # on this class of machine, and the etag only needs to be a
    # deterministic content fingerprint (the reference's is an opaque
    # server-provided string)
    return hashlib.sha256(html).hexdigest()[:16]


# Disposition schema for the distributed selection stages: FRONTIER columns
# + status + salt.  The group fns return Arrow tables cast to THIS schema so
# every block hashes identically (pandas-metadata schemas are unhashable and
# flood Ray's schema-dedup log).
_DISP_SCHEMA = pa.schema(
    list(FRONTIER_SCHEMA)
    + [pa.field("status", pa.string()), pa.field("salt", pa.int32())]
)


def _disp_arrow(df: pd.DataFrame) -> pa.Table:
    # from_pandas attaches pandas metadata even with schema=: strip it
    return pa.Table.from_pandas(
        df, schema=_DISP_SCHEMA, preserve_index=False
    ).replace_schema_metadata(None)


# Worker-global cache for broadcast objects: worker processes persist across
# rounds and crawls, so each ``ray.put`` value is fetched once per worker
# (keyed by its ObjectRef), not once per batch.  Only the current entry of
# each kind ("rules", "seen") is kept, so a long-lived worker's memory stays
# bounded however many crawls and rounds it serves.
_WORKER_CACHE: dict = {}


def _cached(kind: str, ref, build=lambda v: v):
    key = ref.hex()
    hit = _WORKER_CACHE.get(kind)
    if hit is None or hit[0] != key:
        hit = _WORKER_CACHE[kind] = (key, build(ray.get(ref)))
    return hit[1]


def _gate_status(t: pa.Table, robots: RobotsRules, gate: UrlGate, seen: np.ndarray) -> np.ndarray:
    """Each frontier row's disposition before dedup, given its seen mask.
    Precedence: robots > filtered > seen > cand (mirrored by the oracle);
    rows with retry=1 bypass the seen check (they were added when first
    attempted)."""
    blocked = robots.blocked_many(t["host"], t["path"])
    filt = gate.filtered_many(t["url"], t["path"])
    retry = t["retry"].to_numpy()
    return np.where(
        blocked,
        "robots",
        np.where(filt, "filtered", np.where(seen & (retry == 0), "seen", "cand")),
    )


def robots_seen_batch(batch: pa.Table, robots_ref, seen_ref, gate: UrlGate) -> pa.Table:
    """Vectorized robots + allow/deny gate + seen-set anti-join (no shuffle).

    The broadcast-small-side pattern of the reference's allow-list semi-join
    (``SharePointClient.cs:272-275``): the rules and the round's seen value
    arrive once per worker via ``ray.get`` on ``ray.put`` handles; the gate
    travels in the task closure; the seen probe is local.
    """
    rules = _cached("rules", robots_ref, RobotsRules)
    seen = check_many_via_handles(_cached("seen", seen_ref), batch["url_hash"].to_numpy())
    status = _gate_status(batch, rules, gate, seen)
    return batch.append_column("status", pa.array(status, pa.string()))


def fetch_bucket_group(group: pa.Table, pages_dir: str) -> pa.Table:
    """Per-bucket fetch: partitioned hash join frontier x pages on url.

    The analog of ``FetchFileInfoAsync`` + ``$value`` download
    (``SharePointClient.cs:353-403``): the in-sandbox "fetch" is a lookup into
    the bucket's parquet file — reading only (url, html) columns of only the
    buckets this round's frontier touches.  Pure-Arrow left join: the 25KB
    html payloads never round-trip through pandas object arrays.
    """
    b = int(group["bucket"][0].as_py())
    files = sorted(glob(os.path.join(pages_dir, f"bucket={b}", "*.parquet")))
    urls = group["url"].to_pylist()
    tables = [
        pq.read_table(
            f, columns=["url", "html", "warc_ts"], filters=[("url", "in", urls)]
        )
        for f in files
    ]
    pages = (
        pa.concat_tables(tables)
        if tables
        else pa.table({"url": pa.array([], pa.string()),
                       "html": pa.array([], pa.binary()),
                       "warc_ts": pa.array([], pa.timestamp("us"))})
    )
    return group.join(pages, keys="url", join_type="left outer")


def extract_batch_fn(batch: pa.Table, max_depth: int, with_markdown: bool = True) -> pa.Table:
    """One fetched feed -> its docs table (pure; safe under retries).

    The feed's columns pass through, cast to their ``DOCS_SCHEMA`` types:
    ``status`` is whether ``html`` is null, ``last_modified`` is ``warc_ts``.
    One loop over (url, html, depth) computes the per-document values.  A
    miss row and a ``with_markdown=False`` row (the pre-count mode, SURVEY.md
    §2.1 S3, ``CountDocumentsAsync``) get no markdown; a miss has no links."""
    html_col = batch["html"]
    markdown, title, header_doc, metadata, links_col, etags = [], [], [], [], [], []
    for url, html, depth in zip(
        batch["url"].to_pylist(), html_col.to_pylist(), batch["depth"].to_pylist()
    ):
        d, meta, hrefs = {}, [], ()
        if html is not None and with_markdown:
            d = extract_document(html, url)
            hrefs = d["hrefs"]
            # open metadata map: all parsed header fields, string-typed,
            # only present keys (the GetValueOrDefault consumer reads
            # missing keys as null — M15)
            meta = [
                (k, d[f"header_{k}"])
                for k in ("doc", "eff", "rev", "org", "appr", "src")
                if d.get(f"header_{k}") is not None
            ]
        elif html is not None:
            _pages, hrefs = page_layout(html)
        links = []
        if depth < max_depth:
            for href in hrefs:
                # Spec: at most SEQ_STRIDE canonicalized links per page feed
                # the frontier — keeps discovery_seq unique per (parent, link)
                # so the total order has no scheduling-dependent ties (the
                # oracle truncates identically).
                if len(links) >= SEQ_STRIDE:
                    break
                cu = canonicalize(href, base=url)
                if cu is None:
                    continue
                links.append(
                    {
                        "url": cu,
                        "host": host_of(cu),
                        "path": path_of(cu),
                        "url_hash": url_hash64(cu),
                    }
                )
        markdown.append(d.get("markdown"))
        title.append(d.get("title"))
        header_doc.append(d.get("header_doc"))
        metadata.append(meta)
        links_col.append(links)
        etags.append(None if html is None else _etag(html))
    cols = {name: batch[name] for name in
            ("url", "fetch_seq", "round", "depth", "priority", "retry", "url_hash")}
    cols.update(status=pc.if_else(pc.is_null(html_col), "miss", "hit"),
                last_modified=batch["warc_ts"], markdown=markdown, title=title,
                header_doc=header_doc, metadata=metadata, links=links_col, etag=etags)
    return pa.table(cols, schema=DOCS_SCHEMA)  # casts each column to its field's type


def explode_links_batch(t: pa.Table) -> pa.Table:
    """Vectorized (Arrow list kernels) link -> child-candidate explode.

    Runs on each feed's docs inside ``_fetch_extract_feed``; miss rows and
    depth-capped rows carry empty link lists, so no filter.
    """
    links_col = t["links"].combine_chunks()
    flat = pc.list_flatten(links_col)
    parent = pc.list_parent_indices(links_col).to_numpy()
    if not len(parent):
        return FRONTIER_SCHEMA.empty_table()
    offsets = np.asarray(links_col.offsets)
    j_idx = np.arange(len(parent), dtype=np.int64) - offsets[parent]
    fseq_np = t["fetch_seq"].to_numpy()[parent]
    seq = (fseq_np + 1) * SEQ_STRIDE + np.minimum(j_idx, SEQ_STRIDE - 1)
    return pa.table(
        {
            "url": flat.field("url"),
            "host": flat.field("host"),
            "path": flat.field("path"),
            "depth": pa.array(t["depth"].to_numpy()[parent] + 1, pa.int32()),
            "priority": pa.array(t["priority"].to_numpy()[parent], pa.int32()),
            "discovery_seq": pa.array(seq, pa.int64()),
            "retry": pa.array(np.zeros(len(parent), np.int8), pa.int8()),
            "url_hash": flat.field("url_hash"),
        }
    )


def _select_on_driver(
    frontier: pa.Table, robots: RobotsRules, gate: UrlGate, seen: SeenSet, k: int
) -> pa.Table:
    """Driver-side selection for budget-bounded small rounds: the distributed
    branch's semantics — gate, in-process seen probe, in-round dedup (min
    order key wins, winner inherits max retry), per-host top-k — in one
    vectorized pandas pass."""
    df = frontier.to_pandas()
    seen_mask = seen.check_many(df["url_hash"].to_numpy())
    df["status"] = _gate_status(frontier, robots, gate, seen_mask)
    out = dedup_and_salt_topk(df, k)  # whole frontier is url-closed
    return pa.Table.from_pandas(out, preserve_index=False).replace_schema_metadata(None)


def _only(status: str):
    return lambda t: t.filter(pc.equal(t["status"], status))


def _cast_frontier_batch(t: pa.Table) -> pa.Table:
    return (
        t.select(FRONTIER_SCHEMA.names)
        .cast(FRONTIER_SCHEMA)
        .replace_schema_metadata(None)
    )


def _close_block(t: pa.Table, deferred_dir: str) -> pa.Table:
    """The selection's close for ONE disposition block: write its
    politeness-deferred rows as one part of the round's next frontier, named
    by their smallest url_hash, and return its status counts as (status, n)
    rows.  Deferred rows are dedup winners, so their url_hashes are distinct
    across the round: part names are unique, and a re-run close overwrites
    its own part."""
    deferred = _only("deferred")(t)
    if deferred.num_rows:
        name = f"deferred_{pc.min(deferred['url_hash']).as_py():019d}.parquet"
        pq.write_table(_cast_frontier_batch(deferred), os.path.join(deferred_dir, name))
    vc = pc.value_counts(t["status"])
    return pa.table({"status": vc.field("values"), "n": pc.cast(vc.field("counts"), pa.int64())})


def _sum_counts(counts: pa.Table) -> dict:
    """status -> rows from the (status, n) rows of one or more closes."""
    summed = counts.group_by("status").aggregate([("n", "sum")])
    return dict(zip(summed["status"].to_pylist(), summed["n_sum"].to_pylist()))


def _fresh_dir(path: str) -> str:
    """An empty directory at ``path``.  Crash-rerun safety: a round without
    ``_SUCCESS`` is re-run on resume, and the parts of the earlier attempt
    must not survive into it."""
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


def _cand_span(tbl: pa.Table) -> tuple:
    """(candidate rows, first ORDER_COLS key, last key) of one candidate
    block; the keys are None for a block without candidates."""
    cand = _only("cand")(tbl).select(ORDER_COLS)
    if not cand.num_rows:
        return 0, None, None

    def end(order: str) -> tuple:
        i = pc.select_k_unstable(cand, 1, [(col, order) for col in ORDER_COLS])
        return tuple(cand.take(i).to_pylist()[0].values())

    return cand.num_rows, end("ascending"), end("descending")


_cand_span_remote = ray.remote(_cand_span)


def _finalize_block(
    tbl: pa.Table,
    rank0: int,
    sel_n: int,
    seq_offset: int,
    rnd: int,
    n_buckets: int,
    delays_ms: dict,
    deferred_dir: str,
    selected_dir: str,
    part_id: int,
):
    """The schedule finalize for ONE candidate block.

    Keeps the block's ``cand`` rows and puts them in the crawl order.  The
    zip-with-index idiom: ``rank0`` is the block's global rank offset,
    computed from per-block candidate counts only, so ``fetch_seq`` =
    ``seq_offset + rank0 + arange`` numbers the round contiguously however
    the candidates were split.  The first ``sel_n`` rows are the block's
    share of the budget; the rest spill to the round's deferred parts.  The
    schedule part lands in ``round=R/selected/`` (its url_hash column is the
    round's seen delta).  The fetch feed follows as bucket-pure tables, so
    each ``fetch_bucket_group`` call reads one pages bucket file; the first
    value yielded is their bucket ids, the small value the driver groups
    them by.

    Politeness is a value in the feed (not in the schedule part): the j-th
    scheduled row of host h (0-based, in the crawl order) gets ``wait_s =
    (j+1) * delays_ms[h] / 1000``, a fresh ``TokenBucket``'s wait plus one
    interval.  A block holds whole hosts, so j is the host's rank in the
    round.  The driver path runs this in process; the distributed path as
    ``_finalize_remote``.
    """
    cand = _only("cand")(tbl)
    cand = cand.take(global_order_indices(cand))
    sel = cand.slice(0, sel_n)
    over = cand.slice(sel_n)
    if over.num_rows:
        pq.write_table(
            _cast_frontier_batch(over),
            os.path.join(deferred_dir, f"overflow_{part_id}.parquet"),
        )
    n = sel.num_rows
    if n == 0:
        yield []
        return
    sel = (
        _cast_frontier_batch(sel)
        .append_column(
            "fetch_seq", pa.array(seq_offset + rank0 + np.arange(n), pa.int64())
        )
        .append_column("round", pa.array(np.full(n, rnd, np.int32), pa.int32()))
    )
    pq.write_table(sel, os.path.join(selected_dir, f"part_{part_id:05d}.parquet"))
    hosts = sel["host"].to_numpy(zero_copy_only=False)
    starts = np.flatnonzero(np.r_[True, hosts[1:] != hosts[:-1]])
    run = np.repeat(np.arange(len(starts)), np.diff(np.r_[starts, n]))
    delay_ms = np.array([delays_ms.get(h, 0) for h in hosts[starts]], np.float64)
    wait_s = (np.arange(n) - starts[run] + 1) * delay_ms[run] / 1000.0
    buckets = (sel["url_hash"].to_numpy() % n_buckets).astype(np.int32)
    feed = sel.append_column("wait_s", pa.array(wait_s, pa.float64())).append_column(
        "bucket", pa.array(buckets, pa.int32())
    )
    ids = np.unique(buckets).tolist()
    yield ids
    for b in ids:
        yield feed.filter(pc.equal(feed["bucket"], b))


_finalize_remote = ray.remote(num_returns="dynamic")(_finalize_block)


class _LazyFrontier:
    """A round's frontier: the checkpoint's part files plus ``extra`` rows.

    The files are round ``r``'s next frontier in checkpoint ``cm`` (none for
    a fresh crawl); ``extra`` carries driver-small rows that are not on disk
    — seeds, an ``initial_frontier``, recrawl invalidations.  Only parquet
    footers are read here.  Selection reads the handle into a table when it
    is small (``to_table``) and otherwise streams it (``to_dataset``), so
    past ``SMALL_FRONTIER_ROWS`` the frontier never touches the driver
    (VERDICT r3 "what's wrong" #2 — at 10^10 urls the frontier IS the data).
    """

    def __init__(self, cm=None, r: int = -1, extra: pa.Table | None = None):
        self.cm, self.r = cm, r
        self.files = cm.frontier_files(r) if cm is not None else []
        self._n_file_rows = cm.frontier_next_rows(r) if cm is not None else 0
        self.extra = FRONTIER_SCHEMA.empty_table()
        if extra is not None:
            self.append(extra)

    @property
    def num_rows(self) -> int:
        return self._n_file_rows + self.extra.num_rows

    def append(self, t: pa.Table) -> None:
        self.extra = pa.concat_tables([self.extra, _cast_frontier_batch(t)])

    def max_discovery_seq(self) -> int:
        """Max discovery_seq over the files and ``extra`` (the recrawl seq
        baseline), from the files' parquet footer statistics: the frontier
        rows are never read.  A row group without min/max holds no value
        (it is empty or all null; every part is written with statistics)."""
        seqs = [pc.max(self.extra["discovery_seq"]).as_py()] if self.extra.num_rows else []
        for f in self.files:
            md = pq.ParquetFile(f).metadata
            col = md.schema.names.index("discovery_seq")
            for i in range(md.num_row_groups):
                st = md.row_group(i).column(col).statistics
                if st is not None and st.has_min_max:
                    seqs.append(st.max)
        return int(max(seqs))

    def to_table(self) -> pa.Table:
        if not self._n_file_rows:
            return self.extra
        files = _cast_frontier_batch(self.cm.read_frontier_next(self.r))
        return pa.concat_tables([files, self.extra]) if self.extra.num_rows else files

    def to_dataset(self):
        """The frontier as a lazy dataset; the caller ensures rows exist
        (``rd.read_parquet([])`` raises)."""
        parts = []
        if self._n_file_rows:
            parts.append(
                rd.read_parquet(self.files).map_batches(
                    _cast_frontier_batch, batch_format="pyarrow", zero_copy_batch=True
                )
            )
        if self.extra.num_rows:
            step = 65536  # one block per slice: stage 0 runs as parallel tasks
            parts.append(rd.from_arrow(
                [self.extra.slice(i, step) for i in range(0, self.extra.num_rows, step)]
            ))
        return parts[0].union(*parts[1:]) if len(parts) > 1 else parts[0]


def _frontier_handle(cm, r: int) -> _LazyFrontier:
    """Round r+1's frontier: a handle on round r's checkpoint parts."""
    return _LazyFrontier(cm, r)


_CHG_SCHEMA = pa.schema(
    [
        ("url", pa.string()),
        ("url_hash", pa.int64()),
        ("etag", pa.string()),
        ("fetch_seq", pa.int64()),
        ("side", pa.int8()),
        ("bucket", pa.int32()),
    ]
)


_DELTA_BUCKETS = 64  # url_hash buckets of the change-detection shuffle


def detect_corpus_delta(corpus_dir: str, ckpt_dir: str) -> tuple:
    """Etag corpus delta -> (changed_urls, deleted_urls): urls whose CURRENT
    page bytes differ from the etag stored at crawl time, and urls crawled
    before that no longer exist in the corpus (the removed-document half of
    incremental re-ingest).

    The reference carries ``etag`` + ``last_modified`` on every wire payload
    (``DocumentPayload.cs:10-25``, metadata map ``SharePointClient.cs:358-370``)
    precisely so a weekly re-ingest can skip unchanged documents; this is the
    engine's distributed analog.  Both sides — the checkpoint's docs table
    (url, etag as fetched) and the live corpus (url, etag now) — stream
    through ONE url_hash-bucket shuffle; each bucket group compares the
    latest stored etag per url against the current one vectorized.  Only the
    changed set (the recrawl delta, driver-small by the workflow's nature)
    is ever collected.
    """
    docs_dir = os.path.join(ckpt_dir, "docs")

    def stored_rows(t: pa.Table) -> pa.Table:
        t = t.filter(pc.equal(t["status"], "hit"))
        uh = t["url_hash"].to_numpy()
        return pa.table(
            {
                "url": t["url"],
                "url_hash": t["url_hash"],
                "etag": t["etag"],
                "fetch_seq": t["fetch_seq"],
                "side": pa.array(np.ones(t.num_rows, np.int8), pa.int8()),
                "bucket": pa.array((uh % _DELTA_BUCKETS).astype(np.int32), pa.int32()),
            },
            schema=_CHG_SCHEMA,
        )

    def cur_rows(t: pa.Table) -> pa.Table:
        urls = t["url"].to_pylist()
        hashes = np.fromiter((url_hash64(u) for u in urls), np.int64, len(urls))
        etags = [_etag(h) for h in t["html"].to_pylist()]
        return pa.table(
            {
                "url": pa.array(urls, pa.string()),
                "url_hash": pa.array(hashes, pa.int64()),
                "etag": pa.array(etags, pa.string()),
                "fetch_seq": pa.array(np.zeros(len(urls), np.int64), pa.int64()),
                "side": pa.array(np.zeros(len(urls), np.int8), pa.int8()),
                "bucket": pa.array((hashes % _DELTA_BUCKETS).astype(np.int32), pa.int32()),
            },
            schema=_CHG_SCHEMA,
        )

    def delta_group(g) -> pa.Table:
        cur = g[g["side"] == 0]
        st = (
            g[g["side"] == 1]
            .sort_values("fetch_seq")
            .groupby("url", as_index=False)
            .last()  # a url re-fetched across rounds: the LATEST etag counts
        )
        m = st.merge(cur[["url", "etag"]], on="url", how="left",
                     suffixes=("_old", "_new"))
        gone = m["etag_new"].isna()
        ch = m[~gone & (m["etag_old"] != m["etag_new"])]["url"].tolist()
        dl = m[gone]["url"].tolist()
        return pa.table(
            {"url": pa.array(ch + dl, pa.string()),
             "kind": pa.array(["changed"] * len(ch) + ["deleted"] * len(dl),
                              pa.string())}
        )

    both = (
        rd.read_parquet(docs_dir, columns=["url", "url_hash", "etag", "status", "fetch_seq"])
        .map_batches(stored_rows, batch_format="pyarrow")
        .union(
            rd.read_parquet(os.path.join(corpus_dir, "pages"), columns=["url", "html"])
            .map_batches(cur_rows, batch_format="pyarrow")
        )
    )
    delta = (
        both.groupby("bucket")
        .map_groups(delta_group, batch_format="pandas")
        .to_pandas()
    )
    if not len(delta):
        return [], []
    return (sorted(delta[delta["kind"] == "changed"]["url"].tolist()),
            sorted(delta[delta["kind"] == "deleted"]["url"].tolist()))


def detect_changed_urls(corpus_dir: str, ckpt_dir: str) -> list:
    """The changed-urls half of ``detect_corpus_delta``."""
    return detect_corpus_delta(corpus_dir, ckpt_dir)[0]


def recrawl(corpus_dir: str, ckpt_dir: str, budget: dict | None = None,
            **kw) -> CrawlResult:
    """Incremental recrawl: detect etag-changed pages and re-ingest EXACTLY
    those (the reference's etag/last_modified workflow; see
    ``detect_corpus_delta``).  Resumes the existing checkpoint with the
    changed urls deleted from the seen set, so they pass the gate again —
    unchanged pages are never re-fetched.  Removed documents are not
    fetchable, so they are recorded as rows instead (the error-sink
    convention): ``ckpt_dir/deletions.parquet`` holds the full current
    deleted-url set after every recrawl — the downstream index's
    tombstone feed.  Their hashes stay in the seen set deliberately, so
    dangling links to them never trigger futile fetches."""
    changed, deleted = detect_corpus_delta(corpus_dir, ckpt_dir)
    pq.write_table(
        pa.table({"url": pa.array(deleted, pa.string())}),
        os.path.join(ckpt_dir, "deletions.parquet"),
    )
    return crawl(
        corpus_dir,
        ckpt_dir,
        budget,
        resume=True,
        invalidate_urls=changed,
        **kw,
    )


def precount(corpus_dir: str, budget: dict | None = None, filters: dict | None = None) -> int:
    """The pre-crawl document-count analog (``CountDocumentsAsync``,
    ``SharePointClient.cs:133-192``): the same traversal with links-only
    parsing (no markdown build), returning how many pages a full crawl with
    this budget would fetch.  Unlike the reference — which always pays the
    2x listing traffic for its progress bar — this is opt-in; normal runs get
    progress from the per-round checkpoint counters instead.
    """
    with tempfile.TemporaryDirectory(prefix="precount_") as tmp:
        res = crawl(
            corpus_dir,
            os.path.join(tmp, "ckpt"),
            budget,
            filters=filters,
            count_only=True,
            resume=False,
        )
    return res.cumulative["fetched"]


@dataclass
class CrawlResult:
    ckpt_dir: str
    docs_dir: str
    rounds: int
    cumulative: dict
    seen_stats: list = field(default_factory=list)

    def order_table(self) -> pa.Table:
        tables = []
        for r in range(self.rounds):
            for p in selected_files(self.ckpt_dir, r):
                tables.append(pq.read_table(p))
        if not tables:
            return (
                FRONTIER_SCHEMA.empty_table()
                .append_column("fetch_seq", pa.array([], pa.int64()))
                .append_column("round", pa.array([], pa.int32()))
            )
        t = pa.concat_tables(tables)
        return t.sort_by("fetch_seq")

    def seen_hashes(self) -> np.ndarray:
        return np.unique(seen_hashes_through(self.ckpt_dir, self.rounds - 1))

    def docs_dataset(self):
        return rd.read_parquet(self.docs_dir)


@dataclass
class _Crawl:
    """What every round of one ``crawl()`` call shares."""

    cm: CheckpointManager
    docs_dir: str
    pages_dir: str
    n_buckets: int
    robots: RobotsRules
    robots_ref: ray.ObjectRef
    gate: UrlGate
    seen: SeenSet
    k: int
    max_depth: int
    with_markdown: bool
    delays_ms: dict  # host -> crawl_delay_ms; empty without enforce_delays
    fetch_slots: int  # fetch tasks that run at once: the cluster's CPUs // _FETCH_CPUS
    block_bytes: int  # html bytes a fetch task extracts per call and row group

    def round_dir(self, r: int, sub: str) -> str:
        return os.path.join(self.cm.dir, f"round={r}", sub)


class _Selection(NamedTuple):
    counts: dict  # status -> rows: robots, filtered, dup, seen, deferred
    # Disposition tables, unsorted; their cand rows are the candidates, and
    # each block's candidates are a key range disjoint from the others'.
    blocks: list
    on_driver: bool  # the frontier was small: blocks are driver tables, not refs


class _Schedule(NamedTuple):
    n_sel: int  # rows scheduled (attempted)
    n_overflow: int  # candidates cut by the budget
    # The fetch feed: per pages bucket in ascending bucket id, its feeds
    # (driver tables or refs) in fetch_seq order.
    feeds: list


# The fetch step's miss rows: the frontier row as fetched, plus its fetch_seq.
_NO_MISSES = pa.schema(list(FRONTIER_SCHEMA) + [pa.field("fetch_seq", pa.int64())]).empty_table()


def _select(c: _Crawl, frontier: _LazyFrontier, r: int) -> _Selection:
    """Gate, seen probe, dedup and politeness over the round's frontier, then
    the close: each disposition block's deferred part and status counts."""
    deferred_dir = _fresh_dir(c.round_dir(r, "frontier_deferred"))
    if frontier.num_rows <= SMALL_FRONTIER_ROWS:
        # Small round: the whole selection runs on the driver — the rules
        # and the seen value are local, and the SAME group function and
        # close run in process.  The frontier here is bounded, and a
        # distributed selection would spend more on two all-to-alls than the
        # round's total compute.
        disp = _select_on_driver(frontier.to_table(), c.robots, c.gate, c.seen, c.k)
        return _Selection(_sum_counts(_close_block(disp, deferred_dir)), [disp], True)

    # Large round: the driver NEVER sees the full disposition (at 10^10 the
    # seen/dup rows ARE the frontier).  Every group is bounded by N_SALT*k
    # rows even for a hot host (SURVEY.md §7.6.4).
    robots_ref, gate, k = c.robots_ref, c.gate, c.k
    seen_ref = ray.put(c.seen.keys)

    def group(df: pd.DataFrame) -> pa.Table:
        return _disp_arrow(dedup_and_salt_topk(df, k))

    # Stage 0 (map-only, NO shuffle): robots + gate + seen, straight off the
    # checkpoint's parts.  At steady state most rows die here, and decided
    # rows never enter an all-to-all.
    stage0 = frontier.to_dataset().map_batches(
        lambda t: robots_seen_batch(t, robots_ref, seen_ref, gate),
        batch_format="pyarrow",
        batch_size=65536,
        zero_copy_batch=True,
    ).materialize()
    # Stage 1: salted in-round dedup + per-salt top-k over gate survivors
    # (url-closed groups; same url => same salt).
    stage1 = (
        stage0.map_batches(_only("cand"), batch_format="pyarrow")
        .map_batches(add_salt, batch_format="pyarrow")
        .groupby("salt")
        .map_groups(group, batch_format="pandas")
    ).materialize()
    # Stage 2: exact per-host top-k over stage-1 survivors, with the same
    # group function.  An explicit range sort, not groupby().map_groups(),
    # which a hash shuffle strategy turns into a hash repartition: each
    # block then holds whole hosts, its candidates are a key range disjoint
    # from every other block's, and the blocks go to the schedule as they
    # are.  Stage-1 survivors are distinct urls, so the group's dedup finds
    # nothing and its per-host rank is the exact top-k.
    stage2 = (
        stage1.map_batches(_only("cand"), batch_format="pyarrow")
        .sort("host")
        .map_batches(group, batch_format="pandas", batch_size=None)
    ).materialize()
    # The close, in one execution: the stages' status sets are disjoint —
    # robots/filtered/seen from stage 0, dup from stage 1, deferred from
    # stages 1 and 2 — so the summed counts give every counter (the summed
    # cand entry is unused), and the deferred rows stream into the round's
    # frontier parts without reaching the driver.
    closed = stage0.union(stage1, stage2).map_batches(
        lambda t: _close_block(t, deferred_dir), batch_format="pyarrow", batch_size=None
    )
    counts = _sum_counts(pa.concat_tables(ray.get(closed.to_arrow_refs())))
    return _Selection(counts, stage2.to_arrow_refs(), False)


def _schedule(c: _Crawl, sel: _Selection, r: int, seq_offset: int, remaining: int) -> _Schedule:
    """Put the round's candidates in the crawl order, then number, budget-cut
    and write the fetch schedule.

    One small call per block gives its candidate count and key range; the
    blocks are ranked by first key, whatever order they arrive in, and each
    block's rank offset is a prefix sum.  Then one finalize per block sorts
    its own candidates; the budget cut is a prefix of the total order
    (ORDER_COLS is unique per row) however the blocks were made.
    """
    selected_dir = _fresh_dir(c.round_dir(r, "selected"))
    deferred_dir = c.round_dir(r, "frontier_deferred")
    if sel.on_driver:
        spans = [_cand_span(b) for b in sel.blocks]
    else:
        spans = ray.get([_cand_span_remote.remote(b) for b in sel.blocks])
    ranked = sorted(
        ((sp, b) for sp, b in zip(spans, sel.blocks) if sp[0]), key=lambda x: x[0][1]
    )
    if any(a[2] >= b[1] for (a, _), (b, _) in zip(ranked, ranked[1:])):
        raise RuntimeError("candidate blocks overlap in the crawl order")
    rows = np.asarray([sp[0] for sp, _ in ranked], np.int64)
    starts = np.concatenate([np.zeros(1, np.int64), np.cumsum(rows)])
    n_sel = int(min(starts[-1], remaining))
    delays = c.delays_ms if sel.on_driver else ray.put(c.delays_ms)
    args = [
        (b, int(starts[i]), int(np.clip(n_sel - starts[i], 0, rows[i])), seq_offset,
         r, c.n_buckets, delays, deferred_dir, selected_dir, i)
        for i, (_, b) in enumerate(ranked)
    ]
    if sel.on_driver:
        outs = [list(_finalize_block(*a)) for a in args]
        ids = [o[0] for o in outs]
    else:
        outs = [list(g) for g in ray.get([_finalize_remote.remote(*a) for a in args])]
        ids = ray.get([o[0] for o in outs])
    feeds: dict = {}
    for bs, o in zip(ids, outs):
        for b, feed in zip(bs, o[1:]):
            feeds.setdefault(b, []).append(feed)
    return _Schedule(n_sel, int(starts[-1]) - n_sel, [feeds[b] for b in sorted(feeds)])


def _fetch_extract_feed(feed: pa.Table, pages_dir: str, max_depth: int, with_markdown: bool,
                        docs_dir: str, children_dir: str, *more: pa.Table,
                        fetch_start: float, block_bytes: int) -> pa.Table:
    """Fetch, extract and write ONE fetch task's rows — ``feed`` plus
    ``more``, the feeds of one or more pages buckets — as one docs part and
    one children part, both named by the task's smallest fetch_seq (tasks
    hold disjoint buckets, so a re-run task overwrites its own parts).
    Returns the miss rows (``_NO_MISSES`` schema).

    The rows are fetched on one timeline in ascending ``wait_s`` groups: the
    first group no earlier than ``fetch_start`` plus its offset, each later
    one its offset's difference after the previous group ended, so rows of
    one host stay at least its delay apart; a feed without delays is one
    group.  Within a group, ``fetch_bucket_group`` runs once per bucket in
    ascending order.  Fetched chunks are buffered until their html reaches
    ``block_bytes``; then one ``extract_batch_fn`` and one
    ``explode_links_batch`` over the buffer append one row group to each
    part, so a task holds at most one block plus one bucket chunk."""
    feed = pa.concat_tables([feed, *more]) if more else feed
    name = f"part_{pc.min(feed['fetch_seq']).as_py():012d}.parquet"
    waits, buckets = feed["wait_s"].to_numpy(), feed["bucket"].to_numpy()
    buf, misses, prev_w, prev_end = [], [], 0.0, fetch_start
    docs_w = pq.ParquetWriter(os.path.join(docs_dir, name), DOCS_SCHEMA)
    children_w = pq.ParquetWriter(os.path.join(children_dir, name), FRONTIER_SCHEMA)
    with docs_w, children_w:

        def flush():
            fetched = pa.concat_tables(buf)
            docs = extract_batch_fn(fetched, max_depth, with_markdown=with_markdown)
            docs_w.write_table(docs)
            children_w.write_table(explode_links_batch(docs))
            misses.append(fetched.filter(pc.is_null(fetched["html"])))
            buf.clear()

        for w in np.unique(waits):
            time.sleep(max(0.0, prev_end + w - prev_w - time.time()))
            in_w = waits == w
            for b in np.unique(buckets[in_w]):
                buf.append(fetch_bucket_group(feed.filter(in_w & (buckets == b)), pages_dir))
                if sum(t["html"].nbytes for t in buf) >= block_bytes:
                    flush()
            prev_w, prev_end = w, time.time()
        if buf:
            flush()
    return pa.concat_tables(misses).select(_NO_MISSES.schema.names).cast(_NO_MISSES.schema)


# Logical CPUs per fetch task, and so the divisor of the fetch slots.
# Extraction is allocation-heavy Python; measured on this class of machine it
# scales near-linearly to ~12-16 concurrent processes and then collapses
# (memory/page-fault contention), so each task reserves 2 logical CPUs — a
# 32-CPU node runs 16 extract tasks at its throughput plateau instead of 32
# tasks past the cliff.
_FETCH_CPUS = 2
_fetch_extract_remote = ray.remote(num_cpus=_FETCH_CPUS)(_fetch_extract_feed)


def _fetch_extract(c: _Crawl, sched: _Schedule, r: int) -> pa.Table:
    """Fetch and extract the schedule in min(buckets, ``c.fetch_slots``)
    plain tasks, and return the round's miss rows.  The feeds are already
    partitioned by bucket and sorted by bucket id; task i of n takes buckets
    i, i+n, ..., so this is a map with no exchange: no dataset is built."""
    docs_dir = _fresh_dir(os.path.join(c.docs_dir, f"round={r}"))
    children_dir = _fresh_dir(c.round_dir(r, "frontier_children"))
    args = (c.pages_dir, c.max_depth, c.with_markdown, docs_dir, children_dir)
    n = min(len(sched.feeds), c.fetch_slots)
    tasks = [[f for feeds in sched.feeds[i::n] for f in feeds] for i in range(n)]
    fetch_start = time.time()
    misses = ray.get([
        _fetch_extract_remote.remote(feeds[0], *args, *feeds[1:], fetch_start=fetch_start,
                                     block_bytes=c.block_bytes)
        for feeds in tasks
    ])
    misses = pa.concat_tables([_NO_MISSES, *misses]).sort_by("fetch_seq")
    # Sink validation (UploadResponse analog): per-file row counts + schema
    # fingerprint vs the round's fetch schedule; every round has a manifest.
    write_docs_manifest(docs_dir, sched.n_sel)
    return misses


def _driver_rss_mb() -> float | None:
    # per-round driver RSS into the round checkpoint: the flat-vs-round-count
    # witness that the lazy frontier handoff keeps the frontier off the driver
    try:
        with open("/proc/self/statm") as f:
            return round(int(f.read().split()[1]) * os.sysconf("SC_PAGE_SIZE") / 1e6, 1)
    except OSError:
        return None


def _commit(c: _Crawl, r: int, sel: _Selection, sched: _Schedule, misses: pa.Table,
            cumulative: dict, phases: dict) -> _LazyFrontier:
    """The round barrier: counters, errors and retries into the checkpoint,
    the round's seen delta into the seen value.  Updates ``cumulative`` and
    returns the next frontier handle.  ``phases["commit"]`` covers the step
    up to the checkpoint write itself."""
    t0 = time.perf_counter()
    vc = sel.counts
    retry_np = misses["retry"].to_numpy()
    n_miss, n_retry = misses.num_rows, int((retry_np == 0).sum())
    counters = {
        "attempted": sched.n_sel,
        "fetched": sched.n_sel - n_miss,
        "deduped": int(vc.get("dup", 0)) + int(vc.get("seen", 0)),
        "robots_blocked": int(vc.get("robots", 0)),
        "filtered": int(vc.get("filtered", 0)),
        "retried": n_retry,
        "failed": n_miss - n_retry,
        "deferred": int(vc.get("deferred", 0)) + sched.n_overflow,
    }
    errors = None
    if n_miss:
        reasons = np.where(retry_np == 0, "fetch_miss_retryable", "fetch_miss_final")
        errors = pa.table(
            {
                "url": misses["url"],
                "fetch_seq": misses["fetch_seq"],
                "round": pa.array(np.full(n_miss, r, np.int32), pa.int32()),
                "reason": pa.array(reasons.astype(object), pa.string()),
            }
        )
    # A first miss is retried once next round, from its fetched frontier row.
    retries = misses.filter(pc.equal(misses["retry"], 0)).select(FRONTIER_SCHEMA.names)
    retries = retries.set_column(
        retries.schema.get_field_index("retry"), FRONTIER_SCHEMA.field("retry"),
        pa.array(np.ones(n_retry, np.int8), pa.int8()),
    )
    for key in COUNTER_KEYS:
        cumulative[key] = counters[key] if key == "deferred" else cumulative[key] + counters[key]
    phases["commit"] = round(time.perf_counter() - t0, 3)
    c.cm.write_round(r, retries, counters, cumulative, phases=phases, errors=errors,
                     rss_mb=_driver_rss_mb(), seen_keys=len(c.seen.keys))
    c.seen.add_many(read_seen_delta(c.cm.dir, r))
    return _frontier_handle(c.cm, r)


def _timed(phases: dict, name: str, step, *args):
    t0 = time.perf_counter()
    out = step(*args)
    phases[name] = round(time.perf_counter() - t0, 3)
    return out


def _invalidate(c: _Crawl, frontier: _LazyFrontier, urls: list, start_round: int) -> None:
    """Recrawl invalidation (north-star "cuckoo fallback for deletions"):
    remove the urls from the restored seen set (a set difference) so they
    pass the gate again, and append them to the frontier as fresh
    candidates."""
    base_seq = frontier.max_discovery_seq() + 1 if frontier.num_rows else 0
    # Depth-faithful re-queue: a changed page re-enters at its ORIGINAL crawl
    # depth, so its (mostly unchanged) links stay inside the first run's
    # exploration horizon — resetting to depth 0 would unlock previously
    # depth-capped children and cascade-fetch the frontier beyond the changed
    # set.  Filtered footer reads of the rounds' fetch schedules, bounded by
    # the invalidation set.
    canon = [cu for cu in (canonicalize(u) for u in urls) if cu]
    depth_of: dict = {}
    if canon:
        for rr in range(start_round):
            for f in selected_files(c.cm.dir, rr):
                t = pq.read_table(f, columns=["url", "depth"], filters=[("url", "in", canon)])
                depth_of.update(zip(t["url"].to_pylist(), t["depth"].to_pylist()))
    rows = [
        frontier_row(cu, int(depth_of.get(cu, 0)), 0, int(base_seq) + i)
        for i, cu in enumerate(canon)
    ]
    if rows:
        c.seen.delete_many(np.asarray([x["url_hash"] for x in rows], dtype=np.int64))
        frontier.append(pa.Table.from_pylist(rows, schema=FRONTIER_SCHEMA))


def crawl(
    corpus_dir: str,
    ckpt_dir: str,
    budget: dict | None = None,
    resume: bool = True,
    stop_after_round: int | None = None,
    initial_frontier: pa.Table | None = None,
    filters: dict | None = None,
    count_only: bool = False,
    enforce_delays: bool = False,
    invalidate_urls: list | None = None,
) -> CrawlResult:
    """Run (or resume) a crawl over a synthetic corpus. Ray must be initialised.

    ``resume=False`` starts over: the checkpoint's rounds and docs from any
    earlier crawl in ``ckpt_dir`` are removed first.
    ``stop_after_round=R`` returns right after round R's checkpoint barrier —
    the kill-and-resume test hook.  ``invalidate_urls`` removes those urls
    from the restored seen set and re-queues them — the recrawl-after-N-days
    workflow.  ``initial_frontier`` (FRONTIER_SCHEMA) replaces the seeds
    table — used by the steady-state bench, which starts from a
    fully-populated frontier rather than growing one by BFS.

    ``enforce_delays=True`` honours the robots table's per-host
    ``crawl_delay_ms``: host h's j-th fetch of a round (0-based) waits until
    (j+1) delays after the round's fetch start, so a host may wait up to
    one extra interval per round.  No politeness state crosses a round or a
    resume: the previous round's fetches all ended before this one starts.
    """
    budget = dict(budget or default_budget())
    with open(os.path.join(corpus_dir, "_corpus.json")) as f:
        corpus_meta = json.load(f)
    n_buckets = corpus_meta["cfg"]["n_buckets"]

    cfg = {
        "budget": budget,
        "corpus": corpus_meta["cache_key"],
        "n_buckets": n_buckets,
        "filters": filters or {},
        "count_only": count_only,
        "docs_schema": 3,  # bump when DOCS_SCHEMA changes: stale checkpoint
        # docs must not mix schemas on resume
        "layout": 2,  # bump when the round layout changes: a resume must
        # not read rounds written in another layout
    }
    cm = CheckpointManager(ckpt_dir, cfg)
    if not resume:
        cm.clear()

    delays_ms = {}
    if enforce_delays:
        # Per-host wall-clock politeness from the robots table's
        # crawl_delay_ms, applied as per-row offsets in the fetch feed.  Off
        # by default: the sandbox "fetch" is a parquet lookup, so sleeping
        # would only measure sleep.
        rt = pq.read_table(
            os.path.join(corpus_dir, "robots.parquet"), columns=["host", "crawl_delay_ms"]
        )
        delays_ms = dict(zip(rt["host"].to_pylist(), rt["crawl_delay_ms"].to_pylist()))

    robots = RobotsRules.from_parquet(os.path.join(corpus_dir, "robots.parquet"))
    c = _Crawl(
        cm=cm,
        docs_dir=os.path.join(ckpt_dir, "docs"),
        pages_dir=os.path.join(corpus_dir, "pages"),
        n_buckets=n_buckets,
        robots=robots,
        robots_ref=ray.put(robots.rules),
        gate=UrlGate.from_config(filters),
        seen=SeenSet(),
        k=int(budget["max_per_host_per_round"]),
        max_depth=int(budget["max_depth"]),
        with_markdown=not count_only,
        delays_ms=delays_ms,
        fetch_slots=max(1, int(ray.cluster_resources()["CPU"]) // _FETCH_CPUS),
        block_bytes=rd.DataContext.get_current().target_max_block_size,
    )

    cumulative = {k: 0 for k in COUNTER_KEYS}
    start_round = 0
    last = cm.latest_complete_round() if resume else -1
    if last >= 0:
        # docs past the last complete round are the interrupted round's,
        # which runs again; a resume checks the docs it builds on
        for d in glob(os.path.join(c.docs_dir, "round=*")):
            if int(d.rsplit("=", 1)[1]) > last:
                shutil.rmtree(d)
        validate_docs_output(c.docs_dir)
        start_round = last + 1
        frontier = _frontier_handle(cm, last)
        c.seen.add_many(cm.seen_hashes_through(last))
        cumulative = dict(cm.read_counters(last)["cumulative"])
    elif initial_frontier is not None:
        frontier = _LazyFrontier(extra=initial_frontier)
    else:
        frontier = _LazyFrontier(
            extra=seeds_to_frontier(os.path.join(corpus_dir, "seeds.parquet"))
        )

    max_rounds = int(budget["max_rounds"])
    if invalidate_urls:
        _invalidate(c, frontier, invalidate_urls, start_round)
        # a recrawl gets a fresh per-invocation round allowance (the first
        # run may have exhausted max_rounds); the GLOBAL url budget still
        # applies across the whole checkpoint lineage
        max_rounds += start_round
    max_total = int(budget["max_urls_total"])

    r = start_round
    while r < max_rounds and frontier.num_rows and cumulative["attempted"] < max_total:
        done = cumulative["attempted"]
        phases = {}
        sel = _timed(phases, "select", _select, c, frontier, r)
        sched = _timed(phases, "schedule", _schedule, c, sel, r, done, max_total - done)
        misses = _timed(phases, "fetch_extract", _fetch_extract, c, sched, r)
        frontier = _commit(c, r, sel, sched, misses, cumulative, phases)
        r += 1
        if stop_after_round is not None and r > stop_after_round:
            break

    return CrawlResult(ckpt_dir, c.docs_dir, r, cumulative, c.seen.stats())
