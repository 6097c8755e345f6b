"""The BSP crawl loop: iterative frontier expansion on Ray Data.

The Ray-Data-native re-expression of the reference's sequential recursive
traversal (``SharePointClient.cs:201-342``, SURVEY.md §3.1): instead of one
async chain with one request in flight, each *round* runs four steps, and
each step hands the driver loop one small record:

    frontier handle (_LazyFrontier): the previous round's checkpoint parts
      plus driver-small ``extra`` rows (seeds, an initial frontier, recrawl
      invalidations); narrow columns only —
      (url, host, path, depth, priority, discovery_seq, retry, url_hash)
      -> select: ONE function per url-closed url_hash range
         (_select_on_driver): robots + allow/deny gate and the seen probe
         against the range's slice of the seen value (robots_seen_batch;
         retry bypasses seen), in-round dedup and per-host top-k by ONE
         group function (dedup_and_salt_topk), then ONE close (_close_block)
         that writes the politeness-deferred rows to
         round=R/frontier_deferred/ and returns the status counts.  The
         range count P comes from the footer row count (_n_ranges), here and
         nowhere else:
         P = 1 (frontier <= SMALL_FRONTIER_ROWS): in process over the handle
           read into a table; no task;
         P > 1 (a power of two <= N_SALT): one plain Ray task per range
           (_select_range) reads every frontier part with a url_hash filter,
           adds its share of ``extra`` and gets its seen slice as an
           argument.  Decided rows never leave their task: only the ranges'
           counts and candidates, at most P*k per host, come back to the
           driver, where stage 2 runs in process over their concatenation:
           the same dedup_and_salt_topk and ONE _close_block.  No exchange
           and no dataset execution at any P.
         Either way the round's candidates are one driver table.
      -> schedule: the only place the crawl order is applied.  ONE finalize
         over the candidates (_finalize_block, in process): sort, fetch_seq,
         budget cut (overflow -> frontier_deferred/overflow_0), ONE schedule
         part -> round=R/selected/, and ONE fetch feed table whose rows carry
         their pages ``bucket`` and politeness offset ``wait_s``.
      -> fetch_extract: ONE plain Ray task per free fetch slot, so
         min(buckets fetched, slots) per round, slots = the cluster's CPUs
         // _FETCH_CPUS (allocation-heavy Python — see BENCH/BASELINE.md);
         with the feed's bucket ids sorted, task i gets the rows of every
         n-th bucket from the i-th.  A task
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

Scale notes: past the size threshold the driver never holds the frontier,
nor its seen, dup or robots rows.  It holds the status counts, the fetch
misses, the ranges' candidates (at most P*k rows per host, in the narrow
frontier columns) and the round's schedule (at most k rows per host and no
more than the remaining budget); no html/text ever enters the frontier.  For scale: the
driver already holds the whole seen value (one int64 per url ever
attempted) and, at P = 1, up to SMALL_FRONTIER_ROWS frontier rows.
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
    N_SALT,
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

# Up to this many frontier rows a round selects on the driver (one vectorized
# pass); above it, in url_hash range tasks of about this many rows each (at
# most N_SALT of them).
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


# Disposition schema of the selection: FRONTIER columns + status.  The group
# fn returns Arrow tables cast to THIS schema, so the ranges' candidate
# tables concatenate as they are, empty ones too.
_DISP_SCHEMA = pa.schema(list(FRONTIER_SCHEMA) + [pa.field("status", pa.string())])


def _disp_arrow(df: pd.DataFrame) -> pa.Table:
    # from_pandas attaches pandas metadata even with schema=: strip it
    return pa.Table.from_pandas(
        df, schema=_DISP_SCHEMA, preserve_index=False
    ).replace_schema_metadata(None)


def robots_seen_batch(batch: pa.Table, robots: RobotsRules, seen_keys: np.ndarray,
                      gate: UrlGate) -> pa.Table:
    """``batch`` plus each row's disposition before dedup as ``status``:
    robots rules, allow/deny gate, then an anti-join against ``seen_keys``
    (sorted; a range's slice of the seen value answers that range's rows).
    Precedence: robots > filtered > seen > cand (mirrored by the oracle);
    rows with retry=1 bypass the seen check (they were added when first
    attempted).  The broadcast-small-side pattern of the reference's
    allow-list semi-join (``SharePointClient.cs:272-275``).  The name is
    kept for the benchmark tracer's ``TARGETS``."""
    blocked = robots.blocked_many(batch["host"], batch["path"])
    filt = gate.filtered_many(batch["url"], batch["path"])
    seen = check_many_via_handles(seen_keys, batch["url_hash"].to_numpy())
    retry = batch["retry"].to_numpy()
    status = np.where(
        blocked,
        "robots",
        np.where(filt, "filtered", np.where(seen & (retry == 0), "seen", "cand")),
    )
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


def _select_on_driver(frontier: pa.Table, robots: RobotsRules, gate: UrlGate,
                      seen_keys: np.ndarray, k: int, deferred_dir: str) -> tuple:
    """Select ONE url-closed url_hash range (the whole frontier when P = 1):
    gate and seen probe, in-round dedup (min order key wins, winner inherits
    max retry) and per-host top-k, then the close.  Returns (status counts,
    candidate rows).  A range holds every row of its urls, so its dedup is
    exact, and a row past its host's top k in the range is past it overall.
    In process when P = 1, in a ``_select_range`` task otherwise.  The name
    is kept for the benchmark tracer's ``TARGETS``."""
    return _topk_close(robots_seen_batch(frontier, robots, seen_keys, gate), k, deferred_dir)


def _topk_close(disp: pa.Table, k: int, deferred_dir: str) -> tuple:
    """Dedup and per-host top-k over a url-closed disposition table, then
    its close: (status counts, candidate rows).  A range's selection ends
    here, and so does stage 2 over the ranges' candidates."""
    disp = _disp_arrow(dedup_and_salt_topk(disp.to_pandas(), k))
    return _close_block(disp, deferred_dir), _only("cand")(disp)


def _n_ranges(n_rows: int) -> int:
    """The round's range count P: 1 up to SMALL_FRONTIER_ROWS frontier rows,
    otherwise the least power of two >= 2 whose ranges average at most
    SMALL_FRONTIER_ROWS rows, capped at N_SALT."""
    p = 1
    while p < N_SALT and p * SMALL_FRONTIER_ROWS < n_rows:
        p *= 2
    return p


def _split_ranges(extra: pa.Table, keys: np.ndarray, p: int) -> list:
    """The P url-closed ranges as (lo, hi, extra rows, seen keys): range i
    holds the salts (``add_salt``) from i*N_SALT/P, lo = the first << 59; the
    last is open above (hi None: 2**63 fits no int64).  A range's seen keys
    are one slice of the sorted seen value, no copy."""
    s = N_SALT // p
    rid = add_salt(extra)["salt"].to_numpy() // s
    out = []
    for i in range(p):
        lo, hi = (i * s) << 59, ((i + 1) * s) << 59 if i < p - 1 else None
        seen = keys[np.searchsorted(keys, lo):None if hi is None else np.searchsorted(keys, hi)]
        out.append((lo, hi, extra.filter(pa.array(rid == i)), seen))
    return out


def _read_range(files: list, lo: int, hi: int | None, extra: pa.Table) -> pa.Table:
    """The frontier rows with lo <= url_hash < hi (hi None: open above):
    every part file read with a url_hash filter, then ``extra``, the range's
    rows that are not on disk."""
    flt = [("url_hash", ">=", lo)] + ([] if hi is None else [("url_hash", "<", hi)])
    return pa.concat_tables(
        [*(_cast_frontier_batch(pq.read_table(f, filters=flt)) for f in files), extra]
    )


def _select_range(files: list, lo: int, hi: int | None, extra: pa.Table, *args) -> tuple:
    """One range task: ``_select_on_driver`` on the range's rows."""
    return _select_on_driver(_read_range(files, lo, hi, extra), *args)


_select_range_remote = ray.remote(num_returns=2)(_select_range)


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


def _finalize_block(
    cand: pa.Table,
    sel_n: int,
    seq_offset: int,
    rnd: int,
    n_buckets: int,
    delays_ms: dict,
    deferred_dir: str,
    selected_dir: str,
) -> pa.Table:
    """The schedule finalize over the round's candidates, in process at
    every P; returns the fetch feed.

    Puts ``cand`` in the crawl order and numbers it ``fetch_seq =
    seq_offset + arange``.  The first ``sel_n`` rows are the schedule; the
    rest spill to the round's one overflow part.  The schedule part is the
    round's one ``round=R/selected/`` part (its url_hash column is the
    round's seen delta).  The feed is the schedule plus two columns: the
    pages ``bucket`` a row is fetched from, and its politeness offset.

    Politeness is a value in the feed (not in the schedule part): the j-th
    scheduled row of host h (0-based, in the crawl order) gets ``wait_s =
    (j+1) * delays_ms[h] / 1000``, a fresh ``TokenBucket``'s wait plus one
    interval.
    """
    cand = cand.take(global_order_indices(cand))
    sel = cand.slice(0, sel_n)
    over = cand.slice(sel_n)
    if over.num_rows:
        pq.write_table(
            _cast_frontier_batch(over), os.path.join(deferred_dir, "overflow_0.parquet")
        )
    n = sel.num_rows
    sel = (
        _cast_frontier_batch(sel)
        .append_column("fetch_seq", pa.array(seq_offset + np.arange(n), pa.int64()))
        .append_column("round", pa.array(np.full(n, rnd, np.int32), pa.int32()))
    )
    if n:
        pq.write_table(sel, os.path.join(selected_dir, "part_00000.parquet"))
    hosts = pd.Series(sel["host"].to_numpy(zero_copy_only=False))
    j = hosts.groupby(hosts, sort=False).cumcount().to_numpy()
    wait_s = (j + 1) * hosts.map(delays_ms).fillna(0).to_numpy(np.float64) / 1000.0
    buckets = (sel["url_hash"].to_numpy() % n_buckets).astype(np.int32)
    return sel.append_column("wait_s", pa.array(wait_s, pa.float64())).append_column(
        "bucket", pa.array(buckets, pa.int32())
    )


class _LazyFrontier:
    """A round's frontier: the checkpoint's part files plus ``extra`` rows.

    The files are round ``r``'s next frontier in checkpoint ``cm`` (none for
    a fresh crawl); ``extra`` carries driver-small rows that are not on disk
    — seeds, an ``initial_frontier``, recrawl invalidations.  Only parquet
    footers are read here.  Selection reads the handle into a table when it
    is small (``to_table``); otherwise each range task reads its url_hash
    range of the files, and the driver hands it only that range's ``extra``
    rows, so past ``SMALL_FRONTIER_ROWS`` the file rows never touch the
    driver (VERDICT r3 "what's wrong" #2 — at 10^10 urls the frontier IS
    the data).
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
    cand: pa.Table  # disposition rows, unsorted; those with status cand are the candidates


class _Schedule(NamedTuple):
    n_sel: int  # rows scheduled (attempted)
    n_overflow: int  # candidates cut by the budget
    feed: pa.Table  # the fetch feed, in fetch_seq order, with wait_s and bucket


# The fetch step's miss rows: the frontier row as fetched, plus its fetch_seq.
_NO_MISSES = pa.schema(list(FRONTIER_SCHEMA) + [pa.field("fetch_seq", pa.int64())]).empty_table()


def _select(c: _Crawl, frontier: _LazyFrontier, r: int) -> _Selection:
    """Gate, seen probe, dedup and politeness over the round's frontier in P
    url-closed url_hash ranges, each closed as it is selected: its deferred
    part and its status counts.  When P > 1 the ranges' candidates meet in
    stage 2, in process.  Either way the round's candidates come back as one
    driver table."""
    deferred_dir = _fresh_dir(c.round_dir(r, "frontier_deferred"))
    p = _n_ranges(frontier.num_rows)
    if p == 1:
        # Small round: the rules and the seen value are local, and one range
        # task would only add a launch and a copy of the frontier.
        counts, cand = _select_on_driver(frontier.to_table(), c.robots, c.gate, c.seen.keys,
                                         c.k, deferred_dir)
        return _Selection(_sum_counts(counts), cand)

    # Large round: the driver NEVER sees the full disposition (at 10^10 the
    # seen/dup rows ARE the frontier); each range task decides its rows where
    # it reads them and returns only its counts and candidates.
    robots = ray.put(c.robots)
    outs = [
        _select_range_remote.remote(frontier.files, lo, hi, extra, robots, c.gate, seen, c.k,
                                    deferred_dir)
        for lo, hi, extra, seen in _split_ranges(frontier.extra, c.seen.keys, p)
    ]
    counts = ray.get([n for n, _ in outs])
    cands = pa.concat_tables(ray.get([cand for _, cand in outs]))
    # Stage 2, in process: exact per-host top-k over the ranges' candidates
    # (at most P*k distinct urls per host, so the dedup finds nothing), then
    # its close.  The close counts rows the ranges counted as cand, so the
    # summed cand entry is unused.
    stage2, cand = _topk_close(cands, c.k, deferred_dir)
    return _Selection(_sum_counts(pa.concat_tables(counts + [stage2])), cand)


def _schedule(c: _Crawl, sel: _Selection, r: int, seq_offset: int, remaining: int) -> _Schedule:
    """Put the round's candidates in the crawl order, then number, budget-cut
    and write the fetch schedule: one in-process finalize over one table."""
    cand = _only("cand")(sel.cand)
    n_sel = min(cand.num_rows, remaining)
    feed = _finalize_block(cand, n_sel, seq_offset, r, c.n_buckets, c.delays_ms,
                           c.round_dir(r, "frontier_deferred"),
                           _fresh_dir(c.round_dir(r, "selected")))
    return _Schedule(n_sel, cand.num_rows - n_sel, feed)


def _fetch_extract_feed(feed: pa.Table, pages_dir: str, max_depth: int, with_markdown: bool,
                        docs_dir: str, children_dir: str, *,
                        fetch_start: float, block_bytes: int) -> pa.Table:
    """Fetch, extract and write ONE fetch task's rows, those of one or more
    pages buckets, as one docs part and one children part, both named by the
    task's smallest fetch_seq (tasks hold disjoint buckets, so a re-run task
    overwrites its own parts).  Returns the miss rows (``_NO_MISSES``
    schema).

    The rows are fetched on one timeline in ascending ``wait_s`` groups: the
    first group no earlier than ``fetch_start`` plus its offset, each later
    one its offset's difference after the previous group ended, so rows of
    one host stay at least its delay apart; a feed without delays is one
    group.  Within a group, ``fetch_bucket_group`` runs once per bucket in
    ascending order.  Fetched chunks are buffered until their html reaches
    ``block_bytes``; then one ``extract_batch_fn`` and one
    ``explode_links_batch`` over the buffer append one row group to each
    part, so a task holds at most one block plus one bucket chunk."""
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
    plain tasks, and return the round's miss rows.  Task i of n takes the
    rows of the i-th, (i+n)-th, ... of the feed's sorted bucket ids, so this
    is a map with no exchange: no dataset is built."""
    docs_dir = _fresh_dir(os.path.join(c.docs_dir, f"round={r}"))
    children_dir = _fresh_dir(c.round_dir(r, "frontier_children"))
    args = (c.pages_dir, c.max_depth, c.with_markdown, docs_dir, children_dir)
    buckets = sched.feed["bucket"].to_numpy()
    ids = np.unique(buckets)
    n = min(len(ids), c.fetch_slots)
    fetch_start = time.time()
    misses = ray.get([
        _fetch_extract_remote.remote(sched.feed.filter(np.isin(buckets, ids[i::n])), *args,
                                     fetch_start=fetch_start, block_bytes=c.block_bytes)
        for i in range(n)
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

    c = _Crawl(
        cm=cm,
        docs_dir=os.path.join(ckpt_dir, "docs"),
        pages_dir=os.path.join(corpus_dir, "pages"),
        n_buckets=n_buckets,
        robots=RobotsRules.from_parquet(os.path.join(corpus_dir, "robots.parquet")),
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
