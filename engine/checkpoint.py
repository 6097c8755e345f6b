"""Per-round crawl checkpoints: lineage, counters, deterministic resume.

The reference has NO checkpointing — a restart is a full recrawl
(SURVEY.md §4.1).  The engine checkpoints every BSP round so a killed run
resumes from the last complete round with identical results (north-rule
requirement: "resumable from checkpoint with per-partition lineage +
metrics").

Layout — one for every round, whichever selection path ran (data files
first, ``counters.json`` then ``_SUCCESS`` last; both are written to a temp
file, fsynced and renamed into place, so a crash never leaves a torn one and
a round without ``_SUCCESS`` is simply re-run)::

    ckpt_dir/
      round=R/
        selected/part_*.parquet  # the round's fetch schedule, in one part
                               #   (part_00000); its url_hash column is
                               #   the round's seen delta
        frontier_next.parquet  # fetch-miss retries entering round R+1
        frontier_children/     # parquet parts: links exploded from the docs
        frontier_deferred/     # parquet parts: politeness-deferred rows
                               #   (deferred_*: one per close, a range's
                               #   or stage 2's) and budget overflow (at
                               #   most one overflow_* part)
        errors.parquet         # fetch misses as rows (when any)
        counters.json          # round + cumulative counters, lineage, phases
        _SUCCESS
      docs/round=R/            # the docs sink: parquet parts + _manifest.json
                               #   (per-file row counts, schema fingerprint)

Each fetch task writes one docs part and one ``frontier_children/`` part,
both named ``part_{first fetch_seq:012d}.parquet``: tasks hold disjoint
rows, so a retried task overwrites its own parts.

Round R+1's frontier is exactly ``frontier_next.parquet`` plus the parts of
``frontier_children/`` and ``frontier_deferred/``.

The checkpoint is the seen set's source of truth.  It is persisted as
per-round *deltas* — the url hashes each round attempted, read from its
schedule parts: the crawl merges each round's delta into its in-memory seen
value at the barrier, and a resume rebuilds the value as the union of the
deltas of rounds <= R (O(total urls) read once, instead of O(total)
rewritten every round).  ``counters.json`` carries lineage
(``parent_round``, ``config_hash``) so a resume against a different corpus,
budget or layout is refused instead of silently diverging.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import shutil

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

COUNTER_KEYS = (
    "attempted",
    "fetched",
    "deduped",
    "robots_blocked",
    "filtered",
    "retried",
    "failed",
    "deferred",
)


def config_hash(cfg: dict) -> str:
    return hashlib.blake2b(
        json.dumps(cfg, sort_keys=True).encode(), digest_size=8
    ).hexdigest()


def _write_atomic(path: str, text: str) -> None:
    """Temp file, fsync, rename: ``path`` is either absent, its old content
    or all of ``text`` — never a prefix."""
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "w") as f:
            f.write(text)
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def _fsync_dir(path: str) -> None:
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def selected_files(ckpt_dir: str, r: int) -> list:
    """Parquet parts holding round r's fetch schedule (``round=R/selected/``)."""
    d = os.path.join(ckpt_dir, f"round={r}", "selected")
    if not os.path.isdir(d):
        return []
    return sorted(os.path.join(d, f) for f in os.listdir(d) if f.endswith(".parquet"))


def read_seen_delta(ckpt_dir: str, r: int) -> np.ndarray:
    """Round r's seen-set delta: the url hashes it attempted, the url_hash
    column of its schedule parts."""
    parts = [
        pq.read_table(f, columns=["url_hash"])["url_hash"].to_numpy()
        for f in selected_files(ckpt_dir, r)
    ]
    return np.concatenate(parts) if parts else np.zeros(0, dtype=np.int64)


def seen_hashes_through(ckpt_dir: str, r: int) -> np.ndarray:
    """The seen deltas of rounds 0..r, concatenated (not deduplicated)."""
    parts = [read_seen_delta(ckpt_dir, i) for i in range(r + 1)]
    return np.concatenate(parts) if parts else np.zeros(0, dtype=np.int64)


class CheckpointManager:
    def __init__(self, ckpt_dir: str, cfg: dict):
        self.dir = ckpt_dir
        self.cfg_hash = config_hash(cfg)
        os.makedirs(ckpt_dir, exist_ok=True)

    def _round_dir(self, r: int) -> str:
        return os.path.join(self.dir, f"round={r}")

    def latest_complete_round(self) -> int:
        """Highest round with a _SUCCESS marker and matching lineage, else -1."""
        best = -1
        if not os.path.isdir(self.dir):
            return best
        for name in os.listdir(self.dir):
            m = re.fullmatch(r"round=(\d+)", name)
            if not m:
                continue
            r = int(m.group(1))
            rd = self._round_dir(r)
            if not os.path.exists(os.path.join(rd, "_SUCCESS")):
                continue
            with open(os.path.join(rd, "counters.json")) as f:
                meta = json.load(f)
            if meta.get("config_hash") != self.cfg_hash:
                raise ValueError(
                    f"checkpoint round {r} was written by a different config "
                    f"({meta.get('config_hash')} != {self.cfg_hash}); refusing to resume"
                )
            best = max(best, r)
        return best

    def clear(self) -> None:
        """Remove every round and the docs sink: a fresh crawl must not leave
        an earlier crawl's rounds for ``docs_dataset`` or a resume to find."""
        for name in os.listdir(self.dir):
            if name == "docs" or re.fullmatch(r"round=\d+", name):
                shutil.rmtree(os.path.join(self.dir, name))

    def write_round(
        self,
        r: int,
        frontier_next: pa.Table,
        counters: dict,
        cumulative: dict,
        phases: dict | None = None,
        errors: pa.Table | None = None,
        rss_mb: float | None = None,
        seen_keys: int | None = None,
    ):
        """Commit round r.  The schedule parts (and so the seen delta), the
        deferred, children and docs parts are already on disk; this writes
        the retries, the errors and the counters, then ``_SUCCESS``.
        ``seen_keys`` is the size of the seen value the round's selection
        probed."""
        rd = self._round_dir(r)
        os.makedirs(rd, exist_ok=True)
        success = os.path.join(rd, "_SUCCESS")
        if os.path.exists(success):  # idempotent rewrite of a complete round
            os.remove(success)
        pq.write_table(frontier_next, os.path.join(rd, "frontier_next.parquet"))
        if errors is not None and errors.num_rows:
            # Errors are rows, never side effects (SURVEY.md §2.1 S5 — the
            # engine analog of ErrorLogger.cs's TSV, queryable per round).
            pq.write_table(errors, os.path.join(rd, "errors.parquet"))
        _write_atomic(
            os.path.join(rd, "counters.json"),
            json.dumps(
                {
                    "round": r,
                    "parent_round": r - 1,
                    "config_hash": self.cfg_hash,
                    "counters": counters,
                    "cumulative": cumulative,
                    "phase_sec": phases or {},
                    "driver_rss_mb": rss_mb,
                    "seen_keys": seen_keys,
                }
            ),
        )
        _write_atomic(success, "ok")
        _fsync_dir(rd)

    def read_counters(self, r: int) -> dict:
        with open(os.path.join(self._round_dir(r), "counters.json")) as f:
            return json.load(f)

    def frontier_files(self, r: int) -> list:
        """Parquet files holding round r's next frontier: the retries file
        plus the children and deferred parts (written by the explode,
        selection and schedule steps directly into the round dir)."""
        rd = self._round_dir(r)
        files = []
        p = os.path.join(rd, "frontier_next.parquet")
        if os.path.exists(p):
            files.append(p)
        for sub in ("frontier_children", "frontier_deferred"):
            cdir = os.path.join(rd, sub)
            if os.path.isdir(cdir):
                files.extend(
                    sorted(
                        os.path.join(cdir, f)
                        for f in os.listdir(cdir)
                        if f.endswith(".parquet")
                    )
                )
        return files

    def frontier_next_rows(self, r: int) -> int:
        """Row count of round r's next frontier from parquet FOOTERS only —
        the large-round handoff decision must not read the data (the whole
        point is that at 10^10 rows the driver never materializes it)."""
        return sum(pq.ParquetFile(f).metadata.num_rows for f in self.frontier_files(r))

    def read_frontier_next(self, r: int) -> pa.Table:
        files = self.frontier_files(r)
        if not files:
            from .frontier import FRONTIER_SCHEMA

            return FRONTIER_SCHEMA.empty_table()
        # strip any writer metadata: downstream from_arrow blocks must carry
        # hashable (metadata-free) schemas or Ray's schema dedup logs a
        # warning per task
        return pa.concat_tables(
            [pq.read_table(f).replace_schema_metadata(None) for f in files],
            promote_options="default",
        )

    def seen_hashes_through(self, r: int) -> np.ndarray:
        return seen_hashes_through(self.dir, r)


def _schema_fingerprint(schema: pa.Schema) -> str:
    return hashlib.blake2b(
        schema.remove_metadata().serialize().to_pybytes(), digest_size=8
    ).hexdigest()


def write_docs_manifest(round_docs_dir: str, expected_rows: int) -> dict:
    """Per-round docs-sink manifest — the ``UploadResponse`` validation
    analog (``SharePointClient.cs:473-476``, ``UploadResponse.cs:8-19``):
    instead of trusting the write, record per-file row counts + a schema
    fingerprint (footer-metadata reads only) and check the total against
    the round's fetch schedule."""
    files = sorted(
        f for f in os.listdir(round_docs_dir) if f.endswith(".parquet")
    )
    per_file = {}
    schemas = set()
    total = 0
    for f in files:
        pf = pq.ParquetFile(os.path.join(round_docs_dir, f))
        per_file[f] = pf.metadata.num_rows
        total += pf.metadata.num_rows
        schemas.add(_schema_fingerprint(pf.schema_arrow))
    manifest = {
        "files": per_file,
        "total_rows": total,
        "expected_rows": expected_rows,
        "schema_fingerprints": sorted(schemas),
        "ok": total == expected_rows and len(schemas) <= 1,
    }
    with open(os.path.join(round_docs_dir, "_manifest.json"), "w") as f:
        json.dump(manifest, f)
    if not manifest["ok"]:
        raise ValueError(
            f"docs sink validation failed for {round_docs_dir}: "
            f"{total} rows written, {expected_rows} scheduled, "
            f"{len(schemas)} distinct schemas"
        )
    return manifest


def validate_docs_output(docs_dir: str) -> dict:
    """Re-validate every round's docs directory against its manifest
    (row counts from parquet footers + schema fingerprint + _SUCCESS-style
    ok flag).  Every round directory must have a manifest, the one of a
    round that fetched nothing too.  Returns {round_dir: status}; raises on
    any mismatch."""
    results = {}
    for name in sorted(os.listdir(docs_dir)):
        rd = os.path.join(docs_dir, name)
        mp = os.path.join(rd, "_manifest.json")
        if not os.path.isdir(rd):
            continue
        if not os.path.exists(mp):
            raise ValueError(f"docs round without a manifest: {rd}")
        with open(mp) as f:
            manifest = json.load(f)
        for fname, want_rows in manifest["files"].items():
            p = os.path.join(rd, fname)
            if not os.path.exists(p):
                raise ValueError(f"manifest file missing on disk: {p}")
            pf = pq.ParquetFile(p)
            if pf.metadata.num_rows != want_rows:
                raise ValueError(
                    f"row-count mismatch in {p}: {pf.metadata.num_rows} != {want_rows}"
                )
            if _schema_fingerprint(pf.schema_arrow) not in manifest["schema_fingerprints"]:
                raise ValueError(f"schema drift in {p}")
        extra = [
            f for f in os.listdir(rd)
            if f.endswith(".parquet") and f not in manifest["files"]
        ]
        if extra:
            raise ValueError(f"unmanifested parquet parts in {rd}: {extra}")
        results[name] = {"rows": manifest["total_rows"], "ok": True}
    return results


def metrics_summary(ckpt_dir: str):
    """Per-round metrics table from a checkpoint directory (the engine's
    analog of the reference's progress/metrics panes, SURVEY.md §2.1 S8 /
    §2.4 A3: processed counts and seconds-per-unit, but as queryable rows).
    """
    import pandas as pd

    rows = []
    for name in sorted(os.listdir(ckpt_dir)):
        m = re.fullmatch(r"round=(\d+)", name)
        if not m:
            continue
        p = os.path.join(ckpt_dir, name, "counters.json")
        if not os.path.exists(p):
            continue
        with open(p) as f:
            meta = json.load(f)
        total_sec = sum(meta.get("phase_sec", {}).values()) or None
        row = {"round": int(m.group(1)), **meta["counters"]}
        row["round_sec"] = round(total_sec, 3) if total_sec else None
        row["urls_per_sec"] = (
            round((row["attempted"] + row["deduped"]) / total_sec, 1) if total_sec else None
        )
        row["driver_rss_mb"] = meta.get("driver_rss_mb")
        row["seen_keys"] = meta.get("seen_keys")
        rows.append(row)
    return pd.DataFrame(sorted(rows, key=lambda r: r["round"]))
