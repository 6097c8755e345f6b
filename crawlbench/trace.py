"""Layer tracing from outside the engine: wrappers around its public calls.

``Tracer.install()`` (driver) and ``install_worker()`` (every Ray worker, via
``runtime_env={"worker_process_setup_hook": ...}``) replace the functions in
``TARGETS`` with timing wrappers.  Modules are patched as they are imported,
through a ``sys.meta_path`` finder, so ``from .x import f`` elsewhere binds the
wrapper and a process that never imports a module (a seen-shard actor never
imports ``engine.crawl``) never pays for it.  ``engine/`` is not modified.

- Batch-level calls become spans: layer, wall-clock start and end, the
  enclosing span, and counts taken from their arguments and result.
- Per-row calls (``canonicalize``, ``extract_document``, ``parse_pdf_layout``)
  are aggregated into the enclosing span as call counts and times.
- Spans stay in process memory.  When the run ends the driver writes one byte
  to each worker's flush FIFO; a daemon thread there writes the worker's
  spans to ``spans-<pid>.json``.  A worker that exits gracefully earlier
  (Ray's idle-worker reaping) writes them from ``atexit``.
- Recording is switched on and off between crawls by the existence of the
  ``on`` file in the trace directory, checked only when a top-level span
  would open.

``analyze`` turns the spans of one crawl into per-layer self times that
partition the crawl's wall time: each instant is shared equally among the
processes that have a span open then, and within a span among its own layer
and the per-row layers it aggregated.  ``crawl.overhead_s`` is the wall time
with no span open anywhere (task launch, serialization, Ray Data writes).
"""

from __future__ import annotations

import atexit
import functools
import importlib.abc
import json
import os
import sys
import threading
import time

TRACE_ENV = "CRAWLBENCH_TRACE_DIR"


def _len(x) -> int:
    return len(x) if x is not None else 0


def _count_blocked(args, out):
    return {"rows": _len(out), "blocked": int(out.sum())}


def _count_filtered(args, out):
    return {"gate_rows": _len(out), "filtered": int(out.sum())}


def _count_probes(args, out):
    return {"probes": _len(out), "positive": int(out.sum())}


def _count_adds(args, out):
    return {"adds": _len(args[1])}


def _status_count(df, status) -> int:
    return int((df["status"] == status).sum())


def _count_dedup(args, out):
    return {"rows": _status_count(args[0], "cand"), "dup": _status_count(out, "dup"),
            "deferred": _status_count(out, "deferred")}


def _count_topk(args, out):
    return {"deferred": _status_count(out, "deferred")}


def _dir_file_bytes(path: str) -> int:
    return sum(e.stat().st_size for e in os.scandir(path) if e.is_file())


def _count_round(args, out):
    cm, r = args[0], args[1]
    return {"rounds": 1, "bytes": _dir_file_bytes(os.path.join(cm.dir, f"round={r}"))}


def _count_manifest(args, out):
    # called once the round's docs parts are written: the whole directory
    # (parts plus the manifest) is the round's docs sink output
    return {"bytes": _dir_file_bytes(args[0])}


def _count_fetch(args, out):
    import pyarrow.compute as pc

    html = out["html"]
    nbytes = pc.sum(pc.binary_length(html)).as_py() or 0
    return {"rows": out.num_rows, "html_bytes": int(nbytes), "miss": html.null_count}


def _count_links(args, out):
    return {"links": out.num_rows}


# (module, attribute, layer, kind, counter): kind "span" is a batch-level
# call recorded as a span; kind "row" is a per-row call aggregated into the
# enclosing span.
TARGETS = (
    ("engine.canonicalize", "canonicalize", "canonicalize", "row", None),
    ("engine.extract", "extract_document", "extract", "row", None),
    ("engine.pdf", "parse_pdf_layout", "pdf", "row", None),
    ("engine.politeness", "RobotsRules.blocked_many", "politeness", "span", _count_blocked),
    ("engine.politeness", "UrlGate.filtered_many", "politeness", "span", _count_filtered),
    ("engine.seen", "check_many_via_handles", "seen.check", "span", _count_probes),
    ("engine.seen", "SeenSet.add_many", "seen.add", "span", _count_adds),
    ("engine.frontier", "dedup_and_salt_topk", "frontier", "span", _count_dedup),
    ("engine.frontier", "host_topk", "frontier", "span", _count_topk),
    ("engine.frontier", "add_salt", "frontier", "span", None),
    ("engine.frontier", "global_order_indices", "frontier", "span", None),
    ("engine.checkpoint", "CheckpointManager.write_round", "checkpoint", "span", _count_round),
    ("engine.checkpoint", "CheckpointManager.read_frontier_next", "checkpoint", "span", None),
    ("engine.checkpoint", "CheckpointManager.frontier_next_rows", "checkpoint", "span", None),
    ("engine.checkpoint", "CheckpointManager.seen_hashes_through", "checkpoint", "span", None),
    ("engine.checkpoint", "write_docs_manifest", "checkpoint", "span", _count_manifest),
    ("engine.crawl", "robots_seen_batch", "crawl.gate", "span", None),
    ("engine.crawl", "_select_on_driver", "crawl.gate", "span", None),
    ("engine.crawl", "fetch_bucket_group", "crawl.fetch", "span", _count_fetch),
    ("engine.crawl", "extract_batch_fn", "crawl.extract", "span", None),
    ("engine.crawl", "explode_links_batch", "crawl.explode", "span", _count_links),
)


class Recorder:
    """One process's spans, kept in memory until ``dump``."""

    def __init__(self, flag_path: str):
        self.flag_path = flag_path
        self.spans: list = []
        self._local = threading.local()
        self._next_id = 0
        self._lock = threading.Lock()

    def stack(self) -> list:
        st = getattr(self._local, "stack", None)
        if st is None:
            st = self._local.stack = []
        return st

    def enabled(self) -> bool:
        return os.path.exists(self.flag_path)

    def span(self, fn, layer: str, counter):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            st = self.stack()
            if not st and not self.enabled():
                return fn(*args, **kwargs)
            parent = next((f for f in reversed(st) if f["sid"] is not None), None)
            with self._lock:
                self._next_id += 1
                sid = f"{os.getpid()}:{self._next_id}"
            frame = {"sid": sid, "child": 0.0, "agg": {}, "counts": {}}
            st.append(frame)
            t0, p0 = time.time(), time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                dur = time.perf_counter() - p0
                st.pop()
                if st:
                    st[-1]["child"] += dur
                self.spans.append({
                    "id": sid, "parent": parent["sid"] if parent else None,
                    "layer": layer, "t0": t0, "t1": t0 + dur,
                    "self": dur - frame["child"], "agg": frame["agg"],
                    "counts": frame["counts"],
                })
            if counter is not None:
                frame["counts"].update(counter(args, out))
            return out

        return wrapper

    def row(self, fn, layer: str):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            st = self.stack()
            if not st:
                return fn(*args, **kwargs)
            frame = {"sid": None, "child": 0.0}
            st.append(frame)
            p0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = time.perf_counter() - p0
                st.pop()
                st[-1]["child"] += dur
                owner = next(f for f in reversed(st) if f["sid"] is not None)
                a = owner["agg"].setdefault(layer, [0, 0.0, 0.0])
                a[0] += 1
                a[1] += dur
                a[2] += dur - frame["child"]

        return wrapper

    def dump(self, path: str) -> None:
        tmp = f"{path}.tmp"
        with open(tmp, "w") as f:
            json.dump({"pid": os.getpid(), "spans": list(self.spans)}, f)
        os.replace(tmp, path)


class _PatchingLoader(importlib.abc.Loader):
    """Delegates to a module's own loader, then patches the fresh module."""

    def __init__(self, loader, after):
        self._loader = loader
        self._after = after

    def create_module(self, spec):
        return self._loader.create_module(spec)

    def exec_module(self, module):
        self._loader.exec_module(module)
        self._after(module)

    def __getattr__(self, name):
        return getattr(self._loader, name)


class _Patcher(importlib.abc.MetaPathFinder):
    """Applies ``TARGETS`` to each engine module right after it executes."""

    def __init__(self, rec: Recorder):
        self.rec = rec
        self.by_module: dict = {}
        for t in TARGETS:
            self.by_module.setdefault(t[0], []).append(t)
        self.undo: list = []

    def find_spec(self, name, path, target=None):
        if name not in self.by_module:
            return None
        for finder in sys.meta_path:
            if finder is self or not hasattr(finder, "find_spec"):
                continue
            spec = finder.find_spec(name, path, target)
            if spec is not None:
                spec.loader = _PatchingLoader(spec.loader, self.patch)
                return spec
        return None

    def patch(self, module) -> None:
        for _mod, attr, layer, kind, counter in self.by_module.get(module.__name__, ()):
            owner, name = module, attr
            if "." in attr:
                cls_name, name = attr.split(".")
                owner = getattr(module, cls_name)
            fn = owner.__dict__[name] if isinstance(owner, type) else getattr(owner, name)
            wrapped = self.rec.row(fn, layer) if kind == "row" else self.rec.span(fn, layer, counter)
            setattr(owner, name, wrapped)
            self.undo.append((owner, name, fn))


def _install(rec: Recorder) -> _Patcher:
    patcher = _Patcher(rec)
    loaded = [m for m in patcher.by_module if m in sys.modules]
    if loaded:
        raise RuntimeError(f"install tracing before importing {loaded}")
    sys.meta_path.insert(0, patcher)
    return patcher


def install_worker() -> None:
    """Ray ``worker_process_setup_hook``: trace this worker process."""
    trace_dir = os.environ.get(TRACE_ENV)
    if not trace_dir:
        return
    rec = Recorder(os.path.join(trace_dir, "on"))
    _install(rec)
    out = os.path.join(trace_dir, f"spans-{os.getpid()}.json")
    fifo = os.path.join(trace_dir, f"flush-{os.getpid()}.fifo")
    os.mkfifo(fifo)

    def await_flush():
        with open(fifo, "rb") as f:
            f.read(1)
        rec.dump(out)

    threading.Thread(target=await_flush, daemon=True).start()
    atexit.register(lambda: os.path.exists(out) or rec.dump(out))


class Tracer:
    """Driver side: install, switch recording per crawl, collect all spans."""

    def __init__(self, trace_dir: str):
        self.dir = trace_dir
        os.makedirs(trace_dir, exist_ok=True)
        self.rec = Recorder(os.path.join(trace_dir, "on"))
        self._patcher = None

    def install(self) -> None:
        self._patcher = _install(self.rec)

    def uninstall(self) -> None:
        """Restore the engine's own functions (for tests sharing a process)."""
        if self._patcher is None:
            return
        sys.meta_path.remove(self._patcher)
        for owner, name, fn in reversed(self._patcher.undo):
            setattr(owner, name, fn)
        self._patcher = None

    def worker_env(self) -> dict:
        return {TRACE_ENV: self.dir}

    def enable(self, on: bool) -> None:
        flag = os.path.join(self.dir, "on")
        if on:
            open(flag, "w").close()
        elif os.path.exists(flag):
            os.remove(flag)

    def collect(self, timeout: float = 20.0) -> list:
        """Every process's spans: flush live workers, read their files."""
        self.enable(False)
        pending = {}
        for name in sorted(os.listdir(self.dir)):
            if not name.startswith("flush-"):
                continue
            pid = int(name[len("flush-"):-len(".fifo")])
            try:
                fd = os.open(os.path.join(self.dir, name), os.O_WRONLY | os.O_NONBLOCK)
            except OSError:  # ENXIO: the worker has exited
                continue
            try:
                os.write(fd, b"x")
            finally:
                os.close(fd)
            pending[pid] = os.path.join(self.dir, f"spans-{pid}.json")

        def waiting() -> list:
            # a worker killed after the write (the last crawl's seen-shard
            # actors) never writes its file: stop waiting once it is gone
            return [pid for pid, p in pending.items()
                    if not os.path.exists(p) and os.path.exists(f"/proc/{pid}")]

        deadline = time.time() + timeout
        while waiting() and time.time() < deadline:
            time.sleep(0.05)
        if waiting():
            print(f"trace: workers {waiting()} did not write their spans", file=sys.stderr)
        spans = list(self.rec.spans)
        for name in os.listdir(self.dir):
            if name.startswith("spans-") and name.endswith(".json"):
                with open(os.path.join(self.dir, name)) as f:
                    spans.extend(json.load(f)["spans"])
        return spans


def _subtract(lo: float, hi: float, holes: list) -> list:
    """[lo, hi] minus the union of ``holes`` (intervals), as disjoint segments."""
    segs, cur = [], lo
    for a, b in sorted(holes):
        if a > cur:
            segs.append((cur, min(a, hi)))
        cur = max(cur, b)
        if cur >= hi:
            break
    if cur < hi:
        segs.append((cur, hi))
    return [(a, b) for a, b in segs if b > a]


def analyze(spans: list, t0: float, t1: float) -> dict:
    """Per-layer busy seconds and counts for the spans that start in [t0, t1].

    Returns ``{"busy": {layer: s}, "counts": {layer: {k: n}}, "agg":
    {layer: [calls, inclusive_s]}, "overhead_s": s, "wall_s": s}``; the busy
    times plus ``overhead_s`` add up to ``wall_s``.
    """
    inside = [s for s in spans if t0 <= s["t0"] <= t1]
    children: dict = {}
    for s in inside:
        children.setdefault(s["parent"], []).append((s["t0"], s["t1"]))
    events = []  # (time, +1/-1, span index)
    for i, s in enumerate(inside):
        lo, hi = max(s["t0"], t0), min(s["t1"], t1)
        for a, b in _subtract(lo, hi, children.get(s["id"], [])):
            events.append((a, 1, i))
            events.append((b, -1, i))
    events.sort(key=lambda e: (e[0], e[1]))
    attributed = [0.0] * len(inside)
    active: set = set()
    last = None
    for t, kind, i in events:
        if active and last is not None and t > last:
            share = (t - last) / len(active)
            for j in active:
                attributed[j] += share
        last = t
        if kind > 0:
            active.add(i)
        else:
            active.discard(i)
    busy: dict = {}
    counts: dict = {}
    agg_incl: dict = {}
    for s, attr in zip(inside, attributed):
        parts = {s["layer"]: max(s["self"], 0.0)}
        for layer, (calls, incl, self_s) in s["agg"].items():
            parts[layer] = parts.get(layer, 0.0) + max(self_s, 0.0)
            a = agg_incl.setdefault(layer, [0, 0.0])
            a[0] += calls
            a[1] += incl
        total = sum(parts.values())
        for layer, v in parts.items():
            share = v / total if total > 0 else float(layer == s["layer"])
            busy[layer] = busy.get(layer, 0.0) + attr * share
        c = counts.setdefault(s["layer"], {})
        for k, v in s["counts"].items():
            c[k] = c.get(k, 0) + v
    wall = t1 - t0
    return {"busy": busy, "counts": counts, "agg": agg_incl,
            "overhead_s": wall - sum(attributed), "wall_s": wall}
