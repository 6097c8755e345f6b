"""Run one crawl-benchmark workload and print its metrics as one JSON line.

    python3 crawlbench/run.py --workload steady_html --seed 1 --seconds 40 --trace 0

Run from the repository root.  One closed-loop client: the benchmark
process issues one ``engine.crawl.crawl`` call at a time against a local Ray
session with 2 logical CPUs (the fewest that schedule the engine's
``num_cpus=2`` fetch and extract tasks).

Inputs: a run crawls ``CORPORA`` corpora in turn, with corpus seeds
``seed * CORPORA + j``, so no one corpus' link graph sets the run's figures.

Set-up (``setup_s``): ``ray.init``; the median of the cold input builds,
one per corpus (generate the corpus into a fresh directory, build the
frontier, and for ``dup_frontier`` the round-0 base checkpoint); and one
untimed warm-up crawl over the first ``WARMUP_ROWS`` frontier rows for at
most ``WARMUP_ROUNDS`` rounds, so Ray workers exist and ``engine`` is
imported before timing.

Measurement: crawls run back to back until the next one would end after
``--seconds``; at least two.  Each is timed around the ``crawl()`` call
alone.  ``urls_per_s`` and ``first_commit_s`` are medians over the crawls;
``round_p50_s`` is the median of the intervals between successive round
commits of all the crawls.  After the window every crawl's output
is checked (``crawlbench/checks.py``); the process exits 1 when any check
fails, and 2 when the repository's engine is missing.

``--trace 1`` alternates traced and untraced crawls in the same window and
reports the per-layer metrics of the traced ones (``crawlbench/trace.py``)
plus the tracing overhead.  Each run works in its own directory under
``.crawlbench/`` in the repository root and removes it at the end.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import shutil
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CACHE = os.path.join(ROOT, ".crawlbench")
NUM_CPUS = 2
# Crawls of one run cycle through this many corpora.  The urls a crawl
# counts (attempted + deduped) follow its corpus' link graph and varied by up
# to a fifth between seeds, more than the crawl's wall time did.
CORPORA = 3
# The warm-up crawl runs this many rounds over this many frontier rows: enough
# to start every Ray worker and run every stage once, at a fraction of a
# timed crawl's cost.
WARMUP_ROUNDS = 2
WARMUP_ROWS = 64
# Every run times at least two crawls, and a traced run needs an untraced one.
MIN_CRAWLS = 2

END_TO_END_UNITS = {
    "setup_s": "s",
    "urls_per_s": "1/s",
    "first_commit_s": "s",
    "round_p50_s": "s",
    "driver_peak_rss_mb": "MB",
    "failed_share": "ratio",
}


def _ray_temp_dir() -> str | None:
    # Ray's socket paths add ~62 characters to this directory and must stay
    # under the 107-byte AF_UNIX limit; a deeper checkout keeps Ray's default.
    d = os.path.join(CACHE, "r")
    return d if len(d) <= 44 else None


def start_ray(tracer=None) -> None:
    import ray

    env = {"PYTHONPATH": os.pathsep.join(
        p for p in (ROOT, os.environ.get("PYTHONPATH")) if p)}
    runtime_env = {"env_vars": env}
    if tracer is not None:
        env.update(tracer.worker_env())
        runtime_env["worker_process_setup_hook"] = "crawlbench.trace.install_worker"
    ray.init(
        address="local",
        num_cpus=NUM_CPUS,
        include_dashboard=False,
        logging_level="ERROR",
        log_to_driver=False,
        object_store_memory=512 * 1024 * 1024,
        _temp_dir=_ray_temp_dir(),
        runtime_env=runtime_env,
        # Ray reaps workers idle for 1 s beyond the CPU count; respawning them
        # put 1-2 s spikes into every few bfs_pdf rounds.  Idle workers live
        # for the whole run instead, so each crawl meets warm workers.
        _system_config={"idle_worker_killing_time_threshold_ms": 600_000},
    )
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False
    logging.getLogger("ray.data").setLevel(logging.ERROR)


def stop_ray() -> None:
    """Shut Ray down and wait until every process it started has ended."""
    import psutil
    import ray

    procs = psutil.Process().children(recursive=True)
    ray.shutdown()
    _gone, alive = psutil.wait_procs(procs, timeout=15)
    for p in alive:
        p.kill()
    psutil.wait_procs(alive, timeout=15)
    if _ray_temp_dir():
        shutil.rmtree(_ray_temp_dir(), ignore_errors=True)


def reset_peak_rss() -> None:
    """Restart VmHWM at the current RSS, so the peak covers the crawls only."""
    with open("/proc/self/clear_refs", "w") as f:
        f.write("5")


def peak_rss_mb() -> float:
    with open("/proc/self/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM not found in /proc/self/status")


def _base_cumulative(wl) -> dict:
    from engine.checkpoint import COUNTER_KEYS

    if not wl.base_dir:
        return {k: 0 for k in COUNTER_KEYS}
    with open(os.path.join(wl.base_dir, "round=0", "counters.json")) as f:
        return json.load(f)["cumulative"]


def _commit_times(ckpt: str, first_round: int, rounds: int) -> list:
    return [
        os.stat(os.path.join(ckpt, f"round={r}", "_SUCCESS")).st_mtime
        for r in range(first_round, rounds)
    ]


def round_intervals(t0: float, commits: list) -> list:
    """Intervals between successive round commits.

    A crawl that commits a single round (``dup_frontier``) has none; its one
    interval runs from the ``crawl()`` call to that commit.
    """
    return [b - a for a, b in zip(commits, commits[1:])] or [commits[0] - t0]


def prepare(name: str, seed: int, work: str, size: str):
    """One cold set-up round: generate the corpus, build the frontier."""
    from crawlbench.workloads import build, frontier_table

    wl = build(name, seed, work, size)
    return wl, frontier_table(wl.seeds)


def measure(name: str, seed: int, seconds: float, trace: bool, size: str = "full") -> dict:
    work = os.path.join(CACHE, "runs", f"{name}-{os.getpid()}")
    tracer = None
    if trace:
        from crawlbench.trace import Tracer

        tracer = Tracer(os.path.join(work, "trace"))
        tracer.install()
    os.makedirs(work, exist_ok=True)
    t = time.time()
    start_ray(tracer)
    try:
        init_s = time.time() - t
        from crawlbench.checks import check_crawl, compute_expected
        from crawlbench.workloads import build_base, fresh_checkpoint, run_crawl

        inputs, prep_s = [], []
        for j in range(CORPORA):
            t = time.time()
            wl, frontier = prepare(name, seed * CORPORA + j, os.path.join(work, f"input{j}"), size)
            if wl.base_dir:
                build_base(wl, frontier)
            prep_s.append(time.time() - t)
            inputs.append((wl, frontier))
        t = time.time()
        wl, frontier = inputs[0]
        run_crawl(wl, fresh_checkpoint(wl, os.path.join(work, "warmup")),
                  frontier.slice(0, WARMUP_ROWS), max_rounds=WARMUP_ROUNDS)
        warm_s = time.time() - t
        setup_s = init_s + statistics.median(prep_s) + warm_s

        first_round = 1 if wl.base_dir else 0
        reset_peak_rss()
        crawls = []
        t_window = time.time()
        while True:
            i = len(crawls)
            wl, frontier = inputs[i % CORPORA]
            ckpt = fresh_checkpoint(wl, os.path.join(work, f"crawl{i}"))
            traced = tracer is not None and i % 2 == 0
            if tracer is not None:
                tracer.enable(traced)
            t0 = time.time()
            res = run_crawl(wl, ckpt, frontier)
            t1 = time.time()
            crawls.append({"res": res, "t0": t0, "t1": t1, "traced": traced,
                           "input": i % CORPORA})
            elapsed = time.time() - t_window
            typical = statistics.median(c["t1"] - c["t0"] for c in crawls)
            if len(crawls) >= MIN_CRAWLS and elapsed + typical > seconds:
                break
        t = time.time()
        spans = tracer.collect() if tracer is not None else []
        collect_s = time.time() - t
        rss = peak_rss_mb()

        t = time.time()
        expected = [compute_expected(wl) for wl, _ in inputs]
        expect_s = time.time() - t
        bases = [_base_cumulative(wl) for wl, _ in inputs]
        for c in crawls:
            c["problems"] = check_crawl(c["res"], expected[c["input"]])
            base = bases[c["input"]]
            cum = c["res"].cumulative
            c["attempted"] = cum["attempted"] - base["attempted"]
            c["fetched"] = cum["fetched"] - base["fetched"]
            c["urls_per_s"] = (c["attempted"] + cum["deduped"] - base["deduped"]) / (
                c["t1"] - c["t0"])
            commits = _commit_times(c["res"].ckpt_dir, first_round, c["res"].rounds)
            c["first_commit_s"] = commits[0] - c["t0"]
            c["intervals"] = round_intervals(c["t0"], commits)
            c["rounds"] = len(commits)
    finally:
        stop_ray()
        if tracer is not None:
            tracer.uninstall()

    attempted = sum(c["attempted"] for c in crawls)
    not_docs = sum(c["attempted"] if c["problems"] else c["attempted"] - c["fetched"]
                   for c in crawls)
    timed = [c for c in crawls if not c["traced"]]
    e2e = {
        "setup_s": setup_s,
        "urls_per_s": statistics.median(c["urls_per_s"] for c in timed),
        "first_commit_s": statistics.median(c["first_commit_s"] for c in timed),
        "round_p50_s": statistics.median(x for c in timed for x in c["intervals"]),
        "driver_peak_rss_mb": rss,
        "failed_share": not_docs / attempted,
    }
    for c in crawls:
        print(f"crawl traced={c['traced']} wall={c['t1'] - c['t0']:.3f}s "
              f"urls_per_s={c['urls_per_s']:.1f} first_commit={c['first_commit_s']:.2f}s "
              f"input={c['input']} rounds={c['rounds']} "
              f"intervals={' '.join('%.2f' % x for x in c['intervals'])}", file=sys.stderr)
    print(f"setup: init={init_s:.2f}s prepare={['%.2f' % x for x in prep_s]} "
          f"warmup={warm_s:.2f}s; span collection {collect_s:.2f}s; "
          f"oracle {expect_s:.2f}s", file=sys.stderr)
    failed = [c for c in crawls if c["problems"]]
    for c in failed:
        print(f"check failed: {'; '.join(c['problems'])}", file=sys.stderr)
    out = {
        "correct": not failed,
        "attempted": len(crawls),
        "failed": len(failed),
        "e2e": e2e,
        "crawls": crawls,
        "spans": spans,
        "frontier_rows": statistics.median(f.num_rows for _, f in inputs),
    }
    shutil.rmtree(work, ignore_errors=True)
    return out


def layer_metrics(run: dict) -> dict:
    """Per-layer metrics of the traced crawls (means per crawl)."""
    from crawlbench.trace import analyze

    traced = [c for c in run["crawls"] if c["traced"]]
    untraced = [c for c in run["crawls"] if not c["traced"]]
    n = len(traced)
    busy, counts, agg = {}, {}, {}
    overhead = fp = 0.0
    for c in traced:
        a = analyze(run["spans"], c["t0"], c["t1"])
        for k, v in a["busy"].items():
            busy[k] = busy.get(k, 0.0) + v
        for layer, cs in a["counts"].items():
            d = counts.setdefault(layer, {})
            for k, v in cs.items():
                d[k] = d.get(k, 0) + v
        for layer, (calls, incl) in a["agg"].items():
            x = agg.setdefault(layer, [0, 0.0])
            x[0] += calls
            x[1] += incl
        overhead += a["overhead_s"]
        fp += sum(s.get("bloom_false_positives", 0) for s in c["res"].seen_stats)

    def b(layer):
        return busy.get(layer, 0.0) / n

    def cnt(layer, key):
        return counts.get(layer, {}).get(key, 0)

    def ratio(x, y):
        return x / y if y else 0.0

    ups_t = statistics.median(c["urls_per_s"] for c in traced)
    ups_u = statistics.median(c["urls_per_s"] for c in untraced)
    ext_calls, ext_incl = agg.get("extract", [0, 0.0])
    m = {
        "extract.pages": (ext_calls / n, "count"),
        "extract.busy_s": (b("extract"), "s"),
        "extract.ms_per_page": (1000.0 * ratio(ext_incl, ext_calls), "ms"),
        "pdf.busy_s": (b("pdf"), "s"),
        "crawl.fetch.rows": (cnt("crawl.fetch", "rows") / n, "count"),
        "crawl.fetch.html_mb": (cnt("crawl.fetch", "html_bytes") / n / 1e6, "MB"),
        "crawl.fetch.busy_s": (b("crawl.fetch"), "s"),
        "crawl.fetch.miss_ratio": (ratio(cnt("crawl.fetch", "miss"), cnt("crawl.fetch", "rows")), "ratio"),
        "crawl.gate.busy_s": (b("crawl.gate"), "s"),
        "crawl.extract.busy_s": (b("crawl.extract"), "s"),
        "politeness.rows": (cnt("politeness", "rows") / n, "count"),
        "politeness.busy_s": (b("politeness"), "s"),
        "politeness.blocked_ratio": (ratio(cnt("politeness", "blocked"), cnt("politeness", "rows")), "ratio"),
        "seen.probes": (cnt("seen.check", "probes") / n, "count"),
        "seen.check_busy_s": (b("seen.check"), "s"),
        "seen.positive_ratio": (ratio(cnt("seen.check", "positive"), cnt("seen.check", "probes")), "ratio"),
        "seen.bloom_false_positives": (fp / n, "count"),
        "seen.adds": (cnt("seen.add", "adds") / n, "count"),
        "seen.add_busy_s": (b("seen.add"), "s"),
        "frontier.rows": (cnt("frontier", "rows") / n, "count"),
        "frontier.busy_s": (b("frontier"), "s"),
        "frontier.dup_ratio": (ratio(cnt("frontier", "dup"), cnt("frontier", "rows")), "ratio"),
        "frontier.deferred_ratio": (ratio(cnt("frontier", "deferred"), cnt("frontier", "rows")), "ratio"),
        "canonicalize.urls": (agg.get("canonicalize", [0, 0.0])[0] / n, "count"),
        "canonicalize.busy_s": (b("canonicalize"), "s"),
        "crawl.explode.links": (cnt("crawl.explode", "links") / n, "count"),
        "crawl.explode.busy_s": (b("crawl.explode"), "s"),
        "checkpoint.rounds": (cnt("checkpoint", "rounds") / n, "count"),
        "checkpoint.busy_s": (b("checkpoint"), "s"),
        "checkpoint.mb_written": (cnt("checkpoint", "bytes") / n / 1e6, "MB"),
        "crawl.overhead_s": (overhead / n, "s"),
        "crawl.rounds": (statistics.mean(c["rounds"] for c in traced), "count"),
        "crawl.first_frontier_rows": (run["frontier_rows"], "count"),
        "crawl.wall_s": (statistics.mean(c["t1"] - c["t0"] for c in traced), "s"),
        "trace.urls_per_s": (ups_t, "1/s"),
        "trace.untraced_urls_per_s": (ups_u, "1/s"),
        "trace.overhead_share": (1.0 - ups_t / ups_u, "ratio"),
    }
    return m


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "engine", "crawl.py")):
        print(f"no engine/ package under {ROOT}: run from a repository checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, ROOT)
    from crawlbench import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {WORKLOADS}", file=sys.stderr)
        return 2
    run = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    if args.trace:
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in layer_metrics(run).items()}
    else:
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in run["e2e"].items()}
    for k, m in metrics.items():
        print(f"{args.workload} {k} = {m['value']:.6g} {m['unit']}", file=sys.stderr)
    print(json.dumps({"correct": run["correct"], "attempted": run["attempted"],
                      "failed": run["failed"], "metrics": metrics}), flush=True)
    return 0 if run["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
