"""Fast tests of the benchmark itself, on the tiny workload sizes.

    python3 -m pytest crawlbench -q

Run from the repository root.  Each test runs in a fresh spawned process:
tracing must be installed before ``engine`` is first imported, and each
process owns one Ray session.
"""

from __future__ import annotations

import multiprocessing
import os
import shutil

import pytest

from crawlbench import WORKLOADS

SEED = 3


def _in_fresh_process(fn, *args):
    with multiprocessing.get_context("spawn").Pool(1) as pool:
        return pool.apply(fn, args)


def _traced_tiny_run(name: str) -> dict:
    from crawlbench import run
    from crawlbench.trace import analyze

    out = run.measure(name, SEED, seconds=0, trace=True, size="tiny")
    accounts = []
    for c in out["crawls"]:
        if c["traced"]:
            a = analyze(out["spans"], c["t0"], c["t1"])
            accounts.append({"busy": a["busy"], "overhead_s": a["overhead_s"],
                             "wall_s": c["t1"] - c["t0"]})
    return {"correct": out["correct"], "failed": out["failed"],
            "problems": [c["problems"] for c in out["crawls"]],
            "e2e": out["e2e"], "accounts": accounts,
            "layers": run.layer_metrics(out)}


@pytest.mark.parametrize("name", WORKLOADS)
def test_tiny_workload_passes_checks_and_self_times_fit_wall(name):
    r = _in_fresh_process(_traced_tiny_run, name)
    assert r["correct"] and r["failed"] == 0, r["problems"]

    from crawlbench.run import END_TO_END_UNITS

    assert set(r["e2e"]) == set(END_TO_END_UNITS)
    assert all(v > 0 for v in r["e2e"].values()), r["e2e"]

    assert r["accounts"]
    for a in r["accounts"]:
        assert all(v >= 0 for v in a["busy"].values()), a["busy"]
        assert a["overhead_s"] >= 0, a
        assert sum(a["busy"].values()) + a["overhead_s"] <= a["wall_s"] + 1e-6, a
    layers = r["layers"]
    busy = sum(v for k, (v, _unit) in layers.items() if k.endswith("busy_s"))
    assert busy + layers["crawl.overhead_s"][0] <= layers["crawl.wall_s"][0] + 1e-6
    assert layers["checkpoint.mb_written"][0] > 0
    if name == "bfs_pdf":
        assert layers["pdf.busy_s"][0] > 0
    else:
        assert layers["pdf.busy_s"][0] == 0


def _corrupted_docs_problems() -> dict:
    import pyarrow.compute as pc
    import pyarrow.parquet as pq

    from crawlbench import run
    from crawlbench.checks import check_crawl, compute_expected
    from crawlbench.workloads import build, frontier_table, run_crawl

    work = os.path.join(run.CACHE, "runs", f"test-corrupt-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    run.start_ray()
    try:
        wl = build("steady_html", SEED, work, "tiny")
        res = run_crawl(wl, os.path.join(work, "ckpt"), frontier_table(wl.seeds))
        expected = compute_expected(wl)
        found = {"intact": check_crawl(res, expected)}

        round0 = os.path.join(res.docs_dir, "round=0")
        part = os.path.join(round0, sorted(f for f in os.listdir(round0)
                                           if f.endswith(".parquet"))[0])
        t = pq.read_table(part)
        i = t.schema.get_field_index("markdown")
        edited = pc.binary_join_element_wise(t["markdown"], "x", "")
        pq.write_table(t.set_column(i, t.schema.field(i), edited), part)
        found["edited_markdown"] = check_crawl(res, expected)

        os.remove(part)
        found["missing_part"] = check_crawl(res, expected)
        return found
    finally:
        run.stop_ray()
        shutil.rmtree(work, ignore_errors=True)


def test_output_check_rejects_corrupted_docs_part():
    found = _in_fresh_process(_corrupted_docs_problems)
    assert found["intact"] == []
    assert any("docs digest" in p for p in found["edited_markdown"]), found
    assert any("docs validation" in p for p in found["missing_part"]), found
