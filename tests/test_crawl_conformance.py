"""Conformance: distributed engine == sequential oracle (SURVEY.md §5.2-§5.4).

The three north-star invariants on the same seed list + politeness budget:
(a) crawl ordering, (b) final URL-seen set, (c) byte-identical extracted text
per url — plus counters and deterministic resume from checkpoint.
"""

import json
import os
import shutil
from collections import Counter
from glob import glob

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

BUDGET = {"max_urls_total": 400, "max_per_host_per_round": 6, "max_depth": 6, "max_rounds": 10}


@pytest.fixture(scope="module")
def crawl_pair(small_corpus, tmp_path_factory):
    """Run oracle + engine once on the shared corpus; reuse across asserts."""
    from engine.crawl import crawl
    from engine.oracle import crawl_oracle

    corpus_dir, _cfg = small_corpus
    ckpt = str(tmp_path_factory.mktemp("ckpt"))
    oracle = crawl_oracle(corpus_dir, BUDGET)
    engine = crawl(corpus_dir, ckpt, BUDGET)
    return corpus_dir, oracle, engine


def test_crawl_order_matches(crawl_pair):
    _c, oracle, engine = crawl_pair
    got = engine.order_table().to_pylist()
    want = oracle["order"]
    assert len(got) == len(want) and len(got) > 50
    for a, b in zip(got, want):
        assert (a["fetch_seq"], a["url"]) == (b["fetch_seq"], b["url"])
        assert (a["depth"], a["priority"], a["discovery_seq"]) == (
            b["depth"], b["priority"], b["discovery_seq"],
        )


def test_seen_set_matches(crawl_pair):
    _c, oracle, engine = crawl_pair
    assert set(engine.seen_hashes().tolist()) == oracle["seen_hashes"]


def test_counters_match_per_round(crawl_pair):
    _c, oracle, engine = crawl_pair
    assert engine.cumulative == oracle["cumulative"]
    for r, want in enumerate(oracle["round_counters"]):
        with open(os.path.join(engine.ckpt_dir, f"round={r}", "counters.json")) as f:
            meta = json.load(f)
        assert meta["counters"] == want, f"round {r}"
        assert meta["parent_round"] == r - 1


def test_one_checkpoint_layout(crawl_pair):
    """A driver-path crawl writes the same round layout as the distributed
    one: schedule parts under round=R/selected/, whose url_hash column is the
    round's seen delta — no selected.parquet or seen_delta.parquet."""
    import pyarrow.compute as pc

    from engine.checkpoint import read_seen_delta, selected_files

    _c, _oracle, engine = crawl_pair
    order = engine.order_table()
    for r in range(engine.rounds):
        rd = os.path.join(engine.ckpt_dir, f"round={r}")
        assert os.path.isdir(os.path.join(rd, "selected")), f"round {r}"
        assert not os.path.exists(os.path.join(rd, "selected.parquet"))
        assert not os.path.exists(os.path.join(rd, "seen_delta.parquet"))
        want = order.filter(pc.equal(order["round"], r))["url_hash"].to_pylist()
        assert bool(selected_files(engine.ckpt_dir, r)) == bool(want), f"round {r}"
        assert read_seen_delta(engine.ckpt_dir, r).tolist() == want, f"round {r}"


def test_extracted_text_byte_identical(crawl_pair):
    corpus_dir, oracle, engine = crawl_pair
    golden = {}
    for f in glob(os.path.join(corpus_dir, "pages", "bucket=*", "*.parquet")):
        t = pq.read_table(f, columns=["url", "text"])
        golden.update(zip(t["url"].to_pylist(), t["text"].to_pylist()))
    docs = engine.docs_dataset().to_pandas()
    hits = docs[docs.status == "hit"]
    assert len(hits) == engine.cumulative["fetched"]
    for u, m in zip(hits.url, hits.markdown):
        assert golden[u] == m, u
        assert oracle["docs"][u] == m, u


def test_retry_and_failure_coverage(crawl_pair):
    """Dead links exist in the corpus, so the retry path must actually run."""
    _c, oracle, _e = crawl_pair
    assert oracle["cumulative"]["retried"] > 0
    assert oracle["cumulative"]["failed"] >= 0
    assert oracle["cumulative"]["deduped"] > 0


def test_robots_blocking_fires(small_corpus, tmp_path):
    """A seed pointing into a disallowed host must be robots-blocked, not fetched."""
    from engine.crawl import crawl
    from engine.oracle import crawl_oracle

    corpus_dir, _cfg = small_corpus
    variant = tmp_path / "corpus_robots"
    variant.mkdir()
    os.symlink(os.path.join(corpus_dir, "pages"), variant / "pages")
    for f in ("robots.parquet", "budget.parquet", "_corpus.json"):
        shutil.copy(os.path.join(corpus_dir, f), variant / f)
    pq.write_table(
        pa.table({
            "url": pa.array([
                "https://h13.example.test/d0/p1.html",   # fully disallowed host
                "https://h7.example.test/d3/p2.html",    # disallowed prefix
                "https://h7.example.test/d2/p3.html",    # allowed (may 404)
            ]),
            "priority": pa.array([0, 0, 0], pa.int32()),
        }),
        variant / "seeds.parquet",
    )
    budget = {"max_urls_total": 10, "max_per_host_per_round": 4, "max_depth": 1, "max_rounds": 2}
    oracle = crawl_oracle(str(variant), budget)
    engine = crawl(str(variant), str(tmp_path / "ckpt"), budget)
    assert oracle["cumulative"]["robots_blocked"] == 2
    assert engine.cumulative == oracle["cumulative"]


def test_distributed_selection_path_matches_oracle(small_corpus, tmp_path, monkeypatch):
    """Force every round into P = 16 url_hash range tasks and re-check
    conformance: counters, order and seen set equal the oracle's, each round
    writes one schedule part, and the fetch step launches min(buckets,
    slots) tasks a round.  Under a tight budget the cut spills one overflow
    part and still matches, and a resume through P > 1 rounds reproduces
    the full run."""
    import ray

    import engine.crawl as crawl_mod
    from engine.checkpoint import read_seen_delta
    from engine.oracle import crawl_oracle

    monkeypatch.setattr(crawl_mod, "SMALL_FRONTIER_ROWS", 0)
    # the fetch step spreads the round's buckets over the free fetch slots:
    # min(buckets, slots) tasks
    launched = Counter()
    fetch_remote = crawl_mod._fetch_extract_remote

    class FetchSpy:
        def remote(self, *args, **kwargs):
            launched[args[4]] += 1  # the round's docs dir
            return fetch_remote.remote(*args, **kwargs)

    monkeypatch.setattr(crawl_mod, "_fetch_extract_remote", FetchSpy())
    corpus_dir, cfg = small_corpus
    budget = {"max_urls_total": 150, "max_per_host_per_round": 5, "max_depth": 5, "max_rounds": 6}
    oracle = crawl_oracle(corpus_dir, budget)
    ck = str(tmp_path / "ckpt_dist")
    engine = crawl_mod.crawl(corpus_dir, ck, budget)
    assert launched and max(launched.values()) <= cfg.n_buckets, launched
    slots = max(1, int(ray.cluster_resources()["CPU"]) // crawl_mod._FETCH_CPUS)
    for r in range(engine.rounds):
        buckets = set((read_seen_delta(ck, r) % cfg.n_buckets).tolist())
        assert launched[os.path.join(ck, "docs", f"round={r}")] == min(len(buckets), slots), r
        assert os.listdir(os.path.join(ck, f"round={r}", "selected")) == ["part_00000.parquet"]
    assert engine.cumulative == oracle["cumulative"]
    got = engine.order_table().to_pylist()
    assert [(r["fetch_seq"], r["url"]) for r in got] == [
        (r["fetch_seq"], r["url"]) for r in oracle["order"]
    ]
    assert set(engine.seen_hashes().tolist()) == oracle["seen_hashes"]

    # tight budget: the cut fires mid-round and the rest of the round's
    # candidates spill into its one overflow part
    tight = dict(budget, max_urls_total=25)
    t_oracle = crawl_oracle(corpus_dir, tight)
    t_dir = str(tmp_path / "ckpt_dist_tight")
    t_engine = crawl_mod.crawl(corpus_dir, t_dir, tight)
    assert t_engine.cumulative == t_oracle["cumulative"]
    assert t_engine.cumulative["attempted"] == 25
    assert [(x["fetch_seq"], x["url"]) for x in t_engine.order_table().to_pylist()] == [
        (x["fetch_seq"], x["url"]) for x in t_oracle["order"]
    ]
    overflow = [glob(os.path.join(t_dir, f"round={r}", "frontier_deferred", "overflow_*.parquet"))
                for r in range(t_engine.rounds)]
    assert any(overflow), "the budget cut never spilled"
    assert max(map(len, overflow)) == 1

    # stop after round 1, resume through P > 1 rounds: bit-identical
    b = str(tmp_path / "ckpt_dist_resume")
    crawl_mod.crawl(corpus_dir, b, budget, stop_after_round=1)
    resumed = crawl_mod.crawl(corpus_dir, b, budget)
    assert resumed.cumulative == engine.cumulative
    assert resumed.order_table().to_pylist() == engine.order_table().to_pylist()
    assert set(resumed.seen_hashes().tolist()) == set(engine.seen_hashes().tolist())


def test_hot_host_skew_distributed_path(tmp_path, ray_session, monkeypatch):
    """Extreme host skew (4 hosts, ~40% on the hot one) through the salted
    distributed selection; engine == oracle on order + counters."""
    import engine.crawl as crawl_mod
    from engine.oracle import crawl_oracle
    from engine.synth import CorpusConfig, generate_corpus

    monkeypatch.setattr(crawl_mod, "SMALL_FRONTIER_ROWS", 0)
    corpus = str(tmp_path / "skew_corpus")
    generate_corpus(corpus, CorpusConfig(n_pages=300, n_hosts=4, n_buckets=4, with_golden=False), use_ray=False)
    budget = {"max_urls_total": 200, "max_per_host_per_round": 4, "max_depth": 5, "max_rounds": 8}
    oracle = crawl_oracle(corpus, budget)
    engine = crawl_mod.crawl(corpus, str(tmp_path / "ckpt_skew"), budget)
    assert engine.cumulative == oracle["cumulative"]
    got = engine.order_table().to_pylist()
    assert [(x["fetch_seq"], x["url"]) for x in got] == [
        (x["fetch_seq"], x["url"]) for x in oracle["order"]
    ]


def test_stage2_sees_at_most_p_k_candidates_per_host(small_corpus, tmp_path, monkeypatch):
    """When P > 1 the range tasks run dedup_and_salt_topk in Ray workers,
    so the driver's one call a round is stage 2's: its input holds only the
    ranges' candidates, at most P*k per host, and some host brings more
    than k of them, so stage 2's cut is exercised.  The crawl equals the
    oracle."""
    import engine.crawl as crawl_mod
    from engine.oracle import crawl_oracle

    monkeypatch.setattr(crawl_mod, "SMALL_FRONTIER_ROWS", 0)
    ps, inputs = [], []
    split, topk = crawl_mod._split_ranges, crawl_mod.dedup_and_salt_topk

    def split_spy(extra, keys, p):
        ps.append(p)
        return split(extra, keys, p)

    def topk_spy(df, k):
        per_host = df.groupby("host").size()
        inputs.append((set(df["status"]), int(per_host.max()) if len(df) else 0, k))
        return topk(df, k)

    monkeypatch.setattr(crawl_mod, "_split_ranges", split_spy)
    monkeypatch.setattr(crawl_mod, "dedup_and_salt_topk", topk_spy)
    corpus_dir, _cfg = small_corpus
    budget = {"max_urls_total": 150, "max_per_host_per_round": 5, "max_depth": 5, "max_rounds": 6}
    engine = crawl_mod.crawl(corpus_dir, str(tmp_path / "ckpt"), budget)
    assert len(ps) == len(inputs) == engine.rounds
    for p, (statuses, per_host, k) in zip(ps, inputs):
        assert p == 16 and statuses <= {"cand"}
        assert per_host <= p * k
    assert any(per_host > k for _, per_host, k in inputs), inputs
    assert engine.cumulative == crawl_oracle(corpus_dir, budget)["cumulative"]


def test_resume_reproduces_uninterrupted_run(small_corpus, tmp_path):
    from engine.crawl import crawl

    corpus_dir, _cfg = small_corpus
    a = str(tmp_path / "ckpt_a")
    b = str(tmp_path / "ckpt_b")
    full = crawl(corpus_dir, a, BUDGET)
    crawl(corpus_dir, b, BUDGET, stop_after_round=2)     # simulated kill
    resumed = crawl(corpus_dir, b, BUDGET)               # resume from round 3
    assert resumed.cumulative == full.cumulative
    x = full.order_table().to_pylist()
    y = resumed.order_table().to_pylist()
    assert [(r["fetch_seq"], r["url"]) for r in x] == [(r["fetch_seq"], r["url"]) for r in y]
    assert set(full.seen_hashes().tolist()) == set(resumed.seen_hashes().tolist())


def test_fresh_crawl_clears_earlier_rounds(small_corpus, tmp_path):
    """resume=False starts over: rounds and docs of an earlier, longer crawl
    into the same directory must not survive into the new crawl's docs or a
    later resume."""
    from engine.crawl import crawl
    from engine.frontier import seeds_to_frontier

    corpus_dir, _cfg = small_corpus
    budget = {"max_urls_total": 60, "max_per_host_per_round": 4, "max_depth": 4, "max_rounds": 4}
    ck = str(tmp_path / "ckpt")
    first = crawl(corpus_dir, ck, budget)
    assert first.rounds > 1

    one = seeds_to_frontier(os.path.join(corpus_dir, "seeds.parquet")).slice(0, 1)
    b = crawl(corpus_dir, ck, budget, resume=False, initial_frontier=one, stop_after_round=0)
    assert b.cumulative["attempted"] == 1
    assert b.docs_dataset().count() == 1
    assert sorted(n for n in os.listdir(ck) if n.startswith("round=")) == ["round=0"]

    resumed = crawl(corpus_dir, ck, budget)  # continues the one-url crawl
    want = crawl(corpus_dir, str(tmp_path / "want"), budget, initial_frontier=one)
    assert resumed.cumulative == want.cumulative
    assert resumed.order_table().to_pylist() == want.order_table().to_pylist()


def test_resume_refuses_config_mismatch(small_corpus, tmp_path):
    from engine.crawl import crawl

    corpus_dir, _cfg = small_corpus
    ck = str(tmp_path / "ckpt")
    crawl(corpus_dir, ck, BUDGET, stop_after_round=1)
    with pytest.raises(ValueError, match="different config"):
        crawl(corpus_dir, ck, {**BUDGET, "max_urls_total": 999})


def test_resume_checks_the_docs_it_builds_on(small_corpus, tmp_path):
    """A resume validates the checkpoint's docs against their manifests
    before it builds on them: a lost docs part of a complete round is
    refused, not resumed past."""
    from engine.crawl import crawl

    corpus_dir, _cfg = small_corpus
    ck = str(tmp_path / "ckpt")
    crawl(corpus_dir, ck, BUDGET, stop_after_round=1)
    os.remove(sorted(glob(os.path.join(ck, "docs", "round=0", "*.parquet")))[0])
    with pytest.raises(ValueError, match="missing on disk"):
        crawl(corpus_dir, ck, BUDGET)


def test_resume_requires_every_docs_manifest(small_corpus, tmp_path):
    """A complete round whose docs manifest and one part were lost is
    refused on resume: a docs round without a manifest does not pass."""
    from engine.crawl import crawl

    corpus_dir, _cfg = small_corpus
    ck = str(tmp_path / "ckpt")
    crawl(corpus_dir, ck, BUDGET, stop_after_round=1)
    os.remove(os.path.join(ck, "docs", "round=0", "_manifest.json"))
    os.remove(sorted(glob(os.path.join(ck, "docs", "round=0", "*.parquet")))[0])
    with pytest.raises(ValueError, match="without a manifest"):
        crawl(corpus_dir, ck, BUDGET)


def test_resume_drops_the_interrupted_rounds_docs(crawl_pair, tmp_path):
    """Docs left by the interrupted round (past the last complete one, no
    manifest) do not block a resume: the round runs again from scratch and
    the crawl still matches the oracle."""
    from engine.checkpoint import validate_docs_output
    from engine.crawl import crawl

    corpus_dir, oracle, _engine = crawl_pair
    ck = str(tmp_path / "ckpt")
    crawl(corpus_dir, ck, BUDGET, stop_after_round=1)
    leftover = os.path.join(ck, "docs", "round=2")
    os.makedirs(leftover)
    stray = os.path.join(leftover, "part_999999999999.parquet")
    shutil.copy(sorted(glob(os.path.join(ck, "docs", "round=1", "*.parquet")))[0], stray)
    resumed = crawl(corpus_dir, ck, BUDGET)
    assert not os.path.exists(stray)
    assert resumed.cumulative == oracle["cumulative"]
    assert [(r["fetch_seq"], r["url"]) for r in resumed.order_table().to_pylist()] == [
        (r["fetch_seq"], r["url"]) for r in oracle["order"]
    ]
    assert set(resumed.seen_hashes().tolist()) == oracle["seen_hashes"]
    assert len(validate_docs_output(resumed.docs_dir)) == resumed.rounds


def test_rerun_fetch_task_overwrites_its_parts(crawl_pair, small_corpus, tmp_path, monkeypatch):
    """A fetch task that dies after writing its parts is re-run by Ray; the
    re-run overwrites the same parts instead of adding to them, so the crawl
    matches the oracle, the docs manifests hold and each round has one docs
    part and one children part per fetch task: min(buckets it fetched,
    slots)."""
    import ray

    import engine.crawl as crawl_mod
    from engine.checkpoint import read_seen_delta, validate_docs_output

    corpus_dir, oracle, _engine = crawl_pair
    n_buckets = small_corpus[1].n_buckets
    marker = str(tmp_path / "died")

    def dies_once(*args, **kwargs):
        import os

        import engine.crawl

        out = engine.crawl._fetch_extract_feed(*args, **kwargs)
        try:
            os.close(os.open(marker, os.O_CREAT | os.O_EXCL))
        except FileExistsError:
            return out
        os._exit(1)  # the first task dies once its parts are on disk

    monkeypatch.setattr(
        crawl_mod, "_fetch_extract_remote", ray.remote(max_retries=1)(dies_once)
    )
    ck = str(tmp_path / "ckpt")
    engine = crawl_mod.crawl(corpus_dir, ck, BUDGET)
    assert os.path.exists(marker), "no fetch task died"
    assert engine.cumulative == oracle["cumulative"]
    assert [(r["fetch_seq"], r["url"]) for r in engine.order_table().to_pylist()] == [
        (r["fetch_seq"], r["url"]) for r in oracle["order"]
    ]
    validate_docs_output(engine.docs_dir)
    slots = max(1, int(ray.cluster_resources()["CPU"]) // crawl_mod._FETCH_CPUS)
    for r in range(engine.rounds):
        buckets = set((read_seen_delta(ck, r) % n_buckets).tolist())
        for d in (os.path.join(ck, "docs", f"round={r}"),
                  os.path.join(ck, f"round={r}", "frontier_children")):
            want = min(len(buckets), slots)
            assert len(glob(os.path.join(d, "*.parquet"))) == want, (r, d)


# a round with politeness-deferred rows, a re-queued retry and a final miss
KILL_ROUND = 4


class _Killed(Exception):
    """The driver dies here: ``crawl()`` cleans nothing up on the way out,
    so the disk is left as a kill leaves it."""


def _kill_before_success(monkeypatch, crawl_mod, ck):
    """After the round's docs and ``counters.json``, before ``_SUCCESS``."""
    import engine.checkpoint as ckpt

    write, rd = ckpt._write_atomic, os.path.join(ck, f"round={KILL_ROUND}")

    def killed(path, text):
        if path == os.path.join(rd, "_SUCCESS"):
            raise _Killed
        write(path, text)

    monkeypatch.setattr(ckpt, "_write_atomic", killed)
    return lambda: os.path.exists(os.path.join(rd, "counters.json")) and os.path.exists(
        os.path.join(ck, "docs", f"round={KILL_ROUND}", "_manifest.json")
    )


def _kill_in_select(monkeypatch, crawl_mod, ck):
    """Inside ``_select``, once the first ``_close_block`` wrote its part."""
    close = crawl_mod._close_block
    target = os.path.join(ck, f"round={KILL_ROUND}", "frontier_deferred")

    def killed(t, deferred_dir):
        out = close(t, deferred_dir)
        if deferred_dir == target and os.listdir(target):
            raise _Killed
        return out

    monkeypatch.setattr(crawl_mod, "_close_block", killed)
    return lambda: glob(os.path.join(target, "deferred_*.parquet"))


def _kill_in_schedule(monkeypatch, crawl_mod, ck):
    """Inside ``_schedule``, once the round's ``selected/`` part is written."""
    finalize = crawl_mod._finalize_block

    def killed(*args):
        out = finalize(*args)  # the round's schedule part is on disk
        if args[3] == KILL_ROUND:
            raise _Killed
        return out

    monkeypatch.setattr(crawl_mod, "_finalize_block", killed)
    return lambda: glob(os.path.join(ck, f"round={KILL_ROUND}", "selected", "*.parquet"))


def _in_ranges(kill):
    """``kill`` in a crawl whose every round selects in P = 16 range tasks,
    so the in-process close that ``_kill_in_select`` stops at is stage 2's."""

    def at_p16(monkeypatch, crawl_mod, ck):
        monkeypatch.setattr(crawl_mod, "SMALL_FRONTIER_ROWS", 0)
        return kill(monkeypatch, crawl_mod, ck)

    return at_p16


@pytest.mark.parametrize(
    "kill",
    [_kill_before_success, _kill_in_select, _kill_in_schedule,
     _in_ranges(_kill_in_select), _in_ranges(_kill_in_schedule)],
    ids=["before_success", "in_select", "in_schedule", "in_select_p16", "in_schedule_p16"],
)
def test_resume_after_kill_matches_oracle(crawl_pair, tmp_path, monkeypatch, kill):
    """A driver killed mid-round leaves the round's partial files on disk
    without ``_SUCCESS``.  The resume re-runs that round from the complete
    rounds alone — the seen value is rebuilt from their ``selected/`` parts,
    not the killed round's — and matches the oracle on counters, order and
    seen set, with every docs manifest valid.  The resume selects at the
    killed crawl's SMALL_FRONTIER_ROWS."""
    import engine.crawl as crawl_mod
    from engine.checkpoint import validate_docs_output

    corpus_dir, oracle, _engine = crawl_pair
    ck = str(tmp_path / "ckpt")
    left_behind = kill(monkeypatch, crawl_mod, ck)
    small = crawl_mod.SMALL_FRONTIER_ROWS
    with pytest.raises(_Killed):
        crawl_mod.crawl(corpus_dir, ck, BUDGET)
    monkeypatch.undo()
    monkeypatch.setattr(crawl_mod, "SMALL_FRONTIER_ROWS", small)
    assert left_behind(), "the kill left none of the round's files"
    assert not os.path.exists(os.path.join(ck, f"round={KILL_ROUND}", "_SUCCESS"))

    resumed = crawl_mod.crawl(corpus_dir, ck, BUDGET)
    assert resumed.cumulative == oracle["cumulative"]
    for r, want in enumerate(oracle["round_counters"]):
        with open(os.path.join(ck, f"round={r}", "counters.json")) as f:
            assert json.load(f)["counters"] == want, f"round {r}"
    assert [(r["fetch_seq"], r["url"]) for r in resumed.order_table().to_pylist()] == [
        (r["fetch_seq"], r["url"]) for r in oracle["order"]
    ]
    assert set(resumed.seen_hashes().tolist()) == oracle["seen_hashes"]
    assert len(validate_docs_output(resumed.docs_dir)) == resumed.rounds


def test_lazy_frontier_max_discovery_seq_from_footers(tmp_path):
    """The recrawl seq baseline from parquet footers equals ``pc.max`` over
    the files' rows plus the ``extra`` rows: parts with several row groups,
    an empty part, and the max on either side."""
    import numpy as np
    import pyarrow.compute as pc

    from engine.checkpoint import CheckpointManager
    from engine.crawl import _LazyFrontier
    from engine.frontier import FRONTIER_SCHEMA, frontier_row

    rng = np.random.default_rng(4)
    seqs = rng.permutation(5000)[:300].tolist()

    def table(seq_list):
        return pa.Table.from_pylist(
            [frontier_row(f"https://h{s % 7}.example.test/p{s}.html", 1, 0, s) for s in seq_list],
            schema=FRONTIER_SCHEMA,
        )

    cm = CheckpointManager(str(tmp_path), {"test": 1})
    rd = tmp_path / "round=0"
    for sub in ("frontier_children", "frontier_deferred"):
        os.makedirs(rd / sub)
    pq.write_table(table(seqs[:100]), rd / "frontier_next.parquet", row_group_size=16)
    pq.write_table(table(seqs[100:250]), rd / "frontier_children" / "part_a.parquet",
                   row_group_size=40)
    pq.write_table(FRONTIER_SCHEMA.empty_table(), rd / "frontier_deferred" / "deferred_0.parquet")
    files_max = pc.max(
        pa.concat_tables([pq.read_table(f) for f in cm.frontier_files(0)])["discovery_seq"]
    ).as_py()
    assert files_max == max(seqs[:250])
    for extra in (None, table(seqs[250:]), table([files_max + 7])):
        fr = _LazyFrontier(cm, 0, extra)
        want = max([files_max] + ([] if extra is None else extra["discovery_seq"].to_pylist()))
        assert fr.max_discovery_seq() == want
    assert _LazyFrontier(extra=table(seqs[250:])).max_discovery_seq() == max(seqs[250:])


def test_fetch_extract_feed_writes_its_own_parts(small_corpus, tmp_path):
    """The fused fetch step on one bucket-pure feed (no Ray): one docs part
    and one children part, named by the feed's first fetch_seq, so a second
    (retried) call overwrites them with the same rows; the docs manifest
    holds; the call returns exactly the dead url's feed row."""
    import pyarrow.compute as pc

    from engine.canonicalize import url_hash64
    from engine.checkpoint import write_docs_manifest
    from engine.crawl import _fetch_extract_feed
    from engine.frontier import FRONTIER_SCHEMA, frontier_row

    corpus_dir, cfg = small_corpus
    dead = "https://dead.example.test/gone.html"
    b = url_hash64(dead) % cfg.n_buckets
    bucket_files = glob(os.path.join(corpus_dir, "pages", f"bucket={b}", "*.parquet"))
    urls = pa.concat_tables([pq.read_table(f, columns=["url"]) for f in bucket_files])
    urls = urls["url"].to_pylist()[:3] + [dead]
    feed = pa.Table.from_pylist(
        [frontier_row(u, 1, 0, i) for i, u in enumerate(urls)], schema=FRONTIER_SCHEMA
    )
    n = feed.num_rows
    feed = (
        feed.append_column("fetch_seq", pa.array(range(40, 40 + n), pa.int64()))
        .append_column("round", pa.array([0] * n, pa.int32()))
        .append_column("wait_s", pa.array([0.0] * n, pa.float64()))
        .append_column("bucket", pa.array([b] * n, pa.int32()))
    )
    docs_dir, children_dir = str(tmp_path / "docs"), str(tmp_path / "children")
    os.makedirs(docs_dir)
    os.makedirs(children_dir)
    want_miss = feed.filter(pc.equal(feed["url"], dead))
    want_miss = want_miss.select(FRONTIER_SCHEMA.names + ["fetch_seq"]).to_pylist()
    runs = []
    for _ in range(2):
        misses = _fetch_extract_feed(
            feed, os.path.join(corpus_dir, "pages"), 6, True, docs_dir, children_dir,
            fetch_start=0.0, block_bytes=1 << 27,
        )
        assert misses.to_pylist() == want_miss
        parts = [glob(os.path.join(d, "*.parquet")) for d in (docs_dir, children_dir)]
        assert [[os.path.basename(f) for f in p] for p in parts] == [
            ["part_000000000040.parquet"]
        ] * 2
        runs.append([pq.read_table(p[0]).to_pylist() for p in parts])
    assert runs[0] == runs[1]
    docs, children = runs[0]
    assert [d["status"] for d in docs] == ["hit"] * 3 + ["miss"]
    assert children and all(ch["depth"] == 2 for ch in children)
    assert write_docs_manifest(docs_dir, n)["ok"]


def _feed_of(urls, waits, n_buckets):
    """A fetch feed over ``urls``: depth 1, fetch_seq from 40, each row
    in its own pages bucket, with the given politeness offsets."""
    from engine.canonicalize import url_hash64
    from engine.frontier import FRONTIER_SCHEMA, frontier_row

    n = len(urls)
    feed = pa.Table.from_pylist(
        [frontier_row(u, 1, 0, i) for i, u in enumerate(urls)], schema=FRONTIER_SCHEMA
    )
    return (
        feed.append_column("fetch_seq", pa.array(range(40, 40 + n), pa.int64()))
        .append_column("round", pa.array([0] * n, pa.int32()))
        .append_column("wait_s", pa.array(waits, pa.float64()))
        .append_column("bucket", pa.array([url_hash64(u) % n_buckets for u in urls], pa.int32()))
    )


def _corpus_urls(corpus_dir):
    files = sorted(glob(os.path.join(corpus_dir, "pages", "bucket=*", "*.parquet")))
    return sorted(u for f in files for u in pq.read_table(f, columns=["url"])["url"].to_pylist())


def _out_dirs(tmp_path):
    dirs = [str(tmp_path / d) for d in ("docs", "children")]
    for d in dirs:
        os.makedirs(d)
    return dirs


def test_fetch_extract_feed_spans_buckets_on_one_timeline(small_corpus, tmp_path, monkeypatch):
    """One fetch task's rows from several pages buckets (no Ray): every row
    is fetched from its own bucket, so only the dead url misses, and each
    ``fetch_bucket_group`` call reads one bucket.  One host's rows with
    offsets d and 2d, in different buckets, are fetched at least d apart."""
    import time

    import engine.crawl as crawl_mod
    from engine.canonicalize import host_of, url_hash64

    corpus_dir, cfg = small_corpus
    urls = _corpus_urls(corpus_dir)
    by_host: dict = {}
    for u in urls:
        by_host.setdefault(host_of(u), {}).setdefault(url_hash64(u) % cfg.n_buckets, u)
    host, first = next((h, bs) for h, bs in sorted(by_host.items()) if len(bs) >= 2)
    (b1, u1), (b2, u2) = sorted(first.items())[:2]
    others = [u for u in urls
              if host_of(u) != host and url_hash64(u) % cfg.n_buckets in (b1, b2)]
    others = others[:3] + others[-3:]
    dead = "https://dead.example.test/gone.html"
    d = 0.2
    feed = _feed_of(others + [dead, u2, u1], [0.0] * 7 + [2 * d, d], cfg.n_buckets)
    calls = []
    real = crawl_mod.fetch_bucket_group

    def spy(group, pages_dir):
        calls.append((time.time(), set(group["bucket"].to_pylist()), group["url"].to_pylist()))
        return real(group, pages_dir)

    monkeypatch.setattr(crawl_mod, "fetch_bucket_group", spy)
    docs_dir, children_dir = _out_dirs(tmp_path)
    fetch_start = time.time()
    misses = crawl_mod._fetch_extract_feed(
        feed, os.path.join(corpus_dir, "pages"), 6, True, docs_dir, children_dir,
        fetch_start=fetch_start, block_bytes=1 << 27,
    )
    assert misses["url"].to_pylist() == [dead]
    assert all(len(bs) == 1 for _, bs, _ in calls), calls
    (part,) = glob(os.path.join(docs_dir, "*.parquet"))
    docs = pq.read_table(part, columns=["url", "status"]).to_pylist()
    assert sorted(r["url"] for r in docs) == sorted(feed["url"].to_pylist())
    assert sorted(r["url"] for r in docs if r["status"] == "hit") == sorted(others + [u1, u2])
    at = {u: t for t, _, us in calls for u in us}
    assert at[u1] >= fetch_start + d
    assert at[u2] - at[u1] >= d


def test_fetch_extract_feed_bounds_its_block(small_corpus, tmp_path):
    """With a tiny ``block_bytes`` each bucket chunk is its own extract call:
    one call writes one row group per bucket into exactly one docs part and
    one children part, and a second (retried) call overwrites both with
    equal rows; the docs manifest holds.  With the default bound the same
    rows are one row group."""
    from engine.canonicalize import url_hash64
    from engine.checkpoint import write_docs_manifest
    from engine.crawl import _fetch_extract_feed

    corpus_dir, cfg = small_corpus
    per_bucket: dict = {}
    for u in _corpus_urls(corpus_dir):
        per_bucket.setdefault(url_hash64(u) % cfg.n_buckets, []).append(u)
    urls = [u for b in sorted(per_bucket)[:3] for u in per_bucket[b][:2]]
    feed = _feed_of(urls, [0.0] * len(urls), cfg.n_buckets)
    docs_dir, children_dir = _out_dirs(tmp_path)
    runs = []
    for block_bytes in (1, 1, 1 << 27):
        _fetch_extract_feed(
            feed, os.path.join(corpus_dir, "pages"), 6, True, docs_dir, children_dir,
            fetch_start=0.0, block_bytes=block_bytes,
        )
        parts = [glob(os.path.join(d, "*.parquet")) for d in (docs_dir, children_dir)]
        assert [[os.path.basename(f) for f in p] for p in parts] == [
            ["part_000000000040.parquet"]
        ] * 2
        groups = [pq.ParquetFile(p[0]).metadata.num_row_groups for p in parts]
        assert groups == ([3, 3] if block_bytes == 1 else [1, 1]), (block_bytes, groups)
        runs.append([pq.read_table(p[0]).to_pylist() for p in parts])
        assert write_docs_manifest(docs_dir, len(urls))["ok"]
    assert runs[0] == runs[1]
    assert runs[0][1], "no children"


def test_crawl_with_a_tiny_block_bound_matches_oracle(crawl_pair, tmp_path, monkeypatch):
    """The fetch tasks' block bound comes from Ray Data's target block size
    on the driver: with a 1-byte bound every bucket chunk is its own row
    group, and the crawl still equals the oracle and writes the same docs."""
    from ray.data import DataContext

    import engine.crawl as crawl_mod
    from engine.checkpoint import validate_docs_output

    corpus_dir, oracle, base = crawl_pair
    monkeypatch.setattr(DataContext.get_current(), "target_max_block_size", 1)
    engine = crawl_mod.crawl(corpus_dir, str(tmp_path / "ckpt"), BUDGET)
    assert engine.cumulative == oracle["cumulative"]
    assert [(r["fetch_seq"], r["url"]) for r in engine.order_table().to_pylist()] == [
        (r["fetch_seq"], r["url"]) for r in oracle["order"]
    ]
    assert set(engine.seen_hashes().tolist()) == oracle["seen_hashes"]
    validate_docs_output(engine.docs_dir)

    def docs(res):
        files = sorted(glob(os.path.join(res.docs_dir, "round=*", "*.parquet")))
        return files, pa.concat_tables([pq.read_table(f) for f in files]).sort_by("fetch_seq")

    files, got = docs(engine)
    assert got.equals(docs(base)[1])
    assert max(pq.ParquetFile(f).metadata.num_row_groups for f in files) > 1


def test_close_block_writes_its_deferred_part_and_counts(tmp_path):
    """The selection's close on one disposition block (no Ray): its deferred
    rows land in one part named by their smallest url_hash, so a second
    (re-run) close overwrites it with the same rows; a block without
    deferred rows writes nothing; the counts are the block's status
    value_counts."""
    import random

    import pyarrow.compute as pc

    from engine.crawl import _close_block, _sum_counts
    from engine.frontier import FRONTIER_SCHEMA, frontier_row

    rng = random.Random(5)
    rows = [frontier_row(f"https://h{i % 3}.example.test/p{i}.html", 0, 0, i) for i in range(40)]
    table = pa.Table.from_pylist(rows, schema=FRONTIER_SCHEMA)
    status = [rng.choice(["cand", "deferred", "dup", "seen", "robots"]) for _ in rows]
    table = table.append_column("status", pa.array(status, pa.string()))
    want_counts = {
        d["values"]: d["counts"] for d in pc.value_counts(table["status"]).to_pylist()
    }
    deferred = table.filter(pc.equal(table["status"], "deferred"))
    want_name = f"deferred_{min(deferred['url_hash'].to_pylist()):019d}.parquet"
    want_rows = deferred.select(FRONTIER_SCHEMA.names).sort_by("url").to_pylist()

    out = str(tmp_path / "deferred")
    os.makedirs(out)
    for _ in range(2):
        assert _sum_counts(_close_block(table, out)) == want_counts
        assert os.listdir(out) == [want_name]
        part = pq.read_table(os.path.join(out, want_name))
        assert part.schema == FRONTIER_SCHEMA
        assert part.sort_by("url").to_pylist() == want_rows

    empty = str(tmp_path / "none")
    os.makedirs(empty)
    no_deferred = table.filter(pc.not_equal(table["status"], "deferred"))
    counts = _sum_counts(_close_block(no_deferred, empty))
    assert counts == {s: n for s, n in want_counts.items() if s != "deferred"}
    assert os.listdir(empty) == []


def _write_mini_corpus(root, pages: dict, seeds: list, n_buckets: int = 4):
    """Hand-built corpus dir (pages: url -> html str; seeds: [(url, prio)])."""
    from engine.canonicalize import url_hash64
    from engine.synth import PAGES_SCHEMA

    os.makedirs(os.path.join(root, "pages"), exist_ok=True)
    per_bucket = {b: [] for b in range(n_buckets)}
    for u, h in pages.items():
        per_bucket[url_hash64(u) % n_buckets].append((u, h))
    for b in range(n_buckets):
        bdir = os.path.join(root, "pages", f"bucket={b}")
        os.makedirs(bdir, exist_ok=True)
        rows = per_bucket[b]
        t = pa.table(
            {
                "url": pa.array([u for u, _ in rows], pa.string()),
                "warc_ts": pa.array([0] * len(rows), pa.timestamp("us")),
                "html": pa.array([h.encode() for _, h in rows], pa.binary()),
                "text": pa.array([""] * len(rows), pa.string()),
                "lang": pa.array(["en"] * len(rows), pa.string()),
            },
            schema=PAGES_SCHEMA,
        )
        pq.write_table(t, os.path.join(bdir, "part-0.parquet"))
    pq.write_table(
        pa.table(
            {
                "url": pa.array([u for u, _ in seeds], pa.string()),
                "priority": pa.array([p for _, p in seeds], pa.int32()),
            }
        ),
        os.path.join(root, "seeds.parquet"),
    )
    pq.write_table(
        pa.table(
            {
                "host": pa.array([], pa.string()),
                "disallow_prefixes": pa.array([], pa.list_(pa.string())),
                "crawl_delay_ms": pa.array([], pa.int64()),
            }
        ),
        os.path.join(root, "robots.parquet"),
    )
    with open(os.path.join(root, "_corpus.json"), "w") as f:
        json.dump({"cache_key": "mini", "cfg": {"n_buckets": n_buckets}}, f)
    return root


def test_over_stride_links_conformance(tmp_path, ray_session, monkeypatch):
    """A page with more links than SEQ_STRIDE: the spec truncates at STRIDE
    canonicalized links per page (engine AND oracle), so child discovery_seq
    values stay unique and the distributed selection has no partition-order
    ties.  (ADVICE r1: links past #1023 used to share one seq.)"""
    import engine.crawl as crawl_mod
    from engine.frontier import SEQ_STRIDE
    from engine.oracle import crawl_oracle

    n_links = SEQ_STRIDE + 476  # 1500
    targets = [f"https://h{1 + (i % 2)}.bigfan.test/d0/p{i}.html" for i in range(n_links)]
    seed_url = "https://h0.bigfan.test/d0/seed.html"
    html = (
        "<html><body><nav>"
        + "".join(f'<a href="{t}">l</a>' for t in targets)
        + "</nav></body></html>"
    )
    pages = {seed_url: html}
    for t in targets[:1200]:  # some targets past the stride exist: they must
        pages[t] = "<html><body></body></html>"  # still never be crawled
    corpus = _write_mini_corpus(str(tmp_path / "corpus"), pages, [(seed_url, 0)])

    monkeypatch.setattr(crawl_mod, "SMALL_FRONTIER_ROWS", 0)  # distributed branch
    budget = {
        "max_urls_total": 2000,
        "max_per_host_per_round": 600,
        "max_depth": 2,
        "max_rounds": 4,
    }
    oracle = crawl_oracle(corpus, budget)
    engine = crawl_mod.crawl(corpus, str(tmp_path / "ckpt"), budget)

    got = engine.order_table().to_pylist()
    want = oracle["order"]
    assert [(x["fetch_seq"], x["url"]) for x in got] == [
        (x["fetch_seq"], x["url"]) for x in want
    ]
    assert engine.cumulative == oracle["cumulative"]
    assert set(engine.seen_hashes().tolist()) == oracle["seen_hashes"]
    # truncation actually engaged: exactly SEQ_STRIDE children admitted
    crawled = {x["url"] for x in got}
    assert not crawled & set(targets[SEQ_STRIDE:])
    assert set(targets[:SEQ_STRIDE]) <= crawled
    # and every discovery_seq in the order is unique (the determinism invariant)
    seqs = [(x["host"], x["depth"], x["priority"], x["discovery_seq"]) for x in got]
    assert len(seqs) == len(set(seqs))


def test_lazy_frontier_handoff_engages_and_matches(small_corpus, tmp_path, monkeypatch):
    """Past SMALL_FRONTIER_ROWS the per-round handoff must be the LAZY
    read_parquet handle — the driver never materializes the frontier
    (VERDICT r3 "what's wrong" #2) — and a kill+resume THROUGH a lazy
    handoff reproduces the uninterrupted run bit-identically."""
    import engine.crawl as crawl_mod
    from engine.oracle import crawl_oracle

    monkeypatch.setattr(crawl_mod, "SMALL_FRONTIER_ROWS", 0)
    corpus_dir, _cfg = small_corpus
    budget = {"max_urls_total": 150, "max_per_host_per_round": 5, "max_depth": 5, "max_rounds": 6}

    kinds = []
    orig = crawl_mod._frontier_handle

    def spy(cm, r):
        h = orig(cm, r)
        kinds.append(type(h).__name__)
        return h

    monkeypatch.setattr(crawl_mod, "_frontier_handle", spy)

    # every handle is a _LazyFrontier, so the class name alone cannot prove
    # the frontier stayed off the driver: no non-empty frontier may be read
    # into a driver table
    from engine.checkpoint import CheckpointManager

    read_rows = []
    orig_read = CheckpointManager.read_frontier_next

    def read_spy(self, r):
        t = orig_read(self, r)
        read_rows.append(t.num_rows)
        return t

    monkeypatch.setattr(CheckpointManager, "read_frontier_next", read_spy)

    full = crawl_mod.crawl(corpus_dir, str(tmp_path / "a"), budget)
    assert "_LazyFrontier" in kinds  # the lazy path actually carried rounds
    oracle = crawl_oracle(corpus_dir, budget)
    assert full.cumulative == oracle["cumulative"]

    b = str(tmp_path / "b")
    crawl_mod.crawl(corpus_dir, b, budget, stop_after_round=1)  # simulated kill
    resumed = crawl_mod.crawl(corpus_dir, b, budget)  # resume enters via lazy handle
    assert resumed.cumulative == full.cumulative
    assert resumed.order_table().to_pylist() == full.order_table().to_pylist()
    assert set(resumed.seen_hashes().tolist()) == set(full.seen_hashes().tolist())
    assert not any(read_rows), read_rows


def _schedule_parts(tmp, cand, remaining):
    """Run the schedule step on one driver table; return its (selected rows,
    overflow rows), each as one table in a canonical row order."""
    from types import SimpleNamespace

    import engine.crawl as crawl_mod

    root = str(tmp)
    c = SimpleNamespace(
        n_buckets=4, delays_ms={},
        round_dir=lambda r, sub: os.path.join(root, f"round={r}", sub),
    )
    os.makedirs(c.round_dir(0, "frontier_deferred"))
    sched = crawl_mod._schedule(c, crawl_mod._Selection({}, cand), 0, 1000, remaining)

    def read(pattern):
        (f,) = glob(os.path.join(root, "round=0", pattern))
        return pq.read_table(f)

    selected = read("selected/*.parquet").sort_by("fetch_seq")
    overflow = read("frontier_deferred/overflow_*.parquet").sort_by("url")
    assert sched.n_sel == selected.num_rows == remaining
    # one feed table: the schedule in fetch_seq order, with each row's bucket
    assert sched.feed.select(selected.column_names).equals(selected)
    buckets = (selected["url_hash"].to_numpy() % c.n_buckets).tolist()
    assert sched.feed["bucket"].to_pylist() == buckets
    assert sched.n_overflow == overflow.num_rows
    return selected, overflow


def test_schedule_orders_candidates_whatever_their_arrival(tmp_path, ray_session):
    """The schedule alone applies the crawl order: shuffled rows with
    non-candidate rows mixed in give the crawl order's prefix of the
    candidate rows, numbered from the round's seq offset, and the rest of
    the candidates as the round's one overflow part."""
    import random

    from engine.frontier import FRONTIER_SCHEMA, frontier_row

    rng = random.Random(7)
    hosts = [f"h{i}.example.test" for i in range(6)]
    rows = [
        frontier_row(f"https://{h}/p{j}.html", rng.randrange(3), rng.randrange(2), 10 * i + j)
        for i, h in enumerate(hosts)
        for j in range(8)
    ]
    rng.shuffle(rows)
    table = pa.Table.from_pylist(rows, schema=FRONTIER_SCHEMA)
    status = [rng.choice(["cand", "cand", "cand", "deferred"]) for _ in rows]
    table = table.append_column("status", pa.array(status, pa.string()))

    selected, overflow = _schedule_parts(tmp_path, table, remaining=25)
    assert selected["fetch_seq"].to_pylist() == list(range(1000, 1025))
    # the schedule is the crawl order's prefix of the candidate rows only
    cands = sorted(
        (r["host"], r["depth"], r["priority"], r["discovery_seq"])
        for r, st in zip(rows, status) if st == "cand"
    )
    assert [
        (r["host"], r["depth"], r["priority"], r["discovery_seq"]) for r in selected.to_pylist()
    ] == cands[:25]
    assert sorted(
        (r["host"], r["depth"], r["priority"], r["discovery_seq"]) for r in overflow.to_pylist()
    ) == cands[25:]


@pytest.mark.parametrize(
    "small, want_tasks",
    [(200_000, [0, 0, 0]), (10, [0, 4, 0]), (0, [16, 16, 16])],
    ids=["one_range", "four_ranges", "sixteen_ranges"],
)
def test_range_count_follows_the_frontier_size(tmp_path, ray_session, monkeypatch, small,
                                               want_tasks):
    """A round selects in P url_hash range tasks: none up to
    SMALL_FRONTIER_ROWS frontier rows, else the least power of two whose
    ranges average at most that many rows, up to N_SALT = 16.  The seed's round has 1 row, the next one
    the seed's 25 links (files), the last the 3 dead links' retries (a
    file).  No round runs a Ray Data execution, at any P: stage 2 and its
    close run in process.  Every case equals the oracle."""
    from ray.data._internal.execution.streaming_executor import StreamingExecutor

    import engine.crawl as crawl_mod
    from engine.oracle import crawl_oracle

    targets = [f"https://h{i % 3}.sizing.test/d0/p{i}.html" for i in range(25)]
    seed_url = "https://h0.sizing.test/d0/seed.html"
    pages = {seed_url: "<html><body>" + "".join(f'<a href="{t}">l</a>' for t in targets)
             + "</body></html>"}
    pages.update((t, "<html><body></body></html>") for t in targets[3:])  # 3 dead links
    corpus = _write_mini_corpus(str(tmp_path / "corpus"), pages, [(seed_url, 0)])
    budget = {"max_urls_total": 100, "max_per_host_per_round": 20, "max_depth": 2,
              "max_rounds": 5}

    monkeypatch.setattr(crawl_mod, "SMALL_FRONTIER_ROWS", small)
    launched = Counter()
    remote = crawl_mod._select_range_remote

    class RangeSpy:
        def remote(self, *args):
            launched[args[-1]] += 1  # the round's deferred dir
            return remote.remote(*args)

    monkeypatch.setattr(crawl_mod, "_select_range_remote", RangeSpy())
    executions = []
    execute = StreamingExecutor.execute

    def counted(self, *args, **kwargs):
        executions.append(1)
        return execute(self, *args, **kwargs)

    monkeypatch.setattr(StreamingExecutor, "execute", counted)
    ck = str(tmp_path / "ckpt")
    engine = crawl_mod.crawl(corpus, ck, budget)
    monkeypatch.undo()

    assert engine.rounds == len(want_tasks)
    assert [launched[os.path.join(ck, f"round={r}", "frontier_deferred")]
            for r in range(engine.rounds)] == want_tasks
    assert executions == []
    oracle = crawl_oracle(corpus, budget)
    assert engine.cumulative == oracle["cumulative"]
    assert oracle["cumulative"]["failed"] == 3
    assert [(x["fetch_seq"], x["url"]) for x in engine.order_table().to_pylist()] == [
        (x["fetch_seq"], x["url"]) for x in oracle["order"]
    ]
    assert set(engine.seen_hashes().tolist()) == oracle["seen_hashes"]
