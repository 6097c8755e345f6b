"""The benchmark's tracer (``crawlbench/trace.py``) wraps engine functions by
module and attribute name, and its counters read some arguments by position.
A renamed function or a moved argument must fail here, in the fast suite,
not only in the slow ``pytest crawlbench`` run."""

import importlib
import inspect

from crawlbench.trace import TARGETS

# leading parameters that the tracer's counters index by position
LEADING_PARAMS = {
    ("engine.checkpoint", "CheckpointManager.write_round"): ["self", "r"],
    ("engine.checkpoint", "write_docs_manifest"): ["round_docs_dir"],
    ("engine.seen", "SeenSet.add_many"): ["self", "hashes"],
    ("engine.frontier", "dedup_and_salt_topk"): ["df"],
}


def _resolve(module: str, attr: str):
    obj = importlib.import_module(module)
    for part in attr.split("."):
        obj = getattr(obj, part)
    return obj


def test_every_trace_target_resolves():
    missing = []
    for module, attr, *_ in TARGETS:
        try:
            fn = _resolve(module, attr)
        except AttributeError:
            missing.append(f"{module}.{attr}")
            continue
        assert callable(fn), f"{module}.{attr}"
    assert not missing, missing


def test_traced_arguments_keep_their_positions():
    targets = {(m, a) for m, a, *_ in TARGETS}
    for key, lead in LEADING_PARAMS.items():
        assert key in targets, key
        params = list(inspect.signature(_resolve(*key)).parameters)
        assert params[: len(lead)] == lead, (key, params)


def test_fetch_step_calls_the_traced_names(tmp_path, monkeypatch):
    """The fused fetch step reaches fetch, extract and explode through the
    module's globals, where the tracer's wrappers replace them: each layer
    is called once per feed, so ``--trace 1`` still attributes its time."""
    import os

    import pyarrow as pa

    import engine.crawl as crawl_mod
    from engine.frontier import FRONTIER_SCHEMA, frontier_row

    names = ("fetch_bucket_group", "extract_batch_fn", "explode_links_batch")
    calls = []
    for name in names:
        def spy(*args, _real=getattr(crawl_mod, name), _name=name, **kwargs):
            calls.append(_name)
            return _real(*args, **kwargs)

        monkeypatch.setattr(crawl_mod, name, spy)
    feed = pa.Table.from_pylist(
        [frontier_row("https://h.example.test/a.html", 0, 0, 0)], schema=FRONTIER_SCHEMA
    )
    feed = (
        feed.append_column("fetch_seq", pa.array([7], pa.int64()))
        .append_column("round", pa.array([0], pa.int32()))
        .append_column("wait_s", pa.array([0.0], pa.float64()))
        .append_column("bucket", pa.array([0], pa.int32()))
    )
    dirs = [str(tmp_path / d) for d in ("docs", "children")]
    for d in dirs:
        os.makedirs(d)
    # no pages directory at all: the one url misses
    misses = crawl_mod._fetch_extract_feed(feed, str(tmp_path / "pages"), 3, True, *dirs,
                                           fetch_start=0.0, block_bytes=1 << 27)
    assert sorted(calls) == sorted(names)
    assert misses["url"].to_pylist() == ["https://h.example.test/a.html"]
