"""Allow/deny gate (M5/M6 analogs), error sink (S5), job config (S6) tests."""

import json
import os

import pyarrow.parquet as pq
import pytest

from engine.politeness import UrlGate


def test_gate_allow_patterns():
    g = UrlGate(allow_url_regex=[r"h0\.example", r"h1\.example"])
    assert not g.filtered("https://h0.example.test/a.html", "/a.html")
    assert g.filtered("https://h9.example.test/a.html", "/a.html")


def test_gate_deny_wins():
    g = UrlGate(allow_url_regex=[r".*"], deny_url_regex=[r"/d3/"])
    assert g.filtered("https://h.x/d3/p.html", "/d3/p.html")
    assert not g.filtered("https://h.x/d2/p.html", "/d2/p.html")


def test_gate_extension_filter():
    # M6 semantics: lowercased extension membership; extensionless paths pass
    g = UrlGate(allowed_extensions=["html", ".PDF"])
    assert not g.filtered("https://h.x/a.HTML", "/a.HTML")
    assert not g.filtered("https://h.x/b.pdf", "/b.pdf")
    assert g.filtered("https://h.x/c.jpg", "/c.jpg")
    assert not g.filtered("https://h.x/dir/", "/dir/")


def test_gate_empty_allows_all():
    # SharePointClient.cs:83 — empty allow set means null means allow-all
    g = UrlGate()
    assert g.is_empty()
    assert not g.filtered_many(["https://x/a.bin"], ["/a.bin"]).any()


def test_crawl_with_filters_matches_oracle(small_corpus, tmp_path):
    from engine.crawl import crawl
    from engine.oracle import crawl_oracle

    corpus_dir, _cfg = small_corpus
    budget = {"max_urls_total": 200, "max_per_host_per_round": 6, "max_depth": 5, "max_rounds": 8}
    filters = {"deny_url_regex": [r"/d2/"], "allowed_extensions": ["html"]}
    oracle = crawl_oracle(corpus_dir, budget, filters=filters)
    engine = crawl(corpus_dir, str(tmp_path / "ckpt"), budget, filters=filters)
    assert oracle["cumulative"]["filtered"] > 0
    assert engine.cumulative == oracle["cumulative"]
    got = engine.order_table().to_pylist()
    assert [(x["fetch_seq"], x["url"]) for x in got] == [
        (x["fetch_seq"], x["url"]) for x in oracle["order"]
    ]
    # filters participate in lineage: different filters must refuse to resume
    with pytest.raises(ValueError, match="different config"):
        crawl(corpus_dir, str(tmp_path / "ckpt"), budget, filters=None)


def test_errors_written_as_rows(small_corpus, tmp_path):
    from engine.crawl import crawl

    corpus_dir, _cfg = small_corpus
    budget = {"max_urls_total": 400, "max_per_host_per_round": 6, "max_depth": 6, "max_rounds": 10}
    res = crawl(corpus_dir, str(tmp_path / "ckpt"), budget)
    assert res.cumulative["retried"] > 0  # dead links exist in the corpus
    reasons = []
    for r in range(res.rounds):
        p = os.path.join(res.ckpt_dir, f"round={r}", "errors.parquet")
        if os.path.exists(p):
            reasons.extend(pq.read_table(p)["reason"].to_pylist())
    assert reasons.count("fetch_miss_retryable") == res.cumulative["retried"]
    assert reasons.count("fetch_miss_final") == res.cumulative["failed"]


def test_job_config_and_cli(small_corpus, tmp_path, ray_session):
    from engine.job import load_job_config, run_job

    corpus_dir, _cfg = small_corpus
    cfg_path = tmp_path / "job.json"
    cfg_path.write_text(
        json.dumps(
            {
                "corpus_dir": corpus_dir,
                "ckpt_dir": str(tmp_path / "job_ckpt"),
                "budget": {
                    "max_urls_total": 50,
                    "max_per_host_per_round": 4,
                    "max_depth": 3,
                    "max_rounds": 4,
                },
                "filters": {"allowed_extensions": ["html"]},
            }
        )
    )
    cfg = load_job_config(str(cfg_path))
    res = run_job(cfg)
    assert res.cumulative["attempted"] > 0
    assert os.path.exists(os.path.join(cfg["ckpt_dir"], "round=0", "_SUCCESS"))


def test_job_config_missing_key(tmp_path):
    from engine.job import load_job_config

    p = tmp_path / "bad.json"
    p.write_text("{}")
    with pytest.raises(ValueError, match="corpus_dir"):
        load_job_config(str(p))


@pytest.mark.parametrize("encoding", ["html", "pdf_flate"])
def test_precount_matches_full_crawl(encoding, small_corpus, tmp_path):
    """S3 analog: links-only pre-count == the full crawl's fetched total, on
    either payload encoding (the links of a PDF come from its annotations)."""
    import dataclasses

    from engine.crawl import crawl, precount
    from engine.synth import generate_corpus

    corpus_dir, cfg = small_corpus
    if encoding != cfg.encoding:
        corpus_dir = generate_corpus(str(tmp_path / "corpus"),
                                     dataclasses.replace(cfg, encoding=encoding), use_ray=False)
    budget = {"max_urls_total": 150, "max_per_host_per_round": 5, "max_depth": 4, "max_rounds": 6}
    n = precount(corpus_dir, budget)
    full = crawl(corpus_dir, str(tmp_path / "ckpt"), budget)
    assert n == full.cumulative["fetched"] > 0


def test_metrics_summary(small_corpus, tmp_path):
    import numpy as np

    from engine.checkpoint import metrics_summary, seen_hashes_through
    from engine.crawl import crawl

    corpus_dir, _cfg = small_corpus
    budget = {"max_urls_total": 60, "max_per_host_per_round": 5, "max_depth": 3, "max_rounds": 4}
    res = crawl(corpus_dir, str(tmp_path / "ckpt"), budget)
    df = metrics_summary(res.ckpt_dir)
    assert len(df) == res.rounds
    assert df["fetched"].sum() == res.cumulative["fetched"]
    assert (df["round_sec"] > 0).all()
    # the seen value a round's selection probed holds every url attempted
    # before that round
    assert df["seen_keys"].tolist() == [
        len(np.unique(seen_hashes_through(res.ckpt_dir, r - 1))) for r in range(res.rounds)
    ]
    assert df["seen_keys"].iloc[0] == 0 and df["seen_keys"].is_monotonic_increasing


def test_extract_path_and_stream_entries(tmp_path):
    import io

    from engine.extract import extract_document, extract_from_path, extract_from_stream

    html = b'<div class="page" data-page="1" data-height="792.0"><span class="w" style="left:72.0pt;top:700.0pt">x1</span></div>'
    f = tmp_path / "doc.html"
    f.write_bytes(html)
    d1 = extract_from_path(str(f))
    assert d1["markdown"] == extract_document(html, "https://local/doc")["markdown"]
    buf = io.BytesIO(html)
    d2 = extract_from_stream(buf)
    assert buf.tell() == 0  # position restored (cs:107-111 semantics)
    assert d2["markdown"].endswith("\n")


def test_allowlist_file_gate(tmp_path):
    """docstoingest.txt analog: title stems from a file gate the crawl."""
    from engine.politeness import UrlGate, read_allowlist_file

    p = tmp_path / "docstoingest.txt"
    p.write_text("# titles to ingest\np1\nP3\n\np7\n")
    assert read_allowlist_file(str(p)) == ["p1", "P3", "p7"]
    g = UrlGate.from_config({"allowlist_file": str(p)})
    assert not g.is_empty()
    # membership is on the path basename stem, case-insensitive
    assert not g.filtered("https://h/x/p1.html", "/x/p1.html")
    assert not g.filtered("https://h/x/p3.html", "/x/p3.html")
    assert g.filtered("https://h/x/p2.html", "/x/p2.html")
    assert not g.filtered("https://h/x/p7", "/x/p7")  # no extension
    import numpy as np
    urls = ["https://h/x/p1.html", "https://h/x/p2.html", "https://h/x/p7"]
    paths = ["/x/p1.html", "/x/p2.html", "/x/p7"]
    want = np.array([g.filtered(u, pp) for u, pp in zip(urls, paths)])
    assert (g.filtered_many(urls, paths) == want).all()


def test_crawl_with_allowlist_file_matches_oracle(small_corpus, tmp_path, ray_session):
    """Conformance with the allow-list file live: engine == oracle, and the
    filtered counter fires."""
    from engine.crawl import crawl
    from engine.oracle import crawl_oracle

    corpus_dir, _cfg = small_corpus
    allow = tmp_path / "docstoingest.txt"
    # allow only even-numbered pages: plenty of filtering on this corpus
    allow.write_text("\n".join(f"p{i}" for i in range(0, 400, 2)))
    filters = {"allowlist_file": str(allow)}
    budget = {"max_urls_total": 150, "max_per_host_per_round": 5, "max_depth": 4, "max_rounds": 6}
    oracle = crawl_oracle(corpus_dir, budget, filters=filters)
    engine = crawl(corpus_dir, str(tmp_path / "ckpt_allow"), budget, filters=filters)
    assert oracle["cumulative"]["filtered"] > 0
    assert engine.cumulative == oracle["cumulative"]
    got = engine.order_table().to_pylist()
    assert [(x["fetch_seq"], x["url"]) for x in got] == [
        (x["fetch_seq"], x["url"]) for x in oracle["order"]
    ]


def test_docs_manifest_validation(small_corpus, tmp_path, ray_session):
    """The sink manifest records per-file rows + schema and validation
    catches corruption (UploadResponse-parse analog)."""
    import json
    import os
    from glob import glob

    import pyarrow.parquet as pq

    from engine.checkpoint import validate_docs_output
    from engine.crawl import crawl

    corpus_dir, _cfg = small_corpus
    budget = {"max_urls_total": 60, "max_per_host_per_round": 5, "max_depth": 3, "max_rounds": 3}
    res = crawl(corpus_dir, str(tmp_path / "ckpt_manifest"), budget)
    out = validate_docs_output(res.docs_dir)
    assert out and all(v["ok"] for v in out.values())
    total = sum(v["rows"] for v in out.values())
    assert total == res.cumulative["attempted"]
    # corrupt one part: drop rows and rewrite -> validation must fail
    part = sorted(glob(os.path.join(res.docs_dir, "round=0", "*.parquet")))[0]
    t = pq.read_table(part)
    pq.write_table(t.slice(0, max(0, t.num_rows - 1)), part)
    import pytest as _pytest

    with _pytest.raises(ValueError, match="row-count mismatch"):
        validate_docs_output(res.docs_dir)


def test_job_config_seen_backend_passthrough(tmp_path, monkeypatch):
    """A config written for the removed ``seen_backend`` option still loads,
    and the key is ignored."""
    import json

    import engine.crawl as crawl_mod
    from engine.job import load_job_config, run_job

    p = tmp_path / "job.json"
    p.write_text(json.dumps({
        "corpus_dir": "/x", "ckpt_dir": "/y", "seen_backend": "spill",
        "filters": {"allowlist_file": "titles.txt"},
    }))
    cfg = load_job_config(str(p))
    assert cfg["seen_backend"] == "spill"
    calls = []
    monkeypatch.setattr(crawl_mod, "crawl", lambda *a, **kw: calls.append((a, kw)))
    run_job(cfg)
    assert calls == [(("/x", "/y"), {"budget": None, "filters": cfg["filters"]})]
