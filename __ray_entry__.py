"""Driver contract for the Ray-Data crawl + data-processing engine.

``entry()`` runs the flagship crawl pipeline at sf0.001 scale.  ``queries()``
exposes one callable per implemented operator/pipeline (SURVEY.md §2 plus the
training-data ops); ``oracle_sql()`` provides the DuckDB-checkable subset.
Genuinely non-SQL ops (LSH candidate generation, heuristic lang-ID, the
crawl loop itself) have no oracle entry — the driver records a rows-only
check, and `tests/` holds their exactness/conformance proofs.  simhash
signatures ARE oracle-checked (md5-prefix bit source, SQL-expressible).

Ray is initialised by the driver BEFORE this module is imported; nothing here
calls ``ray.init()`` / ``ray.shutdown()``.
"""

from __future__ import annotations

import os
import re
from collections.abc import Callable
from typing import Any

_REPO = os.path.dirname(os.path.abspath(__file__))
import sys

if _REPO not in sys.path:
    sys.path.insert(0, _REPO)


# ---------------------------------------------------------------------------
# Crawl-over-synthetic-corpus helpers (the engine's own input shape)
# ---------------------------------------------------------------------------

def _sf_of(sf_dir: str) -> float:
    m = re.search(r"sf([0-9.]+)", os.path.basename(os.path.normpath(sf_dir)))
    return float(m.group(1)) if m else 0.01


def _corpus_for(sf_dir: str, with_golden: bool = True) -> str:
    """Deterministic synthetic pages corpus sized to the sf (cached in /tmp)."""
    from engine.synth import CorpusConfig, generate_corpus

    sf = _sf_of(sf_dir)
    n_pages = max(200, int(sf * 200_000))
    cfg = CorpusConfig(
        n_pages=n_pages,
        n_hosts=50,
        n_buckets=16,
        with_golden=with_golden,
    )
    out = os.path.join("/tmp", f"graft_corpus_{cfg.cache_key()}")
    return generate_corpus(out, cfg)


def _budget_for(sf_dir: str) -> dict:
    sf = _sf_of(sf_dir)
    n_pages = max(200, int(sf * 200_000))
    return {
        "max_urls_total": max(300, n_pages // 2),
        "max_per_host_per_round": 8,
        "max_depth": 6,
        "max_rounds": 16,
    }


def _crawl_cached(sf_dir: str):
    import shutil

    from engine.crawl import crawl

    corpus = _corpus_for(sf_dir)
    budget = _budget_for(sf_dir)
    ckpt = corpus + "_ckpt"
    try:
        return crawl(corpus, ckpt, budget, resume=True)
    except ValueError:
        # stale checkpoint from an older engine config: it's a derived cache,
        # so wipe and recrawl (user checkpoints never take this path)
        shutil.rmtree(ckpt, ignore_errors=True)
        return crawl(corpus, ckpt, budget, resume=True)


def crawl_order(sf_dir: str):
    """The crawl's fetch schedule: the analog of the reference's traversal order."""
    res = _crawl_cached(sf_dir)
    t = res.order_table()
    return t.select(["fetch_seq", "url", "host", "depth", "priority", "round"])


def crawl_seen(sf_dir: str):
    import pandas as pd

    res = _crawl_cached(sf_dir)
    return pd.DataFrame({"url_hash": sorted(res.seen_hashes().tolist())})


def crawl_counters(sf_dir: str):
    import json

    import pandas as pd

    res = _crawl_cached(sf_dir)
    rows = []
    for r in range(res.rounds):
        p = os.path.join(res.ckpt_dir, f"round={r}", "counters.json")
        if not os.path.exists(p):
            continue
        with open(p) as f:
            meta = json.load(f)
        rows.append({"partition": r, **meta["counters"]})
    return pd.DataFrame(rows)


def crawl_chunks(sf_dir: str):
    """The ingest-pipeline composition (S4/RagIngestDocument analog): crawled
    markdown docs -> 350/80 token chunks carrying the full IngestChunk field
    surface — title, category (M11 cascade), per-doc keywords (M12),
    heading breadcrumb, allowed_groups, and the open metadata map
    (``Foundation/Models/IngestChunk.cs:12-65``)."""
    from engine.ingest import chunks_dataset

    res = _crawl_cached(sf_dir)
    out = chunks_dataset(res.docs_dir).to_pandas()
    return out.sort_values(["url", "chunk_index"]).reset_index(drop=True)


def crawl_search_topk(sf_dir: str, k: int = 5):
    """The reference's end-to-end PURPOSE as one composed pipeline: crawl ->
    extract -> 350/80-token chunks -> BM25 retrieval over the CHUNKS for a
    fixed query set (the query side of the RAG index the reference feeds via
    its upload sink, ``SharePointClient.cs:405-493``).  Returns
    (query_id, rnk, url, chunk_index, score_micro) top-k per query.

    Rows-only (the crawl stage is not SQL-expressible); determinism and
    relevance are pytest-locked (two runs identical; every top-1 chunk
    contains a query term).  The BM25 core is the same Dataset-generic
    ``_bm25_topk_ds`` the oracled ``bm25_topk`` runs, so its scoring
    arithmetic IS oracle-checked — only the crawl/chunk front end differs.
    """
    from engine.ingest import chunks_dataset
    from engine.ops import text as _text

    res = _crawl_cached(sf_dir)
    ds = chunks_dataset(res.docs_dir).map_batches(
        lambda t: t.select(["url", "chunk_index", "chunk"]),
        batch_format="pyarrow",
    )
    qs = ("calibrate gauge", "pressure safety", "operator panel control")
    out = _text._bm25_topk_ds(ds, ["url", "chunk_index"], qs, k,
                              text_col="chunk")
    return out


def crawl_errors(sf_dir: str):
    """The error-rows sink (S5): all fetch failures across rounds."""
    import pandas as pd
    import pyarrow.parquet as pq
    from glob import glob

    res = _crawl_cached(sf_dir)
    files = sorted(glob(os.path.join(res.ckpt_dir, "round=*", "errors.parquet")))
    if not files:
        return pd.DataFrame(
            {"url": pd.Series([], dtype="str"), "fetch_seq": pd.Series([], dtype="int64"),
             "round": pd.Series([], dtype="int32"), "reason": pd.Series([], dtype="str")}
        )
    import pyarrow as pa

    return pa.concat_tables([pq.read_table(f) for f in files]).to_pandas().sort_values(
        "fetch_seq"
    ).reset_index(drop=True)


def crawl_metrics(sf_dir: str):
    """Per-round metrics (S8/A3): counters + round seconds + urls/sec."""
    from engine.checkpoint import metrics_summary

    res = _crawl_cached(sf_dir)
    return metrics_summary(res.ckpt_dir)


def crawl_recrawl(sf_dir: str):
    """Etag/last-modified incremental recrawl (the reference's
    ``DocumentPayload.cs:10-25`` change-detection hook): full crawl with the
    deletable cuckoo seen backend, deterministically modify K pages, derive
    the invalidation set by anti-joining current etags vs the stored docs
    table (``engine.crawl.detect_changed_urls``), recrawl — exactly those K
    urls re-fetch.  Returns the refetched rows (url, etag changed->new)."""
    import shutil

    import pandas as pd

    from engine.crawl import crawl, detect_changed_urls, recrawl
    from engine.synth import CorpusConfig, generate_corpus, modify_pages

    sf = _sf_of(sf_dir)
    n_pages = max(200, int(sf * 4_000))
    cfg = CorpusConfig(n_pages=n_pages, n_hosts=16, n_buckets=8)
    corpus = generate_corpus(
        os.path.join("/tmp", f"graft_recrawl_corpus_{cfg.cache_key()}"), cfg
    )
    budget = {"max_urls_total": n_pages * 10, "max_per_host_per_round": 8,
              "max_depth": 6, "max_rounds": 60}
    ck = corpus + "_ckpt"
    shutil.rmtree(ck, ignore_errors=True)  # the workflow runs fresh each call
    first = crawl(corpus, ck, budget, resume=False)

    docs = first.docs_dataset().to_pandas()
    hits = sorted(docs[docs.status == "hit"].url.unique().tolist())
    targets = hits[: min(10, len(hits))]
    mod = modify_pages(corpus, corpus + "_mod", targets)
    changed = detect_changed_urls(mod, ck)
    res = recrawl(mod, ck, budget)
    docs2 = res.docs_dataset().to_pandas()
    new_rows = docs2[docs2.fetch_seq >= first.cumulative["attempted"]]
    return pd.DataFrame(
        {
            "url": sorted(new_rows.url.tolist()),
            "detected": [u in set(changed) for u in sorted(new_rows.url.tolist())],
        }
    )


def warc_golden_check(sf_dir: str):
    """WARC source/sink golden check (the Common-Crawl-style interchange
    format, engine/warc.py): serialize the synth corpus's pages into WARC
    shards — plain AND per-record-gzip — read both back through the
    distributed parser, and report per-(url, variant) byte-identity of the
    html payload plus warc_ts round-trip against the source table."""
    import pandas as pd
    import ray.data as rd

    from engine.synth import CorpusConfig, generate_corpus
    from engine.warc import read_warc, write_warc_shards

    sf = _sf_of(sf_dir)
    n_pages = max(200, int(sf * 20_000))
    cfg = CorpusConfig(n_pages=n_pages, n_hosts=20, n_buckets=8)
    corpus = generate_corpus(
        os.path.join("/tmp", f"graft_corpus_{cfg.cache_key()}"), cfg
    )
    import glob as _glob

    frames = []
    for variant, gz in (("plain", False), ("gzip", True)):
        out = write_warc_shards(corpus, n_shards=8, gz=gz)
        paths = sorted(_glob.glob(os.path.join(out, "shard-*.warc*")))
        got = read_warc(paths).to_pandas()
        want = rd.read_parquet(
            os.path.join(corpus, "pages"),
            columns=["url", "warc_ts", "html"]).to_pandas()
        m = got.merge(want, on="url", suffixes=("", "_want"))
        df = pd.DataFrame({
            "url": m["url"],
            "variant": variant,
            "identical": [
                bytes(a) == bytes(b) and t1 == t2
                for a, b, t1, t2 in zip(m["html"], m["html_want"],
                                        m["warc_ts"], m["warc_ts_want"])],
        })
        assert len(got) == len(want), (len(got), len(want))
        frames.append(df)
    return (pd.concat(frames).sort_values(["variant", "url"])
            .reset_index(drop=True))


def pdf_golden_check(sf_dir: str, encoding: str = "pdf_flate"):
    """PDF-encoding twin of extract_golden_check: generate the FLATE-encoded
    pdf corpus (same content, real PDF bytes with /FlateDecode content
    streams via engine.pdf), re-extract every page through the from-scratch
    content-stream reader (zlib inflate + text operators), and report
    per-url byte-identity against the golden text column."""
    import pyarrow as pa
    import pyarrow.compute as pc
    import ray.data as rd

    from engine.extract import extract_document
    from engine.synth import CorpusConfig, generate_corpus

    sf = _sf_of(sf_dir)
    n_pages = max(200, int(sf * 20_000))  # pdf render+extract is heavier
    if encoding == "pdf_encrypted":
        # the encrypted check's cost is per-page CRYPTO (4 hash_2b writer +
        # 2 reader calls per aes-256 file), and its purpose is cipher-path
        # coverage, not volume: two full cipher x layout cycles suffice
        n_pages = max(200, min(400, n_pages))
    cfg = CorpusConfig(n_pages=n_pages, n_hosts=20, n_buckets=8, encoding=encoding)
    corpus = generate_corpus(
        os.path.join("/tmp", f"graft_corpus_{cfg.cache_key()}"), cfg,
        use_ray=True,
    )
    ds = rd.read_parquet(os.path.join(corpus, "pages"))

    def check(t: pa.Table) -> pa.Table:
        md = [
            extract_document(h.as_py(), u.as_py())["markdown"]
            for h, u in zip(t["html"], t["url"])
        ]
        return pa.table(
            {
                "url": t["url"],
                "identical": pc.equal(t["text"], pa.array(md, pa.string())),
            }
        )

    return (
        ds.map_batches(check, batch_format="pyarrow", batch_size=128)
        .to_pandas()
        .sort_values("url")
        .reset_index(drop=True)
    )


def pdf_xref_golden_check(sf_dir: str):
    """PDF 1.5 twin of pdf_golden_check: the corpus pages are ObjStm-packed
    xref-STREAM PDFs (the post-2010 producer layout, VERDICT r3 next-round
    #3); every page must extract byte-identically via the xref-chain walk
    (``engine.pdf._xref_chain_objects`` + ``_parse_objstm``)."""
    return pdf_golden_check(sf_dir, encoding="pdf_xrefstream")


def pdf_encrypted_golden_check(sf_dir: str):
    """ENCRYPTED twin of pdf_golden_check (VERDICT r4 next-round #3): the
    corpus pages are standard-security-handler PDFs with an EMPTY user
    password — the protected-but-readable corporate file the reference's
    PdfPig opens transparently (PdfToMarkdownConverter.cs:81-113).  The
    cipher cycles rc4-40 / rc4-128 / aes-128 / aes-256(R6, the Acrobat X+
    default with the Algorithm-2.B hardened hash) and the layout alternates
    classic-Flate / ObjStm-packed xref-stream per row, so every
    (cipher x layout) decrypt path (``engine.pdfcrypt`` +
    ``engine.pdf._crypt_body``) must produce byte-identical text."""
    return pdf_golden_check(sf_dir, encoding="pdf_encrypted")


def extract_golden_check(sf_dir: str):
    """Re-extract every page via map_batches; per-url byte-identity vs golden."""
    import pyarrow as pa
    import pyarrow.compute as pc
    import ray.data as rd

    from engine.extract import extract_document

    corpus = _corpus_for(sf_dir)
    ds = rd.read_parquet(os.path.join(corpus, "pages"))

    def check(t: pa.Table) -> pa.Table:
        md = [
            extract_document(h.as_py(), u.as_py())["markdown"]
            for h, u in zip(t["html"], t["url"])
        ]
        return pa.table(
            {
                "url": t["url"],
                "identical": pc.equal(t["text"], pa.array(md, pa.string())),
            }
        )

    return ds.map_batches(check, batch_format="pyarrow", batch_size=256).to_pandas().sort_values("url").reset_index(drop=True)


# ---------------------------------------------------------------------------
# Driver contract
# ---------------------------------------------------------------------------

def entry() -> Any:
    """Flagship: crawl the sf0.001-scale corpus; return the fetch-order table."""
    return crawl_order("/root/testdata/sf0.001").to_pandas()


def queries() -> dict[str, Callable[[str], Any]]:
    from engine.ops import ann, curate, dedup, ml, multimodal, relational, text

    return {
        # relational / aggregation / join / sort / window (SURVEY §2.4-2.6, §2.9)
        "q1_agg": relational.q1_lineitem_agg,
        "mktsegment_revenue": relational.mktsegment_revenue,
        "top_orders": relational.top_orders,
        "events_hourly": relational.events_hourly,
        "events_hourly_dense": relational.events_hourly_dense,
        "incremental_events_hourly": relational.incremental_events_hourly,
        "session_length_histogram": relational.session_length_histogram,
        "zorder_layout_events": relational.zorder_layout_events,
        "zorder_pruned_count": relational.zorder_pruned_count,
        "join_size_estimate": relational.join_size_estimate,
        "value_winsorized_stats": relational.value_winsorized_stats,
        "events_global_seq": relational.events_global_seq,
        "sessionize_events": relational.sessionize_events,
        "events_asof_join": relational.events_asof_join,
        "events_running_sum": relational.events_running_sum,
        "events_hopping": relational.events_hopping,
        "allowlist_filter": relational.allowlist_filter,
        "distinct_sources": relational.distinct_sources,
        "nation_region_join": relational.nation_region_join,
        "order_priority_revenue": relational.order_priority_revenue,
        "top_order_per_customer": relational.top_order_per_customer,
        "sample_documents": relational.sample_documents,
        "stratified_sample": relational.stratified_sample,
        "distinct_users_per_type": relational.distinct_users_per_type,
        "pagerank_docs": relational.pagerank_docs,
        "personalized_pagerank": relational.personalized_pagerank,
        "link_degree_assortativity": relational.link_degree_assortativity,
        "part_affinity_pairs": relational.part_affinity_pairs,
        "orders_snapshot_diff": relational.orders_snapshot_diff,
        "events_percent_rank": relational.events_percent_rank,
        "value_mode_per_type": relational.value_mode_per_type,
        "fk_integrity_report": relational.fk_integrity_report,
        "kmeans_inertia_report": ann.kmeans_inertia_report,
        "parts_abc_classification": relational.parts_abc_classification,
        "near_dup_rate_by_source": dedup.near_dup_rate_by_source,
        "redirect_cycles": relational.redirect_cycles,
        "link_weighted_paths": relational.link_weighted_paths,
        "hits_docs": relational.hits_docs,
        "triangle_count": relational.triangle_count,
        "orders_without_lineitems": relational.orders_without_lineitems,
        "orders_with_lineitems_bloom": relational.orders_with_lineitems_bloom,
        "events_funnel": relational.events_funnel,
        "source_mix_weighted": curate.source_mix_weighted,
        "cap_per_source": curate.cap_per_source,
        "global_shuffle": curate.global_shuffle,
        "dataset_split_assign": curate.dataset_split_assign,
        "value_quantiles_per_type": relational.value_quantiles_per_type,
        "revenue_rollup": relational.revenue_rollup,
        "value_stats_per_type": relational.value_stats_per_type,
        "events_moving_avg": relational.events_moving_avg,
        "events_lag_delta": relational.events_lag_delta,
        "events_range_join": relational.events_range_join,
        "doc_length_quantiles": relational.doc_length_quantiles,
        "brand_nation_profit": relational.brand_nation_profit,
        "revenue_filter_agg": relational.revenue_filter_agg,
        "small_quantity_revenue": relational.small_quantity_revenue,
        "sole_return_supplier": relational.sole_return_supplier,
        "min_cost_supplier": relational.min_cost_supplier,
        "customer_order_distribution": relational.customer_order_distribution,
        "idle_rich_customers": relational.idle_rich_customers,
        "events_hourly_anomalies": relational.events_hourly_anomalies,
        "campaign_attribution": relational.campaign_attribution,
        "props_json_stats": relational.props_json_stats,
        "events_sliding_distinct_users": relational.events_sliding_distinct_users,
        # rows-only: HLL sketch variant of the sliding distinct (accuracy
        # vs the exact op pytest-locked at the HLL envelope)
        "events_sliding_distinct_hll": relational.events_sliding_distinct_hll,
        "brand_price_trend": relational.brand_price_trend,
        "promo_revenue_share": relational.promo_revenue_share,
        "returned_item_revenue": relational.returned_item_revenue,
        "volume_shipping": relational.volume_shipping,
        "large_order_customers": relational.large_order_customers,
        "source_cap_sample": relational.source_cap_sample,
        "nation_market_share": relational.nation_market_share,
        "linestatus_priority_counts": relational.linestatus_priority_counts,
        "part_supplier_counts": relational.part_supplier_counts,
        "important_parts": relational.important_parts,
        "converted_clean_users": relational.converted_clean_users,
        "events_late_arrivals": relational.events_late_arrivals,
        "potential_promotion_suppliers": relational.potential_promotion_suppliers,
        "local_supplier_revenue": relational.local_supplier_revenue,
        "customer_yoy_revenue": relational.customer_yoy_revenue,
        "event_path_counts": relational.event_path_counts,
        "bracket_discount_revenue": relational.bracket_discount_revenue,
        "revenue_cube": relational.revenue_cube,
        "top_revenue_supplier": relational.top_revenue_supplier,
        "value_histogram": relational.value_histogram,
        "value_mad_per_type": relational.value_mad_per_type,
        "event_type_day_pivot": relational.event_type_day_pivot,
        "source_drift_ks": relational.source_drift_ks,
        "user_value_deciles": relational.user_value_deciles,
        "customer_order_gaps": relational.customer_order_gaps,
        "degree_distribution": relational.degree_distribution,
        "user_retention_cohorts": relational.user_retention_cohorts,
        "event_transition_counts": relational.event_transition_counts,
        "link_bfs_depth": relational.link_bfs_depth,
        "anchor_text_topk": relational.anchor_text_topk,
        "order_skyline": relational.order_skyline,
        "event_type_correlations": relational.event_type_correlations,
        "reciprocal_links": relational.reciprocal_links,
        "orders_scd2_merge": relational.orders_scd2_merge,
        "k_core_docs": relational.k_core_docs,
        "butterfly_count_events": relational.butterfly_count_events,
        "event_value_trend": relational.event_value_trend,
        "daily_order_ship_balance": relational.daily_order_ship_balance,
        "concurrent_sessions_peak": relational.concurrent_sessions_peak,
        "link_prediction_ra": relational.link_prediction_ra,
        "robots_gate": relational.robots_gate,
        "folder_rollup_docs": relational.folder_rollup_docs,
        "supplier_ship_coverage": relational.supplier_ship_coverage,
        "event_pattern_counts": relational.event_pattern_counts,
        "orders_scd2_asof": relational.orders_scd2_asof,
        "multi_touch_attribution": relational.multi_touch_attribution,
        "table_checksums": relational.table_checksums,
        "conversion_delay_quantiles": relational.conversion_delay_quantiles,
        "catalog_stats_collect": relational.catalog_stats_collect,
        "link_parity_conflicts": relational.link_parity_conflicts,
        # text analysis (M11/M12/M13 + training-data ops)
        "token_count": text.token_count,
        "token_count_bpe": text.token_count_bpe,
        "quality_score": text.quality_score,
        "readability_score": text.readability_score,
        "classify": text.classify,
        "keywords_topk": text.keywords_topk,
        "tfidf_topk": text.tfidf_topk,
        "bm25_topk": text.bm25_topk,
        "phrase_search": text.phrase_search,
        "inverted_postings": text.inverted_postings,
        "incremental_inverted_postings": text.incremental_inverted_postings,
        "token_frequency_spectrum": text.token_frequency_spectrum,
        "term_burstiness": text.term_burstiness,
        "filter_funnel": text.filter_funnel,
        "vocab_growth_curve": text.vocab_growth_curve,
        # rows-only: sketch scoreboard (KMV oracled exactly elsewhere;
        # HLL envelope pytest-locked; exact side is a plain distinct count)
        "distinct_sketch_report": text.distinct_sketch_report,
        "bigram_pmi_topk": text.bigram_pmi_topk,
        "char_entropy": text.char_entropy,
        "kmv_distinct_tokens": text.kmv_distinct_tokens,
        "kmv_token_overlap": text.kmv_token_overlap,
        "source_lang_chi2": text.source_lang_chi2,
        "lang_counts": text.lang_counts,
        "k_anonymity_report": text.k_anonymity_report,
        "langid_predict": text.langid_predict,
        "langid_confusion_matrix": text.langid_confusion_matrix,
        "typo_token_pairs": text.typo_token_pairs,
        "fingerprint_md5": text.fingerprint_md5,
        "median_doc_hash": text.median_doc_hash,
        "fingerprint_rolling": text.fingerprint_rolling,
        "feature_hash_embed": text.feature_hash_embed,
        "hll_distinct_tokens": text.hll_distinct_tokens,
        "compression_ratio": text.compression_ratio,
        "gopher_quality_flags": text.gopher_quality_flags,
        "gram_repetition_stats": text.gram_repetition_stats,
        "top_docs_per_lang": text.top_docs_per_lang,
        "chunk_documents": text.chunk_documents,
        "chunk_tokens": text.chunk_tokens,
        "lm_perplexity_bucket": text.lm_perplexity_bucket,
        "dsir_importance_weights": text.dsir_importance_weights,
        "pii_redact": text.pii_redact,
        "pack_sequences": text.pack_sequences,
        # rows-only: iterative (vocab-level BPE rounds), not SQL-expressible;
        # exactness locked by test_bpe_train_merges_matches_sequential
        "bpe_train_merges": text.bpe_train_merges,
        # rows-only: encodes with the trained merges (20-round replay not
        # SQL-expressible); locked by test_bpe_apply_matches_sequential_encoder
        "bpe_apply": text.bpe_apply,
        "cms_sketch_tokens": text.cms_sketch_tokens,
        "cms_heavy_hitters": text.cms_heavy_hitters,
        # rows-only: iterative model training (AdaGrad), not SQL-expressible;
        # exactness locked by tests/test_ml.py vs a sequential reference +
        # partition invariance
        "quality_classifier_score": ml.quality_classifier_score,
        "quality_classifier_metrics": ml.quality_classifier_metrics,
        # rows-only: iterative model; integer PR counts pytest-locked
        "quality_classifier_pr_curve": ml.quality_classifier_pr_curve,
        # rows-only: normal-equation solve isn't SQL; exact-integer X^T X /
        # X^T y all-reduce, sequential-reference + planted-linear pytest
        "hash_feature_regression": ml.hash_feature_regression,
        # dedup family
        "exact_dedup": dedup.exact_dedup,
        "chunk_exact_dedup": dedup.chunk_exact_dedup,
        "incremental_exact_dedup": dedup.incremental_exact_dedup,
        "incremental_minhash_dedup": dedup.incremental_minhash_dedup,
        "minhash_lsh_pairs": dedup.minhash_lsh_pairs,
        "near_dedup_canonical": dedup.near_dedup_canonical,
        "simhash_signatures": dedup.simhash_signatures,
        "simhash_near_pairs": dedup.simhash_near_pairs,
        "ngram_jaccard_pairs": dedup.ngram_jaccard_pairs,
        "ppjoin_pairs": dedup.ppjoin_pairs,
        "ngram_containment_pairs": dedup.ngram_containment_pairs,
        "dedup_recall_report": dedup.dedup_recall_report,
        "dup_ngram_spans": dedup.dup_ngram_spans,
        "winnow_fingerprints": dedup.winnow_fingerprints,
        "winnow_overlap_pairs": dedup.winnow_overlap_pairs,
        "strip_dup_spans": dedup.strip_dup_spans,
        "c4_line_dedup": dedup.c4_line_dedup,
        "host_boilerplate_strip": dedup.host_boilerplate_strip,
        "decontaminate_ngrams": dedup.decontaminate_ngrams,
        "eval_affinity_counts": dedup.eval_affinity_counts,
        "near_dedup_cluster_stats": dedup.near_dedup_cluster_stats,
        "dedup_keep_best": dedup.dedup_keep_best,
        "curate_training_data": curate.curate_training_data,
        "source_quality_stats": curate.source_quality_stats,
        "export_training_shards": curate.export_training_shards,
        "export_jsonl_shards": curate.export_jsonl_shards,
        "export_shuffled_shards": curate.export_shuffled_shards,
        "forget_documents": curate.forget_documents,
        # similarity search
        "ann_topk": ann.ann_topk_bruteforce,
        "ann_topk_filtered": ann.ann_topk_filtered,
        "ann_topk_lsh": ann.ann_topk_lsh,
        "ann_topk_ivf": ann.ann_topk_ivf,
        "ann_recall_report": ann.ann_recall_report,
        "ann_topk_ivfpq": ann.ann_topk_ivfpq,
        "semdedup_pairs": ann.semdedup_pairs,
        "semdedup_canonical": ann.semdedup_canonical,
        "ann_topk_ivf_partitioned": ann.ann_topk_ivf_partitioned,
        "embedding_near_pairs": ann.embedding_near_pairs,
        "embedding_dedup_canonical": ann.embedding_dedup_canonical,
        "embedding_moments": ann.embedding_moments,
        "embedding_quantize": ann.embedding_quantize,
        "embedding_similarity_histogram": ann.embedding_similarity_histogram,
        "embedding_norm_outliers": ann.embedding_norm_outliers,
        "label_centroids": ann.label_centroids,
        "embedding_kmeans": ann.embedding_kmeans,
        # rows-only: k-means cells aren't SQL; pytest locks a brute-force
        # within-cell reference + planted-pair membership + determinism
        "knn_graph": ann.knn_graph,
        # rows-only: eigendecomposition isn't SQL; the moment INPUTS are
        # oracle-checked via embedding_moments, projection pytest-locked
        "embedding_pca_project": ann.embedding_pca_project,
        # rows-only: matrix inversion isn't SQL; the moment INPUTS are
        # oracle-checked via embedding_moments, flagging pytest-locked
        "embedding_mahalanobis_outliers": ann.embedding_mahalanobis_outliers,
        # multimodal plumbing
        "media_sizes": multimodal.media_sizes,
        "media_metadata": multimodal.media_metadata,
        "media_features": multimodal.media_features,
        "media_decode": multimodal.media_decode,
        "media_signal_stats": multimodal.media_signal_stats,
        # rows-only: DFT isn't SQL; planted-tone pytest locks the peak band
        "media_spectrogram": multimodal.media_spectrogram,
        # rows-only: 2:1 integer box decimation + writer-twin re-encode;
        # planted pytest locks tone preservation + Nyquist cancellation
        "media_audio_resample": multimodal.media_audio_resample,
        "media_dominant_colors": multimodal.media_dominant_colors,
        # rows-only: codec decode isn't SQL; pytest locks cross-codec twin
        # collapse + hash invariance + determinism
        "media_phash_dedup": multimodal.media_phash_dedup,
        # rows-only: codec decode isn't SQL; pytest locks the banded result
        # equal to a brute-force all-pairs reference + planted noisy twins
        "media_phash_near_pairs": multimodal.media_phash_near_pairs,
        # rows-only: PDF XObject extraction -> real JPEG/raw decode; round
        # trip + text coexistence pytest-locked
        "pdf_image_extract": multimodal.pdf_image_extract,
        "media_thumbnails": multimodal.media_thumbnails,
        "media_frames": multimodal.media_frames,
        # the crawl engine itself (no SQL view of the synthetic pages corpus)
        "crawl_order": crawl_order,
        "crawl_seen": crawl_seen,
        "crawl_counters": crawl_counters,
        "crawl_chunks": crawl_chunks,
        "crawl_search_topk": crawl_search_topk,
        "crawl_errors": crawl_errors,
        "crawl_metrics": crawl_metrics,
        "crawl_recrawl": crawl_recrawl,
        "extract_golden_check": extract_golden_check,
        "pdf_golden_check": pdf_golden_check,
        "warc_golden_check": warc_golden_check,
        "pdf_xref_golden_check": pdf_xref_golden_check,
        "pdf_encrypted_golden_check": pdf_encrypted_golden_check,
    }


def oracle_sql() -> dict[str, str]:
    from engine import oracles as _lsh_oracles
    from engine.ops import ann, dedup, relational, text
    from engine.ops.text import CATEGORY_PATTERNS, STOP_WORDS

    stop_list = ", ".join(f"'{w}'" for w in STOP_WORDS)
    cat_case = " ".join(
        f"WHEN regexp_matches(text, '{pat[4:]}', 'i') THEN '{label}'"
        for pat, label in CATEGORY_PATTERNS
    )
    # langid oracle generated FROM the engine's profiles so they can't drift;
    # CASE order = sorted profile names = the Python strict-greater tie-break
    from engine.ops.text import _LANG_PROFILES

    _langs = sorted(_LANG_PROFILES)
    lang_counts_sql = ",\n                   ".join(
        "len(list_filter(words, x -> x IN ({}))) AS n_{}".format(
            ", ".join(f"'{w}'" for w in sorted(_LANG_PROFILES[lang])), lang)
        for lang in _langs
    )
    _mx = "greatest({})".format(", ".join(f"n_{lang}" for lang in _langs))
    lang_case = (
        f"CASE WHEN {_mx} = 0 THEN 'und' "
        + " ".join(f"WHEN n_{lang} = {_mx} THEN '{lang}'" for lang in _langs[:-1])
        + f" ELSE '{_langs[-1]}' END"
    )
    # rolling-fingerprint oracle: powers B^e mod 2^64 generated from the
    # engine's base so the ring can't drift (window=16 default)
    from engine.ops.text import _ROLL_B

    _roll_w = 16
    roll_powers = ", ".join(
        f"({e}, CAST({pow(int(_ROLL_B), e, 1 << 64)} AS UBIGINT))"
        for e in range(_roll_w)
    )
    # pagerank oracle: the 5 power iterations unrolled as generated CTEs
    # over the same hash-derived edge set ((doc_id*31+s) % n, s in 1..3)
    _pr_iters = 5
    _pr = [
        "nodes AS (SELECT doc_id FROM documents)",
        "p AS (SELECT count(*) AS n FROM documents)",
        "e AS (SELECT doc_id AS src, (doc_id*31 + s.s) % (SELECT n FROM p) AS dst"
        " FROM documents, (SELECT unnest([1,2,3]) AS s) s)",
        "r0 AS (SELECT doc_id, 1.0/(SELECT n FROM p) AS rank FROM nodes)",
    ]
    for _i in range(1, _pr_iters + 1):
        _pr.append(
            f"r{_i} AS (SELECT nodes.doc_id, (1-0.85)/(SELECT n FROM p)"
            f" + 0.85*coalesce(sum(r{_i-1}.rank/3), 0) AS rank"
            f" FROM nodes LEFT JOIN e ON e.dst = nodes.doc_id"
            f" LEFT JOIN r{_i-1} ON r{_i-1}.doc_id = e.src"
            f" GROUP BY nodes.doc_id)"
        )
    pagerank_sql = (
        "WITH " + ",\n ".join(_pr)
        + f"\nSELECT doc_id, round(rank, 9) AS rank FROM r{_pr_iters} ORDER BY doc_id"
    )
    # personalized pagerank: teleport mass restricted to the seed set
    # doc_id % 97 == 0 (Haveliwala topic-sensitive variant); same edge set,
    # 4 iterations, identical float expressions to the engine
    _ppr_iters = 4
    _ppr = [
        "nodes AS (SELECT doc_id FROM documents)",
        "p AS (SELECT count(*) AS n FROM documents)",
        "s AS (SELECT count(*) AS ns FROM documents WHERE doc_id % 97 = 0)",
        "e AS (SELECT doc_id AS src, (doc_id*31 + s.s) % (SELECT n FROM p) AS dst"
        " FROM documents, (SELECT unnest([1,2,3]) AS s) s)",
        "r0 AS (SELECT doc_id, CASE WHEN doc_id % 97 = 0"
        " THEN 1.0/(SELECT ns FROM s) ELSE 0.0 END AS rank FROM nodes)",
    ]
    for _i in range(1, _ppr_iters + 1):
        _ppr.append(
            f"r{_i} AS (SELECT nodes.doc_id, (CASE WHEN nodes.doc_id % 97 = 0"
            f" THEN (1-0.85)/(SELECT ns FROM s) ELSE 0.0 END)"
            f" + 0.85*coalesce(sum(r{_i-1}.rank/3), 0) AS rank"
            f" FROM nodes LEFT JOIN e ON e.dst = nodes.doc_id"
            f" LEFT JOIN r{_i-1} ON r{_i-1}.doc_id = e.src"
            f" GROUP BY nodes.doc_id)"
        )
    ppr_sql = (
        "WITH " + ",\n ".join(_ppr)
        + f"\nSELECT doc_id, round(rank, 9) AS rank FROM r{_ppr_iters}"
        " ORDER BY doc_id"
    )
    # HITS oracle: the 3 L1-normalized half-step pairs unrolled over the
    # same edge set (authority from in-edges, hub from out-edges)
    _hi_iters = 3
    _hi = [
        "nodes AS (SELECT doc_id FROM documents)",
        "p AS (SELECT count(*) AS n FROM documents)",
        "e AS (SELECT doc_id AS src, (doc_id*31 + s.s) % (SELECT n FROM p) AS dst"
        " FROM documents, (SELECT unnest([1,2,3]) AS s) s)",
        "h0 AS (SELECT doc_id, 1.0/(SELECT n FROM p) AS val FROM nodes)",
    ]
    for _i in range(1, _hi_iters + 1):
        _hi.append(
            f"a{_i}raw AS (SELECT nodes.doc_id, coalesce(sum(h{_i-1}.val), 0) AS x"
            f" FROM nodes LEFT JOIN e ON e.dst = nodes.doc_id"
            f" LEFT JOIN h{_i-1} ON h{_i-1}.doc_id = e.src GROUP BY nodes.doc_id)"
        )
        _hi.append(
            f"a{_i} AS (SELECT doc_id, x/(SELECT sum(x) FROM a{_i}raw) AS val"
            f" FROM a{_i}raw)"
        )
        _hi.append(
            f"h{_i}raw AS (SELECT nodes.doc_id, coalesce(sum(a{_i}.val), 0) AS x"
            f" FROM nodes LEFT JOIN e ON e.src = nodes.doc_id"
            f" LEFT JOIN a{_i} ON a{_i}.doc_id = e.dst GROUP BY nodes.doc_id)"
        )
        _hi.append(
            f"h{_i} AS (SELECT doc_id, x/(SELECT sum(x) FROM h{_i}raw) AS val"
            f" FROM h{_i}raw)"
        )
    hits_sql = (
        "WITH " + ",\n ".join(_hi)
        + f"\nSELECT n.doc_id, round(h{_hi_iters}.val, 9) AS hub,"
        f" round(a{_hi_iters}.val, 9) AS authority"
        f" FROM nodes n JOIN h{_hi_iters} ON h{_hi_iters}.doc_id = n.doc_id"
        f" JOIN a{_hi_iters} ON a{_hi_iters}.doc_id = n.doc_id ORDER BY n.doc_id"
    )
    d = {
        "pagerank_docs": pagerank_sql,
        "personalized_pagerank": ppr_sql,
        # Pareto/ABC: integer-exact cumulative-share classes over the
        # (revenue desc, partkey) total order
        "parts_abc_classification": """
            WITH rev AS (SELECT l_partkey AS p,
                         CAST(sum(CAST(floor(l_extendedprice*100 + 0.5)
                                       AS BIGINT)) AS BIGINT) AS r
                         FROM lineitem GROUP BY 1),
            t AS (SELECT CAST(sum(r) AS BIGINT) AS total FROM rev),
            w AS (SELECT p, r, sum(r) OVER (ORDER BY r DESC, p
                            ROWS UNBOUNDED PRECEDING) AS cum FROM rev),
            lab AS (SELECT CASE
                      WHEN cum*100 <= (SELECT total FROM t)*80 THEN 'A'
                      WHEN cum*100 <= (SELECT total FROM t)*95 THEN 'B'
                      ELSE 'C' END AS abc_class, r FROM w)
            SELECT abc_class, count(*)::BIGINT AS n_parts,
                   CAST(sum(r) AS BIGINT) AS revenue_cents
            FROM lab GROUP BY 1 ORDER BY 1""",
        # referential-integrity audit: orphan counts per FK edge
        "fk_integrity_report": """
            SELECT * FROM (
              SELECT 'customer.c_nationkey' AS fk_name,
                     count(*)::BIGINT AS n_child,
                     (count(*) FILTER (WHERE n.n_nationkey IS NULL))::BIGINT
                       AS n_orphans
              FROM customer c LEFT JOIN nation n
                ON n.n_nationkey = c.c_nationkey
              UNION ALL
              SELECT 'lineitem.l_orderkey', count(*)::BIGINT,
                     (count(*) FILTER (WHERE o.o_orderkey IS NULL))::BIGINT
              FROM lineitem l LEFT JOIN orders o
                ON o.o_orderkey = l.l_orderkey
              UNION ALL
              SELECT 'lineitem.l_partkey', count(*)::BIGINT,
                     (count(*) FILTER (WHERE p.p_partkey IS NULL))::BIGINT
              FROM lineitem l LEFT JOIN part p ON p.p_partkey = l.l_partkey
              UNION ALL
              SELECT 'lineitem.l_suppkey', count(*)::BIGINT,
                     (count(*) FILTER (WHERE s.s_suppkey IS NULL))::BIGINT
              FROM lineitem l LEFT JOIN supplier s
                ON s.s_suppkey = l.l_suppkey
              UNION ALL
              SELECT 'nation.n_regionkey', count(*)::BIGINT,
                     (count(*) FILTER (WHERE r.r_regionkey IS NULL))::BIGINT
              FROM nation n LEFT JOIN region r
                ON r.r_regionkey = n.n_regionkey
              UNION ALL
              SELECT 'orders.o_custkey', count(*)::BIGINT,
                     (count(*) FILTER (WHERE c.c_custkey IS NULL))::BIGINT
              FROM orders o LEFT JOIN customer c
                ON c.c_custkey = o.o_custkey
              UNION ALL
              SELECT 'supplier.s_nationkey', count(*)::BIGINT,
                     (count(*) FILTER (WHERE n.n_nationkey IS NULL))::BIGINT
              FROM supplier s LEFT JOIN nation n
                ON n.n_nationkey = s.s_nationkey
            ) ORDER BY fk_name""",
        # exact mode of cent-quantized value per type, ties to LOWEST value
        # (explicit row_number, not SQL mode()'s unspecified tie)
        "value_mode_per_type": """
            WITH c AS (SELECT event_type,
                              CAST(floor(value*100 + 0.5) AS BIGINT) AS cents
                       FROM events),
            g AS (SELECT event_type, cents, count(*)::BIGINT AS n
                  FROM c GROUP BY event_type, cents),
            r AS (SELECT event_type, cents, n,
                         row_number() OVER (PARTITION BY event_type
                                            ORDER BY n DESC, cents) AS rn
                  FROM g)
            SELECT event_type, cents AS mode_cents, n AS n_occurrences
            FROM r WHERE rn = 1 ORDER BY event_type""",
        # PERCENT_RANK per type partition ordered by value (min-rank ties);
        # (r-1)/(n-1) is the same small-int IEEE division on both sides
        "events_percent_rank": """
            SELECT event_id, event_type,
                   percent_rank() OVER (PARTITION BY event_type
                                        ORDER BY value) AS pct
            FROM events ORDER BY event_id""",
        # CDC snapshot diff: base orders vs the deterministically perturbed
        # twin (delete %41, update %37 by +1.00, 100 negative-key inserts)
        "orders_snapshot_diff": """
            WITH base AS (SELECT o_orderkey AS key,
                          CAST(floor(o_totalprice*100 + 0.5) AS BIGINT) AS cents
                          FROM orders),
            nw AS (
              SELECT key, cents + CASE WHEN key % 37 = 0 THEN 100 ELSE 0 END
                     AS cents
              FROM base WHERE key % 41 <> 0
              UNION ALL
              SELECT -(t.k + 1), 100050 FROM range(100) t(k)),
            j AS (SELECT b.cents AS o, nw.cents AS nc
                  FROM base b FULL OUTER JOIN nw ON nw.key = b.key),
            lab AS (SELECT CASE WHEN o IS NULL THEN 'inserted'
                                WHEN nc IS NULL THEN 'deleted'
                                WHEN o = nc THEN 'unchanged'
                                ELSE 'updated' END AS status,
                           CASE WHEN nc IS NULL THEN o ELSE nc END AS v
                    FROM j)
            SELECT status, count(*)::BIGINT AS n_rows,
                   CAST(sum(v) AS BIGINT) AS sum_cents
            FROM lab GROUP BY status ORDER BY status""",
        # market-basket support: distinct-part self-join within each order,
        # unordered pairs p1<p2, top-k on the (cnt desc, p1, p2) total order
        "part_affinity_pairs": """
            WITH parts AS (SELECT DISTINCT l_orderkey AS ok, l_partkey AS p
                           FROM lineitem),
            pairs AS (SELECT a.p AS p1, b.p AS p2 FROM parts a
                      JOIN parts b ON a.ok = b.ok AND a.p < b.p)
            SELECT p1, p2, count(*)::BIGINT AS n_orders FROM pairs
            GROUP BY p1, p2 ORDER BY n_orders DESC, p1, p2 LIMIT 30""",
        # degree assortativity: exact integer Pearson moments over the
        # skewed (3 bijective + quadratic) edge set, HUGEINT -> BIGINT
        "link_degree_assortativity": """
            WITH p AS (SELECT count(*) AS n FROM documents),
            nodes AS (SELECT doc_id FROM documents),
            e0 AS (
              SELECT doc_id AS src,
                     (doc_id*31 + s.s) % (SELECT n FROM p) AS dst
              FROM documents, (SELECT unnest([1,2,3]) AS s) s
              UNION ALL
              SELECT doc_id, (doc_id*doc_id + 1) % (SELECT n FROM p)
              FROM documents),
            e AS (SELECT src, dst FROM e0 WHERE src <> dst),
            ind AS (SELECT dst AS node, count(*) AS deg FROM e GROUP BY dst),
            deg AS (SELECT nodes.doc_id AS node, coalesce(ind.deg, 0) AS deg
                    FROM nodes LEFT JOIN ind ON ind.node = nodes.doc_id),
            j AS (SELECT ds.deg AS x, dd.deg AS y FROM e
                  JOIN deg ds ON ds.node = e.src
                  JOIN deg dd ON dd.node = e.dst)
            SELECT count(*)::BIGINT AS n_edges,
                   sum(x)::BIGINT AS sum_x, sum(y)::BIGINT AS sum_y,
                   sum(x*x)::BIGINT AS sum_xx, sum(y*y)::BIGINT AS sum_yy,
                   sum(x*y)::BIGINT AS sum_xy,
                   (count(*)*sum(x*y) - sum(x)*sum(y))::BIGINT AS num
            FROM j""",
        # permutation cycles = forward closure of the functional redirect
        # map; cycle_id = min reachable node (includes v via LEAST)
        "redirect_cycles": """
            WITH RECURSIVE nn AS (SELECT count(*) AS c FROM documents),
            r(v, u) AS (
              SELECT doc_id, (doc_id * 31 + 1) % (SELECT c FROM nn)
              FROM documents
              UNION
              SELECT r.v, (r.u * 31 + 1) % (SELECT c FROM nn)
              FROM r WHERE r.u <> r.v
            )
            SELECT v AS doc_id, least(v, min(u)) AS cycle_id
            FROM r GROUP BY v ORDER BY doc_id
        """,
        "hits_docs": hits_sql,
        "q1_agg": """
            SELECT l_returnflag, l_linestatus,
                   round(sum(l_quantity), 0) AS sum_qty,
                   round(sum(l_extendedprice), 0) AS sum_base_price,
                   round(sum(l_extendedprice * (1 - l_discount)), 0) AS sum_disc_price,
                   count(*) AS n_rows
            FROM lineitem GROUP BY l_returnflag, l_linestatus
            ORDER BY l_returnflag, l_linestatus
        """,
        "mktsegment_revenue": """
            SELECT c_mktsegment, round(sum(o_totalprice), 0) AS revenue,
                   count(*) AS n_orders
            FROM orders JOIN customer ON o_custkey = c_custkey
            GROUP BY c_mktsegment ORDER BY c_mktsegment
        """,
        "top_orders": """
            SELECT o_orderkey, o_totalprice FROM orders
            ORDER BY o_totalprice DESC, o_orderkey LIMIT 10
        """,
        "events_hourly": """
            SELECT event_type, date_trunc('hour', ts) AS hour, count(*) AS n
            FROM events GROUP BY event_type, hour ORDER BY event_type, hour
        """,
        # incremental view maintenance must reproduce the full recompute
        "incremental_events_hourly": """
            SELECT event_type, date_trunc('hour', ts) AS hour, count(*) AS n
            FROM events GROUP BY event_type, hour ORDER BY event_type, hour
        """,
        # dense calendar: dimension GENERATION + left join zero-fill
        "events_hourly_dense": """
            WITH c AS (
              SELECT event_type, date_trunc('hour', ts) AS hour, count(*) AS n
              FROM events GROUP BY 1, 2),
            b AS (SELECT min(date_trunc('hour', ts)) AS lo,
                         max(date_trunc('hour', ts)) AS hi FROM events),
            cal AS (SELECT unnest(generate_series(lo, hi, INTERVAL 1 HOUR))
                      AS hour FROM b),
            ty AS (SELECT DISTINCT event_type FROM events)
            SELECT ty.event_type, cal.hour, coalesce(c.n, 0) AS n
            FROM ty CROSS JOIN cal
            LEFT JOIN c ON c.event_type = ty.event_type AND c.hour = cal.hour
            ORDER BY ty.event_type, cal.hour
        """,
        "sessionize_events": """
            WITH o AS (
              SELECT user_id, ts, event_id,
                CASE WHEN ts - lag(ts) OVER (PARTITION BY user_id ORDER BY ts, event_id)
                          > INTERVAL 30 MINUTE THEN 1 ELSE 0 END AS brk
              FROM events),
            s AS (
              SELECT user_id, event_id,
                sum(brk) OVER (PARTITION BY user_id ORDER BY ts, event_id
                               ROWS UNBOUNDED PRECEDING) AS sess
              FROM o)
            SELECT user_id, min(event_id) AS session_start, count(*) AS n_events
            FROM s GROUP BY user_id, sess ORDER BY user_id, session_start
        """,
        "events_asof_join": """
            SELECT s.event_id, s.user_id, e.value AS last_error_value
            FROM (SELECT * FROM events WHERE event_type = 'signup') s
            ASOF JOIN (SELECT * FROM events WHERE event_type = 'error') e
              ON s.user_id = e.user_id AND s.ts >= e.ts
            ORDER BY s.event_id
        """,
        # engagement-depth histogram over the 30-min-gap sessionization
        "session_length_histogram": """
            WITH o AS (
              SELECT user_id, ts, event_id,
                CASE WHEN ts - lag(ts) OVER (PARTITION BY user_id ORDER BY ts, event_id)
                          > INTERVAL 30 MINUTE THEN 1 ELSE 0 END AS brk
              FROM events),
            s AS (
              SELECT user_id, event_id,
                sum(brk) OVER (PARTITION BY user_id ORDER BY ts, event_id
                               ROWS UNBOUNDED PRECEDING) AS sess
              FROM o),
            g AS (SELECT user_id, sess, count(*) AS n_events
                  FROM s GROUP BY user_id, sess)
            SELECT n_events, count(*) AS n_sessions
            FROM g GROUP BY n_events ORDER BY n_events
        """,
        "events_hopping": """
            SELECT event_type,
                   time_bucket(INTERVAL '15 minutes', ts)
                     - to_microseconds(j * 15 * 60 * 1000000) AS window_start,
                   count(*) AS n
            FROM events, (SELECT unnest(range(0, 4)) AS j)
            GROUP BY event_type, window_start
            ORDER BY event_type, window_start
        """,
        "events_running_sum": """
            SELECT event_id, user_id,
                   round(sum(value) OVER (PARTITION BY user_id
                                          ORDER BY ts, event_id
                                          ROWS UNBOUNDED PRECEDING), 2)
                     AS running_value
            FROM events ORDER BY event_id
        """,
        "allowlist_filter": """
            SELECT doc_id, source, n_chars FROM documents
            WHERE source IN ('src1', 'src3') ORDER BY doc_id
        """,
        "distinct_sources": "SELECT DISTINCT source FROM documents ORDER BY source",
        "order_priority_revenue": """
            SELECT o_orderpriority,
                   round(sum(l_extendedprice * (1 - l_discount)), 0) AS revenue
            FROM orders JOIN lineitem ON l_orderkey = o_orderkey
            GROUP BY o_orderpriority ORDER BY o_orderpriority
        """,
        "top_order_per_customer": """
            SELECT o_custkey, o_orderkey, o_totalprice FROM orders
            QUALIFY row_number() OVER (
              PARTITION BY o_custkey
              ORDER BY o_totalprice DESC, o_orderkey
            ) = 1
            ORDER BY o_custkey
        """,
        "sample_documents": """
            SELECT doc_id, source, n_chars FROM documents
            WHERE (doc_id * 2654435761) % 100 < 10 ORDER BY doc_id
        """,
        "value_stats_per_type": """
            SELECT event_type, count(*) AS n_events,
                   round(sum(value), 2) AS sum_value,
                   round(stddev_samp(value), 4) AS stddev_value
            FROM events GROUP BY event_type ORDER BY event_type
        """,
        "events_moving_avg": """
            SELECT event_id, user_id,
                   round(avg(value) OVER (
                     PARTITION BY user_id ORDER BY ts, event_id
                     ROWS BETWEEN 2 PRECEDING AND CURRENT ROW), 4)
                     AS moving_avg
            FROM events ORDER BY event_id
        """,
        "top_docs_per_lang": """
            SELECT lang, rnk, doc_id, n_chars FROM (
              SELECT lang, doc_id, n_chars,
                     row_number() OVER (PARTITION BY lang
                                        ORDER BY n_chars DESC, doc_id) AS rnk
              FROM documents)
            WHERE rnk <= 3 ORDER BY lang, rnk
        """,
        "revenue_rollup": """
            SELECT o_orderpriority, o_orderstatus,
                   round(sum(o_totalprice), 0) AS revenue,
                   count(*) AS n_orders
            FROM orders
            GROUP BY ROLLUP (o_orderpriority, o_orderstatus)
            ORDER BY o_orderpriority NULLS FIRST, o_orderstatus NULLS FIRST
        """,
        "value_quantiles_per_type": """
            WITH c AS (SELECT event_type,
                              CAST(round(value * 100) AS BIGINT) AS cents
                       FROM events)
            SELECT event_type, count(*) AS n_events,
                   quantile_disc(cents, 0.5) AS p50_cents,
                   quantile_disc(cents, 0.9) AS p90_cents,
                   quantile_disc(cents, 0.99) AS p99_cents
            FROM c GROUP BY event_type ORDER BY event_type
        """,
        "orders_without_lineitems": """
            SELECT o_orderkey, o_totalprice FROM orders o
            WHERE NOT EXISTS (SELECT 1 FROM lineitem l
                              WHERE l.l_orderkey = o.o_orderkey)
            ORDER BY o_orderkey
        """,
        "orders_with_lineitems_bloom": """
            SELECT o_orderkey, o_totalprice FROM orders o
            WHERE EXISTS (SELECT 1 FROM lineitem l
                          WHERE l.l_orderkey = o.o_orderkey)
            ORDER BY o_orderkey
        """,
        "events_funnel": """
            WITH e AS (SELECT user_id, event_type, ts FROM events
                       WHERE event_type IN ('signup', 'purchase', 'click')),
            s1 AS (SELECT user_id, min(ts) AS t1 FROM e
                   WHERE event_type = 'signup' GROUP BY user_id),
            s2 AS (SELECT e.user_id, min(ts) AS t2 FROM e
                   JOIN s1 USING (user_id)
                   WHERE event_type = 'purchase' AND ts > s1.t1
                     AND ts <= s1.t1 + INTERVAL 24 HOUR GROUP BY e.user_id),
            s3 AS (SELECT e.user_id, min(ts) AS t3 FROM e
                   JOIN s2 USING (user_id)
                   WHERE event_type = 'click' AND ts > s2.t2
                     AND ts <= s2.t2 + INTERVAL 24 HOUR GROUP BY e.user_id),
            c AS (
              SELECT 1 AS stage, 'signup' AS event_type,
                     (SELECT count(*) FROM s1) AS n_users
              UNION ALL SELECT 2, 'purchase', (SELECT count(*) FROM s2)
              UNION ALL SELECT 3, 'click', (SELECT count(*) FROM s3))
            SELECT stage::BIGINT AS stage, event_type,
                   n_users::BIGINT AS n_users
            FROM c ORDER BY stage
        """,
        "distinct_users_per_type": """
            SELECT event_type, count(DISTINCT user_id) AS n_users
            FROM events GROUP BY event_type ORDER BY event_type
        """,
        "stratified_sample": """
            SELECT doc_id, lang, n_chars FROM documents
            WHERE (lang = 'en' AND (doc_id * 2654435761) % 100 < 10)
               OR (lang = 'de' AND (doc_id * 2654435761) % 100 < 50)
            ORDER BY doc_id
        """,
        "brand_nation_profit": """
            SELECT p_brand, n_name,
                   round(sum(l_extendedprice * (1 - l_discount)), 0) AS revenue,
                   count(*) AS n_lines
            FROM lineitem
            JOIN part ON l_partkey = p_partkey
            JOIN supplier ON l_suppkey = s_suppkey
            JOIN nation ON s_nationkey = n_nationkey
            GROUP BY p_brand, n_name ORDER BY p_brand, n_name
        """,
        "revenue_filter_agg": """
            SELECT round(sum(l_extendedprice * l_discount), 0) AS revenue,
                   count(*) AS n_rows
            FROM lineitem
            WHERE l_shipdate >= TIMESTAMP '1996-01-01'
              AND l_shipdate <  TIMESTAMP '1998-01-01'
              AND l_discount >= 0.05 AND l_discount <= 0.07
              AND l_quantity < 24.0
        """,
        "events_lag_delta": """
            WITH o AS (
              SELECT event_id, user_id, epoch_us(ts) AS t,
                     lag(epoch_us(ts)) OVER (
                       PARTITION BY user_id ORDER BY ts, event_id) AS pt
              FROM events)
            SELECT event_id, user_id, t - pt AS delta_us
            FROM o WHERE pt IS NOT NULL ORDER BY event_id
        """,
        "events_range_join": """
            SELECT s.event_id, s.user_id,
                   count(c.ts) AS n_clicks,
                   round(coalesce(sum(c.value), 0), 2) AS sum_value
            FROM (SELECT * FROM events WHERE event_type = 'signup') s
            LEFT JOIN (SELECT * FROM events WHERE event_type = 'click') c
              ON c.user_id = s.user_id
             AND c.ts > s.ts - INTERVAL 60 MINUTE AND c.ts <= s.ts
            GROUP BY s.event_id, s.user_id ORDER BY s.event_id
        """,
        "doc_length_quantiles": """
            SELECT count(*) AS n_docs,
                   quantile_disc(n_chars, 0.5) AS p50,
                   quantile_disc(n_chars, 0.9) AS p90,
                   quantile_disc(n_chars, 0.99) AS p99,
                   max(n_chars) AS max_chars
            FROM documents
        """,
        "gram_repetition_stats": r"""
            WITH t AS (
              SELECT doc_id,
                     list_filter(string_split_regex(lower(text), '\s+'),
                                 x -> x <> '') AS l
              FROM documents),
            p2 AS (
              SELECT doc_id, l[i] || ' ' || l[i+1] AS g
              FROM (SELECT doc_id, l, unnest(range(1, len(l))) AS i FROM t)),
            p3 AS (
              SELECT doc_id, l[i] || ' ' || l[i+1] || ' ' || l[i+2] AS g
              FROM (SELECT doc_id, l, unnest(range(1, len(l) - 1)) AS i FROM t)),
            t2 AS (
              SELECT doc_id, c AS top2_count, length(g) AS top2_len
              FROM (SELECT doc_id, g, count(*) AS c,
                           row_number() OVER (PARTITION BY doc_id
                                              ORDER BY count(*) DESC, g) AS rn
                    FROM p2 GROUP BY doc_id, g)
              WHERE rn = 1),
            t3 AS (
              SELECT doc_id, c AS top3_count, length(g) AS top3_len
              FROM (SELECT doc_id, g, count(*) AS c,
                           row_number() OVER (PARTITION BY doc_id
                                              ORDER BY count(*) DESC, g) AS rn
                    FROM p3 GROUP BY doc_id, g)
              WHERE rn = 1)
            SELECT t.doc_id, len(t.l) AS n_tokens,
                   coalesce(t2.top2_count, 0) AS top2_count,
                   coalesce(t2.top2_len, 0) AS top2_len,
                   coalesce(t3.top3_count, 0) AS top3_count,
                   coalesce(t3.top3_len, 0) AS top3_len
            FROM t LEFT JOIN t2 USING (doc_id) LEFT JOIN t3 USING (doc_id)
            ORDER BY t.doc_id
        """,
        "nation_region_join": """
            SELECT r_name, count(*) AS n_customers
            FROM customer JOIN nation ON c_nationkey = n_nationkey
                          JOIN region ON n_regionkey = r_regionkey
            GROUP BY r_name ORDER BY r_name
        """,
        "token_count": r"""
            SELECT doc_id, len(regexp_extract_all(text, '\S+')) AS n_tokens
            FROM documents ORDER BY doc_id
        """,
        "token_count_bpe": """
            SELECT doc_id,
                   len(regexp_extract_all(text, '[A-Za-z]+|[0-9]{1,3}|[^A-Za-z0-9\s]+'))
                     AS n_bpe_tokens
            FROM documents ORDER BY doc_id
        """,
        "quality_score": rf"""
            SELECT doc_id,
                   len(string_split_regex(lower(text), '\s+')) AS n_tokens,
                   len(list_filter(string_split_regex(lower(text), '\s+'),
                                   x -> x IN ({stop_list}))) AS n_stop,
                   length(text) AS n_chars
            FROM documents ORDER BY doc_id
        """,
        "classify": f"""
            SELECT doc_id, CASE {cat_case} ELSE 'General' END AS category
            FROM documents ORDER BY doc_id
        """,
        # Flesch reading ease in pure integer micro points: floor division
        # on non-negative counts — engine // and DuckDB // agree exactly
        "readability_score": r"""
            WITH c AS (
              SELECT doc_id,
                     len(regexp_extract_all(text, '[A-Za-z]+')) AS n_words,
                     len(regexp_extract_all(text, '[.!?]')) AS n_sentences,
                     len(regexp_extract_all(text, '[aeiouAEIOU]+'))
                       AS n_vowel_groups
              FROM documents)
            SELECT doc_id, n_words, n_sentences, n_vowel_groups,
                   206835000
                     - (1015000 * n_words) // greatest(n_sentences, 1)
                     - (84600000 * n_vowel_groups) // greatest(n_words, 1)
                     AS flesch_micro
            FROM c ORDER BY doc_id
        """,
        "keywords_topk": f"""
            SELECT term, count(*) AS n FROM (
              SELECT unnest(string_split(lower(text), ' ')) AS term FROM documents)
            WHERE term NOT IN ({stop_list}) AND term <> ''
            GROUP BY term ORDER BY n DESC, term LIMIT 20
        """,
        # score rounded to 6 decimals on BOTH sides (see text.tfidf_topk):
        # libm ln() may differ by 1 ulp between numpy and DuckDB
        "tfidf_topk": r"""
            WITH tf AS (
              SELECT doc_id, term, count(*) AS tf FROM (
                SELECT doc_id,
                       unnest(string_split_regex(lower(text), '\s+')) AS term
                FROM documents)
              WHERE term <> '' GROUP BY doc_id, term
            ), dfx AS (
              SELECT term, count(*) AS df FROM tf GROUP BY term
            ), n AS (SELECT count(*) AS n FROM documents)
            SELECT doc_id, term, tf, df,
                   ROUND(tf * ln(CAST(n.n AS DOUBLE) / df), 6) AS score
            FROM tf JOIN dfx USING (term) CROSS JOIN n
            QUALIFY row_number()
              OVER (PARTITION BY doc_id ORDER BY score DESC, term) <= 5
            ORDER BY doc_id, score DESC, term
        """,
        "lang_counts": "SELECT lang, count(*) AS n FROM documents GROUP BY lang ORDER BY lang",
        # k-anonymity audit over the (lang, source) quasi-identifier pair
        "k_anonymity_report": """
            SELECT lang, source, count(*) AS n_docs,
                   CASE WHEN count(*) < 5 THEN 1 ELSE 0 END AS at_risk
            FROM documents GROUP BY lang, source ORDER BY lang, source
        """,
        "langid_predict": rf"""
            WITH w AS (
              SELECT doc_id,
                     list_distinct(string_split_regex(lower(text), '\s+')) AS words
              FROM documents
            ), c AS (
              SELECT doc_id,
                   {lang_counts_sql}
              FROM w
            )
            SELECT doc_id, {lang_case} AS lang_pred
            FROM c ORDER BY doc_id
        """,
        # confusion matrix of the same generated predictor vs stored labels
        "langid_confusion_matrix": rf"""
            WITH w AS (
              SELECT doc_id, lang,
                     list_distinct(string_split_regex(lower(text), '\s+')) AS words
              FROM documents
            ), c AS (
              SELECT doc_id, lang,
                   {lang_counts_sql}
              FROM w
            ), p AS (
              SELECT lang, {lang_case} AS lang_pred FROM c
            )
            SELECT lang, lang_pred, count(*) AS n_docs
            FROM p GROUP BY lang, lang_pred ORDER BY lang, lang_pred
        """,
        # SymSpell blocking's ground truth: brute-force levenshtein over
        # (top-k queries) x vocab — the blocking must find every pair
        "typo_token_pairs": r"""
            WITH tok AS (
              SELECT unnest(string_split_regex(lower(text), '\s+')) AS w
              FROM documents),
            v AS (SELECT w, count(*) AS c FROM tok WHERE w <> '' GROUP BY w),
            q AS (SELECT w FROM v
                  QUALIFY row_number() OVER (ORDER BY c DESC, w) <= 500)
            SELECT DISTINCT least(a.w, b.w) AS tok_a,
                            greatest(a.w, b.w) AS tok_b
            FROM q a JOIN v b ON levenshtein(a.w, b.w) = 1
            ORDER BY tok_a, tok_b
        """,
        "fingerprint_md5": "SELECT doc_id, md5(text) AS fp FROM documents ORDER BY doc_id",
        # min-of-rolling-polynomial-hash (window 16, ring mod 2^64, result
        # masked to 63 bits AFTER the min — mirrors text._roll_fp_one):
        # bytes come from hex(encode(text)), terms use HUGEINT to avoid
        # overflow, short docs hash their whole length with shrunk powers
        "fingerprint_rolling": f"""
            WITH powers(e, v) AS (VALUES {roll_powers}),
            hx AS (
              SELECT doc_id, hex(encode(text)) AS hs,
                     octet_length(encode(text)) AS n
              FROM documents
            ),
            win AS (
              SELECT doc_id, hs, least(n, {_roll_w}) AS L,
                     unnest(range(0, n - least(n, {_roll_w}) + 1)) AS i
              FROM hx WHERE n > 0
            ),
            trm AS (
              SELECT doc_id, i, L, hs, unnest(range(0, L)) AS j FROM win
            ),
            hsh AS (
              SELECT doc_id, i,
                     CAST(sum(CAST(CAST(('0x' || substr(hs, CAST(2*(i+j)+1 AS INT), 2))
                                        AS UBIGINT) AS HUGEINT) * CAST(p.v AS HUGEINT))
                          % 18446744073709551616 AS UBIGINT) AS h64
              FROM trm JOIN powers p ON p.e = L - 1 - j
              GROUP BY doc_id, i
            ),
            sel AS (
              SELECT doc_id, CAST(min(h64) % 9223372036854775808 AS BIGINT) AS fp
              FROM hsh GROUP BY doc_id
            )
            SELECT d.doc_id, COALESCE(s.fp, 0) AS fp
            FROM documents d LEFT JOIN sel s ON d.doc_id = s.doc_id
            ORDER BY d.doc_id
        """,
        "chunk_documents": """
            WITH idx AS (
              SELECT doc_id, text,
                     unnest(range(0,
                       CASE WHEN length(text) <= 1400 THEN 1
                            ELSE CAST(ceil((length(text) - 1400) / 1100.0) AS BIGINT) + 1
                       END)) AS chunk_index
              FROM documents)
            SELECT doc_id, chunk_index,
                   substr(text, CAST(chunk_index * 1100 + 1 AS BIGINT), 1400) AS chunk
            FROM idx ORDER BY doc_id, chunk_index
        """,
        "chunk_tokens": """
            WITH toks AS (SELECT doc_id, string_split(text, ' ') AS ts FROM documents),
            idx AS (
              SELECT doc_id, ts,
                     unnest(range(0,
                       CASE WHEN len(ts) <= 350 THEN 1
                            ELSE CAST(ceil((len(ts) - 350) / 270.0) AS BIGINT) + 1
                       END)) AS chunk_index
              FROM toks)
            SELECT doc_id, chunk_index,
                   array_to_string(list_slice(ts, CAST(chunk_index * 270 + 1 AS BIGINT),
                                              CAST(chunk_index * 270 + 350 AS BIGINT)), ' ') AS chunk
            FROM idx ORDER BY doc_id, chunk_index
        """,
        "exact_dedup": """
            SELECT doc_id, min(doc_id) OVER (PARTITION BY text) AS canonical_id
            FROM documents ORDER BY doc_id
        """,
        # chunk-grain exact dedup: canonical = lexicographic min
        # (doc_id, chunk_index) among identical 350/80-token chunk strings
        "chunk_exact_dedup": """
            WITH toks AS (SELECT doc_id, string_split(text, ' ') AS ts FROM documents),
            idx AS (
              SELECT doc_id, ts,
                     unnest(range(0,
                       CASE WHEN len(ts) <= 350 THEN 1
                            ELSE CAST(ceil((len(ts) - 350) / 270.0) AS BIGINT) + 1
                       END)) AS chunk_index
              FROM toks),
            ch AS (
              SELECT doc_id, chunk_index,
                     array_to_string(list_slice(ts, CAST(chunk_index * 270 + 1 AS BIGINT),
                                                CAST(chunk_index * 270 + 350 AS BIGINT)), ' ') AS chunk
              FROM idx)
            SELECT doc_id, chunk_index,
                   first_value(doc_id) OVER w AS canonical_doc_id,
                   first_value(chunk_index) OVER w AS canonical_chunk_index
            FROM ch
            WINDOW w AS (PARTITION BY chunk ORDER BY doc_id, chunk_index)
            ORDER BY doc_id, chunk_index
        """,
        "incremental_exact_dedup": f"""
            SELECT doc_id, min(doc_id) OVER (PARTITION BY text) AS canonical_id
            FROM documents QUALIFY doc_id >= {dedup.N_BASE_DOCS} ORDER BY doc_id
        """,
        "simhash_signatures": r"""
            WITH toks AS (
              SELECT doc_id, unnest(list_distinct(list_filter(
                       string_split_regex(lower(text), '\s+'),
                       x -> x <> ''))) AS w
              FROM documents
            ), th AS (
              SELECT doc_id, ('0x' || substr(md5(w), 1, 16))::UBIGINT AS h
              FROM toks
            ), bits AS (
              SELECT doc_id, j,
                     SUM(CASE WHEN (h >> j) & 1 = 1 THEN 1 ELSE -1 END) AS acc
              FROM th, range(63) t(j)
              GROUP BY doc_id, j
            ), sh AS (
              SELECT doc_id,
                     SUM(CASE WHEN acc > 0 THEN (1::BIGINT << j::INTEGER)
                              ELSE 0 END)::BIGINT AS simhash
              FROM bits GROUP BY doc_id
            )
            SELECT d.doc_id, COALESCE(sh.simhash, 0)::BIGINT AS simhash
            FROM documents d LEFT JOIN sh USING (doc_id) ORDER BY doc_id
        """,
        # generated from the engine's own shingle-hash constants — see
        # engine/oracles.py::ngram_overlap_pairs_sql (no short-doc branch;
        # integer cross-multiplied predicates keep the hash float-free)
        "ngram_jaccard_pairs": _lsh_oracles.ngram_overlap_pairs_sql(
            3, 1, 2, "jaccard"),
        # PPJoin returns the SAME exact-Jaccard pair set as the inverted
        # index (prefix filtering is lossless) — it shares that oracle
        "ppjoin_pairs": _lsh_oracles.ngram_overlap_pairs_sql(
            3, 1, 2, "jaccard"),
        "ngram_containment_pairs": _lsh_oracles.ngram_overlap_pairs_sql(
            3, 4, 5, "containment"),
        "ann_topk": """
            WITH q AS (SELECT vec_id AS qid, embedding AS qe FROM embeddings
                       WHERE vec_id < 5)
            SELECT q.qid AS query_id, e.vec_id
            FROM q, embeddings e
            WHERE e.vec_id <> q.qid
            QUALIFY row_number() OVER (
              PARTITION BY q.qid
              ORDER BY list_cosine_similarity(q.qe, e.embedding) DESC, e.vec_id
            ) <= 10
            ORDER BY query_id, vec_id
        """,
        # attribute-filtered vector search: candidates restricted to label=1
        "ann_topk_filtered": """
            WITH q AS (SELECT vec_id AS qid, embedding AS qe FROM embeddings
                       WHERE vec_id < 5)
            SELECT q.qid AS query_id, e.vec_id
            FROM q, embeddings e
            WHERE e.vec_id <> q.qid AND e.label = 1
            QUALIFY row_number() OVER (
              PARTITION BY q.qid
              ORDER BY list_cosine_similarity(q.qe, e.embedding) DESC, e.vec_id
            ) <= 10
            ORDER BY query_id, vec_id
        """,
        "embedding_near_pairs": """
            SELECT a.vec_id AS vec_a, b.vec_id AS vec_b
            FROM embeddings a, embeddings b
            WHERE a.vec_id < b.vec_id
              AND list_cosine_similarity(a.embedding, b.embedding) >= 0.95
            ORDER BY vec_a, vec_b
        """,
        # transitive closure over the EXACT cosine pair set (recursive CTE
        # reachability; min reachable node = component canonical) — the
        # SQL ground truth the LSH+distributed-CC composition must match
        "embedding_dedup_canonical": """
            WITH RECURSIVE sym AS (
              SELECT a.vec_id AS s, b.vec_id AS d
              FROM embeddings a, embeddings b
              WHERE a.vec_id <> b.vec_id
                AND list_cosine_similarity(a.embedding, b.embedding) >= 0.95
            ), reach(node, r) AS (
              SELECT vec_id, vec_id FROM embeddings
              UNION
              SELECT sym.d, reach.r FROM reach JOIN sym ON sym.s = reach.node
            )
            SELECT node AS vec_id, min(r) AS canonical_id
            FROM reach GROUP BY node ORDER BY vec_id
        """,
        # exact integer moment sums (per-vector micro-rounding on both
        # sides; rounding ties are impossible for dyadic floats, see
        # engine/ops/ann.py::embedding_moments)
        # per-element milli rounding -> order-free integer per-vector sum;
        # the 2-sigma test runs in HUGEINT (the engine's driver side uses
        # Python arbitrary-precision ints + isqrt bounds — same predicate)
        "embedding_norm_outliers": """
            WITH v AS (
              SELECT vec_id,
                     (SELECT sum(CAST(round(x*x*1000) AS BIGINT))
                      FROM unnest(embedding) AS t(x)) AS nm
              FROM embeddings),
            m AS (SELECT count(*)::HUGEINT AS n, sum(nm)::HUGEINT AS s,
                         sum(nm::HUGEINT * nm)::HUGEINT AS ss
                  FROM v)
            SELECT vec_id, nm AS norm_sq_milli
            FROM v, m
            WHERE (n*nm - s)*(n*nm - s) > 4*(n*ss - s*s)
            ORDER BY vec_id
        """,
        "embedding_moments": """
            WITH e AS (
              SELECT vec_id, unnest(embedding) AS x,
                     unnest(range(0, len(embedding))) AS i
              FROM embeddings
            )
            SELECT a.i AS i, b.i AS j,
                   SUM(CAST(ROUND(CAST(a.x AS DOUBLE) * CAST(b.x AS DOUBLE)
                                  * 1000000.0) AS BIGINT)) AS sum_micro
            FROM e a JOIN e b USING (vec_id)
            WHERE a.i <= b.i GROUP BY 1, 2
            UNION ALL
            SELECT i, -1 AS j,
                   SUM(CAST(ROUND(CAST(x AS DOUBLE) * 1000000.0)
                            AS BIGINT)) AS sum_micro
            FROM e GROUP BY 1
            ORDER BY i, j
        """,
        # similarity-structure audit: splitmix-sampled pair dot histogram
        # (oracle generated from the shared splitmix/micro constants)
        "embedding_similarity_histogram":
            _lsh_oracles.embedding_similarity_histogram_sql(),
        # int8 scalar-quantization audit: exact integer code/error sums
        "embedding_quantize": """
            WITH e AS (
              SELECT CAST(ROUND(CAST(unnest(embedding) AS DOUBLE)
                                * 1000000.0) AS BIGINT) AS xi,
                     unnest(range(0, len(embedding))) AS i
              FROM embeddings),
            mm AS (SELECT i, min(xi) AS mn, max(xi) AS mx
                   FROM e GROUP BY 1),
            q AS (SELECT e.i, mn, mx, xi,
                         ((xi - mn) * 255) // GREATEST(mx - mn, 1) AS qv
                  FROM e JOIN mm USING (i)),
            r AS (SELECT i, mn, mx, qv, xi,
                         mn + (qv * (mx - mn)) // 255 AS dq
                  FROM q)
            SELECT CAST(i AS BIGINT) AS i, min(mn) AS mn_micro,
                   min(mx) AS mx_micro, sum(qv)::BIGINT AS sum_q,
                   sum(abs(xi - dq))::BIGINT AS sum_abs_err_micro
            FROM r GROUP BY 1 ORDER BY 1
        """,
        # per-label centroid sums: the embedding_moments discipline per group
        # generated unrolled Lloyd iterations — identical integer formulas
        # (micro rounding, truncating // update, dist/cid tie rule)
        "embedding_kmeans": ann.embedding_kmeans_sql(),
        "kmeans_inertia_report": ann.kmeans_inertia_sql(),
        "label_centroids": """
            WITH e AS (
              SELECT label, unnest(embedding) AS x,
                     unnest(range(0, len(embedding))) AS i
              FROM embeddings
            )
            SELECT label::BIGINT AS label, i,
                   SUM(CAST(ROUND(CAST(x AS DOUBLE) * 1000000.0)
                            AS BIGINT)) AS sum_micro,
                   count(*)::BIGINT AS n_vecs
            FROM e GROUP BY label, i ORDER BY label, i
        """,
        # Gopher rule gate: ratios integer-cross-multiplied on both sides so
        # the hash comparison is float-free (engine.ops.text constants)
        "gopher_quality_flags": rf"""
            WITH tok AS (
              SELECT doc_id, text,
                     list_filter(string_split_regex(lower(text), '\s+'),
                                 x -> x <> '') AS toks
              FROM documents
            ), w AS (
              SELECT doc_id, unnest(toks) AS w FROM tok
            ), agg AS (
              SELECT doc_id, count(*) AS n_words,
                     sum(length(w)) AS n_word_chars,
                     sum(CASE WHEN regexp_matches(w, '[a-z]') THEN 1 ELSE 0 END)
                       AS n_alpha_words,
                     count(DISTINCT CASE WHEN w IN ({stop_list}) THEN w END)
                       AS n_stop_distinct
              FROM w GROUP BY doc_id
            )
            SELECT t.doc_id,
                   CAST(COALESCE(a.n_words, 0) AS BIGINT) AS n_words,
                   CAST(COALESCE(a.n_word_chars, 0) AS BIGINT) AS n_word_chars,
                   CAST(COALESCE(a.n_alpha_words, 0) AS BIGINT) AS n_alpha_words,
                   CAST(length(t.text) - length(replace(t.text, '#', ''))
                        AS BIGINT) AS n_hash,
                   CAST((length(t.text) - length(replace(t.text, '...', ''))) // 3
                        AS BIGINT) AS n_ellipsis,
                   CAST(COALESCE(a.n_stop_distinct, 0) AS BIGINT) AS n_stop_distinct,
                   (COALESCE(a.n_words, 0) BETWEEN {text.GOPHER_MIN_WORDS}
                                               AND {text.GOPHER_MAX_WORDS}
                    AND 3 * COALESCE(a.n_words, 0) <= COALESCE(a.n_word_chars, 0)
                    AND COALESCE(a.n_word_chars, 0) <= 10 * COALESCE(a.n_words, 0)
                    AND 10 * ((length(t.text) - length(replace(t.text, '#', '')))
                         + (length(t.text) - length(replace(t.text, '...', ''))) // 3)
                        <= COALESCE(a.n_words, 0)
                    AND 5 * COALESCE(a.n_alpha_words, 0)
                        >= 4 * COALESCE(a.n_words, 0)
                    AND COALESCE(a.n_stop_distinct, 0) >= {text.GOPHER_MIN_STOP_DISTINCT}) AS passes_gopher
            FROM tok t LEFT JOIN agg a USING (doc_id)
            ORDER BY doc_id
        """,
        # full-pipeline LSH oracles GENERATED from the engine's own constants
        # (perm params, splitmix constants, hot-bucket guards) — candidate
        # generation AND verify both replicated exactly in uint64 ring SQL,
        # see engine/oracles.py
        "minhash_lsh_pairs": _lsh_oracles.minhash_lsh_pairs_sql(),
        "simhash_near_pairs": _lsh_oracles.simhash_near_pairs_sql(),
        "near_dedup_canonical": _lsh_oracles.near_dedup_canonical_sql(),
        "incremental_minhash_dedup": _lsh_oracles.incremental_minhash_dedup_sql(),
        "dup_ngram_spans": _lsh_oracles.dup_ngram_spans_sql(),
        "winnow_fingerprints": _lsh_oracles.winnow_fingerprints_sql(),
        "winnow_overlap_pairs": _lsh_oracles.winnow_overlap_pairs_sql(),
        "strip_dup_spans": _lsh_oracles.strip_dup_spans_sql(),
        "c4_line_dedup": _lsh_oracles.c4_line_dedup_sql(),
        "host_boilerplate_strip": _lsh_oracles.host_boilerplate_strip_sql(),
        "bm25_topk": _lsh_oracles.bm25_topk_sql(),
        # collocations: PMI in ln-micros, the exact engine float expression
        # (same association order), ties at the cut broken by (w1, w2)
        # per-character-TYPE contributions round to micro-nats BEFORE the
        # doc sum (ln-micro discipline) — hash-exact on both sides; the
        # corpus is pure ASCII so chars == bytes (engine asserts)
        "char_entropy": """
            WITH ch AS (
              SELECT doc_id, unnest(string_split(text, '')) AS c FROM documents),
            cc AS (
              SELECT doc_id, c, count(*)::BIGINT AS cnt
              FROM ch GROUP BY doc_id, c),
            nn AS (SELECT doc_id, sum(cnt)::BIGINT AS n FROM cc GROUP BY doc_id),
            contrib AS (
              SELECT cc.doc_id,
                     CAST(round((cnt::DOUBLE / n) * ln(n::DOUBLE / cnt) * 1000000)
                          AS BIGINT) AS m
              FROM cc JOIN nn USING (doc_id))
            SELECT doc_id, sum(m)::BIGINT AS entropy_micronats
            FROM contrib GROUP BY doc_id ORDER BY doc_id
        """,
        "bigram_pmi_topk": r"""
            WITH tok_arr AS (
              SELECT doc_id, list_filter(string_split_regex(lower(text), '\s+'),
                                         x -> x <> '') AS toks
              FROM documents
            ), th AS (
              SELECT doc_id, generate_subscripts(toks, 1) AS i,
                     unnest(toks) AS w
              FROM tok_arr
            ), bg AS (
              SELECT t0.w AS w1, t1.w AS w2, count(*)::BIGINT AS cxy
              FROM th t0 JOIN th t1
                ON t1.doc_id = t0.doc_id AND t1.i = t0.i + 1
              GROUP BY 1, 2
            ), ug AS (SELECT w, count(*)::BIGINT AS c FROM th GROUP BY w),
            tot AS (SELECT (SELECT sum(c) FROM ug)::DOUBLE AS N,
                           (SELECT sum(cxy) FROM bg)::DOUBLE AS B)
            SELECT w1, w2, cxy,
                   CAST(ROUND(ln((cxy::DOUBLE * N * N) / ((B * u1.c) * u2.c))
                              * 1000000.0) AS BIGINT) AS pmi_micro
            FROM bg, tot
            JOIN ug u1 ON u1.w = bg.w1
            JOIN ug u2 ON u2.w = bg.w2
            WHERE cxy >= 5
            ORDER BY pmi_micro DESC, w1, w2
            LIMIT 20
        """,
        # Zipf frequency-of-frequencies over the token vocabulary
        # Church-Gale burstiness moments: exact integer df/tf/tf^2 per term,
        # top-20 by document frequency (df desc, term asc — term is unique,
        # so the cut is a total order on both sides)
        "term_burstiness": r"""
            WITH tok AS (
              SELECT doc_id,
                     unnest(list_filter(string_split_regex(lower(text), '\s+'),
                                        x -> x <> '')) AS w
              FROM documents
            ), tc AS (
              SELECT doc_id, w, count(*)::BIGINT AS c
              FROM tok GROUP BY doc_id, w
            )
            SELECT w AS term, count(*)::BIGINT AS df,
                   CAST(sum(c) AS BIGINT) AS tf,
                   CAST(sum(c*c) AS BIGINT) AS tf_sq
            FROM tc GROUP BY w
            ORDER BY df DESC, term LIMIT 20
        """,
        "token_frequency_spectrum": r"""
            WITH tok AS (
              SELECT unnest(list_filter(string_split_regex(lower(text), '\s+'),
                                        x -> x <> '')) AS w
              FROM documents
            ), tc AS (
              SELECT w, count(*)::BIGINT AS c FROM tok GROUP BY w
            )
            SELECT c AS occurrences, count(*)::BIGINT AS n_tokens
            FROM tc GROUP BY c ORDER BY occurrences
        """,
        # the inverted-index SINK + bounded lookup must agree with the
        # full-corpus tokenize definition, not just with itself
        "inverted_postings": r"""
            WITH tok AS (
              SELECT doc_id,
                     unnest(list_filter(string_split_regex(lower(text), '\s+'),
                                        x -> x <> '')) AS w
              FROM documents
            )
            SELECT w AS token, doc_id, count(*)::BIGINT AS tf
            FROM tok WHERE w IN ('hash', 'join', 'stream', 'batch')
            GROUP BY w, doc_id
            ORDER BY token, doc_id
        """,
        # segmented incremental index must equal a from-scratch full index,
        # so it shares the same full-tokenize oracle
        "incremental_inverted_postings": r"""
            WITH tok AS (
              SELECT doc_id,
                     unnest(list_filter(string_split_regex(lower(text), '\s+'),
                                        x -> x <> '')) AS w
              FROM documents
            )
            SELECT w AS token, doc_id, count(*)::BIGINT AS tf
            FROM tok WHERE w IN ('hash', 'join', 'stream', 'batch')
            GROUP BY w, doc_id
            ORDER BY token, doc_id
        """,
        "kmv_distinct_tokens": _lsh_oracles.kmv_distinct_tokens_sql(),
        # KMV sketch set ops: en-vs-rest distinct-token union/intersection
        "kmv_token_overlap": _lsh_oracles.kmv_token_overlap_sql(),
        # Pearson chi-square independence audit of (source, lang): exact
        # integer per-cell floor terms, HUGEINT intermediates
        "source_lang_chi2": """
            WITH c AS (SELECT source, lang, count(*)::BIGINT AS o
                       FROM documents GROUP BY 1, 2),
            r AS (SELECT source, sum(o)::BIGINT AS rt FROM c GROUP BY 1),
            l AS (SELECT lang, sum(o)::BIGINT AS ct FROM c GROUP BY 1),
            n AS (SELECT sum(o)::BIGINT AS nn FROM c),
            grid AS (SELECT r.rt, l.ct, COALESCE(c.o, 0)::BIGINT AS o
                     FROM r CROSS JOIN l
                     LEFT JOIN c ON c.source = r.source AND c.lang = l.lang),
            t AS (SELECT ((o::HUGEINT * nn::HUGEINT
                           - rt::HUGEINT * ct::HUGEINT)
                          * (o::HUGEINT * nn::HUGEINT
                             - rt::HUGEINT * ct::HUGEINT)
                          * 1000000::HUGEINT)
                         // (nn::HUGEINT * rt::HUGEINT * ct::HUGEINT)
                           AS term
                  FROM grid, n)
            SELECT (SELECT count(*) FROM grid)::BIGINT AS n_cells,
                   ((SELECT count(*) FROM r) - 1)::BIGINT
                     * ((SELECT count(*) FROM l) - 1)::BIGINT AS dof,
                   (SELECT sum(term) FROM t)::BIGINT AS chi2_micro
        """,
        "cms_sketch_tokens": _lsh_oracles.cms_sketch_tokens_sql(),
        # Q17 shape: correlated subquery decorrelated; threshold is the same
        # IEEE expression both sides (0.2*avg over integral quantities),
        # revenue summed in exact integer cents
        "small_quantity_revenue": """
            WITH sel AS (SELECT p_partkey FROM part WHERE p_brand = 'Brand#13'),
            agg AS (
              SELECT l_partkey, 0.2 * avg(l_quantity) AS thr
              FROM lineitem JOIN sel ON p_partkey = l_partkey
              GROUP BY l_partkey)
            SELECT count(*)::BIGINT AS n_rows,
                   COALESCE(sum(CAST(round(l.l_extendedprice * 100) AS BIGINT)), 0) AS sum_cents
            FROM lineitem l JOIN agg a ON a.l_partkey = l.l_partkey
            WHERE l.l_quantity < a.thr
        """,
        # triangle counting on the PageRank/HITS link graph: wedge-check
        # (closed wedges / 3) vs the canonical a<b three-way self-join
        "triangle_count": """
            WITH nn AS (SELECT count(*) AS n FROM documents),
            e0 AS (
              SELECT doc_id AS a, (doc_id * 31 + s) % nn.n AS b
              FROM documents, nn, (VALUES (1), (2), (3)) v(s)
            ),
            e AS (SELECT DISTINCT least(a, b) AS a, greatest(a, b) AS b
                  FROM e0 WHERE a <> b),
            t AS (
              SELECT count(*)::BIGINT AS tri
              FROM e e1 JOIN e e2 ON e2.a = e1.a AND e2.b > e1.b
              JOIN e e3 ON e3.a = e1.b AND e3.b = e2.b
            )
            SELECT (SELECT n FROM nn) AS n_nodes,
                   (SELECT count(*) FROM e)::BIGINT AS n_edges,
                   tri AS n_triangles
            FROM t
        """,
        # Q21 shape: both correlated EXISTS subqueries decorrelated into
        # per-order aggregates (multi-supplier orders whose only 'R'
        # supplier is this one), counted per distinct order
        "sole_return_supplier": """
            SELECT s_suppkey, s_name,
                   count(DISTINCT l1.l_orderkey) AS numwait
            FROM supplier, lineitem l1
            WHERE s_suppkey = l1.l_suppkey AND l1.l_returnflag = 'R'
              AND EXISTS (SELECT 1 FROM lineitem l2
                          WHERE l2.l_orderkey = l1.l_orderkey
                            AND l2.l_suppkey <> l1.l_suppkey)
              AND NOT EXISTS (SELECT 1 FROM lineitem l3
                              WHERE l3.l_orderkey = l1.l_orderkey
                                AND l3.l_suppkey <> l1.l_suppkey
                                AND l3.l_returnflag = 'R')
            GROUP BY s_suppkey, s_name
            ORDER BY s_suppkey
        """,
        # Q2 argmin shape: per-part min cents, join-back to the supplier
        # achieving it, ties to the smallest s_suppkey on both sides
        "min_cost_supplier": """
            WITH lc AS (
              SELECT l_partkey, l_suppkey,
                     CAST(round(l_extendedprice * 100) AS BIGINT) AS cents
              FROM lineitem),
            m AS (SELECT l_partkey, min(cents) AS min_cents
                  FROM lc GROUP BY l_partkey),
            w AS (SELECT lc.l_partkey, min(lc.l_suppkey) AS s_suppkey,
                         min(m.min_cents) AS min_cents
                  FROM lc JOIN m ON lc.l_partkey = m.l_partkey
                               AND lc.cents = m.min_cents
                  GROUP BY lc.l_partkey)
            SELECT w.l_partkey AS p_partkey, w.s_suppkey, s.s_name, w.min_cents
            FROM w JOIN supplier s ON s.s_suppkey = w.s_suppkey
            ORDER BY p_partkey
        """,
        # grouped integer least-squares slope; HUGEINT // truncates toward
        # zero, matching the engine's sign-explicit truncated division
        "brand_price_trend": """
            WITH l AS (
              SELECT l_partkey,
                     CAST(datediff('day', TIMESTAMP '1995-01-01', l_shipdate)
                          AS BIGINT) AS x,
                     CAST(round(l_extendedprice * 100) AS BIGINT) AS y
              FROM lineitem),
            j AS (SELECT p_brand, x, y FROM l JOIN part ON p_partkey = l_partkey),
            a AS (
              SELECT p_brand, count(*)::HUGEINT AS n, sum(x)::HUGEINT AS sx,
                     sum(y)::HUGEINT AS sy, sum(x*y)::HUGEINT AS sxy,
                     sum(x*x)::HUGEINT AS sxx
              FROM j GROUP BY p_brand)
            SELECT p_brand, CAST(n AS BIGINT) AS n,
                   CAST(CASE WHEN n*sxx - sx*sx = 0 THEN 0
                        ELSE (1000000 * (n*sxy - sx*sy)) // (n*sxx - sx*sx)
                        END AS BIGINT) AS slope_micro
            FROM a ORDER BY p_brand
        """,
        # TPC-H Q14 shape: monthly PROMO revenue share (broadcast part attach)
        "promo_revenue_share": """
            WITH j AS (
              SELECT CAST(date_trunc('month', l_shipdate) AS TIMESTAMP)
                       AS ship_month,
                     l_extendedprice * (1 - l_discount) AS rev,
                     (p_type = 'PROMO') AS is_promo
              FROM lineitem JOIN part ON p_partkey = l_partkey)
            SELECT ship_month,
                   round(sum(CASE WHEN is_promo THEN rev ELSE 0 END), 0)
                     AS promo_revenue,
                   round(sum(rev), 0) AS total_revenue
            FROM j GROUP BY 1 ORDER BY 1
        """,
        # TPC-H Q10 shape: top-20 customers by returned-lineitem revenue
        "returned_item_revenue": """
            WITH r AS (
              SELECT l_orderkey, sum(l_extendedprice * (1 - l_discount)) AS rev
              FROM lineitem WHERE l_returnflag = 'R' GROUP BY 1),
            c AS (
              SELECT o_custkey AS c_custkey, round(sum(rev), 0) AS revenue
              FROM orders JOIN r ON l_orderkey = o_orderkey GROUP BY 1)
            SELECT c.c_custkey, cu.c_name, n.n_name, c.revenue
            FROM c JOIN customer cu ON cu.c_custkey = c.c_custkey
                   JOIN nation n ON n.n_nationkey = cu.c_nationkey
            ORDER BY revenue DESC, c.c_custkey LIMIT 20
        """,
        # TPC-H Q7 shape: nation-pair trade volume per ship year
        "volume_shipping": """
            WITH j AS (
              SELECT sn.n_name AS supp_nation, cn.n_name AS cust_nation,
                     CAST(year(l_shipdate) AS BIGINT) AS ship_year,
                     l_extendedprice * (1 - l_discount) AS rev
              FROM lineitem
              JOIN supplier ON s_suppkey = l_suppkey
              JOIN nation sn ON sn.n_nationkey = s_nationkey
              JOIN orders ON o_orderkey = l_orderkey
              JOIN customer ON c_custkey = o_custkey
              JOIN nation cn ON cn.n_nationkey = c_nationkey)
            SELECT supp_nation, cust_nation, ship_year,
                   round(sum(rev), 0) AS revenue
            FROM j GROUP BY 1, 2, 3 ORDER BY 1, 2, 3
        """,
        # TPC-H Q18 shape: HAVING-filtered big groupby + semi-join attach
        "large_order_customers": """
            WITH q AS (
              SELECT l_orderkey, sum(l_quantity) AS sq FROM lineitem
              GROUP BY 1 HAVING sum(l_quantity) > 250)
            SELECT c_name, c_custkey, o_orderkey,
                   CAST(o_orderdate AS TIMESTAMP) AS o_orderdate,
                   o_totalprice, round(q.sq, 0) AS sum_qty
            FROM q JOIN orders ON o_orderkey = q.l_orderkey
                   JOIN customer ON c_custkey = o_custkey
            ORDER BY sum_qty DESC, o_orderkey
        """,
        # TPC-H Q16 shape (lineitem-based: no partsupp table in the corpus):
        # part-attr exclusions + NOT-IN supplier exclusion + exact
        # count-distinct per bounded attribute group
        "part_supplier_counts": """
            WITH bad AS (SELECT s_suppkey FROM supplier WHERE s_acctbal < 1000),
            pairs AS (
              SELECT DISTINCT p_brand, p_type, p_size, l_suppkey
              FROM lineitem JOIN part ON p_partkey = l_partkey
              WHERE p_brand <> 'Brand#1' AND p_type <> 'PROMO'
                AND p_size IN (1, 5, 9, 13, 17, 21, 25, 29)
                AND l_suppkey NOT IN (SELECT s_suppkey FROM bad))
            SELECT p_brand, p_type, CAST(p_size AS BIGINT) AS p_size,
                   count(*)::BIGINT AS supplier_cnt
            FROM pairs GROUP BY 1, 2, 3
            ORDER BY supplier_cnt DESC, p_brand, p_type, p_size
        """,
        # TPC-H Q11 shape: HAVING against a scalar subquery over the same
        # aggregate; both sides integer (whole-unit-rounded per-part sums)
        "important_parts": """
            WITH v AS (
              SELECT l_partkey,
                     CAST(round(sum(l_extendedprice * (1 - l_discount)), 0)
                          AS BIGINT) AS value
              FROM lineitem GROUP BY 1)
            SELECT l_partkey, value FROM v
            WHERE value * (SELECT count(*) FROM v) * 2
                  > (SELECT sum(value) FROM v) * 3
            ORDER BY value DESC, l_partkey
        """,
        # INTERSECT / EXCEPT set-operation shape over the high-value slice
        "converted_clean_users": """
            WITH e AS (SELECT user_id, event_type FROM events WHERE value > 99.0)
            SELECT user_id FROM (
              SELECT user_id FROM e WHERE event_type = 'click'
              INTERSECT
              SELECT user_id FROM e WHERE event_type = 'purchase'
              EXCEPT
              SELECT user_id FROM e WHERE event_type = 'error')
            ORDER BY user_id
        """,
        # out-of-order detection: global prefix max over arrival order
        "events_late_arrivals": """
            WITH w AS (
              SELECT event_type, epoch_us(ts) AS tsi,
                     max(epoch_us(ts)) OVER (
                       ORDER BY event_id
                       ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING
                     ) AS prev_max
              FROM events)
            SELECT event_type,
                   count(*) FILTER (WHERE prev_max - tsi > 3600000000)::BIGINT
                     AS n_late,
                   count(*)::BIGINT AS n_events
            FROM w GROUP BY 1 ORDER BY 1
        """,
        # TPC-H Q20 shape: nested-IN semi-join chain + HAVING
        "potential_promotion_suppliers": """
            WITH blue AS (
              SELECT p_partkey FROM part WHERE p_name LIKE 'blue%'),
            q AS (
              SELECT l_suppkey,
                     CAST(round(sum(l_quantity), 0) AS BIGINT) AS total_qty
              FROM lineitem
              WHERE l_partkey IN (SELECT p_partkey FROM blue)
              GROUP BY 1 HAVING CAST(round(sum(l_quantity), 0) AS BIGINT) > 400)
            SELECT s_suppkey, s_name, total_qty
            FROM q JOIN supplier ON s_suppkey = l_suppkey
            ORDER BY s_suppkey
        """,
        # TPC-H Q5 shape: same-nation customer/supplier join predicate,
        # region + date-window prefilters; per-row integer cents
        "local_supplier_revenue": """
            SELECT n_name,
                   sum(CAST(floor(l_extendedprice * (1 - l_discount) * 100 + 0.5)
                            AS BIGINT)) AS revenue_cents
            FROM customer
              JOIN orders   ON o_custkey = c_custkey
              JOIN lineitem ON l_orderkey = o_orderkey
              JOIN supplier ON s_suppkey = l_suppkey
                           AND s_nationkey = c_nationkey
              JOIN nation   ON n_nationkey = c_nationkey
              JOIN region   ON r_regionkey = n_regionkey
            WHERE r_name = 'ASIA'
              AND o_orderdate >= TIMESTAMP '1995-01-01'
              AND o_orderdate <  TIMESTAMP '1999-01-01'
            GROUP BY n_name
            ORDER BY revenue_cents DESC, n_name
        """,
        # FULL OUTER JOIN shape: two per-customer year aggregates COALESCEd
        # over the union of key sets, churn/new/retained verdict
        "customer_yoy_revenue": """
            WITH a AS (
              SELECT o_custkey, sum(CAST(floor(o_totalprice * 100 + 0.5)
                                         AS BIGINT)) AS rev
              FROM orders
              WHERE o_orderdate >= TIMESTAMP '1999-01-01'
                AND o_orderdate <  TIMESTAMP '2000-01-01'
              GROUP BY 1),
            b AS (
              SELECT o_custkey, sum(CAST(floor(o_totalprice * 100 + 0.5)
                                         AS BIGINT)) AS rev
              FROM orders
              WHERE o_orderdate >= TIMESTAMP '2000-01-01'
                AND o_orderdate <  TIMESTAMP '2001-01-01'
              GROUP BY 1)
            SELECT COALESCE(a.o_custkey, b.o_custkey) AS c_custkey,
                   COALESCE(a.rev, 0) AS rev_a_cents,
                   COALESCE(b.rev, 0) AS rev_b_cents,
                   CASE WHEN a.o_custkey IS NULL THEN 'new'
                        WHEN b.o_custkey IS NULL THEN 'churned'
                        ELSE 'retained' END AS status
            FROM a FULL OUTER JOIN b ON a.o_custkey = b.o_custkey
            ORDER BY c_custkey
        """,
        # exact consecutive-token phrase containment (positional search)
        "phrase_search": """
            WITH q(query_id, p) AS (VALUES
              (0, 'hash join'), (1, 'window sort stream'), (2, 'spark batch'))
            SELECT query_id, doc_id
            FROM q JOIN documents
              ON ' ' || text || ' ' LIKE '% ' || p || ' %'
            ORDER BY query_id, doc_id
        """,
        # ordered-collect shape: first-k user journey prefixes, counted
        "event_path_counts": """
            WITH firstk AS (
              SELECT user_id, event_type, ts, event_id FROM events
              QUALIFY row_number() OVER (
                PARTITION BY user_id ORDER BY ts, event_id) <= 5),
            paths AS (
              SELECT user_id,
                     string_agg(event_type, '>' ORDER BY ts, event_id) AS path
              FROM firstk GROUP BY user_id)
            SELECT path, count(*)::BIGINT AS n_users
            FROM paths GROUP BY path
            ORDER BY n_users DESC, path
        """,
        # 2-D skyline (Pareto frontier): maximize price cents, minimize
        # date; equal-(price,date) duplicates all survive.  The window
        # formulation mirrors the engine's grouped-prefix-min mask exactly.
        "order_skyline": """
            WITH o AS (
              SELECT o_orderkey,
                     CAST(floor(o_totalprice * 100 + 0.5) AS BIGINT)
                       AS price_cents,
                     o_orderdate
              FROM orders),
            g AS (SELECT price_cents, min(o_orderdate) AS grp_min
                  FROM o GROUP BY price_cents),
            s AS (SELECT price_cents, grp_min,
                         min(grp_min) OVER (ORDER BY price_cents DESC
                                            ROWS BETWEEN UNBOUNDED PRECEDING
                                                     AND 1 PRECEDING)
                           AS prev_min
                  FROM g)
            SELECT o.o_orderkey, o.price_cents, o.o_orderdate
            FROM o JOIN s USING (price_cents)
            WHERE o.o_orderdate = s.grp_min
              AND (s.prev_min IS NULL OR o.o_orderdate < s.prev_min)
            ORDER BY o.price_cents DESC, o.o_orderkey
        """,
        # pairwise per-hour cross-moments (the sufficient statistics of
        # Pearson r); hour universe = hours with >=1 event of ANY type,
        # absent types count 0 via the grid LEFT JOIN
        "event_type_correlations": """
            WITH e AS (
              SELECT epoch_us(ts) // 3600000000 AS hr, event_type
              FROM events),
            h AS (SELECT hr, event_type, count(*)::BIGINT AS c
                  FROM e GROUP BY hr, event_type),
            grid AS (SELECT hr, event_type
                     FROM (SELECT DISTINCT hr FROM e)
                     CROSS JOIN (SELECT DISTINCT event_type FROM e)),
            m AS (SELECT g.hr, g.event_type, coalesce(h.c, 0) AS c
                  FROM grid g
                  LEFT JOIN h ON g.hr = h.hr AND g.event_type = h.event_type)
            SELECT a.event_type AS type_a, b.event_type AS type_b,
                   count(*)::BIGINT AS n_hours,
                   sum(a.c)::BIGINT AS sum_a, sum(b.c)::BIGINT AS sum_b,
                   sum(a.c * b.c)::BIGINT AS sum_ab,
                   sum(a.c * a.c)::BIGINT AS sum_sq_a,
                   sum(b.c * b.c)::BIGINT AS sum_sq_b
            FROM m a JOIN m b ON a.hr = b.hr AND a.event_type < b.event_type
            GROUP BY type_a, type_b
            ORDER BY type_a, type_b
        """,
        # JSONL publish sink: manifest recomputed via a string-concat twin
        # of the byte-deterministic line format (ASCII corpus)
        "export_jsonl_shards": """
            WITH lines AS (
              SELECT doc_id % 16 AS shard,
                     length('{"doc_id":' || doc_id || ',"lang":"' || lang ||
                            '","source":"' || source || '","text":"' || text ||
                            '"}') + 1 AS nb
              FROM documents)
            SELECT shard, count(*)::BIGINT AS n_docs,
                   sum(nb)::BIGINT AS n_bytes
            FROM lines GROUP BY shard ORDER BY shard
        """,
        # cumulative web-corpus filter cascade (single-scan funnel)
        "filter_funnel": r"""
            WITH m AS (
              SELECT (length(text) > 0) AS p1,
                     (length(text) > 0 AND lang = 'en') AS p2,
                     (length(text) > 0 AND lang = 'en'
                      AND n_chars BETWEEN 100 AND 400) AS p3,
                     (length(text) > 0 AND lang = 'en'
                      AND n_chars BETWEEN 100 AND 400
                      AND len(regexp_extract_all(text, '\S+'))
                          BETWEEN 20 AND 55) AS p4
              FROM documents),
            c AS (SELECT count(*)::BIGINT AS total,
                         sum(CASE WHEN p1 THEN 1 ELSE 0 END)::BIGINT AS nonempty,
                         sum(CASE WHEN p2 THEN 1 ELSE 0 END)::BIGINT AS lang_en,
                         sum(CASE WHEN p3 THEN 1 ELSE 0 END)::BIGINT AS char_band,
                         sum(CASE WHEN p4 THEN 1 ELSE 0 END)::BIGINT AS token_band
                  FROM m)
            SELECT s.stage, CASE s.stage
                     WHEN 'total' THEN c.total
                     WHEN 'nonempty' THEN c.nonempty
                     WHEN 'lang_en' THEN c.lang_en
                     WHEN 'char_band' THEN c.char_band
                     ELSE c.token_band END AS n_docs
            FROM c, (VALUES ('total'), ('nonempty'), ('lang_en'),
                            ('char_band'), ('token_band')) AS s(stage)
        """,
        # per-source quota with deterministic multiplicative-hash rank
        "source_cap_sample": """
            WITH r AS (
              SELECT doc_id, source,
                     row_number() OVER (
                       PARTITION BY source
                       ORDER BY (doc_id * 2654435761) % 1000003, doc_id) AS rk
              FROM documents)
            SELECT doc_id, source FROM r WHERE rk <= 20 ORDER BY doc_id
        """,
        # per-user consecutive event-type transition matrix
        "event_transition_counts": """
            WITH s AS (
              SELECT user_id, event_type,
                     lead(event_type) OVER (
                       PARTITION BY user_id ORDER BY ts, event_id) AS nxt
              FROM events)
            SELECT event_type AS prev_type, nxt AS next_type,
                   count(*)::BIGINT AS n
            FROM s WHERE nxt IS NOT NULL
            GROUP BY 1, 2 ORDER BY 1, 2
        """,
        # multi-source BFS min-depth over the shared synthetic link graph
        # (doc -> (doc*31+s) % n, s in 1..3), unrolled to 4 hops
        "link_bfs_depth": """
            WITH nn AS (SELECT count(*) AS n FROM documents),
            e(s) AS (VALUES (1), (2), (3)),
            h0 AS (SELECT doc_id AS node, CAST(0 AS BIGINT) AS depth
                   FROM documents WHERE doc_id % 100 = 0),
            h1 AS (SELECT DISTINCT (node * 31 + s) % (SELECT n FROM nn)
                            AS node, CAST(1 AS BIGINT) AS depth
                   FROM h0 CROSS JOIN e),
            h2 AS (SELECT DISTINCT (node * 31 + s) % (SELECT n FROM nn)
                            AS node, CAST(2 AS BIGINT) AS depth
                   FROM h1 CROSS JOIN e),
            h3 AS (SELECT DISTINCT (node * 31 + s) % (SELECT n FROM nn)
                            AS node, CAST(3 AS BIGINT) AS depth
                   FROM h2 CROSS JOIN e),
            h4 AS (SELECT DISTINCT (node * 31 + s) % (SELECT n FROM nn)
                            AS node, CAST(4 AS BIGINT) AS depth
                   FROM h3 CROSS JOIN e),
            a AS (SELECT * FROM h0 UNION ALL SELECT * FROM h1
                  UNION ALL SELECT * FROM h2 UNION ALL SELECT * FROM h3
                  UNION ALL SELECT * FROM h4)
            SELECT node AS doc_id, min(depth) AS depth
            FROM a GROUP BY 1 ORDER BY 1
        """,
        # bipartiteness testing: odd-cycle witness edges (equal BFS-depth
        # parity at both reached endpoints) over the shared link graph
        "link_parity_conflicts": """
            WITH nn AS (SELECT count(*) AS n FROM documents),
            e(s) AS (VALUES (1), (2), (3)),
            h0 AS (SELECT doc_id AS node, CAST(0 AS BIGINT) AS depth
                   FROM documents WHERE doc_id % 100 = 0),
            h1 AS (SELECT DISTINCT (node * 31 + s) % (SELECT n FROM nn)
                            AS node, CAST(1 AS BIGINT) AS depth
                   FROM h0 CROSS JOIN e),
            h2 AS (SELECT DISTINCT (node * 31 + s) % (SELECT n FROM nn)
                            AS node, CAST(2 AS BIGINT) AS depth
                   FROM h1 CROSS JOIN e),
            h3 AS (SELECT DISTINCT (node * 31 + s) % (SELECT n FROM nn)
                            AS node, CAST(3 AS BIGINT) AS depth
                   FROM h2 CROSS JOIN e),
            h4 AS (SELECT DISTINCT (node * 31 + s) % (SELECT n FROM nn)
                            AS node, CAST(4 AS BIGINT) AS depth
                   FROM h3 CROSS JOIN e),
            a AS (SELECT * FROM h0 UNION ALL SELECT * FROM h1
                  UNION ALL SELECT * FROM h2 UNION ALL SELECT * FROM h3
                  UNION ALL SELECT * FROM h4),
            d AS (SELECT node, min(depth) AS depth FROM a GROUP BY 1),
            ed AS (SELECT du.node AS u,
                          (du.node * 31 + s) % (SELECT n FROM nn) AS v,
                          du.depth AS du_d
                   FROM d du CROSS JOIN e)
            SELECT (SELECT count(*) FROM d)::BIGINT AS n_reached,
                   count(*)::BIGINT AS n_edges,
                   sum(CASE WHEN (ed.du_d + dv.depth) % 2 = 0
                       THEN 1 ELSE 0 END)::BIGINT AS n_conflicts
            FROM ed JOIN d dv ON ed.v = dv.node
        """,
        # per-customer MAX consecutive-order gap (churn analytic)
        "customer_order_gaps": """
            WITH o AS (
              SELECT o_custkey,
                     CAST(epoch(o_orderdate) AS BIGINT) // 86400 AS day,
                     lag(CAST(epoch(o_orderdate) AS BIGINT) // 86400) OVER (
                       PARTITION BY o_custkey
                       ORDER BY o_orderdate, o_orderkey) AS prev_day
              FROM orders)
            SELECT o_custkey AS c_custkey,
                   (count(*) + 1)::BIGINT AS n_orders,
                   max(day - prev_day)::BIGINT AS max_gap_days
            FROM o WHERE prev_day IS NOT NULL
            GROUP BY 1 ORDER BY 1
        """,
        # exact decile boundaries of the per-user total-value distribution
        "user_value_deciles": """
            WITH u AS (
              SELECT user_id,
                     sum(CAST(ROUND(value * 100) AS BIGINT)) AS total_cents
              FROM events GROUP BY 1),
            n AS (SELECT count(*)::BIGINT AS c FROM u),
            r AS (SELECT total_cents, row_number() OVER (
                    ORDER BY total_cents) AS rk FROM u),
            d(i) AS (VALUES (1), (2), (3), (4), (5),
                            (6), (7), (8), (9), (10))
            SELECT CAST(d.i AS BIGINT) AS decile,
                   r.total_cents AS boundary_cents
            FROM d CROSS JOIN n JOIN r ON r.rk = (d.i * n.c + 9) // 10
            ORDER BY 1
        """,
        # exact integer two-sample KS drift statistic between sources
        "source_drift_ks": """
            WITH sz AS (SELECT source, count(*)::BIGINT AS n
                        FROM documents GROUP BY 1),
            grid AS (SELECT v.v, s.source
                     FROM (SELECT DISTINCT n_chars AS v FROM documents) v
                     CROSS JOIN sz s),
            h AS (SELECT n_chars AS v, source, count(*)::BIGINT AS n
                  FROM documents GROUP BY 1, 2),
            c AS (SELECT g.v, g.source,
                         sum(COALESCE(h.n, 0)) OVER (
                           PARTITION BY g.source ORDER BY g.v)::BIGINT AS c
                  FROM grid g LEFT JOIN h
                    ON h.v = g.v AND h.source = g.source),
            p AS (SELECT a.v, a.source AS sa, b.source AS sb,
                         a.c AS ca, b.c AS cb
                  FROM c a JOIN c b
                    ON a.v = b.v AND a.source < b.source)
            SELECT p.sa AS source_a, p.sb AS source_b,
                   max(abs(p.ca * zb.n - p.cb * za.n))::BIGINT AS ks_num,
                   za.n AS n_a, zb.n AS n_b
            FROM p JOIN sz za ON za.source = p.sa
                   JOIN sz zb ON zb.source = p.sb
            GROUP BY 1, 2, za.n, zb.n ORDER BY 1, 2
        """,
        # PIVOT shape: oracle CASE columns generated from the engine's own
        # _PIVOT_TYPES tuple
        "event_type_day_pivot": relational.event_type_day_pivot_sql(),
        # robust stats: exact grouped median + MAD at the shared discrete
        # rank convention (0-based ceil(n/2)-1)
        "value_mad_per_type": """
            WITH v AS (
              SELECT event_type,
                     CAST(ROUND(value * 100) AS BIGINT) AS cents
              FROM events),
            n AS (SELECT event_type, count(*) AS n FROM v GROUP BY 1),
            r AS (SELECT event_type, cents, row_number() OVER (
                    PARTITION BY event_type ORDER BY cents) AS rk FROM v),
            med AS (SELECT r.event_type, r.cents AS med_cents
                    FROM r JOIN n USING (event_type)
                    WHERE rk = CAST(ceil(0.5 * n) AS BIGINT)),
            d AS (SELECT v.event_type, abs(v.cents - m.med_cents) AS dev
                  FROM v JOIN med m USING (event_type)),
            r2 AS (SELECT event_type, dev, row_number() OVER (
                     PARTITION BY event_type ORDER BY dev) AS rk FROM d),
            mad AS (SELECT r2.event_type, r2.dev AS mad_cents
                    FROM r2 JOIN n USING (event_type)
                    WHERE rk = CAST(ceil(0.5 * n) AS BIGINT))
            SELECT n.event_type, n.n::BIGINT AS n_events,
                   med.med_cents, mad.mad_cents
            FROM n JOIN med USING (event_type) JOIN mad USING (event_type)
            ORDER BY 1
        """,
        # exact equi-width histogram, integer micro bin arithmetic
        "value_histogram": """
            WITH v AS (
              SELECT CAST(ROUND(value * 1000000.0) AS BIGINT) AS vi
              FROM events),
            mm AS (SELECT min(vi) AS mn, max(vi) AS mx,
                          GREATEST(max(vi) - min(vi), 1) AS span
                   FROM v),
            b AS (SELECT LEAST((vi - mn) * 20 // span, 19) AS bin
                  FROM v, mm),
            c AS (SELECT bin, count(*)::BIGINT AS n FROM b GROUP BY 1),
            g AS (SELECT unnest(range(0, 20)) AS bin)
            SELECT CAST(g.bin AS BIGINT) AS bin,
                   mm.mn + g.bin * mm.span // 20 AS lo_micro,
                   mm.mn + (g.bin + 1) * mm.span // 20 AS hi_micro,
                   COALESCE(c.n, 0)::BIGINT AS n
            FROM g CROSS JOIN mm LEFT JOIN c ON c.bin = g.bin
            ORDER BY 1
        """,
        # Heaps-law vocabulary growth at doc_id deciles
        "vocab_growth_curve": r"""
            WITH nn AS (SELECT count(*)::BIGINT AS n FROM documents),
            tok AS (
              SELECT doc_id,
                     unnest(list_filter(string_split_regex(lower(text),
                                                           '\s+'),
                                        x -> x <> '')) AS w
              FROM documents),
            d(i) AS (VALUES (1), (2), (3), (4), (5),
                            (6), (7), (8), (9), (10))
            SELECT CAST(d.i AS BIGINT) AS decile,
                   count(DISTINCT t.w)::BIGINT AS n_distinct_tokens
            FROM d, tok t, nn
            WHERE t.doc_id < (nn.n * d.i) // 10
            GROUP BY 1 ORDER BY 1
        """,
        # full grouping-sets lattice (ROLLUP sibling)
        "revenue_cube": """
            SELECT l_returnflag, l_linestatus,
                   round(sum(l_extendedprice * (1 - l_discount)), 0)
                     AS revenue,
                   count(*)::BIGINT AS n_lines
            FROM lineitem
            GROUP BY CUBE (l_returnflag, l_linestatus)
            ORDER BY l_returnflag NULLS FIRST, l_linestatus NULLS FIRST
        """,
        # TPC-H Q15 shape: global-max HAVING over per-supplier revenue
        "top_revenue_supplier": """
            WITH r AS (
              SELECT l_suppkey AS s_suppkey,
                     round(sum(l_extendedprice * (1 - l_discount)), 0)
                       AS total_revenue
              FROM lineitem
              WHERE l_shipdate >= DATE '1996-01-01'
                AND l_shipdate < DATE '1996-04-01'
              GROUP BY 1)
            SELECT r.s_suppkey, s.s_name, r.total_revenue
            FROM r JOIN supplier s ON s.s_suppkey = r.s_suppkey
            WHERE r.total_revenue = (SELECT max(total_revenue) FROM r)
            ORDER BY r.s_suppkey
        """,
        # TPC-H Q8 shape: supplier-nation revenue share per order year
        "nation_market_share": """
            WITH j AS (
              SELECT CAST(year(o_orderdate) AS BIGINT) AS o_year,
                     l_extendedprice * (1 - l_discount) AS rev,
                     (sn.n_name = 'NATION_3') AS is_nat
              FROM lineitem
              JOIN part ON p_partkey = l_partkey AND p_type = 'ECONOMY'
              JOIN supplier ON s_suppkey = l_suppkey
              JOIN nation sn ON sn.n_nationkey = s_nationkey
              JOIN orders ON o_orderkey = l_orderkey
              JOIN customer ON c_custkey = o_custkey
              JOIN nation cn ON cn.n_nationkey = c_nationkey
              JOIN region ON r_regionkey = cn.n_regionkey
                         AND r_name = 'EUROPE'
              WHERE o_orderdate >= DATE '1995-01-01'
                AND o_orderdate < DATE '1997-01-01')
            SELECT o_year,
                   round(sum(CASE WHEN is_nat THEN rev ELSE 0 END), 0)
                     AS nation_revenue,
                   round(sum(rev), 0) AS total_revenue
            FROM j GROUP BY 1 ORDER BY 1
        """,
        # TPC-H Q12 shape: per-linestatus high/low priority line counts
        "linestatus_priority_counts": """
            SELECT l_linestatus,
                   sum(CASE WHEN o_orderpriority IN ('1-URGENT', '2-HIGH')
                            THEN 1 ELSE 0 END)::BIGINT AS high_line_count,
                   sum(CASE WHEN o_orderpriority IN ('1-URGENT', '2-HIGH')
                            THEN 0 ELSE 1 END)::BIGINT AS low_line_count
            FROM lineitem JOIN orders ON o_orderkey = l_orderkey
            GROUP BY 1 ORDER BY 1
        """,
        # TPC-H Q19 shape: OR-of-AND-brackets disjunctive predicate
        "bracket_discount_revenue": """
            SELECT round(sum(l_extendedprice * (1 - l_discount)), 0)
                     AS revenue,
                   count(*)::BIGINT AS n_lines
            FROM lineitem JOIN part ON p_partkey = l_partkey
            WHERE (p_brand = 'Brand#12' AND p_size BETWEEN 1 AND 15
                   AND l_quantity BETWEEN 1 AND 15)
               OR (p_brand = 'Brand#3' AND p_size BETWEEN 1 AND 25
                   AND l_quantity BETWEEN 10 AND 25)
               OR (p_brand = 'Brand#24' AND p_size BETWEEN 1 AND 35
                   AND l_quantity BETWEEN 20 AND 35)
        """,
        # exact sliding-window COUNT DISTINCT (windows = observed hours)
        "events_sliding_distinct_users": """
            WITH uh AS (
              SELECT DISTINCT user_id, date_trunc('hour', ts) AS h
              FROM events),
            w AS (SELECT DISTINCT h AS w FROM uh)
            SELECT w.w AS window_end,
                   count(DISTINCT uh.user_id)::BIGINT AS n_users
            FROM w JOIN uh
              ON uh.h > w.w - INTERVAL 24 HOUR AND uh.h <= w.w
            GROUP BY 1 ORDER BY 1
        """,
        # JSON scalar family over the events props payload
        "props_json_stats": """
            WITH x AS (
              SELECT event_type,
                     CAST(json_extract(props, '$.k') AS BIGINT) AS k
              FROM events)
            SELECT event_type, count(k)::BIGINT AS n, sum(k)::BIGINT AS sum_k,
                   min(k)::BIGINT AS min_k, max(k)::BIGINT AS max_k
            FROM x WHERE k IS NOT NULL
            GROUP BY event_type ORDER BY event_type
        """,
        # 3-sigma hourly anomaly flags — the z-score test cross-multiplied
        # to pure integers: (n*c - s)^2 > 9*(n*ss - s*s), no float anywhere
        "events_hourly_anomalies": """
            WITH h AS (
              SELECT event_type, date_trunc('hour', ts) AS hour,
                     count(*)::BIGINT AS c
              FROM events GROUP BY 1, 2),
            m AS (
              SELECT event_type, sum(c)::BIGINT AS s, sum(c*c)::BIGINT AS ss,
                     count(*)::BIGINT AS n
              FROM h GROUP BY 1)
            SELECT h.event_type, h.hour, h.c AS n_events
            FROM h JOIN m USING (event_type)
            WHERE (m.n*h.c - m.s)*(m.n*h.c - m.s) > 9*(m.n*m.ss - m.s*m.s)
            ORDER BY 1, 2
        """,
        # broadcast interval attach: the calendar is generated from the
        # SAME module constants the engine closes over
        "campaign_attribution": f"""
            WITH cal AS (
              SELECT k AS campaign_id,
                     make_timestamp(({relational.CAMPAIGN_EPOCH_DAYS}::BIGINT * 24
                        + k * {relational.CAMPAIGN_STRIDE_HOURS}) * 3600000000) AS st,
                     make_timestamp(({relational.CAMPAIGN_EPOCH_DAYS}::BIGINT * 24
                        + k * {relational.CAMPAIGN_STRIDE_HOURS}
                        + {relational.CAMPAIGN_LEN_HOURS}) * 3600000000) AS en
              FROM generate_series(0, {relational.CAMPAIGN_N - 1}) t(k)),
            hit AS (
              SELECT cal.campaign_id, e.user_id
              FROM events e JOIN cal ON e.ts >= cal.st AND e.ts < cal.en)
            SELECT campaign_id, count(*)::BIGINT AS n_events,
                   count(DISTINCT user_id)::BIGINT AS n_users
            FROM hit GROUP BY campaign_id ORDER BY campaign_id
        """,
        # Q13 shape: LEFT-JOIN order-count histogram (zero customers kept)
        "customer_order_distribution": """
            WITH oc AS (
              SELECT c_custkey, count(o_orderkey)::BIGINT AS c_count
              FROM customer LEFT JOIN orders ON o_custkey = c_custkey
              GROUP BY c_custkey)
            SELECT c_count, count(*)::BIGINT AS custdist
            FROM oc GROUP BY c_count ORDER BY c_count
        """,
        # Q22 shape: scalar-avg broadcast (integer cross-multiplied — no
        # float threshold) + NOT-EXISTS anti-join, grouped by nation
        "idle_rich_customers": """
            WITH c AS (
              SELECT c_custkey, c_nationkey,
                     CAST(round(c_acctbal * 100) AS BIGINT) AS cents
              FROM customer),
            t AS (SELECT sum(cents)::BIGINT AS s, count(*)::BIGINT AS n
                  FROM c WHERE cents > 0),
            e AS (SELECT c.* FROM c, t WHERE cents * n > s),
            noord AS (
              SELECT e.* FROM e
              WHERE NOT EXISTS (SELECT 1 FROM orders o
                                WHERE o.o_custkey = e.c_custkey
                                  AND o.o_orderdate >= TIMESTAMP '2000-01-01'))
            SELECT c_nationkey, count(*)::BIGINT AS numcust,
                   sum(cents)::BIGINT AS total_cents
            FROM noord GROUP BY c_nationkey ORDER BY c_nationkey
        """,
        # pagerank/hits/triangle_count's generated edge set + the quadratic
        # hub edge (see engine.ops.relational.degree_distribution)
        "degree_distribution": """
            WITH nn AS (SELECT count(*) AS n FROM documents),
            e0 AS (
              SELECT doc_id AS src, (doc_id * 31 + v.s) % nn.n AS dst
              FROM documents, nn, (VALUES (1), (2), (3)) v(s)
              UNION ALL
              SELECT doc_id, (doc_id * doc_id + 1) % nn.n
              FROM documents, nn
            ),
            e AS (SELECT src, dst FROM e0 WHERE src <> dst),
            ind AS (
              SELECT d.doc_id, count(e.dst)::BIGINT AS indeg
              FROM documents d LEFT JOIN e ON e.dst = d.doc_id
              GROUP BY d.doc_id)
            SELECT indeg AS in_degree, count(*)::BIGINT AS n_nodes
            FROM ind GROUP BY indeg ORDER BY in_degree
        """,
        # sort-free exact median of the 63-bit md5 doc fingerprint
        "median_doc_hash": """
            WITH h AS (
              SELECT CAST(('0x' || substr(md5(text), 1, 16))::UBIGINT
                          & 9223372036854775807::UBIGINT AS BIGINT) AS v
              FROM documents)
            SELECT (SELECT count(*) FROM h)::BIGINT AS n_docs,
                   (SELECT v FROM h ORDER BY v
                    LIMIT 1 OFFSET ((SELECT count(*) FROM h) - 1) // 2)
                     AS median_hash
        """,
        # FULL OUTER join verb: orders placed vs lineitems shipped per day
        "daily_order_ship_balance": """
            WITH o AS (SELECT o_orderdate AS day, count(*)::BIGINT AS n_orders,
                              sum(CAST(round(o_totalprice * 100) AS BIGINT))
                                ::BIGINT AS order_cents
                       FROM orders GROUP BY 1),
                 l AS (SELECT l_shipdate AS day, count(*)::BIGINT AS n_ship,
                              sum(CAST(round(l_extendedprice * 100) AS BIGINT))
                                ::BIGINT AS ship_cents
                       FROM lineitem GROUP BY 1)
            SELECT COALESCE(o.day, l.day) AS day,
                   COALESCE(n_orders, 0)::BIGINT AS n_orders,
                   COALESCE(order_cents, 0)::BIGINT AS order_cents,
                   COALESCE(n_ship, 0)::BIGINT AS n_ship,
                   COALESCE(ship_cents, 0)::BIGINT AS ship_cents
            FROM o FULL OUTER JOIN l ON o.day = l.day ORDER BY day
        """,
        # sweep-line peak session concurrency (closed intervals: +1 sorts
        # before -1 at equal ts, matching the engine's (ts, delta DESC))
        "concurrent_sessions_peak": """
            WITH o AS (
              SELECT user_id, ts, event_id,
                CASE WHEN ts - lag(ts) OVER (PARTITION BY user_id
                                             ORDER BY ts, event_id)
                          > INTERVAL 30 MINUTE THEN 1 ELSE 0 END AS brk
              FROM events),
            s AS (
              SELECT user_id, ts,
                sum(brk) OVER (PARTITION BY user_id ORDER BY ts, event_id
                               ROWS UNBOUNDED PRECEDING) AS sess
              FROM o),
            sess AS (SELECT user_id, sess, min(ts) AS st, max(ts) AS en
                     FROM s GROUP BY user_id, sess),
            b AS (SELECT epoch_us(st) AS ts, 1 AS delta FROM sess
                  UNION ALL SELECT epoch_us(en), -1 FROM sess),
            c AS (SELECT sum(delta) OVER (ORDER BY ts, delta DESC
                                          ROWS UNBOUNDED PRECEDING) AS run
                  FROM b)
            SELECT (SELECT max(run) FROM c)::BIGINT AS peak_concurrency,
                   (SELECT count(*) FROM sess)::BIGINT AS n_sessions
        """,
        # bipartite butterfly (2x2 biclique) counts per type pair
        "butterfly_count_events": """
            WITH ut AS (SELECT DISTINCT user_id, event_type FROM events),
            p AS (
              SELECT a.event_type AS type_a, b.event_type AS type_b,
                     count(*)::BIGINT AS n_users
              FROM ut a JOIN ut b
                ON a.user_id = b.user_id AND a.event_type < b.event_type
              GROUP BY 1, 2)
            SELECT type_a, type_b, n_users,
                   CAST(n_users * (n_users - 1) // 2 AS BIGINT)
                     AS n_butterflies
            FROM p ORDER BY type_a, type_b
        """,
        # bounded-round k-core peel over the generated variable-degree
        # graph (6 unrolled degree/survivor CTE pairs — see
        # engine.ops.relational.k_core_docs)
        "k_core_docs": _lsh_oracles.k_core_sql(),
        # SCD2 MERGE INTO: deterministic CDC batch (update %10==3,
        # delete %10==7, insert past-max %10==1) applied as validity history
        "orders_scd2_merge": """
            WITH mx AS (SELECT max(o_orderkey) AS m FROM orders),
            b AS (SELECT o_orderkey AS k,
                         CAST(round(o_totalprice * 100) AS BIGINT) AS cents
                  FROM orders),
            upd AS (SELECT k, cents + 500 AS nc FROM b WHERE k % 10 = 3),
            del AS (SELECT k FROM b WHERE k % 10 = 7),
            ins AS (SELECT b.k + mx.m + 1 AS k, cents + 123 AS nc
                    FROM b, mx WHERE b.k % 10 = 1)
            SELECT * FROM (
              SELECT b.k AS o_orderkey, b.cents AS price_cents,
                     CAST(0 AS BIGINT) AS valid_from,
                     CAST(CASE WHEN u.k IS NOT NULL OR d.k IS NOT NULL
                          THEN 1 ELSE 9999 END AS BIGINT) AS valid_to,
                     CAST(CASE WHEN u.k IS NOT NULL OR d.k IS NOT NULL
                          THEN 0 ELSE 1 END AS BIGINT) AS is_current
              FROM b LEFT JOIN upd u ON b.k = u.k
                     LEFT JOIN del d ON b.k = d.k
              UNION ALL
              SELECT k, nc, CAST(1 AS BIGINT), CAST(9999 AS BIGINT),
                     CAST(1 AS BIGINT) FROM upd
              UNION ALL
              SELECT k, nc, CAST(1 AS BIGINT), CAST(9999 AS BIGINT),
                     CAST(1 AS BIGINT) FROM ins
            ) ORDER BY o_orderkey, valid_from
        """,
        # reciprocal (mutual) directed edges over the generated hash link
        # graph with planted partner pairs (generated SQL over the same
        # splitmix ring — see engine.ops.relational.reciprocal_links)
        "reciprocal_links": _lsh_oracles.reciprocal_links_sql(),
        # resource-allocation link prediction over the same generated graph
        "link_prediction_ra": _lsh_oracles.link_prediction_ra_sql(),
        # robots.txt longest-prefix-match gate over generated per-host rules
        "robots_gate": _lsh_oracles.robots_gate_sql(),
        # ANALYZE: exact planner stats for the bounded-enum string columns
        "catalog_stats_collect": """
            SELECT * FROM (
              SELECT 'documents' AS table_name, 'lang' AS column_name,
                     count(*)::BIGINT AS n_rows,
                     (count(*) - count(lang))::BIGINT AS n_nulls,
                     count(DISTINCT lang)::BIGINT AS ndv,
                     min(lang) AS min_v, max(lang) AS max_v FROM documents
              UNION ALL
              SELECT 'documents', 'source', count(*)::BIGINT,
                     (count(*) - count(source))::BIGINT,
                     count(DISTINCT source)::BIGINT,
                     min(source), max(source) FROM documents
              UNION ALL
              SELECT 'orders', 'o_orderpriority', count(*)::BIGINT,
                     (count(*) - count(o_orderpriority))::BIGINT,
                     count(DISTINCT o_orderpriority)::BIGINT,
                     min(o_orderpriority), max(o_orderpriority) FROM orders
              UNION ALL
              SELECT 'orders', 'o_orderstatus', count(*)::BIGINT,
                     (count(*) - count(o_orderstatus))::BIGINT,
                     count(DISTINCT o_orderstatus)::BIGINT,
                     min(o_orderstatus), max(o_orderstatus) FROM orders
              UNION ALL
              SELECT 'events', 'event_type', count(*)::BIGINT,
                     (count(*) - count(event_type))::BIGINT,
                     count(DISTINCT event_type)::BIGINT,
                     min(event_type), max(event_type) FROM events
            ) ORDER BY table_name, column_name
        """,
        # funnel latency: exact p50/p90 of first-signup -> first-later-
        # purchase delay at integer ceil(qn) ranks
        "conversion_delay_quantiles": """
            WITH s0 AS (SELECT user_id, min(ts) AS st FROM events
                        WHERE event_type = 'signup' GROUP BY user_id),
            p0 AS (SELECT s.user_id, min(e.ts) AS pt FROM s0 s
                   JOIN events e ON e.user_id = s.user_id
                     AND e.event_type = 'purchase' AND e.ts > s.st
                   GROUP BY s.user_id),
            d AS (SELECT (epoch_us(p0.pt) - epoch_us(s0.st)) // 1000000
                           AS delay_s
                  FROM p0 JOIN s0 USING (user_id)),
            n AS (SELECT count(*) AS c FROM d),
            q AS (SELECT delay_s, row_number() OVER (ORDER BY delay_s) AS rn
                  FROM d)
            SELECT (SELECT c FROM n)::BIGINT AS n_converted,
                   (SELECT delay_s FROM q, n
                    WHERE rn = (c + 1) // 2)::BIGINT AS p50_s,
                   (SELECT delay_s FROM q, n
                    WHERE rn = (9 * c + 9) // 10)::BIGINT AS p90_s
        """,
        # order-invariant replication checksums (sum of row md5-64 mod 2^63)
        "table_checksums": """
            WITH o AS (
              SELECT ('0x' || substr(md5(o_orderkey::VARCHAR || '|' ||
                       CAST(round(o_totalprice * 100) AS BIGINT)::VARCHAR),
                       1, 16))::UBIGINT
                     % 9223372036854775808::UBIGINT AS h
              FROM orders),
            d AS (
              SELECT ('0x' || substr(md5(doc_id::VARCHAR || '|' ||
                       md5(text)), 1, 16))::UBIGINT
                     % 9223372036854775808::UBIGINT AS h
              FROM documents)
            SELECT * FROM (
              SELECT 'documents' AS table_name, count(*)::BIGINT AS n_rows,
                     CAST(sum(h::HUGEINT)
                          % 9223372036854775808::HUGEINT AS BIGINT)
                       AS checksum
              FROM d
              UNION ALL
              SELECT 'orders', count(*)::BIGINT,
                     CAST(sum(h::HUGEINT)
                          % 9223372036854775808::HUGEINT AS BIGINT)
              FROM o
            ) ORDER BY table_name
        """,
        # linear multi-touch attribution: 10^6 micro-credits per purchase
        # floor-split across trailing-24h click/view touches, flooring
        # remainder reported as its own row
        "multi_touch_attribution": """
            WITH conv AS (SELECT user_id, ts, event_id FROM events
                          WHERE event_type = 'purchase'),
            t AS (SELECT user_id, ts, event_type FROM events
                  WHERE event_type IN ('click', 'view')),
            j AS (SELECT c.event_id,
                         sum(CASE WHEN t.event_type = 'click'
                             THEN 1 ELSE 0 END) AS nc,
                         sum(CASE WHEN t.event_type = 'view'
                             THEN 1 ELSE 0 END) AS nv
                  FROM conv c LEFT JOIN t ON t.user_id = c.user_id
                    AND t.ts >= c.ts - INTERVAL 24 HOUR AND t.ts < c.ts
                  GROUP BY c.event_id),
            a AS (SELECT nc, nv, nc + nv AS n FROM j)
            SELECT * FROM (
              SELECT 'click' AS kind, sum(nc)::BIGINT AS n,
                     COALESCE(sum(nc * 1000000 // n)
                              FILTER (WHERE n > 0), 0)::BIGINT
                       AS credit_micro FROM a
              UNION ALL
              SELECT 'unattributed',
                     sum(CASE WHEN n > 0 THEN 1 ELSE 0 END)::BIGINT,
                     COALESCE(sum(1000000 - nc * 1000000 // n
                                  - nv * 1000000 // n)
                              FILTER (WHERE n > 0), 0)::BIGINT FROM a
              UNION ALL
              SELECT 'view', sum(nv)::BIGINT,
                     COALESCE(sum(nv * 1000000 // n)
                              FILTER (WHERE n > 0), 0)::BIGINT FROM a
            ) ORDER BY kind
        """,
        # time-travel AS OF reads: snapshots at versions 0 and 1
        # reconstructed through the same SCD2 validity history
        "orders_scd2_asof": """
            WITH mx AS (SELECT max(o_orderkey) AS m FROM orders),
            b AS (SELECT o_orderkey AS k,
                         CAST(round(o_totalprice * 100) AS BIGINT) AS cents
                  FROM orders),
            upd AS (SELECT k, cents + 500 AS nc FROM b WHERE k % 10 = 3),
            del AS (SELECT k FROM b WHERE k % 10 = 7),
            ins AS (SELECT b.k + mx.m + 1 AS k, cents + 123 AS nc
                    FROM b, mx WHERE b.k % 10 = 1),
            hist AS (
              SELECT b.k AS o_orderkey, b.cents AS price_cents,
                     CAST(0 AS BIGINT) AS valid_from,
                     CAST(CASE WHEN u.k IS NOT NULL OR d.k IS NOT NULL
                          THEN 1 ELSE 9999 END AS BIGINT) AS valid_to
              FROM b LEFT JOIN upd u ON b.k = u.k
                     LEFT JOIN del d ON b.k = d.k
              UNION ALL
              SELECT k, nc, CAST(1 AS BIGINT), CAST(9999 AS BIGINT) FROM upd
              UNION ALL
              SELECT k, nc, CAST(1 AS BIGINT), CAST(9999 AS BIGINT) FROM ins),
            v(ver) AS (VALUES (0), (1))
            SELECT ver::BIGINT AS version, count(*)::BIGINT AS n_rows,
                   sum(price_cents)::BIGINT AS sum_cents
            FROM hist, v WHERE valid_from <= ver AND ver < valid_to
            GROUP BY ver ORDER BY version
        """,
        # MATCH_RECOGNIZE-style row-pattern counts: non-overlapping
        # contiguous s[cv]*p runs per user's ordered event-type string
        "event_pattern_counts": """
            WITH o AS (
              SELECT user_id, ts, event_id,
                CASE event_type WHEN 'click' THEN 'c' WHEN 'error' THEN 'e'
                     WHEN 'purchase' THEN 'p' WHEN 'signup' THEN 's'
                     ELSE 'v' END AS ch
              FROM events),
            seq AS (SELECT user_id,
                           string_agg(ch, '' ORDER BY ts, event_id) AS s
                    FROM o GROUP BY user_id),
            m AS (SELECT user_id,
                         len(regexp_extract_all(s, 's[cv]*p')) AS n
                  FROM seq)
            SELECT sum(n)::BIGINT AS n_matches,
                   sum(CASE WHEN n > 0 THEN 1 ELSE 0 END)::BIGINT
                     AS n_users_matched
            FROM m
        """,
        # interval union / island detection: per-supplier merged 30-day
        # shipment windows (coverage days exact in integer microseconds)
        "supplier_ship_coverage": """
            WITH w AS (SELECT l_suppkey AS s, epoch_us(l_shipdate) AS a,
                              epoch_us(l_shipdate) + 2592000000000 AS b
                       FROM lineitem),
            o AS (SELECT s, a, b,
                         max(b) OVER (PARTITION BY s ORDER BY a, b
                                      ROWS BETWEEN UNBOUNDED PRECEDING
                                      AND 1 PRECEDING) AS pm
                  FROM w),
            g AS (SELECT s, a, b,
                         sum(CASE WHEN pm IS NULL OR a > pm THEN 1 ELSE 0 END)
                           OVER (PARTITION BY s ORDER BY a, b
                                 ROWS UNBOUNDED PRECEDING) AS isl
                  FROM o),
            i AS (SELECT s, isl, min(a) AS st, max(b) AS en
                  FROM g GROUP BY s, isl)
            SELECT s AS l_suppkey, count(*)::BIGINT AS n_islands,
                   (sum(en - st) // 86400000000)::BIGINT AS covered_days
            FROM i GROUP BY s ORDER BY l_suppkey
        """,
        # inclusive subtree rollup over the implicit ternary folder tree
        "folder_rollup_docs": """
            WITH RECURSIVE anc AS (
              SELECT doc_id AS node, doc_id AS a, n_chars FROM documents
              UNION ALL
              SELECT node, (a - 1) // 3, n_chars FROM anc WHERE a > 0)
            SELECT a AS doc_id, count(*)::BIGINT AS n_desc,
                   sum(n_chars)::BIGINT AS sum_chars
            FROM anc GROUP BY a ORDER BY doc_id
        """,
        # per-type OLS value-vs-time trend: exact integer moment sums +
        # floor(1e6 * cov / var) via HUGEINT with an explicit positive-mod
        # floor adjustment (engine mirrors with Python ints)
        "event_value_trend": """
            WITH c AS (
              SELECT event_type,
                     epoch_us(date_trunc('hour', ts)) // 3600000000
                       - 262968 AS x,
                     CAST(round(value * 100) AS BIGINT) AS y
              FROM events),
            s AS (
              SELECT event_type,
                     CAST(count(*) AS HUGEINT) AS n,
                     sum(CAST(x AS HUGEINT)) AS sx,
                     sum(CAST(y AS HUGEINT)) AS sy,
                     sum(CAST(x AS HUGEINT) * x) AS sxx,
                     sum(CAST(x AS HUGEINT) * y) AS sxy
              FROM c GROUP BY event_type),
            t AS (
              SELECT event_type, n, sx, sy,
                     1000000 * (n * sxy - sx * sy) AS num,
                     n * sxx - sx * sx AS den
              FROM s)
            SELECT event_type,
                   CAST(n AS BIGINT) AS n_events,
                   CAST(sx AS BIGINT) AS sum_hours,
                   CAST(sy AS BIGINT) AS sum_cents,
                   CAST(CASE WHEN den = 0 THEN 0
                        ELSE (num - (((num % den) + den) % den)) // den
                        END AS BIGINT) AS slope_micro
            FROM t ORDER BY event_type
        """,
        # anchor-text consolidation over the deterministic link graph
        # (doc -> (doc*31+s) % n, s in 1..3; anchors = source's first two
        # tokens; ties to the lexicographically smaller token)
        "anchor_text_topk": r"""
            WITH nn AS (SELECT count(*) AS n FROM documents),
            tok AS (
              SELECT doc_id,
                     list_filter(string_split_regex(lower(text), '\s+'),
                                 x -> x <> '') AS toks
              FROM documents
            ), anc AS (
              SELECT doc_id, unnest(toks[1:2]) AS w FROM tok
            ), edges AS (
              SELECT d.doc_id AS src, (d.doc_id * 31 + s.s) % nn.n AS dst
              FROM documents d, nn, (VALUES (1), (2), (3)) AS s(s)
            ), cnt AS (
              SELECT e.dst AS doc_id, a.w, count(*)::BIGINT AS cnt
              FROM edges e JOIN anc a ON a.doc_id = e.src
              GROUP BY 1, 2
            )
            SELECT doc_id, w AS anchor_token, cnt FROM cnt
            QUALIFY row_number() OVER (PARTITION BY doc_id
                                       ORDER BY cnt DESC, w) = 1
            ORDER BY doc_id
        """,
        # generated from the engine md5 token-hash ring — see
        # engine/oracles.py::feature_hash_embed_sql
        "feature_hash_embed": _lsh_oracles.feature_hash_embed_sql(),
        "user_retention_cohorts": """
            WITH ud AS (
              SELECT DISTINCT user_id, date_trunc('day', ts) AS d FROM events),
            c AS (SELECT user_id, min(d) AS cohort FROM ud GROUP BY user_id)
            SELECT c.cohort AS cohort_day,
                   CAST(datediff('day', c.cohort, ud.d) AS BIGINT) AS day_offset,
                   count(*)::BIGINT AS n_users
            FROM ud JOIN c ON ud.user_id = c.user_id
            GROUP BY 1, 2 ORDER BY 1, 2
        """,
        # the CMS prefilter provably loses no true heavy hitter (point
        # queries never underestimate), so the oracle is a plain exact
        # frequency filter at the same integer threshold
        "cms_heavy_hitters": r"""
            WITH tok AS (
              SELECT unnest(string_split_regex(lower(text), '\s+')) AS w
              FROM documents
            ), tc AS (
              SELECT w, count(*)::BIGINT AS c FROM tok WHERE w <> '' GROUP BY w
            ), tot AS (SELECT sum(c)::BIGINT AS s FROM tc)
            SELECT w AS token, c AS n
            FROM tc, tot
            WHERE c >= greatest(1, s // 200)
            ORDER BY token
        """,
        "source_mix_weighted": _lsh_oracles.source_mix_weighted_sql(),
        "cap_per_source": _lsh_oracles.cap_per_source_sql(),
        # Z-order layout manifest: generated Morton interleave, exact
        "zorder_layout_events": _lsh_oracles.zorder_manifest_sql(),
        # the layout's READ side: pruning must be lossless
        "zorder_pruned_count": _lsh_oracles.zorder_pruned_count_sql(),
        # CMS inner-product join-size estimate + exact count, both exact
        "join_size_estimate": _lsh_oracles.join_size_estimate_sql(),
        # bounded-hop Bellman-Ford over generated integer edge weights
        "link_weighted_paths": _lsh_oracles.weighted_paths_sql(),
        # distributed zip-with-index: contiguous global (ts, id) sequence
        "events_global_seq": """
            SELECT event_id,
                   row_number() OVER (ORDER BY ts, event_id) - 1 AS seq
            FROM events ORDER BY event_id
        """,
        # winsorized mean at exact p01/p99 cent ranks (shared convention)
        "value_winsorized_stats": """
            WITH c AS (SELECT CAST(round(value * 100) AS BIGINT) AS cents
                       FROM events),
            nn AS (SELECT count(*) AS n FROM c),
            lo AS (SELECT cents FROM c ORDER BY cents LIMIT 1 OFFSET
                   (SELECT CAST(ceil(0.01 * n) - 1 AS BIGINT) FROM nn)),
            hi AS (SELECT cents FROM c ORDER BY cents LIMIT 1 OFFSET
                   (SELECT CAST(ceil(0.99 * n) - 1 AS BIGINT) FROM nn))
            SELECT (SELECT n FROM nn) AS n_events,
                   (SELECT cents FROM lo) AS p01_cents,
                   (SELECT cents FROM hi) AS p99_cents,
                   SUM(LEAST(GREATEST(cents, (SELECT cents FROM lo)),
                             (SELECT cents FROM hi)))::BIGINT
                     AS winsorized_sum_cents,
                   (1000 * SUM(LEAST(GREATEST(cents, (SELECT cents FROM lo)),
                                     (SELECT cents FROM hi))))
                     // (SELECT n FROM nn) AS winsorized_mean_cents_milli
            FROM c
        """,
        "global_shuffle": _lsh_oracles.global_shuffle_sql(),
        # hash-split partition: shared splitmix64 builder, stable membership
        "dataset_split_assign": _lsh_oracles.dataset_split_assign_sql(),
        "export_shuffled_shards": _lsh_oracles.export_shuffled_shards_sql(),
        "lm_perplexity_bucket": _lsh_oracles.lm_perplexity_bucket_sql(),
        "dsir_importance_weights": _lsh_oracles.dsir_importance_weights_sql(),
        "decontaminate_ngrams": _lsh_oracles.decontaminate_ngrams_sql(),
        "eval_affinity_counts": _lsh_oracles.eval_affinity_counts_sql(),
        "near_dedup_cluster_stats": _lsh_oracles.near_dedup_cluster_stats_sql(),
        "dedup_keep_best": _lsh_oracles.dedup_keep_best_sql(),
        # PII redaction: same RE2 patterns on both sides (Arrow kernels in the
        # engine, regexp_replace here); replacement is sequential (email, IP,
        # phone) and each count is taken on the string state at its own
        # replacement time — see engine.ops.text.pii_redact.  The corpus has
        # no PII, so both sides plant the identical per-doc suffix.
        "pii_redact": rf"""
            WITH planted AS (
              SELECT doc_id,
                     text || ' contact u' || doc_id || '@example.com'
                          || CASE WHEN doc_id % 2 = 0
                                  THEN ' ip 10.' || (doc_id % 256) || '.0.' || (doc_id % 200)
                                  ELSE '' END
                          || CASE WHEN doc_id % 3 = 0
                                  THEN ' tel (555) ' || (100 + doc_id % 900) || ' ' || (1000 + doc_id % 9000)
                                  ELSE '' END AS s0
              FROM documents),
            s1 AS (SELECT doc_id, s0,
                          regexp_replace(s0, '{text.PII_EMAIL_RE}', '<EMAIL>', 'g') AS t1
                   FROM planted),
            s2 AS (SELECT doc_id, s0, t1,
                          regexp_replace(t1, '{text.PII_IP_RE}', '<IP>', 'g') AS t2
                   FROM s1)
            SELECT doc_id,
                   len(regexp_extract_all(s0, '{text.PII_EMAIL_RE}')) AS n_emails,
                   len(regexp_extract_all(t1, '{text.PII_IP_RE}')) AS n_ips,
                   len(regexp_extract_all(t2, '{text.PII_PHONE_RE}')) AS n_phones,
                   regexp_replace(t2, '{text.PII_PHONE_RE}', '<PHONE>', 'g') AS text
            FROM s2 ORDER BY doc_id
        """,
        # Sequence packing: concatenate docs in doc_id order into one token
        # stream, cut every PACK_CAPACITY tokens; a straddling doc rows into
        # each sequence it intersects (engine.ops.text.pack_sequences).
        "pack_sequences": rf"""
            WITH tok AS (
              SELECT doc_id, len(regexp_extract_all(text, '\S+')) AS n FROM documents
            ), cum AS (
              SELECT doc_id, n,
                     CAST(COALESCE(SUM(n) OVER (ORDER BY doc_id
                          ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING), 0) AS BIGINT) AS s
              FROM tok)
            SELECT w AS seq_id, doc_id,
                   GREATEST(s, w*{text.PACK_CAPACITY}) - w*{text.PACK_CAPACITY} AS off_in_seq,
                   LEAST(s+n, (w+1)*{text.PACK_CAPACITY}) - GREATEST(s, w*{text.PACK_CAPACITY}) AS n_tokens
            FROM cum, UNNEST(generate_series(s//{text.PACK_CAPACITY}, (s+n-1)//{text.PACK_CAPACITY})) AS t(w)
            WHERE n > 0
            ORDER BY seq_id, off_in_seq
        """,
        "media_sizes": """
            SELECT doc_id AS media_id,
                   CASE doc_id % 3 WHEN 0 THEN 'image' WHEN 1 THEN 'audio'
                        ELSE 'video' END AS media_type,
                   octet_length(encode(text)) AS n_bytes
            FROM documents ORDER BY media_id
        """,
    }
    # Flagship composed pipeline: the oracle is ASSEMBLED from the already-
    # checked component oracles (each as a subquery), so the composition
    # cannot drift from its parts.  Stage order matches engine.ops.curate.
    d["curate_training_data"] = f"""
        SELECT d.doc_id,
               CASE WHEN NOT g.passes_gopher THEN 'quality'
                    WHEN e.canonical_id <> d.doc_id THEN 'exact_dup'
                    WHEN n.canonical_id <> d.doc_id THEN 'near_dup'
                    WHEN p.bucket = 'tail' THEN 'perplexity'
                    ELSE 'kept' END AS status,
               p.ln_ppl_nano
        FROM documents d
        JOIN ({d["gopher_quality_flags"]}) g ON g.doc_id = d.doc_id
        JOIN ({d["exact_dedup"]}) e ON e.doc_id = d.doc_id
        JOIN ({d["near_dedup_canonical"]}) n ON n.doc_id = d.doc_id
        JOIN ({d["lm_perplexity_bucket"]}) p ON p.doc_id = d.doc_id
        ORDER BY d.doc_id"""
    # The export sink's manifest: recomputed from the composed curate oracle
    # (row count AND total chars per shard, so payload is checked too).
    d["export_training_shards"] = f"""
        WITH cur AS ({d["curate_training_data"]}),
        kept AS (SELECT doc_id FROM cur WHERE status = 'kept')
        SELECT (d.doc_id % 16)::BIGINT AS shard, count(*)::BIGINT AS n_docs,
               sum(length(d.text))::BIGINT AS n_chars
        FROM documents d JOIN kept k ON k.doc_id = d.doc_id
        GROUP BY 1 ORDER BY 1"""
    # Right-to-be-forgotten: the export manifest minus the deterministic
    # deletion set (doc_id % 331 == 7) — counts AND chars checked.
    d["forget_documents"] = f"""
        WITH cur AS ({d["curate_training_data"]}),
        kept AS (SELECT doc_id FROM cur
                 WHERE status = 'kept' AND doc_id % 331 <> 7)
        SELECT (d.doc_id % 16)::BIGINT AS shard, count(*)::BIGINT AS n_docs,
               sum(length(d.text))::BIGINT AS n_chars
        FROM documents d JOIN kept k ON k.doc_id = d.doc_id
        GROUP BY 1 ORDER BY 1"""
    # Domain-level curation scoreboard: the composed curate oracle joined
    # against per-doc token counts, aggregated per source.
    d["source_quality_stats"] = rf"""
        WITH cur AS ({d["curate_training_data"]}),
        tok AS (SELECT doc_id, source,
                       len(regexp_extract_all(text, '\S+')) AS n
                FROM documents)
        SELECT t.source,
               count(*)::BIGINT AS n_docs,
               sum(CASE WHEN c.status = 'quality' THEN 1 ELSE 0 END)::BIGINT AS n_quality,
               sum(CASE WHEN c.status = 'exact_dup' THEN 1 ELSE 0 END)::BIGINT AS n_exact_dup,
               sum(CASE WHEN c.status = 'near_dup' THEN 1 ELSE 0 END)::BIGINT AS n_near_dup,
               sum(CASE WHEN c.status = 'perplexity' THEN 1 ELSE 0 END)::BIGINT AS n_perplexity,
               sum(CASE WHEN c.status = 'kept' THEN 1 ELSE 0 END)::BIGINT AS n_kept,
               sum(t.n)::BIGINT AS sum_tokens
        FROM tok t JOIN cur c ON c.doc_id = t.doc_id
        GROUP BY t.source ORDER BY t.source"""
    # near-duplication rate per provenance: the generated LSH+CC canonical
    # map composed with the documents source column
    d["near_dup_rate_by_source"] = f"""
        SELECT s.source, count(*)::BIGINT AS n_docs,
               sum(CASE WHEN nd.canonical_id <> nd.doc_id
                   THEN 1 ELSE 0 END)::BIGINT AS n_near_dups
        FROM documents s
        JOIN ({d["near_dedup_canonical"]}) nd ON nd.doc_id = s.doc_id
        GROUP BY s.source ORDER BY s.source"""
    return _normalize_oracle_dtypes(d)


# DuckDB dtype skews vs the engine's (correct) outputs: SUM(BIGINT) returns
# HUGEINT which pandas renders as float64 while the engine emits int64;
# DATE_TRUNC/TIMESTAMP columns come back as timestamp[us] while the engine's
# pandas pipelines emit datetime64[ns]; a couple of DuckDB expressions return
# INT32 where the engine emits int64.  The values are identical — only the
# physical dtype differs — but the driver's hash is dtype-sensitive, so we
# wrap the affected oracle columns in explicit CASTs (VERDICT r4 "What's
# wrong #1": the 3 driver-red rows plus the 15 latent ones found by sweep).
_ORACLE_DTYPE_FIXES: dict[str, dict[str, str]] = {
    "events_hourly": {"hour": "TIMESTAMP_NS"},
    "events_hourly_dense": {"hour": "TIMESTAMP_NS"},
    "incremental_events_hourly": {"hour": "TIMESTAMP_NS"},
    "events_hourly_anomalies": {"hour": "TIMESTAMP_NS"},
    "events_hopping": {"window_start": "TIMESTAMP_NS"},
    "events_sliding_distinct_users": {"window_end": "TIMESTAMP_NS"},
    "promo_revenue_share": {"ship_month": "TIMESTAMP_NS"},
    "event_type_day_pivot": {"day": "TIMESTAMP_NS"},
    "user_retention_cohorts": {"cohort_day": "TIMESTAMP_NS"},
    "daily_order_ship_balance": {"day": "TIMESTAMP_NS"},
    "join_size_estimate": {"value": "BIGINT"},
    "value_winsorized_stats": {"winsorized_mean_cents_milli": "BIGINT"},
    "small_quantity_revenue": {"sum_cents": "BIGINT"},
    "local_supplier_revenue": {"revenue_cents": "BIGINT"},
    "customer_yoy_revenue": {"rev_a_cents": "BIGINT", "rev_b_cents": "BIGINT"},
    "user_value_deciles": {"boundary_cents": "BIGINT"},
    "phrase_search": {"query_id": "BIGINT"},
    "k_anonymity_report": {"at_risk": "BIGINT"},
    "embedding_moments": {"sum_micro": "BIGINT"},
    "embedding_similarity_histogram": {"hi_micro": "BIGINT", "lo_micro": "BIGINT"},
    "embedding_norm_outliers": {"norm_sq_milli": "BIGINT"},
    "label_centroids": {"sum_micro": "BIGINT"},
}


def _normalize_oracle_dtypes(sqls: dict[str, str]) -> dict[str, str]:
    for name, cols in _ORACLE_DTYPE_FIXES.items():
        if name in sqls:
            rep = ", ".join(f'CAST("{c}" AS {t}) AS "{c}"' for c, t in cols.items())
            sqls[name] = f"SELECT * REPLACE ({rep}) FROM ({sqls[name]})"
    return sqls
