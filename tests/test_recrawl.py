"""Etag/last-modified incremental recrawl (VERDICT r3 next-round #4).

The reference carries etag + last_modified on every wire payload
(``DocumentPayload.cs:10-25``) as the hook for "only re-ingest changed
documents"; the engine derives the invalidation set by anti-joining current
page etags against the checkpoint's stored docs table and deletes that set
from the seen set on resume.
"""


def test_etag_recrawl_fetches_exactly_changed(small_corpus, tmp_path):
    from engine.crawl import crawl, detect_changed_urls, recrawl
    from engine.synth import modify_pages

    corpus_dir, _cfg = small_corpus
    budget = {"max_urls_total": 2000, "max_per_host_per_round": 8,
              "max_depth": 6, "max_rounds": 40}
    ck = str(tmp_path / "ck")
    first = crawl(corpus_dir, ck, budget)

    docs = first.docs_dataset().to_pandas()
    hits = sorted(docs[docs.status == "hit"].url.unique().tolist())
    assert len(hits) > 20
    targets = hits[3:8]  # the K "changed since last crawl" pages

    # unchanged corpus: detection is empty and a recrawl fetches NOTHING
    assert detect_changed_urls(corpus_dir, ck) == []
    same = recrawl(corpus_dir, ck, budget)
    assert same.cumulative["attempted"] == first.cumulative["attempted"]

    mod = modify_pages(corpus_dir, str(tmp_path / "mod"), targets)
    changed = detect_changed_urls(mod, ck)
    assert changed == sorted(targets)

    res = recrawl(mod, ck, budget)
    assert res.cumulative["attempted"] == first.cumulative["attempted"] + len(targets)
    docs2 = res.docs_dataset().to_pandas()
    new_rows = docs2[docs2.fetch_seq >= first.cumulative["attempted"]]
    assert sorted(new_rows.url.tolist()) == sorted(targets)
    assert (new_rows.status == "hit").all()

    # the refetch stored the NEW etags: detection is clean again
    assert detect_changed_urls(mod, ck) == []


def test_recrawl_records_deletions(small_corpus, tmp_path):
    """Removed documents become tombstone ROWS (deletions.parquet), are
    never futilely fetched, and changed+deleted deltas coexist."""
    import os

    import pyarrow.parquet as pq

    from engine.crawl import crawl, detect_corpus_delta, recrawl
    from engine.synth import modify_pages

    corpus_dir, _cfg = small_corpus
    budget = {"max_urls_total": 2000, "max_per_host_per_round": 8,
              "max_depth": 6, "max_rounds": 40}
    ck = str(tmp_path / "ck")
    first = crawl(corpus_dir, ck, budget)
    docs = first.docs_dataset().to_pandas()
    hits = sorted(docs[docs.status == "hit"].url.unique().tolist())
    changed_t = hits[:3]
    deleted_t = hits[10:14]
    mod = modify_pages(corpus_dir, str(tmp_path / "mod"), changed_t,
                       delete_urls=deleted_t)

    changed, deleted = detect_corpus_delta(mod, ck)
    assert changed == sorted(changed_t)
    assert deleted == sorted(deleted_t)

    res = recrawl(mod, ck, budget)
    # exactly the changed set re-fetched; deletions recorded as rows
    assert res.cumulative["attempted"] == first.cumulative["attempted"] + len(changed_t)
    tomb = pq.read_table(os.path.join(ck, "deletions.parquet"))["url"].to_pylist()
    assert sorted(tomb) == sorted(deleted_t)
    docs2 = res.docs_dataset().to_pandas()
    new_rows = docs2[docs2.fetch_seq >= first.cumulative["attempted"]]
    assert sorted(new_rows.url.tolist()) == sorted(changed_t)
    assert not set(new_rows.url) & set(deleted_t)
