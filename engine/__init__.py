"""Ray-Data-native crawl + data-processing engine.

A from-scratch re-expression of the capabilities of the reference
``ksli78/SharePointCrawler`` (C#, single-threaded, see SURVEY.md) as idiomatic
``ray.data`` pipelines:

- ``engine.extract``       layout-aware page -> markdown extraction (the analog of
                           ``PdfToMarkdownConverter.cs:75-777``), a pure function
                           applied per row inside ``map_batches``.
- ``engine.canonicalize``  URL canonicalization + host extraction (the analog of
                           ``SharePointClient.cs:207-208,387,92-94``).
- ``engine.synth``         deterministic synthetic Common-Crawl-style corpus
                           (FIXTURES.md schema: url, warc_ts, html, text, lang).
- ``engine.seen``          URL-seen set as one sorted hash array, one
                           immutable value per crawl round.
- ``engine.politeness``    robots.txt gating + per-host round budgets.
- ``engine.frontier``      priority ordering + budget slicing + skew pre-pruning.
- ``engine.checkpoint``    per-round parquet checkpoints, counters, lineage, resume.
- ``engine.crawl``         the BSP frontier-expansion driver loop.
- ``engine.oracle``        the sequential reference-semantics oracle used by tests.
- ``engine.ops``           the batch data-processing operator battery (dedup,
                           similarity search, text analysis, relational ops).

IMPORTANT: nothing in this package calls ``ray.init()`` / ``ray.shutdown()``;
sessions are owned by the caller (driver, bench.py, or the pytest fixture).
"""

__version__ = "0.1.0"
