"""Crawl benchmark: named workloads run through ``engine.crawl.crawl``.

``python3 crawlbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>``
from the repository root prints one JSON line; see ``crawlbench/README.md``.
"""

WORKLOADS = ("steady_html", "bfs_pdf", "dup_frontier")
