"""Job config + CLI entry point — the batch surface of the engine.

The analog of the reference's settings store + console entry
(``UserSettings.cs:7-54``, README.md:45-56's documented CLI): a crawl job is
one JSON (or YAML, if available) config file; the CLI is the local stand-in
for ``ray job submit -- python -m engine.job job.json``.

Config keys::

    {
      "corpus_dir": "/tmp/corpus",        # required
      "ckpt_dir": "/tmp/ckpt",            # required
      "budget": {"max_urls_total": ..., "max_per_host_per_round": ...,
                 "max_depth": ..., "max_rounds": ...},
      "filters": {"allow_url_regex": [...], "deny_url_regex": [...],
                  "allowed_extensions": [...],
                  "allow_titles": [...],            # inline title allow-list
                  "allowlist_file": "docstoingest.txt"},  # or from a file
      "num_cpus": 32                      # only used by the CLI's own ray.init
    }

Other keys are ignored, so a config that names an option the engine no
longer has still loads and runs.

Secrets never appear in the config (the reference stores credentials in its
settings JSON; the engine's analog is environment-provided and out of scope).

Only the ``main()`` CLI owns a Ray session (guarded init); ``load_job_config``
and ``run_job`` never call ``ray.init``.
"""

from __future__ import annotations

import json
import os


def load_job_config(path: str) -> dict:
    with open(path) as f:
        text = f.read()
    if path.endswith((".yaml", ".yml")):
        try:
            import yaml  # optional; import-gated per environment rules

            cfg = yaml.safe_load(text)
        except ImportError as e:
            raise RuntimeError("YAML config requires pyyaml; use JSON") from e
    else:
        cfg = json.loads(text)
    for key in ("corpus_dir", "ckpt_dir"):
        if key not in cfg:
            raise ValueError(f"job config missing required key: {key}")
    cfg.setdefault("budget", None)
    cfg.setdefault("filters", None)
    return cfg


def run_job(cfg: dict):
    """Run a crawl from a loaded config. Ray must already be initialised."""
    from .crawl import crawl

    return crawl(
        cfg["corpus_dir"],
        cfg["ckpt_dir"],
        budget=cfg.get("budget"),
        filters=cfg.get("filters"),
    )


def main(argv=None):
    import argparse

    p = argparse.ArgumentParser(description="Run a crawl job from a config file")
    p.add_argument("config", help="path to job config (.json / .yaml)")
    args = p.parse_args(argv)
    cfg = load_job_config(args.config)

    import ray

    if not ray.is_initialized():
        ray.init(
            address="local",
            num_cpus=int(cfg.get("num_cpus", os.environ.get("RAY_GRAFT_CPUS", 32))),
            include_dashboard=False,
            ignore_reinit_error=True,
            logging_level="ERROR",
        )
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False
    try:
        res = run_job(cfg)
        print(
            json.dumps(
                {"rounds": res.rounds, "cumulative": res.cumulative, "ckpt": res.ckpt_dir}
            )
        )
    finally:
        ray.shutdown()


if __name__ == "__main__":
    main()
