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
