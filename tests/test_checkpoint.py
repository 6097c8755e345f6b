"""Checkpoint commit atomicity: a crash while committing a round leaves no
torn file and no half-committed round."""

import json
import os


def test_torn_counters_write_commits_nothing(tmp_path, monkeypatch):
    import engine.checkpoint as ckpt
    from engine.frontier import FRONTIER_SCHEMA

    cm = ckpt.CheckpointManager(str(tmp_path), {"test": 1})
    zeros = {k: 0 for k in ckpt.COUNTER_KEYS}

    def write(r):
        cm.write_round(r, FRONTIER_SCHEMA.empty_table(), zeros, zeros)

    write(0)
    assert cm.latest_complete_round() == 0

    class TornFile:
        """Writes half of what it is given, then fails (a crash mid-write)."""

        def __init__(self, f):
            self.f = f

        def write(self, s):
            self.f.write(s[: len(s) // 2])
            self.f.flush()
            raise OSError("simulated crash while writing counters")

        def __getattr__(self, name):
            return getattr(self.f, name)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.f.close()

    def torn_open(path, mode="r", *a, **kw):
        f = open(path, mode, *a, **kw)
        return TornFile(f) if "counters.json" in str(path) and "w" in mode else f

    monkeypatch.setattr(ckpt, "open", torn_open, raising=False)
    try:
        write(1)
        raise AssertionError("the injected failure did not fire")
    except OSError:
        pass
    monkeypatch.undo()

    rd = os.path.join(str(tmp_path), "round=1")
    counters = os.path.join(rd, "counters.json")
    if os.path.exists(counters):
        with open(counters) as f:
            json.load(f)  # never a torn prefix
    assert not [n for n in os.listdir(rd) if n.endswith(".tmp")]
    assert not os.path.exists(os.path.join(rd, "_SUCCESS"))
    assert cm.latest_complete_round() == 0
    ckpt.metrics_summary(str(tmp_path))  # every counters.json still parses

    write(1)  # the re-run commits the round
    assert cm.latest_complete_round() == 1
