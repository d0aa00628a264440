"""Argument checks of tools/bench_pairs.py: a bad value is refused before
any benchmark process starts."""

from __future__ import annotations

import importlib.util
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "tools" / "bench_pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("extra, message", [
    (["--pairs", "1"], "--pairs must be at least 2, got 1"),
    (["--pairs", "0"], "--pairs must be at least 2, got 0"),
    (["--claim", "native_replay"], "--claim must be WORKLOAD:METRIC"),
    (["--claim", "native_replay:peak_rss_mb:x"], "--claim must be WORKLOAD:METRIC"),
    (["--claim", "no_such_workload:peak_rss_mb"], "--claim must be WORKLOAD:METRIC"),
    (["--workloads", "corridor_goal", "--claim", "native_replay:peak_rss_mb"],
     "--claim must be WORKLOAD:METRIC"),
    (["--claim", "native_replay:projection.back_project.calls"],
     "--claim must be WORKLOAD:METRIC"),
], ids=["one_pair", "no_pairs", "no_colon", "two_colons", "unknown_workload",
        "workload_not_run", "per_layer_metric"])
def test_bad_arguments_are_refused_before_any_run(extra, message, monkeypatch, tmp_path,
                                                  capsys):
    started = []
    monkeypatch.setattr(subprocess, "run", lambda *args, **kwargs: started.append(args))
    out = tmp_path / "bench.json"
    with pytest.raises(SystemExit) as exc:
        _bench_pairs().main(["--parent", str(ROOT), "--change", str(ROOT),
                             "--out", str(out), *extra])
    assert exc.value.code == 2
    assert message in capsys.readouterr().err
    assert started == [] and not out.exists()
