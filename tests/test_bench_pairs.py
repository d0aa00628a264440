"""Argument checks of tools/bench_pairs.py: a bad value is refused before
any benchmark process starts."""

from __future__ import annotations

import importlib.util
import json
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


def _stub_run(wrong_change_seed):
    """A run_bench whose change wins every pair on every metric, and whose
    change run at ``wrong_change_seed`` prints ``correct: false``."""
    def run_bench(checkout, workload, seed, seconds, trace):
        change = checkout.name == "change"
        values = {"ticks_per_s": 2000.0 + seed + 2000.0 * change,
                  "tick_ms_p99": 0.8 - 0.4 * change,
                  "setup_s": 1.0 - 0.1 * change,
                  "peak_rss_mb": 45.0 - 1.0 * change}
        result = {"correct": not (change and seed == wrong_change_seed), "failed": 0,
                  "metrics": {k: {"value": v} for k, v in values.items()}}
        return result, {"host": "stub"}, 0
    return run_bench


@pytest.mark.parametrize("wrong_change_seed, met, wrong", [(None, True, 0), (3, False, 1)],
                         ids=["all_correct", "one_change_run_incorrect"])
def test_claim_is_not_met_while_a_run_is_wrong(wrong_change_seed, met, wrong, monkeypatch,
                                               tmp_path, capsys):
    bench_pairs = _bench_pairs()
    monkeypatch.setattr(bench_pairs, "run_bench", _stub_run(wrong_change_seed))
    for side in ("parent", "change"):
        (tmp_path / side).mkdir()
    (tmp_path / "change" / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    out = tmp_path / "bench.json"
    assert bench_pairs.main(["--parent", str(tmp_path / "parent"),
                             "--change", str(tmp_path / "change"), "--pairs", "10",
                             "--workloads", "native_replay",
                             "--claim", "native_replay:ticks_per_s", "--out", str(out)]) == 0
    # One progress line per run, the parent first in even pairs.
    assert [line.split()[:3] for line in capsys.readouterr().err.splitlines()] == [
        ["native_replay", str(i), side] for i in range(10)
        for side in (("parent", "change") if i % 2 == 0 else ("change", "parent"))]
    result = json.loads(out.read_text())
    assert result["workloads"]["native_replay"]["summary"]["ticks_per_s"]["change_wins"] == "10/10"
    assert result["workloads"]["native_replay"]["wrong_runs"] == {"parent": 0, "change": wrong}
    assert result["claim"]["wrong_runs"] == wrong
    assert result["claim"]["met"] is met
