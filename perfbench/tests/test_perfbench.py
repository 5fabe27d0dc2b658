"""Tests of the benchmark harness itself.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import workloads  # noqa: E402
from spans import SpanRecorder  # noqa: E402


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_seed_gives_byte_identical_specs(workload, tmp_path):
    first = workloads.build_jobs(workload, 7, 8)
    again = workloads.build_jobs(workload, 7, 8)
    other = workloads.build_jobs(workload, 8, 8)
    assert len(first) >= workloads.MIN_JOBS
    assert [j.spec_bytes() for j in first] == [j.spec_bytes() for j in again]
    assert [(j.command, j.args, j.cli_seed) for j in first] == [(j.command, j.args, j.cli_seed) for j in again]
    assert [j.spec_bytes() for j in first] != [j.spec_bytes() for j in other]
    a = workloads.write_specs(first, tmp_path / "a")
    b = workloads.write_specs(again, tmp_path / "b")
    assert [p.read_bytes() for p in a] == [p.read_bytes() for p in b]


def _bindings(modules, originals):
    return {(m.__name__, k): v for m in modules for k, v in vars(m).items()
            if any(v is o for o in originals)}


def test_wrappers_trace_calls_and_restore_originals():
    import gpchannel
    import gpchannel.cli

    targets = run.trace_targets(gpchannel)
    originals = [getattr(module, attr) for _, module, attr, _ in targets]
    modules = [m for k, m in sorted(sys.modules.items())
               if m is not None and (k == "gpchannel" or k.startswith("gpchannel."))]
    before = _bindings(modules, originals)
    # names looked up through `from .x import f` copies must be covered
    assert ("gpchannel.cli", "gp_capacity_dm") in before
    assert ("gpchannel.region", "minimize") in before
    assert ("gpchannel.mixture", "optimize_gp_policy") in before

    recorder = SpanRecorder()
    with pytest.raises(RuntimeError):
        with recorder.installed(targets):
            for (mod, key), original in before.items():
                assert getattr(sys.modules[mod], key) is not original
            joint = np.array([[0.4, 0.1], [0.1, 0.4]])
            value = gpchannel.capacity.mutual_information(joint)
            assert value == pytest.approx(gpchannel.info.mutual_information.__wrapped__(joint))
            raise RuntimeError("restore must survive an error")
    assert _bindings(modules, originals) == before
    for (mod, key), original in before.items():
        assert getattr(sys.modules[mod], key) is original
    assert recorder.calls["info.mutual_information"] == 1
    assert recorder.self_time["info.mutual_information"] > 0


def test_self_time_excludes_children():
    recorder = SpanRecorder()

    def child():
        return sum(range(20000))

    traced_child = recorder.wrap("child", child)
    recorder.run("parent", lambda: [traced_child() for _ in range(3)])
    assert recorder.calls == {"child": 3, "parent": 1}
    parent_total = recorder.end[-1] - recorder.start[-1]
    children = sum(e - s for e, s in zip(recorder.end[:3], recorder.start[:3]))
    assert recorder.self_time["parent"] == pytest.approx(parent_total - children)
    assert list(recorder.parent[:3]) == [0, 0, 0] and recorder.parent[3] == -1


def test_benchmark_json_shape():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names))
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25


@pytest.mark.parametrize("trace", [0, 1])
def test_printed_metric_names_match_benchmark_json(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "montecarlo", "--seed", "3",
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    expected = spec["end_to_end"] if trace == 0 else spec["per_layer"]
    assert list(result["metrics"]) == [m["name"] for m in expected]
    assert [v["unit"] for v in result["metrics"].values()] == [m["unit"] for m in expected]
    assert result["correct"] is True and result["attempted"] >= workloads.MIN_JOBS
