"""Fast self-test of the benchmark at tiny sizes.

    python3 -m pytest perfbench/test_smoke.py -q     # from the repository root
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from run import END_TO_END, PER_LAYER  # noqa: E402
from tracer import LAYERS  # noqa: E402
from workloads import WORKLOAD_NAMES, WORKLOADS  # noqa: E402


def _bench(cwd, trace):
    # at 0.1 s each workload runs one untraced and (traced runs) one traced command
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", "all", "--seed", "0",
           "--seconds", "0.1", "--trace", str(trace), "--size", "tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


def _result(trace):
    proc = _bench(ROOT, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], proc.stdout + proc.stderr
    assert result["failed"] == 0  # ops_failed_frac is 0
    assert "ops_failed_frac" in proc.stdout
    return result["metrics"]


def test_benchmark_json_lists_every_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(END_TO_END)
    assert [m["name"] for m in spec["per_layer"]] == list(PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOAD_NAMES)
    assert [w["why"] for w in spec["workloads"]] == [WORKLOADS[n].why for n in WORKLOAD_NAMES]


def test_end_to_end_metrics_for_every_workload():
    metrics = _result(trace=0)
    for name in WORKLOAD_NAMES:
        for metric, unit in END_TO_END.items():
            entry = metrics[f"{name}.{metric}"]
            assert entry["unit"] == unit
            assert entry["value"] > 0


def test_per_layer_metrics_and_self_times():
    metrics = _result(trace=1)
    for name in WORKLOAD_NAMES:
        values = {m: metrics[f"{name}.{m}"]["value"] for m in PER_LAYER}
        self_total = sum(values[f"{layer}.self_s"] for layer in LAYERS)
        assert 0 < self_total <= values["trace.wall_s"]
        workload = WORKLOADS[name]
        if workload.work_unit == "path_steps":  # the config's count matches the program's
            assert values["integrators.steps"] == workload.work("tiny")
    transport = WORKLOADS["transport_paths"].tiny
    used = metrics["transport_paths.noise.used_channel_frac"]["value"]
    assert used == pytest.approx(1 / (2 * transport["modes"] + 1))
    assert metrics["mc_identities.integrators.steps"]["value"] == 0
    assert metrics["mc_identities.verify.reports"]["value"] == 7
    assert metrics["burgers_split.burgers.picard_sweeps"]["value"] > 0
    assert metrics["nonlinear_paths.models.drift_calls"]["value"] > 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench(tmp_path, trace=0)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
