"""Smoke test of the benchmark at a tiny size (one round per workload).

    python3 -m pytest perfbench
"""

import json
import shutil
import subprocess
import sys
from functools import partial
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import hostspeed  # noqa: E402
import rorc.cli  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


def run_bench(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    proc = run_bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in expected}
    for metric in expected:
        emitted = result["metrics"][metric["name"]]
        assert emitted["unit"] == metric["unit"]
        assert isinstance(emitted["value"], (int, float))
    if not trace:
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in expected)


def test_corrupted_golden_trips_failed_frac(tmp_path):
    goldens = workloads.load_goldens()
    key = "1,1,1,1,1"
    goldens[key] = {**goldens[key], "richardson": goldens[key]["richardson"] + 1}
    loop = run.Loop(rorc.cli.main, partial(workloads.check, goldens=goldens), tmp_path)
    loop.run(workloads.rounds_scan_f2(7), seconds=0)
    assert loop.attempted == len(workloads.SCAN_FIXED) + 1
    assert len(loop.failures) == 1 and "richardson" in loop.failures[0]


def test_refuses_a_directory_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run_bench("witness", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_host_normalization_uses_the_nearby_reference_times():
    ref = hostspeed.Reference()
    ref.times = [float(t) for t in range(20)]
    ref.secs = [hostspeed.NOMINAL_S] * 10 + [2 * hostspeed.NOMINAL_S] * 10
    assert ref.normalize(0.5, 2.0) == pytest.approx(0.5)
    assert ref.normalize(0.5, 17.0) == pytest.approx(0.25)
    ref.sample()
    assert len(ref.secs) == 21 and ref.secs[-1] > 0
