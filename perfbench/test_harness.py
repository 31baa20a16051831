"""Smoke tests of the benchmark harness on a tiny world."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench.bench import run, run_phase, tail
from perfbench.workloads import WORKLOADS
from perfbench.world import TINY_SIZES, input_rng, set_up

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload", ["scan", "verify", "serve"])
def test_tiny_run_reports_every_metric(workload, trace):
    result = run(workload, seed=3, seconds=0.05, trace=trace,
                 sizes=TINY_SIZES, setups=1)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    listed = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: unit for name, (_value, unit) in result["metrics"].items()} \
        == {metric["name"]: metric["unit"] for metric in listed}
    if not trace:
        assert all(value > 0 for value, _unit in result["metrics"].values())


def test_tail_keeps_ten_samples_beyond_it():
    assert tail([float(i) for i in range(1, 101)]) == (0.9, 90.0, 10)
    assert tail([float(i) for i in range(1, 20)]) == (10 / 19, 10.0, 9)


def test_same_seed_same_verdict_digest():
    digests = {
        run("scan", seed=5, seconds=0.01, trace=False, sizes=TINY_SIZES,
            setups=1)["info"]["verdict_digest"]
        for _ in range(2)
    }
    assert len(digests) == 1


@pytest.mark.parametrize("workload", ["scan", "verify", "serve"])
def test_check_catches_a_wrong_output(workload):
    system = set_up(TINY_SIZES, with_triage=workload == "serve")
    bench = WORKLOADS[workload](system, input_rng(4, workload), 4)
    bench.reference()
    clean = run_phase(bench, 0.0)
    assert clean.failed == 0
    if workload == "serve":
        url = next(
            response.url
            for report in clean.first.values()
            for response in report.responses
            if response.completed and response.tier == "full"
        )
        bench.reference_verdicts[url] = ("phish", 2.0, (), ())
    else:
        bench.expected[0] = ()
    assert run_phase(bench, 0.0).failed > 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench")
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "scan",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert done.stdout == ""
