"""Smoke tests of the benchmark: every workload at tiny size, untraced and
traced, checks that catch a tampered output, and the refusal to run
without the package.

    python3 -m pytest hgibbench/check_smoke.py

The file name keeps these tests out of the repository's default pytest
collection, which picks up `test_*.py` and `*_test.py` only.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "hgibbench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=300,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_runs_checks_and_reports(workload, trace):
    proc = bench("--smoke", "--workload", workload, "--seed", "3", "--seconds", "1", "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr[-3000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] > 0
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert {m: v["unit"] for m, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in wanted}
    if trace:
        assert result["metrics"]["autodiff.ops_per_epoch"]["value"] > 0
        assert result["metrics"]["model.conv1.backward.ms"]["value"] > 0
    else:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_all_runs_every_workload():
    proc = bench("--smoke", "--workload", "all", "--seed", "4", "--seconds", "0")
    assert proc.returncode == 0, proc.stdout + proc.stderr[-3000:]
    for w in SPEC["workloads"]:
        assert f"{w['name']}: correct=True" in proc.stdout
    for m in SPEC["end_to_end"]:
        assert m["name"] in proc.stdout


def test_refuses_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", SPEC["workloads"][0]["name"], "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


@pytest.fixture(scope="module")
def checked_round(tmp_path_factory):
    """One smoke round of the attack sweep, run in this process."""
    sys.path[0:0] = [str(ROOT / "src"), str(ROOT)]
    from hgibbench import workloads as wl
    from hgibbench.inputs import write_inputs

    w = wl.WORKLOADS["attack-sweep"].smoke()
    work = tmp_path_factory.mktemp("round")
    inputs = wl.Inputs(*write_inputs(w.inputs, 5, work / "inputs"))
    timed = wl.run_round(w, inputs, work / "round")
    assert not any(t.failed for t in timed)
    return wl, w, inputs, work / "round"


def _edit(path: Path, change) -> None:
    doc = json.loads(path.read_text())
    change(doc)
    path.write_text(json.dumps(doc))


@pytest.mark.parametrize(
    "target, change",
    [
        ("train1/metrics.json", lambda d: d["metrics"].update(auc_average=d["metrics"]["auc_average"] - 1e-6)),
        ("train2/run.json", lambda d: d["loss_trace"].pop()),
        ("attack_drop0_train1/metrics.json", lambda d: d["metrics"]["confusion"][0].reverse()),
        ("sweep/table.json", lambda d: d["rows"][2]["metrics"]["auc_average"].update(std=0.5)),
        ("train1/checkpoint.json", lambda d: d.pop()),
    ],
)
def test_checks_catch_a_tampered_output(checked_round, tmp_path, target, change):
    wl, w, inputs, round_dir = checked_round
    from hgibbench.checks import CheckError

    schemas = ROOT / "src" / "hgib" / "schemas"
    wl.check_round(w, inputs, round_dir, schemas, set())
    copy = tmp_path / "round"
    shutil.copytree(round_dir, copy)
    _edit(copy / target, change)
    with pytest.raises(CheckError):
        wl.check_round(w, inputs, copy, schemas, set())
    if Path(target).name in wl.OUTPUT_FILES:
        with pytest.raises(CheckError):
            wl.same_outputs(round_dir, copy, "tampered copy")
