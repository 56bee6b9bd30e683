"""Tests of the benchmark itself, on the sub-second tiny-a2 workload.

    python3 -m pytest bench -q
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess

import pytest

import run

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def bench_command(cwd, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        SPEC["command"] + list(args),
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_seed_zero_gives_the_plain_commands():
    plain = {
        "kp-c2": "verify --type C2 --suite kp --bound 2,1",
        "graph-b3": "verify --type B3 --suite graph --bound 1,1,1",
        "export-g2": "graph --type G2 --emit json --bound 3,2",
    }
    for name, command in plain.items():
        workload = run.WORKLOADS[name]
        assert run.cli_args(workload, run.permutation(workload.rank, 0)) == command.split()
    c2 = run.WORKLOADS["kp-c2"]
    assert run.cli_args(c2, run.permutation(2, 1))[-4:] == ["--bound", "1,2", "--colours", "0,1;1,0"]


def test_every_permutation_has_a_golden():
    goldens = run.load_goldens()
    for name, workload in run.WORKLOADS.items():
        keys = {run.perm_key(run.permutation(workload.rank, s)) for s in range(24)}
        assert keys == set(goldens[name])


def test_untraced_output_schema():
    proc = bench_command(run.ROOT, "--workload", "tiny-a2", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())
    record = json.loads(proc.stdout.splitlines()[-2])["record"]
    assert record["w0_word"] == "1,2,1"
    assert set(record["environment"]) == {"python", "nproc", "cpu_model"}
    # One calibration launch before each workload launch and one after the last.
    assert len(record["calibration_s"]) == len(record["wall_raw_s"]) + 1 == result["attempted"] + 1
    walls = record["wall_raw_s"]
    assert result["metrics"]["wall_s"]["value"] == pytest.approx(
        sum(walls) / len(walls) * record["host_scale"]
    )


def test_corrupted_golden_counts_as_failure():
    goldens = copy.deepcopy(run.load_goldens())
    goldens["tiny-a2"]["0,1"]["cases_total"] += 1
    result, record = run.measure("tiny-a2", 0, 1.0, False, goldens)
    assert result["attempted"] >= 1
    assert result["failed"] == result["attempted"]
    assert result["correct"] is False
    assert "differs from golden" in record["launches"][0]["error"]


def test_traced_counts_repeat_exactly():
    goldens = run.load_goldens()
    first, _ = run.measure("tiny-a2", 0, 1.0, True, goldens)
    second, _ = run.measure("tiny-a2", 0, 1.0, True, goldens)
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in first["metrics"].items()} == expected
    assert first["correct"] and second["correct"]
    counts = {k for k, v in first["metrics"].items() if v["unit"] == "count"}
    assert counts
    for key in counts:
        assert first["metrics"][key] == second["metrics"][key], key
    assert first["metrics"]["report.cases_total"]["value"] == 2493


def test_fails_without_the_program():
    bare = run.WORK / "bench-only"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        bare.mkdir(parents=True)
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        for path in SPEC["paths"]:
            shutil.copytree(
                run.ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__")
            )
        proc = bench_command(bare, "--workload", "tiny-a2", "--seed", "0", "--seconds", "1", "--trace", "0")
        assert proc.returncode != 0
        assert proc.stdout == ""
    finally:
        shutil.rmtree(bare, ignore_errors=True)
