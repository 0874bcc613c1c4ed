"""Tests of the benchmark itself, on shrunk copies of the workloads.

Run from the root of a source checkout:

    python3 -m pytest perfbench/bench_tests.py

The file name keeps these tests out of the package's own test collection:
they start dozens of CLI processes.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
from workloads import SMALL, WORKLOADS, Command  # noqa: E402

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def expected_units(section: str) -> dict[str, str]:
    return {metric["name"]: metric["unit"] for metric in BENCHMARK[section]}


def test_benchmark_json_matches_the_harness():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)
    assert expected_units("end_to_end") == run.END_TO_END
    assert expected_units("per_layer") == run.per_layer_units()


@pytest.mark.parametrize("section", ["end_to_end", "per_layer"])
def test_metric_names_and_units_are_well_formed(section):
    for metric in BENCHMARK[section]:
        assert NAME.fullmatch(metric["name"]), metric["name"]
        assert UNIT.fullmatch(metric["unit"]), metric["unit"]


@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("name", list(WORKLOADS))
def test_shrunk_workload_prints_every_metric_with_its_unit(name, trace, tmp_path):
    result, info = run.run_workload(name, 0, 1, trace, tmp_path / name, SMALL)
    assert (result["correct"], result["failed"]) == (True, 0), info
    assert result["attempted"] >= 1
    section = "per_layer" if trace else "end_to_end"
    assert {key: m["unit"] for key, m in result["metrics"].items()} == expected_units(section)
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    assert any(line.startswith("environment: ") for line in info)
    json.loads(json.dumps(result))


def test_corrupted_output_raises_error_rate(tmp_path):
    reference = run.output_hashes("reestimate", 0, tmp_path / "reference", SMALL)
    clean, _ = run.run_workload("reestimate", 0, 1, True, tmp_path / "clean", SMALL, reference)
    assert clean["metrics"]["error_rate"]["value"] == 0.0

    corrupted = dict(reference)
    victim = "pass/bin005/estimates.csv"
    corrupted[victim] = "0" * 64
    result, info = run.run_workload("reestimate", 0, 1, True, tmp_path / "bad", SMALL, corrupted)
    assert not result["correct"]
    assert result["failed"] >= 1
    assert result["metrics"]["error_rate"]["value"] == result["failed"] / result["attempted"] > 0
    assert any(line.startswith("failure: ") and victim in line for line in info)


def test_check_outputs_names_a_changed_file(tmp_path):
    command = Command("estimate", (), {"out/report.csv": 1})
    (tmp_path / "out").mkdir()
    report = tmp_path / "out/report.csv"
    report.write_text("eta\n0.2\n", encoding="utf-8")
    problems, hashes, _ = run.check_outputs(command, tmp_path, None, None)
    assert problems == []
    report.write_text("eta\n0.3\n", encoding="utf-8")
    problems, _, _ = run.check_outputs(command, tmp_path, hashes, None)
    assert len(problems) == 1 and "out/report.csv" in problems[0]


def test_nonzero_exit_counts_as_failure(tmp_path):
    runner = run.Runner(tmp_path, time.monotonic() + 60, None)
    command = Command("estimate", ("--dataset", "missing.csv", "--out-dir", "out"), {"out/report.csv": None})
    assert not runner.run(command).ok
    assert (runner.attempted, len(runner.failures)) == (1, 1)
    assert "exit code 1" in runner.failures[0]


def test_fails_without_a_result_when_sources_are_missing(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "campaign", "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
