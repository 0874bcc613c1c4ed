"""Forked workers: ``fork_map`` gives the serial loop's results and failures
whatever the CPU count, and so do the campaign and the estimator that use it."""

import json
import os
import threading

import numpy as np
import pytest

from lossyphase import estimator, workers
from lossyphase.cli import main
from lossyphase.estimator import estimate_dataset
from lossyphase.imperfections import ImperfectionParams
from lossyphase.montecarlo import ExperimentConfig, ProbeKind, run_campaign
from lossyphase.workers import fork_map

#: CPU counts: serial, two and three workers, and more workers than any part count here.
CPUS = (1, 2, 3, 64)


@pytest.fixture(autouse=True)
def all_reaped():
    """No test leaves a child process behind."""
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def set_cpus(monkeypatch, n: int) -> None:
    monkeypatch.setattr(workers, "cpu_count", lambda: n)


def pid_of_part(part):
    return part, os.getpid()


class TestForkMap:
    @pytest.mark.parametrize("cpus", CPUS)
    @pytest.mark.parametrize("n_parts", [0, 1, 2, 5, 7])
    def test_serial_results_and_contiguous_runs(self, monkeypatch, cpus, n_parts):
        set_cpus(monkeypatch, cpus)
        results = fork_map(pid_of_part, range(n_parts))
        assert [part for part, _ in results] == list(range(n_parts))
        pids = [pid for _, pid in results]
        workers_used = min(cpus, n_parts)
        assert len(set(pids)) == workers_used
        assert pids[:1] == [os.getpid()][: len(pids)]  # the caller runs the first run
        assert pids == sorted(pids, key=pids.index)  # each process runs one contiguous run

    def test_results_larger_than_a_pipe_buffer(self, monkeypatch):
        set_cpus(monkeypatch, 3)
        results = fork_map(lambda n: np.arange(n), [10, 200_000, 300_000])
        assert [len(r) for r in results] == [10, 200_000, 300_000]
        assert all(np.array_equal(r, np.arange(len(r))) for r in results)

    @pytest.mark.parametrize("cpus", CPUS)
    def test_lowest_failing_part_raises(self, monkeypatch, cpus):
        set_cpus(monkeypatch, cpus)

        def fn(part):
            if part >= 3:
                raise ValueError(f"part {part}")
            return part

        with pytest.raises(ValueError, match="^part 3$"):
            fork_map(fn, range(6))

    def test_callers_failure_wins_and_children_are_reaped(self, monkeypatch):
        set_cpus(monkeypatch, 3)

        def fn(part):
            if part == 0:
                raise KeyError("first")
            raise ValueError("later")

        with pytest.raises(KeyError, match="first"):
            fork_map(fn, range(3))

    def test_child_that_dies_raises_runtime_error(self, monkeypatch):
        set_cpus(monkeypatch, 2)
        with pytest.raises(RuntimeError, match="without a result .exit status 9"):
            fork_map(lambda part: os._exit(9) if part else part, range(2))

    def test_serial_beside_other_threads(self, monkeypatch):
        set_cpus(monkeypatch, 4)
        stop = threading.Event()
        thread = threading.Thread(target=stop.wait)
        thread.start()
        try:
            results = fork_map(pid_of_part, range(4))
        finally:
            stop.set()
            thread.join()
        assert {pid for _, pid in results} == {os.getpid()}


def campaign_config(**overrides):
    values = dict(
        eta_list=(0.361, 0.547, 0.2), probe_kind=ProbeKind.NOON, phase_list=(-0.04, 0.0, 0.04, 0.02, -0.02),
        series_count=4, events_per_series=300, master_seed=5,
    )
    return ExperimentConfig(**{**values, **overrides})


CONFIGS = {
    "15-cells": campaign_config(),
    "one-cell": campaign_config(eta_list=(0.361,), phase_list=(0.0,), series_count=7),
    "optimal-imperfect": campaign_config(
        probe_kind=ProbeKind.OPTIMAL, eta_list=(0.361, 0.547), phase_list=(0.0, 0.04), poissonize_m=False,
        imperfections=ImperfectionParams(epsilon=0.02, delta=0.1, lambda_hom=0.95, v_classical=0.97),
    ),
}

COLUMNS = ("eta", "probe", "phi_true", "setting", "series_id", "counts", "seed_used")


@pytest.mark.parametrize("name", CONFIGS)
def test_campaign_and_estimates_do_not_depend_on_the_cpu_count(monkeypatch, name):
    """Bit for bit; 15 cells and 3 blocks split unevenly over 2 and 64 workers."""
    runs = []
    for cpus in CPUS:
        set_cpus(monkeypatch, cpus)
        dataset = run_campaign(CONFIGS[name])
        estimates = estimate_dataset(dataset)
        runs.append((dataset, estimates))
    (dataset, estimates), rest = runs[0], runs[1:]
    for other, other_estimates in rest:
        for column in COLUMNS:
            a, b = getattr(dataset, column), getattr(other, column)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), column
        for column in ("row", "group", "phi_hat", "loglik", "n_coinc", "crb"):
            assert getattr(estimates, column).tobytes() == getattr(other_estimates, column).tobytes(), column


CONFIG_TEXT = "eta_list = 0.361, 0.547, 0.2\nprobe = noon\nphases = 0.0, 0.04\nseries = 3\nevents = 300\nseed = 4\n"


@pytest.fixture
def sim_dir(tmp_path):
    (tmp_path / "c.cfg").write_text(CONFIG_TEXT)
    assert main(["simulate", "--config", str(tmp_path / "c.cfg"), "--out-dir", str(tmp_path / "sim")]) == 0
    return tmp_path / "sim"


def run_estimate(sim_dir, out_dir, capsys):
    rc = main(["estimate", "--dataset", str(sim_dir / "dataset.csv"), "--out-dir", str(out_dir), "--hist-bin", "0.01"])
    return rc, capsys.readouterr().err


def test_estimate_outputs_and_manifest_design_do_not_depend_on_the_cpu_count(monkeypatch, sim_dir, tmp_path, capsys):
    """The manifest lists the design entries the parent replays before any fork."""
    outputs = []
    for cpus in CPUS:
        set_cpus(monkeypatch, cpus)
        out_dir = tmp_path / f"est{cpus}"
        assert run_estimate(sim_dir, out_dir, capsys) == (0, "")
        manifest = json.loads((out_dir / "estimate.manifest.json").read_text())
        files = [(out_dir / name).read_bytes() for name in ("estimates.csv", "report.csv", "histograms.csv")]
        outputs.append((manifest["design"], files))
    assert len(outputs[0][0]) == 3
    assert all(output == outputs[0] for output in outputs[1:])


def test_simulate_manifest_design_does_not_depend_on_the_cpu_count(monkeypatch, tmp_path):
    (tmp_path / "c.cfg").write_text(CONFIG_TEXT.replace("noon", "optimal"))
    outputs = []
    for cpus in (1, 2):
        set_cpus(monkeypatch, cpus)
        out_dir = tmp_path / f"sim{cpus}"
        assert main(["simulate", "--config", str(tmp_path / "c.cfg"), "--out-dir", str(out_dir)]) == 0
        manifest = json.loads((out_dir / "manifest.json").read_text())
        outputs.append((manifest["design"], (out_dir / "dataset.csv").read_bytes()))
    assert outputs[0] == outputs[1]


def test_worker_failure_exits_like_the_serial_run(monkeypatch, sim_dir, tmp_path, capsys):
    """A ValueError in the last block, which a child estimates, keeps its
    message and exit code."""
    built, serial_models, serial_grid = [], estimator.setting_models, estimator.likelihood_grid
    monkeypatch.setattr(estimator, "setting_models", lambda *args: built.append(serial_models(*args)) or built[-1])

    def failing(models, include_cc):
        if models is built[-1]:  # every block's models are built before the first block is estimated
            raise ValueError("the last block fails")
        return serial_grid(models, include_cc=include_cc)

    monkeypatch.setattr(estimator, "likelihood_grid", failing)
    results = []
    for cpus in CPUS:
        set_cpus(monkeypatch, cpus)
        results.append(run_estimate(sim_dir, tmp_path / f"o{cpus}", capsys))
    assert results[0] == (2, "error: the last block fails\n")
    assert all(result == results[0] for result in results[1:])


def test_worker_that_dies_exits_3(monkeypatch, sim_dir, tmp_path, capsys):
    set_cpus(monkeypatch, 2)
    serial_estimate = estimator._estimate_series
    parent = os.getpid()
    monkeypatch.setattr(
        estimator, "_estimate_series", lambda grid, counts: os._exit(9) if os.getpid() != parent else serial_estimate(grid, counts)
    )
    rc, err = run_estimate(sim_dir, tmp_path / "o", capsys)
    assert rc == 3
    assert err == "internal error: a worker process ended without a result (exit status 9)\n"
