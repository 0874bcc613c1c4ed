"""Forked workers: ``fork_map`` gives the serial loop's results and failures
whatever the CPU count, and so do the campaign and the estimator that use it.
The bounds and the designs run in the caller and fork nothing."""

import ast
import errno
import json
import os
import pickle
import signal
import threading
import time

import numpy as np
import pytest

from lossyphase import estimator, montecarlo, workers
from lossyphase.bounds import precision_curve
from lossyphase.cli import main
from lossyphase.detection import Setting
from lossyphase.estimator import estimate_dataset
from lossyphase.imperfections import ImperfectionParams
from lossyphase.montecarlo import ExperimentConfig, ProbeKind, probe_designs, run_campaign
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
    @pytest.mark.parametrize("n_parts", range(8))
    def test_part_order_and_even_shares(self, monkeypatch, cpus, n_parts):
        set_cpus(monkeypatch, cpus)
        results = fork_map(pid_of_part, range(n_parts))
        assert [part for part, _ in results] == list(range(n_parts))
        shares = {}
        for part, pid in results:
            shares.setdefault(pid, []).append(part)
        assert len(shares) == min(cpus, n_parts)
        if n_parts:
            assert shares[os.getpid()][0] == 0  # the caller plays the first hand
            assert max(map(len, shares.values())) - min(map(len, shares.values())) <= 1
        hands = len(shares)
        assert all(parts == list(range(parts[0], n_parts, hands)) for parts in shares.values())  # round-robin

    def test_results_larger_than_a_pipe_buffer(self, monkeypatch):
        set_cpus(monkeypatch, 3)
        results = fork_map(lambda n: np.arange(n), [10, 200_000, 300_000])
        assert [len(r) for r in results] == [10, 200_000, 300_000]
        assert all(np.array_equal(r, np.arange(len(r))) for r in results)

    @pytest.mark.parametrize("cpus", CPUS)
    @pytest.mark.parametrize("failing, raised", [({3, 4, 5, 6}, 3), ({1, 4}, 1), ({6}, 6), ({0, 1}, 0)])
    def test_lowest_failing_part_raises(self, monkeypatch, cpus, failing, raised):
        """{1, 4} on two workers: the caller's hand fails at 4, after the other hand failed at 1."""
        set_cpus(monkeypatch, cpus)

        def fn(part):
            if part in failing:
                raise ValueError(f"part {part}")
            return part

        with pytest.raises(ValueError, match=f"^part {raised}$"):
            fork_map(fn, range(7))

    @pytest.mark.parametrize("cpus", [2, 3])
    def test_childs_unpicklable_result_raises_its_pickling_error(self, monkeypatch, cpus):
        """Part 1 lies in a child's hand at two and three CPUs. Python 3.13 says "get" for "pickle"."""
        set_cpus(monkeypatch, cpus)
        with pytest.raises((AttributeError, pickle.PicklingError), match="Can't (pickle|get) local object"):
            fork_map(lambda part: (lambda: part) if part == 1 else part, range(3))

    @pytest.mark.parametrize("cpus", [2, 3])
    def test_childs_system_exit_reaches_the_caller(self, monkeypatch, cpus):
        set_cpus(monkeypatch, cpus)

        def fn(part):
            if part == 1:
                raise SystemExit(4)
            return part

        with pytest.raises(SystemExit) as raised:
            fork_map(fn, range(3))
        assert raised.value.code == 4

    def test_callers_interrupt_kills_and_reaps_the_children(self, monkeypatch):
        """The children would sleep for 30 s; all_reaped finds none of them left."""
        set_cpus(monkeypatch, 3)

        def fn(part):
            if part == 0:
                raise KeyboardInterrupt
            time.sleep(30)

        start = time.monotonic()
        with pytest.raises(KeyboardInterrupt):
            fork_map(fn, range(3))
        assert time.monotonic() - start < 5

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

    @pytest.mark.parametrize("cpus", [2, 3, 64])
    def test_child_killed_by_a_signal_raises_runtime_error(self, monkeypatch, cpus):
        """As when the out-of-memory killer ends a worker: the status is minus the signal."""
        set_cpus(monkeypatch, cpus)
        with pytest.raises(RuntimeError, match="without a result .exit status -9"):
            fork_map(lambda part: os.kill(os.getpid(), signal.SIGKILL) if part == 1 else part, range(3))

    @pytest.mark.parametrize("cpus", CPUS)
    def test_failing_parts_exception_keeps_its_type_and_attributes(self, monkeypatch, cpus):
        """Part 1 lies in a child's hand from two CPUs on; the pickled exception arrives whole."""
        set_cpus(monkeypatch, cpus)

        def fn(part):
            if part == 1:
                raise OSError(errno.ENOENT, "No such file", f"block{part}.csv")
            return part

        with pytest.raises(FileNotFoundError) as raised:
            fork_map(fn, range(4))
        assert (raised.value.errno, raised.value.strerror, raised.value.filename) == (errno.ENOENT, "No such file", "block1.csv")

    @pytest.mark.parametrize("cpus", CPUS)
    def test_returned_exceptions_are_results(self, monkeypatch, cpus):
        """Only a raised exception fails a part; a returned one is a result like any other."""
        set_cpus(monkeypatch, cpus)
        results = fork_map(lambda part: ValueError(f"part {part}") if part % 2 else part, range(5))
        assert [str(r) if isinstance(r, ValueError) else r for r in results] == [0, "part 1", 2, "part 3", 4]

    @pytest.mark.parametrize("cpus", CPUS)
    def test_parts_may_be_a_one_shot_iterator(self, monkeypatch, cpus):
        set_cpus(monkeypatch, cpus)
        assert fork_map(lambda part: part * part, iter(range(7))) == [part * part for part in range(7)]

    @pytest.mark.parametrize("cpus", CPUS)
    def test_a_part_may_fork_map_again(self, monkeypatch, cpus):
        """Each hand, the caller's and the children's, deals its own parts and reaps its own workers."""
        set_cpus(monkeypatch, cpus)
        results = fork_map(lambda outer: fork_map(lambda inner: (outer, inner), range(3)), range(3))
        assert results == [[(outer, inner) for inner in range(3)] for outer in range(3)]


#: Twelve transmissions from 0.05 to 1: those below about 0.5 have a |11> component and cost more.
CURVE_ETAS = tuple(np.linspace(0.05, 1.0, 12))

#: An imperfect optimal campaign over six transmissions from 0.1 to 0.95.
DESIGN_CONFIG = (
    "eta_list = 0.1, 0.27, 0.44, 0.61, 0.78, 0.95\nprobe = optimal\nphases = 0.0\nseries = 2\nevents = 200\nseed = 3\n"
    "epsilon = 0.02\ndelta = 0.1\nlambda_hom = 0.95\nv_classical = 0.97\n"
)
DESIGN_ETAS = (0.1, 0.27, 0.44, 0.61, 0.78, 0.95)
DESIGN_PARAMS = ImperfectionParams(epsilon=0.02, delta=0.1, lambda_hom=0.95, v_classical=0.97)


def test_bounds_and_designs_fork_nothing(monkeypatch):
    """With 64 CPUs and no fork that succeeds, both per-eta steps still return."""

    def refuse():
        raise OSError("no fork")

    set_cpus(monkeypatch, 64)
    monkeypatch.setattr(os, "fork", refuse)
    assert [point.eta for point in precision_curve(CURVE_ETAS)] == list(CURVE_ETAS)
    assert len(probe_designs(ProbeKind.OPTIMAL, DESIGN_ETAS, DESIGN_PARAMS)) == len(DESIGN_ETAS)


@pytest.mark.parametrize("cpus", CPUS)
def test_simulate_optimizes_each_eta_once(monkeypatch, tmp_path, cpus):
    """The manifest takes the designs the campaign used, from one
    optimize_weights call over every eta and one optimize_theta_d call, at
    any CPU count. Each call, in any process, appends a line to one log
    file."""
    log = tmp_path / "calls.log"

    def logged(name, fn):
        def call(*args):
            with open(log, "a") as handle:
                handle.write(f"{name} {args[-1]!r}\n")
            return fn(*args)

        return call

    monkeypatch.setattr(montecarlo, "optimize_weights", logged("weights", montecarlo.optimize_weights))
    monkeypatch.setattr(montecarlo, "optimize_theta_d", logged("theta_d", montecarlo.optimize_theta_d))
    set_cpus(monkeypatch, cpus)
    (tmp_path / "c.cfg").write_text(DESIGN_CONFIG)
    assert main(["simulate", "--config", str(tmp_path / "c.cfg"), "--out-dir", str(tmp_path / "sim")]) == 0
    calls = [line.split(" ", 1) for line in log.read_text().splitlines()]
    etas = list(DESIGN_ETAS)
    assert [(name, ast.literal_eval(logged_etas)) for name, logged_etas in calls] == [("weights", etas), ("theta_d", etas)]


@pytest.mark.parametrize("cpus", CPUS)
def test_lowest_unpreparable_eta_is_named(monkeypatch, tmp_path, capsys, cpus):
    """Below eta ~ 3e-22 the optimal weights have x1 > 0 and x0 = 0; the
    probes are prepared in eta order, so 1e-22 fails before 1e-23."""
    set_cpus(monkeypatch, cpus)
    (tmp_path / "c.cfg").write_text("eta_list = 0.4, 1e-22, 1e-23\nphases = 0\nseries = 2\nevents = 100\n")
    assert main(["simulate", "--config", str(tmp_path / "c.cfg"), "--out-dir", str(tmp_path / "sim")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: optimal probe at eta=1e-22: weights (0.0, 1.4901161193847657e-11, ")
    assert err.endswith("cannot be prepared: targets with x1 > 0 need weight on both |20> and |02>\n")
    assert len(err.splitlines()) == 1
    assert not (tmp_path / "sim").exists()


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
    """Each run optimizes every design again."""
    (tmp_path / "c.cfg").write_text(DESIGN_CONFIG)
    runs = []
    for cpus in CPUS:
        set_cpus(monkeypatch, cpus)
        designs = probe_designs(ProbeKind.OPTIMAL, DESIGN_ETAS, DESIGN_PARAMS)
        out_dir = tmp_path / f"sim{cpus}"
        assert main(["simulate", "--config", str(tmp_path / "c.cfg"), "--out-dir", str(out_dir)]) == 0
        manifest = json.loads((out_dir / "manifest.json").read_text())
        runs.append((repr(designs), manifest["design"], (out_dir / "dataset.csv").read_bytes()))
    assert [entry["eta"] for entry in runs[0][1]] == list(DESIGN_ETAS)
    assert sum(entry["x1"] > 0 for entry in runs[0][1]) == 3  # cheap and costly designs mixed
    assert all(run == runs[0] for run in runs[1:])


def test_worker_failure_exits_like_the_serial_run(monkeypatch, sim_dir, tmp_path, capsys):
    """A ValueError in the last block, which a child estimates, keeps its
    message and exit code."""
    serial_grid = estimator.likelihood_grid

    def failing(models, include_cc):
        if models[Setting.QUARTER].eta == 0.2:  # the last eta of CONFIG_TEXT
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
