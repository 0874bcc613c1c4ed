#!/usr/bin/env python3
"""lossyphase benchmark: run one workload of CLI commands and print its metrics.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload campaign --seed 0 --seconds 30 --trace 0

Each CLI command runs in its own fresh child process (``python3 -m
lossyphase.cli`` with ``PYTHONPATH=src``), one at a time. The workload's
commands are repeated as timed passes until ``--seconds`` have elapsed and
the end-to-end metrics are the medians over the passes. ``--trace 1``
instead runs the untraced passes plus one pass under ``tracer.py`` and
reports the per-layer metrics. Every CSV a command writes is checked against
``reference.json`` when it holds hashes for the seed. The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it record the environment and
per-command details.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from tracer import COUNTERS, DISTINCT, function_names
from workloads import FULL, WORKLOADS, Command, Plan, Scale

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
REFERENCE = BENCH / "reference.json"

#: Fresh-process imports timed per run; the median is ``setup_s``.
SETUP_REPEATS = 7
#: Speed probe: before each child and after each group of children the
#: harness times PROBE_CHUNKS chunks of a fixed interpreter loop. Times are
#: reported at the reference speed, at which one chunk takes REFERENCE_CHUNK_S.
PROBE_CHUNKS = 20
PROBE_LOOPS = 100_000
REFERENCE_CHUNK_S = 0.0085
#: Wall-clock budget of one run; children still running then are killed.
BUDGET_S = 170.0
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "estimate_s": "s",
    "series_per_s": "1/s",
    "peak_rss_mb": "MB",
}


def per_layer_units() -> dict[str, str]:
    units = {}
    for name in function_names():
        units.update({f"{name}.calls": "count", f"{name}.total_s": "s", f"{name}.self_s": "s"})
    units.update({"cli.bytes_written": "bytes", "cli.bytes_read": "bytes"})
    units.update({"montecarlo.records": "count", "estimator.series": "count"})
    units["estimator.loglik_flops"] = "flop_computed"
    units.update({f"{name}.distinct_share": "ratio" for name in DISTINCT})
    units.update({"trace_overhead_s": "s", "error_rate": "ratio"})
    return units


_SETUP_CODE = "import lossyphase.cli as cli; cli.build_parser()"
_ENVIRONMENT_CODE = """
import json, os, platform, sys
import numpy, lossyphase.cli
print(json.dumps({
    "python": platform.python_version(),
    "numpy": numpy.__version__,
    "platform": platform.platform(),
    "lossyphase": lossyphase.cli.__file__,
    "threads": {name: os.environ.get(name) for name in sys.argv[1:]},
}))
"""


class BenchError(Exception):
    """The benchmark cannot produce a result (missing sources, failed set-up)."""


@dataclass
class Outcome:
    wall_s: float
    cpu_s: float
    rss_mb: float
    returncode: int
    stderr: str


@dataclass
class CommandRun:
    command: Command
    outcome: Outcome
    problems: list[str]
    hashes: dict[str, str]
    bytes_written: int
    bytes_read: int
    trace: dict | None = None

    @property
    def ok(self) -> bool:
        return self.outcome.returncode == 0 and not self.problems


@dataclass
class Pass:
    runs: list[CommandRun] = field(default_factory=list)
    #: Reference speed over measured speed around this pass.
    scale: float = 1.0

    @property
    def wall_s(self) -> float:
        return sum(r.outcome.wall_s for r in self.runs)

    @property
    def cpu_s(self) -> float:
        return sum(r.outcome.cpu_s for r in self.runs)

    @property
    def rss_mb(self) -> float:
        return max(r.outcome.rss_mb for r in self.runs)

    def sub_s(self, sub: str) -> float:
        return sum(r.outcome.wall_s for r in self.runs if r.command.sub == sub)

    @property
    def hashes(self) -> dict[str, str]:
        return {rel: digest for r in self.runs for rel, digest in r.hashes.items()}


def speed_probe() -> list[float]:
    """Times of PROBE_CHUNKS runs of a fixed loop that uses no lossyphase code."""
    times = []
    for _ in range(PROBE_CHUNKS):
        start = time.perf_counter()
        total = 0
        for i in range(PROBE_LOOPS):
            total += i * i
        times.append(time.perf_counter() - start)
    return times


def child_env() -> dict[str, str]:
    """The caller's environment with the checkout's sources first on the path
    and no seed override, so the workload seed alone picks the inputs."""
    env = dict(os.environ)
    env.pop("LOSSYPHASE_SEED", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


def run_child(argv: list[str], cwd: Path, env: dict, deadline: float) -> Outcome:
    """Run one child to completion and return its wall time and resource use."""
    with open(cwd / ".stderr", "w+b") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=err)
        timer = threading.Timer(max(deadline - time.monotonic(), 0.0), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        stderr = err.read().decode("utf-8", errors="replace")
    return Outcome(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0, proc.returncode, stderr)


def check_outputs(command: Command, workdir: Path, reference: dict | None, baseline: dict | None):
    """Problems with a command's CSV outputs, their hashes and total size."""
    problems, hashes, written = [], {}, 0
    for rel, rows in command.outputs.items():
        path = workdir / rel
        if not path.is_file():
            problems.append(f"{rel}: not written")
            continue
        data = path.read_bytes()
        written += len(data)
        digest = hashlib.sha256(data).hexdigest()
        hashes[rel] = digest
        found = data.count(b"\n") - 1
        if rows is not None and found != rows:
            problems.append(f"{rel}: {found} data rows, expected {rows}")
        if reference is not None and reference.get(rel) != digest:
            problems.append(f"{rel}: sha256 {digest} differs from the reference {reference.get(rel)}")
        if baseline is not None and baseline.get(rel) != digest:
            problems.append(f"{rel}: traced run wrote other bytes than the untraced run")
    return problems, hashes, written


class Runner:
    """Runs the commands of one workload and keeps the failure count."""

    def __init__(self, workdir: Path, deadline: float, reference: dict | None):
        self.workdir = workdir
        self.deadline = deadline
        self.reference = reference
        self.env = child_env()
        self.attempted = 0
        self.failures: list[str] = []
        self.chunks: list[float] = []

    def scale_since(self, mark: int) -> float:
        """Reference over measured speed, from the probe chunks taken since
        ``mark`` plus one closing probe. The box's speed drifts by tens of
        percent over minutes; a child's time scaled by the speed measured
        around it is steady across runs, while the raw time is not."""
        self.chunks += speed_probe()
        return REFERENCE_CHUNK_S / statistics.fmean(self.chunks[mark:])

    def run(self, command: Command, trace_path: Path | None = None, baseline: dict | None = None) -> CommandRun:
        if trace_path is None:
            argv = [sys.executable, "-m", "lossyphase.cli", command.sub, *command.args]
        else:
            argv = [sys.executable, str(BENCH / "tracer.py"), str(trace_path), command.sub, *command.args]
        self.chunks += speed_probe()
        outcome = run_child(argv, self.workdir, self.env, self.deadline)
        problems, hashes, written = check_outputs(command, self.workdir, self.reference, baseline)
        if outcome.returncode != 0:
            tail = outcome.stderr.strip().splitlines()[-1:] or ["no diagnostic"]
            problems.insert(0, f"exit code {outcome.returncode}: {tail[0]}")
        read_path = self.workdir / command.reads if command.reads else None
        read = read_path.stat().st_size if read_path is not None and read_path.is_file() else 0
        trace = None
        if trace_path is not None and trace_path.is_file():
            trace = json.loads(trace_path.read_text(encoding="utf-8"))
        run = CommandRun(command, outcome, problems, hashes, written, read, trace)
        self.attempted += 1
        if not run.ok:
            self.failures.append(f"{command.sub} {' '.join(command.args)}: {'; '.join(problems)}")
        return run

    @property
    def error_rate(self) -> float:
        return len(self.failures) / self.attempted

    def run_pass(self, plan: Plan, trace_dir: Path | None = None, baseline: dict | None = None) -> Pass:
        """Run one pass, scaled by the speed probed around its commands."""
        shutil.rmtree(self.workdir / "pass", ignore_errors=True)
        result = Pass()
        mark = len(self.chunks)
        for index, command in enumerate(plan.commands):
            trace_path = trace_dir / f"{index}.json" if trace_dir is not None else None
            result.runs.append(self.run(command, trace_path, baseline))
        result.scale = self.scale_since(mark)
        return result


def probe_environment(workdir: Path) -> dict:
    """Versions and thread settings the children see; also compiles bytecode."""
    try:
        proc = subprocess.run(
            [sys.executable, "-c", _ENVIRONMENT_CODE, *THREAD_VARS],
            cwd=workdir,
            env=child_env(),
            capture_output=True,
            text=True,
            timeout=60,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError("importing lossyphase.cli timed out") from exc
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no diagnostic"]
        raise BenchError(f"cannot import lossyphase.cli from {ROOT / 'src'}: {tail[0]}")
    env = json.loads(proc.stdout)
    if not Path(env["lossyphase"]).resolve().is_relative_to(ROOT / "src"):
        raise BenchError(f"lossyphase was imported from {env['lossyphase']}, not from {ROOT / 'src'}")
    env["nproc"] = len(os.sched_getaffinity(0))
    return env


def measure_setup(runner: Runner) -> tuple[list[float], float]:
    """Wall times of the set-up processes and the speed scale around them."""
    argv = [sys.executable, "-c", _SETUP_CODE]
    times = []
    mark = len(runner.chunks)
    for _ in range(SETUP_REPEATS):
        runner.chunks += speed_probe()
        outcome = run_child(argv, runner.workdir, runner.env, runner.deadline)
        if outcome.returncode != 0:
            raise BenchError(f"set-up process failed: {outcome.stderr.strip()}")
        times.append(outcome.wall_s)
    return times, runner.scale_since(mark)


def start_workdir(plan: Plan, workdir: Path) -> None:
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    for rel, text in plan.files.items():
        (workdir / rel).write_text(text, encoding="utf-8")


def run_prep(plan: Plan, runner: Runner) -> list[CommandRun]:
    """Run the untimed commands that make the workload's inputs."""
    prep = [runner.run(command) for command in plan.prep]
    if runner.failures:
        raise BenchError("preparing the workload failed: " + " | ".join(runner.failures))
    if plan.after_prep is not None:
        plan.after_prep(runner.workdir)
    return prep


def output_hashes(name: str, seed: int, workdir: Path, scale: Scale = FULL) -> dict[str, str]:
    """sha256 of every CSV one unchecked pass of the workload writes."""
    plan = WORKLOADS[name](seed, scale)
    runner = Runner(workdir, time.monotonic() + BUDGET_S, None)
    start_workdir(plan, workdir)
    runs = run_prep(plan, runner) + runner.run_pass(plan).runs
    if runner.failures:
        raise BenchError(" | ".join(runner.failures))
    return {rel: digest for r in runs for rel, digest in r.hashes.items()}


def scaled_median(passes: list[Pass], sub: str) -> float:
    """Median over the passes of one subcommand's wall time, at the reference speed."""
    return statistics.median(p.sub_s(sub) * p.scale for p in passes)


def end_to_end(plan: Plan, passes: list[Pass], setup: tuple[list[float], float]) -> dict:
    """Medians over the passes, times at the reference speed."""

    def median(values) -> float:
        return statistics.median(list(values))

    setup_times, setup_scale = setup
    return {
        "setup_s": median(setup_times) * setup_scale,
        "wall_s": median(p.wall_s * p.scale for p in passes),
        "cpu_s": median(p.cpu_s * p.scale for p in passes),
        "estimate_s": scaled_median(passes, "estimate"),
        "series_per_s": median(plan.series / (p.wall_s * p.scale) for p in passes),
        "peak_rss_mb": median(p.rss_mb for p in passes),
    }


def per_layer(traced: Pass, untraced_wall: float, error_rate: float) -> dict:
    metrics = {}
    traces = [r.trace or {} for r in traced.runs]
    for name in function_names():
        stats = [t.get("functions", {}).get(name, {}) for t in traces]
        for key in ("calls", "total_s", "self_s"):
            metrics[f"{name}.{key}"] = sum(s.get(key, 0) for s in stats)
    metrics["cli.bytes_written"] = sum(r.bytes_written for r in traced.runs)
    metrics["cli.bytes_read"] = sum(r.bytes_read for r in traced.runs)
    for name in COUNTERS:
        metrics[name] = sum(t.get("counters", {}).get(name, 0) for t in traces)
    for name in DISTINCT:
        pairs = [t.get("distinct", {}).get(name, [0, 0]) for t in traces]
        calls = sum(c for _, c in pairs)
        # Distinct arguments are counted per process: a cache could only
        # save repeats within one command.
        metrics[f"{name}.distinct_share"] = sum(d for d, _ in pairs) / calls if calls else 1.0
    metrics["trace_overhead_s"] = traced.wall_s * traced.scale - untraced_wall
    metrics["error_rate"] = error_rate
    return metrics


def command_lines(label: str, runs: list[CommandRun]) -> list[str]:
    lines = []
    for r in runs:
        line = {
            "run": label,
            "command": [r.command.sub, *r.command.args],
            "wall_s": r.outcome.wall_s,
            "cpu_s": r.outcome.cpu_s,
            "rss_mb": r.outcome.rss_mb,
            "ok": r.ok,
        }
        if r.trace is not None:
            line["distinct"] = r.trace.get("distinct")
        lines.append("command: " + json.dumps(line))
    return lines


def load_reference(workload: str, seed: int) -> dict | None:
    if not REFERENCE.is_file():
        return None
    return json.loads(REFERENCE.read_text(encoding="utf-8")).get(workload, {}).get(str(seed))


def run_workload(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    workdir: Path,
    scale: Scale = FULL,
    reference: dict | None = None,
) -> tuple[dict, list[str]]:
    """Run one workload; returns the result object and the lines to print before it."""
    plan = WORKLOADS[name](seed, scale)
    runner = Runner(workdir, time.monotonic() + BUDGET_S, reference)
    start_workdir(plan, workdir)
    info = ["environment: " + json.dumps(probe_environment(workdir), sort_keys=True)]
    if reference is None:
        info.append(f"note: no reference hashes for {name} at seed {seed}; only exit codes and row counts are checked")
    setup = ([], 1.0) if trace else measure_setup(runner)
    prep = run_prep(plan, runner)

    passes: list[Pass] = []
    start = time.monotonic()
    while True:
        passes.append(runner.run_pass(plan))
        now = time.monotonic()
        per_pass = (now - start) / len(passes)
        # Start no pass expected to end after --seconds, nor one (plus the
        # traced pass) that could run past the budget.
        if now - start + per_pass > seconds or now + per_pass * (2 if trace else 1) > runner.deadline:
            break
    untraced_wall = statistics.median(p.wall_s * p.scale for p in passes)
    info += command_lines("prep", prep)
    for index, done in enumerate(passes):
        info += command_lines(f"pass{index}", done.runs)

    if trace:
        trace_dir = workdir / "trace"
        trace_dir.mkdir()
        traced = runner.run_pass(plan, trace_dir, baseline=passes[0].hashes)
        info += command_lines("traced", traced.runs)
        metrics = per_layer(traced, untraced_wall, runner.error_rate)
        units = per_layer_units()
    else:
        metrics = end_to_end(plan, passes, setup)
        units = END_TO_END
        info.append(
            "summary: "
            + json.dumps(
                {
                    "workload": name,
                    "seed": seed,
                    "passes": len(passes),
                    "series_per_pass": plan.series,
                    "simulate_s": scaled_median(passes, "simulate"),
                    "bounds_s": scaled_median(passes, "bounds"),
                    "error_rate": runner.error_rate,
                    "setup_samples_s": setup[0],
                    "setup_scale": setup[1],
                    "pass_wall_s": [p.wall_s for p in passes],
                    "pass_scale": [p.scale for p in passes],
                }
            )
        )
    info += [f"failure: {failure}" for failure in runner.failures]
    result = {
        "correct": not runner.failures,
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "metrics": {key: {"value": metrics[key], "unit": unit} for key, unit in units.items()},
    }
    return result, info


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "lossyphase" / "cli.py").is_file():
        print(f"perfbench: no lossyphase sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    workdir = BENCH / ".work" / args.workload
    try:
        result, info = run_workload(
            args.workload, args.seed, args.seconds, bool(args.trace), workdir, reference=load_reference(args.workload, args.seed)
        )
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    for line in info:
        print(line)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
