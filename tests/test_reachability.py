"""Every def in ``src/lossyphase`` runs when the commands run, or is listed in
ALLOWED with its reason; an ALLOWED entry that now runs or no longer exists
fails too.

The shrunk README recipes run through ``cli.run`` in a fresh interpreter, so
no ``lru_cache`` and no import-time state carries over from other tests. The
child pins ``workers.cpu_count`` to 1, so every part runs in the traced
process, and records each function's code object as it is called. The test
compiles each source file and walks its code objects: functions, methods,
properties and nested defs count; class bodies, lambdas and comprehensions do
not, since they run at import or their code objects differ between Python
versions. A def is matched by (file, first line, name), not by a qualified
name, which Python 3.10's code objects lack.
"""

import inspect
import json
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

import lossyphase
from lossyphase.cli import SEED_ENV_VAR

SRC = Path(lossyphase.__file__).resolve().parent

_TRACER = "named by perfbench/tracer.py and tests/test_benchmark_contract.py until the tracer wraps what runs now"

_PRUNED = (
    "bounds the likelihood of blocks of more than CHUNK_SERIES series, where the recipes' blocks hold 15;"
    " tests/test_estimator.py::TestPrunedScan covers it"
)

#: Defs no recipe runs, by dotted name (module, enclosing classes and defs, name), with the reason each stays.
ALLOWED = {
    "montecarlo.record_rng": _TRACER,
    "montecarlo.sample_counts": _TRACER,
    "montecarlo.EventDataset.records": _TRACER,
    "estimator.Estimates.__len__": _TRACER,
    "workers.cpu_count": "pinned to 1 by the traced run; tests/test_workers.py covers it",
    "cli.read_dataset_csv.line_of": "error path: runs only for a repeated dataset row; tests/test_cli.py covers it",
    "cli._check_row": "error path: runs only for a dataset block with a bad row; tests/test_cli.py covers it",
    "estimator._window_bounds": _PRUNED,
}

#: The child: the shrunk README recipes (bounds; fringes with and without
#: --counts; simulate and estimate --hist-bin for both probes, ideal and
#: imperfect), then (file name, first line, name) of each code object of the
#: package that was called, as JSON.
CHILD = r'''
import json, os, sys, tempfile
sys.path.insert(0, sys.argv[1])
import numpy  # before tracing: only the package's calls are kept

called = set()


def profile(frame, event, arg):
    if event == "call":
        called.add(frame.f_code)


sys.setprofile(profile)
from lossyphase import cli, workers

workers.cpu_count = lambda: 1
IDEAL = "phases = 0,0.02,-0.02,0.04,-0.04\nseries = 3\nevents = 2000\nseed = 0\n"
IMPERFECT = (
    "eta_list = 0.361\nphases = 0,0.04\nseries = 3\nevents = 2000\nseed = 0\n"
    "epsilon = 0.02\ndelta = 0.1\nlambda_hom = 0.95\nv_classical = 0.97\npoissonize_m = false\ninclude_cc = false\n"
)
with tempfile.TemporaryDirectory() as out:
    runs = [
        ["bounds", "--eta-min", "0.05", "--eta-max", "1.0", "--steps", "3", "--out", f"{out}/bounds.csv"],
        ["fringes", "--eta", "0.361", "--probe", "noon", "--phi-steps", "11", "--out", f"{out}/fringes_noon.csv"],
        ["fringes", "--eta", "0.361", "--phi-steps", "11", "--counts", "100", "--out", f"{out}/fringes_counts.csv"],
    ]
    for name, text in (("ideal", IDEAL), ("imperfect", IMPERFECT)):
        with open(f"{out}/{name}.cfg", "w") as handle:
            handle.write(text)
        for probe in ("optimal", "noon"):
            run = f"{out}/{name}/{probe}"
            runs.append(["simulate", "--config", f"{out}/{name}.cfg", "--probe", probe, "--out-dir", f"{run}/sim"])
            runs.append(["estimate", "--dataset", f"{run}/sim/dataset.csv", "--out-dir", f"{run}/est", "--hist-bin", "0.01"])
    for argv in runs:
        code = cli.run(argv)
        if code:
            sys.exit(f"{' '.join(argv)} exited {code}")
sys.setprofile(None)
package = os.path.dirname(cli.__file__)
ran = {(os.path.basename(c.co_filename), c.co_firstlineno, c.co_name) for c in called if os.path.dirname(c.co_filename) == package}
print(json.dumps(sorted(ran)))
'''


def defs(path: Path) -> dict[tuple, str]:
    """Dotted name by (file name, first line, name) of every def in ``path``."""
    found = {}

    def walk(code: types.CodeType, prefix: str) -> None:
        for const in code.co_consts:
            if isinstance(const, types.CodeType) and not const.co_name.startswith("<"):  # skips <lambda>, <genexpr>, ...
                name = prefix + const.co_name
                if const.co_flags & inspect.CO_OPTIMIZED:  # a function; a class body is not optimized
                    found[(path.name, const.co_firstlineno, const.co_name)] = name
                walk(const, name + ".")

    walk(compile(path.read_text(encoding="utf-8"), str(path), "exec"), path.stem + ".")
    return found


@pytest.fixture(scope="module")
def reach():
    """Dotted name by key of every def in the package, and the keys of the defs that ran."""
    every = {}
    for path in sorted(SRC.glob("*.py")):
        every.update(defs(path))
    env = {key: value for key, value in os.environ.items() if key != SEED_ENV_VAR}
    run = subprocess.run(
        [sys.executable, "-c", CHILD, str(SRC.parent)], capture_output=True, text=True, env=env, timeout=120
    )
    assert run.returncode == 0, run.stderr
    return every, {tuple(key) for key in json.loads(run.stdout)}


def test_every_def_runs_or_is_allowed(reach):
    every, ran = reach
    unreached = [f"{key[0]}:{key[1]} {name}" for key, name in sorted(every.items()) if key not in ran and name not in ALLOWED]
    assert not unreached, "defs no command runs (move them into tests/oracles.py or list them in ALLOWED):\n" + "\n".join(
        unreached
    )


def test_allowed_entries_are_current(reach):
    every, ran = reach
    names = set(every.values())
    gone = sorted(name for name in ALLOWED if name not in names)
    running = sorted({name for key, name in every.items() if key in ran and name in ALLOWED})
    assert not gone, f"ALLOWED names defs that no longer exist: {gone}"
    assert not running, f"ALLOWED names defs that now run: {running}"
