"""Run one lossyphase CLI command with its public functions wrapped in timers.

Usage: python3 perfbench/tracer.py TRACE_JSON <subcommand> [args...]

Each function in ``TARGETS`` is replaced, in every lossyphase module that
looks it up by name, by a wrapper that keeps aggregate counters: calls, total
time (outermost call of that function only, so nested golden searches are not
counted twice) and self time (minus time spent in other wrapped functions).
Per-record functions are called tens of thousands of times, so no per-call
spans are kept. The counters are written to TRACE_JSON when the command ends;
the CLI's exit code is passed through unchanged.

This module must not import lossyphase at import time: the benchmark imports
it only for the list of layer names.
"""

from __future__ import annotations

import json
import sys
from collections import Counter
from functools import wraps
from time import perf_counter

#: Wrapped functions, by module. ``Class.method`` names are patched on the class.
TARGETS = {
    "cli": ("cmd_bounds", "cmd_simulate", "cmd_estimate", "write_dataset_csv", "read_dataset_csv"),
    "montecarlo": ("run_campaign", "setting_models", "build_probe", "record_rng", "sample_counts"),
    "imperfections": ("build_model", "apply_coupler_thinning"),
    "bounds": ("optimize_weights", "qfi_lossy"),
    "prep": ("solve_prep",),
    "detection": ("optimize_theta_d", "OutcomeModel.probabilities"),
    "golden": ("golden_section_max",),
    "estimator": ("estimate_dataset", "likelihood_grid", "analyze", "histogram"),
}

#: Functions whose distinct arguments are recorded, to expose repeated work.
DISTINCT = ("bounds.optimize_weights", "montecarlo.setting_models")

#: Work counters the traced command reports besides the function timers.
COUNTERS = ("montecarlo.records", "estimator.series", "estimator.loglik_flops")


def _plain(value):
    """numpy scalars as Python numbers, so equal arguments compare equal."""
    return value.item() if hasattr(value, "item") else value


def function_names() -> list[str]:
    return [f"{module}.{name}" for module, names in TARGETS.items() for name in names]


class Tracer:
    def __init__(self):
        self.stats: dict[str, list] = {}  # name -> [calls, total_s, self_s]
        self.depth: Counter = Counter()
        self.stack: list[list[float]] = []  # child time of each active wrapped call
        self.arguments: dict[str, set] = {name: set() for name in DISTINCT}
        self.counters = {name: 0 for name in COUNTERS}
        self.grid_cells = 0  # kept labels x grid points of the latest likelihood grid

    def wrap(self, name: str, fn):
        stats = self.stats.setdefault(name, [0, 0.0, 0.0])
        seen = self.arguments.get(name)
        stack, depth = self.stack, self.depth
        after = getattr(self, "_after_" + name.split(".")[-1], None)

        @wraps(fn)
        def wrapper(*args, **kwargs):
            if seen is not None:
                seen.add(repr((tuple(_plain(a) for a in args), sorted(kwargs.items()))))
            frame = [0.0]
            stack.append(frame)
            depth[name] += 1
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                depth[name] -= 1
                stats[0] += 1
                if depth[name] == 0:
                    stats[1] += elapsed
                stats[2] += elapsed - frame[0]
                if stack:
                    stack[-1][0] += elapsed
            if after is not None:
                after(result)
            return result

        return wrapper

    def _after_run_campaign(self, dataset) -> None:
        self.counters["montecarlo.records"] += len(dataset.records)

    def _after_likelihood_grid(self, grid) -> None:
        self.grid_cells = sum(len(kept) for kept in grid.labels.values()) * len(grid.phis)

    def _after_estimate_dataset(self, estimates) -> None:
        # Every grid of one estimate_dataset call has the same labels and points.
        self.counters["estimator.series"] += len(estimates)
        self.counters["estimator.loglik_flops"] += 2 * len(estimates) * self.grid_cells

    def install(self) -> None:
        import importlib

        targets = {name: importlib.import_module(f"lossyphase.{name}") for name in TARGETS}
        modules = [m for n, m in sorted(sys.modules.items()) if n == "lossyphase" or n.startswith("lossyphase.")]
        for module_name, names in TARGETS.items():
            module = targets[module_name]
            for name in names:
                full = f"{module_name}.{name}"
                if "." in name:
                    cls_name, attr = name.split(".")
                    cls = getattr(module, cls_name)
                    setattr(cls, attr, self.wrap(full, getattr(cls, attr)))
                    continue
                original = getattr(module, name)
                wrapper = self.wrap(full, original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)

    def report(self) -> dict:
        return {
            "functions": {
                name: {"calls": calls, "total_s": total, "self_s": own}
                for name, (calls, total, own) in self.stats.items()
            },
            "distinct": {name: [len(self.arguments[name]), self.stats[name][0]] for name in DISTINCT},
            "counters": dict(self.counters),
        }


def main(argv: list[str]) -> int:
    trace_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    tracer.install()
    from lossyphase.cli import main as cli_main

    try:
        return cli_main(cli_args)
    finally:
        with open(trace_path, "w", encoding="utf-8") as handle:
            json.dump(tracer.report(), handle)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
