"""Benchmark workloads: each one is a fixed sequence of lossyphase CLI commands.

Every command runs in its own fresh process, as users run the CLI, so no
module-level cache can carry over from one command to the next. Paths are
relative to the workload's work directory, which is the children's working
directory. The workload seed reaches the program only as ``--seed``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

#: Default campaign: 4 transmissions x 15 phases x 300 series x 2000 events.
DEFAULT_ETAS = (0.2, 0.361, 0.4, 0.547)
DEFAULT_PHASES = tuple(round(0.02 * (i - 7), 10) for i in range(15))


@dataclass(frozen=True)
class Scale:
    """Sizes of the workloads; ``FULL`` is the benchmark, ``SMALL`` its tests."""

    campaign_etas: tuple[float, ...] = DEFAULT_ETAS
    campaign_phases: tuple[float, ...] = DEFAULT_PHASES
    campaign_series: int = 300
    events: int = 2000
    sweep_etas: tuple[float, ...] = tuple(round(0.1 + 0.85 * i / 15, 6) for i in range(16))
    sweep_phases: tuple[float, ...] = (-0.02, 0.0, 0.02)
    sweep_series: int = 10
    bounds_steps: int = 48


FULL = Scale()
SMALL = Scale(
    campaign_etas=(0.361,),
    campaign_phases=(-0.02, 0.0, 0.02),
    campaign_series=6,
    events=400,
    sweep_etas=(0.3, 0.9),
    sweep_phases=(0.0,),
    sweep_series=3,
    bounds_steps=3,
)


@dataclass(frozen=True)
class Command:
    sub: str
    args: tuple[str, ...]
    #: CSV outputs, each with its expected number of data rows (None: unchecked).
    outputs: dict[str, int | None]
    #: Dataset CSV the command parses, counted in ``cli.bytes_read``.
    reads: str | None = None


@dataclass(frozen=True)
class Plan:
    #: Input files written into the work directory before anything runs.
    files: dict[str, str]
    #: Commands run once before timing; their time is left out of the metrics.
    prep: tuple[Command, ...]
    #: One timed pass of the workload.
    commands: tuple[Command, ...]
    #: Series simulated or estimated in one pass, for ``series_per_s``.
    series: int
    #: Called with the work directory after ``prep`` ran.
    after_prep: Callable[[Path], None] | None = None


def _config(etas, phases, series: int, events: int, **extra) -> str:
    lines = [
        f"eta_list = {', '.join(repr(e) for e in etas)}",
        f"phases = {', '.join(repr(p) for p in phases)}",
        f"series = {series}",
        f"events = {events}",
    ]
    lines += [f"{key} = {value}" for key, value in extra.items()]
    return "\n".join(lines) + "\n"


def _simulate(cfg: str, probe: str, seed: int, out_dir: str, records: int) -> Command:
    return Command(
        "simulate",
        ("--config", cfg, "--probe", probe, "--seed", str(seed), "--out-dir", out_dir),
        {f"{out_dir}/dataset.csv": records},
    )


def _estimate(dataset: str, out_dir: str, series: int, groups: int, *extra: str) -> Command:
    outputs = {f"{out_dir}/estimates.csv": series, f"{out_dir}/report.csv": groups}
    if "--hist-bin" in extra:
        outputs[f"{out_dir}/histograms.csv"] = None
    return Command("estimate", ("--dataset", dataset, "--out-dir", out_dir, *extra), outputs, reads=dataset)


def campaign(seed: int, scale: Scale = FULL) -> Plan:
    groups = len(scale.campaign_etas) * len(scale.campaign_phases)
    series = groups * scale.campaign_series
    commands = []
    for probe in ("optimal", "noon"):
        sim, est = f"pass/{probe}/sim", f"pass/{probe}/est"
        commands.append(_simulate("campaign.cfg", probe, seed, sim, 2 * series))
        commands.append(_estimate(f"{sim}/dataset.csv", est, series, groups, "--hist-bin", "0.01"))
    cfg = _config(scale.campaign_etas, scale.campaign_phases, scale.campaign_series, scale.events)
    return Plan({"campaign.cfg": cfg}, (), tuple(commands), 2 * series)


def design_sweep(seed: int, scale: Scale = FULL) -> Plan:
    groups = len(scale.sweep_etas) * len(scale.sweep_phases)
    series = groups * scale.sweep_series
    cfg = _config(
        scale.sweep_etas,
        scale.sweep_phases,
        scale.sweep_series,
        scale.events,
        probe="optimal",
        epsilon=0.02,
        delta=0.1,
        lambda_hom=0.95,
        v_classical=0.97,
    )
    # cmd_bounds adds the four reference transmissions to the grid.
    bounds = Command(
        "bounds", ("--steps", str(scale.bounds_steps), "--out", "pass/bounds.csv"), {"pass/bounds.csv": None}
    )
    commands = (
        bounds,
        _simulate("sweep.cfg", "optimal", seed, "pass/sim", 2 * series),
        _estimate("pass/sim/dataset.csv", "pass/est", series, groups),
    )
    return Plan({"sweep.cfg": cfg}, (), commands, series)


def _write_nocc_manifest(workdir: Path) -> None:
    manifest = json.loads((workdir / "prep/manifest.json").read_text(encoding="utf-8"))
    manifest["config"]["include_cc"] = False
    (workdir / "nocc.manifest.json").write_text(json.dumps(manifest, indent=2) + "\n", encoding="utf-8")


def reestimate(seed: int, scale: Scale = FULL) -> Plan:
    groups = len(scale.campaign_etas) * len(scale.campaign_phases)
    series = groups * scale.campaign_series
    cfg = _config(scale.campaign_etas, scale.campaign_phases, scale.campaign_series, scale.events)
    data = "prep/dataset.csv"
    commands = (
        _estimate(data, "pass/bin010", series, groups, "--hist-bin", "0.01"),
        _estimate(data, "pass/bin005", series, groups, "--hist-bin", "0.005"),
        _estimate(data, "pass/nocc", series, groups, "--manifest", "nocc.manifest.json"),
    )
    prep = (_simulate("campaign.cfg", "noon", seed, "prep", 2 * series),)
    return Plan({"campaign.cfg": cfg}, prep, commands, 3 * series, after_prep=_write_nocc_manifest)


WORKLOADS: dict[str, Callable[..., Plan]] = {
    "campaign": campaign,
    "design_sweep": design_sweep,
    "reestimate": reestimate,
}
