"""Command-line front end: bounds tables, fringe tables, campaign simulation
and estimation, with bit-stable CSV/JSON outputs."""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .bounds import NOON_WEIGHTS, optimize_weights, noon_precision, sil_precision
from .detection import LABELS, Setting
from .estimator import DegenerateLikelihoodError, analyze, estimate_dataset, histogram
from .imperfections import ImperfectionParams
from .montecarlo import (
    EventDataset,
    EventRecord,
    ExperimentConfig,
    ProbeKind,
    default_phase_list,
    run_campaign,
    setting_models,
)
from .prep import solve_prep

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_DOMAIN = 2
EXIT_INTERNAL = 3

#: Lowest-precedence default seed override; flags and config files win.
SEED_ENV_VAR = "LOSSYPHASE_SEED"
DEFAULT_SEED = 0

DATASET_COLUMNS = (
    "eta",
    "probe",
    "phi_true",
    "setting",
    "series_id",
    "n_AA",
    "n_AB",
    "n_BB",
    "n_AC",
    "n_BC",
    "n_CC",
    "seed_used",
)

ESTIMATES_COLUMNS = ("eta", "probe", "phi_true", "series_id", "phi_hat", "loglik", "n_coinc")
REPORT_COLUMNS = ("eta", "probe", "phi_true", "mean", "sigma", "m_bar", "sigma_scaled", "crb")

_CONFIG_KEYS = (
    "eta_list",
    "probe",
    "phases",
    "series",
    "events",
    "seed",
    "epsilon",
    "delta",
    "lambda_hom",
    "v_classical",
    "poissonize_m",
    "include_cc",
)


class ConfigError(Exception):
    """Config file could not be parsed; carries a line diagnostic."""


def _fmt(value) -> str:
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return format(float(value), ".12g")


def _write_csv(path: Path, header, rows) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(v) if not isinstance(v, str) else v for v in row))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")


def _default_seed() -> int:
    env = os.environ.get(SEED_ENV_VAR)
    if env is not None:
        try:
            return int(env)
        except ValueError as exc:
            raise ConfigError(f"environment variable {SEED_ENV_VAR} must be an integer, got {env!r}") from exc
    return DEFAULT_SEED


def _parse_bool(raw: str, line_no: int) -> bool:
    lowered = raw.strip().lower()
    if lowered in ("true", "1", "yes", "on"):
        return True
    if lowered in ("false", "0", "no", "off"):
        return False
    raise ConfigError(f"line {line_no}: expected a boolean, got {raw!r}")


def parse_config(text: str) -> tuple[dict, bool]:
    """Parse key=value configuration text into run_campaign keyword arguments
    plus the include_cc estimation toggle."""
    raw: dict[str, tuple[str, int]] = {}
    for line_no, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {line_no}: expected key=value, got {line.rstrip()!r}")
        key, value = (part.strip() for part in stripped.split("=", 1))
        if key not in _CONFIG_KEYS:
            raise ConfigError(f"line {line_no}: unknown key {key!r}")
        if key in raw:
            raise ConfigError(f"line {line_no}: duplicate key {key!r}")
        raw[key] = (value, line_no)

    def floats(key: str, default):
        if key not in raw:
            return default
        value, line_no = raw[key]
        try:
            return tuple(float(part) for part in value.split(","))
        except ValueError as exc:
            raise ConfigError(f"line {line_no}: expected comma-separated numbers for {key}") from exc

    def number(key: str, caster, default):
        if key not in raw:
            return default
        value, line_no = raw[key]
        try:
            return caster(value)
        except ValueError as exc:
            raise ConfigError(f"line {line_no}: expected a number for {key}, got {value!r}") from exc

    probe = ProbeKind.OPTIMAL
    if "probe" in raw:
        value, line_no = raw["probe"]
        try:
            probe = ProbeKind(value.strip().lower())
        except ValueError as exc:
            raise ConfigError(f"line {line_no}: probe must be 'optimal' or 'noon', got {value!r}") from exc

    kwargs = {
        "eta_list": floats("eta_list", (0.2, 0.361, 0.4, 0.547)),
        "probe_kind": probe,
        "phase_list": floats("phases", default_phase_list()),
        "series_count": number("series", int, 300),
        "events_per_series": number("events", int, 2000),
        "master_seed": number("seed", int, _default_seed()),
        "imperfections": ImperfectionParams(
            epsilon=number("epsilon", float, 0.0),
            delta=number("delta", float, 0.0),
            lambda_hom=number("lambda_hom", float, 1.0),
            v_classical=number("v_classical", float, 1.0),
        ),
        "poissonize_m": _parse_bool(*raw["poissonize_m"]) if "poissonize_m" in raw else True,
    }
    include_cc = _parse_bool(*raw["include_cc"]) if "include_cc" in raw else True
    return kwargs, include_cc


def _config_dict(config: ExperimentConfig, include_cc: bool) -> dict:
    return {
        "eta_list": list(config.eta_list),
        "probe": config.probe_kind.value,
        "phases": list(config.phase_list),
        "series": config.series_count,
        "events": config.events_per_series,
        "seed": config.master_seed,
        "epsilon": config.imperfections.epsilon,
        "delta": config.imperfections.delta,
        "lambda_hom": config.imperfections.lambda_hom,
        "v_classical": config.imperfections.v_classical,
        "poissonize_m": config.poissonize_m,
        "include_cc": include_cc,
    }


def config_from_dict(data: dict) -> tuple[ExperimentConfig, bool]:
    config = ExperimentConfig(
        eta_list=tuple(data["eta_list"]),
        probe_kind=ProbeKind(data["probe"]),
        phase_list=tuple(data["phases"]),
        series_count=int(data["series"]),
        events_per_series=int(data["events"]),
        master_seed=int(data["seed"]),
        imperfections=ImperfectionParams(
            epsilon=float(data.get("epsilon", 0.0)),
            delta=float(data.get("delta", 0.0)),
            lambda_hom=float(data.get("lambda_hom", 1.0)),
            v_classical=float(data.get("v_classical", 1.0)),
        ),
        poissonize_m=bool(data.get("poissonize_m", True)),
    )
    return config, bool(data.get("include_cc", True))


def _write_manifest(path: Path, command: str, config: dict, seed: int, outputs) -> None:
    manifest = {
        "command": command,
        "config": config,
        "master_seed": seed,
        "artifact_version": __version__,
        "outputs": [str(p) for p in outputs],
        "written_at": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
    }
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8", newline="\n")


def cmd_bounds(args) -> int:
    if not 0.0 < args.eta_min <= args.eta_max <= 1.0:
        print("error: need 0 < eta-min <= eta-max <= 1", file=sys.stderr)
        return EXIT_DOMAIN
    if args.steps < 1:
        print("error: steps must be positive", file=sys.stderr)
        return EXIT_DOMAIN
    if args.steps == 1:
        grid = [args.eta_min]
    else:
        grid = list(np.linspace(args.eta_min, args.eta_max, args.steps))
    for eta in (0.2, 0.361, 0.4, 0.547):
        if args.eta_min <= eta <= args.eta_max:
            grid.append(eta)
    grid = sorted(set(round(e, 12) for e in grid))
    rows = []
    for eta in grid:
        weights, f_max = optimize_weights(eta)
        prep = solve_prep(weights)
        rows.append(
            (
                eta,
                1.0 / np.sqrt(f_max),
                noon_precision(eta),
                sil_precision(eta, 2.0),
                weights.x0,
                weights.x1,
                weights.x2,
                prep.success_prob,
            )
        )
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    _write_csv(out, ("eta", "dphi_optimal", "dphi_noon", "dphi_sil", "x0", "x1", "x2", "prep_success_p"), rows)
    _write_manifest(
        out.with_suffix(out.suffix + ".manifest.json"),
        "bounds",
        {"eta_min": args.eta_min, "eta_max": args.eta_max, "steps": args.steps},
        0,
        [out],
    )
    return EXIT_OK


def cmd_fringes(args) -> int:
    if not 0.0 < args.eta <= 1.0:
        print(f"error: eta must be in (0, 1], got {args.eta}", file=sys.stderr)
        return EXIT_DOMAIN
    if args.phi_steps < 1:
        print(f"error: phi-steps must be at least 1, got {args.phi_steps}", file=sys.stderr)
        return EXIT_DOMAIN
    if args.counts is not None and args.counts < 0:
        print(f"error: --counts must be non-negative, got {args.counts}", file=sys.stderr)
        return EXIT_DOMAIN
    params = ImperfectionParams(
        epsilon=args.epsilon, delta=args.delta, lambda_hom=args.lambda_hom, v_classical=args.v_classical
    )
    kind = ProbeKind(args.probe)
    models = setting_models(kind, args.eta, params)
    phis = np.linspace(-np.pi, np.pi, args.phi_steps)
    rows = []
    rng = np.random.default_rng(args.seed if args.seed is not None else _default_seed())
    for setting in (Setting.QUARTER, Setting.HALF):
        probs = np.asarray(models[setting].probabilities(phis), dtype=float)
        for i, phi in enumerate(phis):
            if args.counts is not None:
                values = rng.multinomial(args.counts, probs[i] / probs[i].sum())
            else:
                values = probs[i]
            rows.append((phi, setting.value, *values))
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    _write_csv(out, ("phi", "setting", *LABELS), rows)
    _write_manifest(
        out.with_suffix(out.suffix + ".manifest.json"),
        "fringes",
        {
            "eta": args.eta,
            "probe": kind.value,
            "phi_steps": args.phi_steps,
            "counts": args.counts,
            "epsilon": args.epsilon,
            "delta": args.delta,
            "lambda_hom": args.lambda_hom,
            "v_classical": args.v_classical,
        },
        args.seed if args.seed is not None else _default_seed(),
        [out],
    )
    return EXIT_OK


def write_dataset_csv(path: Path, dataset: EventDataset) -> None:
    """One row per record in ``DATASET_COLUMNS`` order, formatted as
    ``_write_csv`` would, with each distinct (eta, probe, phi, setting)
    prefix formatted once."""
    # Keyed by object identity, not value, so 0.0 and -0.0 keep their own
    # text; the records hold every key object alive while the file is built.
    prefixes: dict[tuple, str] = {}
    integers = ",".join(["{}"] * (len(LABELS) + 2)).format  # series_id, counts, seed_used
    lines = [",".join(DATASET_COLUMNS)]
    for rec in dataset.records:
        key = (id(rec.eta), rec.probe, id(rec.phi_true), rec.setting)
        prefix = prefixes.get(key)
        if prefix is None:
            prefix = prefixes[key] = f"{_fmt(rec.eta)},{rec.probe.value},{_fmt(rec.phi_true)},{rec.setting.value},"
        get = rec.counts.get
        lines.append(prefix + integers(rec.series_id, *[get(label, 0) for label in LABELS], rec.seed_used))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")


def read_dataset_csv(path: Path) -> list[EventRecord]:
    """Records of a dataset CSV, in file order.

    Rejects, naming the line, a malformed row, a negative count and a second
    row for the same (eta, probe, phi_true, series_id, setting).
    """
    lines = path.read_text(encoding="utf-8").splitlines()
    if not lines:
        raise ConfigError(f"{path}: empty dataset file")
    header = lines[0].split(",")
    for got, expected in zip(header, DATASET_COLUMNS):
        if got != expected:
            raise ConfigError(f"{path}: expected column {expected!r}, found {got!r}")
    if len(header) != len(DATASET_COLUMNS):
        raise ConfigError(f"{path}: expected {len(DATASET_COLUMNS)} columns, found {len(header)}")
    # (eta, probe, phi_true, setting) text -> parsed values and an id shared by equal values
    prefixes: dict[tuple, tuple] = {}
    prefix_ids: dict[tuple, int] = {}
    first_line: dict[tuple, int] = {}  # (prefix id, series_id) -> line
    records = []
    for line_no, line in enumerate(lines[1:], start=2):
        if not line or line.isspace():
            continue
        parts = line.split(",")
        if len(parts) != len(DATASET_COLUMNS):
            raise ConfigError(f"{path}: line {line_no}: expected {len(DATASET_COLUMNS)} fields")
        try:
            values = list(map(int, parts[5:11]))
            text = tuple(parts[:4])
            prefix = prefixes.get(text)
            if prefix is None:
                parsed = (float(parts[0]), ProbeKind(parts[1]), float(parts[2]), Setting(parts[3]))
                prefix = prefixes[text] = (*parsed, prefix_ids.setdefault(parsed, len(prefix_ids)))
            eta, probe, phi_true, setting, prefix_id = prefix
            series_id = int(parts[4])
            record = EventRecord(eta, probe, phi_true, setting, series_id, dict(zip(LABELS, values)), int(parts[11]))
        except ValueError as exc:
            raise ConfigError(f"{path}: line {line_no}: {exc}") from exc
        if min(values) < 0:
            column = DATASET_COLUMNS[5 + values.index(min(values))]
            raise ConfigError(f"{path}: line {line_no}: {column} must be non-negative, got {min(values)}")
        seen = first_line.setdefault((prefix_id, series_id), line_no)
        if seen != line_no:
            raise ConfigError(
                f"{path}: line {line_no}: duplicates line {seen} (same eta, probe, phi_true, series_id and setting)"
            )
        records.append(record)
    return records


def cmd_simulate(args) -> int:
    try:
        kwargs, include_cc = parse_config(Path(args.config).read_text(encoding="utf-8"))
    except OSError as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return EXIT_INPUT
    if args.probe is not None:
        kwargs["probe_kind"] = ProbeKind(args.probe)
    if args.eta is not None:
        kwargs["eta_list"] = (args.eta,)
    if args.seed is not None:
        kwargs["master_seed"] = args.seed
    config = ExperimentConfig(**kwargs)
    dataset = run_campaign(config)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    dataset_path = out_dir / "dataset.csv"
    write_dataset_csv(dataset_path, dataset)
    _write_manifest(
        out_dir / "manifest.json",
        "simulate",
        _config_dict(config, include_cc),
        config.master_seed,
        [dataset_path],
    )
    return EXIT_OK


def _load_manifest(path: Path) -> tuple[dict, ExperimentConfig, bool]:
    """A simulate manifest and the model configuration it records."""
    try:
        manifest = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ConfigError(f"manifest {path}: cannot read JSON: {exc}") from exc
    if not isinstance(manifest, dict) or not isinstance(manifest.get("config"), dict):
        raise ConfigError(f"manifest {path}: no 'config' object")
    try:
        config, include_cc = config_from_dict(manifest["config"])
    except KeyError as exc:
        raise ConfigError(f"manifest {path}: config lacks required field {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"manifest {path}: invalid config: {exc}") from exc
    return manifest, config, include_cc


def cmd_estimate(args) -> int:
    dataset_path = Path(args.dataset)
    manifest_path = Path(args.manifest) if args.manifest else dataset_path.parent / "manifest.json"
    if not manifest_path.exists():
        print(f"error: manifest {manifest_path} not found (needed for the model configuration)", file=sys.stderr)
        return EXIT_INPUT
    manifest, config, include_cc = _load_manifest(manifest_path)
    records = read_dataset_csv(dataset_path)
    dataset = EventDataset(config=config, records=tuple(records))
    estimates = estimate_dataset(dataset, include_cc=include_cc)
    report = analyze(dataset, estimates, include_cc=include_cc)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    estimates_path = out_dir / "estimates.csv"
    _write_csv(
        estimates_path,
        ESTIMATES_COLUMNS,
        (
            (e.series_key[0], e.series_key[1].value, e.series_key[2], e.series_key[3], e.phi_hat, e.log_likelihood_max, e.n_coincidences)
            for e in estimates
        ),
    )
    report_path = out_dir / "report.csv"
    _write_csv(
        report_path,
        REPORT_COLUMNS,
        (
            (r.eta, r.probe.value, r.phi_true, r.mean, r.sigma, r.m_bar, r.sigma_scaled, r.crb)
            for r in report
        ),
    )
    outputs = [estimates_path, report_path]
    if args.hist_bin is not None:
        hist_rows = []
        groups: dict[tuple, list] = {}
        for e in estimates:
            groups.setdefault(e.series_key[:3], []).append(e.phi_hat)
        for (eta, probe, phi_true), values in groups.items():
            edges, counts = histogram(values, args.hist_bin)
            for left, right, count in zip(edges[:-1], edges[1:], counts):
                hist_rows.append((eta, probe.value, phi_true, left, right, int(count)))
        hist_path = out_dir / "histograms.csv"
        _write_csv(hist_path, ("eta", "probe", "phi_true", "bin_left", "bin_right", "count"), hist_rows)
        outputs.append(hist_path)
    _write_manifest(
        out_dir / "estimate.manifest.json",
        "estimate",
        {**manifest["config"], "dataset": str(dataset_path), "hist_bin": args.hist_bin},
        config.master_seed,
        outputs,
    )
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lossyphase",
        description="Lossy-phase estimation toolkit: precision bounds, fringe tables, "
        "Monte Carlo coincidence datasets and maximum-likelihood analysis.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("bounds", help="precision bounds and optimal weights over a transmission grid")
    p.add_argument("--eta-min", type=float, default=0.05)
    p.add_argument("--eta-max", type=float, default=1.0)
    p.add_argument("--steps", type=int, default=39)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("fringes", help="coincidence fringes for one transmission and probe")
    p.add_argument("--eta", type=float, required=True)
    p.add_argument("--probe", choices=[k.value for k in ProbeKind], default="optimal")
    p.add_argument("--phi-steps", type=int, default=201)
    p.add_argument("--counts", type=int, default=None, help="emit multinomial counts at this rate instead of probabilities")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--epsilon", type=float, default=0.0)
    p.add_argument("--delta", type=float, default=0.0)
    p.add_argument("--lambda-hom", type=float, default=1.0)
    p.add_argument("--v-classical", type=float, default=1.0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_fringes)

    p = sub.add_parser("simulate", help="run a Monte Carlo coincidence campaign from a config file")
    p.add_argument("--config", required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--probe", choices=[k.value for k in ProbeKind], default=None, help="override the config probe")
    p.add_argument("--eta", type=float, default=None, help="restrict to a single transmission")
    p.add_argument("--seed", type=int, default=None, help="override the config seed")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("estimate", help="maximum-likelihood estimates and uncertainty report for a dataset")
    p.add_argument("--dataset", required=True)
    p.add_argument("--manifest", default=None, help="manifest path (default: manifest.json next to the dataset)")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--hist-bin", type=float, default=None, help="also emit phase-estimate histograms at this bin width")
    p.set_defaults(func=cmd_estimate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (ValueError, DegenerateLikelihoodError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except RuntimeError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
