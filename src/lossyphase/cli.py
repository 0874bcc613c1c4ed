"""Command-line front end: bounds tables, fringe tables, campaign simulation
and estimation, with bit-stable CSV/JSON outputs."""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import sys
import time
from contextlib import contextmanager
from dataclasses import fields, replace
from itertools import chain, islice, repeat
from pathlib import Path
from typing import Any, Callable, Iterator, NamedTuple

# OpenBLAS starts one pool thread per further CPU when numpy loads, and each spins idle before it sleeps: no
# product a command makes is large enough to be split across threads, and fork_map already runs one process per
# CPU. So a process that loads numpy through this module asks for one thread. A count the user sets wins, and a
# caller that loaded numpy first keeps its pool and its environment.
if "numpy" not in sys.modules and not {"OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"} & os.environ.keys():
    os.environ["OPENBLAS_NUM_THREADS"] = "1"

import numpy as np

from . import __version__
from .bounds import ProbeWeights, precision_curve
from .detection import LABELS, DetectionConfig, Setting
from .estimator import MAX_BINS, _first_seen, analyze, estimate_dataset, histogram
from .imperfections import ImperfectionParams
from .montecarlo import (
    PROBES, SETTINGS, EventDataset, ExperimentConfig, ProbeKind, campaign_counts, probe_designs, run_campaign,
    setting_models,
)
from .prep import solve_prep

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_DOMAIN = 2
EXIT_INTERNAL = 3

#: Lowest-precedence default seed override; flags and config files win.
SEED_ENV_VAR = "LOSSYPHASE_SEED"

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


#: Largest count a dataset row may hold: the 12 counts of a series then sum
#: below 2**53, so the float64 sum of ``estimator._estimate_series`` is exact.
#: A config's events are held to it too: a setting draws about half of a
#: series' events, so every dataset simulate writes reads back.
MAX_COUNT = 2**49

#: Most series a config may ask for: a substream key holds 32-bit indices.
MAX_SERIES = 2**32


class ConfigError(Exception):
    """Bad input (config text, manifest, dataset or environment); carries a one-line diagnostic."""


# The number grammar of every input: config values, LOSSYPHASE_SEED, numeric
# flags and dataset fields. argparse names a flag's type by its function name.


def _is_integer(text: str) -> bool:
    return text.isascii() and text.removeprefix("-").isdigit()


def integer(text: str) -> int:
    """The integer ``text`` spells in ASCII digits after an optional "-", as
    the writers spell one; ``int`` would also read whitespace, "_", "+" and
    non-ASCII digits."""
    if not _is_integer(text):
        raise ValueError(f"not an integer of ASCII digits: {text!r}")
    return int(text)


def decimal(text: str) -> float:
    """The number ``text`` spells as ``float`` reads it, in ASCII, without
    "_" or surrounding whitespace: 0.361, -4, 1e-11 and nan read."""
    if not text.isascii() or "_" in text or text != text.strip():
        raise ValueError(f"not a decimal number: {text!r}")
    return float(text)


def _fmt(value) -> str:
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return format(float(value), ".12g")


#: Lines a writer joins and writes at once, and rows it formats at once.
_WRITE_BLOCK = 2048


@contextmanager
def _output(path: Path) -> Iterator[None]:
    """Turns an OSError of making or writing the output ``path`` into a
    ConfigError naming it."""
    try:
        yield
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc}") from None


def _make_dir(path: Path) -> Path:
    """The output directory ``path``, made with its parents if missing."""
    with _output(path):
        path.mkdir(parents=True, exist_ok=True)
    return path


def _write_lines(path: Path, header, lines) -> None:
    """The header and then ``lines``, each ended by "\\n", written
    ``_WRITE_BLOCK`` lines at a time."""
    lines = iter(lines)
    with _output(path), open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(",".join(header) + "\n")
        while block := list(islice(lines, _WRITE_BLOCK)):
            handle.write("\n".join(block) + "\n")


def _format_rows(line: str, prefixes: list[str], columns) -> Iterator[str]:
    """``line.format`` of each row's prefix and its values in ``columns``,
    one array per field; the columns become Python numbers a row block at a
    time."""
    for start in range(0, len(prefixes), _WRITE_BLOCK):
        rows = slice(start, start + _WRITE_BLOCK)
        yield from map(line.format, prefixes[rows], *(column[rows].tolist() for column in columns))


def _write_csv(path: Path, header, rows) -> None:
    _write_lines(path, header, (",".join(v if isinstance(v, str) else _fmt(v) for v in row) for row in rows))


def _default_seed() -> int:
    """The seed when neither a config file nor a flag sets one."""
    env = os.environ.get(SEED_ENV_VAR)
    if env is None:
        return ExperimentConfig().master_seed
    try:
        seed = integer(env)
    except ValueError as exc:
        raise ConfigError(f"environment variable {SEED_ENV_VAR} must be an integer, got {env!r}") from exc
    if seed < 0:
        raise ValueError(f"environment variable {SEED_ENV_VAR} must be non-negative, got {env!r}")
    return seed


def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("true", "1", "yes", "on"):
        return True
    if lowered in ("false", "0", "no", "off"):
        return False
    raise ValueError(text)


def _parse_probe(text: str) -> ProbeKind:
    return ProbeKind(text.strip().lower())


def _is_number(value) -> bool:
    return type(value) in (int, float)  # a JSON true or false is no number


class _Kind(NamedTuple):
    """How one config value is checked and converted."""

    expected: str  # what a diagnostic says the value must be
    parse: Callable[[str], Any]  # config-file text -> value; raises ValueError
    is_json: Callable[[Any], bool]  # whether a manifest value has the JSON type ``dump`` writes
    load: Callable[[Any], Any]  # manifest value of that type -> value; raises ValueError
    dump: Callable[[Any], Any] = lambda value: value  # value -> manifest value


_FLOATS = _Kind(
    "a list of numbers",
    lambda text: tuple(decimal(part.strip()) for part in text.split(",")),
    lambda value: type(value) is list and all(map(_is_number, value)),
    lambda value: tuple(map(float, value)),
    list,
)
_FLOAT = _Kind("a number", decimal, _is_number, float)
_INT = _Kind("an integer", integer, lambda value: type(value) is int, int)
_BOOL = _Kind("a boolean", _parse_bool, lambda value: type(value) is bool, bool)
_PROBE = _Kind("'optimal' or 'noon'", _parse_probe, lambda value: type(value) is str, _parse_probe, lambda kind: kind.value)

#: The config schema: config-file and manifest key -> (field it sets, kind of
#: value). The field is an ExperimentConfig field, an ImperfectionParams field
#: for the imperfection rows, or include_cc, the estimation toggle that no
#: dataclass holds. Defaults come from the dataclasses.
_FIELDS: dict[str, tuple[str, _Kind]] = {
    "eta_list": ("eta_list", _FLOATS),
    "probe": ("probe_kind", _PROBE),
    "phases": ("phase_list", _FLOATS),
    "series": ("series_count", _INT),
    "events": ("events_per_series", _INT),
    "seed": ("master_seed", _INT),
    "epsilon": ("epsilon", _FLOAT),
    "delta": ("delta", _FLOAT),
    "lambda_hom": ("lambda_hom", _FLOAT),
    "v_classical": ("v_classical", _FLOAT),
    "poissonize_m": ("poissonize_m", _BOOL),
    "include_cc": ("include_cc", _BOOL),
}

#: The imperfection rows of ``_FIELDS``: key -> ImperfectionParams field.
_IMPERFECTIONS = {
    key: attr for key, (attr, _) in _FIELDS.items() if attr in {f.name for f in fields(ImperfectionParams)}
}


def _read_config(text: str) -> dict:
    """Values by key of key=value config text; a bad line raises ConfigError naming it."""
    values = {}
    for line_no, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {line_no}: expected key=value, got {line.rstrip()!r}")
        key, value = (part.strip() for part in stripped.split("=", 1))
        if key not in _FIELDS:
            raise ConfigError(f"line {line_no}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"line {line_no}: duplicate key {key!r}")
        kind = _FIELDS[key][1]
        try:
            values[key] = kind.parse(value)
        except ValueError as exc:
            raise ConfigError(f"line {line_no}: expected {kind.expected} for {key}, got {value!r}") from exc
    return values


def _assemble(values: dict) -> tuple[dict, bool]:
    """ExperimentConfig keyword arguments and include_cc from values by key.

    An absent key keeps its dataclass default, an absent seed comes from
    ``_default_seed`` and an absent include_cc is true.
    """
    values = dict(values)
    if "seed" not in values:
        values["seed"] = _default_seed()
    include_cc = values.pop("include_cc", True)
    defaults = ExperimentConfig()
    imperfections = {attr: values.pop(key) for key, attr in _IMPERFECTIONS.items() if key in values}
    kwargs = {f.name: getattr(defaults, f.name) for f in fields(defaults)}
    kwargs.update({_FIELDS[key][0]: value for key, value in values.items()})
    kwargs["imperfections"] = replace(defaults.imperfections, **imperfections)
    if kwargs["series_count"] > MAX_SERIES:
        raise ValueError(f"series must be at most 2**32, got {kwargs['series_count']}")
    if kwargs["events_per_series"] > MAX_COUNT:
        raise ValueError(f"events must be at most 2**49, got {kwargs['events_per_series']}")
    return kwargs, include_cc


def _config_dict(config: ExperimentConfig, include_cc: bool) -> dict:
    """The manifest's config object: every key of ``_FIELDS`` with its value."""
    by_field = {**vars(config), **vars(config.imperfections), "include_cc": include_cc}
    return {key: kind.dump(by_field[attr]) for key, (attr, kind) in _FIELDS.items()}


def _load_fields(data: dict, schema, name: str) -> dict:
    """Values by key of the JSON object ``data`` called ``name``: every
    (key, kind) of ``schema`` must be present with the JSON type of its kind;
    a missing or mistyped key raises ConfigError naming it."""
    values = {}
    for key, kind in schema:
        if key not in data:
            raise ConfigError(f"{name} lacks required field {key!r}")
        value = data[key]
        try:
            if not kind.is_json(value):
                raise ValueError(value)
            values[key] = kind.load(value)
        except (ValueError, OverflowError):
            raise ConfigError(f"{name}.{key} must be {kind.expected}, got {value!r}") from None
    return values


def config_from_dict(data: dict) -> tuple[ExperimentConfig, bool]:
    """The configuration a manifest's config object records.

    Every key of ``_FIELDS`` must be present with the JSON type ``simulate``
    writes; a missing or mistyped key raises ConfigError naming it.
    """
    values = _load_fields(data, ((key, kind) for key, (_, kind) in _FIELDS.items()), "config")
    kwargs, include_cc = _assemble(values)
    return ExperimentConfig(**kwargs), include_cc


_FINITE = _Kind("a finite number", decimal, lambda value: _is_number(value) and math.isfinite(value), float)

#: The keys of a ``design`` entry of the simulate manifest and their kinds.
_DESIGN_FIELDS = {"probe": _PROBE, **dict.fromkeys(("eta", "x0", "x1", "x2", "theta_d", "conditional_phase"), _FINITE)}


def _design_entry(kind: ProbeKind, eta: float, design: tuple[ProbeWeights, DetectionConfig]) -> dict:
    """The manifest's record of the ``design`` ``simulate`` uses for one (probe, eta)."""
    weights, quarter = design
    values = (kind.value, eta, *weights.as_tuple(), quarter.theta_d, quarter.phase_offset)
    return dict(zip(_DESIGN_FIELDS, values))


def _write_manifest(path: Path, command: str, config: dict, seed: int, outputs, **extra) -> None:
    manifest = {
        "command": command,
        "config": config,
        "master_seed": seed,
        "artifact_version": __version__,
        "outputs": [str(p) for p in outputs],
        "written_at": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        **extra,
    }
    with _output(path):
        path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8", newline="\n")


def _write_table(out: str, header, rows, command: str, config: dict, seed: int) -> None:
    """A CSV table at ``out`` and its manifest beside it."""
    path = Path(out)
    _make_dir(path.parent)
    _write_csv(path, header, rows)
    _write_manifest(path.with_suffix(path.suffix + ".manifest.json"), command, config, seed, [path])


def _linspace(flag: str, start: float, stop: float, num: int) -> np.ndarray:
    """``np.linspace(start, stop, num)`` for a positive ``num`` that ``flag``
    sets; a size numpy refuses raises ValueError naming the flag."""
    try:
        return np.linspace(start, stop, num)
    except (MemoryError, ValueError) as exc:  # ValueError: more bytes than an array can index
        raise ValueError(f"{flag} {num}: {exc}") from None


def cmd_bounds(args) -> None:
    if not 0.0 < args.eta_min <= args.eta_max <= 1.0:
        raise ValueError("need 0 < eta-min <= eta-max <= 1")
    if args.steps < 1:
        raise ValueError(f"--steps must be positive, got {args.steps}")
    if round(args.eta_min, 12) == 0.0:
        raise ValueError(f"--eta-min {args.eta_min!r} rounds to 0 on the 12-decimal eta grid")
    grid = list(_linspace("--steps", args.eta_min, args.eta_max, args.steps))  # [eta_min] for one step
    grid += [eta for eta in ExperimentConfig().eta_list if args.eta_min <= eta <= args.eta_max]
    grid = sorted(set(round(e, 12) for e in grid))
    rows = [
        (p.eta, p.dphi_optimal, p.dphi_noon, p.dphi_sil, *p.weights.as_tuple(), solve_prep(p.weights).success_prob)
        for p in precision_curve(grid)
    ]
    header = ("eta", "dphi_optimal", "dphi_noon", "dphi_sil", "x0", "x1", "x2", "prep_success_p")
    _write_table(args.out, header, rows, "bounds", {"eta_min": args.eta_min, "eta_max": args.eta_max, "steps": args.steps}, 0)


def cmd_fringes(args) -> None:
    if not 0.0 < args.eta <= 1.0:
        raise ValueError(f"eta must be in (0, 1], got {args.eta}")
    if args.phi_steps < 1:
        raise ValueError(f"phi-steps must be at least 1, got {args.phi_steps}")
    if args.counts is not None and not 0 <= args.counts <= np.iinfo(np.int64).max:  # numpy draws int64 counts
        raise ValueError(f"--counts must be non-negative and at most 2**63 - 1, got {args.counts}")
    params = ImperfectionParams(**{attr: getattr(args, key) for key, attr in _IMPERFECTIONS.items()})
    seed = args.seed if args.seed is not None else _default_seed()
    kind = ProbeKind(args.probe)
    phis = _linspace("--phi-steps", -np.pi, np.pi, args.phi_steps)
    models = setting_models(args.eta, params, probe_designs(kind, [args.eta], params)[0])
    rows = []
    rng = np.random.default_rng(seed)
    for setting in (Setting.QUARTER, Setting.HALF):
        probs = np.asarray(models[setting].probabilities(phis), dtype=float)
        for i, phi in enumerate(phis):
            values = probs[i] if args.counts is None else rng.multinomial(args.counts, probs[i] / probs[i].sum())
            rows.append((phi, setting.value, *values))
    settings = {"eta": args.eta, "probe": kind.value, "phi_steps": args.phi_steps, "counts": args.counts}
    settings.update((key, getattr(args, key)) for key in _IMPERFECTIONS)
    _write_table(args.out, ("phi", "setting", *LABELS), rows, "fringes", settings, seed)


def _prefixes(dataset: EventDataset, rows, with_setting: bool) -> list[str]:
    """The eta, probe, phi_true and, if asked, setting fields of the given
    rows as ``_write_csv`` formats them, with a trailing comma; each distinct
    prefix is formatted once. The bits of eta and phi_true, not their values,
    tell prefixes apart, so 0 and -0 keep their own text."""
    d = dataset
    eta, phi = d.eta[rows], d.phi_true[rows]
    codes = [d.probe[rows], d.setting[rows]][: 1 + with_setting]
    number, first = _first_seen(eta.view(np.int64), phi.view(np.int64), *codes)
    texts = [
        ",".join([_fmt(e), PROBES[probe].value, _fmt(f), *(SETTINGS[s].value for s in setting)]) + ","
        for e, f, probe, *setting in zip(*(column[first].tolist() for column in (eta, phi, *codes)))
    ]
    return list(map(texts.__getitem__, number.tolist()))


def write_dataset_csv(path: Path, dataset: EventDataset) -> None:
    """One row per record in ``DATASET_COLUMNS`` order, formatted as
    ``_write_csv`` would."""
    integers = [dataset.series_id, *dataset.counts.T, dataset.seed_used]
    line = "{}" + ",".join(["{}"] * len(integers))
    _write_lines(path, DATASET_COLUMNS, _format_rows(line, _prefixes(dataset, slice(None), True), integers))


def _read_text(path, what: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read {what} {path}: {exc}") from exc


def _parse_prefix(fields_: list[str]) -> tuple:
    """(eta, probe, phi_true, setting) of a dataset row's first four fields."""
    values = []
    for name, text in (("eta", fields_[0]), ("phi_true", fields_[2])):
        try:
            values.append(decimal(text))
        except ValueError:
            raise ValueError(f"{name} must be a decimal number, got {text!r}") from None
    parsed = (values[0], ProbeKind(fields_[1]), values[1], Setting(fields_[3]))
    if not (math.isfinite(parsed[0]) and math.isfinite(parsed[2])):
        raise ValueError(f"eta and phi_true must be finite, got {fields_[0]} and {fields_[2]}")
    if not 0.0 < parsed[0] <= 1.0:
        raise ValueError(f"eta must be in (0, 1], got {fields_[0]}")
    return parsed


def _check_row(line: str) -> None:
    """Raises ValueError with the diagnostic of a dataset row that breaks a
    row rule, the rules taken in the order they are worded; a blank line
    passes. It reads no values: it names the first bad row of a block
    ``_writer_rows`` refuses."""
    if not line.strip():
        return
    parts = line.rsplit(",", 8)  # the prefix text and the eight integer fields
    fields_ = parts[0].split(",")
    if len(parts) != 9 or len(fields_) != 4:
        raise ValueError(f"expected {len(DATASET_COLUMNS)} fields")
    _parse_prefix(fields_)
    for column, text in zip(DATASET_COLUMNS[4:], parts[1:]):
        if not _is_integer(text):
            raise ValueError(f"{column} must be an integer of ASCII digits, got {text!r}")
    try:  # leading zeros dropped, so a zero-padded field reads at any width
        values = [int("-" * text.startswith("-") + (text.lstrip("-0") or "0")) for text in parts[1:]]
    except ValueError:  # more digits than int reads
        raise ValueError("series_id, a count or seed_used is out of range") from None
    counts = values[1:7]
    if min(counts) < 0:
        raise ValueError(f"{DATASET_COLUMNS[5 + counts.index(min(counts))]} must be non-negative, got {min(counts)}")
    if max(counts) > MAX_COUNT:
        raise ValueError(f"{DATASET_COLUMNS[5 + counts.index(max(counts))]} must be at most 2**49, got {max(counts)}")
    if not (-(2**63) <= values[0] < 2**63 and 0 <= values[7] < 2**64):
        raise ValueError("series_id, a count or seed_used is out of range")


#: Lines a block of the parser holds: a block's rows become arrays before the
#: next block is read, so the parser's temporaries stay within one block.
_PARSE_CHUNK = 2048

#: The ASCII whitespace but "\\n": line breaks for ``str.splitlines``, and
#: what else a blank line may hold. The writer's line form has none of them.
_SPACE = b"\t\v\f\r\x1c\x1d\x1e\x1f "

#: The weight of each digit of a piece of at most 15 digits, last digit
#: first: float64 sums of such pieces are exact integers below 2**53.
_POW10 = 10.0 ** np.arange(15)

#: The largest magnitude of each integer field (series_id, the six counts,
#: seed_used), in ``_MOST[0]`` without a "-" and in ``_MOST[1]`` with one:
#: its digits before the last 15, then its last 15, each a column of eight.
_MOST = np.array(
    [[divmod(most, 10**15) for most in row] for row in ((2**63 - 1, *[MAX_COUNT] * 6, 2**64 - 1), (2**63, *[0] * 7))],
    dtype=np.float64,
).transpose(0, 2, 1)[..., None]


def _blocks(data: bytes) -> Iterator[tuple[int, np.ndarray]]:
    """Blocks of ``_PARSE_CHUNK`` lines of ``data`` (fewer in the last): the
    offset of each block's first byte and of the last byte of each of its
    lines' ASCII line break, or ``len(data)`` for a last line without one.
    No block cuts a line or its "\\r\\n", so ``data[start:stops[-1] + 1]``
    splits into the block's share of ``data.splitlines()``; a break of
    U+0085, U+2028 or U+2029 does not end a block."""
    u = np.frombuffer(data, dtype=np.uint8)
    stops = u == ord("\n")  # the mask of line breaks, then their offsets
    breaks = bytes(filter(data.__contains__, b"\r\v\f\x1c\x1d\x1e"))  # the other ASCII breaks: none in the writer's form
    for byte in breaks:
        stops |= u == byte
    stops = np.flatnonzero(stops)
    if b"\r" in breaks:  # "\r\n" ends at "\n"
        stops = stops[(u[stops] != ord("\r")) | (np.take(u, stops + 1, mode="clip") != ord("\n"))]
    if not len(stops) or stops[-1] < len(data) - 1:
        stops = np.append(stops, len(data))
    for at in range(0, len(stops), _PARSE_CHUNK):
        yield int(stops[at - 1]) + 1 if at else 0, stops[at : at + _PARSE_CHUNK]


def _integers(u: np.ndarray, first: np.ndarray, end: np.ndarray, most: np.ndarray) -> np.ndarray | None:
    """The fields ``u[first:end]``, each an optional "-" and ASCII digits, as
    uint64 of the shape of ``first``, a negative value modulo 2**64; None for
    another byte, no digit, or a magnitude above ``most[sign]``, as in
    ``_MOST``. Only the last 20 bytes of a field are gathered, and those
    before must be 0s: a zero-padded field costs no array of its width."""
    shape, first, end = first.shape, first.ravel(), end.ravel()
    negative = np.take(u, first, mode="clip") == ord("-")
    if negative.any():
        first = first + negative
    widths = end - first
    if widths.min() < 1:
        return None
    width = int(widths.max())
    if width > 20:
        wide = np.flatnonzero(widths > 20)
        cuts = np.column_stack((first[wide], end[wide] - 20)).ravel()  # each wide field's bytes before its last 20
        if not np.logical_and.reduceat(u == ord("0"), cuts)[::2].all():
            return None
        first, width = np.maximum(first, end - 20), 20
    at = end - np.arange(width, 0, -1)[:, None]  # row j: the byte ``width - j`` before each field's end
    digits = np.take(u, at, mode="clip") - np.uint8(ord("0"))
    digits *= at >= first  # zero the bytes before the field
    if digits.max() > 9:
        return None
    digits = digits.astype(np.float64)
    low = np.dot(_POW10[min(width, 15) - 1 :: -1], digits[-15:]).reshape(shape)  # the last 15 digits
    high = (np.dot(_POW10[width - 16 :: -1], digits[:-15]) if width > 15 else np.zeros_like(low)).reshape(shape)
    del digits, at  # before the range check, which bounds the peak
    negative = negative.reshape(shape)
    most_high, most_low = np.where(negative, most[1], most[0]) if negative.any() else most[0]
    if ((high > most_high) | ((high == most_high) & (low > most_low))).any():
        return None
    values = high.astype(np.uint64) * np.uint64(10**15) + low.astype(np.uint64)
    return np.negative(values, out=values, where=negative)


def _writer_rows(u: np.ndarray, stops: np.ndarray, prefixes: dict[bytes, int], parsed: list) -> tuple | None:
    """The rows of a block in numpy array operations: each row's index into
    ``parsed``, its series_id and counts as int64 (7, rows), its seed_used as
    uint64. ``u`` holds the block's lines, none blank, joined by "\\n", and
    ``stops`` the offset of each one's end. None if a row breaks a rule: 11
    commas and no NUL; each integer field an optional "-" and ASCII digits,
    of any width, whose value fits its column (series_id int64, a count 0 to
    MAX_COUNT, seed_used 0 to 2**64 - 1); and a prefix, the text before the
    fourth comma, that ``_parse_prefix`` reads into ``parsed`` once."""
    n = len(stops)
    commas = np.flatnonzero(u == ord(","))
    if len(commas) != 11 * n or not u.all():
        return None
    # Row i takes commas 11 i to 11 i + 10. Should the first row with another
    # count have fewer, its seed_used ends before it starts; more, and its
    # seed_used holds a comma: the checks below refuse both.
    commas = commas.reshape(n, 11)
    starts = np.concatenate(([0], stops[:-1] + 1))
    bounds = np.vstack((commas[:, 3:].T, stops))  # the comma before each integer field, then the row's end
    first, end = bounds[:-1] + 1, bounds[1:]
    integers = _integers(u, first[:7], end[:7], _MOST[:, :, :7])
    seed_used = _integers(u, first[7:], end[7:], _MOST[:, :, 7:])  # apart: it has the most digits
    if integers is None or seed_used is None:
        return None
    width = -(-int((commas[:, 3] - starts).max()) // 8) * 8  # the longest prefix, in whole 8-byte words
    at = starts + np.arange(width)[:, None]  # row j: the byte j after each row's start
    keys = np.take(u, at, mode="clip")
    keys *= at < commas[:, 3]  # zero padding, which tells no two prefixes apart: none holds NUL
    keys = np.ascontiguousarray(keys.T)  # a row's prefix in its own bytes
    number, distinct = _first_seen(*keys.view(np.uint64).T)
    index = np.empty(len(distinct), dtype=np.intp)
    for i, text in enumerate(keys[distinct].view(f"S{width}").ravel().tolist()):
        if text not in prefixes:
            try:  # a non-ASCII byte fails to decode
                parsed.append(_parse_prefix(text.decode("ascii").split(",")))
            except ValueError:
                return None
            prefixes[text] = len(parsed) - 1
        index[i] = prefixes[text]
    return index[number], integers.view(np.int64), seed_used[0]


def read_dataset_csv(path: Path, config: ExperimentConfig) -> EventDataset:
    """The dataset a CSV holds, rows in file order, modelled by ``config``.

    Rejects, naming the line, a malformed row, an eta outside (0, 1], a
    non-finite phi_true, an integer outside its column's range, a negative
    count, a number the writer would not spell (whitespace, ``_`` or a
    non-ASCII character; in an integer field anything but ASCII digits after
    an optional ``-``) and a row whose (eta, probe, phi_true, series_id,
    setting) repeats by value.

    The file's bytes are cut into blocks of lines at every ASCII line break
    (``_blocks``), and ``_writer_rows`` turns every block into values with
    array operations on its bytes. A block in the writer's line form, ASCII
    without a byte of ``_SPACE`` or an empty line, is read as it stands. Any
    other block is first decoded, split with ``str.splitlines``, rid of its
    blank lines, whose numbers are kept, and rejoined with "\\n". A block
    ``_writer_rows`` refuses holds a bad row, which ``_check_row`` names.
    Repeated rows are sought once every line parses.
    """
    try:
        data = Path(path).read_bytes()
        if not data.isascii():
            data.decode("utf-8")  # an undecodable byte is named before any line
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read dataset {path}: {exc}") from exc
    if not data:
        raise ConfigError(f"{path}: empty dataset file")
    blocks = _blocks(data)
    start, stops = next(blocks)
    header = data[: stops[0] + 1].decode("utf-8").splitlines()[0].split(",")
    for got, expected in zip(header, DATASET_COLUMNS):
        if got != expected:
            raise ConfigError(f"{path}: expected column {expected!r}, found {got!r}")
    if len(header) != len(DATASET_COLUMNS):
        raise ConfigError(f"{path}: expected {len(DATASET_COLUMNS)} columns, found {len(header)}")
    prefixes: dict[bytes, int] = {}  # text of a row's first four fields -> index into parsed
    parsed = []  # (eta, probe, phi_true, setting) of each prefix text
    no_rows = (np.empty(0, np.intp), np.empty((7, 0), np.int64), np.empty(0, np.uint64))
    chunks = [no_rows]  # per block: prefix of each row, then series_id and counts, then seed_used
    blanks = []  # line numbers of the blank lines, ascending
    first_line = 2  # line number of the block's first row
    for start, stops in chain([(start, stops)], blocks):
        skip = int(start == 0)  # the header line
        block = data[start : stops[-1] + 1]
        if block.isascii() and not any(byte in block for byte in _SPACE) and np.diff(stops, prepend=start - 1).min() > 1:
            offset = int(stops[0]) + 1 if skip else start  # of the block's first row
            u, ends = np.frombuffer(block, dtype=np.uint8)[offset - start : stops[-1] - start], stops[skip:] - offset
            lines = len(ends)
        else:  # in another line form
            text = block.decode("utf-8").splitlines()[skip:]
            blanks += [line_no for line_no, line in enumerate(text, start=first_line) if not line.strip()]
            lines, text = len(text), "\n".join(line for line in text if line.strip()).encode()
            u = np.frombuffer(text, dtype=np.uint8)
            ends = np.append(np.flatnonzero(u == ord("\n")), len(u))
        rows = _writer_rows(u, ends, prefixes, parsed) if len(u) else no_rows  # no rows: the header or blank lines
        if rows is None:  # a bad row: the first is named
            for line_no, line in enumerate(block.decode("utf-8").splitlines()[skip:], start=first_line):
                try:
                    _check_row(line)
                except ValueError as exc:
                    raise ConfigError(f"{path}: line {line_no}: {exc}") from None
            raise RuntimeError(f"{path}: the rows from line {first_line} were refused, yet none breaks a row rule")
        chunks.append(rows)
        first_line += lines
    del data, stops  # before the columns are built, which bounds the peak
    prefix, integers, seed_used = (np.concatenate(parts, axis=-1) for parts in zip(*chunks))
    del chunks
    prefix = prefix.astype(np.intp)
    codes = np.array([(PROBES.index(p[1]), SETTINGS.index(p[3])) for p in parsed], dtype=np.int8).reshape(-1, 2)
    probe, setting = codes[prefix].T
    eta, phi_true = (np.array([p[k] for p in parsed], dtype=float)[prefix] for k in (0, 2))
    series_id, counts = integers[0].copy(), integers[1:].T.copy()
    del integers
    number, first = _first_seen(eta, probe, phi_true, setting, series_id)
    repeats = np.flatnonzero(first[number] != np.arange(len(number)))  # rows whose key an earlier row has
    if len(repeats):

        def line_of(row: int) -> int:
            line_no = int(row) + 2
            for blank in blanks:  # each blank line at or before it moves the row down a line
                line_no += blank <= line_no
            return line_no

        raise ConfigError(
            f"{path}: line {line_of(repeats[0])}: duplicates line {line_of(first[number[repeats[0]]])}"
            " (same eta, probe, phi_true, series_id and setting)"
        )
    return EventDataset(
        config=config,
        eta=eta,
        probe=probe,
        phi_true=phi_true,
        setting=setting,
        series_id=series_id,
        counts=counts,
        seed_used=seed_used,
    )


def cmd_simulate(args) -> None:
    values = _read_config(_read_text(args.config, "config"))
    if args.probe is not None:
        values["probe"] = ProbeKind(args.probe)
    if args.eta is not None:
        values["eta_list"] = (args.eta,)
    if args.seed is not None:
        values["seed"] = args.seed
    kwargs, include_cc = _assemble(values)
    config = ExperimentConfig(**kwargs)
    for name, values in (("eta_list", config.eta_list), ("phase_list", config.phase_list)):
        if len({float(_fmt(value)) for value in values}) < len(values):  # rows compare by printed value
            raise ValueError(f"{name} {values} repeats a value as the dataset prints it, at 12 significant digits")
    try:  # numpy refuses the campaign's arrays; the counts come before any design is resolved
        counts = campaign_counts(config)
        designs = probe_designs(config.probe_kind, config.eta_list, config.imperfections)
        dataset = run_campaign(config, designs, counts)
    except MemoryError as exc:
        raise ValueError(f"series {config.series_count}: {exc}") from None
    out_dir = _make_dir(Path(args.out_dir))
    dataset_path = out_dir / "dataset.csv"
    write_dataset_csv(dataset_path, dataset)
    _write_manifest(
        out_dir / "manifest.json",
        "simulate",
        _config_dict(config, include_cc),
        config.master_seed,
        [dataset_path],
        design=[_design_entry(config.probe_kind, eta, design) for eta, design in zip(config.eta_list, designs)],
    )


def _load_manifest(path: Path) -> tuple[dict, ExperimentConfig, bool, dict]:
    """A simulate manifest, the model configuration it records and its design
    entries by probe and by the eta text a dataset prints, each as (weights,
    quarter-setting DetectionConfig, index in the list). A missing design
    list, a missing, mistyped or non-finite value, weights the preparation
    network cannot make, a theta_d outside [0, 1] and two entries of one key
    raise ConfigError naming the key or the entries."""
    try:
        manifest = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ConfigError(f"manifest {path}: cannot read JSON: {exc}") from exc
    if not isinstance(manifest, dict) or not isinstance(manifest.get("config"), dict):
        raise ConfigError(f"manifest {path}: no 'config' object")
    try:
        config, include_cc = config_from_dict(manifest["config"])
    except ConfigError as exc:
        raise ConfigError(f"manifest {path}: {exc}") from exc
    except ValueError as exc:
        raise ConfigError(f"manifest {path}: invalid config: {exc}") from exc
    entries = manifest.get("design")
    if type(entries) is not list:
        raise ConfigError(f"manifest {path}: no 'design' list (a manifest written before simulate recorded its design)")
    designs: dict[tuple[ProbeKind, str], tuple] = {}
    for i, entry in enumerate(entries):
        name = f"manifest {path}: design[{i}]"
        if type(entry) is not dict:
            raise ConfigError(f"{name} must be an object, got {entry!r}")
        values = _load_fields(entry, _DESIGN_FIELDS.items(), name)
        key = (values["probe"], _fmt(values["eta"]))
        try:
            weights = ProbeWeights(values["x0"], values["x1"], values["x2"])
            solve_prep(weights)
            quarter = DetectionConfig(Setting.QUARTER, values["theta_d"], values["conditional_phase"])
        except ValueError as exc:
            raise ConfigError(f"{name} (probe={key[0].value} eta={key[1]}): {exc}") from None
        if key in designs:
            raise ConfigError(f"{name} repeats design[{designs[key][2]}] (probe={key[0].value} eta={key[1]})")
        designs[key] = (weights, quarter, i)
    return manifest, config, include_cc, designs


def cmd_estimate(args) -> None:
    if args.hist_bin is not None and not 0.0 < args.hist_bin < math.inf:
        raise ValueError(f"--hist-bin must be a positive finite width, got {args.hist_bin}")
    dataset_path = Path(args.dataset)
    manifest_path = Path(args.manifest) if args.manifest else dataset_path.parent / "manifest.json"
    if not manifest_path.exists():
        raise ConfigError(f"manifest {manifest_path} not found (needed for the model configuration)")
    manifest, config, include_cc, designs = _load_manifest(manifest_path)
    replayed = set()  # indices of the design entries used

    def replay(kind: ProbeKind, eta: float):
        key = (kind, _fmt(eta))
        if key not in designs:
            raise ConfigError(f"manifest {manifest_path}: no design entries for probe={kind.value} eta={key[1]}")
        weights, quarter, index = designs[key]
        replayed.add(index)
        return weights, quarter

    dataset = read_dataset_csv(dataset_path, config)
    estimates = estimate_dataset(dataset, include_cc=include_cc, design=replay)
    report = analyze(estimates)
    prefixes = _prefixes(dataset, estimates.row, with_setting=False)  # eta, probe and phi_true of each series
    hist_lines, histograms = [], []
    if args.hist_bin is not None:
        groups = estimates.groups()
        try:
            # MAX_BINS bounds the whole file: the spans of all groups, counted in bin widths
            if not sum(float(np.ptp(estimates.phi_hat[members])) for members in groups) <= MAX_BINS * args.hist_bin:
                raise ValueError(f"bin width {args.hist_bin!r} spans more than {MAX_BINS} bins over all groups")
            histograms = [(members, *histogram(estimates.phi_hat[members], args.hist_bin)) for members in groups]
        except ValueError as exc:
            raise ValueError(f"--hist-bin {args.hist_bin!r}: {exc}") from None
    for members, edges, counts in histograms:
        bins = (edges[:-1].tolist(), edges[1:].tolist(), counts.tolist())
        hist_lines += map("{}{:.12g},{:.12g},{}".format, repeat(prefixes[members[0]]), *bins)
    out_dir = _make_dir(Path(args.out_dir))
    estimates_path = out_dir / "estimates.csv"
    columns = (dataset.series_id[estimates.row], estimates.phi_hat, estimates.loglik, estimates.n_coinc)
    _write_lines(estimates_path, ESTIMATES_COLUMNS, _format_rows("{}{},{:.12g},{:.12g},{}", prefixes, columns))
    report_path = out_dir / "report.csv"
    rows = ((r.eta, r.probe.value, r.phi_true, r.mean, r.sigma, r.m_bar, r.sigma_scaled, r.crb) for r in report)
    _write_csv(report_path, REPORT_COLUMNS, rows)
    outputs = [estimates_path, report_path]
    if args.hist_bin is not None:
        hist_path = out_dir / "histograms.csv"
        _write_lines(hist_path, ("eta", "probe", "phi_true", "bin_left", "bin_right", "count"), hist_lines)
        outputs.append(hist_path)
    settings = {**manifest["config"], "dataset": str(dataset_path), "hist_bin": args.hist_bin}
    used = [entry for i, entry in enumerate(manifest["design"]) if i in replayed]
    _write_manifest(out_dir / "estimate.manifest.json", "estimate", settings, config.master_seed, outputs, design=used)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lossyphase",
        description="Lossy-phase estimation toolkit: precision bounds, fringe tables, "
        "Monte Carlo coincidence datasets and maximum-likelihood analysis.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("bounds", help="precision bounds and optimal weights over a transmission grid")
    p.add_argument("--eta-min", type=decimal, default=0.05)
    p.add_argument("--eta-max", type=decimal, default=1.0)
    p.add_argument("--steps", type=integer, default=39)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("fringes", help="coincidence fringes for one transmission and probe")
    p.add_argument("--eta", type=decimal, required=True)
    p.add_argument("--probe", choices=[k.value for k in ProbeKind], default="optimal")
    p.add_argument("--phi-steps", type=integer, default=201)
    p.add_argument("--counts", type=integer, default=None, help="emit multinomial counts at this rate instead of probabilities")
    p.add_argument("--seed", type=integer, default=None)
    ideal = ImperfectionParams()
    for key, attr in _IMPERFECTIONS.items():
        p.add_argument("--" + key.replace("_", "-"), type=_FIELDS[key][1].parse, default=getattr(ideal, attr))
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_fringes)

    p = sub.add_parser("simulate", help="run a Monte Carlo coincidence campaign from a config file")
    p.add_argument("--config", required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--probe", choices=[k.value for k in ProbeKind], default=None, help="override the config probe")
    p.add_argument("--eta", type=decimal, default=None, help="restrict to a single transmission")
    p.add_argument("--seed", type=integer, default=None, help="override the config seed")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("estimate", help="maximum-likelihood estimates and uncertainty report for a dataset")
    p.add_argument("--dataset", required=True)
    p.add_argument("--manifest", default=None, help="manifest path (default: manifest.json next to the dataset)")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--hist-bin", type=decimal, default=None, help="also emit phase-estimate histograms at this bin width")
    p.set_defaults(func=cmd_estimate)
    return parser


def main(argv=None) -> int:
    """Run one command; the only place that prints a diagnostic and picks the exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if getattr(args, "seed", None) is not None and args.seed < 0:  # before any work
            raise ValueError(f"--seed must be non-negative, got {args.seed}")
        args.func(args)
        return EXIT_OK
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except ValueError as exc:  # DegenerateLikelihoodError included
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except RuntimeError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


def run(argv=None) -> int:
    """The program entry: ``main``, then its heap frozen, so the collections of
    interpreter teardown skip it; ``atexit`` hooks and stream flushes still run."""
    try:
        return main(argv)
    finally:
        gc.freeze()


if __name__ == "__main__":
    sys.exit(run())
