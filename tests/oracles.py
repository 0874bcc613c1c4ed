"""Helpers that no command runs, kept as test oracles: the Fock probe state
and the lossy quantum Fisher information summed over its Fock loss branches,
which the closed form of ``bounds`` is tested against, the config parser
without a file, the distinguishability mixture written out per label, the
per-phase Fock pipeline of the coincidence labels with its phase shift and
outcome probability, the classical Fisher information of the two-setting
measurement (the phase-local bound of the acceptance gate), the numerically
optimized standard interferometric limit, the peak search of one chunk of
likelihood rows, the one-probe theta_d optimizer with its float look-ahead
golden search, and the dataset reader that reads every row with the row
routine, which the byte parser of ``cli`` is tested against."""

import math
from pathlib import Path

import numpy as np

from lossyphase.bounds import ProbeWeights
from lossyphase.cli import DATASET_COLUMNS, MAX_COUNT, ConfigError, _assemble, _is_integer, _parse_prefix, _read_config
from lossyphase.detection import LABELS, DetectionConfig, Setting, _branch_amplitudes, _check_probe
from lossyphase.estimator import _first_seen, _peaks
from lossyphase.fock import FockState, ModeTransform, apply_loss, apply_transform, beam_splitter
from lossyphase.golden import golden_section_max
from lossyphase.montecarlo import PROBES, SETTINGS, EventDataset, ExperimentConfig


def probe_state(weights: ProbeWeights) -> FockState:
    """Probe sqrt(x2)|20> + sqrt(x1)|11> - sqrt(x0)|02> on (sensing, reference)."""
    amps = {
        (2, 0): math.sqrt(weights.x2),
        (1, 1): math.sqrt(weights.x1),
        (0, 2): -math.sqrt(weights.x0),
    }
    return FockState(2, amps)


def qfi_pure(state: FockState) -> float:
    """Quantum Fisher information of a pure state for a phase on the sensing
    mode, mode 0: four times its photon-number variance."""
    if not state.normalized:
        raise ValueError("quantum Fisher information of a pure state needs a normalized input")
    mean = 0.0
    second = 0.0
    for pattern, amp in state.amplitudes.items():
        p = abs(amp) ** 2
        n = pattern[0]
        mean += p * n
        second += p * n * n
    return 4.0 * (second - mean * mean)


def fock_qfi_lossy(weights: ProbeWeights, eta: float) -> float:
    """Lossy quantum Fisher information of the probe from its Fock loss
    branches: they are distinguishable by total photon number, so the total is
    the branch-probability-weighted sum of the pure-state terms."""
    return float(sum(b.probability * qfi_pure(b.state) for b in apply_loss(probe_state(weights), 0, eta)))


def parse_config(text: str) -> tuple[dict, bool]:
    """Parse key=value configuration text into run_campaign keyword arguments
    plus the include_cc estimation toggle."""
    return _assemble(_read_config(text))


def degrade_distribution(ideal: dict[str, float], distinguishable: dict[str, float], lambda_hom: float) -> dict[str, float]:
    """Convex mixture of the interfering and classically-routed distributions."""
    if not 0.0 <= lambda_hom <= 1.0:
        raise ValueError(f"lambda_hom must be in [0, 1], got {lambda_hom}")
    for name, dist in (("ideal", ideal), ("distinguishable", distinguishable)):
        total = sum(dist.get(label, 0.0) for label in LABELS)
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"{name} distribution is not normalized (sum {total})")
    return {
        label: lambda_hom * ideal.get(label, 0.0) + (1.0 - lambda_hom) * distinguishable.get(label, 0.0)
        for label in LABELS
    }


def outcome_distribution(
    probe: FockState,
    eta: float,
    phi: float,
    config: DetectionConfig,
    single_photon_visibility: float = 1.0,
) -> dict[str, float]:
    """Probabilities of the six coincidence labels at phase ``phi``.

    Pipeline: loss on the sensing arm routes photons to counter C; the phase
    plus the setting's conditional phase acts on the sensing arm; the arms
    interfere on the final splitter; A and B read the outputs.
    ``single_photon_visibility`` scales the interference term of the
    one-photon branch (ideal fringe contrast is 1).
    """
    _check_probe(probe)
    v = single_photon_visibility
    if not 0.0 <= v <= 1.0:
        raise ValueError("visibility must be in [0, 1]")
    offset = config.phase_offset
    splitter = beam_splitter(config.theta_d, 0, 1, 2)
    out = {label: 0.0 for label in LABELS}
    for branch in apply_loss(probe, 0, eta):
        shift = phase_shift(phi + offset, 0, 2)
        if branch.lost_count == 0:
            final = apply_transform(apply_transform(branch.state, shift), splitter)
            out["AA"] += branch.probability * outcome_probability(final, (2, 0))
            out["AB"] += branch.probability * outcome_probability(final, (1, 1))
            out["BB"] += branch.probability * outcome_probability(final, (0, 2))
        elif branch.lost_count == 1:
            final = apply_transform(apply_transform(branch.state, shift), splitter)
            pa = outcome_probability(final, (1, 0))
            pb = outcome_probability(final, (0, 1))
            # incoherent counterpart: drop the cross term entirely
            a2 = abs(branch.state.amplitude((1, 0))) ** 2
            b2 = abs(branch.state.amplitude((0, 1))) ** 2
            pa_inc = config.theta_d * a2 + (1.0 - config.theta_d) * b2
            pb_inc = (1.0 - config.theta_d) * a2 + config.theta_d * b2
            out["AC"] += branch.probability * (v * pa + (1.0 - v) * pa_inc)
            out["BC"] += branch.probability * (v * pb + (1.0 - v) * pb_inc)
        else:
            out["CC"] += branch.probability
    return out


#: Offsets u_k = 2 pi k / 5 and weights of the exact slope: a degree-2 trigonometric
#: polynomial f has f'(0) = 0.4 sum_k f(u_k) (sin u_k + 2 sin 2u_k).
_NODES = 2.0 * math.pi * np.arange(5) / 5.0
_SLOPE_WEIGHTS = 0.4 * (np.sin(_NODES) + 2.0 * np.sin(2.0 * _NODES))


def classical_fisher(models, phi: float) -> float:
    """Fisher information at ``phi`` of ``models``, one OutcomeModel per Setting,
    each scored on its kept labels; labels with probability below 1e-12 are skipped.

    Every label probability is a trigonometric polynomial of degree 2 in phi,
    so the five samples at ``phi + _NODES`` give its slope exactly."""
    info = 0.0
    for setting, model in models.items():
        p = model.probabilities(phi + _NODES)[:, [LABELS.index(label) for label in setting.kept_labels]]
        slope = _SLOPE_WEIGHTS @ p
        live = p[0] >= 1e-12
        info += float(np.sum(slope[live] ** 2 / p[0, live]))
    return info


def _coherent_fisher(tau: float, eta: float, n_photons: float) -> float:
    # Two-beam coherent-light Fisher information at input splitting ratio tau.
    return 4.0 * n_photons / (1.0 / (eta * tau) + 1.0 / (1.0 - tau))


def sil_precision_numeric(eta: float, n_photons: float = 2.0, tol: float = 1e-10) -> float:
    """SIL via golden-section maximization of the splitting-ratio Fisher information."""
    if not 0.0 < eta <= 1.0:
        raise ValueError(f"eta must be in (0, 1], got {eta}")
    if n_photons <= 0.0:
        raise ValueError("photon number must be positive")
    _, f_best = golden_section_max(
        lambda tau: _coherent_fisher(tau, eta, n_photons), 1e-9, 1.0 - 1e-9, tol=tol, depth=1
    )
    return 1.0 / math.sqrt(f_best)


def phase_shift(phase: float, mode: int, mode_count: int) -> ModeTransform:
    """Phase e^{i phase} on one mode, identity elsewhere."""
    if not 0 <= mode < mode_count:
        raise ValueError(f"mode index {mode} out of range for {mode_count} modes")
    mat = np.eye(mode_count, dtype=complex)
    mat[mode, mode] = np.exp(1j * phase)
    return ModeTransform(mode_count, mat)


def outcome_probability(state: FockState, pattern) -> float:
    """Probability of the projective photon-count outcome ``pattern``."""
    pat = tuple(int(n) for n in pattern)
    if len(pat) != state.mode_count:
        raise ValueError(f"pattern length {len(pat)} does not match mode count {state.mode_count}")
    return float(abs(state.amplitudes.get(pat, 0j)) ** 2)


def _best_phis(phis: np.ndarray, rows: np.ndarray, step: float):
    """``_peaks`` of ``rows`` as one chunk."""
    return _peaks(phis, step, [rows], lambda i: rows[i].min())


_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0

#: Steps the float-bracket search of lookahead_golden_section_max takes per call of fn.
_LOOKAHEAD = 5


def lookahead_golden_section_max(fn, lo, hi, tol: float = 1e-10):
    """The golden search the one-probe optimizer ran: equal-shape array
    brackets step lane by lane, one point per lane per call of fn; a float
    bracket runs the scalar search on Python floats, evaluating the 31 points
    of its next five steps in one call of fn on a 1-D array."""
    a, b = np.array(lo, dtype=float), np.array(hi, dtype=float)
    if a.ndim == 0:
        return _float_lookahead_search(fn, float(a), float(b), tol)
    c = b - _INV_PHI * (b - a)
    d = a + _INV_PHI * (b - a)
    fc, fd = fn(c), fn(d)
    live = (b - a) > tol
    while live.any():
        left = fc >= fd
        keep_left, keep_right = live & left, live & ~left
        a, b = np.where(keep_right, c, a), np.where(keep_left, d, b)
        c, d = np.where(keep_right, d, c), np.where(keep_left, c, d)
        fc, fd = np.where(keep_right, fd, fc), np.where(keep_left, fc, fd)
        width = b - a
        x = np.where(left, b - _INV_PHI * width, a + _INV_PHI * width)
        fx = fn(x)
        c, fc = np.where(keep_left, x, c), np.where(keep_left, fx, fc)
        d, fd = np.where(keep_right, x, d), np.where(keep_right, fx, fd)
        live = width > tol
    x = 0.5 * (a + b)
    return x, fn(x)


def _float_lookahead_search(fn, a: float, b: float, tol: float) -> tuple[float, float]:
    c = b - _INV_PHI * (b - a)
    d = a + _INV_PHI * (b - a)
    fc, fd = np.asarray(fn(np.array([c, d])), dtype=float).tolist()
    left = fc >= fd
    while True:
        # node k steps from its parent's bracket; children 2k + 1 and 2k + 2 keep the left and right part
        nodes = []
        for k in range(2**_LOOKAHEAD - 1):
            if k:
                (pa, pb, pc, pd), go_left = nodes[(k - 1) // 2][0], k % 2 == 1
            else:
                (pa, pb, pc, pd), go_left = (a, b, c, d), left
            if not (pb - pa) > tol:
                nodes.append(((pa, pb, pc, pd), 0.5 * (pa + pb)))
            elif go_left:
                x = pd - _INV_PHI * (pd - pa)
                nodes.append(((pa, pd, x, pc), x))
            else:
                x = pc + _INV_PHI * (pb - pc)
                nodes.append(((pc, pb, pd, x), x))
        values = np.asarray(fn(np.array([x for _, x in nodes])), dtype=float).tolist()
        k = 0
        for _ in range(_LOOKAHEAD):
            if not (b - a) > tol:
                return nodes[k][1], values[k]
            (a, b, c, d), fx = nodes[k][0], values[k]
            fc, fd = (fx, fc) if left else (fd, fx)
            left = fc >= fd
            k = 2 * k + (1 if left else 2)


def _transfer_two_stacked(theta) -> np.ndarray:
    theta = np.asarray(theta, dtype=float)
    t = np.sqrt(theta)
    r = np.sqrt(1.0 - theta)
    tt, rr, tr = t * t, r * r, math.sqrt(2.0) * t * r
    entries = (tt, tr, rr, -tr, tt - rr, tr, rr, -tr, tt)
    return np.stack(entries, axis=-1).reshape(theta.shape + (3, 3)).astype(complex)


def offset_no_loss_fisher(coeff: np.ndarray, theta, offset):
    """The theta_d objective over broadcast ``theta`` and ``offset``, rotating
    the no-loss amplitudes ``coeff`` at every call."""
    transfer = _transfer_two_stacked(theta)
    harmonics = np.array([2.0, 1.0, 0.0])
    rotated = coeff * np.exp(1j * harmonics * np.asarray(offset, dtype=float)[..., None])
    amp = (transfer @ rotated[..., None])[..., 0]
    damp = (transfer @ (1j * harmonics * rotated)[..., None])[..., 0]
    p = np.abs(amp) ** 2
    dp = 2.0 * np.real(np.conj(amp) * damp)
    terms = np.divide(dp**2, p, out=np.zeros(p.shape), where=p > 1e-14)
    return terms[..., 0] + terms[..., 1] + terms[..., 2]


_THETA_GRID = np.linspace(0.01, 0.99, 50)


def one_probe_theta_d(probe: FockState, eta: float) -> DetectionConfig:
    """theta_d and the conditional phase of one probe, by the nested searches
    one probe at a time: the theta searches at the 61 scanned offsets as
    lanes, then the offset search on a float bracket, five steps per call,
    and the theta search again at the chosen offset."""
    _check_probe(probe)
    if abs(probe.amplitude((1, 1))) ** 2 < 1e-12:
        return DetectionConfig(Setting.QUARTER, 0.5)
    coeff = _branch_amplitudes(probe, eta)[0]

    def best_theta(offset):
        offset = np.asarray(offset, dtype=float)
        i = np.argmax(offset_no_loss_fisher(coeff, _THETA_GRID, offset[..., None]), axis=-1)
        return lookahead_golden_section_max(
            lambda t: offset_no_loss_fisher(coeff, t, offset),
            _THETA_GRID[np.maximum(i - 1, 0)],
            _THETA_GRID[np.minimum(i + 1, len(_THETA_GRID) - 1)],
            tol=1e-9,
        )

    offsets = np.linspace(0.0, math.pi / 2.0, 61)
    i = int(np.argmax(best_theta(offsets)[1]))
    offset_best, _ = lookahead_golden_section_max(
        lambda o: best_theta(o)[1], offsets[max(i - 1, 0)], offsets[min(i + 1, len(offsets) - 1)], tol=1e-8
    )
    theta_best, _ = best_theta(offset_best)
    return DetectionConfig(Setting.QUARTER, theta_best, conditional_phase=offset_best)


def _is_blank(line: str) -> bool:
    return not line or line.isspace()


def _parse_rows(lines: list[str], prefixes: dict[str, int], parsed: list) -> tuple:
    """The rows of ``lines``, blank ones skipped: each row's index into
    ``parsed``, its series_id and counts as int64 (7, rows), its seed_used as
    uint64. A prefix text met first is parsed into ``parsed`` and indexed in
    ``prefixes``. Every row rule raises ValueError here; for one line, its
    message is the line's diagnostic."""
    rows, integers = [], []
    for line in lines:
        parts = line.rsplit(",", 8)  # the prefix text and the eight integer fields
        prefix = prefixes.get(parts[0])
        if prefix is None:
            if _is_blank(line):
                continue
            fields_ = parts[0].split(",")
            if len(parts) != 9 or len(fields_) != 4:
                raise ValueError(f"expected {len(DATASET_COLUMNS)} fields")
            parsed.append(_parse_prefix(fields_))
            prefix = prefixes[parts[0]] = len(parsed) - 1
        rows.append(prefix)
        integers += parts[1:]
    try:  # ASCII digits and a leading "-" only: int would also read whitespace, "_", "+" and other digits
        if ",".join(integers).encode("ascii").translate(None, b"0123456789,-"):
            raise ValueError
        columns = [list(map(int, integers[k::8])) for k in range(8)]
    except ValueError:  # also a non-ASCII character, a misplaced "-" or more digits than int reads
        for i, text in enumerate(integers):
            if not _is_integer(text):
                raise ValueError(f"{DATASET_COLUMNS[4 + i % 8]} must be an integer of ASCII digits, got {text!r}") from None
        raise ValueError("series_id, a count or seed_used is out of range") from None
    lowest = [min(column, default=0) for column in columns[1:7]]
    if min(lowest) < 0:
        raise ValueError(f"{DATASET_COLUMNS[5 + lowest.index(min(lowest))]} must be non-negative, got {min(lowest)}")
    highest = [max(column, default=0) for column in columns[1:7]]
    if max(highest) > MAX_COUNT:
        raise ValueError(f"{DATASET_COLUMNS[5 + highest.index(max(highest))]} must be at most 2**49, got {max(highest)}")
    try:
        return rows, np.array(columns[:7], dtype=np.int64), np.array(columns[7], dtype=np.uint64)
    except OverflowError:
        raise ValueError("series_id, a count or seed_used is out of range") from None


def read_dataset_rows(path: Path, config: ExperimentConfig) -> EventDataset:
    """The dataset a CSV holds as ``cli.read_dataset_csv`` reads it, from the
    file's text: decoded, split with ``str.splitlines`` and read by the row
    routine ``_parse_rows``, which checks every row at once and, when they
    fail, one line at a time to name the first bad line. Raises ConfigError
    with the diagnostics of ``read_dataset_csv``, but for an integer field
    of more characters than ``int`` reads, which it finds out of range."""
    try:
        text = Path(path).read_bytes().decode("utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read dataset {path}: {exc}") from exc
    if not text:
        raise ConfigError(f"{path}: empty dataset file")
    header, *lines = text.splitlines()
    header = header.split(",")
    for got, expected in zip(header, DATASET_COLUMNS):
        if got != expected:
            raise ConfigError(f"{path}: expected column {expected!r}, found {got!r}")
    if len(header) != len(DATASET_COLUMNS):
        raise ConfigError(f"{path}: expected {len(DATASET_COLUMNS)} columns, found {len(header)}")
    parsed = []  # (eta, probe, phi_true, setting) of each prefix text
    try:
        rows, integers, seed_used = _parse_rows(lines, {}, parsed)
    except ValueError:
        for line_no, line in enumerate(lines, start=2):
            try:
                _parse_rows([line], {}, [])
            except ValueError as exc:
                raise ConfigError(f"{path}: line {line_no}: {exc}") from None
        raise
    prefix = np.array(rows, dtype=np.intp)
    codes = np.array([(PROBES.index(p[1]), SETTINGS.index(p[3])) for p in parsed], dtype=np.int8).reshape(-1, 2)
    probe, setting = codes[prefix].T
    eta, phi_true = (np.array([p[k] for p in parsed], dtype=float)[prefix] for k in (0, 2))
    series_id, counts = integers[0].copy(), integers[1:].T.copy()
    number, first = _first_seen(eta, probe, phi_true, setting, series_id)
    repeats = np.flatnonzero(first[number] != np.arange(len(number)))  # rows whose key an earlier row has
    if len(repeats):
        line_of = [line_no for line_no, line in enumerate(lines, start=2) if not _is_blank(line)]  # by row
        raise ConfigError(
            f"{path}: line {line_of[repeats[0]]}: duplicates line {line_of[first[number[repeats[0]]]]}"
            " (same eta, probe, phi_true, series_id and setting)"
        )
    return EventDataset(config, eta, probe, phi_true, setting, series_id, counts, seed_used)
