"""Measurement stage: conditional phase, final splitter, coincidence labels,
classical Fisher information."""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .fock import (
    FockState,
    ModeTransform,
    apply_loss,
    apply_transform,
    basis,
    beam_splitter,
    outcome_probability,
    phase_shift,
)
from .golden import golden_section_max

#: Coincidence labels in canonical order. A and B are the interferometer
#: outputs, C is the loss counter.
LABELS = ("AA", "AB", "BB", "AC", "BC", "CC")
QUARTER_LABELS = ("AA", "AB", "BB")
HALF_LABELS = ("AC", "BC", "CC")

_TWO_PHOTON = ((2, 0), (1, 1), (0, 2))
_ONE_PHOTON = ((1, 0), (0, 1))

_FISHER_STEP = 1e-5


class Setting(Enum):
    """Measurement setting, named after its conditional phase."""

    QUARTER = "quarter"  # pi/4; data kept when no photon is lost
    HALF = "half"  # pi/2; data kept when the loss counter fires

    @property
    def conditional_phase(self) -> float:
        return math.pi / 4.0 if self is Setting.QUARTER else math.pi / 2.0

    @property
    def kept_labels(self) -> tuple[str, ...]:
        return QUARTER_LABELS if self is Setting.QUARTER else HALF_LABELS


@dataclass(frozen=True)
class DetectionConfig:
    """Final splitter transmission plus the conditional phase of a setting.

    ``conditional_phase`` overrides the setting's default; calibration runs
    (e.g. a Hong-Ou-Mandel check) use an explicit zero.
    """

    setting: Setting
    theta_d: float
    conditional_phase: float | None = None

    def __post_init__(self):
        if not 0.0 <= self.theta_d <= 1.0:
            raise ValueError(f"theta_d must be in [0, 1], got {self.theta_d}")
        if self.setting is Setting.HALF and abs(self.theta_d - 0.5) > 1e-12:
            raise ValueError("the half setting keeps a balanced final splitter")

    @property
    def phase_offset(self) -> float:
        if self.conditional_phase is not None:
            return self.conditional_phase
        return self.setting.conditional_phase


def _check_probe(probe: FockState) -> None:
    if probe.mode_count != 2 or not probe.normalized:
        raise ValueError("probe must be a normalized state on two modes")
    if any(sum(p) != 2 for p in probe.amplitudes):
        raise ValueError("probe must carry exactly two photons")


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


def _transfer(patterns, splitter: ModeTransform) -> np.ndarray:
    cols = []
    for pat in patterns:
        image = apply_transform(basis(pat), splitter)
        cols.append([image.amplitude(q) for q in patterns])
    return np.array(cols, dtype=complex).T


def _transfer_two_closed(theta: float) -> np.ndarray:
    """Two-photon transfer of the final splitter in the (|20>, |11>, |02>) basis.

    Closed form of _transfer(_TWO_PHOTON, beam_splitter(theta, 0, 1, 2)); kept
    for the inner loop of the transmission/phase optimizer.
    """
    t = math.sqrt(theta)
    r = math.sqrt(1.0 - theta)
    s2 = math.sqrt(2.0)
    return np.array(
        [
            [t * t, s2 * t * r, r * r],
            [-s2 * t * r, t * t - r * r, s2 * t * r],
            [r * r, -s2 * t * r, t * t],
        ],
        dtype=complex,
    )


@dataclass(frozen=True)
class OutcomeModel:
    """Vectorized phase-to-probability map for one detection configuration.

    Precomputes the loss branches and the splitter transfer so that
    ``probabilities`` evaluates on whole phase grids at once. Matches
    outcome_distribution exactly.
    """

    probe: FockState
    eta: float
    config: DetectionConfig
    single_photon_visibility: float = 1.0

    def __post_init__(self):
        _check_probe(self.probe)
        if not 0.0 <= self.single_photon_visibility <= 1.0:
            raise ValueError("visibility must be in [0, 1]")
        branch_by_l = {b.lost_count: b for b in apply_loss(self.probe, 0, self.eta)}
        two = np.zeros(3, dtype=complex)
        if 0 in branch_by_l:
            b = branch_by_l[0]
            scale = math.sqrt(b.probability)
            two = np.array([b.state.amplitude(p) for p in _TWO_PHOTON], dtype=complex) * scale
        one = np.zeros(2, dtype=complex)
        if 1 in branch_by_l:
            b = branch_by_l[1]
            scale = math.sqrt(b.probability)
            one = np.array([b.state.amplitude(p) for p in _ONE_PHOTON], dtype=complex) * scale
        p_cc = branch_by_l[2].probability if 2 in branch_by_l else 0.0
        splitter = beam_splitter(self.config.theta_d, 0, 1, 2)
        object.__setattr__(self, "_two", two)
        object.__setattr__(self, "_one", one)
        object.__setattr__(self, "_p_cc", float(p_cc))
        object.__setattr__(self, "_t2", _transfer(_TWO_PHOTON, splitter))
        object.__setattr__(self, "_t1", _transfer(_ONE_PHOTON, splitter))

    def probabilities(self, phi) -> np.ndarray:
        """Label probabilities with the last axis ordered as LABELS."""
        phi = np.asarray(phi, dtype=float)
        total = phi + self.config.phase_offset
        e1 = np.exp(1j * total)
        e2 = e1 * e1
        c20 = self._two[0] * e2
        c11 = self._two[1] * e1
        c02 = self._two[2] * np.ones_like(e1)
        t2 = self._t2
        paa = np.abs(t2[0, 0] * c20 + t2[0, 1] * c11 + t2[0, 2] * c02) ** 2
        pab = np.abs(t2[1, 0] * c20 + t2[1, 1] * c11 + t2[1, 2] * c02) ** 2
        pbb = np.abs(t2[2, 0] * c20 + t2[2, 1] * c11 + t2[2, 2] * c02) ** 2
        t1 = self._t1
        v = self.single_photon_visibility
        ua = t1[0, 0] * self._one[0] * e1
        va = t1[0, 1] * self._one[1] * np.ones_like(e1)
        pac = np.abs(ua) ** 2 + np.abs(va) ** 2 + 2.0 * v * np.real(ua * np.conj(va))
        ub = t1[1, 0] * self._one[0] * e1
        vb = t1[1, 1] * self._one[1] * np.ones_like(e1)
        pbc = np.abs(ub) ** 2 + np.abs(vb) ** 2 + 2.0 * v * np.real(ub * np.conj(vb))
        pcc = np.full_like(paa, self._p_cc)
        return np.stack([paa, pab, pbb, pac, pbc, pcc], axis=-1)


@dataclass(frozen=True)
class TwoSettingModel:
    """Postselected union of both settings: no-loss labels from the quarter
    setting, loss labels from the half setting. Sums to one at every phase."""

    quarter: OutcomeModel
    half: OutcomeModel

    def probabilities(self, phi) -> np.ndarray:
        q = self.quarter.probabilities(phi)
        h = self.half.probabilities(phi)
        return np.concatenate([q[..., :3], h[..., 3:]], axis=-1)


def classical_fisher(model, phi: float, step: float = _FISHER_STEP) -> float:
    """Fisher information of the label distribution at ``phi`` by central difference.

    Labels with vanishing probability and derivative are skipped; a vanishing
    probability with a nonzero derivative is flagged with a warning.
    """
    fn = model.probabilities
    p = np.asarray(fn(phi), dtype=float)
    d = (np.asarray(fn(phi + step), dtype=float) - np.asarray(fn(phi - step), dtype=float)) / (2.0 * step)
    info = 0.0
    for pk, dk in zip(p, d):
        if pk < 1e-12:
            if abs(dk) > 1e-8:
                warnings.warn("vanishing outcome probability with nonzero slope; contribution skipped")
            continue
        info += dk * dk / pk
    return float(info)


def _no_loss_amplitudes(probe: FockState, eta: float) -> np.ndarray:
    for branch in apply_loss(probe, 0, eta):
        if branch.lost_count == 0:
            scale = math.sqrt(branch.probability)
            return np.array([branch.state.amplitude(p) for p in _TWO_PHOTON], dtype=complex) * scale
    return np.zeros(3, dtype=complex)


def _no_loss_fisher(coeff: np.ndarray, theta: float, offset: float) -> float:
    """Fisher information of the no-loss labels at phi = 0, analytic derivative."""
    transfer = _transfer_two_closed(theta)
    harmonics = np.array([2.0, 1.0, 0.0])
    rotated = coeff * np.exp(1j * harmonics * offset)
    amp = transfer @ rotated
    damp = transfer @ (1j * harmonics * rotated)
    p = np.abs(amp) ** 2
    dp = 2.0 * np.real(np.conj(amp) * damp)
    mask = p > 1e-14
    return float(np.sum(dp[mask] ** 2 / p[mask]))


def optimize_theta_d(probe: FockState, eta: float) -> DetectionConfig:
    """Detection setting maximizing the no-loss-branch Fisher information at phi = 0.

    Probes without a |11> component keep the balanced splitter and the pi/4
    conditional phase, which saturate exactly. With a |11> component present, a
    single conditional phase cannot align the slopes of the one- and two-photon
    fringes simultaneously, so the transmission and the conditional phase are
    optimized jointly (nested bracketed golden-section searches); the optimum
    lands near, but not exactly at, pi/4.
    """
    _check_probe(probe)
    if abs(probe.amplitude((1, 1))) ** 2 < 1e-12:
        return DetectionConfig(Setting.QUARTER, 0.5)
    coeff = _no_loss_amplitudes(probe, eta)

    def best_theta(offset: float) -> tuple[float, float]:
        grid = np.linspace(0.01, 0.99, 50)
        values = [_no_loss_fisher(coeff, t, offset) for t in grid]
        i = int(np.argmax(values))
        return golden_section_max(
            lambda t: _no_loss_fisher(coeff, t, offset),
            grid[max(i - 1, 0)],
            grid[min(i + 1, len(grid) - 1)],
            tol=1e-9,
        )

    # (theta, offset) and (1 - theta, pi - offset) are mirror-equivalent optima;
    # searching offsets up to pi/2 keeps the representative nearest pi/4.
    offsets = np.linspace(0.0, math.pi / 2.0, 61)
    values = [best_theta(o)[1] for o in offsets]
    i = int(np.argmax(values))
    offset_best, _ = golden_section_max(
        lambda o: best_theta(o)[1],
        offsets[max(i - 1, 0)],
        offsets[min(i + 1, len(offsets) - 1)],
        tol=1e-8,
    )
    theta_best, _ = best_theta(offset_best)
    return DetectionConfig(Setting.QUARTER, float(theta_best), conditional_phase=float(offset_best))


def fringe_scan(
    probe: FockState,
    eta: float,
    quarter: DetectionConfig,
    half: DetectionConfig,
    phi_grid,
    single_photon_visibility: float = 1.0,
) -> dict[str, np.ndarray]:
    """Postselected fringe table over a phase grid.

    Emulates the two-setting protocol: AA/AB/BB sampled under the quarter
    setting, AC/BC/CC under the half setting.
    """
    phis = np.asarray(list(phi_grid), dtype=float)
    if phis.size == 0:
        raise ValueError("phase grid must be non-empty")
    model = TwoSettingModel(
        OutcomeModel(probe, eta, quarter, single_photon_visibility),
        OutcomeModel(probe, eta, half, single_photon_visibility),
    )
    probs = model.probabilities(phis)
    table = {"phi": phis}
    for k, label in enumerate(LABELS):
        table[label] = probs[..., k]
    return table
