"""Measurement stage: conditional phase, final splitter, coincidence labels,
classical Fisher information."""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .fock import FockState, ModeTransform, apply_loss, apply_transform, basis, beam_splitter
from .golden import golden_section_max

#: Coincidence labels in canonical order. A and B are the interferometer
#: outputs, C is the loss counter.
LABELS = ("AA", "AB", "BB", "AC", "BC", "CC")
QUARTER_LABELS = ("AA", "AB", "BB")
HALF_LABELS = ("AC", "BC", "CC")

_TWO_PHOTON = ((2, 0), (1, 1), (0, 2))
_ONE_PHOTON = ((1, 0), (0, 1))


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


def classical_distribution(probe: FockState, eta: float, config: DetectionConfig) -> dict[str, float]:
    """Coincidence probabilities when the two photons traverse the network as
    independent classical particles.

    Each photon follows the intensity splitting ratios only, so nothing here
    depends on the phase: the distinguishable part of a mixture carries flat
    fringes.
    """
    if not 0.0 <= eta <= 1.0:
        raise ValueError(f"eta must be in [0, 1], got {eta}")
    theta = config.theta_d
    sensing = {"A": eta * theta, "B": eta * (1.0 - theta), "C": 1.0 - eta}
    reference = {"A": 1.0 - theta, "B": theta, "C": 0.0}
    out = {label: 0.0 for label in LABELS}
    for pattern, amp in probe.amplitudes.items():
        weight = abs(amp) ** 2
        routes = [sensing] * pattern[0] + [reference] * pattern[1]
        for d1 in "ABC":
            for d2 in "ABC":
                label = "".join(sorted(d1 + d2))
                out[label] += weight * routes[0][d1] * routes[1][d2]
    return out


def _transfer(patterns, splitter: ModeTransform) -> np.ndarray:
    """Transfer of ``splitter`` on the given patterns, through the Fock pipeline.

    OutcomeModel keeps this and not _transfer_two_closed: the two differ in the
    last bit for almost every theta, 0.5 included, and this rounding fixes the counts."""
    cols = []
    for pat in patterns:
        image = apply_transform(basis(pat), splitter)
        cols.append([image.amplitude(q) for q in patterns])
    return np.array(cols, dtype=complex).T


def _transfer_two_closed(theta) -> np.ndarray:
    """Two-photon transfer of the final splitter in the (|20>, |11>, |02>) basis,
    one 3 x 3 matrix per element of ``theta``, on the last two axes.

    Closed form of _transfer(_TWO_PHOTON, beam_splitter(theta, 0, 1, 2)); kept
    for the optimizer's objective, whose optimum depends on this rounding.
    """
    theta = np.asarray(theta, dtype=float)
    t = np.sqrt(theta)
    r = np.sqrt(1.0 - theta)
    tt, rr, tr = t * t, r * r, math.sqrt(2.0) * t * r
    entries = (tt, tr, rr, -tr, tt - rr, tr, rr, -tr, tt)
    return np.stack(entries, axis=-1).reshape(theta.shape + (3, 3)).astype(complex)


def _branch_amplitudes(probe: FockState, eta: float) -> list:
    """No-loss amplitudes on _TWO_PHOTON and one-loss amplitudes on _ONE_PHOTON, each
    scaled by the root of its branch probability, then the two-loss probability."""
    out = [np.zeros(3, dtype=complex), np.zeros(2, dtype=complex), 0.0]
    for b in apply_loss(probe, 0, eta):
        if b.lost_count == 2:
            out[2] = float(b.probability)
        else:
            patterns = (_TWO_PHOTON, _ONE_PHOTON)[b.lost_count]
            out[b.lost_count] = np.array([b.state.amplitude(p) for p in patterns], dtype=complex) * math.sqrt(b.probability)
    return out


@dataclass(frozen=True)
class OutcomeModel:
    """Vectorized phase-to-probability map for one detection configuration.

    Precomputes the loss branches and the splitter transfer so that
    ``probabilities`` evaluates on whole phase grids at once. It mixes the
    per-phase Fock pipeline (``outcome_distribution`` of the test oracles,
    matched exactly) with weight ``1 - lambda_hom`` of classical_distribution.
    """

    probe: FockState
    eta: float
    config: DetectionConfig
    single_photon_visibility: float = 1.0
    lambda_hom: float = 1.0

    def __post_init__(self):
        _check_probe(self.probe)
        if not 0.0 <= self.single_photon_visibility <= 1.0:
            raise ValueError("visibility must be in [0, 1]")
        if not 0.0 <= self.lambda_hom <= 1.0:
            raise ValueError(f"lambda_hom must be in [0, 1], got {self.lambda_hom}")
        two, one, p_cc = _branch_amplitudes(self.probe, self.eta)
        classical = classical_distribution(self.probe, self.eta, self.config)
        splitter = beam_splitter(self.config.theta_d, 0, 1, 2)
        object.__setattr__(self, "_two", two)
        object.__setattr__(self, "_one", one)
        object.__setattr__(self, "_p_cc", p_cc)
        object.__setattr__(self, "_classical", np.array([classical[label] for label in LABELS], dtype=float))
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
        q = np.stack([paa, pab, pbb, pac, pbc, pcc], axis=-1)
        return self.lambda_hom * q + (1.0 - self.lambda_hom) * self._classical


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


def _no_loss_fisher(coeff: np.ndarray, theta, offset):
    """Fisher information of the no-loss labels at phi = 0, analytic derivative,
    elementwise over the broadcast ``theta`` and ``offset``: the objective of
    optimize_theta_d, kept apart from classical_fisher because its golden
    searches break last-bit ties, so another rounding moves theta_d. Each
    element is rounded as a lone scalar evaluation would be."""
    transfer = _transfer_two_closed(theta)
    harmonics = np.array([2.0, 1.0, 0.0])
    rotated = coeff * np.exp(1j * harmonics * np.asarray(offset, dtype=float)[..., None])
    amp = (transfer @ rotated[..., None])[..., 0]
    damp = (transfer @ (1j * harmonics * rotated)[..., None])[..., 0]
    p = np.abs(amp) ** 2
    dp = 2.0 * np.real(np.conj(amp) * damp)
    terms = np.divide(dp**2, p, out=np.zeros(p.shape), where=p > 1e-14)
    return terms[..., 0] + terms[..., 1] + terms[..., 2]


#: Final-splitter transmissions scanned to bracket each theta_d search.
_THETA_GRID = np.linspace(0.01, 0.99, 50)


def optimize_theta_d(probe: FockState, eta: float) -> DetectionConfig:
    """Detection setting maximizing the no-loss-branch Fisher information at phi = 0.

    Probes without a |11> component keep the balanced splitter and the pi/4
    conditional phase, which saturate exactly. With a |11> component present, a
    single conditional phase cannot align the slopes of the one- and two-photon
    fringes simultaneously, so the transmission and the conditional phase are
    optimized jointly (nested bracketed golden-section searches); the optimum
    lands near, but not exactly at, pi/4. The theta searches of all scanned
    offsets run as lanes of one search, and so do those of the offsets that
    the next golden steps of the offset search can visit.
    """
    _check_probe(probe)
    if abs(probe.amplitude((1, 1))) ** 2 < 1e-12:
        return DetectionConfig(Setting.QUARTER, 0.5)
    coeff = _branch_amplitudes(probe, eta)[0]

    def best_theta(offset):
        # one lane per element of offset, bracketed by the best grid point's neighbours
        offset = np.asarray(offset, dtype=float)
        i = np.argmax(_no_loss_fisher(coeff, _THETA_GRID, offset[..., None]), axis=-1)
        return golden_section_max(
            lambda t: _no_loss_fisher(coeff, t, offset),
            _THETA_GRID[np.maximum(i - 1, 0)],
            _THETA_GRID[np.minimum(i + 1, len(_THETA_GRID) - 1)],
            tol=1e-9,
        )

    # (theta, offset) and (1 - theta, pi - offset) are mirror-equivalent optima;
    # searching offsets up to pi/2 keeps the representative nearest pi/4.
    offsets = np.linspace(0.0, math.pi / 2.0, 61)
    i = int(np.argmax(best_theta(offsets)[1]))
    offset_best, _ = golden_section_max(
        lambda o: best_theta(o)[1],
        offsets[max(i - 1, 0)],
        offsets[min(i + 1, len(offsets) - 1)],
        tol=1e-8,
    )
    theta_best, _ = best_theta(offset_best)
    return DetectionConfig(Setting.QUARTER, theta_best, conditional_phase=offset_best)

