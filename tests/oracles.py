"""Helpers that no command runs, kept as test oracles: the config parser
without a file, the distinguishability mixture written out per label, the
per-phase Fock pipeline of the coincidence labels with its phase shift and
outcome probability, the numerically optimized standard interferometric
limit and the peak search of one chunk of likelihood rows."""

import math

import numpy as np

from lossyphase.cli import _assemble, _read_config
from lossyphase.detection import LABELS, DetectionConfig, _check_probe
from lossyphase.estimator import _peaks
from lossyphase.fock import FockState, ModeTransform, apply_loss, apply_transform, beam_splitter
from lossyphase.golden import golden_section_max


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


def _coherent_fisher(tau: float, eta: float, n_photons: float) -> float:
    # Two-beam coherent-light Fisher information at input splitting ratio tau.
    return 4.0 * n_photons / (1.0 / (eta * tau) + 1.0 / (1.0 - tau))


def sil_precision_numeric(eta: float, n_photons: float = 2.0, tol: float = 1e-10) -> float:
    """SIL via golden-section maximization of the splitting-ratio Fisher information."""
    if not 0.0 < eta <= 1.0:
        raise ValueError(f"eta must be in (0, 1], got {eta}")
    if n_photons <= 0.0:
        raise ValueError("photon number must be positive")
    _, f_best = golden_section_max(lambda tau: _coherent_fisher(tau, eta, n_photons), 1e-9, 1.0 - 1e-9, tol=tol)
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
