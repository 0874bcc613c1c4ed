"""Parametric experimental non-idealities: fibre admixture, partial photon
distinguishability, reduced fringe visibility, multimode-coupler thinning."""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .detection import LABELS, DetectionConfig, OutcomeModel
from .fock import FockState


@dataclass(frozen=True)
class ImperfectionParams:
    """Imperfection knobs; the defaults are ideal values."""

    epsilon: float = 0.0  # weight of the symmetric |20>+|02> fibre admixture
    delta: float = 0.0  # fibre phase of the admixture, radians
    lambda_hom: float = 1.0  # two-photon indistinguishability (HOM dip depth)
    v_classical: float = 1.0  # single-photon fringe visibility

    def __post_init__(self):
        for f in fields(self):
            if not math.isfinite(getattr(self, f.name)):
                raise ValueError(f"{f.name} must be finite, got {getattr(self, f.name)}")
        for name in ("epsilon", "lambda_hom", "v_classical"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {v}")


def fibre_input(epsilon: float, delta: float = 0.0) -> FockState:
    """Two-photon state delivered by the fibre: mostly |11> plus a symmetric
    |20>+|02> admixture of weight epsilon and phase delta."""
    if not 0.0 <= epsilon <= 1.0:
        raise ValueError(f"epsilon must be in [0, 1], got {epsilon}")
    rot = np.exp(1j * delta) * math.sqrt(epsilon / 2.0)
    amps = {(1, 1): complex(math.sqrt(1.0 - epsilon)), (2, 0): rot, (0, 2): rot}
    return FockState(2, amps)


def build_model(probe: FockState, eta: float, config: DetectionConfig, params: ImperfectionParams) -> OutcomeModel:
    """Outcome model for one setting including distinguishability and visibility."""
    return OutcomeModel(probe, eta, config, single_photon_visibility=params.v_classical, lambda_hom=params.lambda_hom)


#: Per-event retention of the 50:50 fibre output couplers.
COUPLER_RETENTION = 0.5

#: Draw order of the thinning, as LABELS indices: same-counter labels, then
#: cross-counter labels.
_THINNING_ORDER = [LABELS.index(label) for label in ("AA", "BB", "CC", "AB", "AC", "BC")]


def apply_coupler_thinning(counts: list[int], rng: np.random.Generator) -> list[int]:
    """Thin same-counter events (coupler inefficiency), then thin cross-counter
    events equally (the compensating postprocessing). Net effect: every label
    is binomially thinned with the same retention, ``COUPLER_RETENTION``,
    leaving relative frequencies unbiased. Counts are in LABELS order, one
    scalar draw per label: one ``binomial`` call on all six gives the same
    draws, but costs more than six scalar calls."""
    binomial, out, retain = rng.binomial, list(counts), COUPLER_RETENTION
    for i in _THINNING_ORDER:
        out[i] = binomial(counts[i], retain)
    return out
