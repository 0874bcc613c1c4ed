"""Fisher-information bounds and optimal two-photon probe weights under loss."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .fock import FockState, apply_loss
from .golden import golden_section_max

SIMPLEX_TOL = 1e-12

#: Simplex scan resolution used by the weight optimizer.
GRID_STEP = 1e-3

#: Simplex points per block of the weight scan, few enough that the
#: temporaries of one ``_qfi_surface`` pass stay in cache.
SCAN_BLOCK = 16384


@dataclass(frozen=True)
class ProbeWeights:
    """Simplex point weighting the |02>, |11> and |20> probe components."""

    x0: float
    x1: float
    x2: float

    def __post_init__(self):
        vals = {}
        for name in ("x0", "x1", "x2"):
            v = float(getattr(self, name))
            if v < -SIMPLEX_TOL:
                raise ValueError(f"{name} must be non-negative, got {v}")
            vals[name] = max(v, 0.0)
        if abs(vals["x0"] + vals["x1"] + vals["x2"] - 1.0) > SIMPLEX_TOL:
            raise ValueError("weights must sum to one")
        for name, v in vals.items():
            object.__setattr__(self, name, v)

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.x0, self.x1, self.x2)


#: Weights of the two-photon N00N state.
NOON_WEIGHTS = ProbeWeights(0.5, 0.0, 0.5)


def probe_state(weights: ProbeWeights) -> FockState:
    """Probe sqrt(x2)|20> + sqrt(x1)|11> - sqrt(x0)|02> on (sensing, reference)."""
    amps = {
        (2, 0): math.sqrt(weights.x2),
        (1, 1): math.sqrt(weights.x1),
        (0, 2): -math.sqrt(weights.x0),
    }
    return FockState(2, amps)


def qfi_pure(state: FockState, sensing_mode: int = 0) -> float:
    """Quantum Fisher information of a pure state for a phase on one mode.

    Equals four times the photon-number variance in the sensing mode.
    """
    if not state.normalized:
        raise ValueError("quantum Fisher information of a pure state needs a normalized input")
    mean = 0.0
    second = 0.0
    for pattern, amp in state.amplitudes.items():
        p = abs(amp) ** 2
        n = pattern[sensing_mode]
        mean += p * n
        second += p * n * n
    return 4.0 * (second - mean * mean)


def qfi_lossy(weights: ProbeWeights, eta: float) -> float:
    """Fisher information for the three-component probe after loss.

    Loss branches are distinguishable by total photon number, so the total is
    the branch-probability-weighted sum of the pure-state terms.
    """
    if not 0.0 <= eta <= 1.0:
        raise ValueError(f"eta must be in [0, 1], got {eta}")
    state = probe_state(weights)
    return float(
        sum(b.probability * qfi_pure(b.state) for b in apply_loss(state, 0, eta))
    )


def _qfi_surface(x0, x1, x2, eta: float):
    """Closed-form qfi_lossy over weight arrays; used for dense scanning."""
    a2 = eta * eta * x2
    a1 = eta * x1
    p0 = a2 + a1 + x0
    b1 = 2.0 * eta * (1.0 - eta) * x2
    b0 = (1.0 - eta) * x1
    p1 = b1 + b0
    mean0 = 2.0 * a2 + a1
    sec0 = 4.0 * a2 + a1
    term0 = 4.0 * (sec0 - np.divide(mean0 * mean0, p0, out=np.zeros_like(p0 + 0.0), where=p0 > 0))
    term1 = 4.0 * np.divide(b1 * b0, p1, out=np.zeros_like(p1 + 0.0), where=p1 > 0)
    return term0 + term1


def _polish(x0: float, x1: float, eta: float) -> tuple[float, float, float]:
    """Local pattern search on the simplex, refining the grid maximizer."""

    def value(a: float, b: float) -> float:
        if a < 0 or b < 0 or a + b > 1.0:
            return -math.inf
        return float(_qfi_surface(np.float64(a), np.float64(b), np.float64(1.0 - a - b), eta))

    best = value(x0, x1)
    step = GRID_STEP
    while step > 1e-11:
        moved = False
        for da, db in ((step, 0.0), (-step, 0.0), (0.0, step), (0.0, -step),
                       (step, -step), (-step, step), (step, step), (-step, -step)):
            cand = value(x0 + da, x1 + db)
            if cand > best:
                best, x0, x1 = cand, x0 + da, x1 + db
                moved = True
        if not moved:
            step *= 0.5
    return x0, x1, best


@lru_cache(maxsize=1)
def _simplex_grid() -> tuple[np.ndarray, ...]:
    """Read-only x0, x1, x2 of the GRID_STEP lattice points on the simplex;
    they do not depend on eta, so a process builds them once."""
    vals = np.arange(0.0, 1.0 + GRID_STEP / 2.0, GRID_STEP)
    g0, g1 = np.meshgrid(vals, vals, indexing="ij")
    mask = g0 + g1 <= 1.0 + SIMPLEX_TOL
    grid = (g0[mask], g1[mask], np.clip(1.0 - g0[mask] - g1[mask], 0.0, 1.0))
    for array in grid:
        array.flags.writeable = False
    return grid


def optimize_weights(eta: float) -> tuple[ProbeWeights, float]:
    """Maximize qfi_lossy over the weight simplex.

    Dense grid scan at GRID_STEP, SCAN_BLOCK points at a time, followed by a
    local polish from the first grid maximum; deterministic.
    """
    if not 0.0 < eta <= 1.0:
        raise ValueError("eta must be in (0, 1]; at eta = 0 the information vanishes identically")
    x0, x1, x2 = _simplex_grid()
    i, top = 0, -math.inf
    for start in range(0, len(x0), SCAN_BLOCK):
        block = slice(start, start + SCAN_BLOCK)
        surface = _qfi_surface(x0[block], x1[block], x2[block], eta)
        j = int(np.argmax(surface))
        if surface[j] > top:  # strict: an equal value in a later block keeps the first
            i, top = start + j, surface[j]
    b0, b1, best = _polish(float(x0[i]), float(x1[i]), eta)
    weights = ProbeWeights(b0, b1, max(1.0 - b0 - b1, 0.0))
    return weights, float(best)


def noon_precision(eta: float) -> float:
    """Phase uncertainty bound for the two-photon N00N probe under loss."""
    if not 0.0 < eta <= 1.0:
        raise ValueError(f"eta must be in (0, 1], got {eta}")
    f_noon = 8.0 * eta * eta / (1.0 + eta * eta)
    return 1.0 / math.sqrt(f_noon)


def _coherent_fisher(tau: float, eta: float, n_photons: float) -> float:
    # Two-beam coherent-light Fisher information at input splitting ratio tau.
    return 4.0 * n_photons / (1.0 / (eta * tau) + 1.0 / (1.0 - tau))


def sil_precision(eta: float, n_photons: float = 2.0) -> float:
    """Standard interferometric limit for classical light of mean photon number N.

    Closed form (1 + sqrt(eta)) / (2 sqrt(eta N)), obtained by optimizing the
    input splitting ratio; sil_precision_numeric performs that optimization
    explicitly and must agree.
    """
    if not 0.0 < eta <= 1.0:
        raise ValueError(f"eta must be in (0, 1], got {eta}")
    if n_photons <= 0.0:
        raise ValueError("photon number must be positive")
    return (1.0 + math.sqrt(eta)) / (2.0 * math.sqrt(eta * n_photons))


def sil_precision_numeric(eta: float, n_photons: float = 2.0, tol: float = 1e-10) -> float:
    """SIL via golden-section maximization of the splitting-ratio Fisher information."""
    if not 0.0 < eta <= 1.0:
        raise ValueError(f"eta must be in (0, 1], got {eta}")
    if n_photons <= 0.0:
        raise ValueError("photon number must be positive")
    _, f_best = golden_section_max(lambda tau: _coherent_fisher(tau, eta, n_photons), 1e-9, 1.0 - 1e-9, tol=tol)
    return 1.0 / math.sqrt(f_best)


@dataclass(frozen=True)
class PrecisionPoint:
    """Precision bounds at one transmission, in radians per probe, and the optimal weights."""

    eta: float
    dphi_optimal: float
    dphi_noon: float
    dphi_sil: float
    nonclassical: bool
    weights: ProbeWeights


def precision_curve(eta_grid) -> list[PrecisionPoint]:
    """Optimal, N00N and SIL precision bounds over a transmission grid."""
    points = []
    for eta in eta_grid:
        eta = float(eta)
        weights, f_max = optimize_weights(eta)
        dphi_opt = 1.0 / math.sqrt(f_max)
        dphi_noon = noon_precision(eta)
        dphi_sil = sil_precision(eta, 2.0)
        # relative slack: at tiny eta the bounds reach 1e5 and more, where an
        # absolute one is below the optimizer's rounding
        if dphi_opt > dphi_noon * (1.0 + 1e-9) or dphi_opt > dphi_sil * (1.0 + 1e-9):
            raise RuntimeError(
                f"internal invariant violated: optimal bound above a feasible bound at eta={eta}"
            )
        points.append(
            PrecisionPoint(
                eta=eta,
                dphi_optimal=dphi_opt,
                dphi_noon=dphi_noon,
                dphi_sil=dphi_sil,
                nonclassical=dphi_opt < min(dphi_noon, dphi_sil),
                weights=weights,
            )
        )
    return points
