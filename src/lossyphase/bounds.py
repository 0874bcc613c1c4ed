"""Fisher-information bounds and optimal two-photon probe weights under loss."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fock import FockState, apply_loss
from .workers import fork_map

SIMPLEX_TOL = 1e-12

#: Simplex scan resolution used by the weight optimizer.
GRID_STEP = 1e-3

#: x0 and x1 values of the GRID_STEP lattice, indexed i and j.
LATTICE = np.arange(0.0, 1.0 + GRID_STEP / 2.0, GRID_STEP)
LATTICE.flags.writeable = False

#: Lattice indices per side of a cell of the weight scan; a cell whose
#: concavity bound falls below the best cell anchor is not evaluated.
SCAN_CELL = 25

#: Relative slack of that bound, far above the rounding of the surface.
BOUND_SLACK = 1e-9

#: The eight moves of the polish, in the order it tries them.
PATTERN = np.array([(1, 0), (-1, 0), (0, 1), (0, -1), (1, -1), (-1, 1), (1, 1), (-1, -1)], dtype=float)


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


def _loss_branches(x0, x1, x2, eta: float):
    """Pattern probabilities after loss on the sensing mode: a2, a1 (and x0) for
    |20>, |11> (and |02>) with no photon lost, b1, b0 for |10>, |01> with one
    lost, and the two branch probabilities p0, p1."""
    a2 = eta * eta * x2
    a1 = eta * x1
    p0 = a2 + a1 + x0
    b1 = 2.0 * eta * (1.0 - eta) * x2
    b0 = (1.0 - eta) * x1
    return a2, a1, p0, b1, b0, b1 + b0


def _qfi_surface(x0, x1, x2, eta: float):
    """Closed-form qfi_lossy over weight arrays; used for dense scanning."""
    a2, a1, p0, b1, b0, p1 = _loss_branches(x0, x1, x2, eta)
    mean0 = 2.0 * a2 + a1
    sec0 = 4.0 * a2 + a1
    term0 = 4.0 * (sec0 - np.divide(mean0 * mean0, p0, out=np.zeros_like(p0 + 0.0), where=p0 > 0))
    term1 = 4.0 * np.divide(b1 * b0, p1, out=np.zeros_like(p1 + 0.0), where=p1 > 0)
    return term0 + term1


def _qfi_gradient(x0, x1, x2, eta: float):
    """Partial derivatives of _qfi_surface in x0, x1 and x2.

    The surface is concave on the weight orthant (term0 is linear minus a
    quadratic over a linear form, term1 half a harmonic mean), so
    F(y) <= F(c) + grad F(c) . (y - c). Where p1 = 0 term1 has no gradient;
    b0/p1 = b1/p1 = 1/2 there gives a supergradient, as 4 b1 b0 / (b1 + b0)
    <= b1 + b0.
    """
    a2, a1, p0, b1, b0, p1 = _loss_branches(x0, x1, x2, eta)
    # p0 = 0 only where eta * eta underflows; a NaN bound there has its cell scanned
    r = np.divide(2.0 * a2 + a1, p0, out=np.full_like(p0 + 0.0, np.nan), where=p0 > 0)
    u = np.divide(b0, p1, out=np.full_like(p1 + 0.0, 0.5), where=p1 > 0) ** 2
    v = np.divide(b1, p1, out=np.full_like(p1 + 0.0, 0.5), where=p1 > 0) ** 2
    d0 = 4.0 * r * r
    d1 = 4.0 * eta * (1.0 - r) ** 2 + 4.0 * (1.0 - eta) * v
    d2 = 4.0 * eta * eta * (2.0 - r) ** 2 + 8.0 * eta * (1.0 - eta) * u
    return d0, d1, d2


def _scan_cells(eta: float):
    """Anchor lattice indices (i, j) of the SCAN_CELL x SCAN_CELL cells that meet
    the simplex, with the surface at each anchor and a bound on it over the cell.

    The anchor is the cell's lowest corner, so every lattice point y of the cell
    lies at y - c in [0, w0] x [0, w1] along x0 and x1, with x2 = 1 - x0 - x1.
    """
    starts = np.arange(0, len(LATTICE), SCAN_CELL)
    i, j = np.meshgrid(starts, starts, indexing="ij")
    meets = LATTICE[i] + LATTICE[j] <= 1.0 + SIMPLEX_TOL
    i, j = i[meets], j[meets]
    x0, x1 = LATTICE[i], LATTICE[j]
    x2 = np.clip(1.0 - x0 - x1, 0.0, 1.0)
    surface = _qfi_surface(x0, x1, x2, eta)
    d0, d1, d2 = _qfi_gradient(x0, x1, x2, eta)
    last = len(LATTICE) - 1
    w0 = LATTICE[np.minimum(i + SCAN_CELL - 1, last)] - x0
    w1 = LATTICE[np.minimum(j + SCAN_CELL - 1, last)] - x1
    bound = surface + np.maximum(0.0, (d0 - d2) * w0) + np.maximum(0.0, (d1 - d2) * w1)
    return i, j, surface, bound


def _polish(x0: float, x1: float, eta: float) -> tuple[float, float, float]:
    """Local pattern search on the simplex, refining the grid maximizer.

    Each sweep tries the PATTERN moves in order at one step and takes every one
    that beats the best value so far; a sweep without a move halves the step.
    One call of the surface evaluates every move the search would still try if
    no move came: the rest of this sweep, one more sweep at this step after a
    move, then a sweep at each smaller step. The search takes the first of them
    that beats the best value, as the sweeps would, and calls again from there.
    """

    def values(a, b):
        on = (a >= 0) & (b >= 0) & (a + b <= 1.0)
        return np.where(on, _qfi_surface(a, b, 1.0 - a - b, eta), -math.inf)

    best = float(values(np.float64(x0), np.float64(x1)))
    step, k, moved = GRID_STEP, 0, False
    while step > 1e-11:
        sweeps = [step] * (1 + moved)
        while sweeps[-1] * 0.5 > 1e-11:
            sweeps.append(sweeps[-1] * 0.5)
        steps = np.repeat(sweeps, len(PATTERN))[k:]
        moves = np.tile(PATTERN, (len(sweeps), 1))[k:]
        a = x0 + steps * moves[:, 0]
        b = x1 + steps * moves[:, 1]
        cand = values(a, b)
        better = np.flatnonzero(cand > best)
        if not len(better):
            break
        m = int(better[0])
        best, x0, x1, step = float(cand[m]), float(a[m]), float(b[m]), float(steps[m])
        # a move that ends its sweep starts a fresh one at the same step
        k = (k + m + 1) % len(PATTERN)
        moved = k > 0
    return x0, x1, best


def optimize_weights(eta: float) -> tuple[ProbeWeights, float]:
    """Maximize qfi_lossy over the weight simplex.

    Finds the first maximum, in (x0, x1) index order, of the surface on the
    GRID_STEP lattice of the simplex, then polishes it locally; deterministic.
    The lattice is cut into SCAN_CELL x SCAN_CELL cells. Concavity bounds the
    surface on a cell by its tangent plane at the cell's anchor, and only the
    cells whose bound reaches the best anchor value (less BOUND_SLACK) are
    evaluated, so the maximum and its bits are those of a scan of every point.
    """
    if not 0.0 < eta <= 1.0:
        raise ValueError("eta must be in (0, 1]; at eta = 0 the information vanishes identically")
    n = len(LATTICE)
    i, j, surface, bound = _scan_cells(eta)
    top = surface.max()
    # a NaN bound compares false, so its cell is scanned
    cells = ~(bound < top - BOUND_SLACK * abs(top))
    di, dj = np.divmod(np.arange(SCAN_CELL * SCAN_CELL), SCAN_CELL)
    i = (i[cells, None] + di).ravel()
    j = (j[cells, None] + dj).ravel()
    inside = (i < n) & (j < n)
    i, j = i[inside], j[inside]
    x0, x1 = LATTICE[i], LATTICE[j]
    on = x0 + x1 <= 1.0 + SIMPLEX_TOL
    x0, x1, key = x0[on], x1[on], i[on] * n + j[on]
    surface = _qfi_surface(x0, x1, np.clip(1.0 - x0 - x1, 0.0, 1.0), eta)
    first = int(key[surface == surface.max()].min())
    b0, b1, best = _polish(float(LATTICE[first // n]), float(LATTICE[first % n]), eta)
    weights = ProbeWeights(b0, b1, max(1.0 - b0 - b1, 0.0))
    return weights, float(best)


def noon_precision(eta: float) -> float:
    """Phase uncertainty bound for the two-photon N00N probe under loss."""
    if not 0.0 < eta <= 1.0:
        raise ValueError(f"eta must be in (0, 1], got {eta}")
    f_noon = 8.0 * eta * eta / (1.0 + eta * eta)
    return 1.0 / math.sqrt(f_noon)


def sil_precision(eta: float, n_photons: float = 2.0) -> float:
    """Standard interferometric limit for classical light of mean photon number N.

    Closed form (1 + sqrt(eta)) / (2 sqrt(eta N)), obtained by optimizing the
    input splitting ratio; the tests' ``sil_precision_numeric`` performs that
    optimization explicitly and must agree.
    """
    if not 0.0 < eta <= 1.0:
        raise ValueError(f"eta must be in (0, 1], got {eta}")
    if n_photons <= 0.0:
        raise ValueError("photon number must be positive")
    return (1.0 + math.sqrt(eta)) / (2.0 * math.sqrt(eta * n_photons))


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
    """Optimal, N00N and SIL precision bounds over a transmission grid; the
    weights of each eta are optimized in ``fork_map``'s dealt hands, since
    those of low eta, which have a |11> component, cost about twice as much."""
    etas = [float(eta) for eta in eta_grid]
    points = []
    for eta, (weights, f_max) in zip(etas, fork_map(optimize_weights, etas)):
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
