"""Fisher-information bounds and optimal two-photon probe weights under loss."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

SIMPLEX_TOL = 1e-12

#: Simplex scan resolution used by the weight optimizer.
GRID_STEP = 1e-3

#: x0 and x1 values of the GRID_STEP lattice, indexed i and j.
LATTICE = np.arange(0.0, 1.0 + GRID_STEP / 2.0, GRID_STEP)
LATTICE.flags.writeable = False

#: Lattice indices per side of a cell of the weight scan; a cell whose
#: concavity bound falls below the best cell anchor is not evaluated.
SCAN_CELL = 25

#: Lattice indices per side of a sub-cell, into which a kept cell is cut and
#: bounded in the same way; only kept sub-cells are evaluated point by point.
SCAN_SUBCELL = 5

#: Relative slack of those bounds, far above the rounding of the surface.
BOUND_SLACK = 1e-9

#: Transmissions whose weights are optimized together, as lanes.
WEIGHT_LANES = 64

#: Kept cells that the lanes of one chunk refine at most (a lane that keeps
#: more is refined alone), so the memory of the refinement does not grow
#: with the lanes.
REFINE_CELLS = 256

#: The eight moves of the polish, in the order it tries them.
PATTERN = np.array([(1, 0), (-1, 0), (0, 1), (0, -1), (1, -1), (-1, 1), (1, 1), (-1, -1)], dtype=float)

#: Steps of the polish: GRID_STEP, halved while the step stays above 1e-11.
POLISH_STEPS = GRID_STEP * 0.5 ** np.arange(64)
POLISH_STEPS = POLISH_STEPS[POLISH_STEPS > 1e-11]
POLISH_STEPS.flags.writeable = False


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


def qfi_lossy(weights: ProbeWeights, eta: float) -> float:
    """Quantum Fisher information of the three-component probe after loss on
    the sensing mode: ``_qfi_surface`` at one point, the surface that
    ``optimize_weights`` maximizes."""
    if not 0.0 <= eta <= 1.0:
        raise ValueError(f"eta must be in [0, 1], got {eta}")
    return float(_qfi_surface(*weights.as_tuple(), eta))


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
    """Lossy quantum Fisher information over weight arrays, in closed form.

    Loss branches are distinguishable by total photon number, so the total is
    the branch-probability-weighted sum of four times each branch's photon
    number variance on the sensing mode (Demkowicz-Dobrzanski et al., PRA 80,
    013825 (2009)).
    """
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


def _cell_bounds(i, j, end_i, end_j, eta):
    """The surface at anchor lattice indices (i, j) and a bound on it over the
    cell of indices i..end_i by j..end_j that each anchors.

    The anchor is the cell's lowest corner, so every lattice point y of the cell
    lies at y - c in [0, w0] x [0, w1] along x0 and x1, with x2 = 1 - x0 - x1.
    """
    x0, x1 = LATTICE[i], LATTICE[j]
    x2 = np.clip(1.0 - x0 - x1, 0.0, 1.0)
    surface = _qfi_surface(x0, x1, x2, eta)
    d0, d1, d2 = _qfi_gradient(x0, x1, x2, eta)
    w0, w1 = LATTICE[end_i] - x0, LATTICE[end_j] - x1
    return surface, surface + np.maximum(0.0, (d0 - d2) * w0) + np.maximum(0.0, (d1 - d2) * w1)


def _cut(i, j, end_i, end_j, size):
    """The size x size cells, meeting the simplex, into which the cells of
    lattice indices i..end_i by j..end_j cut: the index of the cell each lies
    in, and their anchors and ends. They come cell by cell, so items that
    come lane by lane keep that order."""
    offsets = np.arange(0, int(np.maximum(end_i - i, end_j - j).max()) + 1, size)
    di, dj = (d.ravel() for d in np.meshgrid(offsets, offsets, indexing="ij"))
    si, sj = i[:, None] + di, j[:, None] + dj
    inside = (si <= end_i[:, None]) & (sj <= end_j[:, None])
    cell, si, sj = np.nonzero(inside)[0], si[inside], sj[inside]
    meets = LATTICE[si] + LATTICE[sj] <= 1.0 + SIMPLEX_TOL
    cell, si, sj = cell[meets], si[meets], sj[meets]
    return cell, si, sj, np.minimum(si + size - 1, end_i[cell]), np.minimum(sj + size - 1, end_j[cell])


def _kept(surface, bound, top):
    """Cells whose bound reaches ``top``, the best anchor value, less BOUND_SLACK;
    a NaN bound compares false, so its cell is kept."""
    return ~(bound < top - BOUND_SLACK * np.abs(top))


def _first_maxima(etas: np.ndarray) -> np.ndarray:
    """Lattice key i * len(LATTICE) + j of the first maximum of the surface on
    the lattice of the simplex, in (i, j) order, at each eta.

    Concavity bounds the surface on a cell by its tangent plane at the cell's
    anchor, its lowest corner. The SCAN_CELL x SCAN_CELL cells are evaluated
    at their anchors with eta as a column; the cells whose bound reaches the
    best anchor value are cut into SCAN_SUBCELL x SCAN_SUBCELL sub-cells,
    bounded in the same way, and only the sub-cells whose bound reaches the
    best anchor value of either level are scanned point by point. A cell
    holding a maximum has a bound at least that maximum, so every maximum is
    scanned, and every scanned point is the float a scan of every point
    evaluates. The kept cells are refined in chunks of lanes that keep at
    most REFINE_CELLS cells (or of one lane).
    """
    n = len(LATTICE)
    _, i, j, end_i, end_j = _cut(*(np.array([index]) for index in (0, 0, n - 1, n - 1)), SCAN_CELL)
    kept = np.empty((len(etas), len(i)), dtype=bool)
    for lo in range(0, len(etas), 16):  # 16 lanes at a time: the (64, 861) arrays of all at once took 6 MiB
        surface, bound = _cell_bounds(i, j, end_i, end_j, etas[lo : lo + 16, None])
        kept[lo : lo + 16] = _kept(surface, bound, surface.max(axis=1, keepdims=True))
    chunks, cells = [0], 0
    for lane, count in enumerate(kept.sum(axis=1)):
        if cells and cells + count > REFINE_CELLS:
            chunks.append(lane)
            cells = 0
        cells += count
    chunks.append(len(etas))
    first = np.empty(len(etas), dtype=int)
    for lo, hi in zip(chunks, chunks[1:]):
        # at each level a lane keeps the cell of its best anchor, whose bound is at least that
        # value (or NaN), so no lane's run of items is empty
        lane, cell = np.nonzero(kept[lo:hi])
        cell, si, sj, end_si, end_sj = _cut(i[cell], j[cell], end_i[cell], end_j[cell], SCAN_SUBCELL)
        lane = lane[cell]
        surface, bound = _cell_bounds(si, sj, end_si, end_sj, etas[lo:hi][lane])
        starts = np.searchsorted(lane, np.arange(hi - lo))
        sub = _kept(surface, bound, np.maximum.reduceat(surface, starts)[lane])
        cell, pi, pj, _, _ = _cut(si[sub], sj[sub], end_si[sub], end_sj[sub], 1)
        lane = lane[sub][cell]
        x0, x1 = LATTICE[pi], LATTICE[pj]
        surface = _qfi_surface(x0, x1, np.clip(1.0 - x0 - x1, 0.0, 1.0), etas[lo:hi][lane])
        starts = np.searchsorted(lane, np.arange(hi - lo))
        top = np.maximum.reduceat(surface, starts)[lane]
        first[lo:hi] = np.minimum.reduceat(np.where(surface == top, pi * n + pj, n * n), starts)
    return first


def _polish(x0: np.ndarray, x1: np.ndarray, etas: np.ndarray):
    """Local pattern search on the simplex from each lane's (x0, x1), refining
    the grid maximizer at its eta; returns the final x0, x1 and values.

    Each sweep tries the PATTERN moves in order at one step and takes every one
    that beats the best value so far; a sweep without a move halves the step,
    from GRID_STEP through POLISH_STEPS. One call of the surface evaluates, for
    every lane still searching, every move its search would still try if no
    move came: the rest of this sweep, one more sweep at this step after a
    move, then a sweep at each smaller step. Each lane takes the first of them
    that beats its best value, as the sweeps would, and the next call goes on
    from there; a lane stops where none does, as the sweeps would.
    """

    def values(a, b, eta):
        on = (a >= 0) & (b >= 0) & (a + b <= 1.0)
        return np.where(on, _qfi_surface(a, b, 1.0 - a - b, eta), -math.inf)

    x0, x1, best = np.array(x0, dtype=float), np.array(x1, dtype=float), values(x0, x1, etas)
    step = np.zeros(len(etas), dtype=int)  # the index in POLISH_STEPS
    k = np.zeros(len(etas), dtype=int)  # the moves of this sweep already tried; a move came in it if k > 0
    live = np.arange(len(etas))
    while live.size:
        moved = k[live, None] > 0
        count = (len(POLISH_STEPS) - step[live, None] + moved) * len(PATTERN) - k[live, None]
        tried = np.arange(count.max())
        at = k[live, None] + tried  # place in this lane's sweeps, from the start of this one
        steps = step[live, None] + np.maximum(at // len(PATTERN) - moved, 0)
        moves = PATTERN[at % len(PATTERN)]
        size = POLISH_STEPS[np.minimum(steps, len(POLISH_STEPS) - 1)]
        a = x0[live, None] + size * moves[..., 0]
        b = x1[live, None] + size * moves[..., 1]
        cand = np.where(tried < count, values(a, b, etas[live, None]), -math.inf)
        better = cand > best[live, None]
        found = better.any(axis=1)
        rows, live = np.flatnonzero(found), live[found]
        m = better[rows].argmax(axis=1)
        x0[live], x1[live], best[live] = a[rows, m], b[rows, m], cand[rows, m]
        # a move that ends its sweep starts a fresh one at the same step
        step[live], k[live] = steps[rows, m], (at[rows, m] + 1) % len(PATTERN)
    return x0, x1, best


def optimize_weights(eta):
    """Maximize qfi_lossy over the weight simplex at each transmission.

    ``eta`` is a float, which gives one (ProbeWeights, F), or a sequence,
    which gives a list of them, each the pair its eta gives alone.
    Finds the first maximum, in (x0, x1) index order, of the surface on the
    GRID_STEP lattice of the simplex without evaluating most of it
    (``_first_maxima``), then polishes it locally (``_polish``);
    deterministic. WEIGHT_LANES etas at a time run as the lanes of one scan
    and one polish, so memory does not grow with the number of etas.
    """
    etas = np.array(eta, dtype=float)
    if etas.ndim > 1 or not np.all((etas > 0.0) & (etas <= 1.0)):
        raise ValueError("eta must be in (0, 1]; at eta = 0 the information vanishes identically")
    lanes, found = np.atleast_1d(etas), []
    for lo in range(0, lanes.size, WEIGHT_LANES):
        block = lanes[lo : lo + WEIGHT_LANES]
        i, j = np.divmod(_first_maxima(block), len(LATTICE))
        x0, x1, best = (v.tolist() for v in _polish(LATTICE[i], LATTICE[j], block))
        found += [(ProbeWeights(a, b, max(1.0 - a - b, 0.0)), f) for a, b, f in zip(x0, x1, best)]
    return found[0] if etas.ndim == 0 else found


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
    weights of every eta come from one ``optimize_weights`` call, as lanes."""
    etas = [float(eta) for eta in eta_grid]
    points = []
    for eta, (weights, f_max) in zip(etas, optimize_weights(etas)):
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
