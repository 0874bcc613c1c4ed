"""Maximum-likelihood phase estimation and uncertainty analysis against the
Cramér-Rao bound."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bounds import qfi_lossy
from .detection import Setting
from .montecarlo import EventDataset, ProbeKind, probe_weights, setting_models

SEARCH_INTERVAL = (-math.pi / 2.0, math.pi / 2.0)
GRID_STEP = 1e-3

#: Refined log-likelihood values closer than this are treated as ties and
#: resolved toward the smaller |phi|. The likelihood of a probe without
#: single-photon fringes is exactly mirror-symmetric inside the search
#: interval, so the mirrored lobe must lose deterministically.
TIE_TOL = 1e-4

_NEG = -1e30  # stand-in for log(0) that keeps 0 * log(0) = 0 in matrix products


class DegenerateLikelihoodError(ValueError):
    """Likelihood carries no phase information (e.g. no counts at all)."""


@dataclass(frozen=True)
class Estimate:
    phi_hat: float
    log_likelihood_max: float
    n_coincidences: int
    series_key: tuple


@dataclass(frozen=True)
class UncertaintyRow:
    eta: float
    probe: ProbeKind
    phi_true: float
    mean: float
    sigma: float
    m_bar: float
    sigma_scaled: float
    crb: float


def _kept_labels(setting: Setting, include_cc: bool) -> tuple[str, ...]:
    labels = setting.kept_labels
    if setting is Setting.HALF and not include_cc:
        labels = tuple(l for l in labels if l != "CC")
    return labels


def log_likelihood(counts_by_setting, phi: float, models, include_cc: bool = True) -> float:
    """Sum over settings of count times log renormalized label probability.

    Each setting is scored only on its postselected labels, renormalized
    within that set; a zero-probability label with counts gives -inf.
    """
    from .detection import LABELS

    total = 0.0
    for setting, model in models.items():
        counts = counts_by_setting.get(setting, {})
        labels = _kept_labels(setting, include_cc)
        probs = np.asarray(model.probabilities(phi), dtype=float)
        kept = {label: probs[LABELS.index(label)] for label in labels}
        norm = sum(kept.values())
        for label in labels:
            n = counts.get(label, 0)
            if n == 0:
                continue
            p = kept[label] / norm if norm > 0 else 0.0
            if p <= 0.0:
                return -math.inf
            total += n * math.log(p)
    return total


@dataclass(frozen=True)
class LikelihoodGrid:
    """Log-probabilities precomputed on the search grid, shared across series."""

    phis: np.ndarray
    labels: dict[Setting, tuple[str, ...]]
    log_probs: dict[Setting, np.ndarray]  # (n_phi, n_kept) per setting

    @property
    def step(self) -> float:
        return float(self.phis[1] - self.phis[0])


def likelihood_grid(
    models,
    include_cc: bool = True,
    interval: tuple[float, float] = SEARCH_INTERVAL,
    step: float = GRID_STEP,
) -> LikelihoodGrid:
    from .detection import LABELS

    lo, hi = interval
    phis = np.arange(lo, hi, step)
    labels = {}
    logs = {}
    for setting, model in models.items():
        kept = _kept_labels(setting, include_cc)
        idx = [LABELS.index(label) for label in kept]
        probs = np.asarray(model.probabilities(phis), dtype=float)[:, idx]
        norms = probs.sum(axis=1, keepdims=True)
        cond = np.divide(probs, norms, out=np.zeros_like(probs), where=norms > 0)
        logp = np.where(cond > 0, np.log(np.where(cond > 0, cond, 1.0)), _NEG)
        labels[setting] = kept
        logs[setting] = logp
    return LikelihoodGrid(phis=phis, labels=labels, log_probs=logs)


#: Series per stacked likelihood product; bounds the (series, grid) buffers.
CHUNK_SERIES = 64


def _loglik_rows(grid: LikelihoodGrid, counts: dict[Setting, np.ndarray], start: int, stop: int) -> np.ndarray:
    """Log-likelihood rows of series start:stop over the grid.

    The stacked (series, 1, labels) @ (labels, grid) product runs one BLAS
    matrix-vector product per series; a plain (series, labels) matrix product
    rounds differently and would change the estimates in the last digits.
    """
    total = None
    for setting, log_probs in grid.log_probs.items():
        rows = (counts[setting][start:stop, None, :] @ log_probs.T)[:, 0, :]
        if total is None:
            total = rows
        else:
            total += rows
    return total


def _best_phis(phis: np.ndarray, rows: np.ndarray, step: float):
    """Global maximizer of each likelihood row: local maxima are refined with a
    parabola through the best grid point and its neighbors; near-ties are
    broken toward the smallest |phi|.

    Returns (phi_hat, value, problem) per row; ``problem`` holds None, or why
    the row carries no phase information, in which case phi_hat and value are
    meaningless.
    """
    top, bottom = rows.max(axis=1), rows.min(axis=1)
    span = top - bottom
    dead = ~np.isfinite(span) & (top <= _NEG)
    flat = ~dead & (span < 1e-12)
    problem = [
        "likelihood is -inf everywhere" if d else "likelihood is flat over the search interval" if f else None
        for d, f in zip(dead.tolist(), flat.tolist())
    ]
    inner = rows[:, 1:-1]
    is_max = inner >= rows[:, :-2]
    is_max &= inner >= rows[:, 2:]
    r, c = np.divmod(np.flatnonzero(is_max), is_max.shape[1])
    lm, l0, lp = rows[r, c], rows[r, c + 1], rows[r, c + 2]
    denom = lm - 2.0 * l0 + lp
    curved = denom < 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        shift = np.where(curved, 0.5 * (lm - lp) / denom, 0.0)
        value = np.where(curved, l0 - (lm - lp) ** 2 / (8.0 * denom), l0)
    # Candidates in the scalar search's order: interior maxima, then the edges.
    left, right = np.nonzero(rows[:, 0] >= rows[:, 1])[0], np.nonzero(rows[:, -1] >= rows[:, -2])[0]
    row_of = np.concatenate([r, left, right])
    phi = np.concatenate([phis[c + 1] + shift * step, np.full(len(left), phis[0]), np.full(len(right), phis[-1])])
    val = np.concatenate([value, rows[left, 0], rows[right, -1]])
    best = np.full(len(rows), -np.inf)
    np.maximum.at(best, row_of, val)
    tied = np.nonzero(val >= best[row_of] - TIE_TOL)[0]
    order = tied[np.lexsort((phi[tied], np.abs(phi[tied]), row_of[tied]))]
    first = np.ones(len(order), dtype=bool)
    first[1:] = row_of[order[1:]] != row_of[order[:-1]]
    pick = np.zeros(len(rows), dtype=np.intp)
    pick[row_of[order[first]]] = order[first]
    return phi[pick], val[pick], problem


def _estimate_series(grid: LikelihoodGrid, series: list[dict]):
    """Maximum-likelihood estimates for series given as {setting: {label:
    count}} mappings, a missing setting or label counting zero.

    Returns lists of phi_hat, loglik max, n_coinc and problem per series,
    ``problem`` as in ``_best_phis`` or for a series without registered
    coincidences.
    """
    counts = {
        setting: np.array(
            [[get(label, 0) for label in labels] for get in (s.get(setting, {}).get for s in series)], dtype=float
        )
        for setting, labels in grid.labels.items()
    }
    n_coinc = sum(m.sum(axis=1).astype(np.int64) for m in counts.values())
    phi_hat, lmax, problems = np.empty(len(series)), np.empty(len(series)), []
    for start in range(0, len(series), CHUNK_SERIES):
        stop = min(start + CHUNK_SERIES, len(series))
        phi_hat[start:stop], lmax[start:stop], problem = _best_phis(
            grid.phis, _loglik_rows(grid, counts, start, stop), grid.step
        )
        problems += problem
    problems = ["no registered coincidences" if n == 0 else p for n, p in zip(n_coinc.tolist(), problems)]
    return phi_hat.tolist(), lmax.tolist(), n_coinc.tolist(), problems


def ml_estimate(
    counts_by_setting,
    models,
    include_cc: bool = True,
    interval: tuple[float, float] = SEARCH_INTERVAL,
    grid: LikelihoodGrid | None = None,
    series_key: tuple = (),
) -> Estimate:
    """Maximum-likelihood phase estimate from one series of counts."""
    if grid is None:
        grid = likelihood_grid(models, include_cc=include_cc, interval=interval)
    (phi_hat,), (lmax,), (n_coinc,), (problem,) = _estimate_series(grid, [counts_by_setting])
    if problem is not None:
        raise DegenerateLikelihoodError(problem)
    return Estimate(phi_hat=phi_hat, log_likelihood_max=lmax, n_coincidences=n_coinc, series_key=tuple(series_key))


def estimate_dataset(dataset: EventDataset, include_cc: bool = True) -> list[Estimate]:
    """Maximum-likelihood estimates for every series of a simulated campaign,
    in the order each series first appears among the records.

    Rebuilds the outcome models from the dataset's configuration and shares
    one likelihood grid per (eta, probe) combination, whose series are
    estimated together. A later record of the same series and setting
    replaces an earlier one.
    """
    series: dict[tuple, dict[Setting, dict]] = {}  # series key -> setting -> counts
    blocks: dict[tuple, list] = {}  # (eta, probe) -> (series index, setting -> counts)
    for rec in dataset.records:
        key = (rec.eta, rec.probe, rec.phi_true, rec.series_id)
        slots = series.get(key)
        if slots is None:
            slots = series[key] = {}
            blocks.setdefault(key[:2], []).append((len(series) - 1, slots))
        slots[rec.setting] = rec.counts
    params = dataset.config.imperfections
    results = [None] * len(series)
    for (eta, probe), block in blocks.items():
        grid = likelihood_grid(setting_models(probe, eta, params), include_cc=include_cc)
        indices, slots = zip(*block)
        for index, result in zip(indices, zip(*_estimate_series(grid, slots))):
            results[index] = result
    estimates = []
    for key, (phi_hat, lmax, n_coinc, problem) in zip(series, results):
        if problem is not None:
            raise DegenerateLikelihoodError(f"series {key}: {problem}")
        estimates.append(Estimate(phi_hat=phi_hat, log_likelihood_max=lmax, n_coincidences=n_coinc, series_key=key))
    return estimates


def analyze(dataset: EventDataset, estimates) -> list[UncertaintyRow]:
    """Per-(eta, probe, phase) uncertainty report.

    The sample standard deviation is rescaled by the square root of the mean
    number of registered coincidences per series, giving the effective
    uncertainty per photon pair, and compared with 1/sqrt(F).
    """
    by_group: dict[tuple, list[Estimate]] = {}
    for est in estimates:
        eta, probe, phi_true, _ = est.series_key
        by_group.setdefault((eta, probe, phi_true), []).append(est)
    crb_cache: dict[tuple, float] = {}
    rows = []
    for (eta, probe, phi_true), group in by_group.items():
        if len(group) < 2:
            raise ValueError(f"group (eta={eta}, probe={probe}, phi={phi_true}) has fewer than 2 estimates")
        values = np.array([e.phi_hat for e in group])
        counts = np.array([e.n_coincidences for e in group], dtype=float)
        sigma = float(np.std(values, ddof=1))
        m_bar = float(counts.mean())
        if (eta, probe) not in crb_cache:
            crb_cache[(eta, probe)] = 1.0 / math.sqrt(qfi_lossy(probe_weights(probe, eta), eta))
        rows.append(
            UncertaintyRow(
                eta=eta,
                probe=probe,
                phi_true=phi_true,
                mean=float(values.mean()),
                sigma=sigma,
                m_bar=m_bar,
                sigma_scaled=sigma * math.sqrt(m_bar),
                crb=crb_cache[(eta, probe)],
            )
        )
    return rows


def histogram(estimates, bin_width: float, bounds: tuple[float, float] | None = None):
    """Fixed-width binning of phase estimates, left-closed right-open bins.

    Bin edges are anchored at integer multiples of the width, so boundaries do
    not depend on sample order. Returns (edges, counts).
    """
    if bin_width <= 0.0:
        raise ValueError("bin width must be positive")
    values = np.array(
        [e.phi_hat if isinstance(e, Estimate) else float(e) for e in estimates], dtype=float
    )
    if values.size == 0:
        raise ValueError("cannot histogram an empty set of estimates")
    if bounds is None:
        lo = math.floor(values.min() / bin_width) * bin_width
        hi = math.ceil(values.max() / bin_width + 1e-9) * bin_width
        if hi <= lo:
            hi = lo + bin_width
    else:
        lo, hi = bounds
    n_bins = max(int(round((hi - lo) / bin_width)), 1)
    edges = lo + bin_width * np.arange(n_bins + 1)
    idx = np.floor((values - lo) / bin_width).astype(int)
    keep = (idx >= 0) & (idx < n_bins)
    counts = np.bincount(idx[keep], minlength=n_bins)
    return edges, counts
