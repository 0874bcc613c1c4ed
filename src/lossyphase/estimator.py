"""Maximum-likelihood phase estimation and uncertainty analysis against the
Cramér-Rao bound."""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .bounds import ProbeWeights, qfi_lossy
from .detection import LABELS, DetectionConfig, Setting
from .montecarlo import PROBES, SETTINGS, EventDataset, ProbeKind, probe_designs, setting_models
from .workers import fork_map

SEARCH_INTERVAL = (-math.pi / 2.0, math.pi / 2.0)
GRID_STEP = 1e-3

#: Refined log-likelihood values closer than this are treated as ties and
#: resolved toward the smaller |phi|. The likelihood of a probe without
#: single-photon fringes is exactly mirror-symmetric inside the search
#: interval, so the mirrored lobe must lose deterministically.
TIE_TOL = 1e-4

_NEG = -1e30  # stand-in for log(0) that keeps 0 * log(0) = 0 in matrix products


#: The design of each (probe, eta) block: its target weights and quarter-setting
#: detection, as a ``probe_designs`` entry, e.g. one a simulate manifest records.
Design = Callable[[ProbeKind, float], tuple[ProbeWeights, DetectionConfig]]


class DegenerateLikelihoodError(ValueError):
    """Likelihood carries no phase information (e.g. no counts at all)."""


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


@dataclass(frozen=True)
class LikelihoodGrid:
    """Log-probabilities precomputed on the search grid, shared across series."""

    phis: np.ndarray
    labels: dict[Setting, tuple[str, ...]]
    log_probs: dict[Setting, np.ndarray]  # (n_phi, n_kept) per setting

    @property
    def step(self) -> float:
        return float(self.phis[1] - self.phis[0])


def likelihood_grid(models, include_cc: bool = True) -> LikelihoodGrid:
    """Log-probabilities of each setting's postselected labels, renormalized
    within that set, on the search grid; log(0) is stored as ``_NEG``."""
    phis = np.arange(*SEARCH_INTERVAL, GRID_STEP)
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


#: Series per stacked likelihood product: the two (series, grid) row buffers
#: of ``_estimate_series``, 0.8 MB each on the default grid, fit in a 2 MB L2
#: cache together.
CHUNK_SERIES = 32


def _loglik_rows(
    grid: LikelihoodGrid,
    counts: dict[Setting, np.ndarray],
    start: int,
    stop: int,
    total: np.ndarray | None = None,
    part: np.ndarray | None = None,
    cols: np.ndarray | None = None,
) -> np.ndarray:
    """Log-likelihood rows of series start:stop at the grid columns ``cols``
    (every column by default), written into the start of ``total``, with
    ``part`` as scratch; both are C-contiguous float arrays of at least as many
    elements, allocated here when not given.

    The stacked (series, 1, labels) @ (labels, columns) product runs one BLAS
    matrix-vector product per series; a plain (series, labels) matrix product
    rounds differently and would change the estimates in the last digits.
    The products go straight into the buffers, which hold them in the
    (series, 1, columns) layout a fresh product has, and are then summed in
    place, so the rows equal the fresh stacked products bit for bit. Columns
    in whole aligned WINDOW-column blocks in grid order keep the full row's
    bits: BLAS rounds a call's last few columns apart, and the gathered
    log-probabilities keep the grid's memory order.
    """
    n, width = stop - start, len(grid.phis) if cols is None else len(cols)
    total, part = (np.empty((n, width)) if a is None else a.reshape(-1)[: n * width].reshape(n, width) for a in (total, part))
    for k, (setting, log_probs) in enumerate(grid.log_probs.items()):
        if width < len(grid.phis):
            log_probs = np.take(log_probs.T, cols, axis=1).T if log_probs.flags.f_contiguous else log_probs[cols]
        out = part if k else total
        np.matmul(counts[setting][start:stop, None, :], log_probs.T, out=out.reshape(n, 1, -1))
        if k:
            total += part
    return total


#: Series whose peaks are resolved at once: the candidates of 16 chunks, never of a whole block.
GROUP_SERIES = 16 * CHUNK_SERIES
#: Grid columns per window of the bound in ``_pruned_rows``, and series bounded at a time.
WINDOW, BOUND_SERIES = 16, 128


def _sampled(n: int) -> np.ndarray:
    """The columns of an n-column grid whose values ``_peaks`` reads in every row."""
    return np.r_[0, 1, n - 2, n - 1, 997:n:997]  # a prime stride rarely aliases a fringe


def _peaks(phis: np.ndarray, step: float, chunks, exact_min: Callable[[int], float]):
    """Global maximizer of each row of the ``chunks`` of likelihood rows:
    local maxima are refined with a parabola through the best grid point and
    its neighbors; near-ties are broken toward the smallest |phi|.

    A chunk is (rows, columns), the rows at ascending grid columns that hold
    the sampled ones; a local maximum counts where its neighbors are its grid
    neighbors. Each chunk is scanned once, before the next is drawn; then all
    rows are resolved at once. A row's maximum is a candidate or an edge
    value; its minimum comes from ``exact_min(row)`` only where sampled
    columns leave the row possibly flat or its maximum is at most ``_NEG``.

    Returns (phi_hat, value, problem) per row; ``problem`` holds None, or why
    the row carries no phase information, in which case phi_hat and value are
    meaningless.
    """
    columns = _sampled(len(phis))
    rs, cs, triples, probes, offset = [], [], [], [], 0
    for rows, cols in chunks:  # rows laid end to end: a point on a row's edge gets a neighbor from another row
        x = rows.reshape(-1)
        at = x[1:-1] >= x[:-2]  # the local-maximum mask, then its indices: no mask outlives its chunk
        at &= x[1:-1] >= x[2:]
        at = np.flatnonzero(at)  # (left, center, right) = x[at], x[at + 1], x[at + 2]
        inner = np.zeros(len(cols), dtype=bool)
        inner[1:-1] = cols[2:] - cols[:-2] == 2
        r, j = divmod(at + 1, len(cols))
        at, r, j = at[inner[j]], r[inner[j]], j[inner[j]]
        rs.append(r + offset)
        cs.append(cols[j])
        triples.append(x[at[:, None] + np.arange(3)])
        probes.append(rows[:, np.searchsorted(cols, columns)])
        offset += len(rows)
    r, c, (lm, l0, lp) = np.concatenate(rs), np.concatenate(cs), np.concatenate(triples).T
    probes = np.concatenate(probes)
    top, bottom = np.maximum(probes[:, 0], probes[:, 3]), probes.min(axis=1)
    np.maximum.at(top, r, l0)
    with np.errstate(invalid="ignore"):  # -inf - -inf in a row that is -inf everywhere
        unsure = np.flatnonzero(~(top - bottom >= 1e-12) | (top <= _NEG))
        bottom[unsure] = [exact_min(i) for i in unsure.tolist()]
        span = top - bottom
    dead = ~np.isfinite(span) & (top <= _NEG)
    flat = ~dead & (span < 1e-12)
    problem = [
        "likelihood is -inf everywhere" if d else "likelihood is flat over the search interval" if f else None
        for d, f in zip(dead.tolist(), flat.tolist())
    ]
    with np.errstate(divide="ignore", invalid="ignore"):
        denom = lm - 2.0 * l0 + lp
        curved = denom < 0.0
        shift = np.where(curved, 0.5 * (lm - lp) / denom, 0.0)
        value = np.where(curved, l0 - (lm - lp) ** 2 / (8.0 * denom), l0)
    # Candidates in the scalar search's order: interior maxima, then the edges.
    left, right = np.nonzero(probes[:, 0] >= probes[:, 1])[0], np.nonzero(probes[:, 3] >= probes[:, 2])[0]
    row_of = np.concatenate([r, left, right])
    phi = np.concatenate([phis[c] + shift * step, np.full(len(left), phis[0]), np.full(len(right), phis[-1])])
    val = np.concatenate([value, probes[left, 0], probes[right, 3]])
    best = np.full(len(probes), -np.inf)
    np.maximum.at(best, row_of, val)
    tied = np.nonzero(val >= best[row_of] - TIE_TOL)[0]
    order = tied[np.lexsort((phi[tied], np.abs(phi[tied]), row_of[tied]))]
    first = np.ones(len(order), dtype=bool)
    first[1:] = row_of[order[1:]] != row_of[order[:-1]]
    pick = np.zeros(len(probes), dtype=np.intp)
    pick[row_of[order[first]]] = order[first]
    return phi[pick], val[pick], problem


def _estimate_series(grid: LikelihoodGrid, counts: dict[Setting, np.ndarray]):
    """Maximum-likelihood estimates for series given as count matrices, one
    per setting of the grid: a row per series, a column per kept label.

    Returns arrays of phi_hat, loglik max and n_coinc and a list of problems,
    one per series, ``problem`` as in ``_peaks`` or for a series without
    registered coincidences. A block of more than one chunk is bounded
    BOUND_SERIES series at a time (``_pruned_rows``).
    """
    n_coinc = sum(m.sum(axis=1).astype(np.int64) for m in counts.values())
    n, width = len(n_coinc), len(grid.phis)
    phi_hat, lmax, problems = np.empty(n), np.empty(n), []
    bounds = _window_bounds(grid) if n > CHUNK_SERIES else None  # its temporaries are gone before the buffers come
    # Allocated once: a fresh 0.8 MB product per chunk may come from new pages each time
    buffers = [np.empty((min(CHUNK_SERIES, n), width)) for _ in range(2)]
    # a batch's knot values and bounds fit a buffer
    step = max(1, min(BOUND_SERIES, buffers[0].size // (2 * width // WINDOW + 4)))
    for first in range(0, n, GROUP_SERIES):
        last = min(first + GROUP_SERIES, n)
        batches = ({s: m[lo : min(lo + step, last)] for s, m in counts.items()} for lo in range(first, last, step))
        chunks = (chunk for batch in batches for chunk in _pruned_rows(grid, bounds, batch, buffers))
        phi_hat[first:last], lmax[first:last], problem = _peaks(
            grid.phis, grid.step, chunks, lambda i: _loglik_rows(grid, counts, first + i, first + i + 1).min()
        )
        problems += problem
    problems = ["no registered coincidences" if n == 0 else p for n, p in zip(n_coinc.tolist(), problems)]
    return phi_hat, lmax, n_coinc, problems


def _window_bounds(grid: LikelihoodGrid):
    """The knots (every WINDOW-th column and the last), and for the labels of
    every setting in turn their log-probabilities at the knots, ((b - a)**2 +
    1) / 8 times minus their least second difference over each window [a, b]
    between knots, ends included, and a rounding margin per count; the blocks
    of ``_peaks``' samples."""
    n = len(grid.phis)
    knots = np.r_[0 : n - 1 : WINDOW, n - 1]
    centers = np.minimum(np.clip(knots[:-1, None] + np.arange(WINDOW + 1), 1, n - 2), knots[1:, None])
    lp = np.hstack(list(grid.log_probs.values()))
    second = (lp[:-2] - 2.0 * lp[1:-1] + lp[2:])[centers - 1].min(axis=1)
    spread = (np.diff(knots) ** 2 + 1) / 8.0
    return knots, lp[knots].T, -(second * spread[:, None]).T, 2e-10 * np.abs(lp).max(axis=0), _sampled(n) // WINDOW


def _pruned_rows(grid: LikelihoodGrid, bounds, counts, buffers):
    """(rows, columns) chunks of the log-likelihood rows of the ``counts``, in
    ``buffers``: every column without ``bounds``, else ``_peaks``' samples and
    the WINDOW-column blocks whose bound (README, "The pruned likelihood
    scan") admits a maximum, a near-tie or a row's largest value, each with
    the next block, which holds its window's right end."""
    n = len(grid.phis)
    need = np.ones((len(next(iter(counts.values()))), -(-n // WINDOW)), dtype=bool)  # block b starts window b
    if bounds is not None:
        knots, at_knots, curvature, margin, sampled = bounds
        matrix = np.hstack(list(counts.values()))  # knot values to within rounding, in a buffer no chunk uses yet
        x = np.matmul(matrix, at_knots, out=buffers[0].reshape(-1)[: len(matrix) * len(knots)].reshape(len(matrix), -1))
        bound, scratch = (b.reshape(-1)[x.size : 2 * x.size - len(x)].reshape(len(x), -1) for b in buffers)
        np.maximum(np.matmul(matrix, curvature, out=bound), 0.0, out=bound)
        bound += np.maximum(x[:, :-1], x[:, 1:], out=scratch)
        need[:, : len(knots) - 1] = ~(bound < (x.max(axis=1) - TIE_TOL - matrix @ margin)[:, None])
        need[:, 1:] |= need[:, :-1].copy()
        need[:, sampled] = True  # the grid's last block among them, which may start no window
    for start in range(0, len(need), len(buffers[0])):  # a chunk's rows fit the buffers at any columns
        stop = min(start + len(buffers[0]), len(need))
        cols = (np.flatnonzero(need[start:stop].any(axis=0))[:, None] * WINDOW + np.arange(WINDOW)).ravel()
        yield _loglik_rows(grid, counts, start, stop, *buffers, cols[cols < n]), cols[cols < n]


def _first_seen(*columns: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Number the distinct rows of the key ``columns``, compared by value, in
    order of first appearance; returns each row's number and the first row of
    each number."""
    order = np.lexsort(columns[::-1])  # stable: each run of equal rows starts at its first row
    starts = np.ones(len(order), dtype=bool)
    starts[1:] = np.any([np.diff(column[order]) != 0 for column in columns], axis=0)
    first = order[starts]
    rank = np.empty(len(first), dtype=np.intp)
    rank[np.argsort(first)] = np.arange(len(first))
    number = np.empty(len(order), dtype=np.intp)
    number[order] = rank[np.cumsum(starts) - 1]
    return number, np.sort(first)


@dataclass(frozen=True, eq=False)
class Estimates:
    """Per-series estimates as columns, series in order of first appearance.
    A series, keyed by (eta, probe, phi_true, series_id) by value, takes its
    key from its first dataset ``row``; a ``group`` shares (eta, probe,
    phi_true), numbered likewise. ``crb`` is the Cramér-Rao bound of the
    series' (eta, probe) block."""

    dataset: EventDataset
    row: np.ndarray
    group: np.ndarray
    phi_hat: np.ndarray
    loglik: np.ndarray
    n_coinc: np.ndarray
    crb: np.ndarray

    def __len__(self) -> int:
        return len(self.row)

    def key(self, i: int) -> tuple:
        """(eta, probe, phi_true, series_id) of series i."""
        d, r = self.dataset, self.row[i]
        return float(d.eta[r]), PROBES[d.probe[r]], float(d.phi_true[r]), int(d.series_id[r])

    def groups(self) -> list[np.ndarray]:
        """Series of each group, in series order."""
        return np.split(np.argsort(self.group, kind="stable"), np.cumsum(np.bincount(self.group)))[:-1]


def estimate_dataset(dataset: EventDataset, include_cc: bool = True, design: Design | None = None) -> Estimates:
    """Maximum-likelihood estimates for every series of a campaign.

    Looks up the ``design`` of each (eta, probe) block once (by default one
    ``probe_designs`` call per probe kind, over its etas in block order, for
    the dataset's imperfections), builds the block's outcome models and its
    Cramér-Rao bound 1/sqrt(F), F the lossy QFI of the design's weights, and
    shares one likelihood grid per block, whose series are estimated
    together. The models, bounds, grids and estimates of the blocks are dealt
    to ``fork_map`` workers once every design is looked up. Two rows of the
    same series and setting raise ValueError; a series without phase
    information raises DegenerateLikelihoodError naming the first such series.
    """
    d = dataset
    eta, phi = d.eta, d.phi_true  # compared by value: 0.0 == -0.0
    series, rows = _first_seen(eta, d.probe, phi, d.series_id)
    if len(_first_seen(series, d.setting)[1]) < len(series):
        raise ValueError("the dataset holds two rows of one series and setting")
    group, _ = _first_seen(eta[rows], d.probe[rows], phi[rows])
    block, block_rows = _first_seen(eta[rows], d.probe[rows])
    keys = [(PROBES[code], e) for code, e in zip(d.probe[rows[block_rows]].tolist(), eta[rows[block_rows]].tolist())]
    if design is None:  # one probe_designs call per probe kind, over its etas in block order
        etas = {kind: [e for k, e in keys if k is kind] for kind, _ in keys}
        designs = {kind: dict(zip(own, probe_designs(kind, own, d.config.imperfections))) for kind, own in etas.items()}
        design = lambda kind, transmission: designs[kind][transmission]
    counts = np.zeros((len(rows), len(SETTINGS), len(LABELS)))
    counts[series, d.setting] = d.counts
    phi_hat, lmax, n_coinc = np.empty(len(rows)), np.empty(len(rows)), np.empty(len(rows), dtype=np.int64)
    crb = np.empty(len(rows))
    problems: dict[int, str] = {}  # series -> why it carries no phase information
    kept = {setting: [LABELS.index(l) for l in _kept_labels(setting, include_cc)] for setting in SETTINGS}
    blocks = []  # (series, kind, eta, design, count matrices) of each block
    for b, (kind, transmission) in enumerate(keys):
        members = np.flatnonzero(block == b)
        # C order as the products need it: a column-major matrix rounds differently
        matrices = {s: np.ascontiguousarray(counts[members, SETTINGS.index(s)][:, idx]) for s, idx in kept.items()}
        blocks.append((members, kind, transmission, design(kind, transmission), matrices))
    del counts  # the blocks hold every count now; the workers need not inherit two copies

    def estimate_block(block):
        # Each grid is built beside its estimate: building a design sweep's 16 grids first took 8,000 more page faults
        _, kind, transmission, (weights, quarter), matrices = block
        models = setting_models(transmission, d.config.imperfections, (weights, quarter))
        information = qfi_lossy(weights, transmission)
        if not 0.0 < information < math.inf:  # the bound would be infinite, 0 or nan
            raise ValueError(
                f"eta={transmission:.12g} probe={kind.value}: quantum Fisher information {information!r}"
                " gives no finite, positive Cramér-Rao bound"
            )
        bound = 1.0 / math.sqrt(information)
        return bound, _estimate_series(likelihood_grid(models, include_cc=include_cc), matrices)

    for (members, *_), (bound, result) in zip(blocks, fork_map(estimate_block, blocks)):
        crb[members] = bound
        phi_hat[members], lmax[members], n_coinc[members], problem = result
        problems.update((i, p) for i, p in zip(members.tolist(), problem) if p is not None)
    estimates = Estimates(d, rows, group, phi_hat, lmax, n_coinc, crb)
    if problems:
        first = min(problems)
        eta_true, probe, phi_true, series_id = estimates.key(first)
        raise DegenerateLikelihoodError(
            f"series eta={eta_true:.12g} probe={probe.value} phi_true={phi_true:.12g} series_id={series_id}: {problems[first]}"
        )
    return estimates


def analyze(estimates: Estimates) -> list[UncertaintyRow]:
    """Per-(eta, probe, phase) uncertainty report, one row per group of
    ``estimates``.

    The sample standard deviation is rescaled by the square root of the mean
    number of registered coincidences per series, giving the effective
    uncertainty per photon pair, and compared with the group's ``crb`` from
    ``estimate_dataset``.
    """
    rows = []
    for members in estimates.groups():
        eta, probe, phi_true, _ = estimates.key(members[0])
        if len(members) < 2:
            raise ValueError(f"group (eta={eta}, probe={probe.value}, phi={phi_true}) has fewer than 2 estimates")
        values = estimates.phi_hat[members]
        counts = estimates.n_coinc[members].astype(float)
        sigma = float(np.std(values, ddof=1))
        m_bar = float(counts.mean())
        crb = float(estimates.crb[members[0]])
        rows.append(UncertaintyRow(eta, probe, phi_true, float(values.mean()), sigma, m_bar, sigma * math.sqrt(m_bar), crb))
    return rows


#: Most bins of one histogram, or of all histograms of one estimate; checked before allocating.
MAX_BINS = 10**6


def histogram(estimates, bin_width: float, bounds: tuple[float, float] | None = None):
    """Fixed-width binning of phase estimates, left-closed right-open bins.

    Bin edges are anchored at integer multiples of the width, so boundaries do
    not depend on sample order. Returns (edges, counts). A width that would
    give more than MAX_BINS bins raises ValueError.
    """
    if bin_width <= 0.0:
        raise ValueError("bin width must be positive")
    values = np.array(estimates, dtype=float)
    if values.size == 0:
        raise ValueError("cannot histogram an empty set of estimates")
    lo, hi = bounds or (float(values.min()), float(values.max()))
    # In bin units; a quotient that overflows to inf fails too.
    if not ((hi - lo) / bin_width <= MAX_BINS and math.isfinite(max(abs(lo), abs(hi)) / bin_width)):
        raise ValueError(f"bin width {bin_width!r} spans more than {MAX_BINS} bins")
    if bounds is None:
        lo = math.floor(lo / bin_width) * bin_width
        hi = math.ceil(hi / bin_width + 1e-9) * bin_width
        if hi <= lo:
            hi = lo + bin_width
        if not math.isfinite(hi - lo):  # edges snapped to multiples of a width near the float range
            raise ValueError(f"bin width {bin_width!r} puts the bin edges beyond the float range")
    n_bins = max(int(round((hi - lo) / bin_width)), 1)
    edges = lo + bin_width * np.arange(n_bins + 1)
    idx = np.searchsorted(edges, values, side="right") - 1  # the bins of the edges as printed
    keep = (idx >= 0) & (idx < n_bins)
    counts = np.bincount(idx[keep], minlength=n_bins)
    return edges, counts
