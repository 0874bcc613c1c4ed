"""Maximum-likelihood estimation: likelihood scoring, grid search, efficiency."""

import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from lossyphase.bounds import NOON_WEIGHTS, optimize_weights, qfi_lossy
from lossyphase.detection import LABELS, Setting
from lossyphase import estimator, workers
from lossyphase.estimator import (
    CHUNK_SERIES,
    MAX_BINS,
    TIE_TOL,
    WINDOW,
    DegenerateLikelihoodError,
    LikelihoodGrid,
    _estimate_series,
    _loglik_rows,
    _NEG,
    analyze,
    estimate_dataset,
    histogram,
    likelihood_grid,
)
from lossyphase.imperfections import ImperfectionParams
from lossyphase.montecarlo import PROBES, SETTINGS, ExperimentConfig, ProbeKind, probe_designs, run_campaign, setting_models
from oracles import _best_phis, full_scan_series

IDEAL = ImperfectionParams()


def models_for(kind, eta):
    return setting_models(eta, IDEAL, probe_designs(kind, [eta], IDEAL)[0])


def expected_counts(models, phi, m_per_setting, include_cc=True):
    counts = {}
    for setting, model in models.items():
        probs = np.asarray(model.probabilities(phi), dtype=float)
        labels = setting.kept_labels
        counts[setting] = {
            label: m_per_setting * float(probs[LABELS.index(label)]) for label in labels
        }
    return counts


def count_matrices(grid, series):
    """Count matrices of ``series``, each given as {setting: {label: count}}
    with a missing setting or label counting zero, as ``_estimate_series``
    takes them: a row per series, a column per kept label of the grid."""
    return {
        setting: np.array([[float(s.get(setting, {}).get(label, 0)) for label in labels] for s in series]).reshape(-1, len(labels))
        for setting, labels in grid.labels.items()
    }


def score_rows(models, series):
    """The search grid and the log-likelihood row of each of ``series`` over it."""
    grid = likelihood_grid(models)
    return grid, _loglik_rows(grid, count_matrices(grid, series), 0, len(series))


def grid_index(grid, phi):
    """Index of the grid point nearest ``phi``."""
    return int(np.argmin(np.abs(grid.phis - phi)))


def best_phi(phis, row, step):
    """Scalar peak search, the oracle for the batched one: local maxima are
    refined with a parabola through the best grid point and its neighbors;
    near-ties are broken toward the smallest |phi|."""
    with np.errstate(invalid="ignore"):  # -inf - -inf in a row that is -inf everywhere
        span = float(np.max(row) - np.min(row))
    if not np.isfinite(span) and np.max(row) <= _NEG:
        raise DegenerateLikelihoodError("likelihood is -inf everywhere")
    if span < 1e-12:
        raise DegenerateLikelihoodError("likelihood is flat over the search interval")
    inner = row[1:-1]
    is_max = (inner >= row[:-2]) & (inner >= row[2:])
    candidates = []
    for i in np.nonzero(is_max)[0] + 1:
        lm, l0, lp = row[i - 1], row[i], row[i + 1]
        with np.errstate(invalid="ignore"):
            denom = lm - 2.0 * l0 + lp
        if denom < 0.0:
            shift = 0.5 * (lm - lp) / denom
            value = l0 - (lm - lp) ** 2 / (8.0 * denom)
        else:
            shift, value = 0.0, l0
        candidates.append((float(phis[i] + shift * step), float(value)))
    if row[0] >= row[1]:
        candidates.append((float(phis[0]), float(row[0])))
    if row[-1] >= row[-2]:
        candidates.append((float(phis[-1]), float(row[-1])))
    best_value = max(v for _, v in candidates)
    tied = [(phi, v) for phi, v in candidates if v >= best_value - TIE_TOL]
    tied.sort(key=lambda c: (abs(c[0]), c[0]))
    return tied[0]


def assert_batched_matches_scalar(phis, rows, step):
    phi_hat, value, problem = _best_phis(phis, rows, step)
    for i, row in enumerate(rows):
        try:
            expected = best_phi(phis, row, step)
        except DegenerateLikelihoodError as exc:
            assert problem[i] == str(exc)
        else:
            assert problem[i] is None
            # repr tells -0.0 from 0.0 and compares every bit
            assert (repr(float(phi_hat[i])), repr(float(value[i]))) == tuple(map(repr, expected))


@st.composite
def likelihood_rows(draw, n):
    """Finite rows (or rows of -inf) shaped to reach every branch of the
    peak search: several lobes, mirror pairs within and just beyond TIE_TOL,
    maxima on the edges, plateaus, log(0) stand-ins, flat rows."""
    kind = draw(st.sampled_from(["lobes", "mirror", "levels", "flat", "dead"]))
    x = np.arange(n, dtype=float)
    if kind == "lobes":
        row = np.zeros(n)
        for _ in range(draw(st.integers(1, 3))):
            amp, freq, phase = draw(st.tuples(st.floats(0.1, 50), st.floats(0.05, 2.0), st.floats(-3.2, 3.2)))
            row += amp * np.cos(freq * x + phase)
        row += draw(st.floats(-0.2, 0.2)) * x  # tilt toward one edge
    elif kind == "mirror":
        half = np.array(draw(st.lists(st.floats(-20, 0), min_size=n, max_size=n)))
        delta = draw(st.sampled_from([0.0, 1e-6, 0.5 * TIE_TOL, TIE_TOL, 1.5 * TIE_TOL, -0.5 * TIE_TOL]))
        row = np.maximum(half, half[::-1]) + delta * (x > n / 2)
    elif kind == "levels":
        row = np.array(draw(st.lists(st.sampled_from([0.0, -1.0, -2.0, -TIE_TOL / 2, 3.0]), min_size=n, max_size=n)))
    elif kind == "flat":
        row = np.full(n, draw(st.floats(-1e3, 1e3))) + draw(st.sampled_from([0.0, 1e-13])) * (x == n // 2)
    else:
        return np.full(n, -np.inf)
    if kind != "flat" and draw(st.booleans()):
        holes = draw(st.lists(st.integers(0, n - 1), max_size=3))
        row[holes] = _NEG * draw(st.integers(1, 5))
    return row


class TestBatchedPeakSearch:
    @given(st.data())
    def test_matches_scalar_oracle(self, data):
        n = data.draw(st.integers(3, 40))
        step = data.draw(st.sampled_from([1e-3, 0.25]))
        # zero on the grid, so mirror candidates at +-phi tie on |phi|
        phis = step * (np.arange(n) - data.draw(st.integers(0, n - 1)))
        rows = np.array(data.draw(st.lists(likelihood_rows(n), min_size=1, max_size=6)))
        assert_batched_matches_scalar(phis, rows, step)

    @pytest.mark.parametrize(
        "origin, row",
        [
            (2, [5.0, 4.0, 3.0, 4.0, 5.0, 4.0, 3.0]),  # left edge ties an interior peak at +|phi|
            (3, [5.0 - 1e-5, 5.0, 5.0, 5.0]),  # right-edge plateau at phi = 0 wins a near-tie
            (3, [1.0, 3.0, 2.0, 0.0, 2.0, 3.0, 1.0]),  # mirror lobes: the negative one wins
            (0, [0.0, _NEG, 0.0, _NEG, 0.0]),  # log(0) stand-ins between equal maxima
        ],
    )
    def test_crafted_rows(self, origin, row):
        step = 1e-3
        phis = step * (np.arange(len(row)) - origin)
        assert_batched_matches_scalar(phis, np.array([row, row[::-1]]), step)

    def test_dead_row_warns_nothing(self):
        phis = 1e-3 * (np.arange(5) - 2)
        rows = np.array([np.full(5, -np.inf), [0.0, -1.0, -2.0, -1.0, 0.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _, _, problem = _best_phis(phis, rows, 1e-3)
            with pytest.raises(DegenerateLikelihoodError, match="-inf everywhere"):
                best_phi(phis, rows[0], 1e-3)
        assert problem == ["likelihood is -inf everywhere", None]


#: Kinds of series for the boundary test, by count pattern on the synthetic
#: grid; the first three carry no phase information, so only their rows may
#: need an exact minimum.
UNSURE_KINDS = ("zero", "flat", "tiny")
SERIES_KINDS = (*UNSURE_KINDS, "mirror", "lobe")


def synthetic_grid():
    """A 301-point grid symmetric about phi = 0 whose quarter labels give an
    exactly mirror-symmetric pair of lobes and a lobe off zero, and whose half
    labels give a constant, a spread of 3e-14 and a tilt."""
    step = 0.01
    phis = step * (np.arange(301) - 150)
    mirror = -((phis * phis - 0.09) ** 2)
    quarter = np.column_stack([mirror, np.cos(phis - 0.2) * 5.0])
    half = np.column_stack([np.full(len(phis), -1.0), 1e-14 * phis, 0.3 * phis])
    labels = {Setting.QUARTER: ("AB", "AA"), Setting.HALF: ("AB", "AA", "BB")}
    return LikelihoodGrid(phis, labels, {Setting.QUARTER: quarter, Setting.HALF: half})


def series_counts(kind, rng):
    """(quarter, half) counts of a series of ``kind`` on ``synthetic_grid``."""
    k = int(rng.integers(1, 6))
    quarter, half = {
        "zero": ([0, 0], [0, 0, 0]),
        "flat": ([0, 0], [k, 0, 0]),
        "tiny": ([0, 0], [k, 1, 0]),
        "mirror": ([k, 0], [int(rng.integers(0, 3)), 0, 0]),
        "lobe": ([int(rng.integers(0, 3)), k], [0, 0, int(rng.integers(0, 3))]),
    }[kind]
    return np.array(quarter, dtype=float), np.array(half, dtype=float)


class TestChunkAndGroupBoundaries:
    """``_estimate_series`` with chunks of 3 series resolved in groups of 7."""

    @given(st.lists(st.sampled_from(SERIES_KINDS), min_size=1, max_size=22), st.integers(0, 2**16))
    @example(["lobe", "lobe", "zero", "flat", "mirror", "lobe", "tiny", "mirror", "zero", "flat", "lobe"], 0)
    @example(["mirror", "lobe", "mirror", "tiny", "lobe", "mirror", "flat", "zero", "mirror", "tiny"], 1)
    def test_matches_scalar_oracle(self, kinds, seed):
        grid = synthetic_grid()
        rng = np.random.default_rng(seed)
        quarter, half = (np.array(column) for column in zip(*(series_counts(kind, rng) for kind in kinds)))
        counts = {Setting.QUARTER: quarter, Setting.HALF: half}
        fallback = []

        def spy(grid, counts, start, stop, *buffers):
            if not buffers:  # the exact-minimum recomputation of one row
                fallback.append((start, stop))
            return _loglik_rows(grid, counts, start, stop, *buffers)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(estimator, "CHUNK_SERIES", 3)
            patch.setattr(estimator, "GROUP_SERIES", 7)
            patch.setattr(estimator, "_loglik_rows", spy)
            phi_hat, lmax, n_coinc, problems = _estimate_series(grid, counts)
        rows = _loglik_rows(grid, counts, 0, len(kinds))
        for start, stop in fallback:  # the row alone has the bits it has in its chunk
            alone = _loglik_rows(grid, counts, start, stop)
            np.testing.assert_array_equal(alone.view(np.uint64), rows[start:stop].view(np.uint64))
        assert sorted(start for start, _ in fallback) == [i for i, kind in enumerate(kinds) if kind in UNSURE_KINDS]
        for i, kind in enumerate(kinds):
            assert n_coinc[i] == quarter[i].sum() + half[i].sum()
            quarter_row, half_row = (m[i : i + 1] @ grid.log_probs[s].T for m, s in ((quarter, Setting.QUARTER), (half, Setting.HALF)))
            row = (quarter_row + half_row)[0]
            if kind == "zero":
                assert problems[i] == "no registered coincidences"
                continue
            try:
                expected = best_phi(grid.phis, row, grid.step)
            except DegenerateLikelihoodError as exc:
                assert kind in UNSURE_KINDS and problems[i] == str(exc)
            else:
                assert kind not in UNSURE_KINDS and problems[i] is None
                assert (repr(float(phi_hat[i])), repr(float(lmax[i]))) == tuple(map(repr, expected))
                if kind == "mirror":  # the lobes at +-0.3 tie; the negative one wins
                    assert phi_hat[i] < 0.0

    def test_row_at_or_below_log0_standin_checks_its_minimum(self):
        """The sampled columns span 2e30, but the unsampled -inf makes the
        row -inf everywhere in the scalar search's terms."""
        phis = 1e-3 * (np.arange(5) - 2)
        row = [_NEG, 3 * _NEG, -np.inf, 3 * _NEG, _NEG]
        assert_batched_matches_scalar(phis, np.array([row, [0.0, -1.0, -2.0, -1.0, 0.0]]), 1e-3)


def assert_same_scan(grid, counts):
    """``_estimate_series`` gives what the full-grid scan gives, bit for bit;
    returns it."""
    result = phi_hat, lmax, n_coinc, problems = _estimate_series(grid, counts)
    expected = full_scan_series(grid, counts)
    assert problems == expected[3]
    np.testing.assert_array_equal(n_coinc, expected[2])
    np.testing.assert_array_equal(phi_hat.view(np.uint64), expected[0].view(np.uint64))
    np.testing.assert_array_equal(lmax.view(np.uint64), expected[1].view(np.uint64))
    return result


#: Log-probability columns of the synthetic scan grids, as functions of the
#: grid's phis and drawn amplitude, frequency and offset.
LABEL_SHAPES = {
    "mirror": lambda phis, a, f, c: -a * (phis * phis - c * c) ** 2,  # exact mirror lobes at +-c on a symmetric grid
    "lobe": lambda phis, a, f, c: a * np.cos(f * phis - c) - a,
    "plateau": lambda phis, a, f, c: np.minimum(a * np.cos(f * phis - c), 0.3 * a) - a,
    "constant": lambda phis, a, f, c: np.full(len(phis), -a),
    "tiny": lambda phis, a, f, c: 1e-14 * phis - 1.0,
    "tilt": lambda phis, a, f, c: 0.3 * a * phis - a,
    "log0": lambda phis, a, f, c: np.full(len(phis), _NEG),
    "holes": lambda phis, a, f, c: np.where(np.cos(40.0 * f * phis - c) > 0.97, _NEG, a * np.cos(f * phis - c) - a),
}


@st.composite
def synthetic_scans(draw):
    """A grid of 3 to 996 columns, not a multiple of WINDOW, symmetric about
    phi = 0 when odd, whose two settings' labels take LABEL_SHAPES in C or
    Fortran memory order, and the count matrices of 4 to 40 series: counts
    on every label, on one label (a flat, tiny or log(0) series where that
    label is) or on none."""
    n = draw(st.integers(3, 996).filter(lambda n: n % WINDOW))
    phis = draw(st.sampled_from([1e-3, 0.01])) * (np.arange(n) - (n - 1) // 2)
    labels, logs = {}, {}
    for setting in (Setting.QUARTER, Setting.HALF):
        shapes = draw(st.lists(st.sampled_from(sorted(LABEL_SHAPES)), min_size=1, max_size=3))
        columns = [
            LABEL_SHAPES[shape](phis, *draw(st.tuples(st.floats(0.1, 30.0), st.floats(0.5, 20.0), st.floats(-1.5, 1.5))))
            for shape in shapes
        ]
        order = draw(st.sampled_from(["C", "F"]))
        labels[setting], logs[setting] = LABELS[: len(shapes)], np.array(np.column_stack(columns), order=order)
    series = draw(st.integers(4, 40))
    counts = {setting: np.zeros((series, len(kept))) for setting, kept in labels.items()}
    for i in range(series):
        support = draw(st.sampled_from(["all", "one", "none"]))
        for setting, matrix in counts.items():
            if support == "all":
                matrix[i] = draw(st.lists(st.sampled_from([0, 1, 3, 40]), min_size=matrix.shape[1], max_size=matrix.shape[1]))
        if support == "one":
            setting = draw(st.sampled_from(sorted(counts, key=lambda s: s.value)))
            counts[setting][i, draw(st.integers(0, counts[setting].shape[1] - 1))] = draw(st.sampled_from([1, 2, 40]))
    return LikelihoodGrid(phis, labels, logs), counts


def crafted_scan(n, step, quarter, half, series=5):
    """A grid of n columns symmetric about phi = 0 (n odd) with one label a
    setting, each given as a function of phis, and ``series`` series with one
    count on each label."""
    phis = step * (np.arange(n) - (n - 1) // 2)
    logs = {Setting.QUARTER: quarter(phis)[:, None], Setting.HALF: half(phis)[:, None]}
    grid = LikelihoodGrid(phis, {Setting.QUARTER: ("AB",), Setting.HALF: ("AB",)}, logs)
    return grid, {setting: np.ones((series, 1)) for setting in logs}


def kinks(n):
    """Piecewise-linear values over n columns: a peak of -1 at column 48,
    rising 0.001 a column toward it and falling 10 a column after it, and a
    symmetric peak of 0 at column 80."""
    i = np.arange(n, dtype=float)
    return np.maximum(np.where(i <= 48, -1.0 + 0.001 * (i - 48), -1.0 - 10.0 * (i - 48)), -0.5 * np.abs(i - 80))


class TestPrunedScan:
    """The scan that evaluates only the grid windows that can hold a
    maximum gives the full-grid scan's ``phi_hat``, ``loglik``, ``n_coinc``
    and problems bit for bit."""

    @pytest.fixture(autouse=True)
    def one_worker(self, monkeypatch):
        monkeypatch.setattr(workers, "cpu_count", lambda: 1)

    @staticmethod
    def assert_same_estimates(monkeypatch, dataset):
        scanned = []

        def checked(grid, counts):
            scanned.append(len(grid.phis))
            return assert_same_scan(grid, counts)

        monkeypatch.setattr(estimator, "_estimate_series", checked)
        for include_cc in (True, False):
            estimate_dataset(dataset, include_cc=include_cc)
        assert len(scanned) == 2 * len(dataset.config.eta_list)

    @pytest.mark.parametrize("kind", [ProbeKind.NOON, ProbeKind.OPTIMAL], ids=["noon", "optimal"])
    def test_default_campaigns(self, monkeypatch, kind):
        dataset = run_campaign(ExperimentConfig(probe_kind=kind, master_seed=0))
        self.assert_same_estimates(monkeypatch, dataset)

    def test_sweep_imperfections(self, monkeypatch):
        """Three design-sweep etas, two with a |11> component, at the sweep's
        imperfections and events, with more series than one chunk."""
        config = ExperimentConfig(
            eta_list=(0.1, 0.27, 0.78), phase_list=(-0.02, 0.0, 0.02), series_count=2 * CHUNK_SERIES,
            events_per_series=500, master_seed=11,
            imperfections=ImperfectionParams(epsilon=0.02, delta=0.1, lambda_hom=0.95, v_classical=0.97),
        )
        self.assert_same_estimates(monkeypatch, run_campaign(config))

    @given(synthetic_scans())
    @example(
        (synthetic_grid(), {Setting.QUARTER: np.array([[3.0, 0.0]] * 5), Setting.HALF: np.array([[1.0, 0.0, 0.0]] * 5)})
    )
    # broad mirror lobes at +-0.3, the one at -0.3 lower by TIE_TOL / 2: a near-tie it wins by its smaller |phi|
    @example(crafted_scan(1001, 1e-3, lambda phis: -((phis * phis - 0.09) ** 2), lambda phis: TIE_TOL / 1.2 * phis))
    # the maximum at column 31, the last of its block, and a steep fall after it: the window after it is out,
    # but that window's first column is the maximum's neighbor
    @example(crafted_scan(101, 0.01, lambda phis: np.where(phis <= -0.19, 0.1, -50.0) * (phis + 0.19), np.zeros_like))
    # a kink at knot 48 whose parabola refinement beats the grid maximum at column 80: only the curvature at
    # the knot itself, which both windows sharing it count, keeps them
    @example(crafted_scan(101, 0.01, lambda phis: kinks(len(phis)), np.zeros_like))
    # one series on three columns: its row buffers hold fewer values than one batch's knot values and bounds
    @example(crafted_scan(3, 0.01, lambda phis: -phis * phis, np.zeros_like, series=1))
    def test_synthetic_grids(self, scan):
        """Chunks of 3 series, groups of 7 and bound batches of 5, so a
        scan crosses every kind of boundary."""
        with pytest.MonkeyPatch.context() as patch:
            for name, value in (("CHUNK_SERIES", 3), ("GROUP_SERIES", 7), ("BOUND_SERIES", 5)):
                patch.setattr(estimator, name, value)
            assert_same_scan(*scan)


class TestLogLikelihood:
    """Rows of ``likelihood_grid`` scored against counts by ``_loglik_rows``."""

    def test_zero_counts_score_zero(self):
        _, rows = score_rows(models_for(ProbeKind.NOON, 0.361), [{}])
        assert np.all(rows == 0.0)

    def test_maximized_at_generating_phase(self):
        models = models_for(ProbeKind.OPTIMAL, 0.361)
        grid, (row,) = score_rows(models, [expected_counts(models, 0.04, 1000.0)])
        assert abs(grid.phis[int(np.argmax(row))] - 0.04) < 2e-3

    def test_single_coincidence_matches_fringe(self):
        grid, (row,) = score_rows(models_for(ProbeKind.NOON, 1.0), [{Setting.QUARTER: {"AB": 1}}])
        for phi in (-0.3, 0.0, 0.2):
            i = grid_index(grid, phi)
            # P(AB) = (1 - sin 2 phi)/2 and the no-loss labels sum to one at eta = 1
            expected = math.log((1 - math.sin(2 * grid.phis[i])) / 2)
            assert abs(row[i] - expected) < 1e-12

    def test_zero_probability_with_counts(self):
        """A count on a label of probability zero scores the log(0) stand-in."""
        grid, (row,) = score_rows(models_for(ProbeKind.NOON, 1.0), [{Setting.HALF: {"AC": 3}}])
        assert np.all(grid.log_probs[Setting.HALF][:, grid.labels[Setting.HALF].index("AC")] == _NEG)
        assert np.all(row == 3 * _NEG)

    @pytest.mark.parametrize("kind, eta", [(ProbeKind.OPTIMAL, 0.361), (ProbeKind.NOON, 1.0)], ids=["optimal", "noon-lossless"])
    @pytest.mark.parametrize("include_cc", [True, False], ids=["3-and-3-labels", "3-and-2-labels"])
    def test_reused_buffers_match_fresh_product(self, kind, eta, include_cc):
        """Rows written into reused buffers equal, bit for bit, the fresh
        stacked products summed, for full chunks and a last partial one; a
        lossless N00N grid holds the log(0) stand-in."""
        grid = likelihood_grid(models_for(kind, eta), include_cc=include_cc)
        assert [len(kept) for kept in grid.labels.values()] == [3, 3 if include_cc else 2]
        rng = np.random.default_rng(7)
        n = 2 * CHUNK_SERIES + 5
        counts = {setting: rng.integers(0, 300, (n, len(kept))).astype(float) for setting, kept in grid.labels.items()}
        buffers = [np.full((CHUNK_SERIES, len(grid.phis)), np.nan) for _ in range(2)]
        for start in range(0, n, CHUNK_SERIES):
            stop = min(start + CHUNK_SERIES, n)
            quarter, half = ((counts[s][start:stop, None, :] @ grid.log_probs[s].T)[:, 0, :] for s in grid.labels)
            fresh = quarter + half
            rows = _loglik_rows(grid, counts, start, stop, *buffers)
            assert rows.shape == fresh.shape and np.shares_memory(rows, buffers[0])
            np.testing.assert_array_equal(rows.view(np.uint64), fresh.view(np.uint64))
            alone = _loglik_rows(grid, counts, start, stop)
            np.testing.assert_array_equal(alone.view(np.uint64), fresh.view(np.uint64))


class TestMlEstimate:
    """Maximum-likelihood estimates by ``_estimate_series`` and ``estimate_dataset``."""

    @staticmethod
    def estimate(models, series):
        grid = likelihood_grid(models)
        return _estimate_series(grid, count_matrices(grid, series))

    def test_recovers_injected_phase(self):
        models = models_for(ProbeKind.OPTIMAL, 0.361)
        (phi_hat,), _, _, (problem,) = self.estimate(models, [expected_counts(models, 0.04, 1000.0)])
        assert problem is None and abs(phi_hat - 0.04) < 2e-3

    def test_interval_invariant(self):
        models = models_for(ProbeKind.OPTIMAL, 0.361)
        (phi_hat,), _, _, _ = self.estimate(models, [expected_counts(models, 0.1, 500.0)])
        assert -math.pi / 2 <= phi_hat < math.pi / 2

    def test_degenerate_flat_likelihood(self):
        """A row of zero counts is flat; a series of them stops estimate_dataset."""
        grid, rows = score_rows(models_for(ProbeKind.NOON, 0.361), [{}])
        assert _best_phis(grid.phis, rows, grid.step)[2] == ["likelihood is flat over the search interval"]
        config = ExperimentConfig(
            eta_list=(0.361,), probe_kind=ProbeKind.NOON, phase_list=(0.0,), series_count=3, events_per_series=50, master_seed=1
        )
        dataset = run_campaign(config)
        dataset.counts[dataset.series_id == 1] = 0
        with pytest.raises(DegenerateLikelihoodError, match="series_id=1: no registered coincidences"):
            estimate_dataset(dataset)

    def test_mirror_lobe_resolved_toward_small_phi(self):
        """The ideal N00N likelihood is exactly symmetric under phi -> pi/2 - phi;
        the tie must go to the lobe nearer zero."""
        models = models_for(ProbeKind.NOON, 0.361)
        phis_true = (0.0, 0.2, 0.4)
        phi_hat, _, _, problems = self.estimate(models, [expected_counts(models, phi, 1000.0) for phi in phis_true])
        assert problems == [None] * len(phis_true)
        for est, phi_true in zip(phi_hat, phis_true):
            assert abs(est - phi_true) < 2e-3
            assert abs(est - (math.pi / 2 - phi_true)) > 0.1

    def test_median_unbiased_at_zero(self):
        config = ExperimentConfig(
            eta_list=(0.361,),
            probe_kind=ProbeKind.OPTIMAL,
            phase_list=(0.0,),
            series_count=300,
            events_per_series=2000,
            master_seed=31,
        )
        estimates = estimate_dataset(run_campaign(config))
        values = estimates.phi_hat
        # median within Monte Carlo error of the truth
        assert abs(np.median(values)) < 5 * np.std(values) / math.sqrt(len(values))

    def test_likelihood_peak_beats_displaced_phase(self):
        """At 2000 events the truth outscores truth +- 0.3 rad nearly always."""
        config = ExperimentConfig(
            eta_list=(0.361,),
            probe_kind=ProbeKind.OPTIMAL,
            phase_list=(0.0,),
            series_count=300,
            events_per_series=2000,
            master_seed=13,
        )
        dataset = run_campaign(config)
        groups: dict[int, dict] = {}
        for series_id, setting, counts in zip(dataset.series_id.tolist(), dataset.setting.tolist(), dataset.counts.tolist()):
            groups.setdefault(series_id, {})[SETTINGS[setting]] = dict(zip(LABELS, counts))
        grid, rows = score_rows(models_for(ProbeKind.OPTIMAL, 0.361), list(groups.values()))
        at_truth = rows[:, grid_index(grid, 0.0)]
        displaced = np.maximum(rows[:, grid_index(grid, 0.3)], rows[:, grid_index(grid, -0.3)])
        assert np.sum(at_truth > displaced) >= 0.99 * len(groups)


class TestEstimateDataset:
    def test_matches_per_series_scalar_path(self):
        """Chunked estimates equal, bit for bit, one matrix-vector product and
        one scalar peak search per series, across chunk boundaries."""
        config = ExperimentConfig(
            eta_list=(0.361, 0.547),
            probe_kind=ProbeKind.NOON,
            phase_list=(0.0, 0.7),
            series_count=CHUNK_SERIES // 2 + 7,
            events_per_series=150,
            master_seed=21,
        )
        dataset = run_campaign(config)
        estimates = estimate_dataset(dataset, include_cc=False)
        assert len(estimates) == 2 * 2 * config.series_count
        groups = {}
        for i, counts in enumerate(dataset.counts.tolist()):
            key = (float(dataset.eta[i]), PROBES[dataset.probe[i]], float(dataset.phi_true[i]), int(dataset.series_id[i]))
            groups.setdefault(key, {})[SETTINGS[dataset.setting[i]]] = dict(zip(LABELS, counts))
        keys = [estimates.key(i) for i in range(len(estimates))]
        assert keys == list(groups)
        grids = {eta: likelihood_grid(models_for(ProbeKind.NOON, eta), include_cc=False) for eta in config.eta_list}
        for i, key in enumerate(keys):
            grid = grids[key[0]]
            vecs = [
                np.array([[float(groups[key][s].get(label, 0)) for label in kept]])
                for s, kept in grid.labels.items()
            ]
            quarter, half = (vec @ grid.log_probs[s].T for vec, s in zip(vecs, grid.labels))
            phi_hat, lmax = best_phi(grid.phis, (quarter + half)[0], grid.step)
            assert (repr(float(estimates.phi_hat[i])), repr(float(estimates.loglik[i]))) == (repr(phi_hat), repr(lmax))
            assert estimates.n_coinc[i] == sum(int(vec.sum()) for vec in vecs)

    def test_default_designs_take_one_call_per_probe_kind(self, monkeypatch):
        """Without a design, each probe kind's blocks get theirs from one
        probe_designs call over its etas in block order, made in the caller;
        the estimates equal those of the designs the campaigns drew with, as
        a simulate manifest records them and estimate replays them."""
        campaigns = [
            ExperimentConfig(eta_list=etas, probe_kind=kind, phase_list=(0.0, 0.02), series_count=3, events_per_series=300)
            for kind, etas in ((ProbeKind.NOON, (0.361, 0.547)), (ProbeKind.OPTIMAL, (0.547, 0.2)))
        ]
        recorded, parts = {}, []
        for config in campaigns:
            designs = probe_designs(config.probe_kind, config.eta_list, config.imperfections)
            recorded.update(((config.probe_kind, eta), design) for eta, design in zip(config.eta_list, designs))
            parts.append(run_campaign(config, designs))
        columns = ("eta", "probe", "phi_true", "setting", "series_id", "counts", "seed_used")
        dataset = replace(parts[0], **{name: np.concatenate([getattr(p, name) for p in parts]) for name in columns})
        calls = []

        def counted(kind, etas, params):
            calls.append((kind, list(etas)))
            return probe_designs(kind, etas, params)

        monkeypatch.setattr(estimator, "probe_designs", counted)
        default = estimate_dataset(dataset)
        assert calls == [(ProbeKind.NOON, [0.361, 0.547]), (ProbeKind.OPTIMAL, [0.547, 0.2])]
        replayed = estimate_dataset(dataset, design=lambda kind, eta: recorded[kind, eta])
        assert len(calls) == 2
        for name in ("row", "group", "phi_hat", "loglik", "n_coinc", "crb"):
            assert getattr(default, name).tobytes() == getattr(replayed, name).tobytes(), name

    @pytest.mark.parametrize("phi", [0.0, -0.0], ids=["same-bits", "signed-zero-phase"])
    def test_repeated_series_setting_rejected(self, phi):
        """A second row of one series and setting is rejected, not merged,
        also when its phi_true is -0.0 against the first row's 0.0."""
        config = ExperimentConfig(
            eta_list=(0.361,), probe_kind=ProbeKind.NOON, phase_list=(0.0,), series_count=4,
            events_per_series=200, master_seed=8,
        )
        dataset = run_campaign(config)
        rows = [*range(len(dataset.series_id)), 3]  # row 3 once more, at the end
        phi_true = dataset.phi_true[rows]
        phi_true[-1] = phi
        columns = {name: getattr(dataset, name)[rows] for name in ("eta", "probe", "setting", "series_id", "counts", "seed_used")}
        repeated = replace(dataset, phi_true=phi_true, **columns)
        with pytest.raises(ValueError, match="two rows of one series and setting"):
            estimate_dataset(repeated)

    def test_consistency_sigma_scales_with_events(self):
        sigmas = []
        event_counts = (2000, 20000, 200000)
        for events in event_counts:
            config = ExperimentConfig(
                eta_list=(0.361,),
                probe_kind=ProbeKind.OPTIMAL,
                phase_list=(0.04,),
                series_count=300,
                events_per_series=events,
                master_seed=9,
            )
            estimates = estimate_dataset(run_campaign(config))
            sigmas.append(np.std(estimates.phi_hat, ddof=1))
        slope = np.polyfit(np.log(event_counts), np.log(sigmas), 1)[0]
        assert abs(slope + 0.5) < 0.05


class TestAnalyze:
    def test_headline_efficiency(self):
        """Rescaled uncertainty reaches the Cramér-Rao bound within 5 percent.

        Pooled over the five phases nearest the operating point: the sample
        deviation of 300 series carries about 4 percent noise on its own, so a
        single group cannot support a 5 percent assertion.
        """
        config = ExperimentConfig(
            eta_list=(0.361,),
            probe_kind=ProbeKind.OPTIMAL,
            phase_list=(0.0, 0.02, -0.02, 0.04, -0.04),
            series_count=300,
            events_per_series=2000,
            master_seed=17,
        )
        dataset = run_campaign(config)
        rows = analyze(estimate_dataset(dataset))
        ratios = [row.sigma_scaled / row.crb for row in rows]
        assert abs(float(np.mean(ratios)) - 1.0) < 0.05

    def test_efficiency_band_all_groups(self):
        """Mean rescaled-uncertainty ratio per (eta, probe) sits in [0.95, 1.10]
        for both probes and all four transmissions near the operating point."""
        phases = (0.0, 0.02, -0.02, 0.04, -0.04)
        for kind in (ProbeKind.OPTIMAL, ProbeKind.NOON):
            config = ExperimentConfig(
                probe_kind=kind,
                phase_list=phases,
                series_count=300,
                events_per_series=2000,
                master_seed=0,
            )
            dataset = run_campaign(config)
            rows = analyze(estimate_dataset(dataset))
            for eta in config.eta_list:
                ratios = [r.sigma_scaled / r.crb for r in rows if r.eta == eta]
                assert 0.95 <= float(np.mean(ratios)) <= 1.10

    def test_optimal_beats_noon(self):
        reports = {}
        for kind in (ProbeKind.OPTIMAL, ProbeKind.NOON):
            config = ExperimentConfig(
                probe_kind=kind,
                phase_list=(0.0,),
                series_count=300,
                events_per_series=2000,
                master_seed=2,
            )
            dataset = run_campaign(config)
            reports[kind] = {r.eta: r for r in analyze(estimate_dataset(dataset))}
        for eta in (0.2, 0.361, 0.4, 0.547):
            assert (
                reports[ProbeKind.OPTIMAL][eta].sigma_scaled
                < reports[ProbeKind.NOON][eta].sigma_scaled
            )

    def test_crb_column(self):
        config = ExperimentConfig(
            eta_list=(0.4,),
            probe_kind=ProbeKind.NOON,
            phase_list=(0.0,),
            series_count=5,
            events_per_series=500,
            master_seed=3,
        )
        dataset = run_campaign(config)
        rows = analyze(estimate_dataset(dataset))
        assert abs(rows[0].crb - 1.0 / math.sqrt(qfi_lossy(NOON_WEIGHTS, 0.4))) < 1e-12

    def test_small_group_rejected(self):
        config = ExperimentConfig(
            eta_list=(0.361,), probe_kind=ProbeKind.NOON, phase_list=(0.0,), series_count=1, master_seed=3
        )
        dataset = run_campaign(config)
        with pytest.raises(ValueError, match="fewer than 2 estimates"):
            analyze(estimate_dataset(dataset))


class TestHistogram:
    def test_single_estimate(self):
        edges, counts = histogram([0.123], 0.01)
        assert counts.sum() == 1
        assert counts.max() == 1

    def test_gaussian_moments(self):
        rng = np.random.default_rng(8)
        values = rng.normal(0.06, 0.04, size=300)
        edges, counts = histogram(values, 0.01)
        centers = (edges[:-1] + edges[1:]) / 2
        mean = float((centers * counts).sum() / counts.sum())
        assert abs(mean - values.mean()) < 3 * 0.04 / math.sqrt(300)

    def test_reproducible_edges(self):
        values = [0.011, 0.049, 0.027]
        a = histogram(values, 0.01)
        b = histogram(list(reversed(values)), 0.01)
        assert np.array_equal(a[0], b[0])
        assert np.array_equal(a[1], b[1])
        # edges anchored at multiples of the width
        assert np.allclose(a[0] / 0.01, np.round(a[0] / 0.01), atol=1e-9)

    def test_bins_agree_with_the_edges(self):
        """A value just below 0 belongs to [-1, 0), though (v - lo) / w rounds
        to exactly 1 there."""
        edges, counts = histogram([-1e-17, 0.3], 1.0)
        assert edges.tolist() == [-1.0, 0.0, 1.0]
        assert counts.tolist() == [1, 1]

    def test_range_argument(self):
        edges, counts = histogram([0.5, 1.5], 0.5, bounds=(0.0, 1.0))
        assert counts.sum() == 1  # out-of-range values dropped

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            histogram([], 0.1)

    def test_bad_width_rejected(self):
        with pytest.raises(ValueError):
            histogram([0.1], 0.0)

    @pytest.mark.parametrize(
        "values, width",
        [([-0.5, 0.5], 1e-300), ([0.0, 0.1], 1e-8), ([0.5, 0.5], 5e-324), ([0.1], 1e-320)],
        ids=["span-1e-300", "span-1e-8", "denormal-width", "quotient-overflows"],
    )
    def test_too_many_bins_rejected_before_allocating(self, values, width):
        with pytest.raises(ValueError, match=f"spans more than {MAX_BINS} bins"):
            histogram(values, width)

    def test_bin_count_at_the_cap_allowed(self):
        edges, counts = histogram([0.0, 0.5], 0.5 / (MAX_BINS - 2))
        assert len(counts) <= MAX_BINS + 2 and counts.sum() == 2
