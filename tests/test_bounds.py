"""Bounds: quantum Fisher information, optimal weights, precision curves."""

import math
import warnings
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, strategies as st

from lossyphase import bounds
from lossyphase.bounds import (
    GRID_STEP,
    NOON_WEIGHTS,
    SIMPLEX_TOL,
    ProbeWeights,
    _cell_bounds,
    _cut,
    _polish,
    _qfi_gradient,
    _qfi_surface,
    noon_precision,
    optimize_weights,
    precision_curve,
    qfi_lossy,
    sil_precision,
)
from lossyphase.fock import FockState, basis
from oracles import fock_qfi_lossy, probe_state, qfi_pure, sil_precision_numeric

EXPERIMENT_ETAS = (0.2, 0.361, 0.4, 0.547)


def simplex_scan(eta, step=1e-3):
    """Test-side brute-force oracle: best value on the weight simplex grid."""
    best = -1.0
    n = int(round(1.0 / step))
    for i in range(n + 1):
        x0 = i * step
        x1 = np.arange(0.0, 1.0 - x0 + step / 2.0, step)
        x2 = np.clip(1.0 - x0 - x1, 0.0, 1.0)
        values = _qfi_surface(np.full_like(x1, x0), x1, x2, eta)
        best = max(best, float(values.max()))
    return best


@st.composite
def simplex_points(draw):
    a = draw(st.floats(0.0, 1.0, allow_nan=False))
    b = draw(st.floats(0.0, 1.0, allow_nan=False))
    lo, hi = sorted((a, b))
    return ProbeWeights(lo, hi - lo, 1.0 - hi)


class TestProbeWeights:
    def test_sum_enforced(self):
        with pytest.raises(ValueError):
            ProbeWeights(0.5, 0.5, 0.5)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            ProbeWeights(-0.1, 0.6, 0.5)

    def test_probe_state_amplitudes(self):
        state = probe_state(ProbeWeights(0.2, 0.3, 0.5))
        assert abs(state.amplitude((2, 0)) - math.sqrt(0.5)) < 1e-15
        assert abs(state.amplitude((1, 1)) - math.sqrt(0.3)) < 1e-15
        assert abs(state.amplitude((0, 2)) + math.sqrt(0.2)) < 1e-15


class TestQfiPure:
    def test_pair_has_no_number_variance(self):
        assert qfi_pure(basis((1, 1))) == 0.0

    def test_noon_reaches_heisenberg(self):
        assert abs(qfi_pure(probe_state(NOON_WEIGHTS)) - 4.0) < 1e-12

    @given(simplex_points())
    def test_matches_direct_enumeration(self, weights):
        state = probe_state(weights)
        # independent oracle: moments from the pattern distribution
        dist = {p: abs(a) ** 2 for p, a in state.amplitudes.items()}
        mean = sum(p[0] * w for p, w in dist.items())
        second = sum(p[0] ** 2 * w for p, w in dist.items())
        assert abs(qfi_pure(state) - 4.0 * (second - mean**2)) < 1e-12

    def test_closed_form_in_weights(self):
        w = ProbeWeights(0.25, 0.35, 0.4)
        expected = 4.0 * ((4 * w.x2 + w.x1) - (2 * w.x2 + w.x1) ** 2)
        assert abs(qfi_pure(probe_state(w)) - expected) < 1e-12

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            qfi_pure(FockState(2, {(1, 1): 0.5}, normalized=False))


class TestQfiLossy:
    # at 1e-14 Fock storage drops the no-loss branch's amplitudes, and the Fock sum gives 0;
    # the tolerance turns relative below F = 1, so 0 cannot pass there
    @pytest.mark.parametrize("eta", [1e-14, 0.05, 0.2, 0.361, 0.547, 0.9, 1.0])
    def test_noon_closed_form(self, eta):
        expected = 8 * eta**2 / (1 + eta**2)
        assert abs(qfi_lossy(NOON_WEIGHTS, eta) - expected) < 1e-12 * min(expected, 1.0)

    @given(simplex_points())
    def test_lossless_reduction(self, weights):
        assert abs(qfi_lossy(weights, 1.0) - qfi_pure(probe_state(weights))) < 1e-12

    @given(simplex_points())
    def test_opaque_channel(self, weights):
        assert abs(qfi_lossy(weights, 0.0)) < 1e-12

    @given(simplex_points(), st.floats(0.0, 1.0, allow_nan=False))
    def test_surface_matches_fock_pipeline(self, weights, eta):
        assert abs(qfi_lossy(weights, eta) - fock_qfi_lossy(weights, eta)) < 1e-12

    @pytest.mark.parametrize("eta_grid", [EXPERIMENT_ETAS, np.round(np.linspace(0.05, 1.0, 40), 12)],
                             ids=["experiment", "grid-40"])
    def test_is_the_maximized_surface(self, eta_grid):
        """The Cramér-Rao bound an estimate reports for an optimal probe is the
        bounds table's optimal precision, bit for bit."""
        for point in precision_curve(eta_grid):
            assert 1.0 / math.sqrt(qfi_lossy(point.weights, point.eta)) == point.dphi_optimal, point.eta

    def test_rejects_bad_eta(self):
        with pytest.raises(ValueError):
            qfi_lossy(NOON_WEIGHTS, -0.1)


class TestOptimizeWeights:
    def test_lossless_optimum_is_noon(self):
        weights, f_max = optimize_weights(1.0)
        assert abs(f_max - 4.0) < 1e-10
        assert abs(weights.x2 - 0.5) < 1e-6
        assert abs(weights.x0 - 0.5) < 1e-6
        assert weights.x1 < 1e-6

    def test_zero_eta_rejected(self):
        with pytest.raises(ValueError):
            optimize_weights(0.0)

    def test_continuity_near_one(self):
        _, f_near = optimize_weights(0.999)
        _, f_one = optimize_weights(1.0)
        assert abs(f_one - f_near) < 1e-2

    def test_all_components_active_at_0361(self):
        weights, _ = optimize_weights(0.361)
        assert weights.x0 > 0.01 and weights.x1 > 0.01 and weights.x2 > 0.01

    @pytest.mark.parametrize("eta", EXPERIMENT_ETAS)
    def test_dominates_grid_scan(self, eta):
        _, f_max = optimize_weights(eta)
        scan = simplex_scan(eta)
        assert f_max >= scan - 1e-9
        # polish can beat the scan only by the grid quantization gap
        assert f_max - scan < 1e-5

    def test_frozen_values(self):
        # regression anchors computed with the grid + polish procedure
        expected = {
            0.2: (0.14911217, 0.30110720, 0.54978063, 0.8116771889),
            0.361: (0.23656689, 0.22185107, 0.54158204, 1.3057720831),
            0.4: (0.25800430, 0.19002434, 0.55197136, 1.4314080188),
            0.547: (0.35358759, 0.0, 0.64641241, 2.0003869282),
        }
        for eta, (x0, x1, x2, f) in expected.items():
            weights, f_max = optimize_weights(eta)
            assert abs(f_max - f) < 1e-7
            assert abs(weights.x0 - x0) < 1e-5
            assert abs(weights.x1 - x1) < 1e-5
            assert abs(weights.x2 - x2) < 1e-5

    def test_dominance_over_noon(self):
        for eta in np.arange(0.05, 1.0001, 0.05):
            _, f_max = optimize_weights(float(eta))
            assert f_max >= qfi_lossy(NOON_WEIGHTS, float(eta)) - 1e-12

    def test_monotone_in_eta(self):
        values = [optimize_weights(float(e))[1] for e in np.arange(0.01, 1.0001, 0.01)]
        assert all(b >= a - 1e-9 for a, b in zip(values, values[1:]))


def scalar_polish(x0, x1, eta):
    """Test-side oracle: the pattern search with one surface evaluation per move."""

    def value(a, b):
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
def full_lattice():
    """Indices (i, j) and x0, x1, x2 of every GRID_STEP lattice point on the
    simplex, in (i, j) order."""
    vals = np.arange(0.0, 1.0 + GRID_STEP / 2.0, GRID_STEP)
    i, j = np.meshgrid(np.arange(len(vals)), np.arange(len(vals)), indexing="ij")
    mask = vals[i] + vals[j] <= 1.0 + SIMPLEX_TOL
    i, j = i[mask], j[mask]
    x0, x1 = vals[i], vals[j]
    return i, j, x0, x1, np.clip(1.0 - x0 - x1, 0.0, 1.0)


@lru_cache(maxsize=None)
def full_scan_optimize_weights(eta):
    """Test-side oracle: one argmax over every lattice point, then the scalar polish."""
    _, _, x0, x1, x2 = full_lattice()
    # blocks of rows keep the temporaries in cache; values do not depend on the blocking
    blocks = [slice(start, start + 16384) for start in range(0, len(x0), 16384)]
    i = int(np.argmax(np.concatenate([_qfi_surface(x0[b], x1[b], x2[b], eta) for b in blocks])))
    b0, b1, best = scalar_polish(float(x0[i]), float(x1[i]), eta)
    return ProbeWeights(b0, b1, max(1.0 - b0 - b1, 0.0)), float(best)


SCAN_ETAS = [0.05, 0.13, 0.2, 0.361, 0.4, 0.547, 0.71, 0.9, 1.0]

#: Transmissions at which every lattice value is checked against its cell bound.
BOUND_ETAS = [1e-12, 1e-3, 0.05, 0.2, 0.361, 0.5, 0.8, 0.95, 0.999, 1.0]

#: Transmissions at which the pruned scan and polish must match the oracle bit for bit.
ORACLE_ETAS = sorted(
    set(BOUND_ETAS)
    | set(SCAN_ETAS)
    | {1e-300, 1e-170, 2e-12, 1e-11, 1e-6, 0.999999}
    | {round(0.1 + 0.85 * i / 15, 6) for i in range(16)}
    | {float(e) for e in np.linspace(0.003, 1.0, 180)}
    | {float(e) for e in np.logspace(-12, 0, 90)}
)


def plateau_surface(x0, x1, x2, eta):
    """A concave stand-in surface whose maximum 1.0 ties over the strip
    27 i + j >= 8663.5 of lattice indices: its first point (295, 699) ends its
    cell, and later points such as (296, 672) sit in cells before it. It
    does not depend on eta, but broadcasts with it as the surface does."""
    return np.minimum(1.0, 1.0 + 50.0 * (27.0 * x0 + x1 - 8.6635) + 0.0 * eta)


def plateau_gradient(x0, x1, x2, eta):
    """A supergradient of plateau_surface."""
    slope = (1.0 + 50.0 * (27.0 * x0 + x1 - 8.6635) + 0.0 * eta < 1.0) * 50.0
    return 27.0 * slope, slope, 0.0 * slope


def scan_cells(eta, sub=None):
    """Anchor indices (i, j) of every SCAN_CELL x SCAN_CELL cell that meets the
    simplex, or with ``sub`` of every sub x sub sub-cell of those cells, kept
    or not, with the surface at each anchor and its bound over the cell."""
    n = len(bounds.LATTICE)
    level = _cut(*(np.array([index]) for index in (0, 0, n - 1, n - 1)), bounds.SCAN_CELL)[1:]
    if sub is not None:
        level = _cut(*level, sub)[1:]
    i, j, end_i, end_j = level
    return (i, j, *_cell_bounds(i, j, end_i, end_j, eta))


def cell_of_each_point(anchor_i, anchor_j, cell, sub=None):
    """Index into the anchor arrays of the cell, or with ``sub`` of the
    sub-cell, holding each full_lattice point."""
    i, j = full_lattice()[:2]
    owner_i, owner_j = i // cell * cell, j // cell * cell
    if sub is not None:
        owner_i, owner_j = owner_i + (i - owner_i) // sub * sub, owner_j + (j - owner_j) // sub * sub
    table = np.full((i.max() + 1, j.max() + 1), -1)
    table[anchor_i, anchor_j] = np.arange(len(anchor_i))
    owner = table[owner_i, owner_j]
    assert (owner >= 0).all()
    return owner


class TestSimplexGrid:
    @pytest.mark.parametrize("eta", SCAN_ETAS)
    def test_matches_uncached_scan_bit_for_bit(self, eta):
        weights, f_max = optimize_weights(eta)
        expected, f_expected = full_scan_optimize_weights(eta)
        assert weights.as_tuple() == expected.as_tuple()
        assert f_max == f_expected

    @pytest.mark.parametrize("eta", SCAN_ETAS)
    def test_matches_uncached_scan_in_small_blocks(self, eta, monkeypatch):
        # 7-index cells (a prime, so cell edges fall all over the 1001-index
        # rows) put the maximum and its near-equals in different cells, and the
        # x0 = 1 vertex inside a cell instead of at its anchor
        monkeypatch.setattr(bounds, "SCAN_CELL", 7)
        self.test_matches_uncached_scan_bit_for_bit(eta)

    @pytest.mark.parametrize("sub", [25, 5, 7])
    @pytest.mark.parametrize("block", [1, 2, 7, 49, 50, 51, 1000])
    def test_first_maximum_across_blocks(self, block, sub, monkeypatch):
        # the polish must start from the first maximum in (i, j) order, as one
        # argmax over the whole lattice finds it, whatever cell and sub-cell it falls in
        i, j, x0, x1, x2 = full_lattice()
        first = int(np.argmax(plateau_surface(x0, x1, x2, 0.5)))
        assert (i[first], j[first]) == (295, 699)
        monkeypatch.setattr(bounds, "SCAN_CELL", block)
        monkeypatch.setattr(bounds, "SCAN_SUBCELL", sub)
        monkeypatch.setattr(bounds, "_qfi_surface", plateau_surface)
        monkeypatch.setattr(bounds, "_qfi_gradient", plateau_gradient)
        starts = []

        def polish(a, b, etas):
            starts.extend(zip(a.tolist(), b.tolist()))
            return a, b, 0.0 * a

        monkeypatch.setattr(bounds, "_polish", polish)
        optimize_weights([0.5, 0.7])
        assert starts == [(float(x0[first]), float(x1[first]))] * 2

    def test_oracle_over_eta_grid(self):
        """Per eta, and as the lanes of one call: five blocks of WEIGHT_LANES, 1e-300 and 1e-170 in the first."""
        assert len(ORACLE_ETAS) >= 300 and len(ORACLE_ETAS) > 4 * bounds.WEIGHT_LANES
        lanes = optimize_weights(ORACLE_ETAS)
        for eta, (weights, f_max) in zip(ORACLE_ETAS, lanes, strict=True):
            expected, f_expected = full_scan_optimize_weights(eta)
            assert (weights.as_tuple(), f_max) == (expected.as_tuple(), f_expected), eta
            assert optimize_weights(eta) == (weights, f_max), eta

    @pytest.mark.parametrize("refine", [1, bounds.REFINE_CELLS, 10**6])
    def test_lanes_across_a_block_boundary(self, refine, monkeypatch):
        """65 etas: a block of WEIGHT_LANES and a block of one, refined lane by
        lane, in chunks, and each block at once."""
        monkeypatch.setattr(bounds, "REFINE_CELLS", refine)
        etas = ORACLE_ETAS[::4][:65]
        assert len(etas) == bounds.WEIGHT_LANES + 1 and etas[0] == 1e-300
        for eta, (weights, f_max) in zip(etas, optimize_weights(etas), strict=True):
            expected, f_expected = full_scan_optimize_weights(eta)
            assert (weights.as_tuple(), f_max) == (expected.as_tuple(), f_expected), eta

    def test_sequences_give_lists(self):
        assert optimize_weights([]) == []
        assert optimize_weights((0.361,)) == [optimize_weights(0.361)]
        assert optimize_weights(np.array([0.2, 0.4])) == [optimize_weights(0.2), optimize_weights(0.4)]
        with pytest.raises(ValueError):
            optimize_weights([0.5, 0.0])
        with pytest.raises(ValueError):
            optimize_weights([0.5, math.nan])

    @pytest.mark.parametrize("sub", [None, 25, 5, 7])
    @pytest.mark.parametrize("cell", [bounds.SCAN_CELL, 7])
    @pytest.mark.parametrize("eta", BOUND_ETAS + [1e-170])
    def test_cell_bounds_hold(self, eta, cell, sub, monkeypatch):
        """At both levels: the cells, or with ``sub`` the sub-cells of every cell."""
        # at eta = 1e-170 eta * eta underflows, so p0 = 0 at the x2 = 1 vertex
        monkeypatch.setattr(bounds, "SCAN_CELL", cell)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            anchor_i, anchor_j, anchor_f, bound = scan_cells(eta, sub)
        i, j, x0, x1, x2 = full_lattice()
        values = _qfi_surface(x0, x1, x2, eta)
        owner = cell_of_each_point(anchor_i, anchor_j, cell, sub)
        anchor = (i == anchor_i[owner]) & (j == anchor_j[owner])
        assert np.array_equal(np.sort(owner[anchor]), np.arange(len(anchor_i)))
        assert np.array_equal(anchor_f[owner[anchor]], values[anchor])
        # a bound that is not finite has its cell scanned, so it cannot prune
        finite = np.isfinite(bound[owner])
        assert (values[finite] <= bound[owner][finite]).all()

    def test_vertex_and_lossless_bounds_are_finite(self):
        # at the x0 = 1 vertex p1 = 0, and at eta = 1 term1 vanishes everywhere
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            for eta in BOUND_ETAS:
                anchor_i, anchor_j, _, bound = scan_cells(eta)
                vertex = (anchor_i == 1000) & (anchor_j == 0)
                assert vertex.sum() == 1
                assert np.isfinite(bound).all()
            assert all(np.isfinite(d).all() for d in _qfi_gradient(*full_lattice()[2:], 1.0))

    @pytest.mark.parametrize("eta", [1e-6, 0.05, 0.361, 0.7, 0.999])
    def test_gradient_matches_differences(self, eta):
        rng = np.random.default_rng(7)
        x = rng.dirichlet((2.0, 2.0, 2.0), 50)
        x = 0.1 + 0.7 * x  # sums to 1 and stays off the edges
        d0, d1, d2 = _qfi_gradient(x[:, 0], x[:, 1], x[:, 2], eta)
        h = 1e-6
        for along, slope in ((np.array([h, 0.0, -h]), d0 - d2), (np.array([0.0, h, -h]), d1 - d2)):
            up, down = x + along, x - along
            diff = (_qfi_surface(*up.T, eta) - _qfi_surface(*down.T, eta)) / (2 * h)
            assert np.allclose(slope, diff, rtol=1e-6, atol=1e-6 * eta)

    def test_scan_evaluates_few_points(self, monkeypatch):
        evaluated = []

        def counting(x0, x1, x2, eta):
            evaluated.append(np.size(x0))
            return _qfi_surface(x0, x1, x2, eta)

        monkeypatch.setattr(bounds, "_qfi_surface", counting)
        monkeypatch.setattr(bounds, "_polish", lambda a, b, etas: (a, b, 0.0 * a))
        optimize_weights(0.361)
        assert sum(evaluated) < 2_000  # 1,361 of 501,501 lattice points: 861 cell and 300 sub-cell anchors, 200 points


class TestPolish:
    # near the optimum, off the lattice, on the x1 = 0 edge, on the x2 = 0
    # edge, and just off the simplex (which scores -inf)
    STARTS = [(0.236, 0.222), (0.1234567, 0.4567891), (0.5, 0.0), (0.0005, 0.9995), (0.5, 0.5 + 1e-13)]

    def test_lanes_match_scalar(self):
        """Every start at both etas as the lanes of one call, each stopping where its scalar search stops."""
        lanes = [(x0, x1, eta) for eta in (0.361, 1.0) for x0, x1 in self.STARTS]
        x0, x1, best = _polish(*(np.array(column) for column in zip(*lanes)))
        assert list(zip(x0.tolist(), x1.tolist(), best.tolist())) == [scalar_polish(*lane) for lane in lanes]


class TestNoonPrecision:
    def test_heisenberg_limit(self):
        assert abs(noon_precision(1.0) - 0.5) < 1e-12

    def test_at_0361(self):
        expected = math.sqrt((1 + 0.361**2) / (8 * 0.361**2))
        assert abs(noon_precision(0.361) - expected) < 1e-12
        assert abs(noon_precision(0.361) - 1.0412348675201515) < 1e-12
        assert round(noon_precision(0.361), 4) == 1.0412

    def test_diverges_monotonically(self):
        etas = np.arange(0.5, 0.009, -0.01)
        values = [noon_precision(float(e)) for e in etas]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_matches_qfi_lossy(self):
        for eta in EXPERIMENT_ETAS:
            assert abs(noon_precision(eta) - 1.0 / math.sqrt(qfi_lossy(NOON_WEIGHTS, eta))) < 1e-12

    def test_zero_eta_rejected(self):
        with pytest.raises(ValueError):
            noon_precision(0.0)


class TestSilPrecision:
    def test_lossless_shot_noise(self):
        assert abs(sil_precision(1.0, 2.0) - 1.0 / math.sqrt(2.0)) < 1e-12

    def test_at_0547(self):
        assert abs(sil_precision(0.547, 2.0) - 0.8315902046697959) < 1e-12
        assert round(sil_precision(0.547, 2.0), 4) == 0.8316

    @pytest.mark.parametrize("eta", [0.05, 0.2, 0.361, 0.547, 0.8, 1.0])
    @pytest.mark.parametrize("n", [1.0, 2.0, 5.0])
    def test_closed_form_equals_oracle(self, eta, n):
        assert abs(sil_precision(eta, n) - sil_precision_numeric(eta, n)) < 1e-8

    @pytest.mark.parametrize(
        "eta, n, expected",
        [
            (0.01, 1.0, 5.500000000000001),
            (0.01, 2.0, 3.889087296526012),
            (0.01, 7.5, 2.008316044185609),
            (0.361, 1.0, 1.3321783316232578),
            (0.361, 2.0, 0.9419923320405871),
            (0.361, 7.5, 0.48644274856643743),
            (1.0, 1.0, 1.0),
            (1.0, 2.0, 0.7071067811865475),
            (1.0, 7.5, 0.3651483716701107),
        ],
    )
    def test_numeric_oracle_pinned(self, eta, n, expected):
        """Exact values of the golden search: evaluating several of its steps
        per call must round each point as a lone evaluation would."""
        assert sil_precision_numeric(eta, n) == expected

    def test_degenerate_inputs_rejected(self):
        with pytest.raises(ValueError):
            sil_precision(0.0, 2.0)
        with pytest.raises(ValueError):
            sil_precision(0.5, 0.0)


class TestPrecisionCurve:
    def test_lossless_point(self):
        (point,) = precision_curve([1.0])
        assert abs(point.dphi_optimal - 0.5) < 1e-9
        assert abs(point.dphi_noon - 0.5) < 1e-12
        assert abs(point.dphi_sil - 0.7071067811865475) < 1e-12

    def test_experimental_etas(self):
        points = precision_curve(EXPERIMENT_ETAS)
        for point in points:
            assert point.dphi_optimal <= point.dphi_noon + 1e-9
            assert point.dphi_optimal <= point.dphi_sil + 1e-9
            assert point.nonclassical

    def test_points_carry_the_optimal_weights(self):
        for point in precision_curve(EXPERIMENT_ETAS):
            assert point.weights == optimize_weights(point.eta)[0]

    def test_nonclassical_region(self):
        points = precision_curve(np.arange(0.2, 0.901, 0.05))
        assert all(p.dphi_optimal < p.dphi_sil for p in points)
