"""Bounds: quantum Fisher information, optimal weights, precision curves."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from lossyphase import bounds
from lossyphase.bounds import (
    GRID_STEP,
    NOON_WEIGHTS,
    SIMPLEX_TOL,
    ProbeWeights,
    _polish,
    _qfi_surface,
    _simplex_grid,
    noon_precision,
    optimize_weights,
    precision_curve,
    probe_state,
    qfi_lossy,
    qfi_pure,
    sil_precision,
    sil_precision_numeric,
)
from lossyphase.fock import FockState, basis

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
    @pytest.mark.parametrize("eta", [0.05, 0.2, 0.361, 0.547, 0.9, 1.0])
    def test_noon_closed_form(self, eta):
        assert abs(qfi_lossy(NOON_WEIGHTS, eta) - 8 * eta**2 / (1 + eta**2)) < 1e-12

    @given(simplex_points())
    def test_lossless_reduction(self, weights):
        assert abs(qfi_lossy(weights, 1.0) - qfi_pure(probe_state(weights))) < 1e-12

    @given(simplex_points())
    def test_opaque_channel(self, weights):
        assert abs(qfi_lossy(weights, 0.0)) < 1e-12

    @given(simplex_points(), st.floats(0.0, 1.0, allow_nan=False))
    def test_surface_matches_fock_pipeline(self, weights, eta):
        fast = float(_qfi_surface(np.float64(weights.x0), np.float64(weights.x1), np.float64(weights.x2), eta))
        assert abs(fast - qfi_lossy(weights, eta)) < 1e-12

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


def uncached_optimize_weights(eta):
    """Test-side oracle: the grid scan and polish with the simplex grid built afresh."""
    vals = np.arange(0.0, 1.0 + GRID_STEP / 2.0, GRID_STEP)
    g0, g1 = np.meshgrid(vals, vals, indexing="ij")
    mask = g0 + g1 <= 1.0 + SIMPLEX_TOL
    x0, x1 = g0[mask], g1[mask]
    i = int(np.argmax(_qfi_surface(x0, x1, np.clip(1.0 - x0 - x1, 0.0, 1.0), eta)))
    b0, b1, best = _polish(float(x0[i]), float(x1[i]), eta)
    return ProbeWeights(b0, b1, max(1.0 - b0 - b1, 0.0)), float(best)


SCAN_ETAS = [0.05, 0.13, 0.2, 0.361, 0.4, 0.547, 0.71, 0.9, 1.0]


class TestSimplexGrid:
    def test_cached_arrays_are_read_only(self):
        grid = _simplex_grid()
        assert _simplex_grid() is grid
        for array in grid:
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[0] = 0.5

    @pytest.mark.parametrize("eta", SCAN_ETAS)
    def test_matches_uncached_scan_bit_for_bit(self, eta):
        weights, f_max = optimize_weights(eta)
        expected, f_expected = uncached_optimize_weights(eta)
        assert weights.as_tuple() == expected.as_tuple()
        assert f_max == f_expected

    @pytest.mark.parametrize("eta", SCAN_ETAS)
    def test_matches_uncached_scan_in_small_blocks(self, eta, monkeypatch):
        # 61-point blocks (a prime, so block edges fall all over the 1001-point
        # rows) put the maximum and its near-equals in different blocks; 7-point
        # blocks would take about 3 s per eta
        monkeypatch.setattr(bounds, "SCAN_BLOCK", 61)
        self.test_matches_uncached_scan_bit_for_bit(eta)

    @pytest.mark.parametrize("block", [1, 2, 7, 49, 50, 51, 1000])
    def test_first_maximum_across_blocks(self, block, monkeypatch):
        # surfaces of few levels tie in and across blocks; the polish must start
        # from the first maximum, as one argmax over the whole grid finds it
        levels = np.random.default_rng(block).integers(0, 4, 50).astype(float)
        edge_tie = levels.copy()
        edge_tie[[min(block, 49) - 1, min(block, 49)]] = 9.0  # the maximum, tied across the first block edge if any
        x0 = np.arange(50.0)
        monkeypatch.setattr(bounds, "SCAN_BLOCK", block)
        monkeypatch.setattr(bounds, "_qfi_surface", lambda x0, x1, x2, eta: x1)
        starts = []
        monkeypatch.setattr(bounds, "_polish", lambda a, b, eta: starts.append(a) or (0.5, 0.5, 0.0))
        for x1 in (levels, edge_tie):
            monkeypatch.setattr(bounds, "_simplex_grid", lambda: (x0, x1, x1))
            optimize_weights(0.5)
        assert starts == [float(np.argmax(levels)), float(np.argmax(edge_tie))]


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
