"""Detection stage: coincidence distributions, Fisher information, saturation."""

import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from lossyphase import detection
from lossyphase.bounds import NOON_WEIGHTS, optimize_weights, qfi_lossy
from lossyphase.detection import (
    HALF_LABELS,
    LABELS,
    QUARTER_LABELS,
    DetectionConfig,
    OutcomeModel,
    Setting,
    _branch_amplitudes,
    _no_loss_fisher,
    _rotated,
    _transfer_two_closed,
    classical_distribution,
    optimize_theta_d,
)
from lossyphase.fock import FockState, apply_loss, basis
from lossyphase.imperfections import ImperfectionParams
from lossyphase.montecarlo import ProbeKind, build_probe, probe_designs, setting_models
from oracles import classical_fisher, degrade_distribution, one_probe_theta_d, outcome_distribution, probe_state

EXPERIMENT_ETAS = (0.2, 0.361, 0.4, 0.547)
#: Imperfections of the benchmark's design sweep.
SWEEP_PARAMS = ImperfectionParams(epsilon=0.02, delta=0.1, lambda_hom=0.95, v_classical=0.97)

QUARTER_BALANCED = DetectionConfig(Setting.QUARTER, 0.5)
HALF_BALANCED = DetectionConfig(Setting.HALF, 0.5)


def noon_probe():
    return probe_state(NOON_WEIGHTS)


def optimal_probe(eta):
    weights, _ = optimize_weights(eta)
    return probe_state(weights)


@st.composite
def probes(draw):
    a = draw(st.floats(0.0, 1.0, allow_nan=False))
    b = draw(st.floats(0.0, 1.0, allow_nan=False))
    lo, hi = sorted((a, b))
    amps = {
        (2, 0): math.sqrt(1.0 - hi),
        (1, 1): math.sqrt(hi - lo) * np.exp(1j * draw(st.floats(0, 6.28, allow_nan=False))),
        (0, 2): -math.sqrt(lo),
    }
    return FockState(2, amps)


class TestDetectionConfig:
    def test_half_requires_balanced_splitter(self):
        with pytest.raises(ValueError):
            DetectionConfig(Setting.HALF, 0.4)

    def test_default_phases(self):
        assert abs(QUARTER_BALANCED.phase_offset - math.pi / 4) < 1e-15
        assert abs(HALF_BALANCED.phase_offset - math.pi / 2) < 1e-15

    def test_phase_override(self):
        cfg = DetectionConfig(Setting.QUARTER, 0.5, conditional_phase=0.0)
        assert cfg.phase_offset == 0.0


class TestOutcomeDistribution:
    def test_noon_lossless_fringes(self):
        for phi in np.linspace(-math.pi, math.pi, 41):
            dist = outcome_distribution(noon_probe(), 1.0, phi, QUARTER_BALANCED)
            assert abs(dist["AB"] - (1 - math.sin(2 * phi)) / 2) < 1e-12
            assert abs(dist["AA"] - (1 + math.sin(2 * phi)) / 4) < 1e-12
            assert abs(dist["BB"] - (1 + math.sin(2 * phi)) / 4) < 1e-12

    @given(probes(), st.floats(0.0, 1.0, allow_nan=False), st.floats(-3.2, 3.2, allow_nan=False))
    def test_half_setting_loss_class_weight(self, probe, eta, phi):
        dist = outcome_distribution(probe, eta, phi, HALF_BALANCED)
        branches = {b.lost_count: b.probability for b in apply_loss(probe, 0, eta)}
        assert abs(dist["AC"] + dist["BC"] - branches.get(1, 0.0)) < 1e-12

    def test_hong_ou_mandel_dip(self):
        cfg = DetectionConfig(Setting.QUARTER, 0.5, conditional_phase=0.0)
        dist = outcome_distribution(basis((1, 1)), 1.0, 0.0, cfg)
        assert abs(dist["AB"]) < 1e-12

    @given(probes(), st.floats(0.0, 1.0, allow_nan=False), st.floats(-3.2, 3.2, allow_nan=False))
    def test_normalization(self, probe, eta, phi):
        for cfg in (QUARTER_BALANCED, HALF_BALANCED):
            dist = outcome_distribution(probe, eta, phi, cfg)
            assert abs(sum(dist.values()) - 1.0) < 1e-12
            assert all(v >= -1e-15 for v in dist.values())

    @given(probes(), st.floats(0.0, 1.0, allow_nan=False), st.floats(-3.2, 3.2, allow_nan=False))
    def test_loss_class_conservation(self, probe, eta, phi):
        branches = {b.lost_count: b.probability for b in apply_loss(probe, 0, eta)}
        dist = outcome_distribution(probe, eta, phi, QUARTER_BALANCED)
        assert abs(dist["AA"] + dist["AB"] + dist["BB"] - branches.get(0, 0.0)) < 1e-12
        assert abs(dist["AC"] + dist["BC"] - branches.get(1, 0.0)) < 1e-12
        assert abs(dist["CC"] - branches.get(2, 0.0)) < 1e-12

    def test_rejects_wrong_photon_number(self):
        with pytest.raises(ValueError):
            outcome_distribution(basis((1, 0)), 0.5, 0.0, QUARTER_BALANCED)


class TestOutcomeModel:
    @given(
        probes(),
        st.floats(0.0, 1.0, allow_nan=False),
        st.floats(-3.2, 3.2, allow_nan=False),
        st.floats(0.0, 1.0, allow_nan=False),
        st.floats(0.3, 0.7, allow_nan=False),
    )
    def test_matches_reference_pipeline(self, probe, eta, phi, visibility, theta):
        cfg = DetectionConfig(Setting.QUARTER, theta)
        model = OutcomeModel(probe, eta, cfg, single_photon_visibility=visibility)
        fast = model.probabilities(phi)
        slow = outcome_distribution(probe, eta, phi, cfg, single_photon_visibility=visibility)
        for k, label in enumerate(LABELS):
            assert abs(fast[k] - slow[label]) < 1e-12

    def test_vectorized_shape(self):
        model = OutcomeModel(noon_probe(), 0.5, QUARTER_BALANCED)
        out = model.probabilities(np.linspace(0, 1, 7))
        assert out.shape == (7, 6)
        assert np.allclose(out.sum(axis=1), 1.0, atol=1e-12)


class TestFringeScan:
    """Kept-label fringes of each setting, read from ``OutcomeModel`` as the
    fringes command does."""

    def test_noon_two_photon_fringes_have_period_pi(self):
        phis = np.linspace(-math.pi, math.pi, 101)
        model = OutcomeModel(noon_probe(), 0.361, QUARTER_BALANCED)
        kept = [LABELS.index(label) for label in QUARTER_LABELS]
        assert np.allclose(model.probabilities(phis)[:, kept], model.probabilities(phis + math.pi)[:, kept], atol=1e-12)

    def test_single_photon_fringes_have_period_two_pi(self):
        model = OutcomeModel(optimal_probe(0.361), 0.361, HALF_BALANCED)
        phis = np.linspace(-math.pi, math.pi, 64)
        ac = LABELS.index("AC")
        base, full, half = (model.probabilities(p)[:, ac] for p in (phis, phis + 2 * math.pi, phis + math.pi))
        assert np.allclose(base, full, atol=1e-12)
        # single-photon fringe is not pi-periodic for the optimal probe
        assert np.max(np.abs(base - half)) > 1e-3
        assert np.max(np.abs(base - np.mean(base))) > 1e-3

    def test_lossless_scan_has_no_loss_counts(self):
        phis = np.linspace(0, 2 * math.pi, 32)
        probs = OutcomeModel(noon_probe(), 1.0, HALF_BALANCED).probabilities(phis)
        assert np.allclose(probs[:, [LABELS.index(label) for label in HALF_LABELS]], 0.0, atol=1e-12)


def noon_lossless_models():
    return {
        Setting.QUARTER: OutcomeModel(noon_probe(), 1.0, QUARTER_BALANCED),
        Setting.HALF: OutcomeModel(noon_probe(), 1.0, HALF_BALANCED),
    }


class TestClassicalFisher:
    def test_noon_lossless_saturates(self):
        assert abs(classical_fisher(noon_lossless_models(), 0.0) - 4.0) < 1e-6

    def test_noon_lossless_is_exactly_four_off_zero_phase(self):
        # F = 4 wherever no label vanishes; the AB (or AA, BB) fringe
        # vanishes at phi = pi/4 (-pi/4) modulo pi
        grid = np.linspace(-0.7, 0.7, 29)
        models = noon_lossless_models()
        for phi in np.concatenate([grid, grid + math.pi / 2]):
            assert abs(classical_fisher(models, phi) - 4.0) < 1e-12

    def test_zero_at_fringe_extremum(self):
        model = OutcomeModel(noon_probe(), 1.0, QUARTER_BALANCED)
        # extremum of sin(2 phi) at phi = pi/4
        assert classical_fisher({Setting.QUARTER: model}, math.pi / 4) < 1e-8

    def test_five_node_slope_matches_analytic(self):
        # the optimizer's analytic-derivative objective against the generic
        # Fisher information of the quarter setting's kept labels
        probe = optimal_probe(0.361)
        coeff = _branch_amplitudes(probe, 0.361)[0]
        for theta in (0.3, 0.5, 0.7):
            model = OutcomeModel(probe, 0.361, DetectionConfig(Setting.QUARTER, theta))
            numeric = classical_fisher({Setting.QUARTER: model}, 0.0)
            analytic = _no_loss_fisher(*_rotated(coeff, math.pi / 4), theta)
            assert abs(numeric - analytic) < 1e-12


class TestOffOperatingPoint:
    """classical_fisher on the simulated two-setting measurement, away from
    zero phase, against the outcome_distribution, classical_distribution and
    degrade_distribution oracle."""

    @pytest.mark.parametrize("eta", EXPERIMENT_ETAS)
    @pytest.mark.parametrize("kind", [ProbeKind.OPTIMAL, ProbeKind.NOON])
    def test_matches_reference_pipeline(self, kind, eta):
        self.check(kind, eta, ImperfectionParams())

    @pytest.mark.parametrize("eta", EXPERIMENT_ETAS)
    @pytest.mark.parametrize("kind", [ProbeKind.OPTIMAL, ProbeKind.NOON])
    def test_imperfect_matches_reference_pipeline(self, kind, eta):
        self.check(kind, eta, ImperfectionParams(epsilon=0.02, delta=0.1, lambda_hom=0.95, v_classical=0.97))

    @staticmethod
    def check(kind, eta, params):
        models = setting_models(eta, params, probe_designs(kind, [eta], params)[0])

        def dist(model, phi):
            ideal = outcome_distribution(model.probe, eta, phi, model.config, params.v_classical)
            classical = classical_distribution(model.probe, eta, model.config)
            return degrade_distribution(ideal, classical, params.lambda_hom)

        def reference(phi):
            q, h = dist(models[Setting.QUARTER], phi), dist(models[Setting.HALF], phi)
            return np.array([q[label] for label in QUARTER_LABELS] + [h[label] for label in HALF_LABELS])

        step = 1e-5
        for phi in (0.2, -0.2, 0.4, -0.4):
            p = reference(phi)
            d = (reference(phi + step) - reference(phi - step)) / (2.0 * step)
            expected = float(np.sum(d[p > 1e-12] ** 2 / p[p > 1e-12]))
            assert abs(classical_fisher(models, phi) - expected) / expected < 1e-9


def bits(values):
    return np.asarray(values, dtype=float).view(np.int64).tolist()


def scalar_transfer(theta):
    t, r, s2 = math.sqrt(theta), math.sqrt(1.0 - theta), math.sqrt(2.0)
    return np.array(
        [[t * t, s2 * t * r, r * r], [-s2 * t * r, t * t - r * r, s2 * t * r], [r * r, -s2 * t * r, t * t]], dtype=complex
    )


def scalar_no_loss_fisher(coeff, theta, offset):
    """The objective at one (theta, offset), with the closed-form transfer as
    scalar arithmetic: the oracle for the broadcast _no_loss_fisher."""
    transfer = scalar_transfer(theta)
    harmonics = np.array([2.0, 1.0, 0.0])
    rotated = coeff * np.exp(1j * harmonics * offset)
    amp = transfer @ rotated
    damp = transfer @ (1j * harmonics * rotated)
    p = np.abs(amp) ** 2
    dp = 2.0 * np.real(np.conj(amp) * damp)
    mask = p > 1e-14
    return float(np.sum(dp[mask] ** 2 / p[mask]))


def no_loss_coeff(eta, params):
    [(weights, _)] = probe_designs(ProbeKind.OPTIMAL, [eta], params)
    return _branch_amplitudes(build_probe(weights, params), eta)[0]


class TestNoLossFisher:
    @pytest.mark.parametrize("params", [ImperfectionParams(), SWEEP_PARAMS], ids=["ideal", "sweep"])
    @pytest.mark.parametrize("eta", [0.1, 0.2, 0.361, 0.496667])
    def test_broadcast_matches_scalar_oracle_bit_for_bit(self, eta, params):
        coeff = no_loss_coeff(eta, params)
        rng = np.random.default_rng(int(eta * 1e6))
        theta, offset = rng.uniform(0.0, 1.0, 200), rng.uniform(0.0, math.pi / 2.0, 200)
        theta[:3] = (0.0, 1.0, 0.5)  # a splitter end zeroes a label's probability
        expected = np.array([scalar_no_loss_fisher(coeff, t, o) for t, o in zip(theta, offset)])
        points = _no_loss_fisher(*_rotated(coeff, offset), theta)
        # a theta row against an offset column, and 0-d
        table = _no_loss_fisher(*_rotated(coeff, offset[:20, None]), theta[:20])
        table_expected = [[scalar_no_loss_fisher(coeff, t, o) for t in theta[:20]] for o in offset[:20]]
        assert points.shape == (200,) and table.shape == (20, 20)
        assert np.array_equal(points.view(np.int64), expected.view(np.int64))
        assert np.array_equal(table.view(np.int64), np.array(table_expected).view(np.int64))
        assert _no_loss_fisher(*_rotated(coeff, offset[5]), theta[5]).view(np.int64) == expected[5].view(np.int64)

    @pytest.mark.parametrize("shape", [(4, 5), (3, 4, 5), (2, 3, 4, 5)], ids=["2-D", "3-D", "4-D"])
    def test_lane_shapes_match_scalar_oracle(self, shape):
        """The optimizer's shapes: theta and offset of one lane shape, and a
        theta grid against lanes of offsets, with coefficient rows of
        several probes. A transposed transfer gives wrong values for any
        theta of more than one dimension."""
        coeffs = np.array([no_loss_coeff(eta, SWEEP_PARAMS) for eta in (0.1, 0.27)])
        rng = np.random.default_rng(11)
        theta, offset = rng.uniform(0.0, 1.0, shape), rng.uniform(0.0, math.pi / 2.0, shape)
        rows = coeffs[np.arange(shape[0]) % 2].reshape((shape[0],) + (1,) * (len(shape) - 1) + (3,))
        transfer = _transfer_two_closed(theta)
        assert transfer.shape == shape + (3, 3) and transfer.flags.c_contiguous
        for index in np.ndindex(shape):
            assert np.array_equal(transfer[index], scalar_transfer(theta[index]))
        points = _no_loss_fisher(*_rotated(rows, offset), theta)
        expected = [scalar_no_loss_fisher(coeffs[index[0] % 2], theta[index], offset[index]) for index in np.ndindex(shape)]
        assert points.shape == shape
        assert bits(points.ravel()) == bits(expected)
        grid = theta.reshape(-1)[:7]
        rotated, drotated = (v[..., None, :] for v in _rotated(rows, offset))
        table = _no_loss_fisher(rotated, drotated, grid)
        expected = [
            scalar_no_loss_fisher(coeffs[index[0] % 2], t, offset[index]) for index in np.ndindex(shape) for t in grid
        ]
        assert table.shape == shape + (7,)
        assert bits(table.ravel()) == bits(expected)


#: optimize_theta_d's (theta_d, conditional_phase) for the optimal probe on the
#: campaign etas and three design-sweep etas, ideal and with the sweep's
#: imperfections, as the scalar nested golden searches found them. None keeps
#: the setting's pi/4: the probe has no |11> component.
PINNED_DESIGNS = {
    ("ideal", 0.2): (0.34477017164424983, 0.7982544575904074),
    ("ideal", 0.361): (0.3466228365184711, 0.8294044356298309),
    ("ideal", 0.4): (0.35543707179817463, 0.8260398511988791),
    ("ideal", 0.547): (0.5, None),
    ("ideal", 0.1): (0.39568351566122195, 0.6725352500854571),
    ("ideal", 0.27): (0.3386684311056142, 0.823195747964476),
    ("ideal", 0.496667): (0.402109123794923, 0.8044218152087861),
    ("sweep", 0.2): (0.3084740635972591, 0.8428769564784893),
    ("sweep", 0.361): (0.33004137958270263, 0.8342829316802409),
    ("sweep", 0.4): (0.34210180161869075, 0.8253840305472273),
    ("sweep", 0.547): (0.5, None),
    ("sweep", 0.1): (0.3250721697083642, 0.7910852937910111),
    ("sweep", 0.27): (0.31287682497235836, 0.8459518254596092),
    ("sweep", 0.496667): (0.39621736564541593, 0.7939909489371841),
}


class TestOptimizeThetaD:
    @pytest.mark.parametrize("name, eta", list(PINNED_DESIGNS))
    def test_pinned_design(self, name, eta):
        params = SWEEP_PARAMS if name == "sweep" else ImperfectionParams()
        [(_, quarter)] = probe_designs(ProbeKind.OPTIMAL, [eta], params)  # optimize_theta_d of the delivered probe
        assert (quarter.theta_d, quarter.conditional_phase) == PINNED_DESIGNS[name, eta]
        assert type(quarter.theta_d) is float and type(quarter.conditional_phase) in (float, type(None))

    def test_offset_search_batches_its_steps(self, monkeypatch):
        """A hand of four costly sweep etas, as one of two workers holds it,
        resolves its designs in 387 objective calls, 36 of them theta grids
        of one probe each. One eta alone took 379 calls when each probe ran
        its own searches, and 1,558 with one theta search per offset step."""
        etas = (0.1, 0.213333, 0.326667, 0.44)
        probes = [build_probe(weights, SWEEP_PARAMS) for weights, _ in probe_designs(ProbeKind.OPTIMAL, etas, SWEEP_PARAMS)]
        assert all(abs(probe.amplitude((1, 1))) ** 2 > 1e-3 for probe in probes)
        calls = []

        def counted(*args):
            calls.append(None)
            return _no_loss_fisher(*args)

        monkeypatch.setattr(detection, "_no_loss_fisher", counted)
        optimize_theta_d(probes, etas)
        assert len(calls) <= 600

    def test_noon_keeps_balanced_splitter(self):
        for eta in EXPERIMENT_ETAS:
            (cfg,) = optimize_theta_d([noon_probe()], [eta])
            assert cfg.theta_d == 0.5
            assert abs(cfg.phase_offset - math.pi / 4) < 1e-15

    def test_lossless_optimal_probe_is_noon(self):
        (cfg,) = optimize_theta_d([optimal_probe(1.0)], [1.0])
        assert cfg.theta_d == 0.5

    @pytest.mark.parametrize("eta", EXPERIMENT_ETAS)
    @pytest.mark.parametrize("kind", ["optimal", "noon"])
    def test_saturation(self, eta, kind):
        if kind == "noon":
            probe, fisher = noon_probe(), qfi_lossy(NOON_WEIGHTS, eta)
        else:
            weights, fisher = optimize_weights(eta)
            probe = probe_state(weights)
        (quarter,) = optimize_theta_d([probe], [eta])
        models = {Setting.QUARTER: OutcomeModel(probe, eta, quarter), Setting.HALF: OutcomeModel(probe, eta, HALF_BALANCED)}
        achieved = classical_fisher(models, 0.0)
        assert abs(achieved - fisher) / fisher < 1e-6


#: The design sweep's sixteen etas with its imperfections, the four campaign
#: etas (ideal), and two tiny etas whose optimum lies at a grid edge, ideal and
#: with the sweep's imperfections: fifteen costly designs and nine cheap.
HAND_CASES = (
    [("sweep", round(0.1 + 0.85 * i / 15, 6)) for i in range(16)]
    + [("ideal", eta) for eta in EXPERIMENT_ETAS]
    + [(name, eta) for name in ("ideal", "sweep") for eta in (1e-6, 1e-12)]
)

#: sha256 of the newline-joined reprs of HAND_CASES' designs, in order, as
#: the nested searches found them one probe at a time.
HAND_CASES_SHA256 = "36451584a2f5a04300b56089384da7b1f31cfcdf5ccfb2bf949aebd6a99bebbe"


@pytest.fixture(scope="module")
def hand_cases():
    """The delivered optimal probes and etas of HAND_CASES, and their designs
    by the one-probe oracle."""
    probes = [
        build_probe(optimize_weights(eta)[0], SWEEP_PARAMS if name == "sweep" else ImperfectionParams())
        for name, eta in HAND_CASES
    ]
    etas = [eta for _, eta in HAND_CASES]
    return probes, etas, [one_probe_theta_d(probe, eta) for probe, eta in zip(probes, etas)]


def designs_sha256(designs) -> str:
    return hashlib.sha256("\n".join(map(repr, designs)).encode()).hexdigest()


class TestHands:
    """optimize_theta_d gives each probe of a hand the design it gets alone."""

    @pytest.mark.parametrize("size", [1, 2, 3, 4, 8])
    def test_hands_match_one_probe_oracle(self, hand_cases, size):
        probes, etas, expected = hand_cases
        designs = []
        for start in range(0, len(probes), size):
            designs += optimize_theta_d(probes[start : start + size], etas[start : start + size])
        assert [repr(d) for d in designs] == [repr(d) for d in expected]
        assert all(type(d.theta_d) is float and type(d.conditional_phase) in (float, type(None)) for d in designs)

    def test_designs_match_stored_hash(self, hand_cases):
        probes, etas, expected = hand_cases
        assert designs_sha256(expected) == HAND_CASES_SHA256
        assert designs_sha256(optimize_theta_d(probes, etas)) == HAND_CASES_SHA256
        assert sum(d.conditional_phase is not None for d in expected) == 15

    def test_empty_hand(self):
        assert optimize_theta_d([], []) == []
