"""Imperfection models: fibre admixture, distinguishability mixture, thinning."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from lossyphase.bounds import NOON_WEIGHTS, ProbeWeights
from lossyphase.detection import (
    LABELS,
    DetectionConfig,
    OutcomeModel,
    Setting,
    classical_distribution,
)
from lossyphase.fock import basis
from lossyphase.imperfections import (
    COUPLER_RETENTION,
    ImperfectionParams,
    apply_coupler_thinning,
    build_model,
    fibre_input,
)
from oracles import degrade_distribution, outcome_distribution, probe_state

QUARTER_BALANCED = DetectionConfig(Setting.QUARTER, 0.5)
HOM_CONFIG = DetectionConfig(Setting.QUARTER, 0.5, conditional_phase=0.0)


class TestParams:
    def test_ranges(self):
        with pytest.raises(ValueError):
            ImperfectionParams(epsilon=1.5)
        with pytest.raises(ValueError):
            ImperfectionParams(lambda_hom=-0.1)

    @pytest.mark.parametrize("name", ["epsilon", "delta", "lambda_hom", "v_classical"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_rejected_by_name(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must be finite, got {value}"):
            ImperfectionParams(**{name: value})


class TestFibreInput:
    def test_pure_pair_at_zero(self):
        state = fibre_input(0.0)
        assert abs(state.amplitude((1, 1)) - 1.0) < 1e-12
        assert state.amplitude((2, 0)) == 0.0

    def test_norm_at_typical_epsilon(self):
        state = fibre_input(0.0005, 0.0)
        assert abs(state.norm_sq() - 1.0) < 1e-12

    def test_full_admixture(self):
        state = fibre_input(1.0, math.pi / 2)
        expected = 1j / math.sqrt(2.0)
        assert abs(state.amplitude((2, 0)) - expected) < 1e-12
        assert abs(state.amplitude((0, 2)) - expected) < 1e-12
        assert abs(state.amplitude((1, 1))) < 1e-15

    def test_range(self):
        with pytest.raises(ValueError):
            fibre_input(1.1)


class TestDegradeDistribution:
    def test_identity_at_full_indistinguishability(self):
        ideal = outcome_distribution(probe_state(NOON_WEIGHTS), 0.361, 0.2, QUARTER_BALANCED)
        dist = classical_distribution(probe_state(NOON_WEIGHTS), 0.361, QUARTER_BALANCED)
        assert degrade_distribution(ideal, dist, 1.0) == pytest.approx(ideal)

    def test_classical_pair_has_no_dip(self):
        dist = classical_distribution(basis((1, 1)), 1.0, QUARTER_BALANCED)
        assert abs(dist["AB"] - 0.5) < 1e-12
        assert abs(dist["AA"] - 0.25) < 1e-12
        assert abs(dist["BB"] - 0.25) < 1e-12

    @pytest.mark.parametrize("lam", [0.0, 0.5, 0.9, 0.98, 1.0])
    def test_dip_depth_equals_lambda(self, lam):
        ideal = outcome_distribution(basis((1, 1)), 1.0, 0.0, HOM_CONFIG)
        classical = classical_distribution(basis((1, 1)), 1.0, HOM_CONFIG)
        mixed = degrade_distribution(ideal, classical, lam)
        baseline = classical["AB"]
        assert abs((baseline - mixed["AB"]) / baseline - lam) < 1e-12

    @given(
        st.floats(0.0, 1.0, allow_nan=False),
        st.floats(0.0, 1.0, allow_nan=False),
        st.floats(0.0, 1.0, allow_nan=False),
    )
    def test_normalized_and_in_hull(self, lam, eta, phi):
        probe = probe_state(NOON_WEIGHTS)
        ideal = outcome_distribution(probe, eta, phi, QUARTER_BALANCED)
        classical = classical_distribution(probe, eta, QUARTER_BALANCED)
        mixed = degrade_distribution(ideal, classical, lam)
        assert abs(sum(mixed.values()) - 1.0) < 1e-12
        for label in LABELS:
            lo = min(ideal[label], classical[label]) - 1e-15
            hi = max(ideal[label], classical[label]) + 1e-15
            assert lo <= mixed[label] <= hi

    def test_rejects_unnormalized(self):
        bad = {label: 0.1 for label in LABELS}
        good = classical_distribution(basis((1, 1)), 1.0, QUARTER_BALANCED)
        with pytest.raises(ValueError):
            degrade_distribution(bad, good, 0.5)

    @given(
        st.floats(0.0, 1.0),
        st.floats(0.0, 1.0),
        st.floats(0.0, 1.0),
        st.floats(-3.2, 3.2),
        st.floats(0.0, 1.0),
        st.floats(0.0, 1.0),
    )
    def test_mixed_model_matches_componentwise(self, a, b, eta, phi, lam, vis):
        lo, hi = sorted((a, b))
        probe = probe_state(ProbeWeights(lo, hi - lo, 1.0 - hi))
        params = ImperfectionParams(lambda_hom=lam, v_classical=vis)
        model = build_model(probe, eta, QUARTER_BALANCED, params)
        ideal = outcome_distribution(probe, eta, phi, QUARTER_BALANCED, single_photon_visibility=vis)
        classical = classical_distribution(probe, eta, QUARTER_BALANCED)
        expected = degrade_distribution(ideal, classical, lam)
        got = model.probabilities(phi)
        for k, label in enumerate(LABELS):
            assert abs(got[k] - expected[label]) < 1e-12

    def test_ideal_params_give_plain_model(self):
        probe = probe_state(NOON_WEIGHTS)
        model = build_model(probe, 0.361, QUARTER_BALANCED, ImperfectionParams())
        assert isinstance(model, OutcomeModel)
        reference = OutcomeModel(probe, 0.361, QUARTER_BALANCED)
        phis = np.linspace(-1, 1, 9)
        assert np.array_equal(model.probabilities(phis), reference.probabilities(phis))


class TestCouplerThinning:
    def test_zero_counts(self):
        rng = np.random.default_rng(0)
        counts = [0] * len(LABELS)
        assert apply_coupler_thinning(counts, rng) == counts

    def test_deterministic_given_seed(self):
        counts = [1000] * len(LABELS)
        a = apply_coupler_thinning(counts, np.random.default_rng(7))
        b = apply_coupler_thinning(counts, np.random.default_rng(7))
        assert a == b

    def test_one_call_gives_the_same_draws(self):
        """Six scalar draws in thinning order equal one binomial call on the
        counts in that order."""
        order = [LABELS.index(label) for label in ("AA", "BB", "CC", "AB", "AC", "BC")]
        counts = [40, 0, 7, 1000, 3, 250]
        vectorized = np.empty(len(LABELS), dtype=np.int64)
        vectorized[order] = np.random.default_rng(4).binomial(np.array(counts)[order], COUPLER_RETENTION)
        assert apply_coupler_thinning(counts, np.random.default_rng(4)) == vectorized.tolist()

    def test_unbiased_ratios(self):
        rng = np.random.default_rng(123)
        by_label = {"AA": 400_000, "AB": 200_000, "BB": 100_000, "AC": 200_000, "BC": 50_000, "CC": 50_000}
        counts = [by_label[label] for label in LABELS]
        thinned = apply_coupler_thinning(counts, rng)
        total_in = sum(counts)
        total_out = sum(thinned)
        for k in range(len(LABELS)):
            expected = counts[k] / total_in
            got = thinned[k] / total_out
            se = math.sqrt(expected * (1 - expected) / total_out)
            assert abs(got - expected) < 5 * se

    def test_expected_pair_ratio(self):
        rng = np.random.default_rng(5)
        counts = [1_000_000 if label == "AA" else 500_000 if label == "AB" else 0 for label in LABELS]
        thinned = dict(zip(LABELS, apply_coupler_thinning(counts, rng)))
        ratio = thinned["AA"] / thinned["AB"]
        se = 2.0 * math.sqrt(1.0 / thinned["AA"] + 1.0 / thinned["AB"])
        assert abs(ratio - 2.0) < 3 * se
