"""Fock-core: beam splitters, phase shifts, multi-photon transforms, loss branching."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from lossyphase.fock import (
    ConditionalBranch,
    FockState,
    ModeTransform,
    apply_loss,
    apply_transform,
    basis,
    beam_splitter,
)
from oracles import outcome_probability, phase_shift

# ---------------------------------------------------------------- oracles


def _pattern_modes(pattern):
    out = []
    for mode, n in enumerate(pattern):
        out.extend([mode] * n)
    return out


def _permanent(mat):
    n = mat.shape[0]
    if n == 0:
        return 1.0 + 0j
    total = 0j
    for perm in itertools.permutations(range(n)):
        prod = 1.0 + 0j
        for i, j in enumerate(perm):
            prod *= mat[i, j]
        total += prod
    return total


def brute_force_transform(state, matrix):
    """Independent oracle: output amplitudes via the permanent formula
    <p|U|n> = perm(U[p, n]) / sqrt(p! n!)."""
    m = state.mode_count
    out = {}
    for pattern, amp in state.amplitudes.items():
        n_total = sum(pattern)
        cols = _pattern_modes(pattern)
        for p in itertools.product(range(n_total + 1), repeat=m):
            if sum(p) != n_total:
                continue
            rows = _pattern_modes(p)
            sub = np.array([[matrix[r, c] for c in cols] for r in rows], dtype=complex)
            fact = math.prod(math.factorial(k) for k in pattern) * math.prod(
                math.factorial(k) for k in p
            )
            contrib = amp * _permanent(sub) / math.sqrt(fact)
            if abs(contrib) > 0:
                out[p] = out.get(p, 0j) + contrib
    return out


def states_close(state, expected_amps, tol=1e-12):
    keys = set(state.amplitudes) | set(expected_amps)
    return all(abs(state.amplitude(k) - expected_amps.get(k, 0j)) <= tol for k in keys)


# ---------------------------------------------------------------- strategies

transmissions = st.floats(0.0, 1.0, allow_nan=False)
phases = st.floats(-2.0 * math.pi, 2.0 * math.pi, allow_nan=False)


@st.composite
def random_transforms(draw, mode_count=3):
    """Random unitary built from beam splitters and phase shifts."""
    n_ops = draw(st.integers(1, 6))
    mat = np.eye(mode_count, dtype=complex)
    for _ in range(n_ops):
        if draw(st.booleans()):
            i = draw(st.integers(0, mode_count - 1))
            j = draw(st.integers(0, mode_count - 2))
            if j >= i:
                j += 1
            op = beam_splitter(draw(transmissions), i, j, mode_count)
        else:
            op = phase_shift(draw(phases), draw(st.integers(0, mode_count - 1)), mode_count)
        mat = op.matrix @ mat
    return ModeTransform(mode_count, mat)


@st.composite
def two_photon_states(draw, mode_count=3):
    patterns = [p for p in itertools.product(range(3), repeat=mode_count) if sum(p) == 2]
    amps = {}
    for p in patterns:
        re = draw(st.floats(-1, 1, allow_nan=False))
        im = draw(st.floats(-1, 1, allow_nan=False))
        amps[p] = complex(re, im)
    norm = math.sqrt(sum(abs(a) ** 2 for a in amps.values()))
    if norm < 1e-6:
        amps = {patterns[0]: 1.0}
        norm = 1.0
    return FockState(mode_count, {p: a / norm for p, a in amps.items()})


# ------------------------------------------------------------ constructors


class TestFockState:
    def test_invalid_norm_flag(self):
        with pytest.raises(ValueError):
            FockState(2, {(1, 1): 0.5})

    def test_unnormalized_range(self):
        FockState(2, {(1, 1): 0.5}, normalized=False)
        with pytest.raises(ValueError):
            FockState(2, {(1, 1): 1.5}, normalized=False)

    def test_pattern_validation(self):
        with pytest.raises(ValueError):
            FockState(2, {(1, 1, 0): 1.0})
        with pytest.raises(ValueError):
            FockState(2, {(-1, 1): 1.0})
        with pytest.raises(ValueError):
            FockState(2, {(3, 2): 1.0})  # exceeds PHOTON_CUTOFF

    def test_normalize(self):
        st_ = FockState(2, {(2, 0): 0.3, (0, 2): -0.4}, normalized=False)
        n = st_.normalize()
        assert abs(n.norm_sq() - 1.0) < 1e-12


class TestBeamSplitter:
    def test_full_transmission_is_identity(self):
        bs = beam_splitter(1.0, 0, 1, 2)
        assert np.allclose(bs.matrix, np.eye(2), atol=1e-15)

    def test_balanced_magnitudes(self):
        bs = beam_splitter(0.5, 0, 1, 2)
        assert np.allclose(np.abs(bs.matrix), 1.0 / math.sqrt(2.0), atol=1e-15)

    def test_unitarity_at_036(self):
        bs = beam_splitter(0.36, 0, 1, 2)
        gram = bs.matrix.conj().T @ bs.matrix
        assert np.allclose(gram, np.eye(2), atol=1e-12)
        assert abs(abs(np.linalg.det(bs.matrix)) - 1.0) < 1e-12

    def test_errors(self):
        with pytest.raises(ValueError):
            beam_splitter(1.2, 0, 1, 2)
        with pytest.raises(ValueError):
            beam_splitter(0.5, 0, 0, 2)
        with pytest.raises(ValueError):
            beam_splitter(0.5, 0, 2, 2)


class TestPhaseShift:
    def test_zero_is_identity(self):
        assert np.allclose(phase_shift(0.0, 0, 2).matrix, np.eye(2), atol=1e-15)

    def test_pi_flips_single_photon(self):
        out = apply_transform(basis((1, 0)), phase_shift(math.pi, 0, 2))
        assert abs(out.amplitude((1, 0)) + 1.0) < 1e-12

    def test_two_pi_is_identity(self):
        assert np.allclose(phase_shift(2.0 * math.pi, 0, 3).matrix, np.eye(3), atol=1e-12)

    def test_index_error(self):
        with pytest.raises(ValueError):
            phase_shift(0.1, 2, 2)


# --------------------------------------------------------------- transform


class TestApplyTransform:
    @pytest.mark.parametrize("theta1", [0.1, 0.25, 0.5, 0.77, 0.9])
    def test_pair_through_splitter(self, theta1):
        out = apply_transform(basis((1, 1)), beam_splitter(theta1, 0, 1, 2))
        hom = math.sqrt(2.0 * theta1 * (1.0 - theta1))
        expected = {(2, 0): hom, (1, 1): 2.0 * theta1 - 1.0, (0, 2): -hom}
        assert states_close(out, expected)

    def test_balanced_gives_noon(self):
        out = apply_transform(basis((1, 1)), beam_splitter(0.5, 0, 1, 2))
        s = 1.0 / math.sqrt(2.0)
        assert states_close(out, {(2, 0): s, (0, 2): -s})

    def test_single_photon(self):
        theta = 0.3
        out = apply_transform(basis((1, 0)), beam_splitter(theta, 0, 1, 2))
        assert states_close(out, {(1, 0): math.sqrt(theta), (0, 1): -math.sqrt(1 - theta)})

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            apply_transform(basis((1, 1)), phase_shift(0.1, 0, 3))

    @given(two_photon_states(), random_transforms())
    def test_norm_preserved(self, state, transform):
        out = apply_transform(state, transform)
        assert abs(out.norm_sq() - 1.0) < 1e-12

    @given(two_photon_states(), random_transforms(), random_transforms())
    def test_composition(self, state, first, second):
        via_states = apply_transform(apply_transform(state, first), second)
        combined = apply_transform(state, ModeTransform(first.dimension, second.matrix @ first.matrix))
        keys = set(via_states.amplitudes) | set(combined.amplitudes)
        for k in keys:
            assert abs(via_states.amplitude(k) - combined.amplitude(k)) < 1e-10

    @given(two_photon_states(), random_transforms())
    def test_matches_permanent_oracle(self, state, transform):
        out = apply_transform(state, transform)
        expected = brute_force_transform(state, transform.matrix)
        keys = set(out.amplitudes) | set(expected)
        for k in keys:
            assert abs(out.amplitude(k) - expected.get(k, 0j)) < 1e-10


# -------------------------------------------------------------------- loss


def probe(x0, x1, x2):
    return FockState(
        2, {(2, 0): math.sqrt(x2), (1, 1): math.sqrt(x1), (0, 2): -math.sqrt(x0)}
    )


class TestApplyLoss:
    def test_reproduces_conditional_states(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            x0, x1, x2 = rng.dirichlet([1.0, 1.0, 1.0])
            eta = rng.uniform(0.05, 0.95)
            branches = {b.lost_count: b for b in apply_loss(probe(x0, x1, x2), 0, eta)}
            b0 = branches[0]
            s0 = math.sqrt(b0.probability)
            assert abs(b0.state.amplitude((2, 0)) * s0 - eta * math.sqrt(x2)) < 1e-12
            assert abs(b0.state.amplitude((1, 1)) * s0 - math.sqrt(eta * x1)) < 1e-12
            assert abs(b0.state.amplitude((0, 2)) * s0 + math.sqrt(x0)) < 1e-12
            b1 = branches[1]
            s1 = math.sqrt(b1.probability)
            assert abs(b1.state.amplitude((1, 0)) * s1 - math.sqrt(2 * eta * (1 - eta) * x2)) < 1e-12
            assert abs(b1.state.amplitude((0, 1)) * s1 - math.sqrt((1 - eta) * x1)) < 1e-12

    @pytest.mark.parametrize("eta", [0.1, 0.361, 0.7])
    def test_noon_branch_probabilities(self, eta):
        branches = {b.lost_count: b.probability for b in apply_loss(probe(0.5, 0.0, 0.5), 0, eta)}
        assert abs(branches[0] - (1 + eta**2) / 2) < 1e-12
        assert abs(branches[1] - eta * (1 - eta)) < 1e-12
        assert abs(branches[2] - (1 - eta) ** 2 / 2) < 1e-12

    def test_lossless_single_branch(self):
        state = probe(0.2, 0.5, 0.3)
        branches = apply_loss(state, 0, 1.0)
        assert len(branches) == 1
        assert branches[0].lost_count == 0
        assert abs(branches[0].probability - 1.0) < 1e-12
        assert states_close(branches[0].state, state.amplitudes)

    @given(two_photon_states(mode_count=2), st.floats(0.0, 1.0, allow_nan=False))
    def test_completeness_and_orthogonality(self, state, eta):
        branches = apply_loss(state, 0, eta)
        assert abs(sum(b.probability for b in branches) - 1.0) < 1e-12
        for b in branches:
            totals = {sum(p) for p in b.state.amplitudes}
            assert totals == {2 - b.lost_count}

    def test_rejects_unnormalized(self):
        state = FockState(2, {(1, 1): 0.5}, normalized=False)
        with pytest.raises(ValueError):
            apply_loss(state, 0, 0.5)

    def test_rejects_bad_eta(self):
        with pytest.raises(ValueError):
            apply_loss(basis((1, 1)), 0, 1.5)


class TestOutcomeProbability:
    def test_noon(self):
        state = probe(0.5, 0.0, 0.5)
        assert abs(outcome_probability(state, (2, 0)) - 0.5) < 1e-15

    def test_absent_pattern(self):
        assert outcome_probability(basis((1, 1)), (2, 0)) == 0.0

    def test_weights(self):
        state = probe(0.2, 0.3, 0.5)
        assert abs(outcome_probability(state, (1, 1)) - 0.3) < 1e-12

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            outcome_probability(basis((1, 1)), (1, 1, 0))
