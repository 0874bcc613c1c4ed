"""Sparse Fock states on a few optical modes: exact linear optics and loss."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

#: Absolute tolerance for normalization and unitarity checks.
NORM_TOL = 1e-12

#: Most photons a state may hold; two-photon probes need no more.
PHOTON_CUTOFF = 4

#: Amplitudes below this magnitude are dropped from sparse storage.
_PRUNE = 1e-14

Pattern = tuple[int, ...]


def _as_pattern(pattern) -> Pattern:
    pat = tuple(int(n) for n in pattern)
    if any(n < 0 for n in pat):
        raise ValueError(f"occupation vector {pat} has negative entries")
    return pat


def _pattern_factorial(pattern: Pattern) -> float:
    out = 1.0
    for n in pattern:
        out *= math.factorial(n)
    return out


@dataclass(frozen=True)
class FockState:
    """Superposition over photon-occupation patterns of ``mode_count`` modes.

    Amplitudes are stored sparsely as a map from occupation vector to complex
    amplitude. A ``normalized`` state has unit norm; otherwise the squared
    norm must lie in (0, 1] and the state represents a postselected branch.
    """

    mode_count: int
    amplitudes: dict[Pattern, complex]
    normalized: bool = True

    def __post_init__(self):
        if self.mode_count < 1:
            raise ValueError("mode_count must be positive")
        cleaned: dict[Pattern, complex] = {}
        for pattern, amp in self.amplitudes.items():
            pat = _as_pattern(pattern)
            if len(pat) != self.mode_count:
                raise ValueError(
                    f"occupation vector {pat} has length {len(pat)}, expected {self.mode_count}"
                )
            if sum(pat) > PHOTON_CUTOFF:
                raise ValueError(f"occupation vector {pat} exceeds photon cutoff {PHOTON_CUTOFF}")
            amp = complex(amp)
            if abs(amp) > _PRUNE:
                cleaned[pat] = cleaned.get(pat, 0j) + amp
        object.__setattr__(self, "amplitudes", cleaned)
        n2 = self.norm_sq()
        if self.normalized:
            if abs(n2 - 1.0) > NORM_TOL:
                raise ValueError(f"state marked normalized but squared norm is {n2}")
        elif not 0.0 < n2 <= 1.0 + NORM_TOL:
            raise ValueError(f"unnormalized state must have squared norm in (0, 1], got {n2}")

    def norm_sq(self) -> float:
        return float(sum(abs(a) ** 2 for a in self.amplitudes.values()))

    def amplitude(self, pattern) -> complex:
        pat = _as_pattern(pattern)
        if len(pat) != self.mode_count:
            raise ValueError(f"occupation vector {pat} has length {len(pat)}, expected {self.mode_count}")
        return self.amplitudes.get(pat, 0j)

    def normalize(self) -> FockState:
        if self.normalized:
            return self
        scale = 1.0 / math.sqrt(self.norm_sq())
        return FockState(self.mode_count, {p: a * scale for p, a in self.amplitudes.items()})


def basis(pattern) -> FockState:
    """Single occupation pattern with unit amplitude."""
    pat = _as_pattern(pattern)
    return FockState(len(pat), {pat: 1.0 + 0j})


@dataclass(frozen=True)
class ModeTransform:
    """Unitary mode map; column k holds the image of creation operator k."""

    dimension: int
    matrix: np.ndarray

    def __post_init__(self):
        m = np.array(self.matrix, dtype=complex)
        if m.shape != (self.dimension, self.dimension):
            raise ValueError(f"matrix shape {m.shape} does not match dimension {self.dimension}")
        gram = m @ m.conj().T
        if not np.allclose(gram, np.eye(self.dimension), rtol=0.0, atol=NORM_TOL):
            raise ValueError("matrix is not unitary")
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)


def beam_splitter(transmission: float, mode_i: int, mode_j: int, mode_count: int) -> ModeTransform:
    """Two-mode coupler of intensity transmission t acting on (mode_i, mode_j).

    Convention: a_i -> sqrt(t) a_i - sqrt(1-t) a_j, a_j -> sqrt(1-t) a_i + sqrt(t) a_j.
    The sign on the i -> j coupling is fixed so that |11> maps to
    sqrt(2 t (1-t)) (|20> - |02>) + (2t - 1)|11>.
    """
    if not 0.0 <= transmission <= 1.0:
        raise ValueError(f"transmission must be in [0, 1], got {transmission}")
    if mode_i == mode_j:
        raise ValueError("beam splitter needs two distinct modes")
    for idx in (mode_i, mode_j):
        if not 0 <= idx < mode_count:
            raise ValueError(f"mode index {idx} out of range for {mode_count} modes")
    t = math.sqrt(transmission)
    r = math.sqrt(1.0 - transmission)
    mat = np.eye(mode_count, dtype=complex)
    mat[mode_i, mode_i] = t
    mat[mode_j, mode_i] = -r
    mat[mode_i, mode_j] = r
    mat[mode_j, mode_j] = t
    return ModeTransform(mode_count, mat)


def apply_transform(state: FockState, transform: ModeTransform) -> FockState:
    """Propagate a state through a linear-optical transform.

    Substitutes transformed creation operators into each occupation monomial
    and re-collects with exact sqrt(n!) combinatorics. Photon number and norm
    are preserved.
    """
    if transform.dimension != state.mode_count:
        raise ValueError(
            f"transform dimension {transform.dimension} does not match mode count {state.mode_count}"
        )
    m = state.mode_count
    mat = transform.matrix
    zero = (0,) * m
    out: dict[Pattern, complex] = {}
    for pattern, amp in state.amplitudes.items():
        poly: dict[Pattern, complex] = {zero: amp / math.sqrt(_pattern_factorial(pattern))}
        for src, n_src in enumerate(pattern):
            col = mat[:, src]
            for _ in range(n_src):
                grown: dict[Pattern, complex] = {}
                for mono, coeff in poly.items():
                    for dst in range(m):
                        u = col[dst]
                        if u == 0:
                            continue
                        key = mono[:dst] + (mono[dst] + 1,) + mono[dst + 1 :]
                        grown[key] = grown.get(key, 0j) + coeff * u
                poly = grown
        for mono, coeff in poly.items():
            out[mono] = out.get(mono, 0j) + coeff * math.sqrt(_pattern_factorial(mono))
    return FockState(m, out, normalized=state.normalized)


@dataclass(frozen=True)
class ConditionalBranch:
    """Post-loss branch in which ``lost_count`` photons went to the environment."""

    lost_count: int
    probability: float
    state: FockState | None


def apply_loss(state: FockState, mode: int, transmission: float) -> list[ConditionalBranch]:
    """Attenuate one mode and branch on the number of photons lost.

    The mode is coupled to a fresh vacuum environment mode via
    a_mode -> sqrt(eta) a_mode + sqrt(1-eta) a_env, which for the probe
    sqrt(x2)|20> + sqrt(x1)|11> - sqrt(x0)|02> yields literally
    eta sqrt(x2)|20> + sqrt(eta x1)|11> - sqrt(x0)|02> (unnormalized, none
    lost) and sqrt(2 eta (1-eta) x2)|10> + sqrt((1-eta) x1)|01> (one lost).
    Branches with zero probability are omitted; probabilities sum to one.
    """
    if not 0.0 <= transmission <= 1.0:
        raise ValueError(f"transmission must be in [0, 1], got {transmission}")
    if not state.normalized:
        raise ValueError("loss channel expects a normalized input state")
    m = state.mode_count
    if not 0 <= mode < m:
        raise ValueError(f"mode index {mode} out of range for {m} modes")
    extended = FockState(m + 1, {p + (0,): a for p, a in state.amplitudes.items()})
    evolved = apply_transform(extended, beam_splitter(transmission, m, mode, m + 1))  # environment mode m

    l_max = max((p[mode] for p in state.amplitudes), default=0)
    buckets: dict[int, dict[Pattern, complex]] = {l: {} for l in range(l_max + 1)}
    for pat, amp in evolved.amplitudes.items():
        buckets[pat[m]][pat[:m]] = amp

    branches = []
    for lost in range(l_max + 1):
        amps = buckets[lost]
        p_l = float(sum(abs(a) ** 2 for a in amps.values()))
        if p_l <= _PRUNE**2:
            continue
        scale = 1.0 / math.sqrt(p_l)
        branch_state = FockState(m, {p: a * scale for p, a in amps.items()})
        branches.append(ConditionalBranch(lost, p_l, branch_state))
    return branches
