"""Forward model and analytic inversion of the two-splitter preparation network."""

from __future__ import annotations

import math
from dataclasses import dataclass

from .bounds import ProbeWeights
from .fock import FockState, apply_transform, basis, beam_splitter

SENSING_ARM = 0
REFERENCE_ARM = 1


@dataclass(frozen=True)
class PrepConfig:
    """Splitter settings realizing a target probe, with the postselection success probability."""

    theta1: float
    theta2: float
    attenuated_arm: int
    success_prob: float


def attenuate(state: FockState, mode: int, transmission: float) -> FockState:
    """Postselected transmission of one arm: amplitudes scale by sqrt(t)^n.

    Equivalent to inserting a splitter of transmission t on the arm and keeping
    the branch in which no photon is lost; the result is unnormalized.
    """
    if not 0.0 <= transmission <= 1.0:
        raise ValueError(f"transmission must be in [0, 1], got {transmission}")
    if not 0 <= mode < state.mode_count:
        raise ValueError(f"mode index {mode} out of range for {state.mode_count} modes")
    amps = {p: a * transmission ** (p[mode] / 2.0) for p, a in state.amplitudes.items()}
    if sum(abs(a) ** 2 for a in amps.values()) == 0.0:
        raise ValueError("postselection succeeds with probability zero")
    return FockState(state.mode_count, amps, normalized=False)


def prepare(
    theta1: float,
    theta2: float,
    attenuated_arm: int = REFERENCE_ARM,
    input_state: FockState | None = None,
) -> tuple[FockState, float]:
    """Run the preparation network: splitter theta1 on |11>, then a postselected
    attenuator theta2 on one arm.

    Returns the unnormalized prepared state and the success probability (its
    squared norm). With the default input and arm this reproduces
    sqrt(2 t1 (1-t1))|20> + sqrt(t2)(2 t1 - 1)|11> - t2 sqrt(2 t1 (1-t1))|02>.
    """
    if input_state is None:
        input_state = basis((1, 1))
    if input_state.mode_count != 2:
        raise ValueError("preparation network acts on two modes")
    mixed = apply_transform(input_state, beam_splitter(theta1, 0, 1, 2))
    prepared = attenuate(mixed, attenuated_arm, theta2)
    return prepared, prepared.norm_sq()


def solve_prep(target: ProbeWeights) -> PrepConfig:
    """Invert the network for a target weight triple.

    The attenuator sits on the arm with the smaller of the two double-occupancy
    weights, so targets with x0 > x2 swap which arm is attenuated. Of the two
    theta1 roots the one >= 1/2 is returned.
    """
    x0, x1, x2 = target.as_tuple()
    if x2 <= 0.0:
        raise ValueError("the network cannot reach targets without |20> weight (x2 = 0)")
    if x0 <= x2:
        arm = REFERENCE_ARM
        theta2 = math.sqrt(x0 / x2)
        heavier = x2
    else:
        arm = SENSING_ARM
        theta2 = math.sqrt(x2 / x0)
        heavier = x0
    if x1 == 0.0:
        theta1 = 0.5
    else:
        if theta2 == 0.0:
            raise ValueError("targets with x1 > 0 need weight on both |20> and |02>")
        k = x1 / (heavier * theta2)
        theta1 = 0.5 * (1.0 + math.sqrt(k / (k + 2.0)))
    if not 0.0 <= theta1 <= 1.0:
        raise ValueError(f"no feasible first splitter for target {target}")
    _, success = prepare(theta1, theta2, arm)
    return PrepConfig(theta1=theta1, theta2=theta2, attenuated_arm=arm, success_prob=success)
