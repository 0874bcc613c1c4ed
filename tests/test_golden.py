"""Golden-section search: every lane against the scalar search."""

import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import lossyphase
from lossyphase import golden
from lossyphase.golden import golden_section_max

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0
DEPTH = golden.DEPTH


def scalar_golden_section_max(fn, lo, hi, tol=1e-10):
    """The scalar search, the oracle for each lane of golden_section_max."""
    a, b = float(lo), float(hi)
    c = b - _INV_PHI * (b - a)
    d = a + _INV_PHI * (b - a)
    fc, fd = fn(c), fn(d)
    while (b - a) > tol:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - _INV_PHI * (b - a)
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INV_PHI * (b - a)
            fd = fn(d)
    x = 0.5 * (a + b)
    return x, fn(x)


def bits(values):
    return np.asarray(values, dtype=float).view(np.int64).tolist()


# Lane objectives built from +, -, * and floor only, so a lane and a lone
# scalar evaluation round alike: a hump, two humps, and a staircase whose
# plateaus make fc == fd.
OBJECTIVES = {
    "hump": lambda x, m: -(x - m) * (x - m),
    "two-humps": lambda x, m: -(x - m) * (x - m) * ((x - m - 0.1) * (x - m - 0.1) + 1e-3),
    "stairs": lambda x, m: -np.floor(np.abs(x - m) * 8.0),
}


class TestLanes:
    @pytest.mark.parametrize("name", list(OBJECTIVES))
    def test_each_lane_matches_scalar_search(self, name):
        objective = OBJECTIVES[name]
        rng = np.random.default_rng(7)
        lo = rng.uniform(-1.0, 0.5, 40)
        # full, half-width (as at a grid edge) and tiny brackets stop after different step counts
        width = np.tile([0.04, 0.02, 1.0, 3e-9, 2e-10, 0.5, 1e-6, 0.3], 5)
        hi = lo + width
        lo[3], hi[3] = 0.0, 1e-9  # a bracket exactly tol wide takes no step
        centre = lo + rng.uniform(-0.2, 1.2, 40) * width
        x, f = golden_section_max(lambda t: objective(t, centre), lo, hi, tol=1e-9)
        expected = [
            scalar_golden_section_max(lambda t, m=m: objective(t, m), a, b, tol=1e-9) for a, b, m in zip(lo, hi, centre)
        ]
        assert x.shape == f.shape == (40,)
        assert bits(x) == bits([e[0] for e in expected])
        assert bits(f) == bits([e[1] for e in expected])

    def test_ties_keep_the_left_bracket(self):
        calls = []

        def flat(t):
            calls.append(np.shape(t))
            return np.zeros_like(t)

        x, f = golden_section_max(flat, np.array([0.0, 1.0]), np.array([1.0, 1.5]), tol=1e-3)
        expected = [scalar_golden_section_max(lambda t: 0.0, a, b, tol=1e-3) for a, b in ((0.0, 1.0), (1.0, 1.5))]
        assert bits(x) == bits([e[0] for e in expected])
        assert x[0] < 1e-3 and x[1] < 1.0 + 1e-3  # always [a, d]
        assert set(calls) == {(2,)}

    def test_two_dimensional_lanes(self):
        lo = np.array([[0.0, 0.1], [0.2, 0.3]])
        x, _ = golden_section_max(lambda t: -(t - 0.35) ** 2, lo, lo + 0.5, tol=1e-8)
        expected = [scalar_golden_section_max(lambda t: -(t - 0.35) ** 2, a, a + 0.5, tol=1e-8)[0] for a in lo.ravel()]
        assert bits(x.ravel()) == bits(expected)

    def test_float_brackets_give_floats(self):
        x, f = golden_section_max(lambda t: -(t - 0.3) ** 2, 0.0, 1.0)
        assert type(x) is float and type(f) is float
        assert (x, f) == scalar_golden_section_max(lambda t: -(t - 0.3) ** 2, 0.0, 1.0)


class TestSpeculativeFloatPath:
    """Float brackets run the scalar search DEPTH steps per call of fn."""

    TOL = 1e-9

    def brackets(self):
        """About 40 brackets; the tol-wide one takes no step, and widths of
        tol / INV_PHI**(k - 1/2) take k steps."""
        rng = np.random.default_rng(13)
        steps = [DEPTH - 1, DEPTH, DEPTH + 1, 1, 2 * DEPTH, 3 * DEPTH + 1]
        widths = [self.TOL / _INV_PHI ** (k - 0.5) for k in steps] + [1.0, 0.3, 0.04, 2e-9, 1e-6]
        out = [(0.0, self.TOL, 0.5 * self.TOL)]
        for width in np.tile(widths, 4)[:39]:
            lo = float(rng.uniform(-1.0, 0.5))
            out.append((lo, lo + width, lo + float(rng.uniform(-0.2, 1.2)) * width))
        return out

    @pytest.mark.parametrize("depth", [DEPTH, 1, 2, DEPTH + 1])
    @pytest.mark.parametrize("name", list(OBJECTIVES))
    def test_matches_scalar_search_bit_for_bit(self, name, depth, monkeypatch):
        monkeypatch.setattr(golden, "DEPTH", depth)
        objective, taken = OBJECTIVES[name], set()
        for lo, hi, centre in self.brackets():
            calls, oracle_calls = [], []

            def fn(t):
                calls.append(t)
                assert len(calls) < 100, "the search does not stop"
                return objective(t, centre)

            def scalar_fn(t):
                oracle_calls.append(t)
                return objective(t, centre)

            x, f = golden_section_max(fn, lo, hi, tol=self.TOL)
            expected = scalar_golden_section_max(scalar_fn, lo, hi, tol=self.TOL)
            assert type(x) is float and type(f) is float
            assert bits([x, f]) == bits(expected)
            steps = len(oracle_calls) - 3  # the two opening points and the midpoint
            taken.add(steps)
            assert all(type(t) is np.ndarray and t.dtype == float and t.ndim == 1 for t in calls)
            assert calls[0].shape == (2,) and {t.shape for t in calls[1:]} == {(2**depth - 1,)}
            assert len(calls) == 1 + math.ceil((steps + 1) / depth) <= math.ceil(steps / depth) + 2
        assert {0, DEPTH - 1, DEPTH, DEPTH + 1} <= taken


class TestArguments:
    @pytest.mark.parametrize("lo, hi", [(1.0, 1.0), (1.0, 0.0), (math.nan, 1.0), (-math.inf, 0.0), ([0.0, 1.0], [1.0, 1.0])])
    def test_bad_bracket_rejected(self, lo, hi):
        with pytest.raises(ValueError, match="lo < hi"):
            golden_section_max(lambda t: t, lo, hi)

    def test_bracket_shapes_must_agree(self):
        with pytest.raises(ValueError, match="shape"):
            golden_section_max(lambda t: t, np.zeros(2), np.ones(3))

    def test_bad_tol_rejected(self):
        """A tol that is not a positive finite number once made the search
        loop forever, so the calls run in a child process under a timeout."""
        paths = [str(Path(lossyphase.__file__).resolve().parents[1]), str(Path(__file__).parent)]  # src, oracles
        code = (
            "import math, sys; sys.path[:0] = sys.argv[1:]\n"
            "from lossyphase.golden import golden_section_max\n"
            "from oracles import sil_precision_numeric\n"
            "calls = [lambda tol: golden_section_max(lambda t: -t * t, -1.0, 1.0, tol=tol),\n"
            "         lambda tol: sil_precision_numeric(0.5, tol=tol)]\n"
            "for tol in (0.0, -1.0, -0.0, math.nan, math.inf):\n"
            "    for call in calls:\n"
            "        try:\n"
            "            call(tol)\n"
            "        except ValueError as exc:\n"
            "            print(exc)\n"
        )
        try:
            run = subprocess.run([sys.executable, "-c", code, *paths], capture_output=True, text=True, timeout=20)
        except subprocess.TimeoutExpired:
            pytest.fail("golden_section_max did not return for a tol that is not positive")
        assert run.returncode == 0, run.stderr
        lines = run.stdout.splitlines()
        assert len(lines) == 10 and all(line.startswith("tol must be a positive finite number") for line in lines)
