"""Golden-section search: every lane against the scalar search."""

import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import lossyphase
from lossyphase import detection
from lossyphase.golden import golden_section_max

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0
#: The offset search's look-ahead.
DEPTH = detection._OFFSET_DEPTH


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


def expected_calls(steps: int, depth: int) -> int:
    """Calls of fn by a search whose slowest lane takes ``steps`` steps: the
    opening call, then one per ``depth`` steps and the midpoint."""
    return 1 + math.ceil((steps + 1) / depth)


def steps_taken(lo, hi, tol):
    """Steps the scalar search takes on [lo, hi]: each keeps INV_PHI of the bracket."""
    return len(scalar_calls(lambda t: 0.0, lo, hi, tol)) - 3  # the two opening points and the midpoint


def scalar_calls(objective, lo, hi, tol):
    calls = []
    scalar_golden_section_max(lambda t: calls.append(t) or objective(t), lo, hi, tol=tol)
    return calls


#: Look-ahead depths: the theta searches' one step per call, two, the offset
#: search's depth, and one more.
DEPTHS = [1, 2, DEPTH, DEPTH + 1]


class TestLanes:
    @pytest.mark.parametrize("depth", DEPTHS)
    @pytest.mark.parametrize("name", list(OBJECTIVES))
    def test_each_lane_matches_scalar_search(self, name, depth):
        objective = OBJECTIVES[name]
        rng = np.random.default_rng(7)
        lo = rng.uniform(-1.0, 0.5, 40)
        # full, half-width (as at a grid edge) and tiny brackets stop after different step counts
        width = np.tile([0.04, 0.02, 1.0, 3e-9, 2e-10, 0.5, 1e-6, 0.3], 5)
        hi = lo + width
        lo[3], hi[3] = 0.0, 1e-9  # a bracket exactly tol wide takes no step
        centre = lo + rng.uniform(-0.2, 1.2, 40) * width
        lo_before, hi_before = lo.copy(), hi.copy()
        calls = []

        def fn(t):
            calls.append(t.shape)
            return objective(t, centre[:, None])

        x, f = golden_section_max(fn, lo, hi, tol=1e-9, depth=depth)
        expected = [
            scalar_golden_section_max(lambda t, m=m: objective(t, m), a, b, tol=1e-9) for a, b, m in zip(lo, hi, centre)
        ]
        assert x.shape == f.shape == (40,)
        assert bits(x) == bits([e[0] for e in expected])
        assert bits(f) == bits([e[1] for e in expected])
        assert bits(lo) == bits(lo_before) and bits(hi) == bits(hi_before)
        assert calls[0] == (40, 2) and set(calls[1:]) == {(40, 2**depth - 1)}
        assert len(calls) == expected_calls(max(steps_taken(a, b, 1e-9) for a, b in zip(lo, hi)), depth)

    def test_ties_keep_the_left_bracket(self):
        calls = []

        def flat(t):
            calls.append(np.shape(t))
            return np.zeros_like(t)

        x, f = golden_section_max(flat, np.array([0.0, 1.0]), np.array([1.0, 1.5]), tol=1e-3, depth=1)
        expected = [scalar_golden_section_max(lambda t: 0.0, a, b, tol=1e-3) for a, b in ((0.0, 1.0), (1.0, 1.5))]
        assert bits(x) == bits([e[0] for e in expected])
        assert x[0] < 1e-3 and x[1] < 1.0 + 1e-3  # always [a, d]
        assert calls[0] == (2, 2) and set(calls[1:]) == {(2, 1)}

    @pytest.mark.parametrize("depth", DEPTHS)
    def test_two_dimensional_lanes(self, depth):
        lo = np.array([[0.0, 0.1], [0.2, 0.3]])
        hi = lo + np.array([[0.5, 1e-3], [2e-9, 0.5]])
        x, f = golden_section_max(lambda t: -(t - 0.35) ** 2, lo, hi, tol=1e-8, depth=depth)
        expected = [scalar_golden_section_max(lambda t: -(t - 0.35) ** 2, a, b, tol=1e-8) for a, b in zip(lo.ravel(), hi.ravel())]
        assert x.shape == f.shape == (2, 2)
        assert bits(x.ravel()) == bits([e[0] for e in expected])
        assert bits(f.ravel()) == bits([e[1] for e in expected])

    def test_float_brackets_give_floats(self):
        x, f = golden_section_max(lambda t: -(t - 0.3) ** 2, 0.0, 1.0, depth=1)
        assert type(x) is float and type(f) is float
        assert (x, f) == scalar_golden_section_max(lambda t: -(t - 0.3) ** 2, 0.0, 1.0)


class TestFloatBrackets:
    """A float bracket is the 0-d case: it runs the scalar search ``depth``
    steps per call of fn, on a 1-D array of points."""

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

    @pytest.mark.parametrize("depth", DEPTHS)
    @pytest.mark.parametrize("name", list(OBJECTIVES))
    def test_matches_scalar_search_bit_for_bit(self, name, depth):
        objective, taken = OBJECTIVES[name], set()
        for lo, hi, centre in self.brackets():
            calls = []

            def fn(t):
                calls.append(t)
                assert len(calls) < 100, "the search does not stop"
                return objective(t, centre)

            x, f = golden_section_max(fn, lo, hi, tol=self.TOL, depth=depth)
            oracle_calls = scalar_calls(lambda t: objective(t, centre), lo, hi, self.TOL)
            expected = scalar_golden_section_max(lambda t: objective(t, centre), lo, hi, tol=self.TOL)
            assert type(x) is float and type(f) is float
            assert bits([x, f]) == bits(expected)
            steps = len(oracle_calls) - 3
            taken.add(steps)
            assert all(type(t) is np.ndarray and t.dtype == float and t.ndim == 1 for t in calls)
            assert calls[0].shape == (2,) and {t.shape for t in calls[1:]} == {(2**depth - 1,)}
            assert len(calls) == expected_calls(steps, depth) <= math.ceil(steps / depth) + 2
        assert {0, DEPTH - 1, DEPTH, DEPTH + 1} <= taken


class TestArguments:
    @pytest.mark.parametrize("lo, hi", [(1.0, 1.0), (1.0, 0.0), (math.nan, 1.0), (-math.inf, 0.0), ([0.0, 1.0], [1.0, 1.0])])
    def test_bad_bracket_rejected(self, lo, hi):
        with pytest.raises(ValueError, match="lo < hi"):
            golden_section_max(lambda t: t, lo, hi, depth=1)

    def test_bracket_shapes_must_agree(self):
        with pytest.raises(ValueError, match="shape"):
            golden_section_max(lambda t: t, np.zeros(2), np.ones(3), depth=1)

    @pytest.mark.parametrize("depth", [0, -1])
    def test_depth_below_one_rejected(self, depth):
        with pytest.raises(ValueError, match="depth must be at least 1"):
            golden_section_max(lambda t: t, 0.0, 1.0, depth=depth)

    def test_bad_tol_rejected(self):
        """A tol that is not a positive finite number once made the search
        loop forever, so the calls run in a child process under a timeout."""
        paths = [str(Path(lossyphase.__file__).resolve().parents[1]), str(Path(__file__).parent)]  # src, oracles
        code = (
            "import math, sys; sys.path[:0] = sys.argv[1:]\n"
            "from lossyphase.golden import golden_section_max\n"
            "from oracles import sil_precision_numeric\n"
            "calls = [lambda tol: golden_section_max(lambda t: -t * t, -1.0, 1.0, tol=tol, depth=1),\n"
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
