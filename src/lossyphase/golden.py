"""One-dimensional golden-section maximization, one search per lane."""

from __future__ import annotations

import math

import numpy as np

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


def golden_section_max(fn, lo, hi, tol: float = 1e-10):
    """Locate the maximum of a unimodal function on [lo, hi].

    ``lo`` and ``hi`` are floats, or equal-shape arrays holding one bracket
    per lane; ``fn`` maps an array of points of that shape to their values.
    Every lane runs the scalar search with the scalar arithmetic: it keeps
    [a, d] when fn(c) >= fn(d), else [c, b], and stops once its bracket is
    narrower than ``tol``; a stopped lane no longer moves. Returns (x, fn(x))
    at the bracket midpoints, as floats for float brackets.
    """
    if not (math.isfinite(tol) and tol > 0.0):
        raise ValueError(f"tol must be a positive finite number, got {tol!r}")
    a, b = np.array(lo, dtype=float), np.array(hi, dtype=float)
    if a.shape != b.shape:
        raise ValueError(f"lo and hi differ in shape: {a.shape} and {b.shape}")
    if not np.all(np.isfinite(a) & np.isfinite(b) & (b > a)):
        raise ValueError("need finite lo < hi")
    c = b - _INV_PHI * (b - a)
    d = a + _INV_PHI * (b - a)
    fc, fd = fn(c), fn(d)
    live = (b - a) > tol
    while live.any():
        left = fc >= fd  # the maximum lies in [a, d], else in [c, b]
        keep_left, keep_right = live & left, live & ~left
        a, b = np.where(keep_right, c, a), np.where(keep_left, d, b)
        c, d = np.where(keep_right, d, c), np.where(keep_left, c, d)
        fc, fd = np.where(keep_right, fd, fc), np.where(keep_left, fc, fd)
        width = b - a
        x = np.where(left, b - _INV_PHI * width, a + _INV_PHI * width)
        fx = fn(x)
        c, fc = np.where(keep_left, x, c), np.where(keep_left, fx, fc)
        d, fd = np.where(keep_right, x, d), np.where(keep_right, fx, fd)
        live = width > tol
    x = 0.5 * (a + b)
    if x.ndim == 0:
        return float(x), float(fn(x))
    return x, fn(x)
