"""One-dimensional golden-section maximization, one search per lane."""

from __future__ import annotations

import math

import numpy as np

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0

#: Steps a float-bracket search takes per call of ``fn``: one call evaluates
#: the 2**DEPTH - 1 points that the next DEPTH steps can visit.
DEPTH = 5


def golden_section_max(fn, lo, hi, tol: float = 1e-10):
    """Locate the maximum of a unimodal function on [lo, hi].

    ``lo`` and ``hi`` are floats, or equal-shape arrays holding one bracket
    per lane. Every lane runs the scalar search with the scalar arithmetic:
    it keeps [a, d] when fn(c) >= fn(d), else [c, b], and stops once its
    bracket is narrower than ``tol``; a stopped lane no longer moves. Returns
    (x, fn(x)) at the bracket midpoints, as floats for float brackets.

    For array brackets ``fn`` maps an array of points of the bracket shape
    to their values. For float brackets ``fn`` maps a 1-D array of points to
    a 1-D array of their values: first the two opening points, then, once
    per DEPTH steps, the 2**DEPTH - 1 points those steps can visit whichever
    way each goes. Each value must round as a lone evaluation of its point
    would, so that the result does not depend on DEPTH.
    """
    if not (math.isfinite(tol) and tol > 0.0):
        raise ValueError(f"tol must be a positive finite number, got {tol!r}")
    a, b = np.array(lo, dtype=float), np.array(hi, dtype=float)
    if a.shape != b.shape:
        raise ValueError(f"lo and hi differ in shape: {a.shape} and {b.shape}")
    if not np.all(np.isfinite(a) & np.isfinite(b) & (b > a)):
        raise ValueError("need finite lo < hi")
    if a.ndim == 0:
        return _speculative_search(fn, float(a), float(b), tol)
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
    return x, fn(x)


def _speculative_search(fn, a: float, b: float, tol: float) -> tuple[float, float]:
    """The scalar search on floats, evaluating DEPTH steps ahead per call of fn."""
    c = b - _INV_PHI * (b - a)
    d = a + _INV_PHI * (b - a)
    fc, fd = np.asarray(fn(np.array([c, d])), dtype=float).tolist()
    left = fc >= fd
    while True:
        # Dry run: node k takes one step from its parent's bracket (the root
        # from the current one, by the known outcome); its children 2k + 1 and
        # 2k + 2 keep the left and the right part. A bracket within tol ends
        # the search, so its node evaluates the bracket midpoint instead.
        nodes = []
        for k in range(2**DEPTH - 1):
            if k:
                (pa, pb, pc, pd), go_left = nodes[(k - 1) // 2][0], k % 2 == 1
            else:
                (pa, pb, pc, pd), go_left = (a, b, c, d), left
            if not (pb - pa) > tol:
                nodes.append(((pa, pb, pc, pd), 0.5 * (pa + pb)))
            elif go_left:
                x = pd - _INV_PHI * (pd - pa)
                nodes.append(((pa, pd, x, pc), x))
            else:
                x = pc + _INV_PHI * (pb - pc)
                nodes.append(((pc, pb, pd, x), x))
        values = np.asarray(fn(np.array([x for _, x in nodes])), dtype=float).tolist()
        # Replay: the scalar rule walks down the tree, reading each value.
        k = 0
        for _ in range(DEPTH):
            if not (b - a) > tol:
                return nodes[k][1], values[k]
            (a, b, c, d), fx = nodes[k][0], values[k]
            fc, fd = (fx, fc) if left else (fd, fx)
            left = fc >= fd
            k = 2 * k + (1 if left else 2)
