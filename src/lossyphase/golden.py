"""One-dimensional golden-section maximization, one search per lane."""

from __future__ import annotations

import math

import numpy as np

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


def golden_section_max(fn, lo, hi, tol: float = 1e-10, *, depth: int):
    """Locate the maximum of a unimodal function on [lo, hi].

    ``lo`` and ``hi`` are floats, or equal-shape arrays holding one bracket
    per lane; a float bracket is the 0-d case. Every lane runs the scalar
    search with the scalar arithmetic: it keeps [a, d] when fn(c) >= fn(d),
    else [c, b], and stops once its bracket is narrower than ``tol``; a
    stopped lane no longer moves. Returns (x, fn(x)) at the bracket
    midpoints, as floats for float brackets. ``lo`` and ``hi`` are not
    changed.

    ``fn`` maps an array of points, the bracket shape plus one last axis, to
    their values: first the two opening points of each lane, then, once per
    ``depth`` steps, the 2**depth - 1 points those steps can visit whichever
    way each goes; a lane within ``tol`` evaluates its midpoint there
    instead. Each value must round as a lone evaluation of its point would,
    so that the result depends neither on ``depth`` nor on the other lanes.
    """
    if not (math.isfinite(tol) and tol > 0.0):
        raise ValueError(f"tol must be a positive finite number, got {tol!r}")
    if depth < 1:
        raise ValueError(f"depth must be at least 1, got {depth!r}")
    a, b = np.array(lo, dtype=float), np.array(hi, dtype=float)
    if a.shape != b.shape:
        raise ValueError(f"lo and hi differ in shape: {a.shape} and {b.shape}")
    if not np.all(np.isfinite(a) & np.isfinite(b) & (b > a)):
        raise ValueError("need finite lo < hi")
    c = b - _INV_PHI * (b - a)
    d = a + _INV_PHI * (b - a)
    opening = fn(np.stack([c, d], axis=-1))
    fc, fd = opening[..., 0], opening[..., 1]
    left = fc >= fd  # the maximum lies in [a, d], else in [c, b]
    f = np.empty(a.shape)
    live = (b - a) > tol
    while True:
        every = live.all()  # no lane is masked while every lane is live
        *nodes, x = _lookahead(a, b, c, d, left, None if every else ~live, tol, depth)
        nodes.append(fn(x))  # (a, b, c, d, value) of each node
        # Replay: each lane walks down the tree by the scalar rule, reading each value.
        for level in range(depth):
            if level:
                k = 2 * k + 2 - left  # the child that keeps the chosen part
                node = [np.take_along_axis(v, k[..., None], axis=-1)[..., 0] for v in nodes]
                live = (b - a) > tol
                every = live.all()
            else:
                k, node = 0, [v[..., 0] for v in nodes]
            if not every:
                np.copyto(f, node[4], where=~live)
                if not live.any():
                    x = 0.5 * (a + b)
                    return (float(x), float(f)) if x.ndim == 0 else (x, f)
            a, b, c, d, fx = node  # a stopped lane's node keeps its bracket
            fc, fd = np.where(left, fx, fd), np.where(left, fc, fx)
            left = fc >= fd
        live = (b - a) > tol


def _lookahead(a, b, c, d, left, stop, tol, depth):
    """Brackets (a, b, c, d) and points of the 2**depth - 1 nodes that the
    next ``depth`` steps can visit, on a new last axis, breadth first: node k
    takes one step from its parent's bracket (the root from the current one,
    by the known outcome ``left``), and its children 2k + 1 and 2k + 2 keep
    the left and the right part. A bracket within ``tol`` (at the root, a
    lane of ``stop``, which None leaves empty) ends the search, so its node
    keeps it and evaluates its midpoint."""
    pa, pb, pc, pd, go = a[..., None], b[..., None], c[..., None], d[..., None], left[..., None]
    stop = None if stop is None else stop[..., None]
    levels = []
    for level in range(depth):
        if level:
            pa, pb, pc, pd = (np.repeat(v, 2, axis=-1) for v in levels[-1][:4])
            go, stop = np.arange(2**level) % 2 == 0, ~((pb - pa) > tol)
        na, nb = np.where(go, pa, pc), np.where(go, pd, pb)
        width = nb - na
        x = np.where(go, nb - _INV_PHI * width, na + _INV_PHI * width)
        node = [na, nb, np.where(go, x, pd), np.where(go, pc, x), x]
        if stop is not None and stop.any():
            for new, old in zip(node, (pa, pb, pc, pd, 0.5 * (pa + pb))):
                np.copyto(new, old, where=stop)
        levels.append(node)
    return levels[0] if depth == 1 else [np.concatenate(parts, axis=-1) for parts in zip(*levels)]
