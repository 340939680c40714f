"""Composite quadrature with halving-based error estimates.

Radial integrals against the 2D area element show up in every module,
so the conventions live here: integrate(f) means int_a^b f(r) dr and
radial weighting (the 2*pi*r factor) is applied by the caller.

Integrands must be elementwise: f(r)[i] depends only on r[i]. The halving
loop relies on it. Each doubling samples f only at the new midpoints and
keeps every node it already has, so each node is sampled once, and the
last pass equals a fresh composite pass on the same nodes bit for bit
(np.linspace(a, b, 2n + 1)[::2] is np.linspace(a, b, n + 1) exactly).
"""
from __future__ import annotations

import warnings
from typing import Callable, Sequence

import numpy as np

# Simpson subintervals of the coarsest pass; the halving stops after
# _MAX_DOUBLINGS passes or once the estimate is below rtol * |value| + _ATOL.
_N0 = 64
_ATOL = 1e-300
_MAX_DOUBLINGS = 14


def _simpson_sum(y: np.ndarray, a: float, b: float, n: int) -> float:
    """Composite Simpson sum of the n + 1 samples y on [a, b]."""
    h = (b - a) / n
    return float(h / 3.0 * (y[0] + y[-1] + 4.0 * y[1:-1:2].sum() + 2.0 * y[2:-1:2].sum()))


def _finite(y: np.ndarray, x: np.ndarray, a: float, b: float) -> np.ndarray:
    """y unchanged, or a ValueError naming [a, b] and the first non-finite sample."""
    bad = ~np.isfinite(y)
    if bad.any():
        i = int(np.argmax(bad))
        raise ValueError(
            f"Simpson halving on [{a!r}, {b!r}]: integrand is {float(y[i])!r} "
            f"at node {float(x[i])!r}")
    return y


def composite_simpson(f: Callable[[np.ndarray], np.ndarray], a: float, b: float,
                      n: int = 128) -> float:
    """Composite Simpson rule with n subintervals (n is forced even)."""
    if b <= a:
        return 0.0
    n = int(n)
    if n % 2:
        n += 1
    return _simpson_sum(np.asarray(f(np.linspace(a, b, n + 1)), dtype=float), a, b, n)


def simpson_with_halving(f: Callable[[np.ndarray], np.ndarray], a: float, b: float,
                         rtol: float = 1e-11) -> tuple[float, float]:
    """Simpson value with an error estimate from successive grid halving.

    Returns (value, estimated_error). The estimate is the difference between
    the two finest levels; iteration stops once it drops below tolerance. A
    run that reaches _MAX_DOUBLINGS without meeting it returns the same pair
    and emits a RuntimeWarning naming the interval, the estimate and rtol.
    A non-finite sample raises a ValueError on the pass that takes it, since
    it stays in every later pass and no halving can make the value finite.

    f must be elementwise. Each doubling samples it only at the new odd
    nodes, so every node is sampled once, and each pass, the last included,
    equals composite_simpson(f, a, b, n) on its n bit for bit.
    """
    if b <= a:
        return 0.0, 0.0
    n = _N0
    x = np.linspace(a, b, n + 1)
    y = _finite(np.asarray(f(x), dtype=float), x, a, b)
    prev = _simpson_sum(y, a, b, n)
    err = np.inf
    for _ in range(_MAX_DOUBLINGS):
        # The odd nodes are copied to a contiguous array, so f sees the
        # layout a fresh pass gives it.
        new = np.ascontiguousarray(np.linspace(a, b, 2 * n + 1)[1::2])
        fine = np.empty(2 * n + 1)
        fine[::2] = y
        fine[1::2] = _finite(np.asarray(f(new), dtype=float), new, a, b)
        y, n = fine, 2 * n
        cur = _simpson_sum(y, a, b, n)
        err = abs(cur - prev)
        prev = cur
        if err <= rtol * max(abs(cur), _ATOL) + _ATOL:
            break
    else:
        warnings.warn(
            f"Simpson halving on [{a!r}, {b!r}] stopped after {_MAX_DOUBLINGS} doublings "
            f"with error estimate {err:.3e} against rtol {rtol:.1e} (value {prev:.6e})",
            RuntimeWarning, stacklevel=2)
    return prev, err


def piecewise_simpson(f: Callable[[np.ndarray], np.ndarray],
                      breakpoints: Sequence[float],
                      rtol: float = 1e-11) -> tuple[float, float]:
    """Simpson-with-halving on each piece; breakpoints isolate kinks or jumps."""
    pts = sorted(float(p) for p in breakpoints)
    total = 0.0
    err = 0.0
    for lo, hi in zip(pts[:-1], pts[1:]):
        if hi <= lo:
            continue
        v, e = simpson_with_halving(f, lo, hi, rtol=rtol)
        total += v
        err += e
    return total, err


def radial_area_integral(f: Callable[[np.ndarray], np.ndarray],
                         breakpoints: Sequence[float],
                         rtol: float = 1e-11) -> tuple[float, float]:
    """Integral of f over the plane for radial f: 2*pi*int r f(r) dr."""
    value, err = piecewise_simpson(lambda r: r * np.asarray(f(r), dtype=float),
                                   breakpoints, rtol=rtol)
    return 2.0 * np.pi * value, 2.0 * np.pi * err
