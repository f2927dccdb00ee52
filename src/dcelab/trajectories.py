"""Wall trajectories R(t) with analytic derivatives up to the third (jerk).

Trajectories are static outside [t_start, t_end]: every factory states only
its law on that window, and one constructor clamps the position and zeroes
every derivative outside it, so solvers can treat any time outside the
window as a wall at rest. Velocities must stay subluminal (|Rdot| < 1) for
the conformal solver to be well posed; the factories enforce it at construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb, factorial, perm
from typing import Callable

import numpy as np
from numpy.polynomial import polynomial as P

__all__ = [
    "WallTrajectory",
    "static_wall",
    "harmonic_wall",
    "quintic_wall",
    "tabulated_wall",
    "reversed_trajectory",
    "PolynomialRamp",
]


@dataclass(frozen=True)
class WallTrajectory:
    """Wall position and its first three derivatives as vectorized callables.

    period, when set, declares that the law repeats with that period on
    [t_start, t_end]; the coupled-mode solver then propagates whole periods
    with one monodromy matrix. jerk (the third derivative) gives the conformal
    solver its exact F''', so it refuses a wall without one. Every factory
    supplies it, except tabulated_wall for splines of degree k < 3.
    """

    position: Callable
    velocity: Callable
    acceleration: Callable
    t_start: float
    t_end: float
    label: str = "custom"
    period: float | None = None
    jerk: Callable | None = None

    def __post_init__(self):
        if not self.t_end >= self.t_start:
            raise ValueError("t_end must be >= t_start")
        if self.period is not None and not self.period > 0:
            raise ValueError("period must be positive")

    def max_speed(self):
        t = np.linspace(self.t_start, self.t_end, 4096)
        return float(np.max(np.abs(self.velocity(t))))


def _windowed(pos, vel, acc, jerk, t_start, t_end, label, period=None):
    """WallTrajectory that follows the law (pos, vel, acc, jerk) on [t_start, t_end].

    Outside the window the wall rests: the position is clamped to the
    window and every derivative is zero. Both edges belong to the window
    and report the moving side, so an ODE integrating up to an edge sees
    the moving law. Superluminal laws are rejected.
    """

    def position(t):
        return pos(np.clip(np.asarray(t, dtype=float), t_start, t_end))

    def moving(f):
        def g(t):
            t = np.asarray(t, dtype=float)
            return np.where((t >= t_start) & (t <= t_end), f(t), 0.0)
        return g

    traj = WallTrajectory(position, moving(vel), moving(acc), t_start, t_end,
                          label=label, period=period,
                          jerk=None if jerk is None else moving(jerk))
    v = traj.max_speed()
    if v >= 1.0:
        raise ValueError(
            f"{label} wall: speed reaches |Rdot| = {v:.3g} >= 1 (superluminal)")
    return traj


def static_wall(R0):
    """Wall fixed at R0 for all times."""
    if R0 <= 0:
        raise ValueError("R0 must be positive")

    def zero(t):
        return 0.0 * t

    return _windowed(lambda t: R0 + zero(t), zero, zero, zero, 0.0, 0.0, "static")


def harmonic_wall(R0, eps, Omega, t_end, t_start=0.0):
    """R(t) = R0 (1 + eps sin(Omega (t - t_start))) on [t_start, t_end].

    The drive switches on/off abruptly (position continuous, velocity
    jumps), which is the standard protocol for resonant photon creation.
    Pick t_end - t_start a multiple of pi/Omega to return the wall to R0.
    """
    if R0 <= 0:
        raise ValueError("R0 must be positive")
    if Omega <= 0:
        raise ValueError("Omega must be positive")
    if abs(eps) >= 1:
        raise ValueError("|eps| must be < 1")

    return _windowed(lambda t: R0 * (1.0 + eps * np.sin(Omega * (t - t_start))),
                     lambda t: R0 * eps * Omega * np.cos(Omega * (t - t_start)),
                     lambda t: -R0 * eps * Omega**2 * np.sin(Omega * (t - t_start)),
                     lambda t: -R0 * eps * Omega**3 * np.cos(Omega * (t - t_start)),
                     t_start, t_end, "harmonic", period=2.0 * np.pi / Omega)


# orders 0 to 3 of the smoothstep 10 s^3 - 15 s^4 + 6 s^5 and of the bump window
# s^3 (1 - s)^3, factored so that the values pinned at the ends are exact zeros
_SMOOTHSTEP = (lambda s: s**3 * (10.0 - 15.0 * s + 6.0 * s**2),
               lambda s: 30.0 * s**2 * (1.0 - s) ** 2,
               lambda s: 60.0 * s * (1.0 - s) * (1.0 - 2.0 * s),
               lambda s: 60.0 * (1.0 - 6.0 * s + 6.0 * s**2))
_WINDOW = (lambda s: s**3 * (1.0 - s) ** 3,
           lambda s: 3.0 * s**2 * (1.0 - s) ** 2 * (1.0 - 2.0 * s),
           lambda s: 6.0 * s * (1.0 - s) * (1.0 - 5.0 * s + 5.0 * s**2),
           lambda s: 6.0 * (1.0 - 12.0 * s + 30.0 * s**2 - 20.0 * s**3))


class PolynomialRamp:
    """Ramp p(s) = 10 s^3 - 15 s^4 + 6 s^5 + s^3 (1-s)^3 q(s) from p(0) = 0 to p(1) = 1.

    q holds the bump coefficients in increasing powers of s (q = 0 is the
    quintic) and coeffs those of p; slope and curvature vanish at both ends.
    delta(t, tau) = p(t/tau) is a stroke of duration tau, delta_dot its rate.
    """

    def __init__(self, q=(0.0,)):
        self.q = np.asarray(q, dtype=float)
        self.coeffs = P.polyadd([0, 0, 0, 10, -15, 6],
                                P.polymul([0, 0, 0, 1, -3, 3, -1], self.q))

    def derivative(self, s, order=0):
        """p^(order)(s) for order 0 (the value) up to 3 (the jerk)."""
        s = np.asarray(s, dtype=float)
        out = _SMOOTHSTEP[order](s)
        if self.q.any():  # Leibniz rule on the window times q
            out = out + sum(comb(order, j) * _WINDOW[order - j](s)
                            * P.polyval(s, P.polyder(self.q, j)) for j in range(order + 1))
        return out

    def delta(self, t, tau):
        """p(t/tau) for t in [0, tau]."""
        t = np.asarray(t, dtype=float)
        if np.any(t < -1e-12 * tau) or np.any(t > tau * (1 + 1e-12)):
            raise ValueError("t outside [0, tau]")
        return self.derivative(np.clip(t / tau, 0.0, 1.0))

    def delta_dot(self, t, tau):
        """d/dt p(t/tau) = p'(t/tau) / tau, zero outside [0, tau]."""
        return self.derivative(np.clip(np.asarray(t, dtype=float) / tau, 0.0, 1.0), 1) / tau

    def wall(self, L0, eps, tau, t_start=0.0):
        """Compression L(t) = L0 (1 - eps p((t - t_start)/tau)): L0 -> L0 (1 - eps)."""
        if L0 <= 0:
            raise ValueError("L0 must be positive")
        if tau <= 0:
            raise ValueError("tau must be positive")
        if not -1.0 < eps < 1.0:
            raise ValueError("|eps| must be < 1")

        def law(order):
            return lambda t: -L0 * eps * self.derivative((t - t_start) / tau, order) / tau**order

        return _windowed(lambda t: L0 * (1.0 - eps * self.derivative((t - t_start) / tau)),
                         law(1), law(2), law(3), t_start, t_start + tau,
                         "ramp" if self.q.any() else "quintic")


def quintic_wall(L0, eps, tau, t_start=0.0):
    """The quintic PolynomialRamp's wall: C^2 at both ends, so the coupled-mode
    source terms switch on and off smoothly (the Otto work strokes use it)."""
    return PolynomialRamp().wall(L0, eps, tau, t_start)


def _bspline_values(knots, k, m, x):
    """Values at x[i] of the k + 1 B-splines of degree k that are nonzero on the knot
    interval [knots[m[i]], knots[m[i] + 1]), B-spline m[i] - k + r in column r
    (the Cox-de Boor recursion, as in de Boor's BSPLVB)."""
    N = np.zeros((x.size, k + 1))
    N[:, 0] = 1.0
    for j in range(1, k + 1):
        saved = 0.0
        for r in range(j):
            lo, hi = knots[m + r + 1 - j], knots[m + r + 1]
            temp = N[:, r] / (hi - lo)
            N[:, r] = saved + (hi - x) * temp
            saved = (x - lo) * temp
        N[:, j] = saved
    return N


def _piecewise(breaks, coeffs):
    """Evaluator of the polynomial pieces sum_j coeffs[j, i] (t - breaks[i])^j on
    [breaks[i], breaks[i + 1]), the last piece closed. t is clamped into the table,
    so far-away times rest at the end values instead of overflowing."""
    lo, hi, inner = float(breaks[0]), float(breaks[-1]), breaks[1:-1]

    def f(t):
        t = np.clip(np.asarray(t, dtype=float), lo, hi)
        i = np.searchsorted(inner, t, side="right")
        u = t - breaks[i]
        c = coeffs[:, i]
        out = c[-1]
        for cj in c[-2::-1]:  # Horner's rule
            out = out * u + cj
        return out
    return f


def tabulated_wall(t, R, k=5):
    """Interpolating spline of degree k through samples (t, R), with its exact derivatives.

    The spline is the not-a-knot one of scipy's make_interp_spline (de Boor,
    A Practical Guide to Splines, XIII(12)): for odd k the interior knots are the
    samples t[(k+1)//2 : -((k+1)//2)], for even k the midpoints between samples,
    trimmed by k//2 at each end. Its B-spline coefficients are solved for once and
    turned into one polynomial per knot interval. The table must start and end at rest
    (the first/last samples are treated as the static values outside the window).
    """
    if not isinstance(k, (int, np.integer)) or k < 1:
        raise ValueError(f"spline degree k must be an integer >= 1, got {k!r}")
    t = np.asarray(t, dtype=float)
    R = np.asarray(R, dtype=float)
    if t.ndim != 1 or t.size < k + 1 or R.shape != t.shape:
        raise ValueError("need matching 1-D arrays with at least k+1 samples")
    for name, a in (("times t", t), ("positions R", R)):
        if not np.all(np.isfinite(a)):
            raise ValueError(f"tabulated wall: {name} must be finite, got NaN or inf")
    if np.any(np.diff(t) <= 0):
        raise ValueError("times must be strictly increasing")
    if np.any(R <= 0):
        raise ValueError("wall positions must be positive")
    k2 = (k + 1) // 2
    sites = t if k % 2 else (t[1:] + t[:-1]) / 2.0
    breaks = np.concatenate([t[:1], sites[k2:sites.size - k2], t[-1:]])
    knots = np.concatenate([np.full(k, t[0]), breaks, np.full(k, t[-1])])
    m = k + np.arange(breaks.size - 1)  # knots[m[i]] = breaks[i]
    # collocation: sample i lies on interval p[i], where B-splines p[i] .. p[i] + k are nonzero
    p = np.searchsorted(breaks[1:-1], t, side="right")
    A = np.zeros((t.size, t.size))
    A[np.arange(t.size)[:, None], p[:, None] + np.arange(k + 1)] = _bspline_values(
        knots, k, m[p], t)
    c = np.linalg.solve(A, R)
    # Taylor coefficients s^(j)(breaks[i]) / j!: the j-th derivative is the spline of
    # degree k - j on the same knots whose coefficients are j scaled differences of c
    coeffs = np.empty((k + 1, m.size))
    for j in range(k + 1):
        d = k - j
        if j:
            i = np.arange(j, t.size)
            c[i] = (d + 1) * (c[i] - c[i - 1]) / (knots[i + d + 1] - knots[i])
        coeffs[j] = np.einsum("pr,pr->p", _bspline_values(knots, d, m, breaks[:-1]),
                                 c[m[:, None] - d + np.arange(d + 1)]) / factorial(j)

    def law(order):  # d^order/dt^order u^j = j!/(j - order)! u^(j - order)
        if order > k:
            return _piecewise(breaks, np.zeros((1, m.size)))
        scale = [[float(perm(j, order))] for j in range(order, k + 1)]
        return _piecewise(breaks, coeffs[order:] * scale)

    return _windowed(law(0), law(1), law(2), law(3) if k >= 3 else None,
                     float(t[0]), float(t[-1]), "tabulated")


def reversed_trajectory(traj, t_start=None):
    """Time-mirrored copy: runs the same path backwards over a window of equal length.

    By default the reversed segment starts where the original ended, so the
    pair can be integrated back to back.
    """
    if t_start is None:
        t_start = traj.t_end
    # mirror: t in [t_start, t_end] maps to traj.t_end - (t - t_start)
    off = traj.t_end + t_start
    return _windowed(lambda t: traj.position(off - t),
                     lambda t: -traj.velocity(off - t),
                     lambda t: traj.acceleration(off - t),
                     None if traj.jerk is None else lambda t: -traj.jerk(off - t),
                     t_start, t_start + (traj.t_end - traj.t_start),
                     f"{traj.label}-reversed", period=traj.period)
