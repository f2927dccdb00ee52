"""Wall trajectories R(t) with analytic derivatives up to the third (jerk).

Trajectories are static outside [t_start, t_end]: every factory states only
its law on that window, and one constructor clamps the position and zeroes
every derivative outside it, so solvers can treat any time outside the
window as a wall at rest. Velocities must stay subluminal (|Rdot| < 1) for
the conformal solver to be well posed; the factories enforce it at construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "WallTrajectory",
    "static_wall",
    "harmonic_wall",
    "quintic_wall",
    "tabulated_wall",
    "reversed_trajectory",
    "quintic_ramp",
    "quintic_ramp_dot",
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

    def max_speed(self, samples=4096):
        t = np.linspace(self.t_start, self.t_end, samples)
        return float(np.max(np.abs(self.velocity(t)))) if samples else 0.0


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


def quintic_ramp(s):
    """Smoothstep 10 s^3 - 15 s^4 + 6 s^5 on [0,1]; value/slope/curvature vanish at 0,
    value 1 with zero slope/curvature at 1."""
    s = np.asarray(s, dtype=float)
    return s**3 * (10.0 - 15.0 * s + 6.0 * s**2)


def quintic_ramp_dot(s):
    """First derivative of the quintic smoothstep w.r.t. its argument."""
    s = np.asarray(s, dtype=float)
    return 30.0 * s**2 * (1.0 - s) ** 2


def _quintic_ramp_ddot(s):
    return 60.0 * s * (1.0 - s) * (1.0 - 2.0 * s)


def _quintic_ramp_dddot(s):
    return 60.0 * (1.0 - 6.0 * s + 6.0 * s**2)


def quintic_wall(L0, eps, tau, t_start=0.0):
    """Compression L(t) = L0 (1 - eps * ramp((t - t_start)/tau)): L0 -> L0(1 - eps).

    C^2 at both endpoints, so the coupled-mode source terms switch on and
    off smoothly (the Otto work strokes use this shape).
    """
    if L0 <= 0:
        raise ValueError("L0 must be positive")
    if tau <= 0:
        raise ValueError("tau must be positive")
    if not -1.0 < eps < 1.0:
        raise ValueError("|eps| must be < 1")

    return _windowed(lambda t: L0 * (1.0 - eps * quintic_ramp((t - t_start) / tau)),
                     lambda t: -L0 * eps * quintic_ramp_dot((t - t_start) / tau) / tau,
                     lambda t: -L0 * eps * _quintic_ramp_ddot((t - t_start) / tau) / tau**2,
                     lambda t: -L0 * eps * _quintic_ramp_dddot((t - t_start) / tau) / tau**3,
                     t_start, t_start + tau, "quintic")


def tabulated_wall(t, R, k=5):
    """Spline interpolant through samples (t, R) with analytic spline derivatives.

    The table must start and end at rest (the first/last samples are treated
    as the static values outside the window).
    """
    from scipy.interpolate import make_interp_spline

    t = np.asarray(t, dtype=float)
    R = np.asarray(R, dtype=float)
    if t.ndim != 1 or t.size < k + 1 or R.shape != t.shape:
        raise ValueError("need matching 1-D arrays with at least k+1 samples")
    if np.any(np.diff(t) <= 0):
        raise ValueError("times must be strictly increasing")
    if np.any(R <= 0):
        raise ValueError("wall positions must be positive")
    spl = make_interp_spline(t, R, k=k)
    jerk = spl.derivative(3) if k >= 3 else None  # a quadratic spline has no R'''
    return _windowed(spl, spl.derivative(1), spl.derivative(2), jerk,
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
