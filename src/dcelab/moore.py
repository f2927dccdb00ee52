"""Conformal solver for a single moving mirror.

The field in a cavity [0, R(t)] is fixed entirely by one increasing function
F satisfying F(t + R(t)) - F(t - R(t)) = 2 with F(z) = z/R0 wherever the wall
has always been static. Mode functions, the renormalized energy density, and
mode-mixing coefficients all follow from F, which makes this an independent
cross-check of the coupled-mode integration: no mode truncation enters until
the final overlap integrals.

F is evaluated backwards along characteristics: for z beyond the static
region, the unique bounce time t with t + R(t) = z (unique because |Rdot| < 1)
maps z to the two-units-lower argument t - R(t). The recursion terminates
because each step decreases z by 2 R(t) >= 2 min(R) > 0. The backstep map
b(z) = t(z) - R(t(z)) has closed-form derivatives in the wall's velocity,
acceleration and jerk,

    b' = (1 - Rdot)/(1 + Rdot),    b'' = -2 Rddot/(1 + Rdot)^3,
    b''' = -2 Rdddot/(1 + Rdot)^4 + 6 Rddot^2/(1 + Rdot)^5,

composed hop by hop as (b o c)' = b' c', (b o c)'' = b'' c'^2 + b' c'' and
(b o c)''' = b''' c'^3 + 3 b'' c' c'' + b' c''', so one descent gives F, F',
F'' and F''' exactly: neither interpolation nor finite differences enter. That
matters for drives that start or stop with a velocity jump: F' is then only
piecewise continuous, and a smooth interpolant or a difference stencil rings
at the kink images. Callers descend both null rays t + x and t - x of all
their points at once, and only the points they ask for: solve_moore itself
descends nothing and keeps no grid, only the window [z_min, z_max] it
vouched for. Every descent checks that F is finite and F' finite and
positive at the points it returns, and every caller that evaluates an
ascending set of arguments checks that F increases strictly along it
(_increasing); both raise the same RuntimeError.
"""

from dataclasses import dataclass

import numpy as np

from .bogoliubov import BogoliubovMatrices
from .cavity import ModeBasis, thermal_image_sum
from .squid import bisect
from .trajectories import WallTrajectory

__all__ = [
    "MooreFunction",
    "solve_moore",
    "moore_modes",
    "energy_density",
    "bogoliubov_from_moore",
]

BOUNCE_TOL = 1e-13  # Newton's stop for t + R(t) = z, relative to max(1, |z|)
BOUNCE_MAX_ITER = 80  # Newton steps before the bisection fallback
DEFAULT_N_QUAD = 4096  # Simpson intervals of bogoliubov_from_moore's slice

_NOT_INCREASING = "Moore function is not strictly increasing"
_NO_JERK = ("the exact F''' needs the wall's jerk (third derivative); "
            "build the wall with a dcelab.trajectories factory")
_CHUNK_ENTRIES = 2**14  # complex entries of one (nodes, N) overlap temporary: 256 KiB


def _bounce_times(traj, z, t_lo, tol=BOUNCE_TOL, max_iter=BOUNCE_MAX_ITER):
    """Solve t + R(t) = z for each z (vectorized Newton, bisection fallback).

    t + R(t) is strictly increasing for |Rdot| < 1, so the root is unique,
    and every z that Newton leaves unconverged goes to one bisection over
    its bracket [t_lo, z]. The result has the shape of z, a 0-d z included.
    """
    shape = np.shape(z)
    z = np.asarray(z, dtype=float).ravel()
    R0 = float(traj.position(t_lo))
    t = np.maximum(z - R0, t_lo)
    scale = np.maximum(1.0, np.abs(z))
    for _ in range(max_iter):
        f = t + np.asarray(traj.position(t)) - z
        if np.all(np.abs(f) <= tol * scale):
            break
        t = np.maximum(t - f / (1.0 + np.asarray(traj.velocity(t))), t_lo)
    else:
        bad = np.abs(t + np.asarray(traj.position(t)) - z) > tol * scale
        t[bad] = bisect(lambda u: u + np.asarray(traj.position(u)) - z[bad], t_lo, z[bad])
    return t.reshape(shape)


def _increasing(values):
    """values, F along an ascending set of arguments, checked to increase
    strictly along it (RuntimeError otherwise)."""
    if not np.all(np.diff(values) > 0.0):
        raise RuntimeError(_NOT_INCREASING)
    return values


@dataclass(frozen=True)
class MooreFunction:
    """Moore function with exact evaluation and derivative accessors.

    It holds no samples of F: every call descends its own arguments. The
    window [z_min, z_max] is what solve_moore vouched for. Below it F
    continues analytically as z/R0; above z_max evaluation raises, since the
    caller only vouched for the trajectory up to the solved horizon. z_lin
    is the largest argument reached without a bounce, and max_depth bounds
    the hops of a descent from z_max.
    """

    R0: float
    traj: WallTrajectory
    z_max: float
    z_lin: float
    max_depth: int

    @property
    def z_min(self):
        return float(self.traj.t_start - self.R0)

    def _descend(self, z):
        """Walk each z down to the static region; returns F, F', F'', F''',
        with F checked finite and F' finite and positive at every z
        (RuntimeError)."""
        if self.traj.jerk is None:
            raise ValueError(_NO_JERK)
        cur = np.array(z, dtype=float, ndmin=1)
        if np.any(cur > self.z_max * (1 + 1e-12) + 1e-9):
            raise ValueError(
                f"Moore function solved up to z = {self.z_max:.6g}; "
                f"requested {float(np.max(cur)):.6g}")
        hops = np.zeros_like(cur)
        d1, d2, d3 = np.ones_like(cur), np.zeros_like(cur), np.zeros_like(cur)
        active = cur > self.z_lin
        depth = 0
        while np.any(active):
            depth += 1
            if depth > self.max_depth:
                raise RuntimeError("characteristic recursion failed to terminate")
            t = _bounce_times(self.traj, cur[active], self.traj.t_start)
            Rd = np.asarray(self.traj.velocity(t))
            Rdd = np.asarray(self.traj.acceleration(t))
            D = (1.0 - Rd) / (1.0 + Rd)
            b2 = -2.0 * Rdd / (1.0 + Rd) ** 3
            b3 = (-2.0 * np.asarray(self.traj.jerk(t))
                  + 6.0 * Rdd**2 / (1.0 + Rd)) / (1.0 + Rd) ** 4
            c1, c2 = d1[active], d2[active]
            d3[active] = b3 * c1**3 + 3.0 * b2 * c1 * c2 + D * d3[active]
            d2[active] = b2 * c1**2 + D * c2
            d1[active] = D * c1
            cur[active] = t - np.asarray(self.traj.position(t))
            hops[active] += 1.0
            active = cur > self.z_lin
        if not np.all(np.isfinite(cur) & np.isfinite(d1) & (d1 > 0.0)):
            raise RuntimeError(f"{_NOT_INCREASING}: F is not finite or F' not finite "
                               "and positive at a point of the descent")
        return 2.0 * hops + cur / self.R0, d1 / self.R0, d2 / self.R0, d3 / self.R0

    def _rays(self, t, x):
        """(F, F', F'', F''') on each null ray t + x and t - x, from one descent."""
        t, x = np.broadcast_arrays(np.asarray(t, dtype=float), np.asarray(x, dtype=float))
        out = self._descend(np.stack([t + x, t - x]).ravel())
        return tuple(zip(*(d.reshape((2,) + t.shape) for d in out)))

    def __call__(self, z):
        return self.deriv(z, 0)

    def deriv(self, z, order=1):
        if order not in (0, 1, 2, 3):
            raise ValueError("derivative order must be 0 (F itself), 1, 2 or 3")
        out = self._descend(z)[order]
        return out.reshape(np.shape(z)) if np.ndim(z) else float(out[0])

    def residual(self, t):
        """Defining-equation residual F(t+R(t)) - F(t-R(t)) - 2 at times t."""
        plus, minus = self._rays(t, self.traj.position(np.asarray(t, dtype=float)))
        return plus[0] - minus[0] - 2.0


def solve_moore(traj: WallTrajectory, t_max):
    """F over the window [t_start - R0, t_max + max R].

    Raises ValueError if the trajectory is superluminal (the bounce map would
    fold), if t_max precedes its start or if it has no jerk. Nothing is
    descended here: F is descended where a caller evaluates it, with the
    RuntimeError of the module docstring if F does not increase strictly
    there.
    """
    R0 = float(traj.position(traj.t_start))
    if traj.max_speed() >= 1.0:
        raise ValueError("trajectory reaches |Rdot| >= 1; conformal map invalid")
    if t_max < traj.t_start:
        raise ValueError("t_max precedes the trajectory start")
    if traj.jerk is None:
        raise ValueError(_NO_JERK)

    ts = np.linspace(traj.t_start, max(t_max, traj.t_end), 2049)
    R_all = np.asarray(traj.position(ts))
    R_max, R_min = float(R_all.max()), float(R_all.min())
    z_max = float(t_max + R_max)
    z_lin = traj.t_start + R0  # largest argument reachable without a bounce
    max_depth = int(np.ceil((z_max - z_lin) / (2.0 * R_min))) + 2

    return MooreFunction(R0=R0, traj=traj, z_max=z_max, z_lin=z_lin, max_depth=max_depth)


def moore_modes(F: MooreFunction, n, x, t):
    """Mode n of the moving cavity, i/sqrt(4 pi n) [e^{-i n pi F(t+x)} - e^{-i n pi F(t-x)}].

    Vanishes at x = 0 identically and at x = R(t) by the defining relation.
    Reduces to sin(n pi x / R0) e^{-i w_n t} / sqrt(n pi) while the wall is
    static.
    """
    if n < 1:
        raise ValueError("mode index starts at 1")
    plus, minus = F._rays(t, x)
    pref = 1j / np.sqrt(4.0 * np.pi * n)
    return pref * (np.exp(-1j * n * np.pi * plus[0]) - np.exp(-1j * n * np.pi * minus[0]))


def _density_profile(ray, const):
    """f(z): the null-ray component of the energy density, from (F, F', F'', F''')."""
    _, d1, d2, d3 = ray
    schwarz = d3 / d1 - 1.5 * (d2 / d1) ** 2
    return -schwarz / (24.0 * np.pi) + 0.5 * d1**2 * const


def energy_density(F: MooreFunction, T, x, t):
    """Renormalized <T_tt>(x, t) at temperature T (natural units).

    Sum of the two null-ray profiles f(t+x) + f(t-x); for linear F this is
    the static value (-pi/24 + Z(T d0)) / d0^2 with d0 the initial length.
    x and t broadcast (a column of times gives an (n_t, n_x) grid), and all
    points of both rays are evaluated in one descent.

    Trajectories with velocity jumps radiate delta-like bursts along the
    bounce images of the jump; the pointwise values stay finite off those
    rays, but grid integrals across them do not converge. Use a C^2
    trajectory when the integrated energy matters.
    """
    if T < 0:
        raise ValueError("temperature must be >= 0")
    plus, minus = F._rays(t, x)
    const = -np.pi / 24.0 + thermal_image_sum(T * F.R0)
    rho = _density_profile(plus, const) + _density_profile(minus, const)
    return rho if rho.ndim else float(rho)


def bogoliubov_from_moore(F: MooreFunction, basis: ModeBasis, t_slice,
                          n_quad=DEFAULT_N_QUAD):
    """Mode-mixing matrices by Klein-Gordon overlaps on a constant-t slice.

    The reference set is the instantaneous basis of the cavity at t_slice:
    u_k = sin(k pi x / R) e^{-i w_k t}/sqrt(k pi), w_k = k pi / R. Row n of
    the result expands the conformal mode v_n over u_k and u_k*:

        alpha_nk = (u_k, v_n),   beta_nk = -(u_k*, v_n)

    with (phi, psi) = i int [phi* dt_psi - (dt_phi)* psi] dx. Simpson rule
    on n_quad+1 equally spaced points (n_quad even). The slice must lie in
    a static epoch, except exactly at the drive's end, where the overlap
    against the instantaneous basis matches the mode-integration extraction.

    Both rays of every node come from one descent, checked to increase
    strictly along x (t + x) and against it (t - x). With u_k = s_k e^{-i
    w_k t} and s_k real, alpha and beta both follow from the two real-weighted
    sums sum_x w s_k v_n and sum_x w s_k dt_v_n, summed over chunks of nodes
    so that each (nodes, N) complex temporary takes at most 256 KiB whatever
    N and n_quad. e^{-i n pi F} is one complex exponential per node and ray,
    of F reduced mod 2, raised to n = 1..N by recurrence; so is sin(k pi x /
    R), as the imaginary part of powers of e^{i pi x / R}.
    """
    traj = F.traj
    if t_slice < traj.t_end and np.asarray(traj.velocity(t_slice)) != 0.0:
        raise ValueError("overlap slice must lie in a static epoch")
    R = float(traj.position(t_slice))
    N = basis.n_modes
    omega = basis.omega_at(R)

    n_quad += n_quad % 2
    x = np.linspace(0.0, R, n_quad + 1)
    wts = np.ones(n_quad + 1)
    wts[1:-1:2] = 4.0
    wts[2:-1:2] = 2.0
    wts *= (x[1] - x[0]) / 3.0

    ns = np.arange(1, N + 1)
    (Fp, dFp, _, _), (Fm, dFm, _, _) = F._rays(t_slice, x)
    _increasing(Fp)
    _increasing(Fm[::-1])
    pref = 1j / np.sqrt(4.0 * np.pi * ns)
    dpref = pref * (-1j * np.pi * ns)

    def powers(arg):  # e^{-i n pi arg} for n = 1..N, one row per node
        return np.cumprod(np.broadcast_to(np.exp(-1j * np.pi * arg)[:, None],
                                          (len(arg), N)), axis=1)

    # B[k, n] = sum_x w s_k v_n and A[k, n] = sum_x w s_k dt_v_n, summed as
    # real products on the (re, im) pairs of v and dt_v
    B, A = np.zeros((N, 2 * N)), np.zeros((N, 2 * N))
    chunk = max(1, _CHUNK_ENTRIES // N)
    for a in range(0, len(x), chunk):
        c = slice(a, a + chunk)
        s = powers(-x[c] / R).imag * (wts[c, None] / np.sqrt(np.pi * ns))  # [x, k]
        ep, em = powers(np.mod(Fp[c], 2.0)), powers(np.mod(Fm[c], 2.0))
        v = ep - em                                                # [x, n]
        v *= pref
        B += s.T @ v.view(float)
        ep *= dFp[c, None]
        em *= dFm[c, None]
        ep -= em
        ep *= dpref
        A += s.T @ ep.view(float)
    A, B = A.view(complex), B.view(complex)

    # (u_k, v_n) = i int u_k* dv_n + w_k int u_k* v_n ; beta with u_k -> u_k*
    phase = np.exp(-1j * omega * t_slice)[:, None]
    alpha = (np.conj(phase) * (1j * A + omega[:, None] * B)).T
    beta = (phase * (-1j * A + omega[:, None] * B)).T
    return BogoliubovMatrices(alpha=alpha, beta=beta, omega=omega, t=float(t_slice))
