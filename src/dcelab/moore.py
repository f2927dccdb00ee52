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
their points at once.
"""

from dataclasses import dataclass, field

import numpy as np

from .bogoliubov import BogoliubovMatrices
from .cavity import ModeBasis, thermal_image_sum
from .trajectories import WallTrajectory

__all__ = [
    "MooreFunction",
    "solve_moore",
    "moore_modes",
    "energy_density",
    "bogoliubov_from_moore",
]


def _bounce_times(traj, z, t_lo, tol=1e-13, max_iter=80):
    """Solve t + R(t) = z for each z (vectorized Newton, bisection fallback).

    t + R(t) is strictly increasing for |Rdot| < 1, so the root is unique.
    """
    z = np.asarray(z, dtype=float)
    R0 = float(traj.position(t_lo))
    t = np.maximum(z - R0, t_lo)
    scale = np.maximum(1.0, np.abs(z))
    for _ in range(max_iter):
        f = t + np.asarray(traj.position(t)) - z
        if np.all(np.abs(f) <= tol * scale):
            break
        t = np.maximum(t - f / (1.0 + np.asarray(traj.velocity(t))), t_lo)
    else:
        from scipy.optimize import brentq
        bad = np.abs(t + np.asarray(traj.position(t)) - z) > tol * scale
        for i in np.nonzero(np.atleast_1d(bad))[0]:
            zi = float(z.flat[i])
            t.flat[i] = brentq(lambda u: u + float(traj.position(u)) - zi,
                               t_lo, zi, xtol=1e-14)
    return t


@dataclass(frozen=True)
class MooreFunction:
    """Moore function with exact evaluation and derivative accessors.

    The tabulated (z, values) grid records the solved window for export and
    monotonicity checking; calls do not interpolate it. Below the window F
    continues analytically as z/R0; above z_max evaluation raises, since the
    caller only vouched for the trajectory up to the solved horizon.
    """

    z: np.ndarray
    values: np.ndarray
    R0: float
    traj: WallTrajectory
    z_lin: float = field(repr=False, default=0.0)
    max_depth: int = field(repr=False, default=0)

    @property
    def z_min(self):
        return float(self.z[0])

    @property
    def z_max(self):
        return float(self.z[-1])

    def _descend(self, z):
        """Walk each z down to the static region; returns F, F', F'', F'''."""
        if self.traj.jerk is None:
            raise ValueError("the exact F''' needs the wall's jerk (third derivative); "
                             "build the wall with a dcelab.trajectories factory")
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


def solve_moore(traj: WallTrajectory, t_max, points_per_length=512):
    """Solve F over [t_start - R0, t_max + max R], tabulated at R0/512 spacing.

    Raises if the trajectory is superluminal (the bounce map would fold) or
    if the solved values fail to be strictly increasing.
    """
    R0 = float(traj.position(traj.t_start))
    if traj.max_speed() >= 1.0:
        raise ValueError("trajectory reaches |Rdot| >= 1; conformal map invalid")
    if t_max < traj.t_start:
        raise ValueError("t_max precedes the trajectory start")

    ts = np.linspace(traj.t_start, max(t_max, traj.t_end), 2049)
    R_all = np.asarray(traj.position(ts))
    R_max, R_min = float(R_all.max()), float(R_all.min())
    z_lo = traj.t_start - R0
    z_hi = t_max + R_max
    n = int(np.ceil((z_hi - z_lo) * points_per_length / R0)) + 1
    z = np.linspace(z_lo, z_hi, n)
    z_lin = traj.t_start + R0  # largest argument reachable without a bounce
    max_depth = int(np.ceil((z_hi - z_lin) / (2.0 * R_min))) + 2

    fn = MooreFunction(z=z, values=np.empty(0), R0=R0, traj=traj,
                       z_lin=z_lin, max_depth=max_depth)
    values = np.asarray(fn(z))
    if np.any(np.diff(values) <= 0.0):
        raise RuntimeError("Moore function is not strictly increasing")
    object.__setattr__(fn, "values", values)
    return fn


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
                          n_quad=4096):
    """Mode-mixing matrices by Klein-Gordon overlaps on a constant-t slice.

    The reference set is the instantaneous basis of the cavity at t_slice:
    u_k = sin(k pi x / R) e^{-i w_k t}/sqrt(k pi), w_k = k pi / R. Row n of
    the result expands the conformal mode v_n over u_k and u_k*:

        alpha_nk = (u_k, v_n),   beta_nk = -(u_k*, v_n)

    with (phi, psi) = i int [phi* dt_psi - (dt_phi)* psi] dx. Simpson rule
    on n_quad+1 equally spaced points (n_quad even). The slice must lie in
    a static epoch, except exactly at the drive's end, where the overlap
    against the instantaneous basis matches the mode-integration extraction.
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
    pref = 1j / np.sqrt(4.0 * np.pi * ns)[:, None]
    ep = np.exp(-1j * np.pi * np.outer(ns, Fp))
    em = np.exp(-1j * np.pi * np.outer(ns, Fm))
    v = pref * (ep - em)                                   # [n, x]
    dv = pref * (-1j * np.pi * ns[:, None]) * (dFp * ep - dFm * em)

    phase = np.exp(-1j * omega * t_slice)
    u = (np.sin(np.outer(ns, np.pi * x / R)) / np.sqrt(np.pi * ns)[:, None]
         * phase[:, None])                                 # [k, x]

    # (u_k, v_n) = i int u_k* dv_n + w_k int u_k* v_n ; beta with u_k -> u_k*
    iu_dv = (np.conj(u) * wts) @ dv.T                      # [k, n]
    iu_v = (np.conj(u) * wts) @ v.T
    alpha = (1j * iu_dv + omega[:, None] * iu_v).T
    icu_dv = (u * wts) @ dv.T
    icu_v = (u * wts) @ v.T
    beta = (-1j * icu_dv + omega[:, None] * icu_v).T
    return BogoliubovMatrices(alpha=alpha, beta=beta, omega=omega, t=float(t_slice))
