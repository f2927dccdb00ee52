"""Quantum Otto cycle of the cavity field with motion-induced friction.

The working medium is the Dirichlet cavity; the piston is the moving wall,
L(t) = L0 (1 - eps * delta(t)) with a shape function delta ramping 0 -> 1.
In the adiabatic limit the cycle is the textbook Otto machine and its
efficiency is exactly the compression ratio eps. Moving the wall at finite
speed excites photon pairs, and that energy never returns to the piston:
to second order in eps it enters both work strokes as a positive,
trajectory-dependent loss

    E_F = (eps^2 / 4) sum_k w_k  II dt1 dt2  F_k(t1, t2),

a quantum analogue of friction. The kernel F_k has a self-squeeze term
oscillating at 2 w_k and intermode terms at w_j +- w_k; every term carries
ddelta/dt at both times, so E_F factorizes exactly through the velocity
transform C(a) = int ddelta/dt e^{i a t} dt as a sum of |C|^2 weights.
friction_energy uses that factorization; friction_kernel exposes the raw
integrand for cross-checks. The stroke shapes are the delta/delta_dot
pairs of trajectories.PolynomialRamp, whose wall() the field solvers
integrate. Their transform has a closed form in x = a tau alone; any other
shape callable goes through Gauss-Legendre quadrature at each tau.

Sweeps over the stroke duration are one array computation
(nonadiabatic_cycles): the corner energies, the mode data and both baths'
weights are built once, a ramp's transform is taken once for every
(tau, frequency) and serves both strokes, and E_F at every tau is one sum
of |C|^2 against weights folded by frequency. nonadiabatic_cycle,
friction_energy and power_curve are such sweeps.

Range of validity: the kernel's phases run at w_k(L0) while the true
frequencies drift by eps w_k during a stroke. This secular phase error
makes the relative gap of E_F to the exact coupled-mode evolution linear in
eps, with a coefficient of about -7 at w_1 tau = 0.5, -2 at 2, +6 at 10 and
+32 at 30: E_F is 7% off at tau = 0.5 and eps = 0.01. The mode sum is
truncated at n_modes, which fast strokes feel: with the 30 modes of
configs/otto_power.yaml and configs/otto_efficiency.yaml (eps = 0.01,
beta_A = 6), E_F at w_1 tau = 0.2 is 5.090e-2, 8% below the 5.539e-2 of 60
modes (5.586e-2 at 120), and 0.4% below at w_1 tau = 0.5. Only
check_convergence repeats the sum at twice the truncation, and the CLI does
not run it, so those tables carry this error.

Conventions: hbar = 1; beta_A is the cold bath attached at full length L0,
beta_C the hot bath at compressed length L1, so engine operation needs
beta_C / beta_A < 1 - eps, and the work vanishes exactly where the Otto
efficiency meets Carnot.
"""

from dataclasses import dataclass, fields, replace

import numpy as np
from numpy.polynomial import polynomial as P
from numpy.polynomial.legendre import leggauss

from .cavity import (
    dimensionless_coupling,
    dirichlet_spectrum,
    domega_dR,
    static_casimir_energy,
    thermal_occupation,
)
from .trajectories import PolynomialRamp

__all__ = [
    "CycleSpec",
    "CycleResult",
    "PowerCurve",
    "quintic_trajectory",
    "quintic_trajectory_dot",
    "random_admissible_trajectory",
    "friction_kernel",
    "friction_energy",
    "velocity_transform",
    "adiabatic_cycle",
    "nonadiabatic_cycle",
    "nonadiabatic_cycles",
    "power_curve",
]


_QUINTIC = PolynomialRamp()
quintic_trajectory = _QUINTIC.delta
quintic_trajectory_dot = _QUINTIC.delta_dot


def random_admissible_trajectory(rng, order=2):
    """Random shape meeting all endpoint constraints of the friction theory.

    A PolynomialRamp whose bump q has order + 1 coefficients drawn uniformly
    from [-64, 64]. Returns its (delta, delta_dot) pair of callables of
    (t, tau), whose velocity transform is the closed form.
    """
    ramp = PolynomialRamp(rng.uniform(-1.0, 1.0, size=order + 1) * 64.0)
    return ramp.delta, ramp.delta_dot


def _ramp_of(f):
    """The PolynomialRamp whose bound method f is, else None."""
    ramp = getattr(f, "__self__", None)
    return ramp if isinstance(ramp, PolynomialRamp) else None


@dataclass(frozen=True)
class CycleSpec:
    """One Otto cycle: geometry, baths, stroke duration and wall shape.

    beta_A (cold) thermalizes at length L0, beta_C (hot) at L1 = L0(1-eps).
    delta and delta_dot, callables of (t, tau), are given together; both
    default to the quintic ramp. delta_dot must be delta's rate: it is
    checked against a central difference of delta at three interior points.
    It must also integrate to delta(tau) - delta(0) = 1, which catches a
    rate that is wrong only between those points: friction_energy and
    nonadiabatic_cycle raise ValueError when its transform C(0) is off by
    more than 1e-6.
    """

    L0: float
    eps: float
    beta_A: float
    beta_C: float
    tau: float
    n_modes: int = 30
    delta: object = None
    delta_dot: object = None
    include_casimir: bool = False

    def __post_init__(self):
        if self.L0 <= 0.0:
            raise ValueError("L0 must be positive")
        if not 0.0 < self.eps < 1.0:
            raise ValueError("compression ratio must satisfy 0 < eps < 1")
        if self.beta_A <= 0.0 or self.beta_C <= 0.0:
            raise ValueError("bath inverse temperatures must be positive")
        if self.tau <= 0.0:
            raise ValueError("stroke duration must be positive")
        if self.n_modes < 1:
            raise ValueError("n_modes must be >= 1")
        if self.delta is not None:
            d0 = float(self.delta(0.0, self.tau))
            d1 = float(self.delta(self.tau, self.tau))
            if abs(d0) > 1e-8 or abs(d1 - 1.0) > 1e-8:
                raise ValueError("delta must ramp from 0 at t=0 to 1 at t=tau")
        if (self.delta is None) != (self.delta_dot is None):
            raise ValueError("give delta and delta_dot together, or neither "
                             "for the quintic ramp")
        if self.delta_dot is not None:
            # the closed form of a PolynomialRamp method reads only the ramp's
            # coefficients, and the quadrature integrates whatever rate it is given
            t, h = self.tau * np.array([0.25, 0.5, 0.75]), 1e-6 * self.tau
            rate = (np.asarray(self.delta(t + h, self.tau), dtype=float)
                    - np.asarray(self.delta(t - h, self.tau), dtype=float)) / (2.0 * h)
            given = np.asarray(self.delta_dot(t, self.tau), dtype=float)
            gap = np.abs(given - rate).max()
            if not gap <= 1e-6 * max(1.0 / self.tau, np.abs(rate).max()):
                raise ValueError(
                    f"delta_dot is not the rate of delta: it differs from a central "
                    f"difference of delta by {gap:.2e} inside the stroke")

    def shape(self):
        """(delta, delta_dot) callables, filling in defaults."""
        if self.delta is None:
            return quintic_trajectory, quintic_trajectory_dot
        return self.delta, self.delta_dot

    @property
    def L1(self):
        return self.L0 * (1.0 - self.eps)


@dataclass(frozen=True)
class CycleResult:
    """Corner energies and the derived work, heat, efficiency and power.

    W and Q come straight from the corner energies (W = E_A - E_B + E_C -
    E_D, Q = E_C - E_B), so toggling the static Casimir offsets cannot move
    them. eta is the exact ratio W/Q (NaN when the cycle degenerates,
    Q = 0); eta_linear is the first-order expansion eps - (E_F^A + E_F^C) /
    Q_Otto. engine is True when the cycle delivers work from absorbed heat.
    nonadiabatic_cycles returns one whose fields are arrays over its taus.
    """

    E_A: float
    E_B: float
    E_C: float
    E_D: float
    W: float
    Q: float
    eta: float
    eta_linear: float
    P: float
    engine: bool


_GL_X, _GL_W = leggauss(16)
_S32, _W32 = 0.5 * (leggauss(32)[0] + 1.0), 0.5 * leggauss(32)[1]  # on [0, 1]


def velocity_transform(spec: CycleSpec, a_values):
    """C(a) = int_0^tau ddelta/dt e^{i a t} dt for each requested frequency,
    in the shape of a_values.

    For a PolynomialRamp's delta_dot, C(a) = int_0^1 g(s) e^{ixs} ds with
    x = a tau and g = p' is exact: integration by parts ends after deg g + 1
    terms and gives z (G_0(z) - e^{ix} G_1(z)) with z = i/x and G_b(z) =
    sum_k g^(k)(b) z^k, for all frequencies at once. That sum cancels for
    |x| < 8, where a 32-node Gauss-Legendre rule on [0, 1] is exact to
    rounding instead. C(0) = 1 by the ramp endpoints.

    Only plain shape callables go through composite 16-point Gauss-Legendre
    with panel width <= 3 radians of the oscillation. Its absolute error
    grows like |a tau| 1e-16 int |ddelta/dt| dt, from rounding in the
    phases a t: at a tau = 4394 and tau = 0.2, where |C| = 5e-9, it is
    1.5e-5 relative. Ramps take the closed form, free of this error.
    """
    _, ddot = spec.shape()
    tau = spec.tau
    a_values = np.atleast_1d(np.asarray(a_values, dtype=float))
    out = np.empty(a_values.shape, dtype=complex)
    ramp = _ramp_of(ddot)
    if ramp is not None:
        g = ramp.coeffs[1:] * np.arange(1, ramp.coeffs.size)  # p', as P.polyder, minus its cost
        j = np.arange(g.size)
        falling = np.cumprod(np.vstack([np.ones(g.size), j - j[:-1, None]]), axis=0)
        x = a_values * tau
        small = np.abs(x) < 8.0
        # summed row by row, not by a BLAS product, so no value depends on
        # which other frequencies share the call
        rule = np.exp(1j * np.multiply.outer(x[small], _S32)) * (_W32 * P.polyval(_S32, g))
        out[small] = rule.sum(axis=-1)
        x = x[~small]
        z = 1j / x
        # g^(k)(0) = k! g_k and g^(k)(1) = sum_j g_j j! / (j - k)!
        G0, G1 = P.polyval(z, np.diag(falling) * g), P.polyval(z, falling @ g)
        out[~small] = z * (G0 - np.exp(1j * x) * G1)
        return out
    for i, a in np.ndenumerate(a_values):
        n_panels = max(4, int(np.ceil(abs(a) * tau / 3.0)))
        edges = np.linspace(0.0, tau, n_panels + 1)
        mid = 0.5 * (edges[:-1] + edges[1:])
        half = 0.5 * (edges[1] - edges[0])
        t_q = (mid[:, None] + half * _GL_X).ravel()
        w_q = np.broadcast_to(half * _GL_W, (n_panels, 16)).ravel()
        out[i] = np.sum(w_q * ddot(t_q, tau) * np.exp(1j * a * t_q))
    return out


def _mode_data(spec: CycleSpec):
    """Bath-independent data of the n-mode sum: omega, the squeeze prefactor
    and the pair and scatter weights before their thermal factors."""
    omega = dirichlet_spectrum(spec.n_modes, spec.L0)
    pref = (domega_dR(omega, spec.L0) * spec.L0 / omega) ** 2
    g2 = dimensionless_coupling(spec.n_modes) ** 2
    inv = g2 / np.outer(omega, omega)
    dif2 = (omega[:, None] - omega[None, :]) ** 2
    sum2 = (omega[:, None] + omega[None, :]) ** 2
    return omega, pref, inv * dif2, inv * sum2


def _kernel_weights(modes, beta):
    """_mode_data with the bath's thermal factors, as the kernel and its
    factorized double integral use it: (omega, nbar, pref, pair, scatter)."""
    omega, pref, pair0, scatter0 = modes
    nbar = thermal_occupation(beta, omega)
    # [j, k] blocks of the j-sum: pair term at w_j + w_k, scatter at w_j - w_k
    pair = pair0 * (nbar[None, :] + nbar[:, None] + 1.0)
    scatter = scatter0 * (nbar[:, None] - nbar[None, :])
    return omega, nbar, pref, pair, scatter


def friction_kernel(t1, t2, k, beta, spec: CycleSpec):
    """Integrand F_k(t1, t2) of the friction energy for mode k (1-based).

    Squeeze term at 2 w_k weighted by 2 N_k + 1, plus the j-sum of pair
    creation at w_j + w_k and thermal scattering at w_j - w_k, all carrying
    ddelta(t1) ddelta(t2). Symmetric in t1 <-> t2; broadcasts over arrays.
    """
    if not 1 <= k <= spec.n_modes:
        raise ValueError("mode index k must lie in [1, n_modes]")
    omega, nbar, pref, pair, scatter = _kernel_weights(_mode_data(spec), beta)
    _, ddot = spec.shape()
    t1 = np.asarray(t1, dtype=float)
    t2 = np.asarray(t2, dtype=float)
    dt = t1 - t2
    i = k - 1
    val = pref[i] * (2.0 * nbar[i] + 1.0) * np.cos(2.0 * omega[i] * dt)
    for j in range(spec.n_modes):
        if j == i:
            continue
        val = val + pair[j, i] * np.cos((omega[j] + omega[i]) * dt)
        val = val + scatter[j, i] * np.cos((omega[j] - omega[i]) * dt)
    out = ddot(t1, spec.tau) * ddot(t2, spec.tau) * val
    return float(out) if np.ndim(out) == 0 else out


def friction_energy(spec: CycleSpec, beta, check_convergence=False):
    """Energy lost to photon creation in one stroke, always >= 0.

    Factorizes the double time integral exactly: each cos(a(t1-t2)) block
    contributes |C(a)|^2 with the velocity transform C, so only the 1-d
    oscillatory integrals remain (see velocity_transform). With check_convergence the mode
    sum is repeated at twice the truncation and a drift above 0.1% raises
    (reporting both partial sums); the thermal factors decay exponentially
    but fast strokes populate modes up to ~1/(w_1 tau).
    """
    return _friction_energies(spec, np.array([spec.tau]), [beta], check_convergence)[0, 0]


def _transforms(spec: CycleSpec, taus, a):
    """velocity_transform at every (tau, a) of a sweep, shape (len(taus), len(a)).

    A PolynomialRamp's C depends on tau only through x = a tau, so one
    evaluation at tau = 1 for every x serves the whole sweep; any other shape
    callable takes its quadrature at each tau.
    """
    if _ramp_of(spec.shape()[1]) is not None:
        return velocity_transform(replace(spec, tau=1.0), np.multiply.outer(taus, a))
    C = [velocity_transform(replace(spec, tau=float(t)), a) for t in taus]
    return np.reshape(C, (taus.size, a.size))


def _friction_energies(spec: CycleSpec, taus, betas, check_convergence):
    """E_F at each bath in betas and each stroke duration in taus, shape
    (len(betas), len(taus))."""
    # every frequency of an n-mode sum is m pi / L0 with m = 2k, j + k or
    # |j - k| <= 2n; |C|^2 does not depend on the bath, so all baths share
    # one transform, taken up to m = 4n when the sum is repeated at 2n modes
    n = spec.n_modes
    m = np.arange(2 * (2 * n if check_convergence else n) + 1)
    C = _transforms(spec, taus, m * np.pi / spec.L0)
    # C(0) = delta(tau) - delta(0) = 1 for any shape whose delta_dot is delta's rate
    bad = np.abs(C[:, 0] - 1.0) > 1e-6
    if bad.any():
        i = np.argmax(bad)
        raise ValueError(f"velocity transform C(0) = {C[i, 0].real:.6g} is not 1 at tau = "
                         f"{taus[i]:.6g}: delta_dot does not integrate to delta(tau) - "
                         "delta(0), so it is not delta's rate")
    C2 = np.abs(C) ** 2
    modes = _mode_data(spec)
    wide_modes = _mode_data(replace(spec, n_modes=2 * n)) if check_convergence else None
    out = np.empty((len(betas), taus.size))
    for b, beta in enumerate(betas):
        # summed row by row, so each tau's value is that of a one-tau sweep
        val = np.sum(C2 * _folded_weights(modes, spec.eps, beta, m.size), axis=1)
        if check_convergence:
            wide = np.sum(C2 * _folded_weights(wide_modes, spec.eps, beta, m.size), axis=1)
            drift = np.abs(wide - val) > 1e-3 * np.maximum(np.abs(wide), 1e-300)
            if drift.any():
                i = np.argmax(drift)
                raise RuntimeError(
                    f"friction mode sum not converged at tau = {taus[i]:.6g}: E_F = "
                    f"{val[i]:.6e} at n_modes = {n}, {wide[i]:.6e} at {2 * n}")
            val = wide
        out[b] = val
    return out


def _folded_weights(modes, eps, beta, size):
    """w with E_F = sum_m w_m |C(m pi / L0)|^2 for the n-mode sum in modes at
    the bath beta, m = 0 .. size - 1 (size > 2n).

    Mode k contributes w_k times its squeeze at m = 2k and, for each j != k,
    its pair term at m = j + k and its scatter term at m = |j - k|; the
    terms of one m are added in that order by np.bincount.
    """
    omega, nbar, pref, pair, scatter = _kernel_weights(modes, beta)
    j = np.arange(1, omega.size + 1)
    off = ~np.eye(omega.size, dtype=bool)
    m = np.concatenate([2 * j, (j[:, None] + j)[off], np.abs(j[:, None] - j)[off]])
    w = np.concatenate([omega * pref * (2.0 * nbar + 1.0), (pair * omega)[off],
                        (scatter * omega)[off]])
    return 0.25 * eps**2 * np.bincount(m, w, minlength=size)


def _corner_energies(spec: CycleSpec):
    omega0 = dirichlet_spectrum(spec.n_modes, spec.L0)
    omega1 = dirichlet_spectrum(spec.n_modes, spec.L1)
    n_cold = thermal_occupation(spec.beta_A, omega0)
    n_hot = thermal_occupation(spec.beta_C, omega1)
    E_A = np.sum(omega0 * n_cold)
    E_B = np.sum(omega1 * n_cold)
    E_C = np.sum(omega1 * n_hot)
    E_D = np.sum(omega0 * n_hot)
    if spec.include_casimir:
        E_A += static_casimir_energy(spec.L0)
        E_B += static_casimir_energy(spec.L1)
        E_C += static_casimir_energy(spec.L1)
        E_D += static_casimir_energy(spec.L0)
    return E_A, E_B, E_C, E_D


def _cycles(spec: CycleSpec, taus, ef_cold, ef_hot):
    """CycleResult of arrays over taus, with the friction losses ef_cold
    deposited into E_B and ef_hot into E_D."""
    E_A, E_B, E_C, E_D = _corner_energies(spec)
    Q_otto = E_C - E_B
    E_B, E_D = E_B + ef_cold, E_D + ef_hot
    W = (E_A - E_B) + (E_C - E_D)
    Q = E_C - E_B
    eta = np.divide(W, Q, out=np.full(taus.shape, np.nan), where=np.abs(Q) > 1e-300)
    if abs(Q_otto) > 1e-300:
        eta_lin = spec.eps - (ef_cold + ef_hot) / Q_otto
    else:
        eta_lin = np.full(taus.shape, np.nan)
    return CycleResult(
        E_A=np.full(taus.shape, E_A), E_B=E_B, E_C=np.full(taus.shape, E_C), E_D=E_D,
        W=W, Q=Q, eta=eta, eta_linear=eta_lin, P=W / (2.0 * taus),
        engine=(W > 0.0) & (Q > 0.0))


def _one(res):
    """The cycle of a one-tau CycleResult of arrays, with Python scalars."""
    return CycleResult(*(getattr(res, f.name).item() for f in fields(CycleResult)))


def adiabatic_cycle(spec: CycleSpec) -> CycleResult:
    """Quasi-static baseline: occupations ride the spectrum unchanged.

    For the Dirichlet spectrum every mode is rescaled by the same factor,
    so eta = W/Q equals the compression ratio eps exactly, independent of
    the baths; it meets the Carnot bound 1 - beta_C/beta_A precisely at
    beta_C/beta_A = 1 - eps, which is also where W and Q vanish.
    """
    return _one(_cycles(spec, np.array([spec.tau]), np.zeros(1), np.zeros(1)))


def nonadiabatic_cycle(spec: CycleSpec, check_convergence=False) -> CycleResult:
    """Otto cycle with the finite-speed friction loss in both strokes.

    The compression leg deposits E_F at the cold occupations into E_B, the
    expansion leg E_F at the hot occupations into E_D (time reversal leaves
    E_F unchanged, and the L1-vs-L0 base distinction is higher order in
    eps). Heat and work then follow from the corner energies; the exact
    efficiency is always below the adiabatic eps while friction is on.
    This is nonadiabatic_cycles at the one stroke duration spec.tau.
    """
    return _one(nonadiabatic_cycles(spec, [spec.tau], check_convergence))


def nonadiabatic_cycles(spec: CycleSpec, taus, check_convergence=False) -> CycleResult:
    """nonadiabatic_cycle at each stroke duration of the 1-d grid taus.

    Returns a CycleResult whose fields are arrays over taus; spec.tau is not
    read. The corner energies, mode data and bath weights do not depend on
    tau and are built once; a PolynomialRamp's velocity transform is one
    array evaluation for every (tau, frequency), and each bath's E_F for
    every tau one sum over the frequency index m of |C|^2 against weights
    folded by m. Every entry equals the one-tau sweep at its tau bit for
    bit, so nonadiabatic_cycle and friction_energy are such sweeps.
    """
    taus = np.asarray(taus, dtype=float)
    if taus.ndim != 1 or np.any(taus <= 0.0):
        raise ValueError("tau grid must be a 1-d array of positive stroke durations")
    ef_cold, ef_hot = _friction_energies(spec, taus, (spec.beta_A, spec.beta_C),
                                         check_convergence)
    return _cycles(spec, taus, ef_cold, ef_hot)


@dataclass(frozen=True)
class PowerCurve:
    """Cycle sweep over stroke durations; P uses cycle time 2 tau.

    Thermalization is taken as instantaneous (the cycle spends time only in
    the two work strokes); swap in a different cycle-time rule by rescaling
    P externally. i_peak marks the argmax of P.
    """

    tau: np.ndarray
    P: np.ndarray
    W: np.ndarray
    Q: np.ndarray
    eta: np.ndarray
    i_peak: int

    @property
    def tau_peak(self):
        return float(self.tau[self.i_peak])


def power_curve(spec: CycleSpec, tau_grid) -> PowerCurve:
    """nonadiabatic_cycles over the stroke durations tau_grid.

    Slow strokes approach the adiabatic work at vanishing power, P tau ->
    W_Otto / 2; fast strokes are friction dominated with |P| growing like
    1/tau^4 until truncation cuts the mode ladder, so the curve has a
    unique interior maximum at tau w_1 ~ 1.
    """
    tau_grid = np.asarray(tau_grid, dtype=float)
    res = nonadiabatic_cycles(spec, tau_grid)
    return PowerCurve(tau=tau_grid, P=res.P, W=res.W, Q=res.Q, eta=res.eta,
                      i_peak=int(np.argmax(res.P)))
