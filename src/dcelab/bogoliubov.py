"""Coupled-mode integration of the field in a cavity with a moving wall.

Each out-mode v_n is expanded over the instantaneous Dirichlet basis,
v_n(x,t) = sum_k Q_k^(n)(t) psi_k(x, R(t)), which turns the wave equation
into the coupled system

    Qdd_k = -omega_k^2(t) Q_k + 2 Rdot sum_j M_kj Qd_j
            + Rddot sum_j M_kj Q_j + Rdot^2 sum_j S_kj Q_j

integrated for all initial conditions n at once (Q is an N x N complex
matrix, column n = mode that starts as a pure positive-frequency solution).
Once the wall is static again, Q_k^(n) = (alpha_nk e^{-i omega_k t}
+ beta_nk e^{+i omega_k t}) / sqrt(2 omega_k) defines the Bogoliubov
matrices; beta != 0 is particle creation.

The system is linear with real coefficients. When the wall declares a
period (harmonic drives do), whole periods are applied as powers of one
monodromy matrix, the real 2N x 2N fundamental matrix over one period, so
the cost no longer grows with the drive length; aperiodic walls are
integrated directly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.integrate import solve_ivp

from .cavity import CavitySpec, ModeBasis, thermal_occupation
from .trajectories import WallTrajectory

__all__ = [
    "ModeAmplitudes",
    "BogoliubovMatrices",
    "initial_amplitudes",
    "integrate_modes",
    "extract_bogoliubov",
    "photon_spectrum",
    "mode_snapshots",
    "photon_time_series",
]


@dataclass
class ModeAmplitudes:
    """State of the coupled-mode system at time t.

    Q[k, n] is the coefficient of instantaneous mode k in out-mode n, and
    Qdot[k, n] the expansion of the field's time derivative over the same
    basis. While the wall moves these differ from dQ/dt by the sliding-basis
    term Rdot * (M Q); storing the field quantities makes the state
    unambiguous across sudden starts/stops of the drive (where dQ/dt jumps
    but the field does not). R is the wall position at t.
    """

    t: float
    Q: np.ndarray
    Qdot: np.ndarray
    R: float
    spec: CavitySpec


@dataclass
class BogoliubovMatrices:
    """alpha[n, k], beta[n, k]: in-mode n expanded over the slice basis k.

    Row n holds the Klein-Gordon expansion of the solution that started as
    pure in-mode n, so rows satisfy sum_k (|alpha_nk|^2 - |beta_nk|^2) = 1
    when the truncation holds the physics. Occupations of the slice modes
    sum over the first index: N_k = sum_n |beta_nk|^2 for vacuum input.
    """

    alpha: np.ndarray
    beta: np.ndarray
    omega: np.ndarray
    t: float

    def symplectic_defect(self):
        """Row-wise deviation of sum_k(|alpha_nk|^2 - |beta_nk|^2) from 1."""
        rows = np.sum(np.abs(self.alpha) ** 2 - np.abs(self.beta) ** 2, axis=1)
        return rows - 1.0


def initial_amplitudes(spec: CavitySpec, R0=None, t0=0.0):
    """Positive-frequency data at time t0: Q_k^(n) = delta_nk e^{-i omega_k t0}/sqrt(2 omega_k)."""
    basis = ModeBasis.build(spec)
    omega = basis.omega if R0 is None else basis.omega_at(R0)
    ph = np.exp(-1j * omega * t0)
    Q = np.diag(ph / np.sqrt(2.0 * omega))
    Qdot = np.diag(-1j * omega * ph / np.sqrt(2.0 * omega))
    return ModeAmplitudes(t=float(t0), Q=Q, Qdot=Qdot,
                          R=spec.length if R0 is None else R0, spec=spec)


def integrate_modes(spec: CavitySpec, traj: WallTrajectory, rtol=1e-9, atol=None,
                    amps0: ModeAmplitudes | None = None, t_final=None,
                    dense_output=False):
    """Integrate the coupled-mode system over the driving window.

    When traj.period is set and the driven part of the window spans more
    than one period, the real 2N x 2N fundamental matrix is integrated over
    one period only and whole periods are applied as powers of that
    monodromy matrix M; only the remainder and the static tail are
    integrated directly, so the cost no longer grows with the drive length.
    M must be symplectic in the canonical variables (Q, field momentum) to
    within 1e3 * rtol before it is powered.

    Parameters
    ----------
    spec : CavitySpec
    traj : WallTrajectory
        Must be static at the start; integration runs from traj.t_start to
        t_final (default traj.t_end).
    rtol : float
        Relative tolerance passed to the DOP853 integrator.
    amps0 : ModeAmplitudes, optional
        Continue from a previous state instead of vacuum-matched data.
    dense_output : bool
        Also return a callable y(t) on [amps0.t, t_final] (for time series
        sampling): the stacked (Q, dQ/dt) state, raveled.

    Returns
    -------
    ModeAmplitudes (and the dense callable if dense_output).
    """
    N = spec.n_modes
    basis = ModeBasis.build(spec)
    khat = np.arange(1, N + 1) * np.pi  # omega_k(R) = khat / R
    Mhat = basis.M * basis.R0           # M(R) = Mhat / R
    Shat = Mhat.T @ Mhat                # S(R) = Shat / R^2

    if t_final is None:
        t_final = traj.t_end
    if amps0 is None:
        R_initial = float(traj.position(traj.t_start))
        amps0 = initial_amplitudes(spec, R0=R_initial, t0=traj.t_start)
    t0 = amps0.t
    if t_final < t0:
        raise ValueError("t_final precedes the initial state")
    if t_final == t0:
        return (amps0, None) if dense_output else amps0
    if atol is None:
        atol = rtol * 1e-2

    def slide(t):
        """Sliding-basis momentum shift: dQ/dt = Qdot + Rdot * M(R) Q."""
        Rd = float(traj.velocity(t))
        if Rd == 0.0:
            return None
        return Rd / float(traj.position(t)) * Mhat

    def rhs(t, y):
        # any number of columns: (Q, dQ/dt) are the two halves of y, (N, m) each
        Q = y[: y.size // 2].reshape(N, -1)
        Qd = y[y.size // 2:].reshape(N, -1)
        R = traj.position(t)
        Rd = traj.velocity(t)
        Rdd = traj.acceleration(t)
        om2 = (khat / R) ** 2
        Qdd = -om2[:, None] * Q
        if Rd != 0.0 or Rdd != 0.0:
            lam = Rd / R
            # lam_dot multiplies Mhat@Q: d/dt (Rdot/R) = Rddot/R - (Rdot/R)^2
            Qdd = Qdd + 2.0 * lam * (Mhat @ Qd) + (Rdd / R - lam * lam) * (Mhat @ Q) \
                + lam * lam * (Shat @ Q)
        return np.concatenate([Qd.ravel(), Qdd.ravel()])

    def solve(t_a, t_b, Y, dense):
        """Integrate the stacked (Q; dQ/dt) block Y, shape (2N, m), over [t_a, t_b]."""
        sol = solve_ivp(rhs, (t_a, t_b), Y.ravel(), method="DOP853", rtol=rtol,
                        atol=atol, dense_output=dense)
        if not sol.success:
            raise RuntimeError(f"mode integration failed: {sol.message}")
        return sol

    def to_block(amps):
        """Field momentum -> dQ/dt on the moving side, stacked under Q."""
        Q = amps.Q.astype(complex)
        dQ = amps.Qdot.astype(complex)
        sh = slide(amps.t)
        if sh is not None:
            dQ = dQ + sh @ Q
        return np.vstack([Q, dQ])

    def to_amps(t, Y):
        """Stacked (Q; dQ/dt) at t -> ModeAmplitudes with the field momentum."""
        Q = Y[:N].copy()
        dQ = Y[N:].copy()
        sh = slide(t)
        if sh is not None:
            dQ = dQ - sh @ Q  # back to field momentum
        return ModeAmplitudes(t=t, Q=Q, Qdot=dQ, R=float(traj.position(t)), spec=spec)

    def direct(amps, t_b):
        sol = solve(amps.t, t_b, to_block(amps), dense_output)
        t_f = float(sol.t[-1])
        return to_amps(t_f, sol.y[:, -1].reshape(2 * N, N)), sol.sol

    T = traj.period
    t_drive = float(min(t_final, traj.t_end))
    if T is None or t0 < traj.t_start or t_drive - t0 <= T:
        amps, dense = direct(amps0, t_final)
        return (amps, dense) if dense_output else amps

    # periodic drive: propagator over k T + s is Phi(t0 + s) M^k
    _check_period(traj, t0, t_drive)
    k = int((t_drive - t0) // T)
    s = (t_drive - t0) - k * T
    one = solve(t0, t0 + T, np.eye(2 * N), dense_output)
    M = one.y[:, -1].reshape(2 * N, 2 * N)
    _check_symplectic(M, slide(t0), rtol)
    Y0 = to_block(amps0)
    Y = np.linalg.matrix_power(M, k) @ Y0
    if s > 0.0:
        Y = solve(t0, t0 + s, Y, False).y[:, -1].reshape(2 * N, N)
    amps = to_amps(t_drive, Y)
    tail = None
    if t_final > t_drive:
        amps, tail = direct(amps, t_final)  # static tail past t_end
    if not dense_output:
        return amps

    def dense(t):
        if tail is not None and t > t_drive:
            return tail(t)
        j = min(int((t - t0) // T), k)
        Phi = one.sol(t0 + (t - t0 - j * T)).reshape(2 * N, 2 * N)
        return (Phi @ (np.linalg.matrix_power(M, j) @ Y0)).ravel()

    return amps, dense


def _check_period(traj, t_a, t_b, samples=16):
    """Reject a declared period the law does not have on [t_a, t_b]."""
    T = traj.period
    # cell midpoints of [t_a, t_b - T]: t + T never rounds past t_b
    t = t_a + (t_b - T - t_a) * (np.arange(samples) + 0.5) / samples
    for name in ("position", "velocity", "acceleration"):
        f = getattr(traj, name)
        here, there = np.asarray(f(t), dtype=float), np.asarray(f(t + T), dtype=float)
        scale = max(np.abs(here).max(), np.abs(there).max())
        gap = np.abs(there - here).max()
        if gap > 1e-8 * scale:
            raise ValueError(
                f"trajectory period {T:g} is not a period of its {name}: "
                f"|f(t + period) - f(t)| reaches {gap:.2e} on [{t_a:g}, {t_b:g}]; "
                "fix or drop WallTrajectory.period")


def _check_symplectic(M, lam, rtol):
    """M^T J M = J for the one-period matrix in canonical variables (Q, P).

    M acts on (Q, dQ/dt); P = dQ/dt - lam Q with lam = (Rdot/R) Mhat at the
    period's start, which recurs one period later, so the canonical matrix
    is C M C^-1 with C = [[I, 0], [-lam, I]].
    """
    N = M.shape[0] // 2
    Mc = M.copy()
    if lam is not None:
        Mc[N:] -= lam @ Mc[:N]      # C M
        Mc[:, :N] += Mc[:, N:] @ lam  # (C M) C^-1
    J = np.zeros_like(M)
    J[:N, N:] = np.eye(N)
    J[N:, :N] = -np.eye(N)
    defect = float(np.abs(Mc.T @ J @ Mc - J).max())
    bound = 1e3 * rtol
    if defect > bound:
        raise RuntimeError(
            f"one-period monodromy matrix is not symplectic: |M^T J M - J| = "
            f"{defect:.2e} > {bound:.2e} (1e3 * rtol); tighten rtol")


def extract_bogoliubov(amps: ModeAmplitudes) -> BogoliubovMatrices:
    """Project mode amplitudes onto the positive/negative frequency solutions.

    Valid whenever the instantaneous frequencies are meaningful; physically
    sharp once the wall is static (then alpha, beta are constants). With a
    static wall and unperturbed data this returns alpha = identity, beta = 0,
    which pins the normalization convention.
    """
    spec = amps.spec
    omega = ModeBasis.build(spec).omega_at(amps.R)
    phase = np.exp(1j * omega * amps.t)
    w = np.sqrt(omega / 2.0)
    # Q, Qdot are [k, n]; alpha, beta are [n, k]
    a = (w[:, None] * (amps.Q + 1j * amps.Qdot / omega[:, None])) * phase[:, None]
    b = (w[:, None] * (amps.Q - 1j * amps.Qdot / omega[:, None])) * np.conj(phase)[:, None]
    return BogoliubovMatrices(alpha=a.T.copy(), beta=b.T.copy(), omega=omega, t=amps.t)


def photon_spectrum(bog: BogoliubovMatrices, n_in=None):
    """Out-mode occupations for a diagonal (thermal or vacuum) in-state.

    N_k^out = sum_n [(|alpha_nk|^2 + |beta_nk|^2) N_n^in + |beta_nk|^2];
    vacuum input reduces to the column sums of |beta|^2. (The in index is
    summed: out operators collect a beta amplitude from every in-mode.)
    """
    a2 = np.abs(bog.alpha) ** 2
    b2 = np.abs(bog.beta) ** 2
    if n_in is None:
        n_in = np.zeros(a2.shape[0])
    n_in = np.asarray(n_in, dtype=float)
    if n_in.shape != (a2.shape[0],):
        raise ValueError("n_in must have one occupation per mode")
    return (a2 + b2).T @ n_in + b2.sum(axis=0)


def mode_snapshots(spec: CavitySpec, traj: WallTrajectory, times, rtol=1e-9):
    """ModeAmplitudes at each requested time from one dense integration.

    Samples before traj.t_start (or an entirely static trajectory) return
    the free evolution of the initial conditions; samples past the end of
    the integration window are clamped to the final state.
    """
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or times.size == 0:
        raise ValueError("times must be a non-empty 1-D array")
    if np.any(np.diff(times) < 0):
        raise ValueError("times must be sorted")
    t_final = float(times[-1])
    amps, dense = integrate_modes(spec, traj, rtol=rtol, t_final=max(t_final, traj.t_start),
                                  dense_output=True)
    N = spec.n_modes
    Mhat = ModeBasis.build(spec).M * spec.length
    snaps = []
    for t in times:
        if dense is None or t <= traj.t_start:
            snap = initial_amplitudes(spec, R0=float(traj.position(traj.t_start)), t0=float(t))
        else:
            ts = float(min(t, amps.t))
            y = dense(ts)
            Q = y[: N * N].reshape(N, N)
            dQ = y[N * N:].reshape(N, N)
            Rd = float(traj.velocity(ts))
            if Rd != 0.0:
                # dQ/dt -> expansion of the field's time derivative
                dQ = dQ - (Rd / float(traj.position(ts))) * (Mhat @ Q)
            snap = ModeAmplitudes(t=ts, Q=Q, Qdot=dQ, R=float(traj.position(ts)), spec=spec)
        snaps.append(snap)
    return snaps


def photon_time_series(spec: CavitySpec, traj: WallTrajectory, times, rtol=1e-9,
                       beta_temp=None):
    """Sample N_k(t) over `times` (instantaneous-basis occupations).

    Uses one dense integration; each sample is extracted against the wall
    position at that time. With beta_temp set, the in-state is thermal at
    that inverse temperature.
    """
    n_in = None
    if beta_temp is not None:
        n_in = thermal_occupation(beta_temp, ModeBasis.build(spec).omega)
    snaps = mode_snapshots(spec, traj, times, rtol=rtol)
    out = np.empty((len(snaps), spec.n_modes))
    for i, snap in enumerate(snaps):
        out[i] = photon_spectrum(extract_bogoliubov(snap), n_in)
    return out
