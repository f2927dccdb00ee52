"""Coupled-mode integration of the field in a cavity with a moving wall.

Each out-mode v_n is expanded over the instantaneous Dirichlet basis,
v_n(x,t) = sum_k Q_k^(n)(t) psi_k(x, R(t)), and its time derivative as
sum_k P_k^(n)(t) psi_k(x, R(t)). P is the momentum conjugate to Q in the
effective Hamiltonian of the moving-mirror cavity (Law, PRA 49, 433 (1994);
Schuetzhold, Plunien & Soff, PRA 57, 2311 (1998)), and the wave equation
becomes the canonical linear system

    dQ/dt = P + lam Mhat Q,    dP/dt = -omega_k^2(t) Q + lam Mhat P,

with lam = Rdot/R, omega_k = k pi / R and Mhat = R M(R) the antisymmetric
coupling of cavity.coupling_M. Only R and Rdot enter. Eliminating P gives
Qdd = -omega^2 Q + 2 lam Mhat Qd + lamdot Mhat Q + lam^2 Mhat^T Mhat Q,
where lamdot = Rddot/R - lam^2. Q is an N x N complex matrix integrated for
all initial conditions n at once (column n = mode that starts as a pure
positive-frequency solution).
Once the wall is static again, Q_k^(n) = (alpha_nk e^{-i omega_k t}
+ beta_nk e^{+i omega_k t}) / sqrt(2 omega_k) defines the Bogoliubov
matrices; beta != 0 is particle creation.

While the wall rests (outside [t_start, t_end]) the generator is constant
and each mode just rotates at omega_k, so those epochs are applied exactly
and the propagator runs only while the wall moves. There the system
dY/dt = A(t) Y for Y = (Q; P) is linear with a real Hamiltonian generator
A = [[lam Mhat, I], [-(khat/R)^2, lam Mhat]], khat = k pi. It is solved by
magnus.propagate, the Magnus driver the lab-frame gate branches share: a
product of sixth-order Magnus exponentials (three Gauss nodes per step;
Blanes, Casas & Ros, BIT 40, 434 (2000)). The exponents of
a batch of steps are balanced by the fixed symplectic similarity
D = diag(omega^1/2, omega^-1/2), omega = khat / R at the wall's start,
which brings their 1-norm from 4-13 to about 0.7 on the base grid, and
exponentiated together by one truncated Taylor polynomial
(magnus.expm_taylor: Paterson-Stockmeyer with batched products, degree
from the theta_m of Al-Mohy & Higham, SIAM J. Sci. Comput. 33, 488
(2011)). Every factor is symplectic, so the product is symplectic up to
rounding at any tolerance, and rtol only sets the accuracy: the step count
starts at 10 steps per period of omega_N = N pi / min R and doubles until a
step-doubling estimate meets it. When the wall declares a period (harmonic
drives do), whole periods are applied as powers of one monodromy matrix,
the real 2N x 2N fundamental matrix over one period, so the cost no longer
grows with the drive length; aperiodic walls are propagated directly.
Samples follow one rule on either path: the propagator keeps only the
state at the step boundary nearest each requested time, and every sample
is one partial Magnus step from there, exponentiated in batches, so the
memory held does not grow with the number of steps.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cavity import CavitySpec, ModeBasis, thermal_occupation
from .magnus import propagate
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
    Qdot[k, n] the momentum P conjugate to Q: the expansion of the field's
    time derivative over the same basis. While the wall moves P differs
    from dQ/dt by the sliding-basis term Rdot * (M Q). P is continuous across
    sudden starts/stops of the drive (where dQ/dt jumps but the field does
    not), so the state is unambiguous there. R is the wall position at t.
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
    N = spec.n_modes
    return _at_rest(spec, spec.length if R0 is None else R0, t0, np.eye(N), np.zeros((N, N)))


def _at_rest(spec, R, t, alpha, beta):
    """Mode amplitudes at t of the field with Bogoliubov matrices (alpha, beta)
    while the wall rests at R: each mode rotates freely at omega_k(R).

    This is the exact solution of the coupled-mode system for a static wall
    and the inverse of extract_bogoliubov; the vacuum is alpha = 1, beta = 0.
    """
    omega = ModeBasis.build(spec).omega_at(R)[:, None]
    ph = np.exp(-1j * omega * t)
    pos = alpha.T * ph
    neg = beta.T * np.conj(ph)
    w = np.sqrt(2.0 * omega)
    return ModeAmplitudes(t=float(t), Q=(pos + neg) / w, Qdot=-1j * omega * (pos - neg) / w,
                          R=R, spec=spec)


def _rotated(amps, t):
    """amps carried to time t while the wall rests at amps.R."""
    if t == amps.t:
        return amps
    bog = extract_bogoliubov(amps)
    return _at_rest(amps.spec, amps.R, t, bog.alpha, bog.beta)


def integrate_modes(spec: CavitySpec, traj: WallTrajectory, rtol=1e-9,
                    amps0: ModeAmplitudes | None = None, t_final=None, times=None):
    """Evolve the mode amplitudes from amps0.t to t_final.

    The wall moves only on [traj.t_start, traj.t_end]. Outside that window
    every mode rotates freely and the rotation is applied exactly; the
    Magnus propagator runs only on the part of the window inside [amps0.t,
    t_final]. Its state is the canonical pair (Q, P) that ModeAmplitudes
    stores, and P is continuous across a sudden start or stop of the drive,
    so nothing is converted at the window edges.

    Parameters
    ----------
    spec : CavitySpec
    traj : WallTrajectory
    rtol : float
        Step-doubling tolerance: the step count doubles until the error
        estimate of the Magnus product, |Y_2n - Y_n| / 63 over the entries
        of the state, is at most rtol * max|Y| (see magnus._propagate).
    amps0 : ModeAmplitudes, optional
        Initial state; defaults to vacuum-matched data at traj.t_start.
    t_final : float, optional
        Defaults to traj.t_end.
    times : sorted array of floats in [amps0.t, t_final], optional
        Times at which the state is also sampled. Each sample inside the
        motion window is one partial Magnus step from the nearest boundary
        of the accepted step grid (see magnus._propagate); the others are
        exact rotations.

    Returns
    -------
    ModeAmplitudes at t_final, and with times also the list of
    ModeAmplitudes at each of them.
    """
    if t_final is None:
        t_final = traj.t_end
    if amps0 is None:
        R_initial = float(traj.position(traj.t_start))
        amps0 = initial_amplitudes(spec, R0=R_initial, t0=traj.t_start)
    if t_final < amps0.t:
        raise ValueError("t_final precedes the initial state")
    wanted = np.asarray([] if times is None else times, dtype=float)
    if wanted.ndim != 1 or np.any(np.diff(wanted) < 0):
        raise ValueError("times must be a sorted 1-D array")
    outside = wanted[(wanted < amps0.t) | (wanted > t_final)]
    if outside.size:
        raise ValueError(f"sample time {outside[0]:g} lies outside [{amps0.t:g}, {t_final:g}], "
                         "the span integrated from amps0.t to t_final")
    samples, repeat = np.unique(wanted, return_inverse=True)
    t_a, t_b = max(amps0.t, traj.t_start), min(t_final, traj.t_end)
    moves = (samples > t_a) & (samples < t_b)
    end, moving = amps0, []
    if t_b > t_a:
        end, moving = _drive(spec, traj, _rotated(amps0, t_a), t_b, rtol, samples[moves])
    amps = _rotated(end, t_final)
    if times is None:
        return amps
    moving = iter(moving)  # samples outside (t_a, t_b) rotate from the nearer rest state
    snaps = [next(moving) if m else _rotated(end if t >= end.t else amps0, t)
             for t, m in zip(samples.tolist(), moves)]
    return amps, [snaps[i] for i in repeat]


def _drive(spec, traj, amps0, t_b, rtol, samples):
    """ModeAmplitudes at t_b and at the sorted, distinct samples in (amps0.t, t_b)
    inside the motion window, propagated as the real block [Re Y, Im Y] of
    Y = (Q; P); a declared period is checked against the law, then used."""
    N = spec.n_modes
    basis = ModeBasis.build(spec)
    A = _generator(traj, np.arange(1, N + 1) * np.pi, basis.M * basis.R0)
    t_a = amps0.t
    omega_max = N * np.pi / traj.position(np.linspace(t_a, t_b, 65)).min()

    def to_amps(t, Y):
        Q, P = (Y[:, :N] + 1j * Y[:, N:]).reshape(2, N, N)
        return ModeAmplitudes(t=t, Q=Q, Qdot=P, R=float(traj.position(t)), spec=spec)

    Y0 = np.vstack([amps0.Q, amps0.Qdot])
    Y0 = np.hstack([Y0.real, Y0.imag])
    if traj.period is not None and t_b - t_a > traj.period:
        _check_period(traj, t_a, t_b)
    Y, sampled = propagate(A, t_a, t_b, Y0, rtol, omega_max, traj.period, samples)
    return to_amps(float(t_b), Y), [to_amps(t, y) for t, y in zip(samples.tolist(), sampled)]


def _generator(traj, khat, Mhat):
    """A(t) of dY/dt = A Y for Y = (Q; P), at any array of times:
    [[lam Mhat, I], [-(khat / R)^2, lam Mhat]] with lam = Rdot / R.

    A.balance is d = (omega^1/2, omega^-1/2) with omega = khat / R at
    traj.t_start. The similarity D = diag(d) is symplectic and turns the
    off-diagonal blocks I and -omega^2 into omega-sized ones, so a Magnus
    exponent of D A D^-1 has a 1-norm of order omega_N h instead of
    omega_N^2 h.
    """
    N = len(khat)
    eye = np.eye(N)
    omega0 = khat / float(traj.position(traj.t_start))

    def A(t):
        R = traj.position(t)[..., None, None]
        lam = traj.velocity(t)[..., None, None] / R
        out = np.zeros(np.shape(t) + (2 * N, 2 * N))
        out[..., :N, :N] = out[..., N:, N:] = lam * Mhat
        out[..., :N, N:] = eye
        out[..., N:, :N] = -((khat / R) ** 2) * eye
        return out
    A.balance = np.concatenate([np.sqrt(omega0), 1.0 / np.sqrt(omega0)])
    return A


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
    """ModeAmplitudes at each of the sorted times from one propagation.

    The field starts in the vacuum at the earlier of times[0] and
    traj.t_start, and integrate_modes samples it at every time: exactly
    rotated wherever the wall rests, else one partial Magnus step from the
    nearest boundary of the accepted step grid, whether or not the drive
    is periodic.
    """
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or times.size == 0:
        raise ValueError("times must be a non-empty 1-D array")
    t0 = min(float(times[0]), traj.t_start)
    amps0 = initial_amplitudes(spec, R0=float(traj.position(t0)), t0=t0)
    return integrate_modes(spec, traj, rtol=rtol, amps0=amps0,
                           t_final=float(times[-1]), times=times)[1]


def photon_time_series(spec: CavitySpec, traj: WallTrajectory, times, rtol=1e-9,
                       beta_temp=None):
    """Sample N_k(t) over `times` (instantaneous-basis occupations).

    Uses one propagation (mode_snapshots); each sample is extracted against the wall
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
