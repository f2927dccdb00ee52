"""Slow-time evolution of mode-mixing coefficients for a harmonically driven wall.

For wall motion R(t) = R0 (1 + eps sin(Omega t)) with eps << 1, secular terms
limit a naive expansion to eps*Omega*t << 1.  Introducing the slow time
tau = eps*t and keeping only the O(eps) terms whose frequency-matching
conditions fire (Omega equal to 2 w_k, w_k + w_j, or |w_k - w_j|) reduces the
coupled mode equations to a linear, constant-coefficient system in tau.  This
module selects the active channels and solves that system exactly with a
matrix exponential.

With amplitudes normalised as Q_k = (alpha_k e^{-i w_k t} + beta_k e^{+i w_k t})
/ sqrt(2 w_k), the slow system reads

    d(alpha)/dtau = beta Gc^T + alpha Gs^T
    d(beta)/dtau  = alpha Gc^T + beta Gs^T

where, writing K_kj = Omega mhat_kj / (2 sqrt(w_k w_j)) with mhat the
dimensionless antisymmetric coupling matrix,

    Gc[k,j] = -(w_k/2) delta_kj   if Omega = 2 w_k          (degenerate)
            +  K_kj (Omega/2 - w_j) if Omega = w_k + w_j    (pair creation)
    Gs[k,j] =  K_kj (w_j + Omega/2) if w_j = w_k - Omega    (scatter down)
            +  K_kj (w_j - Omega/2) if w_j = w_k + Omega    (scatter up)

Gc is symmetric and Gs antisymmetric, which makes the evolution symplectic:
sum_k(|alpha_nk|^2 - |beta_nk|^2) is conserved exactly, and a pure scattering
drive conserves sum_k |alpha_nk|^2 while creating no photons.
"""

from dataclasses import dataclass

import numpy as np

from .cavity import ModeBasis
from .magnus import expm_taylor

__all__ = [
    "SlowAmplitudes",
    "slow_generators",
    "evolve_slow",
]

DEFAULT_TOL = 1e-9


def slow_generators(basis: ModeBasis, Omega):
    """Constant generators (Gc, Gs) of the slow flow; see module docstring.

    A channel is active where its matching condition holds to within
    DEFAULT_TOL * w_1. The spectra handled here are rational multiples of
    w_1, so the tolerance only guards float rounding.
    """
    w = basis.omega
    mhat = basis.M * basis.spec.length
    K = (0.5 * Omega) * mhat / np.sqrt(np.outer(w, w))
    cut = DEFAULT_TOL * w[0]
    deg = np.abs(Omega - 2.0 * w) < cut  # Omega = 2 w_k
    pair = np.abs(Omega - (w[:, None] + w[None, :])) < cut  # Omega = w_k + w_j
    lo = np.abs(w[None, :] - (w[:, None] - Omega)) < cut  # w_j = w_k - Omega
    hi = np.abs(w[None, :] - (w[:, None] + Omega)) < cut  # w_j = w_k + Omega
    Gc = np.diag(np.where(deg, -0.5 * w, 0.0))
    Gc += np.where(pair, K * (0.5 * Omega - w[None, :]), 0.0)
    Gs = np.where(lo, K * (w[None, :] + 0.5 * Omega), 0.0) \
        + np.where(hi, K * (w[None, :] - 0.5 * Omega), 0.0)
    return Gc, Gs


@dataclass(frozen=True)
class SlowAmplitudes:
    """Mode-mixing coefficients sampled on a slow-time grid.

    alpha[i] and beta[i] are the real N x N matrices at tau[i] (row n = in
    mode), starting from alpha = I, beta = 0. eps, if given, records the drive
    amplitude so samples can be placed in lab time t = tau / eps.
    """

    tau: np.ndarray
    alpha: np.ndarray
    beta: np.ndarray
    Omega: float
    omega: np.ndarray
    eps: float | None = None

    @property
    def beta_final(self):
        return self.beta[-1]

    @property
    def lab_time(self):
        if self.eps is None:
            raise ValueError("eps was not recorded; lab time undefined")
        return self.tau / self.eps

    def symplectic_defect(self, i=-1):
        a2 = np.abs(self.alpha[i]) ** 2
        b2 = np.abs(self.beta[i]) ** 2
        return (a2 - b2).sum(axis=1) - 1.0


def evolve_slow(basis: ModeBasis, Omega, eps=None, tau_max=1.0, n_samples=101):
    """Solve the slow system on linspace(0, tau_max, n_samples) from alpha=I, beta=0.

    The generator is constant, so the row block [alpha beta] at tau is
    [I 0] exp(tau K) with K = [[Gs^T, Gc^T], [Gc^T, Gs^T]]; one exp(h K) at
    the sample spacing h carries each sample to the next. Gc and Gs are
    real, so alpha and beta are real float64 arrays. eps is recorded for
    lab-time bookkeeping only.
    """
    if tau_max <= 0:
        raise ValueError("tau_max must be positive")
    if n_samples < 2:
        raise ValueError(f"n_samples must be >= 2 to span [0, tau_max], got {n_samples}")
    Gc, Gs = slow_generators(basis, Omega)
    N = basis.omega.size

    taus = np.linspace(0.0, tau_max, n_samples)
    step = expm_taylor(taus[1] * np.block([[Gs.T, Gc.T], [Gc.T, Gs.T]])[None])[0]
    ab = np.empty((n_samples, N, 2 * N))
    ab[0] = np.hstack([np.eye(N), np.zeros((N, N))])
    for i in range(1, n_samples):
        ab[i] = ab[i - 1] @ step
    return SlowAmplitudes(tau=taus, alpha=ab[:, :, :N], beta=ab[:, :, N:],
                          Omega=float(Omega), omega=basis.omega.copy(),
                          eps=None if eps is None else float(eps))
