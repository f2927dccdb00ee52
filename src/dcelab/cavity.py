"""Instantaneous Dirichlet modes of a 1D cavity and derived static quantities.

The basis functions psi_j(x, R) = sqrt(2/R) sin(j pi x / R) diagonalize the
field in a cavity of instantaneous length R. All couplings below have exact
closed forms; the test suite re-derives them by quadrature.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "CavitySpec",
    "ModeBasis",
    "dirichlet_spectrum",
    "mode_function",
    "mode_function_dR",
    "coupling_M",
    "coupling_S",
    "dimensionless_coupling",
    "domega_dR",
    "thermal_occupation",
    "static_casimir_energy",
    "thermal_image_sum",
]

# exp() overflow guard; beyond this the occupation underflows float64 anyway
_EXP_CAP = 700.0
# thermal_image_sum stops once a term falls below _IMAGE_RTOL of the running
# total, after at least _IMAGE_MIN_TERMS terms, and fails past _IMAGE_MAX_TERMS
_IMAGE_RTOL = 1e-18
_IMAGE_MIN_TERMS = 60
_IMAGE_MAX_TERMS = 200000


@dataclass(frozen=True)
class CavitySpec:
    """Static description of the cavity: rest length and mode truncation."""

    length: float
    n_modes: int

    def __post_init__(self):
        if not (self.length > 0.0):
            raise ValueError(f"cavity length must be positive, got {self.length}")
        if self.n_modes < 1:
            raise ValueError(f"n_modes must be >= 1, got {self.n_modes}")


def dirichlet_spectrum(n_modes, length):
    """Mode frequencies omega_j = j pi / L, j = 1..n_modes (massless field, c=1)."""
    if length <= 0.0:
        raise ValueError("length must be positive")
    return np.arange(1, n_modes + 1) * np.pi / length


def mode_function(j, x, R):
    """psi_j(x, R) = sqrt(2/R) sin(j pi x / R); orthonormal on [0, R]."""
    x = np.asarray(x, dtype=float)
    return np.sqrt(2.0 / R) * np.sin(j * np.pi * x / R)


def mode_function_dR(j, x, R):
    """Partial derivative of psi_j with respect to the wall position R."""
    x = np.asarray(x, dtype=float)
    u = j * np.pi * x / R
    return np.sqrt(2.0 / R) * (-0.5 * np.sin(u) / R - u * np.cos(u) / R)


def coupling_M(n_modes, R):
    """Intermode coupling M_kj = <psi_j, d_R psi_k>.

    Closed form (-1)^(k+j) 2 j k / (R (j^2 - k^2)) for j != k and zero on the
    diagonal. Antisymmetric: M_kj = -M_jk.
    """
    idx = np.arange(1, n_modes + 1)
    k = idx[:, None]  # row index
    j = idx[None, :]  # column index
    with np.errstate(divide="ignore", invalid="ignore"):
        M = np.where(
            j != k,
            (-1.0) ** (j + k) * 2.0 * j * k / (R * (j.astype(float) ** 2 - k**2)),
            0.0,
        )
    return M


def coupling_S(n_modes, R):
    """Second-order coupling S_kj = sum_l M_lk M_lj over the truncated basis.

    Equals (M^T M)_kj; symmetric. The sum is intentionally truncated at
    n_modes so the coupled-mode system stays self-consistent.
    """
    M = coupling_M(n_modes, R)
    return M.T @ M


def dimensionless_coupling(n_modes):
    """g_kj = L * M_kj(L): the scale-free coupling used by the Otto friction sums."""
    return coupling_M(n_modes, 1.0)


def domega_dR(omega, R):
    """d omega_j / dR = -omega_j / R for the Dirichlet spectrum."""
    return -np.asarray(omega) / R


def thermal_occupation(beta, omega):
    """Bose-Einstein occupation 1/(exp(beta*omega) - 1), overflow safe.

    beta = inf (or any product beta*omega > ~700) returns 0; beta = 0 raises
    since the occupation diverges.
    """
    omega = np.asarray(omega, dtype=float)
    if np.any(omega <= 0.0):
        raise ValueError("omega must be positive")
    if beta < 0.0:
        raise ValueError("beta must be non-negative")
    if beta == 0.0:
        raise ValueError("beta = 0 gives a divergent occupation")
    x = beta * omega
    out = np.zeros_like(x)
    small = x < _EXP_CAP
    out[small] = 1.0 / np.expm1(x[small])
    if out.ndim == 0:
        return float(out)
    return out


def static_casimir_energy(length):
    """Renormalized vacuum energy of the static Dirichlet cavity: -pi/(24 L)."""
    if length <= 0.0:
        raise ValueError("length must be positive")
    return -np.pi / (24.0 * length)


def thermal_image_sum(t_d0):
    """Z(T d0) = sum_{n>=1} n pi / (exp(n pi / (T d0)) - 1).

    Appears in the finite-temperature energy density. Terms decay like
    exp(-n pi / (T d0)); the sum is accumulated until the next term falls
    below _IMAGE_RTOL times the running total. t_d0 = 0 returns 0 exactly.
    """
    if t_d0 < 0.0:
        raise ValueError("temperature-length product must be >= 0")
    if t_d0 == 0.0:
        return 0.0
    total = 0.0
    for n in range(1, _IMAGE_MAX_TERMS + 1):
        x = n * np.pi / t_d0
        if x > _EXP_CAP:
            break
        term = n * np.pi / np.expm1(x)
        total += term
        if n >= _IMAGE_MIN_TERMS and term < _IMAGE_RTOL * total:
            break
    else:
        raise RuntimeError("thermal image sum did not converge")
    return total


@dataclass(frozen=True)
class ModeBasis:
    """Spectrum and couplings of the instantaneous Dirichlet basis at rest length R0.

    The time-dependent quantities scale simply: omega(R) = omega0 * R0/R and
    M(R) = M0 * R0/R; the solvers use those scalings instead of rebuilding
    matrices each step. The canonical coupled-mode system needs only omega
    and M.
    """

    spec: CavitySpec
    omega: np.ndarray = field(repr=False)
    M: np.ndarray = field(repr=False)

    @classmethod
    def build(cls, spec: CavitySpec) -> "ModeBasis":
        return cls(
            spec=spec,
            omega=dirichlet_spectrum(spec.n_modes, spec.length),
            M=coupling_M(spec.n_modes, spec.length),
        )

    @property
    def R0(self):
        return self.spec.length

    @property
    def n_modes(self):
        return self.spec.n_modes

    def omega_at(self, R):
        return self.omega * (self.R0 / R)
