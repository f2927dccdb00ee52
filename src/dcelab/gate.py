"""Controlled-squeeze gate on a qubit-resonator pair, closed and open.

A flux-driven resonator dispersively coupled to a qubit squeezes its field
only when the qubit sits in |1> (the drive is then on parametric
resonance); in |0> the field merely rotates in phase space at the detuning.
In the frame rotating with the |1>-branch frequency the propagator is

    U(r, theta, phi) = S(r, theta) (x) |1><1|  +  U0(phi) (x) |0><0|,

with S(r, theta) = exp[(r/2)(e^{-i theta} a^2 - e^{i theta} a^dag 2)],
U0(phi) = exp(-i phi n), r = g_d eps_d t and phi the accumulated detuning
angle. Sandwiching two such gates between qubit Hadamards and flips encodes
an arbitrary qubit state into superpositions of oppositely squeezed states

    chi_pm = (|r, th> pm |r, th+pi>) / (sqrt2 c_pm),  c_pm = sqrt(1 pm 1/sqrt(cosh 2r)),

which occupy the 4n (chi_+) and 4n+2 (chi_-) photon sectors, so losing one
photon flips the parity and is detectable. The second gate must counter the
free rotation of the first: with the conventions above its angle
GateParams.theta_tilde is theta shifted by pi - 2 phi, and the encoded pair
sits at that same angle. (A drive of phase theta_d produces the gate angle
theta_d + pi in this squeeze convention; all encoding figures of merit are
independent of the angle.)

Every squeeze matrix, of the closed protocol, of squeeze_operator and of
the lab-frame branches, comes from one former (_squeeze_matrices): one real
exponential of the even and odd photon-number blocks of S(r, 0), with the
angle put in by phases.

The open gate (open_evolve) propagates the Lindblad master equation of
each gate segment exactly: the generator is constant over the segment, and
it leaves four blocks of rho invariant, the population entries (one qubit
level on both sides) and the coherence entries (|0><1| of the qubit) of
each photon-parity sector. The generator is complex-linear, so each block
is advanced as its complex entries themselves, the population blocks over
both triangles, under a sparse generator built for that block's rows alone
(_block_generator); the action of its exponential is one Chebyshev series
with Bessel coefficients, which needs about as many sparse products as the
generator's 1-norm times the segment length, since the coherent drive
keeps its spectrum near the imaginary axis. The generators are built at
drive angle 0, where they are sparsest, and the angle put in by the same
D = diag(e^{i theta n / 2}) phases as for the squeezes, on the entries
before and after the series. The open protocol is linear in its input, and
every input is a combination of three fixed matrices, so a whole p_z sweep
(open_average_fidelity on arrays) propagates those three through both
segments, as one complex matrix in four series, and forms each p_z's
states from them.

Pure joint states are arrays of shape (2, n_max+1), qubit index first;
density matrices are square over the flattened index. hbar = 1, time in ns,
angular frequencies in rad/ns, temperatures in mK.
"""

import math
import warnings
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .cavity import thermal_occupation
from .magnus import expm_taylor, field_exponent, propagate

__all__ = [
    "GateParams",
    "OpenRates",
    "EncodedPair",
    "default_cqed_params",
    "lowering_operator",
    "squeeze_operator",
    "rotation_operator",
    "squeeze_state",
    "chi_states",
    "joint_vacuum",
    "hadamard_qubit",
    "flip_qubit",
    "encoding_protocol",
    "encoded_target",
    "qubit_probabilities",
    "conditional_resonator",
    "average_fidelity",
    "simulated_average_fidelity",
    "thermal_nbar",
    "open_evolve",
    "open_encoding_protocol",
    "open_average_fidelity",
    "lab_frame_branch",
]

_HBAR_OVER_KB = 7.638232  # mK ns (so x = _HBAR_OVER_KB * omega / T)
# The open gate's checks on each segment's output: |tr rho - 1| above
# TRACE_TOL or an eigenvalue below EIGENVALUE_FLOOR raises.
TRACE_TOL = 1e-8
EIGENVALUE_FLOOR = -1e-10
_HADAMARD = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
_FLIP = np.array([[0.0, 1.0], [1.0, 0.0]])


@dataclass(frozen=True)
class GateParams:
    """Circuit frequencies and drive settings of the controlled-squeeze gate.

    omega is the bare resonator frequency, omega_q the qubit frequency and
    chi the dispersive pull, so the resonator runs at omega + chi (qubit
    |0>) or omega - chi (qubit |1>). The flux drive of amplitude eps_d and
    coupling g_d at omega_d = 2(omega - chi) squeezes the |1> branch at
    rate g_d eps_d; the |0> branch is detuned by delta = 2 chi and the gate
    only works as a conditional when delta >> g_d eps_d.
    """

    omega: float
    omega_q: float
    chi: float
    g_d: float
    eps_d: float
    t_gate: float
    theta: float = 0.0
    n_max: int = 80
    # The squeezed-vacuum Fock tail decays like tanh(r)^n, so the default
    # truncation n_max=80 carries a 6e-5 tail at r=1.5 (1.5e-2 at r=2).
    # The default tolerance admits that; certificate-grade runs should pass
    # leak_tol=1e-8 together with n_max of a few hundred.
    leak_tol: float = 1e-3

    def __post_init__(self):
        if self.n_max < 2:
            raise ValueError("n_max must be >= 2")
        if self.t_gate <= 0.0:
            raise ValueError("t_gate must be positive")
        if self.delta < 10.0 * abs(self.drive_rate):
            warnings.warn(
                "detuning 2*chi is not large against g_d*eps_d; the gate is "
                "not a clean conditional in this regime", stacklevel=2)

    @property
    def omega_0(self):
        return self.omega + self.chi

    @property
    def omega_1(self):
        return self.omega - self.chi

    @property
    def omega_d(self):
        return 2.0 * self.omega_1

    @property
    def delta(self):
        return 2.0 * self.chi

    @property
    def drive_rate(self):
        return self.g_d * self.eps_d

    @property
    def r_gate(self):
        return self.drive_rate * self.t_gate

    @property
    def delta_tilde(self):
        # detuning renormalized by the AC-Stark shift of the blue drive
        return self.delta * (1.0 - 0.5 * (self.drive_rate / self.delta) ** 2)

    @property
    def phi_gate(self):
        return self.delta_tilde * self.t_gate

    @property
    def theta_tilde(self):
        # second gate angle: undoes the 2 phi the first |0> branch rotated by
        return self.theta - 2.0 * self.phi_gate + np.pi

    @cached_property
    def _squeezes(self):
        """S(r_gate, theta) and S(r_gate, theta_tilde): the two dense squeezes of
        the closed protocol, built once per parameter set."""
        return _squeeze_matrices(self.r_gate, (self.theta, self.theta_tilde), self.n_max)


def default_cqed_params(**overrides):
    """Realistic superconducting-circuit numbers: 6 GHz resonator, 4 GHz
    qubit, 8 MHz dispersive pull, 50 MHz drive coupling at 15% amplitude,
    200 ns gate; g_d eps_d t_gate = 1.5."""
    args = dict(omega=2 * np.pi * 6.0, omega_q=2 * np.pi * 4.0,
                chi=2 * np.pi * 0.008, g_d=0.05, eps_d=0.15, t_gate=200.0)
    args.update(overrides)
    return GateParams(**args)


@dataclass(frozen=True)
class OpenRates:
    """Dissipation channels: qubit relaxation tau_q, resonator damping
    tau_r, pure qubit dephasing tau_phi (all ns; inf disables a channel, and
    a lifetime that is not positive raises ValueError) and a common bath
    temperature in mK feeding thermal occupations."""

    tau_q: float = np.inf
    tau_r: float = np.inf
    tau_phi: float = np.inf
    temperature_mK: float = 0.0

    def __post_init__(self):
        for name, tau in (("tau_q", self.tau_q), ("tau_r", self.tau_r), ("tau_phi", self.tau_phi)):
            if not tau > 0.0:
                raise ValueError(f"OpenRates.{name} must be > 0 (inf disables it), got {tau!r}")

    @classmethod
    def typical(cls):
        return cls(tau_q=200e3, tau_r=200e3, tau_phi=10e3, temperature_mK=60.0)


def thermal_nbar(omega, temperature_mK):
    """Bose occupation at angular frequency omega (rad/ns) and T (mK)."""
    if not 0.0 <= temperature_mK < np.inf:
        raise ValueError(f"temperature must be finite and >= 0, got {temperature_mK!r} mK")
    if temperature_mK == 0.0:
        return 0.0
    return thermal_occupation(1.0, _HBAR_OVER_KB * omega / temperature_mK)


def lowering_operator(n_max):
    return np.diag(np.sqrt(np.arange(1.0, n_max + 1)), k=1)


def _squeeze_generator(r, theta, n_max):
    """(r/2)(e^{-i th} a^2 - e^{i th} a^dag 2), the exponent of S(r, theta)."""
    a = lowering_operator(n_max)
    a2 = a @ a
    return 0.5 * r * (np.exp(-1j * theta) * a2 - np.exp(1j * theta) * a2.conj().T)


def _squeeze_matrices(r, thetas, n_max):
    """S(r, theta) for each theta in thetas, from one real exponential.

    S(r, theta) = D S(r, 0) D^dag with D = diag(e^{i theta n / 2}) holds
    exactly in the truncated basis, and S(r, 0) is real and keeps photon
    parity, so one real exponential of its even and odd blocks (the odd one
    padded with a zero row and column when n_max is even) serves every
    angle. Entry (j, k) of S(r, 0) is nonzero only for even j - k = 2m,
    where D puts the phase e^{i theta m}, taken as a power of e^{i theta} so
    that a large angle loses no digits to the rounding of theta m.
    """
    n, odd = n_max + 1, (n_max + 1) // 2  # levels, odd levels
    g = _squeeze_generator(r, 0.0, n_max).real
    blocks = np.zeros((2, n - odd, n - odd))
    blocks[0] = g[0::2, 0::2]
    blocks[1, :odd, :odd] = g[1::2, 1::2]
    E = expm_taylor(blocks)
    S0 = np.zeros((n, n))
    S0[0::2, 0::2] = E[0]
    S0[1::2, 1::2] = E[1, :odd, :odd]
    m = np.subtract.outer(np.arange(n), np.arange(n)) // 2
    return tuple(_phases(theta, m) * S0 for theta in thetas)


def _phases(angle, powers):
    """e^{i angle p} for each integer p of powers, as integer powers of
    e^{i angle}, so that a large angle loses no digits to the rounding of
    angle p."""
    return np.exp(1j * angle) ** powers


def squeeze_operator(r, theta, n_max):
    """Matrix of S(r, theta) = exp[(r/2)(e^{-i th} a^2 - e^{i th} a^dag 2)]."""
    return _squeeze_matrices(r, (theta,), n_max)[0]


def rotation_operator(phi, n_max):
    """Phase-space rotation exp(-i phi n), diagonal in the Fock basis."""
    return np.exp(-1j * phi * np.arange(n_max + 1))


def squeeze_state(r, theta, n_max, leak_tol=1e-8):
    """Squeezed vacuum S(r, theta)|0> in the Fock basis, analytic amplitudes.

    Only even levels are populated, from c_0 = 1/sqrt(cosh r) by the exact
    ratio c_{2m}/c_{2m-2} = -e^{i theta} tanh r sqrt((2m-1)/2m). The exactly
    known norm makes the truncated tail computable, and a tail above
    leak_tol raises so silent truncation can never fake fidelity.
    """
    if r < 0.0:
        raise ValueError("r must be >= 0 (use theta + pi for the opposite axis)")
    psi = np.zeros(n_max + 1, dtype=complex)
    m = np.arange(1, n_max // 2 + 1)
    ratio = -np.exp(1j * theta) * np.tanh(r) * np.sqrt((2 * m - 1) / (2 * m))
    psi[::2] = np.cumprod(np.concatenate([[1.0 / np.sqrt(np.cosh(r))], ratio]))
    tail = 1.0 - np.sum(np.abs(psi) ** 2)
    if tail > leak_tol:
        th2 = np.tanh(r) ** 2
        need = 2 * int(np.log(leak_tol * (1.0 - th2) * np.cosh(r)) / np.log(th2) + 1)
        raise ValueError(
            f"truncated squeezed state leaks {tail:.2e} > {leak_tol:.0e}; "
            f"enlarge n_max (r = {r:g} needs roughly n_max > {need})")
    return psi


@dataclass(frozen=True)
class EncodedPair:
    """Logical basis chi_+ (4n sector) and chi_- (4n+2 sector) with the
    normalization constants c_pm of the even/odd squeezed superpositions."""

    chi_plus: np.ndarray
    chi_minus: np.ndarray
    c_plus: float
    c_minus: float


def chi_states(r, theta_tilde, n_max, leak_tol=1e-8):
    if r <= 0.0:
        raise ValueError("r must be > 0: at r = 0 the odd combination "
                         "chi_- degenerates to the zero vector")
    up = squeeze_state(r, theta_tilde, n_max, leak_tol)
    dn = squeeze_state(r, theta_tilde + np.pi, n_max, leak_tol)
    c_plus = np.sqrt(1.0 + 1.0 / np.sqrt(np.cosh(2.0 * r)))
    c_minus = np.sqrt(1.0 - 1.0 / np.sqrt(np.cosh(2.0 * r)))
    return EncodedPair(
        chi_plus=(up + dn) / (np.sqrt(2.0) * c_plus),
        chi_minus=(up - dn) / (np.sqrt(2.0) * c_minus),
        c_plus=float(c_plus),
        c_minus=float(c_minus))


def joint_vacuum(alpha, beta, n_max):
    """Qubit (alpha, beta) with the resonator in vacuum, shape (2, n_max+1)."""
    if abs(abs(alpha) ** 2 + abs(beta) ** 2 - 1.0) > 1e-10:
        raise ValueError("qubit amplitudes must be normalized")
    psi = np.zeros((2, n_max + 1), dtype=complex)
    psi[0, 0] = alpha
    psi[1, 0] = beta
    return psi


def hadamard_qubit(state):
    return _HADAMARD @ state


def flip_qubit(state):
    return state[::-1]


def _controlled(state, S, phi):
    """U(r, theta, phi) with its squeeze matrix S = S(r, theta) given: squeeze
    the |1> branch by S, rotate the |0> branch by phi."""
    out = np.empty_like(state)
    out[0] = rotation_operator(phi, state.shape[1] - 1) * state[0]
    out[1] = S @ state[1]
    return out


def encoding_protocol(alpha, beta, params: GateParams):
    """Encode the qubit (alpha, beta) into the resonator.

    Hadamard, U(r, theta, phi), qubit flip, U(r, theta_tilde, phi), qubit
    flip, Hadamard, with theta_tilde = GateParams.theta_tilde. The second
    gate angle cancels the rotation the first branch picked up, leaving the
    encoded pair at theta_tilde (encoded_target builds the same state
    directly).
    """
    psi = hadamard_qubit(joint_vacuum(alpha, beta, params.n_max))
    for S in params._squeezes:
        psi = flip_qubit(_controlled(psi, S, params.phi_gate))
    return hadamard_qubit(psi)


def encoded_target(alpha, beta, params: GateParams):
    """The ideal output of encoding_protocol, assembled from chi_pm at
    GateParams.theta_tilde."""
    pair = chi_states(params.r_gate, params.theta_tilde, params.n_max, params.leak_tol)
    psi = np.empty((2, params.n_max + 1), dtype=complex)
    psi[0] = (alpha * pair.c_plus * pair.chi_plus
              + beta * pair.c_minus * pair.chi_minus) / np.sqrt(2.0)
    psi[1] = (beta * pair.c_plus * pair.chi_plus
              + alpha * pair.c_minus * pair.chi_minus) / np.sqrt(2.0)
    return psi


def qubit_probabilities(state):
    """(p_plus, p_minus) for sigma_z = |0><0| - |1><1| on the joint state."""
    p_plus = float(np.sum(np.abs(state[0]) ** 2))
    p_minus = float(np.sum(np.abs(state[1]) ** 2))
    return p_plus, p_minus


def conditional_resonator(state, outcome):
    """Normalized resonator state after reading sigma_z = outcome (+-1)."""
    if outcome not in (1, -1):
        raise ValueError(f"sigma_z outcome must be +1 or -1, got {outcome!r}")
    branch = state[0] if outcome == +1 else state[1]
    norm = np.linalg.norm(branch)
    if norm == 0.0:
        raise ValueError("outcome has zero probability")
    return branch / norm


def average_fidelity(r, P_z):
    """Closed form for the protocol averaged over the two readouts."""
    if r < 0.0 or abs(P_z) > 1.0 + 1e-12:
        raise ValueError("need r >= 0 and |P_z| <= 1")
    s2 = 1.0 - 1.0 / np.cosh(2.0 * r)
    return 0.5 * (1.0 + P_z**2) + 0.5 * (1.0 - P_z**2) * np.sqrt(s2)


def _target_states(alpha, beta, params):
    pair = chi_states(params.r_gate, params.theta_tilde, params.n_max, params.leak_tol)
    t_plus = alpha * pair.chi_plus + beta * pair.chi_minus
    t_minus = alpha * pair.chi_minus + beta * pair.chi_plus
    return t_plus, t_minus


def simulated_average_fidelity(alpha, beta, params: GateParams):
    """P_+ F_+ + P_- F_- from the actual protocol state, no closed forms."""
    psi = encoding_protocol(alpha, beta, params)
    t_plus, t_minus = _target_states(alpha, beta, params)
    p_plus, p_minus = qubit_probabilities(psi)
    f_plus = np.abs(np.vdot(t_plus, conditional_resonator(psi, +1))) ** 2
    f_minus = np.abs(np.vdot(t_minus, conditional_resonator(psi, -1))) ** 2
    return float(p_plus * f_plus + p_minus * f_minus)


def _joint_hamiltonian(params, theta):
    """Rotating-frame generator whose exponential is U(r, theta, phi)."""
    n = params.n_max + 1
    H = np.zeros((2 * n, 2 * n), dtype=complex)
    H[:n, :n] = params.delta_tilde * np.diag(np.arange(n, dtype=float))
    H[n:, n:] = 1j * _squeeze_generator(params.drive_rate, theta, params.n_max)
    return H


def _collapse_operators(params, rates: OpenRates):
    eye_r = np.eye(params.n_max + 1)
    # |0> is the qubit ground state; relaxation drives |1> -> |0>
    sm = np.array([[0.0, 1.0], [0.0, 0.0]])
    ops = []
    for tau, omega, A in [(rates.tau_r, params.omega,
                           np.kron(np.eye(2), lowering_operator(params.n_max))),
                          (rates.tau_q, params.omega_q, np.kron(sm, eye_r))]:
        if np.isfinite(tau):
            nbar = thermal_nbar(omega, rates.temperature_mK)
            ops.append(np.sqrt(1.0 / tau * (nbar + 1.0)) * A)
            if nbar > 0.0:
                ops.append(np.sqrt(1.0 / tau * nbar) * A.conj().T)
    if np.isfinite(rates.tau_phi):
        sz = np.kron(np.diag([1.0, -1.0]), eye_r)
        ops.append(np.sqrt(0.5 / rates.tau_phi) * sz)
    return ops


def _row_nonzeros(op):
    """The nonzeros of a dense op by row: a function of an array of rows that
    returns (i, col, value) arrays, the value at op[rows[i], col], row by row."""
    r, c = np.nonzero(op)
    indptr, values = np.searchsorted(r, np.arange(len(op) + 1)), op[r, c]

    def take(rows):
        first, count = indptr[rows], indptr[rows + 1] - indptr[rows]
        i = np.repeat(np.arange(len(rows)), count)
        pos = np.repeat(first - np.cumsum(count) + count, count) + np.arange(len(i))
        return i, c[pos], values[pos]
    return take


def _lindblad_terms(H, ls, j, k):
    """The terms of the rows (j[i], k[i]) of the Lindblad generator on the
    row-major vec(rho), as (name, i, m dim + p, value), the value
    multiplying rho_mp. With K = -iH - (1/2) sum_l L_l^dag L_l,

        (L rho)_jk = sum_m K_jm rho_mk + sum_p conj(K_kp) rho_jp
                     + sum_l sum_mp (L_l)_jm rho_mp conj((L_l)_kp),

    yielded in that order, jump by jump, as in the sum of Kronecker products
    K (x) I + I (x) K^* + sum_l L_l (x) L_l^*.
    """
    dim = len(H)
    K = _row_nonzeros(-1j * H - 0.5 * sum(l.conj().T @ l for l in ls))
    i, m, v = K(j)
    yield "K rho", i, m * dim + k[i], v
    i, p, v = K(k)
    yield "rho K^dag", i, j[i] * dim + p, v.conj()
    for number, l in enumerate(ls):
        jump = _row_nonzeros(l)
        i1, m, v1 = jump(j)
        i2, p, v2 = jump(k[i1])
        yield f"L_{number} rho L_{number}^dag", i1[i2], m[i2] * dim + p, v1[i2] * v2.conj()


def _lindblad_rows(H, ls, j, k, block):
    """The rows (j[i], k[i]) of the Lindblad generator on the row-major
    vec(rho): arrays (i, m, p, value) of their entries, value at rho_mp in
    row i, the terms of one entry added in the order of _lindblad_terms.
    block is a boolean (dim, dim) array, true at the entries rho_mp the rows
    may read: a term reading any other entry raises RuntimeError naming the
    term, for the rows would then not form an invariant block."""
    dim = len(H)
    terms = []
    for name, i, col, v in _lindblad_terms(H, ls, j, k):
        if not block.flat[col].all():
            bad = np.flatnonzero(~block.flat[col])[0]
            raise RuntimeError(
                f"open gate block: its row rho[{j[i[bad]]}, {k[i[bad]]}] reads "
                f"rho[{col[bad] // dim}, {col[bad] % dim}], outside the block, through the "
                f"term {name}; the block is not invariant under this generator")
        terms.append((i, col, v))
    i, col, v = (np.concatenate(x) for x in zip(*terms))
    keys, entry = np.unique(i * dim * dim + col, return_inverse=True)
    i, col = np.divmod(keys, dim * dim)
    # bincount adds the terms of one entry in their order
    return i, *np.divmod(col, dim), np.bincount(entry, v.real) + 1j * np.bincount(entry, v.imag)


def _block_generator(H, ls, j, k):
    """The complex generator of an invariant block of entries of rho, as a
    CSR matrix, on the entries z_i = rho_jk themselves, (j, k) = (j[i], k[i]):
    the rows and columns (j, k) of L entry for entry (its explicit zeros left
    out), L the Lindblad generator on the row-major vec(rho). L is
    complex-linear, so a block needs no pairing of rho_jk with rho_kj: a
    population block lists the entries of both triangles. Only the block's
    rows of L are formed (_lindblad_rows), so no Kronecker product and
    nothing over all dim^2 rows; a row that reads an entry outside the block,
    as under a sigma_x jump or a qubit drive, raises RuntimeError naming the
    term.
    """
    from scipy import sparse
    index = np.full(H.shape, -1, dtype=np.int32)  # the coordinate of each rho_mp
    index[j, k] = np.arange(len(j))
    row, m, p, v = _lindblad_rows(H, ls, j, k, index >= 0)
    ok = v != 0.0
    return sparse.csr_array((v[ok], (row[ok], index[m, p][ok])), shape=(len(j), len(j)))


def _bessel_j(x, n):
    """J_0(x), ..., J_n(x) for x > 0 by Miller's backward recurrence.

    J_{k-1} = (2k/x) J_k - J_{k+1} is run down from order n + 20 with J = 1
    there and 0 above. J is the recurrence's minimal solution, so the error of
    those start values dies out on the way down; the values are rescaled
    before they can overflow and normalised by J_0 + 2 sum_k J_2k = 1.
    Below x = 1e-8, where a step of 2k/x could overflow on its own, they are
    the leading term (x/2)^k / k! of the power series, whose next term is
    (x/2)^2 / (k + 1) < 3e-17 of it.
    """
    if x < 1e-8:
        return np.cumprod(np.concatenate([[1.0], 0.5 * x / np.arange(1, n + 1)]))
    top, x = n + 20, float(x)
    j = np.zeros(top + 1)
    a, b = 1.0, 0.0  # J_k and J_{k+1} as k runs down from top
    j[top] = a
    for k in range(top, 0, -1):
        a, b = 2.0 * k / x * a - b, a
        if abs(a) > 1e150:
            a, b = a * 1e-150, b * 1e-150
            j[k:] *= 1e-150
        j[k - 1] = a
    j = j[:n + 1]
    return j / (j[0] + 2.0 * math.fsum(j[2::2]))


class _Chebyshev(NamedTuple):
    """The set-up of the series of exp(t A) for one A and t (_chebyshev_setup):
    the factor e^{t mu}, the series norm rho, 2 Y and J_0(rho), ..., J_cap(rho)
    (Y2 and J are None when rho = 0)."""

    scale: complex
    rho: float
    Y2: object
    J: np.ndarray


def _chebyshev_setup(A, t):
    """Everything of the series of exp(t A) b that does not depend on b, for
    a sparse square A and a length t, paid once for every vector exp(t A) is
    applied to (_chebyshev_series).

    Tal-Ezer & Kosloff, J. Chem. Phys. 81, 3967 (1984): with mu = tr(A)/n,
    rho = t ||A - mu I||_1 and Y = (t / rho)(A - mu I), whose spectrum lies
    in the unit disc,

        exp(t A) b = e^{t mu} [J_0(rho) u_0 + 2 sum_k J_k(rho) u_k],

    u_0 = b, u_1 = Y b and u_{k+1} = 2 Y u_k + u_{k-1}: the Chebyshev series
    of e^{rho z} on the segment [-i, i]. The set-up is the factor e^{t mu},
    rho, the scaled 2 Y and J_0(rho), ..., J_cap(rho) with cap = 3 rho + 100,
    the longest series _chebyshev_series runs. The 1-norm is exact, so no
    random numbers are drawn. A non-finite rho raises ValueError.
    """
    from scipy import sparse
    n = A.shape[0]
    mu = A.trace() / n
    A = A - mu * sparse.eye_array(n, format="csr")
    rho = t * abs(A).sum(axis=0).max()
    if rho == 0.0:  # t = 0 or A a multiple of I
        return _Chebyshev(np.exp(t * mu), 0.0, None, None)
    if not np.isfinite(rho):
        raise ValueError("exp(t A): the generator A has a non-finite entry")
    return _Chebyshev(np.exp(t * mu), rho, A * (2.0 * t / rho),
                      _bessel_j(rho, int(3.0 * rho) + 100))


def _chebyshev_series(c, b):
    """(exp(t A) b, terms) from the set-up c = _chebyshev_setup(A, t), which
    it leaves unchanged; terms is the number of sparse products the series
    took.

    When the spectrum of A - mu I lies near the imaginary axis, as for a
    Lindblad generator dominated by its Hamiltonian part, the series takes
    about rho + O(rho^(1/3)) products. Past k = rho it stops once two
    successive terms fall below 2^-53 of the partial sum in the inf-norm; a
    series still running at 3 rho + 100 terms raises RuntimeError. The
    recurrence is real, so a real A and b give a real result. At t = 0, or
    for A a multiple of I, the result is e^{t mu} b exactly, in 0 terms.
    """
    if c.rho == 0.0:
        return c.scale * b, 0
    _, rho, Y2, J = c
    cap = len(J) - 1
    u_prev = np.array(b, dtype=np.result_type(Y2.dtype, b.dtype))
    u = 0.5 * (Y2 @ u_prev)
    f = J[0] * u_prev + 2.0 * J[1] * u
    c2, term = np.inf, np.empty_like(f)
    for k in range(2, cap + 1):
        u_next = Y2 @ u
        u_next += u_prev
        u_prev, u = u, u_next
        f += np.multiply(u, 2.0 * J[k], out=term)
        if k > rho:
            c1, c2 = c2, 2.0 * abs(J[k]) * np.abs(u).max()
            if c1 + c2 <= 2.0 ** -53 * np.abs(f).max():
                return c.scale * f, k
    raise RuntimeError(f"Chebyshev series of exp(t A) b not converged at rho = {rho:.4g}: "
                       f"its last two terms are {c1:.2e} and {c2:.2e} after {cap} terms, "
                       f"against a partial sum of {np.abs(f).max():.2e}")


def _qubit_blocks(n_max):
    """The four invariant blocks of the Lindblad generator, as (name, j, k),
    j and k the row-major index lists of the block's entries rho_jk: per
    photon-parity sector (n_j + n_k even, then odd), its population entries
    (both indices on one qubit level, both triangles) and then its coherence
    entries (j < n <= k, the qubit's |0><1|, n = n_max + 1). Their
    conjugates, the |1><0| entries, are in no block."""
    n, blocks = n_max + 1, []
    j, k = np.indices((2 * n, 2 * n)).reshape(2, -1)
    odd = (j % n + k % n) % 2 == 1
    kinds = (("population", (j < n) == (k < n)), ("coherence", (j < n) & (k >= n)))
    for parity, sector in (("even", ~odd), ("odd", odd)):
        for kind, entries in kinds:
            blocks.append((f"{parity} {kind}", j[sector & entries], k[sector & entries]))
    return blocks


class _OpenBlock(NamedTuple):
    """One invariant block prepared for segments of one duration
    (_open_generator): its name and (j, k) index lists as from _qubit_blocks,
    the photon differences n_k - n_j of its entries and the Chebyshev set-up
    of its generator at drive angle 0."""

    name: str
    j: np.ndarray
    k: np.ndarray
    dn: np.ndarray
    setup: _Chebyshev


def _open_generator(params, rates, duration, blocks):
    """The _OpenBlock of each (name, j, k) of blocks, for segments of
    duration, its generator built by _block_generator."""
    H = _joint_hamiltonian(params, 0.0)
    ls = _collapse_operators(params, rates)
    photons = np.arange(len(H)) % (params.n_max + 1)
    return tuple(_OpenBlock(name, j, k, photons[k] - photons[j],
                            _chebyshev_setup(_block_generator(H, ls, j, k), duration))
                 for name, j, k in blocks)


def _open_segment(Z, blocks, theta):
    """(exp(duration L(theta)) Z on the prepared blocks, terms), unchecked:
    each block's entries of Z are advanced, and the entries outside every
    block are not read and are zero in the result. terms are the products
    of each block's series in the order of blocks, 0 for a block whose
    entries are zero and runs no series.

    L is complex-linear, so Z need not be Hermitian, and each block's
    entries are one complex vector. The drive angle enters as L(theta) =
    V L(0) V^dag, V = I (x) D, D = diag(e^{i theta n / 2}) as for the
    squeezes: V H(0) V^dag = H(theta), and each jump operator only picks up
    a phase. So rho_jk is multiplied by e^{-i theta (n_j - n_k) / 2} before
    the series of L(0) and by its conjugate after, both as powers of
    e^{i theta / 2} (_phases); an entry with n_j = n_k, the diagonal among
    them, gets the phase 1.
    """
    out, terms = np.zeros_like(Z), []
    for block in blocks:
        phase = _phases(0.5 * theta, block.dn)
        z, count = Z[block.j, block.k] * phase, 0
        if np.any(z):
            z, count = _chebyshev_series(block.setup, z)
        out[block.j, block.k] = z * phase.conj()
        terms.append(count)
    return out, terms


def _segment_check(rho):
    """(|tr rho - 1|, lowest eigenvalue) of a segment's output rho. A trace
    off 1 by more than TRACE_TOL, or an eigenvalue below EIGENVALUE_FLOOR,
    raises RuntimeError."""
    tr = np.trace(rho).real
    if abs(tr - 1.0) > TRACE_TOL:
        raise RuntimeError(f"trace drifted to {tr:.12f} during open evolution")
    low = np.linalg.eigvalsh(rho)[0]
    if low < EIGENVALUE_FLOOR:
        raise RuntimeError(
            f"density matrix developed negative eigenvalue {low:.2e}; "
            "enlarge n_max or check that the input is a valid density matrix")
    return abs(tr - 1.0), low


def open_evolve(rho, params: GateParams, rates: OpenRates, duration, theta=None):
    """Lindblad evolution of the joint density matrix for one gate segment.

    The coherent part is the rotating-frame gate generator at the given
    drive angle (defaults to params.theta); collapse channels are resonator
    damping, qubit relaxation toward |0> and pure dephasing, thermally
    weighted at the bath temperature. The generator is constant over the
    segment, so rho(duration) = exp(duration L) rho is applied exactly.
    L commutes with rho -> Pi rho Pi, Pi = I (x) (-1)^n (the a^2 terms and
    every jump preserve or flip the photon parity on both sides at once),
    so the entries with j + k even and with j + k odd evolve apart. H is
    block-diagonal in the qubit, and no jump maps a qubit coherence |0><1|
    to anything else, so each sector splits again into its populations and
    its coherences (_qubit_blocks). Each block holding a non-zero entry is
    propagated as its complex entries rho_jk, the population blocks over
    both triangles and the coherence blocks over j < n <= k, whose
    conjugates are the |1><0| entries rho_kj. Each generator is assembled
    for its block's rows alone at drive angle 0 (_block_generator), the
    angle enters as phases on the entries (the block segment _open_segment,
    which the protocol shares), and one Chebyshev series with Bessel
    coefficients (_chebyshev_setup, _chebyshev_series), whose length
    follows from the exact 1-norm with no random draws, advances each
    block. The input is Hermitised first, and the output is assembled
    Hermitian by construction, its population part Hermitised and its
    |1><0| part the conjugate of its |0><1| part; a duration of 0
    returns the Hermitised input, exactly at theta = 0 and to rounding at
    other angles. A negative or non-finite duration raises ValueError.
    Trace is monitored to TRACE_TOL and an eigenvalue below
    EIGENVALUE_FLOOR raises, so truncation artifacts surface instead of
    leaking into fidelities.
    """
    n = params.n_max + 1
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (2 * n, 2 * n):
        raise ValueError(f"density matrix must have shape {(2 * n, 2 * n)}")
    if abs(np.trace(rho).real - 1.0) > TRACE_TOL:
        raise ValueError("input density matrix must have unit trace")
    if not (np.isfinite(duration) and duration >= 0.0):
        raise ValueError(f"duration must be finite and >= 0, got {duration!r}")
    rho = 0.5 * (rho + rho.conj().T)
    blocks = _open_generator(params, rates, duration, [
        (name, j, k) for name, j, k in _qubit_blocks(params.n_max) if np.any(rho[j, k])])
    out, _ = _open_segment(rho, blocks, params.theta if theta is None else theta)
    out[n:, :n] = out[:n, n:].conj().T
    out = 0.5 * (out + out.conj().T)  # the coherences exactly, the populations Hermitised
    _segment_check(out)
    return out


def _unitary_sandwich(rho, u_qubit, n):
    U = np.kron(u_qubit, np.eye(n))
    return U @ rho @ U.conj().T


def _open_protocol(alpha, beta, params, rates, record=None):
    """The final joint density matrix of the open protocol for each pair of
    two equal-length sequences alpha and beta, yielded in order, each state
    checked as by open_evolve after each segment.

    After the first Hadamard every input is rho_0 = c00 E00 + c11 E11 +
    c01 E01 + conj(c01) E10, E_qq' = |q><q'| (x) |0><0|, and each segment,
    flip and Hadamard is linear. So the segments propagate the three fixed
    matrices E00, E11 and E01, all in the even sector, as the one matrix
    Z = E00 + i E11 + E01: a population series and a coherence series. L is
    complex-linear and maps Hermitian matrices to Hermitian ones, so the
    population part W of the output is P + i Q, P and Q the images of E00
    and E11, read back as P = (W + W^dag)/2 and Q = (W - W^dag)/2i, and the
    |0><1| part is the image C of E01. Each state after a segment is
    c00 P + c11 Q + c01 C + (c01 C)^dag. The flip carries the E10 part to
    |0><1|: the second segment's input is Flip (W + C^dag) Flip, its
    coherence taken with the coefficient conj(c01). So a sweep takes four
    series whatever its length, and a state's bytes do not depend on the
    other states. An empty sweep builds nothing.

    record, a dict if given, receives under "blocks" each block's series
    norm rho and its series terms per segment, and, once a state is checked,
    the worst |tr rho - 1| ("max_trace_error") and the lowest eigenvalue
    ("min_eigenvalue") over the states and segments checked so far.
    """
    n = params.n_max + 1
    coefficients = []
    for a, b in zip(alpha, beta):
        q0, q1 = hadamard_qubit(joint_vacuum(a, b, params.n_max))[:, 0]
        coefficients.append((abs(q0) ** 2, abs(q1) ** 2, q0 * np.conj(q1)))
    if not coefficients:
        return
    Z = np.zeros((2 * n, 2 * n), dtype=complex)
    Z[0, 0], Z[n, n], Z[0, n] = 1.0, 1j, 1.0
    blocks = _open_generator(params, rates, params.t_gate, _qubit_blocks(params.n_max)[:2])
    outputs, terms = [], []
    for theta in (params.theta, params.theta_tilde):
        W, count = _open_segment(Z, blocks, theta)
        C = np.zeros_like(W)
        C[:n, n:] = W[:n, n:]
        W[:n, n:] = 0.0
        outputs.append((0.5 * (W + W.conj().T), -0.5j * (W - W.conj().T), C))
        terms.append(count)
        Z = _unitary_sandwich(W + C.conj().T, _FLIP, n)
    record = {} if record is None else record
    record["blocks"] = {block.name: {"rho": block.setup.rho, "terms": [t[i] for t in terms]}
                        for i, block in enumerate(blocks)}
    worst, lowest = 0.0, np.inf
    for c00, c11, c01 in coefficients:
        for P, Q, C in outputs:
            coherence = c01 * C
            rho = c00 * P + c11 * Q + coherence + coherence.conj().T
            drift, low = _segment_check(rho)
            worst, lowest = max(worst, drift), min(lowest, low)
            c01 = np.conj(c01)
        record.update(max_trace_error=worst, min_eigenvalue=lowest)
        yield _unitary_sandwich(_unitary_sandwich(rho, _FLIP, n), _HADAMARD, n)


def open_encoding_protocol(alpha, beta, params: GateParams, rates: OpenRates):
    """The six-step encoding with dissipation during both gate segments.

    Qubit gates are instantaneous; the controlled-squeeze segments at
    params.theta and GateParams.theta_tilde each evolve under the Lindblad
    generator for t_gate, with the checks of open_evolve on the state after
    each. Both segments share the block generators of the even sector, built
    at drive angle 0, and their Chebyshev set-ups, the angles entering as
    phases, and propagate three fixed matrices whose combination is the
    input (_open_protocol). Returns the final joint density matrix.
    """
    rho, = _open_protocol([alpha], [beta], params, rates)
    return rho


def open_average_fidelity(alpha, beta, params: GateParams, rates: OpenRates, diagnostics=None):
    """(average fidelity, purity) of the dissipative protocol's output: floats
    for scalar alpha and beta, and arrays, one entry per pair, for
    equal-length 1-D arrays. A whole sweep shares one propagation of the
    three fixed matrices of _open_protocol, four Chebyshev series for any
    number of pairs, and each pair's numbers are the bytes of a call on it
    alone. diagnostics, a dict if given, receives _open_protocol's record.
    """
    scalar = np.ndim(alpha) == np.ndim(beta) == 0
    alpha, beta = np.atleast_1d(alpha), np.atleast_1d(beta)
    if alpha.ndim != 1 or alpha.shape != beta.shape:
        raise ValueError("alpha and beta must be scalars or 1-D arrays of one length")
    n = params.n_max + 1
    fbar, purity = np.zeros(len(alpha)), np.zeros(len(alpha))
    for i, rho in enumerate(_open_protocol(alpha, beta, params, rates, diagnostics)):
        blocks = rho.reshape(2, n, 2, n)
        for q, target in enumerate(_target_states(alpha[i], beta[i], params)):
            fbar[i] += np.real(np.vdot(target, blocks[q, :, q, :] @ target))
        purity[i] = np.real(np.trace(rho @ rho))
    return (float(fbar[0]), float(purity[0])) if scalar else (fbar, purity)


def lab_frame_branch(params: GateParams, qubit_level, psi0, rtol=1e-10):
    """Full time-dependent drive on one qubit branch, no RWA.

    Returns the final resonator state in the frame rotating at the branch
    frequency wb (omega_0 or omega_1), comparable with S(r_gate, theta + pi)
    for |1> or the Stark-shifted rotation for |0>. The branch Hamiltonian
    wb a^dag a + f (a + a^dag)^2, f = g_d eps_d sin(omega_d t - theta), moves
    the quadratures (x, p) by an exact real map S, with no Fock truncation.
    In the phase s = wb t the map obeys d/ds (x, p) = [[0, 1], [-w, 0]] (x, p)
    with w = 1 + 4 f / wb: the canonical field of magnus.field_exponent with
    one mode, lam = 0 and Mhat = 0. S is the monodromy matrix M over one
    drive period, wb T in s (magnus.propagate), to the power k, the number of
    whole periods in wb t_gate, times the remainder. M^k carries up to k
    times the error of M, and the squeeze moves the quadratures of psi0,
    whose size is sqrt<x^2 + p^2> = sqrt(1 + 2<n>), so an error of S grows
    on the state by up to that factor: each period is resolved to
    rtol / (max(1, k) sqrt(1 + 2<n>)), rtol / max(1, k) for the vacuum.
    magnus.propagate builds M from two quarter periods when w is even about
    wb T / 4, i.e. for theta a multiple of pi, and else from the whole
    period. In the rotating frame a(t) = u a + v a^dag, and ||u|^2 - |v|^2 -
    1| > rtol raises RuntimeError. With u = e^{-i phi} cosh r, v = -e^{i(theta_s +
    phi)} sinh r and phi = -arg u (principal branch), the state is e^{-i
    phi/2} S(r, theta_s) R(phi) psi0, the phase being the zero-point part of
    the rotation; S(r, theta_s) is the dense matrix of squeeze_operator, one
    real exponential of its parity blocks. A tolerance that the one-period
    product cannot meet, its share per period below the product's rounding
    floor, raises RuntimeError naming rtol, k, <n> and that share.
    """
    if qubit_level not in (0, 1):
        raise ValueError("qubit_level must be 0 or 1")
    wb = params.omega_1 if qubit_level == 1 else params.omega_0
    period, span = wb * 2.0 * np.pi / params.omega_d, wb * params.t_gate  # in s = wb t
    g = 4.0 * params.drive_rate / wb

    def coefficients(s):  # lam = 0 and w = 1 + 4 f / wb at the phases s
        w = 1.0 + g * np.sin(params.omega_d * (s / wb) - params.theta)
        return np.zeros_like(s), w[..., None]
    k = int(span // period)
    weights = np.abs(psi0) ** 2
    nbar = (np.arange(len(weights)) @ weights) / (weights.sum() or 1.0)  # 0 for psi0 = 0
    tol = rtol / (max(1, k) * np.sqrt(1.0 + 2.0 * nbar))
    try:
        S = propagate(field_exponent(coefficients, np.zeros((1, 1)), np.ones(1)), 0.0, span,
                      np.eye(2), tol, 1.0 + g, period)[0]
    except RuntimeError as exc:
        raise RuntimeError(
            f"lab-frame branch cannot reach rtol {rtol:.1e}: with its k = {k} whole drive periods "
            f"and psi0's <n> = {nbar:.3g}, each period must meet rtol / (max(1, k) sqrt(1 + 2<n>))"
            f" = {tol:.1e}; loosen rtol. {exc}") from exc
    rot = 0.5 * np.exp(1j * wb * params.t_gate)  # rotating-frame a = e^{i wb t} (x + i p) / sqrt 2
    u = rot * ((S[0, 0] + S[1, 1]) + 1j * (S[1, 0] - S[0, 1]))
    v = rot * ((S[0, 0] - S[1, 1]) + 1j * (S[1, 0] + S[0, 1]))
    if (defect := abs(abs(u) ** 2 - abs(v) ** 2 - 1.0)) > rtol:
        raise RuntimeError(f"lab-frame propagator violates |u|^2 - |v|^2 = 1 by "
                           f"{defect:.2e} > rtol {rtol:.1e}")
    phi = -np.angle(u)
    squeeze = squeeze_operator(np.arcsinh(abs(v)), np.angle(-v) - phi, params.n_max)
    return np.exp(-0.5j * phi) * (squeeze @ (rotation_operator(phi, params.n_max) * psi0))
