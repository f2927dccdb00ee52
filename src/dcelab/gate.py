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

Pure joint states are arrays of shape (2, n_max+1), qubit index first;
density matrices are square over the flattened index. hbar = 1, time in ns,
angular frequencies in rad/ns, temperatures in mK.
"""

import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy import sparse

from .cavity import thermal_occupation
from .magnus import expm_taylor, propagate

__all__ = [
    "GateParams",
    "OpenRates",
    "EncodedPair",
    "Measurement",
    "default_cqed_params",
    "lowering_operator",
    "squeeze_operator",
    "rotation_operator",
    "squeeze_state",
    "chi_states",
    "joint_vacuum",
    "hadamard_qubit",
    "flip_qubit",
    "controlled_squeeze",
    "encoding_protocol",
    "encoded_target",
    "qubit_probabilities",
    "conditional_resonator",
    "measure_qubit",
    "parity_measurement",
    "average_fidelity",
    "simulated_average_fidelity",
    "thermal_nbar",
    "open_evolve",
    "open_encoding_protocol",
    "open_average_fidelity",
    "lab_frame_branch",
]

_HBAR_OVER_KB = 7.638232  # mK ns (so x = _HBAR_OVER_KB * omega / T)
_THETA_55 = 9.9  # largest |t A|_1 per step for a degree-55 Taylor step at 2^-53
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
        return tuple(squeeze_operator(self.r_gate, theta, self.n_max)
                     for theta in (self.theta, self.theta_tilde))


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
    tau_r, pure qubit dephasing tau_phi (all ns; inf disables a channel)
    and a common bath temperature in mK feeding thermal occupations."""

    tau_q: float = np.inf
    tau_r: float = np.inf
    tau_phi: float = np.inf
    temperature_mK: float = 0.0

    @classmethod
    def typical(cls):
        return cls(tau_q=200e3, tau_r=200e3, tau_phi=10e3, temperature_mK=60.0)


def thermal_nbar(omega, temperature_mK):
    """Bose occupation at angular frequency omega (rad/ns) and T (mK)."""
    if temperature_mK < 0.0:
        raise ValueError("temperature must be >= 0")
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


def squeeze_operator(r, theta, n_max):
    """Matrix of S(r, theta) = exp[(r/2)(e^{-i th} a^2 - e^{i th} a^dag 2)]."""
    return expm_taylor(_squeeze_generator(r, theta, n_max)[None])[0]


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


def controlled_squeeze(state, r, theta, phi):
    """U(r, theta, phi): squeeze the |1> branch, rotate the |0> branch."""
    return _controlled(state, squeeze_operator(r, theta, state.shape[1] - 1), phi)


def _controlled(state, S, phi):
    """controlled_squeeze with the squeeze matrix S given."""
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


@dataclass(frozen=True)
class Measurement:
    outcome: int
    probability: float
    resonator: np.ndarray


def measure_qubit(state, rng=None):
    """Sample a sigma_z readout and collapse the resonator accordingly."""
    p_plus, p_minus = qubit_probabilities(state)
    if rng is None:
        rng = np.random.default_rng()
    plus = rng.random() < p_plus
    outcome = +1 if plus else -1
    return Measurement(
        outcome=outcome,
        probability=p_plus if plus else p_minus,
        resonator=conditional_resonator(state, outcome))


def parity_measurement(state_or_rho):
    """(p_even, p_odd) of the photon number, for a Fock vector or matrix."""
    x = np.asarray(state_or_rho)
    if x.ndim == 1:
        probs = np.abs(x) ** 2
    elif x.ndim == 2 and x.shape[0] == x.shape[1]:
        probs = np.real(np.diag(x))
    else:
        raise ValueError("expected a Fock vector or a square density matrix")
    p_even = float(np.sum(probs[0::2]))
    p_odd = float(np.sum(probs[1::2]))
    return p_even, p_odd


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
    a = lowering_operator(params.n_max)
    a2 = a @ a
    h1 = 0.5j * params.drive_rate * (np.exp(-1j * theta) * a2
                                     - np.exp(1j * theta) * a2.conj().T)
    h0 = params.delta_tilde * np.diag(np.arange(n, dtype=float))
    H = np.zeros((2 * n, 2 * n), dtype=complex)
    H[:n, :n] = h0
    H[n:, n:] = h1
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


def _liouvillian(H, ls):
    """Sparse Lindblad generator acting on the row-major vec(rho).

    With vec(A rho B) = (A (x) B^T) vec(rho) and the effective generator
    K = -iH - (1/2) sum_k L_k^dag L_k, the master equation reads
    d vec(rho)/dt = [K (x) I + I (x) K^* + sum_k L_k (x) L_k^*] vec(rho).
    """
    K = sparse.csr_array(-1j * H - 0.5 * sum(l.conj().T @ l for l in ls))
    eye = sparse.eye_array(H.shape[0])
    L = sparse.kron(K, eye) + sparse.kron(eye, K.conj())
    for l in ls:
        L = L + sparse.kron(l, l.conj())
    return L.tocsr()


def _hermitian_coordinates(sector):
    """Real coordinates of a Hermitian rho on a symmetric (dim, dim) mask.

    x = (Re rho_jk for j <= k, Im rho_jk for j < k) over the masked entries.
    Returns the sparse maps T, with vec(rho) = T x for the row-major vec of
    the masked rho, and R, with x = Re(R vec(rho)).
    """
    dim = sector.shape[0]
    j, k = np.nonzero(np.triu(sector))  # j <= k: one Re coordinate each
    off = np.flatnonzero(j < k)  # j < k: one Im coordinate each
    n_re, n_im = len(j), len(off)
    re, im = np.arange(n_re), n_re + np.arange(n_im)
    jk, kj = j * dim + k, k * dim + j
    # rho_jk = x_re + i x_im and rho_kj = x_re - i x_im
    T = sparse.csr_array(
        (np.concatenate([np.ones(n_re + n_im), np.full(n_im, 1j), np.full(n_im, -1j)]),
         (np.concatenate([jk, kj[off], jk[off], kj[off]]), np.concatenate([re, re[off], im, im]))),
        shape=(dim * dim, n_re + n_im))
    # x_re = Re rho_jk and x_im = Re(-i rho_jk)
    R = sparse.csr_array(
        (np.concatenate([np.ones(n_re), np.full(n_im, -1j)]),
         (np.concatenate([re, im]), np.concatenate([jk, jk[off]]))),
        shape=(n_re + n_im, dim * dim))
    return T, R


def _expm_action(A, b, t):
    """exp(t A) b for a sparse square A by truncated Taylor steps.

    Al-Mohy & Higham, SIAM J. Sci. Comput. 33, 488 (2011), Algorithm 3.2:
    A is shifted by mu = tr(A)/n, and s = ceil(t ||A - mu I||_1 / theta_55)
    steps of degree at most 55 each stop once two successive terms fall
    below 2^-53 of the partial sum in the inf-norm. The 1-norm is exact, so
    no random numbers are drawn. A real A and b give a real result.
    """
    n = A.shape[0]
    mu = A.trace() / n
    A = A - mu * sparse.eye_array(n, format="csr")
    norm = t * abs(A).sum(axis=0).max()
    if norm == 0.0:  # t = 0 or A a multiple of I
        return np.exp(t * mu) * b
    s = int(np.ceil(norm / _THETA_55))
    eta = np.exp(t * mu / s)
    f = np.array(b, dtype=np.result_type(A.dtype, b.dtype))
    for _ in range(s):
        c1 = np.abs(b).max()
        for j in range(55):
            b = A @ b  # a new array, so b never aliases f below
            b *= t / (s * (j + 1))
            c2 = np.abs(b).max()
            f += b
            if c1 + c2 <= 2.0 ** -53 * np.abs(f).max():
                break
            c1 = c2
        f *= eta
        b = f
    return f


def open_evolve(rho, params: GateParams, rates: OpenRates, duration, theta=None):
    """Lindblad evolution of the joint density matrix for one gate segment.

    The coherent part is the rotating-frame gate generator at the given
    drive angle (defaults to params.theta); collapse channels are resonator
    damping, qubit relaxation toward |0> and pure dephasing, thermally
    weighted at the bath temperature. The generator is constant over the
    segment, so rho(duration) = exp(duration L) rho is applied exactly.
    L commutes with rho -> Pi rho Pi, Pi = I (x) (-1)^n (the a^2 terms and
    every jump preserve or flip the photon parity on both sides at once),
    so the entries with j + k even and with j + k odd evolve apart. L also
    maps Hermitian matrices to Hermitian matrices, so each sector holding a
    non-zero entry is propagated in the real coordinates x = (Re rho_jk,
    j <= k; Im rho_jk, j < k) of its Hermitian part: with vec(rho) = T x and
    x = Re(R vec(rho)), the real generator is Re(R L T), and one
    truncated-Taylor action (Al-Mohy & Higham 2011) with the step count from
    the exact 1-norm and no random draws advances x. The input is
    Hermitised first, and the output T x is Hermitian by construction.
    Trace is monitored to 1e-8 and an eigenvalue below -1e-10 raises, so
    truncation artifacts surface instead of leaking into fidelities.
    """
    dim = 2 * (params.n_max + 1)
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (dim, dim):
        raise ValueError(f"density matrix must have shape {(dim, dim)}")
    if abs(np.trace(rho).real - 1.0) > 1e-8:
        raise ValueError("input density matrix must have unit trace")
    vec = (0.5 * (rho + rho.conj().T)).ravel()
    H = _joint_hamiltonian(params, params.theta if theta is None else theta)
    L = _liouvillian(H, _collapse_operators(params, rates))
    j = np.arange(dim) % (params.n_max + 1)  # photon number of each row of rho
    odd = (j[:, None] + j[None, :]) % 2 == 1
    out = np.zeros(dim * dim, dtype=complex)
    for sector in (~odd, odd):
        if np.any(vec[sector.ravel()]):
            T, R = _hermitian_coordinates(sector)
            x = _expm_action((R @ L @ T).real, (R @ vec).real, duration)
            out += T @ x
    out = out.reshape(dim, dim)
    tr = np.trace(out).real
    if abs(tr - 1.0) > 1e-8:
        raise RuntimeError(f"trace drifted to {tr:.12f} during open evolution")
    low = np.linalg.eigvalsh(out)[0]
    if low < -1e-10:
        raise RuntimeError(
            f"density matrix developed negative eigenvalue {low:.2e}; "
            "enlarge n_max or check that the input is a valid density matrix")
    return out


def _unitary_sandwich(rho, u_qubit, n):
    U = np.kron(u_qubit, np.eye(n))
    return U @ rho @ U.conj().T


def open_encoding_protocol(alpha, beta, params: GateParams, rates: OpenRates):
    """The six-step encoding with dissipation during both gate segments.

    Qubit gates are instantaneous; the controlled-squeeze segments at
    params.theta and GateParams.theta_tilde each evolve under the Lindblad
    generator for t_gate. Returns the final joint density matrix.
    """
    n = params.n_max + 1
    psi = hadamard_qubit(joint_vacuum(alpha, beta, params.n_max)).ravel()
    rho = np.outer(psi, psi.conj())
    for theta in (params.theta, params.theta_tilde):
        rho = _unitary_sandwich(open_evolve(rho, params, rates, params.t_gate, theta=theta),
                                _FLIP, n)
    return _unitary_sandwich(rho, _HADAMARD, n)


def open_average_fidelity(alpha, beta, params: GateParams, rates: OpenRates):
    """(average fidelity, purity) of the dissipative protocol output."""
    n = params.n_max + 1
    rho = open_encoding_protocol(alpha, beta, params, rates)
    t_plus, t_minus = _target_states(alpha, beta, params)
    blocks = rho.reshape(2, n, 2, n)
    fbar = 0.0
    for target, q in [(t_plus, 0), (t_minus, 1)]:
        fbar += np.real(np.vdot(target, blocks[q, :, q, :] @ target))
    purity = float(np.real(np.trace(rho @ rho)))
    return float(fbar), purity


def lab_frame_branch(params: GateParams, qubit_level, psi0, rtol=1e-10):
    """Full time-dependent drive on one qubit branch, no RWA.

    Returns the final resonator state in the frame rotating at the branch
    frequency wb (omega_0 or omega_1), comparable with S(r_gate, theta + pi)
    for |1> or the Stark-shifted rotation for |0>. The branch Hamiltonian
    wb a^dag a + f (a + a^dag)^2, f = g_d eps_d sin(omega_d t - theta), moves
    the quadratures (x, p) by an exact real map S, d/dt (x, p) = [[0, wb],
    [-wb - 4 f, 0]] (x, p), with no Fock truncation. S is the monodromy
    matrix M over one drive period T (magnus.propagate) to the power k =
    floor(t_gate / T), times the remainder. M^k carries up to k times the
    error of M, so each period is resolved to rtol / max(1, k). In the
    rotating frame a(t) = u a + v a^dag, and ||u|^2 - |v|^2 - 1| > rtol raises
    RuntimeError. With u = e^{-i phi} cosh r, v = -e^{i(theta_s + phi)} sinh r
    and phi = -arg u (principal branch), the state is e^{-i phi/2} S(r,
    theta_s) R(phi) psi0, the phase being the zero-point part of the rotation;
    S(r, theta_s) is applied by a truncated-Taylor action on its banded sparse
    generator, not built as a dense exponential.
    """
    if qubit_level not in (0, 1):
        raise ValueError("qubit_level must be 0 or 1")
    wb = params.omega_1 if qubit_level == 1 else params.omega_0
    T = 2.0 * np.pi / params.omega_d

    def A(t):  # d/dt (x, p) = A (x, p) for the lab-frame quadratures
        out = np.zeros(np.shape(t) + (2, 2))
        out[..., 0, 1] = wb
        out[..., 1, 0] = -wb - 4.0 * params.drive_rate * np.sin(params.omega_d * t - params.theta)
        return out
    A.balance = np.ones(2)
    S = propagate(A, 0.0, params.t_gate, np.eye(2), rtol / max(1, int(params.t_gate // T)),
                  wb + 4.0 * params.drive_rate, T)[0]
    rot = 0.5 * np.exp(1j * wb * params.t_gate)  # rotating-frame a = e^{i wb t} (x + i p) / sqrt 2
    u = rot * ((S[0, 0] + S[1, 1]) + 1j * (S[1, 0] - S[0, 1]))
    v = rot * ((S[0, 0] - S[1, 1]) + 1j * (S[1, 0] + S[0, 1]))
    if (defect := abs(abs(u) ** 2 - abs(v) ** 2 - 1.0)) > rtol:
        raise RuntimeError(f"lab-frame propagator violates |u|^2 - |v|^2 = 1 by "
                           f"{defect:.2e} > rtol {rtol:.1e}")
    phi = -np.angle(u)
    squeeze = sparse.csr_array(_squeeze_generator(np.arcsinh(abs(v)), np.angle(-v) - phi,
                                                  params.n_max))
    return np.exp(-0.5j * phi) * _expm_action(
        squeeze, rotation_operator(phi, params.n_max) * psi0, 1.0)
