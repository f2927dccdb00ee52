"""Controlled-squeeze gate: states, protocol, measurement, open system."""

import re
import sys
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from scipy import sparse
from scipy.integrate import solve_ivp
from scipy.linalg import expm
from scipy.sparse.linalg import expm_multiply
from scipy.special import jv

import dcelab.gate as gate
import dcelab.magnus as magnus
from dcelab.gate import (
    EncodedPair,
    GateParams,
    OpenRates,
    average_fidelity,
    chi_states,
    conditional_resonator,
    controlled_squeeze,
    default_cqed_params,
    encoded_target,
    encoding_protocol,
    flip_qubit,
    hadamard_qubit,
    joint_vacuum,
    lab_frame_branch,
    lowering_operator,
    measure_qubit,
    open_average_fidelity,
    open_evolve,
    parity_measurement,
    qubit_probabilities,
    rotation_operator,
    simulated_average_fidelity,
    squeeze_operator,
    squeeze_state,
    thermal_nbar,
)
from dcelab.gate import (
    _bessel_j,
    _block_generator,
    _chebyshev_series,
    _chebyshev_setup,
    _collapse_operators,
    _joint_hamiltonian,
    _qubit_blocks,
    _squeeze_generator,
    _squeeze_matrices,
)

# Frozen closed-form constants, from independent arithmetic on
# cosh 3 = 10.067661995777765 (r = 1.5 throughout).
C_PLUS_15 = 1.146805709137321
C_MINUS_15 = 0.827548587993506
P_PLUS_POLE_15 = 0.657581667254977
FBAR_EQUATOR_15 = 0.974518722649741

# n_max needed for a given r so the squeezed-vacuum tail stays small; the
# tail decays like tanh(r)^n, so large r needs disproportionately more.
NMAX_FOR_R = {0.5: 80, 1.0: 80, 1.5: 160, 2.0: 260}


def design_point_state():
    """The configs/gate_open.yaml point (r = 0.5 at g_d eps_d = 7.5e-3 rad/ns,
    n_max 40) and a pure joint state with both qubit levels and both photon
    parities populated, as (params, psi of shape (2, 41))."""
    p = default_cqed_params(t_gate=0.5 / 7.5e-3, n_max=40)
    psi = hadamard_qubit(joint_vacuum(np.sqrt(0.75), 0.5, 40))
    psi[:, 1] = 0.5 * psi[:, 0]
    return p, psi / np.linalg.norm(psi)


def params_for(r, **kw):
    kw.setdefault("n_max", NMAX_FOR_R.get(r, 80))
    return default_cqed_params(t_gate=r / 0.0075, **kw)


def fock_lab_frame(p, qubit_level, psi0):
    """Reference for lab_frame_branch: DOP853 at rtol 1e-12 on the truncated
    Fock-space Schroedinger equation of one branch,
    i dpsi/dt = f(t) [e^{-2i wb t} a^2 + e^{2i wb t} a^dag 2 + 2n + 1] psi."""
    wb = p.omega_1 if qubit_level == 1 else p.omega_0
    a = lowering_operator(p.n_max)
    a2 = a @ a
    diag = 2.0 * np.arange(p.n_max + 1) + 1.0

    def rhs(t, psi):
        f = p.drive_rate * np.sin(p.omega_d * t - p.theta)
        return -1j * f * (np.exp(-2j * wb * t) * (a2 @ psi)
                          + np.exp(2j * wb * t) * (a2.T @ psi) + diag * psi)
    sol = solve_ivp(rhs, (0.0, p.t_gate), psi0.astype(complex), method="DOP853",
                    rtol=1e-12, atol=1e-14)
    assert sol.success
    return sol.y[:, -1]


def _expm_traceless(x):
    """exp X = cosh s I + (sinh s / s) X, s^2 = -det X, for x of shape (3, m)."""
    s = np.sqrt(x[0] ** 2 + x[1] * x[2])
    c, k = np.cosh(s), np.sinc(1j * s / np.pi)  # sinc(i s / pi) = sinh s / s
    return np.stack([c + k * x[0], k * x[1], k * x[2], c - k * x[0]], -1).reshape(-1, 2, 2)


def _magnus6(a1, a2, a3, h):
    """Sixth-order Magnus exponent (Blanes, Casas & Ros) of traceless 2x2
    generators held as (x0, x1, x2) for [[x0, x1], [x2, -x0]]."""
    def bracket(x, y):
        return np.stack([x[1] * y[2] - x[2] * y[1], 2.0 * (x[0] * y[1] - x[1] * y[0]),
                         2.0 * (x[2] * y[0] - x[0] * y[2])])
    b1, b2 = h * a2, (np.sqrt(15.0) * h / 3.0) * (a3 - a1)
    b3 = (10.0 * h / 3.0) * (a3 - 2.0 * a2 + a1)
    c1 = bracket(b1, b2)
    c2 = bracket(b1, 2.0 * b3 + c1) / -60.0
    return b1 + b3 / 12.0 + bracket(-20.0 * b1 - b3 + c1, b2 + c2) / 240.0


def rotating_frame_product(p, wb, n_steps):
    """Whole-span reference for lab_frame_branch: the (u, conj v) propagator
    of the rotating-frame equation d/dt (u, conj v) = 2i f [[-1, -e^{2i wb t}],
    [e^{-2i wb t}, 1]] (u, conj v), f = g_d eps_d sin(omega_d t - theta),
    as n_steps sixth-order Magnus steps over [0, t_gate], each exponentiated
    in closed form and multiplied pairwise in batches of 2048."""
    h, prod = p.t_gate / n_steps, np.eye(2, dtype=complex)
    for start in range(0, n_steps, 2048):
        t = h * (np.arange(start, min(start + 2048, n_steps)) + magnus.GAUSS_NODES[:, None])
        f = 2j * p.drive_rate * np.sin(p.omega_d * t - p.theta)
        w = np.exp(2j * wb * t)
        a1, a2, a3 = np.stack([-f, -f * w, f / w], axis=1)  # A(t) at each node
        e = _expm_traceless(_magnus6(a1, a2, a3, h))
        while len(e) > 1:  # later steps act on the left; an unpaired last one waits
            e = np.concatenate([e[1::2] @ e[:-1:2], e[2 * (len(e) // 2):]])
        prod = e[0] @ prod
    return prod


def _liouvillian(H, ls):
    """Reference for gate._block_generator: the sparse Lindblad generator
    acting on the row-major vec(rho), built from Kronecker products.

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


def parity_sectors(n_max):
    """The entries (j, k) of the joint density matrix with j + k even and
    with j + k odd photons: two (j, k) pairs of index arrays, row-major."""
    photons = np.arange(2 * (n_max + 1)) % (n_max + 1)
    j, k = np.indices((len(photons), len(photons))).reshape(2, -1)
    odd = (photons[j] + photons[k]) % 2 == 1
    return (j[~odd], k[~odd]), (j[odd], k[odd])


def upper_parity_sectors(n_max):
    """The entries (j, k), j <= k, of each sector of parity_sectors."""
    return [(j[j <= k], k[j <= k]) for j, k in parity_sectors(n_max)]


def _hermitian_coordinates(j, k, dim):
    """Real coordinates of a Hermitian rho, a reference that tests a real
    generator against: the sparse maps T and R of a Hermitian rho on the
    entries (j, k), j <= k, of one sector.

    x = (Re rho_jk for every (j, k), Im rho_jk for j < k). T gives
    vec(rho) = T x for the row-major vec of rho on the sector, and R gives
    x = Re(R vec(rho)), so the sector's real generator is Re(R L T).
    """
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
    """exp(t A) b for a sparse square A: one set-up and one Chebyshev series
    of the open gate, its term count dropped."""
    return _chebyshev_series(_chebyshev_setup(A, t), b)[0]


def _taylor_action(A, b, t):
    """Reference for _expm_action: exp(t A) b by truncated Taylor steps.

    Al-Mohy & Higham, SIAM J. Sci. Comput. 33, 488 (2011), Algorithm 3.2:
    A is shifted by mu = tr(A)/n, and s = ceil(t ||A - mu I||_1 / 9.9) steps
    of degree at most 55 each stop once two successive terms fall below
    2^-53 of the partial sum in the inf-norm (9.9 is the largest step norm
    a degree-55 step resolves to 2^-53).
    """
    n = A.shape[0]
    mu = A.trace() / n
    A = A - mu * sparse.eye_array(n, format="csr")
    norm = t * abs(A).sum(axis=0).max()
    if norm == 0.0:
        return np.exp(t * mu) * b
    s = int(np.ceil(norm / 9.9))
    eta = np.exp(t * mu / s)
    f = np.array(b, dtype=np.result_type(A.dtype, b.dtype))
    for _ in range(s):
        c1 = np.abs(b).max()
        for j in range(55):
            b = A @ b
            b *= t / (s * (j + 1))
            c2 = np.abs(b).max()
            f += b
            if c1 + c2 <= 2.0 ** -53 * np.abs(f).max():
                break
            c1 = c2
        f *= eta
        b = f
    return f


def series_norm(A, t):
    """rho = t ||A - mu I||_1, mu = tr(A)/n: the argument of the Bessel
    coefficients of _expm_action."""
    n = A.shape[0]
    return t * abs(A - A.trace() / n * sparse.eye_array(n)).sum(axis=0).max()


class CountingArray(sparse.csr_array):
    """A CSR matrix that counts its products with vectors; the matrices
    derived from it (A - mu I, its multiples) count into the same total."""

    products = 0

    def __matmul__(self, other):
        if np.ndim(other) == 1:
            CountingArray.products += 1
        return super().__matmul__(other)


def branch_state(p, U, psi0):
    """e^{-i phi/2} S(r, theta_s) R(phi) psi0 from the (u, conj v) propagator U."""
    u, v = U[0, 0], np.conj(U[1, 0])
    phi = -np.angle(u)
    S = squeeze_operator(np.arcsinh(abs(v)), np.angle(-v) - phi, p.n_max)
    return np.exp(-0.5j * phi) * (S @ (rotation_operator(phi, p.n_max) * psi0))


class TestParams:
    def test_default_gate_squeezing(self):
        p = default_cqed_params()
        assert p.r_gate == pytest.approx(1.5, abs=1e-12)
        assert p.omega_d == pytest.approx(2.0 * (p.omega - p.chi), abs=1e-12)
        assert p.delta == pytest.approx(2.0 * p.chi, abs=1e-15)

    def test_stark_shift_reduces_detuning(self):
        p = default_cqed_params()
        assert p.delta_tilde < p.delta
        expect = p.delta * (1.0 - 0.5 * (p.drive_rate / p.delta) ** 2)
        assert p.delta_tilde == pytest.approx(expect, rel=1e-14)

    def test_warns_when_detuning_not_dominant(self):
        with pytest.warns(UserWarning, match="not large against"):
            default_cqed_params(chi=2 * np.pi * 1e-4)

    def test_validation(self):
        with pytest.raises(ValueError, match="n_max"):
            default_cqed_params(n_max=1)
        with pytest.raises(ValueError, match="t_gate"):
            default_cqed_params(t_gate=-1.0)


class TestSqueezeState:
    def test_zero_squeezing_is_vacuum(self):
        psi = squeeze_state(0.0, 1.3, 20)
        assert psi[0] == 1.0
        assert np.all(psi[1:] == 0.0)

    def test_even_parity(self):
        psi = squeeze_state(1.5, 0.4, 160, leak_tol=1e-3)
        assert np.max(np.abs(psi[1::2])) < 1e-14

    def test_mean_photon_number(self):
        # sinh^2 r to 1e-6 requires the tail itself below that: n_max=320
        # at r=1.5 (the n_max=80 default tail is 5.6e-5, pinned below).
        psi = squeeze_state(1.5, 0.0, 320)
        mean = np.sum(np.arange(321) * np.abs(psi) ** 2)
        assert mean == pytest.approx(np.sinh(1.5) ** 2, abs=1e-6)

    def test_default_truncation_tail_pinned(self):
        psi = squeeze_state(1.5, 0.0, 80, leak_tol=1e-3)
        tail = 1.0 - np.sum(np.abs(psi) ** 2)
        assert tail == pytest.approx(5.56e-5, rel=0.05)

    def test_matches_matrix_exponential(self):
        # the truncated-generator exponential deviates near the edge of the
        # ladder, so compare the interior block
        vac = np.zeros(81, dtype=complex)
        vac[0] = 1.0
        for r, th in [(0.5, 0.0), (1.0, 2.1)]:
            via_expm = squeeze_operator(r, th, 80) @ vac
            diff = np.abs(via_expm - squeeze_state(r, th, 80))
            assert np.max(diff[:41]) < 1e-10

    def test_leak_raises(self):
        with pytest.raises(ValueError, match="enlarge n_max"):
            squeeze_state(1.5, 0.0, 80)

    def test_negative_r_rejected(self):
        with pytest.raises(ValueError, match="r must be"):
            squeeze_state(-0.5, 0.0, 40)


class TestChiStates:
    def test_normalization_constants(self):
        pair = chi_states(1.5, 0.3, 200)
        assert pair.c_plus == pytest.approx(C_PLUS_15, abs=1e-12)
        assert pair.c_minus == pytest.approx(C_MINUS_15, abs=1e-12)

    def test_orthonormal(self):
        pair = chi_states(1.5, 0.3, 200)
        assert abs(np.vdot(pair.chi_plus, pair.chi_minus)) < 1e-10
        assert np.linalg.norm(pair.chi_plus) == pytest.approx(1.0, abs=1e-9)
        assert np.linalg.norm(pair.chi_minus) == pytest.approx(1.0, abs=1e-9)

    def test_photon_number_sectors(self):
        pair = chi_states(1.2, 1.0, 160)
        occ_p = np.where(np.abs(pair.chi_plus) > 1e-12)[0]
        occ_m = np.where(np.abs(pair.chi_minus) > 1e-12)[0]
        assert np.all(occ_p % 4 == 0)
        assert np.all(occ_m % 4 == 2)

    def test_degenerate_at_zero_squeezing(self):
        with pytest.raises(ValueError, match="degenerate"):
            chi_states(0.0, 0.0, 40)

    def test_photon_loss_flips_parity(self):
        pair = chi_states(1.5, 0.3, 200)
        assert parity_measurement(pair.chi_plus)[0] == pytest.approx(1.0, abs=1e-9)
        lost = lowering_operator(200) @ pair.chi_plus
        lost /= np.linalg.norm(lost)
        p_even, p_odd = parity_measurement(lost)
        assert p_odd == pytest.approx(1.0, abs=1e-12)
        assert p_even == 0.0


class TestParityMeasurement:
    def test_vacuum_even(self):
        vac = np.zeros(10)
        vac[0] = 1.0
        assert parity_measurement(vac) == (1.0, 0.0)

    def test_density_matrix_input(self):
        psi = squeeze_state(0.8, 0.0, 60)
        rho = np.outer(psi, psi.conj())
        p_even, p_odd = parity_measurement(rho)
        assert p_even == pytest.approx(1.0, abs=1e-9)
        assert p_even + p_odd == pytest.approx(1.0, abs=1e-9)

    def test_rejects_bad_shape(self):
        with pytest.raises(ValueError, match="Fock vector"):
            parity_measurement(np.zeros((2, 3)))


class TestControlledSqueeze:
    def test_branch_selection(self):
        psi = joint_vacuum(0.0, 1.0, 120)
        out = controlled_squeeze(psi, 1.0, 0.4, 2.0)
        assert np.allclose(out[0], 0.0)
        diff = np.abs(out[1] - squeeze_state(1.0, 0.4, 120))
        assert np.max(diff[:61]) < 1e-10  # interior; ladder edge is expm-soft
        assert np.abs(np.vdot(squeeze_state(1.0, 0.4, 120), out[1])) ** 2 \
            > 1.0 - 1e-12

    def test_rotation_branch_number_conserving(self):
        psi = np.zeros((2, 41), dtype=complex)
        psi[0, :5] = np.sqrt([0.1, 0.2, 0.3, 0.25, 0.15])
        out = controlled_squeeze(psi, 1.0, 0.0, 1.7)
        assert np.allclose(np.abs(out[0]) ** 2, np.abs(psi[0]) ** 2, atol=1e-14)

    def test_commutes_with_qubit_projection(self):
        psi = joint_vacuum(0.6, 0.8, 60)
        psi[0, 2] = 0.3
        psi /= np.linalg.norm(psi)
        out = controlled_squeeze(psi, 0.7, 0.2, 0.9)
        proj_then = controlled_squeeze(psi * np.array([[1.0], [0.0]]), 0.7, 0.2, 0.9)
        assert np.allclose(out[0], proj_then[0], atol=1e-14)
        assert np.allclose(proj_then[1], 0.0)

    def test_unitary(self):
        psi = joint_vacuum(0.6, 0.8, 120)
        out = controlled_squeeze(psi, 1.3, 0.2, 0.9)
        assert np.linalg.norm(out) == pytest.approx(1.0, abs=1e-12)


class TestClosedSqueezes:
    def test_both_angles_match_dense_expm_at_the_design_point(self):
        # D S(r, 0) D^dag from the real parity blocks against the dense
        # exponential of the complex generator at each gate angle; theta_tilde
        # is about -37 here, so the phases e^{i theta m} run to m = 80
        for theta in (0.0, 2.1):
            p = default_cqed_params(n_max=160, theta=theta)
            assert p.r_gate == pytest.approx(1.5)
            for th, S in zip((p.theta, p.theta_tilde), p._squeezes):
                ref = expm(_squeeze_generator(p.r_gate, th, p.n_max))
                assert np.abs(S - ref).max() < 2e-14

    def test_odd_truncation(self):
        # n_max 41: even and odd blocks of equal size, no padding
        p = default_cqed_params(n_max=41, t_gate=0.5 / 7.5e-3)
        for th, S in zip((p.theta, p.theta_tilde), p._squeezes):
            assert np.abs(S - expm(_squeeze_generator(p.r_gate, th, 41))).max() < 1e-14

    @pytest.mark.parametrize("n_max", [40, 41])
    def test_former_matches_dense_expm(self, n_max):
        # the one former of every squeeze, at a plain angle and at the second
        # gate angle of the default point (about -37), with the odd block
        # padded (n_max 40) or not (n_max 41)
        theta_tilde = default_cqed_params().theta_tilde
        assert -38.0 < theta_tilde < -36.0
        thetas = (2.1, theta_tilde)
        for r in (0.5, 1.5):
            for th, S in zip(thetas, _squeeze_matrices(r, thetas, n_max)):
                assert np.abs(S - expm(_squeeze_generator(r, th, n_max))).max() < 2e-14
                assert np.array_equal(S, squeeze_operator(r, th, n_max))


class TestEncodingProtocol:
    def test_matches_direct_construction(self):
        # the two routes share only GateParams.theta_tilde: six matrix-product
        # steps versus assembling chi_pm from analytic Fock amplitudes
        p = default_cqed_params(n_max=220)
        psi = encoding_protocol(0.6, 0.8, p)
        target = encoded_target(0.6, 0.8, p)
        overlap = np.abs(np.vdot(target.ravel(), psi.ravel())) ** 2
        assert overlap > 1.0 - 1e-8

    def test_norm_preserved(self):
        psi = encoding_protocol(0.6, 0.8, default_cqed_params())
        assert np.linalg.norm(psi) == pytest.approx(1.0, abs=1e-12)

    def test_zero_drive_is_identity(self):
        p = default_cqed_params(eps_d=0.0)
        psi = encoding_protocol(0.6, 0.8, p)
        assert np.max(np.abs(psi - joint_vacuum(0.6, 0.8, p.n_max))) < 1e-12

    def test_pole_input_structure(self):
        # alpha=1: the |0> readout carries chi_+ with weight c_+^2/2
        p = default_cqed_params(n_max=160)
        psi = encoding_protocol(1.0, 0.0, p)
        pair = chi_states(p.r_gate, p.theta - 2 * p.phi_gate + np.pi, p.n_max,
                          p.leak_tol)
        cond = conditional_resonator(psi, +1)
        assert np.abs(np.vdot(pair.chi_plus, cond)) ** 2 > 1.0 - 1e-6
        p_plus, _ = qubit_probabilities(psi)
        assert p_plus == pytest.approx(pair.c_plus**2 / 2.0, abs=1e-6)

    def test_rejects_unnormalized_input(self):
        with pytest.raises(ValueError, match="normalized"):
            encoding_protocol(1.0, 0.5, default_cqed_params())


class TestMeasurement:
    def test_equator_probabilities_exact(self):
        psi = encoding_protocol(np.sqrt(0.5), np.sqrt(0.5), default_cqed_params())
        p_plus, p_minus = qubit_probabilities(psi)
        assert p_plus == pytest.approx(0.5, abs=1e-12)
        assert p_minus == pytest.approx(0.5, abs=1e-12)

    def test_pole_probability_closed_form(self):
        psi = encoding_protocol(1.0, 0.0, default_cqed_params(n_max=160))
        p_plus, _ = qubit_probabilities(psi)
        assert p_plus == pytest.approx(P_PLUS_POLE_15, abs=1e-6)

    def test_complex_amplitudes_use_moduli(self):
        a = np.sqrt(0.7) * np.exp(0.9j)
        b = np.sqrt(0.3) * np.exp(-0.4j)
        psi = encoding_protocol(a, b, default_cqed_params(n_max=160))
        p_plus, _ = qubit_probabilities(psi)
        expect = 0.5 * (1.0 + 0.4 / np.sqrt(np.cosh(3.0)))
        assert p_plus == pytest.approx(expect, abs=1e-6)

    def test_sampling_statistics(self):
        psi = encoding_protocol(1.0, 0.0, default_cqed_params(n_max=120))
        p_plus, _ = qubit_probabilities(psi)
        rng = np.random.default_rng(42)
        shots = 100_000
        hits = sum(measure_qubit(psi, rng).outcome == +1 for _ in range(shots))
        sigma = np.sqrt(p_plus * (1.0 - p_plus) / shots)
        assert abs(hits / shots - p_plus) < 3.0 * sigma

    def test_collapse_is_normalized_and_consistent(self):
        psi = encoding_protocol(0.6, 0.8, default_cqed_params())
        m = measure_qubit(psi, np.random.default_rng(3))
        assert m.outcome in (+1, -1)
        assert np.linalg.norm(m.resonator) == pytest.approx(1.0, abs=1e-12)
        p_plus, p_minus = qubit_probabilities(psi)
        assert m.probability == pytest.approx(
            p_plus if m.outcome == +1 else p_minus, abs=1e-12)

    def test_zero_probability_branch_rejected(self):
        with pytest.raises(ValueError, match="zero probability"):
            conditional_resonator(joint_vacuum(1.0, 0.0, 10), -1)

    def test_outcome_must_be_plus_or_minus_one(self):
        psi = encoding_protocol(0.6, 0.8, default_cqed_params())
        for outcome in (0, 2, -2, 0.5):
            with pytest.raises(ValueError, match=r"\+1 or -1"):
                conditional_resonator(psi, outcome)


class TestAverageFidelity:
    def test_poles_perfect(self):
        for r in [0.3, 1.5, 2.5]:
            assert average_fidelity(r, 1.0) == 1.0
            assert average_fidelity(r, -1.0) == 1.0

    def test_strong_squeezing_limit(self):
        assert average_fidelity(20.0, 0.0) == pytest.approx(1.0, abs=1e-12)

    def test_equator_value_frozen(self):
        assert average_fidelity(1.5, 0.0) == pytest.approx(
            FBAR_EQUATOR_15, abs=1e-12)

    def test_domain_validation(self):
        with pytest.raises(ValueError):
            average_fidelity(-0.1, 0.0)
        with pytest.raises(ValueError):
            average_fidelity(1.0, 1.5)

    def test_closed_form_matches_simulation_grid(self):
        worst = 0.0
        for r in [0.5, 1.0, 1.5, 2.0]:
            for pz in [0.0, 0.5, 1.0]:
                a = np.sqrt((1.0 + pz) / 2.0)
                b = np.sqrt((1.0 - pz) / 2.0)
                sim = simulated_average_fidelity(a, b, params_for(r))
                worst = max(worst, abs(sim - average_fidelity(r, pz)))
        assert worst < 1e-3

    def test_simulation_angle_independent(self):
        a = b = np.sqrt(0.5)
        f0 = simulated_average_fidelity(a, b, default_cqed_params(n_max=160))
        f1 = simulated_average_fidelity(a, b, default_cqed_params(n_max=160,
                                                                  theta=1.1))
        assert f0 == pytest.approx(f1, abs=1e-10)
        assert f0 == pytest.approx(FBAR_EQUATOR_15, abs=1e-6)


class TestThermalOccupation:
    def test_values_at_60mK(self):
        # 6 GHz and 4 GHz modes against a 60 mK bath (hbar omega / k_B T
        # of 4.80 and 3.20)
        assert thermal_nbar(2 * np.pi * 6.0, 60.0) == pytest.approx(
            0.0083043764, abs=1e-9)
        assert thermal_nbar(2 * np.pi * 4.0, 60.0) == pytest.approx(
            0.0425167396, abs=1e-9)

    def test_zero_temperature(self):
        assert thermal_nbar(2 * np.pi * 6.0, 0.0) == 0.0

    def test_negative_temperature_rejected(self):
        with pytest.raises(ValueError):
            thermal_nbar(1.0, -1.0)

    @pytest.mark.parametrize("temperature", [np.nan, np.inf])
    def test_temperature_that_is_not_finite_rejected(self, temperature):
        # NaN gave 0 (a 0 K bath), inf failed in the Bose function without
        # naming the temperature
        with pytest.raises(ValueError, match="temperature must be finite and >= 0"):
            thermal_nbar(1.0, temperature)
        p, psi = design_point_state()
        rates = OpenRates(tau_q=2e5, temperature_mK=temperature)
        with pytest.raises(ValueError, match="temperature must be finite and >= 0"):
            open_evolve(np.outer(psi.ravel(), psi.ravel().conj()), p, rates, 1.0)

    def test_cold_bath_is_the_cavity_bose_function_without_overflow(self):
        omega = 2 * np.pi * 6.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for T in (60.0, 5.0, 1.0):
                assert thermal_nbar(omega, T) == 1.0 / np.expm1(7.638232 * omega / T)
            # hbar omega / k_B T = 2880: expm1 alone overflows
            assert thermal_nbar(omega, 0.1) == 0.0


class TestOpenRates:
    @pytest.mark.parametrize("field, value", [("tau_r", 0.0), ("tau_q", -100.0),
                                              ("tau_q", np.nan), ("tau_phi", -np.inf)])
    def test_lifetime_that_is_not_positive_rejected(self, field, value):
        # 0 raised ZeroDivisionError, a negative tau gave NaN rates and NaN
        # switched the channel off
        with pytest.raises(ValueError, match=rf"OpenRates\.{field} must be > 0"):
            OpenRates(**{field: value})

    def test_infinite_lifetime_disables_the_channel(self):
        p = default_cqed_params(n_max=4)
        assert _collapse_operators(p, OpenRates()) == []
        assert len(_collapse_operators(p, OpenRates(tau_q=100.0))) == 1


class TestOpenEvolve:
    def test_dissipation_free_matches_closed_gate(self):
        p = default_cqed_params(t_gate=100.0, n_max=40)
        psi = joint_vacuum(0.6, 0.8, 40)
        psi = hadamard_qubit(psi)
        rho = np.outer(psi.ravel(), psi.ravel().conj())
        out = open_evolve(rho, p, OpenRates(), p.t_gate)
        closed = controlled_squeeze(psi, p.r_gate, p.theta, p.phi_gate).ravel()
        fidelity = np.real(np.vdot(closed, out @ closed))
        assert fidelity == pytest.approx(1.0, abs=1e-6)

    def test_stationary_state_unchanged(self):
        p = default_cqed_params(eps_d=0.0, n_max=20)
        probs = np.exp(-0.3 * np.arange(21))
        probs /= probs.sum()
        rho = np.zeros((42, 42), dtype=complex)
        rho[:21, :21] = np.diag(probs)  # diagonal in the rotating branch
        out = open_evolve(rho, p, OpenRates(), 50.0)
        assert np.max(np.abs(out - rho)) < 1e-9

    def test_trace_preserved_with_losses(self):
        p = default_cqed_params(t_gate=60.0, n_max=30)
        psi = joint_vacuum(np.sqrt(0.5), np.sqrt(0.5), 30)
        rho = np.outer(psi.ravel(), psi.ravel().conj())
        out = open_evolve(rho, p, OpenRates.typical(), p.t_gate)
        assert abs(np.trace(out).real - 1.0) < 1e-8
        assert np.linalg.eigvalsh(out)[0] > -1e-10

    def test_purity_decreases_with_losses(self):
        p = default_cqed_params(t_gate=60.0, n_max=30)
        psi = joint_vacuum(np.sqrt(0.5), np.sqrt(0.5), 30)
        rho = np.outer(psi.ravel(), psi.ravel().conj())
        out = open_evolve(rho, p, OpenRates(tau_phi=1e3), p.t_gate)
        assert np.real(np.trace(out @ out)) < 1.0 - 1e-6

    def test_invalid_inputs_rejected(self):
        p = default_cqed_params(n_max=10)
        rho = np.eye(22, dtype=complex) / 22.0
        with pytest.raises(ValueError, match="unit trace"):
            open_evolve(2.0 * rho, p, OpenRates(), 1.0)
        with pytest.raises(ValueError, match="shape"):
            open_evolve(np.eye(10) / 10.0, p, OpenRates(), 1.0)

    @pytest.mark.parametrize("duration", [-1.0, -50.0, np.nan, np.inf])
    def test_invalid_duration_rejected(self, duration):
        p, psi = design_point_state()
        rho = np.outer(psi.ravel(), psi.ravel().conj())
        with pytest.raises(ValueError, match=r"duration must be finite and >= 0"):
            open_evolve(rho, p, OpenRates.typical(), duration)

    def test_zero_duration_returns_the_hermitised_input(self):
        p, psi = design_point_state()
        rho = np.outer(psi.ravel(), psi.ravel().conj())
        rho[0, 1] += 1e-3  # an anti-Hermitian part, removed by the Hermitisation
        rho[1, 0] -= 1e-3
        out = open_evolve(rho, p, OpenRates.typical(), 0.0)
        assert np.array_equal(out, 0.5 * (rho + rho.conj().T))

    def test_matches_dense_superoperator_exponential(self):
        # Independent reference: the superoperator is assembled column by
        # column from the master equation applied to each matrix unit, so it
        # shares no vectorisation or kron ordering with open_evolve; all
        # thermal channels are on.
        p = default_cqed_params(n_max=5)
        rates = OpenRates.typical()
        H = _joint_hamiltonian(p, p.theta)
        ls = _collapse_operators(p, rates)
        dim = H.shape[0]

        def lindblad(r):
            d = -1j * (H @ r - r @ H)
            for l in ls:
                ll = l.conj().T @ l
                d += l @ r @ l.conj().T - 0.5 * (ll @ r + r @ ll)
            return d

        units = np.eye(dim * dim, dtype=complex).reshape(dim * dim, dim, dim)
        sup = np.column_stack([lindblad(u).ravel() for u in units])
        vacuum = hadamard_qubit(joint_vacuum(np.sqrt(0.75), 0.5, 5))
        # resonator in (|0> + |1>)/sqrt2: both photon-parity sectors populated
        superposed = vacuum.copy()
        superposed[:, 1] = superposed[:, 0]
        superposed /= np.sqrt(2.0)
        for psi in (vacuum.ravel(), superposed.ravel()):
            rho = np.outer(psi, psi.conj())
            expected = (expm(p.t_gate * sup) @ rho.ravel()).reshape(dim, dim)
            out = open_evolve(rho, p, rates, p.t_gate)
            assert np.max(np.abs(out - expected)) < 1e-12

    @pytest.mark.parametrize("theta", [0.7, -10.23, 1.5 * np.pi + 20.0 * np.pi])
    def test_drive_angle_matches_the_liouvillian_at_that_angle(self, theta):
        # the angle enters as phases on the coordinates of the theta = 0
        # generator; the reference is the dense exponential of the
        # Kronecker Liouvillian built at theta itself. Both parities and
        # both qubit levels are populated, every channel is on, and -10.23
        # is gate_open's second gate angle
        p = default_cqed_params(t_gate=0.5 / 7.5e-3, n_max=8)
        rates = OpenRates.typical()
        psi = hadamard_qubit(joint_vacuum(np.sqrt(0.75), 0.5, 8))
        psi[:, 1] = 0.5 * psi[:, 0]
        psi[:, 2] = -0.3j * psi[:, 0]
        psi = psi.ravel() / np.linalg.norm(psi)
        rho = np.outer(psi, psi.conj())
        L = _liouvillian(_joint_hamiltonian(p, theta), _collapse_operators(p, rates))
        expected = (expm(p.t_gate * L.toarray()) @ rho.ravel()).reshape(rho.shape)
        out = open_evolve(rho, p, rates, p.t_gate, theta=theta)
        assert np.abs(out - expected).max() <= 1e-13

    def test_independent_of_the_global_random_stream(self):
        # the sparse exponential draws no random numbers (its 1-norm is
        # exact), so the gate tables do not depend on the np.random stream
        # that anything run before them in the process has advanced
        p = default_cqed_params(n_max=16)
        psi = hadamard_qubit(joint_vacuum(np.sqrt(0.75), 0.5, 16)).ravel()
        rho = np.outer(psi, psi.conj())
        outs = set()
        state = np.random.get_state()
        try:
            for seed in (0, 1, 2, 3, 12345, 2**32 - 1):
                np.random.seed(seed)
                outs.add(open_evolve(rho, p, OpenRates.typical(), p.t_gate).tobytes())
        finally:
            np.random.set_state(state)
        assert len(outs) == 1

    def test_leaves_the_global_random_stream_untouched(self):
        p = default_cqed_params(n_max=16)
        psi = hadamard_qubit(joint_vacuum(np.sqrt(0.75), 0.5, 16)).ravel()
        rho = np.outer(psi, psi.conj())
        state = np.random.get_state()
        try:
            np.random.seed(0)
            expected = np.random.random()
            np.random.seed(0)
            open_evolve(rho, p, OpenRates.typical(), p.t_gate)
            assert np.random.random() == expected
        finally:
            np.random.set_state(state)

    def test_random_stream_restored_under_concurrent_calls(self):
        # a save in one thread between another thread's save and restore
        # would leave the stream advanced once both have restored
        p = default_cqed_params(n_max=6)
        psi = hadamard_qubit(joint_vacuum(np.sqrt(0.75), 0.5, 6)).ravel()
        rho = np.outer(psi, psi.conj())
        state, interval = np.random.get_state(), sys.getswitchinterval()
        try:
            np.random.seed(0)
            expected = np.random.random()
            np.random.seed(0)
            sys.setswitchinterval(1e-6)
            with ThreadPoolExecutor(max_workers=4) as pool:
                futures = [pool.submit(open_evolve, rho, p, OpenRates.typical(), p.t_gate)
                           for _ in range(16)]
                for future in futures:
                    future.result(timeout=60)
            assert np.random.random() == expected
        finally:
            sys.setswitchinterval(interval)
            np.random.set_state(state)

    def test_liouvillian_preserves_photon_parity(self):
        # every channel on, thermal excitation included: no stored entry may
        # couple a coordinate with j + k even to one with j + k odd
        p = default_cqed_params(n_max=7)
        ls = _collapse_operators(p, OpenRates.typical())
        assert len(ls) == 5  # a, a^dag, sigma_-, sigma_+, sigma_z
        coo = _liouvillian(_joint_hamiltonian(p, 0.3), ls).tocoo()
        photons = np.arange(2 * (p.n_max + 1)) % (p.n_max + 1)
        parity = ((photons[:, None] + photons[None, :]) % 2).ravel()
        assert np.all(coo.data[parity[coo.row] != parity[coo.col]] == 0)
        assert np.any(coo.data[parity[coo.row] == 1] != 0)  # the odd block is not empty

    def test_pure_dephasing_damps_only_the_qubit_coherences(self):
        # sigma_z commutes with the gate generator, and its dissipator
        # multiplies the off-diagonal qubit blocks by e^{-t/tau_phi}
        p, psi = design_point_state()
        n = p.n_max + 1
        rates = OpenRates(tau_phi=100.0)
        out = open_evolve(np.outer(psi.ravel(), psi.ravel().conj()), p, rates, p.t_gate)
        closed = controlled_squeeze(psi, p.r_gate, p.theta, p.phi_gate).ravel()
        expected = np.outer(closed, closed.conj())
        expected[:n, n:] *= np.exp(-p.t_gate / rates.tau_phi)
        expected[n:, :n] *= np.exp(-p.t_gate / rates.tau_phi)
        assert np.abs(out - expected).max() < 1e-12

    def test_relaxation_at_zero_temperature(self):
        # sigma_- = |0><1|: the |1> block decays at 1/tau_q into |0>, the
        # coherences at 1/(2 tau_q), both under the closed branch maps
        p, psi = design_point_state()
        n = p.n_max + 1
        rates = OpenRates(tau_q=50.0)
        rho = np.outer(psi.ravel(), psi.ravel().conj())
        out = open_evolve(rho, p, rates, p.t_gate)
        S = squeeze_operator(p.r_gate, p.theta, p.n_max)
        U0 = np.diag(rotation_operator(p.phi_gate, p.n_max))
        rho11 = np.exp(-p.t_gate / rates.tau_q) * S @ rho[n:, n:] @ S.conj().T
        rho01 = np.exp(-0.5 * p.t_gate / rates.tau_q) * U0 @ rho[:n, n:] @ S.conj().T
        assert np.abs(out[n:, n:] - rho11).max() < 1e-12
        assert np.abs(out[:n, n:] - rho01).max() < 1e-12
        assert abs(np.trace(out[:n, :n]) - (1.0 - np.trace(rho11))) < 1e-12

    @pytest.mark.parametrize("qubit", [0, 1])
    def test_resonator_damping_matches_the_gaussian_moment_equations(self, qubit):
        # with damping only, each qubit level's block of |q><q| (x) |0><0|
        # stays Gaussian, and its moments <n> and <a^2> obey a closed linear
        # system under H_0 = delta n or H_1 = eps a^2 + conj(eps) a^dag 2,
        # eps = (i g / 2) e^{-i theta}, and the jumps a and a^dag at rates
        # kappa (nbar + 1) and kappa nbar:
        #   d<n>/dt   = 2i eps <a^2> - 2i conj(eps) <a^dag 2> - kappa (<n> - nbar),
        #   d<a^2>/dt = -2i conj(eps) (2 <n> + 1) - (kappa + 2i delta) <a^2>
        p, _ = design_point_state()
        rates = OpenRates(tau_r=50.0, temperature_mK=60.0)
        n, kappa = p.n_max + 1, 1.0 / rates.tau_r
        nbar = thermal_nbar(p.omega, rates.temperature_mK)
        assert nbar > 1e-3
        eps = 0.5j * p.drive_rate * np.exp(-1j * p.theta) if qubit else 0.0
        delta = 0.0 if qubit else p.delta_tilde
        ec = np.conj(eps)
        # on (<n>, <a^2>, <a^dag 2>, 1), from the vacuum
        A = np.array([[-kappa, 2j * eps, -2j * ec, kappa * nbar],
                      [-4j * ec, -kappa - 2j * delta, 0.0, -2j * ec],
                      [4j * eps, 0.0, -kappa + 2j * delta, 2j * eps],
                      [0.0, 0.0, 0.0, 0.0]])
        expected = expm(p.t_gate * A)[:2, 3]
        rho = np.zeros((2 * n, 2 * n), dtype=complex)
        rho[qubit * n, qubit * n] = 1.0
        out = open_evolve(rho, p, rates, p.t_gate)
        block = out[qubit * n:(qubit + 1) * n, qubit * n:(qubit + 1) * n]
        a = lowering_operator(p.n_max)
        moments = np.array([np.trace(a.T @ a @ block), np.trace(a @ a @ block)])
        assert abs(np.trace(block) - 1.0) < 1e-13
        # reached: 1.1e-17 (q = 0) and 1.3e-15 (q = 1)
        assert np.abs(moments - expected).max() < 1e-13

    def test_output_is_hermitian_bitwise(self):
        p, psi = design_point_state()
        rho = np.outer(psi.ravel(), psi.ravel().conj())
        out = open_evolve(rho, p, OpenRates.typical(), p.t_gate)
        assert np.array_equal(out, out.conj().T)

    def test_negative_eigenvalue_detected(self):
        p = default_cqed_params(eps_d=0.0, n_max=10)
        rho = np.zeros((22, 22), dtype=complex)
        rho[0, 0] = 1.02
        rho[1, 1] = -0.02
        with pytest.raises(RuntimeError, match="negative eigenvalue"):
            open_evolve(rho, p, OpenRates(), 1.0)


def sector_part(z, j, k):
    """The Hermitian part of z on the entries (j, k) and (k, j), zero elsewhere."""
    h = 0.5 * (z + z.conj().T)
    out = np.zeros_like(h)
    out[j, k], out[k, j] = h[j, k], h[k, j]
    return out


class TestHermitianCoordinates:
    def test_real_generator_matches_the_liouvillian(self):
        p = default_cqed_params(n_max=7)
        L = _liouvillian(_joint_hamiltonian(p, 0.3), _collapse_operators(p, OpenRates.typical()))
        rng = np.random.default_rng(12)
        dim = 2 * (p.n_max + 1)
        z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        for j, k in upper_parity_sectors(p.n_max):
            vec = sector_part(z, j, k).ravel()
            T, R = _hermitian_coordinates(j, k, dim)
            G = (R @ L @ T).real
            expected = (R @ (L @ vec)).real
            assert np.abs(G @ (R @ vec).real - expected).max() < 1e-14 * np.abs(expected).max()


def dense_open_protocol(alpha, beta, p, rates):
    """Reference for open_average_fidelity: (fbar, purity) of the open
    protocol with each segment the dense exponential (scipy.linalg.expm) of
    the Kronecker Liouvillian at its gate angle, applied to the whole vec(rho)
    of each state."""
    n = p.n_max + 1
    ls = _collapse_operators(p, rates)
    segments = [expm(p.t_gate * _liouvillian(_joint_hamiltonian(p, theta), ls).toarray())
                for theta in (p.theta, p.theta_tilde)]
    flip = np.kron(np.array([[0.0, 1.0], [1.0, 0.0]]), np.eye(n))
    had = np.kron(np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0), np.eye(n))
    pair = chi_states(p.r_gate, p.theta_tilde, p.n_max, p.leak_tol)
    fbar, purity = [], []
    for a, b in zip(alpha, beta):
        psi = had @ joint_vacuum(a, b, p.n_max).ravel()
        rho = np.outer(psi, psi.conj())
        for E in segments:
            rho = flip @ (E @ rho.ravel()).reshape(rho.shape) @ flip
        rho = had @ rho @ had
        targets = (a * pair.chi_plus + b * pair.chi_minus, a * pair.chi_minus + b * pair.chi_plus)
        fbar.append(sum(np.vdot(t, rho[q * n:(q + 1) * n, q * n:(q + 1) * n] @ t).real
                        for q, t in enumerate(targets)))
        purity.append(np.trace(rho @ rho).real)
    return np.array(fbar), np.array(purity)


class TestQubitBlocks:
    def test_blocks_split_each_sector_by_qubit(self):
        # every entry of a sector but its |1><0| ones, in one block, row-major
        n = 6
        blocks = _qubit_blocks(n - 1)
        for i, (j, k) in enumerate(parity_sectors(n - 1)):
            (pop, jp, kp), (coh, jc, kc) = blocks[2 * i:2 * i + 2]
            parity = ("even", "odd")[i]
            assert (pop, coh) == (f"{parity} population", f"{parity} coherence")
            assert np.all((jp < n) == (kp < n)) and np.all((jc < n) & (kc >= n))
            assert np.all(np.diff(jp * 2 * n + kp) > 0) and np.all(np.diff(jc * 2 * n + kc) > 0)
            kept = ~((j >= n) & (k < n))
            assert sorted([*zip(jp, kp), *zip(jc, kc)]) == sorted(zip(j[kept], k[kept]))

    def test_block_generator_equals_the_kronecker_liouvillian_entry_for_entry(self):
        # the rows and columns (j, k) of each block of the Kronecker
        # reference, with all five channels at 60 mK, at n_max 7 and at the
        # gate_open design point at both gate angles; explicit zeros of the
        # reference are left out
        p7 = default_cqed_params(n_max=7)
        p40, _ = design_point_state()
        for p, theta in [(p7, 0.3), (p40, p40.theta), (p40, p40.theta_tilde)]:
            H = _joint_hamiltonian(p, theta)
            ls = _collapse_operators(p, OpenRates.typical())
            L = _liouvillian(H, ls)
            for _, j, k in _qubit_blocks(p.n_max):
                rows = j * H.shape[0] + k
                expected = L[rows][:, rows]
                G = _block_generator(H, ls, j, k)
                assert G.dtype == np.complex128 and G.shape == expected.shape
                assert (G != expected).nnz == 0
                assert G.nnz == np.count_nonzero(expected.data)

    def test_a_block_that_is_not_invariant_raises_naming_the_term(self):
        # a sigma_x jump maps rho_10 into the coherence block, and a qubit
        # drive in H mixes populations and coherences
        p = default_cqed_params(n_max=6)
        n = p.n_max + 1
        H = _joint_hamiltonian(p, 0.0)
        sigma_x = np.kron(np.array([[0.0, 1.0], [1.0, 0.0]]), np.eye(n))
        (_, jp, kp), (_, jc, kc) = _qubit_blocks(p.n_max)[:2]
        with pytest.raises(RuntimeError, match=r"reads rho\[7, 0\], outside the block, "
                                               r"through the term L_0 rho L_0\^dag"):
            _block_generator(H, [sigma_x], jc, kc)
        with pytest.raises(RuntimeError, match=r"outside the block, through the term K rho"):
            _block_generator(H + 0.1 * sigma_x, [], jc, kc)
        with pytest.raises(RuntimeError, match=r"outside the block, through the term K rho"):
            _block_generator(H + 0.1 * sigma_x, [], jp, kp)
        # the whole sector holds rho_10 too
        j, k = parity_sectors(p.n_max)[0]
        assert _block_generator(H, [sigma_x], j, k).shape[0] > 0

    def test_open_evolve_forms_no_kronecker_product(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("open_evolve called scipy.sparse.kron")
        monkeypatch.setattr(sparse, "kron", refuse)
        p, psi = design_point_state()
        rho = np.outer(psi.ravel(), psi.ravel().conj())
        assert abs(np.trace(open_evolve(rho, p, OpenRates.typical(), p.t_gate)) - 1.0) < 1e-8

    @pytest.mark.parametrize("rates, bound", [(OpenRates.typical(), 1e-14),
                                              (OpenRates(tau_q=1.0, tau_r=1.0), 1e-13)])
    def test_sweep_matches_the_dense_liouvillian_exponential(self, rates, bound):
        # the whole protocol of a 5-point sweep against dense expm on vec(rho);
        # 1 ns lifetimes over a 67 ns gate are the non-normal regime, where
        # the spectrum reaches far from the axis the series is built on
        p = default_cqed_params(t_gate=0.5 / 7.5e-3, n_max=8)
        p_z = np.linspace(-1.0, 1.0, 5)
        alpha, beta = np.sqrt((1.0 + p_z) / 2.0), np.sqrt((1.0 - p_z) / 2.0)
        fbar, purity = open_average_fidelity(alpha, beta, p, rates)
        ref_fbar, ref_purity = dense_open_protocol(alpha, beta, p, rates)
        assert np.abs(fbar - ref_fbar).max() <= bound
        assert np.abs(purity - ref_purity).max() <= bound


class TestExpmAction:
    def test_real_generator_gives_a_real_result(self):
        p, psi = design_point_state()
        L = _liouvillian(_joint_hamiltonian(p, p.theta),
                         _collapse_operators(p, OpenRates.typical()))
        for j, k in upper_parity_sectors(p.n_max):
            T, R = _hermitian_coordinates(j, k, psi.size)
            G = (R @ L @ T).real
            x = (R @ np.outer(psi.ravel(), psi.ravel().conj()).ravel()).real
            out = _expm_action(G, x, p.t_gate)
            assert out.dtype == np.float64
            embedded = _expm_action(G.astype(complex), x.astype(complex), p.t_gate)
            assert np.abs(out - embedded).max() < 1e-13

    def test_zero_duration_returns_input(self):
        p = default_cqed_params(n_max=6)
        L = _liouvillian(_joint_hamiltonian(p, 0.0), _collapse_operators(p, OpenRates.typical()))
        b = np.array([1.0, 1j]) @ np.random.default_rng(5).standard_normal((2, L.shape[0]))
        assert np.array_equal(_expm_action(L, b, 0.0), b)

    def test_zero_generator(self):
        b = np.array([1.0, 1j]) @ np.random.default_rng(6).standard_normal((2, 12))
        zero = sparse.csr_array((12, 12), dtype=complex)
        assert np.array_equal(_expm_action(zero, b, 3.0), b)

    def test_multiple_of_the_identity(self):
        # e^{t mu} b exactly, with no series
        b = np.random.default_rng(7).standard_normal(12)
        A = sparse.csr_array(-0.25 * np.eye(12))
        assert np.array_equal(_expm_action(A, b, 3.0), np.exp(-0.75) * b)

    def test_matches_scipy_at_the_gate_open_design_point(self):
        # configs/gate_open.yaml: r = 0.5 at g_d eps_d = 7.5e-3 rad/ns,
        # n_max 40, typical rates at 60 mK; the full vec(rho), both sectors
        p = default_cqed_params(t_gate=0.5 / 7.5e-3, n_max=40)
        L = _liouvillian(_joint_hamiltonian(p, p.theta),
                         _collapse_operators(p, OpenRates.typical()))
        psi = hadamard_qubit(joint_vacuum(np.sqrt(0.75), 0.5, 40))
        psi[:, 1] = 0.5 * psi[:, 0]
        psi /= np.linalg.norm(psi)
        b = np.outer(psi.ravel(), psi.ravel().conj()).ravel()
        expected = expm_multiply(p.t_gate * L, b)
        assert np.max(np.abs(_expm_action(L, b, p.t_gate) - expected)) < 1e-13

    def test_matches_dense_expm_with_every_channel_on(self):
        # thermal relaxation and excitation of both the qubit and the
        # resonator, and dephasing; both sectors at both gate angles, from
        # random vectors (the Taylor reference reaches about 5e-13 here)
        p = default_cqed_params(t_gate=0.5 / 7.5e-3, n_max=12)
        ls = _collapse_operators(p, OpenRates.typical())
        assert len(ls) == 5
        rng = np.random.default_rng(21)
        for theta in (p.theta, p.theta_tilde):
            H = _joint_hamiltonian(p, theta)
            for j, k in parity_sectors(p.n_max):
                G = _block_generator(H, ls, j, k)
                b = np.array([1.0, 1j]) @ rng.standard_normal((2, G.shape[0]))
                expected = expm(p.t_gate * G.toarray()) @ b
                out = _expm_action(G, b, p.t_gate)
                assert np.abs(out - expected).max() <= 1e-13 * np.abs(expected).max()

    def test_agrees_with_the_taylor_action(self):
        # the gate_open design point in both sectors, and a complex squeeze
        # generator
        p, psi = design_point_state()
        ls = _collapse_operators(p, OpenRates.typical())
        rho = np.outer(psi.ravel(), psi.ravel().conj())
        for theta in (p.theta, p.theta_tilde):
            for j, k in parity_sectors(p.n_max):
                G = _block_generator(_joint_hamiltonian(p, theta), ls, j, k)
                x = rho[j, k]
                expected = _taylor_action(G, x, p.t_gate)
                assert np.abs(_expm_action(G, x, p.t_gate) - expected).max() \
                    <= 1e-13 * np.abs(expected).max()
        S = sparse.csr_array(_squeeze_generator(0.5, 0.7, 40))
        psi0 = psi[1] / np.linalg.norm(psi[1])
        expected = _taylor_action(S, psi0, 1.0)
        assert np.abs(_expm_action(S, psi0, 1.0) - expected).max() <= 1e-13

    def test_dissipation_dominated_generator(self):
        # 1 ns relaxation times over a 67 ns gate: the real parts of the
        # spectrum reach -600 against an imaginary extent of 54, far from
        # the axis the series is built on
        p = default_cqed_params(t_gate=0.5 / 7.5e-3, n_max=8)
        psi = hadamard_qubit(joint_vacuum(np.sqrt(0.75), 0.5, 8))
        psi[:, 1] = 0.5 * psi[:, 0]
        rho = np.outer(psi.ravel(), psi.ravel().conj()) / np.vdot(psi, psi).real
        ls = _collapse_operators(p, OpenRates(tau_q=1.0, tau_r=1.0))
        for j, k in parity_sectors(p.n_max):
            G = _block_generator(_joint_hamiltonian(p, p.theta), ls, j, k)
            assert series_norm(G, p.t_gate) > 800.0
            x = rho[j, k]
            expected = expm(p.t_gate * G.toarray()) @ x
            out = _expm_action(G, x, p.t_gate)
            assert np.abs(out - expected).max() <= 1e-13 * np.abs(expected).max()

    def test_real_decay_rates(self):
        # a spectrum on the real axis, 300 e-folds wide: rho = 150
        rates = np.linspace(0.0, 1.0, 200)
        A = sparse.csr_array(np.diag(-rates))
        b = np.random.default_rng(22).standard_normal(200)
        assert series_norm(A, 300.0) == pytest.approx(150.0)
        expected = np.exp(-300.0 * rates) * b
        out = _expm_action(A, b, 300.0)
        assert np.abs(out - expected).max() <= 1e-13 * np.abs(expected).max()

    def test_tiny_duration(self):
        p = default_cqed_params(t_gate=0.5 / 7.5e-3, n_max=12)
        G = _block_generator(_joint_hamiltonian(p, p.theta),
                             _collapse_operators(p, OpenRates.typical()), *parity_sectors(12)[0])
        b = np.array([1.0, 1j]) @ np.random.default_rng(23).standard_normal((2, G.shape[0]))
        assert series_norm(G, 1e-6) < 1e-5
        expected = expm(1e-6 * G.toarray()) @ b
        assert np.abs(_expm_action(G, b, 1e-6) - expected).max() <= 1e-15 * np.abs(b).max()

    def test_products_per_segment_at_the_gate_open_point(self, monkeypatch):
        # the series takes about rho + O(rho^(1/3)) products when the
        # spectrum hugs the imaginary axis (the Taylor steps took 491-1200
        # for rho = 287-295 on whole sectors); the coherence blocks' complex
        # generators have about half the norm of the population blocks'
        segments = []
        action = gate._chebyshev_series

        def counted(c, b):
            CountingArray.products = 0
            out, terms = action(c._replace(Y2=CountingArray(c.Y2)), b)
            segments.append((c.rho, CountingArray.products, terms))
            return out, terms
        monkeypatch.setattr(gate, "_chebyshev_series", counted)
        p, psi = design_point_state()
        rho = np.outer(psi.ravel(), psi.ravel().conj())
        for theta in (p.theta, p.theta_tilde):
            open_evolve(rho, p, OpenRates.typical(), p.t_gate, theta=theta)
        # population and coherence blocks of both sectors, at both angles
        assert len(segments) == 8
        for number, (norm, products, terms) in enumerate(segments):
            assert 250.0 < norm < 300.0 if number % 2 == 0 else 140.0 < norm < 170.0
            assert products == terms <= 1.3 * norm + 40.0

    def test_unconverged_series_raises(self):
        A = sparse.csr_array(np.diag([-1.0, 0.0, 1.0]))
        with pytest.raises(RuntimeError, match=r"rho = 20: .* after 160 terms"):
            _expm_action(A, np.array([1.0, np.nan, 0.0]), 20.0)
        with pytest.raises(ValueError, match="non-finite"):
            _expm_action(sparse.csr_array(np.diag([np.inf, 0.0])), np.ones(2), 1.0)


class TestBessel:
    def test_matches_scipy_below_the_asymptotic_range(self):
        for x in (1e-6, 0.5, 7.3, 37.0):
            n = int(3.0 * x) + 100
            assert np.abs(_bessel_j(x, n) - jv(np.arange(n + 1), x)).max() < 2e-15

    def test_tiny_arguments_take_the_power_series(self):
        # the recurrence's 2k/x would overflow below about 1e-150
        for x in (1e-300, 1e-200, 1e-120, 1e-9):
            j = _bessel_j(x, 6)
            assert np.all(np.isfinite(j)) and j[0] == 1.0
            assert j[1] == pytest.approx(0.5 * x, rel=1e-15)
        # continuous across the switch at 1e-8
        for x in (0.999999e-8, 1e-8):
            assert np.abs(_bessel_j(x, 6) / jv(np.arange(7), x) - 1.0).max() < 2e-14
        A = sparse.csr_array(np.array([[0.0, 1.0], [-1.0, 0.5]]))
        b = np.array([1.0, 2.0])
        out = _expm_action(A, b, 1e-200)
        np.testing.assert_array_equal(out, b)

    def test_sum_of_squares_at_the_segment_arguments(self):
        # J_0^2 + 2 sum_k J_k^2 = 1, independent of the normalisation by
        # J_0 + 2 sum_k J_2k = 1
        for x in (150.0, 290.7, 901.9):
            j = _bessel_j(x, int(3.0 * x) + 100)
            assert abs(j[0] ** 2 + 2.0 * np.sum(j[1:] ** 2) - 1.0) < 1e-14


class TestOpenProtocol:
    def test_fidelity_gap_and_purity(self):
        # tau_q = tau_r = 200 us, tau_phi = 10 us, 60 mK, 200 ns gates.
        # Dephasing swaps readout branches, so its damage grows toward the
        # poles; at P_z = 0.5 the gap sits near the sphere average.
        p = default_cqed_params(n_max=60)
        a = np.sqrt(0.75)
        b = np.sqrt(0.25)
        f_open, purity = open_average_fidelity(a, b, p, OpenRates.typical())
        f_closed = simulated_average_fidelity(a, b, p)
        gap = f_closed - f_open
        assert 0.004 < gap < 0.011
        assert 0.97 < purity < 0.995

    def test_array_call_gives_the_bytes_of_scalar_calls(self):
        # a sweep shares one propagation of three fixed matrices; each pair's
        # numbers are those of a call on it alone, and scalars give floats
        p = default_cqed_params(t_gate=0.3 / 7.5e-3, n_max=8)
        rates = OpenRates.typical()
        p_z = np.linspace(-1.0, 1.0, 16)
        alpha, beta = np.sqrt((1.0 + p_z) / 2.0), np.sqrt((1.0 - p_z) / 2.0)
        fbar, purity = open_average_fidelity(alpha, beta, p, rates)
        assert fbar.shape == purity.shape == (16,)
        scalar = [open_average_fidelity(a, b, p, rates) for a, b in zip(alpha, beta)]
        assert all(type(x) is float for pair in scalar for x in pair)
        assert list(zip(fbar.tolist(), purity.tolist())) == scalar
        empty = open_average_fidelity(np.array([]), np.array([]), p, rates)
        assert [x.shape for x in empty] == [(0,), (0,)]
        with pytest.raises(ValueError, match="1-D arrays of one length"):
            open_average_fidelity(alpha, beta[:-1], p, rates)

    @pytest.mark.parametrize("count", [1, 3, 9])
    def test_a_sweep_takes_four_series(self, monkeypatch, count):
        # a population and a coherence series per segment, for any sweep length
        calls = []
        action = gate._chebyshev_series
        monkeypatch.setattr(gate, "_chebyshev_series",
                            lambda c, b: calls.append(b.dtype) or action(c, b))
        p = default_cqed_params(t_gate=0.3 / 7.5e-3, n_max=8)
        p_z = np.linspace(-0.9, 0.8, count)
        open_average_fidelity(np.sqrt((1.0 + p_z) / 2.0), np.sqrt((1.0 - p_z) / 2.0), p,
                              OpenRates.typical())
        assert calls == [np.complex128] * 4

    def test_diagnostics_record_the_blocks_and_checks(self):
        p = default_cqed_params(t_gate=0.3 / 7.5e-3, n_max=8)
        record = {}
        open_average_fidelity(np.array([0.6, 0.8]), np.array([0.8, 0.6]), p,
                              OpenRates.typical(), record)
        assert set(record) == {"blocks", "max_trace_error", "min_eigenvalue"}
        assert list(record["blocks"]) == ["even population", "even coherence"]
        for block in record["blocks"].values():
            assert block["rho"] > 0.0 and len(block["terms"]) == 2
            assert all(block["rho"] < terms < 1.3 * block["rho"] + 40 for terms in block["terms"])
        assert 0.0 <= record["max_trace_error"] <= gate.TRACE_TOL
        assert gate.EIGENVALUE_FLOOR <= record["min_eigenvalue"] < 1e-3


class TestLabFrameValidation:
    def test_squeezed_branch_matches_rwa(self):
        # the |1> branch of the flux drive is S(r, theta_drive + pi) in its
        # rotating frame; the orthogonal-angle alternative scores only
        # ~1/cosh(2r)
        p = default_cqed_params(theta=0.7, n_max=100)
        vac = np.zeros(101, dtype=complex)
        vac[0] = 1.0
        out = lab_frame_branch(p, 1, vac, rtol=1e-9)
        good = squeeze_state(p.r_gate, p.theta + np.pi, 100, leak_tol=1e-3)
        flipped = squeeze_state(p.r_gate, p.theta, 100, leak_tol=1e-3)
        assert np.abs(np.vdot(good, out)) ** 2 > 0.999
        assert np.abs(np.vdot(flipped, out)) ** 2 < 0.15

    def test_rotation_branch_matches_rwa(self):
        p = default_cqed_params(theta=0.7, n_max=100)
        vac = np.zeros(101, dtype=complex)
        vac[0] = 1.0
        out = lab_frame_branch(p, 0, vac, rtol=1e-9)
        assert np.abs(out[0]) ** 2 > 0.99

    def test_both_branches_match_the_fock_space_equation(self):
        # 2 ns of drive on a random state of the lowest six levels; the
        # reference solves the branch Schroedinger equation in the Fock basis,
        # so the global phase is compared too
        p = default_cqed_params(theta=0.7, n_max=16, t_gate=2.0)
        rng = np.random.default_rng(3)
        psi0 = np.zeros(17, dtype=complex)
        psi0[:6] = rng.normal(size=6) + 1j * rng.normal(size=6)
        psi0 /= np.linalg.norm(psi0)
        for level in (0, 1):
            out = lab_frame_branch(p, level, psi0)
            assert np.abs(out - fock_lab_frame(p, level, psi0)).max() < 1e-10
            assert np.abs(out - psi0).max() > 5e-3  # the drive did act

    def test_long_gate_matches_a_whole_span_product(self):
        # 66.7 ns is about 800 drive periods plus a remainder: whole periods
        # are powers of one monodromy matrix, so each period must be resolved
        # to rtol / 800 for the gate to meet rtol
        p = params_for(0.5, theta=0.7, n_max=40)
        vac = np.zeros(41, dtype=complex)
        vac[0] = 1.0
        for level, wb in ((0, p.omega_0), (1, p.omega_1)):
            n_steps = 64 * int(np.ceil(p.t_gate * (p.omega_d + 2.0 * wb) / (2.0 * np.pi)))
            ref = branch_state(p, rotating_frame_product(p, wb, n_steps), vac)
            assert np.abs(lab_frame_branch(p, level, vac) - ref).max() < 1e-10

    def test_squeeze_matches_the_dense_exponential(self, monkeypatch):
        # the branch applies S(r, theta_s) from the real parity blocks of
        # S(r, 0); the reference exponentiates the complex generator densely
        rng = np.random.default_rng(4)
        for r, n_max in ((0.5, 40), (1.0, 100)):
            p = params_for(r, theta=0.7, n_max=n_max)
            psi0 = np.zeros(n_max + 1, dtype=complex)
            psi0[:6] = rng.normal(size=6) + 1j * rng.normal(size=6)
            psi0 /= np.linalg.norm(psi0)
            for level in (0, 1):
                state = lab_frame_branch(p, level, psi0)
                with monkeypatch.context() as m:
                    m.setattr(gate, "squeeze_operator",
                              lambda r, th, n_max: expm(_squeeze_generator(r, th, n_max)))
                    dense_state = lab_frame_branch(p, level, psi0)
                assert np.abs(state - dense_state).max() < 1e-12

    @pytest.mark.parametrize("t_gate", [200.0, 0.5 / 7.5e-3])
    def test_input_over_many_levels_meets_rtol(self, t_gate):
        # the squeeze moves the state's quadratures, whose size grows with
        # <n> (20 here), so the per-period tolerance is divided by
        # sqrt(1 + 2<n>); without it |1> missed rtol 1e-9 by about 2x. The
        # reference is the whole-span product, at the 200 ns gate and at the
        # configs/gate_open.yaml gate
        p = default_cqed_params(theta=0.7, n_max=40, t_gate=t_gate)
        rng = np.random.default_rng(7)
        psi0 = rng.normal(size=41) + 1j * rng.normal(size=41)
        psi0 /= np.linalg.norm(psi0)
        assert np.sum(np.arange(41) * np.abs(psi0) ** 2) == pytest.approx(20.0, abs=0.1)
        for level, wb in ((0, p.omega_0), (1, p.omega_1)):
            n_steps = 64 * int(np.ceil(p.t_gate * (p.omega_d + 2.0 * wb) / (2.0 * np.pi)))
            ref = branch_state(p, rotating_frame_product(p, wb, n_steps), psi0)
            assert np.abs(lab_frame_branch(p, level, psi0, rtol=1e-9) - ref).max() < 1e-9

    def test_vacuum_keeps_the_plain_per_period_tolerance(self, monkeypatch):
        # <n> = 0: each period meets rtol / k exactly, as before the input's
        # <n> entered; a Fock state |n> asks sqrt(1 + 2n) times less
        tolerances = []

        def spy(exponent, t_a, t_b, Y0, rtol, *args):
            tolerances.append(rtol)
            return magnus.propagate(exponent, t_a, t_b, Y0, rtol, *args)
        monkeypatch.setattr(gate, "propagate", spy)
        p = params_for(0.5, theta=0.7, n_max=40)
        k = int(p.t_gate * p.omega_d / (2.0 * np.pi))
        for n in (0, 4):
            lab_frame_branch(p, 1, np.eye(41)[n].astype(complex), rtol=1e-9)
        assert tolerances == [1e-9 / k, 1e-9 / (k * 3.0)]
        # a zero input counts as <n> = 0, and is mapped to zero
        assert not np.any(lab_frame_branch(p, 1, np.zeros(41, dtype=complex), rtol=1e-9))
        assert tolerances[-1] == 1e-9 / k

    def test_corrupted_step_exponential_rejected(self, monkeypatch):
        # a step scaled off the group passes the step-doubling comparison,
        # since both grids carry the same factor, but not the invariant: the
        # monodromy check catches it in a gate of 23 drive periods, and
        # |u|^2 - |v|^2 = 1 in one of 0.6 periods
        exact = magnus._exponentials

        def corrupted(exponent, t0, h):
            e = exact(exponent, t0, h)
            e[0] *= 1.0 + 1e-6
            return e
        monkeypatch.setattr(magnus, "_exponentials", corrupted)
        vac = np.zeros(17, dtype=complex)
        vac[0] = 1.0
        for t_gate, message in ((2.0, "monodromy matrix is not symplectic"),
                                (0.05, r"\|u\|\^2 - \|v\|\^2 = 1 by 2\.00e-06")):
            p = default_cqed_params(theta=0.7, n_max=16, t_gate=t_gate)
            with pytest.raises(RuntimeError, match=message):
                lab_frame_branch(p, 1, vac, rtol=1e-9)

    def test_unreachable_tolerance_raises_after_four_doublings(self):
        vac = np.zeros(17, dtype=complex)
        vac[0] = 1.0
        for t_gate in (2.0, 0.05):
            p = default_cqed_params(theta=0.7, n_max=16, t_gate=t_gate)
            T = 2.0 * np.pi / p.omega_d
            k = int(t_gate // T)
            # one period split at the remainder, or the whole gate if shorter
            spans = np.diff(np.unique([0.0, t_gate - k * T, T])) if k else [t_gate]
            rtol = re.escape(f"{1e-18 / max(1, k):.1e}")
            for level, wb in ((0, p.omega_0), (1, p.omega_1)):
                omega_max = wb + 4.0 * p.drive_rate
                n0 = sum(int(np.ceil(10.0 * omega_max * s / (2.0 * np.pi))) for s in spans)
                with pytest.raises(RuntimeError, match=rf"step-doubling estimate \S+ > rtol "
                                                       rf"{rtol} \* max\|Y\| at {16 * n0} steps"):
                    lab_frame_branch(p, level, vac, rtol=1e-18)

    def test_small_rtol_error_names_the_callers_tolerance(self):
        # the 200 ns gate spans k = 2396 drive periods, so rtol 1e-13 asks
        # 4.2e-17 of the one-period product, below its rounding floor
        p = default_cqed_params(theta=0.7, n_max=40)
        k = int(p.t_gate * p.omega_d / (2.0 * np.pi))
        vac = np.eye(41)[0].astype(complex)
        message = (rf"cannot reach rtol 1\.0e-13: with its k = {k} whole drive periods and "
                   rf"psi0's <n> = 0, each period must meet rtol / \(max\(1, k\) "
                   rf"sqrt\(1 \+ 2<n>\)\) = {re.escape(f'{1e-13 / k:.1e}')}; loosen rtol\. "
                   rf"Magnus product not converged")
        with pytest.raises(RuntimeError, match=message):
            lab_frame_branch(p, 1, vac, rtol=1e-13)

    def test_magnus_steps_are_sixth_order(self, monkeypatch):
        # a drive comparable with the branch frequency makes A(t) at
        # different times far from commuting, so every commutator term of
        # the step counts: halving the step must cut the error by ~2^6 (200
        # steps would reach the rounding floor of the 6400-step reference)
        with pytest.warns(UserWarning, match="detuning"):
            p = GateParams(omega=1.0, omega_q=3.0, chi=0.2, g_d=1.0, eps_d=0.6,
                           t_gate=3.0, theta=0.4, n_max=4)
        exponents = []  # the |0> branch step exponent, as lab_frame_branch passes it

        def spy(exponent, *args):
            exponents.append(exponent)
            return magnus.propagate(exponent, *args)
        monkeypatch.setattr(gate, "propagate", spy)
        lab_frame_branch(p, 0, np.eye(5)[0])
        (exponent,) = exponents

        span = p.omega_0 * p.t_gate  # the whole gate in the branch's phase s = omega_0 t

        def product(n_steps):
            h = np.full(n_steps, span / n_steps)
            S = np.eye(2)
            for e in magnus._exponentials(exponent, h * np.arange(n_steps), h):
                S = e @ S
            return S
        ref = product(6400)
        err = [np.abs(product(n) - ref).max() for n in (25, 50, 100)]
        assert err[0] > 1e-10
        assert all(50.0 < a / b < 80.0 for a, b in zip(err, err[1:]))

    def test_stark_correction_sign(self):
        # in its own rotating frame the |0> branch accumulates the residual
        # phase (delta - delta_tilde) t per photon; the wrong sign or no
        # correction fits the lab integration measurably worse
        p = default_cqed_params(theta=0.7, n_max=100)
        psi0 = np.zeros(101, dtype=complex)
        psi0[0] = psi0[4] = np.sqrt(0.5)
        out = lab_frame_branch(p, 0, psi0, rtol=1e-9)
        n = np.arange(101)
        zeta = (p.delta - p.delta_tilde) * p.t_gate
        fid = {s: np.abs(np.vdot(np.exp(1j * s * zeta * n) * psi0, out)) ** 2
               for s in (+1, 0, -1)}
        assert fid[+1] > 0.95
        assert fid[+1] > fid[0] > fid[-1]
