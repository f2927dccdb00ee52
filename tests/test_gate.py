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
    _collapse_operators,
    _expm_action,
    _hermitian_coordinates,
    _joint_hamiltonian,
    _liouvillian,
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


def parity_sectors(n_max):
    """The (dim, dim) masks of the joint-state entries with j + k even and
    with j + k odd photons."""
    photons = np.arange(2 * (n_max + 1)) % (n_max + 1)
    odd = (photons[:, None] + photons[None, :]) % 2 == 1
    return ~odd, odd


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

    def test_cold_bath_is_the_cavity_bose_function_without_overflow(self):
        omega = 2 * np.pi * 6.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for T in (60.0, 5.0, 1.0):
                assert thermal_nbar(omega, T) == 1.0 / np.expm1(7.638232 * omega / T)
            # hbar omega / k_B T = 2880: expm1 alone overflows
            assert thermal_nbar(omega, 0.1) == 0.0


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

    def test_independent_of_the_global_random_stream(self):
        # the sparse exponential draws no random numbers (its 1-norm is
        # exact); the --threads byte identity of the gate tables rests on
        # the result not depending on the np.random stream
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


class TestHermitianCoordinates:
    def test_round_trip_in_each_parity_sector(self):
        rng = np.random.default_rng(11)
        dim = 2 * (5 + 1)
        z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        for sector in parity_sectors(5):
            rho = np.where(sector, z + z.conj().T, 0.0)
            T, R = _hermitian_coordinates(sector)
            # one real coordinate per complex entry of the sector
            assert T.shape == (dim * dim, np.count_nonzero(sector)) == R.T.shape
            x = (R @ rho.ravel()).real
            assert np.array_equal(T @ x, rho.ravel())

    def test_real_generator_matches_the_liouvillian(self):
        p = default_cqed_params(n_max=7)
        L = _liouvillian(_joint_hamiltonian(p, 0.3), _collapse_operators(p, OpenRates.typical()))
        rng = np.random.default_rng(12)
        dim = 2 * (p.n_max + 1)
        z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        for sector in parity_sectors(p.n_max):
            vec = np.where(sector, z + z.conj().T, 0.0).ravel()
            T, R = _hermitian_coordinates(sector)
            G = (R @ L @ T).real
            expected = (R @ (L @ vec)).real
            assert np.abs(G @ (R @ vec).real - expected).max() < 1e-14 * np.abs(expected).max()


class TestExpmAction:
    def test_real_generator_gives_a_real_result(self):
        p, psi = design_point_state()
        L = _liouvillian(_joint_hamiltonian(p, p.theta),
                         _collapse_operators(p, OpenRates.typical()))
        for sector in parity_sectors(p.n_max):
            T, R = _hermitian_coordinates(sector)
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

    def test_sparse_squeeze_matches_the_dense_exponential(self, monkeypatch):
        # the branch applies S(r, theta_s) by a Taylor action on the banded
        # generator; the reference exponentiates the same generator densely
        rng = np.random.default_rng(4)
        for r, n_max in ((0.5, 40), (1.0, 100)):
            p = params_for(r, theta=0.7, n_max=n_max)
            psi0 = np.zeros(n_max + 1, dtype=complex)
            psi0[:6] = rng.normal(size=6) + 1j * rng.normal(size=6)
            psi0 /= np.linalg.norm(psi0)
            for level in (0, 1):
                sparse_state = lab_frame_branch(p, level, psi0)
                with monkeypatch.context() as m:
                    m.setattr(gate, "_expm_action", lambda A, b, t: expm(t * A.toarray()) @ b)
                    dense_state = lab_frame_branch(p, level, psi0)
                assert np.abs(sparse_state - dense_state).max() < 1e-12

    def test_corrupted_step_exponential_rejected(self, monkeypatch):
        # a step scaled off the group passes the step-doubling comparison,
        # since both grids carry the same factor, but not the invariant: the
        # monodromy check catches it in a gate of 23 drive periods, and
        # |u|^2 - |v|^2 = 1 in one of 0.6 periods
        exact = magnus._exponentials

        def corrupted(A, t0, h):
            e = exact(A, t0, h)
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

    def test_magnus_steps_are_sixth_order(self, monkeypatch):
        # a drive comparable with the branch frequency makes A(t) at
        # different times far from commuting, so every commutator term of
        # the step counts: halving the step must cut the error by ~2^6 (200
        # steps would reach the rounding floor of the 6400-step reference)
        with pytest.warns(UserWarning, match="detuning"):
            p = GateParams(omega=1.0, omega_q=3.0, chi=0.2, g_d=1.0, eps_d=0.6,
                           t_gate=3.0, theta=0.4, n_max=4)
        generators = []  # the |0> branch generator, as lab_frame_branch passes it

        def spy(A, *args):
            generators.append(A)
            return magnus.propagate(A, *args)
        monkeypatch.setattr(gate, "propagate", spy)
        lab_frame_branch(p, 0, np.eye(5)[0])
        (A,) = generators

        def product(n_steps):
            h = np.full(n_steps, p.t_gate / n_steps)
            S = np.eye(2)
            for e in magnus._exponentials(A, h * np.arange(n_steps), h):
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
