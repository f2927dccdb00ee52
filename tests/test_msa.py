"""Slow-time evolution checks: active channels, generator structure,
agreement with an exact matrix-exponential solution, and cross-validation
against the full coupled-mode integration."""

import numpy as np
import numpy.testing as npt
import pytest
from scipy.linalg import expm
from scipy.special import ellipe, ellipk

from dcelab.bogoliubov import extract_bogoliubov, integrate_modes
from dcelab.cavity import CavitySpec, ModeBasis
from dcelab.moore import bogoliubov_from_moore, solve_moore
from dcelab.msa import evolve_slow, slow_generators
from dcelab.trajectories import harmonic_wall


BASIS16 = ModeBasis.build(CavitySpec(length=np.pi, n_modes=16))


def exact_slow_solution(basis, Omega, tau):
    """Independent oracle: the slow system is linear with constant generators,
    so its solution is a matrix exponential."""
    Gc, Gs = slow_generators(basis, Omega)
    N = basis.n_modes
    big = np.block([[Gs.T, Gc.T], [Gc.T, Gs.T]])
    AB = np.hstack([np.eye(N), np.zeros((N, N))]) @ expm(tau * big)
    return AB[:, :N], AB[:, N:]


class TestGenerators:
    @pytest.mark.parametrize("Omega", [1.0, 2.0, 3.0, 4.0])
    def test_symmetry_structure(self, Omega):
        Gc, Gs = slow_generators(BASIS16, Omega)
        npt.assert_allclose(Gc, Gc.T, atol=1e-14)
        npt.assert_allclose(Gs, -Gs.T, atol=1e-14)

    def test_detuned_generators_vanish(self):
        Gc, Gs = slow_generators(BASIS16, 2.5)
        assert np.all(Gc == 0.0) and np.all(Gs == 0.0)

    def test_degenerate_drive(self):
        # 2 w_1 drives mode 1 alone and pairs no two modes
        Gc, _ = slow_generators(BASIS16, 2.0)
        assert np.flatnonzero(np.diag(Gc)).tolist() == [0]
        assert not np.triu(Gc, 1).any()

    def test_sum_drive(self):
        # 3 w_1 pairs modes (1, 2) and scatters (1, 4), (2, 5), ...
        Gc, Gs = slow_generators(BASIS16, 3.0)
        assert np.argwhere(np.triu(Gc, 1)).tolist() == [[0, 1]]
        assert {(0, 3), (1, 4)} <= set(map(tuple, np.argwhere(np.triu(Gs, 1)).tolist()))

    def test_difference_only_drive(self):
        # w_1 only scatters and creates nothing
        Gc, Gs = slow_generators(BASIS16, 1.0)
        assert not Gc.any() and Gs[0, 1] != 0.0

    @pytest.mark.parametrize("m", range(1, 65))
    def test_entries_follow_the_matching_conditions(self, m):
        # w_k = k here, so Omega = m/2 meets 2 w_k, w_k + w_j or |w_k - w_j| exactly
        # when m = 4k, 2(k + j) or 2|k - j|; each active entry is the module
        # docstring's closed form with mhat_kj = (-1)^(k+j) 2 j k / (j^2 - k^2)
        Omega = 0.5 * m
        Gc, Gs = slow_generators(BASIS16, Omega)
        Gc_ref, Gs_ref = np.zeros((16, 16)), np.zeros((16, 16))
        for k in range(1, 17):
            if m == 4 * k:
                Gc_ref[k - 1, k - 1] = -0.5 * k
            for j in range(1, 17):
                if j == k:
                    continue
                K = Omega * (-1) ** (k + j) * j * k / ((j * j - k * k) * np.sqrt(j * k))
                if m == 2 * (k + j):
                    Gc_ref[k - 1, j - 1] = K * (0.5 * Omega - j)
                if m == 2 * (k - j):
                    Gs_ref[k - 1, j - 1] = K * (j + 0.5 * Omega)
                if m == 2 * (j - k):
                    Gs_ref[k - 1, j - 1] = K * (j - 0.5 * Omega)
        npt.assert_array_equal(Gc != 0.0, Gc_ref != 0.0)
        npt.assert_array_equal(Gs != 0.0, Gs_ref != 0.0)
        npt.assert_allclose(Gc, Gc_ref, rtol=1e-13, atol=0.0)
        npt.assert_allclose(Gs, Gs_ref, rtol=1e-13, atol=0.0)

    def test_degenerate_diagonal_entry(self):
        Gc, _ = slow_generators(BASIS16, 2.0)
        npt.assert_allclose(Gc[0, 0], -0.5 * BASIS16.omega[0], rtol=1e-14)


class TestEvolveSlow:
    def test_matches_matrix_exponential(self):
        sl = evolve_slow(BASIS16, 2.0, tau_max=0.5)
        a_ex, b_ex = exact_slow_solution(BASIS16, 2.0, 0.5)
        npt.assert_allclose(sl.alpha[-1], a_ex, atol=1e-9)
        npt.assert_allclose(sl.beta_final, b_ex, atol=1e-9)

    def test_no_resonance_is_identity(self):
        sl = evolve_slow(BASIS16, 2.5, tau_max=2.0)
        npt.assert_allclose(sl.alpha[-1], np.eye(16), atol=1e-14)
        npt.assert_allclose(sl.beta_final, 0.0, atol=1e-14)

    def test_symplectic_identity_preserved(self):
        sl = evolve_slow(BASIS16, 2.0, tau_max=1.0)
        assert np.abs(sl.symplectic_defect()).max() < 1e-10

    def test_linearity(self):
        # doubling the initial data doubles the solution (linear flow)
        sl = evolve_slow(BASIS16, 2.0, tau_max=0.3)
        a_ex, b_ex = exact_slow_solution(BASIS16, 2.0, 0.3)
        big = np.vstack([np.hstack([sl.alpha[-1], sl.beta_final])])
        npt.assert_allclose(2.0 * np.hstack([a_ex, b_ex]), 2.0 * big[0:16], atol=1e-9)

    def test_difference_drive_scatters_without_creation(self):
        sl = evolve_slow(BASIS16, 1.0, tau_max=0.5)
        npt.assert_allclose(sl.beta_final, 0.0, atol=1e-14)
        # photons redistribute: off-diagonal alpha appears, row norm conserved
        assert abs(sl.alpha[-1, 0, 1]) > 0.1
        npt.assert_allclose((np.abs(sl.alpha[-1]) ** 2).sum(axis=1), 1.0, atol=1e-10)

    def test_growth_rate_fit_single_mode(self):
        # fit d ln|beta_11|/dtau numerically for the one-mode system; the
        # asymptotic rate is omega_1/2 (fit window far past the sinh knee)
        basis1 = ModeBasis.build(CavitySpec(length=np.pi, n_modes=1))
        sl = evolve_slow(basis1, 2.0, tau_max=12.0, n_samples=31)
        b = np.abs(sl.beta[:, 0, 0])
        rate = np.polyfit(sl.tau[20:], np.log(b[20:]), 1)[0]
        npt.assert_allclose(rate, 0.5 * basis1.omega[0], rtol=5e-3)

    def test_lab_time_bookkeeping(self):
        sl = evolve_slow(BASIS16, 2.0, eps=1e-3, tau_max=0.5)
        npt.assert_allclose(sl.lab_time[-1], 500.0)
        with pytest.raises(ValueError):
            _ = evolve_slow(BASIS16, 2.0, tau_max=0.1).lab_time

    @pytest.mark.parametrize("n_samples", [0, 1])
    def test_too_few_samples_rejected(self, n_samples):
        with pytest.raises(ValueError, match="n_samples"):
            evolve_slow(BASIS16, 2.0, tau_max=0.5, n_samples=n_samples)

    @pytest.mark.parametrize("tau_max", [0.0, -0.5])
    def test_nonpositive_span_rejected(self, tau_max):
        with pytest.raises(ValueError, match="tau_max must be positive"):
            evolve_slow(BASIS16, 2.0, tau_max=tau_max)

    def test_sample_grid_is_exactly_the_requested_linspace(self):
        sl = evolve_slow(BASIS16, 2.0, tau_max=0.7, n_samples=1500)
        assert sl.alpha.shape == (1500, 16, 16) and sl.beta.shape == (1500, 16, 16)
        npt.assert_array_equal(sl.tau, np.linspace(0.0, 0.7, 1500))
        assert sl.tau[-1] == 0.7
        a_ex, b_ex = exact_slow_solution(BASIS16, 2.0, 0.7)
        npt.assert_allclose(sl.alpha[-1], a_ex, atol=1e-12)
        npt.assert_allclose(sl.beta_final, b_ex, atol=1e-12)


class TestPrincipalResonanceClosedForm:
    """At Omega = 2 omega_1 on L = pi (omega_k = k) the slow flow creates pairs
    only in mode 1 and scatters mode k to k +- 2; that chain has closed forms
    (Dodonov & Klimov, PRA 53, 2664 (1996)), independent of the truncation N
    while the cascade stays below it. With m = kappa^2 = 1 - exp(-4 tau):
    N_1 = (2/pi^2) K(m) E(m) - 1/2 and sum_k k N_k = sinh(tau)^2 / 4."""

    @pytest.fixture(scope="class")
    def flow(self):
        basis = ModeBasis.build(CavitySpec(length=np.pi, n_modes=256))
        sl = evolve_slow(basis, 2.0, tau_max=2.0, n_samples=5)
        tau = sl.tau[1:]
        npt.assert_array_equal(tau, [0.5, 1.0, 1.5, 2.0])
        return tau, (sl.beta[1:] ** 2).sum(axis=1)  # N_k = sum_n beta_nk^2

    def test_fundamental_occupation_is_the_elliptic_closed_form(self, flow):
        tau, N = flow
        m = 1.0 - np.exp(-4.0 * tau)
        npt.assert_allclose(N[:, 0], 2.0 / np.pi**2 * ellipk(m) * ellipe(m) - 0.5,
                            rtol=1e-13, atol=0.0)

    def test_energy_is_a_quarter_sinh_squared(self, flow):
        tau, N = flow
        energy = N @ np.arange(1, N.shape[1] + 1)
        exact = 0.25 * np.sinh(tau) ** 2
        npt.assert_allclose(energy[:3], exact[:3], rtol=1e-12, atol=0.0)
        # by tau = 2 the cascade up the ladder reaches the 256-mode cut and the
        # truncated chain misses about 1.4e-6 of the energy
        npt.assert_allclose(energy[3], exact[3], rtol=1e-5, atol=0.0)

    def test_coupled_mode_ode_meets_the_fundamental_closed_form(self):
        # the harmonic wall at eps = 1e-3, sliced after whole drive periods
        # at tau = eps t near 1 and 2; the ODE sits +1.61e-5 and +1.12e-5
        # (relative) above the closed form, the slow flow's own finite-eps
        # correction (Moore's N_1 shows the same gap), while truncating at
        # N = 24 puts tau = 2 off by -7.4e-4
        eps, t = 1e-3, np.array([318.0, 637.0]) * np.pi
        spec = CavitySpec(length=np.pi, n_modes=48)
        final, (middle,) = integrate_modes(spec, harmonic_wall(np.pi, eps, 2.0, t[1]),
                                           rtol=1e-10, times=t[:1])
        N1 = [(abs(extract_bogoliubov(amps).beta[:, 0]) ** 2).sum() for amps in (middle, final)]
        m = 1.0 - np.exp(-4.0 * eps * t)
        gap = np.array(N1) / (2.0 / np.pi**2 * ellipk(m) * ellipe(m) - 0.5) - 1.0
        assert np.all((0.0 < gap) & (gap < 2e-5))

    def test_moore_overlap_meets_the_fundamental_closed_form(self):
        # Moore's N_1 over 32 in-modes at eps = 3e-4, sliced at the drive's end
        # after 1061 periods (tau = eps t = 1.0000), where the overlap is free of
        # the compression that aliases it at long times: measured +4.16e-7
        # relative, moving by 1.2e-12 at n_quad 8192 and 16384
        eps, t = 3e-4, 1061.0 * np.pi
        bog = bogoliubov_from_moore(solve_moore(harmonic_wall(np.pi, eps, 2.0, t), t),
                                    ModeBasis.build(CavitySpec(length=np.pi, n_modes=32)), t,
                                    n_quad=4096)
        m = 1.0 - np.exp(-4.0 * eps * t)
        gap = (abs(bog.beta[:, 0]) ** 2).sum() / (2.0 / np.pi**2 * ellipk(m) * ellipe(m) - 0.5)
        assert 0.0 < gap - 1.0 < 1e-6


class TestCrossSolver:
    def test_degenerate_resonance_matches_full_ode(self):
        # eps = 1e-3, Omega = 2 w_1, eps*Omega*t up to 0.5
        spec = CavitySpec(length=np.pi, n_modes=12)
        basis = ModeBasis.build(spec)
        eps, Om, t_end = 1e-3, 2.0, 250.0
        bog = extract_bogoliubov(
            integrate_modes(spec, harmonic_wall(np.pi, eps, Om, t_end), rtol=1e-9))
        sl = evolve_slow(basis, Om, eps=eps, tau_max=eps * t_end)
        b11_ode = abs(bog.beta[0, 0])
        b11_msa = abs(sl.beta_final[0, 0])
        assert abs(b11_ode - b11_msa) / b11_msa < 0.05
        # next ladder rung agrees too
        b13_ode, b13_msa = abs(bog.beta[0, 2]), abs(sl.beta_final[0, 2])
        assert abs(b13_ode - b13_msa) / b13_msa < 0.05

    def test_sum_resonance_matches_full_ode(self):
        spec = CavitySpec(length=np.pi, n_modes=12)
        basis = ModeBasis.build(spec)
        eps, Om, t_end = 1e-3, 3.0, 200.0
        bog = extract_bogoliubov(
            integrate_modes(spec, harmonic_wall(np.pi, eps, Om, t_end), rtol=1e-9))
        sl = evolve_slow(basis, Om, eps=eps, tau_max=eps * t_end)
        for (n, k) in [(0, 1), (1, 0)]:
            ode, msa = abs(bog.beta[n, k]), abs(sl.beta_final[n, k])
            assert abs(ode - msa) / msa < 0.05
