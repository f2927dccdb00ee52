import time

import numpy as np
import pytest
from dataclasses import replace
from scipy.integrate import simpson

import dcelab.otto as otto
from dcelab.cavity import CavitySpec, dirichlet_spectrum, thermal_occupation
from dcelab.trajectories import PolynomialRamp, quintic_wall
from dcelab.bogoliubov import integrate_modes, extract_bogoliubov, photon_spectrum
from dcelab.otto import (
    CycleSpec,
    adiabatic_cycle,
    friction_energy,
    friction_kernel,
    nonadiabatic_cycle,
    power_curve,
    quintic_trajectory,
    quintic_trajectory_dot,
    random_admissible_trajectory,
    velocity_transform,
)

L0 = np.pi  # omega_1 = 1


def base_spec(**kw):
    args = dict(L0=L0, eps=0.01, beta_A=2.0, beta_C=0.2, tau=1.0, n_modes=30)
    args.update(kw)
    return CycleSpec(**args)


class TestTrajectory:
    def test_endpoints(self):
        assert quintic_trajectory(0.0, 2.0) == 0.0
        assert quintic_trajectory(2.0, 2.0) == 1.0

    def test_midpoint(self):
        # 10/8 - 15/16 + 6/32
        assert quintic_trajectory(1.0, 2.0) == pytest.approx(0.5, abs=1e-15)

    def test_velocity_pinned_at_ends(self):
        assert abs(quintic_trajectory_dot(0.0, 2.0)) < 1e-14
        assert abs(quintic_trajectory_dot(2.0, 2.0)) < 1e-14

    def test_domain_validated(self):
        with pytest.raises(ValueError, match="outside"):
            quintic_trajectory(2.5, 2.0)

    def test_random_shapes_admissible(self):
        rng = np.random.default_rng(3)
        tau, h = 1.7, 1e-5
        for _ in range(10):
            d, dd = random_admissible_trajectory(rng)
            assert abs(d(0.0, tau)) < 1e-13
            assert abs(d(tau, tau) - 1.0) < 1e-13
            assert abs(dd(0.0, tau)) < 1e-13
            assert abs(dd(tau, tau)) < 1e-13
            # acceleration pinned too (finite difference of the derivative)
            assert abs(dd(h, tau) - dd(0.0, tau)) / h < 1e-3
            assert abs(dd(tau, tau) - dd(tau - h, tau)) / h < 1e-3


class TestKernel:
    def test_symmetric_in_times(self):
        spec = base_spec(n_modes=6)
        assert friction_kernel(0.7, 1.3, 2, 2.0, spec) == pytest.approx(
            friction_kernel(1.3, 0.7, 2, 2.0, spec), rel=1e-14)

    def test_single_mode_vacuum_is_squared_velocity(self):
        # one mode, cold bath: only the squeeze term with unit prefactor
        spec = base_spec(n_modes=1, tau=2.0)
        t1 = 0.8
        val = friction_kernel(t1, t1, 1, 1e9, spec)
        assert val == pytest.approx(quintic_trajectory_dot(t1, 2.0) ** 2, rel=1e-12)

    def test_mode_index_validated(self):
        with pytest.raises(ValueError, match="mode index"):
            friction_kernel(0.1, 0.2, 31, 2.0, base_spec())

    def test_factorized_energy_matches_double_integral(self):
        spec = base_spec(n_modes=8, tau=2.0)
        t = np.linspace(0.0, spec.tau, 401)
        T1, T2 = np.meshgrid(t, t, indexing="ij")
        omega = dirichlet_spectrum(spec.n_modes, spec.L0)
        for beta in [2.0, 0.2]:
            total = 0.0
            for k in range(1, spec.n_modes + 1):
                K = friction_kernel(T1, T2, k, beta, spec)
                total += omega[k - 1] * simpson(simpson(K, x=t, axis=1), x=t)
            brute = 0.25 * spec.eps**2 * total
            assert friction_energy(spec, beta) == pytest.approx(brute, rel=1e-6)


class TestFrictionEnergy:
    def test_positive_on_random_trajectories(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            d, dd = random_admissible_trajectory(rng)
            spec = base_spec(tau=float(rng.uniform(0.3, 5.0)), n_modes=20,
                             delta=d, delta_dot=dd)
            assert friction_energy(spec, 2.0) > 0.0

    def test_time_reversal_invariant(self):
        rng = np.random.default_rng(5)
        d, dd = random_admissible_trajectory(rng)
        fwd = base_spec(tau=1.5, delta=d, delta_dot=dd)
        rev = base_spec(
            tau=1.5,
            delta=lambda t, tau: 1.0 - d(tau - np.asarray(t), tau),
            delta_dot=lambda t, tau: dd(tau - np.asarray(t), tau))
        assert friction_energy(rev, 2.0) == pytest.approx(
            friction_energy(fwd, 2.0), rel=1e-12)

    def test_vanishes_for_slow_strokes(self):
        spec = base_spec(tau=1000.0)
        assert friction_energy(spec, 2.0) < 1e-6 * spec.eps**2

    def test_quadratic_in_compression(self):
        e1 = friction_energy(base_spec(eps=0.01), 2.0)
        e2 = friction_energy(base_spec(eps=0.02), 2.0)
        assert e2 / e1 == pytest.approx(4.0, rel=1e-12)

    def test_truncated_fast_stroke_flagged(self):
        # tau w1 = 0.05 populates modes far beyond a 10-mode ladder
        spec = base_spec(tau=0.05, n_modes=10)
        with pytest.raises(RuntimeError, match="not converged"):
            friction_energy(spec, 2.0, check_convergence=True)

    def test_convergence_check_passes_when_resolved(self):
        spec = base_spec(tau=3.0, n_modes=20)
        val = friction_energy(spec, 2.0, check_convergence=True)
        assert val > 0.0

    def test_transform_endpoint_value(self):
        assert velocity_transform(base_spec(), 0.0)[0] == pytest.approx(1.0, abs=1e-13)


class TestClosedFormTransform:
    # a tau from 0 to 2.2e4, with points on both sides of the |a tau| = 8
    # switch between the 32-node rule and the integration-by-parts sum
    X = np.concatenate([[0.0, 1e-3, 0.5, 3.0, 7.9, 7.999999, 8.0, 8.000001, 8.1],
                        np.geomspace(9.0, 2.2e4, 40)])

    def shapes(self):
        rng = np.random.default_rng(17)
        return [(quintic_trajectory, quintic_trajectory_dot)] + [
            random_admissible_trajectory(rng, order=o) for o in (0, 1, 2, 3, 4)]

    def test_matches_composite_quadrature(self):
        for d, dd in self.shapes():
            for tau in (0.2, 1.0, 300.0):
                ramp = base_spec(tau=tau, delta=d, delta_dot=dd)
                plain = base_spec(tau=tau, delta=lambda t, tau: d(t, tau),
                                  delta_dot=lambda t, tau: dd(t, tau))
                a = self.X / tau
                closed = velocity_transform(ramp, a)
                quad = velocity_transform(plain, a)
                np.testing.assert_allclose(closed, quad, rtol=0.0, atol=1e-13)

    def test_ramp_is_never_sampled(self, monkeypatch):
        spec = base_spec(tau=2.0)
        expected = velocity_transform(spec, self.X / 2.0)

        def sampled(ramp, s, order=0):
            raise AssertionError("closed form sampled the ramp")
        # every evaluation of a ramp, delta and delta_dot included, goes
        # through PolynomialRamp.derivative
        monkeypatch.setattr(PolynomialRamp, "derivative", sampled)
        with pytest.raises(AssertionError, match="sampled"):
            quintic_trajectory_dot(1.0, 2.0)
        np.testing.assert_array_equal(velocity_transform(spec, self.X / 2.0), expected)

    def test_other_callables_take_the_quadrature(self):
        calls = []

        def sine_dot(t, tau):
            calls.append(np.size(t))
            return 0.5 * np.pi / tau * np.sin(np.pi * np.asarray(t) / tau)
        spec = base_spec(
            tau=2.0, delta=lambda t, tau: 0.5 - 0.5 * np.cos(np.pi * np.asarray(t) / tau),
            delta_dot=sine_dot)
        a = np.array([0.0, 3.0, 50.0])
        C = velocity_transform(spec, a)
        assert len(calls) == a.size
        # int_0^tau (pi / 2 tau) sin(pi t / tau) e^{i a t} dt
        x = a * spec.tau
        exact = 0.5 * np.pi**2 * (1.0 + np.exp(1j * x)) / (np.pi**2 - x**2)
        np.testing.assert_allclose(C, exact, rtol=0.0, atol=1e-14)


class TestOneTransformPerCycle:
    @pytest.mark.parametrize("check, n_freq", [(False, 61), (True, 121)])
    def test_both_strokes_share_one_transform(self, monkeypatch, check, n_freq):
        calls = []
        transform = otto.velocity_transform

        def spy(spec, a_values):
            calls.append(np.size(a_values))
            return transform(spec, a_values)
        monkeypatch.setattr(otto, "velocity_transform", spy)
        spec = base_spec(tau=3.0, beta_C=1.0, n_modes=30)
        r = nonadiabatic_cycle(spec, check_convergence=check)
        assert calls == [n_freq]
        monkeypatch.undo()
        # each stroke gets the same loss as friction_energy at its own bath
        r0 = adiabatic_cycle(spec)
        assert r.E_B == r0.E_B + friction_energy(spec, spec.beta_A, check)
        assert r.E_D == r0.E_D + friction_energy(spec, spec.beta_C, check)

    def test_long_stroke_stays_cheap(self):
        # the composite quadrature would need about 2e6 panels per frequency
        spec = base_spec(tau=1e5, n_modes=30)
        start = time.perf_counter()
        r = nonadiabatic_cycle(spec)
        elapsed = time.perf_counter() - start
        assert abs(r.eta - spec.eps) < 1e-8
        assert elapsed < 0.25


class TestAdiabaticCycle:
    def test_efficiency_is_compression_ratio(self):
        r = adiabatic_cycle(base_spec())
        assert r.eta == pytest.approx(0.01, abs=1e-12)
        assert r.engine

    def test_carnot_point_degenerates(self):
        # beta_C/beta_A = 1 - eps: hot occupations at the compressed
        # spectrum match the cold ones exactly, so the cycle shuts off
        # exactly where the Otto efficiency reaches the Carnot bound
        spec = base_spec(beta_C=2.0 * 0.99)
        r = adiabatic_cycle(spec)
        assert abs(r.W) < 1e-12
        assert abs(r.Q) < 1e-12
        assert 1.0 - spec.beta_C / spec.beta_A == pytest.approx(spec.eps, rel=1e-12)

    def test_equal_baths_reject_heat(self):
        # rethermalizing at the same temperature but stiffer spectrum costs
        # work of order eps^2 and expels heat; not an engine
        r = adiabatic_cycle(base_spec(beta_C=2.0))
        assert r.Q < 0.0
        assert abs(r.W) < 1.0 * 0.01**2
        assert not r.engine

    def test_casimir_offsets_cancel(self):
        r0 = adiabatic_cycle(base_spec())
        r1 = adiabatic_cycle(base_spec(include_casimir=True))
        assert r1.W == pytest.approx(r0.W, abs=1e-12)
        assert r1.Q == pytest.approx(r0.Q, abs=1e-12)
        assert r1.E_A != pytest.approx(r0.E_A, abs=1e-6)

    def test_validation(self):
        with pytest.raises(ValueError, match="compression"):
            base_spec(eps=1.5)
        with pytest.raises(ValueError, match="inverse temperatures"):
            base_spec(beta_C=-1.0)
        with pytest.raises(ValueError, match="ramp"):
            base_spec(delta=lambda t, tau: 2.0 * np.asarray(t) / tau)

    def test_shape_needs_delta_and_delta_dot_together(self):
        d, dd = quintic_trajectory, quintic_trajectory_dot
        for lone in (dict(delta=d), dict(delta_dot=dd)):
            with pytest.raises(ValueError, match="delta and delta_dot"):
                base_spec(**lone)

    def test_delta_dot_must_be_the_rate_of_delta(self):
        r = PolynomialRamp([20.0, -10.0])
        with pytest.raises(ValueError, match="delta_dot is not the rate of delta"):
            base_spec(tau=2.0, delta=r.delta, delta_dot=r.delta)
        with pytest.raises(ValueError, match="delta_dot"):
            base_spec(tau=2.0, delta=r.delta, delta_dot=PolynomialRamp().delta_dot)
        base_spec(tau=2.0, delta=r.delta, delta_dot=r.delta_dot)

    def test_plain_pair_must_integrate_to_the_ramp(self):
        # the quintic itself as its own rate integrates to tau / 2, so
        # C(0) = 0.5 at tau = 1 where delta(tau) - delta(0) = 1
        def quintic(t, tau):
            return quintic_trajectory(t, tau)
        spec = base_spec(tau=1.0, delta=quintic, delta_dot=quintic)
        with pytest.raises(ValueError, match=r"C\(0\) = 0\.5 is not 1"):
            friction_energy(spec, 2.0)
        with pytest.raises(ValueError, match=r"C\(0\) = 0\.5 is not 1"):
            nonadiabatic_cycle(spec)


class TestNonadiabaticCycle:
    def test_friction_lowers_efficiency(self):
        r = nonadiabatic_cycle(base_spec(tau=1.0))
        assert 0.0 < r.eta < 0.01

    def test_linear_expansion_accurate(self):
        r = nonadiabatic_cycle(base_spec(tau=1.0))
        assert abs(r.eta - r.eta_linear) < 10.0 * 0.01**3

    def test_adiabatic_limit_recovers_otto(self):
        r = nonadiabatic_cycle(base_spec(tau=1000.0))
        assert r.eta == pytest.approx(0.01, abs=1e-4)

    def test_efficiency_decays_until_stall(self):
        taus = [5.0, 2.0, 1.0, 0.6, 0.4, 0.25, 0.15, 0.1]
        res = [nonadiabatic_cycle(base_spec(tau=t)) for t in taus]
        etas = [r.eta for r in res]
        alive = [r.W > 0 for r in res]
        stall = alive.index(False)
        assert 0 < stall < len(taus)  # a minimum timescale exists
        assert all(np.diff(etas[:stall]) < 0.0)  # monotone loss before it

    def test_near_carnot_fast_stroke_stalls(self):
        r = nonadiabatic_cycle(base_spec(beta_C=2.0 * 0.98, tau=0.3))
        assert r.W <= 0.0
        assert not r.engine


class TestModeOdeCrossCheck:
    def integrated_friction(self, eps, beta, tau=2.0, n=24, ramp=None):
        traj = quintic_wall(L0, eps, tau) if ramp is None else ramp.wall(L0, eps, tau)
        amps = integrate_modes(CavitySpec(L0, n), traj, rtol=1e-10)
        n_in = thermal_occupation(beta, dirichlet_spectrum(n, L0))
        n_out = photon_spectrum(extract_bogoliubov(amps), n_in=n_in)
        omega1 = dirichlet_spectrum(n, L0 * (1.0 - eps))
        return float(np.sum(omega1 * (n_out - n_in)))

    def test_kernel_matches_full_evolution(self):
        # independent path: integrate the exact coupled-mode system and read
        # the stroke energy from the occupation change; the perturbative
        # kernel must agree to the next order in the compression ratio
        eps, beta = 0.01, 2.0
        ef_ode = self.integrated_friction(eps, beta)
        ef_kernel = friction_energy(base_spec(eps=eps, tau=2.0, n_modes=24), beta)
        assert abs(ef_ode - ef_kernel) < 4.0 * eps**3

    def test_kernel_matches_full_evolution_on_random_ramps(self):
        # the kernel's relative gap is linear in eps (a secular phase error);
        # at w_1 tau = 2 it measured -1.7 eps to -3.4 eps on bumped ramps
        eps, beta = 0.01, 2.0
        rng = np.random.default_rng(19)
        for _ in range(3):
            ramp = PolynomialRamp(rng.uniform(-64.0, 64.0, size=3))
            ef_ode = self.integrated_friction(eps, beta, ramp=ramp)
            spec = base_spec(eps=eps, tau=2.0, n_modes=24,
                             delta=ramp.delta, delta_dot=ramp.delta_dot)
            assert abs(friction_energy(spec, beta) - ef_ode) < 5.0 * eps * ef_ode

    def test_compression_scaling_of_exact_evolution(self):
        eps = np.array([0.005, 0.01, 0.02])
        ef = [self.integrated_friction(e, 2.0) for e in eps]
        slope = np.polyfit(np.log(eps), np.log(ef), 1)[0]
        assert slope == pytest.approx(2.0, abs=0.05)


class TestPowerCurve:
    def test_unique_interior_peak_in_window(self):
        pc = power_curve(base_spec(), np.geomspace(0.1, 10.0, 25))
        dP = np.diff(pc.P)
        assert np.sum(np.sign(dP[:-1]) != np.sign(dP[1:])) == 1
        assert 0.1 <= pc.tau_peak <= 10.0
        assert 0 < pc.i_peak < pc.tau.size - 1

    def test_slow_tail_approaches_otto_work(self):
        spec = base_spec()
        pc = power_curve(spec, np.array([200.0]))
        W_otto = adiabatic_cycle(spec).W
        assert pc.P[0] * 2.0 * 200.0 == pytest.approx(W_otto, rel=1e-4)

    def test_fast_tail_quartic_divergence(self):
        spec = base_spec(n_modes=200)
        taus = np.geomspace(0.03, 0.1, 6)
        pc = power_curve(spec, taus)
        assert np.all(pc.W < 0.0)
        slope = np.polyfit(np.log(taus), np.log(np.abs(pc.P)), 1)[0]
        assert slope == pytest.approx(-4.0, abs=0.3)

    def test_grid_validated(self):
        with pytest.raises(ValueError, match="positive"):
            power_curve(base_spec(), np.array([0.5, -1.0]))
