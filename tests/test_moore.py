"""Conformal-solver tests.

The exact backstep evaluation makes most checks sharp: the defining relation
and the Doppler derivative relation hold to machine precision even for drives
that start with a velocity jump. Cross-solver comparisons against the
coupled-mode integration are truncation-limited and use the O(eps^2)
tolerances that the two-method agreement actually supports.
"""

import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest
import yaml
from scipy.integrate import simpson
from scipy.optimize import brentq

from dcelab import moore

from dcelab.bogoliubov import extract_bogoliubov, integrate_modes, photon_spectrum
from dcelab.cavity import CavitySpec, ModeBasis
from dcelab.cli import main
from dcelab.moore import (
    bogoliubov_from_moore,
    energy_density,
    solve_moore,
)
from dcelab.trajectories import (
    PolynomialRamp,
    harmonic_wall,
    quintic_wall,
    reversed_trajectory,
    static_wall,
    tabulated_wall,
)

# frozen sums of the thermal image series (see test_cavity for the oracle)
Z_HALF = 0.00589969389957472
Z_ONE = 0.15445464580288432


class TestStaticSolution:
    def test_linear_everywhere(self):
        F = solve_moore(static_wall(2.0), 10.0)
        z = np.array([-1.7, 0.0, 1.9, 2.1, 6.3, 11.5])
        npt.assert_allclose(F(z), z / 2.0, rtol=0.0, atol=1e-12)
        npt.assert_allclose(F.deriv(z, 1), 0.5, rtol=0.0, atol=1e-12)
        npt.assert_allclose(F.deriv(z, 2), 0.0, rtol=0.0, atol=1e-12)
        npt.assert_allclose(F.deriv(z, 3), 0.0, rtol=0.0, atol=1e-8)

    def test_defining_relation(self):
        F = solve_moore(static_wall(2.0), 10.0)
        t = np.linspace(0.0, 10.0, 200)
        npt.assert_allclose(F.residual(t), 0.0, atol=1e-12)

    def test_scalar_call_returns_float(self):
        F = solve_moore(static_wall(2.0), 10.0)
        assert isinstance(F(3.0), float)
        assert isinstance(F.deriv(3.0, 2), float)


class TestDrivenSolution:
    def test_residual_with_sudden_start(self):
        # velocity jumps at t=0; the solution stays exact anyway
        traj = harmonic_wall(np.pi, 0.01, 2.0, t_end=25.0)
        F = solve_moore(traj, 25.0)
        t = np.linspace(0.0, 25.0, 2001)
        assert np.abs(F.residual(t)).max() < 1e-9

    def test_residual_with_smooth_ramp(self):
        F = solve_moore(quintic_wall(np.pi, 0.05, 6.0), 9.0)
        t = np.linspace(0.0, 9.0, 1001)
        assert np.abs(F.residual(t)).max() < 1e-12

    def test_doppler_derivative_relation(self):
        # differentiating F(t+R) - F(t-R) = 2:
        # F'(t+R)(1+Rdot) = F'(t-R)(1-Rdot)
        traj = harmonic_wall(np.pi, 0.01, 2.0, t_end=25.0)
        F = solve_moore(traj, 25.0)
        t = np.linspace(0.5, 24.5, 401)
        R = np.asarray(traj.position(t))
        Rd = np.asarray(traj.velocity(t))
        gap = F.deriv(t + R, 1) * (1 + Rd) - F.deriv(t - R, 1) * (1 - Rd)
        assert np.abs(gap).max() < 1e-10

    def test_second_derivative_matches_finite_difference(self):
        F = solve_moore(quintic_wall(np.pi, 0.05, 2.0), 30.0)
        z = np.linspace(8.0, 28.0, 11)
        h = 1e-6
        fd = (F.deriv(z + h, 1) - F.deriv(z - h, 1)) / (2 * h)
        npt.assert_allclose(F.deriv(z, 2), fd, atol=1e-8)

    def test_values_strictly_increasing(self):
        F = solve_moore(harmonic_wall(np.pi, 0.05, 2.0, t_end=20.0), 20.0)
        z = np.linspace(F.z_min, F.z_max, 4097)  # the whole window
        assert np.all(np.diff(F(z)) > 0)

    def test_third_derivative_at_horizon_edge(self):
        F = solve_moore(quintic_wall(np.pi, 0.05, 2.0), 10.0)
        assert np.isfinite(F.deriv(F.z_max, 3))


class TestValidation:
    def test_beyond_horizon_raises(self):
        F = solve_moore(static_wall(1.0), 5.0)
        with pytest.raises(ValueError, match="solved up to"):
            F(F.z_max + 1.0)

    def test_bad_derivative_order(self):
        F = solve_moore(static_wall(1.0), 5.0)
        with pytest.raises(ValueError):
            F.deriv(1.0, 4)

    def test_superluminal_rejected(self):
        with pytest.raises(ValueError, match="Rdot"):
            solve_moore(harmonic_wall(np.pi, 0.6, 1.0, t_end=50.0), 50.0)

    def test_horizon_before_start_rejected(self):
        with pytest.raises(ValueError):
            solve_moore(harmonic_wall(np.pi, 0.01, 2.0, t_end=5.0, t_start=0.0), -1.0)

    def test_negative_temperature_rejected(self):
        F = solve_moore(static_wall(1.0), 5.0)
        with pytest.raises(ValueError):
            energy_density(F, -0.1, 0.5, 1.0)

    def test_mid_drive_overlap_slice_rejected(self):
        traj = harmonic_wall(np.pi, 0.01, 2.0, t_end=10.0)
        F = solve_moore(traj, 12.0)
        basis = ModeBasis.build(CavitySpec(length=np.pi, n_modes=8))
        with pytest.raises(ValueError, match="static"):
            bogoliubov_from_moore(F, basis, 5.0)


class TestEnergyDensity:
    def test_static_casimir_at_zero_temperature(self):
        for d0 in (1.0, 2.0):
            F = solve_moore(static_wall(d0), 8.0 * d0)
            x = np.linspace(0.0, d0, 17)
            rho = energy_density(F, 0.0, x, 3.0 * d0)
            npt.assert_allclose(rho, -np.pi / (24 * d0**2), rtol=0.0, atol=1e-8)

    def test_static_thermal_correction(self):
        F = solve_moore(static_wall(1.0), 8.0)
        rho = energy_density(F, 1.0, np.array([0.3, 0.6]), 2.0)
        npt.assert_allclose(rho, -np.pi / 24 + Z_ONE, rtol=0.0, atol=1e-8)
        F2 = solve_moore(static_wall(2.0), 16.0)
        rho2 = energy_density(F2, 0.25, np.array([0.9]), 5.0)
        npt.assert_allclose(rho2, (-np.pi / 24 + Z_HALF) / 4.0, rtol=0.0, atol=1e-8)

    def test_post_drive_energy_conserved(self):
        # once the wall stops, the total field energy is a constant of motion
        traj = quintic_wall(np.pi, 0.05, 2.0)
        R1 = float(traj.position(2.0))
        F = solve_moore(traj, 25.0)
        x = np.linspace(0.0, R1, 8193)
        E = [simpson(energy_density(F, 0.0, x, t), x=x) for t in (6.0, 13.7, 21.4)]
        # quadrature noise across the step discontinuities limits the match
        assert np.ptp(E) < 2e-5

    def test_created_energy_matches_photon_spectrum(self):
        # integral of the density above the (new) Casimir floor must equal
        # sum_k omega_k N_k from the mode-mixing matrices, for both solvers
        traj = quintic_wall(np.pi, 0.05, 2.0)
        R1 = float(traj.position(2.0))
        F = solve_moore(traj, 25.0)
        x = np.linspace(0.0, R1, 8193)
        rho = energy_density(F, 0.0, x, 6.0)
        E_density = simpson(rho, x=x) + np.pi / (24 * R1)

        basis = ModeBasis.build(CavitySpec(length=np.pi, n_modes=32))
        mm = bogoliubov_from_moore(F, basis, 6.0)
        E_moore = float(np.sum(mm.omega * photon_spectrum(mm)))

        spec = CavitySpec(length=np.pi, n_modes=32)
        amps = integrate_modes(spec, traj, t_final=6.0, rtol=1e-9)
        mo = extract_bogoliubov(amps)
        E_ode = float(np.sum(mo.omega * photon_spectrum(mo)))

        assert E_density > 0.0
        npt.assert_allclose(E_moore, E_density, rtol=1e-2)
        npt.assert_allclose(E_ode, E_density, rtol=1e-2)


class TestCrossSolverAgreement:
    def test_beta_matches_coupled_modes_at_resonance(self):
        # matched truncation, short resonant drive with a sudden start
        eps, tf, N = 0.01, 10.0, 16
        traj = harmonic_wall(np.pi, eps, 2.0, t_end=tf)
        F = solve_moore(traj, tf)
        basis = ModeBasis.build(CavitySpec(length=np.pi, n_modes=N))
        mm = bogoliubov_from_moore(F, basis, tf)
        amps = integrate_modes(CavitySpec(length=np.pi, n_modes=N), traj,
                               t_final=tf, rtol=1e-10)
        mo = extract_bogoliubov(amps)
        assert np.abs(mm.beta - mo.beta).max() < 5 * eps**2
        # interior block of alpha (away from the truncation edge)
        assert np.abs(mm.alpha - mo.alpha)[:8, :8].max() < 5e-3
        # the comparison is nontrivial: resonance has built up real mixing
        assert abs(mo.beta[0, 0]) > 0.04

    def test_beta_matches_coupled_modes_after_switch_off(self):
        # the drive stops with a velocity jump; the field momentum, not
        # dQ/dt, is continuous there, so beta read in the static tail must
        # keep the agreement reached at t_end
        eps, t_end, N = 0.01, 10.0, 16
        traj = harmonic_wall(np.pi, eps, 2.0, t_end=t_end)
        spec = CavitySpec(length=np.pi, n_modes=N)
        t = t_end + 3.0
        mm = bogoliubov_from_moore(solve_moore(traj, t), ModeBasis.build(spec), t)
        mo = extract_bogoliubov(integrate_modes(spec, traj, t_final=t, rtol=1e-10))
        assert np.abs(mm.beta - mo.beta).max() < 5e-4

    def test_beta_disagreement_scales_as_eps_squared(self):
        tf, N = 10.0, 16
        gaps = {}
        for eps in (0.005, 0.01):
            traj = harmonic_wall(np.pi, eps, 2.0, t_end=tf)
            F = solve_moore(traj, tf)
            basis = ModeBasis.build(CavitySpec(length=np.pi, n_modes=N))
            mm = bogoliubov_from_moore(F, basis, tf)
            mo = extract_bogoliubov(integrate_modes(
                CavitySpec(length=np.pi, n_modes=N), traj, t_final=tf, rtol=1e-10))
            gaps[eps] = np.abs(mm.beta - mo.beta).max()
        ratio = gaps[0.01] / gaps[0.005]
        assert 3.0 < ratio < 5.3

    def test_moore_rows_symplectic_away_from_truncation_edge(self):
        traj = harmonic_wall(np.pi, 0.01, 2.0, t_end=10.0)
        F = solve_moore(traj, 10.0)
        basis = ModeBasis.build(CavitySpec(length=np.pi, n_modes=16))
        mm = bogoliubov_from_moore(F, basis, 10.0)
        assert np.abs(mm.symplectic_defect()[:8]).max() < 5e-3


def _edge_image_gap(traj, z):
    """Distance of z's descent chain from the bounce images of the window edges.

    F''' jumps where a hop of the descent lands on t_start or t_end, since
    the wall's velocity, acceleration or jerk jumps there.
    """
    edges = [t + float(traj.position(t)) for t in (traj.t_start, traj.t_end)]
    gap, cur = np.inf, z
    while True:
        gap = min(gap, *(abs(cur - e) for e in edges))
        if cur <= edges[0]:
            return gap
        t = brentq(lambda u: u + float(traj.position(u)) - cur, traj.t_start, cur)
        cur = t - float(traj.position(t))


def _richardson_third_derivative(F, z, hs=(4e-3, 2e-3, 1e-3, 5e-4)):
    """Central differences of the exact F'', extrapolated in h^2 (step ratio 2)."""
    D = [(F.deriv(z + h, 2) - F.deriv(z - h, 2)) / (2.0 * h) for h in hs]
    for k in range(1, len(D)):
        D = [(4**k * D[i + 1] - D[i]) / (4**k - 1) for i in range(len(D) - 1)]
    return D[0]


THIRD_DERIVATIVE_WALLS = {
    "harmonic": lambda: harmonic_wall(np.pi, 0.05, 2.0, t_end=12.0),
    "quintic": lambda: quintic_wall(np.pi, 0.05, 3.0),
    "tabulated": lambda: tabulated_wall(
        np.linspace(0.0, 6.0, 61),
        np.pi * (1.0 + 0.04 * np.sin(np.linspace(0.0, np.pi, 61)) ** 2)),
    "reversed": lambda: reversed_trajectory(quintic_wall(np.pi, 0.05, 3.0)),
    "ramp": lambda: PolynomialRamp(np.random.default_rng(31).uniform(-64.0, 64.0, 3)).wall(
        np.pi, 0.02, 3.0),
}


class TestExactThirdDerivative:
    @pytest.mark.parametrize("name", sorted(THIRD_DERIVATIVE_WALLS))
    def test_matches_richardson_difference_of_exact_second(self, name):
        traj = THIRD_DERIVATIVE_WALLS[name]()
        F = solve_moore(traj, traj.t_end + 8.0)
        z = np.linspace(F.z_lin + 0.1, F.z_max - 0.1, 60)
        z = z[[_edge_image_gap(traj, zi) > 0.05 for zi in z]]
        exact = F.deriv(z, 3)
        assert np.count_nonzero(np.abs(exact) > 1e-3) >= 20  # the drive bends F
        npt.assert_allclose(exact, _richardson_third_derivative(F, z), rtol=1e-7)


class TestGridEvaluation:
    def setup_method(self):
        self.traj = harmonic_wall(np.pi, 0.05, 2.0, t_end=12.0)
        self.F = solve_moore(self.traj, 18.0)
        self.x = np.linspace(0.0, 0.95 * np.pi, 23)
        self.t = np.linspace(0.0, 18.0, 31)

    def test_grid_matches_row_by_row(self):
        grid = energy_density(self.F, 0.3, self.x, self.t[:, None])
        rows = np.array([energy_density(self.F, 0.3, self.x, float(t)) for t in self.t])
        assert grid.shape == (self.t.size, self.x.size)
        npt.assert_allclose(grid, rows, rtol=0.0, atol=1e-12 * np.abs(rows).max())

    def test_scalar_point_returns_float(self):
        rho = energy_density(self.F, 0.3, 1.1, 7.5)
        assert isinstance(rho, float)
        assert rho == pytest.approx(
            float(energy_density(self.F, 0.3, np.array([1.1]), 7.5)[0]), rel=1e-12)

    def test_bisection_fallback_matches_newton(self, monkeypatch):
        # one Newton step converges no root, so all of them go to one bisection
        calls = []
        real = moore.bisect
        monkeypatch.setattr(moore, "bisect",
                            lambda f, lo, hi: calls.append(np.size(hi)) or real(f, lo, hi))
        z = np.linspace(4.0, 14.0, 21)  # bounces while the wall moves (t < 12)
        newton = moore._bounce_times(self.traj, z, self.traj.t_start)
        assert not calls
        fallback = moore._bounce_times(self.traj, z, self.traj.t_start, max_iter=1)
        assert calls == [z.size]
        npt.assert_allclose(fallback, newton, rtol=0.0, atol=1e-13)

    def test_scalar_bounce_time_through_the_bisection(self):
        # max_iter=0 sends every z to the bisection; a 0-d z keeps its shape
        z = np.linspace(4.0, 14.0, 5)
        newton = moore._bounce_times(self.traj, z, self.traj.t_start)
        for zi, expected in zip(z, newton):
            for arg in (zi, np.float64(zi), np.array(zi)):
                t = moore._bounce_times(self.traj, arg, self.traj.t_start, max_iter=0)
                assert np.shape(t) == ()
                assert abs(t - expected) <= 1e-13

    def test_grid_descends_once_per_hop_level(self, monkeypatch):
        calls = []
        real = moore._bounce_times

        def spy(traj, z, t_lo):
            calls.append(np.size(z))
            return real(traj, z, t_lo)

        monkeypatch.setattr(moore, "_bounce_times", spy)
        energy_density(self.F, 0.0, self.x, self.t[:, None])
        levels = len(calls)
        calls.clear()
        self.F.deriv(float(self.t.max() + self.x.max()), 1)  # deepest ray alone
        assert levels == len(calls) > 1
        assert levels < 4 * 2 * self.t.size


def dense_overlap(F, basis, t_slice, n_quad=4096):
    """(alpha, beta) of bogoliubov_from_moore as it was before it summed in
    node chunks: every (N, nodes) array at once, e^{-i n pi F} and sin(k pi x
    / R) from one exponential or sine per entry, and four complex products."""
    R = float(F.traj.position(t_slice))
    N = basis.n_modes
    omega = basis.omega_at(R)
    n_quad += n_quad % 2
    x = np.linspace(0.0, R, n_quad + 1)
    wts = np.ones(n_quad + 1)
    wts[1:-1:2] = 4.0
    wts[2:-1:2] = 2.0
    wts *= (x[1] - x[0]) / 3.0
    ns = np.arange(1, N + 1)
    (Fp, dFp, _, _), (Fm, dFm, _, _) = F._rays(t_slice, x)
    pref = 1j / np.sqrt(4.0 * np.pi * ns)[:, None]
    ep = np.exp(-1j * np.pi * np.outer(ns, Fp))
    em = np.exp(-1j * np.pi * np.outer(ns, Fm))
    v = pref * (ep - em)
    dv = pref * (-1j * np.pi * ns[:, None]) * (dFp * ep - dFm * em)
    phase = np.exp(-1j * omega * t_slice)
    u = np.sin(np.outer(ns, np.pi * x / R)) / np.sqrt(np.pi * ns)[:, None] * phase[:, None]
    alpha = (1j * ((np.conj(u) * wts) @ dv.T) + omega[:, None] * ((np.conj(u) * wts) @ v.T)).T
    beta = (-1j * ((u * wts) @ dv.T) + omega[:, None] * ((u * wts) @ v.T)).T
    return alpha, beta


# (wall, overlap slice): a resonant harmonic drive read at its end, and a quintic
# ramp read in its static tail
OVERLAP_WALLS = {
    "harmonic": (lambda: harmonic_wall(np.pi, 0.05, 2.0, t_end=10.0), 10.0),
    "quintic": (lambda: quintic_wall(np.pi, 0.2, 2.0), 4.0),
}


@pytest.fixture
def descents(monkeypatch):
    """Records the number of points of every Moore descent."""
    sizes = []
    descend = moore.MooreFunction._descend

    def spy(self, z):
        sizes.append(np.size(z))
        return descend(self, z)
    monkeypatch.setattr(moore.MooreFunction, "_descend", spy)
    return sizes


class TestChunkedOverlap:
    """The overlap sums in node chunks, with powers by recurrence, and matches
    the dense formula; its memory does not grow with N times the nodes."""

    @pytest.fixture(scope="class", params=sorted(OVERLAP_WALLS))
    def solved(self, request):
        wall, t_slice = OVERLAP_WALLS[request.param]
        return solve_moore(wall(), t_slice), t_slice

    @pytest.mark.parametrize("N", [1, 16, 48])
    @pytest.mark.parametrize("n_quad", [1026, 4096, 5000])
    def test_matches_dense_overlap(self, solved, N, n_quad):
        # 5000 + 1 nodes leave an uneven last chunk at every N
        F, t_slice = solved
        basis = ModeBasis.build(CavitySpec(length=np.pi, n_modes=N))
        alpha, beta = dense_overlap(F, basis, t_slice, n_quad)
        mm = bogoliubov_from_moore(F, basis, t_slice, n_quad)
        assert np.abs(mm.beta - beta).max() <= 1e-13 * np.abs(beta).max()
        assert np.abs(mm.alpha - alpha).max() <= 1e-13 * np.abs(alpha).max()

    def test_descends_both_rays_of_every_node_once(self, descents):
        traj = harmonic_wall(np.pi, 0.01, 2.0, t_end=10.0)
        F = solve_moore(traj, 10.0)
        assert descents == []
        bogoliubov_from_moore(F, ModeBasis.build(CavitySpec(length=np.pi, n_modes=8)), 10.0,
                              n_quad=1026)
        assert descents == [2 * 1027]

    def test_memory_is_bounded_per_chunk(self):
        # the dense formula traced about 85 MB here: eight (48, 16385) complex arrays
        traj = harmonic_wall(np.pi, 1e-3, 2.0, t_end=300.0)
        F = solve_moore(traj, 300.0)
        basis = ModeBasis.build(CavitySpec(length=np.pi, n_modes=48))
        tracemalloc.start()
        try:
            bogoliubov_from_moore(F, basis, 300.0, n_quad=16384)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 16e6


class TestDescentOnDemand:
    def test_solve_moore_descends_nothing(self, descents):
        solve_moore(harmonic_wall(np.pi, 0.05, 2.0, t_end=20.0), 20.0)
        assert descents == []

    @staticmethod
    def nan_bounce(monkeypatch):
        """Corrupts every descent: the first bounce time of each hop level is NaN."""
        real = moore._bounce_times

        def corrupted(traj, z, t_lo):
            t = real(traj, z, t_lo)
            t.flat[0] = np.nan
            return t
        monkeypatch.setattr(moore, "_bounce_times", corrupted)

    @staticmethod
    def negated(monkeypatch):
        """Corrupts every descent: F comes back negated, F' and above intact."""
        real = moore.MooreFunction._descend
        monkeypatch.setattr(moore.MooreFunction, "_descend",
                            lambda self, z: (-real(self, z)[0],) + real(self, z)[1:])

    def test_non_finite_derivative_is_refused(self, monkeypatch):
        F = solve_moore(harmonic_wall(np.pi, 0.05, 2.0, t_end=6.0), 8.0)
        self.nan_bounce(monkeypatch)
        with pytest.raises(RuntimeError, match="not strictly increasing"):
            F(np.linspace(3.0, 9.0, 7))

    def test_decreasing_values_are_refused(self, monkeypatch):
        F = solve_moore(harmonic_wall(np.pi, 0.05, 2.0, t_end=6.0), 8.0)
        self.negated(monkeypatch)
        with pytest.raises(RuntimeError, match="not strictly increasing"):
            moore._increasing(F(np.linspace(F.z_min, F.z_max, 33)))
        basis = ModeBasis.build(CavitySpec(length=np.pi, n_modes=4))
        with pytest.raises(RuntimeError, match="not strictly increasing"):
            bogoliubov_from_moore(F, basis, 8.0, n_quad=64)

    @pytest.mark.parametrize("corrupt", ["nan_bounce", "negated"])
    @pytest.mark.parametrize("subcommand", ["moore", "crosscheck"])
    def test_runners_exit_3(self, tmp_path, monkeypatch, capsys, corrupt, subcommand):
        doc = {"cavity": {"length": float(np.pi), "n_modes": 4},
               "trajectory": {"type": "harmonic", "epsilon": 0.01, "omega": 2.0,
                              "t_end": 6.0},
               "moore": {"t_max": 8.0, "n_z": 9, "n_x": 5, "n_t": 3}}
        if subcommand == "crosscheck":
            del doc["moore"]
        cfg = tmp_path / "scenario.yaml"
        cfg.write_text(yaml.safe_dump(doc))
        getattr(self, corrupt)(monkeypatch)
        assert main([subcommand, "--config", str(cfg), "--out", str(tmp_path / "out")]) == 3
        assert "not strictly increasing" in capsys.readouterr().err
