"""Coupled-mode integration and mode-mixing extraction checks.

The reference behaviours here are physics identities (no external numbers):
a static wall produces the identity transformation, the per-row symplectic
sum is conserved, photon number scales as the square of the drive amplitude,
retracing the trajectory undoes the production at leading order, and
resonant rows grow while detuned ones only dephase. Periodic walls are
propagated with a one-period monodromy matrix; the same wall with its
period dropped (direct integration) is the reference for that path, and
the same run with magnus._quarters switched off (one product over the whole
period) the reference for the matrix built from two quarter periods. The
accuracy reference is scipy's DOP853 on the same canonical system.
"""

import math
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import numpy as np
import numpy.testing as npt
import pytest
from scipy.integrate import solve_ivp
from scipy.linalg import expm

import dcelab.gate as gate
import dcelab.magnus as magnus
from dcelab.bogoliubov import (
    ModeAmplitudes,
    extract_bogoliubov,
    initial_amplitudes,
    integrate_modes,
    mode_snapshots,
    photon_spectrum,
    photon_time_series,
)
from dcelab.cavity import CavitySpec, ModeBasis, dirichlet_spectrum, thermal_occupation
from dcelab.trajectories import (
    WallTrajectory,
    harmonic_wall,
    quintic_wall,
    reversed_trajectory,
    static_wall,
    tabulated_wall,
)


SPEC12 = CavitySpec(length=np.pi, n_modes=12)


def dop853_bogoliubov(spec, traj, rtol):
    """Bogoliubov matrices at traj.t_end from DOP853 on dQ/dt = P + lam Mhat Q,
    dP/dt = -(khat/R)^2 Q + lam Mhat P, started in the vacuum at traj.t_start."""
    N = spec.n_modes
    basis = ModeBasis.build(spec)
    khat, Mhat = np.arange(1, N + 1) * np.pi, basis.M * basis.R0

    def rhs(t, y):
        Q, P = y.reshape(2, N, N)
        R = traj.position(t)
        lam = traj.velocity(t) / R
        return np.concatenate([(P + lam * (Mhat @ Q)).ravel(),
                               (-((khat / R) ** 2)[:, None] * Q + lam * (Mhat @ P)).ravel()])
    a0 = initial_amplitudes(spec, R0=float(traj.position(traj.t_start)), t0=traj.t_start)
    sol = solve_ivp(rhs, (traj.t_start, traj.t_end), np.vstack([a0.Q, a0.Qdot]).ravel(),
                    method="DOP853", rtol=rtol, atol=1e-2 * rtol)
    assert sol.success
    Q, P = sol.y[:, -1].reshape(2, N, N)
    return extract_bogoliubov(ModeAmplitudes(t=traj.t_end, Q=Q, Qdot=P,
                                             R=float(traj.position(traj.t_end)), spec=spec))


def coupled_mode_generator(traj, N):
    """The dense A(t) of dY/dt = A Y for Y = (Q; P) at any array of times:
    [[lam Mhat, I], [-(khat / R)^2, lam Mhat]] with lam = Rdot / R. The
    package forms its Magnus exponents from these blocks
    (magnus.field_exponent); this is their reference."""
    basis = ModeBasis.build(CavitySpec(length=np.pi, n_modes=N))
    khat, Mhat, eye = np.arange(1, N + 1) * np.pi, basis.M * basis.R0, np.eye(N)

    def A(t):
        R = traj.position(t)[..., None, None]
        lam = traj.velocity(t)[..., None, None] / R
        out = np.zeros(np.shape(t) + (2 * N, 2 * N))
        out[..., :N, :N] = out[..., N:, N:] = lam * Mhat
        out[..., :N, N:] = eye
        out[..., N:, :N] = -((khat / R) ** 2) * eye
        return out
    return A


def magnus6(a1, a2, a3, h):
    """Sixth-order Magnus exponent (Blanes, Casas & Ros) of one step from the
    dense generators at its three Gauss nodes, by 2N x 2N brackets."""
    def bracket(x, y):
        return x @ y - y @ x
    b1, b2 = h * a2, (np.sqrt(15.0) * h / 3.0) * (a3 - a1)
    b3 = (10.0 * h / 3.0) * (a3 - 2.0 * a2 + a1)
    c1 = bracket(b1, b2)
    c2 = bracket(b1, 2.0 * b3 + c1) / -60.0
    return b1 + b3 / 12.0 + bracket(-20.0 * b1 - b3 + c1, b2 + c2) / 240.0


def expm_taylor_allocating(X):
    """magnus.expm_taylor as it was before it took a workspace: the same
    arithmetic in the same order, with every array allocated per call."""
    n = X.shape[-1]
    norm = float((np.ones(n) @ np.abs(X)).max(initial=0.0))
    m, q, s = magnus._degree(norm)
    r = m // q
    P = np.empty((q,) + X.shape, dtype=X.dtype)
    np.multiply(X, 0.5 ** s, out=P[0])
    for i in range(1, q):
        np.matmul(P[i - 1], P[0], out=P[i])
    C = np.zeros((r, q + 1))
    C[:, :q] = [[1.0 / math.factorial(k * q + i) for i in range(q)] for k in range(r)]
    C[-1, q] = 1.0 / math.factorial(m)
    blocks = (C[:, 1:] @ P.reshape(q, -1)).reshape((r,) + X.shape)
    blocks[..., np.arange(n), np.arange(n)] += C[:, :1, None]
    E = blocks[r - 1]
    for k in range(r - 2, -1, -1):
        E = E @ P[q - 1]
        E += blocks[k]
    for _ in range(s):
        E = E @ E
    return E


def bogoliubov_error(bog, ref):
    """Largest entry error over both Bogoliubov matrices."""
    return max(np.abs(bog.alpha - ref.alpha).max(), np.abs(bog.beta - ref.beta).max())


class TestStaticWall:
    def test_identity_transformation(self):
        amps = integrate_modes(SPEC12, static_wall(np.pi), rtol=1e-12, t_final=10.0)
        bog = extract_bogoliubov(amps)
        npt.assert_allclose(bog.alpha, np.eye(12), atol=2e-9)
        npt.assert_allclose(bog.beta, 0.0, atol=1e-12)

    def test_initial_state_extracts_to_identity(self):
        for t0 in (0.0, 1.7, -4.2):
            amps = initial_amplitudes(SPEC12, t0=t0)
            bog = extract_bogoliubov(amps)
            npt.assert_allclose(bog.alpha, np.eye(12), atol=1e-13)
            npt.assert_allclose(bog.beta, 0.0, atol=1e-13)

    def test_extraction_reads_the_spectrum_without_a_basis(self, monkeypatch):
        # omega_k(R) by the arithmetic of ModeBasis.omega_at, without its
        # coupling matrix
        R = 0.93 * np.pi
        expected = ModeBasis.build(SPEC12).omega_at(R)

        def no_basis(spec):
            raise AssertionError("ModeBasis built")
        monkeypatch.setattr(ModeBasis, "build", no_basis)
        amps = initial_amplitudes(SPEC12, R0=R, t0=1.3)
        bog = extract_bogoliubov(amps)
        npt.assert_array_equal(bog.omega, expected)
        npt.assert_allclose(bog.alpha, np.eye(12), atol=1e-13)

    def test_no_photons_from_nothing(self):
        amps = integrate_modes(SPEC12, static_wall(np.pi), rtol=1e-11, t_final=5.0)
        n = photon_spectrum(extract_bogoliubov(amps))
        assert np.all(n < 1e-10)


class TestSymplecticIdentity:
    def test_row_sums_conserved_under_resonant_drive(self):
        spec = CavitySpec(length=np.pi, n_modes=14)
        traj = harmonic_wall(np.pi, 0.01, 2.0, t_end=12.0)
        bog = extract_bogoliubov(integrate_modes(spec, traj, rtol=1e-10))
        defect = np.abs(bog.symplectic_defect())
        assert defect[:7].max() < 1e-7
        # even the worst truncated row stays small
        assert defect.max() < 1e-5

    def test_defect_at_rounding_while_error_tracks_rtol(self):
        # the Magnus product is symplectic at any rtol; rtol sets its accuracy
        spec = CavitySpec(length=np.pi, n_modes=10)
        traj = harmonic_wall(np.pi, 0.01, 2.0, t_end=6.0)
        ref = dop853_bogoliubov(spec, traj, rtol=1e-13)
        errors = []
        for rtol in (1e-7, 1e-11):
            bog = extract_bogoliubov(integrate_modes(spec, traj, rtol=rtol))
            assert np.abs(bog.symplectic_defect()).max() < 1e-12
            errors.append(bogoliubov_error(bog, ref))
        assert errors[1] < errors[0] < 1e-7


class TestResonantDrive:
    def test_amplitude_squared_scaling(self):
        # photon number in the driven mode scales as eps^2 at fixed short time
        spec = CavitySpec(length=np.pi, n_modes=8)
        t_end = 8.0
        n1 = []
        for eps in (1e-2, 1e-3, 1e-4):
            traj = harmonic_wall(np.pi, eps, 2.0, t_end)
            bog = extract_bogoliubov(integrate_modes(spec, traj, rtol=1e-11))
            n1.append((np.abs(bog.beta[0]) ** 2).sum())
        ratios = np.array([n1[0] / n1[1], n1[1] / n1[2]])
        npt.assert_allclose(ratios, 100.0, rtol=2e-2)

    def test_photon_number_grows_monotonically(self):
        spec = CavitySpec(length=np.pi, n_modes=10)
        traj = harmonic_wall(np.pi, 0.02, 2.0, t_end=20.0)
        times = np.array([0.0, 5.0, 10.0, 15.0, 20.0])
        _, series = photon_time_series(spec, traj, times, rtol=1e-9)
        assert series[0, 0] < 1e-10  # pre-drive sample is empty
        assert np.all(np.diff(series[1:, 0]) > 0)

    def test_off_resonant_drive_only_dephases(self):
        # detuned drive: occupation stays bounded at the eps^2 ripple scale
        # and a linear fit over Omega*t <= 100 shows no secular growth
        spec = CavitySpec(length=np.pi, n_modes=10)
        eps = 0.01
        traj = harmonic_wall(np.pi, eps, 2.5, t_end=40.0)
        times = np.linspace(2.0, 40.0, 31)
        _, series = photon_time_series(spec, traj, times, rtol=1e-9)
        n1 = series[:, 0]
        slope = np.polyfit(times, n1, 1)[0]
        assert n1.max() < 20.0 * eps**2
        assert abs(slope) < 1e-4 * 1.0  # units of omega_1

    def test_reversal_cancels_leading_order(self):
        spec = CavitySpec(length=np.pi, n_modes=10)
        fwd = harmonic_wall(np.pi, 0.01, 2.0, t_end=4.0 * np.pi)
        a1 = integrate_modes(spec, fwd, rtol=1e-11)
        back = reversed_trajectory(fwd)
        a2 = integrate_modes(spec, back, rtol=1e-11, amps0=a1)
        n_fwd = (np.abs(extract_bogoliubov(a1).beta[0]) ** 2).sum()
        n_rt = (np.abs(extract_bogoliubov(a2).beta[0]) ** 2).sum()
        assert n_rt < 1e-2 * n_fwd

    def test_segmented_integration_matches_single_shot(self):
        # handing the state across an interior boundary must be seamless
        spec = CavitySpec(length=np.pi, n_modes=8)
        traj = harmonic_wall(np.pi, 0.01, 2.0, t_end=10.0)
        one = integrate_modes(spec, traj, rtol=1e-11)
        half = integrate_modes(spec, traj, rtol=1e-11, t_final=4.3)
        two = integrate_modes(spec, traj, rtol=1e-11, amps0=half)
        npt.assert_allclose(two.Q, one.Q, atol=5e-10)
        npt.assert_allclose(two.Qdot, one.Qdot, atol=5e-9)


class TestPhotonSpectrum:
    def test_column_sum_formula_against_loop(self):
        # in index n is summed: every in-mode feeds out-mode k
        rng = np.random.default_rng(7)
        spec = CavitySpec(length=np.pi, n_modes=6)
        traj = harmonic_wall(np.pi, 0.02, 2.0, t_end=6.0)
        bog = extract_bogoliubov(integrate_modes(spec, traj, rtol=1e-10))
        n_in = rng.uniform(0.0, 2.0, 6)
        got = photon_spectrum(bog, n_in)
        expect = np.zeros(6)
        for k in range(6):
            for n in range(6):
                a2 = abs(bog.alpha[n, k]) ** 2
                b2 = abs(bog.beta[n, k]) ** 2
                expect[k] += (a2 + b2) * n_in[n] + b2
        npt.assert_allclose(got, expect, rtol=1e-12)

    def test_static_thermal_passthrough(self):
        amps = integrate_modes(SPEC12, static_wall(np.pi), rtol=1e-11, t_final=3.0)
        bog = extract_bogoliubov(amps)
        n_in = thermal_occupation(1.0, bog.omega)
        npt.assert_allclose(photon_spectrum(bog, n_in), n_in, atol=1e-8)

    def test_thermal_seed_enhances_total_production(self):
        # total output exceeds seed + spontaneous part: stimulated gain is
        # positive in aggregate (single modes can lose to colder neighbours
        # through the difference-scattering channel)
        spec = CavitySpec(length=np.pi, n_modes=10)
        traj = harmonic_wall(np.pi, 0.01, 2.0, t_end=15.0)
        bog = extract_bogoliubov(integrate_modes(spec, traj, rtol=1e-10))
        cold = photon_spectrum(bog)
        n_in = thermal_occupation(0.5, bog.omega)
        warm = photon_spectrum(bog, n_in)
        assert warm.sum() > n_in.sum() + cold.sum()
        assert np.all(warm > cold)


class TestTimeSeries:
    """photon_time_series extracts every sample at once, bit for bit as a loop
    of extract_bogoliubov and photon_spectrum over the same snapshots."""

    @pytest.mark.parametrize("traj, N", [(harmonic_wall(np.pi, 0.01, 2.0, t_end=10.0), 20),
                                         (quintic_wall(np.pi, 0.1, 6.0), 12)],
                             ids=["harmonic", "quintic"])
    @pytest.mark.parametrize("beta_temp", [None, 2.0], ids=["vacuum", "thermal"])
    def test_one_pass_extraction_is_bit_identical(self, traj, N, beta_temp):
        spec = CavitySpec(length=np.pi, n_modes=N)
        # 101 samples, some in the static tail; chunks of 2^14 // N^2 samples
        # (40 at N = 20, so three chunks)
        times = np.linspace(0.0, traj.t_end + 1.0, 101)
        beta_max, occupations = photon_time_series(spec, traj, times, rtol=1e-9,
                                                   beta_temp=beta_temp)
        n_in = None
        if beta_temp is not None:
            n_in = thermal_occupation(beta_temp, dirichlet_spectrum(N, np.pi))
        bogs = [extract_bogoliubov(snap) for snap in mode_snapshots(spec, traj, times, rtol=1e-9)]
        npt.assert_array_equal(beta_max, [np.abs(bog.beta).max() for bog in bogs])
        npt.assert_array_equal(occupations, [photon_spectrum(bog, n_in) for bog in bogs])


class TestValidation:
    def test_t_final_before_start_rejected(self):
        with pytest.raises(ValueError):
            integrate_modes(SPEC12, harmonic_wall(np.pi, 0.01, 2.0, 5.0), t_final=-1.0)

    def test_time_series_requires_sorted_times(self):
        traj = harmonic_wall(np.pi, 0.01, 2.0, 5.0)
        with pytest.raises(ValueError):
            photon_time_series(SPEC12, traj, np.array([2.0, 1.0]))


@pytest.fixture
def monodromy_solves(monkeypatch):
    """Counts one-period matrices checked, i.e. periodic dispatches taken."""
    calls = []
    check = magnus._check_symplectic

    def counted(*args):
        calls.append(args[0].shape)
        return check(*args)
    monkeypatch.setattr(magnus, "_check_symplectic", counted)
    return calls


@pytest.fixture
def period_matrices(monkeypatch):
    """Records every one-period matrix checked."""
    seen = []
    check = magnus._check_symplectic

    def spy(*args):
        seen.append(args[0])
        return check(*args)
    monkeypatch.setattr(magnus, "_check_symplectic", spy)
    return seen


@pytest.fixture
def step_spans(monkeypatch):
    """Records the time span covered by every batch of Magnus steps."""
    spans = []
    exponentials = magnus._exponentials

    def spy(exponent, t0, h):
        spans.append((float(np.minimum(t0, t0 + h).min()), float(np.maximum(t0, t0 + h).max())))
        return exponentials(exponent, t0, h)
    monkeypatch.setattr(magnus, "_exponentials", spy)
    return spans


def _agree(periodic, direct, tol=1e-9):
    npt.assert_allclose(periodic.Q, direct.Q, rtol=0.0, atol=tol)
    npt.assert_allclose(extract_bogoliubov(periodic).beta,
                        extract_bogoliubov(direct).beta, rtol=0.0, atol=tol)
    assert periodic.t == direct.t


class TestMonodromy:
    SPEC = CavitySpec(length=np.pi, n_modes=8)

    def both(self, traj, **kw):
        return (integrate_modes(self.SPEC, traj, rtol=1e-11, **kw),
                integrate_modes(self.SPEC, replace(traj, period=None), rtol=1e-11, **kw))

    def test_several_periods_plus_remainder(self, monodromy_solves):
        traj = harmonic_wall(np.pi, 0.01, 2.0, t_end=10.0)  # 3 periods + 0.58
        _agree(*self.both(traj))
        assert monodromy_solves == [(16, 16)]

    @classmethod
    def full_steps(cls, step_spans, traj, amps0=None):
        """The spans of the Magnus step batches of one run without samples, in
        periods past the start of the drive, sorted."""
        step_spans.clear()
        integrate_modes(cls.SPEC, traj, rtol=1e-11, amps0=amps0)
        t_a = traj.t_start if amps0 is None else amps0.t
        return (np.array(sorted(step_spans)) - t_a) / traj.period

    @staticmethod
    def in_direct_quarters(spans):
        """Every span lies in [0, 1/4] or [1/2, 3/4], and both are stepped."""
        first = spans[:, 1] <= 0.25 + 1e-12
        assert np.all(first | ((spans[:, 0] >= 0.5 - 1e-12) & (spans[:, 1] <= 0.75 + 1e-12)))
        assert first.any() and not first.all()

    @staticmethod
    def over_one_period(spans):
        """The spans run from 0 to 1 without a gap: one product over the period."""
        assert spans[0, 0] == 0.0 and abs(spans[:, 1].max() - 1.0) < 1e-12
        assert np.all(spans[1:, 0] <= np.maximum.accumulate(spans[:-1, 1]) + 1e-12)

    def test_steps_cover_only_the_direct_quarters(self, monodromy_solves, step_spans):
        # 3 periods + 0.7: the remainder ends in the fourth quarter, the mirror of the third
        traj = harmonic_wall(np.pi, 0.01, 2.0, t_end=3.7 * np.pi)
        self.in_direct_quarters(self.full_steps(step_spans, traj))
        assert monodromy_solves == [(16, 16)]

    def test_late_start(self, monodromy_solves, step_spans):
        traj = harmonic_wall(np.pi, 0.02, 2.0, t_end=13.7, t_start=1.3)
        _agree(*self.both(traj))
        assert len(monodromy_solves) == 1
        # the law starts at t_start, so its quarters move with it
        self.in_direct_quarters(self.full_steps(step_spans, traj))

    def test_state_starting_mid_window(self, monodromy_solves, step_spans):
        traj = harmonic_wall(np.pi, 0.01, 2.0, t_end=15.0)
        half = integrate_modes(self.SPEC, traj, rtol=1e-11, t_final=2.3)
        _agree(*self.both(traj, amps0=half))
        assert len(monodromy_solves) == 1
        # 2.3 is no quarter of the law's period: the product covers a whole period
        self.over_one_period(self.full_steps(step_spans, traj, amps0=half))

    def test_static_tail_past_t_end(self, monodromy_solves):
        traj = harmonic_wall(np.pi, 0.01, 2.0, t_end=3.0 * np.pi)
        _agree(*self.both(traj, t_final=3.0 * np.pi + 3.7))
        assert len(monodromy_solves) == 1

    def test_reversed_harmonic_wall(self, monodromy_solves):
        fwd = harmonic_wall(np.pi, 0.01, 2.0, t_end=8.0)
        a1 = integrate_modes(self.SPEC, fwd, rtol=1e-11)
        _agree(*self.both(reversed_trajectory(fwd), amps0=a1))
        assert len(monodromy_solves) == 2

    def test_reversed_wall_lined_up_with_a_mirrored_point(self, monodromy_solves, step_spans):
        # a drive ending on a half period mirrors onto a wall whose quarters line up
        fwd = harmonic_wall(np.pi, 0.01, 2.0, t_end=3.5 * np.pi)
        a1 = integrate_modes(self.SPEC, fwd, rtol=1e-11)
        back = reversed_trajectory(fwd)
        _agree(*self.both(back, amps0=a1))
        self.in_direct_quarters(self.full_steps(step_spans, back, amps0=a1))
        assert len(monodromy_solves) == 3

    @pytest.mark.parametrize("N, eps", [(4, 0.01), (16, 0.01), (48, 1e-3)])
    def test_quarter_and_whole_period_matrices_agree(self, period_matrices, monkeypatch, N,
                                                     eps):
        traj = harmonic_wall(np.pi, eps, 2.0, t_end=1.3 * np.pi)
        spec = CavitySpec(length=np.pi, n_modes=N)
        integrate_modes(spec, traj, rtol=1e-10)
        monkeypatch.setattr(magnus, "_quarters", magnus._period)
        integrate_modes(spec, traj, rtol=1e-10)
        quarters, whole = period_matrices
        assert np.abs(quarters - whole).max() <= 1e-10 * np.abs(whole).max()

    def test_quarter_period_matrix_meets_rtol(self, period_matrices):
        # the reflection multiplies the quarter products' errors, so they are refined
        # until the assembled M meets rtol; refined each to rtol on its own, M was
        # 2.2e-9 of max|M| off here
        traj = harmonic_wall(np.pi, 0.015, 2.5, t_end=20.0)
        for rtol in (1e-9, 1e-12):
            integrate_modes(CavitySpec(length=np.pi, n_modes=12), traj, rtol=rtol)
        M, ref = period_matrices
        assert np.abs(M - ref).max() <= 1e-9 * np.abs(ref).max()

    def test_snapshots_in_every_quarter(self, monodromy_solves):
        traj = harmonic_wall(np.pi, 0.01, 2.0, t_end=11.0)
        # inside each quarter and on every quarter boundary, in three periods
        offsets = traj.period * np.array([0.0, 0.1, 0.25, 0.4, 0.5, 0.6, 0.75, 0.9])
        T = traj.period
        times = np.concatenate([offsets[1:], T + offsets, 3.0 * T + offsets[:5]])
        periodic = mode_snapshots(self.SPEC, traj, times, rtol=1e-11)
        direct = mode_snapshots(self.SPEC, replace(traj, period=None), times, rtol=1e-11)
        assert len(monodromy_solves) == 1
        for p, d in zip(periodic, direct):
            _agree(p, d)
            npt.assert_allclose(p.Qdot, d.Qdot, rtol=0.0, atol=1e-8)

    def test_snapshots_on_and_off_period_boundaries(self, monodromy_solves):
        traj = harmonic_wall(np.pi, 0.01, 2.0, t_end=11.0)
        times = np.array([0.0, 0.7, np.pi, 4.0, 2.0 * np.pi, 3.0 * np.pi, 10.2,
                          11.0, 12.5, 14.0])
        periodic = mode_snapshots(self.SPEC, traj, times, rtol=1e-11)
        direct = mode_snapshots(self.SPEC, replace(traj, period=None), times, rtol=1e-11)
        assert len(monodromy_solves) == 1
        for p, d in zip(periodic, direct):
            _agree(p, d)
            npt.assert_allclose(p.Qdot, d.Qdot, rtol=0.0, atol=1e-8)

    def test_wrong_declared_period_rejected(self):
        Omega = 2.0
        good = harmonic_wall(np.pi, 0.01, Omega, t_end=20.0)
        bad = WallTrajectory(good.position, good.velocity, good.acceleration,
                             good.t_start, good.t_end, period=0.9 * 2.0 * np.pi / Omega)
        with pytest.raises(ValueError, match="period"):
            integrate_modes(self.SPEC, bad)

    def test_evenness_is_tested_about_the_first_quarter(self):
        traj = harmonic_wall(np.pi, 0.01, 2.0, t_end=20.0, t_start=0.4)
        T = traj.period

        def coefficients(t):  # lam = Rdot / R and w = (khat / R)^2 of two modes
            R = traj.position(t)
            return traj.velocity(t) / R, (np.pi * np.arange(1, 3) / R[..., None]) ** 2
        for shift, broken in ((0.0, None), (T / 2.0, None), (T / 16.0, "lam")):
            c = traj.t_start + T / 4.0 + shift  # the crest, the trough, neither
            found = magnus._broken_symmetry(coefficients, c - T / 4.0, c,
                                            lambda t: 2.0 * c - t)
            assert (None if found is None else found[0]) == broken

    def test_wrong_period_rejected_for_any_field(self):
        # one mode with lam = 0 and w = 1 + cos(t) / 10: period 2 pi, and no wall built it
        exponent = magnus.field_exponent(
            lambda t: (np.zeros_like(t), (1.0 + 0.1 * np.cos(t))[..., None]),
            np.zeros((1, 1)), np.ones(1))
        args = (exponent, 0.0, 20.0, np.eye(2), 1e-9, 1.1)
        Y, _ = magnus.propagate(*args, 2.0 * np.pi)
        assert np.isfinite(Y).all()
        with pytest.raises(ValueError, match=r"period 5\.65487 is not a period of the "
                                             r"field's coefficient w: \|f\(t \+ period\) - "
                                             r"f\(t\)\| reaches \S+ on \[0, 20\]"):
            magnus.propagate(*args, 0.9 * 2.0 * np.pi)

    @pytest.mark.parametrize("theta, folds", [(0.0, True), (np.pi, True), (0.7, False)])
    def test_lab_frame_branch_folds_at_a_crest(self, monkeypatch, step_spans, theta, folds):
        # w = 1 + 4 f / wb with f ~ sin(omega_d t - theta) is even about a quarter
        # period past t = 0 exactly when theta is a multiple of pi
        p = gate.default_cqed_params(theta=theta, n_max=40)
        vac = np.eye(41)[0]
        maps = []  # S, the real map of the branch's quadratures

        def spy(*args):
            maps.append(magnus.propagate(*args))
            return maps[-1]
        monkeypatch.setattr(gate, "propagate", spy)
        gate.lab_frame_branch(p, 1, vac)
        spans = np.array(sorted(step_spans)) / (p.omega_1 * 2.0 * np.pi / p.omega_d)
        if not folds:
            self.over_one_period(spans)
            return
        self.in_direct_quarters(spans)
        monkeypatch.setattr(magnus, "_quarters", magnus._period)
        gate.lab_frame_branch(p, 1, vac)
        (quarters, _), (whole, _) = maps
        assert np.abs(quarters - whole).max() <= 1e-10 * np.abs(whole).max()

    def test_periodic_wall_that_is_not_even_takes_the_whole_period(self, monodromy_solves,
                                                                   step_spans):
        # sin x is even and sin 2x odd about x = pi / 2: periodic, but not reversible
        # about t_start + T/4
        R0, eps, Om = np.pi, 0.01, 2.0
        traj = WallTrajectory(
            lambda t: R0 * (1.0 + eps * (np.sin(Om * t) + 0.5 * np.sin(2.0 * Om * t))),
            lambda t: R0 * eps * Om * (np.cos(Om * t) + np.cos(2.0 * Om * t)),
            lambda t: -R0 * eps * Om**2 * (np.sin(Om * t) + 2.0 * np.sin(2.0 * Om * t)),
            0.0, 11.0, period=2.0 * np.pi / Om)
        _agree(*self.both(traj))
        assert len(monodromy_solves) == 1
        self.over_one_period(self.full_steps(step_spans, traj))

    def test_non_symplectic_period_matrix_rejected(self, monkeypatch):
        propagate = magnus._propagate
        dim = 2 * self.SPEC.n_modes

        def corrupted(exponent, segments, Y0, *args):
            products = propagate(exponent, segments, Y0, *args)
            if Y0.shape == (dim, dim):  # the one-period or quarter-period fundamental matrices
                for at_edges, _ in products:
                    at_edges[-1, 0, 0] += 1e-4
            return products
        monkeypatch.setattr(magnus, "_propagate", corrupted)
        traj = harmonic_wall(np.pi, 0.01, 2.0, t_end=10.0)
        with pytest.raises(RuntimeError, match="not symplectic.*loosen rtol"):
            integrate_modes(self.SPEC, traj, rtol=1e-9)  # from quarters
        monkeypatch.setattr(magnus, "_quarters", magnus._period)
        with pytest.raises(RuntimeError, match="not symplectic.*loosen rtol"):
            integrate_modes(self.SPEC, traj, rtol=1e-9)  # from one period


class TestMotionWindow:
    """The propagator steps only while the wall moves; static epochs rotate exactly."""

    SPEC = CavitySpec(length=np.pi, n_modes=8)

    @staticmethod
    def inside(spans, traj):
        assert spans
        for a, b in spans:
            assert traj.t_start <= min(a, b) and max(a, b) <= traj.t_end

    def test_static_wall_makes_no_ode_call(self, step_spans):
        amps = integrate_modes(CavitySpec(length=np.pi, n_modes=20), static_wall(np.pi),
                               t_final=50.0)
        assert step_spans == [] and amps.t == 50.0
        bog = extract_bogoliubov(amps)
        npt.assert_allclose(bog.alpha, np.eye(20), rtol=0.0, atol=1e-13)
        npt.assert_allclose(bog.beta, 0.0, rtol=0.0, atol=1e-13)

    def test_tail_past_t_end(self, step_spans):
        traj = harmonic_wall(np.pi, 0.01, 2.0, t_end=3.0 * np.pi)
        times = traj.t_end + np.array([0.0, 0.5, 3.7, 20.0])
        snaps = mode_snapshots(self.SPEC, traj, times, rtol=1e-10)
        self.inside(step_spans, traj)
        # once the wall is static again |beta| is a constant of motion
        b = [np.abs(extract_bogoliubov(a).beta) for a in snaps]
        assert np.abs(b - b[0]).max() < 1e-12 and b[0].max() > 0.04
        for t, a in zip(times, snaps):
            assert a.t == t
            end = integrate_modes(self.SPEC, traj, rtol=1e-10, t_final=t)
            npt.assert_allclose(end.Q, a.Q, rtol=0.0, atol=1e-13)

    def test_state_handed_in_before_t_start(self, step_spans):
        traj = quintic_wall(np.pi, 0.1, 3.0, t_start=2.0)
        amps0 = initial_amplitudes(self.SPEC, t0=0.5)
        amps = integrate_modes(self.SPEC, traj, rtol=1e-10, amps0=amps0, t_final=7.0)
        self.inside(step_spans, traj)
        late = integrate_modes(self.SPEC, traj, rtol=1e-10, t_final=7.0)
        npt.assert_allclose(amps.Q, late.Q, rtol=0.0, atol=1e-12)
        npt.assert_allclose(amps.Qdot, late.Qdot, rtol=0.0, atol=1e-12)


class TestCanonicalState:
    """The ODE state is the canonical pair (Q, P): R and Rdot are all it reads."""

    SPEC = CavitySpec(length=np.pi, n_modes=8)

    @pytest.mark.parametrize("traj", [
        quintic_wall(np.pi, 0.1, 3.0, t_start=1.0),
        replace(harmonic_wall(np.pi, 0.01, 2.0, t_end=6.0), period=None),
    ], ids=["quintic", "harmonic-direct"])
    def test_acceleration_is_never_read(self, traj):
        def no_acceleration(t):
            raise AssertionError("the coupled-mode ODE read the acceleration")
        ref = integrate_modes(self.SPEC, traj, rtol=1e-10)
        amps = integrate_modes(self.SPEC, replace(traj, acceleration=no_acceleration),
                               rtol=1e-10)
        assert np.array_equal(amps.Q, ref.Q)
        assert np.array_equal(amps.Qdot, ref.Qdot)

    def test_monodromy_matrix_is_symplectic_as_integrated(self, period_matrices):
        rtol, N = 1e-10, 12
        integrate_modes(CavitySpec(length=np.pi, n_modes=N),
                        harmonic_wall(np.pi, 0.01, 2.0, t_end=30.0), rtol=rtol)
        (M,) = period_matrices
        J = np.kron([[0.0, 1.0], [-1.0, 0.0]], np.eye(N))
        assert np.abs(M.T @ J @ M - J).max() <= 1e3 * rtol


class TestMagnusAccuracy:
    """Accuracy against DOP853 and step control of the propagator."""

    SPEC = CavitySpec(length=np.pi, n_modes=8)
    _t = np.linspace(0.0, 4.0, 21)

    @pytest.mark.parametrize("traj", [
        quintic_wall(np.pi, 0.1, 3.0),
        tabulated_wall(_t, np.pi * (1.0 + 0.05 * np.sin(np.pi * _t / 4.0) ** 2)),
        replace(harmonic_wall(np.pi, 0.01, 2.0, t_end=4.0), period=None),
    ], ids=["quintic", "tabulated", "harmonic-direct"])
    def test_error_no_larger_than_dop853(self, traj):
        ref = dop853_bogoliubov(self.SPEC, traj, rtol=1e-13)
        magnus = extract_bogoliubov(integrate_modes(self.SPEC, traj, rtol=1e-9))
        dop853 = dop853_bogoliubov(self.SPEC, traj, rtol=1e-9)
        assert bogoliubov_error(magnus, ref) <= bogoliubov_error(dop853, ref)

    def test_unreachable_rtol_rejected(self):
        with pytest.raises(RuntimeError, match="not converged: step-doubling estimate"):
            integrate_modes(CavitySpec(length=np.pi, n_modes=4), quintic_wall(np.pi, 0.1, 1.0),
                            rtol=1e-15)


class TestBatchedExponential:
    """The block-formed step exponents against magnus6 on the dense generator, and
    magnus.expm_taylor and the balanced step exponentials against scipy.linalg.expm."""

    _t = np.linspace(0.0, 4.0, 21)
    WALLS = [harmonic_wall(np.pi, 0.05, 2.0, t_end=10.0), quintic_wall(np.pi, 0.2, 3.0),
             tabulated_wall(_t, np.pi * (1.0 + 0.05 * np.sin(np.pi * _t / 4.0) ** 2))]

    @staticmethod
    def steps(N, traj, doublings, count=40):
        """The package's step exponent and the reference Magnus exponents, magnus6 on
        the dense generator, of `count` steps from traj.t_start on the base grid (10
        steps per period of omega_N) refined `doublings` times."""
        basis = ModeBasis.build(CavitySpec(length=np.pi, n_modes=N))
        khat = np.arange(1, N + 1) * np.pi

        def coefficients(t):
            R = traj.position(t)
            return traj.velocity(t) / R, (khat / R[..., None]) ** 2
        exponent = magnus.field_exponent(coefficients, basis.M * basis.R0,
                                         khat / float(traj.position(traj.t_start)))
        omega_max = N * np.pi / traj.position(np.linspace(traj.t_start, traj.t_end, 65)).min()
        h = np.full(count, 2.0 * np.pi / omega_max / 10.0 / 2**doublings)
        t0 = traj.t_start + h * np.arange(count)
        A = coupled_mode_generator(traj, N)
        a1, a2, a3 = np.moveaxis(A(t0[:, None] + h[:, None] * magnus.GAUSS_NODES), 1, 0)
        return exponent, t0, h, magnus6(a1, a2, a3, h[:, None, None])

    @staticmethod
    def relative_error(E, ref):
        return (np.abs(E - ref).max(axis=(-2, -1)) / np.abs(ref).max(axis=(-2, -1))).max()

    @pytest.mark.parametrize("N", [1, 4, 8, 12, 16, 20])
    @pytest.mark.parametrize("doublings", [0, 1])
    @pytest.mark.parametrize("traj", WALLS, ids=["harmonic", "quintic", "tabulated"])
    def test_block_exponent_matches_magnus6(self, N, doublings, traj):
        exponent, t0, h, X = self.steps(N, traj, doublings)
        assert self.relative_error(exponent(t0, h), X) <= 1e-14
        # a sample's partial step may run backwards from its boundary
        A, back = coupled_mode_generator(traj, N), -0.5 * h
        nodes = np.moveaxis(A(t0[:, None] + back[:, None] * magnus.GAUSS_NODES), 1, 0)
        assert self.relative_error(exponent(t0, back),
                                   magnus6(*nodes, back[:, None, None])) <= 1e-14

    @pytest.mark.parametrize("N", [1, 4, 8, 12, 16, 20])
    @pytest.mark.parametrize("doublings", [0, 1])
    @pytest.mark.parametrize("traj", WALLS[:2], ids=["harmonic", "quintic"])
    def test_step_exponentials_match_expm(self, N, doublings, traj):
        exponent, t0, h, X = self.steps(N, traj, doublings)
        ref = expm(X)
        E = magnus._exponentials(exponent, t0, h)
        assert self.relative_error(E, ref) <= 1e-13
        # the exponent is Hamiltonian, so its exponential is symplectic
        J = np.kron([[0.0, 1.0], [-1.0, 0.0]], np.eye(N))
        assert np.abs(np.swapaxes(E, -2, -1) @ J @ E - J).max() <= 1e-13
        # balancing is what keeps the base grid free of squarings
        d = exponent.balance
        assert magnus._degree(np.abs(X * (d[:, None] / d)).sum(axis=-2).max())[2] == 0

    def test_norm_that_forces_squaring(self):
        X = 8.0 * self.steps(12, quintic_wall(np.pi, 0.2, 3.0), 0)[3]
        assert magnus._degree(np.abs(X).sum(axis=-2).max())[2] >= 4
        assert self.relative_error(magnus.expm_taylor(X), expm(X)) <= 1e-13

    def test_complex_stack_is_refused(self):
        # every caller passes a real stack; a complex one is named, not exponentiated
        X = gate._squeeze_generator(1.5, 0.7, 16)[None]
        with pytest.raises(TypeError, match="complex128"):
            magnus.expm_taylor(X)

    def test_single_and_zero_slices(self):
        X = self.steps(8, harmonic_wall(np.pi, 0.05, 2.0, t_end=10.0), 0)[3][:1]
        assert self.relative_error(magnus.expm_taylor(X), expm(X)) <= 1e-13
        assert np.array_equal(magnus.expm_taylor(np.zeros((1, 6, 6))), np.eye(6)[None])
        with pytest.raises(ValueError, match="non-finite"):
            magnus.expm_taylor(np.full((2, 3, 3), np.nan))


class TestWorkspace:
    """expm_taylor through a reused workspace against a fresh call and against
    the allocating reference, and no buffer shared between propagations."""

    @staticmethod
    def stack(b, n, norm, seed):
        X = np.random.default_rng(seed).standard_normal((b, n, n))
        return X * (norm / np.abs(X).sum(axis=-2).max())

    @pytest.mark.parametrize("norm, squared", [(0.5, False), (40.0, True)],
                             ids=["no_squaring", "squarings"])
    def test_reused_workspace_matches_fresh_calls(self, norm, squared):
        n = 10
        workspace = magnus._workspace(64 * n * n)
        # batch sizes 64 -> 13 -> 64, each with its own norm and so its own degree
        for seed, (b, scale) in enumerate([(64, 1.0), (13, 0.01), (64, 1.0)]):
            X = self.stack(b, n, scale * norm, seed)
            assert (magnus._degree(scale * norm)[2] > 0) == (squared and scale == 1.0)
            E = magnus.expm_taylor(X, workspace)
            assert E.dtype == np.float64 and E.shape == X.shape
            assert np.shares_memory(E, workspace)
            assert np.array_equal(E, magnus.expm_taylor(X))
            assert np.array_equal(E, expm_taylor_allocating(X))

    def test_workspace_that_cannot_hold_the_stack_is_left_alone(self):
        X = self.stack(8, 6, 2.0, 0)
        workspace = magnus._workspace(4 * 36)
        before = workspace.copy()
        E = magnus.expm_taylor(X, workspace)
        assert not np.shares_memory(E, workspace)
        assert np.array_equal(E, expm_taylor_allocating(X))
        assert np.array_equal(workspace, before, equal_nan=True)

    def test_concurrent_propagations_match_serial_runs(self):
        # four walls, each twice, on four threads; a buffer shared between
        # propagations would mix their steps
        t = np.linspace(0.0, 6.0, 25)
        walls = [harmonic_wall(np.pi, 0.01, 2.0, t_end=9.0), quintic_wall(np.pi, 0.1, 6.0),
                 tabulated_wall(t, np.pi * (1.0 + 0.05 * np.sin(np.pi * t / 6.0) ** 2)),
                 harmonic_wall(np.pi, 0.02, 4.0, t_end=5.0)]
        spec = CavitySpec(length=np.pi, n_modes=10)

        def solve(traj):
            return integrate_modes(spec, traj, rtol=1e-10)
        serial = [solve(traj) for traj in walls]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(max_workers=len(walls)) as pool:
                futures = [pool.submit(solve, traj) for traj in walls * 2]
                threaded = [f.result(timeout=120) for f in futures]
        finally:
            sys.setswitchinterval(interval)
        for a, b in zip(serial * 2, threaded):
            assert np.array_equal(a.Q, b.Q) and np.array_equal(a.Qdot, b.Qdot)


class TestBatchBytes:
    """Magnus batches are bounded in bytes: min(64, 2^15 // (2N)^2) steps, so
    each (b, 2N, 2N) float64 stack takes at most 256 KiB."""

    def test_batch_rule(self):
        sizes = [magnus._batch(2 * N) for N in (1, 10, 11, 12, 16, 20, 48, 96)]
        assert sizes == [64, 64, 64, 56, 32, 20, 3, 1]

    def test_every_batch_at_48_modes_within_256_kib(self, monkeypatch):
        N = 48
        nbytes = []
        exponentials = magnus._exponentials

        def spy(exponent, t0, h):
            E = exponentials(exponent, t0, h)
            nbytes.append(E.nbytes)
            return E
        monkeypatch.setattr(magnus, "_exponentials", spy)
        traj = quintic_wall(np.pi, 0.05, 2.0)
        # steps of both _stage and the samples' partial steps
        mode_snapshots(CavitySpec(length=np.pi, n_modes=N), traj, np.linspace(0.0, 2.0, 9),
                       rtol=1e-8)
        assert len(nbytes) > 9 and max(nbytes) <= 2**18
        exponent = magnus.field_exponent(
            lambda t: (np.zeros_like(t), np.ones(np.shape(t) + (N,))), np.zeros((N, N)),
            np.ones(N))
        assert exponent.workspace.nbytes <= magnus._STACKS * 2**18

    @pytest.mark.parametrize("N", [10, 20, 48])
    def test_a_batch_allocates_no_stack(self, N):
        # a batch forms its exponent in memory mapped once per exponent, so after
        # the first only numpy's iteration buffers and (b, N) rows are allocated:
        # measured 0.83, 0.67 and 0.93 (b, 2N, 2N) stacks at N = 10, 20 and 48,
        # where a batch that allocated its exponent and temporaries traced 4.3-4.6
        b = magnus._batch(2 * N)
        exponent, t0, h, _ = TestBatchedExponential.steps(N, quintic_wall(np.pi, 0.1, 3.0), 0,
                                                           count=b)
        magnus._exponentials(exponent, t0, h)
        tracemalloc.start()
        try:
            magnus._exponentials(exponent, t0, h)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * b * (2 * N) ** 2 * 8


class TestSamples:
    """Samples take their partial steps in batches, whether or not the drive is periodic."""

    SPEC = CavitySpec(length=np.pi, n_modes=8)
    _t = np.linspace(0.0, 11.0, 45)

    @pytest.mark.parametrize("traj", [
        harmonic_wall(np.pi, 0.01, 2.0, t_end=11.0),
        quintic_wall(np.pi, 0.1, 11.0),
        tabulated_wall(_t, np.pi * (1.0 + 0.05 * np.sin(np.pi * _t / 11.0) ** 2)),
    ], ids=["harmonic", "quintic", "tabulated"])
    def test_many_samples_match_direct_runs(self, monkeypatch, traj):
        sizes = []
        exponentials = magnus._exponentials

        def spy(exponent, t0, h):
            sizes.append(len(t0))
            return exponentials(exponent, t0, h)
        monkeypatch.setattr(magnus, "_exponentials", spy)
        boundaries = np.pi * np.arange(4.0)
        times = np.sort(np.concatenate([np.linspace(0.0, 12.0, 90), boundaries,
                                        boundaries[1:], [5.0, 5.0, 11.0]]))
        assert np.count_nonzero((times > 0.0) & (times < traj.t_end)) > magnus._BATCH
        snaps = mode_snapshots(self.SPEC, traj, times, rtol=1e-12)
        assert max(sizes) <= magnus._BATCH
        for t, snap in zip(times, snaps):
            end = integrate_modes(self.SPEC, traj, rtol=1e-12, t_final=t)
            assert snap.t == t
            npt.assert_allclose(snap.Q, end.Q, rtol=0.0, atol=1e-10)
            npt.assert_allclose(snap.Qdot, end.Qdot, rtol=0.0, atol=1e-10)

    @pytest.mark.parametrize("traj", [quintic_wall(np.pi, 0.1, 10.0),
                                      harmonic_wall(np.pi, 0.01, 2.0, t_end=10.0)],
                             ids=["quintic", "harmonic"])
    def test_times_outside_the_span_rejected(self, traj):
        with pytest.raises(ValueError, match=r"sample time 7 lies outside \[0, 5\]"):
            integrate_modes(self.SPEC, traj, t_final=5.0, times=[3.0, 7.0])
        amps0 = integrate_modes(self.SPEC, traj, t_final=2.0)
        with pytest.raises(ValueError, match=r"sample time 1 lies outside \[2, 5\]"):
            integrate_modes(self.SPEC, traj, amps0=amps0, t_final=5.0, times=[1.0, 3.0])

    def test_aperiodic_memory_does_not_grow_with_the_drive(self):
        spec = CavitySpec(length=np.pi, n_modes=24)
        peaks = []
        for tau in (10.0, 40.0):
            tracemalloc.start()
            try:
                mode_snapshots(spec, quintic_wall(np.pi, 0.05, tau), np.linspace(0.0, tau, 5))
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.1 * peaks[0]
