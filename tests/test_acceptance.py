"""End-to-end acceptance gate: one test per shipped guarantee.

Each test checks a single criterion at its stated tolerance, so
`pytest -v` prints one pass/fail line per criterion. The checks are
property- and oracle-based: closed forms, symplectic identities,
cross-solver agreement and scaling laws, never values copied from this
code's own output.
"""

from dataclasses import replace

import numpy as np
import numpy.testing as npt
import pytest

from dcelab.bogoliubov import (
    extract_bogoliubov,
    integrate_modes,
    photon_spectrum,
)
from dcelab.cavity import (
    CavitySpec,
    ModeBasis,
    dirichlet_spectrum,
    thermal_image_sum,
    thermal_occupation,
)
from dcelab.gate import (
    OpenRates,
    average_fidelity,
    default_cqed_params,
    encoded_target,
    encoding_protocol,
    lab_frame_branch,
    open_average_fidelity,
    open_encoding_protocol,
    simulated_average_fidelity,
    squeeze_state,
)
from dcelab.moore import bogoliubov_from_moore, energy_density, solve_moore
from dcelab.msa import evolve_slow
from dcelab.otto import (
    CycleSpec,
    adiabatic_cycle,
    friction_energy,
    power_curve,
    random_admissible_trajectory,
)
from dcelab.squid import SquidCavityParams, solve_spectrum
from dcelab.trajectories import harmonic_wall, quintic_wall, static_wall

L0 = np.pi  # omega_1 = 1 throughout


def test_ac01_static_wall_is_exactly_passive():
    """No motion: no mode mixing, occupations pass straight through."""
    spec = CavitySpec(length=L0, n_modes=10)
    bog = extract_bogoliubov(integrate_modes(spec, static_wall(L0), t_final=5.0))
    assert np.abs(bog.beta).max() < 1e-10
    n_in = thermal_occupation(2.0, ModeBasis.build(spec).omega)
    n_out = photon_spectrum(bog, n_in)
    # pass-through holds to double precision, not merely to ODE tolerance
    npt.assert_allclose(n_out, n_in, rtol=0.0, atol=5e-15)
    assert photon_spectrum(bog).max() < 1e-20  # vacuum stays vacuum


def test_ac02_resonant_rows_stay_symplectic():
    """Deep in resonance the row identity sum(|a|^2 - |b|^2) = 1 holds."""
    spec = CavitySpec(length=L0, n_modes=20)
    traj = harmonic_wall(L0, 0.01, 2.0, t_end=25.0)  # Omega t = 50
    bog = extract_bogoliubov(integrate_modes(spec, traj, rtol=1e-9))
    defect = np.abs(bog.symplectic_defect()[:10])  # rows n <= N/2
    assert defect.max() < 1e-6, f"worst row defect {defect.max():.2e}"


def test_ac03_three_solvers_agree():
    """Coupled modes vs conformal map elementwise; vs slow flow on the
    dominant pair."""
    eps, t_end, n = 0.01, 10.0, 16
    spec = CavitySpec(length=L0, n_modes=n)
    traj = harmonic_wall(L0, eps, 2.0, t_end=t_end)
    ode = extract_bogoliubov(integrate_modes(spec, traj, t_final=t_end,
                                             rtol=1e-10))
    conf = bogoliubov_from_moore(solve_moore(traj, t_end),
                                 ModeBasis.build(spec), t_end)
    gap = np.abs(conf.beta - ode.beta).max()
    assert gap < 5.0 * eps**2, f"conformal |dbeta| {gap:.2e}"

    eps2, t2 = 1e-3, 250.0  # eps Omega t = 0.5 <= 1
    spec2 = CavitySpec(length=L0, n_modes=12)
    ode2 = extract_bogoliubov(integrate_modes(
        spec2, harmonic_wall(L0, eps2, 2.0, t_end=t2), rtol=1e-9))
    slow = evolve_slow(ModeBasis.build(spec2), 2.0, eps=eps2, tau_max=eps2 * t2)
    b_ode, b_msa = abs(ode2.beta[0, 0]), abs(slow.beta_final[0, 0])
    rel = abs(b_ode - b_msa) / b_msa
    assert rel < 0.05, f"slow-flow |beta_11| deviation {rel:.3f}"


def test_ac04_static_energy_closed_forms():
    """Static cavity: -pi/(24 d0^2), plus Z(T d0)/d0^2 at temperature."""
    for d0 in (1.0, np.pi):
        F = solve_moore(static_wall(d0), 3.0 * d0)
        cold = float(energy_density(F, 0.0, 0.3 * d0, 1.2 * d0))
        assert abs(cold + np.pi / (24.0 * d0**2)) < 1e-8
        for T in (0.4 / d0, 1.3 / d0):
            warm = float(energy_density(F, T, 0.3 * d0, 1.2 * d0))
            assert abs(warm - cold - thermal_image_sum(T * d0) / d0**2) < 1e-8


def test_ac05_mirror_limit_spectrum():
    """Near-ideal mirrors: the root ladder collapses onto n pi."""
    params = SquidCavityParams(chi0=0.0, b0L=1e6, b0R=1e6)
    roots = solve_spectrum(params, 10)
    for n, root in enumerate(roots, start=1):
        assert abs(root.kd - n * np.pi) < 1e-4
        assert max(root.residuals(params)) < 1e-10


def test_ac06_adiabatic_efficiency_and_carnot_boundary():
    """eta = eps exactly; the engine window closes where eps meets Carnot."""
    base = dict(L0=L0, eps=0.01, tau=1.0, n_modes=30)
    generic = adiabatic_cycle(CycleSpec(beta_A=2.0, beta_C=0.2, **base))
    assert abs(generic.eta - 0.01) <= 1e-12
    # beta_C / beta_A = 1 - eps: Carnot efficiency equals eps and W = 0
    b_a = 2.0
    stall = adiabatic_cycle(CycleSpec(beta_A=b_a, beta_C=b_a * 0.99, **base))
    assert abs(stall.W) < 1e-12
    hotter = adiabatic_cycle(CycleSpec(beta_A=b_a, beta_C=b_a * 0.99 * 0.98,
                                       **base))
    colder = adiabatic_cycle(CycleSpec(beta_A=b_a, beta_C=b_a * 0.99 * 1.02,
                                       **base))
    assert hotter.W > 0.0 > colder.W
    assert abs(hotter.eta - 0.01) <= 1e-12


def _integrated_friction(eps, beta, tau=2.0, n=24):
    # independent route: exact mode evolution, energy from occupation change
    traj = quintic_wall(L0, eps, tau)
    amps = integrate_modes(CavitySpec(L0, n), traj, rtol=1e-10)
    n_in = thermal_occupation(beta, dirichlet_spectrum(n, L0))
    n_out = photon_spectrum(extract_bogoliubov(amps), n_in=n_in)
    omega_out = dirichlet_spectrum(n, L0 * (1.0 - eps))
    return float(np.sum(omega_out * (n_out - n_in)))


def test_ac07_friction_energy_properties():
    """Positive on random admissible strokes, reversal invariant,
    quadratic in compression, gone in the adiabatic limit."""
    beta = 2.0
    rng = np.random.default_rng(11)
    for _ in range(20):
        d, dd = random_admissible_trajectory(rng)
        spec = CycleSpec(L0=L0, eps=0.01, beta_A=beta, beta_C=0.2,
                         tau=float(rng.uniform(0.3, 5.0)), n_modes=20,
                         delta=d, delta_dot=dd)
        assert friction_energy(spec, beta) > 0.0
    rng = np.random.default_rng(5)
    d, dd = random_admissible_trajectory(rng)
    fwd = CycleSpec(L0=L0, eps=0.01, beta_A=beta, beta_C=0.2, tau=1.5,
                    n_modes=30, delta=d, delta_dot=dd)
    rev = replace(fwd,
                  delta=lambda t, tau: 1.0 - d(tau - np.asarray(t), tau),
                  delta_dot=lambda t, tau: dd(tau - np.asarray(t), tau))
    assert friction_energy(rev, beta) == pytest.approx(
        friction_energy(fwd, beta), rel=1e-12)
    eps_grid = np.array([0.005, 0.01, 0.02])
    ef = [_integrated_friction(e, beta) for e in eps_grid]
    slope = float(np.polyfit(np.log(eps_grid), np.log(ef), 1)[0])
    assert slope == pytest.approx(2.0, abs=0.05), f"slope {slope:.3f}"
    slow = CycleSpec(L0=L0, eps=0.01, beta_A=beta, beta_C=0.2, tau=1000.0,
                     n_modes=30)
    assert friction_energy(slow, beta) < 1e-6 * 0.01**2


def test_ac08_power_curve_shape():
    """One interior maximum near tau w_1 ~ 1; fast strokes scale as
    tau^-4."""
    spec = CycleSpec(L0=L0, eps=0.01, beta_A=2.0, beta_C=0.2, tau=1.0,
                     n_modes=30)
    pc = power_curve(spec, np.geomspace(0.1, 10.0, 25))
    dP = np.diff(pc.P)
    assert np.sum(np.sign(dP[:-1]) != np.sign(dP[1:])) == 1
    assert 0 < pc.i_peak < pc.tau.size - 1
    assert 0.1 <= pc.tau_peak <= 10.0  # tau w_1 window (omega_1 = 1)
    taus = np.geomspace(0.03, 0.1, 6)
    pc_fast = power_curve(replace(spec, n_modes=200), taus)
    slope = float(np.polyfit(np.log(taus), np.log(np.abs(pc_fast.P)), 1)[0])
    assert slope == pytest.approx(-4.0, abs=0.3), f"fast-tail slope {slope:.2f}"


# Fock cutoffs per squeeze target: the tail of a squeezed state decays as
# tanh(r)^n, so deeper squeezing needs more levels for a 1e-3 certificate.
NMAX_FOR_R = {0.5: 80, 1.0: 80, 1.5: 160, 2.0: 260}


def test_ac09_gate_fidelity_certificates():
    """Design identity r = g_d eps_d t, protocol equals target, closed
    form matches simulation on the (r, P_z) grid, poles are exact."""
    assert abs(default_cqed_params().r_gate - 1.5) < 1e-12
    big = default_cqed_params(n_max=220)
    psi = encoding_protocol(0.6, 0.8, big)
    target = encoded_target(0.6, 0.8, big)
    overlap = np.abs(np.vdot(target.ravel(), psi.ravel())) ** 2
    assert overlap > 1.0 - 1e-8, f"protocol overlap 1 - {1.0 - overlap:.2e}"
    for p_z in (-1.0, 1.0):
        assert average_fidelity(1.5, p_z) == 1.0
    worst = 0.0
    for r, n_max in NMAX_FOR_R.items():
        params = default_cqed_params(t_gate=r / 0.0075, n_max=n_max)
        for p_z in (-1.0, -0.5, 0.0, 0.5, 1.0):
            a, b = np.sqrt((1.0 + p_z) / 2.0), np.sqrt((1.0 - p_z) / 2.0)
            worst = max(worst, abs(average_fidelity(r, p_z)
                                   - simulated_average_fidelity(a, b, params)))
    assert worst < 1e-3, f"closed-form vs simulated worst gap {worst:.2e}"


def test_ac10_open_system_gap():
    """Typical rates cost about one percentage point of fidelity,
    averaged over the Bloch sphere; the propagation stays trace
    preserving."""
    rates = OpenRates.typical()
    small = default_cqed_params(n_max=30, t_gate=60.0)
    rho = open_encoding_protocol(np.sqrt(0.75), 0.5, small, rates)
    assert abs(np.trace(rho).real - 1.0) < 1e-8
    params = default_cqed_params(n_max=60)
    gaps = []
    for p_z in (0.0, 0.5, 1.0):
        a, b = np.sqrt((1.0 + p_z) / 2.0), np.sqrt((1.0 - p_z) / 2.0)
        f_closed = simulated_average_fidelity(a, b, params)
        f_open, _ = open_average_fidelity(a, b, params, rates)
        gaps.append(100.0 * (f_closed - f_open))
    # the gap depends on latitude; Simpson over |P_z| gives the sphere mean
    mean_gap = (gaps[0] + 4.0 * gaps[1] + gaps[2]) / 6.0
    assert 0.5 <= mean_gap <= 1.5, f"sphere-averaged gap {mean_gap:.2f} pp"


def test_ac11_lab_frame_validates_branches():
    """Full lab-frame integration reproduces both conditional actions."""
    p = default_cqed_params(theta=0.7, n_max=100)
    vac = np.zeros(101, dtype=complex)
    vac[0] = 1.0
    squeezed = lab_frame_branch(p, 1, vac, rtol=1e-9)
    target = squeeze_state(p.r_gate, p.theta + np.pi, 100, leak_tol=1e-3)
    fid_squeeze = np.abs(np.vdot(target, squeezed)) ** 2
    rotated = lab_frame_branch(p, 0, vac, rtol=1e-9)
    fid_rotate = np.abs(rotated[0]) ** 2  # the rotation only rephases vacuum
    assert fid_squeeze > 0.99, f"squeeze-branch fidelity {fid_squeeze:.4f}"
    assert fid_rotate > 0.99, f"rotation-branch fidelity {fid_rotate:.4f}"


def test_ac12_long_drive_meets_the_slow_flow():
    """At eps Omega t = 2 the slow flow is asymptotic: the coupled modes
    must reproduce its dominant amplitudes |beta_11| and |beta_13|."""
    eps, t_end = 1e-3, 1000.0
    spec = CavitySpec(length=L0, n_modes=12)
    ode = extract_bogoliubov(integrate_modes(
        spec, harmonic_wall(L0, eps, 2.0, t_end=t_end), rtol=1e-9))
    slow = evolve_slow(ModeBasis.build(spec), 2.0, eps=eps, tau_max=eps * t_end)
    for n, k in ((0, 0), (0, 2)):
        b_ode, b_msa = abs(ode.beta[n, k]), abs(slow.beta_final[n, k])
        rel = abs(b_ode - b_msa) / b_msa
        assert rel < 1e-2, f"slow-flow |beta_{n + 1}{k + 1}| deviation {rel:.2e}"
