import numpy as np
import pytest
from scipy.optimize import brentq

from dcelab.squid import (
    SquidCavityParams,
    SpectrumRoot,
    _phase,
    bisect,
    solve_spectrum,
    effective_length,
    resonance_frequencies,
    equidistant_spectrum,
)

# Frozen from an independent per-branch residual scan (pole-free form of the
# first boundary equation, dense sign scan + brentq); that scan and
# solve_spectrum agree to 2e-15.
GENERIC = SquidCavityParams(chi0=0.3, b0L=2.0, b0R=5.0)
GENERIC_KD = [
    1.73449399318473,
    3.27946504100187,
    4.99145487471105,
    7.34252126238570,
    10.1369327631345,
    13.0998753079452,
]
CHI_DOMINANT = SquidCavityParams(chi0=2.0, b0L=1.0, b0R=1.0)
CHI_DOMINANT_LOW = [0.63028633432377, 1.17562026142736]


class TestParams:
    def test_negative_chi0_rejected(self):
        with pytest.raises(ValueError, match="chi0"):
            SquidCavityParams(chi0=-0.1, b0L=0.0, b0R=0.0)

    def test_nonpositive_length_rejected(self):
        with pytest.raises(ValueError, match="d must be"):
            SquidCavityParams(chi0=0.0, b0L=1.0, b0R=1.0, d=0.0)

    def test_negative_b0_allowed(self):
        SquidCavityParams(chi0=0.1, b0L=-0.8, b0R=3.0)


class TestSpectrum:
    def test_open_limit_exact(self):
        # b0 = 0, chi0 = 0: kd = n pi and phi = 0 with no residual at all
        p = SquidCavityParams(chi0=0.0, b0L=0.0, b0R=0.0)
        roots = solve_spectrum(p, 5)
        for n, r in enumerate(roots, start=1):
            assert r.kd == pytest.approx(n * np.pi, abs=1e-12)
            assert r.phi == 0.0

    def test_dirichlet_limit(self):
        p = SquidCavityParams(chi0=0.0, b0L=1e6, b0R=1e6)
        roots = solve_spectrum(p, 10)
        for n, r in enumerate(roots, start=1):
            assert abs(r.kd - n * np.pi) < 1e-4
            # offset is -2 n pi / b0, below n pi
            assert r.kd < n * np.pi
        assert roots[0].phi == pytest.approx(-np.pi / 2, abs=1e-5)

    def test_generic_frozen_oracle(self):
        roots = solve_spectrum(GENERIC, 6)
        for r, expect in zip(roots, GENERIC_KD):
            assert r.kd == pytest.approx(expect, abs=1e-12)

    def test_residuals_tiny_across_regimes(self):
        cases = [
            GENERIC,
            CHI_DOMINANT,
            SquidCavityParams(chi0=0.0, b0L=1e6, b0R=1e6),
            SquidCavityParams(chi0=0.1, b0L=-0.8, b0R=3.0),
        ]
        for p in cases:
            for r in solve_spectrum(p, 6):
                r1, r2 = r.residuals(p)
                assert r1 < 1e-10
                assert r2 < 1e-10

    def test_strictly_increasing(self):
        kd = [r.kd for r in solve_spectrum(GENERIC, 12)]
        assert np.all(np.diff(kd) > 0)

    def test_phi_on_principal_branch(self):
        for p in [GENERIC, CHI_DOMINANT]:
            for r in solve_spectrum(p, 8):
                assert -np.pi / 2 < r.phi <= np.pi / 2

    def test_two_roots_below_pi(self):
        # strong chi0 drags two modes under the first free-spectral gap; a
        # scan bracketing one root per pi interval would lose one of them
        roots = solve_spectrum(CHI_DOMINANT, 2)
        assert roots[0].kd == pytest.approx(CHI_DOMINANT_LOW[0], abs=1e-12)
        assert roots[1].kd == pytest.approx(CHI_DOMINANT_LOW[1], abs=1e-12)
        assert roots[1].kd < np.pi

    def test_continuity_in_b0(self):
        k0 = np.array([r.kd for r in solve_spectrum(GENERIC, 6)])
        db = 1e-4
        p1 = SquidCavityParams(chi0=0.3, b0L=2.0 + db, b0R=5.0 + db)
        k1 = np.array([r.kd for r in solve_spectrum(p1, 6)])
        assert np.max(np.abs(k1 - k0)) < 0.5 * db

    def test_wavenumber_uses_cavity_length(self):
        p = SquidCavityParams(chi0=0.0, b0L=0.0, b0R=0.0, d=2.5)
        r = solve_spectrum(p, 1)[0]
        assert r.wavenumber(p) == pytest.approx(np.pi / 2.5, rel=1e-12)

    def test_nmax_validation(self):
        with pytest.raises(ValueError, match="n_max"):
            solve_spectrum(GENERIC, 0)


def brentq_spectrum(params, n_max):
    """The n_max lowest roots from solve_spectrum's scan, each polished by brentq."""
    g = lambda u: np.sin(_phase(params, u))  # noqa: E731
    kd_hi = (n_max + 2) * np.pi
    for points_per_pi in (96, 384):
        grid = np.linspace(1e-9, kd_hi, int(points_per_pi * kd_hi / np.pi) + 1)
        G = g(grid)
        idx = np.nonzero(np.sign(G[:-1]) * np.sign(G[1:]) < 0)[0]
        kd = [brentq(g, grid[i], grid[i + 1], xtol=1e-15, rtol=8.9e-16) for i in idx]
        kd = [k for k in kd if k > 1e-7]
        if len(kd) >= n_max:
            return np.array(kd[:n_max])
    raise RuntimeError("the reference scan lost roots")


def _strata(rng):
    """(params, n_max): perfbench's ramp spectrum strata and a generic one."""
    log = lambda lo, hi: float(np.exp(rng.uniform(np.log(lo), np.log(hi))))  # noqa: E731
    u = rng.uniform
    return {
        "mirror": (SquidCavityParams(0.0, log(1e5, 1e6), log(1e5, 1e6)), 30),
        "soft": (SquidCavityParams(u(0.02, 0.05), u(5.0, 20.0), u(5.0, 20.0)), 30),
        "asym": (SquidCavityParams(u(0.005, 0.015), u(1.0, 3.0), u(50.0, 100.0)), 30),
        "generic": (SquidCavityParams(u(0.0, 1.0), u(-3.0, 30.0), u(-3.0, 30.0)), 12),
    }


class TestAgainstBrentq:
    @pytest.mark.parametrize("stratum", ["mirror", "soft", "asym", "generic"])
    def test_roots_and_residuals_match_brentq(self, stratum):
        rng = np.random.default_rng(20240)
        for _ in range(25):
            params, n_max = _strata(rng)[stratum]
            roots = solve_spectrum(params, n_max)
            kd = np.array([r.kd for r in roots])
            np.testing.assert_allclose(kd, brentq_spectrum(params, n_max),
                                       rtol=4e-15, atol=0.0)
            assert max(max(r.residuals(params)) for r in roots) <= 1e-13


class TestBisect:
    def test_empty_brackets_give_an_empty_array(self):
        out = bisect(lambda u: u - 1.0, np.empty(0), np.empty(0))
        assert out.shape == (0,)

    def test_zero_at_a_midpoint_is_returned(self):
        assert bisect(lambda u: u - 0.5, 0.0, 1.0) == 0.5
        assert bisect(lambda u: -u, -1.0, 1.0) == 0.0

    def test_zero_at_an_end_is_returned(self):
        np.testing.assert_array_equal(bisect(lambda u: u - 1.0, [1.0, 0.0], [3.0, 1.0]),
                                      [1.0, 1.0])

    def test_root_to_the_nearest_float(self):
        root = bisect(lambda u: u * u - 2.0, [1.0], [2.0])
        assert abs(root[0] - np.sqrt(2.0)) <= np.spacing(np.sqrt(2.0))

    def test_bracket_without_sign_change_raises(self):
        with pytest.raises(ValueError, match="change sign"):
            bisect(lambda u: u, [1.0, -1.0], [2.0, 1.0])

    @pytest.mark.parametrize("lo, hi", [(np.nan, 1.0), (0.0, np.inf)])
    def test_non_finite_end_raises(self, lo, hi):
        with pytest.raises(ValueError, match="finite"):
            bisect(lambda u: u - 0.5, lo, hi)

    def test_non_finite_value_at_an_end_raises(self):
        with pytest.raises(ValueError, match="finite"):
            bisect(lambda u: np.where(u == 1.0, np.nan, u - 0.3), 0.0, 1.0)

    def test_nan_at_a_midpoint_ends_the_search_on_that_side(self):
        # the NaN at 0.5 counts as the sign of f at hi, so the loop moves on
        assert bisect(lambda u: np.where(u == 0.5, np.nan, u - 0.3), 0.0, 1.0) == 0.3


class TestEffectiveLength:
    def test_static_flux(self):
        assert effective_length(1.0, 0.1, 2.0, 0.0) == pytest.approx(1.025, rel=1e-14)

    def test_stiff_junction_limit(self):
        assert effective_length(1.0, 0.1, 1e12, 0.3) == pytest.approx(1.0, abs=1e-10)

    def test_harmonic_flux_modulates_at_second_order(self):
        # f = eps sin(w t): length swing is L0 E_lcav eps^2 / (4 E_J) + O(eps^4)
        t = np.linspace(0.0, 20.0, 4001)
        amps = []
        for eps in [0.01, 0.02]:
            L = effective_length(1.0, 0.1, 2.0, eps * np.sin(1.3 * t))
            amps.append(np.ptp(L))
        assert amps[0] == pytest.approx(0.0125 * 0.01**2, rel=1e-3)
        assert amps[1] / amps[0] == pytest.approx(4.0, rel=1e-3)

    def test_frustration_point_raises(self):
        with pytest.raises(ValueError, match="cos f"):
            effective_length(1.0, 0.1, 2.0, np.pi / 2)

    def test_nonpositive_ej_raises(self):
        with pytest.raises(ValueError, match="E_J"):
            effective_length(1.0, 0.1, 0.0, 0.0)


class TestResonances:
    def test_dirichlet_pair(self):
        roots = [SpectrumRoot(np.pi, 0.0), SpectrumRoot(2 * np.pi, 0.0)]
        freqs = resonance_frequencies(roots)
        assert np.allclose(freqs, [np.pi, 2 * np.pi, 3 * np.pi, 4 * np.pi])

    def test_single_root(self):
        freqs = resonance_frequencies([SpectrumRoot(np.pi, 0.0)])
        assert np.allclose(freqs, [2 * np.pi])

    def test_kind_filter(self):
        roots = [SpectrumRoot(np.pi, 0.0), SpectrumRoot(2 * np.pi, 0.0)]
        deg = resonance_frequencies(roots, kinds=("degenerate",))
        assert np.allclose(deg, [2 * np.pi, 4 * np.pi])
        dif = resonance_frequencies(roots, kinds=("difference",))
        assert np.allclose(dif, [np.pi])

    def test_no_line_of_the_requested_kind(self):
        # one root has no pair, so it has no sum or difference line
        freqs = resonance_frequencies([SpectrumRoot(np.pi, 0.0)], kinds=("sum",))
        assert freqs.shape == (0,)
        assert resonance_frequencies([]).shape == (0,)

    def test_unknown_kind_rejected(self):
        roots = [SpectrumRoot(np.pi, 0.0), SpectrumRoot(2 * np.pi, 0.0)]
        with pytest.raises(ValueError, match="unknown resonance kinds"):
            resonance_frequencies(roots, kinds=("degenerate", "sums"))

    def test_coincident_lines_deduplicated(self):
        # roots {pi, 3pi}: 2k = {2pi, 6pi}, sum = 4pi, diff = 2pi (coincides)
        roots = [SpectrumRoot(np.pi, 0.0), SpectrumRoot(3 * np.pi, 0.0)]
        freqs = resonance_frequencies(roots)
        assert np.allclose(freqs, [2 * np.pi, 4 * np.pi, 6 * np.pi])

    def test_physical_units(self):
        roots = [SpectrumRoot(np.pi, 0.0)]
        freqs = resonance_frequencies(roots, d=2.0)
        assert np.allclose(freqs, [np.pi])


class TestEquidistance:
    def test_dirichlet_limit_is_equidistant(self):
        p = SquidCavityParams(chi0=0.0, b0L=1e6, b0R=1e6)
        assert equidistant_spectrum(solve_spectrum(p, 8))

    def test_generic_spectrum_is_not(self):
        assert not equidistant_spectrum(solve_spectrum(GENERIC, 8))

    def test_chi0_detunes_the_ladder(self):
        assert not equidistant_spectrum(solve_spectrum(CHI_DOMINANT, 8))
