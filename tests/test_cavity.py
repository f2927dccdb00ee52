"""Basis, coupling-matrix, and thermal-function checks.

Frozen reference numbers were produced by independent routes: adaptive
quadrature of the defining integrals for the coupling entries, and a Lambert
series regrouping for the image sum (both agree with the implementations to
machine precision).
"""

import numpy as np
import numpy.testing as npt
import pytest

from dcelab.cavity import (
    CavitySpec,
    ModeBasis,
    coupling_M,
    dimensionless_coupling,
    dirichlet_spectrum,
    domega_dR,
    static_casimir_energy,
    thermal_image_sum,
    thermal_occupation,
)


class TestSpectrum:
    def test_frequencies_are_multiples(self):
        w = dirichlet_spectrum(5, np.pi)
        npt.assert_allclose(w, [1.0, 2.0, 3.0, 4.0, 5.0], rtol=0, atol=1e-15)

    def test_scaling_with_length(self):
        npt.assert_allclose(dirichlet_spectrum(4, 0.5), 2.0 * dirichlet_spectrum(4, 1.0))

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            CavitySpec(length=-1.0, n_modes=3)
        with pytest.raises(ValueError):
            CavitySpec(length=1.0, n_modes=0)


class TestCouplingMatrices:
    # entries from adaptive quadrature of <psi_j, d_R psi_k>
    QUAD_ORACLE = [
        (1, 2, 2.0, -0.6666666666666666),
        (3, 5, np.pi, 0.5968310365946077),
        (2, 7, 0.5, -1.2444444444444442),
        (4, 4, 1.3, 0.0),
    ]

    @pytest.mark.parametrize("k,j,R,expect", QUAD_ORACLE)
    def test_entries_against_quadrature(self, k, j, R, expect):
        M = coupling_M(8, R)
        npt.assert_allclose(M[k - 1, j - 1], expect, rtol=1e-12, atol=1e-14)

    def test_antisymmetry_and_zero_diagonal(self):
        M = coupling_M(12, 0.83)
        npt.assert_allclose(M, -M.T, atol=1e-14)
        npt.assert_allclose(np.diag(M), 0.0, atol=0.0)

    def test_inverse_length_scaling(self):
        npt.assert_allclose(coupling_M(6, 3.0), coupling_M(6, 1.0) / 3.0, rtol=1e-14)

    def test_dimensionless_coupling(self):
        npt.assert_allclose(dimensionless_coupling(6), coupling_M(6, 1.0), rtol=0, atol=0)

    def test_domega_dR(self):
        w = dirichlet_spectrum(4, 2.0)
        npt.assert_allclose(domega_dR(w, 2.0), -w / 2.0, rtol=1e-15)


class TestModeBasis:
    def test_build_consistency(self):
        spec = CavitySpec(length=1.4, n_modes=7)
        basis = ModeBasis.build(spec)
        npt.assert_allclose(basis.omega, dirichlet_spectrum(7, 1.4))
        npt.assert_allclose(basis.M, coupling_M(7, 1.4))
        assert basis.R0 == 1.4 and basis.n_modes == 7

    def test_omega_at_scales(self):
        basis = ModeBasis.build(CavitySpec(length=2.0, n_modes=3))
        npt.assert_allclose(basis.omega_at(4.0), basis.omega / 2.0)


class TestThermal:
    def test_occupation_frozen_values(self):
        npt.assert_allclose(thermal_occupation(1.0, 1.0), 0.5819767068693263, rtol=1e-14)
        npt.assert_allclose(thermal_occupation(2.0, 3.0), 0.0024849116568445855, rtol=1e-14)

    def test_occupation_vectorized_and_cold_limit(self):
        w = np.array([1.0, 2.0, 3.0])
        n = thermal_occupation(5.0, w)
        assert n.shape == (3,) and np.all(np.diff(n) < 0)
        assert thermal_occupation(1e6, np.array([1.0]))[0] == 0.0  # underflows cleanly

    def test_occupation_rejects_bad_input(self):
        with pytest.raises(ValueError):
            thermal_occupation(-1.0, 1.0)
        with pytest.raises(ValueError):
            thermal_occupation(1.0, np.array([1.0, -2.0]))

    def test_casimir_energy(self):
        npt.assert_allclose(static_casimir_energy(1.0), -np.pi / 24.0, rtol=1e-15)
        npt.assert_allclose(static_casimir_energy(2.0), -np.pi / 48.0, rtol=1e-15)

    def test_image_sum_frozen_values(self):
        # independent Lambert-series evaluation agrees to <3e-16 relative
        npt.assert_allclose(thermal_image_sum(0.5), 0.00589969389957472, rtol=1e-13)
        npt.assert_allclose(thermal_image_sum(1.0), 0.15445464580288432, rtol=1e-13)
        npt.assert_allclose(thermal_image_sum(2.0), 1.2252947956814637, rtol=1e-13)

    def test_image_sum_limits(self):
        assert thermal_image_sum(0.0) == 0.0
        with pytest.raises(ValueError):
            thermal_image_sum(-0.5)
        # high-temperature asymptote: Z(x) -> pi x^2 / 6
        x = 50.0
        npt.assert_allclose(thermal_image_sum(x), np.pi * x**2 / 6.0, rtol=2e-2)
