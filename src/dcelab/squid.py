"""Spectrum of a transmission-line cavity terminated by SQUIDs.

The boundary conditions at the two ends turn the wavenumber condition into
the transcendental pair

    (kd) tan(kd + phi) + chi0 (kd)^2 = b0R
    -(kd) tan(phi)     + chi0 (kd)^2 = b0L

for the scaled wavenumber kd and an auxiliary phase phi. The second equation
is explicit, phi = arctan((chi0 (kd)^2 - b0L)/kd), and substituting it turns
the first into a pure phase condition

    g(kd) := kd + arctan((chi0 kd^2 - b0L)/kd)
                - arctan((b0R - chi0 kd^2)/kd)  =  m pi,  integer m,

so the spectrum is the set of level crossings of g. Root finding scans
sin(g), which is bounded and avoids the tangent poles entirely, and bisects
every sign change of the scan at once down to adjacent floats; near the
Dirichlet limit (large b0) the raw tangent form has slopes ~ b0^2 that
amplify one ulp of kd into large residuals, while g keeps slope O(1).

Large b0 = V0 cos f0 pins the field (Dirichlet, kd -> n pi); b0 -> 0 frees
the phase. A driven SQUID modulates the effective cavity length through the
flux-dependent Josephson energy, which is how the circuit mimics a moving
mirror; effective_length gives that mapping.
"""

from dataclasses import dataclass

import numpy as np

__all__ = [
    "SquidCavityParams",
    "SpectrumRoot",
    "solve_spectrum",
    "effective_length",
    "resonance_frequencies",
    "equidistant_spectrum",
]


@dataclass(frozen=True)
class SquidCavityParams:
    """Dimensionless boundary parameters of the SQUID-terminated cavity.

    chi0 is the junction-to-cavity capacitance ratio 2 C_J / (C_0 d); b0L,
    b0R are the scaled Josephson energies V_0 cos(f_0) of the two ends (an
    ideal mirror is b0 -> infinity, an open end b0 = 0; negative values are
    legal since cos f_0 can change sign). d is the cavity length used to
    convert kd to physical wavenumbers.
    """

    chi0: float
    b0L: float
    b0R: float
    d: float = 1.0

    def __post_init__(self):
        if self.chi0 < 0.0:
            raise ValueError("chi0 must be >= 0")
        if self.d <= 0.0:
            raise ValueError("cavity length d must be > 0")


@dataclass(frozen=True)
class SpectrumRoot:
    """One solution (kd, phi) of the boundary pair, phi in (-pi/2, pi/2)."""

    kd: float
    phi: float

    def wavenumber(self, params: SquidCavityParams):
        return self.kd / params.d

    def residuals(self, params: SquidCavityParams):
        """Scale-invariant residuals of the two defining equations.

        Each equation a tan(theta) = c is scored as
        |a sin(theta) - c cos(theta)| / hypot(a, c), the sine of the angle
        mismatch. This is exact where tan has a pole and does not inflate
        with b0 (the raw form is ill-conditioned near the Dirichlet limit).
        """
        kd, phi = self.kd, self.phi
        cR = params.b0R - params.chi0 * kd**2
        r1 = abs(kd * np.sin(kd + phi) - cR * np.cos(kd + phi)) / np.hypot(kd, cR)
        cL = params.chi0 * kd**2 - params.b0L
        r2 = abs(kd * np.sin(phi) - cL * np.cos(phi)) / np.hypot(kd, cL)
        return float(r1), float(r2)


def _phase(params: SquidCavityParams, kd):
    """g(kd); roots of the pair are the levels g = m pi."""
    kd = np.asarray(kd, dtype=float)
    a = np.arctan((params.chi0 * kd**2 - params.b0L) / kd)
    b = np.arctan((params.b0R - params.chi0 * kd**2) / kd)
    return kd + a - b


def solve_spectrum(params: SquidCavityParams, n_max):
    """The n_max lowest positive roots of the boundary pair, increasing.

    Scans sin(g) on a dense kd grid and bisects all its sign changes at
    once. g - kd is bounded by pi, so (n_max + 2) pi always covers the
    requested count; a double root hiding between grid points (tangent
    branch contact) triggers one 4x refinement and then a diagnostic
    RuntimeError rather than silently renumbering the spectrum.

    Limitation: only real kd > 0 is scanned. With b0L or b0R < 0 the pair
    can also have statically unstable modes (imaginary kd); they are dropped
    without a word, and the first root returned is then not the lowest mode
    (at chi0, b0L, b0R = 0.1, -0.8, 3 one such mode, kappa d = 0.3046, is
    missed and the spectrum runner labels the second mode n = 1).
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    kd_lo, kd_hi = 1e-9, (n_max + 2) * np.pi

    points_per_pi = 96
    for attempt in range(2):
        grid = np.linspace(kd_lo, kd_hi, int(points_per_pi * kd_hi / np.pi) + 1)
        G = np.sin(_phase(params, grid))
        idx = np.nonzero(np.sign(G[:-1]) * np.sign(G[1:]) < 0)[0]
        roots = bisect(lambda u: np.sin(_phase(params, u)), grid[idx], grid[idx + 1])
        roots = roots[roots > 1e-7]  # kd = 0 solves the pair trivially; not a mode
        if roots.size >= n_max:
            break
        points_per_pi *= 4
    else:
        raise RuntimeError(
            f"branch tracking lost roots: found {roots.size} of {n_max} below "
            f"kd = {kd_hi:.4g} (chi0={params.chi0:.4g}, b0L={params.b0L:.4g}, "
            f"b0R={params.b0R:.4g}); a tangent-branch contact (double root) "
            "is likely at these parameters")

    out = []
    for kd in roots[:n_max].tolist():
        phi = float(np.arctan((params.chi0 * kd**2 - params.b0L) / kd))
        root = SpectrumRoot(kd=kd, phi=phi)
        r1, r2 = root.residuals(params)
        if max(r1, r2) > 1e-10:
            raise RuntimeError(
                f"root kd = {kd:.12g} fails the defining equations "
                f"(residuals {r1:.2e}, {r2:.2e})")
        out.append(root)
    return out


def bisect(f, lo, hi):
    """One root of the vectorized f in each bracket [lo, hi] of a sign change.

    Halves every bracket at once until its midpoint rounds to an endpoint,
    then returns whichever of the two adjacent floats has the smaller |f|.
    Each step keeps the half whose ends differ in sign, so f keeps its sign
    at every lo and only that sign is carried (a zero of f at lo counts as
    the sign opposite to f at hi). A zero at a midpoint closes the bracket
    there, and a NaN there counts as the sign of f at hi, so no value can
    make the loop spin. f is called on arrays of the brackets' shape.
    Raises ValueError for a bracket without a sign change (zeros at both
    ends included) or with a non-finite end or value of f at an end.
    """
    lo, hi = np.broadcast_arrays(np.asarray(lo, dtype=float), np.asarray(hi, dtype=float))
    f_lo, f_hi = f(lo), f(hi)
    if not np.all(np.isfinite([lo, hi, f_lo, f_hi])) or np.any(np.sign(f_lo) == np.sign(f_hi)):
        raise ValueError("f must change sign in every bracket, with finite ends and values")
    sign_lo = np.sign(f_lo - f_hi)
    while np.any(((mid := 0.5 * (lo + hi)) != lo) & (mid != hi)):
        side = np.sign(f(mid)) * sign_lo  # +1: a root above mid, -1: below, 0: at mid
        lo, hi = np.where(side >= 0.0, mid, lo), np.where(side > 0.0, hi, mid)
    return np.where(np.abs(f(hi)) < np.abs(f(lo)), hi, lo)


def effective_length(L0, E_lcav, E_J, f, cos_threshold=1e-3):
    """Flux-tuned effective cavity length L0 (1 + E_lcav / (2 E_J cos f)).

    A SQUID at the end looks like a perfect mirror displaced by the
    inductive participation of the junction; driving the flux phase f(t)
    moves that mirror. Near cos f = 0 the junction decouples and the
    single-mirror model loses validity, so |cos f| < cos_threshold raises.
    Accepts scalar or array f.
    """
    if E_J <= 0.0:
        raise ValueError("E_J must be > 0")
    if L0 <= 0.0:
        raise ValueError("L0 must be > 0")
    f = np.asarray(f, dtype=float)
    c = np.cos(f)
    if np.any(np.abs(c) < cos_threshold):
        raise ValueError(
            f"|cos f| below {cos_threshold:g}: effective-length model invalid "
            "near the flux frustration point")
    L = L0 * (1.0 + E_lcav / (2.0 * E_J * c))
    return float(L) if L.ndim == 0 else L


def resonance_frequencies(roots, kinds=None, d=1.0, tol=1e-9):
    """Parametric drive frequencies supported by a spectrum.

    Enumerates 2 k_n (degenerate), k_n + k_m (pair creation) and |k_n - k_m|
    (scattering) for the supplied roots, deduplicated within tol and sorted.
    kinds selects a subset of those three names. With d = 1 the values are
    in kd units (Omega * d).
    """
    k = np.array([r.kd for r in roots], dtype=float) / d
    i, j = np.triu_indices(k.size, 1)
    lines = {"degenerate": 2.0 * k, "sum": k[i] + k[j], "difference": np.abs(k[j] - k[i])}
    kinds = lines if kinds is None else kinds
    unknown = sorted(set(kinds) - set(lines))
    if unknown:
        raise ValueError(f"unknown resonance kinds {unknown}; choose from {list(lines)}")
    vals = np.sort(np.concatenate([np.empty(0)] + [lines[kind] for kind in kinds]))
    keep = np.ones(vals.size, dtype=bool)
    keep[1:] = np.diff(vals) > tol * np.max(vals, initial=1.0)
    return vals[keep]


def equidistant_spectrum(roots, tol=1e-9):
    """True when consecutive level spacings agree to relative tol.

    Equidistant spectra (the Dirichlet limit) let resonantly created photons
    cascade up the mode ladder; a generic SQUID spectrum detunes the ladder
    and traps the growth in few modes.
    """
    k = np.array([r.kd for r in roots], dtype=float)
    if k.size < 3:
        return True
    gaps = np.diff(k)
    mean = gaps.mean()
    return bool(np.all(np.abs(gaps - mean) <= tol * abs(mean)))
