"""Wall-trajectory construction and calculus checks."""

import warnings

import numpy as np
import numpy.testing as npt
import pytest

from dcelab.trajectories import (
    PolynomialRamp,
    WallTrajectory,
    harmonic_wall,
    quintic_wall,
    reversed_trajectory,
    static_wall,
    tabulated_wall,
)


def central_diff(f, t, h=1e-6):
    return (f(t + h) - f(t - h)) / (2.0 * h)


class TestStaticWall:
    def test_constant(self):
        w = static_wall(2.5)
        t = np.linspace(-3.0, 7.0, 11)
        npt.assert_allclose(w.position(t), 2.5)
        npt.assert_allclose(w.velocity(t), 0.0)
        npt.assert_allclose(w.acceleration(t), 0.0)
        assert w.max_speed() == 0.0

    def test_rejects_nonpositive_length(self):
        with pytest.raises(ValueError):
            static_wall(0.0)


class TestHarmonicWall:
    def test_window_values(self):
        R0, eps, Om = np.pi, 0.01, 2.0
        w = harmonic_wall(R0, eps, Om, t_end=10.0, t_start=1.0)
        t = np.linspace(1.0, 10.0, 64)
        npt.assert_allclose(w.position(t), R0 * (1 + eps * np.sin(Om * (t - 1.0))), rtol=1e-14)

    def test_clamped_outside_window(self):
        w = harmonic_wall(1.0, 0.05, 3.0, t_end=4.0)
        # before the drive and after it the wall sits still
        assert w.position(-1.0) == 1.0
        npt.assert_allclose(w.position(w.t_end + 5.0), w.position(w.t_end))
        assert w.velocity(-1.0) == 0.0 and w.velocity(w.t_end + 5.0) == 0.0

    def test_endpoint_velocities_take_moving_side(self):
        # boundary samples must report the value inside the drive window,
        # which the integrator uses to convert momenta at segment edges
        R0, eps, Om, te = 2.0, 0.02, 1.5, 3.0
        w = harmonic_wall(R0, eps, Om, t_end=te)
        npt.assert_allclose(w.velocity(0.0), eps * Om * R0, rtol=1e-14)
        npt.assert_allclose(w.velocity(te), eps * Om * R0 * np.cos(Om * te), rtol=1e-13)

    def test_declares_its_period(self):
        w = harmonic_wall(np.pi, 0.01, 2.5, t_end=9.0, t_start=0.4)
        assert w.period == 2.0 * np.pi / 2.5
        assert reversed_trajectory(w).period == w.period
        assert quintic_wall(1.0, 0.1, 2.0).period is None

    def test_nonpositive_period_rejected(self):
        w = harmonic_wall(1.0, 0.01, 2.0, t_end=5.0)
        for bad in (0.0, -np.pi):
            with pytest.raises(ValueError, match="period"):
                WallTrajectory(w.position, w.velocity, w.acceleration, 0.0, 5.0, period=bad)

    def test_derivatives_consistent(self):
        w = harmonic_wall(1.3, 0.04, 2.7, t_end=9.0)
        for t in [0.7, 2.2, 5.9]:
            npt.assert_allclose(w.velocity(t), central_diff(w.position, t), rtol=1e-7)
            npt.assert_allclose(w.acceleration(t), central_diff(w.velocity, t), rtol=1e-7)

    def test_superluminal_rejected(self):
        with pytest.raises(ValueError):
            harmonic_wall(10.0, 0.5, 1.0, t_end=10.0)  # eps*Om*R0 = 5 > 1


class TestQuinticWall:
    def test_ramp_endpoints(self):
        p = PolynomialRamp().derivative
        assert p(0.0) == 0.0 and p(1.0) == 1.0
        assert p(0.0, 1) == 0.0 and p(1.0, 1) == 0.0
        npt.assert_allclose(p(0.5), 0.5, rtol=1e-15)

    def test_wall_boundary_conditions(self):
        L0, eps, tau = 1.0, 0.1, 2.0
        w = quintic_wall(L0, eps, tau)
        npt.assert_allclose(w.position(0.0), L0)
        npt.assert_allclose(w.position(tau), L0 * (1 - eps))
        for t in (0.0, tau):
            npt.assert_allclose(w.velocity(t), 0.0, atol=1e-14)
            npt.assert_allclose(w.acceleration(t), 0.0, atol=1e-14)

    def test_derivatives_consistent(self):
        # avoid t = tau/2 where the acceleration crosses zero exactly
        w = quintic_wall(2.0, 0.3, 1.7)
        for t in [0.21, 0.95, 1.49]:
            npt.assert_allclose(w.velocity(t), central_diff(w.position, t), rtol=1e-6)
            npt.assert_allclose(w.acceleration(t), central_diff(w.velocity, t),
                                rtol=1e-5, atol=1e-8)


class TestTabulatedWall:
    def test_reproduces_smooth_samples(self):
        t = np.linspace(0.0, 5.0, 401)
        R = 1.0 + 0.02 * np.sin(2.0 * t)
        w = tabulated_wall(t, R)
        tt = np.linspace(0.1, 4.9, 37)
        npt.assert_allclose(w.position(tt), 1.0 + 0.02 * np.sin(2.0 * tt), atol=1e-10)
        npt.assert_allclose(w.velocity(tt), 0.04 * np.cos(2.0 * tt), atol=1e-7)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("which", ["t", "R"])
    def test_non_finite_samples_rejected_by_name(self, which, bad):
        t, R = np.linspace(0.0, 5.0, 11), np.full(11, 1.0)
        {"t": t, "R": R}[which][4] = bad
        with pytest.raises(ValueError, match=f"{'times t' if which == 't' else 'positions R'} "
                                             "must be finite"):
            tabulated_wall(t, R)

    @pytest.mark.parametrize("k", [0, -1, 2.0, 3.5, "5"])
    def test_degree_must_be_an_integer_of_at_least_one(self, k):
        # k = 0 would be a wall that jumps while reporting zero velocity
        with pytest.raises(ValueError, match="spline degree k must be an integer >= 1"):
            tabulated_wall(np.linspace(0.0, 5.0, 11), np.full(11, 1.0), k=k)


def _uniform_times():
    return np.linspace(0.5, 5.5, 41)


def _nonuniform_times():
    return 0.5 + np.cumsum(np.random.default_rng(34).uniform(0.05, 0.3, 24))


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("times", [_uniform_times, _nonuniform_times])
class TestTabulatedWallAgainstScipy:
    """The numpy spline against scipy.interpolate.make_interp_spline, the not-a-knot
    interpolant it reproduces, at the rounding level of the coefficient solve."""

    @staticmethod
    def walls(times, k):
        from scipy.interpolate import make_interp_spline
        t = times()
        R = 1.0 + 0.02 * np.sin(1.3 * t) + 0.005 * np.cos(3.1 * t)
        return t, R, tabulated_wall(t, R, k), make_interp_spline(t, R, k=k)

    def test_position_and_derivatives_match(self, times, k):
        t, R, w, spl = self.walls(times, k)
        tt = np.linspace(t[0], t[-1], 2001)
        npt.assert_allclose(w.position(tt), spl(tt), rtol=0.0, atol=1e-13 * np.abs(R).max())
        laws = (w.velocity, w.acceleration, w.jerk)
        for j in range(1, 4):
            if j > k:  # the derivative of a degree-k spline beyond order k
                if laws[j - 1] is not None:
                    assert np.all(laws[j - 1](tt) == 0.0)
                continue
            ref = spl.derivative(j)(tt)
            npt.assert_allclose(laws[j - 1](tt), ref, rtol=0.0, atol=1e-9 * np.abs(ref).max())
        assert (w.jerk is None) == (k < 3)

    def test_passes_through_every_sample(self, times, k):
        t, R, w, _ = self.walls(times, k)
        npt.assert_allclose(w.position(t), R, rtol=1e-15, atol=0.0)

    def test_far_times_rest_without_overflow(self, times, k):
        t, R, w, _ = self.walls(times, k)
        far = np.array([-1e200, 1e200])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            npt.assert_array_equal(w.position(far), w.position(np.array([t[0], t[-1]])))
            for law in (w.velocity, w.acceleration, w.jerk):
                if law is not None:
                    npt.assert_array_equal(law(far), 0.0)


class TestReversal:
    def test_mirror_symmetry(self):
        w = harmonic_wall(1.0, 0.03, 2.0, t_end=5.0)
        r = reversed_trajectory(w)
        assert r.t_start == w.t_end and r.t_end == w.t_end + 5.0
        for u in [0.3, 1.7, 4.4]:
            npt.assert_allclose(r.position(w.t_end + u), w.position(w.t_end - u), rtol=1e-14)
            npt.assert_allclose(r.velocity(w.t_end + u), -w.velocity(w.t_end - u), rtol=1e-12)
            npt.assert_allclose(r.acceleration(w.t_end + u), w.acceleration(w.t_end - u),
                                rtol=1e-12)

    def test_max_speed_preserved(self):
        w = harmonic_wall(1.0, 0.03, 2.0, t_end=5.0)
        npt.assert_allclose(reversed_trajectory(w).max_speed(), w.max_speed(), rtol=1e-6)


FACTORIES = {
    "static": lambda: static_wall(2.5),
    "harmonic": lambda: harmonic_wall(1.3, 0.04, 2.7, t_end=9.0, t_start=1.1),
    "quintic": lambda: quintic_wall(2.0, 0.3, 1.7),
    # a random admissible bump on the quintic, as the Otto strokes draw them
    "ramp": lambda: PolynomialRamp(np.random.default_rng(29).uniform(-64.0, 64.0, 3)).wall(
        2.0, 0.02, 1.7, t_start=0.4),
    "tabulated": lambda: tabulated_wall(np.linspace(0.5, 5.5, 41),
                                        1.0 + 0.02 * np.sin(np.linspace(0.0, 6.0, 41))),
    "reversed": lambda: reversed_trajectory(harmonic_wall(1.0, 0.03, 2.0, t_end=5.0)),
}


@pytest.mark.parametrize("name", sorted(FACTORIES))
class TestMotionWindow:
    """Every factory rests outside [t_start, t_end] and moves on its closed window."""

    def test_rests_outside_window(self, name):
        w = FACTORIES[name]()
        before = w.t_start - np.array([5.0, 1.0, 1e-9])
        after = w.t_end + np.array([1e-9, 1.0, 5.0])
        assert np.all(w.position(before) == w.position(w.t_start))
        assert np.all(w.position(after) == w.position(w.t_end))
        for t in (before, after):
            assert np.all(w.velocity(t) == 0.0) and np.all(w.acceleration(t) == 0.0)
            assert w.velocity(float(t[-1])) == 0.0

    def test_edges_take_the_moving_side(self, name):
        w = FACTORIES[name]()
        h = 1e-7 * (w.t_end - w.t_start)
        for edge, inside in ((w.t_start, w.t_start + h), (w.t_end, w.t_end - h)):
            for f in (w.position, w.velocity, w.acceleration):
                npt.assert_allclose(f(edge), f(inside), rtol=0.0, atol=1e-5)
                npt.assert_array_equal(f(np.array([edge])), [f(edge)])


@pytest.mark.parametrize("name", sorted(FACTORIES))
class TestJerk:
    """Every factory supplies the third derivative R''' under the same window rule."""

    def test_matches_difference_of_acceleration(self, name):
        w = FACTORIES[name]()
        t = w.t_start + (w.t_end - w.t_start) * np.array([0.13, 0.37, 0.61, 0.89])
        scale = max(np.abs(w.jerk(np.linspace(w.t_start, w.t_end, 101))).max(), 1e-300)
        npt.assert_allclose(w.jerk(t), central_diff(w.acceleration, t),
                            rtol=1e-6, atol=1e-7 * scale)

    def test_zero_outside_window(self, name):
        w = FACTORIES[name]()
        outside = np.concatenate([w.t_start - np.array([5.0, 1.0, 1e-9]),
                                  w.t_end + np.array([1e-9, 1.0, 5.0])])
        assert np.all(w.jerk(outside) == 0.0)

    def test_edges_take_the_moving_side(self, name):
        w = FACTORIES[name]()
        h = 1e-7 * (w.t_end - w.t_start)
        for edge, inside in ((w.t_start, w.t_start + h), (w.t_end, w.t_end - h)):
            npt.assert_allclose(w.jerk(edge), w.jerk(inside), rtol=1e-5, atol=0.0)
            if name != "static":
                assert w.jerk(edge) != 0.0  # the law's value, not the resting zero


def test_quadratic_spline_wall_has_no_jerk():
    # k = 2 still builds a wall for the coupled-mode solver; only the
    # conformal solver, which needs R''', refuses it
    w = tabulated_wall(np.linspace(0.0, 5.0, 11), 1.0 + 0.01 * np.sin(np.linspace(0.0, 5.0, 11)),
                       k=2)
    assert w.jerk is None
    assert np.isfinite(w.acceleration(1.0))
