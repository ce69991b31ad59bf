import math
import random

import pytest

from sympjoint.discretize import (
    DEFAULT_STEPS,
    DegenerateSample,
    PlanarCurve,
    Surface,
    contact_estimates,
    convergence_order,
    derivation_estimate,
    derivation_from_points,
    function_estimates,
    general_I2_estimate,
    general_i2_from_points,
    general_i2_target,
    planar_I2_estimate,
    planar_i2_from_points,
    planar_i2_target,
    standard_cases,
)

CASES = standard_cases()
PARABOLA = CASES["parabola"]["model"]
QUARTIC = CASES["quartic-r4"]["model"]
CONTACT = CASES["cubic-contact"]["model"]
HYPERBOLIC = CASES["hyperbolic-surface"]["model"]
RADIAL = CASES["radial-surface"]["model"]
CUBIC_SURF = CASES["cubic-surface"]["model"]


def random_symplectic_float(rng):
    # shear-generated element of Sp(2, R) = SL(2, R)
    a, b = rng.uniform(-1, 1), rng.uniform(-1, 1)
    return [[1 + a * b, a], [b, 1.0]]


def check_derivatives(fn, dfn, at, h=1e-6, tol=1e-4):
    """Finite-difference sanity check that dfn really differentiates fn."""
    approx = (fn(at + h) - fn(at - h)) / (2.0 * h)
    return abs(approx - dfn(at)) <= tol * max(1.0, abs(dfn(at)))


def test_model_derivative_consistency():
    assert check_derivatives(PARABOLA.y, PARABOLA.dy, 1.3)
    assert check_derivatives(PARABOLA.dy, PARABOLA.d2y, 1.3)
    assert check_derivatives(CONTACT.u, CONTACT.du, 0.7)
    for val, d1, d2 in QUARTIC.coords:
        assert check_derivatives(val, d1, 0.9)
        assert check_derivatives(d1, d2, 0.9)


def test_planar_target_and_convergence():
    # y = x^2 at x = 1: target (1/2) * 2 / (2 - 1)^3 = 1
    assert planar_i2_target(PARABOLA, 1.0) == 1.0
    report = convergence_order(
        lambda h: planar_I2_estimate(PARABOLA, 1.0, h, h), 1.0, DEFAULT_STEPS
    )
    assert report.passed
    assert abs(report.errors[-1]) <= 1e-3  # relative error at h = 6.25e-3


def test_planar_halving_reduces_error():
    e1 = abs(planar_I2_estimate(PARABOLA, 1.0, 1e-2, 1e-2) - 1.0)
    e2 = abs(planar_I2_estimate(PARABOLA, 1.0, 1e-3, 1e-3) - 1.0)
    assert e1 / e2 > 10


def test_planar_degenerate_line_raises():
    line = PlanarCurve(y=lambda x: x, dy=lambda x: 1.0, d2y=lambda x: 0.0)
    with pytest.raises(DegenerateSample):
        planar_I2_estimate(line, 1.0, 1e-2, 1e-2)


def test_planar_asymmetric_schedule_first_order():
    steps = tuple(2.5e-2 / 2**k for k in range(5))
    report = convergence_order(
        lambda h: planar_I2_estimate(PARABOLA, 1.0, h, 1.7 * h), 1.0, steps
    )
    assert report.fitted_order is not None
    assert 0.9 <= report.fitted_order <= 1.5


def test_general_reduces_to_planar_times_four():
    # embedded planar curve: same points, so the ratio is algebraically exact
    for h in (1e-1, 1e-2):
        a0, a1, a2 = (PARABOLA.point(x) for x in (1.0 - h, 1.0, 1.0 + h))
        planar = planar_i2_from_points(a0, a1, a2)
        general = general_i2_from_points(a0, a1, a2)
        assert general == pytest.approx(4.0 * planar, rel=1e-12)


def test_general_i2_quartic_curve():
    # curve (t, t^2, t^3, t^4) at t = 1: I2 = 22/64, target 2*I2 = 11/16
    assert general_i2_target(QUARTIC, 1.0) == pytest.approx(11.0 / 16.0)
    report = convergence_order(
        lambda h: general_I2_estimate(QUARTIC, 1.0, h, h),
        general_i2_target(QUARTIC, 1.0),
        DEFAULT_STEPS,
    )
    assert report.passed


def test_derivation_converges_to_scaled_tangent():
    # tangent (1, 2t, 3t^2, 4t^3) scaled by 2/W, W = 4 at t = 1
    target = QUARTIC.derivation_target(1.0)
    assert target == pytest.approx((0.5, 1.0, 1.5, 2.0))
    report = convergence_order(
        lambda h: derivation_estimate(QUARTIC, 1.0, h), target, DEFAULT_STEPS
    )
    assert report.passed


def test_contact_targets_and_convergence():
    # y = x^2, u = x^3 at x = 1: I1 = (3-1)/(2-1) = 2, I2 = (1-2)^2*2/(2-1)^3 = 2
    assert CONTACT.i1(1.0) == 2.0
    assert CONTACT.i2(1.0) == 2.0
    for key, target in (
        ("I1", CONTACT.i1(1.0)),
        ("I2", CONTACT.i2(1.0)),
        ("grad", CONTACT.grad_target(1.0)),
    ):
        report = convergence_order(
            lambda h, k=key: contact_estimates(CONTACT, 1.0, h, h)[k], target, DEFAULT_STEPS
        )
        assert report.passed, key


def test_contact_degenerate_curve_raises():
    from sympjoint.discretize import ContactCurve

    ray = ContactCurve(
        y=lambda x: 2 * x, dy=lambda x: 2.0, d2y=lambda x: 0.0, u=lambda x: x, du=lambda x: 1.0
    )
    with pytest.raises(DegenerateSample):
        contact_estimates(ray, 1.0, 1e-2, 1e-2)  # x y' - y = 0 along the ray


def test_function_targets_hyperbolic():
    # u = xy at (1, 2): I1 = 4, I2c = -2*2*1 = -4, grad2 = (-1, 2)
    assert HYPERBOLIC.i1(1.0, 2.0) == 4.0
    assert HYPERBOLIC.i2c(1.0, 2.0) == -4.0
    est = function_estimates(HYPERBOLIC, 1.0, 2.0, 1e-3, 1e-3)
    assert est["I1"] == pytest.approx(4.0, abs=1e-2)
    assert est["I2c"] == pytest.approx(-4.0, abs=1e-6)
    assert est["grad1"] == (1.0, 2.0)
    assert est["grad2"] == pytest.approx((-1.0, 2.0), abs=1e-2)


def test_function_radial_point():
    # u = x^2 + y^2 at (1, 0): I1 = 2, the rotated sampling avoids degeneracy
    assert RADIAL.i1(1.0, 0.0) == 2.0
    est = function_estimates(RADIAL, 1.0, 0.0, 1e-3, 1e-3)
    assert est["I1"] == pytest.approx(2.0, abs=1e-2)
    assert est["I2c"] == pytest.approx(RADIAL.i2c(1.0, 0.0), abs=1e-6)


def test_function_constant_surface():
    flat = Surface(u=lambda x, y: 3.0, ux=lambda x, y: 0.0, uy=lambda x, y: 0.0)
    est = function_estimates(flat, 1.0, 2.0, 1e-3, 1e-3)
    assert est["I1"] == 0.0
    assert est["I2c"] == 0.0
    assert est["grad2"] == (0.0, 0.0)


def test_function_convergence_on_cubic_surface():
    # u = x^2 y has genuinely h-dependent errors in every quantity
    x, y = 1.0, 2.0
    for key, target in (
        ("I1", CUBIC_SURF.i1(x, y)),
        ("grad2", CUBIC_SURF.grad2_target(x, y)),
        ("I2c", CUBIC_SURF.i2c(x, y)),
    ):
        report = convergence_order(
            lambda h, k=key: function_estimates(CUBIC_SURF, x, y, h, h)[k],
            target,
            DEFAULT_STEPS,
        )
        assert report.passed, key
        assert report.fitted_order is not None and report.fitted_order >= 0.9


def test_schedule_independence():
    # asymmetric delta != eps converges to the same limits
    for h in (1e-3, 1e-4):
        sym = contact_estimates(CONTACT, 1.0, h, h)["I1"]
        asym = contact_estimates(CONTACT, 1.0, h, 1.7 * h)["I1"]
        assert sym == pytest.approx(2.0, abs=1e-2)
        assert asym == pytest.approx(2.0, abs=1e-2)


def test_estimates_invariant_under_float_symplectic_maps():
    rng = random.Random(80)
    pts = [PARABOLA.point(x) for x in (0.9, 1.0, 1.1)]
    base_planar = planar_i2_from_points(*pts)
    base_deriv = derivation_from_points(pts[0], pts[1])
    for _ in range(10):
        m = random_symplectic_float(rng)
        moved = [
            (m[0][0] * p[0] + m[0][1] * p[1], m[1][0] * p[0] + m[1][1] * p[1]) for p in pts
        ]
        assert planar_i2_from_points(*moved) == pytest.approx(base_planar, rel=1e-9)
        # the derivation estimate is equivariant: it transforms as a vector
        got = derivation_from_points(moved[0], moved[1])
        expect = (
            m[0][0] * base_deriv[0] + m[0][1] * base_deriv[1],
            m[1][0] * base_deriv[0] + m[1][1] * base_deriv[1],
        )
        assert got == pytest.approx(expect, rel=1e-9)


def test_contact_estimates_invariant_under_float_contact_maps():
    rng = random.Random(81)
    x = 1.0
    h = 1e-2  # large enough that the O(h^3) cancellation stays above float noise

    def apply_contact(g, p):
        (a, b), (c, d) = g
        det = a * d - b * c
        nx, ny = a * p[0] + b * p[1], c * p[0] + d * p[1]
        return (nx, ny, det * (p[2] - p[0] * p[1] / 2.0) + nx * ny / 2.0)

    base = contact_estimates(CONTACT, x, h, h)
    pts = [CONTACT.point(t) for t in (x - h, x, x + h)]
    for _ in range(10):
        g = random_symplectic_float(rng)
        g[0][0] *= 1.5  # push outside SL(2): a genuine GL(2) element
        moved = [apply_contact(g, p) for p in pts]
        R = [p[0] * p[1] - 2.0 * p[2] for p in moved]
        r01 = moved[0][0] * moved[1][1] - moved[1][0] * moved[0][1]
        r02 = moved[0][0] * moved[2][1] - moved[2][0] * moved[0][1]
        r12 = moved[1][0] * moved[2][1] - moved[2][0] * moved[1][1]
        i1 = (R[0] - R[1]) / (2.0 * r01) + 0.5
        i2 = 2.0 * R[1] ** 2 * (r01 + r12 - r02) / (r01 * r02 * r12)
        assert i1 == pytest.approx(base["I1"], rel=1e-9)
        assert i2 == pytest.approx(base["I2"], rel=1e-9)


def test_convergence_order_guards():
    with pytest.raises(ValueError):
        convergence_order(lambda h: h, 0.0, (1e-1, 1e-2, 1e-3))  # too few steps
    with pytest.raises(ValueError):
        convergence_order(lambda h: h, 0.0, (1e-1, 2e-1, 1e-2, 1e-3))  # not decreasing
    with pytest.raises(ValueError):
        convergence_order(lambda h: h, 0.0, (1.0, 0.9, 0.8, 0.7))  # ratio < 2
    with pytest.raises(ArithmeticError):
        convergence_order(lambda h: math.nan, 1.0, DEFAULT_STEPS)


def test_convergence_order_exact_estimator():
    report = convergence_order(lambda h: 2.5, 2.5, DEFAULT_STEPS)
    assert report.exact
    assert report.passed
    assert report.fitted_order is None
    assert all(e == 0.0 for e in report.errors)


def test_convergence_order_rejects_non_finite_or_non_positive_steps():
    for steps in (
        (1e-1, 5e-2, 2.5e-2, 0.0),
        (1e-1, 5e-2, 2.5e-2, -1e-2),
        (1e-1, 5e-2, 2.5e-2, math.nan),
        (math.inf, 5e-2, 2.5e-2, 1e-2),
    ):
        with pytest.raises(ValueError):
            convergence_order(lambda h: h, 0.0, steps)


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0])
def test_fitted_order_of_a_power_law(p):
    report = convergence_order(lambda h: 3.0 * h**p, 0.0, DEFAULT_STEPS, min_order=p - 0.1)
    assert abs(report.fitted_order - p) <= 1e-12
    assert report.passed and not report.exact


def test_fitted_order_is_the_least_squares_slope():
    from fractions import Fraction

    errors = dict(zip(DEFAULT_STEPS, (0.3, 0.11, 0.05, 0.013, 0.007)))
    report = convergence_order(errors.__getitem__, 0.0, DEFAULT_STEPS)
    xs = [Fraction(math.log(h)) for h in DEFAULT_STEPS]
    ys = [Fraction(math.log(e)) for e in errors.values()]
    x_bar, y_bar = sum(xs) / len(xs), sum(ys) / len(ys)
    slope = sum((x - x_bar) * (y - y_bar) for x, y in zip(xs, ys)) / sum(
        (x - x_bar) ** 2 for x in xs
    )
    assert abs(report.fitted_order - float(slope)) <= 1e-12 * abs(float(slope))
    assert report.errors == tuple(errors.values())


def test_slope_matches_statistics_linear_regression():
    import statistics
    import sys

    # the fit is summed term for term as CPython 3.11 sums it; 3.10 squares
    # with ** and 3.12 sums with sumprod, which may move the last bit
    exact = sys.version_info[:2] == (3, 11)
    rng = random.Random(7)
    for _ in range(2000):
        k, steps = rng.randint(4, 8), [rng.uniform(1e-2, 1.0)]
        while len(steps) < k:
            steps.append(steps[-1] / rng.uniform(1.3, 3.0))  # spans a ratio >= 1.3^3 > 2
        errors = dict(zip(steps, (rng.uniform(1e-8, 10) for _ in steps)))
        got = convergence_order(errors.__getitem__, 0.0, steps).fitted_order
        want = statistics.linear_regression(
            [math.log(h) for h in steps], [math.log(e) for e in errors.values()]
        ).slope
        assert got == want if exact else math.isclose(got, want, rel_tol=1e-12, abs_tol=1e-15)


def test_import_loads_no_fractions():
    import os
    import subprocess
    import sys

    import sympjoint

    src = os.path.dirname(os.path.dirname(sympjoint.__file__))
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, sympjoint.discretize; print('fractions' in sys.modules)"],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
