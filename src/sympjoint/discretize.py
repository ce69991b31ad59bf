"""Floating-point laboratory: joint invariants degenerating to differential ones.

Three nearby points on a curve (or surface) are combined into ratios of chord
invariants whose limits, as the sampling collapses, are the differential
invariants of the group action.  This is the one module that uses floats:
the limits need step sizes where exact rationals blow up, and the claims
being reproduced are asymptotic.  Targets always come from closed-form
derivatives of the test curves, never from the estimates themselves.
"""

import math

DEFAULT_STEPS = (1e-1, 5e-2, 2.5e-2, 1.25e-2, 6.25e-3)


class DegenerateSample(ArithmeticError):
    """A chord invariant in a denominator vanished at the sampled points."""


def _symp(u, v):
    """omega(u, v) in grouped coordinates; plane points are the case n = 1."""
    n = len(u) // 2
    return sum(u[k] * v[n + k] - v[k] * u[n + k] for k in range(n))


def _nonzero(*vals):
    for v in vals:
        if v == 0.0:
            raise DegenerateSample("chord invariant vanished (points collinear with origin)")
        if not math.isfinite(v):
            raise DegenerateSample("chord invariant is not finite")


def _tangent_weight(w):
    """w = omega(A, A') at the base point, which every curve target divides by."""
    if w == 0.0:
        raise DegenerateSample("the tangent at the base point passes through the origin (omega(A, A') = 0)")
    return w


# ---------------------------------------------------------------------------
# curve models: closed-form values and derivatives supplied per test case


class PlanarCurve:
    """Graph y = y(x) in the symplectic plane."""

    def __init__(self, y, dy, d2y):
        self.y, self.dy, self.d2y = y, dy, d2y

    def point(self, x):
        return (x, self.y(x))

    def i2(self, x):
        """The differential invariant y''/(x y' - y)^3."""
        w = _tangent_weight(x * self.dy(x) - self.y(x))
        return self.d2y(x) / w**3


class GeneralCurve:
    """Parametrized curve t -> (t, xvec(t), y(t), zvec(t)) in R^{2n}.

    `coords` lists, in grouped order (x^1..x^n, y^1..y^n), one (value, d1, d2)
    triple per coordinate; the first coordinate must be the parameter itself.
    """

    def __init__(self, n, coords):
        self.n, self.coords = n, coords

    def point(self, t):
        return tuple(c[0](t) for c in self.coords)

    def velocity(self, t):
        return tuple(c[1](t) for c in self.coords)

    def _w(self, t):
        n = self.n
        val = [c[0](t) for c in self.coords]
        d1 = [c[1](t) for c in self.coords]
        # t y_t - y + xvec . zvec_t - xvec_t . zvec
        w = val[0] * d1[n] - val[n]
        for k in range(1, n):
            w += val[k] * d1[n + k] - d1[k] * val[n + k]
        return _tangent_weight(w)

    def i2(self, t):
        """(xvec_t . zvec_tt - xvec_tt . zvec_t + y_tt) / W^3."""
        n = self.n
        d1 = [c[1](t) for c in self.coords]
        d2 = [c[2](t) for c in self.coords]
        num = d2[n]
        for k in range(1, n):
            num += d1[k] * d2[n + k] - d2[k] * d1[n + k]
        return num / self._w(t) ** 3

    def derivation_target(self, t):
        """2/W times the velocity: the invariant derivation applied twice over."""
        w = self._w(t)
        return tuple(2.0 * v / w for v in self.velocity(t))


class ContactCurve:
    """Curve (x, y(x), u(x)) in the contact 3-space."""

    def __init__(self, y, dy, d2y, u, du):
        self.y, self.dy, self.d2y, self.u, self.du = y, dy, d2y, u, du

    def point(self, x):
        return (x, self.y(x), self.u(x))

    def _w(self, x):
        return _tangent_weight(x * self.dy(x) - self.y(x))

    def i1(self, x):
        return (self.du(x) - self.y(x)) / self._w(x)

    def i2(self, x):
        r = x * self.y(x) - 2.0 * self.u(x)
        return r**2 * self.d2y(x) / self._w(x) ** 3

    def grad_target(self, x):
        r = x * self.y(x) - 2.0 * self.u(x)
        w = self._w(x)
        return tuple(r / w * c for c in (1.0, self.dy(x), self.du(x)))


def _zero(x, y):
    return 0.0


class Surface:
    """Graph u = u(x, y) over the symplectic plane; second derivatives
    not given are zero."""

    def __init__(self, u, ux, uy, uxx=_zero, uxy=_zero, uyy=_zero):
        self.u, self.ux, self.uy = u, ux, uy
        self.uxx, self.uxy, self.uyy = uxx, uxy, uyy

    def i1(self, x, y):
        return x * self.ux(x, y) + y * self.uy(x, y)

    def i2c(self, x, y):
        ux, uy = self.ux(x, y), self.uy(x, y)
        return (
            ux**2 * self.uyy(x, y)
            - 2.0 * ux * uy * self.uxy(x, y)
            + uy**2 * self.uxx(x, y)
        )

    def grad2_target(self, x, y):
        return (-self.uy(x, y), self.ux(x, y))


# ---------------------------------------------------------------------------
# estimators; each has a point-level core so invariance can be tested directly


def planar_i2_from_points(A0, A1, A2):
    """(a01 - a02 + a12) / (a01 a02 a12) for three sampled plane points:
    the n = 1 case of `general_i2_from_points`, whose factor 4 (a power of
    two) divides out exactly."""
    return general_i2_from_points(A0, A1, A2) / 4.0


def planar_I2_estimate(curve: PlanarCurve, x, delta, eps):
    """Three-chord ratio converging to (1/2) y''/(x y' - y)^3 as steps shrink."""
    return planar_i2_from_points(
        curve.point(x - delta), curve.point(x), curve.point(x + eps)
    )


def planar_i2_target(curve: PlanarCurve, x):
    return 0.5 * curve.i2(x)


def general_i2_from_points(A0, A1, A2):
    """Triangle-over-chords area ratio converging to 2 I_2 in R^{2n}."""
    a01, a02, a12 = _symp(A0, A1), _symp(A0, A2), _symp(A1, A2)
    _nonzero(a01, a02, a12)
    # omega(A1-A0, A2-A0) = a01 + a12 - a02 is twice the triangle area
    return 4.0 * (a01 - a02 + a12) / (a01 * a02 * a12)


def general_I2_estimate(curve: GeneralCurve, t, delta, eps):
    return general_i2_from_points(
        curve.point(t - delta), curve.point(t), curve.point(t + eps)
    )


def general_i2_target(curve: GeneralCurve, t):
    return 2.0 * curve.i2(t)


def derivation_from_points(A0, A1):
    """Chord over area: 2 (A1 - A0)/a01, converging to twice the derivation."""
    a01 = _symp(A0, A1)
    _nonzero(a01)
    return tuple(2.0 * (p - q) / a01 for p, q in zip(A1, A0))


def derivation_estimate(curve: GeneralCurve, t, delta):
    return derivation_from_points(curve.point(t - delta), curve.point(t))


def contact_estimates(curve: ContactCurve, x, delta, eps):
    """Estimates of I1, I2 and the invariant derivation on a contact curve.

    Built from the relative invariants R_k = x_k y_k - 2 u_k and
    R_ij = x_i y_j - x_j y_i; every combination below has weight zero, so the
    estimates are invariant under the lifted GL(2) action.  The middle factor
    of the I2 ratio uses R_01 + R_12 - R_02 (the Taylor expansion fixes the
    sign of the last term).
    """
    pts = [curve.point(x - delta), curve.point(x), curve.point(x + eps)]
    R = [p[0] * p[1] - 2.0 * p[2] for p in pts]
    xy = [p[:2] for p in pts]
    r01, r02, r12 = _symp(xy[0], xy[1]), _symp(xy[0], xy[2]), _symp(xy[1], xy[2])
    _nonzero(r01, r02, r12)
    i1 = (R[0] - R[1]) / (2.0 * r01) + 0.5
    i2 = 2.0 * R[1] ** 2 * (r01 + r12 - r02) / (r01 * r02 * r12)
    grad = tuple(R[1] / r01 * (p - q) for p, q in zip(pts[1], pts[0]))
    return {"I1": i1, "I2": i2, "grad": grad}


def function_estimates(surface: Surface, x, y, delta, eps):
    """Function-jet invariants from nearby surface samples.

    The two sampling directions are rotated against the base point, so the
    chord invariants a01 = delta (x^2+y^2) and a12 never vanish for a nonzero
    base point.  The I_2c extraction follows the constrained two-point limit:
    A0 sits along the direction (u_y, -u_x), where a01 = eps I1 exactly, and
    2 I1^2 (u0 - u1)/a01^2 tends to I_2c.
    """
    A1 = (x, y)
    if x == 0.0 and y == 0.0:
        raise DegenerateSample("base point at the origin")
    A0 = (x + delta * y, y - delta * x)
    A2 = (x + eps * (x + y), y + eps * (y - x))
    u0, u1, u2 = surface.u(*A0), surface.u(*A1), surface.u(*A2)
    a01, a02, a12 = _symp(A0, A1), _symp(A0, A2), _symp(A1, A2)
    _nonzero(a01, a12, a01 - a02 + a12)
    i1 = (a01 * (u1 - u2) + a12 * (u1 - u0)) / (a01 - a02 + a12)
    grad1 = (x, y)
    grad2 = tuple(
        (i1 / a01) * (p - q) - ((u1 - u0) / a01) * r for p, q, r in zip(A1, A0, A1)
    )
    ux, uy = surface.ux(x, y), surface.uy(x, y)
    i1_exact = surface.i1(x, y)
    if i1_exact == 0.0:
        if ux == 0.0 and uy == 0.0:
            i2c = 0.0  # critical point: the constrained direction degenerates
        else:
            raise DegenerateSample("I1 vanishes at the base point")
    else:
        B0 = (x + eps * uy, y - eps * ux)
        aB = _symp(B0, A1)
        _nonzero(aB)
        i2c = 2.0 * i1_exact**2 * (surface.u(*B0) - u1) / aB**2
    return {"I1": i1, "grad1": grad1, "grad2": grad2, "I2c": i2c}


# ---------------------------------------------------------------------------
# convergence quantification


class ConvergenceReport:
    """Errors per step size and the fitted order; `fitted_order` is None when
    no slope was fitted (errors at float noise level)."""

    def __init__(self, steps, errors, fitted_order, exact, passed):
        self.steps, self.errors, self.fitted_order = steps, errors, fitted_order
        self.exact, self.passed = exact, passed

    def to_dict(self):
        return {
            "steps": list(self.steps),
            "errors": list(self.errors),
            "fitted_order": self.fitted_order,
            "exact": self.exact,
            "passed": self.passed,
        }


def _error(value, target):
    if isinstance(target, (tuple, list)):
        if len(value) != len(target):
            raise ValueError("vector estimate/target length mismatch")
        return max(abs(v - t) for v, t in zip(value, target))
    return abs(value - target)


def convergence_order(estimator, target, steps=DEFAULT_STEPS, min_order=0.9):
    """Fit the slope of log error against log step size by ordinary least squares.

    `estimator` maps a step size to a float (or a vector, compared in the sup
    norm).  At least four finite, positive, strictly decreasing steps spanning
    a ratio >= 2 are required.  All-zero errors report as exact; otherwise the
    report passes when the fitted slope reaches `min_order`.
    """
    steps = tuple(steps)
    if len(steps) < 4:
        raise ValueError("need at least 4 step sizes")
    if not all(math.isfinite(h) and h > 0 for h in steps):
        raise ValueError("step sizes must be finite and positive")
    if any(b >= a for a, b in zip(steps, steps[1:])):
        raise ValueError("step sizes must be strictly decreasing")
    if steps[0] / steps[-1] < 2:
        raise ValueError("step range must span a ratio of at least 2")
    errors = []
    for h in steps:
        est = estimator(h)
        vals = est if isinstance(est, (tuple, list)) else (est,)
        if not all(math.isfinite(v) for v in vals):
            raise ArithmeticError(f"estimator returned a non-finite value at h={h}")
        errors.append(_error(est, target))
    scale = max(abs(t) for t in target) if isinstance(target, (tuple, list)) else abs(target)
    floor = 1e-9 * max(1.0, scale)
    if max(errors) <= floor:
        # at float noise level (1e-9 relative) for every step: rounding, not a
        # convergence rate, so no slope is fitted
        return ConvergenceReport(steps, tuple(errors), None, True, True)
    if min(errors) <= floor:
        return ConvergenceReport(steps, tuple(errors), None, False, errors[-1] <= floor)
    xs, ys = [math.log(h) for h in steps], [math.log(e) for e in errors]
    # least squares, summed term for term as CPython 3.11's statistics.linear_regression
    xbar, ybar = math.fsum(xs) / len(xs), math.fsum(ys) / len(ys)
    sxy = math.fsum((x - xbar) * (y - ybar) for x, y in zip(xs, ys))
    slope = sxy / math.fsum((d := x - xbar) * d for x in xs)
    return ConvergenceReport(steps, tuple(errors), slope, False, slope >= min_order)


# ---------------------------------------------------------------------------
# the standard test curves used by the CLI and the acceptance suite


def standard_cases():
    parabola = PlanarCurve(y=lambda x: x * x, dy=lambda x: 2 * x, d2y=lambda x: 2.0)
    quartic = GeneralCurve(
        2,
        (
            (lambda t: t, lambda t: 1.0, lambda t: 0.0),
            (lambda t: t**2, lambda t: 2 * t, lambda t: 2.0),
            (lambda t: t**3, lambda t: 3 * t**2, lambda t: 6 * t),
            (lambda t: t**4, lambda t: 4 * t**3, lambda t: 12 * t**2),
        ),
    )
    cubic_contact = ContactCurve(
        y=lambda x: x * x,
        dy=lambda x: 2 * x,
        d2y=lambda x: 2.0,
        u=lambda x: x**3,
        du=lambda x: 3 * x**2,
    )
    hyperbolic = Surface(
        u=lambda x, y: x * y,
        ux=lambda x, y: y,
        uy=lambda x, y: x,
        uxy=lambda x, y: 1.0,
    )
    radial = Surface(
        u=lambda x, y: x * x + y * y,
        ux=lambda x, y: 2 * x,
        uy=lambda x, y: 2 * y,
        uxx=lambda x, y: 2.0,
        uyy=lambda x, y: 2.0,
    )
    cubic_surface = Surface(
        u=lambda x, y: x * x * y,
        ux=lambda x, y: 2 * x * y,
        uy=lambda x, y: x * x,
        uxx=lambda x, y: 2 * y,
        uxy=lambda x, y: 2 * x,
    )
    return {
        "parabola": {"model": parabola, "at": (1.0,)},
        "quartic-r4": {"model": quartic, "at": (1.0,)},
        "cubic-contact": {"model": cubic_contact, "at": (1.0,)},
        "hyperbolic-surface": {"model": hyperbolic, "at": (1.0, 2.0)},
        "radial-surface": {"model": radial, "at": (1.0, 0.0)},
        "cubic-surface": {"model": cubic_surface, "at": (1.0, 2.0)},
    }
