"""Conformal and affine variants, and the contact lift of the action.

Scaling makes the pairwise invariants relative of a common weight, so their
ratios are absolute (CSp).  Translations are absorbed by triangle sums or by
moving the first point to the origin (ASp).  On the contact space R^{2n+1}
with coordinates (x, y, u) the lifted action admits the relative invariants

    R_k = x_k . y_k - 2 u_k,      R_ij = x_i . y_j - x_j . y_i,

all of weight one, whose ratios T_k = R_k/R_m, T_ij = R_ij/R_m generate the
invariant field.  The T_ij satisfy the same Pfaffian relations as the a_ij,
which eliminates all pairs outside the basic set.  R_ij is the `gram` of the
plane parts (x, y), and T = R/R_m has the vanishing Pfaffians of R.

This module sits below `normal_form`, which imports it only in its CSp and
contact branches: `normal_form` dispatches the contact group to
`_contact_normal` here, and the pair comparison both use is
`invariants._relabel_compare`.  The decision path carries (group, values)
pairs; only the public `csp_signature` and `contact_absolute` build a
`normal_form.Signature`.
"""

import json
from functools import cache
from math import comb

from .exact import ExactMatrix, Rat, _Record, rat, rat_str
from .field_generators import basic_set
from .invariants import (
    GenericityError,
    GramTable,
    PointConfig,
    _chain,
    _half_dimension,
    _parse_points,
    _point_list,
    _relabel_compare,
    _relations,
    gram,
)


class ContactPoint(_Record):
    """A point (x, y, u) of the contact space R^{2n+1}.

    Fields: x and y (tuples of n `Rat`) and u (a `Rat`).
    """

    __slots__ = ("x", "y", "u")

    def __post_init__(self):
        object.__setattr__(self, "x", tuple([rat(c) for c in self.x]))
        object.__setattr__(self, "y", tuple([rat(c) for c in self.y]))
        object.__setattr__(self, "u", rat(self.u))
        if len(self.x) != len(self.y):
            raise ValueError("x and y must have equal length")


class ContactConfig(_Record):
    """Ordered tuple of m contact points with n x-coordinates each.

    Fields: n (int) and points (a tuple of `ContactPoint`).
    """

    __slots__ = ("n", "points")

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be >= 1")
        pts = _parse_points(self.points, lambda p: p if isinstance(p, ContactPoint) else ContactPoint(*p))
        if not pts:
            raise ValueError("need at least one point")
        for p in pts:
            if len(p.x) != self.n:
                raise ValueError(f"point with {len(p.x)} x-coordinates, expected {self.n}")
        object.__setattr__(self, "points", pts)

    @property
    def m(self):
        return len(self.points)

    def point(self, k):
        return self.points[k - 1]

    def rotate(self):
        """Cyclic relabeling (A_2, ..., A_m, A_1); used once when R_m = 0."""
        return ContactConfig(self.n, self.points[1:] + self.points[:1])


@cache
def _signature():
    """`normal_form.Signature`, read once: an import statement on every call
    would cost microseconds."""
    from .normal_form import Signature

    return Signature


def csp_signature(g: GramTable, n) -> "Signature":
    """Conformal signature: sign of a12 followed by the basic-set ratios.

    The conformal factor is positive, so a12 keeps its sign while every ratio
    a_ij/a12 is an absolute invariant; there are d(m, n) - 1 of them.
    """
    return _signature()("CSp", _csp_values(g, n))


def _csp_values(g: GramTable, n):
    """The values of `csp_signature`."""
    if g.m < 2:
        raise ValueError("conformal signature needs at least two points")
    a12 = g.value(1, 2)
    if a12 == 0:
        raise GenericityError("a12 = 0")
    sign = Rat(1) if a12 > 0 else Rat(-1)
    ratios = tuple([g.value(i, j) / a12 for (i, j) in basic_set(g.m, n).pairs if (i, j) != (1, 2)])
    return (sign,) + ratios


def asp_invariants(config) -> list:
    """Triangle invariants a_ij + a_jk + a_ki over the triples (1, j, k).

    Twice the symplectic area of the triangle A_1 A_j A_k; unchanged by
    translations and symplectic maps.
    """
    if config.m < 3:
        raise ValueError("affine triangle invariants need m >= 3")
    g = gram(config)
    out = []
    for j in range(2, config.m + 1):
        for k in range(j + 1, config.m + 1):
            out.append(g.value(1, j) + g.value(j, k) + g.value(k, 1))
    return out


def _dot(x, y):
    return sum((a * b for a, b in zip(x, y)), Rat(0))


def _lift(M: ExactMatrix, c, p: ContactPoint) -> ContactPoint:
    """The contact lift of a linear map M with conformal factor c, on one point.

    (x, y) moves by M and u -> c(u - x.y/2) + x'.y'/2, so R = x.y - 2u is
    multiplied by c.
    """
    n = len(p.x)
    w = M.apply(p.x + p.y)
    nx, ny = w[:n], w[n:]
    return ContactPoint(nx, ny, c * (p.u - _dot(p.x, p.y) / 2) + _dot(nx, ny) / 2)


def contact_apply(gmat: ExactMatrix, p: ContactPoint) -> ContactPoint:
    """The lifted GL(2) action on R^3(x, y, u), exact (n = 1 only): the lift
    of g with conformal factor det(g)."""
    if (gmat.rows, gmat.cols) != (2, 2):
        raise ValueError("contact action takes a 2x2 matrix")
    if len(p.x) != 1:
        raise ValueError("explicit contact action implemented for n = 1")
    (a, b), (c, d) = gmat.data
    det = a * d - b * c
    if det == 0:
        raise ValueError("singular matrix does not act")
    return _lift(gmat, det, p)


def contact_transform(gmat: ExactMatrix, config: ContactConfig) -> ContactConfig:
    return ContactConfig(config.n, tuple([contact_apply(gmat, p) for p in config.points]))


def contact_lift_symplectic(M: ExactMatrix, config: ContactConfig) -> ContactConfig:
    """Lift of a symplectic map to the contact space, preserving every R_k.

    The lift with conformal factor 1: the transport used to test the
    general-n action, where no explicit lifted formula is available; it fixes
    R_k by construction and R_ij by symplecticity.
    """
    return ContactConfig(config.n, tuple([_lift(M, 1, p) for p in config.points]))


def _reference(p: ContactPoint):
    """R of one point: x . y - 2u."""
    return _dot(p.x, p.y) - 2 * p.u


def _plane(config: ContactConfig) -> PointConfig:
    """The plane parts (x, y) of the points: their Gram table is R_ij."""
    return PointConfig(config.n, tuple([p.x + p.y for p in config.points]))


def contact_relative(config: ContactConfig):
    """All relative invariants: R_k per point and R_ij per pair (1-based keys)."""
    return {"R_k": [_reference(p) for p in config.points], "R_ij": gram(_plane(config)).values}


def _eliminated_pairs(m, n):
    """The pairs outside the basic set: those with i > 2n."""
    return [(i, j) for i in range(2 * n + 1, m + 1) for j in range(i + 1, m + 1)]


def _absolute_values(config: ContactConfig):
    m, n = config.m, config.n
    rm = _reference(config.point(m))
    if rm == 0:
        raise GenericityError(f"R_{m} = 0")
    plane = _plane(config)
    R = gram(plane)  # T = R / R_m, and b_{1..2k}(T) = b_{1..2k}(R) / R_m^k
    eliminated = _eliminated_pairs(m, n)
    if eliminated and R.value(1, 2) == 0:
        raise GenericityError("T_12 = 0 blocks the Pfaffian elimination")
    values = tuple([_reference(p) / rm for p in config.points[: m - 1]])
    values += tuple([R.value(i, j) / rm for (i, j) in basic_set(m, n).pairs])
    # the elimination divides by every link b_{1..2k}(T) of the leading
    # chain; unless all n links pass, the basic set does not determine the
    # eliminated T_ij, so they join the signature (each is invariant), and
    # the plane parts may not span, so their linear relations join too
    spanning = m >= 2 * n and all(v != 0 for _, v in _chain(R, n))
    if not spanning:
        values += tuple([R.value(i, j) / rm for (i, j) in eliminated])
    return values + _relations(plane.points, n, spanning)


def _contact_normal(config: ContactConfig, rotated=None):
    """(("Contact", values), rotated): the one cyclic relabeling is decided
    here when `rotated` is None (rotate iff R_m = 0), else applied as given."""
    if rotated is None:
        rotated = _reference(config.point(config.m)) == 0
    values = _absolute_values(config.rotate() if rotated else config)
    return ("Contact", values), rotated


def contact_absolute(config: ContactConfig) -> "Signature":
    """The reduced generating set Tbar = {T_k (k < m)} + {T_ij on the basic set}.

    Cardinality is (2n+1)m - n(2n+1) - 1 for m >= 2n (3m - 4 when n = 1).
    When a leading Pfaffian b_{1..2k}(T) vanishes, the basic set does not
    determine the eliminated T_ij, and they follow in `_eliminated_pairs` order.
    Unless the plane parts (x, y) span R^{2n}, their linear relations follow
    (Witt's rule, `invariants._relations`).  The last point's R is the
    reference denominator; when it vanishes a single cyclic relabeling is
    attempted before rejecting.
    """
    return _signature()(*_contact_normal(config)[0])


def contact_equivalent(A: ContactConfig, B: ContactConfig) -> bool:
    """Exact comparison of absolute contact invariants.

    The fallback relabeling is decided on the first configuration and applied
    to both, so the test is genuine group equivalence.
    """
    sig_a, sig_b, _ = _relabel_compare(A, B, _contact_normal)
    return sig_a == sig_b


def dim_bbar(m, n):
    """Transcendence degree of the contact invariant field."""
    if m < 1 or n < 1:
        raise ValueError("need m >= 1 and n >= 1")
    if m >= 2 * n:
        return (2 * n + 1) * m - n * (2 * n + 1) - 1
    return comb(m, 2) + m - 1


def contact_config_to_dict(config: ContactConfig):
    return {
        "n": config.n,
        "points": [
            {"x": [rat_str(c) for c in p.x], "y": [rat_str(c) for c in p.y], "u": rat_str(p.u)}
            for p in config.points
        ],
    }


def contact_config_from_dict(obj):
    """Parse {"n": ..., "points": [{"x": [...], "y": [...], "u": ...}, ...]}."""
    if not isinstance(obj, dict) or "n" not in obj or "points" not in obj:
        raise ValueError("contact configuration must be an object with 'n' and 'points'")
    n = _half_dimension(obj)

    def fits(p):
        return (
            isinstance(p, dict)
            and "u" in p
            and all(isinstance(p.get(key), list) and len(p[key]) == n for key in ("x", "y"))
        )

    points = _point_list(obj, fits, f"an object with 'x' and 'y' (lists of n = {n} coordinates) and 'u'")
    return ContactConfig(n, tuple([(p["x"], p["y"], p["u"]) for p in points]))


def load_contact_config(path):
    with open(path) as fh:
        return contact_config_from_dict(json.load(fh))
