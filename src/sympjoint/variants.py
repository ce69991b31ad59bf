"""Conformal and affine variants, and the contact lift of the action.

Scaling makes the pairwise invariants relative of a common weight, so their
ratios are absolute (CSp).  Translations are absorbed by triangle sums or by
moving the first point to the origin (ASp).  On the contact space R^{2n+1}
with coordinates (x, y, u) the lifted action admits the relative invariants

    R_k = x_k . y_k - 2 u_k,      R_ij = x_i . y_j - x_j . y_i,

all of weight one, whose ratios T_k = R_k/R_m, T_ij = R_ij/R_m generate the
invariant field.  The T_ij satisfy the same Pfaffian relations as the a_ij,
which eliminates all pairs outside the basic set.
"""

import json
from dataclasses import dataclass
from math import comb

from .exact import ExactMatrix, Rat, rat, rat_str
from .field_generators import basic_set
from .invariants import GenericityError, GramTable, _half_dimension
from .normal_form import Signature


@dataclass(frozen=True)
class ContactPoint:
    x: tuple
    y: tuple
    u: object

    def __post_init__(self):
        object.__setattr__(self, "x", tuple(rat(c) for c in self.x))
        object.__setattr__(self, "y", tuple(rat(c) for c in self.y))
        object.__setattr__(self, "u", rat(self.u))
        if len(self.x) != len(self.y):
            raise ValueError("x and y must have equal length")


@dataclass(frozen=True)
class ContactConfig:
    n: int
    points: tuple

    def __post_init__(self):
        pts = tuple(
            p if isinstance(p, ContactPoint) else ContactPoint(*p) for p in self.points
        )
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


def csp_signature(g: GramTable, n) -> Signature:
    """Conformal signature: sign of a12 followed by the basic-set ratios.

    The conformal factor is positive, so a12 keeps its sign while every ratio
    a_ij/a12 is an absolute invariant; there are d(m, n) - 1 of them.
    """
    a12 = g.value(1, 2)
    if a12 == 0:
        raise GenericityError("a12 = 0")
    sign = Rat(1) if a12 > 0 else Rat(-1)
    ratios = tuple(
        g.value(i, j) / a12 for (i, j) in basic_set(g.m, n).pairs if (i, j) != (1, 2)
    )
    return Signature("CSp", (sign,) + ratios)


def asp_invariants(config) -> list:
    """Triangle invariants a_ij + a_jk + a_ki over the triples (1, j, k).

    Twice the symplectic area of the triangle A_1 A_j A_k; unchanged by
    translations and symplectic maps.
    """
    if config.m < 3:
        raise ValueError("affine triangle invariants need m >= 3")
    from .invariants import gram

    g = gram(config)
    out = []
    for j in range(2, config.m + 1):
        for k in range(j + 1, config.m + 1):
            out.append(g.value(1, j) + g.value(j, k) + g.value(k, 1))
    return out


def contact_apply(gmat: ExactMatrix, p: ContactPoint) -> ContactPoint:
    """The lifted GL(2) action on R^3(x, y, u), exact (n = 1 only).

    (x, y, u) -> (ax+by, cx+dy, det(g)(u - xy/2) + (ax+by)(cx+dy)/2).
    """
    if (gmat.rows, gmat.cols) != (2, 2):
        raise ValueError("contact action takes a 2x2 matrix")
    if len(p.x) != 1:
        raise ValueError("explicit contact action implemented for n = 1")
    a, b = gmat.data[0]
    c, d = gmat.data[1]
    det = a * d - b * c
    if det == 0:
        raise ValueError("singular matrix does not act")
    x, y, u = p.x[0], p.y[0], p.u
    nx = a * x + b * y
    ny = c * x + d * y
    nu = det * (u - x * y / Rat(2)) + nx * ny / Rat(2)
    return ContactPoint((nx,), (ny,), nu)


def contact_transform(gmat: ExactMatrix, config: ContactConfig) -> ContactConfig:
    return ContactConfig(config.n, tuple(contact_apply(gmat, p) for p in config.points))


def contact_lift_symplectic(M: ExactMatrix, config: ContactConfig) -> ContactConfig:
    """Lift of a symplectic map to the contact space, preserving every R_k.

    (x, y) maps by M while u picks up (x'.y' - x.y)/2.  This is the transport
    used to test the general-n action, where no explicit lifted formula is
    available; it fixes R_k by construction and R_ij by symplecticity.
    """
    n = config.n
    pts = []
    for p in config.points:
        v = p.x + p.y
        w = M.apply(v)
        nx, ny = w[:n], w[n:]
        dot_old = sum((a * b for a, b in zip(p.x, p.y)), Rat(0))
        dot_new = sum((a * b for a, b in zip(nx, ny)), Rat(0))
        pts.append(ContactPoint(nx, ny, p.u + (dot_new - dot_old) / Rat(2)))
    return ContactConfig(n, tuple(pts))


def contact_relative(config: ContactConfig):
    """All relative invariants: R_k per point and R_ij per pair (1-based keys)."""
    m = config.m
    r_k = []
    for k in range(1, m + 1):
        p = config.point(k)
        dot = sum((a * b for a, b in zip(p.x, p.y)), Rat(0))
        r_k.append(dot - 2 * p.u)
    r_ij = {}
    for i in range(1, m + 1):
        for j in range(i + 1, m + 1):
            pi, pj = config.point(i), config.point(j)
            r_ij[(i, j)] = sum(
                (pi.x[t] * pj.y[t] - pj.x[t] * pi.y[t] for t in range(config.n)), Rat(0)
            )
    return {"R_k": r_k, "R_ij": r_ij}


def _eliminated_pairs(m, n):
    kept = set(basic_set(m, n).pairs)
    return [
        (i, j)
        for i in range(1, m + 1)
        for j in range(i + 1, m + 1)
        if (i, j) not in kept
    ]


def _absolute_values(config: ContactConfig):
    rel = contact_relative(config)
    r_k, r_ij = rel["R_k"], rel["R_ij"]
    m = config.m
    rm = r_k[m - 1]
    if rm == 0:
        raise GenericityError(f"R_{m} = 0")

    def rij(i, j):
        return r_ij[(i, j)] if i < j else -r_ij[(j, i)]

    if _eliminated_pairs(m, config.n) and rij(1, 2) == 0:
        raise GenericityError("T_12 = 0 blocks the Pfaffian elimination")
    t_k = tuple(r_k[k - 1] / rm for k in range(1, m))
    t_ij = tuple(rij(i, j) / rm for (i, j) in basic_set(m, config.n).pairs)
    return t_k + t_ij


def _rotate_if_needed(config: ContactConfig):
    """Rotate the point order once when the reference R_m vanishes."""
    if contact_relative(config)["R_k"][config.m - 1] == 0:
        return config.rotate(), True
    return config, False


def contact_absolute(config: ContactConfig) -> Signature:
    """The reduced generating set Tbar = {T_k (k < m)} + {T_ij on the basic set}.

    Cardinality is (2n+1)m - n(2n+1) - 1 for m >= 2n (3m - 4 when n = 1).
    The last point's R is the reference denominator; when it vanishes a single
    cyclic relabeling is attempted before rejecting.
    """
    config, _ = _rotate_if_needed(config)
    return Signature("Contact", _absolute_values(config))


def contact_equivalent(A: ContactConfig, B: ContactConfig) -> bool:
    """Exact comparison of absolute contact invariants.

    The fallback relabeling is decided on the first configuration and applied
    to both, so the test is genuine group equivalence.
    """
    if (A.n, A.m) != (B.n, B.m):
        raise ValueError("configurations must share (n, m)")
    A, rotated = _rotate_if_needed(A)
    if rotated:
        B = B.rotate()
    return _absolute_values(A) == _absolute_values(B)


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
    pts = tuple(
        ContactPoint(tuple(p["x"]), tuple(p["y"]), p["u"]) for p in obj["points"]
    )
    return ContactConfig(_half_dimension(obj), pts)


def load_contact_config(path):
    with open(path) as fh:
        return contact_config_from_dict(json.load(fh))
