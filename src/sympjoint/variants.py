"""Conformal and affine variants, and the contact lift of the action.

Scaling makes the pairwise invariants relative of a common weight, so their
ratios are absolute (CSp).  Translations are absorbed by triangle sums or by
moving the first point to the origin (ASp).  On the contact space R^{2n+1}
with coordinates (x, y, u) the lifted action admits the relative invariants

    R_k = x_k . y_k - 2 u_k,      R_ij = x_i . y_j - x_j . y_i,

all of weight one, whose ratios T_k = R_k/R_m, T_ij = R_ij/R_m generate the
invariant field.  The T_ij satisfy the same Pfaffian relations as the a_ij,
which eliminates all pairs outside the basic set.  R_ij is the Gram table of
the plane parts (x, y), and T = R/R_m has the vanishing Pfaffians of R.  Both
are read off the integer form of a `ContactConfig` (its `_ints`).

This module sits above `normal_form`, which makes every CSp and contact
decision: `csp_signature`, `contact_absolute` and `contact_equivalent` read
its integer rows (`_csp_values`, built into `Rat`s by `_values`),
`signature` and `equivalent`.  The contact records are defined in
`invariants`, and the contact count `dim_bbar` beside `dim_d` in
`field_generators`; both are exported from here.
"""

import json

from . import normal_form
from .exact import ExactMatrix, Rat, _check_n, rat_str
from .field_generators import dim_bbar
from .invariants import ContactConfig, ContactPoint, _gram_of, _point_list, gram


def csp_signature(g, n) -> "Signature":
    """Conformal signature of a Gram table: sign of a12, then the basic-set ratios.

    The conformal factor is positive, so a12 keeps its sign while every ratio
    a_ij/a12 is an absolute invariant; there are d(m, n) - 1 of them.
    """
    return normal_form.Signature("CSp", normal_form._values(*normal_form._csp_values(g, n)))


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


def contact_relative(config: ContactConfig):
    """All relative invariants: R_k per point and R_ij per pair (1-based keys)."""
    planes, refs, d = config._ints
    return {"R_k": [Rat(r, d * d) for r in refs], "R_ij": dict(_gram_of(planes, d).values)}


def contact_absolute(config: ContactConfig) -> "Signature":
    """The reduced generating set Tbar = {T_k (k < m)} + {T_ij on the basic set}.

    Cardinality is (2n+1)m - n(2n+1) - 1 for m >= 2n (3m - 4 when n = 1).
    When a leading Pfaffian b_{1..2k}(T) vanishes, the basic set does not
    determine the eliminated T_ij, and they follow in `_eliminated_pairs`
    order.  Unless the plane parts (x, y) span R^{2n}, their linear relations
    follow (Witt's rule, `_relations`).  The last point's R is the reference
    denominator; when it vanishes a single cyclic relabeling is attempted
    before rejecting.  The values are `normal_form`'s, as for `signature`.
    """
    return normal_form.signature(config, "contact")


def contact_equivalent(A: ContactConfig, B: ContactConfig) -> bool:
    """Exact comparison of absolute contact invariants: `equivalent` for the contact group."""
    return normal_form.equivalent(A, B, "contact")


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
    n = _check_n(obj["n"])

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
