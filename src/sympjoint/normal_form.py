"""Canonical forms and the signature method for deciding equivalence.

A generic configuration is normalized by symplectic Gram-Schmidt run on its
Gram table (Artin, Geometric Algebra, ch. III): points 2k-1 and 2k give the
k-th frame pair (E_k, F_k), made omega-orthogonal to the earlier pairs with
omega(E_k, F_k) = 1, and each point is written in that frame.  No linear
system is solved: the pairings left after k frame pairs are bordered
Pfaffians of the table's integer form over Pf(ints | 1..2k), computed in
ints by Pfaffian condensation (`invariants._condense`), one division per
output entry.  Two generic configurations are equivalent iff their
signatures (the values of the generating invariants in a fixed order)
coincide exactly.

Coordinates are grouped (x^1..x^n, y^1..y^n); frame pair k fills the x^k and
y^k slots, so e.g. for n = 2 the fourth column carries b_1234/a_12 in its
y^2 slot.

Every signature and equivalence decision, for Sp, CSp, ASp and the contact
lift, is made here, by `_normalize`: one configuration, with its fallback
relabeling either decided or given.  The conformal values (`_csp_values`),
the absolute contact values (`_contact_normal`) and Witt's relations rule
(`_relations`) are its parts.  A pair is compared by `_relabel_compare`,
which decides the relabeling on the first configuration and applies it to
the second.  That path carries plain (group, values) pairs; only the public
`signature` (and `csp_signature` in `variants`) builds a `Signature`.  The
imports run one way: `variants` imports this module, never the reverse.

`Signature` stays a frozen dataclass, built on its first read (PEP 562), so
that importing this module does not load `dataclasses`.  Read it as a module
attribute (`from .normal_form import Signature`, `normal_form.Signature`, or
`_module.Signature` here): the hook builds the class once and caches it, and
calling the hook again would build a second class.
"""

import sys
from functools import partial

from .exact import ExactMatrix, Rat, _integer_row, _Record, is_symplectic, nullspace, solve
from .field_generators import basic_set
from .invariants import (
    ContactConfig,
    GenericityError,
    GramTable,
    PointConfig,
    _condense,
    _failed,
    _plane,
    _reference,
    gram,
)

_GROUPS = {"sp": "Sp", "csp": "CSp", "asp": "ASp", "contact": "Contact"}
_module = sys.modules[__name__]  # reads its attributes through the PEP 562 hook below


def __getattr__(name):
    if name != "Signature":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from dataclasses import make_dataclass

    cls = make_dataclass("Signature", [("group", str), ("values", tuple)], frozen=True)
    cls.__module__ = __name__  # make_dataclass has no module= before Python 3.12
    globals()["Signature"] = cls  # later reads skip this hook
    return cls


class GenericityReport(_Record):
    """Result of `genericity`: generic (bool) and failed_predicates (a tuple
    of names such as "a12 = 0")."""

    __slots__ = ("generic", "failed_predicates")


def genericity(config: PointConfig) -> GenericityReport:
    """Check every leading-Pfaffian predicate; report all failures."""
    failed = _failed(gram(config), config.n)
    return GenericityReport(not failed, failed)


def _require_generic(g: GramTable, n, prefix="non-generic configuration"):
    """Raise GenericityError naming every failed predicate of the table, if any."""
    failed = _failed(g, n)
    if failed:
        raise GenericityError(f"{prefix}: " + ", ".join(failed))


def _genericize(config: PointConfig):
    """Return (config, its Gram table, perm) with a passing chain, relabeling once if needed.

    The single fallback moves the first pair (i, j) with a_ij != 0 to the
    front (perm lists the new order; () when none was needed); anything still
    failing after that is rejected.
    """
    g = gram(config)
    if not _failed(g, config.n):
        return config, g, ()
    first = next((p for p in g.pairs() if g.value(*p) != 0), None)
    if first is not None and first != (1, 2):
        i, j = first
        perm = [i, j] + [k for k in range(1, config.m + 1) if k not in (i, j)]
        moved = config.permute(perm)
        moved_g = gram(moved)
        if not _failed(moved_g, config.n):
            return moved, moved_g, perm
    _require_generic(g, config.n)  # raises: no relabeling rescued the chain


def _canonical_columns(g: GramTable, n):
    """Symplectic Gram-Schmidt on the Gram table: the points in the frame.

    Pair k (0-based) takes E from A_e and F from A_f, e = 2k+1 and f = 2k+2,
    each made omega-orthogonal to the earlier pairs, with F scaled so
    omega(E, F) = 1.  Column j holds omega(A_j, F) = P(j, f) / P(e, f) in its
    x^{k+1} slot and omega(E, A_j) = P(e, j) / (B_k den) in its y^{k+1} slot,
    P(i, j) = Pf(ints | 1..2k, i, j) by `_condense` and B_k = Pf(ints | 1..2k).
    The pivot P(e, f) = B_{k+1} is nonzero on a generic configuration.  With
    m odd and m < 2n the last point alone spans the next E: its x slot is 1.
    """
    m = g.m
    P = [[0] * (m + 1) for _ in range(m + 1)]
    for (i, j), v in g.ints.items():
        P[i][j], P[j][i] = v, -v
    cols = [[Rat(0)] * (2 * n) for _ in range(m)]
    prev = 1
    for k in range(min(n, (m + 1) // 2)):
        e, f = 2 * k + 1, 2 * k + 2
        if f > m:
            cols[-1][k] = Rat(1)
            break
        Pe, Pf, pivot = P[e], P[f], P[e][f]
        for j in range(e, m + 1):  # the points before A_e pair to zero with E and F
            cols[j - 1][k], cols[j - 1][n + k] = Rat(-Pf[j], pivot), Rat(Pe[j], prev * g.den)
        _condense(P, e, f, prev)
        prev = pivot
    return cols


def canonical(config: PointConfig) -> ExactMatrix:
    """Canonical 2n x m matrix of a generic configuration (columns are points).

    The output is determined by gram(config) alone and reproduces it exactly;
    a non-generic input is rejected with the failed predicate named.
    """
    if config.m < 2:
        raise ValueError("canonical form needs at least two points")
    g = gram(config)
    _require_generic(g, config.n)
    cols = _canonical_columns(g, config.n)
    result = ExactMatrix.from_columns(cols)
    if gram(PointConfig(config.n, tuple(cols))) != g:
        raise RuntimeError("canonical columns fail to reproduce the Gram table")
    return result


def recover_transform(A: PointConfig, B: PointConfig) -> ExactMatrix:
    """Explicit symplectic witness M with M A_i = B_i for all i.

    Requires m >= 2n (otherwise the stabilizer is positive-dimensional and the
    witness is not unique) and equal Gram tables.  One solve maps the first 2n
    points of A onto those of B (M A_i = B_i reads A^T M^T = B^T); the
    remaining points follow automatically and are verified exactly.
    """
    if (A.n, A.m) != (B.n, B.m):
        raise ValueError("configurations must share (n, m)")
    n, m = A.n, A.m
    if m < 2 * n:
        raise ValueError("underdetermined: fewer than 2n points leave a nontrivial stabilizer")
    tables = gram(A), gram(B)
    for label, g in zip(("first", "second"), tables):
        _require_generic(g, n, f"{label} configuration non-generic")
    if tables[0] != tables[1]:
        raise ValueError("not equivalent: Gram tables differ")
    M = solve(ExactMatrix(A.points[: 2 * n]), ExactMatrix(B.points[: 2 * n])).transpose()
    if not is_symplectic(M, n):
        raise RuntimeError("recovered transform is not symplectic")
    # in ints: row r of M is N_r / D_r, A_i = u / d_a and B_i = v / d_b, so
    # M A_i = B_i reads (N_r . u) d_b = D_r d_a v_r for every r
    rows = [_integer_row(row) for row in M.data]
    for i, (a, b) in enumerate(zip(A.points, B.points), 1):
        (u, d_a), (v, d_b) = _integer_row(a), _integer_row(b)
        if any(sum([x * y for x, y in zip(N, u)]) * d_b != D * d_a * y for (N, D), y in zip(rows, v)):
            raise RuntimeError(f"recovered transform fails to move point {i}")
    return M


def _group_key(group):
    key = _GROUPS.get(str(group).lower())
    if key is None:
        raise ValueError(f"unknown group {group!r}; expected sp, csp, asp or contact")
    return key


def _translated(config):
    if config.m < 2:
        raise ValueError("affine signature needs at least two points")
    return PointConfig(config.n, config.points[1:]).translate([-c for c in config.point(1)])


def _relations(points, n, spanning):
    """Witt's rule: the linear relations among the points, flattened.

    The canonical (RREF) nullspace basis of the 2n x m point matrix, or ()
    when the points span R^{2n}.  By Witt's extension theorem the Gram table
    together with these relations determines the Sp orbit (Artin, Geometric
    Algebra, ch. III).  `spanning` says the span is already proved (a passing
    chain with m >= 2n makes the first 2n points a basis), so no nullspace is
    computed.
    """
    if spanning:
        return ()
    basis = nullspace(ExactMatrix.from_columns(points))
    if len(points) - len(basis) == 2 * n:  # rank 2n
        return ()
    return tuple([x for v in basis for x in v])


def _csp_values(g: GramTable, n):
    """The conformal values: sign(a12), then a_ij/a12 over the basic set."""
    if g.m < 2:
        raise ValueError("conformal signature needs at least two points")
    a12 = g.value(1, 2)
    if a12 == 0:
        raise GenericityError("a12 = 0")
    sign = Rat(1) if a12 > 0 else Rat(-1)
    ratios = tuple([g.value(i, j) / a12 for (i, j) in basic_set(g.m, n).pairs if (i, j) != (1, 2)])
    return (sign,) + ratios


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
    spanning = m >= 2 * n and not _failed(R, n)
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


def _normalize(group, config, relabel=None):
    """((group key, values), relabeling) of one configuration under `group`.

    The relabeling is decided here when `relabel` is None (the one fallback
    of `_genericize`, or the contact rotation of `_contact_normal`)
    and applied unchanged otherwise; a given relabeling is always the first
    configuration's, applied to the second, which must then be generic.
    Sp: the basic-set values; CSp: sign(a12) and the ratios; ASp: either
    after translating by -A_1; each followed by the linear relations.
    """
    key = _group_key(group)
    if key == "Contact":
        if not isinstance(config, ContactConfig):
            raise ValueError("the contact signature takes a ContactConfig")
        return _contact_normal(config, relabel)
    if key == "ASp":
        # translation removes the base point, then the linear theory applies
        config = _translated(config)
    if relabel is None:
        config, g, relabel = _genericize(config)
    else:
        if relabel:
            config = config.permute(relabel)
        g = gram(config)
        _require_generic(g, config.n, "second configuration non-generic")
    if key == "CSp":
        values = _csp_values(g, config.n)
    else:
        values = tuple([g.value(i, j) for (i, j) in basic_set(config.m, config.n).pairs])
    relations = _relations(config.points, config.n, config.m >= 2 * config.n)
    return (key, values + relations), relabel


def _relabel_compare(A, B, normalize):
    """(signature of A, signature of B, relabeling) under one group's
    normalize(config, relabel=None), which decides the fallback relabeling
    when given None.  It is decided on A and applied unchanged to B, so equal
    signatures mean genuine group equivalence.  A signature here is whatever
    `normalize` returns: a plain (group, values) pair on the decision path.
    """
    if (A.n, A.m) != (B.n, B.m):
        raise ValueError("configurations must share (n, m)")
    sig_a, relabel = normalize(A)
    sig_b, _ = normalize(B, relabel)
    return sig_a, sig_b, relabel


def signature(config, group) -> "Signature":
    """Signature of a configuration: generator values in a fixed order.

    Sp: the basic-set values; CSp: sign(a12) then ratios a_ij/a12; ASp: the
    Sp signature of the configuration translated by -A_1; Contact: the
    absolute contact invariants (configuration must be a ContactConfig).
    For Sp, CSp and ASp with fewer than 2n (translated) points, the flattened
    canonical basis of the linear relations among the points follows.
    If the leading pair degenerates, the points are relabeled once (the first
    nonzero pair moves to the front) before giving up.
    """
    return _module.Signature(*_normalize(group, config)[0])


def equivalent(A, B, group) -> bool:
    """Exact signature comparison; both configurations must be generic.

    Any fallback relabeling is decided on the first configuration and applied
    to both, so the comparison always tests genuine group equivalence.
    """
    sig_a, sig_b, _ = _relabel_compare(A, B, partial(_normalize, group))
    return sig_a == sig_b
