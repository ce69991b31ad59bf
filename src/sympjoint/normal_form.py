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
relabeling either decided or given.  It reads integer forms only, points u_i /
d, tables ints / den (built by `_gram_of`, for ASp from u_i - u_1) and the
contact form `ContactConfig._ints`, and returns a signature as one integer row
over one nonzero integer D, plus Witt's relations: (key, row, D, relations),
the values being x / D for each x of the row.  Sp and ASp take the basic-set
ints over den, CSp |a12| and the basic-set ints after (1, 2) over a12
(`_csp_values`), contact r_1..r_{m-1} and the plane parts' table ints over r_m
(`_absolute_values`).  Two signatures compare by one rule, `_same`: equal rows
by `invariants._same_values` (x D_b == y D_a entry by entry, the rule
`GramTable.__eq__` uses) and equal relations, so no value of a decision
becomes a `Rat`; `_values` builds one per value that `signature`,
`csp_signature` (in `variants`) or the CLI returns.  The relabeling is one
value for every group, a list of point images or () for none: the fallback of
`_genericize`, or for contact the rotation [2, ..., m, 1] when R_m = 0,
applied to the integer form.  A pair is compared by `_relabel_compare`, which
decides the relabeling on the first configuration and applies it to the
second.  The imports run one way: `variants` imports this module, never the
reverse.

`Signature` stays a frozen dataclass, built on its first read (PEP 562), so
that importing this module does not load `dataclasses`.  Read it as a module
attribute (`from .normal_form import Signature`, `normal_form.Signature`, or
`_module.Signature` here): the hook builds the class once and caches it, and
calling the hook again would build a second class.
"""

import sys
from math import lcm

from .exact import ExactMatrix, Rat, _IntRowSpace, _Record, _symplectic_columns, nullspace
from .field_generators import basic_set
from .invariants import (
    ContactConfig,
    GenericityError,
    GramTable,
    PointConfig,
    _condense,
    _failed,
    _gram_of,
    _same_values,
    _skew_rows,
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
    failed = _failed(_gram_of(*config._ints), config.n)
    return GenericityReport(not failed, failed)


def _require_generic(g: GramTable, n, prefix="non-generic configuration"):
    """Raise GenericityError naming every failed predicate of the table, if any."""
    failed = _failed(g, n)
    if failed:
        raise GenericityError(f"{prefix}: " + ", ".join(failed))


def _genericize(pts, d, n):
    """Return (points, their Gram table, perm) with a passing chain, relabeling once if needed.

    The points are A_i = u_i / d, given as the u_i.  The single fallback moves
    the first pair (i, j) with a_ij != 0 to the front (perm lists the new
    order; () when none was needed); anything still failing is rejected.
    """
    g = _gram_of(pts, d)
    if not _failed(g, n):
        return pts, g, ()
    first = next((p for p, x in g.ints.items() if x), None)
    if first is not None and first != (1, 2):
        i, j = first
        perm = [i, j] + [k for k in range(1, len(pts) + 1) if k not in (i, j)]
        moved = [pts[k - 1] for k in perm]
        moved_g = _gram_of(moved, d)
        if not _failed(moved_g, n):
            return moved, moved_g, perm
    _require_generic(g, n)  # raises: no relabeling rescued the chain


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
    P = _skew_rows(g.ints, range(1, m + 1))
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
    g = _gram_of(*config._ints)
    _require_generic(g, config.n)
    cols = _canonical_columns(g, config.n)
    result = ExactMatrix.from_columns(cols)
    if _gram_of(*PointConfig(config.n, tuple(cols))._ints) != g:
        raise RuntimeError("canonical columns fail to reproduce the Gram table")
    return result


def recover_transform(A: PointConfig, B: PointConfig) -> ExactMatrix:
    """Explicit symplectic witness M with M A_i = B_i for all i.

    Requires m >= 2n (otherwise the stabilizer is positive-dimensional and the
    witness is not unique) and equal Gram tables.  M A_i = B_i reads
    A^T M^T = B^T; on the first 2n points, A_i = u_i / d_a and B_i = v_i / d_b,
    its rows [u_i d_b | v_i d_a] are eliminated in ints to M = N / D.  The
    remaining points follow automatically; every check is exact, in ints.
    """
    if (A.n, A.m) != (B.n, B.m):
        raise ValueError("configurations must share (n, m)")
    n, m = A.n, A.m
    if m < 2 * n:
        raise ValueError("underdetermined: fewer than 2n points leave a nontrivial stabilizer")
    (us, d_a), (vs, d_b) = A._ints, B._ints
    tables = _gram_of(us, d_a), _gram_of(vs, d_b)
    for label, g in zip(("first", "second"), tables):
        _require_generic(g, n, f"{label} configuration non-generic")
    if tables[0] != tables[1]:
        raise ValueError("not equivalent: Gram tables differ")
    augmented = [[x * d_b for x in u] + [y * d_a for y in v] for u, v in zip(us[: 2 * n], vs[: 2 * n])]
    reduced = _IntRowSpace(augmented).reduced()
    if [p for p, _ in reduced] != list(range(2 * n)):
        raise ValueError("singular matrix")
    D = lcm(*[row[p] for p, row in reduced])
    cols = [[x * (D // row[p]) for x in row[2 * n :]] for p, row in reduced]
    if not _symplectic_columns(cols, n, D * D):
        raise RuntimeError("recovered transform is not symplectic")
    rows = list(zip(*cols))  # (N u_i) d_b = D d_a v_i for every point
    for i, (u, v) in enumerate(zip(us, vs), 1):
        if any(sum([x * y for x, y in zip(N, u)]) * d_b != D * d_a * y for N, y in zip(rows, v)):
            raise RuntimeError(f"recovered transform fails to move point {i}")
    return ExactMatrix([[Rat(x, D) for x in N] for N in rows])


def _relations(points, n, spanning):
    """Witt's rule: the linear relations among the points, flattened.

    The canonical (RREF) nullspace basis of the 2n x m point matrix, or ()
    when the points span R^{2n}.  By Witt's extension theorem the Gram table
    together with these relations determines the Sp orbit (Artin, Geometric
    Algebra, ch. III).  `spanning` says the span is already proved (a passing
    chain with m >= 2n makes the first 2n points a basis), so no nullspace is
    computed.  Integer points u_i = d A_i give the same relations.
    """
    if spanning:
        return ()
    basis = nullspace(ExactMatrix.from_columns(points))
    if len(points) - len(basis) == 2 * n:  # rank 2n
        return ()
    return tuple([x for v in basis for x in v])


def _csp_values(g: GramTable, n):
    """The conformal row over a12: |a12| (so sign(a12) = |a12| / a12), then
    the ints of the basic set after (1, 2), whose values are a_ij / a12."""
    if g.m < 2:
        raise ValueError("conformal signature needs at least two points")
    ints = g.ints
    a12 = ints[1, 2]
    if a12 == 0:
        raise GenericityError("a12 = 0")
    return [abs(a12)] + [ints[p] for p in basic_set(g.m, n).pairs[1:]], a12


def _eliminated_pairs(m, n):
    """The pairs outside the basic set: those with i > 2n."""
    return [(i, j) for i in range(2 * n + 1, m + 1) for j in range(i + 1, m + 1)]


def _absolute_values(planes, refs, d, n):
    """The absolute contact values as (row, r_m, relations), from the integer
    form of `ContactConfig._ints`, relabeled: T_k = r_k / r_m for k < m, then
    T_ij = ints[i, j] / r_m over the basic set of the plane parts' table R
    (R_k and R_ij share the denominator d^2, which cancels)."""
    m, rm = len(refs), refs[-1]
    if rm == 0:
        raise GenericityError(f"R_{m} = 0")
    R = _gram_of(planes, d)  # T = R / R_m, and b_{1..2k}(T) = b_{1..2k}(R) / R_m^k
    ints = R.ints
    row = refs[:-1] + [ints[p] for p in basic_set(m, n).pairs]
    # the elimination divides by every link b_{1..2k}(T) of the leading
    # chain; unless all n links pass, the basic set does not determine the
    # eliminated T_ij, so they join the signature (each is invariant), and
    # the plane parts may not span, so their linear relations join too
    spanning = m >= 2 * n and not _failed(R, n)
    if not spanning:
        row += [ints[p] for p in _eliminated_pairs(m, n)]
    return row, rm, _relations(planes, n, spanning)


def _normalize(group, config, relabel=None):
    """((group key, row, D, relations), relabeling) of one configuration under `group`.

    The signature's values are x / D for each int x of the row (D a nonzero
    int), followed by the relations (Witt's rule, `_relations`); `_values`
    builds them and `_same` compares two signatures without building any.
    The relabeling is a list of 1-based images (new point i is old point
    relabel[i-1]), or () for none.  It is decided here when `relabel` is None
    (the one fallback of `_genericize`; for contact [2, ..., m, 1] iff R_m = 0)
    and applied unchanged otherwise; a given relabeling is always the first
    configuration's, applied to the second, which must then be generic.
    Sp: the basic-set ints over den; CSp: the row of `_csp_values` over a12;
    ASp: the Sp row after translating by -A_1.  Contact: the row of
    `_absolute_values` over r_m, on the relabeled integer form.
    """
    key = _GROUPS.get(str(group).lower())
    if key is None:
        raise ValueError(f"unknown group {group!r}; expected sp, csp, asp or contact")
    record = ContactConfig if key == "Contact" else PointConfig
    if not isinstance(config, record):
        raise ValueError(f"the {key} group takes a {record.__name__}, got {type(config).__name__}")
    if key == "Contact":
        planes, refs, d = config._ints
        if relabel is None:
            relabel = [*range(2, config.m + 1), 1] if refs[-1] == 0 else ()
        if relabel:
            planes, refs = [planes[k - 1] for k in relabel], [refs[k - 1] for k in relabel]
        return (key, *_absolute_values(planes, refs, d, config.n)), relabel
    n, (pts, d) = config.n, config._ints
    if key == "ASp":
        # translation by -A_1 removes the base point, then the linear theory applies
        if config.m < 2:
            raise ValueError("affine signature needs at least two points")
        pts = [[x - y for x, y in zip(u, pts[0])] for u in pts[1:]]
    if relabel is None:
        pts, g, relabel = _genericize(pts, d, n)
    else:
        if relabel:
            pts = [pts[k - 1] for k in relabel]
        g = _gram_of(pts, d)
        _require_generic(g, n, "second configuration non-generic")
    if key == "CSp":
        row, D = _csp_values(g, n)
    else:
        ints = g.ints
        row, D = [ints[p] for p in basic_set(g.m, n).pairs], g.den
    return (key, row, D, _relations(pts, n, g.m >= 2 * n)), relabel


def _values(row, D, relations=()):
    """The values of a signature: one `Rat` x / D per int of the row, then the relations."""
    return tuple([Rat(x, D) for x in row]) + relations


def _same(sig_a, sig_b):
    """Whether two (key, row, D, relations) signatures hold the same values:
    equal keys and relations, and rows equal by `_same_values`, in ints."""
    (key_a, row_a, D_a, rel_a), (key_b, row_b, D_b, rel_b) = sig_a, sig_b
    return key_a == key_b and rel_a == rel_b and _same_values(row_a, D_a, row_b, D_b)


def _relabel_compare(A, B, group):
    """(signature of A, signature of B, relabeling) under `group`.  The
    relabeling is decided on A by `_normalize` and applied unchanged to B, so
    equal signatures mean genuine group equivalence.  A signature here is a
    plain (group, row, D, relations) tuple, compared by `_same`.
    """
    if (A.n, A.m) != (B.n, B.m):
        raise ValueError("configurations must share (n, m)")
    sig_a, relabel = _normalize(group, A)
    sig_b, _ = _normalize(group, B, relabel)
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
    key, *parts = _normalize(group, config)[0]
    return _module.Signature(key, _values(*parts))


def equivalent(A, B, group) -> bool:
    """Exact signature comparison; both configurations must be generic.

    Any fallback relabeling is decided on the first configuration and applied
    to both, so the comparison always tests genuine group equivalence.  The
    signatures are compared as integer rows (`_same`): none of their values
    becomes a `Rat`.
    """
    sig_a, sig_b, _ = _relabel_compare(A, B, group)
    return _same(sig_a, sig_b)
