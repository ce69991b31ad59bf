"""Canonical forms and the signature method for deciding equivalence.

A generic configuration is normalized by symplectic Gram-Schmidt run on its
Gram table (Artin, Geometric Algebra, ch. III): points 2k-1 and 2k give the
k-th frame pair (E_k, F_k), made omega-orthogonal to the earlier pairs with
omega(E_k, F_k) = 1, and each point is written in that frame.  No linear
system is solved: the pairings left after k frame pairs are bordered
Pfaffians of the table's integer form over Pf(ints | 1..2k), read off one
Pfaffian condensation of the table's 2n frame rows against all m columns
(`invariants._leading`), which decides the leading chain too, with one
division per output entry.  Two generic configurations are equivalent iff
their signatures (the values of the generating invariants in a fixed order)
coincide exactly.

Every decision reads the basic set {a_ij : i <= 2n}, the rows that
`_gram_of(pts, d, 2 * n)` builds in `basic_set` order, the chain's labels
among them: with passing chains on m >= 2n points, equal basic sets decide
the orbit (the proof is in `recover_transform`).  Pairs past 2n are read only
where the basic set does not decide: the fallback's lazy scan for the first
nonzero pair, and the eliminated pairs of contact plane parts that fail the
chain.

Coordinates are grouped (x^1..x^n, y^1..y^n); frame pair k fills the x^k and
y^k slots, so e.g. for n = 2 the fourth column carries b_1234/a_12 in its
y^2 slot.

Every signature and equivalence decision, for Sp, CSp, ASp and the contact
lift, is made here, by `_normalize`: one configuration, with its fallback
relabeling either decided or given.  It reads integer forms only, points u_i /
d, basic-set tables ints / den (built by `_gram_of`, for ASp from u_i - u_1)
and the contact form `ContactConfig._ints`, and returns a signature as one
integer row over one nonzero integer D, plus Witt's relations: (key, row, D,
relations), the values being x / D for each x of the row.  Sp and ASp take the basic-set
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

from .exact import ExactMatrix, Rat, _IntRowSpace, _Record, _symplectic_columns, nullspace, symp
from .invariants import (
    ContactConfig,
    GenericityError,
    GramTable,
    PointConfig,
    _failed,
    _gram_of,
    _leading,
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
    """Check every leading-Pfaffian predicate; report all failures.  The chain
    reads labels 1..2n only, so only the table of the first 2n points is built."""
    pts, d = config._ints
    failed = _failed(_gram_of(pts[: 2 * config.n], d), config.n)
    return GenericityReport(not failed, failed)


def _require_generic(g: GramTable, n, prefix="non-generic configuration"):
    """Raise GenericityError naming every failed predicate of the table, if any."""
    failed = _failed(g, n)
    if failed:
        raise GenericityError(f"{prefix}: " + ", ".join(failed))


def _genericize(pts, d, n):
    """Return (points, their basic-set table, perm) with a passing chain, relabeling once if needed.

    The points are A_i = u_i / d, given as the u_i; the table holds the rows
    i <= 2n (`_gram_of` with top 2n).  The single fallback moves the first
    pair (i, j) with a_ij != 0, in (i, j) order, to the front (perm lists the
    new order; () when none was needed); the pairs are scanned lazily, so no
    full table is built.  Anything still failing is rejected.
    """
    g = _gram_of(pts, d, 2 * n)
    if not _failed(g, n):
        return pts, g, ()
    m = len(pts)
    first = next(((i, j) for i in range(1, m) for j in range(i + 1, m + 1) if symp(pts[i - 1], pts[j - 1])), None)
    if first is not None and first != (1, 2):
        i, j = first
        perm = [i, j] + [k for k in range(1, m + 1) if k not in (i, j)]
        moved = [pts[k - 1] for k in perm]
        moved_g = _gram_of(moved, d, 2 * n)
        if not _failed(moved_g, n):
            return moved, moved_g, perm
    _require_generic(g, n)  # raises: no relabeling rescued the chain


def _canonical_columns(g: GramTable, n):
    """Symplectic Gram-Schmidt on the basic-set table: the points in the frame.

    Pair k (0-based) takes E from A_e and F from A_f, e = 2k+1 and f = 2k+2,
    each made omega-orthogonal to the earlier pairs, with F scaled so
    omega(E, F) = 1.  Column j holds omega(A_j, F) = P(j, f) / B_{k+1} in its
    x^{k+1} slot and omega(E, A_j) = P(e, j) / (B_k den) in its y^{k+1} slot,
    B_k = Pf(ints | 1..2k) and P(i, j) = Pf(ints | 1..2k, i, j), all off one
    `_leading` pass over the 2n frame rows against all m columns: rows e and
    f are final once step k has run, as no later step writes a row <= f, and
    a step reads only rows <= 2n, the pairs of the basic set.  A vanishing
    B_k, k <= n, raises GenericityError; else no pivot is swapped.  With m
    odd and m < 2n the last point alone spans the next E: its x slot is 1.
    """
    m, P = g.m, _skew_rows(g.ints, range(1, g.m + 1), 2 * n)
    B = [1] + _leading(P)  # B[k] = Pf(ints | 1..2k)
    if not all(B[: n + 1]):
        _require_generic(g, n)  # raises, naming the vanishing links
    cols = [[Rat(0)] * (2 * n) for _ in range(m)]
    for k in range(min(n, (m + 1) // 2)):
        e, f = 2 * k + 1, 2 * k + 2
        if f > m:
            cols[-1][k] = Rat(1)
            break
        for j in range(e, m + 1):  # the points before A_e pair to zero with E and F
            cols[j - 1][k], cols[j - 1][n + k] = Rat(-P[f][j], B[k + 1]), Rat(P[e][j], B[k] * g.den)
    return cols


def canonical(config: PointConfig) -> ExactMatrix:
    """Canonical 2n x m matrix of a generic configuration (columns are points).

    The output is determined by the basic set of gram(config) alone and
    reproduces the whole table exactly; a non-generic input is rejected with
    the failed predicate named.  The self-check compares basic sets, which
    is enough.  For m <= 2n the basic set is the whole table.  For m > 2n
    the chain passes, so A_1..A_2n is a basis, and the linear S with
    S A_i = C_i (i <= 2n) is symplectic, as the columns C reproduce
    omega(A_i, A_k) for i, k <= 2n.  For every j and every i <= 2n,
    omega(C_i, C_j) = omega(A_i, A_j) = omega(S A_i, S A_j) = omega(C_i, S A_j),
    and C_1..C_2n is a basis, so C_j = S A_j: the whole table is reproduced.
    """
    if config.m < 2:
        raise ValueError("canonical form needs at least two points")
    n, (pts, d) = config.n, config._ints
    g = _gram_of(pts, d, 2 * n)
    cols = _canonical_columns(g, n)
    result = ExactMatrix.from_columns(cols)
    if _gram_of(*PointConfig(n, tuple(cols))._ints, 2 * n) != g:
        raise RuntimeError("canonical columns fail to reproduce the Gram table")
    return result


def recover_transform(A: PointConfig, B: PointConfig) -> ExactMatrix:
    """Explicit symplectic witness M with M A_i = B_i for all i.

    Requires m >= 2n (otherwise the stabilizer is positive-dimensional and the
    witness is not unique) and equal Gram tables.  M A_i = B_i reads
    A^T M^T = B^T; on the first 2n points, A_i = u_i / d_a and B_i = v_i / d_b,
    its rows [u_i d_b | v_i d_a] are eliminated in ints to M = N / D.  The
    remaining points follow automatically; every check is exact, in ints.

    Only the basic sets (the rows i <= 2n) are built and compared, and they
    differ exactly when the whole tables do.  Both chains pass, so
    A_1..A_2n and B_1..B_2n are bases, and the M with M A_i = B_i (i <= 2n)
    is symplectic when the basic sets agree.  Then for every j and every
    i <= 2n, omega(M A_j, B_i) = omega(M A_j, M A_i) = omega(A_j, A_i) =
    omega(B_j, B_i); as B_1..B_2n is a basis, M A_j = B_j, and the whole
    tables agree.
    """
    if (A.n, A.m) != (B.n, B.m):
        raise ValueError("configurations must share (n, m)")
    n, m = A.n, A.m
    if m < 2 * n:
        raise ValueError("underdetermined: fewer than 2n points leave a nontrivial stabilizer")
    (us, d_a), (vs, d_b) = A._ints, B._ints
    tables = _gram_of(us, d_a, 2 * n), _gram_of(vs, d_b, 2 * n)
    for label, g in zip(("first", "second"), tables):
        _require_generic(g, n, f"{label} configuration non-generic")
    if tables[0] != tables[1]:
        raise ValueError("not equivalent: Gram tables differ")
    return _witness(us, d_a, vs, d_b, n)


def _witness(us, d_a, vs, d_b, n):
    """The M with M u_i / d_a = v_i / d_b for all i, from integer points whose
    basic-set tables are already checked equal, with passing chains (as
    `recover_transform` and `_relabel_compare` do): the rows
    [u_i d_b | v_i d_a] of the first 2n points eliminated in ints to M = N / D,
    checked symplectic and checked to move every point, N u_i d_b = D d_a v_i."""
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


def _csp_values(row):
    """The conformal row over a12 of the basic-set ints `row`, a12 first:
    |a12| (so sign(a12) = |a12| / a12), then the ints after a12, whose values
    are a_ij / a12."""
    if not row:
        raise ValueError("conformal signature needs at least two points")
    a12 = row[0]
    if a12 == 0:
        raise GenericityError("a12 = 0")
    return [abs(a12)] + row[1:], a12


def _absolute_values(planes, refs, d, n):
    """The absolute contact values as (row, r_m, relations), from the integer
    form of `ContactConfig._ints`, relabeled: T_k = r_k / r_m for k < m, then
    T_ij = ints[i, j] / r_m over the basic set of the plane parts' table R
    (R_k and R_ij share the denominator d^2, which cancels)."""
    m, rm = len(refs), refs[-1]
    if rm == 0:
        raise GenericityError(f"R_{m} = 0")
    R = _gram_of(planes, d, 2 * n)  # T = R / R_m, and b_{1..2k}(T) = b_{1..2k}(R) / R_m^k
    row = refs[:-1] + list(R.ints.values())
    # the elimination divides by every link b_{1..2k}(T) of the leading
    # chain; unless all n links pass, the basic set does not determine the
    # eliminated T_ij (the pairs i > 2n, the table of the points past 2n),
    # so they join the signature (each is invariant), and the plane parts
    # may not span, so their linear relations join too
    spanning = m >= 2 * n and not _failed(R, n)
    if not spanning:
        row += list(_gram_of(planes[2 * n :], d).ints.values())
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
    Sp: the basic-set ints over den, the ints of `_gram_of` with top 2n in
    order; CSp: the row of `_csp_values` over a12; ASp: the Sp row after
    translating by -A_1.  Contact: the row of `_absolute_values` over r_m,
    on the relabeled integer form.
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
        g = _gram_of(pts, d, 2 * n)
        _require_generic(g, n, "second configuration non-generic")
    row, D = list(g.ints.values()), g.den
    if key == "CSp":
        row, D = _csp_values(row)
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
