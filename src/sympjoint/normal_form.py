"""Canonical forms and the signature method for deciding equivalence.

A generic configuration is normalized by a symplectic analog of Gram-Schmidt:
the first point goes to the first basis vector, the second to a multiple of
its symplectic partner, and each further column is solved from the pairing
constraints omega(C_i, C_j) = a_ij together with a fixed zero/one pattern.
Two generic configurations are equivalent iff their signatures (the values of
the generating invariants in a fixed order) coincide exactly.

Coordinates are grouped (x^1..x^n, y^1..y^n); the normalization pattern pairs
x^k with y^k, so e.g. for n = 2 the fourth column carries b_1234/a_12 in its
y^2 slot.
"""

from dataclasses import dataclass

from .exact import (
    ExactMatrix,
    Rat,
    inverse,
    is_symplectic,
    nullspace,
    pfaffian,
    solve_vector,
    symp,
)
from .field_generators import basic_set
from .invariants import GenericityError, GramTable, PointConfig, gram

_GROUPS = {"sp": "Sp", "csp": "CSp", "asp": "ASp", "contact": "Contact"}


@dataclass(frozen=True)
class GenericityReport:
    generic: bool
    failed_predicates: tuple


@dataclass(frozen=True)
class Signature:
    group: str
    values: tuple


def _chain(g: GramTable, n):
    """The non-vanishing chain used by the canonical form: leading Pfaffians."""
    out = []
    for k in range(1, min(n, g.m // 2) + 1):
        idx = tuple(range(1, 2 * k + 1))
        name = "a12" if k == 1 else "b" + "".join(str(i) for i in idx)
        out.append((name, pfaffian(g.subtable(idx))))
    return out


def genericity(config: PointConfig) -> GenericityReport:
    """Check every leading-Pfaffian predicate; report all failures."""
    failed = tuple(f"{name} = 0" for name, v in _chain(gram(config), config.n) if v == 0)
    return GenericityReport(generic=not failed, failed_predicates=failed)


def _genericize(config: PointConfig):
    """Return (config, perm) with a passing chain, relabeling once if needed.

    The single fallback moves the first pair (i, j) with a_ij != 0 to the
    front; anything still failing after that is rejected.
    """
    report = genericity(config)
    if report.generic:
        return config, None
    g = gram(config)
    first = next((p for p in g.pairs() if g.value(*p) != 0), None)
    if first is not None and first != (1, 2):
        i, j = first
        perm = [i, j] + [k for k in range(1, config.m + 1) if k not in (i, j)]
        moved = config.permute(perm)
        if genericity(moved).generic:
            return moved, perm
    raise GenericityError(
        "non-generic configuration: " + ", ".join(report.failed_predicates)
    )


def _unit(dim, grouped_row):
    return tuple(Rat(1) if i == grouped_row else Rat(0) for i in range(dim))


def _grouped_row(pos, n):
    """Interleaved basis slot (1-based) -> grouped coordinate row (0-based)."""
    k = (pos + 1) // 2
    return k - 1 if pos % 2 else n + k - 1


def _canonical_columns(g: GramTable, n):
    dim = 2 * n
    m = g.m
    cols = [_unit(dim, 0), tuple(g.value(1, 2) * x for x in _unit(dim, n))]
    for j in range(3, m + 1):
        if j <= dim:
            k = (j + 1) // 2
            if j % 2:  # j = 2k-1: head unknowns, slot 2k-1 pinned to 1
                unknowns = list(range(1, 2 * k - 1))
                fixed = [(2 * k - 1, Rat(1))]
                eqs = list(range(1, j))
            else:  # j = 2k: head unknowns plus slot 2k, slot 2k-1 pinned to 0
                unknowns = list(range(1, 2 * k - 1)) + [2 * k]
                fixed = []
                eqs = list(range(1, j))
        else:
            unknowns = list(range(1, dim + 1))
            fixed = []
            eqs = list(range(1, dim + 1))

        fixed_vec = [Rat(0)] * dim
        for pos, val in fixed:
            fixed_vec[_grouped_row(pos, n)] = val
        rows, rhs = [], []
        for i in eqs:
            ci = cols[i - 1]
            rows.append([symp(ci, _unit(dim, _grouped_row(p, n))) for p in unknowns])
            rhs.append(g.value(i, j) - symp(ci, fixed_vec))
        try:
            sol = solve_vector(ExactMatrix(rows), rhs)
        except ValueError as exc:
            raise GenericityError(f"canonical-form system singular at column {j}") from exc
        col = list(fixed_vec)
        for p, val in zip(unknowns, sol):
            col[_grouped_row(p, n)] = val
        cols.append(tuple(col))
    return cols


def canonical(config: PointConfig) -> ExactMatrix:
    """Canonical 2n x m matrix of a generic configuration (columns are points).

    The output is determined by gram(config) alone and reproduces it exactly;
    a non-generic input is rejected with the failed predicate named.
    """
    if config.m < 2:
        raise ValueError("canonical form needs at least two points")
    report = genericity(config)
    if not report.generic:
        raise GenericityError(
            "non-generic configuration: " + ", ".join(report.failed_predicates)
        )
    g = gram(config)
    cols = _canonical_columns(g, config.n)
    result = ExactMatrix.from_columns(cols)
    if gram(PointConfig(config.n, tuple(cols))) != g:
        raise RuntimeError("canonical columns fail to reproduce the Gram table")
    return result


def recover_transform(A: PointConfig, B: PointConfig) -> ExactMatrix:
    """Explicit symplectic witness M with M A_i = B_i for all i.

    Requires m >= 2n (otherwise the stabilizer is positive-dimensional and the
    witness is not unique) and equal Gram tables.  The matrix maps the basis
    formed by the first 2n points of A onto that of B; the remaining points
    follow automatically and are verified exactly.
    """
    if (A.n, A.m) != (B.n, B.m):
        raise ValueError("configurations must share (n, m)")
    n, m = A.n, A.m
    if m < 2 * n:
        raise ValueError("underdetermined: fewer than 2n points leave a nontrivial stabilizer")
    for label, cfg in (("first", A), ("second", B)):
        rep = genericity(cfg)
        if not rep.generic:
            raise GenericityError(
                f"{label} configuration non-generic: " + ", ".join(rep.failed_predicates)
            )
    if gram(A) != gram(B):
        raise ValueError("not equivalent: Gram tables differ")
    basis_a = ExactMatrix.from_columns([A.point(i) for i in range(1, 2 * n + 1)])
    basis_b = ExactMatrix.from_columns([B.point(i) for i in range(1, 2 * n + 1)])
    M = basis_b @ inverse(basis_a)
    if not is_symplectic(M, n):
        raise RuntimeError("recovered transform is not symplectic")
    for i in range(1, m + 1):
        if M.apply(A.point(i)) != B.point(i):
            raise RuntimeError(f"recovered transform fails to move point {i}")
    return M


def _group_key(group):
    key = _GROUPS.get(str(group).lower())
    if key is None:
        raise ValueError(f"unknown group {group!r}; expected sp, csp, asp or contact")
    return key


def _sp_values(config):
    g = gram(config)
    return tuple(g.value(i, j) for (i, j) in basic_set(config.m, config.n).pairs)


def _relations(config):
    """The linear relations among the points, flattened: the canonical (RREF)
    nullspace basis of the 2n x m point matrix when m < 2n, else empty.

    By Witt's extension theorem the Gram table together with these relations
    determines the Sp orbit; for m >= 2n a passing chain makes the first 2n
    points a basis, so the Gram table alone does.
    """
    if config.m >= 2 * config.n:
        return ()
    return tuple(x for v in nullspace(ExactMatrix.from_columns(config.points)) for x in v)


def _linear_values(key, config):
    """Signature values of a generic configuration under Sp or CSp: the
    basic-set values (CSp: sign(a12) and the ratios), then the relations."""
    if key == "CSp":
        from .variants import csp_signature

        values = csp_signature(gram(config), config.n).values
    else:
        values = _sp_values(config)
    return values + _relations(config)


def _translated(config):
    if config.m < 2:
        raise ValueError("affine signature needs at least two points")
    origin = config.point(1)
    pts = tuple(
        tuple(c - o for c, o in zip(config.point(i), origin))
        for i in range(2, config.m + 1)
    )
    return PointConfig(config.n, pts)


def signature(config, group) -> Signature:
    """Signature of a configuration: generator values in a fixed order.

    Sp: the basic-set values; CSp: sign(a12) then ratios a_ij/a12; ASp: the
    Sp signature of the configuration translated by -A_1; Contact: the
    absolute contact invariants (configuration must be a ContactConfig).
    For Sp, CSp and ASp with fewer than 2n (translated) points, the flattened
    canonical basis of the linear relations among the points follows.
    If the leading pair degenerates, the points are relabeled once (the first
    nonzero pair moves to the front) before giving up.
    """
    key = _group_key(group)
    if key == "Contact":
        from .variants import ContactConfig, contact_absolute

        if not isinstance(config, ContactConfig):
            raise ValueError("the contact signature takes a ContactConfig")
        return contact_absolute(config)
    if key == "ASp":
        # translation removes the base point, then the linear theory applies
        config = _translated(config)
    cfg, _ = _genericize(config)
    return Signature(key, _linear_values(key, cfg))


def equivalent(A, B, group) -> bool:
    """Exact signature comparison; both configurations must be generic.

    Any fallback relabeling is decided on the first configuration and applied
    to both, so the comparison always tests genuine group equivalence.
    """
    key = _group_key(group)
    if key == "Contact":
        from .variants import contact_equivalent

        return contact_equivalent(A, B)
    if (A.n, A.m) != (B.n, B.m):
        raise ValueError("configurations must share (n, m)")
    if key == "ASp":
        A, B = _translated(A), _translated(B)
    cfg_a, perm = _genericize(A)
    cfg_b = B.permute(perm) if perm else B
    rep = genericity(cfg_b)
    if not rep.generic:
        raise GenericityError(
            "second configuration non-generic: " + ", ".join(rep.failed_predicates)
        )
    return _linear_values(key, cfg_a) == _linear_values(key, cfg_b)
