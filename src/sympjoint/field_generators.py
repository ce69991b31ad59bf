"""Generating set of the rational-invariant field and its dimension counts.

The field of joint invariants is generated by the restricted set of pairwise
invariants abar = {a_ij : i <= 2n, i < j <= m}; the remaining entries are
forced by the minimal Pfaffian syzygies.  The transcendence degree is

    d(m, n) = 2nm - n(2n+1)   for m >= 2n,
              C(m, 2)          for m <= 2n,

and this module confirms it by the exact Jacobian rank of the invariant map,
C(r, 2) + r(m - r) with r the rank of the points (`jacobian_rank`), and by
exact stabilizer dimensions.  The stabilizer of k points in sp(2n) has
dimension C(2n - r + 1, 2): its elements are J H with H a symmetric form
vanishing on their span.  The contact count bbar(m, n) (`dim_bbar`) sits
beside d(m, n), so that the `dims` tables load no `variants`.
"""

import random
from itertools import combinations
from math import comb

from .exact import ExactMatrix, Rat, _check_int, _check_n, _check_tuple, _IntRowSpace, _pair_name, _Record, rank
from .invariants import GenericityError, GramTable, PointConfig, _leading, _random_points, _skew_rows


def dim_d(m, n):
    """Transcendence degree of the invariant field on m points in R^{2n}."""
    if _check_int(n, "n") < 1 or _check_int(m, "m") < 1:
        raise ValueError("need m >= 1 and n >= 1")
    if m >= 2 * n:
        return 2 * n * m - n * (2 * n + 1)
    return comb(m, 2)


def dim_bbar(m, n):
    """Transcendence degree of the contact invariant field."""
    if _check_int(n, "n") < 1 or _check_int(m, "m") < 1:
        raise ValueError("need m >= 1 and n >= 1")
    if m >= 2 * n:
        return (2 * n + 1) * m - n * (2 * n + 1) - 1
    return comb(m, 2) + m - 1


class BasicSet(_Record):
    """Ordered generating pairs (i, j) with i <= 2n, i < j <= m.

    Fields: m, n (ints) and pairs (a tuple of (i, j) tuples).
    """

    __slots__ = ("m", "n", "pairs")


def basic_set(m, n):
    pairs = tuple([(i, j) for i in range(1, min(2 * n, m) + 1) for j in range(i + 1, m + 1)])
    return BasicSet(m, n, pairs)


def eliminate_entry(known, k, l, n):
    """Value of a_kl forced by the syzygy b_{1,...,2n,k,l} = 0.

    `known` supplies the other entries on indices (1..2n, k, l), as a GramTable
    or a mapping {(i, j): value} with i < j, values in any form `rat` reads;
    a missing entry raises ValueError naming it.
    The Pfaffian is linear in the single unknown entry; as (k, l) are its last
    two labels, the coefficient is b_{1..2n}, which must not vanish.  Both are
    the last two leading Pfaffians of the ints (a_kl = 0) over labels
    (1..2n, k, l), read off one condensation (`_leading`) in time polynomial in n.
    """
    _check_n(n)
    if not (2 * n < k < l):
        raise ValueError(f"expected 2n < k < l, got k={k}, l={l} for n={n}")
    labels = tuple(range(1, 2 * n + 1)) + (k, l)
    if not isinstance(known, GramTable):
        known = GramTable(l, {p: known[p] for p in combinations(labels, 2) if p != (k, l) and p in known})
    labels, ints = _check_tuple(labels, 2 * n + 2, known.m), {**known.ints, (k, l): 0}
    try:
        P = _skew_rows(ints, labels)
    except KeyError as exc:
        raise ValueError(f"known lacks {_pair_name(*exc.args[0])}") from None
    *_, b, c = _leading(P)
    if not b:
        raise GenericityError(f"denominator Pfaffian b_1..{2 * n} vanishes")
    return Rat(-c, b * known.den)


def stabilizer_dim(points, n):
    """Exact dimension of {S in sp(2n) : S A_i = 0 for all given points}.

    sp(2n) is parametrized as S = J H with H symmetric, so the conditions are
    H A_i = 0: H is a symmetric form on V / span(A_i), of dimension C(2n - r + 1, 2)
    with r the rank of the points.
    """
    _check_n(n)
    for A in points:
        if len(A) != 2 * n:
            raise ValueError(f"point of length {len(A)}, expected {2 * n}")
    return comb(2 * n - rank(ExactMatrix(points)) + 1, 2)


def jacobian_rank(config: PointConfig):
    """Exact rank of the Jacobian of config -> (a_ij)_{i<j} at the configuration.

    It is C(r, 2) + r(m - r), r the rank of the points, so no pair row is
    built.  Write A for the 2n x m point matrix and N = A^T J dA; then
    d a_ij = N_ij - N_ji.  As dA ranges over all matrices, each column of N
    ranges over U, the row space of A (dim r), so the differential's image is
    spanned by the skew parts u ^ x (u in U, x in R^m): that is
    wedge^2 U + U ^ U', U' a complement of U, of dimension C(r, 2) + r(m - r).
    For spanning points this is 2nm - n(2n+1), and for m <= 2n independent
    points C(m, 2).
    """
    r = _IntRowSpace(config._ints[0]).rank
    return comb(r, 2) + r * (config.m - r)


def generic_jacobian_rank(m, n, seed=0, samples=3):
    """Jacobian rank at random small-integer configurations (max over samples).

    A single generic sample already decides the rank; repeated sampling guards
    against an unlucky measure-zero draw.  Each sample is the int points of
    `_random_points`, whose rank r gives C(r, 2) + r(m - r) as in
    `jacobian_rank`; that count grows with r, so the largest r decides.
    """
    if _check_int(n, "n") < 1 or _check_int(m, "m") < 1:
        raise ValueError("need m >= 1 and n >= 1")
    if _check_int(samples, "samples") < 1:
        raise ValueError("need samples >= 1")
    rng = random.Random(seed)
    r = max([_IntRowSpace(_random_points(rng, n, m)).rank for _ in range(samples)])
    return comb(r, 2) + r * (m - r)
