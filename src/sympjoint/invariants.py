"""Point configurations and their pairwise symplectic invariants.

A configuration is an ordered m-tuple of points in R^{2n}; the fundamental
invariant of a pair is a_ij = omega(OA_i, OA_j), twice the symplectic area of
the triangle through the origin.  All point indices are 1-based, matching the
usual a_12, b_1234 notation; the skew extension a_ji = -a_ij is computed on
access.  The contact records `ContactPoint` and `ContactConfig` live here
beside `PointConfig`, so that `normal_form` decides every group without
importing `variants`.

Gram tables and their Pfaffians are computed in Python ints; a `Rat` is built
only for a returned value.  A `PointConfig` carries one integer form, A_i =
u_i / d, built with the record, and `_gram_of` builds a table's, a_ij =
ints[i, j] / den with ints[i, j] = symp(u_i, u_j) and den = d^2, for every
row or, on the decision path, the rows i <= 2n only; their `Rat` values are
built on first read.  A `ContactConfig` carries one too: its
plane parts, whose `_gram_of` is the contact table R_ij, and its references
R_i = x_i.y_i - 2 u_i, all over one d^2.  Each record keeps its form in the
slot `_ints`.  Two integer forms, tables or signature rows, compare by one
rule, `_same_values` (x e == y d entry by entry).  The leading Pfaffians of a
label tuple are read off one Pfaffian condensation of its skew int rows
(`_skew_rows`, which raises KeyError on the first missing pair), `_leading`,
which swaps in a later label past a vanishing pivot, in time polynomial in
the tuple length: the chain and its failed predicates, the syzygy value of
one tuple, `eliminate_entry` and the canonical form of `normal_form`, which
reads its frame off the condensed rows, all take it.  The whole family of syzygies is decided by one rank
instead (`_check_vanishing`): by Cayley, Pf(a | I)^2 = det(a | I), so every
Pfaffian on 2n+2 labels vanishes exactly when the table has rank <= 2n, and
every q, a (2n+1)-minor, vanishes then too; `all_min_syzygies` and
`syzygy-check` take that rank, one fraction-free elimination of the ints,
and expand no Pfaffian.
"""

import json
import random
from itertools import combinations
from types import MappingProxyType

from .exact import ExactMatrix, Rat, SkewMatrix, _check_n, _check_tuple, _integer_row, _IntRowSpace, _pair_name, _Record, det, rat, rat_str, symp


class GenericityError(ValueError):
    """A configuration fails a non-vanishing predicate required by an operation."""


class PointConfig(_Record):
    """Ordered tuple of m points in R^{2n}, coordinates (x^1..x^n, y^1..y^n).

    Fields: n (int) and points (a tuple of m tuples of 2n `Rat`).  The slot
    `_ints`, built with the record and read-only, is its integer form
    (u_1, ..., u_m as int lists, d), A_i = u_i / d.
    """

    __slots__ = ("n", "points", "_ints")

    def __post_init__(self):
        _check_n(self.n)
        if len(self.points) < 1:
            raise ValueError("need at least one point")
        pts = _parse_points(self.points, lambda p: tuple([rat(c) for c in p]))
        for p in pts:
            if len(p) != 2 * self.n:
                raise ValueError(f"point of length {len(p)}, expected {2 * self.n}")
        object.__setattr__(self, "points", pts)
        flat, d = _integer_row([x for p in pts for x in p])
        object.__setattr__(self, "_ints", ([flat[k : k + 2 * self.n] for k in range(0, len(flat), 2 * self.n)], d))

    @property
    def m(self):
        return len(self.points)

    def point(self, i):
        """1-based point access."""
        return self.points[i - 1]

    def transform(self, M: ExactMatrix):
        return PointConfig(self.n, tuple([M.apply(p) for p in self.points]))

    def translate(self, t):
        return PointConfig(
            self.n, tuple([tuple([c + dt for c, dt in zip(p, t)]) for p in self.points])
        )

    def scale(self, factor):
        f = rat(factor)
        return PointConfig(self.n, tuple([tuple([f * c for c in p]) for p in self.points]))

    def permute(self, perm):
        """Relabel points: new point i is old point perm[i-1] (1-based images)."""
        if sorted(perm) != list(range(1, self.m + 1)):
            raise ValueError("not a permutation of 1..m")
        return PointConfig(self.n, tuple([self.points[k - 1] for k in perm]))


def _parse_points(points, parse):
    """(parse(p) for each point) as a tuple; a coordinate that does not parse
    is reported with the 1-based index of its point."""
    out = []
    for i, p in enumerate(points, 1):
        try:
            out.append(parse(p))
        except (ValueError, TypeError) as exc:
            raise type(exc)(f"point {i}: {exc}") from None
    return tuple(out)


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

    Fields: n (int) and points (a tuple of `ContactPoint`).  The slot
    `_ints`, built with the record and read-only, is its integer form
    (planes, refs, d): d is the common denominator of every coordinate, u
    included; planes[i] = d (x_i, y_i) as an int list, and refs[i] = x'.y' -
    2 u' d for x' = d x_i, y' = d y_i, u' = d u_i, so that R_i = refs[i] / d^2
    and R_ij = symp(planes[i], planes[j]) / d^2.
    """

    __slots__ = ("n", "points", "_ints")

    def __post_init__(self):
        _check_n(self.n)
        pts = _parse_points(self.points, lambda p: p if isinstance(p, ContactPoint) else ContactPoint(*p))
        if not pts:
            raise ValueError("need at least one point")
        for p in pts:
            if len(p.x) != self.n:
                raise ValueError(f"point with {len(p.x)} x-coordinates, expected {self.n}")
        object.__setattr__(self, "points", pts)
        n, k = self.n, 2 * self.n + 1
        flat, d = _integer_row([c for p in pts for c in p.x + p.y + (p.u,)])
        planes = [flat[i : i + 2 * n] for i in range(0, len(flat), k)]
        refs = [sum([a * b for a, b in zip(u[:n], u[n:])]) - 2 * w * d for u, w in zip(planes, flat[2 * n :: k])]
        object.__setattr__(self, "_ints", (planes, refs, d))

    @property
    def m(self):
        return len(self.points)

    def point(self, k):
        return self.points[k - 1]

    def rotate(self):
        """Cyclic relabeling (A_2, ..., A_m, A_1), the contact fallback when R_m = 0."""
        return ContactConfig(self.n, self.points[1:] + self.points[:1])


class GramTable:
    """The skew table a_ij = omega(OA_i, OA_j), stored for i < j (1-based).

    `ints` maps each pair (i, j) to an int and `den` is their common
    denominator, a_ij = ints[i, j] / den: the integer form, built with the
    table, that the table Pfaffians and the decisions read.  `values` is a
    read-only view mapping each pair to the `Rat` a_ij, built on its first
    read.
    """

    __slots__ = ("m", "ints", "den", "_values")

    def __init__(self, m, values):
        for i, j in values:
            if not (1 <= i < j <= m):
                raise ValueError(f"bad pair {(i, j)} for m={m}")
        row = [rat(v) for v in values.values()]
        ints, self.den = _integer_row(row)
        self.m, self.ints, self._values = m, dict(zip(values, ints)), MappingProxyType(dict(zip(values, row)))

    @classmethod
    def _exact(cls, m, ints, den):
        """The table on an integer form keyed by valid pairs, unchecked."""
        g = cls.__new__(cls)
        g.m, g.ints, g.den, g._values = m, ints, den, None
        return g

    @property
    def values(self):
        if self._values is None:
            den = self.den
            self._values = MappingProxyType({p: Rat(x, den) for p, x in self.ints.items()})
        return self._values

    def value(self, i, j):
        """a_ij, with a_ii = 0 and a_ji = -a_ij; a pair absent from the table
        raises ValueError naming it."""
        if i == j:
            return Rat(0)
        try:
            return self.values[(i, j)] if i < j else -self.values[(j, i)]
        except KeyError:
            raise _no_value((min(i, j), max(i, j))) from None

    def pairs(self):
        return [(i, j) for i in range(1, self.m + 1) for j in range(i + 1, self.m + 1)]

    def subtable(self, idx):
        """SkewMatrix on the 1-based point indices idx, in the given order."""
        k = len(idx)
        return SkewMatrix(
            k, {(p, q): self.value(idx[p], idx[q]) for p in range(k) for q in range(p + 1, k)}
        )

    def __eq__(self, other):
        """Equal values, read off the integer forms by `_same_values`."""
        if not isinstance(other, GramTable):
            return NotImplemented
        if self.m != other.m or self.ints.keys() != other.ints.keys():
            return False
        theirs = other.ints
        return _same_values(list(self.ints.values()), self.den, [theirs[p] for p in self.ints], other.den)

    def __repr__(self):
        inner = ", ".join(f"{_pair_name(i, j)}={rat_str(v)}" for (i, j), v in sorted(self.values.items()))
        return f"GramTable(m={self.m}, {inner})"


def _no_value(pair):
    """The ValueError for a pair (i, j), i < j, that a table lacks, naming a_ij."""
    return ValueError(f"{_pair_name(*pair)} has no value in the table")


def _same_values(xs, d, ys, e):
    """Whether x / d == y / e entry by entry, for int lists xs, ys over nonzero
    ints d, e of any sign: equal lengths, then x e == y d (list equality when
    d == e).  The one comparison of integer forms, for Gram tables and
    signature rows alike."""
    if len(xs) != len(ys):
        return False
    return xs == ys if d == e else all([x * e == y * d for x, y in zip(xs, ys)])


def _gram_of(pts, d, top=None):
    """The Gram table of the points A_i = u_i / d, given as the int lists u_i:
    ints[i, j] = symp(u_i, u_j) over den = d^2 (d = 1 for integral points),
    for the rows i <= top (every row when top is None), in (i, j) order.
    With top = 2n it holds the basic set and the chain's labels, in
    `basic_set` order, and no pair past them."""
    ints = {(i, j): symp(u, v) for i, u in enumerate(pts[:top], 1) for j, v in enumerate(pts[i:], i + 1)}
    return GramTable._exact(len(pts), ints, d * d)


def gram(config: PointConfig) -> GramTable:
    """All pairwise invariants a_ij = symp(A_i, A_j) of a configuration."""
    return _gram_of(*config._ints)


def _condense(P, e, f, prev):
    """One step of Pfaffian condensation (Knuth, Overlapping Pfaffians, 1996),
    in place on the 1-based skew int rows P: P(i, j) = Pf(ints | 1..e-1, i, j)
    becomes Pf(ints | 1..f, i, j) for f < i < j, every column j of a row i;
    prev = Pf(ints | 1..e-1), 1 for e = 1, divides exactly.  Row i is updated
    from itself and rows e and f alone, so the first rows of a table, against
    all its columns, condense as they would in the whole table."""
    pivot, Pe, Pf = P[e][f], P[e], P[f]
    for i in range(f + 1, len(P)):
        Pi = P[i]
        for j in range(i + 1, len(Pi)):
            Pi[j] = (pivot * Pi[j] - Pe[i] * Pf[j] + Pe[j] * Pf[i]) // prev
        for j in range(i + 1, len(P)):
            P[j][i] = -Pi[j]


def _skew_rows(ints, labels, top=None):
    """The skew int table P(a, b) = ints[labels[a], labels[b]] on 1-based
    positions a, b of the ascending labels (row and column 0 unused), its
    rows those of the first top labels (every label when top is None)."""
    rows = [[0] + [ints[i, j] if i < j else -ints[j, i] if j < i else 0 for j in labels] for i in labels[:top]]
    return [[0] * (len(labels) + 1)] + rows


def _leading(P):
    """The leading Pfaffians Pf(P | 1..2k), k = 1..top / 2, of the 1-based skew
    int rows P of `_skew_rows` with top rows, condensing P in place; columns
    past top, if any, are condensed along.

    Pf on positions 1..2k is P(2k-1, 2k) once `_condense` has taken pairs
    1..2k-2, and no later `_condense` writes rows 2k-1, 2k.  A vanishing pivot
    P(e, e+1) swaps in the first later position f <= top with P(e, f) != 0,
    which flips the sign of the position sets holding both and zeroes the
    sets holding e but not f (row e vanishes there); a row e with no such f
    zeroes every longer leading Pfaffian, as none reaches past top.
    O(top^2 * columns) multiplications where the expansion grows like 4^top.
    """
    top = len(P) - 1
    pfs, prev, sign, reach = [], 1, 1, 0  # reach: the furthest position swapped in
    for e in range(1, top, 2):
        pfs.append(sign * P[e][e + 1] if e + 1 >= reach else 0)
        if e + 1 == top:
            break
        f = next((j for j in range(e + 1, top + 1) if P[e][j]), None)
        if f is None:
            pfs += [0] * ((top - e - 1) // 2)
            break
        if f > e + 1:
            sign, reach = -sign, max(reach, f)
            P[e + 1], P[f] = P[f], P[e + 1]
            for row in P:
                row[e + 1], row[f] = row[f], row[e + 1]
        _condense(P, e, e + 1, prev)
        prev = P[e][e + 1]
    return pfs


def _failed(g: GramTable, n):
    """The failed leading-Pfaffian predicates of a Gram table, e.g. ("a12 = 0",):
    the zero entries of the chain b_{1..2k}, k <= min(n, m/2), read off
    `_leading` in ints."""
    pfs = _leading(_skew_rows(g.ints, range(1, 2 * min(n, g.m // 2) + 1)))
    names = ["a12" if k == 1 else "b" + "".join([str(i) for i in range(1, 2 * k + 1)]) for k, v in enumerate(pfs, 1) if not v]
    return tuple([f"{name} = 0" for name in names])


def _rank(g: GramTable):
    """The rank of the skew table a_ij: one fraction-free elimination of its int rows."""
    return _IntRowSpace(_skew_rows(g.ints, range(1, g.m + 1))[1:]).rank


def _check_vanishing(g: GramTable, n):
    """Check that every (2n+2)-Pfaffian and every q of the table vanish: rank <= 2n.

    A table of points in R^{2n} is U J U^T, of rank at most 2n, so a larger
    rank is a bug, raised as RuntimeError naming the rank.
    """
    r = _rank(g)
    if r > 2 * n:
        raise RuntimeError(f"Gram table of rank {r} > 2n = {2 * n}: its syzygies do not vanish")


def syzygy_value(g: GramTable, idx, n=None):
    """Pfaffian b_{i_1...i_{2n+2}} of the sub-table on the given ascending indices,
    the last leading Pfaffian of one condensation (`_leading`): its cost is
    polynomial in the tuple length.

    Vanishes identically when the table comes from points in R^{2n} and the
    tuple has length 2n+2 (or more): 2n+2 vectors in R^{2n} are dependent.
    """
    idx = tuple(idx)
    if len(idx) % 2 or len(idx) < 4:
        raise ValueError(f"index tuple length must be even and >= 4, got {len(idx)}")
    idx = _check_tuple(idx, len(idx) if n is None else 2 * _check_n(n) + 2, g.m)
    try:
        P = _skew_rows(g.ints, idx)
    except KeyError as exc:
        raise _no_value(exc.args[0]) from None
    return Rat(_leading(P)[-1], g.den ** (len(idx) // 2))


def all_min_syzygies(config: PointConfig):
    """Evaluate b over every ascending (2n+2)-tuple; empty when m < 2n+2.

    Every value is zero: the Gram table of points in R^{2n} has rank <= 2n,
    and a Pfaffian on 2n+2 labels squares to a principal minor of that size
    (Cayley), so one rank (`_check_vanishing`) decides them all and no
    Pfaffian is expanded.
    """
    size = 2 * config.n + 2
    if config.m < size:
        return []
    _check_vanishing(gram(config), config.n)
    zero = Rat(0)
    return [(idx, zero) for idx in combinations(range(1, config.m + 1), size)]


def q_value(g: GramTable, idx, n):
    """det(a_{i_s, i_{t+2n+1}})_{s,t=1..2n+1} on an ascending (4n+2)-tuple.

    Another syzygy family: vanishes on every table coming from actual points.
    Each entry has s < t + 2n + 1, so the determinant is taken on the ints.
    """
    n = _check_n(n)
    idx = _check_tuple(idx, 4 * n + 2, g.m)
    k, ints = 2 * n + 1, g.ints
    try:
        M = ExactMatrix([[ints[idx[s], idx[t + k]] for t in range(k)] for s in range(k)])
    except KeyError as exc:
        raise _no_value(exc.args[0]) from None
    return det(M) / g.den**k


def _random_points(rng, n, m, lo=-9, hi=9):
    """m random points of R^{2n} as int lists, one rng.randint(lo, hi) per
    coordinate, point by point: the one sampler of every randomized rank, which
    reads its table through `_gram_of(pts, 1)` with no `PointConfig` or `Rat`."""
    return [[rng.randint(lo, hi) for _ in range(2 * n)] for _ in range(m)]


def random_config(n, m, rng=None, lo=-9, hi=9, seed=None):
    """Random integer-coordinate configuration: `_random_points` as a `PointConfig`."""
    if rng is None:
        rng = random.Random(seed)
    return PointConfig(n, tuple(_random_points(rng, n, m, lo, hi)))


def config_to_dict(config: PointConfig):
    return {"n": config.n, "points": [[rat_str(c) for c in p] for p in config.points]}


def _point_list(obj, fits, expected):
    """obj["points"], checked to be a JSON list whose entries all satisfy
    `fits`; an entry that does not is named by its 1-based index."""
    points = obj["points"]
    if not isinstance(points, list):
        raise ValueError(f"'points' must be a list, got {points!r}")
    for i, p in enumerate(points, 1):
        if not fits(p):
            raise ValueError(f"point {i} must be {expected}, got {p!r}")
    return points


def config_from_dict(obj):
    """Parse the configuration JSON object {"n": ..., "points": [[...], ...]}.

    Coordinates may be integers, decimal strings, or "p/q" strings.
    """
    if not isinstance(obj, dict) or "n" not in obj or "points" not in obj:
        raise ValueError("configuration must be an object with 'n' and 'points'")
    n = _check_n(obj["n"])
    points = _point_list(
        obj, lambda p: isinstance(p, list) and len(p) == 2 * n, f"a list of 2n = {2 * n} coordinates"
    )
    return PointConfig(n, tuple(points))


def load_config(path):
    with open(path) as fh:
        return config_from_dict(json.load(fh))
