"""Point configurations and their pairwise symplectic invariants.

A configuration is an ordered m-tuple of points in R^{2n}; the fundamental
invariant of a pair is a_ij = omega(OA_i, OA_j), twice the symplectic area of
the triangle through the origin.  All point indices are 1-based, matching the
usual a_12, b_1234 notation; the skew extension a_ji = -a_ij is computed on
access.
"""

import json
import random
from dataclasses import dataclass
from itertools import combinations

from .exact import Rat, SkewMatrix, det, ExactMatrix, rat, rat_str, symp


class GenericityError(ValueError):
    """A configuration fails a non-vanishing predicate required by an operation."""


@dataclass(frozen=True)
class PointConfig:
    """Ordered tuple of m points in R^{2n}, coordinates (x^1..x^n, y^1..y^n)."""

    n: int
    points: tuple

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be >= 1")
        if len(self.points) < 1:
            raise ValueError("need at least one point")
        pts = tuple(tuple(rat(c) for c in p) for p in self.points)
        for p in pts:
            if len(p) != 2 * self.n:
                raise ValueError(f"point of length {len(p)}, expected {2 * self.n}")
        object.__setattr__(self, "points", pts)

    @property
    def m(self):
        return len(self.points)

    def point(self, i):
        """1-based point access."""
        return self.points[i - 1]

    def transform(self, M: ExactMatrix):
        return PointConfig(self.n, tuple(M.apply(p) for p in self.points))

    def translate(self, t):
        return PointConfig(
            self.n, tuple(tuple(c + dt for c, dt in zip(p, t)) for p in self.points)
        )

    def scale(self, factor):
        f = rat(factor)
        return PointConfig(self.n, tuple(tuple(f * c for c in p) for p in self.points))

    def permute(self, perm):
        """Relabel points: new point i is old point perm[i-1] (1-based images)."""
        if sorted(perm) != list(range(1, self.m + 1)):
            raise ValueError("not a permutation of 1..m")
        return PointConfig(self.n, tuple(self.points[k - 1] for k in perm))


class GramTable:
    """The skew table a_ij = omega(OA_i, OA_j), stored for i < j (1-based)."""

    __slots__ = ("m", "values")

    def __init__(self, m, values):
        self.m = m
        self.values = {}
        for (i, j), v in values.items():
            if not (1 <= i < j <= m):
                raise ValueError(f"bad pair {(i, j)} for m={m}")
            self.values[(i, j)] = rat(v)

    def value(self, i, j):
        if i == j:
            return Rat(0)
        if i < j:
            return self.values[(i, j)]
        return -self.values[(j, i)]

    def pairs(self):
        return [(i, j) for i in range(1, self.m + 1) for j in range(i + 1, self.m + 1)]

    def subtable(self, idx):
        """SkewMatrix on the 1-based point indices idx, in the given order."""
        k = len(idx)
        return SkewMatrix(
            k, {(p, q): self.value(idx[p], idx[q]) for p in range(k) for q in range(p + 1, k)}
        )

    def __eq__(self, other):
        if not isinstance(other, GramTable):
            return NotImplemented
        return self.m == other.m and all(
            self.value(i, j) == other.value(i, j) for (i, j) in self.pairs()
        )

    def __repr__(self):
        inner = ", ".join(f"a{i}{j}={rat_str(v)}" for (i, j), v in sorted(self.values.items()))
        return f"GramTable(m={self.m}, {inner})"


def gram(config: PointConfig) -> GramTable:
    """All pairwise invariants a_ij = symp(A_i, A_j) of a configuration."""
    vals = {}
    for i in range(1, config.m + 1):
        for j in range(i + 1, config.m + 1):
            vals[(i, j)] = symp(config.point(i), config.point(j))
    return GramTable(config.m, vals)


def _check_tuple(idx, m, length):
    idx = tuple(idx)
    if len(idx) != length:
        raise ValueError(f"index tuple of length {len(idx)}, expected {length}")
    if list(idx) != sorted(set(idx)):
        raise ValueError(f"indices must be strictly ascending, got {idx}")
    if idx[0] < 1 or idx[-1] > m:
        raise ValueError(f"indices out of range 1..{m}: {idx}")
    return idx


def syzygy_value(g: GramTable, idx, n=None):
    """Pfaffian b_{i_1...i_{2n+2}} of the sub-table on the given ascending indices.

    Vanishes identically when the table comes from points in R^{2n} and the
    tuple has length 2n+2 (or more): 2n+2 vectors in R^{2n} are dependent.
    """
    idx = tuple(idx)
    if len(idx) % 2 or len(idx) < 4:
        raise ValueError(f"index tuple length must be even and >= 4, got {len(idx)}")
    if n is not None and len(idx) != 2 * n + 2:
        raise ValueError(f"tuple length {len(idx)} != 2n+2 = {2 * n + 2}")
    idx = _check_tuple(idx, g.m, len(idx))
    from .exact import pfaffian

    return pfaffian(g.subtable(idx))


def all_min_syzygies(config: PointConfig):
    """Evaluate b over every ascending (2n+2)-tuple; empty when m < 2n+2."""
    size = 2 * config.n + 2
    if config.m < size:
        return []
    g = gram(config)
    return [(idx, syzygy_value(g, idx)) for idx in combinations(range(1, config.m + 1), size)]


def q_value(g: GramTable, idx, n):
    """det(a_{i_s, i_{t+2n+1}})_{s,t=1..2n+1} on an ascending (4n+2)-tuple.

    Another syzygy family: vanishes on every table coming from actual points.
    """
    idx = _check_tuple(idx, g.m, 4 * n + 2)
    k = 2 * n + 1
    M = ExactMatrix([[g.value(idx[s], idx[t + k]) for t in range(k)] for s in range(k)])
    return det(M)


def random_config(n, m, rng=None, lo=-9, hi=9, seed=None):
    """Random integer-coordinate configuration (test/sampling plumbing)."""
    if rng is None:
        rng = random.Random(seed)
    pts = tuple(tuple(Rat(rng.randint(lo, hi)) for _ in range(2 * n)) for _ in range(m))
    return PointConfig(n, pts)


def config_to_dict(config: PointConfig):
    return {"n": config.n, "points": [[rat_str(c) for c in p] for p in config.points]}


def _half_dimension(obj):
    """The "n" of a configuration object, which must be a JSON integer."""
    n = obj["n"]
    if isinstance(n, bool) or not isinstance(n, int):
        raise ValueError(f"'n' must be an integer, got {n!r}")
    return n


def config_from_dict(obj):
    """Parse the configuration JSON object {"n": ..., "points": [[...], ...]}.

    Coordinates may be integers, decimal strings, or "p/q" strings.
    """
    if not isinstance(obj, dict) or "n" not in obj or "points" not in obj:
        raise ValueError("configuration must be an object with 'n' and 'points'")
    return PointConfig(_half_dimension(obj), tuple(tuple(rat(c) for c in p) for p in obj["points"]))


def load_config(path):
    with open(path) as fh:
        return config_from_dict(json.load(fh))
