"""Invariants symmetric under relabeling of the points.

The Reynolds operator averages a polynomial in the pairwise invariants over
all m! index permutations (a transposition of two points flips the sign of
their mutual invariant, so all linear terms die).  Graded dimensions of the
symmetrized algebra are computed as exact ranks of evaluation matrices at
random integer configurations, which automatically accounts for the Pfaffian
relations; a degree-truncated scan of symmetrized monomials then recovers a
generating set without any Groebner machinery.  Every monomial in an S_m
orbit symmetrizes to the same polynomial up to sign, so each orbit gives one
integer row, and ranks are taken by fraction-free integer elimination.
"""

import random
from itertools import combinations_with_replacement, permutations
from math import factorial, gcd, lcm, prod

from .exact import ExactMatrix, Rat, _IntRowSpace, rank, rat
from .field_generators import _symp_gradients, basic_set, dim_d
from .invariants import gram, random_config
from .poly import MultiPoly, _value, avar, evaluate

_MAX_GRADED_DEGREE = 10
_MAX_GRADED_POINTS = 4
_MAX_SEARCH_POINTS = 3
_MAX_SEARCH_DEGREE = 8


def _pairwise_indices(p: MultiPoly):
    top = 0
    for var in p.variables():
        if var[0] != "a":
            raise ValueError("Reynolds operator acts on pairwise variables only")
        top = max(top, var[2])
    return top


def _permute_monomial(mono, images):
    """Relabel a monomial's point indices; returns (new monomial, sign)."""
    exps = {}
    sign = 1
    for (tag, i, j), e in mono:
        ni, nj = images[i], images[j]
        if ni > nj:
            ni, nj = nj, ni
            if e % 2:
                sign = -sign
        key = (tag, ni, nj)
        exps[key] = exps.get(key, 0) + e
    return tuple(sorted(exps.items())), sign


def _relabeling_sum(terms, m):
    """m! times the Reynolds image of {monomial: coefficient}, as a dict that
    keeps cancelled monomials (coefficient 0); int input gives int output."""
    total = {}
    for images in permutations(range(1, m + 1)):
        lookup = dict(zip(range(1, m + 1), images))
        for mono, c in terms.items():
            new, sign = _permute_monomial(mono, lookup)
            total[new] = total.get(new, 0) + sign * c
    return total


def reynolds(p: MultiPoly, m) -> MultiPoly:
    """Average over all m! point relabelings: the projection onto S_m-invariants."""
    if _pairwise_indices(p) > m:
        raise ValueError("polynomial mentions a point index beyond m")
    scale = rat(1, factorial(m))
    return MultiPoly({mono: c * scale for mono, c in _relabeling_sum(p.terms, m).items()})


def poincare_coeffs(maxdeg):
    """Taylor coefficients of (1 + z^4) / ((1 - z^2)^2 (1 - z^3))."""
    num = [1, 0, 0, 0, 1]
    den = [1, 0, -2, -1, 1, 2, 0, -1]  # (1 - z^2)^2 (1 - z^3) expanded
    out = []
    for k in range(maxdeg + 1):
        c = num[k] if k < len(num) else 0
        for j in range(1, min(k, len(den) - 1) + 1):
            c -= den[j] * out[k - j]
        out.append(c)
    return out


def named_generators():
    """The four generating invariants for three points, as displayed."""
    a12, a13, a23 = (MultiPoly.variable(avar(*p)) for p in ((1, 2), (1, 3), (2, 3)))
    return {
        "I2a": a12**2 + a13**2 + a23**2,
        "I2b": a12 * a13 - a12 * a23 + a13 * a23,
        "I3": a12**2 * (a13 + a23) - a23**2 * (a12 + a13) + a13**2 * (a12 - a23),
        "I4": a12**2 * a13**2 + a12**2 * a23**2 + a13**2 * a23**2,
    }


def verify_R8() -> bool:
    """Check the degree-8 syzygy among the m=3 generators as a polynomial identity."""
    g = named_generators()
    i2a, i2b, i3, i4 = g["I2a"], g["I2b"], g["I3"], g["I4"]
    r8 = (
        (4 * i2a**2 + 4 * i2a * i2b + 3 * i2b**2) * i2b**2
        - (8 * i2a**2 + 4 * i2a * i2b + 14 * i2b**2) * i4
        + 4 * (i2a - 2 * i2b) * i3**2
        + 27 * i4**2
    )
    return r8.is_zero()


def _integer_tables(m, n, count, rng):
    """Gram tables {a_ij: int} of random integer configurations."""
    out = []
    for _ in range(count):
        g = gram(random_config(n, m, rng, lo=-20, hi=20))
        out.append({avar(i, j): int(v) for (i, j), v in g.values.items()})
    return out


def _degree_monomials(m, k):
    """All degree-k monomials over the pairwise variables, lex within degree
    (a12 before a13 before ... as in the scan order of the generator search)."""
    pairs = [avar(i, j) for i in range(1, m + 1) for j in range(i + 1, m + 1)]
    monos = []
    for combo in combinations_with_replacement(pairs, k):
        exps = {}
        for v in combo:
            exps[v] = exps.get(v, 0) + 1
        monos.append(tuple(sorted(exps.items())))
    return monos


def _orbit_sums(monos, m):
    """(first monomial, signed orbit sum) per S_m orbit with a nonzero sum, in
    scan order; the other monomials of an orbit symmetrize to +- the same."""
    seen = set()
    out = []
    for mono in monos:
        if mono in seen:
            continue
        total = _relabeling_sum({mono: 1}, m)
        seen.update(total)
        orbit = {x: c for x, c in total.items() if c}
        if orbit:
            out.append((mono, orbit))
    return out


def graded_dim(m, n, k, seed=0):
    """Dimension of the degree-k piece of the symmetrized invariant algebra.

    Exact rank of the matrix of all symmetrized degree-k monomials evaluated
    at 3 * (#monomials + 5) random integer configurations (three independent
    batches, so a false drop in rank would need a measure-zero triple
    coincidence).  Each S_m orbit of monomials gives one integer row, its
    signed orbit sum; the rank is exact, by fraction-free elimination.
    """
    if k > _MAX_GRADED_DEGREE or m > _MAX_GRADED_POINTS:
        raise ValueError(f"cost guard: need k <= {_MAX_GRADED_DEGREE} and m <= {_MAX_GRADED_POINTS}")
    if k == 0:
        return 1
    monos = _degree_monomials(m, k)
    rng = random.Random(seed)
    tables = _integer_tables(m, n, 3 * (len(monos) + 5), rng)
    space = _IntRowSpace()
    for _, orbit in _orbit_sums(monos, m):
        space.insert([_value(orbit, t) for t in tables])
    return space.rank


def _content_normalized(p: MultiPoly) -> MultiPoly:
    """Scale to primitive integer coefficients with positive leading term.

    The leading term is the lex-largest exponent vector over the polynomial's
    variables in their total order (a12 ranks above a13 above a23, etc.).
    """
    if p.is_zero():
        return p
    denom_lcm = lcm(*(c.denominator for c in p.terms.values()))
    num_gcd = gcd(*(c.numerator * denom_lcm // c.denominator for c in p.terms.values()))
    scaled = p * rat(denom_lcm, num_gcd)
    variables = sorted(scaled.variables())

    def expvec(mono):
        d = dict(mono)
        return tuple(d.get(v, 0) for v in variables)

    lead = max(scaled.terms, key=expvec)
    if scaled.terms[lead] < 0:
        scaled = -scaled
    return scaled


def q_sequence(m, n, seed=0):
    """The symmetrized squares q_k = pi(prod_{l<=k} a_l^2) over the basic set.

    Returns the d(m, n) polynomials together with the exact rank of their
    Jacobian with respect to the point coordinates at random generic
    configurations (up to three samples, maximum rank reported).
    """
    if m > 5 or n > 2:
        raise ValueError("cost guard: need m <= 5 and n <= 2")
    d = dim_d(m, n)
    pairs = basic_set(m, n).pairs[:d]
    polys = []
    prod = MultiPoly.constant(1)
    for (i, j) in pairs:
        prod = prod * MultiPoly.variable(avar(i, j)) ** 2
        polys.append(reynolds(prod, m))

    rng = random.Random(seed)
    best = 0
    for _ in range(3):
        cfg = random_config(n, m, rng)
        g = gram(cfg)
        rows = []
        for q in polys:
            partials = {}
            for var in q.variables():
                val = evaluate(q.derivative(var), g)
                partials[(var[1], var[2])] = val
            row = [Rat(0)] * (2 * n * m)
            for (i, j), dq in partials.items():
                if dq == 0:
                    continue
                grads = _symp_gradients(cfg, i, j)
                for point, grad in grads.items():
                    base = (point - 1) * 2 * n
                    for c in range(2 * n):
                        row[base + c] += dq * grad[c]
            rows.append(row)
        best = max(best, rank(ExactMatrix(rows)))
        if best == d:
            break
    return {"polys": polys, "rank": best, "expected": d, "independent": best == d}


def generator_search(m, n, maxdeg, seed=0):
    """Greedy scan for algebra generators among symmetrized monomials.

    Monomials are visited by increasing total degree (lex within degree); a
    symmetrized monomial is kept iff it falls outside the linear span of the
    degree-matched products of previously kept generators, decided by exact
    evaluation rank at 3 * (#monomials + 5) random integer configurations per
    degree.  Only the first monomial of each S_m orbit is tested (the others
    symmetrize to the same image up to sign), as one integer row, with
    fraction-free elimination.  Every scanned degree ends up saturated by
    construction; no claim is made beyond maxdeg.
    """
    if m > _MAX_SEARCH_POINTS or maxdeg > _MAX_SEARCH_DEGREE:
        raise ValueError(f"cost guard: need m <= {_MAX_SEARCH_POINTS} and maxdeg <= {_MAX_SEARCH_DEGREE}")
    rng = random.Random(seed)
    kept = []  # (poly with int coefficients, degree)
    for k in range(1, maxdeg + 1):
        monos = _degree_monomials(m, k)
        tables = _integer_tables(m, n, 3 * (len(monos) + 5), rng)
        values = [[_value(p.terms, t) for t in tables] for p, _ in kept]
        space = _IntRowSpace()
        for size in range(1, k + 1):  # products of kept generators of total degree k
            for product in combinations_with_replacement(range(len(kept)), size):
                if sum(kept[i][1] for i in product) == k:
                    space.insert([prod(col) for col in zip(*(values[i] for i in product))])
        for mono, orbit in _orbit_sums(monos, m):
            if space.insert([_value(orbit, t) for t in tables]):
                p = _content_normalized(reynolds(MultiPoly({mono: 1}), m))
                kept.append((p, k))
    return [p for p, _ in kept]
