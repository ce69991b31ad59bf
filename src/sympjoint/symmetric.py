"""Invariants symmetric under relabeling of the points.

The Reynolds operator averages a polynomial in the pairwise invariants over
all m! index permutations (a transposition of two points flips the sign of
their mutual invariant, so all linear terms die).  Graded dimensions of the
symmetrized algebra are exact coefficients of its Molien series: the
invariant ring is C[a_ij] modulo the (2n+2)-Pfaffians, free for m <= 2n+1
and cut out by one Pfaffian (of character sgn) for m = 2n+2, and S_m acts on
the a_ij by signed permutations, so the series sums products of
1 / (1 - s z^L) over the signed cycles on the pairs.  Those cycles depend
only on the cycle type of the relabeling, so the sum runs over the
partitions of m, weighted by class size: a point-cycle of length c gives
(c-1)//2 cycles (c, +1) and, for even c, one cycle (c/2, -1) of diametric
pairs; two point-cycles of lengths a and b give gcd(a, b) cycles
(lcm(a, b), +1).  A degree-truncated scan of symmetrized monomials then
recovers a generating set without any Groebner machinery, by exact
evaluation ranks at random integer configurations: every monomial in an S_m
orbit symmetrizes to the same polynomial up to sign, so each orbit gives one
integer row, and ranks are taken by fraction-free integer elimination.
"""

import random
from collections import Counter
from itertools import combinations, combinations_with_replacement, permutations
from math import factorial, gcd, lcm, prod

from .exact import Rat, _check_int, _IntRowSpace, rat
from .field_generators import basic_set, dim_d
from .invariants import _gram_of, _random_points
from .poly import MultiPoly, _coef, _value, _wrap, avar

_MAX_GRADED_DEGREE = 10
_MAX_GRADED_POINTS = 6
_MAX_SEARCH_POINTS = 3
_MAX_SEARCH_DEGREE = 8


def _pairwise_indices(p: MultiPoly):
    top = 0
    for var in p.variables():
        if var[0] != "a":
            raise ValueError("Reynolds operator acts on pairwise variables only")
        top = max(top, var[2])
    return top


def _relabelings(m):
    """Yield, per permutation of 1..m, its action on the C(m, 2) pairwise
    variables: {a_ij: (image variable, sign flip)}, as a_ji = -a_ij."""
    labels = range(1, m + 1)
    pairs = list(combinations(labels, 2))
    for images in permutations(labels):
        image = {}
        for i, j in pairs:
            ni, nj = images[i - 1], images[j - 1]
            image[("a", i, j)] = (("a", ni, nj), False) if ni < nj else (("a", nj, ni), True)
        yield image


def _relabeling_sum(terms, relabelings):
    """m! times the Reynolds image of {monomial: coefficient}, summed over the
    m! maps of ``_relabelings(m)``, as a dict that keeps cancelled monomials
    (coefficient 0); int input gives int output.  Distinct variables have
    distinct images, so a monomial is relabeled by lookups and one sort, with
    no exponent merge, and each flipped variable of odd exponent flips its sign."""
    total = {}
    for image in relabelings:
        for mono, c in terms.items():
            new = []
            for v, e in mono:
                w, flip = image[v]
                if flip and e & 1:
                    c = -c
                new.append((w, e))
            new.sort()
            new = tuple(new)
            total[new] = total.get(new, 0) + c
    return total


def reynolds(p: MultiPoly, m) -> MultiPoly:
    """Average over all m! point relabelings: the projection onto S_m-invariants.

    A monomial x = s * sigma(rep) of the S_m orbit of rep has image
    R(x) = s * R(rep), s the sign of x's count in rep's signed orbit sum
    (`_orbit_sums`, which drops an orbit that cancels, where R is 0).  So the
    coefficients are weighed per orbit and each orbit sum is added once:
    m! relabelings per orbit, not per term.
    """
    if _pairwise_indices(p) > m:
        raise ValueError("polynomial mentions a point index beyond m")
    # clear the common denominator first, so the orbit sums are weighed in ints
    den = lcm(*[c.denominator for c in p.terms.values()])
    ints = {mono: (c * den).numerator for mono, c in p.terms.items()}
    scale, total = factorial(m) * den, {}
    for _, orbit in _orbit_sums(ints, m):
        weight = sum([ints[x] if k > 0 else -ints[x] for x, k in orbit.items() if x in ints])
        if weight:
            total.update({x: _coef(Rat(weight * k, scale)) for x, k in orbit.items()})
    return _wrap(total)


def _partitions(m, top=None):
    """The partitions of m, as non-increasing tuples of parts."""
    if m == 0:
        yield ()
        return
    for part in range(min(m, top or m), 0, -1):
        for rest in _partitions(m - part, part):
            yield (part,) + rest


def _molien_coeffs(m, n, maxdeg):
    """Coefficients 0..maxdeg of the Hilbert series of the S_m-invariants of
    C[a_ij] / (2n+2-Pfaffians), m <= 2n+2, by Molien's formula

        H(z) = (1/m!) sum_sigma (1 - [m = 2n+2] sgn(sigma) z^(n+1)) / det(I - z rho(sigma)),

    where rho(sigma) is the signed permutation of the pairs (a_ij goes to
    +-a_{sigma(i) sigma(j)}, the sign flipping when the image pair is out of
    order).  det(I - z rho(sigma)) is the product of (1 - s z^L) over the
    cycles of sigma on the pairs (L the length, s the product of the signs),
    and sgn(sigma) is the product of all those signs.  The cycles depend only
    on the cycle type of sigma, so the sum runs over the partitions of m, each
    counted m! / prod_c (c^k_c k_c!) times (k_c parts of size c):
      - a point-cycle of length c gives (c-1)//2 pair cycles (c, +1);
      - an even point-cycle also gives one cycle (c/2, -1), its diametric pairs;
      - two point-cycles of lengths a and b give gcd(a, b) cycles (lcm(a, b), +1).
    """
    total = [0] * (maxdeg + 1)
    for parts in _partitions(m):
        count = factorial(m) // prod(c**k * factorial(k) for c, k in Counter(parts).items())
        cycles = []
        for c in parts:
            cycles += [(c, 1)] * ((c - 1) // 2) + [(c // 2, -1)] * (c % 2 == 0)
        for a, b in combinations(parts, 2):
            cycles += [(lcm(a, b), 1)] * gcd(a, b)
        series = [count] + [0] * maxdeg
        if m == 2 * n + 2 and n + 1 <= maxdeg:
            series[n + 1] = -count * prod(s for _, s in cycles)
        for length, sign in cycles:  # divide by (1 - sign z^length)
            for k in range(length, maxdeg + 1):
                series[k] += sign * series[k - length]
        total = [t + c for t, c in zip(total, series)]
    return [t // factorial(m) for t in total]


def poincare_coeffs(maxdeg):
    """Taylor coefficients of the three-point series (1 + z^4) / ((1 - z^2)^2 (1 - z^3))."""
    return _molien_coeffs(3, 1, maxdeg)


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
    """Gram tables {a_ij: int} of `count` random integer configurations, the
    int points of `_random_points` in -20..20, each read by `_gram_of` (den 1)."""
    tables = (_gram_of(_random_points(rng, n, m, -20, 20), 1) for _ in range(count))
    return [{avar(*p): v for p, v in g.ints.items()} for g in tables]


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
    relabelings = list(_relabelings(m))  # one list per scan, shared by its orbits
    seen = set()
    out = []
    for mono in monos:
        if mono in seen:
            continue
        total = _relabeling_sum({mono: 1}, relabelings)
        seen.update(total)
        orbit = {x: c for x, c in total.items() if c}
        if orbit:
            out.append((mono, orbit))
    return out


def _check_sizes(m, n, k):
    if _check_int(n) < 1 or m < 1 or k < 0:
        raise ValueError(f"need m >= 1, n >= 1 and a degree >= 0, got m={m}, n={n}, degree {k}")


def graded_dim(m, n, k, seed=0):
    """Dimension of the degree-k piece of the symmetrized invariant algebra.

    The exact coefficient of z^k in the Molien series (`_molien_coeffs`): no
    sampling and no elimination.  `seed` is accepted for compatibility and
    ignored.  Defined for m <= 2n+2; m >= 2n+3 is refused, as its ring is cut
    out by more than one Pfaffian.
    """
    return graded_dims(m, n, k)[k]


def graded_dims(m, n, maxdeg):
    """[graded_dim(m, n, k) for k in 0..maxdeg], read off one Molien series.

    One series costs what one `graded_dim` call does, so a table of degrees
    should come from here rather than from a call per degree.
    """
    _check_sizes(m, n, maxdeg)
    if maxdeg > _MAX_GRADED_DEGREE or m > min(_MAX_GRADED_POINTS, 2 * n + 2):
        raise ValueError(
            f"cost guard: need k <= {_MAX_GRADED_DEGREE}, m <= {_MAX_GRADED_POINTS} and m <= 2n+2"
        )
    return _molien_coeffs(m, n, maxdeg)


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


def _chain_rows(grads, pts, n):
    """The Jacobian rows over the 2nm coordinates of the int points pts, one per
    polynomial in the a_ij, given by its (pair, partial's terms) list in grads.
    With Q the skew matrix of the partials at the table and A_j = (x_j, y_j),
    da_ij/dA_i = (y_j, -x_j), so by the chain rule a row's block on point k is
    (sum_j Q_kj y_j, -sum_j Q_kj x_j): no pair row is built."""
    m, cols = len(pts), list(zip(*pts))
    values = {avar(*p): x for p, x in _gram_of(pts, 1).ints.items()}
    rows = []
    for grad in grads:
        Q = [[0] * m for _ in range(m)]
        for (i, j), dq in grad:
            Q[i - 1][j - 1] = x = _value(dq, values)
            Q[j - 1][i - 1] = -x
        row = []
        for Qk in Q:
            s = [sum([q * c for q, c in zip(Qk, col)]) for col in cols]  # sum_j Q_kj A_j
            row += s[n:] + [-c for c in s[:n]]
        rows.append(row)
    return rows


def q_sequence(m, n, seed=0):
    """The symmetrized squares q_k = pi(prod_{l<=k} a_l^2) over the basic set.

    Returns the d(m, n) polynomials together with the exact rank of their
    Jacobian with respect to the point coordinates at random generic
    configurations (up to three samples, maximum rank reported).  Each q is
    homogeneous, so its row is taken in ints: its coefficients' common
    denominator cleared (a nonzero scale of the row only), its partials
    summed by `_value` on the integer table of the int points of
    `_random_points`, and the chain rule applied by `_chain_rows`.
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

    grads = []  # per q, its (pair, partial with int coefficients) list
    for q in polys:
        den = lcm(*[c.denominator for c in q.terms.values()])
        ints = _wrap({mono: (c * den).numerator for mono, c in q.terms.items()})
        grads.append([(var[1:], ints.derivative(var).terms) for var in ints.variables()])
    rng = random.Random(seed)
    best = 0
    for _ in range(3):
        best = max(best, _IntRowSpace(_chain_rows(grads, _random_points(rng, n, m), n)).rank)
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
    construction; no claim is made beyond maxdeg.  The configurations lie in
    R^{2n'}, n' = min(n, max(1, m // 2)): the a_ij of m <= 2n'+1 points are
    algebraically independent, so each such n' samples the same algebra.
    """
    _check_sizes(m, n, maxdeg)
    if m > _MAX_SEARCH_POINTS or maxdeg > _MAX_SEARCH_DEGREE:
        raise ValueError(f"cost guard: need m <= {_MAX_SEARCH_POINTS} and maxdeg <= {_MAX_SEARCH_DEGREE}")
    rng, n = random.Random(seed), min(n, max(1, m // 2))
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
        for _, orbit in _orbit_sums(monos, m):
            if space.insert([_value(orbit, t) for t in tables]):
                kept.append((_content_normalized(MultiPoly(orbit)), k))
    return [p for p, _ in kept]
