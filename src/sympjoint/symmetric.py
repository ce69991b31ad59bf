"""Invariants symmetric under relabeling of the points.

The Reynolds operator averages a polynomial in the pairwise invariants over
all m! index permutations (a transposition of two points flips the sign of
their mutual invariant, so all linear terms die).  It never lists them: the
S_m orbit of a monomial is walked, with signs, under the m - 1 adjacent
transpositions, and each member is the image of m! / |orbit| relabelings,
so an orbit costs |orbit| * (m - 1) relabelings.  Graded dimensions of the
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
integer row, and ranks are taken by fraction-free integer elimination.  The
series bounds each degree: a sampled rank never exceeds the dimension H_k,
so a degree's scan stops once its rank reaches H_k, and a rank short of
H_k is raised, never returned.
"""

import random
from collections import Counter
from itertools import combinations, combinations_with_replacement
from math import factorial, gcd, lcm, prod

from .exact import Rat, _check_int, _integer_row, _IntRowSpace
from .field_generators import basic_set, dim_d
from .invariants import _gram_of, _random_points
from .poly import MultiPoly, _coef, _value, _wrap, avar, var_name

# the Molien sum's slowest admitted call, (24, 11, 100), takes 0.75 s (2-vCPU VM, Python 3.11.7)
_MAX_GRADED_DEGREE = 100
_MAX_GRADED_POINTS = 24
_MAX_SEARCH_POINTS = 3
_MAX_SEARCH_DEGREE = 8


def reynolds(p: MultiPoly, m) -> MultiPoly:
    """Average over all m! point relabelings: the projection onto S_m-invariants.

    A monomial x = s * sigma(rep) of the S_m orbit of rep has image
    R(x) = s * R(rep), s the sign of x's count in rep's signed orbit sum
    (`_orbit_sums`, which drops an orbit that cancels, where R is 0).  So the
    coefficients are weighed per orbit and each orbit sum is added once: an
    orbit costs |orbit| * (m - 1) relabelings, however many of its monomials
    p holds.
    """
    for var in p.variables():
        if var[0] != "a" or not 1 <= var[1] < var[2] <= m:
            raise ValueError(f"Reynolds operator acts on a_ij with 1 <= i < j <= m={m}, got {var_name(var)}")
    # clear the common denominator first, so the orbit sums are weighed in ints
    coefs, den = _integer_row(list(p.terms.values()))
    ints = dict(zip(p.terms, coefs))
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
    scan order; the other monomials of an orbit symmetrize to +- the same.

    Schreier's orbit walk: each adjacent transposition tau = (k, k+1) maps
    a_ij to a_{tau(i) tau(j)}, negated when that pair is out of order (as
    a_ji = -a_ij), and the walk reaches each member y from the first
    monomial with a sign s_y.  Every edge is checked, so a member reached
    with both signs shows a relabeling that fixes a monomial and negates it:
    the sum over all m! relabelings cancels.  Otherwise y is the image of
    m! / |orbit| relabelings, all of sign s_y, so |orbit| * (m - 1)
    relabelings give the sum {y: (m! / |orbit|) * s_y}.
    """
    pairs, gens = list(combinations(range(1, m + 1), 2)), []
    for k in range(1, m):  # {a_ij: (image variable, sign flip)}, shared by the orbits
        tau = list(range(m + 1))
        tau[k], tau[k + 1] = k + 1, k
        gens.append({("a", i, j): (("a", *sorted((tau[i], tau[j]))), tau[i] > tau[j]) for i, j in pairs})
    seen, out = set(), []
    for mono in monos:
        if mono in seen:
            continue
        signs, walk, cancels = {mono: 1}, [mono], False
        for x in walk:  # grows as new members are reached
            for image in gens:
                s, y = signs[x], []
                for v, e in x:
                    w, flip = image[v]
                    if flip and e & 1:
                        s = -s
                    y.append((w, e))
                y = tuple(sorted(y))
                if y not in signs:
                    signs[y] = s
                    walk.append(y)
                elif signs[y] != s:
                    cancels = True
        seen.update(signs)
        if not cancels:
            k = factorial(m) // len(signs)
            out.append((mono, {y: k * s for y, s in signs.items()}))
    return out


def _check_sizes(m, n, k):
    if _check_int(n, "n") < 1 or _check_int(m, "m") < 1 or _check_int(k, "degree") < 0:
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
    if maxdeg > _MAX_GRADED_DEGREE or m > _MAX_GRADED_POINTS:
        raise ValueError(f"cost guard: need k <= {_MAX_GRADED_DEGREE} and m <= {_MAX_GRADED_POINTS}")
    if m > 2 * n + 2:
        raise ValueError(
            f"graded dimensions are derived only for m <= 2n+2, where at most one Pfaffian relation holds;"
            f" got m={m}, n={n}"
        )
    return _molien_coeffs(m, n, maxdeg)


def _content_normalized(p: MultiPoly) -> MultiPoly:
    """Scale to primitive integer coefficients with positive leading term.

    The leading term is the lex-largest exponent vector over the polynomial's
    variables in their total order (a12 ranks above a13 above a23, etc.).
    """
    if p.is_zero():
        return p
    coefs, _ = _integer_row(list(p.terms.values()))
    variables = sorted(p.variables())
    lead = max(p.terms, key=lambda mono: tuple([dict(mono).get(v, 0) for v in variables]))
    content = gcd(*coefs) if p.terms[lead] > 0 else -gcd(*coefs)
    return _wrap({mono: c // content for mono, c in zip(p.terms, coefs)})


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
    `_random_points`, and the chain rule applied by `_chain_rows`.  The cost
    guard admits calls of about a second: (7, 2) and (8, 1) take 0.6 s.
    """
    _check_int(m, "m")
    _check_int(n, "n")
    if not (m <= 7 and n <= 3 or m == 8 and n == 1):
        raise ValueError("cost guard: need m <= 7 and n <= 3, or m = 8 and n = 1")
    d = dim_d(m, n)
    pairs = basic_set(m, n).pairs[:d]
    polys = []
    prod = MultiPoly.constant(1)
    for (i, j) in pairs:
        prod = prod * MultiPoly.variable(avar(i, j)) ** 2
        polys.append(reynolds(prod, m))

    grads = []  # per q, its (pair, partial with int coefficients) list
    for q in polys:
        ints = _wrap(dict(zip(q.terms, _integer_row(list(q.terms.values()))[0])))
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
    fraction-free elimination.  The configurations lie in R^{2n'},
    n' = min(n, max(1, m // 2)): the a_ij of m <= 2n'+1 points are
    algebraically independent, so each such n' samples the same algebra, and
    m <= 3 <= 2n'+2 puts it in the scope of `_molien_coeffs`.

    The series gives the dimension H_k of each degree.  A sampled rank never
    exceeds it (evaluation is linear: a vanishing combination stays zero at
    every sample), and falls below it only with small probability (Schwartz
    1980; Zippel 1979).  So the orbits of degree k are walked only while the
    rank is below H_k, and the walk stops at the insert that reaches it: the
    orbits after it fall in the span at every sample, and the scan would keep
    none of them.  A degree whose rank ends short of H_k raises RuntimeError,
    so every returned degree is certified complete; no claim is made beyond
    maxdeg.
    """
    _check_sizes(m, n, maxdeg)
    if m > _MAX_SEARCH_POINTS or maxdeg > _MAX_SEARCH_DEGREE:
        raise ValueError(f"cost guard: need m <= {_MAX_SEARCH_POINTS} and maxdeg <= {_MAX_SEARCH_DEGREE}")
    rng, n = random.Random(seed), min(n, max(1, m // 2))
    dims = _molien_coeffs(m, n, maxdeg)  # H_0..H_maxdeg
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
        if space.rank < dims[k]:
            for _, orbit in _orbit_sums(monos, m):
                if space.insert([_value(orbit, t) for t in tables]):
                    kept.append((_content_normalized(MultiPoly(orbit)), k))
                    if space.rank == dims[k]:
                        break
        if space.rank != dims[k]:
            raise RuntimeError(
                f"degree {k}: sampled rank {space.rank}, not H_{k} = {dims[k]}; the sample does not certify the degree"
            )
    return [p for p, _ in kept]
