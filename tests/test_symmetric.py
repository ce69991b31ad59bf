import random
import re
from fractions import Fraction
from itertools import permutations
from math import factorial, gcd

import pytest

from sympjoint import symmetric
from sympjoint.exact import ExactMatrix, _IntRowSpace, rank, rat
from sympjoint.invariants import gram, random_config
from sympjoint.poly import MultiPoly, _value, avar, evaluate
from sympjoint.symmetric import (
    _content_normalized,
    _degree_monomials,
    _integer_tables,
    _orbit_sums,
    _relabeling_sum,
    _relabelings,
    generator_search,
    graded_dim,
    graded_dims,
    named_generators,
    poincare_coeffs,
    q_sequence,
    reynolds,
    verify_R8,
)

A12 = MultiPoly.variable(avar(1, 2))
A13 = MultiPoly.variable(avar(1, 3))
A23 = MultiPoly.variable(avar(2, 3))


def random_quadratic(rng, m=3):
    pairs = [(i, j) for i in range(1, m + 1) for j in range(i + 1, m + 1)]
    terms = {}
    for _ in range(4):
        (i1, j1), (i2, j2) = rng.choice(pairs), rng.choice(pairs)
        mono = {}
        for v in (avar(i1, j1), avar(i2, j2)):
            mono[v] = mono.get(v, 0) + 1
        terms[tuple(sorted(mono.items()))] = rng.randint(-5, 5)
    return MultiPoly(terms)


def test_reynolds_kills_linear_terms():
    for m in (2, 3, 4):
        assert reynolds(A12, m).is_zero()


def test_reynolds_displayed_quadratic():
    assert 3 * reynolds(A12**2, 3) == A12**2 + A13**2 + A23**2
    assert 3 * reynolds(A12 * A13, 3) == A12 * A13 - A12 * A23 + A13 * A23


def test_reynolds_m4_displayed_quadratics():
    # 6 pi(a12^2) = sum of all squares; 12 pi(a12 a13) = the displayed 12 terms
    a = {(i, j): MultiPoly.variable(avar(i, j)) for i in range(1, 5) for j in range(i + 1, 5)}
    sq = sum((p**2 for p in a.values()), MultiPoly())
    assert 6 * reynolds(a[(1, 2)] ** 2, 4) == sq
    mixed = (
        a[(1, 2)] * a[(1, 3)] + a[(1, 2)] * a[(1, 4)] + a[(1, 3)] * a[(1, 4)]
        - a[(1, 2)] * a[(2, 3)] - a[(1, 2)] * a[(2, 4)] + a[(2, 3)] * a[(2, 4)]
        + a[(1, 3)] * a[(2, 3)] - a[(1, 3)] * a[(3, 4)] - a[(2, 3)] * a[(3, 4)]
        + a[(1, 4)] * a[(2, 4)] + a[(1, 4)] * a[(3, 4)] + a[(2, 4)] * a[(3, 4)]
    )
    assert 12 * reynolds(a[(1, 2)] * a[(1, 3)], 4) == mixed


def test_reynolds_idempotent_and_equivariant():
    rng = random.Random(60)
    for _ in range(10):
        p = random_quadratic(rng)
        pi = reynolds(p, 3)
        assert reynolds(pi, 3) == pi
    # pi(sigma . p) = pi(p): averaging is blind to a prior relabeling
    p = random_quadratic(rng)
    for images in permutations((1, 2, 3)):
        relabeled = MultiPoly(
            {
                tuple(
                    sorted(
                        (
                            (avar(min(images[i - 1], images[j - 1]), max(images[i - 1], images[j - 1])), e)
                            for (_, i, j), e in mono
                        )
                    )
                ): c
                * (-1) ** sum(e for (_, i, j), e in mono if images[i - 1] > images[j - 1])
                for mono, c in p.terms.items()
            }
        )
        assert reynolds(relabeled, 3) == reynolds(p, 3)


def _permute_monomial(mono, images):
    """Relabel a monomial's point indices, merging exponents; returns (new monomial, sign)."""
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


def _relabeling_sum_oracle(terms, m):
    """The sum over all m! relabelings, one exponent dict per monomial and relabeling."""
    total = {}
    for images in permutations(range(1, m + 1)):
        lookup = dict(zip(range(1, m + 1), images))
        for mono, c in terms.items():
            new, sign = _permute_monomial(mono, lookup)
            total[new] = total.get(new, 0) + sign * c
    return total


@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_relabeling_sum_matches_brute_force(m):
    rng = random.Random(m)
    pairs = [avar(i, j) for i in range(1, m + 1) for j in range(i + 1, m + 1)]
    relabelings = list(_relabelings(m))
    assert len(relabelings) == factorial(m)
    for trial in range(12):
        terms = {}
        for _ in range(rng.randint(1, 4)):
            # exponents 1..5: repeated variables of odd and even exponent
            chosen = rng.sample(pairs, rng.randint(1, min(4, len(pairs))))
            mono = tuple(sorted((v, rng.randint(1, 5)) for v in chosen))
            terms[mono] = rng.randint(-4, 4) or 1
        expected = _relabeling_sum_oracle(terms, m)
        got = _relabeling_sum(terms, relabelings)
        assert got == expected  # cancelled monomials kept, as zeros
        assert all(type(c) is int for c in got.values())
        # reynolds clears the denominators of Rat coefficients and sums the same ints
        halves = {mono: rat(c, 2 + trial % 3) for mono, c in terms.items()}
        want = {
            mono: c / factorial(m) for mono, c in _relabeling_sum_oracle(halves, m).items() if c
        }
        assert reynolds(MultiPoly(halves), m).terms == want


def _same_orbit_terms(m, rng):
    """A few S_m orbits, several monomials of each, relabeled from the orbit's
    first one, with coefficients of both signs."""
    pairs = [avar(i, j) for i in range(1, m + 1) for j in range(i + 1, m + 1)]
    terms = {}
    for _ in range(rng.randint(1, 3)):
        chosen = rng.sample(pairs, rng.randint(1, min(4, len(pairs))))
        rep = tuple(sorted((v, rng.randint(1, 3)) for v in chosen))
        for _ in range(rng.randint(2, 5)):
            mono, _ = _permute_monomial(rep, dict(zip(range(1, m + 1), rng.sample(range(1, m + 1), m))))
            terms[mono] = terms.get(mono, 0) + rng.choice((-3, -2, -1, 1, 2, 3))
    return {mono: c for mono, c in terms.items() if c}


@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_orbit_reynolds_matches_brute_force(m):
    # one Reynolds image per orbit, weighed by the signed counts of the
    # orbit sum, against the m! relabelings of every term
    rng = random.Random(70 + m)
    for trial in range(12):
        terms = _same_orbit_terms(m, rng)
        if trial % 2:
            terms = {mono: rat(c, 2 + trial % 3) for mono, c in terms.items()}
        want = {mono: Fraction(c) / factorial(m) for mono, c in _relabeling_sum_oracle(terms, m).items() if c}
        assert reynolds(MultiPoly(terms), m).terms == want


def test_orbit_reynolds_cancels():
    a = {(i, j): MultiPoly.variable(avar(i, j)) for i in range(1, 5) for j in range(i + 1, 5)}
    # a12*a34 and a13*a24 each lie in an orbit whose signed sum cancels:
    # the transposition (12) fixes a12*a34 up to the sign of a12
    assert reynolds(a[(1, 2)] * a[(3, 4)] - a[(1, 3)] * a[(2, 4)], 4).is_zero()
    # so does a12*a13*a23 at m = 3 and 4, next to an orbit that does not
    triangle = a[(1, 2)] * a[(1, 3)] * a[(2, 3)]
    assert _orbit_sums(list(triangle.terms), 3) == []
    for m in (3, 4):
        assert reynolds(triangle, m).is_zero()
        assert reynolds(a[(1, 2)] ** 2 - 5 * triangle, m) == reynolds(a[(1, 2)] ** 2, m)
    # two monomials of one orbit whose weights cancel, with and without a third
    squares = a[(1, 2)] ** 2 * a[(3, 4)] ** 2
    assert not reynolds(squares, 4).is_zero()
    other = a[(1, 3)] ** 2 * a[(2, 4)] ** 2
    assert reynolds(squares - other, 4).is_zero()
    assert reynolds(squares - other + 2 * a[(1, 4)] ** 2 * a[(2, 3)] ** 2, 4) == 2 * reynolds(squares, 4)


def test_reynolds_rejects_out_of_range():
    with pytest.raises(ValueError):
        reynolds(MultiPoly.variable(avar(1, 4)), 3)


def test_poincare_series_coefficients():
    assert poincare_coeffs(9) == [1, 0, 2, 1, 4, 2, 7, 4, 10, 7]
    assert poincare_coeffs(0) == [1]


def test_graded_dims_match_poincare():
    dims = [graded_dim(3, 1, k) for k in range(9)]
    assert dims == poincare_coeffs(8)


def test_graded_dim_examples():
    assert graded_dim(3, 1, 1) == 0
    assert graded_dim(3, 1, 2) == 2
    assert graded_dim(3, 1, 6) == 7
    with pytest.raises(ValueError):
        graded_dim(5, 1, 2)
    with pytest.raises(ValueError):
        graded_dim(3, 1, 11)


def reference_graded_dim(m, k, seed):
    """Rank of the Reynolds images of all degree-k monomials, evaluated one by
    one with rational arithmetic at random configurations."""
    images = [reynolds(MultiPoly({mono: 1}), m) for mono in _degree_monomials(m, k)]
    rng = random.Random(seed)
    tables = [gram(random_config(1, m, rng, lo=-20, hi=20)) for _ in range(len(images) + 5)]
    return rank(ExactMatrix([[evaluate(p, g) for g in tables] for p in images]))


@pytest.mark.parametrize("m,top", [(3, 6), (4, 3)])
@pytest.mark.parametrize("seed", [0, 3, 11])
def test_graded_dim_matches_reference_rank(m, top, seed):
    for k in range(1, top + 1):
        assert graded_dim(m, 1, k, seed=seed) == reference_graded_dim(m, k, seed + 100)


def test_graded_dim_four_points():
    assert graded_dim(4, 1, 3) == 2
    for seed in (0, 7):
        assert graded_dim(4, 1, 4, seed=seed) == 8


def test_int_row_space_known_rank():
    rows = [
        [2, 4, 6, 8],
        [1, 2, 3, 4],  # 1/2 of the first row
        [-3, -6, -9, -12],  # -3/2 of the first row
        [0, 0, 0, 0],
        [0, 3, 3, 0],
        [2, 5, 7, 8],  # first row + third of the fifth
        [5, 0, 0, 1],
        [7, 4, 6, 9],  # first row + last row
    ]
    space = _IntRowSpace()
    assert [space.insert(r) for r in rows] == [True, False, False, False, True, False, True, False]
    assert space.rank == 3 == rank(ExactMatrix(rows))
    # stored rows are integer rows divided by their content
    assert space.rows[0] == [1, 2, 3, 4]
    assert all(isinstance(x, int) for r in space.rows for x in r)
    assert all(gcd(*r) == 1 for r in space.rows)


def test_rank_rows_clears_denominators():
    F = Fraction
    assert rank(ExactMatrix([[F(1, 2), F(1, 3)], [F(3, 2), F(1)]])) == 1
    assert rank(ExactMatrix([[F(1, 2), F(1, 3), F(0)], [F(1, 7), F(-2, 5), F(4, 9)], [F(9, 14), F(-1, 15), F(4, 9)]])) == 2
    assert rank(ExactMatrix([[F(0), F(0)], [F(0), F(5, 3)]])) == 1


def test_named_generators_displayed():
    g = named_generators()
    assert g["I2a"] == A12**2 + A13**2 + A23**2
    assert g["I2b"] == A12 * A13 - A12 * A23 + A13 * A23
    assert g["I4"] == A12**2 * A13**2 + A12**2 * A23**2 + A13**2 * A23**2
    assert g["I3"].degree() == 3
    # I3 is a Reynolds fixed point (up to the dropped normalization 1/6)
    assert reynolds(g["I3"], 3) == g["I3"]


def test_verify_r8_and_perturbed_variant():
    assert verify_R8()
    g = named_generators()
    i2a, i2b, i3, i4 = g["I2a"], g["I2b"], g["I3"], g["I4"]
    broken = (
        (4 * i2a**2 + 4 * i2a * i2b + 3 * i2b**2) * i2b**2
        - (8 * i2a**2 + 4 * i2a * i2b + 14 * i2b**2) * i4
        + 4 * (i2a - 2 * i2b) * i3**2
        + 26 * i4**2
    )
    assert not broken.is_zero()


def test_r8_numeric_vanishing():
    rng = random.Random(61)
    g = named_generators()
    i2a, i2b, i3, i4 = g["I2a"], g["I2b"], g["I3"], g["I4"]
    r8 = (
        (4 * i2a**2 + 4 * i2a * i2b + 3 * i2b**2) * i2b**2
        - (8 * i2a**2 + 4 * i2a * i2b + 14 * i2b**2) * i4
        + 4 * (i2a - 2 * i2b) * i3**2
        + 27 * i4**2
    )
    for _ in range(20):
        table = gram(random_config(1, 3, rng))
        assert evaluate(r8, table) == 0


def test_q_sequence_ranks():
    assert q_sequence(3, 1)["rank"] == 3
    report = q_sequence(4, 1)
    assert report["rank"] == 5 == report["expected"]
    assert report["independent"]
    with pytest.raises(ValueError):
        q_sequence(6, 1)


@pytest.mark.parametrize("seed", [0, 7])
def test_q_sequence_pinned(seed):
    report = q_sequence(3, 1, seed)
    assert (report["rank"], report["expected"], report["independent"]) == (3, 3, True)
    assert report["polys"] == [reynolds(A12**2, 3), reynolds(A12**2 * A13**2, 3), reynolds(A12**2 * A13**2 * A23**2, 3)]


def test_q_sequence_first_element():
    report = q_sequence(3, 1)
    assert report["polys"][0] == reynolds(A12**2, 3)


@pytest.mark.parametrize("seed", [0, 313])
def test_integer_tables_read_the_stream_of_random_config(seed):
    # the int sampler draws the points random_config draws, table by table
    a, b = random.Random(seed), random.Random(seed)
    tables = _integer_tables(3, 1, 12, a)
    assert tables == [{avar(i, j): v for (i, j), v in gram(random_config(1, 3, b, -20, 20)).ints.items()} for _ in range(12)]
    assert a.random() == b.random()


def test_generator_search_m3():
    gens = generator_search(3, 1, 8)
    assert [g.degree() for g in gens] == [2, 2, 3, 4]
    named = named_generators()
    assert gens[0] == named["I2a"]
    assert gens[1] == named["I2b"]
    assert gens[2] == named["I3"]
    # every kept generator is a Reynolds fixed point up to its normalization
    for g in gens:
        assert _content_normalized(reynolds(g, 3)) == g


def test_generator_search_m2():
    gens = generator_search(2, 1, 4)
    assert gens[0] == A12**2
    assert [g.degree() for g in gens] == [2]


def test_generator_search_does_not_depend_on_n():
    # three points have algebraically independent a_ij in every R^{2n}
    expected = generator_search(3, 1, 6)
    assert generator_search(3, 2, 6) == expected
    assert generator_search(3, 50, 6) == expected


def test_generator_search_reads_generators_off_the_orbit_sums(monkeypatch):
    expected = generator_search(3, 1, 6)

    def refuse(*args, **kwargs):
        raise AssertionError("generator_search called reynolds")

    monkeypatch.setattr(symmetric, "reynolds", refuse)
    assert generator_search(3, 1, 6) == expected


def test_generator_search_cost_guard():
    with pytest.raises(ValueError):
        generator_search(4, 1, 4)
    with pytest.raises(ValueError):
        generator_search(3, 1, 9)


def orbit_rank_dims(m, n, top, seed=0):
    """Degrees 0..top by the evaluation rank graded dimensions were once
    computed by: one integer row per S_m orbit of degree-k monomials (its
    signed orbit sum) at 3 * (#monomials + 5) random integer configurations,
    exact rank by fraction-free elimination.  A lower bound on the true
    dimension.  Degree k reads the first configurations of one stream, the
    same ones a fresh random.Random(seed) per degree would draw."""
    monos = [_degree_monomials(m, k) for k in range(top + 1)]
    stream = _integer_tables(m, n, 3 * (len(monos[-1]) + 5), random.Random(seed))
    dims = []
    for degree_monos in monos:
        tables = stream[: 3 * (len(degree_monos) + 5)]
        space = _IntRowSpace()
        for _, orbit in _orbit_sums(degree_monos, m):
            space.insert([_value(orbit, t) for t in tables])
        dims.append(space.rank)
    return dims


@pytest.mark.parametrize("m,n,top", [(4, 1, 5), (4, 2, 5), (3, 2, 6), (5, 2, 3), (6, 2, 3)])
def test_graded_dim_matches_orbit_rank(m, n, top):
    assert [graded_dim(m, n, k) for k in range(top + 1)] == orbit_rank_dims(m, n, top)


def test_four_point_series_pinned():
    assert [graded_dim(4, 1, k) for k in range(11)] == [1, 0, 2, 2, 8, 6, 21, 20, 43, 48, 85]
    assert [graded_dim(4, 2, k) for k in range(11)] == [1, 0, 2, 2, 9, 8, 26, 28, 65, 76, 141]


# graded_dims(m, n, 10) for every admitted (m, n) with n <= 3, as computed by
# the sum over all m! relabelings
PINNED_SERIES = {
    (1, 1): [1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
    (2, 1): [1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1],
    (3, 1): [1, 0, 2, 1, 4, 2, 7, 4, 10, 7, 14],
    (4, 1): [1, 0, 2, 2, 8, 6, 21, 20, 43, 48, 85],
    (1, 2): [1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
    (2, 2): [1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1],
    (3, 2): [1, 0, 2, 1, 4, 2, 7, 4, 10, 7, 14],
    (4, 2): [1, 0, 2, 2, 9, 8, 26, 28, 65, 76, 141],
    (5, 2): [1, 0, 2, 2, 13, 16, 59, 92, 244, 398, 851],
    (6, 2): [1, 0, 2, 2, 14, 22, 90, 181, 555, 1177, 2932],
    (1, 3): [1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
    (2, 3): [1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1],
    (3, 3): [1, 0, 2, 1, 4, 2, 7, 4, 10, 7, 14],
    (4, 3): [1, 0, 2, 2, 9, 8, 26, 28, 65, 76, 141],
    (5, 3): [1, 0, 2, 2, 13, 16, 59, 92, 244, 398, 851],
    (6, 3): [1, 0, 2, 2, 14, 22, 91, 184, 566, 1219, 3070],
}


@pytest.mark.parametrize("m,n", sorted(PINNED_SERIES))
def test_graded_dims_pinned_table(m, n):
    assert graded_dims(m, n, 10) == PINNED_SERIES[(m, n)]


def test_molien_series_walks_no_permutation(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the series walked the relabelings")

    monkeypatch.setattr(symmetric, "permutations", refuse)
    assert graded_dims(6, 3, 10) == PINNED_SERIES[(6, 3)]


def test_poincare_coeffs_match_closed_form():
    # Taylor coefficients of (1 + z^4) / ((1 - z^2)^2 (1 - z^3)), term by term
    top = 30
    series = [1 if k in (0, 4) else 0 for k in range(top + 1)]
    for step in (2, 2, 3):
        for k in range(step, top + 1):
            series[k] += series[k - step]
    assert poincare_coeffs(top) == series
    assert [graded_dim(3, 1, k) for k in range(11)] == series[:11]


def test_graded_dim_never_samples(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("graded_dim sampled or eliminated")

    monkeypatch.setattr(symmetric, "_integer_tables", refuse)
    monkeypatch.setattr(symmetric, "_IntRowSpace", refuse)
    assert graded_dim(4, 1, 10) == 85
    assert graded_dim(6, 2, 10) == graded_dim(6, 2, 10, seed=123)
    assert [graded_dim(2, 1, k) for k in range(5)] == [1, 0, 1, 0, 1]
    assert [graded_dim(1, 3, k) for k in range(3)] == [1, 0, 0]


@pytest.mark.parametrize("m,n,k", [(5, 1, 2), (6, 1, 2), (5, 1, 0), (7, 3, 1), (4, 1, 11)])
def test_graded_dim_guard(m, n, k):
    with pytest.raises(ValueError, match="cost guard"):
        graded_dim(m, n, k)


@pytest.mark.parametrize("m,n,k", [(0, 1, 2), (-2, 1, 0), (3, 0, 0), (3, -1, 2), (3, 1, -1), (9, 0, 0)])
def test_graded_dim_rejects_bad_sizes(m, n, k):
    with pytest.raises(ValueError, match="need m >= 1"):
        graded_dim(m, n, k)


@pytest.mark.parametrize("m,n,top", [(1, 3, 2), (2, 1, 4), (3, 1, 0), (4, 1, 10), (4, 2, 10), (6, 2, 10)])
def test_graded_dims_is_the_per_degree_table(m, n, top):
    assert graded_dims(m, n, top) == [graded_dim(m, n, k) for k in range(top + 1)]


@pytest.mark.parametrize("m,n,top,match", [(5, 1, 0, "cost guard"), (4, 1, 11, "cost guard"), (0, 1, 2, "need m >= 1"), (3, 1, -1, "need m >= 1")])
def test_graded_dims_keeps_the_guards(m, n, top, match):
    with pytest.raises(ValueError, match=match):
        graded_dims(m, n, top)


@pytest.mark.parametrize("m,n,maxdeg", [(0, 1, 2), (3, 0, 2), (3, 1, -1), (-1, 1, 0)])
def test_generator_search_rejects_bad_sizes(m, n, maxdeg):
    with pytest.raises(ValueError, match="need m >= 1"):
        generator_search(m, n, maxdeg)


@pytest.mark.parametrize("n", [True, 1.0, "1"])
@pytest.mark.parametrize(
    "call",
    [lambda n: graded_dim(3, n, 2), lambda n: graded_dims(3, n, 2), lambda n: generator_search(2, n, 2)],
    ids=["graded_dim", "graded_dims", "generator_search"],
)
def test_sizes_refuse_an_n_that_only_looks_like_an_int(call, n):
    # `_check_sizes` checks the type of n before the ranges, whose message
    # the tests above pin
    with pytest.raises(ValueError, match=f"^'n' must be an integer, got {re.escape(repr(n))}$"):
        call(n)
