import random
import re
from fractions import Fraction
from itertools import combinations_with_replacement, permutations
from math import factorial, gcd, prod

import pytest

from sympjoint import symmetric
from sympjoint.exact import ExactMatrix, _IntRowSpace, rank, rat
from sympjoint.field_generators import dim_d
from sympjoint.invariants import gram, random_config
from sympjoint.poly import MultiPoly, _value, avar, evaluate
from sympjoint.symmetric import (
    _content_normalized,
    _degree_monomials,
    _integer_tables,
    _orbit_sums,
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


def _orbit_sums_oracle(monos, m):
    """(first monomial, nonzero signed orbit sum) per orbit, in scan order, by
    the sum over all m! relabelings of each orbit's first monomial."""
    seen, out = set(), []
    for mono in monos:
        if mono in seen:
            continue
        total = _relabeling_sum_oracle({mono: 1}, m)
        seen.update(total)  # the whole orbit, cancelled monomials included
        orbit = {x: c for x, c in total.items() if c}
        if orbit:
            out.append((mono, orbit))
    return out


@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_relabeling_sum_matches_brute_force(m):
    rng = random.Random(m)
    pairs = [avar(i, j) for i in range(1, m + 1) for j in range(i + 1, m + 1)]
    cancelled = kept = 0
    for trial in range(12):
        terms = {}
        for _ in range(rng.randint(1, 4)):
            # exponents 1..5: repeated variables of odd and even exponent
            chosen = rng.sample(pairs, rng.randint(1, min(4, len(pairs))))
            mono = tuple(sorted((v, rng.randint(1, 5)) for v in chosen))
            terms[mono] = rng.randint(-4, 4) or 1
        expected = _orbit_sums_oracle(terms, m)
        got = _orbit_sums(list(terms), m)
        assert got == expected
        assert all(type(c) is int for _, orbit in got for c in orbit.values())
        kept += len(got)
        cancelled += sum(not _orbit_sums([mono], m) for mono in terms)
        # reynolds clears the denominators of Rat coefficients and sums the same ints
        halves = {mono: rat(c, 2 + trial % 3) for mono, c in terms.items()}
        want = {
            mono: c / factorial(m) for mono, c in _relabeling_sum_oracle(halves, m).items() if c
        }
        assert reynolds(MultiPoly(halves), m).terms == want
    assert cancelled and kept  # orbits whose signed sum cancels, and others


def test_reynolds_clears_fraction_coefficients():
    # 1/2 and -2/3 share the denominator 6, cleared by `_integer_row`
    a14, a34 = MultiPoly.variable(avar(1, 4)), MultiPoly.variable(avar(3, 4))
    p = Fraction(1, 2) * A12 * A13**2 + Fraction(-2, 3) * A12**2 * a34 + Fraction(-2, 3) * A13 * a14
    want = {mono: c / factorial(4) for mono, c in _relabeling_sum_oracle(p.terms, 4).items() if c}
    assert want and reynolds(p, 4).terms == want


def test_content_normalized_flips_a_negative_leading_term():
    # the lex-largest exponent vector leads: a12^2, with coefficient -1/3
    p = Fraction(-1, 3) * A12**2 + Fraction(2, 9) * A13 * A23 - 4 * A23**2
    got = _content_normalized(p)
    assert got == 3 * A12**2 - 2 * A13 * A23 + 36 * A23**2
    assert all(type(c) is int for c in got.terms.values())
    assert _content_normalized(-got) == got
    assert _content_normalized(MultiPoly()).is_zero()


@pytest.mark.parametrize("m,top", [(2, 6), (3, 5), (4, 4), (5, 4), (6, 3)])
def test_orbit_sums_of_every_monomial_match_brute_force(m, top):
    # every degree-k monomial, in the scan order of the generator search
    for k in range(top + 1):
        monos = _degree_monomials(m, k)
        assert _orbit_sums(monos, m) == _orbit_sums_oracle(monos, m)


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


@pytest.mark.parametrize("var,name", [(("a", 0, 1), "a01"), (("a", 2, 1), "a21"), (("a", 1, 1), "a11")])
def test_reynolds_names_a_variable_off_the_pairs(var, name):
    # avar admits a01 and refuses a21 and a11, so all three are built by hand:
    # each is named by a ValueError, not a KeyError of the orbit walk
    with pytest.raises(ValueError, match=name):
        reynolds(MultiPoly({((var, 2),): 1}), 2)


def test_reynolds_of_a_square_at_ten_points():
    # the orbit of a12^2 has 45 members; the m! sum would relabel it 10! times
    squares = MultiPoly()
    for i in range(1, 11):
        for j in range(i + 1, 11):
            squares = squares + MultiPoly.variable(avar(i, j)) ** 2
    assert reynolds(A12**2, 10) == squares * rat(1, 45)


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
        graded_dim(3, 1, 101)


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
    for m, n in ((8, 2), (9, 1), (7, 4)):
        with pytest.raises(ValueError, match="cost guard"):
            q_sequence(m, n)


@pytest.mark.parametrize("m,n", [(6, 1), (7, 2), (8, 1)])
def test_q_sequence_past_five_points(m, n):
    report = q_sequence(m, n)
    assert report["rank"] == report["expected"] == dim_d(m, n)
    assert report["independent"]


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


def _full_scan_oracle(m, n, maxdeg, seed=0):
    """The generator search without its H_k stop: every orbit of every degree
    is walked and inserted, on the same sample stream."""
    rng, n = random.Random(seed), min(n, max(1, m // 2))
    kept = []
    for k in range(1, maxdeg + 1):
        monos = _degree_monomials(m, k)
        tables = _integer_tables(m, n, 3 * (len(monos) + 5), rng)
        values = [[_value(p.terms, t) for t in tables] for p, _ in kept]
        space = _IntRowSpace()
        for size in range(1, k + 1):
            for product in combinations_with_replacement(range(len(kept)), size):
                if sum(kept[i][1] for i in product) == k:
                    space.insert([prod(col) for col in zip(*(values[i] for i in product))])
        for _, orbit in _orbit_sums(monos, m):
            if space.insert([_value(orbit, t) for t in tables]):
                kept.append((_content_normalized(MultiPoly(orbit)), k))
    return kept


@pytest.mark.parametrize("seed", range(4))
def test_generator_search_stops_at_H_k_with_the_full_scan_s_generators(seed):
    # the orbits after the one reaching H_k fall in the span: stopping there keeps what the full scan keeps
    for m in (1, 2, 3):
        kept = _full_scan_oracle(m, 1, 8, seed)
        for n in (1, 2, 3):
            for maxdeg in range(9):
                assert generator_search(m, n, maxdeg, seed) == [p for p, k in kept if k <= maxdeg]


def test_generator_search_walks_orbits_only_below_H_k(monkeypatch):
    # at (3, 1, 6) the products of I2a, I2b, I3 and I4 already span degrees 5 and 6 (H = 2 and 7)
    degrees, walk = [], symmetric._orbit_sums

    def spy(monos, m):
        degrees.append(sum(e for _, e in monos[0]))
        return walk(monos, m)

    monkeypatch.setattr(symmetric, "_orbit_sums", spy)
    assert [g.degree() for g in generator_search(3, 1, 6)] == [2, 2, 3, 4]
    assert degrees == [2, 3, 4]


def test_generator_search_refuses_a_rank_short_of_H_k(monkeypatch):
    # a degenerate sample (every table zero) certifies nothing: no short set is returned
    def zero_tables(m, n, count, rng):
        return [dict.fromkeys([avar(i, j) for i in range(1, m + 1) for j in range(i + 1, m + 1)], 0)] * count

    monkeypatch.setattr(symmetric, "_integer_tables", zero_tables)
    with pytest.raises(RuntimeError, match=r"degree 2: sampled rank 0, not H_2 = 2"):
        generator_search(3, 1, 6)
    assert generator_search(3, 1, 1) == []  # H_1 = 0: degree 1 is certified by the empty span


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


@pytest.mark.parametrize("m,n,top", [(4, 1, 5), (4, 2, 5), (3, 2, 6), (5, 2, 3), (6, 2, 3), (7, 3, 3)])
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
        raise AssertionError("the series walked the orbits")

    monkeypatch.setattr(symmetric, "_orbit_sums", refuse)
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


@pytest.mark.parametrize("m,n,k", [(5, 1, 2), (6, 1, 2), (5, 1, 0), (25, 12, 1), (4, 1, 101)])
def test_graded_dim_guard(m, n, k):
    # m > 2n+2 is out of scope (more than one Pfaffian relation), not a cost
    match = "cost guard" if k > 100 or m > 24 else r"derived only for m <= 2n\+2"
    with pytest.raises(ValueError, match=match):
        graded_dim(m, n, k)


@pytest.mark.parametrize("m,n,k", [(0, 1, 2), (-2, 1, 0), (3, 0, 0), (3, -1, 2), (3, 1, -1), (9, 0, 0)])
def test_graded_dim_rejects_bad_sizes(m, n, k):
    with pytest.raises(ValueError, match="need m >= 1"):
        graded_dim(m, n, k)


@pytest.mark.parametrize("m,n,top", [(1, 3, 2), (2, 1, 4), (3, 1, 0), (4, 1, 10), (4, 2, 10), (6, 2, 10)])
def test_graded_dims_is_the_per_degree_table(m, n, top):
    assert graded_dims(m, n, top) == [graded_dim(m, n, k) for k in range(top + 1)]


@pytest.mark.parametrize("m,n,top,match", [(5, 1, 0, "derived only for"), (4, 1, 101, "cost guard"), (0, 1, 2, "need m >= 1"), (3, 1, -1, "need m >= 1")])
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


@pytest.mark.parametrize("m", [True, 3.0])
@pytest.mark.parametrize(
    "call",
    [
        lambda m: graded_dim(m, 1, 2),
        lambda m: graded_dims(m, 1, 2),
        lambda m: generator_search(m, 1, 2),
        lambda m: q_sequence(m, 1),
    ],
    ids=["graded_dim", "graded_dims", "generator_search", "q_sequence"],
)
def test_sizes_refuse_an_m_that_only_looks_like_an_int(call, m):
    # True once counted as one point (an empty search, a rank-0 q_sequence)
    with pytest.raises(ValueError, match=f"^'m' must be an integer, got {re.escape(repr(m))}$"):
        call(m)


@pytest.mark.parametrize("m,n,name", [("3", 1, "m"), (8, "1", "n"), (3, "1", "n"), (3, 1.0, "n")])
def test_q_sequence_checks_types_before_its_cost_guard(m, n, name):
    # "3" once reached the guard's comparison and raised a bare TypeError
    bad = m if name == "m" else n
    with pytest.raises(ValueError, match=f"^'{name}' must be an integer, got {re.escape(repr(bad))}$"):
        q_sequence(m, n)


@pytest.mark.parametrize("k", [2.0, True])
def test_sizes_refuse_a_degree_that_only_looks_like_an_int(k):
    # 2.0 once raised a bare TypeError from the series
    with pytest.raises(ValueError, match=f"^'degree' must be an integer, got {re.escape(repr(k))}$"):
        graded_dim(3, 1, k)
