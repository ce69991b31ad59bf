import random
from fractions import Fraction
from itertools import permutations
from math import gcd

import pytest

from sympjoint.exact import ExactMatrix, rank, rat
from sympjoint.invariants import gram, random_config
from sympjoint.poly import MultiPoly, avar, evaluate
from sympjoint.symmetric import (
    _content_normalized,
    _degree_monomials,
    _IntRowSpace,
    _rank_rows,
    generator_search,
    graded_dim,
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
    assert _rank_rows([[F(1, 2), F(1, 3)], [F(3, 2), F(1)]]) == 1
    assert _rank_rows([[F(1, 2), F(1, 3), F(0)], [F(1, 7), F(-2, 5), F(4, 9)], [F(9, 14), F(-1, 15), F(4, 9)]]) == 2
    assert _rank_rows([[F(0), F(0)], [F(0), F(5, 3)]]) == 1


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


def test_q_sequence_first_element():
    report = q_sequence(3, 1)
    assert report["polys"][0] == reynolds(A12**2, 3)


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


def test_generator_search_cost_guard():
    with pytest.raises(ValueError):
        generator_search(4, 1, 4)
    with pytest.raises(ValueError):
        generator_search(3, 1, 9)
