import gc
import hashlib
import random
from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sympjoint.exact import Rat, SkewMatrix, _pf_expand, pfaffian, rat
from sympjoint.invariants import GramTable, gram, q_value, random_config
from sympjoint.poly import (
    MultiPoly,
    _pf_poly,
    aux_var,
    avar,
    contact_var,
    evaluate,
    pfaffian_poly,
    q_poly,
    verify_pfaffian_expansion,
    verify_q_reduction,
    verify_resolution_tower,
    verify_weyl_reduction,
)


def random_table(m, rng):
    return GramTable(
        m, {(i, j): Rat(rng.randint(-9, 9)) for i in range(1, m + 1) for j in range(i + 1, m + 1)}
    )


# --- polynomial ring basics ------------------------------------------------

_vars = [avar(1, 2), avar(1, 3), avar(2, 3)]
# every tag, in sorted order: ("a", ...) < ("u", ...) < ("z", ...)
_mixed_vars = [avar(1, 2), avar(1, 3), avar(2, 3), contact_var(1), contact_var(2), aux_var("x", 1), aux_var("y", 1)]


@st.composite
def polys(draw, variables=_vars, coefficients=st.integers(-5, 5)):
    n_terms = draw(st.integers(0, 4))
    terms = {}
    for _ in range(n_terms):
        mono = []
        for v in variables:
            e = draw(st.integers(0, 2))
            if e:
                mono.append((v, e))
        terms[tuple(mono)] = draw(coefficients)
    return MultiPoly(terms)


def mixed_polys():
    """Polynomials over mixed-tag variables with int and half-integer coefficients."""
    return polys(_mixed_vars, st.integers(-5, 5).map(lambda k: rat(k, 2)))


@given(polys(), polys(), polys())
@settings(max_examples=50, deadline=None)
def test_ring_axioms(p, q, r):
    assert (p + q) + r == p + (q + r)
    assert p + q == q + p
    assert p * q == q * p
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r
    assert p - p == MultiPoly()


@given(polys(), polys())
@settings(max_examples=30, deadline=None)
def test_evaluate_is_ring_homomorphism(p, q):
    g = random_table(3, random.Random(42))
    assert evaluate(p * q, g) == evaluate(p, g) * evaluate(q, g)
    assert evaluate(p + q, g) == evaluate(p, g) + evaluate(q, g)


@given(polys(), st.integers(0, 1000))
@settings(max_examples=50, deadline=None)
def test_evaluate_matches_full_substitution(p, seed):
    p = p * MultiPoly.constant(rat(1, 3)) + MultiPoly.constant(rat(2, 7))
    rng = random.Random(seed)
    g = GramTable(3, {(i, j): Rat(rng.randint(-9, 9), rng.randint(1, 5)) for (i, j) in ((1, 2), (1, 3), (2, 3))})
    left = p.substitute({avar(i, j): g.value(i, j) for (i, j) in g.pairs()})
    assert set(left.terms) <= {()}
    assert evaluate(p, g) == left.terms.get((), 0)
    assert type(evaluate(p, g)) is Rat


def test_evaluate_basics():
    g = GramTable(4, {(1, 2): 5, (1, 3): 0, (1, 4): 0, (2, 3): 0, (2, 4): 0, (3, 4): 3})
    assert evaluate(MultiPoly.constant(7), g) == 7
    prod = MultiPoly.variable(avar(1, 2)) * MultiPoly.variable(avar(3, 4))
    assert evaluate(prod, g) == 15
    with pytest.raises(ValueError):
        evaluate(MultiPoly.variable(avar(1, 5)), g)
    with pytest.raises(ValueError):
        evaluate(MultiPoly.variable(aux_var("x", 1)), g)


@pytest.mark.parametrize("i, j", [(0, 2), (-1, 3), (1, 4)])
def test_evaluate_rejects_labels_out_of_range(i, j):
    g = random_table(3, random.Random(27))
    with pytest.raises(ValueError, match=rf"^variable a{i}{j} out of range for m=3$"):
        evaluate(MultiPoly.variable(avar(i, j)), g)


def test_evaluate_names_a_variable_missing_from_the_table():
    g = GramTable(4, {(1, 2): 1, (3, 4): 2})
    assert evaluate(MultiPoly.variable(avar(1, 2)) * MultiPoly.variable(avar(3, 4)), g) == 2
    with pytest.raises(ValueError, match=r"^a13 has no value in the table$"):
        evaluate(pfaffian_poly((1, 2, 3, 4), 1), g)


_halves = st.integers(-9, 9).map(lambda k: rat(k, 2))


@given(polys(_vars, _halves), polys(_vars, _halves), st.integers(0, 1000))
@settings(max_examples=60, deadline=None)
def test_evaluate_matches_fraction_evaluation(p, q, seed):
    # mixed degrees (q lifted by a12 and a constant) with Rat coefficients,
    # over a table whose odd numerators over 2, 4 or 6 make den > 1
    p = p + q * MultiPoly.variable(avar(1, 2)) + rat(3, 5)
    rng = random.Random(seed)
    values = {pair: Fraction(2 * rng.randint(-9, 9) + 1, rng.choice((2, 4, 6))) for pair in ((1, 2), (1, 3), (2, 3))}
    g = GramTable(3, values)
    assert g.den > 1
    want = Fraction(0)
    for mono, c in p.terms.items():
        term = Fraction(c)
        for (_, i, j), e in mono:
            term *= values[(i, j)] ** e
        want += term
    got = evaluate(p, g)
    assert got == want and type(got) is Rat


def test_derivative():
    a, b = MultiPoly.variable(avar(1, 2)), MultiPoly.variable(avar(1, 3))
    p = a**2 * b + 3 * b
    assert p.derivative(avar(1, 2)) == 2 * a * b
    assert p.derivative(avar(1, 3)) == a**2 + MultiPoly.constant(3)
    assert p.derivative(avar(2, 3)).is_zero()


def test_constructor_merges_repeated_variables():
    v, w = avar(1, 2), avar(1, 3)
    x = MultiPoly.variable(v)
    assert MultiPoly({((v, 1), (v, 1)): 1}) == x**2
    assert MultiPoly({((v, 1), (w, 2), (v, 2)): 1}) == x**3 * MultiPoly.variable(w) ** 2


def test_constructor_drops_zero_exponents():
    v = avar(1, 2)
    assert MultiPoly({((v, 0),): 1}) == MultiPoly.constant(1)
    assert MultiPoly({((v, 0),): 1}).terms == {(): 1}


def test_constructor_sums_colliding_keys():
    v, w = avar(1, 2), avar(1, 3)
    vw = MultiPoly.variable(v) * MultiPoly.variable(w)
    assert MultiPoly({((v, 1), (w, 1)): 1, ((w, 1), (v, 1)): 1}) == 2 * vw
    assert MultiPoly({((v, 1), (w, 1)): 1, ((w, 1), (v, 1)): -1}).is_zero()
    assert MultiPoly({((v, 1),): 1, ((v, 1), (w, 0)): rat(1, 2)}) == rat(3, 2) * MultiPoly.variable(v)


@pytest.mark.parametrize("e", [-1, 1.0, True, "2"])
def test_constructor_rejects_bad_exponent(e):
    with pytest.raises(ValueError):
        MultiPoly({((avar(1, 2), e),): 1})


def _product_reference(p, q):
    """Term-by-term product, merging each pair of monomials through a dict of exponents."""
    out = {}
    for m1, c1 in p.terms.items():
        for m2, c2 in q.terms.items():
            exps = dict(m1)
            for v, e in m2:
                exps[v] = exps.get(v, 0) + e
            mono = tuple(sorted(exps.items()))
            out[mono] = out.get(mono, 0) + c1 * c2
    return {mono: c for mono, c in out.items() if c}


# one product per path of __mul__: a*a and u*u variables do not interleave,
# (a12 u1) * (a13 u2) does, and a one-term factor takes the single-term path
_a12, _a13, _u1, _u2, _x1 = (
    MultiPoly.variable(v) for v in (avar(1, 2), avar(1, 3), contact_var(1), contact_var(2), aux_var("x", 1))
)


@given(mixed_polys(), mixed_polys())
@example(_a12 + _a13, _u1 + _x1)
@example(_x1 * _u2 + _u1, _a12 * _a13 - _a13**2)
@example(_a12 * _u1 + _x1, _a13 * _u2 + _u1 * _x1)
@example(_a13 * _u1, _a12 * _u2 + 3 * _a13 * _u1 - _x1)
@example(rat(1, 2) * _a12 * _u1, 2 * _a12 * _x1 + 2 * _u1)
@settings(max_examples=200, deadline=None)
def test_product_matches_reference(p, q):
    expected = _product_reference(p, q)
    for prod in (p * q, q * p):
        assert prod.terms == expected
        assert all(list(mono) == sorted(mono) and len({v for v, _ in mono}) == len(mono) for mono in prod.terms)
        assert all(type(c) is int for c in prod.terms.values() if c.denominator == 1)


# --- coefficient contract: int when integral, Rat otherwise --------------------


def test_integral_coefficient_is_stored_as_int():
    p = MultiPoly.constant(Rat(4, 2))
    assert type(p.terms[()]) is int and p.terms[()] == Rat(2)
    half = MultiPoly.constant(rat(1, 2)) * MultiPoly.variable(avar(1, 2))
    doubled = 2 * half
    assert type(doubled.terms[((avar(1, 2), 1),)]) is int
    assert all(type(c) is int for c in pfaffian_poly(tuple(range(1, 9)), 3).terms.values())
    assert all(type(c) is int for c in q_poly(tuple(range(1, 7)), 1).terms.values())


def test_fractional_coefficient_stays_rat():
    p = MultiPoly.constant(rat(1, 2)) * MultiPoly.variable(avar(1, 2)) + 1
    assert isinstance(p.terms[((avar(1, 2), 1),)], Rat)
    assert p.terms[((avar(1, 2), 1),)] == rat(1, 2)
    assert str(p) == "1/2*a12 + 1"


def test_int_and_rat_valued_copies_agree():
    p = pfaffian_poly((1, 2, 3, 4, 5, 6), 2) * 3 - 1
    q = MultiPoly.__new__(MultiPoly)
    q.terms = {mono: Rat(c) for mono, c in p.terms.items()}
    assert p.terms == q.terms
    assert p == q and hash(p) == hash(q) and str(p) == str(q)
    g = random_table(6, random.Random(24))
    assert isinstance(evaluate(p, g), Rat)
    assert evaluate(p, g) == evaluate(q, g)


# --- whole-dict sums and one-term products ----------------------------------


def _sum_reference(polys, start):
    """Plain dict merge of every operand's terms; cancelled monomials dropped at the end."""
    out = dict(start.terms)
    for p in polys:
        for mono, c in p.terms.items():
            out[mono] = out.get(mono, 0) + c
    return {mono: c for mono, c in out.items() if c}


# two variables with exponents 0..2 give 9 monomials, so operands often
# overlap; half-integer coefficients can sum to an integer
_halves = st.integers(-3, 3).map(lambda k: rat(k, 2))
_half = MultiPoly.constant(rat(1, 2))


@given(
    polys(_vars[:2], _halves),
    st.lists(st.one_of(polys(_vars[:2], _halves), mixed_polys()), max_size=4),
    st.booleans(),
)
@example(MultiPoly(), [_half * _a12, _half * _a12], False)  # 1/2 + 1/2 is stored as 1
@example(_half * _a12, [_a13, -_half * _a12, _u1], False)  # disjoint, then cancelling
@example(MultiPoly(), [_a12 + _a13, _u1], True)
@settings(max_examples=200, deadline=None)
def test_sum_matches_dict_merge(start, operands, cancel):
    if cancel and operands:
        operands.append(-operands[0])
    before = [dict(p.terms) for p in [start, *operands]]
    got = sum(operands, start)
    assert got.terms == _sum_reference(operands, start)
    assert all(type(c) is int for c in got.terms.values() if c.denominator == 1)
    assert [p.terms for p in [start, *operands]] == before  # operands are not mutated


@pytest.mark.parametrize("factor", [1, -1, 2, -3, rat(1, 2), rat(-2, 3), rat(3, 2)])
def test_one_term_product_stores_integral_coefficients_as_ints(factor):
    # coefficients that a factor 2, 2/3 or 3/2 can make integral, and ints
    p = rat(1, 2) * _a13 * _u1 + rat(3, 2) * _u2 - rat(2, 3) * _x1 + 2 * _a12 * _u2 - 1
    # a constant, a monomial whose variables sort below p's (concatenated) and
    # one whose variables interleave with them
    for one in (MultiPoly.constant(factor), factor * _a12, factor * _u1 * _a12):
        assert len(one.terms) == 1
        expected = _product_reference(one, p)
        for prod in (one * p, p * one):
            assert prod.terms == expected
            assert all(type(c) is int for c in prod.terms.values() if c.denominator == 1)
            assert all(list(mono) == sorted(mono) for mono in prod.terms)
    scaled = p * factor
    assert scaled.terms == {mono: c * factor for mono, c in p.terms.items()}
    assert all(type(c) is int for c in scaled.terms.values() if c.denominator == 1)


# --- powers and substitution -------------------------------------------------


@given(polys())
@settings(max_examples=30, deadline=None)
def test_power_equals_repeated_multiplication(p):
    for k in (0, 1, 2, 5):
        expected = MultiPoly.constant(1)
        for _ in range(k):
            expected = expected * p
        assert p**k == expected


def _substitute_reference(p, mapping):
    """Term by term, one factor at a time: the textbook definition."""
    total = MultiPoly()
    for mono, c in p.terms.items():
        term = MultiPoly.constant(c)
        for v, e in mono:
            rep = mapping.get(v, MultiPoly.variable(v))
            for _ in range(e):
                term = term * rep
        total = total + term
    return total


@given(polys())
@settings(max_examples=30, deadline=None)
def test_substitute_matches_reference(p):
    a12, a13 = MultiPoly.variable(avar(1, 2)), MultiPoly.variable(avar(1, 3))
    x = MultiPoly.variable(aux_var("x"))
    mapping = {avar(1, 2): x - 2 * a13, avar(2, 3): rat(2, 3)}
    assert p.substitute(mapping) == _substitute_reference(p, mapping)
    assert p.substitute({avar(1, 3): 0, avar(2, 3): a12}) == _substitute_reference(
        p, {avar(1, 3): MultiPoly(), avar(2, 3): a12}
    )


def _mixed_mappings():
    a12, a13, a23, u1, u2, x1, y1 = (MultiPoly.variable(v) for v in _mixed_vars)
    zero = MultiPoly()
    return [
        # a13 and u1 are kept and sort between replaced variables; images
        # bring in variables that sort before the factors they replace
        {avar(1, 2): x1 - 2 * u2, avar(2, 3): rat(2, 3), contact_var(2): a12 * y1 + a13, aux_var("y", 1): u1**2 - 1},
        # the leading variable maps to zero, as a scalar and as a polynomial
        {avar(1, 2): 0, contact_var(1): a23 + x1},
        {avar(1, 2): zero, avar(1, 3): a12, aux_var("x", 1): rat(1, 2)},
        # images that merge with kept factors, and a zero image behind kept ones
        {avar(2, 3): a13 - a12, contact_var(1): zero, contact_var(2): u1},
    ]


@given(mixed_polys())
@settings(max_examples=60, deadline=None)
def test_substitute_matches_reference_on_mixed_variables(p):
    for mapping in _mixed_mappings():
        assert p.substitute(mapping) == _substitute_reference(p, mapping)


def test_substitute_powers_and_scalars():
    a12, a13, a23 = (MultiPoly.variable(avar(*ij)) for ij in ((1, 2), (1, 3), (2, 3)))
    x = MultiPoly.variable(aux_var("x"))
    p = a12**3 * a13**2 + 2 * a12 * a23**2 + a13**2
    got = p.substitute({avar(1, 2): x + 1, avar(1, 3): rat(1, 2), avar(2, 3): 3})
    assert got == rat(1, 4) * (x + 1) ** 3 + 18 * (x + 1) + rat(1, 4)
    assert p.substitute({avar(1, 2): 1, avar(1, 3): 1, avar(2, 3): 1}) == MultiPoly.constant(4)
    assert p.substitute({}) == p


# --- packed monomials ---------------------------------------------------------
#
# substitute packs each monomial into one int, the k-th variable's exponent
# at bit k * w, w the bit length of the largest degree a term reaches.  An
# exponent of exactly 2^w - 1 fills its field; one more needs another bit.

_pack_vars = [avar(1, 2), avar(1, 3), contact_var(1), aux_var("x"), aux_var("y")]
_thirds = st.integers(-4, 4).map(lambda k: rat(k, 3))


def _sparse_polys(max_terms, max_vars, max_exp):
    monos = st.dictionaries(st.sampled_from(_pack_vars), st.integers(1, max_exp), max_size=max_vars)
    return st.dictionaries(monos.map(lambda d: tuple(sorted(d.items()))), _thirds, max_size=max_terms).map(MultiPoly)


# per variable: kept (None), a scalar, a zero polynomial, or a polynomial
# that may hold kept variables, the replaced variable itself among them
_images = st.one_of(st.none(), _thirds, st.just(MultiPoly()), _sparse_polys(2, 2, 2))

_A12, _A13, _U1, _X, _Y = (MultiPoly.variable(v) for v in _pack_vars)


@given(_sparse_polys(4, 3, 3), st.lists(_images, min_size=5, max_size=5))
# x^3: top 3 = 2^2 - 1 fills the field of its one kept variable; x^4 is past it
@example(_X**3, [None] * 5)
@example(_X**4, [None] * 5)
# a13 kept and a12's image: a13^7 reaches top 7 = 2^3 - 1, a13^8 reaches top 8
@example(_A12**3 * _A13**4 - 2 * _U1, [_A13, None, None, None, None])
@example(_A12**3 * _A13**5 + _Y, [_A13, None, None, None, None])
# u1 kept, sorting between the image variables a13 and x; a13 kept too
@example(rat(2, 3) * _A12**2 * _U1 - _A13 * _U1, [_A13 - rat(1, 3) * _X, None, None, None, None])
# the top degree reached through an image: x * a12^2 -> x^3, x * a12^3 -> x^4
@example(_X * _A12**2 + _U1, [_X, None, None, None, None])
@example(_X * _A12**3 - _U1 * _Y, [_X, None, None, None, None])
@example(_A12 * _X + _A13**2, [rat(2, 3), MultiPoly(), 0, None, _U1**2])
@settings(max_examples=150, deadline=None)
def test_packed_substitution_matches_term_by_term_products(p, images):
    mapping = {v: img for v, img in zip(_pack_vars, images) if img is not None}
    assert p.substitute(mapping) == _substitute_reference(p, mapping)


def _point_map(labels, n):
    """a_ij -> sum_k x^k_i y^k_j - x^k_j y^k_i: the table of labelled points in R^{2n}."""
    x = {(k, i): MultiPoly.variable(aux_var("x", k, i)) for k in range(n) for i in labels}
    y = {(k, i): MultiPoly.variable(aux_var("y", k, i)) for k in range(n) for i in labels}
    return {
        avar(i, j): sum((x[(k, i)] * y[(k, j)] - x[(k, j)] * y[(k, i)] for k in range(n)), MultiPoly())
        for i in labels
        for j in labels
        if i < j
    }


def test_syzygies_vanish_on_point_tables():
    # every 4-label sub-Pfaffian vanishes at n = 1, so whole subtrees drop
    assert pfaffian_poly(tuple(range(1, 11)), 4).substitute(_point_map(range(1, 11), 1)).is_zero()
    assert q_poly(tuple(range(1, 7)), 1).substitute(_point_map(range(1, 7), 1)).is_zero()
    assert pfaffian_poly(tuple(range(1, 7)), 2).substitute(_point_map(range(1, 7), 2)).is_zero()


def test_plucker_does_not_vanish_in_dimension_four():
    b, mapping = pfaffian_poly((1, 2, 3, 4), 1), _point_map(range(1, 5), 2)
    got = b.substitute(mapping)
    assert not got.is_zero()
    assert got == _substitute_reference(b, mapping)


# --- shared Horner cofactors ---------------------------------------------------
#
# substitute substitutes a group of terms once per call when another group
# equal up to sign was already substituted: the sub-Pfaffian on 5..8 is the
# cofactor of a12*a34, a13*a24 (negated) and a14*a23.


def _b8_one_cofactor_flipped():
    """b_{1..8} with the cofactor b_5678 of a13*a24 negated: no syzygy, and
    its other 4-label cofactors still recur with both signs."""
    a13_a24 = MultiPoly.variable(avar(1, 3)) * MultiPoly.variable(avar(2, 4))
    return pfaffian_poly(range(1, 9), 3) - 2 * a13_a24 * pfaffian_poly((5, 6, 7, 8), 1)


def test_substitute_shares_cofactors_with_nonzero_images():
    # n = 3: no 6-label Pfaffian vanishes on points in R^6
    b6, map3 = pfaffian_poly(range(1, 7), 2), _point_map(range(1, 7), 3)
    got = b6.substitute(map3)
    assert not got.is_zero() and got == _substitute_reference(b6, map3)
    # n = 2: the 3x3 minors do not vanish on points in R^4
    q6, map2 = q_poly(range(1, 7), 1), _point_map(range(1, 7), 2)
    got = q6.substitute(map2)
    assert not got.is_zero() and got == _substitute_reference(q6, map2)
    # n = 2: the 4-label cofactors are nonzero and recur with both signs; the
    # 8-label Pfaffian vanishes, so a cofactor reused with the wrong sign shows
    map2 = _point_map(range(1, 9), 2)
    assert pfaffian_poly(range(1, 9), 3).substitute(map2).is_zero()
    flipped = _b8_one_cofactor_flipped()
    got = flipped.substitute(map2)
    assert not got.is_zero() and got == _substitute_reference(flipped, map2)


_a14, _a23, _a24, _a34, _a56 = (MultiPoly.variable(avar(*ij)) for ij in ((1, 4), (2, 3), (2, 4), (3, 4), (5, 6)))


def test_substitute_tells_cofactors_apart_by_coefficient_and_kept_factor():
    # the cofactors of a12, a13 and a14 have the same replaced factors; they
    # differ in a coefficient (a12 against a13), in sign only (a13 against
    # a14), or in a kept factor x1 (a15 against a13)
    p = (
        _a12 * (_a34 * _x1 + 2 * _a56)
        + _a13 * (_a34 * _x1 + _a56)
        - _a14 * (_a34 * _x1 + _a56)
        + MultiPoly.variable(avar(1, 5)) * (_a34 + _a56)
    )
    mapping = _point_map(range(1, 7), 2)
    assert p.substitute(mapping) == _substitute_reference(p, mapping)


@given(mixed_polys(), mixed_polys())
@example(MultiPoly.constant(1), MultiPoly.constant(-1))
@example(_u1, _u1 * _x1 - 2)
@settings(max_examples=60, deadline=None)
def test_substitute_cofactors_equal_up_to_sign(x, y):
    # X and Y multiply cofactors a34, a24, a23 that recur up to sign under
    # a12, a13 and a14; the mixed mappings replace a12, a13, a23 (scalars
    # among them, which merge terms) and keep a14, a24, a34
    p = x * (_a12 * _a34 - _a13 * _a24 + _a14 * _a23) + y * (_a12 * _a34 + _a13 * _a24)
    for mapping in _mixed_mappings():
        assert p.substitute(mapping) == _substitute_reference(p, mapping)


def test_substitute_results_share_no_state():
    b8 = pfaffian_poly(range(1, 9), 3)
    map1, map2 = _point_map(range(1, 9), 1), _point_map(range(1, 9), 2)
    first, second = b8.substitute(map2), b8.substitute(map2)
    assert first == second and first.terms is not second.terms
    assert b8.substitute(map1).is_zero()
    flipped = _b8_one_cofactor_flipped()
    expected = _substitute_reference(flipped, map2)
    # a call under another mapping, before and after, leaves each result as it was
    before = flipped.substitute(map2)
    flipped.substitute(map1)
    after = flipped.substitute(map2)
    assert before == after == expected and before.terms is not after.terms
    assert first == second  # earlier results are not touched by later calls


# --- symbolic Pfaffians ----------------------------------------------------


def test_pfaffian_poly_plucker():
    p = pfaffian_poly((1, 2, 3, 4), 1)
    a = lambda i, j: MultiPoly.variable(avar(i, j))
    assert p == a(1, 2) * a(3, 4) - a(1, 3) * a(2, 4) + a(1, 4) * a(2, 3)


def test_pfaffian_poly_n2_has_fifteen_cubic_terms():
    p = pfaffian_poly((1, 2, 3, 4, 5, 6), 2)
    assert len(p.terms) == 15
    assert all(sum(e for _, e in mono) == 3 for mono in p.terms)
    # spot-check displayed signs: +a12a34a56, -a12a35a46, +a16a25a34
    def mono(*pairs):
        return tuple(sorted((avar(i, j), 1) for (i, j) in pairs))

    assert p.terms[mono((1, 2), (3, 4), (5, 6))] == 1
    assert p.terms[mono((1, 2), (3, 5), (4, 6))] == -1
    assert p.terms[mono((1, 6), (2, 5), (3, 4))] == 1


def test_pfaffian_poly_rejects_malformed():
    with pytest.raises(ValueError):
        pfaffian_poly((1, 2, 3), 1)
    with pytest.raises(ValueError):
        pfaffian_poly((2, 1, 3, 4), 1)


@pytest.mark.parametrize(
    "call, idx, n",
    [
        (pfaffian_poly, (1, 2, 3, 4, 5), 1.5),  # 2n + 2 = 5.0: an odd Pfaffian, which would read 0
        (pfaffian_poly, (), -1),  # 2n + 2 = 0: the empty Pfaffian, which would read 1
        (pfaffian_poly, (1, 2), 0),
        (pfaffian_poly, (1, 2, 3, 4), True),
        (q_poly, (1, 2, 3, 4, 5, 6), True),  # would read as n = 1
        (q_poly, (1, 2, 3, 4, 5, 6), 1.0),
        (q_poly, (1, 2), 0),
    ],
)
def test_symbolic_syzygies_reject_a_nonsensical_n(call, idx, n):
    with pytest.raises(ValueError, match="'?n'? must"):
        call(idx, n)


@pytest.mark.parametrize(
    "idx", [(0, 1, 2, 3, 4, 5), (1, 1, 2, 3, 4, 5), (6, 5, 4, 3, 2, 1), (1, 2, 4, 3, 5, 6)]
)
def test_q_poly_rejects_malformed(idx):
    with pytest.raises(ValueError):
        q_poly(idx, 1)
    with pytest.raises(ValueError):
        q_value(random_table(6, random.Random(25)), idx, 1)


def _matchings(labels):
    if not labels:
        yield []
        return
    first, rest = labels[0], labels[1:]
    for p, j in enumerate(rest):
        for tail in _matchings(rest[:p] + rest[p + 1 :]):
            yield [(first, j)] + tail


def _crossings(matching):
    return sum(1 for (a, b) in matching for (c, d) in matching if a < c < b < d)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_pfaffian_poly_matches_matching_expansion(n):
    # Pf = sum over perfect matchings of (-1)^crossings * prod a_ij
    idx = tuple(sorted(random.Random(30 + n).sample(range(1, 2 * n + 6), 2 * n + 2)))
    expected = {}
    for matching in _matchings(idx):
        mono = tuple(sorted((avar(i, j), 1) for i, j in matching))
        expected[mono] = (-1) ** _crossings(matching)
    assert pfaffian_poly(idx, n).terms == expected


@pytest.mark.parametrize("n", [1, 2, 3])
def test_q_poly_matches_permutation_expansion(n):
    # det = sum over permutations sigma of sign(sigma) * prod_s a_{r_s, c_sigma(s)}
    k = 2 * n + 1
    idx = tuple(sorted(random.Random(40 + n).sample(range(1, 4 * n + 6), 4 * n + 2)))
    rows, cols = idx[:k], idx[k:]
    expected = {}
    for sigma in permutations(range(k)):
        mono = tuple(sorted((avar(rows[s], cols[sigma[s]]), 1) for s in range(k)))
        inversions = sum(1 for s in range(k) for t in range(s + 1, k) if sigma[s] > sigma[t])
        expected[mono] = (-1) ** inversions
    assert q_poly(idx, n).terms == expected


def _term_digest(p):
    """The terms of p in insertion order, monomials and coefficients, hashed."""
    return hashlib.sha256(repr(list(p.terms.items())).encode()).hexdigest()[:16]


# The walks write their last six labels (a Pfaffian) and three rows (a
# determinant) directly.  The digests, taken from the walk that recursed down
# to four labels and two rows, pin the terms and their insertion order, on
# labels 1.. and on spaced labels.
@pytest.mark.parametrize(
    "n, consecutive, spaced",
    [
        (1, "d538578c39bc63ad", "8c88970faa8f87e8"),
        (2, "bfb94132a27ab044", "93ee5fb719923e93"),
        (3, "a0d0814166639860", "422d4c3f5fc316d9"),
        (4, "b2a2fb94ac5e0067", "73d0d35e16102947"),
        (5, "6c5a5ed6684137c3", "4bfca608b60fb7ab"),
    ],
)
def test_pfaffian_poly_keeps_its_terms_in_walk_order(n, consecutive, spaced):
    assert _term_digest(pfaffian_poly(tuple(range(1, 2 * n + 3)), n)) == consecutive
    assert _term_digest(pfaffian_poly(tuple(range(2, 4 * n + 6, 2)), n)) == spaced


@pytest.mark.parametrize(
    "n, consecutive, spaced",
    [
        (1, "b3309cf0e3d9a24c", "2c7aa28119025d83"),
        (2, "ed19dd57dbfb00d0", "e9dc2fc406aee72a"),
        (3, "c868266e49316fd6", "893fe708bcb2870b"),
    ],
)
def test_q_poly_keeps_its_terms_in_walk_order(n, consecutive, spaced):
    assert _term_digest(q_poly(tuple(range(1, 4 * n + 3)), n)) == consecutive
    assert _term_digest(q_poly(tuple(range(3, 12 * n + 9, 3)), n)) == spaced


def test_pfaffian_kernel_over_int_matches_exact_pfaffian():
    rng = random.Random(26)
    for dim in (0, 2, 5, 8, 10):
        upper = {(i, j): rng.choice([0, 0, rng.randint(-9, 9)]) for i in range(dim) for j in range(i + 1, dim)}

        def entry(i, j):
            return upper[(i, j)] if i < j else -upper[(j, i)]

        got = _pf_expand(range(dim), entry, 0)
        assert type(got) is int
        assert got == pfaffian(SkewMatrix(dim, upper))


def test_pfaffian_poly_matches_numeric_pfaffian():
    from sympjoint.invariants import syzygy_value

    rng = random.Random(20)
    for _ in range(20):
        g = random_table(6, rng)
        assert evaluate(pfaffian_poly((1, 2, 3, 4), 1), g) == syzygy_value(g, (1, 2, 3, 4))
        assert evaluate(pfaffian_poly(tuple(range(1, 7)), 2), g) == syzygy_value(
            g, tuple(range(1, 7))
        )


def test_q_poly_matches_numeric():
    from sympjoint.invariants import q_value

    rng = random.Random(21)
    for _ in range(5):
        g = random_table(6, rng)
        assert evaluate(q_poly(tuple(range(1, 7)), 1), g) == q_value(g, tuple(range(1, 7)), 1)


def test_expansions_leave_no_reference_cycle():
    # a cycle would keep an expansion's dicts alive until a full collection
    gc.collect()
    gc.disable()
    try:
        pfaffian_poly(range(1, 13), 5)
        q_poly(range(1, 15), 3)
        assert verify_pfaffian_expansion(2)
        assert verify_weyl_reduction()
        assert verify_q_reduction()
        assert verify_resolution_tower(5)["ok"]
        assert pfaffian_poly(range(1, 9), 3).substitute(_point_map(range(1, 9), 1)).is_zero()
        s = SkewMatrix(8, {(i, j): i * j - 3 for i in range(8) for j in range(i + 1, 8)})
        _pf_expand(range(8), s.entry, Rat(0))
        assert gc.collect() == 0
    finally:
        gc.enable()


# --- the classical identities ------------------------------------------------


def test_pfaffian_expansion_identity():
    assert verify_pfaffian_expansion(1)
    assert verify_pfaffian_expansion(2)
    assert verify_pfaffian_expansion(3)
    assert verify_pfaffian_expansion(4)
    assert verify_pfaffian_expansion(5)


def test_pfaffian_expansion_guard():
    # n = 6 (14 labels) takes about half a second; n = 7 is refused
    with pytest.raises(ValueError, match="n <= 6"):
        verify_pfaffian_expansion(7)


def test_weyl_reduction_identity():
    assert verify_weyl_reduction()


def test_expansion_checks_fail_with_one_wrong_entry(monkeypatch):
    # a_13 read as -a_13 breaks the one first-row expansion behind all three
    # checks, so none of them can pass trivially
    import sympjoint.poly as poly

    signed = poly._avar_signed
    monkeypatch.setattr(poly, "_avar_signed", lambda i, j: -signed(i, j) if (i, j) == (1, 3) else signed(i, j))
    assert not verify_pfaffian_expansion(1)
    assert not verify_pfaffian_expansion(2)
    assert not verify_weyl_reduction()


def test_weyl_reduction_numeric_on_point_configs():
    # both sides vanish on tables coming from actual points in R^4
    rng = random.Random(22)
    for _ in range(10):
        g = gram(random_config(2, 8, rng))
        lhs = evaluate(_pf_poly(tuple(range(1, 9))), g)
        assert lhs == 0


def test_sign_flip_breaks_weyl():
    lhs = _pf_poly(tuple(range(1, 9)))
    rhs = MultiPoly()
    sign = 1
    for j in range(2, 9):
        rest = tuple(k for k in range(2, 9) if k != j)
        rhs = rhs + sign * MultiPoly.variable(avar(1, j)) * _pf_poly(rest)
        sign = -sign  # correct alternation
    assert rhs == lhs
    flipped = rhs - 2 * MultiPoly.variable(avar(1, 3)) * _pf_poly((2, 4, 5, 6, 7, 8))
    assert flipped != lhs


def test_q_reduction_identity():
    assert verify_q_reduction()


def test_q_reduction_dropped_term_fails():
    lhs = q_poly(tuple(range(1, 7)), 1)
    partial = (
        MultiPoly.variable(avar(1, 2)) * _pf_poly((3, 4, 5, 6))
        - MultiPoly.variable(avar(3, 4)) * _pf_poly((1, 2, 5, 6))
        + MultiPoly.variable(avar(3, 5)) * _pf_poly((1, 2, 4, 6))
    )
    assert partial != lhs


def test_q_reduction_numeric_on_free_tables():
    rng = random.Random(23)
    lhs = q_poly(tuple(range(1, 7)), 1)
    rhs = (
        MultiPoly.variable(avar(1, 2)) * _pf_poly((3, 4, 5, 6))
        - MultiPoly.variable(avar(3, 4)) * _pf_poly((1, 2, 5, 6))
        + MultiPoly.variable(avar(3, 5)) * _pf_poly((1, 2, 4, 6))
        - MultiPoly.variable(avar(3, 6)) * _pf_poly((1, 2, 4, 5))
    )
    for _ in range(10):
        g = random_table(6, rng)
        assert evaluate(lhs, g) == evaluate(rhs, g)


def test_resolution_tower_m4():
    report = verify_resolution_tower(4)
    assert report["ok"]


def test_resolution_tower_m5():
    report = verify_resolution_tower(5)
    assert report["ok"]
    assert all(report["checks"].values())
    assert len(report["checks"]) == 6  # five c_i plus d


def test_resolution_tower_rejects_other_m():
    with pytest.raises(ValueError):
        verify_resolution_tower(6)


def test_c1_displayed_form_expands_to_zero():
    # c1 = a12 b1345 - a13 b1245 + a14 b1235 - a15 b1234
    a = lambda i, j: MultiPoly.variable(avar(i, j))
    c1 = (
        a(1, 2) * _pf_poly((1, 3, 4, 5))
        - a(1, 3) * _pf_poly((1, 2, 4, 5))
        + a(1, 4) * _pf_poly((1, 2, 3, 5))
        - a(1, 5) * _pf_poly((1, 2, 3, 4))
    )
    assert c1.is_zero()
    # negating one coefficient leaves a nonzero polynomial
    broken = c1 + 2 * a(1, 5) * _pf_poly((1, 2, 3, 4))
    assert not broken.is_zero()
