import random
import re
from itertools import combinations
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sympjoint.exact import ExactMatrix, Rat, _pf_expand, rank, rat, rat_str
from sympjoint.field_generators import (
    basic_set,
    dim_d,
    eliminate_entry,
    generic_jacobian_rank,
    jacobian_rank,
    stabilizer_dim,
)
from sympjoint.invariants import GenericityError, GramTable, PointConfig, gram, random_config
from sympjoint.poly import MultiPoly, avar, evaluate
from sympjoint.symmetric import _chain_rows, q_sequence


def test_dim_d_known_values():
    assert dim_d(4, 1) == 5
    assert dim_d(5, 1) == 7
    for m in range(2, 9):
        assert dim_d(m, 1) == 2 * m - 3
    assert dim_d(2, 2) == 1


def test_dim_d_boundary_consistency():
    for n in (1, 2, 3):
        m = 2 * n
        assert 2 * n * m - n * (2 * n + 1) == comb(m, 2) == dim_d(m, n)


@pytest.mark.parametrize("n", [True, 1.0, "1"])
def test_dim_d_refuses_an_n_that_only_looks_like_an_int(n):
    # the type is checked before the range, whose wording stays
    with pytest.raises(ValueError, match=f"^'n' must be an integer, got {re.escape(repr(n))}$"):
        dim_d(3, n)
    with pytest.raises(ValueError, match="^need m >= 1 and n >= 1$"):
        dim_d(0, 1)


def test_basic_set_layout():
    bs = basic_set(4, 1)
    assert bs.pairs == ((1, 2), (1, 3), (1, 4), (2, 3), (2, 4))
    assert len(bs.pairs) == dim_d(4, 1)
    assert basic_set(3, 2).pairs == ((1, 2), (1, 3), (2, 3))
    assert len(basic_set(6, 2).pairs) == 14 == dim_d(6, 2)


def test_eliminate_entry_n1_closed_form():
    rng = random.Random(50)
    for _ in range(10):
        vals = {
            (i, j): Rat(rng.randint(-9, 9)) for i in range(1, 5) for j in range(i + 1, 5)
        }
        if vals[(1, 2)] == 0:
            continue
        got = eliminate_entry(vals, 3, 4, 1)
        expected = (vals[(1, 3)] * vals[(2, 4)] - vals[(1, 4)] * vals[(2, 3)]) / vals[(1, 2)]
        assert got == expected


def _a56_displayed(a):
    """The closed form for a56 as displayed, used as an independent oracle."""
    num = (
        a[(1, 2)] * a[(3, 5)] * a[(4, 6)]
        - a[(1, 2)] * a[(3, 6)] * a[(4, 5)]
        - a[(1, 3)] * a[(2, 5)] * a[(4, 6)]
        + a[(1, 3)] * a[(2, 6)] * a[(4, 5)]
        + a[(1, 4)] * a[(2, 5)] * a[(3, 6)]
        - a[(1, 4)] * a[(2, 6)] * a[(3, 5)]
        + a[(1, 5)] * a[(2, 3)] * a[(4, 6)]
        - a[(1, 5)] * a[(2, 4)] * a[(3, 6)]
        + a[(1, 5)] * a[(2, 6)] * a[(3, 4)]
        - a[(1, 6)] * a[(2, 3)] * a[(4, 5)]
        + a[(1, 6)] * a[(2, 4)] * a[(3, 5)]
        - a[(1, 6)] * a[(2, 5)] * a[(3, 4)]
    )
    den = a[(1, 2)] * a[(3, 4)] - a[(1, 3)] * a[(2, 4)] + a[(1, 4)] * a[(2, 3)]
    return num / den


def test_eliminate_entry_n2_matches_displayed_formula():
    rng = random.Random(51)
    done = 0
    while done < 20:
        cfg = random_config(2, 6, rng)
        g = gram(cfg)
        a = {(i, j): g.value(i, j) for i in range(1, 7) for j in range(i + 1, 7)}
        den = a[(1, 2)] * a[(3, 4)] - a[(1, 3)] * a[(2, 4)] + a[(1, 4)] * a[(2, 3)]
        if den == 0:
            continue
        got = eliminate_entry(g, 5, 6, 2)
        assert got == _a56_displayed(a)
        assert got == g.value(5, 6)  # agrees with the true invariant
        done += 1


def test_eliminate_entry_agrees_with_gram_n1():
    rng = random.Random(52)
    for _ in range(10):
        cfg = random_config(1, 5, rng)
        g = gram(cfg)
        if g.value(1, 2) == 0:
            continue
        for (k, l) in ((3, 4), (3, 5), (4, 5)):
            assert eliminate_entry(g, k, l, 1) == g.value(k, l)
            assert eliminate_entry(dict(g.values), k, l, 1) == g.value(k, l)


def test_eliminate_entry_zero_denominator():
    vals = {(i, j): Rat(0) for i in range(1, 5) for j in range(i + 1, 5)}
    del vals[(3, 4)]
    with pytest.raises(GenericityError):
        eliminate_entry(vals, 3, 4, 1)


def test_eliminate_entry_rejects_labels_past_its_table():
    g = gram(random_config(1, 6, seed=1))
    with pytest.raises(ValueError, match=r"^indices out of range 1\.\.6: \(1, 2, 5, 9\)$"):
        eliminate_entry(g, 5, 9, 1)
    with pytest.raises(ValueError, match=r"^expected 2n < k < l, got k=2, l=5 for n=1$"):
        eliminate_entry(g, 2, 5, 1)
    with pytest.raises(ValueError, match=r"^n must be >= 1$"):
        eliminate_entry(g, 5, 6, 0)


def test_eliminate_entry_names_a_missing_entry():
    with pytest.raises(ValueError, match=r"^known lacks a13$"):
        eliminate_entry({(1, 2): 1}, 3, 4, 1)
    known = {(i, j): 1 for i in range(1, 13) for j in range(i + 1, 13)}
    del known[(3, 12)]
    with pytest.raises(ValueError, match=r"^known lacks a3_12$"):
        eliminate_entry(known, 11, 12, 5)
    # a table given as a GramTable is read the same way
    with pytest.raises(ValueError, match=r"^known lacks a14$"):
        eliminate_entry(GramTable(4, {(1, 2): 1, (1, 3): 2, (2, 3): 1}), 3, 4, 1)
    # the unknown entry itself may be absent or present with any value
    full = {(1, 2): 1, (1, 3): 2, (2, 3): 1, (1, 4): 1, (2, 4): 3}
    assert eliminate_entry(full, 3, 4, 1) == eliminate_entry({**full, (3, 4): 99}, 3, 4, 1) == 5


def test_stabilizer_dims_match_binomial_formula():
    rng = random.Random(53)
    for n in (1, 2, 3):
        assert stabilizer_dim([], n) == comb(2 * n + 1, 2)
        for k in range(1, 2 * n + 1):
            pts = [tuple(Rat(rng.randint(-9, 9)) for _ in range(2 * n)) for _ in range(k)]
            assert stabilizer_dim(pts, n) == comb(2 * n - k + 1, 2)


def test_stabilizer_trivial_at_k_equals_2n():
    rng = random.Random(54)
    pts = [tuple(Rat(rng.randint(-9, 9)) for _ in range(2)) for _ in range(2)]
    assert stabilizer_dim(pts, 1) == 0


def linear_system_stabilizer_dim(points, n):
    """Reference: S = J H with H symmetric, so S A_i = 0 is the linear system
    H A_i = 0 on the C(2n+1, 2) entries of H; the dimension is its nullity."""
    dim = 2 * n
    unknowns = [(p, q) for p in range(dim) for q in range(p, dim)]
    rows = []
    for A in points:
        for p in range(dim):
            row = []
            for (p1, q1) in unknowns:
                if p1 == q1:
                    row.append(A[p1] if p1 == p else Rat(0))
                elif p1 == p:
                    row.append(A[q1])
                elif q1 == p:
                    row.append(A[p1])
                else:
                    row.append(Rat(0))
            rows.append(row)
    return len(unknowns) - rank(ExactMatrix(rows))


def _e(n, k):
    """The k-th standard basis vector of R^{2n} (x^1..x^n, y^1..y^n)."""
    return tuple(int(i == k) for i in range(2 * n))


NONGENERIC_TUPLES = [
    (1, [(1, 2), (1, 2)]),  # repeated point
    (1, [(0, 0)]),  # zero vector
    (1, [(0, 0), (0, 0), (0, 0), (0, 0)]),  # k = 2n + 2 zeros
    (1, [(1, 2), (2, 4), ("-1/2", -1), (0, 0)]),  # a line, k = 2n + 2
    (1, [("1/3", "2/7"), ("5/2", -3)]),  # "p/q" coordinates
    (2, [_e(2, 0), _e(2, 1)]),  # isotropic: x^1, x^2 (Lagrangian)
    (2, [_e(2, 0), _e(2, 1), (1, 1, 0, 0)]),  # Lagrangian plane, three points
    (2, [_e(2, 0), _e(2, 3)]),  # isotropic: x^1, y^2
    (2, [_e(2, 0), _e(2, 2)]),  # a symplectic pair x^1, y^1
    (2, [_e(2, 0), _e(2, 0), (0, 0, 0, 0), (2, 0, 0, 0), ("1/2", 0, 0, 0), (-1, 0, 0, 0)]),
    (2, [(1, "1/2", "-3/4", 2), (2, 1, "-3/2", 4), ("2/3", 0, 1, "1/5")]),
    (3, [_e(3, 0), _e(3, 1), _e(3, 2)]),  # Lagrangian x^1, x^2, x^3
    (3, [_e(3, 0), _e(3, 1), _e(3, 2), (1, 1, 1, 0, 0, 0), (0, 0, 0, 0, 0, 0)]),
    (3, [_e(3, k) for k in range(6)] + [(1,) * 6, (0,) * 6]),  # spanning, k = 2n + 2
    (3, [_e(3, 0), _e(3, 4), (1, 0, 0, 0, "7/3", 0)]),  # isotropic x^1, y^2 and a sum
]


@pytest.mark.parametrize("n,points", NONGENERIC_TUPLES)
def test_stabilizer_dim_matches_linear_system_nongeneric(n, points):
    assert stabilizer_dim(points, n) == linear_system_stabilizer_dim(points, n)


def test_stabilizer_dim_matches_linear_system_random_degenerate():
    rng = random.Random(55)
    for _ in range(150):
        n = rng.randint(1, 3)
        basis = [tuple(rng.randint(-2, 2) for _ in range(2 * n)) for _ in range(rng.randint(0, 2 * n))]
        points = []
        for _ in range(rng.randint(0, 2 * n + 2)):
            coeffs = [Rat(rng.randint(-3, 3), rng.randint(1, 3)) for _ in basis]
            points.append(tuple(sum((c * b[i] for c, b in zip(coeffs, basis)), Rat(0)) for i in range(2 * n)))
        assert stabilizer_dim(points, n) == linear_system_stabilizer_dim(points, n)


@pytest.mark.parametrize("n", [0, -3])
def test_stabilizer_dim_needs_n_at_least_one(n):
    with pytest.raises(ValueError, match="n must be >= 1"):
        stabilizer_dim([], n)


def test_stabilizer_dim_names_a_point_of_the_wrong_length():
    with pytest.raises(ValueError, match=r"^point of length 3, expected 2$"):
        stabilizer_dim([(1, 0), (1, 2, 3)], 1)


def test_jacobian_rank_known_values():
    assert generic_jacobian_rank(5, 1, seed=1) == 7
    assert generic_jacobian_rank(4, 1, seed=2) == 5
    assert generic_jacobian_rank(2, 2, seed=3) == 1


def test_jacobian_rank_matches_dim_d_everywhere():
    for n in (1, 2):
        for m in range(2, 7):
            assert generic_jacobian_rank(m, n, seed=10 * m + n) == dim_d(m, n)
    assert jacobian_rank(random_config(1, 1, random.Random(0))) == 0
    # the pair rows would be 44,850 rows of 1,800 columns
    assert generic_jacobian_rank(300, 3) == dim_d(300, 3) == 1779


@pytest.mark.parametrize("m,n", [(1, 1), (2, 3), (4, 1), (5, 2), (9, 2)])
@pytest.mark.parametrize("seed", [0, 1, 313])
def test_generic_jacobian_rank_reads_the_stream_of_random_config(m, n, seed):
    # the int sampler draws what random_config draws, sample by sample
    for samples in (1, 3):
        rng = random.Random(seed)
        expected = max(jacobian_rank(random_config(n, m, rng)) for _ in range(samples))
        assert generic_jacobian_rank(m, n, seed, samples) == expected


def test_jacobian_rank_at_special_configuration():
    # all points on an isotropic line: every invariant vanishes identically
    cfg_pts = tuple((Rat(k), Rat(0)) for k in range(1, 4))
    from sympjoint.invariants import PointConfig

    assert jacobian_rank(PointConfig(1, cfg_pts)) < dim_d(3, 1)


def rat_pair_jacobian(config):
    """The Jacobian rows as first written: partials of each a_ij in `Rat`,
    blocks from point 1 to point m, unscaled."""
    n, m = config.n, config.m
    zero = (Rat(0),) * (2 * n)
    rows = []
    for i, j in combinations(range(1, m + 1), 2):
        Ai, Aj = config.point(i), config.point(j)
        blocks = [zero] * m
        blocks[i - 1] = Aj[n:] + tuple(-c for c in Aj[:n])
        blocks[j - 1] = tuple(-c for c in Ai[n:]) + Ai[:n]
        rows.append([c for block in blocks for c in block])
    return rows


@given(st.integers(1, 3), st.integers(1, 7), st.sampled_from(["generic", "repeated", "zero", "collinear"]), st.data())
@settings(max_examples=150, deadline=None)
def test_integer_jacobian_rank_matches_the_rat_rows(n, m, special, data):
    coord = st.builds(Rat, st.integers(-6, 6), st.integers(1, 4))
    pts = [tuple(data.draw(coord) for _ in range(2 * n)) for _ in range(m)]
    if m > 1 and special != "generic":
        k = data.draw(st.integers(0, m - 1))
        base = pts[data.draw(st.integers(0, m - 1))]
        pts[k] = {
            "repeated": base,
            "zero": (Rat(0),) * (2 * n),
            "collinear": tuple(data.draw(coord) * c for c in base),
        }[special]
    cfg = PointConfig(n, tuple(pts))
    rows = rat_pair_jacobian(cfg)
    assert jacobian_rank(cfg) == (rank(ExactMatrix(rows)) if rows else 0)


@st.composite
def low_rank_configs(draw):
    """Points in a k-dimensional subspace, k = 0..2n: a random one, or for
    k <= n the isotropic span(x^1..x^k), with zero and repeated points."""
    n = draw(st.integers(1, 3))
    k = draw(st.integers(0, 2 * n))
    if k <= n and draw(st.booleans()):
        basis = [_e(n, b) for b in range(k)]
    else:
        basis = [tuple(draw(st.integers(-3, 3)) for _ in range(2 * n)) for _ in range(k)]
    pts = []
    for _ in range(draw(st.integers(1, 3 * n + 3))):
        kind = draw(st.sampled_from(["span", "zero", "repeated"]))
        if kind == "repeated" and pts:
            pts.append(draw(st.sampled_from(pts)))
        elif kind == "zero":
            pts.append((Rat(0),) * (2 * n))
        else:
            coeffs = [Rat(draw(st.integers(-3, 3)), draw(st.integers(1, 3))) for _ in basis]
            pts.append(tuple(sum((c * b[i] for c, b in zip(coeffs, basis)), Rat(0)) for i in range(2 * n)))
    return PointConfig(n, tuple(pts)), k


@given(low_rank_configs())
@settings(max_examples=150, deadline=None)
def test_jacobian_rank_of_points_in_a_subspace_matches_the_pair_rows(cfg_k):
    cfg, k = cfg_k
    assert rank(ExactMatrix(cfg.points)) <= k
    rows = rat_pair_jacobian(cfg)
    assert jacobian_rank(cfg) == (rank(ExactMatrix(rows)) if rows else 0)


@pytest.mark.parametrize("m,n", [(m, n) for n in (1, 2) for m in range(2, 6)])
def test_q_sequence_chain_rows_match_the_pair_rows(m, n):
    # the direct chain rule of q_sequence against sum_ij dq/da_ij times the
    # oracle's pair row, for the q's and for each a_ij itself
    polys = q_sequence(m, n)["polys"] + [MultiPoly.variable(avar(i, j)) for i, j in combinations(range(1, m + 1), 2)]
    grads = [[(v[1:], p.derivative(v).terms) for v in p.variables()] for p in polys]
    rng = random.Random(10 * m + n)
    for _ in range(3):
        cfg = random_config(n, m, rng)
        pts, d = cfg._ints
        assert d == 1
        table, pair_rows = gram(cfg), dict(zip(combinations(range(1, m + 1), 2), rat_pair_jacobian(cfg)))
        expected = []
        for p in polys:
            row = [Rat(0)] * (2 * n * m)
            for v in p.variables():
                x = evaluate(p.derivative(v), table)
                row = [r + x * c for r, c in zip(row, pair_rows[v[1:]])]
            expected.append(row)
        assert _chain_rows(grads, pts, n) == expected


def test_jacobian_rank_of_spanning_points_is_the_fibre_count():
    # orbit-stabilizer: for spanning points the fibre of A -> (a_ij) is the orbit
    rng = random.Random(56)
    configs = [PointConfig(n, tuple(p)) for n, p in NONGENERIC_TUPLES if rank(ExactMatrix(p)) == 2 * n]
    configs += [random_config(n, m, rng) for n in (1, 2, 3) for m in range(2 * n, 2 * n + 4)]
    for cfg in configs:
        n, m = cfg.n, cfg.m
        assert rank(ExactMatrix(cfg.points)) == 2 * n
        assert jacobian_rank(cfg) == 2 * n * m - n * (2 * n + 1) + stabilizer_dim(cfg.points, n)
    assert len(configs) == 14


def _eliminate_in_fractions(values, k, l, n):
    """The elimination as first written: -Pf0/Pf by one Rat expansion each,
    one rat() per entry read; None when the denominator Pfaffian vanishes."""
    idx = tuple(range(1, 2 * n + 1))

    def entry(i, j):
        return Rat(0) if (i, j) == (k, l) else rat(values[(i, j)])

    const = _pf_expand(idx + (k, l), entry, Rat(0))
    coeff = _pf_expand(idx, entry, Rat(0))
    return None if coeff == 0 else -const / coeff


@given(st.integers(1, 2), st.sampled_from(["table", "dict", "strings"]), st.data())
@settings(max_examples=80, deadline=None)
def test_eliminate_entry_equals_the_fraction_expansion(n, form, data):
    m = data.draw(st.integers(2 * n + 2, 2 * n + 3))
    k = data.draw(st.integers(2 * n + 1, m - 1))
    l = data.draw(st.integers(k + 1, m))
    entry = st.builds(Rat, st.integers(-9, 9), st.integers(1, 12))  # mixed denominators
    values = {(i, j): data.draw(entry) for i in range(1, m + 1) for j in range(i + 1, m + 1)}
    known = {
        "table": GramTable(m, values),
        "dict": values,
        "strings": {p: rat_str(v) for p, v in values.items()},
    }[form]
    expected = _eliminate_in_fractions(values, k, l, n)
    if expected is None:
        with pytest.raises(GenericityError):
            eliminate_entry(known, k, l, n)
    else:
        assert eliminate_entry(known, k, l, n) == expected


@given(st.integers(2, 3), st.data())
@settings(max_examples=60, deadline=None)
def test_eliminate_entry_past_a_vanishing_leading_pair(n, data):
    # a12 = 0 (and a13 = 0 half the time) while b_1..2n need not vanish: the
    # condensation swaps a later label in past the vanishing pivot
    m = data.draw(st.integers(2 * n + 2, 2 * n + 3))
    k = data.draw(st.integers(2 * n + 1, m - 1))
    l = data.draw(st.integers(k + 1, m))
    entry = st.builds(Rat, st.integers(-9, 9), st.integers(1, 12))
    values = {(i, j): data.draw(entry) for i in range(1, m + 1) for j in range(i + 1, m + 1)}
    values[1, 2] = Rat(0)
    if data.draw(st.booleans()):
        values[1, 3] = Rat(0)
    expected = _eliminate_in_fractions(values, k, l, n)
    if expected is None:
        with pytest.raises(GenericityError):
            eliminate_entry(GramTable(m, values), k, l, n)
    else:
        assert eliminate_entry(GramTable(m, values), k, l, n) == eliminate_entry(values, k, l, n) == expected


def test_eliminate_entry_with_vanishing_a12_by_hand():
    # n = 2 on e1, e2, f1, f2, ...: a12 = 0 and b_1234 = a13 a24 - a14 a23 = 1
    cfg = PointConfig(2, ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1), (1, 2, 3, 4), (2, -1, 1, 3)))
    g = gram(cfg)
    assert g.value(1, 2) == 0
    assert eliminate_entry(g, 5, 6, 2) == g.value(5, 6)


def test_eliminate_entry_is_polynomial_in_n():
    import time

    n = 12
    cfg = random_config(n, 2 * n + 2, seed=1)
    g = gram(cfg)
    start = time.perf_counter()
    value = eliminate_entry(g, 2 * n + 1, 2 * n + 2, n)
    assert time.perf_counter() - start < 1.0
    assert value == g.value(2 * n + 1, 2 * n + 2)
