import random
import re
from itertools import combinations, permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sympjoint.exact import ExactMatrix, Rat, _pf_expand, det, pfaffian, random_symplectic, rank, symp
from sympjoint.field_generators import eliminate_entry, stabilizer_dim
from sympjoint.invariants import (
    ContactConfig,
    ContactPoint,
    GramTable,
    PointConfig,
    _check_vanishing,
    _failed,
    _leading,
    _rank,
    _skew_rows,
    all_min_syzygies,
    config_from_dict,
    config_to_dict,
    gram,
    q_value,
    random_config,
    syzygy_value,
)
from sympjoint.normal_form import _relations
from sympjoint.poly import pfaffian_poly, q_poly, verify_pfaffian_expansion


def test_gram_hand_values():
    cfg = PointConfig(1, ((1, 0), (0, 1)))
    assert gram(cfg).value(1, 2) == 1
    cfg = PointConfig(1, ((1, 0), (0, 5), (2, 3)))
    g = gram(cfg)
    # x_i y_j - x_j y_i by hand
    assert g.value(1, 2) == 5
    assert g.value(1, 3) == 3
    assert g.value(2, 3) == -10
    assert g.value(3, 2) == 10
    assert g.value(2, 2) == 0


def test_gram_invariance_under_symplectic():
    rng = random.Random(10)
    for n in (1, 2, 3):
        cfg = random_config(n, 5, rng)
        m = random_symplectic(n, 12, seed=rng.randint(0, 10**6))
        assert gram(cfg.transform(m)) == gram(cfg)


def test_gram_permutation_equivariance():
    rng = random.Random(11)
    cfg = random_config(1, 4, rng)
    g = gram(cfg)
    for perm in permutations(range(1, 5)):
        gp = gram(cfg.permute(list(perm)))
        for i in range(1, 5):
            for j in range(1, 5):
                assert gp.value(i, j) == g.value(perm[i - 1], perm[j - 1])


def test_syzygy_value_vanishes_on_point_tables():
    rng = random.Random(12)
    g1 = gram(random_config(1, 4, rng))
    assert syzygy_value(g1, (1, 2, 3, 4)) == 0
    g2 = gram(random_config(2, 6, rng))
    assert syzygy_value(g2, (1, 2, 3, 4, 5, 6)) == 0


def test_gram_table_equality_is_total_on_partial_tables():
    partial = GramTable(3, {(1, 2): 1})
    assert partial == GramTable(3, {(1, 2): 1})
    assert partial != GramTable(3, {(1, 2): 2})
    assert partial != GramTable(2, {(1, 2): 1})
    assert gram(PointConfig(1, ((1, 0), (0, 1)))) == GramTable(2, {(1, 2): 1})


PARTIAL = GramTable(4, {(1, 2): 1, (3, 4): 2})


def test_value_names_a_pair_missing_from_the_table():
    with pytest.raises(ValueError, match=r"^a13 has no value in the table$"):
        PARTIAL.value(1, 3)
    with pytest.raises(ValueError, match=r"^a13 has no value in the table$"):
        PARTIAL.value(3, 1)
    with pytest.raises(ValueError, match=r"^a3_12 has no value in the table$"):
        GramTable(12, {(1, 2): 1}).value(12, 3)
    assert (PARTIAL.value(1, 2), PARTIAL.value(4, 3), PARTIAL.value(2, 2)) == (1, -2, 0)


def test_repr_names_a_two_digit_label_with_an_underscore():
    assert repr(GramTable(12, {(3, 12): 1})) == "GramTable(m=12, a3_12=1)"
    assert repr(GramTable(3, {(1, 2): "1/2", (2, 3): -4})) == "GramTable(m=3, a12=1/2, a23=-4)"


def test_subtable_names_a_pair_missing_from_the_table():
    with pytest.raises(ValueError, match=r"^a13 has no value in the table$"):
        PARTIAL.subtable((1, 2, 3))
    assert PARTIAL.subtable((4, 3)).entry(0, 1) == -2


def test_syzygy_value_names_a_pair_missing_from_the_table():
    with pytest.raises(ValueError, match=r"^a13 has no value in the table$"):
        syzygy_value(PARTIAL, (1, 2, 3, 4))


def test_q_value_names_a_pair_missing_from_the_table():
    with pytest.raises(ValueError, match=r"^a14 has no value in the table$"):
        q_value(GramTable(6, {(1, 2): 1}), (1, 2, 3, 4, 5, 6), 1)


def test_relations_are_empty_exactly_when_the_points_span():
    spanning = ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1), (1, 1, 1, 1))
    assert _relations(spanning, 2, False) == ()
    assert _relations(spanning[:3], 2, True) == ()  # the caller's proof is trusted
    # (1, 0), (2, 0), (3, 0): the RREF nullspace basis (-2, 1, 0), (-3, 0, 1)
    flat = ((Rat(1), Rat(0)), (Rat(2), Rat(0)), (Rat(3), Rat(0)))
    assert _relations(flat, 1, False) == (-2, 1, 0, -3, 0, 1)


def test_syzygy_value_nonzero_on_free_table():
    # unconstrained skew 4x4 has nonzero Pfaffian generically
    g = GramTable(4, {(1, 2): 1, (1, 3): 2, (1, 4): 3, (2, 3): 4, (2, 4): 5, (3, 4): 6})
    assert syzygy_value(g, (1, 2, 3, 4)) == 8


def test_syzygy_value_rejects_malformed_tuples():
    g = gram(random_config(1, 5, random.Random(0)))
    with pytest.raises(ValueError):
        syzygy_value(g, (1, 2, 3))
    with pytest.raises(ValueError):
        syzygy_value(g, (4, 3, 2, 1))
    with pytest.raises(ValueError):
        syzygy_value(g, (1, 2, 3, 9))


@pytest.mark.parametrize(
    "call, length",
    [
        (lambda g, idx: pfaffian_poly(idx, 1), 4),
        (lambda g, idx: q_poly(idx, 1), 6),
        (lambda g, idx: syzygy_value(g, idx), 4),
        (lambda g, idx: q_value(g, idx, 1), 6),
    ],
    ids=["pfaffian_poly", "q_poly", "syzygy_value", "q_value"],
)
@pytest.mark.parametrize("label, at", [(1.5, 0), (True, 0), (Rat(2), 1), ("6", -1), (None, -1)])
def test_non_int_labels_are_rejected_by_name(call, length, label, at):
    # one label check for the numeric and symbolic syzygies; a bool is no label
    g = gram(random_config(1, 6, seed=1))
    idx = list(range(1, length + 1))
    idx[at] = label
    with pytest.raises(ValueError, match=rf"^indices must be ints, got {re.escape(repr(label))} in "):
        call(g, tuple(idx))


def test_all_min_syzygies():
    rng = random.Random(13)
    vals = all_min_syzygies(random_config(1, 5, rng))
    assert len(vals) == 5  # C(5, 4)
    assert all(v == 0 for _, v in vals)
    vals = all_min_syzygies(random_config(1, 4, rng))
    assert len(vals) == 1 and vals[0][1] == 0
    assert all_min_syzygies(random_config(2, 5, rng)) == []  # 5 < 2n+2


def test_q_value_vanishes_on_points():
    rng = random.Random(14)
    g = gram(random_config(1, 6, rng))
    assert q_value(g, (1, 2, 3, 4, 5, 6), 1) == 0
    g2 = gram(random_config(2, 10, rng))
    assert q_value(g2, tuple(range(1, 11)), 2) == 0


def test_q_value_rejects_malformed_tuples():
    g = gram(random_config(1, 7, random.Random(16)))
    with pytest.raises(ValueError):
        q_value(g, (1, 2, 3, 4, 5), 1)  # wrong length
    with pytest.raises(ValueError):
        q_value(g, (2, 1, 3, 4, 5, 6), 1)  # not ascending


@given(data=st.data())
@settings(max_examples=50, deadline=None)
def test_q_value_is_the_determinant_of_the_values(data):
    # mixed denominators: the determinant of the integer entries is scaled back by den^(2n+1)
    m = data.draw(st.integers(6, 8))
    g = GramTable(m, {p: data.draw(FRACTIONS) for p in combinations(range(1, m + 1), 2)})
    idx = sorted(data.draw(st.sets(st.integers(1, m), min_size=6, max_size=6)))
    assert q_value(g, idx, 1) == det(ExactMatrix([[g.value(idx[s], idx[t + 3]) for t in range(3)] for s in range(3)]))


def test_q_value_nonzero_on_free_table():
    rng = random.Random(15)
    g = GramTable(
        6,
        {(i, j): Rat(rng.randint(1, 9)) for i in range(1, 7) for j in range(i + 1, 7)},
    )
    # q = a12 b3456 - a34 b1256 + a35 b1246 - a36 b1245 on any skew table
    def b(i, j, k, l):
        return (
            g.value(i, j) * g.value(k, l)
            - g.value(i, k) * g.value(j, l)
            + g.value(i, l) * g.value(j, k)
        )

    expected = (
        g.value(1, 2) * b(3, 4, 5, 6)
        - g.value(3, 4) * b(1, 2, 5, 6)
        + g.value(3, 5) * b(1, 2, 4, 6)
        - g.value(3, 6) * b(1, 2, 4, 5)
    )
    got = q_value(g, (1, 2, 3, 4, 5, 6), 1)
    assert got == expected
    assert got != 0


def test_duplicate_points_allowed():
    cfg = PointConfig(1, ((1, 2), (1, 2), (3, 4), (0, 1)))
    assert all(v == 0 for _, v in all_min_syzygies(cfg))


def test_config_json_round_trip():
    cfg = PointConfig(2, (("1/2", 0, 3, "2.5"), (1, 2, 3, 4)))
    again = config_from_dict(config_to_dict(cfg))
    assert again == cfg
    assert again.point(1)[3] == Rat(5, 2)
    with pytest.raises(ValueError):
        config_from_dict({"points": [[1, 2]]})
    with pytest.raises(TypeError):
        config_from_dict({"n": 1, "points": [[0.5, 1]]})


@st.composite
def free_tables(draw):
    """A Gram table with independent small entries (zeros included), m <= 8."""
    m = draw(st.integers(2, 8))
    pairs = [(i, j) for i in range(1, m + 1) for j in range(i + 1, m + 1)]
    return GramTable(m, {p: draw(st.integers(-4, 4)) for p in pairs})


def _chain(g, n):
    """The leading Pfaffians b_{1..2k}, k <= min(n, m/2), of a table, named, as `Rat`s."""
    pfs = _leading(_skew_rows(g.ints, range(1, 2 * min(n, g.m // 2) + 1)))
    names = ["a12" if k == 1 else "b" + "".join([str(i) for i in range(1, 2 * k + 1)]) for k in range(1, len(pfs) + 1)]
    return [(name, Rat(v, g.den**k)) for k, (name, v) in enumerate(zip(names, pfs), 1)]


@given(g=free_tables(), n=st.integers(1, 4), data=st.data())
@settings(max_examples=100, deadline=None)
def test_chain_and_syzygy_value_are_subtable_pfaffians(g, n, data):
    for k, (_, value) in enumerate(_chain(g, n), 1):
        assert value == pfaffian(g.subtable(tuple(range(1, 2 * k + 1))))
    if g.m >= 4:
        size = data.draw(st.sampled_from(range(4, g.m + 1, 2)))
        idx = sorted(data.draw(st.sets(st.integers(1, g.m), min_size=size, max_size=size)))
        assert syzygy_value(g, idx) == pfaffian(g.subtable(idx))


def test_chain_pivots_past_vanishing_leading_pfaffians():
    # mostly-zero entries, a12 .. a1r zero: a vanishing pivot P(e, e+1) makes
    # the condensation swap in a later label, or find a zero row
    rng, pick = random.Random(2), random.Random(3)
    for _ in range(1500):
        m, n = rng.randint(2, 10), rng.randint(1, 5)
        values = {p: rng.choice([0, 0, 0, 0, 1, -1, 2]) for p in combinations(range(1, m + 1), 2)}
        g = GramTable(m, values | {(1, j): 0 for j in range(2, rng.randint(2, m + 1))})
        chain = _chain(g, n)
        assert len(chain) == min(n, m // 2)
        assert _failed(g, n) == tuple([f"{name} = 0" for name, value in chain if value == 0])
        for k, (_, value) in enumerate(chain, 1):
            assert value == _pf_expand(tuple(range(1, 2 * k + 1)), g.value, Rat(0))
        if m >= 5:
            # syzygy_value runs the same condensation on positions of labels
            # other than 1..2k: an ascending subset without label 1
            idx = tuple(sorted(pick.sample(range(2, m + 1), pick.choice(range(4, m, 2)))))
            assert syzygy_value(g, idx) == _pf_expand(idx, g.value, Rat(0))


def test_chain_names_survive_a_swapped_pivot():
    # a12 = 0 and a13 != 0: label 3 is swapped in, b1234 = a14 a23 - a13 a24
    g = GramTable(4, {(1, 2): 0, (1, 3): 1, (1, 4): 0, (2, 3): 0, (2, 4): 1, (3, 4): 5})
    assert _chain(g, 2) == [("a12", 0), ("b1234", -1)]
    assert _failed(g, 2) == ("a12 = 0",)
    # row 1 vanishes on labels 2..4 only: b1234 = 0 although the labels 1, 5,
    # 3, 4 the condensation then holds have a nonzero Pfaffian
    nonzero = {(1, 5): 1, (2, 3): 1, (2, 6): 1, (3, 4): 1, (4, 6): 1}
    g = GramTable(6, {p: nonzero.get(p, 0) for p in combinations(range(1, 7), 2)})
    assert _chain(g, 3) == [("a12", 0), ("b1234", 0), ("b123456", -2)]
    assert _failed(g, 3) == ("a12 = 0", "b1234 = 0")


def test_chain_at_a_size_the_expansion_cannot_reach():
    # Pf(a | 1..2k)^2 = det(a | 1..2k); Bareiss is polynomial in the size
    g = gram(random_config(20, 40, seed=20))
    chain = _chain(g, 20)
    assert [name for name, _ in chain][-1] == "b" + "".join([str(i) for i in range(1, 41)])
    for k, (_, value) in enumerate(chain, 1):
        assert value**2 == det(g.subtable(tuple(range(1, 2 * k + 1))).full())
    for idx in (tuple(range(1, 41)), tuple(sorted(random.Random(30).sample(range(1, 41), 30)))):
        assert syzygy_value(g, idx) ** 2 == det(g.subtable(idx).full())
    assert syzygy_value(g, range(1, 41)) == chain[-1][1]


# p/q with q in 1..12: the integer path clears these denominators
FRACTIONS = st.builds(Rat, st.integers(-9, 9), st.integers(1, 12))


@st.composite
def rational_configs(draw, max_n=2):
    """Points with p/q coordinates, zero points and repeated points included:
    n <= max_n, up to max(7, 2n + 3) points drawn, then up to two repeated."""
    n = draw(st.integers(1, max_n))
    point = st.one_of(st.just((Rat(0),) * (2 * n)), st.tuples(*[FRACTIONS] * (2 * n)))
    pts = draw(st.lists(point, min_size=1, max_size=max(7, 2 * n + 3)))
    pts += [pts[k] for k in draw(st.lists(st.sampled_from(range(len(pts))), max_size=2))]
    return PointConfig(n, tuple(pts))


@st.composite
def rational_tables(draw):
    """A Gram table with independent p/q entries of mixed denominators, m <= 8."""
    m = draw(st.integers(2, 8))
    return GramTable(m, {p: draw(FRACTIONS) for p in combinations(range(1, m + 1), 2)})


@given(cfg=rational_configs())
@settings(max_examples=100, deadline=None)
def test_integer_gram_is_the_pairwise_symp_table(cfg):
    g = gram(cfg)
    pairs = combinations(range(1, cfg.m + 1), 2)
    assert g.values == {(i, j): symp(cfg.point(i), cfg.point(j)) for i, j in pairs}
    assert all(type(v) is Rat for v in g.values.values())
    for idx, value in all_min_syzygies(cfg):
        assert type(value) is Rat and value == _pf_expand(idx, g.value, Rat(0)) == 0


@given(g=rational_tables(), n=st.integers(1, 4), data=st.data())
@settings(max_examples=100, deadline=None)
def test_integer_pfaffians_match_the_fraction_expansion(g, n, data):
    for k, (_, value) in enumerate(_chain(g, n), 1):
        assert type(value) is Rat
        assert value == _pf_expand(tuple(range(1, 2 * k + 1)), g.value, Rat(0))
    if g.m >= 4:
        size = data.draw(st.sampled_from(range(4, g.m + 1, 2)))
        idx = sorted(data.draw(st.sets(st.integers(1, g.m), min_size=size, max_size=size)))
        value = syzygy_value(g, idx)
        assert type(value) is Rat and value == _pf_expand(tuple(idx), g.value, Rat(0))


def _table_pfaffian(g, subsets):
    """The per-tuple oracle: the Pfaffian of the table g on each ascending
    label tuple of `subsets`, expanded on the ints alone, one division each."""
    entry = lambda i, j: g.ints[i, j]
    return [Rat(_pf_expand(idx, entry, 0), g.den ** (len(idx) // 2)) for idx in subsets]


@given(g=rational_tables())
@settings(max_examples=50, deadline=None)
def test_integer_pfaffians_match_the_reference_on_every_subset(g):
    # independent entries: these tables come from no points, so most of their
    # Pfaffians are nonzero
    assert g.ints.keys() == g.values.keys()
    assert all(type(x) is int and Rat(x, g.den) == g.values[p] for p, x in g.ints.items())
    subsets = [idx for k in range(2, g.m + 1, 2) for idx in combinations(range(1, g.m + 1), k)]
    want = [pfaffian(g.subtable(idx)) for idx in subsets]
    assert _table_pfaffian(g, subsets) == want
    fours = [(idx, v) for idx, v in zip(subsets, want) if len(idx) >= 4]
    assert [syzygy_value(g, idx) for idx, _ in fours] == [v for _, v in fours]


@given(cfg=rational_configs())
@settings(max_examples=100, deadline=None)
def test_all_min_syzygies_is_the_per_subset_syzygy_list(cfg):
    g = gram(cfg)
    assert all(type(x) is int and Rat(x, g.den) == g.values[p] for p, x in g.ints.items())
    size = 2 * cfg.n + 2
    expected = [(idx, syzygy_value(g, idx)) for idx in combinations(range(1, cfg.m + 1), size)]
    assert all_min_syzygies(cfg) == expected


@given(cfg=rational_configs(max_n=3))
@settings(max_examples=100, deadline=None)
def test_all_min_syzygies_from_the_rank_match_the_per_tuple_oracle(cfg):
    # m up to 2n + 5: up to C(11, 8) = 165 tuples at n = 3
    g = gram(cfg)
    subsets = list(combinations(range(1, cfg.m + 1), 2 * cfg.n + 2))
    got = all_min_syzygies(cfg)
    assert [idx for idx, _ in got] == subsets
    assert all(type(v) is Rat for _, v in got)
    assert [v for _, v in got] == _table_pfaffian(g, subsets) == [syzygy_value(g, idx, cfg.n) for idx in subsets]
    assert _rank(g) <= 2 * cfg.n


@given(g=st.one_of(rational_tables(), rational_configs(max_n=3).map(gram)))
@settings(max_examples=100, deadline=None)
def test_table_rank_is_the_rank_of_the_rational_table(g):
    # independent entries reach every even rank up to m, past 2n
    assert _rank(g) == rank(g.subtable(tuple(range(1, g.m + 1))).full())


@pytest.mark.parametrize("n, m, nonzero, r", [
    (1, 4, {(1, 2): 1, (3, 4): 1}, 4),
    (1, 6, {(1, 2): 1, (3, 4): 2, (5, 6): "1/3"}, 6),
    (1, 5, {(1, 3): 1, (2, 5): -1, (4, 5): 7}, 4),
    (2, 6, {(1, 4): 1, (2, 5): 1, (3, 6): 1}, 6),
])
def test_all_min_syzygies_raises_on_a_table_of_rank_past_2n(monkeypatch, n, m, nonzero, r):
    # a table of points has rank <= 2n, so the raise is a bug check: reach it
    # through a table builder that returns independent entries
    cfg = random_config(n, m, seed=m)
    table = GramTable(m, {p: nonzero.get(p, 0) for p in combinations(range(1, m + 1), 2)})
    assert _rank(table) == r and any(_table_pfaffian(table, combinations(range(1, m + 1), 2 * n + 2)))
    monkeypatch.setattr("sympjoint.invariants.gram", lambda config: table)
    message = rf"^Gram table of rank {r} > 2n = {2 * n}: its syzygies do not vanish$"
    with pytest.raises(RuntimeError, match=message):
        all_min_syzygies(cfg)
    with pytest.raises(RuntimeError, match=message):
        _check_vanishing(table, n)


@pytest.mark.parametrize("n", [True, 1.0, "1", 0])
@pytest.mark.parametrize(
    "numeric, symbolic",
    [
        (lambda g, n: q_value(g, range(1, 7), n), lambda n: q_poly(range(1, 7), n)),
        (lambda g, n: syzygy_value(g, range(1, 5), n), lambda n: pfaffian_poly(range(1, 5), n)),
    ],
    ids=["q_value", "syzygy_value"],
)
def test_numeric_syzygies_check_n_as_the_symbolic_ones_do(numeric, symbolic, n):
    # one n check (`exact._check_n`): a bool, a float or a string is no half dimension
    g = gram(random_config(1, 6, seed=1))
    with pytest.raises(ValueError) as symbolic_error:
        symbolic(n)
    with pytest.raises(ValueError, match=f"^{re.escape(str(symbolic_error.value))}$"):
        numeric(g, n)


@pytest.mark.parametrize("n", [True, 1.0, "1"])
@pytest.mark.parametrize(
    "call",
    [
        lambda n: PointConfig(n, ((1, 2), (3, 4))),
        lambda n: ContactConfig(n, (((1,), (2,), 3),)),
        lambda n: random_symplectic(n, 2, 0),
        lambda n: stabilizer_dim([(1, 0)], n),
        lambda n: eliminate_entry(gram(random_config(1, 4, seed=1)), 3, 4, n),
        lambda n: verify_pfaffian_expansion(n),
    ],
    ids=["PointConfig", "ContactConfig", "random_symplectic", "stabilizer_dim", "eliminate_entry", "verify_pfaffian_expansion"],
)
def test_half_dimension_is_checked_once(call, n):
    # `exact._check_n` refuses what only looks like n = 1: a PointConfig with
    # n = True would write "n": true, which `config_from_dict` refuses
    with pytest.raises(ValueError, match=f"^'n' must be an integer, got {re.escape(repr(n))}$"):
        call(n)


@given(cfg=rational_configs(), data=st.data())
@settings(max_examples=100, deadline=None)
def test_gram_tables_compare_by_their_values(cfg, data):
    g = gram(cfg)  # den = d^2 of the points
    values = dict(g.values)
    same = GramTable(cfg.m, values)  # den = lcm of the values' denominators
    assert (g == same) == (g.values == same.values) is True
    if values:
        p = data.draw(st.sampled_from(sorted(values)))
        changed = GramTable(cfg.m, {**values, p: values[p] + data.draw(FRACTIONS.filter(bool))})
        assert g != changed and changed != g
    assert g != GramTable(cfg.m + 1, values)


@given(g=st.one_of(rational_tables(), rational_configs().map(gram)))
@settings(max_examples=100, deadline=None)
def test_gram_values_are_the_integer_form_over_den(g):
    for p in g.pairs():
        assert type(g.values[p]) is Rat
        assert g.values[p] == g.value(*p) == Rat(g.ints[p], g.den) == -g.value(p[1], p[0])
    with pytest.raises(TypeError):
        g.values[1, 2] = Rat(0)


def test_records_refuse_malformed_points():
    with pytest.raises(ValueError, match=r"^need at least one point$"):
        PointConfig(1, ())
    with pytest.raises(ValueError, match=r"^point of length 3, expected 2$"):
        PointConfig(1, ((1, 2), (1, 2, 3)))
    with pytest.raises(ValueError, match=r"^not a permutation of 1\.\.m$"):
        PointConfig(1, ((1, 0), (0, 1))).permute([1, 1])
    with pytest.raises(ValueError, match=r"^x and y must have equal length$"):
        ContactPoint((1, 2), (3,), 0)
    with pytest.raises(ValueError, match=r"^need at least one point$"):
        ContactConfig(1, ())
    with pytest.raises(ValueError, match=r"^point with 2 x-coordinates, expected 1$"):
        ContactConfig(1, (ContactPoint((1,), (2,), 0), ContactPoint((1, 2), (3, 4), 0)))
    for pair in ((2, 1), (1, 4), (0, 2)):
        with pytest.raises(ValueError, match=rf"^bad pair \({pair[0]}, {pair[1]}\) for m=3$"):
            GramTable(3, {pair: 1})
