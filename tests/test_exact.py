import ast
import gc
import random
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sympjoint.exact import (
    ExactMatrix,
    Rat,
    SkewMatrix,
    _pf_expand,
    det,
    is_symplectic,
    nullspace,
    pfaffian,
    random_symplectic,
    rank,
    rat,
    rat_str,
    symp,
    symplectic_J,
)


def det_cofactor(M):
    """Independent determinant oracle: naive cofactor expansion."""
    n = M.rows
    if n == 1:
        return M.data[0][0]
    total = Rat(0)
    sign = 1
    for j in range(n):
        minor = ExactMatrix([row[:j] + row[j + 1 :] for row in M.data[1:]])
        total += sign * M.data[0][j] * det_cofactor(minor)
        sign = -sign
    return total


def random_skew(dim, rng, lo=-9, hi=9):
    return SkewMatrix(
        dim,
        {(i, j): Rat(rng.randint(lo, hi)) for i in range(dim) for j in range(i + 1, dim)},
    )


def test_rat_parsing():
    assert rat(5) == Rat(5)
    assert rat("3/4") == Rat(3, 4)
    assert rat("2.5") == Rat(5, 2)
    assert rat("-7") == Rat(-7)
    assert rat_str(rat(3, 4)) == "3/4"
    assert rat_str(rat(5)) == "5"
    with pytest.raises(TypeError):
        rat(0.5)
    with pytest.raises(ValueError, match="zero denominator in '1/0'"):
        rat("1/0")


@pytest.mark.parametrize(
    "text,value",
    [
        ("2.5e3", Rat(2500)),
        ("1e-3", Rat(1, 1000)),
        ("-3E+2", Rat(-300)),
        ("1e4300", Rat(10**4300)),
        ("1e-4_300", Rat(1, 10**4300)),
    ],
)
def test_rat_reads_a_decimal_exponent_up_to_the_bound(text, value):
    assert rat(text) == value


@pytest.mark.parametrize("text", ["1e99999999", "1E-4301", " 2.5e+4301 ", "1e99_999_999", "1e" + "9" * 5000])
def test_rat_refuses_a_decimal_exponent_past_the_bound(text):
    """Fraction would build 10**exponent in full: "1e99999999" ran for minutes."""
    with pytest.raises(ValueError, match=r"^decimal exponent of '.*' exceeds 4300 in magnitude$"):
        rat(text)


def test_pfaffian_2x2_base_case():
    s = SkewMatrix(2, {(0, 1): rat(7, 3)})
    assert pfaffian(s) == Rat(7, 3)


def test_pfaffian_4x4_displayed_expansion():
    # slots (a12,a13,a14,a23,a24,a34) = (1,2,3,4,5,6): 1*6 - 2*5 + 3*4 = 8
    s = SkewMatrix(4, {(0, 1): 1, (0, 2): 2, (0, 3): 3, (1, 2): 4, (1, 3): 5, (2, 3): 6})
    assert pfaffian(s) == 8


def test_pfaffian_odd_dim_is_zero():
    rng = random.Random(0)
    assert pfaffian(random_skew(5, rng)) == 0


def test_pfaffian_squared_is_det():
    rng = random.Random(1)
    for dim in (2, 4, 6):
        for _ in range(5):
            s = random_skew(dim, rng)
            d = det(s.full())
            assert pfaffian(s) ** 2 == d
            assert d == det_cofactor(s.full())


def test_pfaffian_congruence_transform():
    # Pf(T S T^t) = det(T) Pf(S)
    rng = random.Random(2)
    for dim in (2, 4, 6):
        s = random_skew(dim, rng)
        t = ExactMatrix([[Rat(rng.randint(-4, 4)) for _ in range(dim)] for _ in range(dim)])
        m = t @ s.full() @ t.transpose()
        conj = SkewMatrix(
            dim, {(i, j): m.data[i][j] for i in range(dim) for j in range(i + 1, dim)}
        )
        assert pfaffian(conj) == det(t) * pfaffian(s)


def test_pfaffian_kernel_leaves_no_cyclic_garbage():
    # the memoized expansion is a self-referencing closure; once the call
    # returns, reference counting alone must free it and its memo
    s = random_skew(6, random.Random(3))
    gc.collect()
    gc.disable()
    try:
        for _ in range(1000):
            _pf_expand(range(6), s.entry, Rat(0))
        assert gc.collect() == 0
    finally:
        gc.enable()


@pytest.mark.parametrize("module", ["exact", "invariants", "normal_form", "variants", "field_generators"])
def test_no_tuple_is_built_from_a_generator(module):
    # tuple(genexpr) and f(*genexpr) resize a guessed tuple, which leaves one
    # tuple per call on the interpreter's free lists
    import sympjoint

    path = Path(sympjoint.__file__).with_name(f"{module}.py")
    found = []
    for node in ast.walk(ast.parse(path.read_text())):
        if not isinstance(node, ast.Call):
            continue
        starred = [a.value for a in node.args if isinstance(a, ast.Starred)]
        tupled = node.args[:1] if isinstance(node.func, ast.Name) and node.func.id == "tuple" else []
        if any(isinstance(a, ast.GeneratorExp) for a in starred + tupled):
            found.append(node.lineno)
    assert found == []


def test_det_identity_and_standard_block():
    assert det(ExactMatrix.identity(3)) == 1
    assert det(ExactMatrix([[0, 1], [-1, 0]])) == 1


def test_det_matches_cofactor_oracle():
    rng = random.Random(3)
    for _ in range(5):
        m = ExactMatrix([[Rat(rng.randint(-9, 9)) for _ in range(5)] for _ in range(5)])
        assert det(m) == det_cofactor(m)


def test_det_rejects_non_square():
    with pytest.raises(ValueError):
        det(ExactMatrix([[1, 2, 3], [4, 5, 6]]))


def test_rank_and_nullspace():
    zero = ExactMatrix([[0, 0, 0], [0, 0, 0]])
    assert rank(zero) == 0
    assert len(nullspace(zero)) == 3
    assert rank(ExactMatrix.identity(4)) == 4
    # rank-2 by construction: 4x2 times 2x6
    rng = random.Random(4)
    a = ExactMatrix([[Rat(rng.randint(-5, 5)) for _ in range(2)] for _ in range(4)])
    b = ExactMatrix([[Rat(rng.randint(-5, 5)) for _ in range(6)] for _ in range(2)])
    prod = a @ b
    assert rank(prod) == 2
    kernel = nullspace(prod)
    assert len(kernel) == 6 - 2
    for v in kernel:
        assert all(x == 0 for x in prod.apply(v))


def test_random_symplectic_zero_steps_is_identity():
    m = random_symplectic(2, 0, seed=0)
    assert m == ExactMatrix.identity(4)
    assert is_symplectic(m)


def test_random_symplectic_satisfies_group_relations():
    for n in (1, 2, 3):
        for seed in range(4):
            m = random_symplectic(n, 10, seed=seed)
            j = symplectic_J(n)
            assert m.transpose() @ j @ m == j
            assert det(m) == 1


def test_symp_symplectic_basis():
    assert symp((1, 0), (0, 1)) == 1
    assert symp((1, 0, 0, 0), (0, 1, 0, 0)) == 0  # x-plane is isotropic
    with pytest.raises(ValueError):
        symp((1, 0), (1, 0, 0, 0))
    with pytest.raises(ValueError):
        symp((1, 0, 0), (0, 1, 0))


small_vec = st.lists(st.integers(-20, 20), min_size=4, max_size=4).map(tuple)


@given(small_vec, small_vec, small_vec, st.integers(-9, 9))
@settings(max_examples=60, deadline=None)
def test_symp_bilinear_antisymmetric(u, v, w, c):
    assert symp(u, v) == -symp(v, u)
    assert symp(u, u) == 0
    cu_plus_w = tuple(c * a + b for a, b in zip(u, w))
    assert symp(cu_plus_w, v) == c * symp(u, v) + symp(w, v)


# --- elimination kernels against independent references -------------------

small_rat = st.builds(Rat, st.integers(-5, 5), st.integers(1, 4))


@st.composite
def rat_matrices(draw, rows=None, cols=None):
    """Small rational matrices, often rank-deficient (a product through a
    random inner dimension) and often sparse."""
    rows = draw(st.integers(0, 4)) if rows is None else rows
    cols = draw(st.integers(0, 4)) if cols is None else cols
    if draw(st.booleans()):
        inner = draw(st.integers(0, 4))
        left = [[draw(small_rat) for _ in range(inner)] for _ in range(rows)]
        right = [[draw(small_rat) for _ in range(cols)] for _ in range(inner)]
        return ExactMatrix(
            [[sum((left[i][t] * right[t][j] for t in range(inner)), Rat(0)) for j in range(cols)] for i in range(rows)]
        )
    entry = st.one_of(st.just(Rat(0)), small_rat)
    return ExactMatrix([[draw(entry) for _ in range(cols)] for _ in range(rows)])


def largest_nonzero_minor(M):
    for k in range(min(M.rows, M.cols), 0, -1):
        for rs in combinations(range(M.rows), k):
            for cs in combinations(range(M.cols), k):
                if det(ExactMatrix([[M.data[i][j] for j in cs] for i in rs])) != 0:
                    return k
    return 0


@given(rat_matrices())
@settings(max_examples=80, deadline=None)
def test_rank_is_largest_nonzero_minor(M):
    assert rank(M) == largest_nonzero_minor(M)


@given(rat_matrices())
@settings(max_examples=80, deadline=None)
def test_nullspace_is_kernel_of_full_dimension(M):
    kernel = nullspace(M)
    assert len(kernel) == M.cols - rank(M)
    for v in kernel:
        assert len(v) == M.cols
        assert all(x == 0 for x in M.apply(v))


@given(st.integers(0, 5).flatmap(lambda k: rat_matrices(k, k)))
@settings(max_examples=80, deadline=None)
def test_det_of_rational_matrix_matches_cofactor_oracle(M):
    assert det(M) == (det_cofactor(M) if M.rows else 1)


@pytest.mark.parametrize("kernel", [rank, nullspace, det])
def test_float_entry_is_refused(kernel):
    with pytest.raises(TypeError):
        kernel(ExactMatrix([[1, 0.5], [Rat(1, 3), 2]]))


@given(st.integers(1, 3), st.data())
@settings(max_examples=40, deadline=None)
def test_symp_sums_in_the_ring_of_its_inputs(n, data):
    ints = st.lists(st.integers(-9, 9), min_size=2 * n, max_size=2 * n)
    u, v = data.draw(ints), data.draw(ints)
    assert type(symp(u, v)) is int
    ru, rv = ([Rat(x, data.draw(st.integers(1, 7))) for x in w] for w in (u, v))
    assert type(symp(ru, rv)) is Rat
    assert symp(ru, rv) == sum(ru[k] * rv[n + k] - rv[k] * ru[n + k] for k in range(n))


def _random_symplectic_in_fractions(n, steps, seed):
    """The transvection product as first written: Rat columns, and the
    symplectic product taken once per entry in Rat arithmetic."""

    def omega(u, v):
        total = Rat(0)
        for k in range(n):
            total += u[k] * v[n + k] - v[k] * u[n + k]
        return total

    rng = random.Random(seed)
    dim = 2 * n
    cols = [tuple([Rat(1) if i == j else Rat(0) for i in range(dim)]) for j in range(dim)]
    for _ in range(steps):
        v = [0] * dim
        while not any(v):
            v = [rng.randint(-3, 3) for _ in range(dim)]
        v = tuple([Rat(x) for x in v])
        lam = Rat(rng.randint(-3, 3))
        cols = [tuple([c[i] + lam * omega(c, v) * v[i] for i in range(dim)]) for c in cols]
    return ExactMatrix.from_columns(cols)


@given(st.integers(1, 3), st.integers(0, 8), st.integers(0, 10**6))
@settings(max_examples=60, deadline=None)
def test_random_symplectic_equals_the_fraction_product(n, steps, seed):
    M = random_symplectic(n, steps, seed)
    assert M == _random_symplectic_in_fractions(n, steps, seed)
    assert all(type(x) is Rat for row in M.data for x in row)


def _symplectic_by_definition(M, n=None):
    """M^T J M == J with matrix products, as `is_symplectic` was first written:
    the outcome, or the type of the exception raised."""
    try:
        if n is None:
            if M.rows % 2:
                return False
            n = M.rows // 2
        J = symplectic_J(n)
        return M.transpose() @ J @ M == J
    except Exception as exc:
        return type(exc)


@st.composite
def witness_candidates(draw):
    """(M, n): random_symplectic output, perturbed in one entry or not, or a
    small random matrix of any shape (no rows, no columns, odd, non-square),
    with n unset or any of 0..3."""
    if draw(st.booleans()):
        k = draw(st.integers(1, 3))
        M = random_symplectic(k, draw(st.integers(0, 6)), draw(st.integers(0, 10**6)))
        if draw(st.booleans()):
            i, j = draw(st.integers(0, 2 * k - 1)), draw(st.integers(0, 2 * k - 1))
            M.data[i][j] += draw(st.sampled_from([-1, 1, Rat(1, 2)]))
    else:
        rows, cols = draw(st.integers(0, 6)), draw(st.integers(0, 6))
        M = ExactMatrix([[Rat(draw(st.integers(-1, 1))) for _ in range(cols)] for _ in range(rows)])
    return M, draw(st.one_of(st.none(), st.integers(0, 3)))


@given(case=witness_candidates())
@example(case=(random_symplectic(2, 5, seed=1), 1))  # 4 x 4 with n = 1: ValueError
@settings(max_examples=300, deadline=None)
def test_is_symplectic_agrees_with_the_matrix_definition(case):
    M, n = case
    try:
        got = is_symplectic(M, n)
    except Exception as exc:
        got = type(exc)
    assert got == _symplectic_by_definition(M, n)


def test_matrices_and_scalars_refuse_malformed_input():
    with pytest.raises(ValueError, match=r"^ragged rows$"):
        ExactMatrix([[1, 2], [3]])
    with pytest.raises(ValueError, match=r"^vector length mismatch$"):
        ExactMatrix([[1, 2]]).apply((1,))
    for index in ((1, 1), (0, 2), (1, 0)):
        with pytest.raises(ValueError, match=rf"^bad upper index \({index[0]}, {index[1]}\)$"):
            SkewMatrix(2, {index: 1})
    for value in ([1], None, 1j):
        with pytest.raises(TypeError, match=rf"^cannot convert {type(value).__name__} to exact rational$"):
            rat(value)
    with pytest.raises(ValueError, match=r"^steps must be >= 0$"):
        random_symplectic(1, -1, 0)
