import random

import pytest
from hypothesis import assume, event, given, settings
from hypothesis import strategies as st

from sympjoint.exact import (
    ExactMatrix,
    Rat,
    _pf_expand,
    _row_space,
    det,
    is_symplectic,
    pfaffian,
    random_symplectic,
    symp,
)
from sympjoint.invariants import ContactConfig, ContactPoint, GenericityError, PointConfig, _condense, gram, random_config
from sympjoint.normal_form import (
    _canonical_columns,
    _normalize,
    _relabel_compare,
    canonical,
    equivalent,
    genericity,
    recover_transform,
    signature,
)


def generic_sample(n, m, rng):
    while True:
        cfg = random_config(n, m, rng)
        if genericity(cfg).generic:
            return cfg


def test_genericity_basics():
    assert genericity(PointConfig(1, ((1, 0), (0, 1)))).generic
    rep = genericity(PointConfig(1, ((1, 0), (2, 0))))
    assert not rep.generic
    assert rep.failed_predicates == ("a12 = 0",)


def test_genericity_random_n2():
    rng = random.Random(30)
    hits = sum(genericity(random_config(2, 4, rng)).generic for _ in range(20))
    assert hits >= 18  # generic with probability ~ 1


def test_canonical_two_points():
    cfg = PointConfig(1, ((1, 0), (0, 5)))
    c = canonical(cfg)
    assert c.data == [[Rat(1), Rat(0)], [Rat(0), Rat(5)]]


def test_canonical_preserves_gram():
    rng = random.Random(31)
    # the shapes after (2, 6): odd m < 2n, m = 2n and m = 2n+1
    for n, m in ((1, 3), (1, 5), (2, 4), (2, 6), (2, 3), (3, 5), (3, 6), (2, 5), (3, 7)):
        for _ in range(5):
            cfg = generic_sample(n, m, rng)
            cols = canonical(cfg).columns()
            assert gram(PointConfig(n, tuple(cols))) == gram(cfg)


def test_canonical_idempotent_on_invariants():
    rng = random.Random(32)
    cfg = generic_sample(2, 5, rng)
    c1 = canonical(cfg)
    as_config = PointConfig(2, tuple(c1.columns()))
    assert canonical(as_config) == c1


def test_canonical_displayed_entry_n2():
    rng = random.Random(33)
    cfg = generic_sample(2, 4, rng)
    g = gram(cfg)
    c = canonical(cfg)
    b1234 = pfaffian(g.subtable((1, 2, 3, 4)))
    # in grouped coordinates the y^2 slot of column 4 carries b1234/a12
    assert c.data[3][3] == b1234 / g.value(1, 2)
    # and the x^2 slot of column 4 is normalized away
    assert c.data[1][3] == 0


def test_canonical_rejects_nongeneric_with_predicate_name():
    cfg = PointConfig(1, ((1, 0), (2, 0), (0, 1)))
    with pytest.raises(GenericityError, match="a12 = 0"):
        canonical(cfg)


@pytest.mark.parametrize(
    "n,points,message",
    [
        # A3 = A1 + A2, A4 = A1 - A2 in R^4: a12 = 1, but the points span a plane
        (2, ((1, 0, 0, 0), (0, 0, 1, 0), (1, 0, 1, 0), (1, 0, -1, 0)), "b1234 = 0"),
        (2, ((1, 0, 0, 0), (0, 0, 1, 0), (1, 0, 1, 0), (1, 0, -1, 0), (0, 1, 0, 0)), "b1234 = 0"),
        # six points of R^6 spanning four dimensions: a12, b1234 != 0
        (3, ((1, 0, 0, 0, 0, 0), (0, 0, 0, 1, 0, 0), (0, 1, 0, 0, 0, 0), (0, 0, 0, 0, 1, 0),
             (1, 1, 0, 0, 0, 0), (0, 0, 0, 1, 1, 0)), "b123456 = 0"),
    ],
)
def test_canonical_names_a_chain_that_fails_past_a12(n, points, message):
    # the chain is read off the same condensation as the frame
    cfg = PointConfig(n, points)
    assert genericity(cfg).failed_predicates == (message,)
    with pytest.raises(GenericityError) as info:
        canonical(cfg)
    assert str(info.value) == f"non-generic configuration: {message}"


def test_recover_transform_round_trip():
    rng = random.Random(34)
    for n, m in ((1, 2), (1, 4), (2, 4), (2, 6)):
        cfg = generic_sample(n, m, rng)
        m0 = random_symplectic(n, 10, seed=rng.randint(0, 10**6))
        image = cfg.transform(m0)
        w = recover_transform(cfg, image)
        assert is_symplectic(w, n)
        for i in range(1, m + 1):
            assert w.apply(cfg.point(i)) == image.point(i)
        # for m >= 2n the witness is unique, so it must equal the original map
        assert w == m0


def test_recover_transform_identity_for_equal_configs():
    rng = random.Random(35)
    cfg = generic_sample(2, 4, rng)
    assert recover_transform(cfg, cfg) == ExactMatrix.identity(4)


def test_recover_transform_gram_mismatch():
    rng = random.Random(36)
    cfg = generic_sample(1, 4, rng)
    other = PointConfig(1, cfg.points[:-1] + ((cfg.points[-1][0] + 1, cfg.points[-1][1]),))
    with pytest.raises(ValueError, match="not equivalent"):
        recover_transform(cfg, other)


def test_recover_transform_underdetermined():
    rng = random.Random(37)
    cfg = generic_sample(2, 3, rng)
    with pytest.raises(ValueError, match="underdetermined"):
        recover_transform(cfg, cfg)


def test_sp_signature_layout():
    rng = random.Random(38)
    cfg = generic_sample(1, 4, rng)
    sig = signature(cfg, "sp")
    g = gram(cfg)
    assert sig.group == "Sp"
    assert sig.values == tuple(
        g.value(i, j) for (i, j) in ((1, 2), (1, 3), (1, 4), (2, 3), (2, 4))
    )


def test_signature_invariance_and_scaling():
    rng = random.Random(39)
    cfg = generic_sample(2, 5, rng)
    m0 = random_symplectic(2, 12, seed=7)
    assert signature(cfg, "sp") == signature(cfg.transform(m0), "sp")
    # conformal: scaling by 3 multiplies every a_ij by 9, ratios cancel
    assert signature(cfg, "csp") == signature(cfg.scale(3), "csp")
    assert signature(cfg, "sp") != signature(cfg.scale(3), "sp")


def test_equivalence_per_group():
    rng = random.Random(40)
    cfg = generic_sample(1, 4, rng)
    m0 = random_symplectic(1, 10, seed=9)
    moved = cfg.transform(m0)
    assert equivalent(cfg, moved, "sp")
    shift = (3, -2)
    translated = moved.translate(shift)
    assert equivalent(cfg, translated, "asp")
    assert not equivalent(cfg, translated, "sp")
    perturbed = PointConfig(1, cfg.points[:-1] + ((cfg.points[-1][0] + 1, cfg.points[-1][1]),))
    assert not equivalent(cfg, perturbed, "sp")


def test_equivalence_rejects_mismatched_shapes():
    rng = random.Random(41)
    a = generic_sample(1, 4, rng)
    b = generic_sample(1, 5, rng)
    with pytest.raises(ValueError):
        equivalent(a, b, "sp")
    with pytest.raises(ValueError):
        equivalent(a, b, "so(3)")


def test_equivalence_errors_on_nongeneric():
    flat = PointConfig(1, ((1, 0), (2, 0), (3, 0)))  # every a_ij = 0
    other = PointConfig(1, ((1, 0), (0, 1), (1, 1)))
    # the message names the configuration and every failed predicate
    for call, message in (
        (lambda: equivalent(flat, other, "sp"), "non-generic configuration: a12 = 0"),
        (lambda: equivalent(other, flat, "csp"), "second configuration non-generic: a12 = 0"),
        (lambda: recover_transform(flat, other), "first configuration non-generic: a12 = 0"),
        (lambda: recover_transform(other, flat), "second configuration non-generic: a12 = 0"),
        (lambda: canonical(PointConfig(2, ((1, 0, 0, 0),) * 4)), "non-generic configuration: a12 = 0, b1234 = 0"),
    ):
        with pytest.raises(GenericityError) as info:
            call()
        assert str(info.value) == message


def test_signature_fallback_reordering():
    # a12 = 0 but a13 != 0: one relabeling pass rescues the signature
    cfg = PointConfig(1, ((1, 0), (2, 0), (0, 1)))
    sig = signature(cfg, "sp")
    assert sig.values[0] != 0


def test_relabeling_congruence():
    rng = random.Random(42)
    a = generic_sample(1, 4, rng)
    b = a.transform(random_symplectic(1, 8, seed=3))
    perm = [3, 1, 4, 2]
    assert equivalent(a, b, "sp") == equivalent(a.permute(perm), b.permute(perm), "sp")


@pytest.mark.parametrize(
    "call,tables",
    [
        pytest.param(lambda a, b: equivalent(a, b, "sp"), 2, id="equivalent-sp"),
        pytest.param(lambda a, b: equivalent(a, b, "csp"), 2, id="equivalent-csp"),
        pytest.param(lambda a, b: equivalent(a, b, "asp"), 2, id="equivalent-asp"),
        pytest.param(lambda a, b: signature(a, "sp"), 1, id="signature"),
        # a12 = 0: the one fallback relabeling takes a second table
        pytest.param(
            lambda a, b: signature(PointConfig(1, ((1, 0), (2, 0), (0, 1))), "sp"), 2, id="signature-fallback"
        ),
        # the second table checks that the canonical columns reproduce the first
        pytest.param(lambda a, b: canonical(a), 2, id="canonical"),
        pytest.param(lambda a, b: recover_transform(a, b), 2, id="recover_transform"),
    ],
)
def test_one_gram_table_per_configuration(monkeypatch, call, tables):
    # every table of the decision path, the ASp one of translated integer
    # points included, is built by the one table builder `_gram_of`
    import sympjoint.normal_form as nf

    a = generic_sample(2, 5, random.Random(44))
    b = a.transform(random_symplectic(2, 6, seed=5))
    calls = []
    build = nf._gram_of
    monkeypatch.setattr(nf, "_gram_of", lambda pts, d, top=None: calls.append(pts) or build(pts, d, top))
    call(a, b)
    assert len(calls) == tables


# (e1, f1, e1) against (e1, f1, e1 + e2) in R^4: equal Gram tables and passing
# chains, but A_3 = A_1 while B_3 != B_1, so no linear map takes A to B.
DEPENDENT = PointConfig(2, ((1, 0, 0, 0), (0, 0, 1, 0), (1, 0, 0, 0)))
INDEPENDENT = PointConfig(2, ((1, 0, 0, 0), (0, 0, 1, 0), (1, 1, 0, 0)))


def _based(cfg, shift):
    """The configuration with the origin prepended, all points translated by shift."""
    return PointConfig(cfg.n, ((0,) * 2 * cfg.n,) + cfg.points).translate(shift)


@pytest.mark.parametrize("group", ["sp", "csp"])
def test_dependent_points_are_not_equivalent(group):
    assert gram(DEPENDENT) == gram(INDEPENDENT)
    assert not equivalent(DEPENDENT, INDEPENDENT, group)
    assert not equivalent(INDEPENDENT, DEPENDENT, group)
    assert signature(DEPENDENT, group) != signature(INDEPENDENT, group)


def test_dependent_points_are_not_affinely_equivalent():
    shift = (2, -1, 3, 5)
    a, b = _based(DEPENDENT, shift), _based(INDEPENDENT, shift)
    assert not equivalent(a, b, "asp")
    assert signature(a, "asp") != signature(b, "asp")


@pytest.mark.parametrize("seed", range(4))
def test_dependent_points_stay_equivalent_to_their_image(seed):
    M = random_symplectic(2, 6, seed)
    moved = DEPENDENT.transform(M)
    assert equivalent(DEPENDENT, moved, "sp")
    assert equivalent(DEPENDENT, moved.scale(3), "csp")
    assert signature(DEPENDENT, "sp") == signature(moved, "sp")
    based = _based(DEPENDENT, (1, 0, -2, 4))
    assert equivalent(based, based.transform(M).translate((3, 1, 0, -1)), "asp")


def test_relations_follow_the_gram_values_below_2n():
    sig = signature(DEPENDENT, "sp")
    # a12, a13, a23, then the relation A_1 - A_3 = 0 as the RREF nullspace vector
    assert sig.values == (Rat(1), Rat(0), Rat(-1), Rat(-1), Rat(0), Rat(1))
    rng = random.Random(43)
    cfg = generic_sample(2, 5, rng)  # m >= 2n: the Gram values alone
    g = gram(cfg)
    assert signature(cfg, "sp").values == tuple(
        g.value(i, j) for i in range(1, 5) for j in range(i + 1, 6)
    )


@st.composite
def linear_configs(draw):
    """Small integer configurations; with `fallback`, A_2 = 2 A_1 so a12 = 0
    and a signature must relabel (or reject) the points."""
    n = draw(st.integers(1, 2))
    m = draw(st.integers(2, 5))
    pts = [tuple(draw(st.integers(-3, 3)) for _ in range(2 * n)) for _ in range(m)]
    if draw(st.booleans()):
        pts[1] = tuple(2 * c for c in pts[0])
    return PointConfig(n, tuple(pts))


def _moved(cfg, group, seed, scale, shift):
    """The image of cfg under a group element built from the draws."""
    out = cfg.transform(random_symplectic(cfg.n, 6, seed))
    if group == "csp":
        out = out.scale(scale)
    if group == "asp":
        out = out.translate(shift[: 2 * cfg.n])
    return out


@pytest.mark.parametrize("group", ["sp", "csp", "asp"])
@given(
    base=linear_configs(),
    seed=st.integers(0, 10**6),
    scale=st.integers(1, 4),
    shift=st.lists(st.integers(-5, 5), min_size=4, max_size=4),
    origin=st.lists(st.integers(-5, 5), min_size=4, max_size=4),
)
@settings(max_examples=40, deadline=None)
def test_group_image_is_equivalent(group, base, seed, scale, shift, origin):
    cfg = base
    if group == "asp":
        # the base point goes first, so the translated configuration is `base`
        o = tuple(origin[: 2 * base.n])
        cfg = PointConfig(base.n, (o,) + tuple(tuple(a + b for a, b in zip(p, o)) for p in base.points))
    try:
        sig = signature(cfg, group)
    except GenericityError:
        assume(False)
    moved = _moved(cfg, group, seed, scale, shift)
    assert equivalent(cfg, moved, group)
    assert signature(moved, group) == sig


def _grouped_row(pos, n):
    """Interleaved basis slot (1-based: x^1, y^1, x^2, ...) -> grouped row (0-based)."""
    k = (pos + 1) // 2
    return k - 1 if pos % 2 else n + k - 1


def solve(A, B):
    """Solve A X = B exactly for square nonsingular A (B a matrix), by one
    fraction-free elimination of the rows [A | B]: the oracle of
    `solved_columns`."""
    if A.rows != A.cols:
        raise ValueError("solve needs a square matrix")
    if B.rows != A.rows:
        raise ValueError("right-hand side row mismatch")
    reduced = _row_space(list(ra) + list(rb) for ra, rb in zip(A.data, B.data)).reduced()
    if [p for p, _ in reduced] != list(range(A.cols)):
        raise ValueError("singular matrix")
    return ExactMatrix([[Rat(x, row[p]) for x in row[A.cols :]] for p, row in reduced])


def rat_matrices(rows, cols):
    """Small rational matrices, often sparse."""
    entry = st.one_of(st.just(Rat(0)), st.builds(Rat, st.integers(-5, 5), st.integers(1, 4)))
    return st.lists(st.lists(entry, min_size=cols, max_size=cols), min_size=rows, max_size=rows).map(ExactMatrix)


@given(st.integers(0, 4), st.integers(0, 4), st.data())
@settings(max_examples=80, deadline=None)
def test_solve_and_inverse(k, cols, data):
    A, B = data.draw(rat_matrices(k, k)), data.draw(rat_matrices(k, cols))
    identity = ExactMatrix.identity(A.rows)
    if det(A) == 0:
        for rhs in (B, identity):
            with pytest.raises(ValueError, match="^singular matrix$"):
                solve(A, rhs)
        return
    assert A @ solve(A, B) == B
    assert solve(A, identity) @ A == identity


def solved_columns(g, n):
    """The canonical columns as they were once computed: column j solved from
    omega(C_i, C_j) = a_ij over its free slots, one exact linear system per
    column, with slot 2k-1 of column 2k-1 pinned to 1 and of column 2k to 0."""
    dim = 2 * n

    def unit(row):
        return tuple(Rat(int(i == row)) for i in range(dim))

    cols = [unit(0), tuple(g.value(1, 2) * x for x in unit(n))]
    for j in range(3, g.m + 1):
        k = (j + 1) // 2
        if j > dim:
            unknowns, pinned, eqs = range(1, dim + 1), {}, range(1, dim + 1)
        elif j % 2:
            unknowns, pinned, eqs = range(1, 2 * k - 1), {2 * k - 1: 1}, range(1, j)
        else:
            unknowns, pinned, eqs = [*range(1, 2 * k - 1), 2 * k], {}, range(1, j)
        col = [Rat(0)] * dim
        for pos, val in pinned.items():
            col[_grouped_row(pos, n)] = Rat(val)
        rows = [[symp(cols[i - 1], unit(_grouped_row(p, n))) for p in unknowns] for i in eqs]
        rhs = [[g.value(i, j) - symp(cols[i - 1], col)] for i in eqs]
        for p, (val,) in zip(unknowns, solve(ExactMatrix(rows), ExactMatrix(rhs)).data):
            col[_grouped_row(p, n)] = val
        cols.append(tuple(col))
    return cols


@st.composite
def generic_configs(draw):
    """Integer configurations with n <= 3 and m <= 10 passing the chain;
    odd m < 2n (the last point spans the next E alone) is included."""
    n = draw(st.integers(1, 3))
    m = draw(st.integers(2, 10))
    pts = tuple(tuple(draw(st.integers(-6, 6)) for _ in range(2 * n)) for _ in range(m))
    cfg = PointConfig(n, pts)
    assume(genericity(cfg).generic)
    return cfg


@given(cfg=generic_configs())
@settings(max_examples=150, deadline=None)
def test_canonical_matches_the_per_column_solve(cfg):
    got = canonical(cfg).data
    want = ExactMatrix.from_columns(solved_columns(gram(cfg), cfg.n)).data
    assert got == want
    assert all(type(x) is Rat for row in got for x in row)


def fraction_columns(g, n):
    """The symplectic Gram-Schmidt as first written, in `Fraction`s: each
    residual pairing is a_ij minus the pairing of the columns built so far."""
    m = g.m
    cols = [[Rat(0)] * (2 * n) for _ in range(m)]
    for k in range(min(n, (m + 1) // 2)):
        e, f = 2 * k + 1, 2 * k + 2
        if f > m:
            cols[-1][k] = Rat(1)
            break
        with_e = [g.value(e, j) - symp(cols[e - 1], col) for j, col in enumerate(cols, 1)]
        with_f = [g.value(j, f) - symp(col, cols[f - 1]) for j, col in enumerate(cols, 1)]
        pivot = with_e[f - 1]
        for col, y, x in zip(cols, with_e, with_f):
            col[k], col[n + k] = x / pivot, y
    return cols


@st.composite
def rational_configs(draw, generic=True):
    """Configurations with n <= 3, m <= 10 and mixed denominators; with
    `generic`, passing the chain.  Half the draws take m below 2n (m = 2 for
    n = 1), so the odd m < 2n branch is drawn too."""
    n = draw(st.integers(1, 3))
    m = draw(st.one_of(st.integers(2, max(2, 2 * n - 1)), st.integers(2, 10)))
    coord = st.builds(Rat, st.integers(-9, 9), st.integers(1, 6))
    cfg = PointConfig(n, tuple(tuple(draw(coord) for _ in range(2 * n)) for _ in range(m)))
    assume(not generic or genericity(cfg).generic)
    return cfg


@given(cfg=rational_configs())
@settings(max_examples=200, deadline=None)
def test_condensed_columns_match_the_fraction_gram_schmidt(cfg):
    got = _canonical_columns(gram(cfg), cfg.n)
    assert got == fraction_columns(gram(cfg), cfg.n)
    assert all(type(x) is Rat for col in got for x in col)


@given(cfg=rational_configs(generic=False))
@settings(max_examples=100, deadline=None)
def test_condensation_gives_every_bordered_pfaffian(cfg):
    """After k steps, P(i, j) = Pf(ints | 1..2k, i, j) for 2k < i < j; the
    steps run while the divisor Pf(ints | 1..2k) is nonzero."""
    g, m = gram(cfg), cfg.m
    P = [[0] * (m + 1) for _ in range(m + 1)]
    for (i, j), v in g.ints.items():
        P[i][j], P[j][i] = v, -v
    prev = 1
    for k in range(m // 2):
        lead = tuple(range(1, 2 * k + 1))
        pairs = [(i, j) for i in range(2 * k + 1, m + 1) for j in range(i + 1, m + 1)]
        want = [_pf_expand(lead + p, lambda a, b: g.ints[a, b], 0) for p in pairs]
        assert [P[i][j] for i, j in pairs] == want
        if k + 1 == m // 2 or P[2 * k + 1][2 * k + 2] == 0:
            break
        _condense(P, 2 * k + 1, 2 * k + 2, prev)
        prev = P[2 * k + 1][2 * k + 2]


@given(cfg=generic_configs())
@settings(max_examples=150, deadline=None)
def test_canonical_frame_pattern(cfg):
    """Column 2k-1 has 1 in its x^k slot and column 2k has 0 there; columns
    before 2k-1 vanish in every slot from k on (x and y)."""
    n, m = cfg.n, cfg.m
    cols = canonical(cfg).columns()
    for k in range(1, n + 1):
        if 2 * k - 1 > m:
            break
        assert cols[2 * k - 2][k - 1] == 1
        if 2 * k <= m:
            assert cols[2 * k - 1][k - 1] == 0
        for col in cols[: 2 * k - 2]:
            assert all(col[s] == 0 for s in range(k - 1, n))
            assert all(col[n + s] == 0 for s in range(k - 1, n))


@given(st.integers(1, 2), st.integers(0, 2), st.integers(0, 8), st.integers(0, 10**6), st.data())
@settings(max_examples=40, deadline=None)
def test_recover_transform_equals_basis_product(n, extra, steps, seed, data):
    coord = st.builds(Rat, st.integers(-9, 9), st.integers(1, 5))
    point = st.lists(coord, min_size=2 * n, max_size=2 * n)
    A = PointConfig(n, tuple([tuple(data.draw(point)) for _ in range(2 * n + extra)]))
    assume(genericity(A).generic)
    B = A.transform(random_symplectic(n, steps, seed))
    # the witness as first written, the basis of B times the inverse basis of A,
    # is the one matrix that maps the basis of A onto the basis of B
    basis_a = ExactMatrix.from_columns([A.point(i) for i in range(1, 2 * n + 1)])
    basis_b = ExactMatrix.from_columns([B.point(i) for i in range(1, 2 * n + 1)])
    assert recover_transform(A, B) @ basis_a == basis_b


def test_canonical_rejects_columns_that_miss_the_gram_table(monkeypatch):
    import sympjoint.normal_form as nf

    def perturbed(g, n):
        cols = _canonical_columns(g, n)
        cols[-1][0] += 1
        return cols

    cfg = generic_sample(2, 5, random.Random(45))
    monkeypatch.setattr(nf, "_canonical_columns", perturbed)
    with pytest.raises(RuntimeError, match="canonical columns fail to reproduce the Gram table"):
        canonical(cfg)


def test_recover_transform_with_different_denominators():
    # S = diag(2, 1/2) is symplectic with rational entries, so B = S A clears
    # its denominators with a d_b other than A's
    S = ExactMatrix([[Rat(2), Rat(0)], [Rat(0), Rat(1, 2)]])
    for points in (((1, 0), (0, 1)), (("1/3", 5), (7, "-2/5"), (3, 1)), ((3, 1), (1, 1), ("1/7", 0))):
        a = PointConfig(1, points)
        b = a.transform(S)
        assert recover_transform(a, b) == S
        assert recover_transform(b, a) @ S == ExactMatrix.identity(2)


def test_recover_transform_on_dependent_points():
    # m < 2n: the stabilizer is positive-dimensional, so no witness is unique
    for a, b in ((DEPENDENT, INDEPENDENT), (INDEPENDENT, DEPENDENT), (DEPENDENT, DEPENDENT)):
        with pytest.raises(ValueError, match="underdetermined"):
            recover_transform(a, b)
    # a fourth point makes m = 2n, but A_3 = A_1 leaves b_1234 = 0
    pad = ((0, 0, 0, 1),)
    a, b = PointConfig(2, DEPENDENT.points + pad), PointConfig(2, INDEPENDENT.points + pad)
    with pytest.raises(GenericityError, match="first configuration non-generic: b1234 = 0"):
        recover_transform(a, b)
    assert recover_transform(b, b) == ExactMatrix.identity(4)


def test_recover_transform_checks_every_point(monkeypatch):
    import sympjoint.normal_form as nf

    a = generic_sample(1, 4, random.Random(46))
    b = PointConfig(1, a.points[:-1] + ((a.points[-1][0] + 1, a.points[-1][1]),))
    table = gram(a)
    monkeypatch.setattr(nf, "_gram_of", lambda pts, d, top=None: table)  # hides that the tables differ
    with pytest.raises(RuntimeError, match="fails to move point 4"):
        recover_transform(a, b)


CONTACT3 = ContactConfig(1, (((1,), (1,), 0), ((0,), (1,), 1), ((2,), (3,), 1)))
POINTS3 = PointConfig(1, ((1, 0), (0, 1), (2, 3)))


@pytest.mark.parametrize(
    "call,message",
    [
        (lambda: signature(CONTACT3, "sp"), "the Sp group takes a PointConfig, got ContactConfig"),
        (lambda: equivalent(CONTACT3, CONTACT3, "csp"), "the CSp group takes a PointConfig, got ContactConfig"),
        (lambda: equivalent(POINTS3, CONTACT3, "asp"), "the ASp group takes a PointConfig, got ContactConfig"),
        (lambda: signature(POINTS3, "contact"), "the Contact group takes a ContactConfig, got PointConfig"),
        (lambda: equivalent(CONTACT3, POINTS3, "contact"), "the Contact group takes a ContactConfig, got PointConfig"),
    ],
)
def test_each_group_names_the_record_it_takes(call, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        call()


def test_contact_relabeling_is_a_list_decided_on_the_first():
    # R_3 = 2 * 3 - 2 = 4 here, and 0 once u_3 = 3: the rotation [2, 3, 1]
    assert _normalize("contact", CONTACT3)[1] == ()
    last = ContactPoint((2,), (3,), 3)
    rotated = ContactConfig(1, CONTACT3.points[:2] + (last,))
    sig_a, relabel = _normalize("contact", rotated)
    assert relabel == [2, 3, 1]
    assert sig_a == _normalize("contact", ContactConfig(1, (CONTACT3.points[1], last, CONTACT3.points[0])))[0]
    # the second configuration is read under the first one's relabeling
    assert _relabel_compare(rotated, rotated, "contact") == (sig_a, sig_a, [2, 3, 1])
    # R_1 = 0 here: it needs no rotation of its own, and rotated its last R is 0
    other = ContactConfig(1, (ContactPoint((1,), (0,), 0),) + CONTACT3.points[1:])
    assert _normalize("contact", other)[1] == ()
    with pytest.raises(GenericityError, match="^R_3 = 0$"):
        _relabel_compare(rotated, other, "contact")


# ---------------------------------------------------------------------------
# one comparison rule: signatures compared as integer rows over their D


FRACTION = st.builds(Rat, st.integers(-6, 6), st.sampled_from([1, 1, 2, 3, 5, 6]))


def _stretch(n, t):
    """diag(t I_n, I_n / t): symplectic, with rational entries for t != +-1."""
    diagonal = [Rat(t)] * n + [1 / Rat(t)] * n
    return ExactMatrix([[diagonal[i] if i == j else Rat(0) for j in range(2 * n)] for i in range(2 * n)])


def test_rows_compare_over_their_denominators():
    from sympjoint.invariants import _same_values
    from sympjoint.normal_form import _same

    assert _same_values([1, -2], 3, [1, -2], 3) and _same_values([1, -2], 3, [-2, 4], -6)
    assert not _same_values([1, -2], 3, [1, -2], -3) and not _same_values([1, 2], 3, [1, 2, 0], 3)
    assert not _same_values([1, 2, 0], 3, [2, 4], 6)  # one row longer: no prefix match
    sig = ("Contact", [1, 2], -5, ())
    assert _same(sig, ("Contact", [-2, -4], 10, ()))
    assert not _same(sig, ("Contact", [1, 2], -5, (Rat(1),))) and not _same(sig, ("CSp", [1, 2], -5, ()))


def _assert_one_rule(A, B, group):
    """equivalent(A, B) is the equality of the two Rat signatures, whenever
    both signatures exist and the same relabeling (if any) serves both."""
    try:
        sig_a, sig_b = signature(A, group), signature(B, group)
    except GenericityError:
        assume(False)
    assume(_normalize(group, A)[1] == _normalize(group, B)[1])
    result = equivalent(A, B, group)
    event(f"equivalent: {result}")
    assert result == (sig_a == sig_b)


@given(
    group=st.sampled_from(["sp", "csp", "asp"]),
    case=st.sampled_from(["image", "negative scale", "perturbed", "other"]),
    n=st.integers(1, 2),
    seed=st.integers(0, 10**6),
    t=st.sampled_from([1, 2, Rat(1, 3), Rat(-3, 2)]),
    data=st.data(),
)
@settings(max_examples=200, deadline=None)
def test_equivalent_is_signature_equality(group, case, n, seed, t, data):
    m = data.draw(st.integers(2, 6))
    points = st.lists(st.tuples(*[FRACTION] * (2 * n)), min_size=m, max_size=m)
    A = PointConfig(n, tuple(data.draw(points)))
    # B = S A with S rational, so the two denominators differ
    B = A.transform(random_symplectic(n, 4, seed) @ _stretch(n, t))
    if case == "negative scale":
        B = B.scale(data.draw(st.sampled_from([-1, -2, Rat(-2, 3)])))
    elif case == "perturbed":
        i, k = data.draw(st.integers(0, m - 1)), data.draw(st.integers(0, 2 * n - 1))
        moved = list(B.points[i])
        moved[k] += data.draw(st.sampled_from([1, Rat(1, 2), Rat(-1, 3)]))
        B = PointConfig(n, B.points[:i] + (tuple(moved),) + B.points[i + 1 :])
    elif case == "other":
        B = PointConfig(n, tuple(data.draw(points)))
    if group == "asp":
        B = B.translate(data.draw(st.tuples(*[FRACTION] * (2 * n))))
    _assert_one_rule(A, B, group)


def _contact_points(draw, n, m, spanning):
    """m contact points with u in halves and thirds; unless `spanning`, the
    plane parts lie in the span of two vectors (one for n = 1), so the chain
    fails and the signature row is longer."""
    u = st.builds(Rat, st.integers(-6, 6), st.sampled_from([1, 2, 3]))
    if spanning:
        planes = [draw(st.tuples(*[FRACTION] * (2 * n))) for _ in range(m)]
    else:
        basis = [draw(st.tuples(*[FRACTION] * (2 * n))) for _ in range(min(n, 2))]
        planes = []
        for _ in range(m):
            coefs = [draw(FRACTION) for _ in basis]
            planes.append(tuple([sum([c * v[k] for c, v in zip(coefs, basis)], Rat(0)) for k in range(2 * n)]))
    return [ContactPoint(p[:n], p[n:], draw(u)) for p in planes]


@given(
    case=st.sampled_from(["lift", "perturbed", "other", "non-spanning against spanning"]),
    spanning=st.booleans(),
    n=st.integers(1, 2),
    seed=st.integers(0, 10**6),
    t=st.sampled_from([1, 2, Rat(1, 3)]),
    data=st.data(),
)
@settings(max_examples=200, deadline=None)
def test_contact_equivalent_is_signature_equality(case, spanning, n, seed, t, data):
    from sympjoint.variants import contact_lift_symplectic

    m = data.draw(st.integers(2, 6))
    A = ContactConfig(n, tuple(_contact_points(data.draw, n, m, spanning)))
    B = contact_lift_symplectic(random_symplectic(n, 4, seed) @ _stretch(n, t), A)
    if case == "perturbed":
        i = data.draw(st.integers(0, m - 1))
        p = B.points[i]
        moved = ContactPoint(p.x, p.y, p.u + data.draw(st.sampled_from([1, Rat(1, 2), Rat(-1, 3)])))
        B = ContactConfig(n, B.points[:i] + (moved,) + B.points[i + 1 :])
    elif case == "other":
        B = ContactConfig(n, tuple(_contact_points(data.draw, n, m, spanning)))
    elif case == "non-spanning against spanning":
        B = ContactConfig(n, tuple(_contact_points(data.draw, n, m, not spanning)))
    _assert_one_rule(A, B, "contact")


def test_equivalent_builds_no_rat_on_spanning_pairs(monkeypatch):
    import sympjoint.normal_form as nf

    rng = random.Random(61)
    cases = []
    for group, n, m in (("sp", 1, 3), ("sp", 2, 5), ("csp", 1, 4), ("csp", 2, 4), ("asp", 1, 3), ("asp", 2, 6)):
        A = generic_sample(n, m, rng).transform(_stretch(n, Rat(2, 3)))
        B = A.transform(random_symplectic(n, 6, seed=rng.randint(0, 10**6)) @ _stretch(n, 5))
        if group == "csp":
            B = B.scale(Rat(-3, 2))
        if group == "asp":
            B = B.translate((Rat(1, 2),) * (2 * n))
        far = PointConfig(n, B.points[:-1] + (tuple([c + 1 for c in B.points[-1]]),))
        cases += [(group, A, B, True), (group, A, far, False)]

    def no_rat(*args):
        raise AssertionError("equivalent built a Rat")

    monkeypatch.setattr(nf, "Rat", no_rat)
    for group, A, B, truth in cases:
        assert equivalent(A, B, group) is truth


def _fraction_relatives(points):
    """R_k = x.y - 2u and R_ij = x_i.y_j - x_j.y_i, in Fractions."""
    dot = lambda a, b: sum([Rat(p) * Rat(q) for p, q in zip(a, b)], Rat(0))
    R_k = [dot(p.x, p.y) - 2 * Rat(p.u) for p in points]
    R_ij = {
        (i, j): dot(p.x, q.y) - dot(q.x, p.y)
        for i, p in enumerate(points, 1)
        for j, q in enumerate(points[i:], i + 1)
    }
    return R_k, R_ij


@given(n=st.integers(1, 2), spanning=st.booleans(), zero_last=st.booleans(), data=st.data())
@settings(max_examples=150, deadline=None)
def test_contact_integer_form_against_its_definition(n, spanning, zero_last, data):
    from sympjoint.exact import SkewMatrix, nullspace
    from sympjoint.field_generators import basic_set
    from sympjoint.variants import contact_absolute, contact_relative

    m = data.draw(st.integers(1, 6))
    points = _contact_points(data.draw, n, m, spanning)
    if zero_last:  # R_m = 0: u_m = x_m . y_m / 2
        p = points[-1]
        points[-1] = ContactPoint(p.x, p.y, sum([a * b for a, b in zip(p.x, p.y)], Rat(0)) / 2)
    C = ContactConfig(n, tuple(points))
    R_k, R_ij = _fraction_relatives(points)
    rel = contact_relative(C)
    assert rel["R_k"] == R_k and rel["R_ij"] == R_ij and list(rel["R_ij"]) == list(R_ij)
    if R_k[-1] == 0:
        # the fallback is the relabeling [2, ..., m, 1], which `rotate` applies
        relabel = list(range(2, m + 1)) + [1]
        assert C.rotate() == ContactConfig(n, tuple([C.points[k - 1] for k in relabel]))
        if R_k[0] == 0:  # the rotated last R vanishes too
            with pytest.raises(GenericityError, match=f"^R_{m} = 0$"):
                contact_absolute(C)
            return
        assert _normalize("contact", C)[1] == relabel
        assert contact_absolute(C) == contact_absolute(C.rotate())
        C, points = C.rotate(), points[1:] + points[:1]
        R_k, R_ij = _fraction_relatives(points)
    rm = R_k[-1]
    expected = [r / rm for r in R_k[:-1]] + [R_ij[p] / rm for p in basic_set(m, n).pairs]
    table = lambda k: SkewMatrix(2 * k, {(a, b): R_ij[a + 1, b + 1] for a in range(2 * k) for b in range(a + 1, 2 * k)})
    if not (m >= 2 * n and all([pfaffian(table(k)) != 0 for k in range(1, n + 1)])):
        expected += [R_ij[i, j] / rm for i in range(2 * n + 1, m + 1) for j in range(i + 1, m + 1)]
        basis = nullspace(ExactMatrix.from_columns([p.x + p.y for p in points]))
        if m - len(basis) < 2 * n:
            expected += [x for v in basis for x in v]
    assert list(contact_absolute(C).values) == expected


def test_decisions_refuse_malformed_arguments():
    one, two = PointConfig(1, ((1, 2),)), PointConfig(1, ((1, 0), (0, 1)))
    with pytest.raises(ValueError, match=r"^unknown group 'gl'; expected sp, csp, asp or contact$"):
        _normalize("gl", two)
    with pytest.raises(ValueError, match=r"^affine signature needs at least two points$"):
        signature(one, "asp")
    with pytest.raises(ValueError, match=r"^canonical form needs at least two points$"):
        canonical(one)
    for other in (PointConfig(1, ((1, 0), (0, 1), (1, 1))), PointConfig(2, ((1, 0, 0, 0), (0, 0, 1, 0)))):
        with pytest.raises(ValueError, match=r"^configurations must share \(n, m\)$"):
            recover_transform(two, other)
