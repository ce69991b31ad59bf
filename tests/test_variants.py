import random
import re
from itertools import combinations

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from sympjoint.exact import ExactMatrix, Rat, rat, random_symplectic, symp
from sympjoint.invariants import GenericityError, PointConfig, gram, random_config
from sympjoint.normal_form import equivalent, signature
from sympjoint.poly import MultiPoly, aux_var, contact_var
from sympjoint.variants import (
    ContactConfig,
    ContactPoint,
    asp_invariants,
    contact_absolute,
    contact_apply,
    contact_config_from_dict,
    contact_config_to_dict,
    contact_equivalent,
    contact_lift_symplectic,
    contact_relative,
    contact_transform,
    csp_signature,
    dim_bbar,
)


def random_gl2(rng):
    while True:
        m = ExactMatrix([[rng.randint(-4, 4) for _ in range(2)] for _ in range(2)])
        if m.data[0][0] * m.data[1][1] - m.data[0][1] * m.data[1][0] != 0:
            return m


def random_contact(n, m, rng):
    pts = tuple(
        ContactPoint(
            tuple(rng.randint(-5, 5) for _ in range(n)),
            tuple(rng.randint(-5, 5) for _ in range(n)),
            rng.randint(-5, 5),
        )
        for _ in range(m)
    )
    return ContactConfig(n, pts)


# --- conformal and affine ----------------------------------------------------


def test_csp_signature_ratios():
    g = gram(PointConfig(1, ((1, 0), (0, 2), (-3, 3))))
    sig = csp_signature(g, 1)
    assert sig.values[0] == 1  # sign of a12 = 2
    assert len(sig.values) - 1 == 2  # d(3,1) - 1 ratios
    assert sig.values[1] == g.value(1, 3) / g.value(1, 2)
    a12, a13 = Rat(2), Rat(6)
    g2 = gram(PointConfig(1, ((1, 0), (0, a12), (-a13 / a12, a13))))
    assert g2.value(1, 2) == 2 and g2.value(1, 3) == 6
    assert csp_signature(g2, 1).values[1] == 3


def test_csp_scaling_invariance():
    rng = random.Random(70)
    cfg = random_config(2, 5, rng)
    g = gram(cfg)
    if g.value(1, 2) == 0:
        pytest.skip("degenerate draw")
    assert csp_signature(g, 2) == csp_signature(gram(cfg.scale(3)), 2)
    # a12 sign is part of the signature: the conformal factor is positive
    assert csp_signature(g, 2).values[0] == (1 if g.value(1, 2) > 0 else -1)


def test_csp_requires_nonzero_a12():
    g = gram(PointConfig(1, ((1, 0), (2, 0))))
    with pytest.raises(GenericityError):
        csp_signature(g, 1)


def test_csp_needs_two_points():
    one = PointConfig(1, ((1, 2),))
    for call in (lambda: csp_signature(gram(one), 1), lambda: signature(one, "csp")):
        with pytest.raises(ValueError, match="^conformal signature needs at least two points$"):
            call()


def test_asp_translation_and_symplectic_invariance():
    rng = random.Random(71)
    cfg = random_config(1, 4, rng)
    vals = asp_invariants(cfg)
    assert len(vals) == 3  # triples (1,j,k): d(3,1) of the translated config
    shifted = cfg.translate((7, -2))
    assert asp_invariants(shifted) == vals
    moved = cfg.transform(random_symplectic(1, 10, seed=1))
    assert asp_invariants(moved) == vals


def test_asp_collinear_triangle_vanishes():
    cfg = PointConfig(1, ((0, 0), (1, 1), (2, 2)))
    assert asp_invariants(cfg) == [Rat(0)]
    with pytest.raises(ValueError):
        asp_invariants(PointConfig(1, ((0, 0), (1, 1))))


# --- contact action ----------------------------------------------------------


def test_contact_apply_identity():
    p = ContactPoint((2,), (3,), rat(5, 2))
    assert contact_apply(ExactMatrix.identity(2), p) == p


def test_contact_apply_composition():
    rng = random.Random(72)
    for _ in range(10):
        g1, g2 = random_gl2(rng), random_gl2(rng)
        p = ContactPoint((rng.randint(-5, 5),), (rng.randint(-5, 5),), rng.randint(-5, 5))
        assert contact_apply(g1, contact_apply(g2, p)) == contact_apply(g1 @ g2, p)


@pytest.mark.parametrize("seed", range(3))
def test_contact_apply_with_unit_determinant_is_the_symplectic_lift(seed):
    cfg = random_contact(1, 4, random.Random(seed))
    M = random_symplectic(1, 6, seed)
    assert contact_transform(M, cfg) == contact_lift_symplectic(M, cfg)


def test_contact_apply_rejects_singular():
    with pytest.raises(ValueError):
        contact_apply(ExactMatrix([[1, 2], [2, 4]]), ContactPoint((1,), (1,), 0))


def test_relative_invariant_weight_symbolic():
    """R = xy - 2u picks up exactly det(g) under the lifted action."""
    al, be, ga, de, x, y, u = (
        MultiPoly.variable(aux_var(name)) for name in ("al", "be", "ga", "de", "x", "y", "u")
    )
    half = rat(1, 2)
    det = al * de - be * ga
    nx = al * x + be * y
    ny = ga * x + de * y
    nu = det * (u - half * x * y) + half * nx * ny
    new_r = nx * ny - 2 * nu
    assert new_r == det * (x * y - 2 * u)


def test_contact_relative_values_and_weights():
    p = ContactPoint((1,), (1,), 0)
    cfg = ContactConfig(1, (p, ContactPoint((0,), (2,), 1)))
    rel = contact_relative(cfg)
    assert rel["R_k"][0] == 1  # 1*1 - 0
    assert rel["R_ij"][(1, 2)] == 2  # the planar a12 of the projections
    rng = random.Random(73)
    for _ in range(10):
        cfg = random_contact(1, 4, rng)
        g = random_gl2(rng)
        det = g.data[0][0] * g.data[1][1] - g.data[0][1] * g.data[1][0]
        moved = contact_transform(g, cfg)
        rel0, rel1 = contact_relative(cfg), contact_relative(moved)
        assert rel1["R_k"] == [det * r for r in rel0["R_k"]]
        assert all(rel1["R_ij"][k] == det * v for k, v in rel0["R_ij"].items())


def test_contact_absolute_cardinalities():
    rng = random.Random(74)
    for m in range(2, 7):
        while True:
            cfg = random_contact(1, m, rng)
            try:
                sig = contact_absolute(cfg)
                break
            except GenericityError:
                continue
        assert len(sig.values) == 3 * m - 4 == dim_bbar(m, 1)
    while True:
        cfg = random_contact(2, 5, rng)
        try:
            sig = contact_absolute(cfg)
            break
        except GenericityError:
            continue
    assert len(sig.values) == dim_bbar(5, 2) == (2 * 2 + 1) * 5 - 2 * 5 - 1


def test_contact_absolute_invariance():
    rng = random.Random(75)
    for _ in range(10):
        cfg = random_contact(1, 4, rng)
        g = random_gl2(rng)
        try:
            sig = contact_absolute(cfg)
        except GenericityError:
            continue
        assert sig == contact_absolute(contact_transform(g, cfg))


def test_eliminated_entries_reconstruct():
    # T_kl = (T_1k T_2l - T_1l T_2k) / T_12 recovers the dropped ratios (n=1)
    rng = random.Random(76)
    done = 0
    while done < 10:
        cfg = random_contact(1, 5, rng)
        rel = contact_relative(cfg)
        rm = rel["R_k"][-1]
        r12 = rel["R_ij"][(1, 2)]
        if rm == 0 or r12 == 0:
            continue
        t = {k: v / rm for k, v in rel["R_ij"].items()}
        for (k, l) in ((3, 4), (3, 5), (4, 5)):
            recon = (t[(1, k)] * t[(2, l)] - t[(1, l)] * t[(2, k)]) / t[(1, 2)]
            assert recon == t[(k, l)]
        done += 1


def test_contact_equivalence_round_trip():
    rng = random.Random(77)
    for _ in range(10):
        cfg = random_contact(1, 4, rng)
        g = random_gl2(rng)
        try:
            assert contact_equivalent(cfg, contact_transform(g, cfg))
        except GenericityError:
            continue


def test_contact_equivalence_detects_perturbation():
    rng = random.Random(78)
    cfg = random_contact(1, 4, rng)
    pts = list(cfg.points)
    pts[0] = ContactPoint(pts[0].x, pts[0].y, pts[0].u + 1)
    other = ContactConfig(1, tuple(pts))
    try:
        assert not contact_equivalent(cfg, other)
        assert contact_equivalent(cfg, cfg)
    except GenericityError:
        pytest.skip("degenerate draw")


def test_contact_lift_preserves_invariants_n2():
    # partial transport for n > 1: symplectic in (x, y), u adjusted to fix R_k
    rng = random.Random(79)
    cfg = random_contact(2, 5, rng)
    m = random_symplectic(2, 10, seed=5)
    moved = contact_lift_symplectic(m, cfg)
    rel0, rel1 = contact_relative(cfg), contact_relative(moved)
    assert rel0["R_k"] == rel1["R_k"]
    assert rel0["R_ij"] == rel1["R_ij"]
    try:
        assert contact_absolute(cfg) == contact_absolute(moved)
    except GenericityError:
        pass


def test_contact_rm_rotation_fallback():
    # R of the last point vanishes; one rotation rescues the signature
    good = ContactPoint((1,), (1,), 1)  # R = -1
    bad = ContactPoint((2,), (1,), 1)  # R = 0
    cfg = ContactConfig(1, (good, ContactPoint((0,), (1,), 3), bad))
    sig = contact_absolute(cfg)
    assert len(sig.values) == 5
    all_bad = ContactConfig(1, (bad, bad))
    with pytest.raises(GenericityError):
        contact_absolute(all_bad)


def test_contact_json_round_trip():
    cfg = ContactConfig(
        1, (ContactPoint((1,), (2,), "1/3"), ContactPoint(("0.5",), (0,), 2))
    )
    assert contact_config_from_dict(contact_config_to_dict(cfg)) == cfg


def test_dim_bbar_small_m_branch():
    assert dim_bbar(2, 2) == 2  # C(3,2) - 1
    assert dim_bbar(3, 2) == 5
    assert dim_bbar(6, 1) == 14


@pytest.mark.parametrize("n", [True, 1.0, "1"])
def test_dim_bbar_refuses_an_n_that_only_looks_like_an_int(n):
    # the type is checked before the range, whose wording stays
    with pytest.raises(ValueError, match=f"^'n' must be an integer, got {re.escape(repr(n))}$"):
        dim_bbar(3, n)
    with pytest.raises(ValueError, match="^need m >= 1 and n >= 1$"):
        dim_bbar(3, 0)


def test_contact_var_constructor():
    v = contact_var(3)
    assert v == ("u", 3)
    p = MultiPoly.variable(v)
    assert str(p) == "u3"


def test_contact_signature_via_group_dispatch():
    from sympjoint.normal_form import signature

    rng = random.Random(95)
    cfg = random_contact(1, 3, rng)
    sig = signature(cfg, "contact")
    assert sig == contact_absolute(cfg)
    with pytest.raises(ValueError):
        signature(PointConfig(1, ((1, 0), (0, 1))), "contact")


def _chain_degenerate_pair():
    """Points e1, f1, e2, 2e2, f2 (so b_1234(T) = 0), then a sixth point that
    differs between the two configurations only in T_56; every R_k is 1."""
    e1, e2, f1, f2 = (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)

    def contact(last):
        pts = []
        for p in (e1, f1, e2, (0, 2, 0, 0), f2, last):
            x, y = p[:2], p[2:]
            pts.append(ContactPoint(x, y, Rat(x[0] * y[0] + x[1] * y[1] - 1, 2)))
        return ContactConfig(2, tuple(pts))

    return contact((1, 1, 1, 1)), contact((1, 2, 1, 1))


def test_contact_vanishing_chain_link_is_not_equivalent():
    from sympjoint.normal_form import equivalent

    A, B = _chain_degenerate_pair()
    assert contact_relative(A)["R_k"] == contact_relative(B)["R_k"] == [1] * 6
    assert not contact_equivalent(A, B)
    assert not equivalent(A, B, "contact")
    sig_a, sig_b = contact_absolute(A), contact_absolute(B)
    # the eliminated T_56 follows the basic-set values: -1 against -2
    assert len(sig_a.values) == len(sig_b.values) == dim_bbar(6, 2) + 1
    assert sig_a.values[:-1] == sig_b.values[:-1]
    assert (sig_a.values[-1], sig_b.values[-1]) == (-1, -2)


@pytest.mark.parametrize("seed", range(3))
def test_contact_vanishing_chain_link_stays_equivalent_to_its_lift(seed):
    A, _ = _chain_degenerate_pair()
    moved = contact_lift_symplectic(random_symplectic(2, 10, seed=seed), A)
    assert contact_equivalent(A, moved)
    assert contact_absolute(A) == contact_absolute(moved)


def test_generic_contact_signature_has_no_eliminated_values():
    rng = random.Random(80)
    while True:
        cfg = random_contact(2, 6, rng)
        try:
            sig = contact_absolute(cfg)
            break
        except GenericityError:
            continue
    assert len(sig.values) == dim_bbar(6, 2)


# plane parts (x, y) of two configurations with equal R_k and equal T_ij
# but different linear relations, so no linear map moves one onto the other
RELATION_PAIRS = [
    (2, [(1, 0, 0, 0), (2, 0, 0, 0)], [(1, 0, 0, 0), (0, 1, 0, 0)]),  # 2e1 against e2
    (1, [(1, 0), (2, 0)], [(1, 0), (3, 0)]),
    (1, [(1, 0), (2, 0), (3, 0)], [(1, 0), (2, 0), (5, 0)]),
]


@pytest.mark.parametrize("n,plane_a,plane_b", RELATION_PAIRS)
def test_contact_plane_relations_separate(n, plane_a, plane_b):
    A, B = (ContactConfig(n, tuple(ContactPoint(p[:n], p[n:], 1) for p in plane)) for plane in (plane_a, plane_b))
    assert contact_relative(A)["R_k"] == contact_relative(B)["R_k"]
    assert not contact_equivalent(A, B)
    assert not equivalent(A, B, "contact")


@st.composite
def contact_configs(draw):
    """Small integer contact configurations; with `flat`, the plane parts are
    integer combinations of 2n - 1 vectors, so they span a proper subspace;
    with `fallback`, u of the last point makes R_m = 0, so the signature must
    rotate (or reject) the points."""
    n = draw(st.integers(1, 2))
    flat = draw(st.booleans())
    m = draw(st.integers(1, 2 * n + 1 if flat else 6))
    coord = st.integers(-3, 3)
    if flat:
        basis = [[draw(coord) for _ in range(2 * n)] for _ in range(2 * n - 1)]
        planes = []
        for _ in range(m):
            weights = [draw(coord) for _ in basis]
            planes.append([sum(w * v[c] for w, v in zip(weights, basis)) for c in range(2 * n)])
    else:
        planes = [[draw(coord) for _ in range(2 * n)] for _ in range(m)]
    pts = [ContactPoint(tuple(p[:n]), tuple(p[n:]), draw(coord)) for p in planes]
    if draw(st.booleans()):
        last = pts[-1]
        pts[-1] = ContactPoint(last.x, last.y, Rat(sum(a * b for a, b in zip(last.x, last.y)), 2))
    return ContactConfig(n, tuple(pts))


@given(cfg=contact_configs(), seed=st.integers(0, 10**6))
@settings(max_examples=60, deadline=None)
def test_contact_lift_image_is_equivalent(cfg, seed):
    try:
        sig = contact_absolute(cfg)
    except GenericityError:
        assume(False)
    moved = contact_lift_symplectic(random_symplectic(cfg.n, 6, seed), cfg)
    assert contact_equivalent(cfg, moved)
    assert equivalent(cfg, moved, "contact")
    assert contact_absolute(moved) == sig == signature(moved, "contact")
    if cfg.n == 1:
        assert contact_equivalent(cfg, contact_transform(random_gl2(random.Random(seed)), cfg))


def test_contact_config_needs_n_at_least_one():
    with pytest.raises(ValueError, match="n must be >= 1"):
        ContactConfig(0, (ContactPoint((), (), 1),))


@given(st.integers(1, 2), st.integers(1, 5), st.data())
@settings(max_examples=40, deadline=None)
def test_contact_relative_pairs_are_the_pairwise_symp(n, m, data):
    coord = st.builds(Rat, st.integers(-9, 9), st.integers(1, 6))
    coords = st.lists(coord, min_size=n, max_size=n)
    cfg = ContactConfig(n, tuple([(data.draw(coords), data.draw(coords), data.draw(coord)) for _ in range(m)]))
    plane = [p.x + p.y for p in cfg.points]
    expected = {(i + 1, j + 1): symp(plane[i], plane[j]) for i, j in combinations(range(m), 2)}
    R = contact_relative(cfg)["R_ij"]
    assert R == expected
    assert list(R) == list(expected)
    assert all(type(v) is Rat for v in R.values())


def test_csp_separates_an_antisymplectic_image():
    # swapping the x and y blocks negates every a_ij: the ratios agree, the
    # sign of a12 does not, and the conformal factor is positive
    for cfg in (PointConfig(1, ((1, 0), (0, 2), (-3, 3))), PointConfig(2, ((1, 0, 2, 0), (0, 1, 3, 1), (2, 2, 0, 1)))):
        n = cfg.n
        swapped = PointConfig(n, tuple([p[n:] + p[:n] for p in cfg.points]))
        sig, other = csp_signature(gram(cfg), n), csp_signature(gram(swapped), n)
        assert (sig.values[0], other.values[0]) == (1, -1)
        assert sig.values[1:] == other.values[1:]
        assert not equivalent(cfg, swapped, "csp")


def test_contact_values_are_the_relative_ratios():
    # fractional coordinates and a fractional R_m: T_k = R_k / R_m, T_ij = R_ij / R_m
    cfg = ContactConfig(1, (((1,), (2,), "1/3"), (("1/2",), (3,), 1), ((2,), ("-1/5",), "2/7")))
    rel = contact_relative(cfg)
    rm = rel["R_k"][-1]
    assert rm.denominator != 1
    expected = [r / rm for r in rel["R_k"][:-1]] + [rel["R_ij"][p] / rm for p in ((1, 2), (1, 3), (2, 3))]
    assert list(contact_absolute(cfg).values) == expected


# plane parts whose first two pair to zero (R_12 = 0), with m >= 2n + 2, so
# the leading chain fails and the eliminated T_ij join the signature
R12_ZERO = [
    (1, [(1, 2), (2, 4), (0, 1), (3, -1)], [1, 0, 2, -1]),
    (1, [(1, 2), (-1, -2), (0, 1), (3, -1), (2, 5)], [1, 0, 2, 3, -1]),
    (2, [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (1, 2, 0, 1), (2, -1, 3, 1), (0, 3, 1, 2)], [1, 0, 2, -1, 1, 2]),
]


def r12_zero_contact(n, planes, us):
    cfg = ContactConfig(n, tuple(ContactPoint(p[:n], p[n:], u) for p, u in zip(planes, us)))
    assert contact_relative(cfg)["R_ij"][1, 2] == 0 and contact_relative(cfg)["R_k"][-1] != 0
    return cfg


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("n,planes,us", R12_ZERO)
def test_contact_with_vanishing_r12_is_decided(n, planes, us, seed):
    A = r12_zero_contact(n, planes, us)
    B = contact_lift_symplectic(random_symplectic(n, 6, seed=seed), A)
    assert contact_equivalent(A, B)
    assert contact_absolute(A) == contact_absolute(B)
    pts = list(B.points)
    pts[1] = ContactPoint(pts[1].x, pts[1].y, pts[1].u + 1)
    assert not contact_equivalent(A, ContactConfig(n, tuple(pts)))
