"""Every decision reads the basic set {a_ij : i <= 2n}: each agrees with an
oracle that reads the whole Gram table, and none on a generic spanning
configuration multiplies two points past label 2n."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sympjoint.exact import ExactMatrix, Rat, is_symplectic, random_symplectic, symp
from sympjoint.field_generators import basic_set
from sympjoint.invariants import ContactConfig, ContactPoint, GenericityError, GramTable, PointConfig, _failed, gram
from sympjoint.normal_form import _GROUPS, _relations, canonical, equivalent, genericity, recover_transform, signature
from sympjoint.variants import contact_lift_symplectic, contact_relative

COORD = st.sampled_from([0, 0, 0, 1, -1, 2, -3, Rat(1, 2), Rat(-3, 2)])


def _outcome(call):
    """("ok", value) or (exception type name, message): two routes agree when their outcomes do."""
    try:
        return "ok", call()
    except ValueError as exc:  # GenericityError among them, told apart by its name
        return type(exc).__name__, str(exc)


def _require_chain(g, n, prefix):
    failed = _failed(g, n)
    if failed:
        raise GenericityError(f"{prefix}: " + ", ".join(failed))


def _oracle_linear(group, config, relabel):
    """(values, relabel) under Sp, CSp or ASp, off the whole Gram table: the
    fallback takes the first nonzero pair of the whole table."""
    n = config.n
    if group == "asp":
        if config.m < 2:
            raise ValueError("affine signature needs at least two points")
        base = config.points[0]
        config = PointConfig(n, tuple([tuple([c - b for c, b in zip(p, base)]) for p in config.points[1:]]))
    m, given_relabel = config.m, relabel is not None
    if not given_relabel:
        relabel, g = (), gram(config)
        if _failed(g, n):
            first = next((p for p in g.pairs() if g.value(*p)), None)
            if first not in (None, (1, 2)):
                perm = list(first) + [k for k in range(1, m + 1) if k not in first]
                if not _failed(gram(config.permute(perm)), n):
                    relabel = perm
            if not relabel:
                _require_chain(g, n, "non-generic configuration")
    if relabel:
        config = config.permute(relabel)
    g = gram(config)
    if given_relabel:
        _require_chain(g, n, "second configuration non-generic")
    values = [g.value(*p) for p in basic_set(m, n).pairs]
    if group == "csp":
        if m < 2:
            raise ValueError("conformal signature needs at least two points")
        a12 = values[0]
        values = [Rat(1 if a12 > 0 else -1)] + [v / a12 for v in values[1:]]
    return tuple(values) + _relations(config.points, n, m >= 2 * n), relabel


def _oracle_contact(config, relabel):
    """(values, relabel) of the contact group, off the whole table R_ij: past
    a failing chain every pair (i, j) joins, in order."""
    n, m = config.n, config.m
    if relabel is None:
        relabel = list(range(2, m + 1)) + [1] if contact_relative(config)["R_k"][-1] == 0 else ()
    if relabel:
        config = ContactConfig(n, tuple([config.points[k - 1] for k in relabel]))
    rel = contact_relative(config)
    R_k, R_ij = rel["R_k"], rel["R_ij"]
    if R_k[-1] == 0:
        raise GenericityError(f"R_{m} = 0")
    spanning = m >= 2 * n and not _failed(GramTable(m, R_ij), n)
    pairs = basic_set(m, n).pairs if spanning else list(R_ij)
    values = [r / R_k[-1] for r in R_k[:-1]] + [R_ij[p] / R_k[-1] for p in pairs]
    return tuple(values) + _relations([p.x + p.y for p in config.points], n, spanning), relabel


def _oracle(group, config, relabel=None):
    if group == "contact":
        return _oracle_contact(config, relabel)
    return _oracle_linear(group, config, relabel)


def _oracle_equivalent(A, B, group):
    values, relabel = _oracle(group, A)
    return values == _oracle(group, B, relabel)[0]


def _oracle_canonical(config):
    """Symplectic Gram-Schmidt on the points themselves, in `Rat`s: E_k and
    F_k from A_{2k-1} and A_{2k}, each minus its parts on the earlier pairs,
    omega(E_k, F_k) = 1; every column j holds omega(A_j, F_k) and
    omega(E_k, A_j)."""
    n, m, pts = config.n, config.m, config.points
    if m < 2:
        raise ValueError("canonical form needs at least two points")
    _require_chain(gram(config), n, "non-generic configuration")
    frame, cols = [], [[Rat(0)] * (2 * n) for _ in range(m)]

    def reduced(v):
        for E, F in frame:
            s, t = symp(v, F), symp(v, E)
            v = [a - s * e + t * f for a, e, f in zip(v, E, F)]
        return v

    for k in range(min(n, (m + 1) // 2)):
        if 2 * k + 1 == m:  # the last point alone spans the next E
            cols[-1][k] = Rat(1)
            break
        E, F = reduced(pts[2 * k]), reduced(pts[2 * k + 1])
        F = [c / symp(E, F) for c in F]
        frame.append((E, F))
        for j, p in enumerate(pts):
            cols[j][k], cols[j][n + k] = symp(p, F), symp(E, p)
    return ExactMatrix.from_columns(cols)


def _oracle_witness(A, B):
    """The outcome of `recover_transform` off the whole tables, a witness as
    "witness"; the witness itself is checked point by point."""
    if 2 * A.n > A.m:
        raise ValueError("underdetermined: fewer than 2n points leave a nontrivial stabilizer")
    for label, cfg in (("first", A), ("second", B)):
        _require_chain(gram(cfg), A.n, f"{label} configuration non-generic")
    if gram(A) != gram(B):
        raise ValueError("not equivalent: Gram tables differ")
    return "witness"


def _points(draw, n, m):
    """m points of R^{2n}: free, of a drawn rank r <= 2n, with A_2 = 2 A_1, or
    with its first k <= 2n points zero, so non-spanning, non-generic and
    fallback inputs all occur, the last with a first nonzero pair past 2n."""
    shape = draw(st.sampled_from(["free", "rank", "a12 = 0", "zero head"]))
    vec = st.lists(COORD, min_size=2 * n, max_size=2 * n)
    if shape == "rank":
        basis = [draw(vec) for _ in range(draw(st.integers(1, 2 * n)))]
        coefs = st.lists(st.integers(-2, 2), min_size=len(basis), max_size=len(basis))
        pts = [[sum([c * v[k] for c, v in zip(draw(coefs), basis)], Rat(0)) for k in range(2 * n)] for _ in range(m)]
    else:
        pts = [draw(vec) for _ in range(m)]
        if shape == "a12 = 0" and m >= 2:
            pts[1] = [2 * c for c in pts[0]]
        if shape == "zero head":
            k = min(m, draw(st.integers(1, 2 * n)))
            pts[:k] = [[0] * (2 * n)] * k
    return pts


def _perturbed(cfg, draw):
    """cfg with one coordinate of one drawn point moved."""
    i, k = draw(st.integers(0, cfg.m - 1)), draw(st.integers(0, 2 * cfg.n - 1))
    moved = list(cfg.points[i])
    moved[k] += draw(st.sampled_from([1, Rat(-1, 2)]))
    return PointConfig(cfg.n, cfg.points[:i] + (tuple(moved),) + cfg.points[i + 1 :])


@given(n=st.integers(1, 3), case=st.sampled_from(["image", "perturbed", "other"]), data=st.data())
@settings(max_examples=250, deadline=None)
def test_linear_decisions_agree_with_the_full_table(n, case, data):
    m = data.draw(st.integers(1, 3 * n + 3))
    A = PointConfig(n, tuple(_points(data.draw, n, m)))
    S = random_symplectic(n, 4, data.draw(st.integers(0, 10**6)))
    images = {
        "sp": A.transform(S),
        "csp": A.transform(S).scale(data.draw(st.sampled_from([2, Rat(1, 3), -1]))),
        "asp": A.transform(S).translate(data.draw(st.lists(COORD, min_size=2 * n, max_size=2 * n))),
    }
    if case == "other":
        images = dict.fromkeys(images, PointConfig(n, tuple(_points(data.draw, n, m))))
    elif case == "perturbed":
        images = {group: _perturbed(B, data.draw) for group, B in images.items()}
    for group, B in images.items():
        assert _outcome(lambda: equivalent(A, B, group)) == _outcome(lambda: _oracle_equivalent(A, B, group))
        ours = _outcome(lambda: signature(A, group))
        theirs = _outcome(lambda: _oracle(group, A)[0])
        assert ours == theirs if ours[0] != "ok" else (ours[1].group, ours[1].values) == (_GROUPS[group], theirs[1])
    assert _outcome(lambda: canonical(A)) == _outcome(lambda: _oracle_canonical(A))
    B = images["sp"]
    ours, theirs = _outcome(lambda: recover_transform(A, B)), _outcome(lambda: _oracle_witness(A, B))
    assert ours[0] == theirs[0]
    if ours[0] == "ok":
        M = ours[1]
        assert is_symplectic(M) and [M.apply(p) for p in A.points] == list(B.points)
    else:
        assert ours == theirs


def _contact_config(draw, n, m):
    """m contact points on `_points`' plane parts; u = x.y / 2 on the last one
    when drawn, so R_m = 0 and the rotation fallback occurs."""
    planes = _points(draw, n, m)
    pts = [ContactPoint(p[:n], p[n:], draw(COORD)) for p in planes]
    if draw(st.booleans()):
        p = pts[-1]
        pts[-1] = ContactPoint(p.x, p.y, sum([a * b for a, b in zip(p.x, p.y)], Rat(0)) / 2)
    return ContactConfig(n, tuple(pts))


@given(n=st.integers(1, 3), case=st.sampled_from(["lift", "perturbed", "other"]), data=st.data())
@settings(max_examples=150, deadline=None)
def test_contact_decisions_agree_with_the_full_table(n, case, data):
    m = data.draw(st.integers(1, 3 * n + 3))
    A = _contact_config(data.draw, n, m)
    B = contact_lift_symplectic(random_symplectic(n, 4, data.draw(st.integers(0, 10**6))), A)
    if case == "perturbed":
        i = data.draw(st.integers(0, m - 1))
        p = B.points[i]
        B = ContactConfig(n, B.points[:i] + (ContactPoint(p.x, p.y, p.u + 1),) + B.points[i + 1 :])
    elif case == "other":
        B = _contact_config(data.draw, n, m)
    assert _outcome(lambda: equivalent(A, B, "contact")) == _outcome(lambda: _oracle_equivalent(A, B, "contact"))
    ours, theirs = _outcome(lambda: signature(A, "contact")), _outcome(lambda: _oracle(group="contact", config=A)[0])
    assert ours == theirs if ours[0] != "ok" else ours[1].values == theirs[1]


def _far(points, n, shift=0):
    """The points past label 2n as tuples; with shift 1, translated by -A_1
    first (the ASp labels are one less)."""
    base = points[0] if shift else [0] * len(points[0])
    return {tuple([x - y for x, y in zip(u, base)]) for u in points[2 * n + shift :]}


@pytest.mark.parametrize("n,m", [(1, 8), (2, 9), (3, 10)])
def test_no_decision_multiplies_two_points_past_2n(monkeypatch, n, m):
    import sympjoint.invariants as inv
    import sympjoint.normal_form as nf

    rng = random.Random(90 + n)
    A = next(c for c in iter(lambda: inv.random_config(n, m, rng), None) if genericity(c).generic)
    B = A.transform(random_symplectic(n, 6, seed=n))
    C = ContactConfig(n, tuple([(p[:n], p[n:], rng.randint(-9, 9)) for p in A.points]))
    D = contact_lift_symplectic(random_symplectic(n, 6, seed=n), C)
    columns = PointConfig(n, tuple(canonical(A).columns()))
    (a, _), (b, _), (c, _, _), (d, _, _), (k, _) = A._ints, B._ints, C._ints, D._ints, columns._ints
    far = _far(a, n) | _far(b, n) | _far(a, n, 1) | _far(b, n, 1) | _far(c, n) | _far(d, n) | _far(k, n)
    near = {tuple(u) for pts in (a, b, c, d, k) for u in pts[: 2 * n]}
    assert not far & near  # each product is told apart by its factors' values
    products = []

    def recorded(u, v):
        products.append((tuple(u), tuple(v)))
        return symp(u, v)

    monkeypatch.setattr(inv, "symp", recorded)
    monkeypatch.setattr(nf, "symp", recorded)
    decisions = [
        lambda: genericity(A),
        lambda: [equivalent(A, B, group) for group in ("sp", "csp", "asp")],
        lambda: [signature(A, group) for group in ("sp", "csp", "asp")],
        lambda: equivalent(C, D, "contact"),
        lambda: canonical(A),
        lambda: recover_transform(A, B),
    ]
    for decide in decisions:
        products.clear()
        decide()
        assert products and not [p for p in products if p[0] in far and p[1] in far]
    gram(A)  # the whole table, which the recorder tells apart
    assert [p for p in products if p[0] in far and p[1] in far]
