"""The benchmark's workloads: seeded inputs, the op list of one pass, and the
ground truth every op is checked against.

An op has a timed ``run`` (the call a user of the library or the CLI waits
for) and an untimed ``summarize`` that turns the raw result into a small JSON
value, verifying it on the way (witness matrices are re-applied, canonical
forms are re-paired).  The summary must equal ``expect``, which is known by
construction: B = M.A is equivalent to A, a one-coordinate perturbation
whose invariant table differs is not, points in R^{2n} make every Pfaffian
syzygy vanish, and the counts and dimensions follow from closed formulas.
The ground truth is computed here with stdlib ``Fraction`` arithmetic, not
with the library under test.

Ops marked ``known_defect`` have the correct expected answer but are known
to fail at the commit that introduced the benchmark (the ROADMAP item-1
false positives and CLI input errors).  They stay in the op list so the
defect shows in every run; a fix turns them into passing ops.

See WORKLOADS.md for the op mix of each workload and why it was chosen.
"""

import dataclasses
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import combinations, permutations
from math import comb, factorial
from numbers import Rational
from pathlib import Path

import sympjoint as sj

WORKLOADS = ("algebra", "decide", "symbolic", "cli")


@dataclass
class Op:
    name: str
    kind: str
    run: object  # () -> raw result; the only timed part of an op
    summarize: object  # raw result -> JSON-able summary, compared with expect
    expect: object
    known_defect: bool = False
    digest: object = None  # raw result -> the part of it the result checksum covers

    def fingerprint(self, raw):
        """Canonical text of a raw result, for the result checksum."""
        return canonical(self.digest(raw) if self.digest else raw)


def canonical(obj):
    """Text that depends only on the value of a raw result: dict entries and
    polynomial terms are sorted and numbers written as exact fractions, so
    the order a result is built in does not change it and any value does."""
    if isinstance(obj, bool) or obj is None or isinstance(obj, (str, float)):
        return repr(obj)
    if isinstance(obj, Rational):
        return str(Fraction(obj.numerator, obj.denominator))
    if isinstance(obj, sj.MultiPoly):
        return "poly" + repr(sorted((mono, canonical(c)) for mono, c in obj.terms.items()))
    if isinstance(obj, sj.ExactMatrix):
        return "matrix" + canonical(obj.data)
    if isinstance(obj, sj.GramTable):
        return f"gram{obj.m}" + canonical(obj.values)
    if isinstance(obj, dict):
        return "{" + ",".join(sorted(f"{canonical(k)}:{canonical(v)}" for k, v in obj.items())) + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(map(canonical, obj)) + "]"
    if dataclasses.is_dataclass(obj):
        return type(obj).__name__ + canonical([getattr(obj, f.name) for f in dataclasses.fields(obj)])
    raise TypeError(f"no canonical form for {type(obj).__name__}")

# ---------------------------------------------------------------------------
# Ground truth in plain Fraction arithmetic


def omega(u, v):
    n = len(u) // 2
    return sum((u[k] * v[n + k] - v[k] * u[n + k] for k in range(n)), Fraction(0))


def gram_of(points):
    m = len(points)
    return {(i, j): omega(points[i], points[j]) for i in range(m) for j in range(i + 1, m)}


def skew(table, i, j):
    if i == j:
        return Fraction(0)
    return table[(i, j)] if i < j else -table[(j, i)]


def pf(table, idx):
    """Pfaffian of the skew table restricted to idx, by first-row expansion."""
    if not idx:
        return Fraction(1)
    total = Fraction(0)
    for p in range(1, len(idx)):
        a = skew(table, idx[0], idx[p])
        if a:
            sign = -1 if p % 2 == 0 else 1
            total += sign * a * pf(table, idx[1:p] + idx[p + 1 :])
    return total


def chain_nonzero(table, n, m):
    """The leading-Pfaffian genericity chain b_{1..2k}, k <= min(n, m/2)."""
    return all(pf(table, tuple(range(2 * k))) != 0 for k in range(1, min(n, m // 2) + 1))


def matvec(M, v):
    return tuple(sum((a * b for a, b in zip(row, v)), Fraction(0)) for row in M)


def is_symplectic(M, n):
    cols = [tuple(row[j] for row in M) for j in range(2 * n)]
    return all(
        omega(cols[i], cols[j]) == (1 if j == i + n else -1 if i == j + n else 0)
        for i in range(2 * n)
        for j in range(2 * n)
    )


def dim_d(m, n):
    return 2 * n * m - n * (2 * n + 1) if m >= 2 * n else comb(m, 2)


def dim_bbar(m, n):
    return (2 * n + 1) * m - n * (2 * n + 1) - 1 if m >= 2 * n else comb(m, 2) + m - 1


def poincare(maxdeg):
    """Coefficients of (1 + z^4) / ((1 - z^2)^2 (1 - z^3)), the m = 3 series."""
    out = [0] * (maxdeg + 1)
    for a in range(0, maxdeg + 1, 2):
        for b in range(0, maxdeg + 1 - a, 2):
            for c in range(0, maxdeg + 1 - a - b, 3):
                for extra in (0, 4):
                    k = a + b + c + extra
                    if k <= maxdeg:
                        out[k] += 1
    return out


def odd_double_factorial(n):
    out = 1
    for k in range(1, 2 * n + 2, 2):
        out *= k
    return out


def _matchings(labels):
    if not labels:
        yield ()
        return
    for p in range(1, len(labels)):
        for rest in _matchings(labels[1:p] + labels[p + 1 :]):
            yield ((labels[0], labels[p]),) + rest


@cache
def pfaffian_terms(labels):
    """Terms of Pf(a_ij) over ascending labels: one per perfect matching,
    with sign (-1)^(number of crossing pairs)."""
    out = {}
    for match in _matchings(labels):
        crossings = sum(a < c < b < d or c < a < d < b for (a, b), (c, d) in combinations(match, 2))
        out[tuple(sorted((sj.avar(i, j), 1) for i, j in match))] = Fraction((-1) ** crossings)
    return out


@cache
def determinant_terms(rows, cols):
    """Terms of det(a_{r,c}) for labels rows < cols: one per permutation,
    with its sign."""
    out = {}
    for perm in permutations(range(len(cols))):
        inversions = sum(perm[s] > perm[t] for s, t in combinations(range(len(perm)), 2))
        out[tuple(sorted((sj.avar(r, cols[t]), 1) for r, t in zip(rows, perm)))] = Fraction((-1) ** inversions)
    return out


def contact_relatives(points, n):
    """R_k = x.y - 2u per point, R_ij = x_i.y_j - x_j.y_i per pair (0-based)."""
    r_k = [sum(x * y for x, y in zip(p[0], p[1])) - 2 * p[2] for p in points]
    r_ij = {
        (i, j): sum(points[i][0][t] * points[j][1][t] - points[j][0][t] * points[i][1][t] for t in range(n))
        for i in range(len(points))
        for j in range(i + 1, len(points))
    }
    return r_k, r_ij


def contact_ratios(points, n):
    r_k, r_ij = contact_relatives(points, n)
    ref = r_k[-1]
    return tuple(r / ref for r in r_k) + tuple(r_ij[p] / ref for p in sorted(r_ij))


# ---------------------------------------------------------------------------
# Seeded inputs


def _rand_points(rng, n, m, lo=-9, hi=9):
    return [tuple(Fraction(rng.randint(lo, hi)) for _ in range(2 * n)) for _ in range(m)]


def _generic_points(rng, n, m):
    while True:
        pts = _rand_points(rng, n, m)
        if chain_nonzero(gram_of(pts), n, m):
            return pts


def _translated(points):
    return [tuple(c - o for c, o in zip(p, points[0])) for p in points[1:]]


def _symplectic(rng, n):
    M = sj.random_symplectic(n, 2 * n + 2, seed=rng.randrange(1 << 30))
    rows = [tuple(Fraction(x) for x in row) for row in M.data]
    if not is_symplectic(rows, n):
        raise RuntimeError("random_symplectic returned a non-symplectic matrix")
    return rows


def _perturbed(rng, pts):
    out = list(pts)
    i = rng.randrange(len(out))
    c = rng.randrange(len(out[i]))
    p = list(out[i])
    p[c] += rng.choice((1, 2, 3, -1, -2))
    out[i] = tuple(p)
    return out


def _group_view(points, group):
    """The table an equivalence under the group must preserve exactly."""
    if group == "sp":
        return gram_of(points)
    if group == "asp":
        return gram_of(_translated(points))
    g = gram_of(points)  # csp: sign of a12 and every ratio a_ij / a12
    return (g[(0, 1)] > 0,) + tuple(g[p] / g[(0, 1)] for p in sorted(g))


def _group_generic(points, group, n):
    pts = _translated(points) if group == "asp" else points
    return chain_nonzero(gram_of(pts), n, len(pts))


def _pair(rng, n, m, group, equivalent):
    """(A, B) with B = g.A for a random g of the group, perturbed when not
    equivalent until the invariant table of the group separates them."""
    while True:
        A = _generic_points(rng, n, m)
        if not _group_generic(A, group, n):
            continue
        M = _symplectic(rng, n)
        B = [matvec(M, p) for p in A]
        if group == "csp":
            f = Fraction(rng.choice((2, 3, 5)), rng.choice((1, 2, 3)))
            B = [tuple(f * c for c in p) for p in B]
        elif group == "asp":
            t = [Fraction(rng.randint(-5, 5)) for _ in range(2 * n)]
            B = [tuple(c + d for c, d in zip(p, t)) for p in B]
        if not equivalent:
            B = _perturbed(rng, B)
        if not _group_generic(B, group, n):
            continue
        if equivalent or _group_view(A, group) != _group_view(B, group):
            return A, B, M


def _contact_points(rng, n, m):
    while True:
        pts = [
            (
                tuple(Fraction(rng.randint(-6, 6)) for _ in range(n)),
                tuple(Fraction(rng.randint(-6, 6)) for _ in range(n)),
                Fraction(rng.randint(-6, 6), rng.choice((1, 2))),
            )
            for _ in range(m)
        ]
        r_k, r_ij = contact_relatives(pts, n)
        if r_k[-1] != 0 and r_ij[(0, 1)] != 0 and pf(r_ij, tuple(range(2 * n))) != 0:
            return pts


def _contact_cfg(points, n):
    return sj.ContactConfig(n, tuple(sj.ContactPoint(*p) for p in points))


def _contact_pair(rng, n, m, equivalent):
    while True:
        A = _contact_points(rng, n, m)
        M = _symplectic(rng, n)
        lifted = sj.contact_lift_symplectic(sj.ExactMatrix(M), _contact_cfg(A, n))
        B = [(p.x, p.y, p.u) for p in lifted.points]
        if contact_relatives(A, n) != contact_relatives(B, n):
            raise RuntimeError("contact_lift_symplectic changed a relative invariant")
        if not equivalent:
            k = rng.randrange(m)
            x, y, u = B[k]
            B[k] = (x, y, u + Fraction(rng.choice((1, 2, 3))))
        r_k, r_ij = contact_relatives(B, n)
        if r_k[-1] == 0 or r_ij[(0, 1)] == 0:
            continue
        if equivalent or contact_ratios(A, n) != contact_ratios(B, n):
            return A, B


# ---------------------------------------------------------------------------
# algebra: the symmetric layer over scalar Rat arithmetic


def build_algebra(rng, size):
    m3_top, m4_top, search_deg = (8, 2, 6) if size == "full" else (3, 1, 4)
    series = poincare(m3_top)
    m4_dims = [1, 0, 2]
    ops = []
    # Three k = 5 calls with their own evaluation points make the median op
    # a cluster of equal-cost calls, so op_p50_ms does not hang on one call.
    m3_degrees = list(range(1, m3_top + 1)) + ([5, 5] if size == "full" else [])
    for r, k in enumerate(m3_degrees):
        s = rng.randrange(1 << 30)
        name = f"graded_dim.m3.k{k}" + (f".{r}" if r >= m3_top else "")
        ops.append(Op(name, "graded_dim", lambda k=k, s=s: sj.graded_dim(3, 1, k, seed=s), int, series[k]))
    for k in range(1, m4_top + 1):
        s = rng.randrange(1 << 30)
        ops.append(Op(f"graded_dim.m4.k{k}", "graded_dim", lambda k=k, s=s: sj.graded_dim(4, 1, k, seed=s), int, m4_dims[k]))
    s = rng.randrange(1 << 30)
    ops.append(
        Op(
            f"generator_search.m3.d{search_deg}",
            "generator_search",
            lambda: sj.generator_search(3, 1, search_deg, seed=s),
            lambda gens: sorted(g.degree() for g in gens),
            [2, 2, 3, 4],
        )
    )
    return ops


# ---------------------------------------------------------------------------
# decide: configuration queries through normal_form, invariants, variants


def _cfg(points, n):
    return sj.PointConfig(n, tuple(points))


def _equiv_run(A, B, group, witness):
    def run():
        eq = bool(sj.equivalent(A, B, group))
        sig_a, sig_b = sj.signature(A, group), sj.signature(B, group)
        W = sj.recover_transform(A, B) if eq and witness else None
        return eq, sig_a, sig_b, W

    return run


def _equiv_summary(A_pts, B_pts):
    def summarize(res):
        eq, sig_a, sig_b, W = res
        out = {"equivalent": eq, "signatures_equal": sig_a == sig_b}
        if W is not None:
            rows = [tuple(Fraction(x) for x in row) for row in W.data]
            out["witness_ok"] = all(matvec(rows, a) == b for a, b in zip(A_pts, B_pts))
        return out

    return summarize


def _equiv_op(name, group, n, A, B, truth):
    witness = group == "sp" and truth and len(A) >= 2 * n
    expect = {"equivalent": truth, "signatures_equal": truth}
    if witness:
        expect["witness_ok"] = True
    return Op(name, f"equiv.{group}", _equiv_run(_cfg(A, n), _cfg(B, n), group, witness), _equiv_summary(A, B), expect)


def _contact_op(name, n, A, B, truth):
    ca, cb = _contact_cfg(A, n), _contact_cfg(B, n)
    expect = {"equivalent": truth, "signatures_equal": truth}
    return Op(name, "equiv.contact", _equiv_run(ca, cb, "contact", False), _equiv_summary(A, B), expect)


def _syzygy_op(name, n, pts):
    cfg = _cfg(pts, n)
    m = len(pts)
    q_size = 4 * n + 2

    def run():
        mins = sj.all_min_syzygies(cfg)
        qs = []
        if m >= q_size:
            g = sj.gram(cfg)
            qs = [sj.q_value(g, idx, n) for idx in combinations(range(1, m + 1), q_size)]
        return mins, qs

    def summarize(res):
        mins, qs = res
        return {
            "min_count": len(mins),
            "min_all_zero": all(v == 0 for _, v in mins),
            "q_count": len(qs),
            "q_all_zero": all(v == 0 for v in qs),
        }

    expect = {
        "min_count": comb(m, 2 * n + 2),
        "min_all_zero": True,
        "q_count": comb(m, q_size),
        "q_all_zero": True,
    }
    return Op(name, "syzygy", run, summarize, expect)


def _canonical_op(name, n, A, B):
    ca, cb = _cfg(A, n), _cfg(B, n)
    table = gram_of(A)

    def summarize(res):
        C_a, C_b = res
        cols = [tuple(Fraction(x) for x in col) for col in C_a.columns()]
        return {"equal": C_a == C_b, "reproduces_gram": gram_of(cols) == table}

    return Op(name, "canonical", lambda: (sj.canonical(ca), sj.canonical(cb)), summarize, {"equal": True, "reproduces_gram": True})


def _jacobian_op(name, n, pts):
    cfg = _cfg(pts, n)
    return Op(name, "jacobian", lambda: sj.jacobian_rank(cfg), int, dim_d(len(pts), n))


def _decide_probes():
    """ROADMAP item 1: two pairs that are not equivalent but answer True."""
    one, zero = Fraction(1), Fraction(0)
    e1, e2, f1 = (one, zero, zero, zero), (zero, one, zero, zero), (zero, zero, one, zero)
    f2 = (zero, zero, zero, one)
    A = [e1, f1, e1]
    B = [e1, f1, tuple(a + b for a, b in zip(e1, e2))]
    dependent = Op(
        "probe.sp_dependent_points",
        "equiv.sp",
        _equiv_run(_cfg(A, 2), _cfg(B, 2), "sp", False),
        lambda res: {"equivalent": res[0]},
        {"equivalent": False},
        known_defect=True,
    )

    def contact(last):
        pts = [e1, f1, e2, tuple(2 * c for c in e2), f2, last]
        # split grouped (x1, x2, y1, y2) and choose u so that every R_k = 1
        out = []
        for p in pts:
            x, y = p[:2], p[2:]
            out.append((x, y, (sum(a * b for a, b in zip(x, y)) - 1) / 2))
        return out

    CA = contact((one, one, one, one))
    CB = contact((one, Fraction(2), one, one))
    r56 = Op(
        "probe.contact_R56",
        "equiv.contact",
        _equiv_run(_contact_cfg(CA, 2), _contact_cfg(CB, 2), "contact", False),
        lambda res: {"equivalent": res[0]},
        {"equivalent": False},
        known_defect=True,
    )
    return [dependent, r56]


def build_decide(rng, size):
    if size == "full":
        shapes, contact_shapes = [(1, 6), (2, 6), (2, 10), (3, 8)], [(1, 5), (2, 6)]
        per_truth, contact_per_truth, syz, canon, jac = 2, 3, 5, 3, 3
    else:
        shapes, contact_shapes = [(1, 6), (2, 6)], [(1, 5)]
        per_truth, contact_per_truth, syz, canon, jac = 1, 1, 1, 1, 1
    ops = []
    for n, m in shapes:
        tag = f"n{n}m{m}"
        for group in ("sp", "csp", "asp"):
            for truth in (True, False):
                for r in range(per_truth):
                    A, B, _ = _pair(rng, n, m, group, truth)
                    ops.append(_equiv_op(f"equiv.{group}.{tag}.{str(truth).lower()}{r}", group, n, A, B, truth))
        for r in range(syz):
            ops.append(_syzygy_op(f"syzygy.{tag}.{r}", n, _generic_points(rng, n, m)))
        for r in range(canon):
            A, B, _ = _pair(rng, n, m, "sp", True)
            ops.append(_canonical_op(f"canonical.{tag}.{r}", n, A, B))
        for r in range(jac):
            ops.append(_jacobian_op(f"jacobian.{tag}.{r}", n, _generic_points(rng, n, m)))
    for n, m in contact_shapes:
        for truth in (True, False):
            for r in range(contact_per_truth):
                A, B = _contact_pair(rng, n, m, truth)
                ops.append(_contact_op(f"equiv.contact.n{n}m{m}.{str(truth).lower()}{r}", n, A, B, truth))
    rng.shuffle(ops)
    return ops + _decide_probes()


# ---------------------------------------------------------------------------
# symbolic: MultiPoly products and substitution in poly


def _labels(rng, count, spare=3):
    return tuple(sorted(rng.sample(range(1, count + spare + 1), count)))


def _coordinate_map(labels, n):
    """a_ij -> sum_k x^k_i y^k_j - x^k_j y^k_i over auxiliary variables."""
    P = sj.MultiPoly
    x = {(k, i): P.variable(sj.aux_var("x", k, i)) for k in range(n) for i in labels}
    y = {(k, i): P.variable(sj.aux_var("y", k, i)) for k in range(n) for i in labels}
    out = {}
    for i, j in combinations(labels, 2):
        total = P()
        for k in range(n):
            total = total + x[(k, i)] * y[(k, j)] - x[(k, j)] * y[(k, i)]
        out[sj.avar(i, j)] = total
    return out


def _vanish_op(name, build, labels, n):
    def run():
        return build().substitute(_coordinate_map(labels, n))

    return Op(name, "vanish", run, lambda p: p.is_zero(), True)


# Reynolds inputs: a fixed polynomial per m, relabeled by a seeded
# permutation, so the cost of an op does not depend on the seed.  The
# squared term has a nonzero image.
_REYNOLDS_TEMPLATES = {
    4: [(1, ((1, 2), (1, 2), (3, 4), (3, 4))), (2, ((1, 3), (2, 4))), (-3, ((1, 2), (2, 3), (3, 4)))],
    5: [(1, ((1, 2), (1, 2), (4, 5), (4, 5))), (2, ((1, 3), (2, 4), (3, 5))), (-3, ((1, 5), (2, 3)))],
}


def _reynolds_op(name, rng, m):
    P = sj.MultiPoly
    sigma = list(range(1, m + 1))
    rng.shuffle(sigma)
    p = P()
    for coeff, factors in _REYNOLDS_TEMPLATES[m]:
        term = P.constant(coeff)
        for i, j in factors:
            a, b = sigma[i - 1], sigma[j - 1]
            term = term * (P.variable(sj.avar(a, b)) if a < b else -P.variable(sj.avar(b, a)))
        p = p + term

    def run():
        r = sj.reynolds(p, m)
        return r, sj.reynolds(r, m)

    return Op(name, "reynolds", run, lambda res: {"idempotent": res[0] == res[1], "nonzero": not res[0].is_zero()}, {"idempotent": True, "nonzero": True})


def _evaluate_op(name, rng, n):
    labels = _labels(rng, 2 * n + 2)
    m = labels[-1]
    values = {(i, j): Fraction(rng.randint(-20, 20), rng.randint(1, 4)) for i in range(1, m + 1) for j in range(i + 1, m + 1)}
    g = sj.GramTable(m, values)
    table = {(i - 1, j - 1): v for (i, j), v in values.items()}
    truth = pf(table, tuple(i - 1 for i in labels))

    def run():
        return sj.evaluate(sj.pfaffian_poly(labels, n), g), sj.syzygy_value(g, labels)

    return Op(name, "evaluate", run, lambda res: [res[0] == truth, res[1] == truth], [True, True])


def build_symbolic(rng, size):
    full = size == "full"
    ops = [
        Op("identity.pfaffian_expansion.n1", "identity", lambda: sj.verify_pfaffian_expansion(1), bool, True),
        Op("identity.pfaffian_expansion.n2", "identity", lambda: sj.verify_pfaffian_expansion(2), bool, True),
        Op("identity.weyl_reduction", "identity", lambda: sj.verify_weyl_reduction(), bool, True),
        Op("identity.q_reduction", "identity", lambda: sj.verify_q_reduction(), bool, True),
        Op("identity.resolution_tower.m4", "identity", lambda: sj.verify_resolution_tower(4), lambda r: r["ok"], True),
        Op("identity.resolution_tower.m5", "identity", lambda: sj.verify_resolution_tower(5), lambda r: r["ok"], True),
        Op("identity.R8", "identity", lambda: sj.verify_R8(), bool, True),
    ]
    for n in range(1, (5 if full else 3) + 1):
        idx = _labels(rng, 2 * n + 2)
        ops.append(
            Op(f"pfaffian_poly.n{n}", "pfaffian_poly", lambda idx=idx, n=n: sj.pfaffian_poly(idx, n),
               lambda p, idx=idx: {"terms": len(p.terms), "expansion_ok": p.terms == pfaffian_terms(idx)},
               {"terms": odd_double_factorial(n), "expansion_ok": True})
        )
    for n in range(1, (3 if full else 2) + 1):
        idx = _labels(rng, 4 * n + 2)
        rows, cols = idx[: 2 * n + 1], idx[2 * n + 1 :]
        ops.append(
            Op(f"q_poly.n{n}", "q_poly", lambda idx=idx, n=n: sj.q_poly(idx, n),
               lambda p, rows=rows, cols=cols: {"terms": len(p.terms), "expansion_ok": p.terms == determinant_terms(rows, cols)},
               {"terms": factorial(2 * n + 1), "expansion_ok": True})
        )
    if full:
        b10 = _labels(rng, 10)
        ops.append(_vanish_op("vanish.b10.n1", lambda: sj.pfaffian_poly(b10, 4), b10, 1))
    b6 = _labels(rng, 6)
    ops.append(_vanish_op("vanish.b6.n2", lambda: sj.pfaffian_poly(b6, 2), b6, 2))
    q6 = _labels(rng, 6)
    ops.append(_vanish_op("vanish.q6.n1", lambda: sj.q_poly(q6, 1), q6, 1))
    for m in (4, 5) if full else (4,):
        ops.append(_reynolds_op(f"reynolds.m{m}", rng, m))
    for n in (1, 2, 3) if full else (1, 2):
        ops.append(_evaluate_op(f"evaluate.pfaffian.n{n}", rng, n))
    return ops


# ---------------------------------------------------------------------------
# cli: one `python -m sympjoint.cli` child process per op


def _frac_str(x):
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


class CliScript:
    """Writes the seeded config files and builds one op per CLI call."""

    def __init__(self, workdir, run_cli):
        self.dir = Path(workdir)
        self.dir.mkdir(parents=True, exist_ok=True)
        self.run_cli = run_cli
        self.count = 0

    def config(self, n, points, contact=False):
        self.count += 1
        path = self.dir / f"cfg{self.count}.json"
        if contact:
            pts = [{"x": [_frac_str(c) for c in x], "y": [_frac_str(c) for c in y], "u": _frac_str(u)} for x, y, u in points]
        else:
            pts = [[_frac_str(c) for c in p] for p in points]
        path.write_text(json.dumps({"n": n, "points": pts}))
        return str(path)

    def raw(self, obj):
        self.count += 1
        path = self.dir / f"raw{self.count}.json"
        path.write_text(json.dumps(obj))
        return str(path)

    def op(self, name, kind, argv, summarize, expect, known_defect=False):
        # the checksum covers exit code and stdout; stderr holds file paths
        return Op(name, kind, lambda: self.run_cli(argv), summarize, expect, known_defect, digest=lambda res: res[:2])


def _json_out(res):
    code, out, _ = res
    try:
        return code, json.loads(out)
    except ValueError:
        return code, None


def _cli_equiv_summary(A, B):
    def summarize(res):
        code, data = _json_out(res)
        out = {"exit": code, "equivalent": data.get("equivalent") if data else None}
        if data and data.get("witness"):
            rows = [tuple(Fraction(x) for x in row) for row in data["witness"]]
            out["witness_ok"] = all(matvec(rows, a) == b for a, b in zip(A, B))
        if data and data.get("relabeling"):
            perm = data["relabeling"]
            out["relabeling_ok"] = [B[k - 1] for k in perm] == A
        return out

    return summarize


def _dims_summary(max_m, max_n):
    def summarize(res):
        code, out, _ = res
        rows = {}
        table = None
        for line in out.splitlines():
            if line.startswith("d(m,n)"):
                table = "d"
            elif line.startswith("bbar(m,n)"):
                table = "bbar"
            elif line.startswith("stabilizer"):
                table = None
            elif table and line.strip() and line.split()[0].isdigit():
                cells = [int(c) for c in line.split()]
                rows[(table, cells[0])] = cells[1:]
        want = {
            (t, m): [f(m, n) for n in range(1, max_n + 1)]
            for t, f in (("d", dim_d), ("bbar", dim_bbar))
            for m in range(2, max_m + 1)
        }
        return {"exit": code, "tables_ok": rows == want}

    return summarize


def _symmetrize_summary(res):
    code, data = _json_out(res)
    if not data:
        return {"exit": code}
    out = {"exit": code, "graded_dims": data["graded_dims"], "r8": data["r8_syzygy"]}
    if data["generators"] is not None:
        out["generator_degrees"] = sorted(data["generator_degrees"])
    return out


def build_cli(rng, size, workdir, run_cli):
    full = size == "full"
    s = CliScript(workdir, run_cli)
    ops = []

    n, m = 1, 5
    pts = _generic_points(rng, n, m)
    path = s.config(n, pts)
    pairs = [[i + 1, j + 1, _frac_str(v)] for (i, j), v in sorted(gram_of(pts).items())]

    def inv_summary(res):
        code, data = _json_out(res)
        if not data:
            return {"exit": code}
        return {"exit": code, "pairs": data["pairs"], "generic": data["genericity"]["generic"]}

    ops.append(s.op("cli.invariants", "invariants", ["invariants", path], inv_summary, {"exit": 0, "pairs": pairs, "generic": True}))

    def syz_summary(res):
        code, data = _json_out(res)
        if not data:
            return {"exit": code}
        out = {"exit": code}
        if "minimal_syzygies" in data:
            out["min"] = [data["minimal_syzygies"]["count"], data["minimal_syzygies"]["all_zero"]]
            out["q"] = [data["q_syzygies"]["count"], data["q_syzygies"]["all_zero"]]
        if "identities" in data:
            out["identities"] = [len(data["identities"]), all(data["identities"].values())]
        return out

    syz_pts = _generic_points(rng, 1, 6)
    ops.append(
        s.op("cli.syzygy_check.config", "syzygy_check", ["syzygy-check", s.config(1, syz_pts)], syz_summary,
             {"exit": 0, "min": [comb(6, 4), True], "q": [1, True]})
    )
    if full:
        ops.append(s.op("cli.syzygy_check.identities", "syzygy_check", ["syzygy-check", "--identities"], syz_summary, {"exit": 0, "identities": [6, True]}))

    for group in ("sp", "csp", "asp", "contact") if full else ("sp",):
        for truth in (True, False) if full else (True,):
            gn, gm = (1, 4) if group != "contact" else (1, 5)
            if group == "contact":
                A, B = _contact_pair(rng, gn, gm, truth)
                pa, pb = s.config(gn, A, contact=True), s.config(gn, B, contact=True)
            else:
                A, B, _ = _pair(rng, gn, gm, group, truth)
                pa, pb = s.config(gn, A), s.config(gn, B)
            expect = {"exit": 0 if truth else 1, "equivalent": truth}
            if group == "sp" and truth:
                expect["witness_ok"] = True
            ops.append(s.op(f"cli.equiv.{group}.{str(truth).lower()}", "equiv", ["equiv", pa, pb, "--group", group], _cli_equiv_summary(A, B), expect))
    if full:
        A, B, _ = _pair(rng, 1, 4, "sp", True)
        order = list(range(4))
        while order == sorted(order):
            rng.shuffle(order)
        shuffled = [B[k] for k in order]
        ops.append(
            s.op("cli.equiv.sp.unordered", "equiv", ["equiv", "--unordered", s.config(1, A), s.config(1, shuffled), "--group", "sp"],
                 _cli_equiv_summary(B, shuffled), {"exit": 0, "equivalent": True, "relabeling_ok": True})
        )

    max_m, max_n = 6, 2
    ops.append(s.op("cli.dims", "dims", ["dims", "--max-m", str(max_m), "--max-n", str(max_n)], _dims_summary(max_m, max_n), {"exit": 0, "tables_ok": True}))
    deg = 5 if full else 4
    ops.append(
        s.op("cli.symmetrize.m3", "symmetrize", ["--seed", str(rng.randrange(1000)), "symmetrize", "--m", "3", "--n", "1", "--maxdeg", str(deg)],
             _symmetrize_summary, {"exit": 0, "graded_dims": poincare(deg), "generator_degrees": [2, 2, 3, 4], "r8": True})
    )
    if full:
        # a second slow call, so op_p90_ms sits on the slow calls and not on
        # the largest of the 0.3 s calls
        ops.append(
            s.op("cli.symmetrize.m4", "symmetrize", ["--seed", str(rng.randrange(1000)), "symmetrize", "--m", "4", "--n", "1", "--maxdeg", "2"],
                 _symmetrize_summary, {"exit": 0, "graded_dims": [1, 0, 2], "r8": True})
        )

    def disc_summary(res):
        code, data = _json_out(res)
        passed = bool(data) and all(r["passed"] for r in data["reports"].values())
        return {"exit": code, "passed": passed}

    for case in ("planar-i2", "function") if full else ("planar-i2",):
        ops.append(s.op(f"cli.discretize.{case}", "discretize", ["discretize", "--case", case], disc_summary, {"exit": 0, "passed": True}))

    def exit_only(res):
        return {"exit": res[0], "traceback": "Traceback" in res[2]}

    ops.append(s.op("cli.usage_error", "usage", ["equiv", path], exit_only, {"exit": 64, "traceback": False}))
    # The CLI promises exit 2 with a message on malformed input.  ROADMAP item 1:
    # a float coordinate raises a traceback (exit 1) and "n": 1.9 is truncated.
    ops.append(
        s.op("probe.cli_float_coordinate", "invariants", ["invariants", s.raw({"n": 1, "points": [[1.5, 0], [0, 1]]})],
             exit_only, {"exit": 2, "traceback": False}, known_defect=True)
    )
    ops.append(
        s.op("probe.cli_fractional_n", "invariants", ["invariants", s.raw({"n": 1.9, "points": [[1, 0], [0, 1]]})],
             exit_only, {"exit": 2, "traceback": False}, known_defect=True)
    )
    return ops


OP_LISTS = {"algebra": build_algebra, "decide": build_decide, "symbolic": build_symbolic}


def build(workload, seed, size, workdir, run_cli):
    """The op list of one pass, generated from the seed alone."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "cli":
        return build_cli(rng, size, workdir, run_cli)
    return OP_LISTS[workload](rng, size)
