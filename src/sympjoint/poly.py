"""Sparse multivariate polynomials over exact rationals, and the symbolic
verification of the pairwise-invariant identities: Pfaffian syzygies and their
minor expansions, the q-determinant reduction, and the small free-resolution
towers for planar configurations.

Variables are tagged tuples totally ordered by tuple comparison:
  ("a", i, j)      pairwise invariant a_ij, i < j
  ("u", k)         contact-point variable (u-coordinate of point k)
  ("z", name...)   auxiliary variable (coordinates, group parameters)
A monomial is a sorted tuple of (variable, exponent) pairs; a polynomial maps
monomials to nonzero coefficients, stored as Python ints when integral and as
``Rat`` otherwise.  A symbolic Pfaffian, on strictly ascending labels, is
built term by term, one perfect matching per term, by a depth-first walk that
passes each monomial prefix down and writes the fifteen terms of the last six
labels directly; a symbolic determinant (``q_poly``) likewise walks the
permutations row by row, the Laplace expansion written directly down to the
six terms of the last three rows.  Each term is built and inserted into the
result once: no sub-Pfaffian or minor is built as a polynomial of its own (the
memoized ``exact._pf_expand`` is for numbers).  The minor expansion of
b_{1...2n+2} and Weyl's 8-index reduction are one check, the first-row
expansion ``_first_row_expansion``.

Products concatenate monomials whose variables do not interleave, and a
one-term factor maps the other's terms in one pass.  A sum (``+``) adds
a one-term operand by one lookup and merges a larger operand that shares no
monomial with the other by one dict update.  A coefficient is brought
to an int where a product or a colliding sum makes it integral, so no result
is rescanned.  ``substitute`` works in Horner order: terms grouped by leading
factor share one substitution of their cofactor, and cofactors equal up to
sign (a sub-Pfaffian reached through a12*a34 and a13*a24) are substituted
once per call, so the vanishing of a syzygy on point tables drops whole
subtrees and reaches each of them once.  That pass runs on packed monomials,
one int each with a fixed-width exponent field per variable, so a monomial
product is one int addition.  ``evaluate`` reads a Gram table's integer form
and sums in ints, building one ``Rat`` at the end.
"""

from bisect import bisect_left
from itertools import combinations
from operator import neg

from .exact import Rat, _check_n, _check_tuple, _pair_name, rat, rat_str


def avar(i, j):
    """Pairwise variable a_ij, normalized to i < j (may flip nothing)."""
    if i == j:
        raise ValueError("a_ii is identically zero, not a variable")
    if i > j:
        raise ValueError(f"pairwise variable needs i < j, got ({i}, {j})")
    return ("a", i, j)


def contact_var(k):
    return ("u", k)


def aux_var(*name):
    return ("z",) + name


def var_name(var):
    if var[0] == "a":
        return _pair_name(var[1], var[2])
    if var[0] == "u":
        return f"u{var[1]}"
    return "".join(str(part) for part in var[1:])


def _mono_mul(m1, m2):
    """Product of sorted monomials.

    When all of one monomial's variables sort below the other's the product is
    their concatenation; only interleaved monomials bisect-insert the shorter
    one's factors into the longer.
    """
    if not (m1 and m2):
        return m1 or m2
    if m1[-1][0] < m2[0][0]:
        return m1 + m2
    if m2[-1][0] < m1[0][0]:
        return m2 + m1
    if len(m1) < len(m2):
        m1, m2 = m2, m1
    out = list(m1)
    for v, e in m2:
        k = bisect_left(out, (v,))
        if k < len(out) and out[k][0] == v:
            out[k] = (v, out[k][1] + e)
        else:
            out.insert(k, (v, e))
    return tuple(out)


def _mono_degree(mono):
    return sum(e for _, e in mono)


def _coef(c):
    """A coefficient as stored: int when integral, Rat otherwise."""
    if type(c) is not int:
        c = rat(c)
        if c.denominator == 1:
            c = c.numerator
    return c


def _wrap(terms):
    """A MultiPoly over a dict of nonzero coefficients already stored as `_coef` stores them."""
    res = MultiPoly.__new__(MultiPoly)
    res.terms = terms
    return res


def _add_into(out, items):
    """out += (monomial, coefficient) items in place, dropping monomials that cancel."""
    for mono, c in items:
        s = out.get(mono, 0) + c
        if s:
            out[mono] = s.numerator if type(s) is not int and s.denominator == 1 else s
        else:
            del out[mono]


def _term_times(m1, c1, terms):
    """{m1 * m2: c1 * c2 for m2, c2 in terms}, distinct products of distinct
    monomials; m2 sorting above m1 is concatenated, and a +-1 factor cannot
    make a coefficient integral."""
    if m1:
        last = m1[-1][0]
        monos = [m1 + m2 if m2 and last < m2[0][0] else _mono_mul(m1, m2) for m2 in terms]
    else:
        monos = terms
    if c1 == 1:
        return dict(zip(monos, terms.values()))
    if c1 == -1:
        return dict(zip(monos, map(neg, terms.values())))
    return {mono: _coef(c1 * c2) for mono, c2 in zip(monos, terms.values())}


def _pack(mono, shift):
    """A monomial as one int: exponent e of v at bit shift[v]."""
    return sum([e << shift[v] for v, e in mono])


def _add_product(out, image, rest, negate):
    """out += image * rest (negated if ``negate``) in place, over packed
    monomials {int: coefficient}, dropping monomials that cancel."""
    for m2, c2 in image.items():
        if negate:
            c2 = -c2
        for m1, c1 in rest.items():
            m = m1 + m2
            s = out.get(m, 0) + c1 * c2
            if s:
                out[m] = s.numerator if type(s) is not int and s.denominator == 1 else s
            else:
                del out[m]


class MultiPoly:
    """Sparse polynomial: dict from monomial to nonzero exact coefficient.

    A coefficient is stored as a Python int when integral and as ``Rat``
    otherwise, so the +-1 coefficients of the Pfaffian and determinant
    expansions multiply as ints; equality, hashing and printing cannot tell
    (an int equals and hashes like the equal ``Rat``).  The constructor merges
    repeated variables within a monomial, drops zero exponents and sums the
    coefficients of keys that coincide after that.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        out = {}
        for mono, c in (terms or {}).items():
            exps = {}
            for v, e in mono:
                if type(e) is not int or e < 0:
                    raise ValueError(f"exponent must be a nonnegative int, got {e!r}")
                exps[v] = exps.get(v, 0) + e
            c = _coef(c)
            if c:
                _add_into(out, [(tuple(sorted((v, e) for v, e in exps.items() if e)), c)])
        self.terms = out

    @classmethod
    def constant(cls, c):
        return cls({(): c})

    @classmethod
    def variable(cls, var):
        return _wrap({((var, 1),): 1})

    def is_zero(self):
        return not self.terms

    def degree(self):
        return max((_mono_degree(m) for m in self.terms), default=0)

    def variables(self):
        seen = set()
        for mono in self.terms:
            for v, _ in mono:
                seen.add(v)
        return seen

    def __eq__(self, other):
        if isinstance(other, MultiPoly):
            return self.terms == other.terms
        return NotImplemented

    def __hash__(self):
        return hash(tuple(sorted(self.terms.items())))

    def __add__(self, other):
        """The sum in one new dict: a one-term operand takes one lookup (no
        key views); a larger one disjoint from self is merged by one
        ``dict.update``."""
        if not isinstance(other, MultiPoly):
            other = MultiPoly.constant(other)
        out, terms = dict(self.terms), other.terms
        if len(terms) == 1:
            ((mono, c),) = terms.items()
            if mono in out:
                _add_into(out, terms.items())
            else:
                out[mono] = c
        elif out.keys().isdisjoint(terms.keys()):
            out.update(terms)
        else:
            _add_into(out, terms.items())
        return _wrap(out)

    __radd__ = __add__

    def __neg__(self):
        return _wrap({m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, MultiPoly):
            other = MultiPoly.constant(other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, MultiPoly):
            c = _coef(other)
            return _wrap(_term_times((), c, self.terms) if c else {})
        a, b = self.terms, other.terms
        if len(a) != 1 and len(b) == 1:
            a, b = b, a
        if len(a) == 1:
            ((m1, c1),) = a.items()
            return _wrap(_term_times(m1, c1, b))
        out = {}
        for m1, c1 in a.items():
            for m2, c2 in b.items():
                mono = _mono_mul(m1, m2)
                s = out.get(mono, 0) + c1 * c2
                if s:
                    out[mono] = s.numerator if type(s) is not int and s.denominator == 1 else s
                else:
                    del out[mono]
        return _wrap(out)

    __rmul__ = __mul__

    def __pow__(self, k):
        if not isinstance(k, int) or k < 0:
            raise ValueError("only nonnegative integer powers")
        result, base = None, self
        while k:
            if k & 1:
                result = base if result is None else result * base
            k >>= 1
            if k:
                base = base * base
        return MultiPoly.constant(1) if result is None else result

    def derivative(self, var):
        out = {}
        for mono, c in self.terms.items():
            exps = dict(mono)
            e = exps.get(var)
            if not e:
                continue
            if e == 1:
                del exps[var]
            else:
                exps[var] = e - 1
            out[tuple(sorted(exps.items()))] = _coef(c * e)
        return _wrap(out)

    def substitute(self, mapping):
        """Replace variables by polynomials/rationals; others stay symbolic.

        Each term splits into its kept monomial, its coefficient times the
        scalar images, and its factors with polynomial images (rep**e, once
        per (variable, exponent)).  Those apply in Horner order: terms grouped
        by leading factor, recursively, share one substitution of their
        cofactor and one product with the factor's image, and a zero image or
        cofactor drops the whole group.  That is never more products than term
        by term, and far fewer when leading factors are shared, as in the
        first-row expansion of a Pfaffian.  A group of two or more terms is
        also looked up by its terms past the shared factors, with the sign
        set by its first coefficient: a cofactor equal up to sign to one
        already substituted in this call (a sub-Pfaffian reached through
        a12*a34 and a13*a24) reuses that result, negated if need be.  The
        memo lives for one call; a group listed in another order only misses.

        The Horner pass runs on packed monomials: the k-th variable, in sorted
        order over the kept variables and those of the images, has its
        exponent at bit k * w of one int, w the bit length of the largest
        degree a term can reach, so a product of monomials is one int
        addition, no exponent spills into the next field, and the memo keys
        on ints (a polynomial image is named by its slot).  The total is
        unpacked into sorted monomials once, at the end.
        """
        images = {}  # (v, e) -> None when v is kept, a scalar, or (slot, degree) of rep**e; a miss reads as f itself
        powers = []  # the polynomial images, by slot
        names = set()  # the kept variables and those of the polynomial images
        split = []
        top = 0  # the largest degree of a term once substituted: it bounds every exponent below
        for mono, c in self.terms.items():
            kept, replaced, deg = [], [], 0
            for f in mono:
                img = images.get(f, f)
                if img is f:
                    rep = mapping.get(f[0])
                    if rep is None:
                        img = None
                        names.add(f[0])
                    elif not isinstance(rep, MultiPoly):
                        img = _coef(rep) ** f[1]
                    elif not rep.terms:
                        img = 0  # a zero image is a scalar
                    else:
                        power = rep ** f[1]
                        img = len(powers), power.degree()
                        powers.append(power)
                        names.update(power.variables())
                    images[f] = img
                if img is None:
                    kept.append(f)
                    deg += f[1]
                elif type(img) is tuple:
                    replaced.append(img[0])
                    deg += img[1]
                else:
                    c = c * img
            if deg > top:
                top = deg
            if c:
                split.append((tuple(replaced), tuple(kept), c))

        names = sorted(names)
        w = top.bit_length()
        shift = {v: k * w for k, v in enumerate(names)}
        packed = [{_pack(mono, shift): c for mono, c in p.terms.items()} for p in powers]
        split = [(replaced, _pack(kept, shift) if kept else 0, c) for replaced, kept, c in split]
        memo = {}  # a group's key up to sign -> (its Horner sum, whether its first coefficient is negative)

        def horner(items, depth):
            # items share replaced[:depth]; return sum c * kept * image(replaced[depth:])
            out = {}
            leaves = []  # scalar images can merge two terms
            groups = {}
            for item in items:
                if len(item[0]) == depth:
                    leaves.append(item[1:])
                else:
                    groups.setdefault(item[0][depth], []).append(item)
            _add_into(out, leaves)
            depth += 1
            for slot, group in groups.items():
                flip = False
                if len(group) == 1:  # one term: cheaper to redo than to key
                    rest = horner(group, depth)
                else:
                    neg_first = group[0][2] < 0
                    if neg_first:
                        key = tuple([(replaced[depth:], kept, -c) for replaced, kept, c in group])
                    else:
                        key = tuple([(replaced[depth:], kept, c) for replaced, kept, c in group])
                    got = memo.get(key)
                    if got is None:
                        rest = horner(group, depth)
                        memo[key] = rest, neg_first
                    else:
                        rest, stored_neg = got
                        flip = stored_neg is not neg_first
                if rest:
                    _add_product(out, packed[slot], rest, flip)
            return out

        total = horner(split, 0)
        horner = None  # the closure refers to itself: break that cycle so the memo is freed now
        mask, out = (1 << w) - 1, {}
        for x, c in total.items():
            mono, k = [], 0
            while x:
                e = x & mask
                if e:
                    mono.append((names[k], e))
                x >>= w
                k += 1
            out[tuple(mono)] = c
        return _wrap(out)

    def __str__(self):
        if not self.terms:
            return "0"
        def mono_sort_key(item):
            mono, _ = item
            return (-_mono_degree(mono), mono)
        parts = []
        for mono, c in sorted(self.terms.items(), key=mono_sort_key):
            factors = [
                var_name(v) + (f"^{e}" if e > 1 else "") for v, e in mono
            ]
            body = "*".join(factors) if factors else "1"
            if c == 1 and factors:
                parts.append(body)
            elif c == -1 and factors:
                parts.append(f"-{body}")
            else:
                parts.append(f"{rat_str(c)}*{body}" if factors else rat_str(c))
        out = parts[0]
        for p in parts[1:]:
            out += f" - {p[1:]}" if p.startswith("-") else f" + {p}"
        return out

    def __repr__(self):
        return f"MultiPoly({self})"


def _avar_signed(i, j):
    """a_ij as a polynomial for arbitrary labels i != j, using a_ji = -a_ij."""
    if i < j:
        return _wrap({((("a", i, j), 1),): 1})
    return _wrap({((("a", j, i), 1),): -1})


def _pf_terms(out, labels, prefix, sign, heads):
    """out[prefix + m] = sign * c for each term c * m of the Pfaffian on
    ``labels`` (an even number, at least four), one term per perfect
    matching, depth first.

    The head a_{i0 j}, i0 the first label left, is ``heads[i0][j]``, a
    one-factor monomial; the sign flips with the parity of j's position
    among the labels after i0.  Six labels left give their fifteen terms
    directly, in the walk's order; a four-label Pfaffian, the one case the
    walk never shrinks to, gives its three.  A module-level function, so
    the walk holds no reference cycle.
    """
    i, rest = labels[0], labels[1:]
    hi = heads[i]
    if len(rest) == 5:
        a, b, c, d, e = rest
        ha, hb, hc = heads[a], heads[b], heads[c]
        ab, ac, ad, ae, bc, bd, be = ha[b], ha[c], ha[d], ha[e], hb[c], hb[d], hb[e]
        cd, ce, de = hc[d], hc[e], heads[d][e]
        p = prefix + hi[a]
        out[p + bc + de] = sign
        out[p + bd + ce] = -sign
        out[p + be + cd] = sign
        p = prefix + hi[b]
        out[p + ac + de] = -sign
        out[p + ad + ce] = sign
        out[p + ae + cd] = -sign
        p = prefix + hi[c]
        out[p + ab + de] = sign
        out[p + ad + be] = -sign
        out[p + ae + bd] = sign
        p = prefix + hi[d]
        out[p + ab + ce] = -sign
        out[p + ac + be] = sign
        out[p + ae + bc] = -sign
        p = prefix + hi[e]
        out[p + ab + cd] = sign
        out[p + ac + bd] = -sign
        out[p + ad + bc] = sign
    elif len(rest) == 3:
        b, c, d = rest
        out[prefix + hi[b] + heads[c][d]] = sign
        out[prefix + hi[c] + heads[b][d]] = -sign
        out[prefix + hi[d] + heads[b][c]] = sign
    else:
        for p, j in enumerate(rest):
            _pf_terms(out, rest[:p] + rest[p + 1 :], prefix + hi[j], -sign if p % 2 else sign, heads)


def _pf_poly(idx):
    """Symbolic Pfaffian of the sub-table on idx, an even number of strictly
    ascending labels.

    One term per perfect matching, each built and inserted once
    (``_pf_terms``); the heads a_{i0 j} come in ascending order, so each
    monomial is built sorted.
    """
    idx = tuple(idx)
    if len(idx) < 4:
        return _avar_signed(*idx) if idx else _wrap({(): 1})
    heads = {i: {j: ((("a", i, j), 1),) for j in idx[p + 1 :]} for p, i in enumerate(idx)}
    out = {}
    _pf_terms(out, idx, (), 1, heads)
    return _wrap(out)


def pfaffian_poly(idx, n):
    """The syzygy polynomial b_{i_1...i_{2n+2}} = Pf(a_{i_p i_q})."""
    return _pf_poly(_check_tuple(idx, 2 * _check_n(n) + 2))


def _det_terms(out, rows, cols, prefix, sign, entries):
    """out[prefix + m] = sign * c for each term c * m of det(a_{r c}), r in
    ``rows`` (at least three), c in ``cols``: the Laplace expansion along the
    rows, one permutation per leaf.  ``entries[r][c]`` is the one-factor
    monomial of a_rc; the sign flips with the parity of c's position among
    the columns left, and three rows left give their six terms directly, in
    the walk's order."""
    er, rest = entries[rows[0]], rows[1:]
    if len(rest) == 2:
        c, d, e = cols
        es, et = entries[rest[0]], entries[rest[1]]
        p = prefix + er[c]
        out[p + es[d] + et[e]] = sign
        out[p + es[e] + et[d]] = -sign
        p = prefix + er[d]
        out[p + es[c] + et[e]] = -sign
        out[p + es[e] + et[c]] = sign
        p = prefix + er[e]
        out[p + es[c] + et[d]] = sign
        out[p + es[d] + et[c]] = -sign
    else:
        for p, c in enumerate(cols):
            _det_terms(out, rest, cols[:p] + cols[p + 1 :], prefix + er[c], -sign if p % 2 else sign, entries)


def q_poly(idx, n):
    """The determinant syzygy q_{i_1...i_{4n+2}} = det(a_{i_s, i_{t+2n+1}}).

    Every row label sorts below every column label, so each entry is
    +a_{r c} and a monomial built row by row is sorted."""
    idx = _check_tuple(idx, 4 * _check_n(n) + 2)
    k = 2 * n + 1
    rows, cols = idx[:k], idx[k:]
    out = {}
    _det_terms(out, rows, cols, (), 1, {r: {c: ((("a", r, c), 1),) for c in cols} for r in rows})
    return _wrap(out)


def _value(terms, values):
    """Value of {monomial: coefficient} at {variable: value}; integer
    coefficients and values give an int."""
    total = 0
    for mono, c in terms.items():
        for var, e in mono:
            c *= values[var] ** e
        total += c
    return total


def evaluate(p: MultiPoly, g) -> Rat:
    """Substitute a Gram table into a polynomial in pairwise variables.

    The table's integer form a_ij = ints[i, j] / den is read directly: the
    terms of each degree d are summed by `_value` (in ints when the
    coefficients are ints), scaled by den^(top - d), and one `Rat` is built
    over den^top, top the largest degree.  A variable out of range, or in
    range but missing from the table, raises ValueError naming it.
    """
    values, by_degree = {}, {}
    for mono, c in p.terms.items():
        for v, _ in mono:
            if v in values:
                continue
            if v[0] != "a":
                raise ValueError(f"cannot evaluate non-pairwise variable {var_name(v)}")
            _, i, j = v
            if i < 1 or j > g.m:
                raise ValueError(f"variable {_pair_name(i, j)} out of range for m={g.m}")
            x = g.ints.get((i, j))
            if x is None:
                raise ValueError(f"{var_name(v)} has no value in the table")
            values[v] = x
        by_degree.setdefault(_mono_degree(mono), {})[mono] = c
    top, den = max(by_degree, default=0), g.den
    return Rat(sum([_value(terms, values) * den ** (top - d) for d, terms in by_degree.items()]), den**top)


def _first_row_expansion(s):
    """Whether Pf(1..s) = sum_j (-1)^j a_1j Pf(2..s without j), j = 2..s, as
    exact polynomials: the first-row minor expansion of an s-label Pfaffian."""
    rest = tuple(range(2, s + 1))
    rhs = MultiPoly()
    for p, j in enumerate(rest):
        rhs = rhs + (-1) ** j * _avar_signed(1, j) * _pf_poly(rest[:p] + rest[p + 1 :])
    return rhs == _pf_poly((1,) + rest)


def verify_pfaffian_expansion(n):
    """Check the first-row minor expansion of b_{1...2n+2} (1 <= n <= 6, at most
    14 labels, where the expansion still takes under a second) as an exact
    polynomial identity."""
    if _check_n(n) > 6:
        raise ValueError("expansion check supported for n <= 6 only")
    return _first_row_expansion(2 * n + 2)


def verify_weyl_reduction():
    """Check the 8-index Pfaffian against its expansion into 6-index ones: the
    n = 3 expansion check."""
    return verify_pfaffian_expansion(3)


def verify_q_reduction():
    """Check q_123456 = a12*b3456 - a34*b1256 + a35*b1246 - a36*b1245 (n=1)."""
    lhs = q_poly(tuple(range(1, 7)), 1)
    a = _avar_signed
    rhs = (
        a(1, 2) * _pf_poly((3, 4, 5, 6))
        - a(3, 4) * _pf_poly((1, 2, 5, 6))
        + a(3, 5) * _pf_poly((1, 2, 4, 6))
        - a(3, 6) * _pf_poly((1, 2, 4, 5))
    )
    return rhs == lhs


class FreeModuleElt:
    """Element of the free module over the b-generators: tuple -> coefficient."""

    __slots__ = ("components",)

    def __init__(self, components=None):
        self.components = {}
        for key, p in (components or {}).items():
            if not p.is_zero():
                self.components[tuple(key)] = p

    def __add__(self, other):
        out = dict(self.components)
        for key, p in other.components.items():
            s = out.get(key, MultiPoly()) + p
            if s.is_zero():
                out.pop(key, None)
            else:
                out[key] = s
        res = FreeModuleElt.__new__(FreeModuleElt)
        res.components = out
        return res

    def scale(self, p: MultiPoly):
        res = FreeModuleElt.__new__(FreeModuleElt)
        res.components = {}
        for key, q in self.components.items():
            prod = p * q
            if not prod.is_zero():
                res.components[key] = prod
        return res

    def is_zero(self):
        return not self.components


def _coord_substitution(m):
    """a_ij -> x_i*y_j - x_j*y_i over auxiliary coordinate variables (n=1)."""
    x = {i: MultiPoly.variable(aux_var("x", i)) for i in range(1, m + 1)}
    y = {i: MultiPoly.variable(aux_var("y", i)) for i in range(1, m + 1)}
    return {
        avar(i, j): x[i] * y[j] - x[j] * y[i]
        for i in range(1, m + 1)
        for j in range(i + 1, m + 1)
    }


def _c_elt(i):
    """c_i = sum_j (-1)^j a_ij b_{1...j^...5} as a free-module element (m=5)."""
    comps = {}
    for j in range(1, 6):
        if j == i:
            continue
        key = tuple(k for k in range(1, 6) if k != j)
        comps[key] = (-1) ** j * _avar_signed(i, j)
    return FreeModuleElt(comps)


def verify_resolution_tower(m):
    """Expand the planar (n=1) resolution data for m points and check exactness.

    m=4: the Pluecker polynomial b_1234 vanishes after substituting
    a_ij = x_i y_j - x_j y_i, i.e. b is a syzygy of the generators.
    m=5: each c_i collapses to the zero polynomial once the b-generators are
    expanded (c_i lies in the kernel onto first syzygies), and the displayed
    combination d of the c_i has all free-module components identically zero.
    """
    if m == 4:
        b = _pf_poly((1, 2, 3, 4))
        expanded = b.substitute(_coord_substitution(4))
        return {
            "m": 4,
            "checks": {"b1234 vanishes on point tables": expanded.is_zero()},
            "ok": expanded.is_zero(),
        }
    if m != 5:
        raise ValueError("resolution tower implemented for m in {4, 5}")

    checks = {}
    # the five b-generators, each expanded once
    b = {key: _pf_poly(key) for key in combinations(range(1, 6), 4)}
    # first-to-second level: phi_1(c_i) = sum_j (-1)^j a_ij b_{1..j^..5} = 0 in R[a]
    for i in range(1, 6):
        total = MultiPoly()
        for key, coeff in _c_elt(i).components.items():
            total = total + coeff * b[key]
        checks[f"c{i} expands to zero"] = total.is_zero()

    # third level: d = sum_i (-1)^(i+1) b_{1..i^..5} c_i has zero b-components
    d = FreeModuleElt()
    for i in range(1, 6):
        complement = tuple(k for k in range(1, 6) if k != i)
        coeff = (-1) ** (i + 1) * b[complement]
        d = d + _c_elt(i).scale(coeff)
    checks["d components all zero"] = d.is_zero()

    ok = all(checks.values())
    return {"m": 5, "checks": checks, "ok": ok}
