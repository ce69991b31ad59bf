"""Exact rational scalars and exact linear algebra kernels.

Every computation in this module is exact: there is one scalar type, the
stdlib ``Fraction`` (exported as ``Rat``), and no rounding ever occurs.  Every
elimination (rank, nullspace, determinant) runs fraction-free on integer rows,
each exact row scaled by its common denominator; division happens only when
an exact output is built.  The Pfaffian kernel and ``symp`` run over any ring:
Gram tables (the contact R_ij too), their Pfaffians and ``random_symplectic``
run in ints; ``pfaffian`` stays ``Rat``, the reference.

Here and in the modules that decide (``invariants``, ``normal_form``,
``variants``, ``field_generators``) a tuple is built from a list, never from
a generator: CPython builds a generator's tuple at a guessed size and then
resizes it, so each such call leaves one more tuple of the final size on the
interpreter's free lists, which only a full cyclic collection empties.
"""

import random
from fractions import Fraction as Rat
from itertools import combinations
from math import gcd, inf, lcm, prod
from operator import attrgetter

BACKEND = "fraction"
# The largest decimal exponent `rat` reads, Python's default limit on the
# digits of an int read from a string: Fraction builds 10**exponent in full.
_MAX_EXPONENT = 4300


def rat(value, den=None):
    """Build an exact rational from an int, a "p/q" or decimal string, or a Rat.

    Floats are rejected: they would smuggle rounding into exact code paths.
    A decimal exponent beyond 4300 in magnitude raises ValueError.
    """
    if den is not None:
        return Rat(value, den)
    if isinstance(value, Rat):
        return value
    if isinstance(value, bool) or isinstance(value, float):
        raise TypeError(f"refusing inexact coordinate {value!r}; use int or 'p/q' string")
    if isinstance(value, int):
        return Rat(value)
    if isinstance(value, str):
        text = value.strip()
        _, e, exponent = text.lower().partition("e")
        digits = exponent.lstrip("+-").replace("_", "").lstrip("0")
        # the length test first, so that a huge exponent is never read as an int
        if e and digits.isdecimal() and (len(digits) > 4 or int(digits) > _MAX_EXPONENT):
            raise ValueError(f"decimal exponent of {value!r} exceeds {_MAX_EXPONENT} in magnitude")
        try:
            return Rat(text)
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in {value!r}") from None
    raise TypeError(f"cannot convert {type(value).__name__} to exact rational")


def rat_str(x):
    """Serialize a rational as 'p' or 'p/q' (always parseable by rat())."""
    x = rat(x) if not isinstance(x, Rat) else x
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def symp(u, v):
    """Standard symplectic product in coordinates (x^1..x^n, y^1..y^n).

    omega(u, v) = sum_k u_x^k v_y^k - v_x^k u_y^k, in the ring of the inputs.
    """
    if len(u) != len(v):
        raise ValueError(f"length mismatch: {len(u)} vs {len(v)}")
    if len(u) % 2:
        raise ValueError(f"odd vector length {len(u)}")
    n = len(u) // 2
    total = 0
    for k in range(n):
        total += u[k] * v[n + k] - v[k] * u[n + k]
    return total


class _Record:
    """Base of the immutable records (`PointConfig`, `GenericityReport`, ...).

    The fields are the subclass's public `__slots__`, in order, at least two
    (an attrgetter of one name returns a bare value).  The constructor binds
    them, positionally or by keyword, then runs `__post_init__`, which may
    normalize a field, or set a `_` slot, through `object.__setattr__`; any
    other assignment raises `AttributeError`.  Equality, hashing, the repr
    and pickling read the field values, as a frozen dataclass would, without
    importing `dataclasses` (and the `inspect` it loads) on every command path.
    """

    __slots__ = ()

    def __init_subclass__(cls):
        super().__init_subclass__()
        cls._fields = fields = tuple([name for name in cls.__slots__ if not name.startswith("_")])
        cls._field_values = attrgetter(*fields)  # a plain callable: self._field_values(self)
        # the slots' own setters: no attribute lookup per field, so building a
        # record costs about what a frozen dataclass's generated __init__ does
        cls._field_setters = tuple([getattr(cls, name).__set__ for name in fields])

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != len(self._fields):
            args = self._bind(args, kwargs)
        for set_field, value in zip(self._field_setters, args):
            set_field(self, value)
        self.__post_init__()

    @classmethod
    def _bind(cls, args, kwargs):
        """The field values of a call with keyword or missing arguments, in order."""
        fields, values = cls._fields, list(args)
        if len(values) > len(fields):
            raise TypeError(f"{cls.__name__}() takes {len(fields)} arguments, got {len(values)}")
        for name in fields[len(values) :]:
            if name not in kwargs:
                raise TypeError(f"{cls.__name__}() missing argument {name!r}")
            values.append(kwargs.pop(name))
        if kwargs:
            raise TypeError(f"{cls.__name__}() got an unexpected or repeated argument {next(iter(kwargs))!r}")
        return values

    def __post_init__(self):
        pass

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._field_values(self) == other._field_values(other)

    def __hash__(self):
        return hash(self._field_values(self))

    def __repr__(self):
        pairs = zip(self._fields, self._field_values(self))
        return f"{type(self).__qualname__}({', '.join([f'{name}={value!r}' for name, value in pairs])})"

    def __reduce__(self):
        # rebuild through the constructor: the frozen __setattr__ rules out
        # the default state restore of pickle and copy
        return type(self), self._field_values(self)


class ExactMatrix:
    """Dense matrix with exact rational entries (row-major lists)."""

    __slots__ = ("rows", "cols", "data")

    def __init__(self, data):
        self.data = [list(row) for row in data]
        self.rows = len(self.data)
        self.cols = len(self.data[0]) if self.data else 0
        for row in self.data:
            if len(row) != self.cols:
                raise ValueError("ragged rows")

    @classmethod
    def identity(cls, k):
        return cls([[Rat(1) if i == j else Rat(0) for j in range(k)] for i in range(k)])

    @classmethod
    def from_columns(cls, columns):
        return cls([[col[i] for col in columns] for i in range(len(columns[0]))])

    def column(self, j):
        return tuple([self.data[i][j] for i in range(self.rows)])

    def columns(self):
        return [self.column(j) for j in range(self.cols)]

    def transpose(self):
        return ExactMatrix([[self.data[i][j] for i in range(self.rows)] for j in range(self.cols)])

    def __eq__(self, other):
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        if (self.rows, self.cols) != (other.rows, other.cols):
            return False
        return all(
            self.data[i][j] == other.data[i][j]
            for i in range(self.rows)
            for j in range(self.cols)
        )

    def __matmul__(self, other):
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch {self.rows}x{self.cols} @ {other.rows}x{other.cols}")
        out = []
        for i in range(self.rows):
            row = []
            for j in range(other.cols):
                s = Rat(0)
                for k in range(self.cols):
                    s += self.data[i][k] * other.data[k][j]
                row.append(s)
            out.append(row)
        return ExactMatrix(out)

    def apply(self, vec):
        """Matrix-vector product, returning a tuple."""
        if len(vec) != self.cols:
            raise ValueError("vector length mismatch")
        return tuple(
            [sum((self.data[i][k] * vec[k] for k in range(self.cols)), Rat(0)) for i in range(self.rows)]
        )

    def __repr__(self):
        return f"ExactMatrix({self.data!r})"


class SkewMatrix:
    """Skew-symmetric exact table; only the upper triangle is stored."""

    __slots__ = ("dim", "upper")

    def __init__(self, dim, upper):
        """upper maps 0-based (i, j) with i < j to the entry value."""
        self.dim = dim
        self.upper = {k: rat(v) for k, v in upper.items()}
        for (i, j) in self.upper:
            if not (0 <= i < j < dim):
                raise ValueError(f"bad upper index {(i, j)}")

    def entry(self, i, j):
        if i == j:
            return Rat(0)
        if i < j:
            return self.upper.get((i, j), Rat(0))
        return -self.upper.get((j, i), Rat(0))

    def full(self):
        return ExactMatrix([[self.entry(i, j) for j in range(self.dim)] for i in range(self.dim)])


def _integer_row(row):
    """An exact row scaled to integers by its common denominator: (ints, den).

    Entries other than ints go through ``rat``, so a float raises TypeError.
    """
    row = [x if type(x) is int else rat(x) for x in row]
    den = lcm(*[x.denominator for x in row])
    return [x.numerator * (den // x.denominator) for x in row], den


def _clear(v, row, p):
    """v with column p cleared by cross-multiplication with row, zero before row[p] != 0."""
    f, r = v[p], row[p]
    g = gcd(f, r)
    f, r = f // g, r // g
    if r == 1:  # the head before p stays; scaling a head slice costs more than one pass
        return v[:p] + [x - f * y for x, y in zip(v[p:], row[p:])]
    return [r * x - f * y for x, y in zip(v, row)]


class _IntRowSpace:
    """Incremental exact integer row space: insert returns True on rank increase.

    Fraction-free: a new row is cleared at each stored pivot by integer
    cross-multiplication; a surviving row is stored divided by its content.
    The given integer rows are inserted in order.
    """

    def __init__(self, rows=()):
        self.rows = []
        self.pivots = []
        for row in rows:
            self.insert(row)

    def insert(self, vec):
        v = list(vec)
        for row, p in zip(self.rows, self.pivots):
            if v[p]:
                v = _clear(v, row, p)
        for p, x in enumerate(v):
            if x:
                content = gcd(*v)
                self.rows.append([y // content for y in v])
                self.pivots.append(p)
                return True
        return False

    @property
    def rank(self):
        return len(self.rows)

    def reduced(self):
        """(pivot column, integer row) pairs in pivot order, each row zero in
        every other pivot column: dividing each row by its pivot entry gives
        the reduced row echelon form.

        A stored row is already zero in the pivot columns of the rows stored
        before it, so clearing each pivot column from the earlier rows, last
        row first, disturbs no column cleared before.
        """
        rows = list(self.rows)
        for i in reversed(range(len(rows))):
            p = self.pivots[i]
            for j in range(i):
                if rows[j][p]:
                    rows[j] = _clear(rows[j], rows[i], p)
        return sorted(zip(self.pivots, rows))


def _row_space(data):
    """The integer row space of exact rows."""
    return _IntRowSpace([_integer_row(row)[0] for row in data])


def det(M):
    """Exact determinant via fraction-free (Bareiss) elimination on integer rows."""
    if M.rows != M.cols:
        raise ValueError(f"det of non-square {M.rows}x{M.cols} matrix")
    n = M.rows
    if n == 0:
        return Rat(1)
    scaled = [_integer_row(row) for row in M.data]
    a = [row for row, _ in scaled]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return Rat(0)
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                # Bareiss one-step condensation; the division is exact
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return Rat(sign * a[n - 1][n - 1], prod(den for _, den in scaled))


def rank(M):
    """Exact rank."""
    return _row_space(M.data).rank


def nullspace(M):
    """Exact basis of the right kernel, one vector (tuple) per free column."""
    pivot_rows = dict(_row_space(M.data).reduced())
    basis = []
    for f in range(M.cols):
        if f in pivot_rows:
            continue
        v = [Rat(0)] * M.cols
        v[f] = Rat(1)
        for c, row in pivot_rows.items():
            v[c] = Rat(-row[f], row[c])
        basis.append(tuple(v))
    return basis


def _check_tuple(idx, length, m=inf):
    """idx as a tuple of `length` strictly ascending labels in 1..m; the
    label check of the syzygies, numeric and symbolic (no m: any positive)."""
    idx = tuple(idx)
    if len(idx) != length:
        raise ValueError(f"index tuple of length {len(idx)}, expected {length}")
    for i in idx:
        if type(i) is not int:  # bool too: True would print as the label "True"
            raise ValueError(f"indices must be ints, got {i!r} in {idx}")
    if list(idx) != sorted(set(idx)):
        raise ValueError(f"indices must be strictly ascending, got {idx}")
    if idx and (idx[0] < 1 or idx[-1] > m):
        raise ValueError(f"indices out of range 1..{m}: {idx}")
    return idx


def _check_int(x, name):
    """x when it is an int and not a bool, else ValueError naming it: the type
    half of `_check_n`, for the size checks that word their own range message."""
    if isinstance(x, bool) or not isinstance(x, int):
        raise ValueError(f"'{name}' must be an integer, got {x!r}")
    return x


def _check_n(n):
    """n as the half dimension of R^{2n}: an int, not a bool, and >= 1."""
    if _check_int(n, "n") < 1:
        raise ValueError("n must be >= 1")
    return n


def _pair_name(i, j):
    """The name of a_ij: a12, or a3_12 once either label has two digits."""
    return f"a{i}{j}" if i < 10 and j < 10 else f"a{i}_{j}"


def _pf_expand(labels, entry, zero):
    """Pfaffian of the skew table ``entry(i, j)`` on ``labels`` (i before j),
    over a ring of numbers (``Rat``, int).  First-row expansion that skips
    zero entries and memoizes sub-Pfaffians per label subset; odd length
    gives ``zero``, empty gives one.
    """
    if len(labels) % 2:
        return zero
    if not labels:
        return zero + 1
    memo = {}

    def pf(idx):
        if len(idx) == 2:
            return entry(idx[0], idx[1])
        got = memo.get(idx)
        if got is not None:
            return got
        i0 = idx[0]
        rest = idx[1:]
        terms = []
        for p, j in enumerate(rest):
            aij = entry(i0, j)
            if aij != zero:
                terms.append((-aij if p % 2 else aij) * pf(rest[:p] + rest[p + 1 :]))
        memo[idx] = total = sum(terms, zero)
        return total

    total = pf(tuple(labels))
    pf = None  # the closure refers to itself: break that cycle so the memo is freed now
    return total


def pfaffian(S):
    """Pfaffian of a skew table by memoized first-row expansion (``_pf_expand``).

    Odd dimension returns 0 (matching det of an odd skew matrix); the subset
    memo keeps dims up to ~12 cheap.
    """
    return _pf_expand(range(S.dim), S.entry, Rat(0))


def symplectic_J(n):
    """Matrix of omega in coordinates (x^1..x^n, y^1..y^n): [[0, I], [-I, 0]]."""
    dim = 2 * n
    data = [[Rat(0)] * dim for _ in range(dim)]
    for k in range(n):
        data[k][n + k] = Rat(1)
        data[n + k][k] = Rat(-1)
    return ExactMatrix(data)


def is_symplectic(M, n=None):
    """Whether M^T J M = J for J = ``symplectic_J(n)`` (n = M.rows / 2 when not given).

    The (i, j) entry of M^T J M is omega(col_i, col_j), skew in (i, j), so
    the columns are checked pairwise, i < j: 1 when j = i + n, else 0.  A
    matrix without 2n rows raises ValueError, as the product M^T J does.
    """
    if n is None:
        if M.rows % 2:
            return False
        n = M.rows // 2
    # a matrix without columns transposes to 0 x 0, which M^T J M rejects
    if M.rows != 2 * n or (M.rows and not M.cols):
        raise ValueError(f"shape mismatch: a {M.rows}x{M.cols} matrix for n = {n}")
    if M.cols != 2 * n:
        return False
    return _symplectic_columns(M.columns(), n, 1)


def _symplectic_columns(cols, n, scale):
    """Whether omega(cols[i], cols[j]) = scale [j = i + n] for all i < j < 2n (D^2 for M = N / D)."""
    return all(symp(cols[i], cols[j]) == (scale if j == i + n else 0) for i, j in combinations(range(2 * n), 2))


def random_symplectic(n, steps, seed):
    """Random element of Sp(2n) as a product of integer symplectic transvections.

    Each step applies x -> x + lam*omega(x, v)*v in ints, with lam and the
    entries of v drawn from [-3, 3] (v nonzero), so entry growth stays bounded
    and the output, made ``Rat`` on return, is exactly symplectic: M^T J M = J.
    """
    _check_n(n)
    if steps < 0:
        raise ValueError("steps must be >= 0")
    rng = random.Random(seed)
    dim = 2 * n
    cols = [[int(i == j) for i in range(dim)] for j in range(dim)]
    for _ in range(steps):
        v = [0] * dim
        while not any(v):
            v = [rng.randint(-3, 3) for _ in range(dim)]
        lam = rng.randint(-3, 3)
        shifts = [lam * symp(c, v) for c in cols]
        cols = [[x + t * y for x, y in zip(c, v)] for c, t in zip(cols, shifts)]
    return ExactMatrix.from_columns([[Rat(x) for x in c] for c in cols])
