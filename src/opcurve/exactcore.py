"""Exact arithmetic core: rationals, truncated series, matrices.

Every coefficient in this package is an exact rational number
(fractions.Fraction), so equality of computed objects is decidable on
whatever window of coefficients is guaranteed.  Two truncation models are
used throughout:

* XSeries: a power series in x whose coefficients are guaranteed for
  exponents 0 <= k < prec.  prec is None when the series is known exactly
  (a polynomial with all higher coefficients exactly zero).

* ZLaurent: a Laurent series in z whose coefficients are guaranteed for
  exponents k <= prec, with only finitely many negative exponents.  prec
  is None when the series is known exactly (finite support).

Precision propagates pessimistically: the result of an operation never
claims a coefficient the inputs cannot justify, and asking a question
outside the guaranteed window raises PrecisionError instead of guessing.

This module alone decides how coefficients are stored.  Every other
module reads a series through its methods: coeff, items, support,
is_zero, valuation/order, low_bound and degree_bound.  The coeffs
attribute stays readable (a tuple on XSeries, a dict on ZLaurent) only
for the benchmark and the tests, and is never written from outside.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, gcd, inf


# Default windows for interactive work.  Library operations derive their
# windows from operands wherever possible; these only fill gaps such as
# inverting an exactly known series, whose inverse == infinite.
DEFAULT_XPREC = 12
DEFAULT_ZLO = -12
DEFAULT_ZHI = 12
DEFAULT_DEPTH = 8


class ExactError(Exception):
    """Base class for all arithmetic errors raised by this package."""


class PrecisionError(ExactError):
    """A window or precision is too small to answer the question asked."""


class DomainError(ExactError):
    """The inputs are outside the mathematical domain of the operation."""


class DimensionError(DomainError):
    """Matrix or vector shapes do not match."""


QQ = Fraction


def as_fraction(a) -> Fraction:
    """Coerce ints, Fractions, and 'p/q' strings to Fraction."""
    if isinstance(a, Fraction):
        return a
    if isinstance(a, int):
        return Fraction(a)
    if isinstance(a, str):
        return Fraction(a)
    raise DomainError(f"not an exact rational: {a!r}")


def _common_den(coeffs) -> int:
    """Least common multiple of the coefficient denominators."""
    den = 1
    for c in coeffs:
        d = c.denominator
        den = den * d // gcd(den, d)
    return den


def min_prec(entries):
    """Smallest precision among series entries, None when all are exact."""
    precs = [e.prec for e in entries if e.prec is not None]
    return min(precs) if precs else None


def power(base, e: int, one):
    """base**e for an integer e >= 0 by square-and-multiply.

    one is returned for e = 0.  Otherwise the product starts from base
    itself rather than from one * base, so no unit factor enters it.
    """
    if e == 0:
        return one
    out = None
    while True:
        if e & 1:
            out = base if out is None else out * base
        e >>= 1
        if not e:
            return out
        base = base * base


def fraction_str(a: Fraction) -> str:
    """Render a Fraction as 'p' or 'p/q' with q > 0, lowest terms."""
    a = as_fraction(a)
    return str(a)


def _prec_key(prec):
    return inf if prec is None else prec


def _format_terms(items, var):
    """Render nonzero (exponent, coefficient) pairs, exponents increasing,
    as 'c + c*var + var^k - ...'; '0' when there are none."""
    parts = []
    for k, c in items:
        if k == 0:
            parts.append(fraction_str(c))
        else:
            vs = var if k == 1 else f"{var}^{k}"
            if c == 1:
                parts.append(vs)
            elif c == -1:
                parts.append(f"-{vs}")
            else:
                parts.append(f"{fraction_str(c)}*{vs}")
    if not parts:
        return "0"
    out = parts[0]
    for p in parts[1:]:
        out += f" - {p[1:]}" if p.startswith("-") else f" + {p}"
    return out


class XSeries:
    """Truncated power series in x over the rationals.

    coeffs stores c0, c1, ... with trailing zeros stripped; prec is the
    number of guaranteed coefficients, or None when the series is exactly
    the stored polynomial.  Coefficients at indices >= prec are unknown,
    never silently zero.
    """

    __slots__ = ("coeffs", "prec")

    def __init__(self, coeffs, prec=None):
        cs = [as_fraction(c) for c in coeffs]
        if prec is not None:
            if prec <= 0:
                raise PrecisionError("x-precision exhausted (need prec >= 1)")
            cs = cs[:prec]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)
        self.prec = prec

    # -- constructors ------------------------------------------------

    @classmethod
    def constant(cls, a) -> "XSeries":
        return cls([as_fraction(a)])

    @classmethod
    def zero(cls) -> "XSeries":
        return cls([])

    @classmethod
    def one(cls) -> "XSeries":
        return cls([1])

    @classmethod
    def x(cls) -> "XSeries":
        return cls([0, 1])

    # -- inspection --------------------------------------------------

    @property
    def exact(self) -> bool:
        return self.prec is None

    def known(self, k: int) -> bool:
        return self.prec is None or k < self.prec

    def coeff(self, k: int) -> Fraction:
        if k < 0:
            return Fraction(0)
        if not self.known(k):
            raise PrecisionError(
                f"coefficient of x^{k} unknown (guaranteed below x^{self.prec})")
        return self.coeffs[k] if k < len(self.coeffs) else Fraction(0)

    def constant_term(self) -> Fraction:
        return self.coeff(0)

    def is_zero(self) -> bool:
        """True when every guaranteed coefficient vanishes."""
        return not self.coeffs

    def degree_bound(self) -> int:
        """Index of the highest stored nonzero coefficient, -1 if none."""
        return len(self.coeffs) - 1

    def items(self):
        """The nonzero (exponent, coefficient) pairs, exponents increasing."""
        return [(k, c) for k, c in enumerate(self.coeffs) if c]

    # -- arithmetic --------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, XSeries):
            return other
        if isinstance(other, (int, Fraction)):
            return XSeries.constant(other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        prec = min(_prec_key(self.prec), _prec_key(o.prec))
        n = max(len(self.coeffs), len(o.coeffs))
        cs = [self._at(k) + o._at(k) for k in range(n)]
        return XSeries(cs, None if prec == inf else prec)

    def _at(self, k):
        return self.coeffs[k] if k < len(self.coeffs) else Fraction(0)

    __radd__ = __add__

    def __neg__(self):
        return XSeries([-c for c in self.coeffs], self.prec)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        prec = min(_prec_key(self.prec), _prec_key(o.prec))
        if self.is_zero() or o.is_zero():
            # an exact zero factor keeps the product exactly zero; a
            # window-zero factor leaves zero on the narrower window
            exact_zero = (self.exact and self.is_zero()
                          or o.exact and o.is_zero())
            return XSeries([], None if exact_zero or prec == inf else prec)
        n = len(self.coeffs) + len(o.coeffs) - 1
        if prec != inf:
            n = min(n, prec)
        # convolve over integers with the denominators factored out, so
        # accumulation does no fraction normalization
        da = _common_den(self.coeffs)
        db = _common_den(o.coeffs)
        ia = [int(c * da) for c in self.coeffs]
        ib = [int(c * db) for c in o.coeffs]
        cs = [0] * n
        for i, a in enumerate(ia):
            if a:
                top = min(len(ib), n - i)
                for j in range(top):
                    if ib[j]:
                        cs[i + j] += a * ib[j]
        den = da * db
        return XSeries([Fraction(x, den) for x in cs],
                       None if prec == inf else prec)

    __rmul__ = __mul__

    def __pow__(self, e: int):
        if not isinstance(e, int) or e < 0:
            raise DomainError("series powers require a nonnegative integer exponent")
        return power(self, e, XSeries.one())

    def derivative(self, j: int = 1) -> "XSeries":
        """The j-th derivative in closed form:
        [x^q] b^(j) = (q+1)(q+2)...(q+j) b_(q+j), guaranteed below
        x^(prec - j)."""
        if self.prec is not None and self.prec <= j:
            raise PrecisionError(f"cannot differentiate {j} times a series "
                                 f"guaranteed only below x^{self.prec}")
        cs = []
        rise = factorial(j)  # (q+1) ... (q+j) at q = 0
        for q, c in enumerate(self.coeffs[j:]):
            cs.append(rise * c)
            rise = rise * (q + j + 1) // (q + 1)
        return XSeries(cs, None if self.prec is None else self.prec - j)

    def integral(self) -> "XSeries":
        """Antiderivative with constant term zero (the normalization used
        for every dressing recursion in this package)."""
        cs = [Fraction(0)] + [c / (k + 1) for k, c in enumerate(self.coeffs)]
        return XSeries(cs, None if self.prec is None else self.prec + 1)

    def inverse(self, prec=None) -> "XSeries":
        """Multiplicative inverse of a unit (nonzero constant term).

        An exact non-constant series has an infinite inverse, so a target
        precision is required there; it defaults to DEFAULT_XPREC.
        """
        c0 = self.coeff(0)
        if c0 == 0:
            raise DomainError("not a unit: constant term is zero")
        if self.exact and len(self.coeffs) == 1:
            return XSeries([1 / c0])
        if prec is None:
            prec = self.prec if self.prec is not None else DEFAULT_XPREC
        prec = min(prec, _prec_key(self.prec))
        inv = [1 / c0]
        for k in range(1, prec):
            s = Fraction(0)
            for i in range(1, min(k, len(self.coeffs) - 1) + 1):
                s += self._at(i) * inv[k - i]
            inv.append(-s / c0)
        return XSeries(inv, prec)

    def truncate(self, prec: int) -> "XSeries":
        if prec is None:
            return self
        return XSeries(self.coeffs, min(prec, _prec_key(self.prec)))

    def scale(self, a) -> "XSeries":
        a = as_fraction(a)
        return XSeries([a * c for c in self.coeffs], self.prec)

    # -- comparison --------------------------------------------------

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        w = min(_prec_key(self.prec), _prec_key(o.prec))
        if w == inf:
            return self.coeffs == o.coeffs
        return all(self._at(k) == o._at(k) for k in range(int(w)))

    __hash__ = None

    def __str__(self):
        return _format_terms(self.items(), "x")

    def __repr__(self):
        tail = "" if self.prec is None else f" + O(x^{self.prec})"
        return f"XSeries({self}{tail})"


class ZLaurent:
    """Truncated Laurent series in z over the rationals.

    coeffs maps z-exponents to nonzero Fractions.  Exponents k <= prec are
    guaranteed (prec None means the series is exactly its finite support).
    Only finitely many negative exponents may occur, so the pole order of a
    nonzero element is always certified once any coefficient is nonzero.
    """

    __slots__ = ("coeffs", "prec")

    def __init__(self, coeffs, prec=None):
        cs = {}
        for k, c in dict(coeffs).items():
            c = as_fraction(c)
            if c != 0:
                if prec is not None and k > prec:
                    continue
                cs[int(k)] = c
        self.coeffs = cs
        self.prec = prec

    # -- constructors ------------------------------------------------

    @classmethod
    def monomial(cls, k: int, c=1, prec=None) -> "ZLaurent":
        return cls({k: as_fraction(c)}, prec)

    @classmethod
    def constant(cls, a, prec=None) -> "ZLaurent":
        return cls({0: as_fraction(a)}, prec)

    @classmethod
    def zero(cls, prec=None) -> "ZLaurent":
        return cls({}, prec)

    @classmethod
    def one(cls) -> "ZLaurent":
        return cls({0: 1})

    # -- inspection --------------------------------------------------

    @property
    def exact(self) -> bool:
        return self.prec is None

    def known(self, k: int) -> bool:
        return self.prec is None or k <= self.prec

    def coeff(self, k: int) -> Fraction:
        if not self.known(k):
            raise PrecisionError(
                f"coefficient of z^{k} unknown (guaranteed up to z^{self.prec})")
        return self.coeffs.get(k, Fraction(0))

    def support(self):
        return sorted(self.coeffs)

    def items(self):
        """The nonzero (exponent, coefficient) pairs, exponents increasing."""
        return sorted(self.coeffs.items())

    def is_zero(self) -> bool:
        """True when every guaranteed coefficient vanishes."""
        return not self.coeffs

    def valuation(self) -> int:
        """Lowest exponent carrying a nonzero coefficient."""
        if not self.coeffs:
            if self.exact:
                raise DomainError("valuation of the zero series is undefined")
            raise PrecisionError("order undetermined at this precision (zero within window)")
        return min(self.coeffs)

    def order(self) -> int:
        """Pole order: ord(a) = m when a lies in z^-m*Q[[z]] but not z^(-m+1)*Q[[z]]."""
        return -self.valuation()

    def low_bound(self) -> float:
        """Lowest exponent that could carry a nonzero coefficient: the
        valuation, prec + 1 for a window-zero series, inf for exact zero.
        Window bookkeeping uses it: unknown-tail products start above it."""
        if self.coeffs:
            return min(self.coeffs)
        return inf if self.exact else self.prec + 1

    # -- arithmetic --------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, ZLaurent):
            return other
        if isinstance(other, (int, Fraction)):
            return ZLaurent.constant(other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        prec = min(_prec_key(self.prec), _prec_key(o.prec))
        cs = dict(self.coeffs)
        for k, c in o.coeffs.items():
            cs[k] = cs.get(k, Fraction(0)) + c
        return ZLaurent(cs, None if prec == inf else int(prec))

    __radd__ = __add__

    def __neg__(self):
        return ZLaurent({k: -c for k, c in self.coeffs.items()}, self.prec)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        # The product coefficient at k is certain only when every split
        # k = i + j draws on guaranteed coefficients of both factors.
        prec = min(_prec_key(self.prec) + o.low_bound(),
                   _prec_key(o.prec) + self.low_bound())
        da = _common_den(self.coeffs.values())
        db = _common_den(o.coeffs.values())
        ia = {i: int(a * da) for i, a in self.coeffs.items()}
        ib = {j: int(b * db) for j, b in o.coeffs.items()}
        cs = {}
        for i, a in ia.items():
            for j, b in ib.items():
                k = i + j
                if prec != inf and k > prec:
                    continue
                cs[k] = cs.get(k, 0) + a * b
        den = da * db
        return ZLaurent({k: Fraction(x, den) for k, x in cs.items()},
                        None if prec == inf else int(prec))

    __rmul__ = __mul__

    def scale(self, a) -> "ZLaurent":
        a = as_fraction(a)
        return ZLaurent({k: a * c for k, c in self.coeffs.items()}, self.prec)

    def __pow__(self, e: int):
        if not isinstance(e, int):
            raise DomainError("Laurent powers require an integer exponent")
        if e < 0:
            return self.inverse() ** (-e)
        return power(self, e, ZLaurent.one())

    def derivative_z(self) -> "ZLaurent":
        """d/dz term by term."""
        cs = {k - 1: k * c for k, c in self.coeffs.items() if k != 0}
        prec = None if self.prec is None else self.prec - 1
        return ZLaurent(cs, prec)

    def inverse(self, prec=None) -> "ZLaurent":
        """Inverse of a nonzero element of Q((z)).

        For a truncated input with window top P and valuation v the result
        is guaranteed up to exponent P - 2v.  Exact non-monomial inputs
        have an infinite inverse, so a window top is required there; it
        defaults to -v + (DEFAULT_ZHI - DEFAULT_ZLO).
        """
        v = self.valuation()
        c = self.coeffs[v]
        if self.exact and len(self.coeffs) == 1:
            return ZLaurent.monomial(-v, 1 / c)
        if prec is None:
            if self.prec is not None:
                prec = self.prec - 2 * v
            else:
                prec = -v + (DEFAULT_ZHI - DEFAULT_ZLO)
        else:
            if self.prec is not None:
                prec = min(prec, self.prec - 2 * v)
        # self = c*z^v*(1 + u) with u supported on positive shifts; invert
        # the unit part by the geometric series, truncated at the window.
        depth = prec + v  # exponents of the unit-part inverse run 0..depth
        if depth < 0:
            raise PrecisionError("window too small to invert at this valuation")
        u = {k - v: a / c for k, a in self.coeffs.items() if k != v}
        inv = [Fraction(1)] + [Fraction(0)] * depth
        for k in range(1, depth + 1):
            s = Fraction(0)
            for i, a in u.items():
                if 0 < i <= k:
                    s += a * inv[k - i]
            inv[k] = -s
        cs = {k - v: inv[k] / c for k in range(depth + 1)}
        return ZLaurent(cs, int(prec))

    def truncate(self, prec: int) -> "ZLaurent":
        if prec is None:
            return self
        return ZLaurent(self.coeffs, min(prec, _prec_key(self.prec)))

    # -- comparison --------------------------------------------------

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        w = min(_prec_key(self.prec), _prec_key(o.prec))
        if w == inf:
            return self.coeffs == o.coeffs
        for k in set(self.coeffs) | set(o.coeffs):
            if k <= w and self.coeffs.get(k, 0) != o.coeffs.get(k, 0):
                return False
        return True

    __hash__ = None

    def __str__(self):
        return _format_terms(self.items(), "z")

    def __repr__(self):
        tail = "" if self.prec is None else f" + O(z^{self.prec + 1})"
        return f"ZLaurent({self}{tail})"


class Matrix:
    """Square matrix over any of the exact coefficient rings used here.

    Entries must support +, -, *, is_zero, and ==; both XSeries and
    ZLaurent do.  Matrices are immutable: operations return new instances.
    """

    __slots__ = ("n", "rows")

    def __init__(self, rows):
        rows = tuple(tuple(r) for r in rows)
        n = len(rows)
        if any(len(r) != n for r in rows):
            raise DimensionError("matrix must be square")
        self.n = n
        self.rows = rows

    @classmethod
    def identity(cls, n: int, one) -> "Matrix":
        zero = one - one
        return cls([[one if i == j else zero for j in range(n)] for i in range(n)])

    @classmethod
    def filled(cls, n: int, value) -> "Matrix":
        return cls([[value for _ in range(n)] for _ in range(n)])

    def entry(self, i: int, j: int):
        return self.rows[i][j]

    def map(self, f) -> "Matrix":
        return Matrix([[f(e) for e in row] for row in self.rows])

    def __add__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        if other.n != self.n:
            raise DimensionError("matrix sizes differ")
        return Matrix([[a + b for a, b in zip(r1, r2)]
                       for r1, r2 in zip(self.rows, other.rows)])

    def __sub__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return self.map(lambda e: -e)

    def __mul__(self, other):
        if isinstance(other, Matrix):
            if other.n != self.n:
                raise DimensionError("matrix sizes differ")
            n = self.n
            out = []
            for i in range(n):
                row = []
                for j in range(n):
                    acc = self.rows[i][0] * other.rows[0][j]
                    for k in range(1, n):
                        acc = acc + self.rows[i][k] * other.rows[k][j]
                    row.append(acc)
                out.append(row)
            return Matrix(out)
        return NotImplemented

    def trace(self):
        acc = self.rows[0][0]
        for i in range(1, self.n):
            acc = acc + self.rows[i][i]
        return acc

    def is_zero(self) -> bool:
        return all(e.is_zero() for row in self.rows for e in row)

    def __eq__(self, other):
        if not isinstance(other, Matrix) or other.n != self.n:
            return NotImplemented
        return all(a == b for r1, r2 in zip(self.rows, other.rows)
                   for a, b in zip(r1, r2))

    __hash__ = None

    def __repr__(self):
        return "Matrix([" + ", ".join(
            "[" + ", ".join(str(e) for e in row) + "]" for row in self.rows) + "])"


def char_coefficients(m: Matrix) -> tuple:
    """Characteristic coefficients c_i = trace of the i-th exterior power.

    Computed from power-sum traces via Newton's identities, which stay in
    the coefficient ring because the only divisions are by integers.  The
    characteristic polynomial is then
    det(tI - M) = t^n - c1 t^(n-1) + c2 t^(n-2) - ... + (-1)^n cn.
    """
    n = m.n
    powers = [m]
    for _ in range(n - 1):
        powers.append(powers[-1] * m)
    psum = [p.trace() for p in powers]  # psum[i-1] = tr(M^i)
    elem = []
    for k in range(1, n + 1):
        # e_k = (1/k) * sum_{i=1..k} (-1)^(i-1) e_{k-i} p_i, with e_0 = 1
        acc = None
        sign = 1
        for i in range(1, k + 1):
            term = psum[i - 1] if i == k else elem[k - i - 1] * psum[i - 1]
            term = sign * term
            acc = term if acc is None else acc + term
            sign = -sign
        elem.append(acc * Fraction(1, k))
    return tuple(elem)


# -- exact linear algebra over the rationals -------------------------
#
# Gauss-Jordan elimination on integer-scaled rows.  Row operations use
# cross-multiplication with gcd stripping, so no fraction normalization
# happens inside the loop; pivots are divided out only at the end.  The
# reduced form is unique, so the output is the same as for elimination
# over the fractions directly.  Pivots are chosen as the first row with
# a nonzero entry in the current column, so every result is
# deterministic.

def _strip_row(row):
    g = 0
    for x in row:
        g = gcd(g, x)
        if g == 1:
            return row
    if g > 1:
        return [x // g for x in row]
    return row


def _integer_row(row):
    """The row times the least common multiple of its denominators."""
    fr = [as_fraction(e) for e in row]
    den = _common_den(fr)
    return [e.numerator * (den // e.denominator) for e in fr]


def rref(rows):
    """Reduced row echelon form.  Returns (new_rows, pivot_columns)."""
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
    a = [_strip_row(_integer_row(row)) for row in rows]
    pivots = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        pr = next((i for i in range(r, nrows) if a[i][c]), None)
        if pr is None:
            continue
        a[r], a[pr] = a[pr], a[r]
        pv = a[r][c]
        for i in range(nrows):
            if i != r and a[i][c]:
                f = a[i][c]
                a[i] = _strip_row([pv * e - f * p
                                   for e, p in zip(a[i], a[r])])
        pivots.append(c)
        r += 1
    out = []
    for i, row in enumerate(a):
        if i < len(pivots):
            pv = row[pivots[i]]
            out.append([Fraction(x, pv) for x in row])
        else:
            out.append([Fraction(x) for x in row])
    return out, pivots


def rank(rows) -> int:
    return len(rref(rows)[1])


def nullspace(rows):
    """Basis of the right nullspace, as a list of column vectors."""
    if not rows:
        return []
    a, pivots = rref(rows)
    ncols = len(rows[0])
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -a[r][fc]
        basis.append(v)
    return basis


def solve(rows, rhs):
    """One exact solution of A x = b, or None when inconsistent.

    Free variables are set to zero, so the answer is deterministic.
    """
    if not rows:
        return [] if all(as_fraction(b) == 0 for b in rhs) else None
    ncols = len(rows[0])
    aug = [list(row) + [b] for row, b in zip(rows, rhs)]
    a, pivots = rref(aug)
    if ncols in pivots:
        return None
    x = [Fraction(0)] * ncols
    for r, pc in enumerate(pivots):
        x[pc] = a[r][ncols]
    return x


# Rows of an overdetermined system are chosen modulo this prime.  It only
# chooses: exact arithmetic decides every answer.
SELECTION_PRIME = 2**61 - 1


def _independent_rows(rows, ncols):
    """Indices of the first rows, in order, whose leading ncols integer
    entries are independent modulo SELECTION_PRIME; at most ncols."""
    p = SELECTION_PRIME
    basis = []  # (pivot column, reduced row with pivot entry 1)
    picked = []
    for idx, row in enumerate(rows):
        v = [x % p for x in row[:ncols]]
        for c, b in basis:
            f = v[c]
            if f:
                v = [(x - f * y) % p for x, y in zip(v, b)]
        c = next((j for j, x in enumerate(v) if x), None)
        if c is None:
            continue
        inv = pow(v[c], -1, p)
        basis.append((c, [x * inv % p for x in v]))
        picked.append(idx)
        if len(picked) == ncols:
            break
    return picked


def solve_full_rank(rows, rhs_rows):
    """The unique solution X of A X = B once A is shown to have full
    column rank, decided by exact arithmetic.

    rows (nonempty) holds A and rhs_rows holds B, row for row; X has one
    row per column of A and one entry per right-hand side.  Each
    augmented row is scaled to integers, and as many rows as A has
    columns are picked that are independent modulo SELECTION_PRIME, hence
    over the rationals.  rref solves that square system exactly, and
    every row is then checked exactly against every right-hand side.

    Returns (True, X), or (True, None) when a check fails, which proves
    the system inconsistent.  Returns (False, None) when fewer rows are
    independent modulo the prime: either the prime is unlucky or A is
    rank-deficient, and only an elimination of the whole system decides.
    """
    ncols = len(rows[0])
    aug = [_integer_row(list(row) + list(rhs))
           for row, rhs in zip(rows, rhs_rows)]
    picked = _independent_rows(aug, ncols)
    if len(picked) < ncols:
        return False, None
    red, _ = rref([aug[i] for i in picked])
    sol = [red[j][ncols:] for j in range(ncols)]
    # each solution column as integer numerators over one denominator
    for i in range(len(aug[0]) - ncols):
        col = [row[i] for row in sol]
        den = _common_den(col)
        nums = [x.numerator * (den // x.denominator) for x in col]
        for row in aug:
            if (sum(a * x for a, x in zip(row, nums) if a)
                    != row[ncols + i] * den):
                return True, None
    return True, sol
