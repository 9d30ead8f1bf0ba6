"""Exact arithmetic core: rationals, truncated series, matrices.

Every coefficient in this package is an exact rational number
(fractions.Fraction), so equality of computed objects is decidable on
whatever window of coefficients is guaranteed.  Two truncation models are
used throughout:

* XSeries: a power series in x whose coefficients are guaranteed for
  exponents 0 <= k < prec.  prec is None when the series is known exactly
  (a polynomial with all higher coefficients exactly zero), stored as
  integer numerators over one positive denominator in lowest terms.

* ZLaurent: a Laurent series in z whose coefficients are guaranteed for
  exponents k <= prec, with only finitely many negative exponents.  prec
  is None when the series is known exactly (finite support).

Precision propagates pessimistically: the result of an operation never
claims a coefficient the inputs cannot justify, and asking a question
outside the guaranteed window raises PrecisionError instead of guessing.

This module alone decides how coefficients are stored.  Every other
module reads a series through its methods: coeff, items, support,
is_zero, valuation/order, low_bound and degree_bound.  The coeffs
attribute stays readable (a tuple of Fractions built on read on XSeries,
a dict on ZLaurent) only for the benchmark and the tests.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import zip_longest
from math import factorial, gcd, inf, lcm


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

    Coefficients c0, c1, ... are integer numerators _num (trailing zeros
    stripped) over one denominator _den > 0, in lowest terms (_den = 1 for
    zero).  prec counts the guaranteed coefficients, or is None when the
    series is exactly the stored polynomial; those at indices >= prec are
    unknown, never silently zero.  coeff, items and coeffs give Fractions;
    coeffs keeps its tuple in _fracs for re-reads.
    """

    __slots__ = ("_num", "_den", "prec", "_fracs")

    def __init__(self, coeffs, prec=None):
        pairs = [as_fraction(c).as_integer_ratio() for c in coeffs][:prec]
        # the kept pairs are in lowest terms, so over their lcm none reduce
        den = lcm(*[d for _, d in pairs])
        self._set([n * (den // d) for n, d in pairs], den, prec,
                  reduced=True)

    def _set(self, num, den, prec, reduced=False):
        """Store num/den (den > 0) below x^prec, in lowest terms."""
        if prec is not None:
            if prec <= 0:
                raise PrecisionError("x-precision exhausted (need prec >= 1)")
            num = num[:prec]
        num = list(num)
        while num and not num[-1]:
            num.pop()
        g = 1 if reduced else gcd(den, *num)
        if g != 1:
            num = [x // g for x in num]
            den //= g
        self._num = tuple(num)
        self._den = den
        self.prec = prec
        self._fracs = None

    @classmethod
    def _make(cls, num, den, prec=None) -> "XSeries":
        s = cls.__new__(cls)
        s._set(num, den, prec)
        return s

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

    @property
    def coeffs(self) -> tuple:
        """The stored c0, c1, ... as Fractions, built on the first read."""
        if self._fracs is None:
            d = self._den
            self._fracs = tuple(Fraction(x, d) for x in self._num)
        return self._fracs

    def known(self, k: int) -> bool:
        return self.prec is None or k < self.prec

    def coeff(self, k: int) -> Fraction:
        if k < 0:
            return Fraction(0)
        if not self.known(k):
            raise PrecisionError(
                f"coefficient of x^{k} unknown (guaranteed below x^{self.prec})")
        return Fraction(self._num[k] if k < len(self._num) else 0, self._den)

    def is_zero(self) -> bool:
        """True when every guaranteed coefficient vanishes."""
        return not self._num

    def degree_bound(self) -> int:
        """Index of the highest stored nonzero coefficient, -1 if none."""
        return len(self._num) - 1

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
        da, db = self._den, o._den
        g = gcd(da, db)
        fa, fb = db // g, da // g  # da * fa == db * fb == lcm
        num = [a * fa + b * fb
               for a, b in zip_longest(self._num, o._num, fillvalue=0)]
        return XSeries._make(num, da * fa, None if prec == inf else prec)

    __radd__ = __add__

    def __neg__(self):
        return XSeries._make([-x for x in self._num], self._den, self.prec)

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
        ia, ib = self._num, o._num
        n = len(ia) + len(ib) - 1
        if prec != inf:
            n = min(n, prec)
        cs = [0] * n
        for i, a in enumerate(ia[:n]):
            if a:
                for j, b in enumerate(ib[:n - i], i):
                    if b:
                        cs[j] += a * b
        return XSeries._make(cs, self._den * o._den,
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
        num = []
        rise = factorial(j)  # (q+1) ... (q+j) at q = 0
        for q, x in enumerate(self._num[j:]):
            num.append(rise * x)
            rise = rise * (q + j + 1) // (q + 1)
        return XSeries._make(num, self._den,
                             None if self.prec is None else self.prec - j)

    def integral(self) -> "XSeries":
        """Antiderivative with constant term zero (the normalization used
        for every dressing recursion in this package)."""
        den = lcm(*range(1, len(self._num) + 1))
        num = [0] + [x * (den // (k + 1)) for k, x in enumerate(self._num)]
        return XSeries._make(num, self._den * den,
                             None if self.prec is None else self.prec + 1)

    def inverse(self, prec=None) -> "XSeries":
        """Multiplicative inverse of a unit (nonzero constant term).

        An exact non-constant series has an infinite inverse, so a target
        precision is required there; it defaults to DEFAULT_XPREC.
        """
        a, den = self._num, self._den
        if not a or not a[0]:
            raise DomainError("not a unit: constant term is zero")
        if a[0] < 0:  # a = (-A)/(-den) keeps u = A_0 and u^n positive
            a, den = [-x for x in a], -den
        u = a[0]
        if self.exact and len(a) == 1:
            return XSeries._make([den], u)
        if prec is None:
            prec = self.prec if self.prec is not None else DEFAULT_XPREC
        prec = min(prec, _prec_key(self.prec))
        # with a = A/den, the k-th coefficient of 1/A is e_k / u^(k+1),
        # where e_0 = 1 and e_k = -sum_(i=1..k) A_i u^(i-1) e_(k-i)
        pw = [1]  # pw[i] = u^i
        for _ in range(max(prec, len(a))):
            pw.append(pw[-1] * u)
        e = [1]
        for k in range(1, prec):
            e.append(-sum(a[i] * pw[i - 1] * e[k - i]
                          for i in range(1, min(k, len(a) - 1) + 1)))
        n = len(e)
        num = [den * x * pw[n - 1 - k] for k, x in enumerate(e)]
        return XSeries._make(num, pw[n], prec)

    def truncate(self, prec: int) -> "XSeries":
        if prec is None:
            return self
        return XSeries._make(self._num, self._den,
                             min(prec, _prec_key(self.prec)))

    def scale(self, a) -> "XSeries":
        a = as_fraction(a)
        return XSeries._make([a.numerator * x for x in self._num],
                             a.denominator * self._den, self.prec)

    # -- comparison --------------------------------------------------

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        w = min(_prec_key(self.prec), _prec_key(o.prec))
        if w == inf:
            return self._num == o._num and self._den == o._den
        w, da, db = int(w), self._den, o._den
        return all(a * db == b * da for a, b in
                   zip_longest(self._num[:w], o._num[:w], fillvalue=0))

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


def solve_system(rows, rhs_rows):
    """Exact solution X of A X = B, and the rank of A.

    rows holds A and rhs_rows holds B, row for row; X has one row per
    column of A and one entry per right-hand side.  Each augmented row is
    scaled to integers.  When as many rows as A has columns are
    independent modulo SELECTION_PRIME, hence over the rationals, rref
    solves that square system and every row is then checked exactly
    against every right-hand side.  Otherwise one rref of the whole
    augmented system decides.

    Returns (X, rank).  X is None when the system is inconsistent;
    otherwise free unknowns are set to zero, so the answer is
    deterministic.
    """
    if not rows:
        return [], 0
    ncols = len(rows[0])
    aug = [_integer_row(list(row) + list(rhs))
           for row, rhs in zip(rows, rhs_rows)]
    picked = _independent_rows(aug, ncols)
    if len(picked) < ncols:
        red, pivots = rref(aug)
        rk = sum(1 for p in pivots if p < ncols)
        if rk < len(pivots):
            return None, rk
        sol = [[Fraction(0)] * (len(aug[0]) - ncols) for _ in range(ncols)]
        for r, pc in enumerate(pivots):
            sol[pc] = red[r][ncols:]
        return sol, rk
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
                return None, ncols
    return sol, ncols


def solve(rows, rhs):
    """One exact solution of A x = b, or None when inconsistent.

    Free variables are set to zero, so the answer is deterministic.
    """
    sol, _ = solve_system(rows, [[b] for b in rhs])
    return None if sol is None else [x[0] for x in sol]
