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

Both store integer numerators from a starting exponent over one positive
denominator, in lowest terms, and share that storage and the arithmetic
it allows through one private base class.

Precision propagates pessimistically: the result of an operation never
claims a coefficient the inputs cannot justify, and asking a question
outside the guaranteed window raises PrecisionError instead of guessing.

This module alone decides how coefficients are stored.  Every other
module reads a series through its methods: coeff, items, support,
is_zero, valuation/order, low_bound and degree_bound, or as integers
over a common denominator through denominator, scaled_items and
x_power_items (the x^l actions on one Laurent series).  The read-only
coeffs attribute (a tuple of Fractions on XSeries, a dict of exponent ->
nonzero Fraction on ZLaurent, both built on read) is there only for the
benchmark and the tests.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from itertools import chain, islice, repeat, zip_longest
from math import gcd, inf, isqrt, lcm, perm
from operator import mul


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
    """Render a Fraction as 'p' or 'p/q' with q > 0, lowest terms.

    Python refuses to convert an integer of more digits than
    sys.get_int_max_str_digits() to text; such a rational is a
    DomainError.
    """
    a = as_fraction(a)
    try:
        return str(a)
    except ValueError as err:
        raise DomainError(
            "rational too long to print: more than "
            f"{sys.get_int_max_str_digits()} digits") from err


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


_ZERO = Fraction(0)


class _Series:
    """Storage and arithmetic shared by XSeries and ZLaurent.

    The coefficient of var^(_lo + i) is _num[i] / _den.  _num holds
    integers with no zero at either end, _den > 0, and the pair is in
    lowest terms (_lo = 0 and _den = 1 for zero), so every value has one
    stored form.  Exponents below prec + _END are guaranteed; prec None
    means the series is exactly what is stored.  coeff and items read a
    dict of the nonzero coefficients as Fractions, kept in _fracs once
    built.
    """

    __slots__ = ("_lo", "_num", "_den", "prec", "_fracs")

    # Each subclass sets _VAR, the variable's name; _END, which puts the
    # lowest unknown exponent at prec + _END; _UNKNOWN, the error text for
    # reading there; and _EXHAUSTED, where a window must reach exponent 0,
    # the error text for one that does not.
    _EXHAUSTED = None

    def _set(self, lo, num, den, prec, reduced=False):
        """Store num/den from exponent lo (den > 0), cut at the window, in
        lowest terms; reduced says the pair is in lowest terms already."""
        hi = len(num)
        if prec is not None:
            end = prec + self._END
            if end <= 0 and self._EXHAUSTED:
                raise PrecisionError(self._EXHAUSTED)
            if end - lo < hi:
                hi = end - lo if end > lo else 0
        while hi and not num[hi - 1]:
            hi -= 1
        i = 0
        while i < hi and not num[i]:
            i += 1
        if i or hi < len(num):
            num = num[i:hi]
        # zero keeps den = 1, and a reduced pair needs no gcd
        g = den if not num else 1 if reduced else gcd(den, *num)
        if g != 1:
            num = [x // g for x in num]
            den //= g
        self._lo = lo + i if num else 0
        self._num = tuple(num)
        self._den = den
        self.prec = prec
        self._fracs = None

    @classmethod
    def _make(cls, lo, num, den, prec=None, reduced=False):
        s = cls.__new__(cls)
        s._set(lo, num, den, prec, reduced)
        return s

    def _view(self) -> dict:
        """The nonzero coefficients as {exponent: Fraction}, kept."""
        v = self._fracs
        if v is None:
            d = self._den
            v = self._fracs = {k: Fraction(x, d) for k, x in
                               enumerate(self._num, self._lo) if x}
        return v

    # -- inspection --------------------------------------------------

    @property
    def exact(self) -> bool:
        return self.prec is None

    def known(self, k: int) -> bool:
        return self.prec is None or k < self.prec + self._END

    def coeff(self, k: int) -> Fraction:
        if not self.known(k):
            raise PrecisionError(self._UNKNOWN.format(k=k, prec=self.prec))
        return self._view().get(k, _ZERO)

    def items(self):
        """The nonzero (exponent, coefficient) pairs, exponents increasing."""
        return list(self._view().items())

    @property
    def denominator(self) -> int:
        """The least positive integer that makes every stored coefficient
        an integer."""
        return self._den

    def _scale_to(self, den: int) -> int:
        """den over the denominator, which den must be a positive
        multiple of."""
        f, r = divmod(den, self._den)
        if r or f <= 0:
            raise DomainError(f"{den} is not a positive multiple of the "
                              f"denominator {self._den}")
        return f

    def scaled_items(self, den: int):
        """The nonzero (exponent, den * coefficient) pairs, exponents
        increasing, as ints: den must be a multiple of the denominator,
        and no Fraction is built."""
        f = self._scale_to(den)
        return [(k, x * f) for k, x in enumerate(self._num, self._lo) if x]

    def is_zero(self) -> bool:
        """True when every guaranteed coefficient vanishes."""
        return not self._num

    def degree_bound(self) -> int:
        """Exponent of the highest stored nonzero coefficient, -1 if none."""
        return self._lo + len(self._num) - 1 if self._num else -1

    # -- arithmetic --------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, type(self)):
            return other
        if isinstance(other, (int, Fraction)):
            return self.constant(other)
        return None

    def _aligned(self, o):
        """The lowest stored exponent of self and o, and their numerators
        paired by exponent from there on."""
        a, b = self._num, o._num
        la = self._lo if a else o._lo
        lb = o._lo if b else la
        lo = min(la, lb)
        return lo, zip_longest(chain(repeat(0, la - lo), a),
                               chain(repeat(0, lb - lo), b), fillvalue=0)

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        prec = min(_prec_key(self.prec), _prec_key(o.prec))
        da, db = self._den, o._den
        g = gcd(da, db)
        fa, fb = db // g, da // g  # da * fa == db * fb == lcm
        lo, pairs = self._aligned(o)
        return self._make(lo, [x * fa + y * fb for x, y in pairs], da * fa,
                          None if prec == inf else prec)

    __radd__ = __add__

    def __neg__(self):
        return self._make(self._lo, [-x for x in self._num], self._den,
                          self.prec, reduced=True)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        return (-self) + other

    def _product(self, o):
        """self * o by integer convolution, cut at its _window."""
        prec = self._window(o)
        a, b = self._num, o._num
        lo = self._lo + o._lo
        n = len(a) + len(b) - 1
        if prec != inf:
            n = min(n, prec + self._END - lo)
        cs = [0] * max(n, 0)
        if a and b:
            _convolve(cs, a, b, 0, 1)
        return self._make(lo, cs, self._den * o._den,
                          None if prec == inf else prec)

    @staticmethod
    def _inverse_num(a, den, n):
        """Numerators and denominator of the coefficients of t^0 .. t^(n-1),
        and at least t^0, of den / A for A = a[0] + a[1] t + ... with
        integer a[i] and a[0] != 0."""
        if a[0] < 0:  # den/A = (-den)/(-A) keeps u = A_0 and u^k positive
            a, den = [-x for x in a], -den
        u = a[0]
        # the k-th coefficient of 1/A is e_k / u^(k+1), where e_0 = 1 and
        # e_k = -sum_(i=1..k) A_i u^(i-1) e_(k-i)
        pw = [1]  # pw[i] = u^i
        for _ in range(max(n, len(a))):
            pw.append(pw[-1] * u)
        e = [1]
        for k in range(1, n):
            e.append(-sum(a[i] * pw[i - 1] * e[k - i]
                          for i in range(1, min(k, len(a) - 1) + 1)))
        m = len(e)
        return [den * x * pw[m - 1 - k] for k, x in enumerate(e)], pw[m]

    def truncate(self, prec: int):
        if prec is None:
            return self
        return self._make(self._lo, self._num, self._den,
                          min(prec, _prec_key(self.prec)))

    def scale(self, a):
        a = as_fraction(a)
        return self._make(self._lo, [a.numerator * x for x in self._num],
                          a.denominator * self._den, self.prec)

    # -- comparison --------------------------------------------------

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        w = min(_prec_key(self.prec), _prec_key(o.prec))
        if w == inf:
            return (self._lo == o._lo and self._num == o._num
                    and self._den == o._den)
        da, db = self._den, o._den
        lo, pairs = self._aligned(o)
        return all(x * db == y * da for x, y in
                   islice(pairs, max(int(w) + self._END - lo, 0)))

    __hash__ = None

    def __str__(self):
        return _format_terms(self.items(), self._VAR)

    def __repr__(self):
        tail = ("" if self.prec is None
                else f" + O({self._VAR}^{self.prec + self._END})")
        return f"{type(self).__name__}({self}{tail})"


class XSeries(_Series):
    """Truncated power series in x over the rationals.

    Coefficients of x^k are guaranteed for 0 <= k < prec, or prec is None
    when the series is exactly the stored polynomial; those at k >= prec
    are unknown, never silently zero.  coeffs is the tuple c0, c1, ... of
    Fractions up to the highest nonzero one.
    """

    __slots__ = ()
    _VAR, _END = "x", 0
    _EXHAUSTED = "x-precision exhausted (need prec >= 1)"
    _UNKNOWN = "coefficient of x^{k} unknown (guaranteed below x^{prec})"

    def __init__(self, coeffs, prec=None):
        pairs = [as_fraction(c).as_integer_ratio() for c in coeffs][:prec]
        # the kept pairs are in lowest terms, so over their lcm none reduce
        den = lcm(*[d for _, d in pairs])
        self._set(0, [n * (den // d) for n, d in pairs], den, prec,
                  reduced=True)

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
    def coeffs(self) -> tuple:
        """c0, c1, ... up to the highest nonzero one, as Fractions."""
        v = self._view()
        return tuple(v.get(k, _ZERO) for k in range(self.degree_bound() + 1))

    # -- arithmetic --------------------------------------------------

    def _window(self, o):
        """The window of self * o, inf for exact."""
        if self.exact and not self._num or o.exact and not o._num:
            # an exact zero factor keeps the product exactly zero
            return inf
        return min(_prec_key(self.prec), _prec_key(o.prec))

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self._product(o)

    __rmul__ = __mul__

    def __pow__(self, e: int):
        if not isinstance(e, int) or e < 0:
            raise DomainError("series powers require a nonnegative integer exponent")
        return power(self, e, XSeries.one())

    def derivative(self, j: int = 1) -> "XSeries":
        """The j-th derivative in closed form:
        [x^(k-j)] b^(j) = k (k-1) ... (k-j+1) b_k, guaranteed below
        x^(prec - j)."""
        return _derivative_sum(((self, j, 1),))

    def integral(self) -> "XSeries":
        """Antiderivative with constant term zero (the normalization used
        for every dressing recursion in this package)."""
        lo = self._lo + 1
        den = lcm(*range(lo, lo + len(self._num)))
        num = [x * (den // k) for k, x in enumerate(self._num, lo)]
        return XSeries._make(lo, num, self._den * den,
                             None if self.prec is None else self.prec + 1)

    def inverse(self, prec=None) -> "XSeries":
        """Multiplicative inverse of a unit (nonzero constant term).

        An exact non-constant series has an infinite inverse, so a target
        precision is required there; it defaults to DEFAULT_XPREC.
        """
        if self._lo or not self._num:
            raise DomainError("not a unit: constant term is zero")
        if self.exact and len(self._num) == 1:
            prec, n = None, 1
        else:
            if prec is None:
                prec = self.prec if self.prec is not None else DEFAULT_XPREC
            n = prec = min(prec, _prec_key(self.prec))
        num, den = self._inverse_num(self._num, self._den, n)
        return XSeries._make(0, num, den, prec)


class ZLaurent(_Series):
    """Truncated Laurent series in z over the rationals.

    Exponents k <= prec are guaranteed (prec None means the series is
    exactly its finite support).  Only finitely many negative exponents
    may occur, so the pole order of a nonzero element is always certified
    once any coefficient is nonzero.  coeffs is the dict of exponent ->
    nonzero Fraction, built on the first read and kept.
    """

    __slots__ = ()
    _VAR, _END = "z", 1
    _UNKNOWN = "coefficient of z^{k} unknown (guaranteed up to z^{prec})"

    def __init__(self, coeffs, prec=None):
        pairs = {}
        for k, c in dict(coeffs).items():
            c = as_fraction(c)
            if c and (prec is None or k <= prec):
                pairs[int(k)] = c.as_integer_ratio()
        if not pairs:
            self._set(0, (), 1, prec)
            return
        lo = min(pairs)
        num = [0] * (max(pairs) - lo + 1)
        # the kept pairs are in lowest terms, so over their lcm none reduce
        den = lcm(*[d for _, d in pairs.values()])
        for k, (n, d) in pairs.items():
            num[k - lo] = n * (den // d)
        self._set(lo, num, den, prec, reduced=True)

    # -- constructors ------------------------------------------------

    @classmethod
    def monomial(cls, k: int, c=1, prec=None) -> "ZLaurent":
        n, d = as_fraction(c).as_integer_ratio()
        return cls._make(int(k), (n,), d, prec, reduced=True)

    @classmethod
    def constant(cls, a, prec=None) -> "ZLaurent":
        return cls.monomial(0, a, prec)

    @classmethod
    def zero(cls, prec=None) -> "ZLaurent":
        return cls._make(0, (), 1, prec)

    @classmethod
    def one(cls) -> "ZLaurent":
        return cls._make(0, (1,), 1)

    # -- inspection --------------------------------------------------

    @property
    def coeffs(self) -> dict:
        """The nonzero coefficients as {exponent: Fraction}."""
        return self._view()

    def support(self):
        return [k for k, x in enumerate(self._num, self._lo) if x]

    def valuation(self) -> int:
        """Lowest exponent carrying a nonzero coefficient."""
        if not self._num:
            if self.exact:
                raise DomainError("valuation of the zero series is undefined")
            raise PrecisionError("order undetermined at this precision (zero within window)")
        return self._lo

    def order(self) -> int:
        """Pole order: ord(a) = m when a lies in z^-m*Q[[z]] but not z^(-m+1)*Q[[z]]."""
        return -self.valuation()

    def low_bound(self) -> float:
        """Lowest exponent that could carry a nonzero coefficient: the
        valuation, prec + 1 for a window-zero series, inf for exact zero.
        Window bookkeeping uses it: unknown-tail products start above it."""
        if self._num:
            return self._lo
        return inf if self.exact else self.prec + 1

    # -- arithmetic --------------------------------------------------

    def _window(self, o):
        """The window of self * o, inf for exact.  The product coefficient
        at k is certain only when every split k = i + j draws on
        guaranteed coefficients of both factors."""
        return min(_prec_key(self.prec) + o.low_bound(),
                   _prec_key(o.prec) + self.low_bound())

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self._product(o)

    __rmul__ = __mul__

    def __pow__(self, e: int):
        if not isinstance(e, int):
            raise DomainError("Laurent powers require an integer exponent")
        if e < 0:
            return self.inverse() ** (-e)
        return power(self, e, ZLaurent.one())

    def derivative_z(self) -> "ZLaurent":
        """d/dz term by term."""
        return ZLaurent._make(
            self._lo - 1, [k * x for k, x in enumerate(self._num, self._lo)],
            self._den, None if self.prec is None else self.prec - 1)

    def inverse(self, prec=None) -> "ZLaurent":
        """Inverse of a nonzero element of Q((z)).

        For a truncated input with window top P and valuation v the result
        is guaranteed up to exponent P - 2v.  Exact non-monomial inputs
        have an infinite inverse, so a window top is required there; it
        defaults to -v + (DEFAULT_ZHI - DEFAULT_ZLO).
        """
        v = self.valuation()
        if self.exact and len(self._num) == 1:
            prec, n = None, 1
        else:
            if prec is None:
                if self.prec is not None:
                    prec = self.prec - 2 * v
                else:
                    prec = -v + (DEFAULT_ZHI - DEFAULT_ZLO)
            elif self.prec is not None:
                prec = min(prec, self.prec - 2 * v)
            # self = z^v * A/den with A a unit, and 1/A is needed for
            # the n exponents 0 .. prec + v
            n = prec + v + 1
            if n <= 0:
                raise PrecisionError("window too small to invert at this valuation")
        num, den = self._inverse_num(self._num, self._den, n)
        return ZLaurent._make(-v, num, den, prec)


def _convolve(cs, a, b, off, f):
    """Add f times the product of the numerators a and b into cs, a[i] b[j]
    at cs[off + i + j], dropping what falls past its end.  Only nonzero
    terms are visited, so a sparse factor costs its terms, not its span."""
    n = len(cs)
    m = max(n - off, 0)
    nb = [(j, y) for j, y in enumerate(b[:m], off) if y]
    if f != 1:
        nb = [(j, y * f) for j, y in nb]
    for i, x in enumerate(a[:m]):
        if x:
            for j, y in nb:
                if i + j >= n:
                    break
                cs[i + j] += x * y


def _product_sum(pairs):
    """The sum of a * b over the (a, b) in pairs, series of one type.

    Each product is known on its _window, and the sum below the least of
    those windows.  Pairs with a zero numerator add nothing; the others
    are convolved into one integer list over the lcm of the a._den * b._den.
    """
    # a product of two exact factors is exact
    prec = min([a._window(b) for a, b in pairs
                if a.prec is not None or b.prec is not None], default=inf)
    live = [(a, b) for a, b in pairs if a._num and b._num]
    lo = min([a._lo + b._lo for a, b in live], default=0)
    hi = max([a._lo + b._lo + len(a._num) + len(b._num) - 1
              for a, b in live], default=0)
    cls = type(pairs[0][0])
    if prec != inf:
        hi = min(hi, prec + cls._END)
    den = lcm(*[a._den * b._den for a, b in live])
    cs = [0] * max(hi - lo, 0)
    for a, b in live:
        _convolve(cs, a._num, b._num, a._lo + b._lo - lo,
                  den // (a._den * b._den))
    return cls._make(lo, cs, den, None if prec == inf else prec)


def xd_action(parts, prec=None) -> ZLaurent:
    """The sum of s(x) D^m w over the (s, m, w) triples in parts, with s an
    XSeries and w a ZLaurent, D read as z^-1 and x as z^2 d/dz, cut at
    the window prec (None: exact).

    x^l z^q = q (q+1) ... (q+l-1) z^(q+l), so s_l D^m w_p lands at
    z^(q+l) with q = p - m, times that rising factorial.  Every part adds
    its numerators into one integer list over the lcm of the products
    s._den * w._den.  The caller owns the window: no part's own window is
    read here.
    """
    parts = [(s, m, w) for s, m, w in parts if s._num and w._num]
    den = lcm(*[s._den * w._den for s, _, w in parts])
    lo = min((w._lo - m + s._lo for s, m, w in parts), default=0)
    hi = max((w._lo + len(w._num) + s._lo + len(s._num) - 1 - m
              for s, m, w in parts), default=0)
    if prec is not None:
        hi = min(hi, prec + 1)
    cs = [0] * (hi - lo)
    for s, m, w in parts:
        f = den // (s._den * w._den)
        s_items = [(l, x) for l, x in enumerate(s._num, s._lo) if x]
        for p, y in enumerate(w._num, w._lo):
            if not y:
                continue
            q = p - m
            y *= f
            rise, top = 1, 0  # rise = q (q+1) ... (q+top-1)
            for l, x in s_items:
                if q + l >= hi:
                    break
                while top < l:
                    rise *= q + top
                    top += 1
                if not rise:
                    break
                cs[q + l - lo] += x * rise * y
    return ZLaurent._make(lo, cs, den, prec)


def x_power_items(w: ZLaurent, nx: int, prec, den: int):
    """The nonzero (l, e, den * [z^e] x^l w) for 0 <= l < nx and e <= prec
    (None: every e), as ints, with x read as z^2 d/dz.

    x^l z^q = q (q+1) ... (q+l-1) z^(q+l), so each numerator of w is
    visited once and its rising factorial stepped across l, until it
    vanishes (at l = 1 - q for q <= 0) or q + l passes prec.  den must be
    a positive multiple of w's denominator, as for scaled_items.  The
    caller owns the window: w's own is not read, and no series, gcd or
    Fraction is made.
    """
    f = w._scale_to(den)
    out = []
    for q, y in enumerate(w._num, w._lo):
        if not y:
            continue
        c = y * f  # den * [z^q] w times rise(q, l), from l = 0
        for l in range(nx if prec is None else min(nx, prec - q + 1)):
            out.append((l, q + l, c))
            c *= q + l
            if not c:
                break
    return out


def _derivative_sum(parts) -> XSeries:
    """The sum of c s^(j) over the (s, j, c) in parts, with s an XSeries,
    j >= 0 and c an int.

    [x^(k-j)] s^(j) = k (k-1) ... (k-j+1) s_k is read off the numerators,
    and every part adds into one integer list over the lcm of the
    denominators s._den.  s^(j) is known below x^(prec(s) - j) and the sum
    below the least of those windows; a part with prec(s) <= j raises
    PrecisionError.
    """
    prec = inf
    lo = hi = 0
    live = []
    for s, j, c in parts:
        if s.prec is not None:
            if s.prec <= j:
                raise PrecisionError(f"cannot differentiate {j} times a "
                                     f"series guaranteed only below "
                                     f"x^{s.prec}")
            if s.prec - j < prec:
                prec = s.prec - j
        k0 = s._lo if s._lo > j else j  # the exponents below j vanish
        top = s._lo + len(s._num)
        if k0 < top:
            if not live or k0 - j < lo:
                lo = k0 - j
            if not live or top - j > hi:
                hi = top - j
            live.append((s, j, c, k0))
    den = lcm(*[s._den for s, _, _, _ in live])
    hi = min(hi, prec)
    cs = [0] * max(hi - lo, 0)
    for s, j, c, k0 in live:
        f = c * (den // s._den)
        num, off = s._num, s._lo
        if not j:  # a plain sum, as of leibniz_sum's products
            for i, x in enumerate(num[k0 - off:max(hi - off, 0)], k0 - lo):
                if x:
                    cs[i] += f * x
            continue
        rise = perm(k0, j)
        for k, x in enumerate(num[k0 - off:max(hi + j - off, 0)], k0):
            if x:
                cs[k - j - lo] += f * rise * x
            rise = rise * (k + 1) // (k + 1 - j)
    return XSeries._make(lo, cs, den, None if prec == inf else prec)


def leibniz_sum(n: int, groups) -> "Matrix":
    """The n x n matrix sum of a * (sum of c b^(j) over the (b, j, c) in
    parts) over the (a, parts) in groups, with a and b n x n Matrices of
    XSeries, b^(j) the entrywise j-th x-derivative and c an int.

    Each entry of an inner sum is one integer list over one denominator,
    known below the least of prec(b) - j over its parts; a part with an
    entry known only below x^j raises PrecisionError.  Each product
    a[i][t] * inner[t][l] is an XSeries product, so an exact zero factor
    keeps it exactly zero, and the products of one output entry add into
    one integer list over one denominator under the least of their
    windows.
    """
    sums = [[[] for _ in range(n)] for _ in range(n)]
    for a, parts in groups:
        inner = [[_derivative_sum([(b.rows[t][l], j, c) for b, j, c in parts])
                  for l in range(n)] for t in range(n)]
        for row, out in zip(a.rows, sums):
            for l, terms in enumerate(out):
                terms.extend((x * inner[t][l], 0, 1)
                             for t, x in enumerate(row))
    return Matrix([[_derivative_sum(terms) for terms in out] for out in sums])


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
        if not isinstance(other, Matrix):
            return NotImplemented
        if other.n != self.n:
            raise DimensionError("matrix sizes differ")
        cols = list(zip(*other.rows))
        kinds = {type(e) for m in (self, other) for row in m.rows for e in row}
        if kinds in ({XSeries}, {ZLaurent}):
            # each entry is one integer list: the exact zeros of sparse
            # factors cost nothing, and no partial sum is built
            return Matrix([[_product_sum(list(zip(row, col))) for col in cols]
                           for row in self.rows])
        return Matrix([[sum(map(mul, row, col)) for col in cols]
                       for row in self.rows])

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
# Rows are scaled to integers, and a row of ints is taken as it is.
# rref is Gauss-Jordan elimination on them: row operations use
# cross-multiplication with gcd stripping, so no fraction normalization
# happens inside the loop; pivots are divided out only at the end.  The
# reduced form is unique, so the output is the same as for elimination
# over the fractions directly.  Pivots are chosen as the first row with
# a nonzero entry in the current column, so every result is
# deterministic.
#
# solve_system answers an overdetermined system from a certified
# modular solution.  The first rows independent modulo a prime p are
# independent over the rationals, so their square system has exactly one
# solution.  That system is solved modulo p, each entry is read back as
# the fraction r/s with |r|, s <= isqrt(p/2) that it is congruent to
# (rational reconstruction: Wang, Guy & Davenport, SIGSAM Bull. 1982;
# von zur Gathen & Gerhard, Modern Computer Algebra, 5.10), and the
# candidate is checked exactly against the picked rows.  A candidate
# that satisfies them is the unique solution, so only then may another
# row's exact check declare the system inconsistent.  When an entry has
# no reconstruction, or the candidate fails a picked row, rref solves
# the picked rows instead.  The prime chooses; exact arithmetic decides.
# One prime suffices for the small solutions the frame equations have,
# so no p-adic lifting is done.

def _strip_row(row):
    g = 0
    for x in row:
        g = gcd(g, x)
        if g == 1:
            return row
    if g > 1:
        return [x // g for x in row]
    return row


def _ints(row) -> bool:
    return {*map(type, row)} <= {int}


def _integer_row(row):
    """The row times the least common multiple of its denominators; a row
    of ints as it is."""
    if _ints(row):
        return row
    fr = [as_fraction(e) for e in row]
    den = lcm(*[e.denominator for e in fr])
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
        pv = row[pivots[i]] if i < len(pivots) else 1
        out.append([Fraction(x, pv) if x else _ZERO for x in row])
    return out, pivots


def rank(rows) -> int:
    return len(rref(rows)[1])


# Rows of an overdetermined system are chosen, and their square system
# solved, modulo this prime.  It only chooses: exact arithmetic decides
# every answer.
SELECTION_PRIME = 2**61 - 1
_RECONSTRUCTION_BOUND = isqrt(SELECTION_PRIME // 2)


def _integer_pairs(rows, rhs_rows):
    """Each row of A beside its row of B, both times one factor that
    makes them integers; rows of ints are taken as they are."""
    out = []
    for row, rhs in zip(rows, rhs_rows):
        if _ints(row) and _ints(rhs):
            out.append((row, rhs))
        else:
            whole = _integer_row(list(row) + list(rhs))
            out.append((whole[:len(row)], whole[len(row):]))
    return out


def _augmented(pairs):
    return [list(lhs) + list(rhs) for lhs, rhs in pairs]


def _independent_rows(pairs, ncols):
    """Indices of the first integer rows (lhs, rhs), in order, whose ncols
    lhs entries are independent modulo SELECTION_PRIME, at most ncols;
    and, when there are ncols of them, the solution modulo the prime of
    the square system they form, one list of residues per unknown with
    one entry per right-hand side, else None.

    Each row is reduced with its right-hand sides against the rows picked
    before it, so the picked rows end up triangular with pivot entry 1,
    and back-substitution solves them.
    """
    p = SELECTION_PRIME
    basis = []  # (pivot column, reduced augmented row with pivot entry 1)
    picked = []
    for idx, (lhs, rhs) in enumerate(pairs):
        v = [x % p for x in chain(lhs, rhs)]
        for c, b in basis:
            f = v[c]
            if f:
                v = [(x - f * y) % p for x, y in zip(v, b)]
        c = next((j for j in range(ncols) if v[j]), None)
        if c is None:
            continue
        inv = pow(v[c], -1, p)
        basis.append((c, [x * inv % p for x in v]))
        picked.append(idx)
        if len(picked) == ncols:
            break
    if len(picked) < ncols:
        return picked, None
    # a picked row is zero at the pivots of the rows picked before it
    sol = [None] * ncols
    for c, b in reversed(basis):
        acc = b[ncols:]
        for j, f in enumerate(b[:ncols]):
            if f and j != c:
                acc = [x - f * y for x, y in zip(acc, sol[j])]
        sol[c] = [x % p for x in acc]
    return picked, sol


def _reconstructed(a):
    """The fraction r/s congruent to a modulo SELECTION_PRIME with |r| and
    s at most _RECONSTRUCTION_BOUND, found by the extended Euclidean
    algorithm, or None when there is none."""
    bound = _RECONSTRUCTION_BOUND
    r0, r1, s0, s1 = SELECTION_PRIME, a, 0, 1  # r_i = s_i * a mod p
    while r1 > bound:
        q = r0 // r1
        r0, r1, s0, s1 = r1, r0 - q * r1, s1, s0 - q * s1
    if not 0 < abs(s1) <= bound or gcd(r1, s1) != 1:
        return None
    return Fraction(r1, s1)


def _satisfied(pairs, sol, nrhs):
    """Whether every integer row (lhs, rhs) holds exactly at sol, one row
    of nrhs Fractions per unknown."""
    for i in range(nrhs):
        # the solution column as integer numerators over one denominator
        col = [row[i] for row in sol]
        den = lcm(*[x.denominator for x in col])
        nums = [x.numerator * (den // x.denominator) for x in col]
        for lhs, rhs in pairs:
            if sum(map(mul, lhs, nums)) != rhs[i] * den:
                return False
    return True


def solve_system(rows, rhs_rows):
    """Exact solution X of A X = B, and the rank of A.

    rows holds A and rhs_rows holds B, row for row; X has one row per
    column of A and one entry per right-hand side.  Each row of A and its
    row of B are scaled to integers together, and rows of ints are taken
    as they are.  When as many rows as A has columns are independent
    modulo SELECTION_PRIME, hence over the rationals, their square system
    has exactly one solution.  Its solution modulo the prime is read back
    by rational reconstruction, and the candidate is checked exactly
    against those picked rows; when it fails, or an entry has no
    reconstruction, rref solves the picked rows.  Only the solution so
    certified is then checked against every other row, and a row it
    fails makes the system inconsistent.  Otherwise one rref of the whole
    augmented system decides.

    Returns (X, rank).  X is None when the system is inconsistent;
    otherwise free unknowns are set to zero, so the answer is
    deterministic.
    """
    if not rows:
        return [], 0
    ncols = len(rows[0])
    pairs = _integer_pairs(rows, rhs_rows)
    nrhs = len(pairs[0][1])
    picked, residues = _independent_rows(pairs, ncols)
    if residues is None:
        red, pivots = rref(_augmented(pairs))
        rk = sum(1 for p in pivots if p < ncols)
        if rk < len(pivots):
            return None, rk
        sol = [[Fraction(0)] * nrhs for _ in range(ncols)]
        for r, pc in enumerate(pivots):
            sol[pc] = red[r][ncols:]
        return sol, rk
    square = [pairs[i] for i in picked]
    sol = [[_reconstructed(a) for a in row] for row in residues]
    if (any(x is None for row in sol for x in row)
            or not _satisfied(square, sol, nrhs)):
        red, _ = rref(_augmented(square))
        sol = [red[j][ncols:] for j in range(ncols)]
    chosen = set(picked)
    others = [pair for i, pair in enumerate(pairs) if i not in chosen]
    if not _satisfied(others, sol, nrhs):
        return None, ncols
    return sol, ncols


def solve(rows, rhs):
    """One exact solution of A x = b, or None when inconsistent.

    Free variables are set to zero, so the answer is deterministic.
    """
    sol, _ = solve_system(rows, [[b] for b in rhs])
    return None if sol is None else [x[0] for x in sol]
