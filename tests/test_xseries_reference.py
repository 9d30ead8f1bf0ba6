"""XSeries against the list-of-Fraction implementation it replaced, and
the window soundness of every series operation.

RefXSeries below is the XSeries that stored a tuple of Fractions, kept
as an oracle: on seeded series with exact zeros, windowed zeros and mixed
windows, the integer-numerator XSeries must agree with it on repr, prec,
coeffs, items, coeff, == and error texts after every operation.  The
soundness test runs each operation on inputs truncated to a window and
again on the same inputs known much deeper, and requires every
coefficient the first result claims to match the second.
"""

import random
from fractions import Fraction
from math import factorial, gcd, inf

import pytest

from opcurve.exactcore import (
    DEFAULT_XPREC,
    DomainError,
    ExactError,
    PrecisionError,
    XSeries,
    _format_terms,
)


def _prec_key(prec):
    return inf if prec is None else prec


class RefXSeries:
    """The former XSeries: coeffs is a tuple of Fractions with trailing
    zeros stripped; prec as in XSeries."""

    def __init__(self, coeffs, prec=None):
        cs = [Fraction(c) for c in coeffs]
        if prec is not None:
            if prec <= 0:
                raise PrecisionError("x-precision exhausted (need prec >= 1)")
            cs = cs[:prec]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)
        self.prec = prec

    @property
    def exact(self):
        return self.prec is None

    def known(self, k):
        return self.prec is None or k < self.prec

    def coeff(self, k):
        if k < 0:
            return Fraction(0)
        if not self.known(k):
            raise PrecisionError(
                f"coefficient of x^{k} unknown (guaranteed below x^{self.prec})")
        return self.coeffs[k] if k < len(self.coeffs) else Fraction(0)

    def is_zero(self):
        return not self.coeffs

    def items(self):
        return [(k, c) for k, c in enumerate(self.coeffs) if c]

    def _at(self, k):
        return self.coeffs[k] if k < len(self.coeffs) else Fraction(0)

    def _coerce(self, other):
        if isinstance(other, RefXSeries):
            return other
        return RefXSeries([other])

    def __add__(self, other):
        o = self._coerce(other)
        prec = min(_prec_key(self.prec), _prec_key(o.prec))
        n = max(len(self.coeffs), len(o.coeffs))
        cs = [self._at(k) + o._at(k) for k in range(n)]
        return RefXSeries(cs, None if prec == inf else prec)

    __radd__ = __add__

    def __neg__(self):
        return RefXSeries([-c for c in self.coeffs], self.prec)

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._coerce(other)
        prec = min(_prec_key(self.prec), _prec_key(o.prec))
        if self.is_zero() or o.is_zero():
            exact_zero = (self.exact and self.is_zero()
                          or o.exact and o.is_zero())
            return RefXSeries([], None if exact_zero or prec == inf else prec)
        n = len(self.coeffs) + len(o.coeffs) - 1
        if prec != inf:
            n = min(n, prec)
        cs = [Fraction(0)] * n
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(o.coeffs):
                if i + j < n:
                    cs[i + j] += a * b
        return RefXSeries(cs, None if prec == inf else prec)

    __rmul__ = __mul__

    def derivative(self, j=1):
        if self.prec is not None and self.prec <= j:
            raise PrecisionError(f"cannot differentiate {j} times a series "
                                 f"guaranteed only below x^{self.prec}")
        cs = [factorial(q + j) // factorial(q) * c
              for q, c in enumerate(self.coeffs[j:])]
        return RefXSeries(cs, None if self.prec is None else self.prec - j)

    def integral(self):
        cs = [Fraction(0)] + [c / (k + 1) for k, c in enumerate(self.coeffs)]
        return RefXSeries(cs, None if self.prec is None else self.prec + 1)

    def inverse(self, prec=None):
        c0 = self.coeff(0)
        if c0 == 0:
            raise DomainError("not a unit: constant term is zero")
        if self.exact and len(self.coeffs) == 1:
            return RefXSeries([1 / c0])
        if prec is None:
            prec = self.prec if self.prec is not None else DEFAULT_XPREC
        prec = min(prec, _prec_key(self.prec))
        inv = [1 / c0]
        for k in range(1, prec):
            s = Fraction(0)
            for i in range(1, min(k, len(self.coeffs) - 1) + 1):
                s += self._at(i) * inv[k - i]
            inv.append(-s / c0)
        return RefXSeries(inv, prec)

    def truncate(self, prec):
        if prec is None:
            return self
        return RefXSeries(self.coeffs, min(prec, _prec_key(self.prec)))

    def scale(self, a):
        return RefXSeries([Fraction(a) * c for c in self.coeffs], self.prec)

    def __eq__(self, other):
        o = self._coerce(other)
        w = min(_prec_key(self.prec), _prec_key(o.prec))
        if w == inf:
            return self.coeffs == o.coeffs
        return all(self._at(k) == o._at(k) for k in range(int(w)))

    def __repr__(self):
        tail = "" if self.prec is None else f" + O(x^{self.prec})"
        return f"XSeries({_format_terms(self.items(), 'x')}{tail})"


def _rational(rng):
    return Fraction(rng.randint(-6, 6), rng.choice([1, 1, 2, 3, 4, 6, 9]))


def _sample(rng):
    """Coefficients and prec of a seeded series: exact or windowed, with
    zeros, and sometimes a zero series."""
    kind = rng.random()
    if kind < 0.1:
        cs = []
    elif kind < 0.2:
        cs = [0] * rng.randint(1, 4)
    else:
        cs = [_rational(rng) if rng.random() < 0.75 else 0
              for _ in range(rng.randint(1, 7))]
    prec = None if rng.random() < 0.4 else rng.randint(1, 9)
    return cs, prec


def _pair(cs, prec):
    return XSeries(cs, prec), RefXSeries(cs, prec)


def _run(f, *args):
    try:
        return f(*args)
    except ExactError as err:
        return (type(err).__name__, str(err))


def _same(got, want):
    """got from XSeries and want from RefXSeries agree on everything a
    caller can read, or raised the same error."""
    if isinstance(want, tuple):
        assert got == want
        return
    assert not isinstance(got, tuple), got
    # one stored form per value: lowest terms over a positive denominator
    assert got._den > 0 and gcd(got._den, *got._num) == 1
    assert not got._num or got._num[-1]
    assert repr(got) == repr(want)
    assert got.prec == want.prec
    assert got.coeffs == want.coeffs
    assert all(type(c) is Fraction for c in got.coeffs)
    assert got.items() == want.items()
    assert got.is_zero() == want.is_zero()
    top = len(want.coeffs) + 2 if want.prec is None else want.prec + 2
    for k in range(-1, top):
        assert _run(got.coeff, k) == _run(want.coeff, k)


UNARY = [
    ("neg", lambda s: -s),
    ("scale", lambda s: s.scale(Fraction(-3, 4))),
    ("scale0", lambda s: s.scale(0)),
    ("d1", lambda s: s.derivative(1)),
    ("d3", lambda s: s.derivative(3)),
    ("d0", lambda s: s.derivative(0)),
    ("integral", lambda s: s.integral()),
    ("trunc2", lambda s: s.truncate(2)),
    ("trunc0", lambda s: s.truncate(0)),
    ("inverse", lambda s: s.inverse()),
    ("inverse5", lambda s: s.inverse(prec=5)),
    ("add_int", lambda s: s + 2),
    ("rsub_frac", lambda s: Fraction(1, 3) - s),
    ("mul_int", lambda s: s * -2),
]

BINARY = [
    ("add", lambda a, b: a + b),
    ("sub", lambda a, b: a - b),
    ("mul", lambda a, b: a * b),
]


def test_xseries_matches_fraction_reference():
    rng = random.Random(20261018)
    samples = [_sample(rng) for _ in range(300)]
    # a unit with a negative, non-integral constant term, for inverse
    samples.append(([Fraction(-2, 3), 1, 0, Fraction(5, 7)], None))
    samples.append(([Fraction(-2, 3), 1, 0, Fraction(5, 7)], 6))
    for cs, prec in samples:
        got, want = _pair(cs, prec)
        _same(got, want)
        for name, f in UNARY:
            _same(_run(f, got), _run(f, want))
    for i in range(len(samples) - 1):
        a, ra = _pair(*samples[i])
        b, rb = _pair(*samples[i + 1])
        assert (a == b) == (ra == rb)
        assert (a == a.truncate(3)) == (ra == ra.truncate(3))
        for name, f in BINARY:
            got, want = _run(f, a, b), _run(f, ra, rb)
            _same(got, want)
            if not isinstance(want, tuple):
                # == across windows, exact and windowed alike
                assert (got == a) == (want == ra)
                assert (got == b) == (want == rb)
                assert (got == 0) == (want == 0)


def test_construction_errors_match_reference():
    for prec in (0, -2):
        with pytest.raises(PrecisionError) as err:
            XSeries([1, 2], prec)
        assert str(err.value) == "x-precision exhausted (need prec >= 1)"
    with pytest.raises(DomainError):
        XSeries([1.5])


def test_storage_is_canonical():
    # equal series have one stored form, so exact == compares it directly
    a = XSeries([Fraction(1, 2), Fraction(1, 3)])
    b = XSeries([Fraction(2, 4), Fraction(2, 6), 0])
    assert a._num == b._num == (3, 2) and a._den == b._den == 6
    # a coefficient cut off by prec leaves no factor in the denominator
    c = XSeries([Fraction(1, 2), Fraction(1, 3)], 1)
    assert c._num == (1,) and c._den == 2
    z = XSeries([Fraction(1, 3)]) - XSeries([Fraction(1, 3)])
    assert z._num == () and z._den == 1
    assert XSeries([-2, 1]).inverse(4) == XSeries(
        [Fraction(-1, 2), Fraction(-1, 4), Fraction(-1, 8), Fraction(-1, 16)],
        4)
    assert XSeries([Fraction(-3, 2)]).inverse() == XSeries([Fraction(-2, 3)])


# -- window soundness --------------------------------------------------

DEEP = 40


def _deep(rng, unit=False):
    """A series known below x^DEEP with a nonzero tail, or an exact
    polynomial; unit makes the constant term nonzero."""
    cs = [_rational(rng) for _ in range(DEEP)]
    if unit and cs[0] == 0:
        cs[0] = Fraction(1)
    if rng.random() < 0.25:
        return XSeries(cs[:rng.randint(0, 5)] or ([1] if unit else []))
    return XSeries(cs, DEEP)


def _claims_hold(shallow, deep):
    """Every coefficient shallow claims agrees with deep."""
    if shallow.exact:
        assert deep.exact
        top = max(len(shallow.coeffs), len(deep.coeffs))
    else:
        top = shallow.prec
        assert deep.known(top - 1)
    for k in range(top):
        assert shallow.coeff(k) == deep.coeff(k), k


SOUND_OPS = [
    ("add", 2, lambda a, b: a + b),
    ("sub", 2, lambda a, b: a - b),
    ("mul", 2, lambda a, b: a * b),
    ("scale", 1, lambda a: a.scale(Fraction(5, 3))),
    ("d1", 1, lambda a: a.derivative(1)),
    ("d2", 1, lambda a: a.derivative(2)),
    ("integral", 1, lambda a: a.integral()),
    ("truncate", 1, lambda a: a.truncate(4)),
    ("inverse", 1, lambda a: a.inverse()),
]


@pytest.mark.parametrize("name,arity,op", SOUND_OPS,
                         ids=[o[0] for o in SOUND_OPS])
def test_windows_claim_only_what_inputs_justify(name, arity, op):
    rng = random.Random(f"sound-{name}")
    checked = 0
    for _ in range(60):
        deep = [_deep(rng, unit=name == "inverse") for _ in range(arity)]
        # truncate each windowed input to its own shallow window; exact
        # inputs stay exact, so windows mix
        shallow = [d if d.exact else d.truncate(rng.randint(1, 8))
                   for d in deep]
        try:
            small = op(*shallow)
        except PrecisionError:
            continue
        _claims_hold(small, op(*deep))
        checked += 1
    assert checked >= 30
