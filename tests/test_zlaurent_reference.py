"""ZLaurent against the dict-of-Fraction implementation it replaced, and
the window soundness of every Laurent series operation.

RefZLaurent below is the ZLaurent that stored a dict of exponent ->
nonzero Fraction, kept as an oracle: on seeded series with negative
valuations, exact zeros, windowed zeros and mixed windows, the
integer-numerator ZLaurent must agree with it on repr, prec, coeffs,
items, coeff, support, valuation, low_bound, == and error texts after
every operation.  The soundness test runs each operation on inputs
truncated to a window and again on the same inputs known much deeper,
and requires every coefficient the first result claims to match the
second.
"""

import random
from fractions import Fraction
from math import gcd, inf

import pytest

from opcurve.exactcore import (
    DEFAULT_ZHI,
    DEFAULT_ZLO,
    DomainError,
    ExactError,
    PrecisionError,
    ZLaurent,
    _format_terms,
    as_fraction,
)


def _prec_key(prec):
    return inf if prec is None else prec


class RefZLaurent:
    """The former ZLaurent: coeffs maps exponents to nonzero Fractions;
    exponents k <= prec are guaranteed, prec None means exact."""

    def __init__(self, coeffs, prec=None):
        cs = {}
        for k, c in dict(coeffs).items():
            c = as_fraction(c)
            if c != 0 and (prec is None or k <= prec):
                cs[int(k)] = c
        self.coeffs = cs
        self.prec = prec

    @property
    def exact(self):
        return self.prec is None

    def known(self, k):
        return self.prec is None or k <= self.prec

    def coeff(self, k):
        if not self.known(k):
            raise PrecisionError(
                f"coefficient of z^{k} unknown (guaranteed up to z^{self.prec})")
        return self.coeffs.get(k, Fraction(0))

    def support(self):
        return sorted(self.coeffs)

    def items(self):
        return sorted(self.coeffs.items())

    def is_zero(self):
        return not self.coeffs

    def valuation(self):
        if not self.coeffs:
            if self.exact:
                raise DomainError("valuation of the zero series is undefined")
            raise PrecisionError("order undetermined at this precision (zero within window)")
        return min(self.coeffs)

    def low_bound(self):
        if self.coeffs:
            return min(self.coeffs)
        return inf if self.exact else self.prec + 1

    def _coerce(self, other):
        if isinstance(other, RefZLaurent):
            return other
        return RefZLaurent({0: other})

    def __add__(self, other):
        o = self._coerce(other)
        prec = min(_prec_key(self.prec), _prec_key(o.prec))
        cs = dict(self.coeffs)
        for k, c in o.coeffs.items():
            cs[k] = cs.get(k, Fraction(0)) + c
        return RefZLaurent(cs, None if prec == inf else int(prec))

    __radd__ = __add__

    def __neg__(self):
        return RefZLaurent({k: -c for k, c in self.coeffs.items()}, self.prec)

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._coerce(other)
        prec = min(_prec_key(self.prec) + o.low_bound(),
                   _prec_key(o.prec) + self.low_bound())
        cs = {}
        for i, a in self.coeffs.items():
            for j, b in o.coeffs.items():
                if i + j <= prec:
                    cs[i + j] = cs.get(i + j, Fraction(0)) + a * b
        return RefZLaurent(cs, None if prec == inf else int(prec))

    __rmul__ = __mul__

    def scale(self, a):
        return RefZLaurent({k: Fraction(a) * c for k, c in self.coeffs.items()},
                           self.prec)

    def __pow__(self, e):
        if not isinstance(e, int):
            raise DomainError("Laurent powers require an integer exponent")
        if e < 0:
            return self.inverse() ** (-e)
        out = self if e else RefZLaurent({0: 1})
        for _ in range(e - 1):
            out = out * self
        return out

    def derivative_z(self):
        cs = {k - 1: k * c for k, c in self.coeffs.items() if k != 0}
        return RefZLaurent(cs, None if self.prec is None else self.prec - 1)

    def inverse(self, prec=None):
        v = self.valuation()
        c = self.coeffs[v]
        if self.exact and len(self.coeffs) == 1:
            return RefZLaurent({-v: 1 / c})
        if prec is None:
            if self.prec is not None:
                prec = self.prec - 2 * v
            else:
                prec = -v + (DEFAULT_ZHI - DEFAULT_ZLO)
        elif self.prec is not None:
            prec = min(prec, self.prec - 2 * v)
        depth = prec + v
        if depth < 0:
            raise PrecisionError("window too small to invert at this valuation")
        u = {k - v: a / c for k, a in self.coeffs.items() if k != v}
        inv = [Fraction(1)] + [Fraction(0)] * depth
        for k in range(1, depth + 1):
            inv[k] = -sum((a * inv[k - i] for i, a in u.items() if 0 < i <= k),
                          Fraction(0))
        return RefZLaurent({k - v: inv[k] / c for k in range(depth + 1)},
                           int(prec))

    def truncate(self, prec):
        if prec is None:
            return self
        return RefZLaurent(self.coeffs, min(prec, _prec_key(self.prec)))

    def __eq__(self, other):
        o = self._coerce(other)
        w = min(_prec_key(self.prec), _prec_key(o.prec))
        if w == inf:
            return self.coeffs == o.coeffs
        return all(self.coeffs.get(k, 0) == o.coeffs.get(k, 0)
                   for k in set(self.coeffs) | set(o.coeffs) if k <= w)

    def __repr__(self):
        tail = "" if self.prec is None else f" + O(z^{self.prec + 1})"
        return f"ZLaurent({_format_terms(self.items(), 'z')}{tail})"


def _rational(rng):
    return Fraction(rng.randint(-6, 6), rng.choice([1, 1, 2, 3, 4, 6, 9]))


def _sample(rng):
    """Coefficients and prec of a seeded series: exact or windowed, with
    negative exponents and zeros, and sometimes a zero series."""
    kind = rng.random()
    if kind < 0.1:
        cs = {}
    elif kind < 0.2:
        cs = {k: 0 for k in range(rng.randint(-3, 0), rng.randint(0, 3))}
    else:
        lo = rng.randint(-4, 2)
        cs = {k: _rational(rng) if rng.random() < 0.7 else 0
              for k in range(lo, lo + rng.randint(1, 7))}
    prec = None if rng.random() < 0.4 else rng.randint(-4, 6)
    return cs, prec


def _pair(cs, prec):
    return ZLaurent(cs, prec), RefZLaurent(cs, prec)


def _run(f, *args):
    try:
        return f(*args)
    except ExactError as err:
        return (type(err).__name__, str(err))


def _same(got, want):
    """got from ZLaurent and want from RefZLaurent agree on everything a
    caller can read, or raised the same error."""
    if isinstance(want, tuple):
        assert got == want
        return
    assert not isinstance(got, tuple), got
    # one stored form per value: lowest terms over a positive denominator,
    # no zero numerator at either end
    assert got._den > 0 and gcd(got._den, *got._num) == 1
    assert got._num[0] and got._num[-1] if got._num else got._lo == 0
    assert repr(got) == repr(want)
    assert got.prec == want.prec
    assert got.coeffs == want.coeffs
    assert all(type(k) is int and type(c) is Fraction and c
               for k, c in got.coeffs.items())
    assert got.items() == want.items()
    assert got.support() == want.support()
    assert got.is_zero() == want.is_zero()
    assert _run(got.valuation) == _run(want.valuation)
    assert got.low_bound() == want.low_bound()
    sup = want.support()
    lo = (sup[0] if sup else 0) - 2
    top = (sup[-1] if sup else 0) + 2 if want.prec is None else want.prec + 2
    for k in range(lo, top):
        assert _run(got.coeff, k) == _run(want.coeff, k)


UNARY = [
    ("neg", lambda s: -s),
    ("scale", lambda s: s.scale(Fraction(-3, 4))),
    ("scale0", lambda s: s.scale(0)),
    ("dz", lambda s: s.derivative_z()),
    ("dz2", lambda s: s.derivative_z().derivative_z()),
    ("trunc1", lambda s: s.truncate(1)),
    ("trunc_neg", lambda s: s.truncate(-2)),
    ("inverse", lambda s: s.inverse()),
    ("inverse3", lambda s: s.inverse(prec=3)),
    ("inverse_neg", lambda s: s.inverse(prec=-1)),
    ("pow0", lambda s: s ** 0),
    ("pow3", lambda s: s ** 3),
    ("pow_neg1", lambda s: s ** -1),
    ("pow_neg2", lambda s: s ** -2),
    ("add_int", lambda s: s + 2),
    ("rsub_frac", lambda s: Fraction(1, 3) - s),
    ("mul_int", lambda s: s * -2),
]

BINARY = [
    ("add", lambda a, b: a + b),
    ("sub", lambda a, b: a - b),
    ("mul", lambda a, b: a * b),
]


def test_zlaurent_matches_fraction_reference():
    rng = random.Random(20261018)
    samples = [_sample(rng) for _ in range(300)]
    # units with a negative, non-integral leading coefficient, for inverse
    samples.append(({-2: Fraction(-2, 3), -1: 1, 1: Fraction(5, 7)}, None))
    samples.append(({-2: Fraction(-2, 3), -1: 1, 1: Fraction(5, 7)}, 4))
    samples.append(({3: Fraction(-5, 2)}, None))
    for cs, prec in samples:
        got, want = _pair(cs, prec)
        _same(got, want)
        for name, f in UNARY:
            _same(_run(f, got), _run(f, want))
    for i in range(len(samples) - 1):
        a, ra = _pair(*samples[i])
        b, rb = _pair(*samples[i + 1])
        assert (a == b) == (ra == rb)
        assert (a == a.truncate(0)) == (ra == ra.truncate(0))
        for name, f in BINARY:
            got, want = _run(f, a, b), _run(f, ra, rb)
            _same(got, want)
            if not isinstance(want, tuple):
                # == across windows, exact and windowed alike
                assert (got == a) == (want == ra)
                assert (got == b) == (want == rb)
                assert (got == 0) == (want == 0)


def test_constructors_match_reference():
    for k in (-3, 0, 2):
        for c in (0, 1, Fraction(-6, 4)):
            for prec in (None, -4, 1, 2):
                _same(ZLaurent.monomial(k, c, prec), RefZLaurent({k: c}, prec))
            _same(ZLaurent.constant(c, k), RefZLaurent({0: c}, k))
        _same(ZLaurent.zero(k), RefZLaurent({}, k))
    _same(ZLaurent.zero(), RefZLaurent({}))
    _same(ZLaurent.one(), RefZLaurent({0: 1}))
    assert repr(ZLaurent.monomial(-3, Fraction(2, 4), 5)) == repr(
        RefZLaurent({-3: Fraction(1, 2)}, 5))
    assert repr(ZLaurent.constant(0, -2)) == "ZLaurent(0 + O(z^-1))"
    assert ZLaurent.zero(3).low_bound() == 4 and ZLaurent.zero().exact
    assert ZLaurent([(1, 2), (-1, 0)]).items() == [(1, Fraction(2))]
    with pytest.raises(DomainError) as err:
        ZLaurent({0: 1.5})
    assert str(err.value) == "not an exact rational: 1.5"


def test_storage_is_canonical():
    # equal series have one stored form, so exact == compares it directly
    a = ZLaurent({-2: Fraction(1, 2), 0: 0, 1: Fraction(1, 3)})
    b = ZLaurent({-3: 0, -2: Fraction(2, 4), 1: Fraction(2, 6), 4: 0})
    assert (a._lo, a._num, a._den) == (b._lo, b._num, b._den) == (
        -2, (3, 0, 0, 2), 6)
    # a coefficient cut off by prec leaves no factor in the denominator
    c = ZLaurent({-1: Fraction(1, 2), 2: Fraction(1, 3)}, 1)
    assert (c._lo, c._num, c._den) == (-1, (1,), 2)
    z = ZLaurent({5: Fraction(1, 3)}) - ZLaurent({5: Fraction(1, 3)})
    assert (z._lo, z._num, z._den) == (0, (), 1)
    # the kept Fraction view is built once and serves coeff and items
    assert a.coeffs is a.coeffs
    assert a.coeff(1) is a.coeffs[1]


# -- window soundness --------------------------------------------------

DEEP = 30


def _deep(rng):
    """A series from a valuation in [-3, 2], known up to z^DEEP with a
    nonzero tail, or an exact finite one."""
    v = rng.randint(-3, 2)
    cs = {k: _rational(rng) for k in range(v, DEEP + 1)}
    cs[v] = cs[v] or Fraction(1)
    if rng.random() < 0.25:
        return ZLaurent({k: c for k, c in cs.items() if k < v + 4})
    return ZLaurent(cs, DEEP)


def _claims_hold(shallow, deep):
    """Every coefficient shallow claims agrees with deep."""
    if shallow.exact:
        assert deep.exact
        assert shallow == deep
        return
    assert deep.known(shallow.prec)
    sup = shallow.support() + deep.support()
    for k in range(min(sup, default=0) - 1, shallow.prec + 1):
        assert shallow.coeff(k) == deep.coeff(k), k


SOUND_OPS = [
    ("add", 2, lambda a, b: a + b),
    ("sub", 2, lambda a, b: a - b),
    ("mul", 2, lambda a, b: a * b),
    ("scale", 1, lambda a: a.scale(Fraction(5, 3))),
    ("dz", 1, lambda a: a.derivative_z()),
    ("truncate", 1, lambda a: a.truncate(3)),
    ("inverse", 1, lambda a: a.inverse()),
    ("inverse4", 1, lambda a: a.inverse(prec=4)),
    ("pow3", 1, lambda a: a ** 3),
    ("pow_neg2", 1, lambda a: a ** -2),
]


@pytest.mark.parametrize("name,arity,op", SOUND_OPS,
                         ids=[o[0] for o in SOUND_OPS])
def test_windows_claim_only_what_inputs_justify(name, arity, op):
    rng = random.Random(f"sound-{name}")
    checked = 0
    for _ in range(60):
        deep = [_deep(rng) for _ in range(arity)]
        # truncate each windowed input to its own shallow window; exact
        # inputs stay exact, so windows mix
        shallow = [d if d.exact else d.truncate(d.valuation()
                                                + rng.randint(0, 6))
                   for d in deep]
        try:
            small = op(*shallow)
        except PrecisionError:
            continue
        _claims_hold(small, op(*deep))
        checked += 1
    assert checked >= 30
