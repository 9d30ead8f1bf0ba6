"""Matrix.__mul__ against the entry-by-entry loop it replaced.

ref_matmul below is the former product, kept as an oracle: each entry
was acc = a[i][0] * b[0][j], then acc = acc + a[i][k] * b[k][j] for the
other k.  Its single products are ref_product, the former window rules
(XSeries: an exact zero factor gives an exact zero, else the lesser
window; ZLaurent: min(prec(a) + low_bound(b), prec(b) + low_bound(a)))
over a convolution of Fractions, so the oracle shares no product code
with the kernel.  On seeded XSeries, ZLaurent and Fraction matrices of
sizes 1 to 4, whose entries are exact, windowed, exact zero and zero
only on a window, the product must agree with it on repr, prec, ==,
denominator and scaled_items of every entry.
"""

import random
from fractions import Fraction
from math import inf

import pytest

from opcurve.exactcore import Matrix, XSeries, ZLaurent


def _key(prec):
    return inf if prec is None else prec


def ref_product(a, b):
    """The former a * b of two series of one type."""
    if isinstance(a, XSeries):
        if a.exact and a.is_zero() or b.exact and b.is_zero():
            return XSeries.zero()
        prec = min(_key(a.prec), _key(b.prec))
        end = prec  # the lowest exponent not guaranteed
    else:
        prec = min(_key(a.prec) + b.low_bound(), _key(b.prec) + a.low_bound())
        end = prec + 1
    cs = {}
    for i, x in a.items():
        for j, y in b.items():
            if i + j < end:
                cs[i + j] = cs.get(i + j, 0) + x * y
    prec = None if prec == inf else int(prec)
    if isinstance(a, XSeries):
        return XSeries([cs.get(k, 0) for k in range(max(cs, default=-1) + 1)],
                       prec)
    return ZLaurent(cs, prec)


def ref_matmul(a, b):
    n = a.n
    mul = ref_product if hasattr(a.rows[0][0], "prec") else (
        lambda x, y: x * y)
    out = []
    for i in range(n):
        row = []
        for j in range(n):
            acc = mul(a.rows[i][0], b.rows[0][j])
            for k in range(1, n):
                acc = acc + mul(a.rows[i][k], b.rows[k][j])
            row.append(acc)
        out.append(row)
    return out


KINDS = ("exact", "windowed", "exact zero", "window zero")


def _rational(rng):
    if rng.random() < 0.3:
        return Fraction(0)
    return Fraction(rng.randint(-9, 9), rng.choice([1, 1, 2, 3, 4, 9]))


def _x(rng, kind):
    if kind == "exact zero":
        return XSeries.zero()
    if kind == "window zero":
        return XSeries([], rng.randint(1, 5))
    cs = [_rational(rng) for _ in range(rng.randint(1, 5))]
    cs[-1] = cs[-1] or Fraction(1)
    return XSeries(cs, None if kind == "exact" else rng.randint(1, 6))


def _z(rng, kind):
    if kind == "exact zero":
        return ZLaurent.zero()
    if kind == "window zero":
        return ZLaurent.zero(rng.randint(-4, 3))
    cs = {rng.randint(-4, 3): _rational(rng) or Fraction(1)
          for _ in range(rng.randint(1, 4))}
    if kind == "exact":
        return ZLaurent(cs)
    # windowed, possibly cut below the valuation
    return ZLaurent(cs, rng.randint(min(cs) - 1, max(cs) + 3))


def _matrix(rng, n, make):
    # a few sparse, J_n-like matrices: mostly exact zeros
    sparse = rng.random() < 0.3
    return Matrix([[make(rng, "exact zero" if sparse and rng.random() < 0.7
                         else rng.choice(KINDS)) for _ in range(n)]
                   for _ in range(n)])


def _same(got, want):
    assert repr(got) == repr(want)
    if isinstance(want, Fraction):
        assert type(got) is Fraction and got == want
        return
    assert type(got) is type(want)
    assert got.prec == want.prec
    assert got == want
    assert got.denominator == want.denominator
    assert (got.scaled_items(got.denominator)
            == want.scaled_items(want.denominator))


@pytest.mark.parametrize("make", [_x, _z], ids=["XSeries", "ZLaurent"])
def test_series_product_matches_entry_loop(make):
    rng = random.Random(f"matrix-product-{make.__name__}")
    seen = set()
    for _ in range(600):
        n = rng.randint(1, 4)
        a, b = _matrix(rng, n, make), _matrix(rng, n, make)
        got = a * b
        for grow, wrow in zip(got.rows, ref_matmul(a, b)):
            for g, w in zip(grow, wrow):
                _same(g, w)
                seen.add(("exact" if g.exact else "windowed",
                          "zero" if g.is_zero() else "nonzero"))
        seen.add(n)
    assert seen >= {1, 2, 3, 4, ("exact", "zero"), ("exact", "nonzero"),
                    ("windowed", "zero"), ("windowed", "nonzero")}


def test_fraction_product_matches_entry_loop():
    rng = random.Random("matrix-product-fraction")
    for _ in range(200):
        n = rng.randint(1, 4)
        a, b = (Matrix([[_rational(rng) for _ in range(n)] for _ in range(n)])
                for _ in range(2))
        for grow, wrow in zip((a * b).rows, ref_matmul(a, b)):
            for g, w in zip(grow, wrow):
                _same(g, w)


def _j(n, c):
    rows = [[ZLaurent.zero() for _ in range(n)] for _ in range(n)]
    for i in range(n - 1):
        rows[i][i + 1] = ZLaurent.monomial(0, c)
    rows[n - 1][0] = ZLaurent.monomial(-1, c)
    return Matrix(rows)


def test_exact_j4_product_makes_no_laurent_product(monkeypatch):
    calls = []
    mul = ZLaurent.__mul__

    def counted(self, other):
        calls.append(1)
        return mul(self, other)

    a, b = _j(4, 1), _j(4, Fraction(-2, 3))
    want = ref_matmul(a, b)
    monkeypatch.setattr(ZLaurent, "__mul__", counted)
    monkeypatch.setattr(ZLaurent, "__rmul__", counted)
    got = a * b
    assert calls == []
    for grow, wrow in zip(got.rows, want):
        for g, w in zip(grow, wrow):
            _same(g, w)
