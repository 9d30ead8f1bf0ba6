import random
from fractions import Fraction
from math import inf

import pytest

from opcurve import exactcore
from opcurve.exactcore import (
    DomainError,
    Matrix,
    PrecisionError,
    XSeries,
    ZLaurent,
    char_coefficients,
    rank,
    SELECTION_PRIME,
    rref,
    solve,
    solve_system,
)


def rand_fraction(rng, bound=9):
    return Fraction(rng.randint(-bound, bound), rng.randint(1, bound))


def rand_xseries(rng, prec=6):
    cs = [rand_fraction(rng) for _ in range(rng.randint(0, prec))]
    if rng.random() < 0.5:
        return XSeries(cs)
    return XSeries(cs, prec)


def rand_zlaurent(rng, lo=-4, hi=4):
    cs = {k: rand_fraction(rng) for k in range(lo, hi + 1) if rng.random() < 0.5}
    if rng.random() < 0.5:
        return ZLaurent(cs)
    return ZLaurent(cs, hi)


# -- XSeries ----------------------------------------------------------

def test_xseries_inverse_of_one_plus_x_squared():
    # (1+x)^-2 = sum (-1)^k (k+1) x^k, derived from the binomial series.
    s = (XSeries.one() + XSeries.x()) ** 2
    inv = s.inverse(prec=4)
    assert inv.prec == 4
    expected = [Fraction((-1) ** k * (k + 1)) for k in range(4)]
    assert [inv.coeff(k) for k in range(4)] == expected
    # the inverse actually multiplies back to 1 on the window
    assert s * inv == XSeries.one()


def test_xseries_product_truncates_to_common_window():
    a = XSeries([1, 1], 3)          # 1 + x + O(x^3)
    b = XSeries([1, 0, 2])          # exact 1 + 2x^2
    p = a * b
    assert p.prec == 3
    assert [p.coeff(k) for k in range(3)] == [1, 1, 2]
    with pytest.raises(PrecisionError):
        p.coeff(3)


def test_xseries_exact_zero_factor_gives_exact_zero():
    w = XSeries([1, 2], 4)
    for p in (XSeries.zero() * w, w * XSeries.zero(), 0 * w):
        assert p.exact and p.is_zero()
    # a zero known only on a window keeps the narrower window
    assert (XSeries([], 3) * w).prec == 3
    assert (XSeries([], 5) * w).prec == 4
    assert (XSeries([], 3) * XSeries.one()).prec == 3


def test_xseries_items():
    assert XSeries([1, 0, -2, 0]).items() == [(0, 1), (2, -2)]
    assert XSeries([0, 3, 0, 5, 7], 4).items() == [(1, 3), (3, 5)]
    assert XSeries([0, 0], 3).items() == []
    assert XSeries.zero().items() == []


def test_xseries_items_match_coeff_sampled():
    rng = random.Random(404)
    for _ in range(60):
        s = rand_xseries(rng)
        pairs = s.items()
        assert [k for k, _ in pairs] == sorted({k for k, _ in pairs})
        top = s.degree_bound() + 1 if s.exact else s.prec
        assert pairs == [(k, s.coeff(k)) for k in range(top) if s.coeff(k)]


def test_xseries_equality_on_common_window():
    a = XSeries([1, 2, 3], 3)
    b = XSeries([1, 2, 3, 7], 4)
    assert a == b            # agree through x^2, the common guarantee
    c = XSeries([1, 2, 4], 3)
    assert a != c


def test_xseries_derivative_and_integral():
    s = XSeries([5, 1, 3], 4)
    d = s.derivative()
    assert d.prec == 3
    assert [d.coeff(k) for k in range(3)] == [1, 6, 0]
    back = d.integral()
    assert back.prec == 4
    assert back.coeff(0) == 0
    assert [back.coeff(k) for k in (1, 2)] == [1, 3]
    x = XSeries.x()
    assert x.derivative() == XSeries.one()
    assert x.derivative().exact


def test_xseries_derivative_window_underflow():
    s = XSeries([3], 1)
    with pytest.raises(PrecisionError):
        s.derivative()
    with pytest.raises(PrecisionError):
        XSeries([1, 2, 3], 3).derivative(3)


def test_xseries_higher_derivative_is_repeated_derivative():
    rng = random.Random(4242)
    for _ in range(40):
        s = rand_xseries(rng, prec=7)
        step = s
        for j in range(8):
            if s.prec is not None and s.prec <= j:
                with pytest.raises(PrecisionError):
                    s.derivative(j)
                break
            d = s.derivative(j)
            # same coefficients and the same window prec(s) - j
            assert d.prec == step.prec and d.items() == step.items()
            if step.prec is not None and step.prec <= 1:
                break
            step = step.derivative()
    assert XSeries([1, 1, 1, 1]).derivative(4).exact
    assert XSeries([1, 1, 1, 1]).derivative(4).is_zero()
    assert XSeries([7, 1], 5).derivative(0).items() == [(0, 7), (1, 1)]


def test_series_text_forms():
    s = XSeries([0, -1, Fraction(1, 2), 0, -3, 1], 6)
    assert repr(s) == "XSeries(-x + 1/2*x^2 - 3*x^4 + x^5 + O(x^6))"
    assert repr(XSeries([Fraction(-2, 3), 1])) == "XSeries(-2/3 + x)"
    assert repr(XSeries([], 3)) == "XSeries(0 + O(x^3))"
    assert str(XSeries([5])) == "5"
    z = ZLaurent({-2: -1, -1: Fraction(3, 4), 0: -5, 1: 1, 3: -1}, 4)
    assert repr(z) == "ZLaurent(-z^-2 + 3/4*z^-1 - 5 + z - z^3 + O(z^5))"
    assert repr(ZLaurent({})) == "ZLaurent(0)"
    assert str(ZLaurent({1: -1})) == "-z"


def test_xseries_not_a_unit():
    with pytest.raises(DomainError):
        XSeries.x().inverse(prec=4)


def test_xseries_ring_axioms_sampled():
    rng = random.Random(101)
    for _ in range(60):
        a, b, c = (rand_xseries(rng) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert (a * b) * c == a * (b * c)
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c
        assert (a * b).derivative() == a.derivative() * b + a * b.derivative() \
            or min(x.prec or 99 for x in (a, b)) <= 1


# -- ZLaurent ---------------------------------------------------------

def test_zlaurent_pole_order_convention():
    assert ZLaurent.monomial(-3).order() == 3
    assert (ZLaurent.monomial(-3) + ZLaurent.monomial(-1)).order() == 3
    assert ZLaurent.constant(2).order() == 0
    assert ZLaurent.monomial(2).order() == -2


def test_zlaurent_order_of_zero():
    with pytest.raises(DomainError):
        ZLaurent.zero().order()
    with pytest.raises(PrecisionError):
        ZLaurent.zero(prec=5).order()


def test_zlaurent_order_additive_sampled():
    rng = random.Random(202)
    hits = 0
    for _ in range(80):
        a, b = rand_zlaurent(rng), rand_zlaurent(rng)
        try:
            oa, ob = a.order(), b.order()
        except (DomainError, PrecisionError):
            continue
        p = a * b
        if p.known(-oa - ob):
            hits += 1
            assert p.order() == oa + ob
    assert hits > 20


def test_zlaurent_items_and_low_bound():
    exact = ZLaurent({2: 1, -3: Fraction(1, 2), 0: 0, -1: -4})
    assert exact.items() == [(-3, Fraction(1, 2)), (-1, -4), (2, 1)]
    assert exact.low_bound() == -3
    windowed = ZLaurent({-2: 1, 1: 3, 5: 2}, prec=3)
    assert windowed.items() == [(-2, 1), (1, 3)]
    assert windowed.low_bound() == -2
    window_zero = ZLaurent.zero(prec=2)
    assert window_zero.items() == []
    assert window_zero.low_bound() == 3
    assert ZLaurent.zero().items() == []
    assert ZLaurent.zero().low_bound() == inf


def test_zlaurent_items_match_coeff_sampled():
    rng = random.Random(405)
    for _ in range(60):
        a = rand_zlaurent(rng)
        pairs = a.items()
        assert [k for k, _ in pairs] == a.support()
        assert all(c != 0 and a.coeff(k) == c for k, c in pairs)
        if pairs:
            assert a.low_bound() == a.valuation() == pairs[0][0]


def test_zlaurent_mul_window_rule():
    a = ZLaurent({-2: 1}, prec=3)    # z^-2 known through z^3
    b = ZLaurent({1: 1}, prec=5)     # z known through z^5
    p = a * b
    # unknown tail of a (above z^3) times z gives unknowns above z^4;
    # unknown tail of b times z^-2 gives unknowns above z^3.
    assert p.prec == 3
    assert p.coeff(-1) == 1


def test_zlaurent_inverse_window():
    # 1/(z^-1 + 1) = z * 1/(1 + z) = z - z^2 + z^3 - ...
    a = ZLaurent({-1: 1, 0: 1})
    inv = a.inverse(prec=5)
    assert [inv.coeff(k) for k in range(1, 6)] == [1, -1, 1, -1, 1]
    assert a * inv == ZLaurent.one()
    # monomial inverse stays exact
    m = ZLaurent.monomial(-4, Fraction(2, 3)).inverse()
    assert m.exact and m.coeff(4) == Fraction(3, 2)


def test_zlaurent_inverse_of_truncated():
    a = ZLaurent({-1: 1, 0: 1}, prec=4)
    inv = a.inverse()
    assert inv.prec == 4 - 2 * (-1)  # window top P - 2v
    assert a * inv == ZLaurent.one()


def test_zlaurent_ring_axioms_sampled():
    rng = random.Random(303)
    for _ in range(60):
        a, b, c = (rand_zlaurent(rng) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c


def test_zlaurent_derivative():
    a = ZLaurent({-2: 3, 0: 1, 2: 5})
    d = a.derivative_z()
    assert d == ZLaurent({-3: -6, 1: 10})


# -- matrices and characteristic data ---------------------------------

def z(k, c=1):
    return ZLaurent.monomial(k, c)


def test_char_coefficients_diagonal():
    m = Matrix([[z(-1), ZLaurent.zero()], [ZLaurent.zero(), z(-2)]])
    c1, c2 = char_coefficients(m)
    assert c1 == z(-1) + z(-2)
    assert c2 == z(-3)


def test_char_coefficients_offdiagonal_root():
    j = Matrix([[ZLaurent.zero(), ZLaurent.one()], [z(-1), ZLaurent.zero()]])
    c1, c2 = char_coefficients(j)
    assert c1 == ZLaurent.zero()
    assert c2 == z(-1, -1)
    # j squares to z^-1 * I
    assert j * j == Matrix([[z(-1), ZLaurent.zero()], [ZLaurent.zero(), z(-1)]])


def test_char_coefficients_match_elementary_symmetric():
    # for a diagonal matrix the coefficients are the elementary symmetric
    # functions of the diagonal; conjugation must not change them.
    rng = random.Random(404)
    for _ in range(20):
        d = [rand_fraction(rng) for _ in range(3)]
        zero, one = ZLaurent.zero(), ZLaurent.one()
        m = Matrix([[ZLaurent.constant(d[i]) if i == j else zero
                     for j in range(3)] for i in range(3)])
        c1, c2, c3 = char_coefficients(m)
        e1 = d[0] + d[1] + d[2]
        e2 = d[0] * d[1] + d[0] * d[2] + d[1] * d[2]
        e3 = d[0] * d[1] * d[2]
        assert c1 == ZLaurent.constant(e1)
        assert c2 == ZLaurent.constant(e2)
        assert c3 == ZLaurent.constant(e3)


def test_char_coefficients_conjugation_invariant():
    rng = random.Random(505)
    for _ in range(10):
        m = Matrix([[rand_zlaurent(rng, -2, 2).truncate(6) for _ in range(2)]
                    for _ in range(2)])
        # conjugate by an exact unimodular constant matrix
        a, b = rng.randint(-3, 3), rng.randint(-3, 3)
        g = Matrix([[ZLaurent.one(), ZLaurent.constant(a)],
                    [ZLaurent.constant(b), ZLaurent.constant(a * b + 1)]])
        ginv = Matrix([[ZLaurent.constant(a * b + 1), ZLaurent.constant(-a)],
                       [ZLaurent.constant(-b), ZLaurent.one()]])
        assert g * ginv == Matrix.identity(2, ZLaurent.one())
        lhs = char_coefficients(g * m * ginv)
        rhs = char_coefficients(m)
        assert all(x == y for x, y in zip(lhs, rhs))


def test_cayley_hamilton_2x2_sampled():
    rng = random.Random(606)
    for _ in range(10):
        m = Matrix([[rand_zlaurent(rng, 0, 3) for _ in range(2)] for _ in range(2)])
        c1, c2 = char_coefficients(m)
        ident = Matrix.identity(2, ZLaurent.one())
        chm = m * m - m.map(lambda e: c1 * e) + ident.map(lambda e: c2 * e)
        assert chm.is_zero()


# -- rational linear algebra ------------------------------------------

def test_rref_and_rank():
    a = [[1, 2, 3], [2, 4, 6], [1, 0, 1]]
    r, pivots = rref(a)
    assert pivots == [0, 1]
    assert rank(a) == 2


def test_solve_consistent_and_inconsistent():
    a = [[1, 1], [1, -1]]
    x = solve(a, [3, 1])
    assert x == [2, 1]
    assert solve([[1, 1], [2, 2]], [1, 3]) is None
    # underdetermined systems pick the free-variables-zero answer
    assert solve([[1, 1]], [5]) == [5, 0]


# -- the row-selected certified solve ------------------------------------

def _counting_rref(monkeypatch):
    sizes = []

    def counted(rows):
        sizes.append(len(rows))
        return rref(rows)

    monkeypatch.setattr(exactcore, "rref", counted)
    return sizes


def _system(rng, nrows, ncols, nrhs):
    x = [[rand_fraction(rng) for _ in range(nrhs)] for _ in range(ncols)]
    a = [[rand_fraction(rng) for _ in range(ncols)] for _ in range(nrows)]
    b = [[sum(row[j] * x[j][i] for j in range(ncols)) for i in range(nrhs)]
         for row in a]
    return a, b, x


def test_solve_system_solves_only_a_square_system(monkeypatch):
    sizes = _counting_rref(monkeypatch)
    a, b, x = _system(random.Random(77), 12, 4, 2)
    assert solve_system(a, b) == (x, 4)
    assert sizes == [4]


def test_solve_system_inconsistent_by_residual(monkeypatch):
    sizes = _counting_rref(monkeypatch)
    a, b, _ = _system(random.Random(78), 12, 4, 2)
    b[9][1] += 1
    assert solve_system(a, b) == (None, 4)
    assert sizes == [4]
    # a row with a zero left-hand side is never picked, only checked
    a, b, _ = _system(random.Random(79), 6, 3, 1)
    assert solve_system(a + [[0, 0, 0]], b + [[Fraction(1, 3)]]) == (None, 3)


def test_solve_system_eliminates_rank_deficient_systems_whole(monkeypatch):
    sizes = _counting_rref(monkeypatch)
    a = [[1, 2, 3], [2, 4, 6], [1, 0, 1], [0, 2, 2]]
    # consistent: the free unknown is zero
    assert solve_system(a, [[6], [12], [2], [4]]) == ([[2], [2], [0]], 2)
    assert solve_system(a, [[6], [11], [2], [4]]) == (None, 2)
    assert sizes == [4, 4]


def test_solve_system_decides_an_unlucky_prime():
    # independent over the rationals, dependent modulo the prime: the
    # whole-system elimination finds the unique solution
    a = [[1, 0], [0, SELECTION_PRIME], [1, SELECTION_PRIME]]
    b = [[Fraction(1, 2)], [SELECTION_PRIME],
         [Fraction(1, 2) + SELECTION_PRIME]]
    assert solve_system(a, b) == ([[Fraction(1, 2)], [1]], 2)
    assert rank(a) == 2


def test_solve_system_agrees_with_rref_sampled():
    rng = random.Random(80)
    decided = 0
    for _ in range(60):
        nrows, ncols = rng.randint(1, 6), rng.randint(1, 4)
        a = [[rng.choice([0, 0, 1, -2, Fraction(1, 3)]) for _ in range(ncols)]
             for _ in range(nrows)]
        b = [[rng.randint(-2, 2), rng.randint(-2, 2)] for _ in range(nrows)]
        red, pivots = rref([row + rhs for row, rhs in zip(a, b)])
        x, rk = solve_system(a, b)
        assert rk == rank(a)
        if any(p >= ncols for p in pivots):
            assert x is None
        else:
            want = [[0, 0] for _ in range(ncols)]
            for r, pc in enumerate(pivots):
                want[pc] = red[r][ncols:]
            assert x == want
            decided += rk == ncols
    assert decided > 5
