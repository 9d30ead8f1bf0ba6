import random
from fractions import Fraction
from math import comb

import pytest

from opcurve import psidocalc
from opcurve.exactcore import (
    DomainError,
    Matrix,
    PrecisionError,
    XSeries,
    ZLaurent,
)
from opcurve.psidocalc import (
    MatrixPsiDO,
    binom,
    commutator,
    compose,
    divide_dressing,
    invert_dressing,
    is_dressing,
    order_and_monicity,
    rth_root,
)
from opcurve.sato import point_from_dressing, to_laurent


# -- an independent oracle for differential-operator composition ------
#
# Scalar operators with nonnegative degrees only, coefficients as plain
# lists of Fractions truncated at NX terms.  No code shared with the
# library: composition is the classical finite Leibniz sum.

NX = 16


def oser(coeffs):
    out = [Fraction(c) for c in coeffs][:NX]
    return out + [Fraction(0)] * (NX - len(out))


def oadd(a, b):
    return [x + y for x, y in zip(a, b)]


def oscale(c, a):
    return [Fraction(c) * x for x in a]


def omul(a, b):
    out = [Fraction(0)] * NX
    for i in range(NX):
        if a[i] == 0:
            continue
        for j in range(NX - i):
            out[i + j] += a[i] * b[j]
    return out


def oder(a):
    return [Fraction(k) * a[k] for k in range(1, NX)] + [Fraction(0)]


def ocompose(p, q):
    out = {}
    for m, am in p.items():
        for k, bk in q.items():
            bj = bk
            for j in range(m + 1):
                deg = m + k - j
                term = oscale(comb(m, j), omul(am, bj))
                out[deg] = oadd(out.get(deg, [Fraction(0)] * NX), term)
                bj = oder(bj)
    return out


def inv_one_plus_x_sq():
    # (1+x)^-2 = sum (-1)^k (k+1) x^k
    return [Fraction((-1) ** k * (k + 1)) for k in range(NX)]


def inv_one_plus_x_cube():
    # (1+x)^-3 = sum (-1)^k (k+1)(k+2)/2 x^k
    return [Fraction((-1) ** k * (k + 1) * (k + 2), 2) for k in range(NX)]


def cusp_pair_oracle():
    p = {2: oser([1]), 0: oscale(-2, inv_one_plus_x_sq())}
    q = {3: oser([1]),
         1: oscale(-3, inv_one_plus_x_sq()),
         0: oscale(3, inv_one_plus_x_cube())}
    return p, q


def cusp_pair(nx=12):
    u = (XSeries.one() + XSeries.x()).inverse(prec=nx + 4)
    p = MatrixPsiDO.from_scalars({2: XSeries.one(), 0: (u * u).scale(-2)})
    q = MatrixPsiDO.from_scalars({3: XSeries.one(),
                                  1: (u * u).scale(-3),
                                  0: (u * u * u).scale(3)})
    return p, q


def scalar(op, m):
    return op.coeff(m).rows[0][0]


# -- composition ------------------------------------------------------

def test_d_after_x_is_x_d_plus_one():
    d = MatrixPsiDO.d()
    x = MatrixPsiDO.from_xseries(XSeries.x())
    prod = d * x
    assert prod.exact
    assert scalar(prod, 1) == XSeries.x()
    assert scalar(prod, 0) == XSeries.one()
    assert prod.degrees() == [0, 1]


def test_dinv_after_x_tail():
    # D^-1 o x = x D^-1 - D^-2, an exact finite tail because x has an
    # exactly vanishing second derivative
    dinv = MatrixPsiDO.d(-1)
    x = MatrixPsiDO.from_xseries(XSeries.x())
    prod = dinv * x
    assert prod.exact
    assert scalar(prod, -1) == XSeries.x()
    assert scalar(prod, -2) == XSeries.constant(-1)
    assert prod.degrees() == [-2, -1]
    # recompose: D o (x D^-1 - D^-2) = x
    assert MatrixPsiDO.d() * prod == x


def test_d_dinv_is_identity():
    d = MatrixPsiDO.d()
    dinv = MatrixPsiDO.d(-1)
    assert d * dinv == MatrixPsiDO.identity()
    assert dinv * d == MatrixPsiDO.identity()


def test_cusp_pair_commutes_and_matches_oracle():
    p, q = cusp_pair()
    po, qo = cusp_pair_oracle()
    pq = p * q
    pq_oracle = ocompose(po, qo)
    for m, coeffs in pq_oracle.items():
        lib = scalar(pq, m)
        for k in range(lib.prec if lib.prec is not None else 12):
            assert lib.coeff(k) == coeffs[k], (m, k)
    assert commutator(p, q).is_zero()


def test_cusp_relation_q_squared_is_p_cubed():
    p, q = cusp_pair()
    assert q * q == p * p * p
    # and the oracle agrees degree by degree
    po, qo = cusp_pair_oracle()
    qq = ocompose(qo, qo)
    ppp = ocompose(po, ocompose(po, po))
    for m in set(qq) | set(ppp):
        a = qq.get(m, [Fraction(0)] * NX)
        b = ppp.get(m, [Fraction(0)] * NX)
        assert a[:10] == b[:10], m


def test_compose_associative_sampled():
    rng = random.Random(707)
    for _ in range(25):
        ops = []
        for _ in range(3):
            terms = {}
            for m in range(-2, 3):
                if rng.random() < 0.5:
                    cs = [Fraction(rng.randint(-4, 4)) for _ in range(rng.randint(1, 4))]
                    terms[m] = XSeries(cs) if rng.random() < 0.5 else XSeries(cs, 6)
            if not terms:
                terms[0] = XSeries.one()
            ops.append(MatrixPsiDO.from_scalars(terms, -2 if rng.random() < 0.5 else None))
        a, b, c = ops
        assert (a * b) * c == a * (b * c)


def test_compose_matrix_noncommutative():
    zero, one = XSeries.zero(), XSeries.one()
    a = MatrixPsiDO(2, {1: Matrix([[one, zero], [zero, zero]])})
    b = MatrixPsiDO(2, {0: Matrix([[zero, one], [zero, zero]])})
    assert not commutator(a, b).is_zero()


def test_compose_window_floor_rule():
    # truncated windows: floor = max(lo(P) + order(Q), order(P) + lo(Q))
    p = MatrixPsiDO.from_scalars({2: XSeries.one(), -1: XSeries.x()}, lo=-1)
    q = MatrixPsiDO.from_scalars({1: XSeries.x(), -2: XSeries.one()}, lo=-2)
    prod = p * q
    assert prod.lo == max(-1 + 1, 2 + -2)
    # wider-window recomputation agrees on the common window
    p_wide = MatrixPsiDO.from_scalars({2: XSeries.one(), -1: XSeries.x()})
    q_wide = MatrixPsiDO.from_scalars({1: XSeries.x(), -2: XSeries.one()})
    assert p_wide * q_wide == prod


def test_compose_precision_poisoning():
    # D^-1 composed with a series known to x^3 cannot certify degrees
    # below -3: the fourth Leibniz term needs an unknown derivative
    s = XSeries([1, 1, 1], 3)
    prod = MatrixPsiDO.d(-1) * MatrixPsiDO.from_xseries(s)
    assert prod.lo == -3
    assert set(prod.degrees()) <= {-1, -2, -3}


def test_compose_of_exact_operators_skips_vanishing_derivatives(monkeypatch):
    # the derivative orders j >= 1 of the (b, j) parts that the Leibniz
    # sums hand to the kernel
    calls = []
    real = psidocalc.leibniz_sum

    def counted(n, groups):
        calls.extend(j for _, parts in groups for _, j, _ in parts if j)
        return real(n, groups)

    monkeypatch.setattr(psidocalc, "leibniz_sum", counted)
    # D^3 o (x^2 + D): only the first and second derivatives of x^2 are
    # nonzero; the constant 1 and the third derivative of x^2 vanish
    # exactly and are never computed
    p = MatrixPsiDO.d(3)
    q = MatrixPsiDO.from_scalars({0: XSeries([0, 0, 1]), 1: 1})
    prod = p * q
    assert sorted(calls) == [1, 2]
    assert prod == MatrixPsiDO.from_scalars(
        {4: 1, 3: XSeries([0, 0, 1]), 2: XSeries([0, 6]), 1: 6})
    # constant coefficients: no derivative at all
    calls.clear()
    dp1 = MatrixPsiDO.from_scalars({1: 1, 0: 1})
    prod = dp1 ** 12
    assert calls == []
    assert prod == MatrixPsiDO.from_scalars({k: comb(12, k)
                                             for k in range(13)})
    # a windowed coefficient still has every derivative taken
    calls.clear()
    MatrixPsiDO.d(2) * MatrixPsiDO.from_xseries(XSeries([1], 3))
    assert sorted(calls) == [1, 2]


def test_binom_negative():
    assert binom(-1, 0) == 1
    assert binom(-1, 1) == -1
    assert binom(-1, 2) == 1
    assert binom(-2, 3) == -4
    assert binom(3, 2) == 3
    assert binom(3, 5) == 0


# -- split, order, monicity -------------------------------------------

def test_split_plus_minus():
    p = MatrixPsiDO.from_scalars({2: XSeries.one(), 0: XSeries.x(),
                                  -1: XSeries.constant(5)})
    plus, minus = p.split()
    assert plus.degrees() == [0, 2]
    assert minus.degrees() == [-1]
    assert plus + minus == p
    assert plus.is_differential_shape()
    assert plus.exact  # absent negative degrees are exact zeros here


def test_order_and_monicity():
    p, q = cusp_pair()
    assert order_and_monicity(p) == (2, True)
    assert order_and_monicity(q) == (3, True)
    r = MatrixPsiDO.from_scalars({2: XSeries.constant(3)})
    assert order_and_monicity(r) == (2, False)
    with pytest.raises(DomainError):
        order_and_monicity(MatrixPsiDO(1, {}))


# -- the constant-coefficient projection ------------------------------

def test_projection_of_x_d():
    # x D right-normalizes to D x - 1, so the projection is -1
    p = MatrixPsiDO.from_scalars({1: XSeries.x()})
    img = to_laurent(p)
    assert img.rows[0][0] == ZLaurent.constant(-1)


def test_projection_of_x2_d2():
    # x^2 D^2 = D^2 x^2 - 4 D x + 2 in right-normal form
    p = MatrixPsiDO.from_scalars({2: XSeries([0, 0, 1])})
    img = to_laurent(p)
    assert img.rows[0][0] == ZLaurent.constant(2)


def test_projection_of_powers():
    for m in (-3, -1, 0, 2):
        img = to_laurent(MatrixPsiDO.d(m))
        assert img.rows[0][0] == ZLaurent.monomial(-m)


def test_laurent_embedding_round_trip():
    j = Matrix([[ZLaurent.zero(), ZLaurent.one()],
                [ZLaurent.monomial(-1), ZLaurent.zero()]])
    op = MatrixPsiDO.from_laurent(j)
    assert op.degrees() == [0, 1]
    back = to_laurent(op)
    assert back == j
    # J^2 = z^-1 I becomes (embedded J)^2 = D * I
    sq = op * op
    assert sq == MatrixPsiDO.d(1, 2)


def test_projection_window_caps():
    # a truncated coefficient caps the guaranteed z-exponents
    p = MatrixPsiDO.from_scalars({-1: XSeries([1, 1], 2)})
    img = to_laurent(p).rows[0][0]
    assert img.prec == 1 + 2 - 1  # -m + prec - 1
    assert img.coeff(1) == 1
    assert img.coeff(2) == -1 * -1  # (-1)^1 * falling(-1,1) * 1 = 1


# -- dressing operators -----------------------------------------------

def test_invert_simple_dressing():
    s = MatrixPsiDO.from_scalars({0: XSeries.one(), -1: XSeries.one()})
    t = invert_dressing(s, depth=5)
    # 1/(1 + D^-1) = 1 - D^-1 + D^-2 - ...
    for d in range(1, 6):
        assert scalar(t, -d) == XSeries.constant((-1) ** d)
    assert (s * t) == MatrixPsiDO.identity()
    assert (t * s) == MatrixPsiDO.identity()


def test_invert_identity_is_exact():
    t = invert_dressing(MatrixPsiDO.identity(2), depth=4)
    assert t.exact
    assert t == MatrixPsiDO.identity(2)


@pytest.mark.parametrize("deg,coeff,depth", [
    (-1, XSeries.x(), 0),
    (-2, XSeries.one(), 1),
    (-3, XSeries.one(), 2),
])
def test_invert_truncated_before_first_term_is_not_exact(deg, coeff, depth):
    # every computed t_d is zero, but the inverse of S != I has terms
    # below the window, so the result must carry the window
    s = MatrixPsiDO.from_scalars({0: XSeries.one(), deg: coeff})
    t = invert_dressing(s, depth=depth)
    assert not t.exact
    assert t.lo == -depth
    assert t.degrees() == [0]


def test_invert_keeps_the_window_of_s0():
    # s_0 = 1 + O(x^3) is the identity only below x^3, so is its inverse
    s = MatrixPsiDO(1, {0: Matrix([[XSeries([1], 3)]])})
    t = invert_dressing(s)
    assert t.lo is None and t.degrees() == [0]
    assert repr(scalar(t, 0)) == "XSeries(1 + O(x^3))"


def test_right_division_by_a_windowed_s0_is_not_exact_in_degree():
    # in X o S = D with S = 1 + O(x^2), x_0 = -x_1 s_0' is zero only below
    # x^1: the derivative of s_0 reaches the degree below, so X is not
    # D (1 + O(x^2)) alone, as it is on the left
    s = MatrixPsiDO(1, {0: Matrix([[XSeries([1], 2)]])})
    x = divide_dressing(s, MatrixPsiDO.d(1), 3, right=True)
    assert x.lo == -2
    assert repr(scalar(x, 1)) == "XSeries(1 + O(x^2))"
    assert repr(scalar(x, 0)) == "XSeries(0 + O(x^1))"
    assert scalar(x, -1).exact and scalar(x, -1).is_zero()
    left = divide_dressing(s, MatrixPsiDO.d(1), 3)
    assert left.lo is None and left.degrees() == [1]


def _series_inverse_2x2(m, prec):
    (a, b), (c, d) = m.rows
    idet = (a * d - b * c).inverse(prec)
    return Matrix([[d * idet, -b * idet], [-c * idet, a * idet]])


@pytest.mark.parametrize("n", [1, 2])
def test_invert_with_windowed_s0_claims_only_the_true_inverse(n):
    # S has s_0 = I + E with E_ij a multiple of x^(p_ij); the operator seen
    # knows s_0 only below those windows.  Its inverse must agree with the
    # true one, (u S)^-1 u for u = s_0^-1, on every coefficient it claims.
    rng = random.Random(4242 + n)
    deep = 30
    for _ in range(10):
        windows = [[rng.randint(1, 5) for _ in range(n)] for _ in range(n)]
        # t_-3 needs two derivatives of t_0, t_-1 none
        depth = 3 if min(min(w) for w in windows) >= 3 else 1
        s0 = Matrix([[XSeries([int(i == j)] + [0] * (windows[i][j] - 1)
                              + [rng.randint(-3, 3) or 1, rng.randint(-3, 3)])
                      for j in range(n)] for i in range(n)])
        lower = {m: Matrix([[XSeries([Fraction(rng.randint(-3, 3), 2)
                                      for _ in range(3)])
                             for _ in range(n)] for _ in range(n)])
                 for m in (-1, -2)}
        seen = MatrixPsiDO(n, {0: Matrix([[s0.rows[i][j].truncate(
            windows[i][j]) for j in range(n)] for i in range(n)]), **lower})
        t = invert_dressing(seen, depth=depth)
        u0 = (Matrix([[s0.rows[0][0].inverse(deep)]]) if n == 1
              else _series_inverse_2x2(s0, deep))
        u = MatrixPsiDO(n, {0: u0})
        truth = invert_dressing(u * MatrixPsiDO(n, {0: s0, **lower}),
                                depth=depth) * u
        assert t.xprec() <= min(min(w) for w in windows)
        assert t == truth


def test_invert_dressing_round_trip_sampled():
    rng = random.Random(808)
    for _ in range(8):
        n = rng.choice([1, 2])
        one = XSeries.one()
        terms = {0: Matrix.identity(n, one)}
        for m in (-1, -2, -3):
            rows = [[XSeries([Fraction(rng.randint(-3, 3)) for _ in range(4)])
                     for _ in range(n)] for _ in range(n)]
            terms[m] = Matrix(rows)
        s = MatrixPsiDO(n, terms)
        t = invert_dressing(s, depth=6)
        ident = MatrixPsiDO.identity(n)
        assert s * t == ident
        assert t * s == ident


def test_is_dressing():
    assert is_dressing(MatrixPsiDO.identity(3))
    s = MatrixPsiDO.from_scalars({0: XSeries.one(), -2: XSeries.x()})
    assert is_dressing(s)
    assert not is_dressing(MatrixPsiDO.d())
    assert not is_dressing(MatrixPsiDO.from_scalars({0: XSeries.x()}))


def test_invert_non_dressing_rejected():
    with pytest.raises(DomainError):
        invert_dressing(MatrixPsiDO.d())


def test_window_zero_positive_degree_is_not_a_dressing():
    # S = O(x^2) D + 1 + D^-1: the completion s_1 = 5x^2 puts 5x^2 D^2
    # into S o X, so no x-exact X with S o X = D follows from S
    s = MatrixPsiDO.from_scalars({1: XSeries([], 2), 0: 1, -1: 1})
    assert not is_dressing(s)
    with pytest.raises(DomainError):
        divide_dressing(s, MatrixPsiDO.d(1), 3)
    with pytest.raises(DomainError):
        divide_dressing(s, MatrixPsiDO.d(1), 3, right=True)
    with pytest.raises(DomainError):
        invert_dressing(s, depth=3)
    with pytest.raises(DomainError):
        point_from_dressing(s)


# -- roots ------------------------------------------------------------

def test_root_of_d_squared_is_exact():
    r = rth_root(MatrixPsiDO.d(2), 2)
    assert r.exact
    assert r == MatrixPsiDO.d()


def test_square_root_of_cusp_operator():
    p, _ = cusp_pair()
    r = rth_root(p, 2, depth=6)
    assert order_and_monicity(r) == (1, True)
    sq = r * r
    assert sq == p
    # frozen leading tail: P^(1/2) = D - (x+1)^-2 D^-1 + ...
    u2 = ((XSeries.one() + XSeries.x()).inverse(prec=8)) ** 2
    assert scalar(r, -1) == u2.scale(-1)


def test_cube_root_times_square_relation():
    # R = Q^(1/3) for the cusp Q satisfies R^2 = P^(1/2)^... sanity via
    # commutation instead: R commutes with P to the computed window
    p, q = cusp_pair()
    r = rth_root(q, 3, depth=5)
    assert (r * r * r) == q


def test_root_requires_monic_of_matching_order():
    with pytest.raises(DomainError):
        rth_root(MatrixPsiDO.d(2), 3)
    with pytest.raises(DomainError):
        rth_root(MatrixPsiDO.from_scalars({2: XSeries.constant(4)}), 2)


@pytest.mark.parametrize("r", [0, -1])
def test_root_order_below_one_is_a_domain_error(r):
    # I is monic of order 0, so r = 0 passes the order check
    for p in (MatrixPsiDO.identity(), MatrixPsiDO.d(2)):
        with pytest.raises(DomainError, match=f"root order must be at "
                           f"least 1, got {r}"):
            rth_root(p, r)


# The root loop that rth_root replaced, kept as an oracle: it recomputed
# P - R^r in full at every step and read the next correction off it.

def power_loop_root(p, r, depth):
    rr, monic = order_and_monicity(p)
    if rr != r or not monic:
        raise DomainError(f"need a monic operator of order exactly {r}")
    n = p.n
    root = MatrixPsiDO.d(1, n)
    steps = 0
    while steps < depth:
        diff = p - root ** r
        if diff.exact and not diff.terms:
            return root
        deg = r - 1 - steps
        if diff.lo is not None and deg < diff.lo:
            break
        c = diff.coeff(deg).map(lambda e: e.scale(Fraction(1, r)))
        root = root + MatrixPsiDO(n, {-steps: c})
        steps += 1
    return MatrixPsiDO(n, root.terms, 1 - steps)


def _outcome(fn):
    try:
        out = fn()
    except (DomainError, PrecisionError) as err:
        return type(err).__name__, str(err)
    windows = {m: [[e.prec for e in row] for row in mat.rows]
               for m, mat in out.terms.items()}
    return repr(out), out.lo, windows


def _rand_entry(rng, windowed):
    cs = [Fraction(rng.randint(-4, 4), rng.randint(1, 3))
          for _ in range(rng.randint(0, 3))]
    if windowed and rng.random() < 0.5:
        return XSeries(cs, rng.randint(1, 8))
    return XSeries(cs)


def _rand_monic(rng, r, n):
    windowed = rng.random() < 0.6
    ident = Matrix.identity(n, XSeries.one())
    terms = {r: ident}
    for m in range(r):
        if rng.random() < (0.3 if m == r - 1 else 0.7):
            terms[m] = Matrix([[_rand_entry(rng, windowed) for _ in range(n)]
                               for _ in range(n)])
    if rng.random() < 0.2:
        terms[-1] = Matrix([[_rand_entry(rng, windowed) for _ in range(n)]
                            for _ in range(n)])
    if rng.random() < 0.15:
        # an exact r-th power, whose root the loop finds exactly
        a = Matrix([[_rand_entry(rng, False) for _ in range(n)]
                    for _ in range(n)])
        return (MatrixPsiDO.d(1, n) + MatrixPsiDO(n, {0: a})) ** r
    lo = rng.choice([None, None, r - 1 - rng.randint(0, 5)])
    return MatrixPsiDO(n, terms, lo)


def test_root_matches_power_loop_sampled():
    rng = random.Random(7070)
    kinds = set()
    for _ in range(60):
        r = rng.choice([2, 3, 4])
        n = rng.choice([1, 1, 2])
        p = _rand_monic(rng, r, n)
        depth = rng.randint(0, 7)
        got = _outcome(lambda: rth_root(p, r, depth=depth))
        want = _outcome(lambda: power_loop_root(p, r, depth))
        assert got == want
        kinds.add((r, "exact" if got[1] is None else
                   "full" if got[1] == 1 - depth else "cut"))
        # and the same error text for an order that does not match
        assert (_outcome(lambda: rth_root(p, r + 1, depth=depth))
                == _outcome(lambda: power_loop_root(p, r + 1, depth)))
    # exact roots, full-depth roots and roots cut short by a window, for
    # each r; r = 4 is where R^r is squared in the loop but chained here
    assert kinds == {(r, kind) for r in (2, 3, 4)
                     for kind in ("exact", "full", "cut")}


# -- dividing by a dressing -------------------------------------------

def _windowed_identity(rng, n):
    # s_0 = I on windows of 1 to 6 x-terms, or exactly I
    if rng.random() < 0.5:
        return Matrix.identity(n, XSeries.one()), False
    return Matrix([[XSeries([int(i == j)], rng.randint(1, 6))
                    for j in range(n)] for i in range(n)]), True


def _rand_operator(rng, n, degs, windowed):
    return {m: Matrix([[_rand_entry(rng, windowed) for _ in range(n)]
                       for _ in range(n)]) for m in degs}


def test_divide_dressing_matches_compose_with_the_inverse():
    # S o X = A solved degree by degree must give S^-1 o A, with S^-1
    # inverted at the same depth, on every entry, window and degree floor;
    # X o S = A must give A o S^-1 wherever S and A are exact in x.  On
    # x-windows the right division may stop at another floor, because its
    # derivatives fall on S instead of S^-1: the soundness harness of
    # test_module_action_reference.py checks those claims
    rng = random.Random(1414)
    seen = set()
    compared = 0
    right_seen = set()
    for _ in range(1500):
        n = rng.choice([1, 2])
        windowed = rng.random() < 0.6
        s0, s0_windowed = _windowed_identity(rng, n)
        s_terms = _rand_operator(rng, n, rng.sample(range(-4, 0),
                                                    rng.randint(0, 3)),
                                 windowed)
        s_terms[0] = s0
        s = MatrixPsiDO(n, s_terms, rng.choice([None, -rng.randint(0, 5)]))
        degs = rng.sample(range(-3, 4), rng.randint(0, 3))
        a = MatrixPsiDO(n, _rand_operator(rng, n, degs, windowed),
                        rng.choice([None, min(degs, default=0)
                                    - rng.randint(0, 2)]))
        depth = rng.randint(0, 6)
        try:
            t = invert_dressing(s, depth=depth)
        except PrecisionError:
            continue
        assert (_outcome(lambda: divide_dressing(s, a, depth))
                == _outcome(lambda: compose(t, a)))
        compared += 1
        seen.add((n, windowed, s0_windowed, s.lo is None, a.lo is None))
        if not windowed and not s0_windowed:
            assert (_outcome(lambda: divide_dressing(s, a, depth, right=True))
                    == _outcome(lambda: compose(a, t)))
            right_seen.add((n, s.lo is None, a.lo is None, min(s.terms) < 0))
    assert compared >= 1000
    assert len(seen) == 32
    assert len(right_seen) == 16
