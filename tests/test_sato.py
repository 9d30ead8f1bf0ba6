import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

from opcurve.exactcore import (
    DomainError,
    ExactError,
    Matrix,
    PrecisionError,
    XSeries,
    ZLaurent,
    min_prec,
    rref,
)
from opcurve.psidocalc import MatrixPsiDO, dress_to_constant, invert_dressing
from opcurve.sato import (
    GrassPoint,
    basis_column,
    dressing_from_point,
    is_differential_by_action,
    laurent_action,
    module_action,
    point_from_dressing,
    points_equal,
    stabilizes,
    to_laurent,
    x_action,
)

GOLDEN = Path(__file__).parent / "golden"


def zmono(k, c=1):
    return ZLaurent.monomial(k, c)


def col1(*series):
    return tuple(series)


def rand_xseries(rng, deg=3):
    return XSeries([Fraction(rng.randint(-3, 3)) for _ in range(deg)])


def rand_op(rng, n=1, lo=-2, hi=2):
    terms = {}
    for m in range(lo, hi + 1):
        if rng.random() < 0.6:
            terms[m] = Matrix([[rand_xseries(rng) for _ in range(n)]
                               for _ in range(n)])
    if not terms:
        terms[0] = Matrix.identity(n, XSeries.one())
    return MatrixPsiDO(n, terms)


def rand_vec(rng, n=1):
    out = []
    for _ in range(n):
        coeffs = {k: Fraction(rng.randint(-3, 3)) for k in range(-2, 3)
                  if rng.random() < 0.5}
        out.append(ZLaurent(coeffs))
    return tuple(out)


# -- the module action -------------------------------------------------

def test_d_shifts_exponent():
    out = module_action(MatrixPsiDO.d(), (zmono(4),))
    assert out[0] == zmono(3)
    out = module_action(MatrixPsiDO.d(-2), (zmono(0),))
    assert out[0] == zmono(2)


def test_x_action_is_rising_degree():
    # x z^q = q z^(q+1)
    for q in (-3, -1, 0, 2):
        out = x_action((zmono(q),))
        assert out[0] == zmono(q + 1, q)
    op = MatrixPsiDO.from_xseries(XSeries.x())
    v = (ZLaurent({-2: 3, 1: 5}),)
    assert module_action(op, v) == x_action(v)


def test_action_agrees_with_projection_on_standard_columns():
    rng = random.Random(909)
    for _ in range(30):
        n = rng.choice([1, 2])
        op = rand_op(rng, n)
        img = to_laurent(op)
        for j in range(n):
            out = module_action(op, basis_column(j, n))
            for i in range(n):
                assert out[i] == img.entry(i, j)


def test_action_is_a_module_action():
    rng = random.Random(1010)
    for _ in range(25):
        n = rng.choice([1, 2])
        p = rand_op(rng, n)
        q = rand_op(rng, n)
        v = rand_vec(rng, n)
        left = module_action(p * q, v)
        right = module_action(p, module_action(q, v))
        for a, b in zip(left, right):
            assert a == b


def test_action_precision_caps():
    # a window-truncated operator cannot certify deep output exponents
    op = MatrixPsiDO.from_scalars({-1: XSeries.one()}, lo=-1)
    out = module_action(op, (zmono(0),))
    assert out[0].coeff(1) == 1
    assert out[0].prec == 1
    # a truncated series coefficient caps through its x-degree window
    op = MatrixPsiDO.from_scalars({0: XSeries([1, 1], 2)})
    out = module_action(op, (zmono(-1),))
    assert out[0].prec == -1 + 2 - 1
    assert out[0].coeff(-1) == 1
    assert out[0].coeff(0) == -1


# -- frames and reports -------------------------------------------------

def hplus(n=1):
    return GrassPoint(n, [], 0)


def cusp_point():
    return GrassPoint(1, [(ZLaurent.one(),)], 2)


def test_fredholm_golden_trivial():
    want = json.loads((GOLDEN / "fredholm_trivial.json").read_text())
    assert hplus().fredholm_report().as_dict() == want


def test_fredholm_golden_cusp():
    want = json.loads((GOLDEN / "fredholm_cusp.json").read_text())
    assert cusp_point().fredholm_report().as_dict() == want


def test_fredholm_golden_line():
    want = json.loads((GOLDEN / "fredholm_line.json").read_text())
    pt = GrassPoint(1, [(zmono(1),)], 0)
    assert pt.fredholm_report().as_dict() == want


def test_fredholm_golden_mixed():
    want = json.loads((GOLDEN / "fredholm_mixed.json").read_text())
    pt = GrassPoint(2, [(ZLaurent.one(), zmono(1))], 2)
    assert pt.fredholm_report().as_dict() == want


def test_degenerate_frame_rejected():
    pt = GrassPoint(1, [(ZLaurent.one(),), (ZLaurent.constant(2),)], 2)
    with pytest.raises(DomainError):
        pt.fredholm_report()


def test_windowed_columns_dependent_on_their_windows_are_not_rejected():
    # 1 + O(z^3) and 2 + O(z^3) agree up to a factor on their windows,
    # but the coordinates above z^2 may make them independent
    pt = GrassPoint(1, [(ZLaurent.one().truncate(2),),
                        (ZLaurent.constant(2, prec=2),)], 2)
    with pytest.raises(PrecisionError):
        pt.fredholm_report()


def test_contains():
    pt = cusp_point()
    assert pt.contains((ZLaurent.constant(7),))
    assert pt.contains((zmono(-2),))
    assert pt.contains((ZLaurent({0: 3, -2: 1, -5: 4}),))
    assert not pt.contains((zmono(-1),))
    assert not pt.contains((ZLaurent({0: 1, 1: 1}),))
    assert hplus(2).contains(basis_column(5, 2))
    assert not hplus(2).contains((zmono(1), ZLaurent.zero()))


def test_points_equal_absorbs_tail_presentation():
    # listing a standard column explicitly does not change the span
    a = cusp_point()
    b = GrassPoint(1, [(ZLaurent.one(),), (zmono(-2),)], 3)
    assert points_equal(a, b)
    assert not points_equal(a, hplus())


# -- stabilizers --------------------------------------------------------

def test_cusp_point_stabilizers():
    pt = cusp_point()
    assert stabilizes(pt, Matrix([[zmono(-2)]]))
    assert stabilizes(pt, Matrix([[zmono(-3)]]))
    assert stabilizes(pt, Matrix([[ZLaurent({-2: 1, -3: 4})]]))
    assert not stabilizes(pt, Matrix([[zmono(-1)]]))


def test_j_matrix_stabilizes_standard_plane():
    j = Matrix([[ZLaurent.zero(), ZLaurent.one()],
                [zmono(-1), ZLaurent.zero()]])
    assert stabilizes(hplus(2), j)
    assert not stabilizes(hplus(2), Matrix([[zmono(1), ZLaurent.zero()],
                                            [ZLaurent.zero(), zmono(1)]]))


def test_differential_by_action_on_standard_span():
    assert is_differential_by_action(MatrixPsiDO.d(), hplus())
    assert is_differential_by_action(
        MatrixPsiDO.from_scalars({2: XSeries.one(), 0: XSeries.x()}), hplus())
    assert not is_differential_by_action(MatrixPsiDO.d(-1), hplus())
    assert not is_differential_by_action(
        MatrixPsiDO.from_scalars({0: XSeries.one(), -1: XSeries.x()}),
        hplus())


def test_shape_and_action_verdicts_agree_through_dressing():
    rng = random.Random(1111)
    hits = 0
    for _ in range(12):
        n = rng.choice([1, 2])
        terms = {0: Matrix.identity(n, XSeries.one())}
        for m in (-1, -2):
            if rng.random() < 0.8:
                terms[m] = Matrix([[rand_xseries(rng, 2) for _ in range(n)]
                                   for _ in range(n)])
        s = MatrixPsiDO(n, terms)
        point = point_from_dressing(s)
        t = invert_dressing(s, depth=8)
        g_entries = [[ZLaurent({k: rng.randint(-2, 2) for k in range(-2, 1)
                                if rng.random() < 0.6})
                      for _ in range(n)] for _ in range(n)]
        g = Matrix(g_entries)
        b = s * MatrixPsiDO.from_laurent(g) * t
        shape = b.split()[1].is_zero()
        action = stabilizes(point, g)
        assert shape == action
        hits += 1
    assert hits == 12


# -- dressing round trips ----------------------------------------------

def test_point_from_unit_depth_dressing():
    s = MatrixPsiDO.from_scalars({0: XSeries.one(), -1: XSeries.one()})
    pt = point_from_dressing(s)
    assert pt.stable_from == 2
    rep = pt.fredholm_report()
    assert (rep.h0, rep.h1, rep.index) == (0, 0, 0)
    # first column is 1 - z + z^2 - ... on its window
    v0 = pt.columns[0][0]
    for k in range(4):
        assert v0.coeff(k) == (-1) ** k
    back = dressing_from_point(pt, depth=1, nx=1)
    assert back == s


def test_identity_recovers_standard_span():
    pt = point_from_dressing(MatrixPsiDO.identity(2))
    assert points_equal(pt, hplus(2))
    back = dressing_from_point(hplus(), depth=2, nx=2)
    assert back == MatrixPsiDO.identity(1)


def test_dressing_round_trip_sampled():
    rng = random.Random(1212)
    for _ in range(6):
        n = rng.choice([1, 2])
        depth = rng.choice([1, 2])
        nx = rng.choice([1, 2, 3])
        terms = {0: Matrix.identity(n, XSeries.one())}
        for m in range(1, depth + 1):
            terms[-m] = Matrix([[rand_xseries(rng, nx) for _ in range(n)]
                                for _ in range(n)])
        s = MatrixPsiDO(n, terms)
        point = point_from_dressing(s)
        back = dressing_from_point(point, depth=depth, nx=nx)
        assert back == s
        assert points_equal(point_from_dressing(back), point)


def test_no_dressing_off_the_big_cell():
    with pytest.raises(DomainError):
        dressing_from_point(cusp_point(), depth=2, nx=2)
    # h1 = 1, but at these shapes no equation sees class 1, so the solve
    # alone finds the identity
    assert cusp_point().fredholm_report().h1 == 1
    for depth, nx in ((1, 1), (1, 2), (2, 1)):
        with pytest.raises(DomainError, match="frame is not in the big "
                           "cell, no dressing exists"):
            dressing_from_point(cusp_point(), depth=depth, nx=nx)


# -- the frame round trip against references built from public pieces ---
#
# point_from_dressing inverts only the x-window the action reads, and
# dressing_from_point builds its rows in closed form and solves them by a
# row-selected exact solve.  The references below do neither: they invert
# the whole dressing, act on the basis columns, build every row from
# x_action, and reduce the full system with rref.

def _reference_point(s):
    n = s.n
    if s.lo is not None:
        depth_s = -s.lo
    else:
        depth_s = max((-m for m in s.terms), default=0)
    nx = max((e.degree_bound() + 1 if e.exact else e.prec
              for mat in s.terms.values() for row in mat.rows for e in row),
             default=0)
    budget = depth_s + nx
    t = invert_dressing(s, depth=2 * budget + 1)
    cols = [module_action(t, basis_column(c, n)) for c in range(n * budget)]
    return cols, n * budget


def _assert_same_columns(point, cols, stable):
    assert point.stable_from == stable
    assert len(point.columns) == len(cols)
    for got, want in zip(point.columns, cols):
        for a, b in zip(got, want):
            assert a.prec == b.prec
            assert a.items() == b.items()
            if a.prec is not None:
                lo = min([0, a.prec] + a.support())
                for k in range(lo, a.prec + 1):
                    assert a.coeff(k) == b.coeff(k)


def _rand_dressing(rng, n, depth, nx, zero_rate=0.0):
    terms = {0: Matrix.identity(n, XSeries.one())}
    for m in range(1, depth + 1):
        terms[-m] = Matrix([[XSeries.zero() if rng.random() < zero_rate
                             else XSeries([Fraction(rng.randint(-9, 9),
                                                    rng.randint(1, 9))
                                           for _ in range(nx)])
                             for _ in range(n)] for _ in range(n)])
    return MatrixPsiDO(n, terms)


def _shifted_cusp(c, xprec):
    u = XSeries([c, 1])
    inv2 = (u * u).inverse(xprec)
    return MatrixPsiDO.from_scalars({2: XSeries.one(), 0: inv2.scale(-2)})


def _exact_dressings():
    rng = random.Random(5151)
    out = [MatrixPsiDO.identity(1), MatrixPsiDO.identity(2)]
    for n, depth, nx in ((1, 1, 3), (1, 3, 2), (2, 1, 2), (2, 2, 2),
                         (3, 1, 2)):
        out.append(_rand_dressing(rng, n, depth, nx))
    # exact-zero entries beside nonzero ones
    for n, depth, nx in ((2, 2, 2), (3, 1, 2)):
        out.append(_rand_dressing(rng, n, depth, nx, zero_rate=0.4))
    return out


def _windowed_dressings():
    return [dress_to_constant(_shifted_cusp(c, xprec), depth=d)
            for c, xprec, d in ((1, 12, 0), (1, 12, 1), (2, 8, 3),
                                (Fraction(1, 2), 12, 5), (3, 10, 6))]


def test_point_from_dressing_matches_full_inverse_exact():
    for s in _exact_dressings():
        cols, stable = _reference_point(s)
        _assert_same_columns(point_from_dressing(s), cols, stable)


def test_point_from_dressing_matches_full_inverse_windowed():
    for s in _windowed_dressings():
        cols, stable = _reference_point(s)
        _assert_same_columns(point_from_dressing(s), cols, stable)


def _reference_dressing(point, depth, nx):
    n = point.n
    if not point.columns and point.stable_from == 0:
        return MatrixPsiDO.identity(n)
    cols = list(point.columns)
    cols += [basis_column(q, n)
             for q in range(point.stable_from, n * (depth + nx))]
    nun = depth * nx * n
    aug = []
    for w in cols:
        acts = []  # acts[(m - 1) * nx + l] is x^l z^m w
        for m in range(1, depth + 1):
            u = tuple(wp * ZLaurent.monomial(m) for wp in w)
            for _ in range(nx):
                acts.append(u)
                u = x_action(u)
        series = list(w) + [up for u in acts for up in u]
        hi = min_prec(series)
        top = max((e for wp in series for e in wp.support() if e >= 1),
                  default=0)
        for e in range(1, top + 1 if hi is None else min(top, hi) + 1):
            row = [u[p].coeff(e) for u in acts for p in range(n)]
            rhs = [-wp.coeff(e) for wp in w]
            if any(row) or any(rhs):
                aug.append(row + rhs)
    if not aug:
        raise DomainError("frame windows leave the dressing "
                          "underdetermined at this depth and x-degree")
    red, pivots = rref(aug)
    if any(p >= nun for p in pivots):
        raise DomainError("no dressing with this depth and x-degree "
                          "carries the frame onto the standard span")
    if len(pivots) < nun:
        raise DomainError("frame windows leave the dressing "
                          "underdetermined at this depth and x-degree")
    terms = {0: Matrix.identity(n, XSeries.one())}
    for m in range(1, depth + 1):
        terms[-m] = Matrix([[XSeries([red[((m - 1) * nx + l) * n + p][nun + i]
                                      for l in range(nx)])
                             for p in range(n)] for i in range(n)])
    return MatrixPsiDO(n, terms)


def _outcome(fn):
    try:
        out = fn()
    except ExactError as exc:
        return type(exc).__name__, str(exc)
    return repr(out), out.lo


def _assert_same_dressing(point, depth, nx):
    got = _outcome(lambda: dressing_from_point(point, depth, nx))
    want = _outcome(lambda: _reference_dressing(point, depth, nx))
    assert got == want
    return got


def _perturbed(point):
    # bump one certified coefficient of the first column
    col = list(point.columns[0])
    w = col[0]
    k = w.support()[0] + 1
    assert w.known(k)
    col[0] = w + ZLaurent.monomial(k)
    return GrassPoint(point.n, [tuple(col)] + list(point.columns[1:]),
                      point.stable_from)


def test_dressing_from_point_matches_full_elimination():
    rng = random.Random(6262)
    seen = set()
    for n, depth, nx in ((1, 2, 3), (1, 3, 2), (2, 1, 2), (2, 2, 2)):
        s = _rand_dressing(rng, n, depth, nx)
        point = point_from_dressing(s)
        assert _assert_same_dressing(point, depth, nx) == (repr(s), None)
        for dd, nn in ((1, 1), (depth + 1, nx), (depth, nx + 1)):
            seen.add(_assert_same_dressing(point, dd, nn)[0])
        # full column rank, but the perturbed column fits no dressing
        bad = _assert_same_dressing(_perturbed(point), depth, nx)
        assert bad[0] == "DomainError" and "no dressing" in bad[1]
    assert "DomainError" in seen and len(seen) > 1


def test_dressing_from_point_windowed_columns_match_full_elimination():
    outcomes = set()
    for s in _windowed_dressings():
        point = point_from_dressing(s)
        for depth, nx in ((1, 1), (2, 3), (3, 2)):
            outcomes.add(_assert_same_dressing(point, depth, nx)[1])
    # the windows leave some shapes underdetermined and rule others out
    assert any("underdetermined" in str(o) for o in outcomes)
    assert any("no dressing" in str(o) for o in outcomes)
    frame = GrassPoint(1, [(ZLaurent({0: 1, 1: 1, 2: 1}, 3),)], 1)
    _assert_same_dressing(frame, 1, 1)
    _assert_same_dressing(frame, 1, 2)


def test_dressing_from_point_underdetermined_matches_full_elimination():
    got = _assert_same_dressing(cusp_point(), 2, 2)
    assert got == ("DomainError", "frame windows leave the dressing "
                   "underdetermined at this depth and x-degree")
