from fractions import Fraction

import pytest

from opcurve.exactcore import (
    DomainError,
    Matrix,
    XSeries,
    ZLaurent,
)
from opcurve.curvedata import AlgebraSpec
from opcurve.pipelines import (
    dress_to_constant,
    geometric_to_operators,
    operators_to_geometric,
    round_trip,
    verify_commutative,
)
from opcurve.psidocalc import MatrixPsiDO, compose
from opcurve.sato import GrassPoint, points_equal


def cusp_pair(nx=12):
    u = (XSeries.one() + XSeries.x()).inverse(prec=nx + 4)
    p = MatrixPsiDO.from_scalars({2: XSeries.one(), 0: (u * u).scale(-2)})
    q = MatrixPsiDO.from_scalars({3: XSeries.one(),
                                  1: (u * u).scale(-3),
                                  0: (u * u * u).scale(3)})
    return p, q


def j_matrix():
    return Matrix([[ZLaurent.zero(), ZLaurent.one()],
                   [ZLaurent.monomial(-1), ZLaurent.zero()]])


def hplus(n):
    return GrassPoint(n, [], 0)


# -- dressing to a constant power ---------------------------------------

def test_dress_constant_power_is_identity():
    s = dress_to_constant(MatrixPsiDO.d(2))
    assert s.exact
    assert s == MatrixPsiDO.identity()
    s = dress_to_constant(MatrixPsiDO.d(1, 2))
    assert s == MatrixPsiDO.identity(2)


def test_dress_cusp_operator_first_coefficient():
    # the recursion integrates s_1' = (x+1)^-2 with zero constant, so
    # s_1 = x - x^2 + x^3 - ...; frozen from the closed-form integral
    p, _ = cusp_pair()
    s = dress_to_constant(p, depth=4)
    s1 = s.coeff(-1).rows[0][0]
    for k in range(1, 8):
        assert s1.coeff(k) == Fraction((-1) ** (k + 1))
    assert s1.coeff(0) == 0


def test_dress_cusp_defining_equation():
    p, _ = cusp_pair()
    s = dress_to_constant(p, depth=5)
    left = p * s
    right = s * MatrixPsiDO.d(2)
    assert left == right


def test_dress_rejects_subleading_coefficient():
    p = MatrixPsiDO.from_scalars({2: XSeries.one(), 1: XSeries.x()})
    with pytest.raises(DomainError):
        dress_to_constant(p)


def test_dress_rejects_bad_shapes():
    with pytest.raises(DomainError):
        dress_to_constant(MatrixPsiDO.from_scalars({2: XSeries.constant(2)}))
    with pytest.raises(DomainError):
        dress_to_constant(MatrixPsiDO.d(-1))


# -- commutativity verification ------------------------------------------

def test_verify_commutative_cusp():
    p, q = cusp_pair()
    rep = verify_commutative([p, q])
    assert rep.ok
    assert rep.witnesses == []


def test_verify_commutative_witness():
    d = MatrixPsiDO.d()
    xd = MatrixPsiDO.from_scalars({1: XSeries.x()})
    rep = verify_commutative([d, xd])
    assert not rep.ok
    assert len(rep.witnesses) == 1
    i, j, c = rep.witnesses[0]
    assert (i, j) == (0, 1)
    assert c == MatrixPsiDO.d()


# -- backward pipeline ----------------------------------------------------

def test_backward_cusp_pair():
    p, q = cusp_pair()
    res = operators_to_geometric([p, q], depth=6)
    gp = res.constants[0].entry(0, 0)
    gq = res.constants[1].entry(0, 0)
    assert gp.coeff(-2) == 1 and gp.support() == [-2]
    assert gq.coeff(-3) == 1 and gq.support() == [-3]
    assert res.semigroup.gaps == [1]
    assert res.semigroup.genus == 1
    assert res.condition is not None and res.condition.satisfied
    assert res.monic_index == 0
    assert res.monic_factors == (0,)
    # The cusp dressing has truncated x-series coefficients, so the frame
    # columns carry z-window floors far above the stabilization bound that
    # an unknown x-tail forces.  A certified Fredholm count is out of reach
    # at any finite window here; None is the honest report.
    assert res.point is not None
    assert res.fredholm is None
    assert res.fredholm_reason == ("column windows do not determine the "
                                   "coordinates down to class 0")


def test_backward_rejects_noncommuting():
    d = MatrixPsiDO.d()
    xd = MatrixPsiDO.from_scalars({1: XSeries.x()})
    with pytest.raises(DomainError) as err:
        operators_to_geometric([d, xd])
    assert "commute" in str(err.value)


def test_backward_rejects_integral_shape():
    with pytest.raises(DomainError):
        operators_to_geometric([MatrixPsiDO.d() + MatrixPsiDO.d(-1)])


# -- forward pipeline and the round trip ----------------------------------

def test_forward_j_algebra():
    spec = AlgebraSpec(2, [j_matrix()])
    res = geometric_to_operators(hplus(2), spec, depth=2, nx=2)
    assert res.dressing == MatrixPsiDO.identity(2)
    assert res.differential == [True]
    assert res.commuting
    b = res.operators[0]
    assert b.coeff(1) == Matrix([[XSeries.zero(), XSeries.zero()],
                                 [XSeries.one(), XSeries.zero()]])
    assert b.coeff(0) == Matrix([[XSeries.zero(), XSeries.one()],
                                 [XSeries.zero(), XSeries.zero()]])


def test_forward_rejects_nonstabilizing_generator():
    spec = AlgebraSpec(1, [Matrix([[ZLaurent.monomial(1)]])])
    with pytest.raises(DomainError):
        geometric_to_operators(hplus(1), spec, depth=1, nx=1)


def test_forward_rejects_off_big_cell():
    pt = GrassPoint(1, [(ZLaurent.one(),)], 2)
    spec = AlgebraSpec(1, [Matrix([[ZLaurent.monomial(-2)]])])
    with pytest.raises(DomainError):
        geometric_to_operators(pt, spec, depth=2, nx=2)


def test_j_round_trip():
    spec = AlgebraSpec(2, [j_matrix()])
    fwd, back, equal = round_trip(hplus(2), spec, depth=2, nx=2)
    assert equal
    assert back.charpoly_str == "t^2 - z^-1"
    assert back.semigroup.genus == 0
    assert back.condition.satisfied
    assert points_equal(back.point, hplus(2))
    # the recovered constants are the original generator
    assert back.constants[0] == j_matrix()


def test_round_trip_dressed_line():
    # a nontrivial frame: dress the standard line by 1 + x D^-1
    s = MatrixPsiDO.from_scalars({0: XSeries.one(), -1: XSeries.x()})
    from opcurve.sato import point_from_dressing
    pt = point_from_dressing(s)
    spec = AlgebraSpec(1, [Matrix([[ZLaurent.monomial(-2)]]),
                           Matrix([[ZLaurent.monomial(-3)]])])
    g2 = Matrix([[ZLaurent.monomial(-2)]])
    from opcurve.sato import stabilizes
    if stabilizes(pt, g2):
        res = geometric_to_operators(pt, spec, depth=1, nx=2)
        assert res.commuting
    else:
        # the dressed line is generically not stabilized by z^-2 alone;
        # the forward pipeline must then refuse loudly
        with pytest.raises(DomainError):
            geometric_to_operators(pt, spec, depth=1, nx=2)
