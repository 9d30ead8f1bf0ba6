from fractions import Fraction

import pytest

from opcurve.exactcore import DomainError, Matrix, XSeries, ZLaurent
from opcurve.psidocalc import MatrixPsiDO, invert_dressing
from opcurve.exprs import ParseError, evaluate, parse, print_value


def ident(n):
    return Matrix.identity(n, XSeries.one())


# -- parsing ---------------------------------------------------------

def test_parse_precedence():
    assert evaluate("1 + 2 * 3") == Fraction(7)
    assert evaluate("2 * 3 ^ 2") == Fraction(18)
    assert evaluate("-3 ^ 2") == Fraction(-9)
    assert evaluate("2 ^ 2 ^ 3") == Fraction(64)
    assert evaluate("1 - 2 - 3") == Fraction(-4)
    assert evaluate("8 / 2 / 2") == Fraction(2)
    assert evaluate("3/4") == Fraction(3, 4)
    assert evaluate("-3/4^2") == Fraction(-3, 16)


def test_parse_errors_carry_position():
    with pytest.raises(ParseError) as err:
        parse("x +")
    assert "column 4" in str(err.value)
    with pytest.raises(ParseError):
        parse("(x")
    with pytest.raises(ParseError):
        parse("x ^ y")
    with pytest.raises(ParseError):
        parse("1 ? 2")
    with pytest.raises(ParseError):
        parse("[[1,2],[3]]")


def test_exponent_above_cap_is_a_parse_error():
    # parsing alone rejects it, so no power is ever computed
    assert parse("x^1000") == ("pow", ("name", "x"), 1000)
    assert parse("Dx^-1000") == ("pow", ("name", "Dx"), -1000)
    for text, col in (("x^1001", 3), ("(1+x)^2^-1001", 10)):
        with pytest.raises(ParseError, match=f"column {col}: exponent 1001 "
                           "exceeds MAX_EXPONENT = 1000"):
            parse(text)


def test_unknown_name_is_domain_error():
    with pytest.raises(DomainError):
        evaluate("mystery + 1")


def test_bindings_resolve():
    env = {"P": MatrixPsiDO.d(2)}
    assert evaluate("P + Dx", env.__getitem__) == \
        MatrixPsiDO.from_scalars({2: XSeries.one(), 1: XSeries.one()})


# -- elaboration -----------------------------------------------------

def test_cusp_operator_from_text():
    u = (XSeries.one() + XSeries.x()).inverse(prec=12)
    ref = MatrixPsiDO.from_scalars({2: XSeries.one(), 0: (u * u).scale(-2)})
    assert evaluate("Dx^2 - 2*1/((x+1)^2)") == ref


def test_matrix_operator_from_text():
    got = evaluate("[[0,1],[Dx,0]]")
    z, o = XSeries.zero(), XSeries.one()
    ref = MatrixPsiDO(2, {0: Matrix([[z, o], [z, z]]),
                          1: Matrix([[z, z], [o, z]])})
    assert got == ref
    assert got * got == MatrixPsiDO.d(1, 2)


def test_integration_symbol_normalizes():
    got = evaluate("Dx^-1 * x")
    assert got == MatrixPsiDO.from_scalars({-1: XSeries.x(),
                                            -2: XSeries.constant(-1)})


def test_scalars_embed_diagonally():
    got = evaluate("[[0,1],[z^-1,0]]^2 - z^-1")
    assert all(e.coeffs == {} for row in got.rows for e in row)
    assert evaluate("[[1,0],[0,1]] + 1") == Matrix([[Fraction(2), Fraction(0)],
                                                    [Fraction(0), Fraction(2)]])


def test_sort_walls():
    with pytest.raises(DomainError):
        evaluate("x + z")
    with pytest.raises(DomainError):
        evaluate("[[z,0],[0,z]] + Dx")
    with pytest.raises(DomainError):
        evaluate("[[x, z], [0, 0]]")
    with pytest.raises(DomainError):
        evaluate("[[[1]]]")


def test_square_matrices_only():
    with pytest.raises(DomainError):
        evaluate("[[1, 2, 3], [4, 5, 6]]")


def test_inversion_rules():
    assert evaluate("1/(1-z)").coeffs[7] == 1
    assert evaluate("1/z") == ZLaurent.monomial(-1)
    assert evaluate("Dx^-3") == MatrixPsiDO.d(-3)
    assert evaluate("[[1,2],[3,4]]^-1") == Matrix(
        [[Fraction(-2), Fraction(1)], [Fraction(3, 2), Fraction(-1, 2)]])
    with pytest.raises(DomainError):
        evaluate("1/0")
    with pytest.raises(DomainError):
        evaluate("1/x")
    with pytest.raises(DomainError):
        evaluate("[[1,1],[1,1]]^-1")
    with pytest.raises(DomainError):
        evaluate("(Dx + x)^-1")


def test_dressing_inverts_to_context_depth():
    env = {"S": MatrixPsiDO.from_scalars({0: XSeries.one(),
                                          -1: XSeries.x()})}
    got = evaluate("S^-1", env.__getitem__, {"depth": 5})
    assert got == invert_dressing(env["S"], depth=5)
    assert got.lo == -5


def test_context_precision_for_series_inverse():
    got = evaluate("1/(1+x)", context={"xprec": 4})
    assert got.prec == 4
    assert got == XSeries([1, -1, 1, -1], 4)


def test_power_zero_is_identity():
    assert evaluate("(x+1)^0") == XSeries.one()
    assert evaluate("(z^-1)^0") == ZLaurent.one()
    assert evaluate("[[1,2],[3,4]]^0") == Matrix([[Fraction(1), Fraction(0)],
                                                  [Fraction(0), Fraction(1)]])
    assert evaluate("(Dx + x)^0") == MatrixPsiDO.identity(1)


# -- printing --------------------------------------------------------

def test_print_parse_round_trips():
    u = (XSeries.one() + XSeries.x()).inverse(prec=12)
    samples = [
        Fraction(-5, 3),
        XSeries([1, -2, 0, Fraction(1, 3)]),
        XSeries([], 5),
        ZLaurent({-2: 1, 1: Fraction(3, 4)}),
        ZLaurent.zero(),
        Matrix([[Fraction(0), Fraction(1)], [Fraction(1), Fraction(0)]]),
        Matrix([[ZLaurent.zero(), ZLaurent.one()],
                [ZLaurent.monomial(-1), ZLaurent.zero()]]),
        Matrix([[XSeries.x(), XSeries.one()],
                [XSeries.zero(), XSeries([2], 3)]]),
        MatrixPsiDO.from_scalars({2: XSeries.one(), 0: (u * u).scale(-2)}),
        MatrixPsiDO(2, {0: Matrix([[XSeries.zero(), XSeries.one()],
                                   [XSeries.zero(), XSeries.zero()]]),
                        1: Matrix([[XSeries.zero(), XSeries.zero()],
                                   [XSeries.one(), XSeries.zero()]])}),
        MatrixPsiDO.from_scalars({-1: XSeries.x(),
                                  -2: XSeries.constant(-1)}),
        MatrixPsiDO(1, {}, None),
    ]
    for v in samples:
        assert evaluate(print_value(v)) == v, print_value(v)


def test_print_rejects_frames():
    from opcurve.sato import GrassPoint, basis_column
    with pytest.raises(DomainError):
        print_value(GrassPoint(1, [basis_column(0, 1)], 1))


# -- powers ----------------------------------------------------------

def _xs(*coeffs, prec=None):
    return XSeries([Fraction(c) for c in coeffs], prec)


def _windows(v):
    """Every stored entry with its window, so equal renderings mean equal
    values and equal windows."""
    if isinstance(v, MatrixPsiDO):
        return v.lo, {m: _windows(mat) for m, mat in v.terms.items()}
    if isinstance(v, Matrix):
        return [[repr(e) for e in row] for row in v.rows]
    return repr(v)


POWER_BASES = {
    "xseries": lambda: _xs(1, 2, -1, prec=5),
    "xseries_exact": lambda: _xs(0, 1, 3),
    "xseries_zero_windowed": lambda: _xs(prec=3),
    "zlaurent_windowed": lambda: ZLaurent({-1: 1, 0: 2, 2: 1}, 3),
    "zlaurent_zero_windowed": lambda: ZLaurent({}, 2),
    "zlaurent_positive_valuation": lambda: ZLaurent({1: 2, 3: 1}, 4),
    "pdo_windowed_truncated": lambda: MatrixPsiDO.from_scalars(
        {1: 1, 0: _xs(1, 1, 1, prec=4), -1: _xs(0, 1, prec=6)}, lo=-3),
    "pdo_2x2_mixed_windows": lambda: MatrixPsiDO(2, {
        1: ident(2),
        0: Matrix([[_xs(1, 2, prec=6), _xs()],
                   [_xs(0, 1), _xs(2, 1, prec=9)]]),
        -1: Matrix([[_xs(), _xs(0, 0, 1, prec=5)], [_xs(), _xs()]])}, lo=-2),
}

POWER_TEXTS = ["3/2", "1/(x+1) + x", "[[1/(x+1), 0], [x, 1]]", "1/(1+z)",
               "[[1/(1+z), z], [0, z^-1]]", "Dx + 1/(1+x)",
               "[[Dx, x], [0, Dx + 1/(1+x)]]"]


@pytest.mark.parametrize("name", sorted(POWER_BASES))
def test_power_matches_repeated_multiplication(name):
    base = POWER_BASES[name]()
    prod = base
    for e in range(1, 7):
        if e > 1:
            prod = prod * base
        assert _windows(base ** e) == _windows(prod), e


@pytest.mark.parametrize("text", POWER_TEXTS)
def test_expression_power_matches_repeated_multiplication(text):
    for e in range(1, 7):
        want = evaluate(" * ".join([f"({text})"] * e))
        assert _windows(evaluate(f"({text})^{e}")) == _windows(want), e
