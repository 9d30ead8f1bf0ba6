from fractions import Fraction

import pytest

from opcurve.exactcore import DomainError, Matrix, XSeries, ZLaurent
from opcurve.psidocalc import MatrixPsiDO
from opcurve.sato import GrassPoint, basis_column
from opcurve.curvedata import AlgebraSpec
from opcurve.session import (
    Session,
    canonical_json,
    parse_value,
    value_payload,
    value_tag,
    xseries_payload,
    zlaurent_payload,
)


def j_matrix():
    return Matrix([[ZLaurent.zero(), ZLaurent.one()],
                   [ZLaurent.monomial(-1), ZLaurent.zero()]])


# -- payload shapes --------------------------------------------------

def test_scalar_payloads():
    assert value_payload(Fraction(5)) == "5"
    assert value_payload(Fraction(-3, 4)) == "-3/4"
    assert parse_value("scalar", "7/2") == Fraction(7, 2)
    with pytest.raises(DomainError):
        parse_value("scalar", "x")


def test_scalar_payloads_take_the_documented_form_only():
    # non-canonical but well-formed rationals still load
    assert parse_value("scalar", "2/4") == Fraction(1, 2)
    assert parse_value("scalar", "007") == Fraction(7)
    assert parse_value("scalar", "-0") == Fraction(0)
    for text in ("1.5", "1e9", "1_0", " 2 ", "+3", "1/0", "1/-2", "", 5,
                 "1e100000000", "9" * 5000):
        with pytest.raises(DomainError, match="^bad rational literal"):
            parse_value("scalar", text)


def test_xseries_window_is_dense():
    s = XSeries([1, 0, 2], 5)
    assert xseries_payload(s) == {"coeffs": ["1", "0", "2", "0", "0"],
                                  "prec": 5}
    assert xseries_payload(XSeries([0, 1])) == {"coeffs": ["0", "1"],
                                                "prec": None}
    assert xseries_payload(XSeries.zero()) == {"coeffs": [], "prec": None}


def test_zlaurent_canonical_forms():
    assert zlaurent_payload(ZLaurent({-2: 1, 1: Fraction(1, 3)})) == {
        "coeffs": ["1", "0", "0", "1/3"], "exact": True, "hi": 1, "lo": -2}
    assert zlaurent_payload(ZLaurent.zero()) == {
        "coeffs": ["0"], "exact": True, "hi": 0, "lo": 0}
    assert zlaurent_payload(ZLaurent({-1: 2}, 2)) == {
        "coeffs": ["2", "0", "0", "0"], "exact": False, "hi": 2, "lo": -1}
    assert zlaurent_payload(ZLaurent.zero(prec=3)) == {
        "coeffs": ["0"], "exact": False, "hi": 3, "lo": 3}


def test_zlaurent_payload_requires_full_window():
    with pytest.raises(DomainError):
        parse_value("zlaurent", {"lo": 0, "hi": 2, "coeffs": ["1"],
                                 "exact": True})


def test_matrix_tags():
    assert value_tag(Matrix([[Fraction(0), Fraction(1)],
                             [Fraction(1), Fraction(0)]])) == "qmatrix"
    assert value_tag(Matrix([[XSeries.x()]])) == "xmatrix"
    assert value_tag(j_matrix()) == "zmatrix"
    with pytest.raises(DomainError):
        value_tag(Matrix([[XSeries.one(), XSeries.one()],
                          [ZLaurent.one(), ZLaurent.one()]]))


def test_pdo_payload_sorted_terms_and_xprec():
    op = MatrixPsiDO.from_scalars({2: XSeries.one(),
                                   0: XSeries([0, -2, 2], 6),
                                   -1: XSeries([1], 9)}, lo=-1)
    payload = value_payload(op)
    assert [m for m, _ in payload["terms"]] == [-1, 0, 2]
    assert payload["xprec"] == 6
    assert payload["lo"] == -1
    exact = MatrixPsiDO.d(2)
    assert value_payload(exact)["xprec"] is None
    assert value_payload(exact)["lo"] is None


def test_value_round_trips():
    values = [
        Fraction(-9, 7),
        XSeries([1, Fraction(1, 2)], 4),
        ZLaurent({-3: 1, 2: -2}, 5),
        j_matrix(),
        Matrix([[XSeries.x(), XSeries.one()],
                [XSeries.zero(), XSeries([2], 3)]]),
        MatrixPsiDO.from_scalars({2: XSeries.one(), 0: XSeries([0, -2], 6)}),
        GrassPoint(2, [basis_column(0, 2), basis_column(1, 2)], 2),
        AlgebraSpec(2, [j_matrix()], [ZLaurent.monomial(-2)]),
    ]
    for val in values:
        tag = value_tag(val)
        back = parse_value(tag, value_payload(val))
        assert value_tag(back) == tag
        assert value_payload(back) == value_payload(val)


# -- session files ---------------------------------------------------

def test_session_load_save_byte_identical():
    ses = Session({"xprec": 10, "depth": 5})
    ses.set("P", MatrixPsiDO.from_scalars({2: XSeries.one(),
                                           0: XSeries([-2, 4], 10)}))
    ses.set("g", j_matrix())
    ses.set("a", Fraction(1, 3))
    text = ses.dumps()
    again = Session.loads(text)
    assert again.dumps() == text
    assert again.context["xprec"] == 10
    assert again.context["depth"] == 5
    assert again.context["zlo"] == -12
    assert again.names() == ["P", "a", "g"]
    assert again.names("pdo") == ["P"]


def test_session_context_admits_its_bounds_and_only_integers():
    ses = Session({"depth": 100, "xprec": 0, "zlo": -1000, "zhi": 1000})
    assert ses.context == {"depth": 100, "xprec": 0, "zlo": -1000,
                           "zhi": 1000}
    for bad in ("5", 5.0, True, None):
        with pytest.raises(DomainError, match="context depth must be an "
                                              "integer in"):
            Session({"depth": bad})


def test_session_canonicalizes_padded_input():
    raw = canonical_json({
        "format": "opcurve-session",
        "version": 1,
        "context": {},
        "bindings": {"g": {"type": "zlaurent", "value": {
            "lo": -3, "hi": 0, "exact": True,
            "coeffs": ["0", "1", "0", "0"]}}},
    })
    ses = Session.loads(raw)
    val = ses.get("g")
    assert val == ZLaurent.monomial(-2)
    assert zlaurent_payload(val)["lo"] == -2
    assert Session.loads(ses.dumps()).dumps() == ses.dumps()


def test_session_rejects_bad_input():
    with pytest.raises(DomainError):
        Session.loads("not json")
    with pytest.raises(DomainError):
        Session.loads(canonical_json({"format": "other", "version": 1}))
    with pytest.raises(DomainError):
        Session.loads(canonical_json({"format": "opcurve-session",
                                      "version": 99}))
    with pytest.raises(DomainError):
        Session({"nope": 3})
    ses = Session()
    with pytest.raises(DomainError):
        ses.set("2bad", Fraction(1))
    with pytest.raises(DomainError):
        ses.get("missing")
    with pytest.raises(DomainError):
        parse_value("mystery", {})


def test_session_file_io(tmp_path):
    path = tmp_path / "work.json"
    ses = Session()
    ses.set("s", XSeries([1, -1, 1], 3))
    ses.save(path)
    again = Session.load(path)
    assert again.get("s") == XSeries([1, -1, 1], 3)
    assert path.read_text() == ses.dumps()
