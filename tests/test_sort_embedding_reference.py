"""The sort embeddings of exprs against the case-by-case code they replaced.

The reference below is the coercion code as it stood before exprs held one
table of embeddings: a lift per ordered pair of sorts, the identity of
each sort, the entry conversions of matrix literals, and the CLI's own
operand conversions.  A grid of values of every sort (sizes 1 to 3, exact
and windowed, and one frame) goes through promotion, sums, products,
powers, the CLI operand helpers and matrix literals on both sides; each
outcome is compared by sort tag, canonical session payload and printed
text, or by the exception's type and text.  Frames have no arithmetic:
the reference let them through to a TypeError or to a 1 x 1 identity,
and those cases are checked on their own.
"""

from fractions import Fraction

import pytest

from opcurve import cli, exprs
from opcurve.curvedata import AlgebraSpec
from opcurve.exactcore import DomainError, Matrix, XSeries, ZLaurent, power
from opcurve.psidocalc import MatrixPsiDO, invert_dressing
from opcurve.sato import point_from_dressing
from opcurve.session import (
    DEFAULT_CONTEXT,
    canonical_json,
    value_payload,
    value_tag,
)

# -- reference -------------------------------------------------------


def ref_one_like(v):
    tag = value_tag(v)
    if tag == "scalar":
        return Fraction(1)
    if tag == "xseries":
        return XSeries.one()
    if tag == "zlaurent":
        return ZLaurent.one()
    if tag == "pdo":
        return MatrixPsiDO.identity(v.n)
    if tag == "qmatrix":
        return Matrix.identity(v.n, Fraction(1))
    if tag == "xmatrix":
        return Matrix.identity(v.n, XSeries.one())
    return Matrix.identity(v.n, ZLaurent.one())


def ref_diag(n, entry, zero):
    return Matrix([[entry if i == j else zero for j in range(n)]
                   for i in range(n)])


def ref_lift(a, ta, b, tb):
    if ta == "scalar":
        if tb == "xseries":
            return XSeries.constant(a), b
        if tb == "zlaurent":
            return ZLaurent.constant(a), b
        if tb == "pdo":
            return MatrixPsiDO.identity(b.n).scale(a), b
        if tb == "qmatrix":
            return ref_diag(b.n, Fraction(a), Fraction(0)), b
        if tb == "xmatrix":
            return ref_diag(b.n, XSeries.constant(a), XSeries.zero()), b
        if tb == "zmatrix":
            return ref_diag(b.n, ZLaurent.constant(a), ZLaurent.zero()), b
    if ta == "xseries":
        if tb == "pdo":
            return MatrixPsiDO.from_xseries(a, b.n), b
        if tb == "qmatrix":
            return (ref_diag(b.n, a, XSeries.zero()),
                    b.map(XSeries.constant))
        if tb == "xmatrix":
            return ref_diag(b.n, a, XSeries.zero()), b
    if ta == "zlaurent":
        if tb == "qmatrix":
            return (ref_diag(b.n, a, ZLaurent.zero()),
                    b.map(ZLaurent.constant))
        if tb == "zmatrix":
            return ref_diag(b.n, a, ZLaurent.zero()), b
    if ta == "qmatrix":
        if tb == "xmatrix":
            return a.map(XSeries.constant), b
        if tb == "zmatrix":
            return a.map(ZLaurent.constant), b
        if tb == "pdo":
            if a.n != b.n:
                raise DomainError("matrix and operator sizes differ")
            return MatrixPsiDO(b.n, {0: a.map(XSeries.constant)}), b
    if ta == "xmatrix" and tb == "pdo":
        if a.n != b.n:
            raise DomainError("matrix and operator sizes differ")
        return MatrixPsiDO(b.n, {0: a}), b
    return None


def ref_promote(a, b):
    ta, tb = value_tag(a), value_tag(b)
    if ta == tb:
        return a, b
    lifted = ref_lift(a, ta, b, tb)
    if lifted is not None:
        return lifted
    lifted = ref_lift(b, tb, a, ta)
    if lifted is not None:
        return lifted[1], lifted[0]
    raise DomainError(f"cannot combine {ta} with {tb}")


def ref_add(a, b):
    a, b = ref_promote(a, b)
    return a + b


def ref_mul(a, b):
    a, b = ref_promote(a, b)
    return a * b


def ref_pow(v, k):
    return power(v, k, ref_one_like(v))


def ref_assemble_operator(entries):
    n = len(entries)
    ops = []
    for row in entries:
        out = []
        for v in row:
            tag = value_tag(v)
            if tag == "scalar":
                v = MatrixPsiDO.identity(1).scale(v)
            elif tag == "xseries":
                v = MatrixPsiDO.from_xseries(v)
            elif tag != "pdo" or v.n != 1:
                raise DomainError("operator matrix entries must be scalar "
                                  "operators, x-series or rationals")
            out.append(v)
        ops.append(out)
    lo = None
    for row in ops:
        for v in row:
            if v.lo is not None and (lo is None or v.lo > lo):
                lo = v.lo
    degrees = sorted({m for row in ops for v in row for m in v.terms})
    terms = {}
    for m in degrees:
        if lo is not None and m < lo:
            continue
        terms[m] = Matrix([[v.coeff(m).rows[0][0] for v in row]
                           for row in ops])
    return MatrixPsiDO(n, terms, lo)


def ref_elaborate_matrix(entries):
    n = len(entries)
    if any(len(row) != n for row in entries):
        raise DomainError("matrix literals must be square")
    tags = {value_tag(v) for row in entries for v in row}
    bad = tags - {"scalar", "xseries", "zlaurent", "pdo"}
    if bad:
        raise DomainError("matrix entries cannot have sort "
                          + ", ".join(sorted(bad)))
    if "pdo" in tags:
        if "zlaurent" in tags:
            raise DomainError("cannot combine zlaurent with pdo")
        return ref_assemble_operator(entries)
    if "zlaurent" in tags:
        if "xseries" in tags:
            raise DomainError("cannot combine xseries with zlaurent")
        return Matrix([[v if isinstance(v, ZLaurent) else ZLaurent.constant(v)
                        for v in row] for row in entries])
    if "xseries" in tags:
        return Matrix([[v if isinstance(v, XSeries) else XSeries.constant(v)
                        for v in row] for row in entries])
    return Matrix([[Fraction(v) for v in row] for row in entries])


def ref_as_pdo(value, what="operand"):
    if isinstance(value, (Fraction, int)):
        return MatrixPsiDO.identity(1).scale(value)
    if isinstance(value, XSeries):
        return MatrixPsiDO.from_xseries(value)
    if isinstance(value, Matrix):
        tag = value_tag(value)
        if tag == "qmatrix":
            return MatrixPsiDO(value.n, {0: value.map(XSeries.constant)})
        if tag == "xmatrix":
            return MatrixPsiDO(value.n, {0: value})
    if not isinstance(value, MatrixPsiDO):
        raise DomainError(f"{what} must be an operator, got "
                          f"{value_tag(value)}")
    return value


def ref_as_zmatrix(value, what="operand"):
    if isinstance(value, (Fraction, int)):
        value = ZLaurent.constant(value)
    if isinstance(value, ZLaurent):
        return Matrix([[value]])
    if isinstance(value, Matrix):
        tag = value_tag(value)
        if tag == "qmatrix":
            return value.map(ZLaurent.constant)
        if tag == "zmatrix":
            return value
    raise DomainError(f"{what} must be a matrix over the Laurent field, "
                      f"got {value_tag(value)}")


def ref_gens_to_spec(values, n_flag):
    gens, diag = [], []
    for v in values:
        if isinstance(v, (Fraction, int)):
            v = ZLaurent.constant(v)
        if isinstance(v, ZLaurent):
            diag.append(v)
        else:
            gens.append(ref_as_zmatrix(v, "generator"))
    if gens:
        n = gens[0].n
    elif n_flag is not None:
        n = n_flag
    else:
        n = 1
    if n_flag is not None and n_flag != n:
        raise DomainError(f"--n {n_flag} does not match generator size {n}")
    return AlgebraSpec(n, gens, diag)


# -- the grid --------------------------------------------------------


def _qmat(n, base):
    return Matrix([[Fraction(base + i - j, 1 + i) for j in range(n)]
                   for i in range(n)])


def _values():
    xw = XSeries([1, Fraction(1, 2), 3], 4)
    zw = ZLaurent({-1: 1, 0: Fraction(2, 3)}, 2)
    dressing = MatrixPsiDO.from_scalars({0: XSeries.one(),
                                         -1: XSeries([0, 1])})
    return {
        "0": Fraction(0),
        "-3/2": Fraction(-3, 2),
        "x-exact": XSeries([1, 0, 2]),
        "x-window": xw,
        "z-exact": ZLaurent({-2: 1, 1: 3}),
        "z-window": zw,
        "q1": _qmat(1, 2),
        "q2": _qmat(2, 1),
        "q3": _qmat(3, 0),
        "xm1": Matrix([[XSeries([0, 1])]]),
        "xm2-window": Matrix([[xw, XSeries.zero()],
                              [XSeries.one(), XSeries([2], 3)]]),
        "zm1": Matrix([[ZLaurent.monomial(-1)]]),
        "zm2-window": Matrix([[ZLaurent.zero(), zw],
                              [ZLaurent.one(), ZLaurent.monomial(1)]]),
        "pdo1": MatrixPsiDO.from_scalars({2: XSeries.one(),
                                          0: XSeries([0, 1])}),
        "pdo1-window": invert_dressing(dressing, depth=3),
        "pdo2": MatrixPsiDO(2, {1: Matrix.identity(2, XSeries.one()),
                                0: _qmat(2, 3).map(XSeries.constant)}),
        "pdo2-window": MatrixPsiDO(2, {0: Matrix([[xw, XSeries.one()],
                                                  [XSeries.zero(), xw]])},
                                   -2),
        "pdo3": MatrixPsiDO.d(1, 3),
        "frame": point_from_dressing(dressing),
    }


VALUES = _values()
NAMES = sorted(VALUES)
RING = [name for name in NAMES if name != "frame"]


def render(v):
    """What a caller can see of a value: its tag, canonical payload and
    printed text (or the printer's refusal)."""
    if isinstance(v, tuple):
        return tuple(render(e) for e in v)
    tag = value_tag(v)
    try:
        text = exprs.print_value(v)
    except DomainError as err:
        text = ("no print", str(err))
    return tag, canonical_json(value_payload(v)), text


def outcome(f, *args):
    try:
        v = f(*args)
    except Exception as err:  # the type and text are compared
        return "raises", type(err).__name__, str(err)
    return render(v)


def _ctx():
    return dict(DEFAULT_CONTEXT)


BINARY = [("promote", exprs._promote, ref_promote),
          ("add", exprs._add, ref_add),
          ("mul", exprs._mul, ref_mul)]


@pytest.mark.parametrize("op,new,ref", BINARY, ids=[b[0] for b in BINARY])
def test_binary_operations_match_the_reference(op, new, ref):
    checked = 0
    for a_name in NAMES:
        for b_name in NAMES:
            if a_name == b_name == "frame":
                continue
            a, b = VALUES[a_name], VALUES[b_name]
            assert outcome(new, a, b) == outcome(ref, a, b), \
                (op, a_name, b_name)
            checked += 1
    assert checked == len(NAMES) ** 2 - 1


@pytest.mark.parametrize("k", [0, 1, 2])
def test_powers_match_the_reference(k):
    for name in RING:
        v = VALUES[name]
        assert outcome(exprs._pow, v, k, _ctx()) == outcome(ref_pow, v, k), \
            (name, k)


@pytest.mark.parametrize("new,ref", [
    (cli._as_pdo, ref_as_pdo),
    (cli._as_zmatrix, ref_as_zmatrix),
    (lambda v: cli._gens_to_spec([v], None),
     lambda v: ref_gens_to_spec([v], None)),
], ids=["as_pdo", "as_zmatrix", "gens_to_spec"])
def test_cli_operand_helpers_match_the_reference(new, ref):
    for name in NAMES:
        v = VALUES[name]
        assert outcome(new, v) == outcome(ref, v), name


def test_gens_to_spec_with_several_generators_matches_the_reference():
    for gens, n_flag in [(["z-exact", "zm2-window", "0"], None),
                         (["z-window", "-3/2"], 3),
                         (["q2", "zm2-window"], 2),
                         (["q3", "zm1"], None),
                         (["zm2-window"], 3),
                         (["x-exact", "zm1"], None)]:
        values = [VALUES[g] for g in gens]
        assert outcome(cli._gens_to_spec, values, n_flag) == \
            outcome(ref_gens_to_spec, values, n_flag), gens


LITERALS = [
    [["0", "-3/2"], ["x-exact", "0"]],
    [["z-exact", "0"], ["z-window", "-3/2"]],
    [["pdo1", "0"], ["x-window", "pdo1-window"]],
    [["pdo1", "x-exact"], ["-3/2", "0"]],
    [["x-exact", "z-exact"], ["0", "0"]],
    [["pdo1", "z-window"], ["0", "0"]],
    [["x-window", "z-exact"], ["pdo1", "0"]],
    [["0", "-3/2", "0"], ["-3/2", "0", "0"], ["0", "0", "-3/2"]],
    [["q2", "0"], ["0", "0"]],
    [["pdo2", "0"], ["0", "0"]],
    [["frame"]],
    [["0", "-3/2"]],
]


@pytest.mark.parametrize("names", LITERALS, ids=range(len(LITERALS)))
def test_matrix_literals_match_the_reference(names):
    entries = [[VALUES[name] for name in row] for row in names]
    assert outcome(exprs._elaborate_matrix, entries) == \
        outcome(ref_elaborate_matrix, entries)


# -- frames have no arithmetic ---------------------------------------


@pytest.mark.parametrize("f", [exprs._promote, exprs._add, exprs._mul])
def test_frame_with_frame_is_a_domain_error(f):
    w = VALUES["frame"]
    with pytest.raises(DomainError,
                       match="^cannot combine grasspoint with grasspoint$"):
        f(w, w)


@pytest.mark.parametrize("k", [0, 1, 2])
def test_frame_powers_are_a_domain_error(k):
    w = VALUES["frame"]
    with pytest.raises(DomainError,
                       match="^cannot raise a value of sort grasspoint "
                             "to a power$"):
        exprs._pow(w, k, _ctx())


def test_negative_frame_power_still_names_the_inverse():
    with pytest.raises(DomainError,
                       match="^cannot invert a value of sort grasspoint$"):
        exprs._pow(VALUES["frame"], -1, _ctx())


def test_algebra_has_no_arithmetic():
    spec = AlgebraSpec(1, [Matrix([[ZLaurent.monomial(-2)]])])
    with pytest.raises(DomainError,
                       match="^cannot combine algebra with scalar$"):
        exprs._add(spec, Fraction(1))
    with pytest.raises(DomainError, match="^cannot raise a value of sort "
                                          "algebra to a power$"):
        exprs._pow(spec, 2, _ctx())
