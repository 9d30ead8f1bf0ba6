"""Expression parsing, elaboration and printing for the command line.

The surface grammar is fixed by GRAMMAR.md at the repository root.  A
parsed tree elaborates to a rational number, a series in x or z, a
square matrix of those, or an operator, under the sort promotion rules
documented there.  Printing inverts parsing: for every value v,
parse(print(v)) compares equal to v on the guaranteed windows.
"""

from fractions import Fraction

from .exactcore import (
    DomainError,
    Matrix,
    XSeries,
    ZLaurent,
    fraction_str,
    power,
    solve_system,
)
from .psidocalc import MatrixPsiDO, invert_dressing, is_dressing
from .session import DEFAULT_CONTEXT, value_tag


class ParseError(DomainError):
    """Syntax error with the offending line and column."""


# -- tokens ----------------------------------------------------------

_PUNCT = "+-*/^()[],"

# Cap on the magnitude of an exponent literal, checked while parsing, so
# an oversized power is a syntax error (exit 2) before any work starts.
MAX_EXPONENT = 1000


def _where(text: str, pos: int) -> str:
    line = text.count("\n", 0, pos) + 1
    col = pos - (text.rfind("\n", 0, pos) + 1) + 1
    return f"line {line}, column {col}"


def tokenize(text: str):
    """Token stream of (kind, value, position) triples.

    Kinds are "int", "name", one of the punctuation characters, and a
    final "end" marker.
    """
    out = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            out.append(("int", int(text[i:j]), i))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            out.append(("name", text[i:j], i))
            i = j
            continue
        if ch in _PUNCT:
            out.append((ch, ch, i))
            i += 1
            continue
        raise ParseError(f"syntax error at {_where(text, i)}: "
                         f"unexpected character {ch!r}")
    out.append(("end", None, n))
    return out


# -- parsing ---------------------------------------------------------
#
# expr    := term (("+" | "-") term)*
# term    := factor (("*" | "/") factor)*
# factor  := "-" factor | power
# power   := atom ("^" ["-"] int)*
# atom    := int | name | "(" expr ")" | "[" row ("," row)* "]"
# row     := "[" expr ("," expr)* "]"


class _Parser:

    def __init__(self, text: str):
        self.text = text
        self.toks = tokenize(text)
        self.pos = 0

    def _peek(self):
        return self.toks[self.pos]

    def _take(self):
        tok = self.toks[self.pos]
        self.pos += 1
        return tok

    def _expect(self, kind):
        tok = self._take()
        if tok[0] != kind:
            raise ParseError(f"syntax error at {_where(self.text, tok[2])}: "
                             f"expected {kind!r}, found {self._show(tok)}")
        return tok

    @staticmethod
    def _show(tok):
        return "end of input" if tok[0] == "end" else repr(str(tok[1]))

    def parse(self):
        node = self.expr()
        tok = self._peek()
        if tok[0] != "end":
            raise ParseError(f"syntax error at {_where(self.text, tok[2])}: "
                             f"unexpected {self._show(tok)}")
        return node

    def expr(self):
        node = self.term()
        while self._peek()[0] in ("+", "-"):
            op = self._take()[0]
            node = ("bin", op, node, self.term())
        return node

    def term(self):
        node = self.factor()
        while self._peek()[0] in ("*", "/"):
            op = self._take()[0]
            node = ("bin", op, node, self.factor())
        return node

    def factor(self):
        if self._peek()[0] == "-":
            self._take()
            return ("neg", self.factor())
        return self.power()

    def power(self):
        node = self.atom()
        while self._peek()[0] == "^":
            self._take()
            sign = 1
            if self._peek()[0] == "-":
                self._take()
                sign = -1
            tok = self._expect("int")
            if tok[1] > MAX_EXPONENT:
                raise ParseError(
                    f"syntax error at {_where(self.text, tok[2])}: "
                    f"exponent {tok[1]} exceeds MAX_EXPONENT = "
                    f"{MAX_EXPONENT}")
            node = ("pow", node, sign * tok[1])
        return node

    def atom(self):
        tok = self._take()
        if tok[0] == "int":
            return ("int", Fraction(tok[1]))
        if tok[0] == "name":
            return ("name", tok[1])
        if tok[0] == "(":
            node = self.expr()
            self._expect(")")
            return node
        if tok[0] == "[":
            rows = [self.row()]
            while self._peek()[0] == ",":
                self._take()
                rows.append(self.row())
            self._expect("]")
            if any(len(r) != len(rows[0]) for r in rows):
                raise ParseError(
                    f"syntax error at {_where(self.text, tok[2])}: "
                    "matrix rows must all have the same length")
            return ("matrix", rows)
        raise ParseError(f"syntax error at {_where(self.text, tok[2])}: "
                         f"unexpected {self._show(tok)}")

    def row(self):
        self._expect("[")
        out = [self.expr()]
        while self._peek()[0] == ",":
            self._take()
            out.append(self.expr())
        self._expect("]")
        return out


def parse(text: str):
    """Abstract syntax tree of an expression, or a ParseError."""
    return _Parser(text).parse()


# -- elaboration -----------------------------------------------------

_SPECIALS = ("x", "Dx", "z")


def _one_like(v):
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


def _diag(n, entry, zero):
    return Matrix([[entry if i == j else zero for j in range(n)]
                   for i in range(n)])


def _lift(a, ta, b, tb):
    """Lift a into b's ring, returning (a', b') or None when no rule fits."""
    if ta == "scalar":
        if tb == "xseries":
            return XSeries.constant(a), b
        if tb == "zlaurent":
            return ZLaurent.constant(a), b
        if tb == "pdo":
            return MatrixPsiDO.identity(b.n).scale(a), b
        if tb == "qmatrix":
            return _diag(b.n, Fraction(a), Fraction(0)), b
        if tb == "xmatrix":
            return _diag(b.n, XSeries.constant(a), XSeries.zero()), b
        if tb == "zmatrix":
            return _diag(b.n, ZLaurent.constant(a), ZLaurent.zero()), b
    if ta == "xseries":
        if tb == "pdo":
            return MatrixPsiDO.from_xseries(a, b.n), b
        if tb == "qmatrix":
            return (_diag(b.n, a, XSeries.zero()),
                    b.map(XSeries.constant))
        if tb == "xmatrix":
            return _diag(b.n, a, XSeries.zero()), b
    if ta == "zlaurent":
        if tb == "qmatrix":
            return (_diag(b.n, a, ZLaurent.zero()),
                    b.map(ZLaurent.constant))
        if tb == "zmatrix":
            return _diag(b.n, a, ZLaurent.zero()), b
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


def _promote(a, b):
    """Lift both values into a common ring, or raise DomainError.

    Rationals embed as constants, scalars embed diagonally into square
    matrices and operators.  Series in x and series in z never mix; the
    adjoint dictionary between them is a library operation, not an
    implicit coercion.
    """
    ta, tb = value_tag(a), value_tag(b)
    if ta == tb:
        return a, b
    lifted = _lift(a, ta, b, tb)
    if lifted is not None:
        return lifted
    lifted = _lift(b, tb, a, ta)
    if lifted is not None:
        return lifted[1], lifted[0]
    raise DomainError(f"cannot combine {ta} with {tb}")


def _add(a, b, subtract=False):
    a, b = _promote(a, b)
    return a - b if subtract else a + b


def _mul(a, b):
    a, b = _promote(a, b)
    return a * b


def _is_d_power(op: MatrixPsiDO):
    if op.lo is not None or len(op.terms) != 1:
        return None
    (m, mat), = op.terms.items()
    if mat == Matrix.identity(op.n, XSeries.one()) and \
            all(e.exact for row in mat.rows for e in row):
        return m
    return None


def invert_value(v, ctx):
    tag = value_tag(v)
    if tag == "scalar":
        if v == 0:
            raise DomainError("division by zero")
        return Fraction(1) / v
    if tag == "xseries":
        return v.inverse(prec=ctx["xprec"])
    if tag == "zlaurent":
        if v.is_zero():
            raise DomainError("division by zero")
        return v.inverse(prec=ctx["zhi"])
    if tag == "pdo":
        m = _is_d_power(v)
        if m is not None:
            return MatrixPsiDO.d(-m, v.n)
        if is_dressing(v):
            return invert_dressing(v, depth=ctx["depth"])
        raise DomainError("can only invert powers of Dx and dressing "
                          "operators")
    if tag == "qmatrix":
        inv, _ = solve_system(v.rows, Matrix.identity(v.n, Fraction(1)).rows)
        if inv is None:
            raise DomainError("matrix is singular")
        return Matrix(inv)
    raise DomainError(f"cannot invert a value of sort {tag}")


def _pow(v, k, ctx):
    if k < 0:
        return _pow(invert_value(v, ctx), -k, ctx)
    return power(v, k, _one_like(v))


def _assemble_operator(entries):
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


def _elaborate_matrix(entries):
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
        return _assemble_operator(entries)
    if "zlaurent" in tags:
        if "xseries" in tags:
            raise DomainError("cannot combine xseries with zlaurent")
        return Matrix([[v if isinstance(v, ZLaurent) else ZLaurent.constant(v)
                        for v in row] for row in entries])
    if "xseries" in tags:
        return Matrix([[v if isinstance(v, XSeries) else XSeries.constant(v)
                        for v in row] for row in entries])
    return Matrix([[Fraction(v) for v in row] for row in entries])


def elaborate(node, resolve=None, context=None):
    """Value of a parsed tree.

    resolve(name) supplies the values of identifier atoms other than the
    reserved x, Dx and z; context overrides the default precision
    context (keys xprec, zlo, zhi, depth) used for inversions.
    """
    ctx = dict(DEFAULT_CONTEXT)
    if context:
        ctx.update(context)

    def walk(nd):
        kind = nd[0]
        if kind == "int":
            return nd[1]
        if kind == "name":
            name = nd[1]
            if name == "x":
                return XSeries.x()
            if name == "Dx":
                return MatrixPsiDO.d()
            if name == "z":
                return ZLaurent.monomial(1)
            if resolve is None:
                raise DomainError(f"unknown name {name!r}")
            return resolve(name)
        if kind == "neg":
            return _mul(Fraction(-1), walk(nd[1]))
        if kind == "bin":
            op, left, right = nd[1], walk(nd[2]), walk(nd[3])
            if op == "+":
                return _add(left, right)
            if op == "-":
                return _add(left, right, subtract=True)
            if op == "*":
                return _mul(left, right)
            return _mul(left, invert_value(right, ctx))
        if kind == "pow":
            return _pow(walk(nd[1]), nd[2], ctx)
        if kind == "matrix":
            return _elaborate_matrix([[walk(e) for e in row]
                                      for row in nd[1]])
        raise DomainError(f"unknown node kind {kind!r}")

    return walk(node)


def evaluate(text: str, resolve=None, context=None):
    return elaborate(parse(text), resolve, context)


# -- printing --------------------------------------------------------


def _print_scalar_operator(parts):
    """Render [(degree, XSeries)] sorted descending as a sum over Dx."""
    if not parts:
        return "0"
    out = []
    for m, s in parts:
        if m == 0:
            out.append(f"({s})")
        else:
            d = "Dx" if m == 1 else f"Dx^{m}"
            if s == XSeries.one() and s.exact:
                out.append(d)
            else:
                out.append(f"({s})*{d}")
    return " + ".join(out)


def _print_pdo(op: MatrixPsiDO) -> str:
    if op.n == 1:
        parts = [(m, op.terms[m].rows[0][0]) for m in sorted(op.terms,
                                                             reverse=True)]
        if not parts:
            return "0*Dx^0"
        return _print_scalar_operator(parts)
    if not op.terms:
        # keep the operator sort: one corner entry names Dx explicitly
        row0 = ", ".join(["0*Dx^0"] + ["0"] * (op.n - 1))
        tail = ", ".join("[" + ", ".join(["0"] * op.n) + "]"
                         for _ in range(op.n - 1))
        return f"[[{row0}], {tail}]" if tail else f"[[{row0}]]"
    rows = []
    for i in range(op.n):
        row = []
        for j in range(op.n):
            parts = [(m, op.terms[m].rows[i][j])
                     for m in sorted(op.terms, reverse=True)
                     if not op.terms[m].rows[i][j].is_zero()]
            row.append(_print_scalar_operator(parts))
        rows.append("[" + ", ".join(row) + "]")
    return "[" + ", ".join(rows) + "]"


def print_value(v) -> str:
    """Expression text that parses back to v (equal on the windows)."""
    tag = value_tag(v)
    if tag == "scalar":
        return fraction_str(v)
    if tag in ("xseries", "zlaurent"):
        return str(v)
    if tag in ("qmatrix", "xmatrix", "zmatrix"):
        body = [", ".join(fraction_str(e) if tag == "qmatrix" else str(e)
                          for e in row) for row in v.rows]
        return "[" + ", ".join(f"[{r}]" for r in body) + "]"
    if tag == "pdo":
        return _print_pdo(v)
    raise DomainError(f"values of sort {tag} have no expression form; "
                      "store them in a session file")
