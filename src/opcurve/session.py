"""Session files: named bindings of domain values in canonical JSON.

The on-disk layout is fixed by FORMAT.md at the repository root.  Every
value is stored as a tagged payload; the whole file is emitted with
sorted keys, two-space indentation and a trailing newline, so loading a
canonical file and saving it again reproduces the bytes exactly.
"""

import json
import re
from fractions import Fraction

from .exactcore import (
    DEFAULT_DEPTH,
    DEFAULT_XPREC,
    DEFAULT_ZHI,
    DEFAULT_ZLO,
    DomainError,
    Matrix,
    XSeries,
    ZLaurent,
    as_fraction,
    fraction_str,
)
from .psidocalc import MatrixPsiDO
from .sato import GrassPoint
from .curvedata import AlgebraSpec

FORMAT_NAME = "opcurve-session"
FORMAT_VERSION = 1

_NAME_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")

# Inclusive bounds on each context value.  The --depth, --x-prec, --z-hi
# and --z-lo flags take the same ones, so a session file asks for no more
# work than a flag can.
CONTEXT_BOUNDS = {
    "depth": (0, 100),
    "xprec": (0, 1000),
    "zhi": (-1000, 1000),
    "zlo": (-1000, 1000),
}

DEFAULT_CONTEXT = {
    "depth": DEFAULT_DEPTH,
    "xprec": DEFAULT_XPREC,
    "zhi": DEFAULT_ZHI,
    "zlo": DEFAULT_ZLO,
}


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


# -- scalars ---------------------------------------------------------


def scalar_payload(a) -> str:
    return fraction_str(as_fraction(a))


def parse_scalar(text) -> Fraction:
    try:
        return Fraction(str(text))
    except (ValueError, ZeroDivisionError) as err:
        raise DomainError(f"bad rational literal {text!r}") from err


# -- series ----------------------------------------------------------


def xseries_payload(s: XSeries) -> dict:
    top = s.degree_bound() + 1 if s.exact else s.prec
    return {"coeffs": [fraction_str(s.coeff(k)) for k in range(top)],
            "prec": s.prec}


def parse_xseries(payload) -> XSeries:
    try:
        coeffs = [parse_scalar(c) for c in payload["coeffs"]]
        prec = payload["prec"]
    except (KeyError, TypeError) as err:
        raise DomainError(f"malformed x-series payload: {payload!r}") from err
    return XSeries(coeffs, None if prec is None else int(prec))


def zlaurent_payload(s: ZLaurent) -> dict:
    exact = s.prec is None
    sup = s.support() or [0 if exact else s.prec]
    lo, hi = sup[0], (sup[-1] if exact else s.prec)
    return {
        "coeffs": [fraction_str(s.coeff(k)) for k in range(lo, hi + 1)],
        "exact": exact,
        "hi": hi,
        "lo": lo,
    }


def parse_zlaurent(payload) -> ZLaurent:
    try:
        lo = int(payload["lo"])
        hi = int(payload["hi"])
        dense = [parse_scalar(c) for c in payload["coeffs"]]
        exact = bool(payload["exact"])
    except (KeyError, TypeError) as err:
        raise DomainError(f"malformed z-series payload: {payload!r}") from err
    if len(dense) != hi - lo + 1:
        raise DomainError("z-series payload must list every coefficient "
                          f"from {lo} to {hi}")
    coeffs = {lo + i: c for i, c in enumerate(dense)}
    return ZLaurent(coeffs, None if exact else hi)


# -- matrices --------------------------------------------------------


def _matrix_payload(mat: Matrix, entry) -> list:
    return [[entry(e) for e in row] for row in mat.rows]


def _parse_matrix(payload, entry) -> Matrix:
    if not isinstance(payload, list) or not payload:
        raise DomainError("matrix payload must be a nonempty nested array")
    return Matrix([[entry(e) for e in row] for row in payload])


def qmatrix_payload(mat: Matrix) -> list:
    return _matrix_payload(mat, scalar_payload)


def parse_qmatrix(payload) -> Matrix:
    return _parse_matrix(payload, parse_scalar)


def xmatrix_payload(mat: Matrix) -> list:
    return _matrix_payload(mat, xseries_payload)


def parse_xmatrix(payload) -> Matrix:
    return _parse_matrix(payload, parse_xseries)


def zmatrix_payload(mat: Matrix) -> list:
    return _matrix_payload(mat, zlaurent_payload)


def parse_zmatrix(payload) -> Matrix:
    return _parse_matrix(payload, parse_zlaurent)


# -- operators -------------------------------------------------------


def pdo_payload(op: MatrixPsiDO) -> dict:
    terms = [[m, xmatrix_payload(op.terms[m])] for m in sorted(op.terms)]
    return {"lo": op.lo, "n": op.n, "terms": terms,
            "xprec": op.xprec()}


def parse_pdo(payload) -> MatrixPsiDO:
    try:
        n = int(payload["n"])
        lo = payload["lo"]
        terms = {int(m): parse_xmatrix(rows) for m, rows in payload["terms"]}
    except (KeyError, TypeError, ValueError) as err:
        raise DomainError(f"malformed operator payload: {payload!r}") from err
    return MatrixPsiDO(n, terms, None if lo is None else int(lo))


# -- Grassmannian points and algebras --------------------------------


def grasspoint_payload(pt: GrassPoint) -> dict:
    columns = [[zlaurent_payload(c) for c in col] for col in pt.columns]
    return {"S": pt.stable_from, "columns": columns, "n": pt.n}


def parse_grasspoint(payload) -> GrassPoint:
    try:
        n = int(payload["n"])
        stable = int(payload["S"])
        columns = [tuple(parse_zlaurent(c) for c in col)
                   for col in payload["columns"]]
    except (KeyError, TypeError, ValueError) as err:
        raise DomainError(f"malformed point payload: {payload!r}") from err
    return GrassPoint(n, columns, stable)


def algebra_payload(spec: AlgebraSpec) -> dict:
    return {
        "diag_gens": [zlaurent_payload(d) for d in spec.diag_gens],
        "gens": [zmatrix_payload(g) for g in spec.gens],
        "n": spec.n,
    }


def parse_algebra(payload) -> AlgebraSpec:
    try:
        n = int(payload["n"])
        gens = [parse_zmatrix(g) for g in payload["gens"]]
        diag = [parse_zlaurent(d) for d in payload["diag_gens"]]
    except (KeyError, TypeError, ValueError) as err:
        raise DomainError(f"malformed algebra payload: {payload!r}") from err
    return AlgebraSpec(n, gens, diag)


# -- tagged dispatch -------------------------------------------------

# tag -> (payload writer, payload parser)
_CODECS = {
    "scalar": (scalar_payload, parse_scalar),
    "xseries": (xseries_payload, parse_xseries),
    "zlaurent": (zlaurent_payload, parse_zlaurent),
    "qmatrix": (qmatrix_payload, parse_qmatrix),
    "xmatrix": (xmatrix_payload, parse_xmatrix),
    "zmatrix": (zmatrix_payload, parse_zmatrix),
    "pdo": (pdo_payload, parse_pdo),
    "grasspoint": (grasspoint_payload, parse_grasspoint),
    "algebra": (algebra_payload, parse_algebra),
}


def _matrix_tag(mat: Matrix) -> str:
    kinds = {type(e) for row in mat.rows for e in row}
    if kinds <= {Fraction, int}:
        return "qmatrix"
    if kinds == {XSeries}:
        return "xmatrix"
    if kinds == {ZLaurent}:
        return "zmatrix"
    raise DomainError("matrix entries must all be rationals, all x-series "
                      "or all z-series")


def value_tag(value) -> str:
    if isinstance(value, (Fraction, int)):
        return "scalar"
    if isinstance(value, XSeries):
        return "xseries"
    if isinstance(value, ZLaurent):
        return "zlaurent"
    if isinstance(value, Matrix):
        return _matrix_tag(value)
    if isinstance(value, MatrixPsiDO):
        return "pdo"
    if isinstance(value, GrassPoint):
        return "grasspoint"
    if isinstance(value, AlgebraSpec):
        return "algebra"
    raise DomainError(f"cannot serialize values of type {type(value).__name__}")


def value_payload(value):
    return _CODECS[value_tag(value)][0](value)


def parse_value(tag: str, payload):
    codec = _CODECS.get(tag)
    if codec is None:
        raise DomainError(f"unknown value tag {tag!r}")
    return codec[1](payload)


# -- session files ---------------------------------------------------


class Session:
    """Named bindings of domain values plus the precision context."""

    __slots__ = ("context", "bindings")

    def __init__(self, context=None):
        self.context = dict(DEFAULT_CONTEXT)
        if context:
            for key, val in context.items():
                if key not in DEFAULT_CONTEXT:
                    raise DomainError(f"unknown context key {key!r}")
                lo, hi = CONTEXT_BOUNDS[key]
                if type(val) is not int or not lo <= val <= hi:
                    raise DomainError(f"context {key} must be an integer in "
                                      f"[{lo}, {hi}], got {val!r}")
                self.context[key] = val
        self.bindings = {}

    def set(self, name: str, value):
        if not _NAME_RE.match(name):
            raise DomainError(f"binding names must be identifiers, got {name!r}")
        self.bindings[name] = value

    def get(self, name: str):
        if name not in self.bindings:
            raise DomainError(f"no binding named {name!r} in the session")
        return self.bindings[name]

    def names(self, tag=None):
        out = []
        for name in sorted(self.bindings):
            if tag is None or value_tag(self.bindings[name]) == tag:
                out.append(name)
        return out

    def as_dict(self) -> dict:
        bindings = {name: {"type": value_tag(val), "value": value_payload(val)}
                    for name, val in self.bindings.items()}
        return {
            "bindings": bindings,
            "context": dict(self.context),
            "format": FORMAT_NAME,
            "version": FORMAT_VERSION,
        }

    def dumps(self) -> str:
        return canonical_json(self.as_dict())

    def save(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.dumps())

    @classmethod
    def loads(cls, text: str) -> "Session":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as err:
            raise DomainError(f"session file is not valid JSON: {err}") from err
        if not isinstance(data, dict):
            raise DomainError("session file must hold a JSON object")
        if data.get("format") != FORMAT_NAME:
            raise DomainError("not a session file (missing format marker)")
        if data.get("version") != FORMAT_VERSION:
            raise DomainError(f"unsupported session version {data.get('version')!r}")
        ses = cls(data.get("context") or {})
        for name, entry in (data.get("bindings") or {}).items():
            if not isinstance(entry, dict) or "type" not in entry:
                raise DomainError(f"binding {name!r} is missing its type tag")
            ses.set(name, parse_value(entry["type"], entry.get("value")))
        return ses

    @classmethod
    def load(cls, path) -> "Session":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.loads(fh.read())
