"""End-to-end chains between frames, algebras, and operator families.

Forward: a frame in the big cell plus a stabilizing algebra of
constant-coefficient matrices dresses into a family of commuting
differential operators.  Backward: a commuting family containing a
monic operator dresses that operator to a constant power of D, reads
the whole family off as constant-coefficient matrices, and reports the
curve data of the algebra they generate together with the frame the
dressing carries.

The backward dressing is psidocalc.dress_to_constant, re-exported here.
Its normalization fixes every integration constant to zero, so
recursion results are canonical; a monic operator whose subleading
coefficient does not vanish has no dressing of this normalized shape
and is rejected rather than silently renormalized.  Neither direction
forms S^-1: psidocalc.divide_dressing reads the constants C_i off
P_i o S = S o C_i, and each forward operator L off L o S = S o G.
"""

from __future__ import annotations

from .exactcore import (
    DEFAULT_DEPTH,
    DEFAULT_XPREC,
    DomainError,
    PrecisionError,
)
from .psidocalc import (
    MatrixPsiDO,
    commutator,
    divide_dressing,
    dress_to_constant,
    order_and_monicity,
)
from .sato import (
    GrassPoint,
    dressing_from_point,
    point_from_dressing,
    points_equal,
    stabilizes,
    to_laurent,
)
from .curvedata import (
    AlgebraSpec,
    charpoly_string,
    condition_report,
    is_cyclic,
    matrix_order,
    semigroup_report,
    spectral_charpoly,
)

__all__ = [
    "BackwardResult",
    "ForwardResult",
    "VerifyReport",
    "dress_to_constant",
    "geometric_to_operators",
    "operators_to_geometric",
    "round_trip",
    "verify_commutative",
]


class VerifyReport:
    """Pairwise commutativity of an operator family, with witnesses."""

    __slots__ = ("ok", "witnesses")

    def __init__(self, ok, witnesses):
        self.ok = ok
        self.witnesses = witnesses

    def as_dict(self):
        return {
            "ok": self.ok,
            "witnesses": [{"left": i, "right": j, "commutator": repr(c)}
                          for i, j, c in self.witnesses],
        }

    def __repr__(self):
        return f"VerifyReport(ok={self.ok}, witnesses={len(self.witnesses)})"


def verify_commutative(ops) -> VerifyReport:
    ops = list(ops)
    witnesses = []
    for i, p in enumerate(ops):
        for j in range(i + 1, len(ops)):
            c = commutator(p, ops[j])
            if not c.is_zero():
                witnesses.append((i, j, c))
    return VerifyReport(not witnesses, witnesses)


class ForwardResult:
    """Operators dressed from a frame and its stabilizing algebra."""

    __slots__ = ("point", "spec", "dressing", "operators", "differential",
                 "commuting")

    def __init__(self, point, spec, dressing, operators, differential,
                 commuting):
        self.point = point
        self.spec = spec
        self.dressing = dressing
        self.operators = operators
        self.differential = differential
        self.commuting = commuting

    def __repr__(self):
        return (f"ForwardResult(operators={len(self.operators)}, "
                f"differential={self.differential}, "
                f"commuting={self.commuting})")


def geometric_to_operators(point: GrassPoint, spec: AlgebraSpec,
                           depth=None, nx=None, window=None) -> ForwardResult:
    """Dress a stabilizing algebra into commuting differential operators.

    The frame must lie in the big cell and every generator must map the
    frame span into itself; both are checked before solving for the
    dressing of the given depth and coefficient degree.
    """
    if depth is None:
        depth = DEFAULT_DEPTH
    if nx is None:
        nx = DEFAULT_XPREC
    if window is None:
        window = DEFAULT_DEPTH
    if spec.n != point.n:
        raise DomainError("algebra size does not match the frame")
    rep = point.fredholm_report()
    if (rep.h0, rep.h1) != (0, 0):
        raise DomainError("frame is not in the big cell, no dressing "
                          "exists")
    gens = spec.matrices()
    for i, g in enumerate(gens):
        if not stabilizes(point, g):
            raise DomainError(f"generator {i} does not map the frame span "
                              "into itself")
    s = dressing_from_point(point, depth=depth, nx=nx)
    # L = S o G o S^-1 solves L o S = S o G
    operators = [divide_dressing(s, s * MatrixPsiDO.from_laurent(g), window,
                                 right=True) for g in gens]
    differential = [op.split()[1].is_zero() for op in operators]
    commuting = verify_commutative(operators).ok
    return ForwardResult(point, spec, s, operators, differential, commuting)


class BackwardResult:
    """Curve data recovered from a commuting family of operators.

    fredholm is None when the frame windows do not certify the counts;
    fredholm_reason then holds the PrecisionError message that says why.
    """

    __slots__ = ("dressing", "constants", "spec", "semigroup",
                 "condition", "charpoly", "charpoly_str", "point",
                 "fredholm", "fredholm_reason", "monic_factors")

    def __init__(self, dressing, constants, spec, semigroup, condition,
                 charpoly, charpoly_str, point, fredholm, fredholm_reason,
                 monic_factors):
        self.dressing = dressing
        self.constants = constants
        self.spec = spec
        self.semigroup = semigroup
        self.condition = condition
        self.charpoly = charpoly
        self.charpoly_str = charpoly_str
        self.point = point
        self.fredholm = fredholm
        self.fredholm_reason = fredholm_reason
        self.monic_factors = monic_factors

    @property
    def monic_index(self):
        """Index of the dressed operator, or of its first factor."""
        return self.monic_factors[0]

    def __repr__(self):
        return (f"BackwardResult(genus={self.semigroup.genus}, "
                f"charpoly={self.charpoly_str!r})")


def _is_monic(p):
    try:
        r, monic = order_and_monicity(p)
    except (DomainError, PrecisionError):
        return False
    return monic and r >= 1


def _find_monic(ops):
    # An operator with identity leading coefficient, searched among the
    # given family and then among its pairwise products, each tested as
    # it is formed.  Returns it with its factor indices: (i,) for a
    # member of the family, (i, j) for the product P_i o P_j.
    for i, p in enumerate(ops):
        if _is_monic(p):
            return p, (i,)
    for i, p in enumerate(ops):
        for j, q in enumerate(ops):
            c = p * q
            if _is_monic(c):
                return c, (i, j)
    raise DomainError("no operator in the family, nor any pairwise "
                      "product, has an identity leading coefficient")


def operators_to_geometric(ops, depth=None) -> BackwardResult:
    """Recover constant-coefficient data and curve reports from a
    commuting family of differential operators: with S dressing a monic
    member (or product of two) to D^r, each C_i solves P_i o S = S o C_i
    and must be constant in x."""
    ops = list(ops)
    if not ops:
        raise DomainError("need at least one operator")
    if depth is None:
        depth = DEFAULT_DEPTH
    check = verify_commutative(ops)
    if not check.ok:
        i, j, text = check.witnesses[0]
        raise DomainError(f"operators {i} and {j} do not commute; "
                          f"[P{i}, P{j}] = {text}")
    for i, p in enumerate(ops):
        if not p.is_differential_shape():
            raise DomainError(f"operator {i} is not differential")
    monic, monic_factors = _find_monic(ops)
    s = dress_to_constant(monic, depth=depth)
    constants = []
    for i, p in enumerate(ops):
        c = divide_dressing(s, p * s, depth)
        if not c.is_constant_coefficient():
            raise DomainError(f"operator {i} does not conjugate to "
                              "constant coefficients under the dressing")
        constants.append(to_laurent(c))
    n = ops[0].n
    spec = AlgebraSpec(n, constants)
    semi = semigroup_report([matrix_order(g) for g in constants])
    try:
        cond = condition_report(spec)
    except PrecisionError:
        cond = None
    charpoly = None
    charstr = None
    for g in constants:
        try:
            cyclic = is_cyclic(g)
        except PrecisionError:
            continue
        if cyclic:
            charpoly = spectral_charpoly(g)
            charstr = charpoly_string(charpoly)
            break
    point = point_from_dressing(s)
    fred = reason = None
    try:
        fred = point.fredholm_report()
    except PrecisionError as exc:
        reason = str(exc)
    return BackwardResult(s, constants, spec, semi, cond, charpoly, charstr,
                          point, fred, reason, monic_factors)


def round_trip(point: GrassPoint, spec: AlgebraSpec, depth=None, nx=None,
               window=None):
    """Forward to operators, backward to a frame, and span comparison.

    Returns (forward, backward, equal).  Equality of the recovered frame
    with the original certifies the chain whenever the canonical
    zero-constant normalization of the backward dressing matches the
    forward one.
    """
    fwd = geometric_to_operators(point, spec, depth=depth, nx=nx,
                                 window=window)
    back = operators_to_geometric(fwd.operators, depth=depth)
    equal = points_equal(point, back.point)
    return fwd, back, equal
