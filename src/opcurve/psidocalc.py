"""Matrix pseudodifferential operators in left-normal form.

An operator is a finite window of terms a_m(x) * D^m where D = d/dx, the
a_m are square matrices of truncated power series, and m ranges over
integers of either sign (D^-1 is the formal integration symbol).  The
canonical form always keeps coefficients to the left of powers of D.

Composition is the generalized Leibniz rule

    D^m o a(x) = sum_{j>=0} binom(m, j) a^(j)(x) D^(m-j)

with binom(m, j) = m(m-1)...(m-j+1)/j!, valid for negative m as well.
One private kernel evaluates it: _leibniz_coeff picks the terms of the
rule that reach a single degree of a product, and exactcore.leibniz_sum
adds them over integers, reading each derivative in closed form from the
stored numerators.  _end says where the derivatives of a coefficient
matrix stop, exactly or at its x-precision, and _Terms keeps that end
beside each coefficient of a right factor, so a solve reads it once per
coefficient rather than once per degree.  compose(),
divide_dressing(), dress_to_constant() and rth_root() are its only
callers; the last three solve for one new coefficient per degree from the
ones before it.  divide_dressing() reads S^-1 o A off S o X = A, as the
backward pipeline does for its constants, or A o S^-1 off X o S = A, as
the forward pipeline does for its operators; invert_dressing() is its
case A = I.  In compose() the sum is truncated by two effects:

* degrees below the derived window floor are dropped as untracked, and
* a term whose x-precision is exhausted poisons every lower degree.

The degree floor of a product is max(lo(P) + order(Q), order(P) + lo(Q)),
because the untracked tail of one factor meets the top term of the other
there; divide_dressing() keeps both rules for S^-1 o A and A o S^-1.

An operator with lo=None is exactly known: all degrees below its lowest
stored term are exactly zero, which is what makes constant-coefficient
algebra (where Leibniz sums terminate) exact end to end.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import inf

from .exactcore import (
    DEFAULT_DEPTH,
    DimensionError,
    DomainError,
    Matrix,
    PrecisionError,
    XSeries,
    ZLaurent,
    leibniz_sum,
    min_prec,
    power,
)


@lru_cache(maxsize=None)
def binom(m: int, j: int) -> Fraction:
    """Generalized binomial coefficient m(m-1)...(m-j+1)/j! for integer m."""
    num = 1
    den = 1
    for t in range(j):
        num *= m - t
        den *= t + 1
    return Fraction(num, den)


def _zero_matrix(n: int) -> Matrix:
    return Matrix.filled(n, XSeries.zero())


def _is_exact_zero(mat: Matrix) -> bool:
    return all(e.exact and e.is_zero() for row in mat.rows for e in row)


def _end(mat: Matrix) -> int:
    """The first derivative order of mat that is exactly zero or that lies
    beyond its x-precision."""
    p = min_prec(e for row in mat.rows for e in row)
    if p is not None:
        return p
    return 1 + max(e.degree_bound() for row in mat.rows for e in row)


class _Terms(dict):
    """Degree -> coefficient of the right factor of a Leibniz sum.

    ends[k] is the derivative order from which every derivative of the
    degree-k coefficient is an exact zero: _end of a coefficient whose
    entries are all exact, inf otherwise.  Each assignment keeps it, so a
    solve that grows or updates its terms reads every end once per value.
    """

    def __init__(self, terms=()):
        super().__init__()
        self.ends = {}
        for k, mat in dict(terms).items():
            self[k] = mat

    def __setitem__(self, k, mat):
        super().__setitem__(k, mat)
        exact = all(e.exact for row in mat.rows for e in row)
        self.ends[k] = _end(mat) if exact else inf


def _leibniz_coeff(n: int, a_terms, b_terms: _Terms, deg: int) -> Matrix:
    """Coefficient of D^deg in A o B by the generalized Leibniz rule.

    a_terms maps each degree of A to its n x n coefficient, and b_terms
    each degree of B.  The result is the sum of binom(m, j) a_m b_k^(j)
    over m + k - j = deg, formed by exactcore.leibniz_sum as one product
    a_m (sum_k binom(m, j) b_k^(j)) per a_m, each derivative read in
    closed form from b_k's integer numerators; it is exactly zero when no
    term reaches deg.  Raises PrecisionError when a needed derivative lies
    beyond x-precision.
    """
    groups = []
    for m, a in a_terms.items():
        parts = []
        for k, b in b_terms.items():
            j = m + k - deg
            # an exact b_k has exactly zero derivatives from order
            # ends[k] on, so those terms add nothing, not even a window
            if j < 0 or 0 <= m < j or j >= b_terms.ends[k]:
                continue
            parts.append((b, j, binom(m, j)))
        if parts:
            groups.append((a, parts))
    return leibniz_sum(n, groups)


class MatrixPsiDO:
    """Square-matrix pseudodifferential operator, left-normal form.

    terms maps D-degree to an n x n Matrix of XSeries; lo is the lowest
    guaranteed degree (degrees below lo are untracked), or None when every
    absent degree is exactly zero.  Instances are immutable.
    """

    __slots__ = ("n", "terms", "lo")

    def __init__(self, n: int, terms, lo=None):
        if n < 1:
            raise DimensionError("operator size must be at least 1")
        clean = {}
        for m, mat in dict(terms).items():
            m = int(m)
            if lo is not None and m < lo:
                continue
            if not isinstance(mat, Matrix) or mat.n != n:
                raise DimensionError(f"coefficient at degree {m} is not {n}x{n}")
            if _is_exact_zero(mat):
                continue
            clean[m] = mat
        self.n = n
        self.terms = clean
        self.lo = lo

    # -- constructors ------------------------------------------------

    @classmethod
    def identity(cls, n: int = 1) -> "MatrixPsiDO":
        return cls(n, {0: Matrix.identity(n, XSeries.one())})

    @classmethod
    def d(cls, m: int = 1, n: int = 1) -> "MatrixPsiDO":
        """The operator D^m * I_n."""
        return cls(n, {m: Matrix.identity(n, XSeries.one())})

    @classmethod
    def from_xseries(cls, s: XSeries, n: int = 1) -> "MatrixPsiDO":
        """Multiplication operator by a scalar series."""
        return cls(n, {0: Matrix.identity(n, XSeries.one()).map(lambda e: e * s)})

    @classmethod
    def from_scalars(cls, terms, lo=None) -> "MatrixPsiDO":
        """Scalar (1x1) operator from a map degree -> XSeries."""
        return cls(1, {m: Matrix([[s if isinstance(s, XSeries) else XSeries.constant(s)]])
                       for m, s in dict(terms).items()}, lo)

    @classmethod
    def from_laurent(cls, val) -> "MatrixPsiDO":
        """Embed a Laurent series (or matrix of them) as the constant
        coefficient operator with z = D^-1, so z^k becomes D^-k."""
        if isinstance(val, ZLaurent):
            val = Matrix([[val]])
        if not isinstance(val, Matrix):
            raise DomainError("from_laurent expects a ZLaurent or a Matrix of them")
        n = val.n
        lo = None
        for row in val.rows:
            for e in row:
                if not isinstance(e, ZLaurent):
                    raise DomainError("matrix entries must be ZLaurent")
                if e.prec is not None:
                    lo = -e.prec if lo is None else max(lo, -e.prec)
        terms = {}
        for i in range(n):
            for j in range(n):
                for k, c in val.rows[i][j].items():
                    deg = -k
                    if lo is not None and deg < lo:
                        continue
                    if deg not in terms:
                        terms[deg] = [[XSeries.zero()] * n for _ in range(n)]
                    terms[deg][i][j] = XSeries.constant(c)
        return cls(n, {m: Matrix(rows) for m, rows in terms.items()}, lo)

    # -- inspection --------------------------------------------------

    @property
    def exact(self) -> bool:
        return self.lo is None

    def xprec(self):
        """Smallest coefficient precision present, None when all exact."""
        return min_prec(e for mat in self.terms.values()
                        for row in mat.rows for e in row)

    def degrees(self):
        return sorted(self.terms)

    def coeff(self, m: int) -> Matrix:
        if self.lo is not None and m < self.lo:
            raise PrecisionError(f"degree {m} below tracked window (lo={self.lo})")
        return self.terms.get(m, _zero_matrix(self.n))

    def order(self) -> int:
        """Largest degree whose coefficient is nonzero within precision."""
        live = [m for m, mat in self.terms.items() if not mat.is_zero()]
        if not live:
            if self.exact:
                raise DomainError("order of the zero operator is undefined")
            raise PrecisionError("order undetermined at this precision")
        return max(live)

    def is_differential_shape(self) -> bool:
        """No negative-degree term is nonzero within precision."""
        return all(mat.is_zero() for m, mat in self.terms.items() if m < 0)

    def is_constant_coefficient(self) -> bool:
        """Every tracked coefficient is constant in x within precision."""
        for mat in self.terms.values():
            for row in mat.rows:
                for e in row:
                    if e.degree_bound() > 0:
                        return False
        return True

    # -- ring operations ----------------------------------------------

    def _check(self, other):
        if not isinstance(other, MatrixPsiDO):
            raise DimensionError("expected a MatrixPsiDO")
        if other.n != self.n:
            raise DimensionError("operator sizes differ")

    def __add__(self, other):
        if not isinstance(other, MatrixPsiDO):
            return NotImplemented
        self._check(other)
        lo = None
        if self.lo is not None or other.lo is not None:
            lo = max(x for x in (self.lo, other.lo) if x is not None)
        terms = {}
        for m in set(self.terms) | set(other.terms):
            if lo is not None and m < lo:
                continue
            a = self.terms.get(m)
            b = other.terms.get(m)
            terms[m] = a + b if a is not None and b is not None else (a or b)
        return MatrixPsiDO(self.n, terms, lo)

    def __neg__(self):
        return MatrixPsiDO(self.n, {m: -mat for m, mat in self.terms.items()}, self.lo)

    def __sub__(self, other):
        if not isinstance(other, MatrixPsiDO):
            return NotImplemented
        return self + (-other)

    def scale(self, a) -> "MatrixPsiDO":
        return MatrixPsiDO(self.n, {m: mat.map(lambda e: e.scale(a))
                                    for m, mat in self.terms.items()}, self.lo)

    def __mul__(self, other):
        if not isinstance(other, MatrixPsiDO):
            return NotImplemented
        return compose(self, other)

    def __pow__(self, e: int):
        if not isinstance(e, int) or e < 0:
            raise DomainError("operator powers require a nonnegative integer")
        return power(self, e, MatrixPsiDO.identity(self.n))

    def split(self):
        """Split into (differential part, strictly negative part).

        The differential part has every degree >= 0; when the window floor
        reaches 0 or below, its absent negative degrees are exact zeros.
        """
        plus_lo = None if self.lo is None or self.lo <= 0 else self.lo
        plus = MatrixPsiDO(self.n, {m: mat for m, mat in self.terms.items() if m >= 0},
                           plus_lo)
        minus = MatrixPsiDO(self.n, {m: mat for m, mat in self.terms.items() if m < 0},
                            self.lo)
        return plus, minus

    # -- comparison and display ---------------------------------------

    def __eq__(self, other):
        if not isinstance(other, MatrixPsiDO) or other.n != self.n:
            return NotImplemented
        floor = -inf
        for x in (self.lo, other.lo):
            if x is not None:
                floor = max(floor, x)
        for m in set(self.terms) | set(other.terms):
            if m < floor:
                continue
            a = self.terms.get(m, _zero_matrix(self.n))
            b = other.terms.get(m, _zero_matrix(self.n))
            if not a == b:
                return False
        return True

    __hash__ = None

    def is_zero(self) -> bool:
        return all(mat.is_zero() for mat in self.terms.values())

    def __repr__(self):
        if not self.terms:
            body = "0"
        else:
            parts = []
            for m in sorted(self.terms, reverse=True):
                mat = self.terms[m]
                if self.n == 1:
                    c = f"({mat.rows[0][0]})"
                else:
                    c = repr(mat)
                if m == 0:
                    parts.append(c)
                else:
                    parts.append(f"{c}*D^{m}")
            body = " + ".join(parts)
        tail = "" if self.lo is None else f" + O(D^{self.lo - 1})"
        return f"MatrixPsiDO({body}{tail})"


def compose(p: MatrixPsiDO, q: MatrixPsiDO) -> MatrixPsiDO:
    """Product of two operators by the generalized Leibniz rule.

    This is the only place where the truncation policy is applied: the
    output floor max(lo(P)+order(Q), order(P)+lo(Q)) drops degrees the
    untracked tails could pollute, and a needed derivative beyond
    x-precision poisons every degree at and below its stopping point.
    """
    p._check(q)
    n = p.n
    # highest degree that could carry a nonzero coefficient; None means the
    # operator is exactly zero
    p_top = max(p.terms) if p.terms else (None if p.lo is None else p.lo - 1)
    q_top = max(q.terms) if q.terms else (None if q.lo is None else q.lo - 1)
    if p_top is None or q_top is None:
        return MatrixPsiDO(n, {})
    cands = []
    if p.lo is not None:
        cands.append(p.lo + q_top)
    if q.lo is not None:
        cands.append(p_top + q.lo)
    floor = max(cands) if cands else None

    if floor is None:
        # exact in degree: each pair's sum ends at j = m, or for m < 0 where
        # the derivatives of its Q coefficient end
        bottom = min(k if m >= 0 else m + k - _end(q.terms[k])
                     for m in p.terms for k in q.terms)
    else:
        bottom = floor

    q_terms = _Terms(q.terms)
    acc: dict[int, Matrix] = {}
    for deg in range(p_top + q_top, bottom - 1, -1):
        try:
            acc[deg] = _leibniz_coeff(n, p.terms, q_terms, deg)
        except PrecisionError:
            # x-precision exhausted: this and all lower degrees are unknown
            floor = deg + 1 if floor is None else max(floor, deg + 1)
            break
    return MatrixPsiDO(n, acc, floor)


def commutator(p: MatrixPsiDO, q: MatrixPsiDO) -> MatrixPsiDO:
    return compose(p, q) - compose(q, p)


def order_and_monicity(p: MatrixPsiDO):
    """(order, leading coefficient == identity) for a nonzero operator."""
    r = p.order()
    return r, p.terms[r] == Matrix.identity(p.n, XSeries.one())


def is_dressing(s: MatrixPsiDO) -> bool:
    """Identity plus strictly negative degrees, within precision.

    Exact-zero coefficients are never stored, so a stored positive degree
    is nonzero or zero only on its x-window; either way the inputs do not
    make it vanish, and the operator is refused."""
    if s.lo is not None and s.lo > 0:
        return False
    if any(m > 0 for m in s.terms):
        return False
    return s.coeff(0) == Matrix.identity(s.n, XSeries.one())


def divide_dressing(s: MatrixPsiDO, a: MatrixPsiDO, depth: int,
                    right: bool = False) -> MatrixPsiDO:
    """X = S^-1 o A for a dressing S, or A o S^-1 when right, with S^-1
    tracked to degree -depth.

    Comparing D^deg in S o X = A gives s_0 x_deg = a_deg minus the Leibniz
    sum of the s_m x_k^(j) with m < 0; in X o S = A, x_deg s_0 = a_deg
    minus the sum of the other x_k s_m^(j), whose derivatives fall on S,
    s_0 among them.  Both draw only on x_k with k > deg, so each x_deg
    follows from the ones above it, with s_0^-1 the identity cut at the
    window of s_0.  A needed derivative beyond x-precision leaves that
    degree and every lower one unknown, as in compose().
    """
    if not is_dressing(s):
        raise DomainError("not a dressing operator: expected I + lower-degree terms")
    s._check(a)
    n = s.n
    ident = Matrix.identity(n, XSeries.one())
    p = min_prec(e for row in s.coeff(0).rows for e in row)
    t0 = ident if p is None else ident.map(lambda e: e.truncate(p))
    svals = {m: mat for m, mat in s.terms.items() if m < 0}
    if s.lo is None and not svals and (p is None or not right):
        # a lone s_0 divides degree by degree, on the right only if exact;
        # any other S^-1 has terms at every depth (1 + D^-2 has t_-1 = 0)
        return MatrixPsiDO(n, {m: t0 * mat for m, mat in a.terms.items()},
                           a.lo)
    top = max(a.terms) if a.terms else (None if a.lo is None else a.lo - 1)
    if top is None:
        return MatrixPsiDO(n, {})
    # X = T o A or A o T for T = S^-1, whose degrees run from top(T) = 0
    # down to lo(T) = max(-depth, lo(S)): T is solved to degree -depth, and
    # a term s_m that S does not track (m < lo(S)) first enters T at degree
    # m.  Either way x_deg draws on t_k and a_l with k + l >= deg, down to
    # t_(deg-top(A)) and to t_0 a_deg, so it is known down to compose's
    # floor max(lo(T) + top(A), top(T) + lo(A)), the same for both orders.
    floor = top - depth
    if s.lo is not None:
        floor = max(floor, s.lo + top)
    if a.lo is not None:
        floor = max(floor, a.lo)
    terms = _Terms()
    # on the right the derivatives fall on S, s_0 too (an exact I has end 1)
    factors = ((terms, _Terms({0: s.coeff(0), **svals})) if right
               else (svals, terms))
    for deg in range(top, floor - 1, -1):
        try:
            acc = _leibniz_coeff(n, *factors, deg)
        except PrecisionError:
            floor = deg + 1
            break
        b = a.terms.get(deg)
        rhs = -acc if b is None else b - acc
        terms[deg] = rhs if p is None else (rhs * t0 if right else t0 * rhs)
    return MatrixPsiDO(n, terms, floor)


def invert_dressing(s: MatrixPsiDO, depth=None) -> MatrixPsiDO:
    """Two-sided inverse of S = I + (negative degrees), divide_dressing
    with A = I, tracked down to degree -depth and the window of S.  An
    x-precision that runs out above that floor is an error here.
    """
    if depth is None:
        depth = DEFAULT_DEPTH if s.lo is None else -s.lo
    t = divide_dressing(s, MatrixPsiDO.identity(s.n), depth)
    lo = -depth if s.lo is None else max(-depth, s.lo)
    if t.lo is not None and t.lo > lo:
        raise PrecisionError(
            f"x-precision exhausted inverting at depth {1 - t.lo}")
    return t


def dress_to_constant(p: MatrixPsiDO, depth=None) -> MatrixPsiDO:
    """Dressing S with P o S = S o D^r for a monic differential P.

    Solved degree by degree: comparing the coefficient of D^(r-k) forces
    r * s_(k-1)' to equal minus the lower-order data, and integration
    with zero constant makes the answer canonical.  The first comparison
    forces the subleading coefficient of P to vanish; operators that
    fail this carry no dressing of the normalized shape.
    """
    r, monic = order_and_monicity(p)
    if not monic:
        raise DomainError("dressing to a constant power needs an identity "
                          "leading coefficient")
    if r < 1 or not p.is_differential_shape():
        raise DomainError("dressing to a constant power needs a "
                          "differential operator of positive order")
    n = p.n
    if p.lo is not None and p.lo > 0:
        raise PrecisionError("coefficients below the order window are "
                             "unknown, cannot dress")
    if depth is None:
        depth = DEFAULT_DEPTH
    if not p.coeff(r - 1).is_zero():
        raise DomainError("subleading coefficient must vanish for the "
                          "normalized dressing")
    if p.exact and p.xprec() is None and p == MatrixPsiDO.d(r, n):
        # only an exactly known D^r is dressed by exactly I; a coefficient
        # that is zero on a window leaves S unknown beyond it
        return MatrixPsiDO.identity(n)
    # only P's degrees 0 .. r-2 and its identity top enter the sum; its
    # other stored degrees are zero within precision and would add nothing
    # but their windows
    ident = Matrix.identity(n, XSeries.one())
    p_terms = {m: mat for m, mat in p.terms.items() if 0 <= m < r - 1}
    p_terms[r] = ident
    s_terms = _Terms({0: ident})
    for d in range(1, depth + 1):
        # s_d' is fixed by the coefficient of D^(r-1-d), whose other terms
        # draw on s_0 .. s_(d-1) only
        try:
            rhs = _leibniz_coeff(n, p_terms, s_terms, r - 1 - d)
        except PrecisionError:
            raise PrecisionError("x-precision exhausted in dress_to_constant "
                                 f"at depth {d}") from None
        s_terms[-d] = rhs.map(lambda e: e.scale(-1).integral().scale(
            Fraction(1, r)))
    return MatrixPsiDO(n, s_terms, -depth)


def rth_root(p: MatrixPsiDO, r: int, depth=None) -> MatrixPsiDO:
    """Monic r-th root of a monic operator of order r.

    R starts as D*I and gains one coefficient c_(-t) per step t.  The
    coefficients of R^k for k < r are kept degree by degree: with c_(-t)
    still zero, the kernel gives V_k, the coefficient of D^(k-1-t) in
    R o R^(k-1), for k = 2 .. r, and c_(-t) enters R^k there only as
    k c_(-t).  So c_(-t) = (p_(r-1-t) - V_r)/r, a linear solve with the
    invertible scalar r, and k c_(-t) completes each V_k.  Every free
    additive constant that could enter is pinned to zero by the
    construction, so the answer is the canonical normalized root.
    """
    if r < 1:
        raise DomainError(f"root order must be at least 1, got {r}")
    rr, monic = order_and_monicity(p)
    if rr != r or not monic:
        raise DomainError(f"need a monic operator of order exactly {r}")
    n = p.n
    if depth is None:
        depth = DEFAULT_DEPTH
    ident = Matrix.identity(n, XSeries.one())
    # powers[k] maps degree -> coefficient of R^k found so far, k < r
    root = _Terms({1: ident})
    powers = [None, root] + [_Terms({k: ident}) for k in range(2, r)]
    steps = 0
    while steps < depth:
        deg = r - 1 - steps
        if p.lo is not None and deg < p.lo:
            break  # cannot certify further corrections at this window
        v = _zero_matrix(n)  # V_1: R itself has no degree -t yet
        try:
            for k in range(2, r + 1):
                v = _leibniz_coeff(n, root, powers[k - 1], k - 1 - steps)
                if k < r:
                    powers[k][k - 1 - steps] = v
        except PrecisionError:
            break  # x-precision cannot certify the next correction
        c = (p.coeff(deg) - v).map(lambda e: e.scale(Fraction(1, r)))
        if p.exact and _is_exact_zero(c):
            # R^r may already equal P exactly, which makes R the root
            diff = p - MatrixPsiDO(n, root) ** r
            if diff.exact and not diff.terms:
                return MatrixPsiDO(n, root)
        root[-steps] = c
        for k in range(2, r):
            powers[k][k - 1 - steps] += c.map(lambda e: e.scale(k))
        steps += 1
    return MatrixPsiDO(n, root, 1 - steps)
