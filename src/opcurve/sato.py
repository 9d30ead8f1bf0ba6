"""Column modules over truncated Laurent series and Grassmannian frames.

Operators act on columns of Laurent series once D is read as
multiplication by z^-1 and x as the derivation z^2 d/dz, so that
x^l z^q = q (q+1) ... (q+l-1) z^(q+l).  A subspace is presented by a
frame: finitely many exceptional columns together with every standard
basis column from a stabilization class onward.  Classes are counted
along the pole filtration, class s naming the column z^(-(s//n)) e_(s%n),
so larger classes mean deeper poles and the positive-exponent side sits
at negative classes.

All reports come from exact rational elimination over the finitely many
coordinate classes the inputs determine.  Window bookkeeping follows the
same pessimistic rule as the series layer: a coordinate is used only
when every contribution to it is guaranteed.
"""

from __future__ import annotations

from itertools import chain
from math import inf, lcm

from .exactcore import (
    DimensionError,
    DomainError,
    Matrix,
    PrecisionError,
    XSeries,
    ZLaurent,
    min_prec,
    rank,
    rref,  # unused here, but bench/test_bench.py reads sato.rref
    solve,
    solve_system,
    x_power_items,
    xd_action,
)
from .psidocalc import MatrixPsiDO, is_dressing, invert_dressing

__all__ = [
    "FredholmReport",
    "GrassPoint",
    "basis_column",
    "dressing_from_point",
    "is_differential_by_action",
    "laurent_action",
    "module_action",
    "point_from_dressing",
    "points_equal",
    "stabilizes",
    "to_laurent",
    "x_action",
]


def basis_column(s: int, n: int):
    """Standard column of class s: z^(-(s//n)) at component s % n."""
    col = [ZLaurent.zero() for _ in range(n)]
    col[s % n] = ZLaurent.monomial(-(s // n))
    return tuple(col)


def _as_vector(vec, n):
    vec = tuple(vec)
    if len(vec) != n:
        raise DimensionError(f"expected a column of length {n}, got {len(vec)}")
    for w in vec:
        if not isinstance(w, ZLaurent):
            raise DomainError("column entries must be Laurent series")
    return vec


def module_action(op: MatrixPsiDO, vec):
    """Apply an operator to a Laurent column, tracking windows.

    Entry i sums s D^m w over the terms of row i and the column entries
    w, in one exactcore.xd_action call, known up to the smallest cap of
    its parts.  With lb = w.low_bound(): w.prec - m for a windowed w;
    lb - m + s.prec - 1 for a windowed s, whose unknown x^(s.prec) lands
    at z^(lb - m + s.prec) first; and lb - op.lo for the smallest lb of
    the column, where the untracked degree op.lo - 1 lands first.  A
    part whose s is an exact zero still caps the entry through w.
    """
    vec = _as_vector(vec, op.n)
    lbs = [w.low_bound() for w in vec]
    top = inf
    if op.lo is not None and min(lbs, default=inf) != inf:
        top = min(lbs) - op.lo
    out = []
    for i in range(op.n):
        cap = top
        parts = []
        for m, mat in op.terms.items():
            for s, w, lb in zip(mat.rows[i], vec, lbs):
                if w.prec is not None:
                    cap = min(cap, w.prec - m)
                if s.prec is not None and lb != inf:
                    cap = min(cap, lb - m + s.prec - 1)
                parts.append((s, m, w))
        out.append(xd_action(parts, None if cap == inf else cap))
    return tuple(out)


def to_laurent(op: MatrixPsiDO) -> Matrix:
    """The constant-coefficient projection: right-normalize op, evaluate
    at x = 0 and map D^m to z^-m.  Column l is the module action on the
    unit column e_l, so a D^m gives (-1)^j binom(m, j) j! [x^j]a at
    z^(j-m), and the entry windows are module_action's."""
    cols = [module_action(op, basis_column(l, op.n)) for l in range(op.n)]
    return Matrix(zip(*cols))


def x_action(vec):
    """Multiplication by x, realized entrywise as z^2 d/dz."""
    shift = ZLaurent.monomial(2)
    return tuple(w.derivative_z() * shift for w in vec)


def laurent_action(g: Matrix, vec):
    """Apply a constant-coefficient operator, a Laurent matrix, to a column."""
    n = g.n
    vec = _as_vector(vec, n)
    out = []
    for i in range(n):
        acc = ZLaurent.zero()
        for j in range(n):
            acc = acc + g.entry(i, j) * vec[j]
        out.append(acc)
    return tuple(out)


def _known_floor(vec, n):
    # Smallest class at which every higher coordinate of the column is
    # guaranteed; None when the column is exact.
    floor = None
    for i, w in enumerate(vec):
        if w.prec is not None:
            f = i - n * w.prec
            if floor is None or f > floor:
                floor = f
    return floor


def _int_coords(vec, lo, hi, n):
    """The column's coordinates on classes lo .. hi-1 as ints, all times
    the lcm of its entries' denominators, read through scaled_items with
    no Fraction built.  Class s is [z^(-(s//n))] of entry s % n.  Raises
    coeff's PrecisionError when the window of an entry does not guarantee
    its lowest class in the range, whose exponent is the highest read."""
    den = lcm(*[w.denominator for w in vec])
    out = [0] * max(hi - lo, 0)
    for p, w in enumerate(vec):
        first = lo + (p - lo) % n
        if first < hi and not w.known(-(first // n)):
            w.coeff(-(first // n))  # raises
        for e, c in w.scaled_items(den):
            if lo <= p - n * e < hi:
                out[p - n * e - lo] = c
    return out


class FredholmReport:
    """Kernel and cokernel dimensions of the projection onto the span of
    the nonnegative classes, with the elimination rank that produced
    them."""

    __slots__ = ("h0", "h1", "index", "rank", "exceptional", "stable_from")

    def __init__(self, h0, h1, rank, exceptional, stable_from):
        self.h0 = h0
        self.h1 = h1
        self.index = h0 - h1
        self.rank = rank
        self.exceptional = exceptional
        self.stable_from = stable_from

    def as_dict(self):
        return {
            "h0": self.h0,
            "h1": self.h1,
            "index": self.index,
            "rank": self.rank,
            "exceptional": self.exceptional,
            "stable_from": self.stable_from,
        }

    def __repr__(self):
        return (f"FredholmReport(h0={self.h0}, h1={self.h1}, "
                f"index={self.index})")


class GrassPoint:
    """Frame for a subspace of the Laurent column module.

    The subspace is spanned by the exceptional columns together with
    every standard basis column of class at least stable_from.  Columns
    may carry truncation windows; reports state exactly what those
    windows certify and raise PrecisionError when they certify nothing.
    """

    __slots__ = ("n", "columns", "stable_from")

    def __init__(self, n, columns, stable_from):
        n = int(n)
        if n < 1:
            raise DimensionError("module rank must be at least 1")
        self.n = n
        self.columns = tuple(_as_vector(c, n) for c in columns)
        self.stable_from = int(stable_from)

    def _window_lo(self, extra=()):
        vecs = list(self.columns) + list(extra)
        lo = None
        for v in vecs:
            f = _known_floor(v, self.n)
            if f is not None and (lo is None or f > lo):
                lo = f
        base = min([self.stable_from] + [i - self.n * w.degree_bound()
                                         for v in vecs
                                         for i, w in enumerate(v)
                                         if not w.is_zero()])
        if lo is None:
            return base
        return max(lo, base)

    def window_lo(self) -> int:
        """Lowest class at which every column coordinate is certified."""
        return self._window_lo()

    def contains(self, vec):
        """Whether the column lies in the span, certified on the window
        of classes the inputs determine.  Classes from stable_from on lie
        in the standard tail and are dropped; each column is read as
        integers over its own denominators, a positive factor per column
        that changes no solvability."""
        vec = _as_vector(vec, self.n)
        lo = self._window_lo([vec])
        s0 = self.stable_from
        cols = [_int_coords(col, lo, s0, self.n) for col in self.columns]
        rows = [[c[i] for c in cols] for i in range(s0 - lo)]
        return solve(rows, _int_coords(vec, lo, s0, self.n)) is not None

    def fredholm_report(self) -> FredholmReport:
        k = len(self.columns)
        s0 = self.stable_from
        lo = self._window_lo()
        lo = min(lo, 0, s0)
        for col in self.columns:
            f = _known_floor(col, self.n)
            if f is not None and f > lo:
                raise PrecisionError(
                    "column windows do not determine the coordinates "
                    f"down to class {lo}")
        # coordinates on classes lo .. s0-1 (the standard tail drops the
        # rest), each column times a positive integer that changes no rank.
        # lo <= 0, so the a_rows, classes 0 .. s0-1, are rows of the full
        # matrix and rank(a_rows) <= rank(full) <= k: r = k already
        # certifies the full column rank, and only r < k needs rank(full)
        full = [_int_coords(col, lo, s0, self.n) for col in self.columns]
        a_rows = [[c[s - lo] for c in full] for s in range(s0)]
        r = rank(a_rows)
        if r < k and rank([list(row) for row in zip(*full)]) != k:
            # a windowed column has unknown coordinates below class lo,
            # which can make the columns independent
            if any(w.prec is not None for col in self.columns for w in col):
                raise PrecisionError("column windows do not determine "
                                     "whether the exceptional columns are "
                                     "independent modulo the standard tail")
            raise DomainError("exceptional columns are dependent modulo "
                              "the standard tail")
        h0 = k - r + max(0, -s0)
        h1 = max(0, s0) - r
        return FredholmReport(h0, h1, r, k, s0)

    def __repr__(self):
        return (f"GrassPoint(n={self.n}, exceptional={len(self.columns)}, "
                f"stable_from={self.stable_from})")


def _carries(act, src, reach, dst):
    """Whether act maps src's exceptional columns and its standard
    columns of the next reach classes into dst's span.

    Exceptional columns are tried first, then standard columns by class,
    and the first column that misses decides, so errors surface in that
    order.
    """
    cols = chain(src.columns, (basis_column(q, src.n) for q in
                               range(src.stable_from, src.stable_from + reach)))
    return all(dst.contains(act(col)) for col in cols)


def points_equal(a: GrassPoint, b: GrassPoint) -> bool:
    """Span equality of two frames on their certified windows."""
    if a.n != b.n:
        return False
    hi = max(a.stable_from, b.stable_from)
    return (_carries(lambda col: col, a, hi - a.stable_from, b)
            and _carries(lambda col: col, b, hi - b.stable_from, a))


def _x_degree_bound(op: MatrixPsiDO) -> int:
    return max((e.degree_bound() + 1 if e.exact else e.prec
                for mat in op.terms.values() for row in mat.rows
                for e in row), default=0)


def point_from_dressing(s_op: MatrixPsiDO) -> GrassPoint:
    """Frame of the subspace the inverse dressing carries the standard
    nonnegative classes onto.

    Stabilization: the dressing moves a standard column by at most its
    depth plus its x-degree bound many classes, so beyond n times that
    budget the standard columns already lie in the subspace.

    The inverse T is tracked down to degree -D with D = 2*budget + 1
    (or the window of S, if shallower), which keeps every column
    determined well past the exceptional classes, as the reverse solve
    needs.  The action reads x^l of t_d only while d + l <= D, and
    [x^k] t_d depends only on the coefficients of S below x^(k+d), so
    the negative degrees of S are cut below x^D before inverting.
    """
    if not is_dressing(s_op):
        raise DomainError("operator is not a dressing")
    n = s_op.n
    if s_op.lo is not None:
        depth_s = -s_op.lo
    else:
        depth_s = max((-m for m in s_op.terms), default=0)
    nx = _x_degree_bound(s_op)
    budget = depth_s + nx
    stable = n * budget
    depth = 2 * budget + 1
    reach = depth if s_op.lo is None else min(depth, -s_op.lo)
    # only the negative degrees are cut, so an exact s_0 keeps t_0 exact;
    # at reach 0 there are none and the action reads t_0 alone
    cut = MatrixPsiDO(n, {m: mat.map(lambda e: e.truncate(reach)) if m < 0
                          else mat for m, mat in s_op.terms.items()}, s_op.lo)
    t = invert_dressing(cut, depth=depth)
    cols = [module_action(t, basis_column(s, n)) for s in range(stable)]
    return GrassPoint(n, cols, stable)


def dressing_from_point(point: GrassPoint, depth: int, nx: int) -> MatrixPsiDO:
    """Dressing carrying the subspace onto the standard nonnegative span.

    Solves exactly for a dressing of the given depth whose coefficients
    are polynomials of degree below nx.  Raises DomainError when no such
    dressing exists, when the frame windows leave the shape
    underdetermined, or when a solution is found but the Fredholm report
    certifies the frame off the big cell.

    Each column w gives one equation per z-exponent e >= 1 in its window.
    The unknown coefficient of x^l D^-m at component p meets x^l acting
    on z^m w_p.  One exactcore.x_power_items call per (m, p) gives every
    l < nx at once, cut at w's window; the action only raises exponents,
    so w's window bounds the rows.  Every row of w and its right-hand
    sides are read as integers over the lcm of w's denominators
    (x_power_items and scaled_items), so no Fraction is built.  The
    overdetermined system goes to exactcore.solve_system, which solves
    it modulo a prime and certifies the reconstructed solution exactly,
    and the rank it reports tells a unique solution from an
    underdetermined shape.
    """
    n = point.n
    if depth < 1 or nx < 1:
        raise DomainError("dressing window must have positive depth and "
                          "x-degree")
    if not point.columns and point.stable_from == 0:
        return MatrixPsiDO.identity(n)
    cols = list(point.columns)
    for q in range(point.stable_from, n * (depth + nx)):
        cols.append(basis_column(q, n))
    nun = depth * nx * n

    def unknown(m, l, p):
        return ((m - 1) * nx + l) * n + p

    # the lhs rows depend only on the action data, so all n component
    # rows of the dressing share one solve with n right-hand sides
    rows = []
    rhs_rows = []
    for w in cols:
        hi = min_prec(w)
        # the rows of w are integers over the lcm of its denominators,
        # which every action on an entry of w keeps or divides
        den = lcm(*[wp.denominator for wp in w])
        rhs = [dict(wp.scaled_items(den)) for wp in w]
        eqs = {k: [0] * nun for r in rhs for k in r
               if k >= 1 and (hi is None or k <= hi)}
        for m in range(1, depth + 1):
            for p, wp in enumerate(w):
                zw = wp * ZLaurent.monomial(m)  # D^-m w_p = z^m w_p
                for l, e, c in x_power_items(zw, nx, hi, den):
                    if e >= 1:
                        if e not in eqs:
                            eqs[e] = [0] * nun
                        eqs[e][unknown(m, l, p)] = c
        for e in sorted(eqs):
            rows.append(eqs[e])
            rhs_rows.append([-r.get(e, 0) for r in rhs])
    if not rows:
        raise DomainError("frame windows leave the dressing "
                          "underdetermined at this depth and x-degree")
    sol, rk = solve_system(rows, rhs_rows)
    if sol is None:
        raise DomainError("no dressing with this depth and x-degree "
                          "carries the frame onto the standard span")
    if rk < nun:
        raise DomainError("frame windows leave the dressing "
                          "underdetermined at this depth and x-degree")
    # the equations see only classes below n * (depth + nx), so a frame
    # off the big cell can still solve them; a certified report rules it out
    try:
        rep = point.fredholm_report()
    except (DomainError, PrecisionError):
        rep = None
    if rep is not None and (rep.h0, rep.h1) != (0, 0):
        raise DomainError("frame is not in the big cell, no dressing "
                          "exists")
    terms = {-m: [[None] * n for _ in range(n)] for m in range(1, depth + 1)}
    for i in range(n):
        for m in range(1, depth + 1):
            for p in range(n):
                cs = [sol[unknown(m, l, p)][i] for l in range(nx)]
                terms[-m][i][p] = XSeries(cs)
    built = {m: Matrix(rows) for m, rows in terms.items()}
    built[0] = Matrix.identity(n, XSeries.one())
    out = MatrixPsiDO(n, built)
    return out


def stabilizes(point: GrassPoint, g: Matrix) -> bool:
    """Whether a constant-coefficient operator maps the frame span into
    itself, certified on the determined windows."""
    if g.n != point.n:
        raise DimensionError("operator size does not match the module rank")
    drop = max([0] + [k for row in g.rows for e in row for k in e.support()])
    return _carries(lambda col: laurent_action(g, col), point,
                    point.n * (drop + 1), point)


def is_differential_by_action(op: MatrixPsiDO, point: GrassPoint) -> bool:
    """Whether the operator maps the frame span into itself under the
    module action, certified on the determined windows."""
    if op.n != point.n:
        raise DimensionError("operator size does not match the module rank")
    drop = 0
    nx = _x_degree_bound(op)
    for m in op.terms:
        drop = max(drop, nx - m)
    if op.lo is not None:
        drop = max(drop, nx - op.lo)
    return _carries(lambda col: module_action(op, col), point,
                    point.n * drop, point)
