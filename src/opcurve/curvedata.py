"""Curve data extracted from commutative algebras of Laurent matrices.

A commutative algebra of constant-coefficient operators is presented by
generators, square matrices over truncated Laurent series.  The order
filtration (pole depth through the operator embedding) gives a numerical
semigroup; its gaps count the genus.  Field-coefficient elimination over
the Laurent series field decides the span conditions that distinguish
honest degree-n spectral data from degenerate embeddings, and
characteristic coefficients present the affine equation the generators
satisfy.

All linear algebra is exact.  Eliminations over the Laurent field pivot
on entries whose leading coefficient is certified nonzero; a row that is
zero on its window but carries a truncation raises PrecisionError, since
the window cannot distinguish a dependent row from an undetected one.
"""

from __future__ import annotations

from heapq import heappop, heappush
from itertools import chain
from math import gcd, inf, lcm

from .exactcore import (
    DimensionError,
    DomainError,
    Matrix,
    PrecisionError,
    ZLaurent,
    char_coefficients,
    rank,  # unused here, but bench/test_bench.py reads curvedata.rank
    rref,
)

__all__ = [
    "AlgebraSpec",
    "ConditionReport",
    "FiltrationReport",
    "SemigroupReport",
    "algebra_orders",
    "cayley_hamilton_holds",
    "charpoly_string",
    "condition_report",
    "filtration_piece",
    "is_cyclic",
    "laurent_span_dim",
    "matrix_order",
    "rank_of_algebra",
    "semigroup_report",
    "spectral_charpoly",
]

# Cap on a semigroup's smallest reduced generator and on its conductor.
MAX_CONDUCTOR = 10**6
# Cap on a * g and on g * g for the smallest reduced generator a and the
# number g of reduced generators.  The Apery pass does work proportional
# to a * g and the coprime-pair scan to g * g, so this bounds their time
# before either starts.
MAX_APERY_WORK = 2 * 10**6


class AlgebraSpec:
    """Generators of a commutative algebra inside n x n Laurent matrices.

    Scalar generators are embedded along the diagonal; matrix generators
    are taken as given.  Commutativity is not assumed here, it is checked
    by the condition report.
    """

    __slots__ = ("n", "gens", "diag_gens")

    def __init__(self, n, gens=(), diag_gens=()):
        n = int(n)
        if n < 1:
            raise DimensionError("matrix size must be at least 1")
        self.n = n
        gens = tuple(gens)
        for g in gens:
            if not isinstance(g, Matrix) or g.n != n:
                raise DimensionError(f"generators must be {n} x {n} matrices")
        self.gens = gens
        self.diag_gens = tuple(diag_gens)

    def matrices(self):
        out = list(self.gens)
        zero = ZLaurent.zero()
        for d in self.diag_gens:
            out.append(Matrix([[d if i == j else zero
                                for j in range(self.n)]
                               for i in range(self.n)]))
        return out

    def __repr__(self):
        return (f"AlgebraSpec(n={self.n}, gens={len(self.gens)}, "
                f"diag_gens={len(self.diag_gens)})")


def matrix_order(g: Matrix) -> int:
    """Pole depth of the operator the matrix embeds to: max entry order."""
    best = None
    truncated = False
    for row in g.rows:
        for e in row:
            if not e.is_zero():
                v = e.order()
                if best is None or v > best:
                    best = v
            elif e.prec is not None:
                truncated = True
    if best is None:
        if truncated:
            raise PrecisionError("order of a window-zero matrix is "
                                 "undetermined")
        raise DomainError("the zero matrix has no order")
    return best


def algebra_orders(spec: AlgebraSpec):
    return [matrix_order(g) for g in spec.matrices()]


def rank_of_algebra(spec: AlgebraSpec) -> int:
    """Greatest common divisor of the generator orders."""
    orders = [o for o in algebra_orders(spec) if o != 0]
    if not orders:
        raise DomainError("algebra has no generator of positive order")
    return gcd(*orders)


class SemigroupReport:
    """Numerical semigroup of generator orders, reduced by their gcd."""

    __slots__ = ("generators", "rank", "reduced", "conductor", "gaps",
                 "genus", "coprime_bound")

    def __init__(self, generators, rank, reduced, conductor, gaps,
                 coprime_bound):
        self.generators = generators
        self.rank = rank
        self.reduced = reduced
        self.conductor = conductor
        self.gaps = gaps
        self.genus = len(gaps)
        self.coprime_bound = coprime_bound

    def as_dict(self):
        return {
            "generators": list(self.generators),
            "rank": self.rank,
            "reduced": list(self.reduced),
            "conductor": self.conductor,
            "gaps": list(self.gaps),
            "genus": self.genus,
            "coprime_bound": self.coprime_bound,
        }

    def __repr__(self):
        return (f"SemigroupReport(generators={list(self.generators)}, "
                f"genus={self.genus})")


def semigroup_report(orders) -> SemigroupReport:
    """Gap structure of the semigroup generated by the given orders.

    The orders are reduced by their gcd.  The Apery set Ap of the least
    reduced generator a holds the least member of each residue class mod
    a, found by one shortest-path pass over the residues.  A member plus
    copies of a stays a member, so k is a gap iff k < Ap[k mod a], and
    the conductor is max(Ap) - a + 1.  Both a and the conductor are
    capped at MAX_CONDUCTOR, and a times the generator count and the
    generator count squared at MAX_APERY_WORK.  The two-generator bound
    ab - a - b is reported when some pair of reduced generators is
    coprime.
    """
    generators = sorted({int(o) for o in orders if int(o) > 0})
    if not generators:
        raise DomainError("need at least one positive order")
    r = gcd(*generators)
    reduced = [g // r for g in generators]
    lead = reduced[0]
    if lead > MAX_CONDUCTOR:
        raise DomainError(f"smallest reduced generator {lead} exceeds "
                          f"MAX_CONDUCTOR = {MAX_CONDUCTOR}")
    if lead * len(reduced) > MAX_APERY_WORK:
        raise DomainError(f"smallest reduced generator {lead} times "
                          f"{len(reduced)} generators exceeds "
                          f"MAX_APERY_WORK = {MAX_APERY_WORK}")
    if len(reduced) ** 2 > MAX_APERY_WORK:
        raise DomainError(f"{len(reduced)} reduced generators squared "
                          f"exceeds MAX_APERY_WORK = {MAX_APERY_WORK}")
    bound = min((a * b - a - b for i, a in enumerate(reduced)
                 for b in reduced[i + 1:] if gcd(a, b) == 1), default=None)
    apery = [0] + [inf] * (lead - 1)
    heap = [(0, 0)]
    while heap:
        m, res = heappop(heap)
        for g in reduced[1:]:
            nres = (res + g) % lead
            if m + g < apery[nres]:
                apery[nres] = m + g
                heappush(heap, (m + g, nres))
    conductor = max(apery) - lead + 1
    if conductor > MAX_CONDUCTOR:
        raise DomainError(f"conductor {conductor} exceeds "
                          f"MAX_CONDUCTOR = {MAX_CONDUCTOR}")
    # the gaps of residue class c are c, c + a, ... below Ap[c]
    gaps = sorted(chain.from_iterable(range(c, apery[c], lead)
                                      for c in range(1, lead)))
    return SemigroupReport(generators, r, reduced, conductor, gaps, bound)


# -- elimination over the Laurent series field -------------------------

def _laurent_rref(rows):
    """Eliminate rows of Laurent series over the series field.

    Returns the independent rows found.  Pivots take the entry of
    deepest certified pole.  Every row is reduced by the pivot row unless
    its entry in the pivot column is exactly zero.  A row left without
    certified support that still carries a truncation window is
    inconclusive and raises.
    """
    pending = [list(r) for r in rows]
    ncols = len(pending[0]) if pending else 0
    basis = []
    while pending:
        if len(basis) == ncols:
            # a full basis of the column space: every pending row is
            # dependent whatever its window hides
            break
        best = None
        for ri, row in enumerate(pending):
            for ci, e in enumerate(row):
                if not e.is_zero():
                    v = e.valuation()
                    if best is None or v < best[0]:
                        best = (v, ri, ci)
        if best is None:
            for row in pending:
                if any(e.prec is not None for e in row):
                    raise PrecisionError(
                        "row is zero on its window but not certified zero")
            break
        _, ri, ci = best
        pivot_row = pending.pop(ri)
        pivot = pivot_row[ci]
        inv = pivot.inverse()
        for row in pending:
            # an entry zero only on its window still hides a multiple of
            # the pivot row, whose subtraction carries that window along
            if not (row[ci].exact and row[ci].is_zero()):
                f = row[ci] * inv
                for j in range(len(row)):
                    row[j] = row[j] - f * pivot_row[j]
        basis.append(pivot_row)
    return basis


def laurent_span_dim(rows) -> int:
    """Dimension over the Laurent series field of the span of the rows."""
    return len(_laurent_rref(rows))


def _flatten(mat: Matrix):
    return [e for row in mat.rows for e in row]


def _closure_monomials(mats, n):
    # Field-span closure of the unital algebra the matrices generate.
    ident = Matrix.identity(n, ZLaurent.one())
    basis_mats = [ident]
    frontier = [ident]
    while frontier:
        nxt = []
        for b in frontier:
            for g in mats:
                cand = g * b
                stacked = [_flatten(m) for m in basis_mats] + [_flatten(cand)]
                if laurent_span_dim(stacked) > len(basis_mats):
                    basis_mats.append(cand)
                    nxt.append(cand)
                    if len(basis_mats) == n * n:
                        return basis_mats
        frontier = nxt
    return basis_mats


class ConditionReport:
    """Whether the generators present honest degree-n spectral data:
    pairwise commuting, field span of dimension exactly n, and coprime
    orders so the pole filtration has unit step."""

    __slots__ = ("n", "commutes", "span_dim", "rank", "satisfied")

    def __init__(self, n, commutes, span_dim, rank):
        self.n = n
        self.commutes = commutes
        self.span_dim = span_dim
        self.rank = rank
        self.satisfied = commutes and span_dim == n and rank == 1

    def as_dict(self):
        return {
            "n": self.n,
            "commutes": self.commutes,
            "span_dim": self.span_dim,
            "rank": self.rank,
            "satisfied": self.satisfied,
        }

    def __repr__(self):
        return (f"ConditionReport(commutes={self.commutes}, "
                f"span_dim={self.span_dim}, rank={self.rank}, "
                f"satisfied={self.satisfied})")


def condition_report(spec: AlgebraSpec) -> ConditionReport:
    mats = spec.matrices()
    if not mats:
        raise DomainError("algebra needs at least one generator")
    commutes = True
    for i, a in enumerate(mats):
        for b in mats[i + 1:]:
            if not (a * b == b * a):
                commutes = False
    # the closure grows only by matrices that raise the span dimension,
    # so its length is that dimension
    span = len(_closure_monomials(mats, spec.n))
    return ConditionReport(spec.n, commutes, span, rank_of_algebra(spec))


class FiltrationReport:
    """Dimension and monomial basis of the filtration piece of bounded
    order."""

    __slots__ = ("bound", "dim", "monomials")

    def __init__(self, bound, dim, monomials):
        self.bound = bound
        self.dim = dim
        self.monomials = monomials

    def as_dict(self):
        return {
            "bound": self.bound,
            "dim": self.dim,
            "monomials": [list(m) for m in self.monomials],
        }

    def __repr__(self):
        return f"FiltrationReport(bound={self.bound}, dim={self.dim})"


def _constant_rows(flats):
    # Flattened exact matrices as integer rows, one column per (entry
    # position, exponent) pair that occurs anywhere, each row scaled by
    # the lcm of its entries' denominators.
    cols = sorted({(idx, e) for flat in flats
                   for idx, z in enumerate(flat) for e in z.support()})
    pos = {c: i for i, c in enumerate(cols)}
    out = []
    for flat in flats:
        den = lcm(*[z.denominator for z in flat])
        v = [0] * len(cols)
        for idx, z in enumerate(flat):
            for e, c in z.scaled_items(den):
                v[pos[(idx, e)]] = c
        out.append(v)
    return out


def filtration_piece(spec: AlgebraSpec, bound: int) -> FiltrationReport:
    """Exact dimension over the constants of the span of generator
    monomials of order at most the bound, with the exponents that span
    it.

    A monomial enters the enumeration when the sum of its generator
    orders stays within the bound; exact inputs are required because a
    truncated window cannot certify constant-linear independence.
    """
    mats = spec.matrices()
    orders = algebra_orders(spec)
    if any(o < 1 for o in orders):
        raise DomainError("filtration enumeration needs generators of "
                          "positive order")
    for g in mats:
        for row in g.rows:
            for e in row:
                if e.prec is not None:
                    raise PrecisionError("filtration needs exact "
                                         "generators")
    if bound < 0:
        return FiltrationReport(bound, 0, [])
    monos = [((0,) * len(mats), Matrix.identity(spec.n, ZLaurent.one()))]
    seen = {monos[0][0]}
    k = 0
    while k < len(monos):
        expo, mat = monos[k]
        k += 1
        for gi, g in enumerate(mats):
            cost = sum(e * o for e, o in zip(expo, orders)) + orders[gi]
            if cost > bound:
                continue
            nxt = tuple(e + (1 if j == gi else 0)
                        for j, e in enumerate(expo))
            if nxt in seen:
                continue
            seen.add(nxt)
            monos.append((nxt, g * mat))
    monos.sort(key=lambda t: (sum(t[0]), t[0]))
    # the pivot columns of an echelon form are the in-order greedy
    # independent set, so one rref of the transpose picks the basis.
    # Scaling a row of _constant_rows scales a column of the transpose,
    # and scaling a column by a nonzero factor keeps the pivot columns,
    # so the integer rows pick the same monomials.
    rows = _constant_rows([_flatten(mat) for _, mat in monos])
    picked = [monos[i][0] for i in rref([list(c) for c in zip(*rows)])[1]]
    return FiltrationReport(bound, len(picked), picked)


# -- characteristic data ------------------------------------------------

def spectral_charpoly(g: Matrix):
    """Characteristic coefficients (c1, ..., cn) of the matrix, so the
    polynomial is t^n - c1 t^(n-1) + c2 t^(n-2) - ... + (-1)^n cn."""
    for row in g.rows:
        for e in row:
            if not isinstance(e, ZLaurent):
                raise DomainError("characteristic data needs Laurent "
                                  "entries")
    return char_coefficients(g)


def charpoly_string(coeffs) -> str:
    n = len(coeffs)
    out = f"t^{n}" if n > 1 else "t"
    for i, c in enumerate(coeffs, start=1):
        if c.is_zero():
            continue
        term = c.scale((-1) ** i)
        if all(v < 0 for _, v in term.items()):
            sign = " - "
            term = term.scale(-1)
        else:
            sign = " + "
        body = str(term)
        if len(term.support()) > 1:
            body = f"({body})"
        if i < n:
            power = f"t^{n - i}" if n - i > 1 else "t"
            out += f"{sign}{body}*{power}"
        else:
            out += f"{sign}{body}"
    return out


def cayley_hamilton_holds(g: Matrix) -> bool:
    cs = spectral_charpoly(g)
    n = g.n
    acc = Matrix.identity(n, ZLaurent.one())
    powers = [acc]
    for _ in range(n):
        acc = acc * g
        powers.append(acc)
    total = powers[n]
    for i, c in enumerate(cs, start=1):
        sign = (-1) ** i
        total = total + powers[n - i].map(lambda e: (e * c).scale(sign))
    return total.is_zero()


def is_cyclic(g: Matrix) -> bool:
    """Whether I, g, ..., g^(n-1) are independent over the series field."""
    n = g.n
    acc = Matrix.identity(n, ZLaurent.one())
    rows = [_flatten(acc)]
    for _ in range(n - 1):
        acc = acc * g
        rows.append(_flatten(acc))
    return laurent_span_dim(rows) == n
