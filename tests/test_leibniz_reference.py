"""The integer Leibniz kernel against the Matrix expression it replaced.

ref_leibniz_coeff below is the former psidocalc._leibniz_coeff, kept as an
oracle.  Per degree it built one Matrix per (m, k, j) term,
binom(m, j) b_k^(j), through Matrix.map, an XSeries derivative and scale,
summed those per a_m with Matrix +, and added a_m * inner into the result,
so every window came from the XSeries operations: an exact zero factor
gives an exact zero product, b^(j) is known below prec(b) - j, a sum below
the least window of its terms, and a needed b^(j) beyond x-precision
raises PrecisionError.  Its derivative here reads the Fraction
coefficients, so the oracle shares no arithmetic with
exactcore.leibniz_sum.

compose, divide_dressing, invert_dressing, dress_to_constant and rth_root
run on seeded operators of size 1, 2 and 3 with exact, windowed,
exact-zero and windowed-zero entries, identity or windowed s_0 and lo
None or set, once as they are and once with the oracle in place of
_leibniz_coeff.  Both runs must give the same repr, entry windows and lo,
or the same error type and text.
"""

import random
from fractions import Fraction
from math import inf, perm

import pytest

from opcurve import psidocalc
from opcurve.exactcore import ExactError, Matrix, PrecisionError, XSeries
from opcurve.psidocalc import (
    MatrixPsiDO,
    binom,
    compose,
    divide_dressing,
    dress_to_constant,
    invert_dressing,
    rth_root,
)


def _ref_derivative(s, j):
    if s.prec is not None and s.prec <= j:
        raise PrecisionError(f"cannot differentiate {j} times a series "
                             f"guaranteed only below x^{s.prec}")
    cs = [Fraction(0)] * max(s.degree_bound() + 1 - j, 0)
    for k, c in s.items():
        if k >= j:
            cs[k - j] = perm(k, j) * c
    return XSeries(cs, None if s.prec is None else s.prec - j)


def _ref_end(mat):
    precs = [e.prec for row in mat.rows for e in row if e.prec is not None]
    if precs:
        return min(precs)
    return 1 + max(e.degree_bound() for row in mat.rows for e in row)


def ref_leibniz_coeff(n, a_terms, b_terms, deg):
    exact_end = {k: _ref_end(b) for k, b in b_terms.items()
                 if all(e.exact for row in b.rows for e in row)}
    acc = Matrix.filled(n, XSeries.zero())
    for m, a in a_terms.items():
        inner = None
        for k, b in b_terms.items():
            j = m + k - deg
            if j < 0 or 0 <= m < j or j >= exact_end.get(k, inf):
                continue
            if j:
                c = binom(m, j)
                b = b.map(lambda e: _ref_derivative(e, j).scale(c))
            inner = b if inner is None else inner + b
        if inner is not None:
            acc = acc + a * inner
    return acc


def _outcome(run):
    """repr, lo and every entry window of run's operator, or its error."""
    try:
        op = run()
    except ExactError as exc:
        return type(exc).__name__, str(exc)
    windows = [(m, [[e.prec for e in row] for row in mat.rows])
               for m, mat in sorted(op.terms.items())]
    return repr(op), op.lo, windows


def _rational(rng):
    return Fraction(rng.randint(-9, 9), rng.choice([1, 1, 2, 3, 5, 7]))


KINDS = ("exact", "windowed", "exact zero", "windowed zero")


def _entry(rng, kind):
    cs = [_rational(rng) for _ in range(rng.randint(1, 4))]
    if kind == "exact":
        return XSeries(cs)
    if kind == "windowed":
        return XSeries(cs, rng.randint(1, 6))
    if kind == "exact zero":
        return XSeries.zero()
    return XSeries([], rng.randint(1, 5))


class Cases:
    """Seeded inputs, with the entry kinds and shapes drawn so far."""

    def __init__(self, seed):
        self.rng = random.Random(seed)
        self.seen = set()

    def matrix(self, n, kinds=KINDS):
        kinds = [[self.rng.choice(kinds) for _ in range(n)]
                 for _ in range(n)]
        self.seen.update(k for row in kinds for k in row)
        return Matrix([[_entry(self.rng, k) for k in row] for row in kinds])

    def lo(self, low, high):
        lo = None if self.rng.random() < 0.5 else self.rng.randint(low, high)
        self.seen.add(("lo", lo is None))
        return lo

    def operator(self, n, degs, lo):
        return MatrixPsiDO(n, {m: self.matrix(n) for m in degs}, lo)

    def n(self):
        n = self.rng.choice([1, 1, 2, 2, 3])
        self.seen.add(("n", n))
        return n

    def dressing(self, n):
        """I + negative degrees; half the time s_0 is the identity only
        on windows of 1 to 5 x-terms."""
        rng = self.rng
        ident = Matrix.identity(n, XSeries.one())
        if rng.random() < 0.5:
            s0 = ident
        else:
            s0 = Matrix([[XSeries([int(i == j)], rng.randint(1, 5))
                          if i == j or rng.random() < 0.7 else XSeries.zero()
                          for j in range(n)] for i in range(n)])
            self.seen.add("windowed s_0")
        degs = rng.sample(range(-3, 0), rng.randint(0, 3))
        terms = {m: self.matrix(n) for m in degs}
        terms[0] = s0
        return MatrixPsiDO(n, terms, self.lo(-4, 0))

    def monic(self, n, r, degs, lo):
        """D^r I plus random terms on degs."""
        op = self.operator(n, degs, lo)
        return MatrixPsiDO(n, {r: Matrix.identity(n, XSeries.one()),
                               **op.terms}, lo)


def _runs(cases, op):
    """The call of operation op on the next seeded inputs."""
    rng = cases.rng
    n = cases.n()
    if op == "compose":
        p = cases.operator(n, rng.sample(range(-3, 4), rng.randint(1, 3)),
                           cases.lo(-5, 1))
        q = cases.operator(n, rng.sample(range(-3, 4), rng.randint(1, 3)),
                           cases.lo(-5, 1))
        return lambda: compose(p, q)
    if op == "divide_dressing":
        s = cases.dressing(n)
        a = cases.operator(n, rng.sample(range(-2, 3), rng.randint(1, 2)),
                           cases.lo(-4, 1))
        depth = rng.randint(0, 4)
        return lambda: divide_dressing(s, a, depth)
    if op == "invert_dressing":
        s = cases.dressing(n)
        depth = rng.choice([None, 0, 1, 2, 3, 4])
        return lambda: invert_dressing(s, depth)
    if op == "dress_to_constant":
        r = rng.choice([2, 3])
        degs = [m for m in range(r - 1) if rng.random() < 0.8]
        p = cases.monic(n, r, degs, cases.lo(-2, 0))
        if rng.random() < 0.2:
            # a subleading coefficient that is zero on a window
            zero = Matrix.filled(n, XSeries([], rng.randint(1, 4)))
            p = MatrixPsiDO(n, {**p.terms, r - 1: zero}, p.lo)
        depth = rng.randint(1, 4)
        return lambda: dress_to_constant(p, depth)
    r = rng.choice([1, 2, 3])
    if rng.random() < 0.15:
        # an exact r-th power, whose root the exact check confirms
        base = MatrixPsiDO(n, {1: Matrix.identity(n, XSeries.one()),
                               0: cases.matrix(n, ("exact", "exact zero"))})
        p = base ** r
        cases.seen.add("exact power")
    else:
        p = cases.monic(n, r, rng.sample(range(-2, r), rng.randint(0, 3)),
                        cases.lo(-3, r - 1))
    depth = rng.randint(1, 4)
    return lambda: rth_root(p, r, depth)


OPS = ("compose", "divide_dressing", "invert_dressing", "dress_to_constant",
       "rth_root")


@pytest.mark.parametrize("op", OPS)
def test_kernel_matches_matrix_expression(op, monkeypatch):
    cases = Cases(f"leibniz-reference:{op}")
    kernel = psidocalc.leibniz_sum
    raised = []

    def counted(n, groups):
        try:
            return kernel(n, groups)
        except PrecisionError:
            raised.append(op)
            raise

    monkeypatch.setattr(psidocalc, "leibniz_sum", counted)
    errors = 0
    for _ in range(320):
        run = _runs(cases, op)
        got = _outcome(run)
        with monkeypatch.context() as mp:
            mp.setattr(psidocalc, "_leibniz_coeff", ref_leibniz_coeff)
            want = _outcome(run)
        assert got == want
        errors += len(got) == 2
    # both outcomes occur where the operation can fail, and the kernel's
    # PrecisionError path is taken
    assert errors < 320
    assert errors > 0 or op in ("compose", "divide_dressing", "rth_root")
    assert raised
    assert set(KINDS) <= cases.seen
    assert {("n", n) for n in (1, 2, 3)} <= cases.seen
    assert {("lo", True), ("lo", False)} <= cases.seen
    if op in ("divide_dressing", "invert_dressing"):
        assert "windowed s_0" in cases.seen
    if op == "rth_root":
        assert "exact power" in cases.seen
