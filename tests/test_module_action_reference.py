"""sato.module_action and MatrixPsiDO.to_laurent against the Fraction
implementations they replaced, and the window soundness of module_action,
to_laurent, compose, divide_dressing, dress_to_constant, rth_root,
point_from_dressing, GrassPoint.fredholm_report and
curvedata.laurent_span_dim.

ref_module_action below is the former module_action, kept as an oracle:
each part s(x) D^m w went through _scalar_action, a dict of Fraction
products c * rise * wc, and each output entry was a sum of ZLaurents, cut
at the op.lo cap.  On seeded operators of size 1 and 2 with degrees of
both signs, exact, windowed, exact-zero and windowed-zero coefficients,
exact, windowed and windowed-zero column entries, and op.lo both None and
set, the integer kernel must agree with it on repr, prec and == of every
output entry.  ref_to_laurent is the former to_laurent, which summed
(-1)^j binom(m, j) j! [x^j]a over Fractions under its own window rule;
to_laurent, now the module action on the unit columns, must agree with it
on repr and prec of every entry.

The soundness tests run each operation on inputs cut to a window and
again on two completions of those inputs known much deeper, and require
every coefficient the first result claims to match both.  Where the two
completions first differ bounds the window the inputs really determine;
how far the claimed window falls short of it is recorded as the test
suite properties <operation>.max_shortfall and <operation>.tight_share
(shown by --junitxml).  fredholm_report and laurent_span_dim answer with
counts, not series: whatever the cut input answers, a count or a domain
error, both completions must answer too, and tight_share is the share of
the answers both completions agree on that the cut input gives.
"""

import random
from fractions import Fraction
from math import factorial, inf

from opcurve.curvedata import laurent_span_dim
from opcurve.exactcore import (
    DomainError,
    Matrix,
    PrecisionError,
    XSeries,
    ZLaurent,
)
from opcurve.psidocalc import (
    MatrixPsiDO,
    binom,
    compose,
    divide_dressing,
    dress_to_constant,
    rth_root,
)
from opcurve.sato import GrassPoint, module_action, point_from_dressing


def _scalar_action(s, m, w):
    caps = []
    if w.prec is not None:
        caps.append(w.prec - m)
    if s.prec is not None:
        lb = w.low_bound()
        if lb != inf:
            caps.append(int(lb) - m + s.prec - 1)
    prec = min(caps) if caps else None
    vals = {}
    s_items = s.items()
    for p, wc in w.items():
        q = p - m
        rise, top = 1, 0  # rise = q (q+1) ... (q+top-1)
        for l, c in s_items:
            while top < l:
                rise *= q + top
                top += 1
            if not rise:
                break
            e = q + l
            vals[e] = vals.get(e, 0) + c * rise * wc
    return ZLaurent(vals, prec)


def ref_module_action(op, vec):
    n = op.n
    out = [ZLaurent.zero() for _ in range(n)]
    for m, mat in op.terms.items():
        for i in range(n):
            acc = out[i]
            for j in range(n):
                acc = acc + _scalar_action(mat.entry(i, j), m, vec[j])
            out[i] = acc
    if op.lo is not None:
        lb = min((w.low_bound() for w in vec), default=inf)
        if lb != inf:
            cap = int(lb) - op.lo
            out = [w.truncate(cap) for w in out]
    return tuple(out)


def ref_to_laurent(op):
    n = op.n
    out = []
    for i in range(n):
        row = []
        for l in range(n):
            prec = None if op.lo is None else -op.lo
            vals = {}
            for m, mat in sorted(op.terms.items()):
                s = mat.rows[i][l]
                if s.prec is not None:
                    cap = -m + s.prec - 1
                    prec = cap if prec is None else min(prec, cap)
                for j, c in s.items():
                    e = j - m
                    vals[e] = (vals.get(e, Fraction(0))
                               + (-1) ** j * binom(m, j) * factorial(j) * c)
            row.append(ZLaurent(vals, prec))
        out.append(row)
    return Matrix(out)


def _rational(rng):
    return Fraction(rng.randint(-9, 9), rng.choice([1, 1, 2, 3, 5, 7]))


def _fresh(rng, k):
    """k nonzero rationals: a completion's tail that differs wherever the
    cut input leaves room."""
    return [_rational(rng) or Fraction(1) for _ in range(k)]


S_KINDS = ("exact", "windowed", "exact zero", "windowed zero")
W_KINDS = ("exact", "windowed", "windowed zero")


def _s(rng, kind):
    cs = [_rational(rng) for _ in range(rng.randint(1, 5))]
    if kind == "exact":
        return XSeries(cs)
    if kind == "windowed":
        return XSeries(cs, rng.randint(1, 6))
    if kind == "exact zero":
        return XSeries.zero()
    return XSeries([0] * rng.randint(0, 2), rng.randint(1, 4))


def _w(rng, kind):
    v = rng.randint(-4, 3)
    cs = {k: _rational(rng) for k in range(v, v + rng.randint(1, 5))}
    if kind == "exact":
        return ZLaurent(cs)
    if kind == "windowed":
        return ZLaurent(cs, v + rng.randint(-1, 6))
    return ZLaurent.zero(rng.randint(-4, 4))


def test_module_action_matches_fraction_reference():
    rng = random.Random(20240611)
    seen = set()
    for _ in range(2400):
        n = rng.choice([1, 2])
        degs = rng.sample(range(-3, 4), rng.randint(1, 3))
        terms = {}
        for m in degs:
            kinds = [[rng.choice(S_KINDS) for _ in range(n)]
                     for _ in range(n)]
            terms[m] = Matrix([[_s(rng, k) for k in row] for row in kinds])
            seen.update(("s", k, m > 0) for row in kinds for k in row)
        lo = None if rng.random() < 0.5 else min(degs) - rng.randint(0, 2)
        op = MatrixPsiDO(n, terms, lo)
        w_kinds = [rng.choice(W_KINDS) for _ in range(n)]
        vec = tuple(_w(rng, k) for k in w_kinds)
        seen.update(("w", k) for k in w_kinds)
        seen.add(("n", n, lo is None))
        got = module_action(op, vec)
        want = ref_module_action(op, vec)
        for a, b in zip(got, want):
            assert repr(a) == repr(b)
            assert a.prec == b.prec
            assert a == b
    assert {("s", k, pos) for k in S_KINDS for pos in (True, False)} <= seen
    assert {("w", k) for k in W_KINDS} <= seen
    assert {("n", n, e) for n in (1, 2) for e in (True, False)} <= seen


def test_to_laurent_matches_fraction_reference():
    rng = random.Random("to-laurent-reference")
    seen = set()
    for _ in range(2000):
        n = rng.randint(1, 3)
        degs = rng.sample(range(-6, 6), rng.randint(1, 3))
        kinds = {m: [[rng.choice(S_KINDS) for _ in range(n)]
                     for _ in range(n)] for m in degs}
        terms = {m: Matrix([[_s(rng, k) for k in row] for row in ks])
                 for m, ks in kinds.items()}
        seen.update(k for ks in kinds.values() for row in ks for k in row)
        lo = None if rng.random() < 0.5 else min(degs) - rng.randint(0, 2)
        seen.add(("n", n, lo is None))
        op = MatrixPsiDO(n, terms, lo)
        got, want = op.to_laurent(), ref_to_laurent(op)
        for a, b in zip(got.rows, want.rows):
            assert [repr(e) for e in a] == [repr(e) for e in b]
            assert [e.prec for e in a] == [e.prec for e in b]
    assert set(S_KINDS) <= seen
    assert {("n", n, e) for n in (1, 2, 3) for e in (True, False)} <= seen


# -- window soundness --------------------------------------------------

DEEP = 24


def _determined(a, b):
    """The highest exponent up to which two results agree, within both
    windows; inf when they agree exactly."""
    tops = [w.prec for w in (a, b) if w.prec is not None]
    top = min(tops) if tops else None
    sup = a.support() + b.support()
    if top is None and a == b:
        return inf
    hi = top if top is not None else max(sup, default=0) + 1
    for k in range(min(sup, default=0), hi + 1):
        if a.coeff(k) != b.coeff(k):
            return k - 1
    return hi


def _claims_hold(shallow, deep):
    """Every coefficient shallow claims agrees with deep."""
    if shallow.exact:
        assert deep.exact
        assert shallow == deep
        return
    assert deep.known(shallow.prec)
    sup = shallow.support() + deep.support()
    for k in range(min(sup, default=0) - 1, shallow.prec + 1):
        assert shallow.coeff(k) == deep.coeff(k), k


def _compare(shallow, deep_a, deep_b, shortfalls):
    """Soundness against both completions, and the shortfall of the
    shallow window behind the exponents the two completions agree on."""
    _claims_hold(shallow, deep_a)
    _claims_hold(shallow, deep_b)
    if shallow.prec is not None:
        shortfalls.append(_determined(deep_a, deep_b) - shallow.prec)


def _record(record, name, shortfalls):
    assert shortfalls and min(shortfalls) >= 0
    finite = [s for s in shortfalls if s != inf]
    record(f"{name}.max_shortfall", max(finite, default=0))
    record(f"{name}.tight_share",
           round(shortfalls.count(0) / len(shortfalls), 3))


def _deep_x(rng):
    """A series known to x^DEEP, or an exact polynomial."""
    if rng.random() < 0.3:
        return XSeries([_rational(rng) for _ in range(rng.randint(0, 3))])
    return XSeries([_rational(rng) for _ in range(DEEP)], DEEP)


def _cut_x(rng, s):
    """s, s cut to a shallow window, and a second completion of that cut:
    the same guaranteed coefficients with a fresh tail to x^DEEP."""
    if s.exact and rng.random() < 0.5:
        return s, s, s
    w = rng.randint(1, 5)
    cut = s.truncate(w)
    known = [cut.coeff(k) for k in range(w)]
    return s, cut, XSeries(known + _fresh(rng, DEEP - w), DEEP)


def _deep_z(rng):
    """A series from a valuation in [-3, 2] known to z^DEEP, or an exact
    finite one."""
    v = rng.randint(-3, 2)
    cs = {k: _rational(rng) for k in range(v, DEEP + 1)}
    cs[v] = cs[v] or Fraction(1)
    if rng.random() < 0.25:
        return ZLaurent({k: c for k, c in cs.items() if k < v + 4})
    return ZLaurent(cs, DEEP)


def _cut_z(rng, w):
    """w, w cut to a shallow window (possibly below its valuation), and a
    second completion of that cut with a fresh tail to z^DEEP."""
    if w.exact and rng.random() < 0.5:
        return w, w, w
    v = w.valuation()
    top = v + rng.randint(-1, 6)
    cut = w.truncate(top)
    known = {k: cut.coeff(k) for k in range(v, top + 1)}
    known.update(zip(range(top + 1, DEEP + 1), _fresh(rng, DEEP - top)))
    return w, cut, ZLaurent(known, DEEP)


def _tail_matrix(rng, n):
    return Matrix([[XSeries(_fresh(rng, DEEP), DEEP) for _ in range(n)]
                   for _ in range(n)])


def _cut_operator(rng, n, degs):
    """An operator on degrees degs known deep, its cut to shallow windows
    (blind below its lo, when it has one), and a second completion of
    that cut: cut, deep, other."""
    lo = None if rng.random() < 0.5 else rng.randint(min(degs), max(degs))
    deep, cut, other = {}, {}, {}
    for m in degs:
        trip = [[_cut_x(rng, _deep_x(rng)) for _ in range(n)]
                for _ in range(n)]
        deep[m], cut[m], other[m] = (
            Matrix([[e[i] for e in row] for row in trip])
            for i in range(3))
    if lo is not None:
        # the cut operator is blind below lo, so the second completion
        # puts other terms there
        other = {m: mat for m, mat in other.items() if m >= lo}
        other[lo - 1] = _tail_matrix(rng, n)
        other[lo - 2] = _tail_matrix(rng, n)
    return (MatrixPsiDO(n, cut, lo), MatrixPsiDO(n, deep),
            MatrixPsiDO(n, other))


def test_module_action_claims_only_what_inputs_justify(
        record_testsuite_property):
    rng = random.Random("sound-module-action")
    shortfalls = []
    for _ in range(300):
        n = rng.choice([1, 2])
        degs = rng.sample(range(-3, 4), rng.randint(1, 3))
        cut, deep, other = _cut_operator(rng, n, degs)
        vec = [_cut_z(rng, _deep_z(rng)) for _ in range(n)]
        shallow = module_action(cut, tuple(e[1] for e in vec))
        deep_a = module_action(deep, tuple(e[0] for e in vec))
        deep_b = module_action(other, tuple(e[2] for e in vec))
        for s, a, b in zip(shallow, deep_a, deep_b):
            _compare(s, a, b, shortfalls)
    _record(record_testsuite_property, "module_action", shortfalls)


def test_to_laurent_claims_only_what_inputs_justify(
        record_testsuite_property):
    rng = random.Random("sound-to-laurent")
    shortfalls = []
    for _ in range(300):
        n = rng.randint(1, 3)
        cut, deep, other = _cut_operator(
            rng, n, rng.sample(range(-6, 6), rng.randint(1, 4)))
        for s, a, b in zip(*(op.to_laurent().rows
                             for op in (cut, deep, other))):
            for entries in zip(s, a, b):
                _compare(*entries, shortfalls)
    _record(record_testsuite_property, "to_laurent", shortfalls)


def _x_claims_hold(shallow, deep):
    """Every x-coefficient shallow claims agrees with deep."""
    if shallow.exact:
        assert deep.exact
        assert shallow == deep
        return
    assert deep.known(shallow.prec - 1)
    for k in range(shallow.prec):
        assert shallow.coeff(k) == deep.coeff(k), k


def _x_determined(a, b):
    """How many leading x-coefficients two results agree on, within both
    windows; inf when they agree exactly."""
    if a.exact and b.exact and a == b:
        return inf
    tops = [s.prec for s in (a, b) if s.prec is not None]
    hi = min(tops) if tops else max(a.degree_bound(), b.degree_bound()) + 1
    return next((k for k in range(hi) if a.coeff(k) != b.coeff(k)), hi)


def test_compose_claims_only_what_inputs_justify(record_testsuite_property):
    rng = random.Random("sound-compose")
    shortfalls = []
    claimed = 0
    for _ in range(60):
        n = rng.choice([1, 2])
        p_cut, p_deep, p_other = _cut_operator(
            rng, n, rng.sample(range(-2, 3), rng.randint(1, 2)))
        q_cut, q_deep, q_other = _cut_operator(
            rng, n, rng.sample(range(-2, 3), rng.randint(1, 2)))
        shallow = compose(p_cut, q_cut)
        deep_a = compose(p_deep, q_deep)
        deep_b = compose(p_other, q_other)
        # every degree the shallow product tracks, stored or exactly zero
        degs = set(shallow.terms) | set(deep_a.terms) | set(deep_b.terms)
        for m in sorted(degs):
            if shallow.lo is not None and m < shallow.lo:
                continue
            claimed += 1
            for s, a, b in zip(*(op.coeff(m).rows
                                 for op in (shallow, deep_a, deep_b))):
                for es, ea, eb in zip(s, a, b):
                    _x_claims_hold(es, ea)
                    _x_claims_hold(es, eb)
                    if es.prec is not None:
                        shortfalls.append(_x_determined(ea, eb) - es.prec)
    assert claimed >= 60
    _record(record_testsuite_property, "compose", shortfalls)


def _dressing(rng, n, depth, nx):
    """An exact dressing I + sum of polynomial coefficients below x^nx."""
    terms = {0: Matrix.identity(n, XSeries.one())}
    for m in range(1, depth + 1):
        terms[-m] = Matrix([[XSeries(_fresh(rng, nx))
                             for _ in range(n)] for _ in range(n)])
    return terms


def _complete_poly(cut, other, nx):
    """cut's guaranteed coefficients, then other's, as an exact polynomial
    below x^nx."""
    if cut.exact:
        return cut
    return XSeries([cut.coeff(k) for k in range(cut.prec)]
                   + [other.coeff(k) for k in range(cut.prec, nx)])


def test_point_from_dressing_claims_only_what_inputs_justify(
        record_testsuite_property):
    rng = random.Random("sound-point-from-dressing")
    shortfalls = []
    checked = 0
    for _ in range(40):
        n = rng.choice([1, 1, 2])
        depth = rng.randint(1, 3)
        nx = rng.randint(1, 3)
        true = _dressing(rng, n, depth, nx)
        # the shallow input keeps the degrees down to -d1 and, optionally,
        # the coefficients below x^w; the second completion replaces
        # everything else
        d1 = rng.randint(1, depth)
        w = rng.randint(1, nx) if rng.random() < 0.4 else None
        other = _dressing(rng, n, depth + 1, nx + 1)
        cut = {}
        for m, mat in true.items():
            if m < -d1:
                continue
            if m < 0 and w is not None:
                mat = mat.map(lambda e: e.truncate(w))
            cut[m] = mat
            other[m] = Matrix([[_complete_poly(c, o, nx + 1)
                                for c, o in zip(crow, orow)]
                               for crow, orow in zip(mat.rows, other[m].rows)])
        try:
            shallow = point_from_dressing(MatrixPsiDO(n, cut, -d1))
        except PrecisionError:
            continue
        deep_a = point_from_dressing(MatrixPsiDO(n, true))
        deep_b = point_from_dressing(MatrixPsiDO(n, other))
        stable = min(shallow.stable_from, deep_a.stable_from,
                     deep_b.stable_from)
        for c in range(stable):
            for s, a, b in zip(shallow.columns[c], deep_a.columns[c],
                               deep_b.columns[c]):
                _compare(s, a, b, shortfalls)
        checked += 1
    assert checked >= 25
    _record(record_testsuite_property, "point_from_dressing", shortfalls)



def _identity_cut(rng, n):
    """s_0 known deep, its cut to the identity on windows of 1 to 5 x-terms,
    and a second completion of that cut: deep, cut, other.  Half the time
    s_0 is exactly I."""
    ident = Matrix.identity(n, XSeries.one())
    if rng.random() < 0.5:
        return ident, ident, ident
    windows = [[rng.randint(1, 5) for _ in range(n)] for _ in range(n)]

    def completion():
        return Matrix([[XSeries([int(i == j)] + [0] * (w - 1)
                                + _fresh(rng, DEEP - w), DEEP)
                        for j, w in enumerate(row)]
                       for i, row in enumerate(windows)])

    cut = Matrix([[XSeries([int(i == j)], w) for j, w in enumerate(row)]
                  for i, row in enumerate(windows)])
    return completion(), cut, completion()


def _series_inverse(m):
    """m^-1 to x^DEEP for an n x n matrix m with m(0) = I, n <= 2."""
    if m.n == 1:
        return Matrix([[m.entry(0, 0).inverse(DEEP)]])
    (a, b), (c, d) = m.rows
    idet = (a * d - b * c).inverse(DEEP)
    return Matrix([[d * idet, -b * idet], [-c * idet, a * idet]])


def _divided(s0, s_rest, a, depth):
    """X with S o X = A for S = s0 + s_rest: the deep reference divides
    u S, a dressing, into u A, with u = s0^-1."""
    u = MatrixPsiDO(s0.n, {0: _series_inverse(s0)})
    s = MatrixPsiDO(s0.n, {0: s0, **s_rest.terms})
    return divide_dressing(u * s, u * a, depth)


def _x_agree(shallow, deep):
    """Every x-coefficient shallow claims agrees with deep, up to where
    deep stops: unlike _x_claims_hold, an exact shallow entry may meet a
    windowed deep one, since u = s_0^-1 is known only to x^DEEP."""
    if shallow.prec is not None:
        assert deep.known(shallow.prec - 1)
    top = min(p for p in (shallow.prec, deep.prec, DEEP) if p is not None)
    for k in range(top):
        assert shallow.coeff(k) == deep.coeff(k), k


def test_divide_dressing_claims_only_what_inputs_justify(
        record_testsuite_property):
    rng = random.Random("sound-divide-dressing")
    shortfalls = []
    claimed = 0
    for _ in range(120):
        n = rng.choice([1, 2])
        s0_deep, s0_cut, s0_other = _identity_cut(rng, n)
        s_cut, s_deep, s_other = _cut_operator(
            rng, n, rng.sample(range(-3, 0), rng.randint(1, 2)))
        a_cut, a_deep, a_other = _cut_operator(
            rng, n, rng.sample(range(-2, 3), rng.randint(1, 2)))
        depth = rng.randint(0, 4)
        shallow = divide_dressing(
            MatrixPsiDO(n, {0: s0_cut, **s_cut.terms}, s_cut.lo), a_cut,
            depth)
        deep_a = _divided(s0_deep, s_deep, a_deep, depth + 4)
        deep_b = _divided(s0_other, s_other, a_other, depth + 4)
        # every degree the shallow quotient tracks, stored or exactly zero
        degs = set(shallow.terms) | set(deep_a.terms) | set(deep_b.terms)
        for m in sorted(degs):
            if shallow.lo is not None and m < shallow.lo:
                continue
            claimed += 1
            for s, a, b in zip(*(op.coeff(m).rows
                                 for op in (shallow, deep_a, deep_b))):
                for es, ea, eb in zip(s, a, b):
                    _x_agree(es, ea)
                    _x_agree(es, eb)
                    if es.prec is not None:
                        shortfalls.append(_x_determined(ea, eb) - es.prec)
    assert claimed >= 120
    _record(record_testsuite_property, "divide_dressing", shortfalls)


def _monic_triple(rng, n, r, degs, blind):
    """D^r I plus terms on degs, cut to shallow windows: cut, deep and a
    second completion of the cut.  With blind, the cut may have a lo, as
    in _cut_operator; otherwise it is exact in degree."""
    if blind:
        ops = _cut_operator(rng, n, degs)
    else:
        trips = {m: [[_cut_x(rng, _deep_x(rng)) for _ in range(n)]
                     for _ in range(n)] for m in degs}
        ops = tuple(MatrixPsiDO(n, {m: Matrix([[e[i] for e in row]
                                               for row in trip])
                                    for m, trip in trips.items()})
                    for i in (1, 0, 2))
    top = {r: Matrix.identity(n, XSeries.one())}
    return tuple(MatrixPsiDO(n, {**op.terms, **top}, op.lo) for op in ops)


def _compare_operators(shallow, deep_a, deep_b, shortfalls):
    """Every entry of every degree shallow tracks against both
    completions; returns how many degrees were compared."""
    degs = set(shallow.terms) | set(deep_a.terms) | set(deep_b.terms)
    claimed = 0
    for m in sorted(degs):
        if shallow.lo is not None and m < shallow.lo:
            continue
        claimed += 1
        for s, a, b in zip(*(op.coeff(m).rows
                             for op in (shallow, deep_a, deep_b))):
            for es, ea, eb in zip(s, a, b):
                _x_claims_hold(es, ea)
                _x_claims_hold(es, eb)
                if es.prec is not None:
                    shortfalls.append(_x_determined(ea, eb) - es.prec)
    return claimed


def test_dress_to_constant_claims_only_what_inputs_justify(
        record_testsuite_property):
    rng = random.Random("sound-dress-to-constant")
    shortfalls = []
    checked = 0
    for _ in range(150):
        n = rng.choice([1, 2])
        r = rng.choice([2, 3])
        cut, deep, other = _monic_triple(rng, n, r, range(r - 1), False)
        depth = rng.randint(1, 4)
        try:
            shallow = dress_to_constant(cut, depth)
        except PrecisionError:
            continue
        _compare_operators(shallow, dress_to_constant(deep, depth),
                           dress_to_constant(other, depth), shortfalls)
        checked += 1
    assert checked >= 60
    _record(record_testsuite_property, "dress_to_constant", shortfalls)


def test_rth_root_claims_only_what_inputs_justify(record_testsuite_property):
    rng = random.Random("sound-rth-root")
    shortfalls = []
    claimed = 0
    for _ in range(150):
        n = rng.choice([1, 2])
        r = rng.choice([1, 2, 3])
        cut, deep, other = _monic_triple(
            rng, n, r, rng.sample(range(-2, r), rng.randint(1, 2)), True)
        depth = rng.randint(1, 4)
        claimed += _compare_operators(rth_root(cut, r, depth),
                                      rth_root(deep, r, depth),
                                      rth_root(other, r, depth), shortfalls)
    assert claimed >= 150
    _record(record_testsuite_property, "rth_root", shortfalls)


def _answer(f):
    """What f() answers: ("count", value) or ("domain", message); None
    when it raises PrecisionError, which claims nothing."""
    try:
        return "count", f()
    except DomainError as exc:
        return "domain", str(exc)
    except PrecisionError:
        return None


def _compare_answers(shallow, deep_a, deep_b, shortfalls):
    """An answer of the cut input must be both completions' answer; a
    determined answer it does not give counts as a shortfall of 1."""
    if shallow is not None:
        assert shallow == deep_a == deep_b
    if deep_a is not None and deep_a == deep_b:
        shortfalls.append(0 if shallow is not None else 1)


def test_fredholm_report_claims_only_what_inputs_justify(
        record_testsuite_property):
    rng = random.Random("sound-fredholm-report")
    shortfalls = []
    seen = set()
    for _ in range(400):
        n = rng.choice([1, 2])
        k = rng.randint(0, 3)
        cols = [[_deep_z(rng) for _ in range(n)] for _ in range(k)]
        if k >= 2 and rng.random() < 0.3:
            c = _rational(rng) or Fraction(1)
            cols[-1] = [a * c + b for a, b in zip(cols[0], cols[1])]
        trips = [[_cut_z(rng, w) for w in col] for col in cols]
        s0 = rng.randint(-2, 4)
        deep, cut, other = (
            GrassPoint(n, [[e[i] for e in col] for col in trips], s0)
            for i in range(3))
        shallow = _answer(lambda: cut.fredholm_report().as_dict())
        seen.add(shallow and shallow[0])
        _compare_answers(shallow,
                         _answer(lambda: deep.fredholm_report().as_dict()),
                         _answer(lambda: other.fredholm_report().as_dict()),
                         shortfalls)
    assert {None, "count", "domain"} <= seen
    assert len(shortfalls) >= 300
    _record(record_testsuite_property, "fredholm_report", shortfalls)


def test_laurent_span_dim_claims_only_what_inputs_justify(
        record_testsuite_property):
    rng = random.Random("sound-laurent-span-dim")
    shortfalls = []
    seen = set()
    for _ in range(400):
        nrows, ncols = rng.randint(1, 3), rng.randint(1, 3)
        # exact monomial entries keep the elimination exact, so an exact
        # dependence can be certified
        rows = [[ZLaurent.monomial(rng.randint(-3, 2), _rational(rng) or 1)
                 if rng.random() < 0.3 else _deep_z(rng)
                 for _ in range(ncols)] for _ in range(nrows)]
        if nrows >= 2 and rng.random() < 0.5:
            # the last row is a Laurent multiple of the first, plus the
            # second when there are three
            scale = ZLaurent.monomial(rng.randint(-2, 2),
                                      _rational(rng) or 1)
            rest = rows[1] if nrows > 2 else [ZLaurent.zero()] * ncols
            rows[-1] = [a * scale + b for a, b in zip(rows[0], rest)]
        trips = [[_cut_z(rng, w) for w in row] for row in rows]
        deep, cut, other = ([[e[i] for e in row] for row in trips]
                            for i in range(3))
        shallow = _answer(lambda: laurent_span_dim(cut))
        if shallow is not None:
            seen.add(shallow[1] < min(nrows, ncols))
        else:
            seen.add(None)
        _compare_answers(shallow, _answer(lambda: laurent_span_dim(deep)),
                         _answer(lambda: laurent_span_dim(other)),
                         shortfalls)
    assert {None, True, False} <= seen
    assert len(shortfalls) >= 300
    _record(record_testsuite_property, "laurent_span_dim", shortfalls)
