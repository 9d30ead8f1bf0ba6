"""GrassPoint.fredholm_report and GrassPoint.contains against the Fraction
reading they replaced.

The oracle below is the former reader: every coordinate was a Fraction
read through coeff, the window's lowest class came from each entry's whole
support, and the report took two ranks, first of the full coordinate
matrix on classes lo .. s0-1, then of its rows at classes 0 .. s0-1.  Its
ranks and its solvability test are a plain Fraction elimination written
here, so nothing of exactcore's linear algebra is shared.  The library
reads each column as integers over its own denominators and ranks the
a_rows first, taking the full rank only when they fall short; on seeded
frames of dressings (n = 1 and 2, windowed columns) and on hand-made
frames off the big cell, with dependent exact columns, with windowed
columns that look dependent and with no exceptional column, both must
give the same (h0, h1, rank), or raise the same exception with the same
text.
"""

import random
from fractions import Fraction

import pytest

from opcurve.exactcore import (
    DomainError,
    Matrix,
    PrecisionError,
    XSeries,
    ZLaurent,
)
from opcurve.psidocalc import MatrixPsiDO
from opcurve.sato import (
    GrassPoint,
    _int_coords,
    basis_column,
    module_action,
    point_from_dressing,
)


def _fraction_rank(rows):
    a = [list(map(Fraction, row)) for row in rows]
    r = 0
    for c in range(len(a[0]) if a else 0):
        pr = next((i for i in range(r, len(a)) if a[i][c]), None)
        if pr is None:
            continue
        a[r], a[pr] = a[pr], a[r]
        for i in range(r + 1, len(a)):
            f = a[i][c] / a[r][c]
            a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        r += 1
    return r


def _coord(vec, s, n):
    return vec[s % n].coeff(-(s // n))


def _known_floor(vec, n):
    floors = [i - n * w.prec for i, w in enumerate(vec) if w.prec is not None]
    return max(floors) if floors else None


def ref_window_lo(pt, extra=()):
    vecs = list(pt.columns) + list(extra)
    floors = [f for f in (_known_floor(v, pt.n) for v in vecs)
              if f is not None]
    base = min([pt.stable_from] + [i - pt.n * e for v in vecs
                                   for i, w in enumerate(v)
                                   for e in w.support()])
    return max(floors + [base])


def ref_fredholm(pt):
    n, k, s0 = pt.n, len(pt.columns), pt.stable_from
    lo = min(ref_window_lo(pt), 0, s0)
    for col in pt.columns:
        f = _known_floor(col, n)
        if f is not None and f > lo:
            raise PrecisionError("column windows do not determine the "
                                 f"coordinates down to class {lo}")
    full = [[_coord(col, s, n) for s in range(lo, s0)] for col in pt.columns]
    if _fraction_rank([list(r) for r in zip(*full)] if full else []) != k:
        if any(w.prec is not None for col in pt.columns for w in col):
            raise PrecisionError("column windows do not determine whether "
                                 "the exceptional columns are independent "
                                 "modulo the standard tail")
        raise DomainError("exceptional columns are dependent modulo the "
                          "standard tail")
    r = _fraction_rank([[col[s - lo] for col in full]
                        for s in range(max(0, lo), s0)])
    return k - r + max(0, -s0), max(0, s0) - r, r


def ref_contains(pt, vec):
    lo = ref_window_lo(pt, [vec])
    classes = range(lo, pt.stable_from)
    rows = [[_coord(col, s, pt.n) for col in pt.columns] for s in classes]
    rhs = [_coord(vec, s, pt.n) for s in classes]
    return (_fraction_rank(rows)
            == _fraction_rank([row + [b] for row, b in zip(rows, rhs)]))


def _answer(run):
    try:
        return run()
    except (DomainError, PrecisionError) as err:
        return type(err).__name__, str(err)


def _report(pt):
    rep = pt.fredholm_report()
    return rep.h0, rep.h1, rep.rank


def _agree(pt, vecs=()):
    assert _answer(lambda: _report(pt)) == _answer(lambda: ref_fredholm(pt))
    for vec in vecs:
        assert (_answer(lambda: pt.contains(vec))
                == _answer(lambda: ref_contains(pt, vec)))


def _rational(rng):
    return Fraction(rng.randint(-9, 9), rng.choice([1, 1, 2, 3, 7]))


def _dressing(rng, n, depth, nx):
    terms = {0: Matrix.identity(n, XSeries.one())}
    for m in range(1, depth + 1):
        terms[-m] = Matrix([[XSeries([_rational(rng) for _ in range(nx)])
                             for _ in range(n)] for _ in range(n)])
    return MatrixPsiDO(n, terms)


def _laurent(rng, lo=-3, hi=3, windowed=False):
    coeffs = {e: _rational(rng) for e in range(lo, hi + 1)
              if rng.random() < 0.5}
    return ZLaurent(coeffs, rng.randint(hi - 1, hi + 3) if windowed else None)


def _probes(rng, pt):
    """Columns to test contains on: the frame's own columns and their
    images under a small operator, standard columns, and random ones."""
    n = pt.n
    op = MatrixPsiDO(n, {-1: Matrix.identity(n, XSeries([1, 1]))})
    out = list(pt.columns[:2])
    out += [module_action(op, col) for col in pt.columns[:1]]
    out += [basis_column(s, n) for s in (-1, 0, pt.stable_from - 1)]
    out += [tuple(_laurent(rng, windowed=rng.random() < 0.3)
                  for _ in range(n)) for _ in range(3)]
    return out


@pytest.mark.parametrize("n,depth,nx", [(1, 2, 3), (1, 3, 2), (2, 1, 2)])
def test_frames_of_dressings_agree(n, depth, nx):
    rng = random.Random(f"fredholm-reference-{n}-{depth}-{nx}")
    for _ in range(3):
        pt = point_from_dressing(_dressing(rng, n, depth, nx))
        assert any(w.prec is not None for col in pt.columns for w in col)
        _agree(pt, _probes(rng, pt))


def _frame(n, columns, s0):
    return GrassPoint(n, [tuple(ZLaurent(c, p) for c, p in col)
                          for col in columns], s0)


HAND_MADE = {
    # z^1 at class -1 is the only exceptional column, and no class of
    # 0 .. s0-1 is left to it: r = 0 < k, h0 = 1
    "h0": ((1, [[({1: 1}, None)]], 0), (1, 0, 0)),
    # nothing but z^-1, z^-2, ...: k = 0 and h1 = 1
    "h1": ((1, [], 1), (0, 1, 0)),
    "k0_negative_tail": ((1, [], -2), (2, 0, 0)),
    "k0_big_cell": ((2, [], 0), (0, 0, 0)),
    "big_cell": ((2, [[({0: 1, 1: 3}, None), ({1: 2}, None)],
                      [({1: 1}, None), ({0: 1}, None)]], 2), (0, 0, 2)),
    "mixed": ((1, [[({1: 1, 0: 2}, None)], [({2: 1}, None)]], 1),
              (1, 0, 1)),
    "dependent_exact": ((1, [[({1: 1}, None)], [({1: 2}, None)]], 0),
                        ("DomainError", "exceptional columns are dependent "
                         "modulo the standard tail")),
    "windowed_look_dependent": (
        (1, [[({1: 1}, 5)], [({1: 2}, 5)]], 0),
        ("PrecisionError", "column windows do not determine whether the "
         "exceptional columns are independent modulo the standard tail")),
    "windowed_short": ((1, [[({}, -3)]], 0),
                       ("PrecisionError", "column windows do not determine "
                        "the coordinates down to class 0")),
}


@pytest.mark.parametrize("name", sorted(HAND_MADE))
def test_hand_made_frames_agree(name):
    (n, columns, s0), want = HAND_MADE[name]
    pt = _frame(n, columns, s0)
    rng = random.Random(f"fredholm-hand-made-{name}")
    assert _answer(lambda: _report(pt)) == want
    _agree(pt, [basis_column(s, n) for s in range(-2, 3)]
           + [tuple(_laurent(rng, windowed=rng.random() < 0.3)
                    for _ in range(n)) for _ in range(4)])


def test_seeded_small_frames_agree():
    """Random frames of up to three columns, some dependent by
    construction, some windowed, on stable_from of either sign."""
    rng = random.Random("fredholm-small-frames")
    outcomes = set()
    for _ in range(200):
        n = rng.choice([1, 2])
        windowed = rng.random() < 0.3
        cols = [tuple(_laurent(rng, -2, 2, windowed and rng.random() < 0.5)
                      for _ in range(n)) for _ in range(rng.randint(0, 3))]
        if len(cols) > 1 and rng.random() < 0.3:
            c = _rational(rng)
            cols[-1] = tuple(ZLaurent.constant(c) * w for w in cols[0])
        pt = GrassPoint(n, cols, rng.randint(-2, 4))
        want = _answer(lambda: ref_fredholm(pt))
        outcomes.add(want[0] if isinstance(want[0], str) else "report")
        _agree(pt, [tuple(_laurent(rng, -2, 2, rng.random() < 0.2)
                          for _ in range(n)) for _ in range(2)]
               + cols[:1])
    assert outcomes == {"report", "DomainError", "PrecisionError"}


def test_reader_refuses_a_class_beyond_the_window():
    w = ZLaurent({0: Fraction(1, 2), 2: Fraction(1, 3)}, 2)
    # classes -2 .. 0 of n = 1 are z^2, z^1, z^0, all within the window
    assert _int_coords((w,), -2, 1, 1) == [2, 0, 3]
    with pytest.raises(PrecisionError) as err:
        _int_coords((w,), -3, 1, 1)
    with pytest.raises(PrecisionError) as want:
        w.coeff(3)
    assert str(err.value) == str(want.value)
    # n = 2: class -5 is z^3 of entry 1, beyond its window, while entry
    # 0's lowest class in the range is -4, z^2, within its window
    with pytest.raises(PrecisionError):
        _int_coords((w, w), -5, 0, 2)
    assert _int_coords((w, w), -4, 0, 2) == [2, 2, 0, 0]
