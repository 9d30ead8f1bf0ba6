"""Golden outputs of the operations built on the Leibniz expansion.

compose, invert_dressing, dress_to_constant, rth_root and to_laurent run on
fixed inputs: exact polynomial operands, operands with a degree window,
x-truncated operands that poison a product or exhaust an inversion, 2x2
operators with mixed entry windows, and a dressing input whose stored
subleading and negative-degree terms are zero but windowed.  Each result
is rendered with every entry's x-window, so a change to any window shows.
tests/golden/leibniz_kernel.json was recorded from the implementation that
preceded the shared Leibniz kernel and must keep matching it, except for
the five mixed_2x2 entries of compose, invert, dress and root.  Those were
re-recorded once an exact zero factor gave an exact zero product instead
of a zero on the other factor's window: their values and degree floors
are unchanged, 49 entry windows widened and none narrowed.
"""

import json
from fractions import Fraction
from pathlib import Path

import pytest

from opcurve.exactcore import ExactError, Matrix, XSeries
from opcurve.pipelines import dress_to_constant
from opcurve.psidocalc import MatrixPsiDO, compose, invert_dressing, rth_root

GOLDEN = Path(__file__).parent / "golden" / "leibniz_kernel.json"


def xs(*coeffs, prec=None):
    return XSeries([Fraction(c) for c in coeffs], prec)


def op(terms, lo=None, n=1):
    """Operator from degree -> entry (n=1) or degree -> rows (n>1)."""
    if n == 1:
        return MatrixPsiDO.from_scalars(terms, lo)
    return MatrixPsiDO(n, {m: Matrix(rows) for m, rows in terms.items()}, lo)


def cusp(nx=12, c=1):
    u = (XSeries.constant(c) + XSeries.x()).inverse(prec=nx)
    p = op({2: 1, 0: (u * u).scale(-2)})
    q = op({3: 1, 1: (u * u).scale(-3), 0: (u * u * u).scale(3)})
    return p, q


def mixed_2x2(lo=None, tail=True):
    """D^2 I plus a zeroth-order term whose entries carry different
    windows, with exact zeros beside windowed ones, and optionally a
    windowed D^-1 term."""
    one, zero = xs(1), xs()
    terms = {2: [[one, zero], [zero, one]],
             0: [[xs(1, 2, 3, prec=6), zero],
                 [xs(0, 1), xs(2, 0, 1, prec=9)]]}
    if tail:
        terms[-1] = [[zero, xs(0, 0, 1, prec=5)], [zero, zero]]
    return op(terms, lo=lo, n=2)


def _entries(mat):
    return "[" + "; ".join(", ".join(repr(e) for e in row)
                           for row in mat.rows) + "]"


def render(value):
    """repr plus the window of every stored entry."""
    if isinstance(value, Matrix):
        return _entries(value)
    parts = [repr(value)]
    for m in sorted(value.terms, reverse=True):
        parts.append(f"D^{m}: {_entries(value.terms[m])}")
    return " | ".join(parts)


def _cases():
    p, q = cusp()
    p6, q6 = cusp(nx=6, c=2)
    exact_a = op({2: 1, 1: xs(0, 1), 0: xs(1, 0, 1)})
    exact_b = op({-1: 1, -2: xs(0, 0, 3), 1: xs(2, 1)})
    windowed_a = op({1: 1, 0: xs(0, 1), -1: xs(1, 1), -2: xs(0, 0, 1)},
                    lo=-3)
    windowed_b = op({2: 1, 0: xs(1, 0, 2), -1: xs(0, 5)}, lo=-2)
    short = op({0: xs(1, 1, 1, prec=3)})
    stored_zero = op({2: 1, 1: xs(prec=5), 0: xs(3, 1, 4, prec=7),
                      -1: xs(prec=4)}, lo=-2)
    dressing_exact = op({0: 1, -1: xs(0, 1), -2: 1})
    dressing_gap = op({0: 1, -2: xs(1, 0, 1)})
    dressing_windowed = op({0: 1, -1: xs(2, 1, prec=8),
                            -3: xs(0, 1, 1, prec=8)}, lo=-4)
    dressing_short = op({0: 1, -1: xs(1, 1, 1, prec=3)})
    one, zero = xs(1), xs()
    dressing_2x2 = op({0: [[one, zero], [zero, one]],
                       -1: [[xs(0, 1), xs(1, prec=7)],
                            [zero, xs(2, 1, prec=5)]],
                       -2: [[zero, zero], [xs(1), zero]]}, lo=-5, n=2)
    return {
        "compose.exact": lambda: compose(exact_a, exact_b),
        "compose.exact_reversed": lambda: compose(exact_b, exact_a),
        "compose.negative_times_polynomial":
            lambda: compose(op({-2: 1}), op({0: xs(0, 0, 0, 1)})),
        "compose.degree_windows": lambda: compose(windowed_a, windowed_b),
        "compose.degree_window_times_exact":
            lambda: compose(exact_a, windowed_a),
        "compose.cusp": lambda: compose(p, q),
        "compose.cusp_short": lambda: compose(q6, p6),
        "compose.poison_negative": lambda: compose(op({-1: 1}), short),
        "compose.poison_positive": lambda: compose(op({3: 1}), short),
        "compose.poison_windowed":
            lambda: compose(windowed_a, short.truncate_depth(-1)),
        "compose.mixed_2x2": lambda: compose(mixed_2x2(), mixed_2x2()),
        "compose.mixed_2x2_windowed":
            lambda: compose(mixed_2x2(lo=-2), mixed_2x2()),
        "compose.stored_zero": lambda: compose(stored_zero, windowed_b),
        "invert.exact": lambda: invert_dressing(dressing_exact, depth=5),
        "invert.gap": lambda: invert_dressing(dressing_gap, depth=5),
        "invert.windowed": lambda: invert_dressing(dressing_windowed),
        "invert.windowed_deeper":
            lambda: invert_dressing(dressing_windowed, depth=7),
        "invert.exhausted": lambda: invert_dressing(dressing_short, depth=6),
        "invert.shallow_short": lambda: invert_dressing(dressing_short,
                                                        depth=2),
        "invert.mixed_2x2": lambda: invert_dressing(dressing_2x2),
        "dress.exact_order2": lambda: dress_to_constant(
            op({2: 1, 0: xs(0, 1)}), depth=4),
        "dress.exact_order3": lambda: dress_to_constant(
            op({3: 1, 1: xs(0, 1), 0: 1}), depth=4),
        "dress.cusp_p": lambda: dress_to_constant(p, depth=6),
        "dress.cusp_q": lambda: dress_to_constant(q, depth=5),
        "dress.cusp_short": lambda: dress_to_constant(p6, depth=3),
        "dress.stored_zero": lambda: dress_to_constant(stored_zero, depth=4),
        "dress.degree_window": lambda: dress_to_constant(
            op({2: 1, 0: xs(1, 2, prec=8)}, lo=0), depth=3),
        "dress.mixed_2x2": lambda: dress_to_constant(
            mixed_2x2(lo=0, tail=False), depth=3),
        "root.exact": lambda: rth_root(op({2: 1, 0: xs(0, 2)}), 2, depth=4),
        "root.cusp_p": lambda: rth_root(p, 2, depth=5),
        "root.cusp_q": lambda: rth_root(q, 3, depth=4),
        "root.degree_window": lambda: rth_root(
            op({2: 1, 1: xs(0, 1), 0: xs(1, 1, prec=6)}, lo=-1), 2, depth=5),
        "root.mixed_2x2": lambda: rth_root(mixed_2x2(), 2, depth=3),
        "rho.windowed": lambda: op({1: xs(0, 1, 2, prec=4), 0: 1,
                                    -2: xs(3, 0, 1)}, lo=-3).to_laurent(),
        "rho.mixed_2x2": lambda: mixed_2x2(lo=-3).to_laurent(),
    }


def outputs():
    out = {}
    for name, run in _cases().items():
        try:
            out[name] = render(run())
        except ExactError as err:
            out[name] = f"{type(err).__name__}: {err}"
    return out


def test_leibniz_outputs_match_golden():
    want = json.loads(GOLDEN.read_text())
    got = outputs()
    assert sorted(got) == sorted(want)
    for name in want:
        assert got[name] == want[name], name


@pytest.mark.parametrize("lo, tail", [(None, True), (-3, True), (0, False)])
def test_identity_is_a_two_sided_unit_for_compose(lo, tail):
    p = mixed_2x2(lo=lo, tail=tail)
    ident = MatrixPsiDO.identity(2)
    assert render(compose(ident, p)) == render(p)
    assert render(compose(p, ident)) == render(p)
