"""Command line interface.

Every verb wraps one library operation.  Operands are expressions in
the surface grammar (GRAMMAR.md); names inside expressions resolve to
bindings of the session file given with --session (FORMAT.md).  Output
is human-readable by default and canonical JSON with --json.

Exit codes: 0 success (and checked properties hold), 1 a checked
property fails, 2 syntax or usage error, 3 domain error, 4 precision
error.
"""

import argparse
import os
import sys
from fractions import Fraction

from .exactcore import (
    DomainError,
    Matrix,
    PrecisionError,
    XSeries,
    ZLaurent,
    min_prec,
)
from .psidocalc import MatrixPsiDO, commutator, rth_root
from .sato import (
    GrassPoint,
    is_differential_by_action,
    point_from_dressing,
    dressing_from_point,
    stabilizes,
)
from .curvedata import (
    AlgebraSpec,
    charpoly_string,
    condition_report,
    filtration_piece,
    is_cyclic,
    matrix_order,
    semigroup_report,
    spectral_charpoly,
)
from .pipelines import (
    geometric_to_operators,
    operators_to_geometric,
    round_trip,
    verify_commutative,
)
from .session import (
    CONTEXT_BOUNDS,
    DEFAULT_CONTEXT,
    Session,
    canonical_json,
    value_payload,
    value_tag,
)
from .exprs import ParseError, evaluate, invert_value, print_value

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_SYNTAX = 2
EXIT_DOMAIN = 3
EXIT_PRECISION = 4

# Largest conductor whose member/gap table the human semigroup output
# prints; --json always lists every gap.
TABLE_CAP = 1000


# -- operand helpers -------------------------------------------------


class _Env:
    __slots__ = ("ses", "path", "ctx")

    def __init__(self, ses, path, ctx):
        self.ses = ses
        self.path = path
        self.ctx = ctx


def _operand(env, text):
    resolve = env.ses.get if env.ses is not None else None
    return evaluate(text, resolve, env.ctx)


def _as_pdo(value, what="operand"):
    if isinstance(value, (Fraction, int)):
        return MatrixPsiDO.identity(1).scale(value)
    if isinstance(value, XSeries):
        return MatrixPsiDO.from_xseries(value)
    if isinstance(value, Matrix):
        tag = value_tag(value)
        if tag == "qmatrix":
            return MatrixPsiDO(value.n, {0: value.map(XSeries.constant)})
        if tag == "xmatrix":
            return MatrixPsiDO(value.n, {0: value})
    if not isinstance(value, MatrixPsiDO):
        raise DomainError(f"{what} must be an operator, got "
                          f"{value_tag(value)}")
    return value


def _as_point(value, what="operand"):
    if not isinstance(value, GrassPoint):
        raise DomainError(f"{what} must name a grasspoint binding, got "
                          f"{value_tag(value)}")
    return value


def _as_zmatrix(value, what="operand"):
    if isinstance(value, (Fraction, int)):
        value = ZLaurent.constant(value)
    if isinstance(value, ZLaurent):
        return Matrix([[value]])
    if isinstance(value, Matrix):
        tag = value_tag(value)
        if tag == "qmatrix":
            return value.map(ZLaurent.constant)
        if tag == "zmatrix":
            return value
    raise DomainError(f"{what} must be a matrix over the Laurent field, "
                      f"got {value_tag(value)}")


def _gens_to_spec(values, n_flag):
    """Algebra presentation from generator values: matrices are taken as
    given, scalar Laurent series become diagonal generators."""
    gens, diag = [], []
    for v in values:
        if isinstance(v, (Fraction, int)):
            v = ZLaurent.constant(v)
        if isinstance(v, ZLaurent):
            diag.append(v)
        else:
            gens.append(_as_zmatrix(v, "generator"))
    if gens:
        n = gens[0].n
    elif n_flag is not None:
        n = n_flag
    else:
        n = 1
    if n_flag is not None and n_flag != n:
        raise DomainError(f"--n {n_flag} does not match generator size {n}")
    return AlgebraSpec(n, gens, diag)


# -- output helpers --------------------------------------------------


def _tagged(value):
    return {"type": value_tag(value), "value": value_payload(value)}


def _window_note(value):
    """Human-readable statement of the window a value is certified on."""
    tag = value_tag(value)
    if tag in ("scalar", "qmatrix"):
        return "exact"
    if tag in ("xseries", "zlaurent"):
        entries = [value]
    elif tag in ("xmatrix", "zmatrix"):
        entries = [e for row in value.rows for e in row]
    elif tag == "pdo":
        parts = []
        if value.lo is not None:
            parts.append(f"degrees >= {value.lo}")
        nx = value.xprec()
        if nx is not None:
            parts.append(f"x-precision {nx}")
        return "exact" if not parts else ", ".join(parts)
    else:
        return None
    p = min_prec(entries)
    if p is None:
        return "exact"
    if tag in ("zlaurent", "zmatrix"):
        return f"z-exponents <= {p}"
    return f"x-precision {p}"


def _window_lines(value):
    """The 'window:' line for a value not known exactly, else nothing."""
    note = _window_note(value)
    return [f"window: {note}"] if note and note != "exact" else []


def _describe(value):
    """Short human rendering; falls back to structural summaries for
    values without an expression form."""
    tag = value_tag(value)
    if tag == "grasspoint":
        lines = [f"frame: n={value.n}, stable from S={value.stable_from}, "
                 f"{len(value.columns)} exceptional column(s)"]
        for i, col in enumerate(value.columns):
            body = "; ".join(str(e) for e in col)
            lines.append(f"  column {i}: [{body}]")
        return lines
    if tag == "algebra":
        return [f"algebra: n={value.n}, {len(value.gens)} matrix "
                f"generator(s), {len(value.diag_gens)} diagonal "
                f"generator(s)"]
    return [print_value(value)] + _window_lines(value)


def _store(env, args, value):
    name = getattr(args, "store", None)
    if not name:
        return []
    if env.ses is None or env.path is None:
        raise DomainError("--store needs --session FILE")
    env.ses.set(name, value)
    env.ses.save(env.path)
    return [f"stored as {name!r}"]


def _value_result(env, args, value, extra_lines=()):
    lines = list(extra_lines) + _describe(value) + _store(env, args, value)
    return EXIT_OK, lines, _tagged(value)


# -- pdo verbs -------------------------------------------------------


def _cmd_pdo_compose(env, args):
    a = _as_pdo(_operand(env, args.a))
    b = _as_pdo(_operand(env, args.b))
    return _value_result(env, args, a * b)


def _cmd_pdo_commutator(env, args):
    a = _as_pdo(_operand(env, args.a))
    b = _as_pdo(_operand(env, args.b))
    return _value_result(env, args, commutator(a, b))


def _cmd_pdo_split(env, args):
    plus, minus = _as_pdo(_operand(env, args.a)).split()
    lines = ["differential part: " + print_value(plus),
             "integral part: " + print_value(minus)] + _window_lines(minus)
    return EXIT_OK, lines, {"plus": _tagged(plus), "minus": _tagged(minus)}


def _cmd_pdo_rho(env, args):
    op = _as_pdo(_operand(env, args.a))
    mat = op.to_laurent()
    value = mat.rows[0][0] if mat.n == 1 else mat
    return _value_result(env, args, value)


def _cmd_pdo_root(env, args):
    op = _as_pdo(_operand(env, args.a))
    value = rth_root(op, args.r, depth=env.ctx["depth"])
    return _value_result(env, args, value)


def _cmd_pdo_invert(env, args):
    value = invert_value(_operand(env, args.a), env.ctx)
    return _value_result(env, args, value)


# -- grass verbs -----------------------------------------------------


def _cmd_grass_from_dressing(env, args):
    s = _as_pdo(_operand(env, args.dressing), "dressing")
    return _value_result(env, args, point_from_dressing(s))


def _cmd_grass_to_dressing(env, args):
    w = _as_point(_operand(env, args.point), "point")
    s = dressing_from_point(w, depth=env.ctx["depth"], nx=env.ctx["xprec"])
    return _value_result(env, args, s)


def _cmd_grass_h0h1(env, args):
    w = _as_point(_operand(env, args.point), "point")
    rep = w.fredholm_report()
    lo = w.window_lo()
    cell = " (big cell)" if (rep.h0, rep.h1) == (0, 0) else ""
    lines = [f"h0={rep.h0} h1={rep.h1} index={rep.index}{cell}",
             f"certified on classes [{lo}, {rep.stable_from})"]
    obj = rep.as_dict()
    obj["window_lo"] = lo
    return EXIT_OK, lines, obj


def _cmd_grass_stabilizes(env, args):
    w = _as_point(_operand(env, args.point), "point")
    g = _as_zmatrix(_operand(env, args.gen), "generator")
    ok = stabilizes(w, g)
    verdict = "yes" if ok else "no"
    lines = [f"{verdict}: the generator maps the frame span "
             f"{'into' if ok else 'outside'} itself "
             f"(S={w.stable_from}, window classes >= {w.window_lo()})"]
    obj = {"stabilizes": ok, "stable_from": w.stable_from,
           "window_lo": w.window_lo()}
    return (EXIT_OK if ok else EXIT_FAIL), lines, obj


def _cmd_grass_is_differential(env, args):
    op = _as_pdo(_operand(env, args.op))
    w = _as_point(_operand(env, args.point), "point")
    ok = is_differential_by_action(op, w)
    lines = [("yes" if ok else "no")
             + f": action test on the frame (S={w.stable_from})"]
    return (EXIT_OK if ok else EXIT_FAIL), lines, {"differential": ok}


# -- curve verbs -----------------------------------------------------


def _parse_orders(text):
    try:
        orders = [int(p) for p in text.split(",") if p.strip() != ""]
    except ValueError as err:
        raise DomainError(f"bad --orders list {text!r}") from err
    if not orders:
        raise DomainError("--orders needs at least one integer")
    return orders


def _semigroup_lines(rep):
    gens = ", ".join(str(g) for g in rep.generators)
    reduced = ", ".join(str(g) for g in rep.reduced)
    lines = [f"orders: {gens} (rank {rep.rank}, reduced: {reduced})",
             f"conductor: {rep.conductor}",
             f"genus: {rep.genus}"]
    if rep.conductor <= TABLE_CAP:
        gaps = set(rep.gaps)
        marks = " ".join(f"{k}:{'-' if k in gaps else '+'}"
                         for k in range(rep.conductor + 1))
        lines.append(f"table (members +, gaps -): {marks}")
    else:
        lines.append(f"table omitted: conductor {rep.conductor} exceeds "
                     f"{TABLE_CAP}; {rep.genus} gaps, listed by --json")
    if rep.coprime_bound is not None:
        lines.append(f"coprime pair bound: {rep.coprime_bound}")
    return lines


def _cmd_curve_semigroup(env, args):
    if args.orders:
        orders = _parse_orders(args.orders)
    elif args.gens:
        orders = [matrix_order(_as_zmatrix(_operand(env, g), "generator"))
                  for g in args.gens]
    else:
        raise DomainError("need --orders or generator expressions")
    rep = semigroup_report(orders)
    return EXIT_OK, _semigroup_lines(rep), rep.as_dict()


def _cmd_curve_filtration(env, args):
    spec = _gens_to_spec([_operand(env, g) for g in args.gens], args.n)
    rep = filtration_piece(spec, args.bound)
    lines = [f"dim of the order-bounded piece (bound {rep.bound}): "
             f"{rep.dim}"]
    for mono in rep.monomials:
        lines.append("  exponents " + ", ".join(str(e) for e in mono))
    return EXIT_OK, lines, rep.as_dict()


def _cmd_curve_charpoly(env, args):
    g = _as_zmatrix(_operand(env, args.gen), "generator")
    cs = spectral_charpoly(g)
    text = charpoly_string(cs)
    lines = [text] + _window_lines(g)
    obj = {"coeffs": [_tagged(c) for c in cs], "string": text}
    return EXIT_OK, lines, obj


def _cmd_curve_cyclicity(env, args):
    g = _as_zmatrix(_operand(env, args.gen), "generator")
    ok = is_cyclic(g)
    lines = [("yes" if ok else "no")
             + f": powers 1, g, ..., g^{g.n - 1} "
             + ("span" if ok else "do not span")
             + " over the Laurent field"]
    return (EXIT_OK if ok else EXIT_FAIL), lines, {"cyclic": ok}


def _cmd_curve_condition21(env, args):
    spec = _gens_to_spec([_operand(env, g) for g in args.gens], args.n)
    rep = condition_report(spec)
    lines = [f"commutes: {'yes' if rep.commutes else 'no'}",
             f"span dimension: {rep.span_dim} (need {rep.n})",
             f"rank (gcd of orders): {rep.rank} (need 1)",
             f"satisfied: {'yes' if rep.satisfied else 'no'}"]
    return (EXIT_OK if rep.satisfied else EXIT_FAIL), lines, rep.as_dict()


# -- pipeline verbs --------------------------------------------------


def _forward_obj(res):
    return {
        "dressing": _tagged(res.dressing),
        "inverse": _tagged(res.inverse),
        "operators": [_tagged(op) for op in res.operators],
        "differential": list(res.differential),
        "commuting": res.commuting,
    }


def _forward_lines(res):
    lines = ["dressing: " + print_value(res.dressing)]
    for i, op in enumerate(res.operators):
        flag = "differential" if res.differential[i] else "has integral part"
        lines.append(f"operator {i}: {print_value(op)}  [{flag}]")
    lines.append("commuting: " + ("yes" if res.commuting else "no"))
    return lines + _window_lines(res.dressing)


def _cmd_pipeline_forward(env, args):
    pt = _as_point(_operand(env, args.point), "point")
    spec = _gens_to_spec([_operand(env, g) for g in args.gens], args.n)
    res = geometric_to_operators(pt, spec, depth=env.ctx["depth"],
                                 nx=env.ctx["xprec"],
                                 window=env.ctx["depth"])
    return EXIT_OK, _forward_lines(res), _forward_obj(res)


def _backward_obj(res):
    return {
        "monic_index": res.monic_index,
        "dressing": _tagged(res.dressing),
        "constants": [_tagged(c) for c in res.constants],
        "semigroup": res.semigroup.as_dict(),
        "condition": None if res.condition is None
        else res.condition.as_dict(),
        "charpoly": res.charpoly_str,
        "point": None if res.point is None else _tagged(res.point),
        "fredholm": None if res.fredholm is None
        else res.fredholm.as_dict(),
    }


def _backward_lines(res):
    if len(res.monic_factors) == 1:
        monic = f"monic operator index: {res.monic_index}"
    else:
        monic = ("monic operator: product of operators "
                 f"{res.monic_factors[0]} and {res.monic_factors[1]}")
    lines = [monic,
             "dressing: " + print_value(res.dressing)]
    for i, c in enumerate(res.constants):
        val = c.rows[0][0] if c.n == 1 else c
        lines.append(f"constant {i}: {print_value(val)}")
    lines.extend(_semigroup_lines(res.semigroup))
    if res.condition is None:
        lines.append("condition report: not certified at these windows")
    else:
        lines.append("condition satisfied: "
                     + ("yes" if res.condition.satisfied else "no"))
    if res.charpoly_str is not None:
        lines.append(f"spectral charpoly: {res.charpoly_str}")
    if res.fredholm is None:
        lines.append("fredholm: not certified at these windows: "
                     + res.fredholm_reason)
    else:
        lines.append(f"fredholm: h0={res.fredholm.h0} h1={res.fredholm.h1} "
                     f"index={res.fredholm.index}")
    return lines


def _cmd_pipeline_backward(env, args):
    ops = [_as_pdo(_operand(env, t)) for t in args.ops]
    res = operators_to_geometric(ops, depth=env.ctx["depth"])
    return EXIT_OK, _backward_lines(res), _backward_obj(res)


def _cmd_pipeline_roundtrip(env, args):
    pt = _as_point(_operand(env, args.point), "point")
    spec = _gens_to_spec([_operand(env, g) for g in args.gens], args.n)
    fwd, back, equal = round_trip(pt, spec, depth=env.ctx["depth"],
                                  nx=env.ctx["xprec"],
                                  window=env.ctx["depth"])
    lines = _forward_lines(fwd)
    lines.append("recovered charpoly: " + str(back.charpoly_str))
    lines.append("round trip closed: " + ("yes" if equal else "no"))
    obj = {"equal": equal, "forward": _forward_obj(fwd),
           "backward": _backward_obj(back)}
    return (EXIT_OK if equal else EXIT_FAIL), lines, obj


# -- verify ----------------------------------------------------------


def _cmd_verify_commute(env, args):
    if args.ops:
        ops = [_as_pdo(_operand(env, t)) for t in args.ops]
    elif env.ses is not None:
        ops = [env.ses.get(n) for n in env.ses.names("pdo")]
        if not ops:
            raise DomainError("session has no operator bindings")
    else:
        raise DomainError("give operator expressions or --session FILE")
    rep = verify_commutative(ops)
    nx = min_prec(e for op in ops for mat in op.terms.values()
                  for row in mat.rows for e in row)
    window = "exactly" if nx is None else f"to precision (Nx={nx})"
    if rep.ok:
        lines = [f"PASS: all commutators zero {window}"]
    else:
        lines = [f"FAIL: {len(rep.witnesses)} nonzero commutator(s) {window}"]
        for i, j, c in rep.witnesses:
            lines.append(f"  [op{i}, op{j}] = {print_value(c)}")
    obj = rep.as_dict()
    obj["xprec"] = nx
    return (EXIT_OK if rep.ok else EXIT_FAIL), lines, obj


# -- session verbs ---------------------------------------------------


def _cmd_session_set(env, args):
    if env.ses is None or env.path is None:
        raise DomainError("session set needs --session FILE")
    value = _operand(env, args.expr)
    env.ses.set(args.name, value)
    env.ses.save(env.path)
    lines = [f"stored {args.name!r} ({value_tag(value)})"]
    return EXIT_OK, lines, {"stored": args.name, "type": value_tag(value)}


def _cmd_session_show(env, args):
    if env.ses is None:
        raise DomainError("session show needs --session FILE")
    if args.name:
        value = env.ses.get(args.name)
        code, lines, _ = _value_result(env, args, value)
        return code, lines, _tagged(value)
    ctx = env.ses.context
    lines = ["context: " + ", ".join(f"{k}={ctx[k]}" for k in sorted(ctx))]
    for name in env.ses.names():
        lines.append(f"{name}: {value_tag(env.ses.bindings[name])}")
    obj = {"context": dict(ctx),
           "bindings": {n: _tagged(env.ses.bindings[n])
                        for n in env.ses.names()}}
    return EXIT_OK, lines, obj


# -- parser ----------------------------------------------------------


def _add_store(sp):
    sp.add_argument("--store", metavar="NAME",
                    help="store the result in the session file")


def _int_in(lo, hi):
    """argparse type for an integer flag in [lo, hi]."""
    def parse(text):
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"invalid int value: {text!r}") from None
        if value < lo:
            raise argparse.ArgumentTypeError(
                f"must be nonnegative, got {value}" if lo == 0
                else f"must be at least {lo}, got {value}")
        if value > hi:
            raise argparse.ArgumentTypeError(
                f"must be at most {hi}, got {value}")
        return value
    return parse


def _global_flags(p, leaf=False):
    # On leaves the flags are write-only (SUPPRESS), so an absent flag
    # never clobbers a value parsed before the subcommand.
    d = argparse.SUPPRESS if leaf else None
    jd = argparse.SUPPRESS if leaf else False
    # a precision flag outside session.CONTEXT_BOUNDS is a usage error
    # (exit 2) before any work starts
    p.add_argument("--x-prec", dest="xprec",
                   type=_int_in(*CONTEXT_BOUNDS["xprec"]), metavar="N",
                   default=d, help="guaranteed x-series coefficients")
    p.add_argument("--z-lo", dest="zlo", type=_int_in(*CONTEXT_BOUNDS["zlo"]),
                   metavar="K", default=d, help="z-window bottom")
    p.add_argument("--z-hi", dest="zhi", type=_int_in(*CONTEXT_BOUNDS["zhi"]),
                   metavar="K", default=d, help="z-window top")
    p.add_argument("--depth", type=_int_in(*CONTEXT_BOUNDS["depth"]),
                   metavar="D", default=d,
                   help="negative operator degrees carried")
    p.add_argument("--session", metavar="FILE", default=d,
                   help="session file with named bindings")
    p.add_argument("--json", action="store_true", default=jd,
                   help="canonical JSON output")


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="opcurve",
        description="Exact workbench for commuting differential operators, "
                    "Grassmannian frames and spectral curve data.")
    _global_flags(p)
    # the same flags on every leaf so they may follow the verb
    common = argparse.ArgumentParser(add_help=False)
    _global_flags(common, leaf=True)
    sub = p.add_subparsers(dest="group", required=True, metavar="GROUP")

    def leaf(subparsers, name, **kw):
        return subparsers.add_parser(name, parents=[common], **kw)

    pdo = sub.add_parser("pdo", help="operator calculus")
    psub = pdo.add_subparsers(dest="verb", required=True, metavar="VERB")
    sp = leaf(psub, "compose", help="product of two operators")
    sp.add_argument("a")
    sp.add_argument("b")
    _add_store(sp)
    sp.set_defaults(handler=_cmd_pdo_compose)
    sp = leaf(psub, "commutator", help="commutator of two operators")
    sp.add_argument("a")
    sp.add_argument("b")
    _add_store(sp)
    sp.set_defaults(handler=_cmd_pdo_commutator)
    sp = leaf(psub, "split",
                         help="differential and integral parts")
    sp.add_argument("a")
    sp.set_defaults(handler=_cmd_pdo_split)
    sp = leaf(psub, "rho", help="constant operator to Laurent symbol")
    sp.add_argument("a")
    _add_store(sp)
    sp.set_defaults(handler=_cmd_pdo_rho)
    sp = leaf(psub, "root", help="monic r-th root of an operator")
    sp.add_argument("a")
    sp.add_argument("r", type=int)
    _add_store(sp)
    sp.set_defaults(handler=_cmd_pdo_root)
    sp = leaf(psub, "invert", help="inverse of a unit")
    sp.add_argument("a")
    _add_store(sp)
    sp.set_defaults(handler=_cmd_pdo_invert)

    grass = sub.add_parser("grass", help="Grassmannian frames")
    gsub = grass.add_subparsers(dest="verb", required=True, metavar="VERB")
    sp = leaf(gsub, "from-dressing", help="frame of S^-1 H+")
    sp.add_argument("dressing")
    _add_store(sp)
    sp.set_defaults(handler=_cmd_grass_from_dressing)
    sp = leaf(gsub, "to-dressing", help="dressing carrying the frame "
                                             "to the base point")
    sp.add_argument("point")
    _add_store(sp)
    sp.set_defaults(handler=_cmd_grass_to_dressing)
    sp = leaf(gsub, "h0h1", help="Fredholm counts of the projection")
    sp.add_argument("point")
    sp.set_defaults(handler=_cmd_grass_h0h1)
    sp = leaf(gsub, "stabilizes", help="does g map the span into "
                                            "itself")
    sp.add_argument("point")
    sp.add_argument("gen")
    sp.set_defaults(handler=_cmd_grass_stabilizes)
    sp = leaf(gsub, "is-differential",
                         help="action test for differential shape")
    sp.add_argument("op")
    sp.add_argument("point")
    sp.set_defaults(handler=_cmd_grass_is_differential)

    curve = sub.add_parser("curve", help="spectral curve data")
    csub = curve.add_subparsers(dest="verb", required=True, metavar="VERB")
    sp = leaf(csub, "semigroup", help="gap structure of the order "
                                           "semigroup")
    sp.add_argument("--orders", metavar="LIST",
                    help="comma-separated generator orders")
    sp.add_argument("gens", nargs="*", help="generator expressions")
    sp.set_defaults(handler=_cmd_curve_semigroup)
    sp = leaf(csub, "filtration", help="order-bounded filtration piece")
    sp.add_argument("--bound", type=int, required=True)
    sp.add_argument("--n", type=int, help="matrix size for diagonal "
                                          "generators")
    sp.add_argument("gens", nargs="+")
    sp.set_defaults(handler=_cmd_curve_filtration)
    sp = leaf(csub, "charpoly", help="spectral characteristic "
                                          "polynomial")
    sp.add_argument("gen")
    sp.set_defaults(handler=_cmd_curve_charpoly)
    sp = leaf(csub, "cyclicity", help="is the matrix cyclic over the "
                                           "Laurent field")
    sp.add_argument("gen")
    sp.set_defaults(handler=_cmd_curve_cyclicity)
    sp = leaf(csub, "condition21", help="commutativity, span and rank "
                                             "conditions")
    sp.add_argument("--n", type=int)
    sp.add_argument("gens", nargs="+")
    sp.set_defaults(handler=_cmd_curve_condition21)

    pipe = sub.add_parser("pipeline", help="full correspondences")
    ppsub = pipe.add_subparsers(dest="verb", required=True, metavar="VERB")
    sp = leaf(ppsub, "forward", help="frame + algebra to operators")
    sp.add_argument("point")
    sp.add_argument("gens", nargs="+")
    sp.add_argument("--n", type=int)
    sp.set_defaults(handler=_cmd_pipeline_forward)
    sp = leaf(ppsub, "backward", help="operators to curve data")
    sp.add_argument("ops", nargs="+")
    sp.set_defaults(handler=_cmd_pipeline_backward)
    sp = leaf(ppsub, "roundtrip", help="forward, backward, compare")
    sp.add_argument("point")
    sp.add_argument("gens", nargs="+")
    sp.add_argument("--n", type=int)
    sp.set_defaults(handler=_cmd_pipeline_roundtrip)

    verify = sub.add_parser("verify", help="checked properties")
    vsub = verify.add_subparsers(dest="verb", required=True, metavar="VERB")
    sp = leaf(vsub, "commute", help="pairwise commutators vanish")
    sp.add_argument("ops", nargs="*")
    sp.set_defaults(handler=_cmd_verify_commute)

    sess = sub.add_parser("session", help="session file management")
    ssub = sess.add_subparsers(dest="verb", required=True, metavar="VERB")
    sp = leaf(ssub, "set", help="evaluate and bind a name")
    sp.add_argument("name")
    sp.add_argument("expr")
    sp.set_defaults(handler=_cmd_session_set, creates_session=True)
    sp = leaf(ssub, "show", help="list bindings or print one")
    sp.add_argument("name", nargs="?")
    sp.set_defaults(handler=_cmd_session_show)

    return p


# -- driver ----------------------------------------------------------


def _load_session(args):
    if args.session is None:
        return None, None
    path = args.session
    if os.path.exists(path):
        return Session.load(path), path
    if getattr(args, "creates_session", False) or getattr(args, "store", None):
        return Session(), path
    raise DomainError(f"session file {path!r} does not exist")


def _emit(args, lines, obj):
    if args.json:
        sys.stdout.write(canonical_json(obj))
    else:
        for line in lines:
            print(line)


def _emit_error(args, category, err):
    if getattr(args, "json", False):
        sys.stdout.write(canonical_json(
            {"error": {"category": category, "message": str(err)}}))
    else:
        print(f"error ({category}): {err}", file=sys.stderr)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        ses, path = _load_session(args)
        ctx = dict(ses.context) if ses is not None else dict(DEFAULT_CONTEXT)
        for key in CONTEXT_BOUNDS:
            val = getattr(args, key, None)
            if val is not None:
                ctx[key] = val
        env = _Env(ses, path, ctx)
        code, lines, obj = args.handler(env, args)
    except ParseError as err:
        _emit_error(args, "syntax", err)
        return EXIT_SYNTAX
    except PrecisionError as err:
        _emit_error(args, "precision", err)
        return EXIT_PRECISION
    except DomainError as err:
        _emit_error(args, "domain", err)
        return EXIT_DOMAIN
    except OSError as err:
        _emit_error(args, "domain", err)
        return EXIT_DOMAIN
    _emit(args, lines, obj)
    return code


if __name__ == "__main__":
    sys.exit(main())
