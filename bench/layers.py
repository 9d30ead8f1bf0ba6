"""The traced layer boundaries and the per-layer metrics read from them.

Each entry names one public function or method of an opcurve module,
the quantities the traced run reports for it, and the workloads that must
reach it: the self-check fails a traced run in which one of them records
no call.  The per-layer metric names are ``<name>.<quantity>``;
BENCHMARK.json lists the same names, and the benchmark's own test keeps
the two in step.  README.md maps each to the end-to-end metric and
workload it should move.
"""

from collections import namedtuple

WORKLOADS = ("frame_roundtrip", "cusp_backward", "curve_data", "cli_session")

FRAME, CUSP, CURVE, CLI = ALL = WORKLOADS

# attr names a module-level function, replaced in every opcurve module
# namespace that bound it, or a "Class.method", replaced on the class.
Layer = namedtuple("Layer", "name module attr quantities reached_by")

LAYERS = (
    Layer("exactcore.rref", "exactcore", "rref",
          ("calls", "self_s", "rows", "cols", "pivot_ratio",
           "max_input_bits"), (FRAME, CURVE)),
    Layer("exactcore.rank", "exactcore", "rank", ("calls", "self_s"),
          (CURVE,)),
    Layer("exactcore.solve", "exactcore", "solve", ("calls", "self_s"),
          (CURVE,)),
    Layer("exactcore.xseries_mul", "exactcore", "XSeries.__mul__",
          ("calls", "self_s"), ALL),
    Layer("exactcore.zlaurent_mul", "exactcore", "ZLaurent.__mul__",
          ("calls", "self_s"), ALL),
    Layer("exactcore.series_inverse", "exactcore", "XSeries.inverse",
          ("calls", "self_s"), (CLI,)),
    Layer("exactcore.zlaurent_inverse", "exactcore", "ZLaurent.inverse",
          ("calls", "self_s"), (CUSP, CURVE, CLI)),
    Layer("psidocalc.compose", "psidocalc", "compose", ("calls", "self_s"),
          (CUSP, CURVE, CLI)),
    Layer("psidocalc.invert_dressing", "psidocalc", "invert_dressing",
          ("calls", "self_s", "max_out_bits"), ALL),
    Layer("sato.module_action", "sato", "module_action", ("calls", "self_s"),
          ALL),
    Layer("sato.point_from_dressing", "sato", "point_from_dressing",
          ("self_s", "max_coeff_bits"), ALL),
    Layer("sato.dressing_from_point", "sato", "dressing_from_point",
          ("self_s",), (FRAME, CURVE)),
    Layer("sato.contains", "sato", "GrassPoint.contains", ("calls", "self_s"),
          (CURVE,)),
    Layer("sato.stabilizes", "sato", "stabilizes", ("calls", "self_s"),
          (CURVE,)),
    Layer("sato.fredholm_report", "sato", "GrassPoint.fredholm_report",
          ("calls", "self_s", "errors"), (CUSP, CURVE, CLI)),
    Layer("curvedata.semigroup_report", "curvedata", "semigroup_report",
          ("calls", "self_s"), (CUSP, CURVE, CLI)),
    Layer("curvedata.filtration_piece", "curvedata", "filtration_piece",
          ("calls", "self_s", "useful_ratio"), (CURVE,)),
    Layer("curvedata.condition_report", "curvedata", "condition_report",
          ("calls", "self_s"), (CUSP, CURVE, CLI)),
    Layer("curvedata.laurent_span_dim", "curvedata", "laurent_span_dim",
          ("calls", "self_s"), (CUSP, CURVE, CLI)),
    Layer("curvedata.spectral_charpoly", "curvedata", "spectral_charpoly",
          ("calls", "self_s"), (CUSP, CURVE, CLI)),
    Layer("pipelines.operators_to_geometric", "pipelines",
          "operators_to_geometric", ("calls", "self_s"), (CUSP, CURVE, CLI)),
    Layer("pipelines.geometric_to_operators", "pipelines",
          "geometric_to_operators", ("calls", "self_s"), (CURVE,)),
    Layer("pipelines.round_trip", "pipelines", "round_trip",
          ("calls", "self_s"), (CURVE,)),
    Layer("pipelines.dress_to_constant", "pipelines", "dress_to_constant",
          ("calls", "self_s"), (CUSP, CURVE, CLI)),
    Layer("pipelines.verify_commutative", "pipelines", "verify_commutative",
          ("calls", "self_s"), (CUSP, CURVE, CLI)),
    Layer("session.loads", "session", "Session.loads",
          ("calls", "self_s", "bytes"), (CLI,)),
    Layer("session.dumps", "session", "Session.dumps",
          ("calls", "self_s", "bytes"), (CLI,)),
    Layer("exprs.evaluate", "exprs", "evaluate", ("calls", "self_s"), (CLI,)),
    Layer("exprs.print_value", "exprs", "print_value", ("calls", "self_s"),
          (CLI,)),
    Layer("cli.main", "cli", "main", ("self_s",), (CLI,)),
)

# Metrics the traced run adds beside the layer quantities.
EXTRA = (
    ("cli.import_s", "s/op", "lower"),
    ("trace.base_s", "s/op", "lower"),
    ("trace.overhead_s", "s/op", "lower"),
)

UNITS = {
    "calls": ("count/op", "lower"),
    "self_s": ("s/op", "lower"),
    "rows": ("count/op", "lower"),
    "cols": ("count/op", "lower"),
    "pivot_ratio": ("ratio", "higher"),
    "max_input_bits": ("bits", "lower"),
    "max_out_bits": ("bits", "lower"),
    "max_coeff_bits": ("bits", "lower"),
    "errors": ("count/op", "lower"),
    "useful_ratio": ("ratio", "higher"),
    "bytes": ("B/op", "lower"),
}

# Quantities that must repeat exactly across traced runs on one seed.
COUNT_QUANTITIES = ("calls", "rows", "cols", "pivot_ratio", "max_input_bits",
                    "max_out_bits", "max_coeff_bits", "errors",
                    "useful_ratio", "bytes")


def per_layer_metrics():
    """(name, unit, better) for every per-layer metric, in report order."""
    out = []
    for layer in LAYERS:
        for q in layer.quantities:
            unit, better = UNITS[q]
            out.append((f"{layer.name}.{q}", unit, better))
    out.extend(EXTRA)
    return out
