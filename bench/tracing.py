"""Spans around the public functions of each opcurve layer.

The wrappers live here, in the benchmark, so the library is measured
from outside and its source does not change.  A wrapper records the
call count and self time of its function (its duration minus the part
covered by wrapped calls it made), plus the counts its probe reads off
the arguments and result.  Probe work is charged to nobody: it is
excluded from the span's own self time and from its caller's.
"""

import importlib
import sys
from fractions import Fraction
from time import perf_counter as clock

from layers import LAYERS


class Record:
    __slots__ = ("calls", "self_s", "counts")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.counts = {}

    def add(self, key, value):
        self.counts[key] = self.counts.get(key, 0) + value

    def high(self, key, value):
        if value > self.counts.get(key, 0):
            self.counts[key] = value


def _bits(x):
    if isinstance(x, Fraction):
        return max(x.numerator.bit_length(), x.denominator.bit_length())
    return int(x).bit_length()


def _rref_probe(rec, args, out, _token):
    rows = args[0]
    rec.add("rows", len(rows))
    rec.add("cols", len(rows[0]) if rows else 0)
    rec.add("pivots", len(out[1]))
    rec.high("max_input_bits",
              max((_bits(e) for row in rows for e in row), default=0))


def _operator_bits(op):
    return max((_bits(c) for mat in op.terms.values() for row in mat.rows
                for e in row for c in e.coeffs), default=0)


def _invert_probe(rec, args, out, _token):
    rec.high("max_out_bits", _operator_bits(out))


def _point_probe(rec, args, out, _token):
    rec.high("max_coeff_bits", max(
        (_bits(c) for col in out.columns for w in col
         for c in w.coeffs.values()), default=0))


def _loads_probe(rec, args, out, _token):
    rec.add("bytes", len(args[1].encode("utf-8")))


def _dumps_probe(rec, args, out, _token):
    rec.add("bytes", len(out.encode("utf-8")))


def _filtration_probe(rec, args, out, token):
    rec.add("picked", out.dim)
    rec.add("attempts", token())


class Tracer:
    """Per-name records for one traced run, and the wrappers that fill
    them.  install() patches the layers in; uninstall() restores them."""

    def __init__(self):
        self.records = {layer.name: Record() for layer in LAYERS}
        self._stack = []
        self._patches = []

    def wrap(self, name, fn, probe=None, on_error=None, before=None):
        rec = self.records[name]
        stack = self._stack

        def traced(*args, **kwargs):
            token = before() if before is not None else None
            stack.append(0.0)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            except Exception as err:
                rec.calls += 1
                rec.self_s += clock() - t0 - stack.pop()
                if on_error is not None:
                    on_error(rec, err)
                if stack:
                    stack[-1] += clock() - t0
                raise
            rec.calls += 1
            rec.self_s += clock() - t0 - stack.pop()
            if probe is not None:
                probe(rec, args, out, token)
            if stack:
                stack[-1] += clock() - t0
            return out

        traced.__wrapped__ = fn
        return traced

    def _hooks(self, name):
        if name == "exactcore.rref":
            return {"probe": _rref_probe}
        if name == "psidocalc.invert_dressing":
            return {"probe": _invert_probe}
        if name == "sato.point_from_dressing":
            return {"probe": _point_probe}
        if name == "session.loads":
            return {"probe": _loads_probe}
        if name == "session.dumps":
            return {"probe": _dumps_probe}
        if name == "sato.fredholm_report":
            from opcurve.exactcore import PrecisionError

            def on_error(rec, err):
                if isinstance(err, PrecisionError):
                    rec.add("errors", 1)
            return {"on_error": on_error}
        if name == "curvedata.filtration_piece":
            rank = self.records["exactcore.rank"]

            def before():
                start = rank.calls
                return lambda: rank.calls - start
            return {"probe": _filtration_probe, "before": before}
        return {}

    def install(self):
        """Wrap every traced name.  A module function is replaced in each
        loaded opcurve module that bound it; a method on its class."""
        mods = [m for k, m in sorted(sys.modules.items())
                if k == "opcurve" or k.startswith("opcurve.")]
        for layer in LAYERS:
            home = importlib.import_module(f"opcurve.{layer.module}")
            hooks = self._hooks(layer.name)
            if "." in layer.attr:
                cls_name, meth = layer.attr.split(".")
                cls = getattr(home, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, classmethod):
                    new = classmethod(self.wrap(layer.name, raw.__func__,
                                                **hooks))
                else:
                    new = self.wrap(layer.name, raw, **hooks)
                self._patches.append((cls, meth, raw))
                setattr(cls, meth, new)
                if meth == "__mul__" and cls.__dict__.get("__rmul__") is raw:
                    self._patches.append((cls, "__rmul__", raw))
                    setattr(cls, "__rmul__", new)
                continue
            orig = getattr(home, layer.attr)
            new = self.wrap(layer.name, orig, **hooks)
            for mod in mods:
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        self._patches.append((mod, key, orig))
                        setattr(mod, key, new)

    def uninstall(self):
        for owner, key, orig in reversed(self._patches):
            setattr(owner, key, orig)
        self._patches.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def dump(self):
        """Plain data for merging records across processes."""
        return {name: {"calls": r.calls, "self_s": r.self_s,
                       "counts": dict(r.counts)}
                for name, r in self.records.items()}

    def merge(self, data):
        for name, d in data.items():
            rec = self.records[name]
            rec.calls += d["calls"]
            rec.self_s += d["self_s"]
            for key, val in d["counts"].items():
                if key.startswith("max_"):
                    rec.high(key, val)
                else:
                    rec.add(key, val)

    def unreached(self, workload):
        """Traced names this workload should reach but never called."""
        return [layer.name for layer in LAYERS
                if workload in layer.reached_by
                and self.records[layer.name].calls == 0]

    def metrics(self, ops):
        """Per-layer metrics, normalized per traced operation."""
        out = {}
        for layer in LAYERS:
            rec = self.records[layer.name]
            for q in layer.quantities:
                if q == "calls":
                    val = rec.calls / ops
                elif q == "self_s":
                    val = rec.self_s / ops
                elif q == "pivot_ratio":
                    rows = rec.counts.get("rows", 0)
                    val = rec.counts.get("pivots", 0) / rows if rows else 0.0
                elif q == "useful_ratio":
                    tries = rec.counts.get("attempts", 0)
                    val = rec.counts.get("picked", 0) / tries if tries else 0.0
                elif q.startswith("max_"):
                    val = rec.counts.get(q, 0)
                else:
                    val = rec.counts.get(q, 0) / ops
                out[f"{layer.name}.{q}"] = val
        return out
