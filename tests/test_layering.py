"""exactcore alone knows how series store their coefficients, and the
benchmark's traced layers still name the library.

Every other library module reads XSeries and ZLaurent through their
methods.  This walks the syntax tree of each module under src/opcurve
except exactcore.py and fails on a read of the storage attributes or on a
private name of exactcore.  The benchmark wraps the functions listed in
bench/layers.py; the last tests check that each of them still exists.
"""

import ast
import importlib
import importlib.util
import inspect
from fractions import Fraction
from pathlib import Path

import pytest

from opcurve.exactcore import XSeries, ZLaurent

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "opcurve"
STORAGE_ATTRS = {"coeffs", "_lo", "_num", "_den", "_fracs", "_view",
                 "_make", "_set", "_product", "_inverse_num", "_low_bound",
                 "_at"}
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "exactcore.py")


def _from_exactcore(node: ast.ImportFrom) -> bool:
    return ((node.level, node.module) in ((1, "exactcore"),
                                          (0, "opcurve.exactcore")))


def violations(path: Path):
    tree = ast.parse(path.read_text(), filename=str(path))
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            if node.attr in STORAGE_ATTRS:
                out.append(f"line {node.lineno}: reads .{node.attr}")
            elif (node.attr.startswith("_")
                  and isinstance(node.value, ast.Name)
                  and node.value.id == "exactcore"):
                out.append(f"line {node.lineno}: uses exactcore.{node.attr}")
        elif isinstance(node, ast.ImportFrom) and _from_exactcore(node):
            out.extend(f"line {node.lineno}: imports {a.name} from exactcore"
                       for a in node.names if a.name.startswith("_"))
    return out


def test_every_library_module_is_checked():
    names = {p.name for p in MODULES}
    assert {"sato.py", "curvedata.py", "session.py", "psidocalc.py",
            "exprs.py", "cli.py", "pipelines.py"} <= names


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_reads_series_through_methods(path):
    assert violations(path) == []


def test_checker_flags_storage_reads_and_private_imports(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text("from .exactcore import XSeries, _prec_key\n"
                   "from opcurve.exactcore import _common_den\n"
                   "from . import exactcore\n"
                   "def f(s, w):\n"
                   "    exactcore._prec_key(None)\n"
                   "    return s.coeffs, w._low_bound(), s._at(0)\n"
                   "def g(s):\n"
                   "    return s._num[0], s._den, s._fracs\n"
                   "def h(w):\n"
                   "    return w._lo, w._view(), type(w)._make(0, [], 1)\n")
    found = violations(bad)
    assert len(found) == 12, found
    assert {"line 8: reads ._num", "line 8: reads ._den",
            "line 8: reads ._fracs", "line 10: reads ._lo",
            "line 10: reads ._view", "line 10: reads ._make"} <= set(found)


def test_coeffs_keeps_the_shape_the_benchmark_reads():
    # bench/oracles.py and bench/tracing.py read .coeffs directly: a tuple
    # c0, c1, ... of Fractions on XSeries, and on ZLaurent a dict of
    # exponent -> nonzero Fraction, the same as dict(items())
    s = XSeries([Fraction(1, 2), 0, 3], 5)
    assert s.coeffs == (Fraction(1, 2), Fraction(0), Fraction(3))
    assert type(s.coeffs) is tuple
    assert all(type(c) is Fraction for c in s.coeffs)
    w = ZLaurent({-2: Fraction(3, 4), 0: 0, 1: 5}, 4)
    assert type(w.coeffs) is dict
    assert w.coeffs == dict(w.items()) == {-2: Fraction(3, 4), 1: Fraction(5)}
    assert all(type(k) is int and type(c) is Fraction and c
               for k, c in w.coeffs.items())
    assert ZLaurent.zero(3).coeffs == {} and XSeries([0, 0]).coeffs == ()


def _bench_layers():
    spec = importlib.util.spec_from_file_location(
        "bench_layers", ROOT / "bench" / "layers.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod.LAYERS


def test_every_traced_layer_resolves():
    layers = _bench_layers()
    assert layers
    for layer in layers:
        home = importlib.import_module(f"opcurve.{layer.module}")
        if "." in layer.attr:
            cls_name, meth = layer.attr.split(".")
            cls = getattr(home, cls_name, None)
            assert inspect.isclass(cls), layer.name
            raw = cls.__dict__.get(meth)
            if isinstance(raw, classmethod):
                raw = raw.__func__
            assert inspect.isfunction(raw), layer.name
        else:
            # bound in the module; it may be a re-export
            assert inspect.isfunction(getattr(home, layer.attr, None)), \
                layer.name


def test_names_the_benchmark_test_reads_are_bound():
    # bench/test_bench.py checks that the tracer patches and restores
    # these re-exports
    from opcurve import curvedata, exactcore, sato
    assert sato.rref is exactcore.rref
    assert curvedata.rank is exactcore.rank
