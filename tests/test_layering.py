"""exactcore alone knows how series store their coefficients.

Every other library module reads XSeries and ZLaurent through their
methods.  This walks the syntax tree of each module under src/opcurve
except exactcore.py and fails on a read of the storage attributes or on a
private name of exactcore.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "opcurve"
STORAGE_ATTRS = {"coeffs", "_low_bound", "_at"}
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
                   "    return s.coeffs, w._low_bound(), s._at(0)\n")
    found = violations(bad)
    assert len(found) == 6, found
