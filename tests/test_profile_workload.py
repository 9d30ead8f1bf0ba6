"""tools/profile_workload.py: one profiled frame operation and one
in-process CLI operation, each checked by the benchmark oracle."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_profiles_one_frame_operation():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "profile_workload.py"),
         "--workload", "frame_roundtrip", "--seed", "1", "--ops", "1"],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    out = proc.stdout
    assert out.startswith("frame_roundtrip seed 1: 1 ops after one warm-up")
    assert "top 20 by self time:" in out
    assert "top 20 by cumulative time:" in out
    assert "sato.py" in out and "(dressing_from_point)" in out
    assert "100.0%  workloads.py" in out
    assert out.rstrip().endswith("checked 3 ops, failed 0")


def test_profiles_one_cli_session_operation_in_process():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "profile_workload.py"),
         "--workload", "cli_session", "--seed", "1", "--ops", "1"],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    out = proc.stdout
    assert out.startswith("cli_session seed 1: 1 ops after one warm-up")
    assert "interpreter start and import opcurve.cli are outside this " \
        "profile" in out
    rows = out.split("top 20 by self time:")[1].splitlines()
    assert any("cli.py:" in r or "session.py:" in r for r in rows)
    assert "100.0%  profile_workload.py" in out
    assert out.rstrip().endswith("checked 3 ops, failed 0")
