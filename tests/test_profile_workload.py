"""tools/profile_workload.py: one profiled frame operation, checked by the
benchmark oracle."""

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
