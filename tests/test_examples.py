"""The examples that write files, run as a user runs them."""

import json
import os
import subprocess
import sys
from pathlib import Path

from repro.dla.lu import lu_task_count

ROOT = Path(__file__).resolve().parents[1]


def run_example(name, *args, cwd):
    """Run ``examples/name`` with ``args``; return its stdout."""
    path = os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, str(ROOT / "examples" / name), *args],
        cwd=cwd, env=dict(os.environ, PYTHONPATH=path), check=True,
        capture_output=True, text=True).stdout


def test_runtime_deep_dive_exports_a_trace(tmp_path):
    """``runtime_deep_dive.py P m`` writes the Chrome trace of its
    G-2DBC run to the working directory: one task slice per task."""
    run_example("runtime_deep_dive.py", "7", "12", cwd=tmp_path)
    events = json.loads((tmp_path / "lu_g2dbc_p7.json").read_text())
    tasks = [e for e in events["traceEvents"] if e.get("cat") == "task"]
    assert len(tasks) == lu_task_count(12)


def test_quickstart_prints_both_tables(tmp_path):
    """``quickstart.py P`` prints the simulated LU and Cholesky tables
    under its own labels."""
    out = run_example("quickstart.py", "7", cwd=tmp_path)
    lu = out.index("== LU: 2DBC vs G-2DBC, 48 tiles ==")
    chol = out.index("== Cholesky: SBC within P vs GCR&M, 48 tiles ==")
    assert lu < chol
    for label in ("2DBC", "G-2DBC", "SBC (P'=6)", "GCR&M"):
        assert f"\n{label:>14}  " in out, label
