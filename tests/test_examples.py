"""The examples that write files, run as a user runs them."""

import json
import os
import subprocess
import sys
from pathlib import Path

from repro.dla.lu import lu_task_count

ROOT = Path(__file__).resolve().parents[1]


def test_runtime_deep_dive_exports_a_trace(tmp_path):
    """``runtime_deep_dive.py P m`` writes the Chrome trace of its
    G-2DBC run to the working directory: one task slice per task."""
    path = os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    subprocess.run(
        [sys.executable, str(ROOT / "examples" / "runtime_deep_dive.py"),
         "7", "12"],
        cwd=tmp_path, env=dict(os.environ, PYTHONPATH=path), check=True,
        capture_output=True, text=True)
    events = json.loads((tmp_path / "lu_g2dbc_p7.json").read_text())
    tasks = [e for e in events["traceEvents"] if e.get("cat") == "task"]
    assert len(tasks) == lu_task_count(12)
