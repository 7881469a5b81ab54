"""Smoke run of the performance benchmark in ``benchmarks/perf``.

Runs every workload at its ``--smoke`` size (LU m=16, Cholesky m=12,
one P=45 resolve with two search seeds, an 8-cell campaign at P in
{5, 7}), untraced and traced, and checks the benchmark's contract:
every ``BENCHMARK.json`` metric is reported with its unit, no op fails,
and traced ops produce the same outputs as untraced ones.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
RUN = ROOT / "benchmarks" / "perf" / "run.py"


def test_perf_smoke(tmp_path):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    out = tmp_path / "BENCH_smoke.json"
    for trace in ("0", "1"):
        proc = subprocess.run(
            [sys.executable, str(RUN), "--smoke", "--trace", trace,
             "--out", str(out)],
            capture_output=True, text=True, timeout=150, cwd=ROOT)
        assert proc.returncode == 0, proc.stderr[-3000:]
        last = json.loads(proc.stdout.strip().splitlines()[-1])
        assert last["correct"] and last["failed"] == 0, last

    runs = json.loads(out.read_text())["runs"]
    workloads = [w["name"] for w in spec["workloads"]]
    for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
        got = {r["workload"]: r for r in runs if r["trace"] == trace}
        assert sorted(got) == sorted(workloads)
        for run in got.values():
            assert run["failed_frac"] == 0, run["failures"]
            units = {n: m["unit"] for n, m in run["metrics"].items()}
            assert units == {m["name"]: m["unit"] for m in spec[kind]}
    for workload in workloads:
        keys = {r["output_key"] for r in runs if r["workload"] == workload}
        assert len(keys) == 1, f"{workload}: traced outputs differ"
    assert (tmp_path / "TRACE_smoke_lu-large.json").exists()
