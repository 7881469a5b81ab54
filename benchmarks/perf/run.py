"""Performance benchmark of the repro package: one command, every metric.

    python benchmarks/perf/run.py [--workload W ...] [--seed S]
        [--seconds N] [--trace [0|1]] [--smoke] [--out PATH]

Each sample runs in a fresh child process (``workloads.py``), one op at
a time; a run has one child at a time and no worker processes.
Untraced runs give the end-to-end metrics of ``BENCHMARK.json``, with
times scaled to the host's full speed (``workloads.HostSampler``);
``--trace`` runs give its per-layer metrics from spans recorded around
the benchmark's calls into each layer.  Every metric is printed with
its unit, the run is appended to ``results/BENCH_<label>.json`` (the
label is the ``--out`` file name after ``BENCH_``) and a traced run's
spans go to ``results/TRACE_<label>_<workload>.json``.  The last line
of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.

``--seconds`` is the length of one run: children are started until it
has passed and at least five ran (see ``run_children``).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from datetime import datetime, timezone
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
WORK = HERE / ".work"
RESULTS = HERE / "results"
#: every run ends within this many seconds of starting
DEADLINE_S = 170.0
#: fewest children per untraced run (samples of setup_s and wall_s)
MIN_CHILDREN = 3
#: warm-op window of each untraced child of a warm workload
CHILD_SECONDS = 1.5
#: workloads whose op is one cold round in a fresh process
COLD = ("pattern-service", "campaign-mixed")


class BenchError(RuntimeError):
    """A child process failed, so the run has no result."""


def spawn(cfg: dict, stop_by: float) -> dict:
    """Run one child to completion; its last stdout line is its report."""
    env = dict(os.environ, REPRO_CACHE_DIR=str(WORK / "cache"))
    cfg = dict(cfg, stop_by=stop_by, spawn_ts=time.monotonic())
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "workloads.py"), json.dumps(cfg)],
        stdout=subprocess.PIPE, text=True, cwd=ROOT, env=env,
        start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, stop_by - time.monotonic()))
    except BaseException:
        # the child leads its own session: stop it and all it started
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    if proc.returncode != 0 or not out.strip():
        raise BenchError(f"{cfg['mode']} child of {cfg.get('workload')} "
                         f"exited with code {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def run_children(workload: str, args, trace: bool, stop_by: float,
                 work_dir: Path) -> list:
    """Spawn children for about ``args.seconds``, and at least enough.

    Untraced, every child sets up and runs one cold op; the children of
    a warm workload then run warm ops for ``CHILD_SECONDS``, so that all
    samples spread over the whole run.  The workloads in ``COLD`` define
    their op in a fresh process, so their children run that op only.
    Traced, one child alternates traced and untraced warm ops for the
    whole run; for ``COLD`` untraced and traced children alternate.

    The outputs are checked once per input, in the first child, and in
    every traced child, whose checks give per-layer counts.  A child is
    started only if it is expected to end within half its duration of
    ``args.seconds``, so a run lasts about ``args.seconds``.
    """
    cold = workload in COLD
    base = {"workload": workload, "seed": args.seed, "smoke": args.smoke,
            "work_dir": str(work_dir), "min_ops": 1,
            "seconds": 0.0 if args.smoke else CHILD_SECONDS}
    if trace and not cold:
        return [spawn(dict(base, mode="trace", seconds=args.seconds,
                           min_ops=2, check=True), stop_by)]
    if trace:
        modes, want = ["cold", "cold-traced"], 2
    else:
        modes = ["cold" if cold else "warm"]
        want = 1 if args.smoke else MIN_CHILDREN
    children, start = [], time.monotonic()
    while True:
        t = time.monotonic()
        for mode in modes:
            children.append(spawn(dict(base, mode=mode, check=not children
                                       or mode == "cold-traced"), stop_by))
        last = time.monotonic() - t
        now = time.monotonic()
        if len(children) >= want and now + last / 2 > start + args.seconds:
            return children
        if now + last > stop_by:
            return children


def summarize(workload: str, children: list, trace: bool, spec: dict) -> dict:
    """Metrics, samples and failure counts of one workload run."""
    checked = [c for c in children if "failures" in c]
    if not checked:
        raise BenchError(f"{workload}: no op completed, nothing was checked")
    ref = checked[0]
    ref_key = next(o["key"] for o in ref["ops"] if o["key"])
    ops = [(c, o) for c in children for o in c["ops"]]
    failures = [f for c in checked for f in c["failures"]]
    # a failed check fails every op on its input
    failed = len(ops) if failures else \
        sum(1 for _, o in ops if o["key"] != ref_key)

    # end-to-end times are scaled to the host's full speed (see
    # workloads.HostSampler); the first op of a child is cold, and warm
    # ops are its later untraced ones
    def scaled(op):
        return op.get("scaled_s", op["s"])  # a failed op is not scaled

    cold = [scaled(c["ops"][0]) for c in children
            if not c["ops"][0]["traced"]]
    untraced = cold if workload in COLD else \
        [scaled(o) for c in children for o in c["ops"][1:] if not o["traced"]]
    if trace:
        traced = [scaled(o) for _, o in ops if o["traced"]]
        samples = {"traced_op_s": traced, "untraced_op_s": untraced}
        traced_children = [c for c in children if "layers" in c]
        names = {n for c in traced_children for n in c["layers"]}
        values = {name: statistics.median(c["layers"].get(name, 0.0)
                                          for c in traced_children)
                  for name in names}
        values["trace_overhead_frac"] = (statistics.median(traced)
                                         / statistics.median(untraced) - 1)
        metrics = spec["per_layer"]
    else:
        samples = {"setup_s": [c["scaled_setup_s"] for c in children],
                   "wall_s": [c["scaled_setup_s"] + scaled(c["ops"][0])
                              for c in children],
                   "op_s": untraced,
                   "raw_setup_s": [c["setup_s"] for c in children],
                   "raw_op_s": [o["s"] for c in children for o in c["ops"]
                                if not o["traced"]],
                   "probe_s": [c["probe_s"] for c in children]}
        values = {"setup_s": statistics.median(samples["setup_s"]),
                  "op_p50_s": statistics.median(samples["op_s"]),
                  "wall_s": statistics.median(samples["wall_s"]),
                  "peak_rss_mb": max(c["rss_mb"] for c in children),
                  **ref["sim"]}
        metrics = spec["end_to_end"]
    return {
        "workload": workload, "trace": int(trace),
        "correct": failed == 0,
        "attempted": len(ops), "failed": failed,
        "failed_frac": failed / len(ops),
        "failures": failures,
        "metrics": {m["name"]: {"value": values.get(m["name"], 0.0),
                                "unit": m["unit"]} for m in metrics},
        "samples": samples,
        "backend": ref["backend"],
        "output_key": ref_key,
    }


def bench_revision() -> str:
    """Digest of the benchmark's code and spec (no git needed)."""
    h = hashlib.sha256((ROOT / "BENCHMARK.json").read_bytes())
    for path in sorted(HERE.glob("*.py")):
        h.update(path.name.encode() + path.read_bytes())
    return h.hexdigest()[:12]


def git_revision() -> str:
    """Commit of the checkout, read from ``.git`` ("unknown" outside git)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def save(out: Path, runs: list, trace_spans: dict) -> None:
    """Append the runs to ``out``; write each traced run's spans."""
    out.parent.mkdir(parents=True, exist_ok=True)
    doc = {"runs": []}
    if out.exists():
        doc = json.loads(out.read_text())
    doc["runs"].extend(runs)
    out.write_text(json.dumps(doc, indent=1) + "\n")
    label = out.stem[len("BENCH_"):] if out.stem.startswith("BENCH_") \
        else out.stem
    for workload, spans in trace_spans.items():
        (out.parent / f"TRACE_{label}_{workload}.json").write_text(
            json.dumps(spans) + "\n")


def print_run(run: dict) -> None:
    print(f"== {run['workload']} (seed {run['seed']}, "
          f"{'traced' if run['trace'] else 'untraced'}, backend "
          f"{run['backend']}, {run['host']['cpus']} CPUs)")
    for name, m in run["metrics"].items():
        print(f"  {name:<36} {m['value']:>16.6g} {m['unit']}")
    counts = ", ".join(f"{k}: n={len(v)}" for k, v in run["samples"].items())
    print(f"  samples: {counts}")
    print(f"  failed_frac {run['failed_frac']:.6g} "
          f"({run['failed']} of {run['attempted']} ops)")
    for f in run["failures"]:
        print(f"  CHECK FAILED: {f}")


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", nargs="+", choices=names, default=names)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=None,
                    help="measuring time per run (default: BENCHMARK.json's "
                         "run_seconds, 0 with --smoke)")
    ap.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                    choices=(0, 1))
    ap.add_argument("--smoke", action="store_true",
                    help="tiny sizes, one child per run (for tests)")
    ap.add_argument("--out", type=Path, default=RESULTS / "BENCH_latest.json")
    args = ap.parse_args(argv)
    if args.seconds is None:
        args.seconds = 0.0 if args.smoke else spec["run_seconds"]

    # SIGTERM unwinds like an error, so the running child is stopped too
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(1))
    stop_by = time.monotonic() + DEADLINE_S
    WORK.mkdir(parents=True, exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(prefix="run-", dir=WORK))
    runs, trace_spans = [], {}
    try:
        if not args.smoke:  # a smoke run times nothing, so may build late
            spawn({"mode": "build"}, stop_by)
        host ={"cpus": os.cpu_count(), "machine": platform.machine(),
                "python": platform.python_version()}
        meta = {"git_rev": git_revision(), "bench_rev": bench_revision(),
                "host": host, "seed": args.seed, "seconds": args.seconds,
                "smoke": args.smoke,
                "started": datetime.now(timezone.utc).isoformat()}
        for workload in args.workload:
            children = run_children(workload, args, bool(args.trace),
                                    stop_by, work_dir)
            run = dict(meta, **summarize(workload, children,
                                         bool(args.trace), spec))
            print_run(run)
            runs.append(run)
            if args.trace:
                trace_spans[workload] = {
                    "workload": workload, "seed": args.seed,
                    "children": [{"spans": c["spans"], "counts": c["counts"]}
                                 for c in children if "spans" in c]}
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    save(args.out, runs, trace_spans)

    if len(runs) == 1:
        metrics = runs[0]["metrics"]
    else:
        metrics = {f"{r['workload']}/{n}": m
                   for r in runs for n, m in r["metrics"].items()}
    print(json.dumps({"correct": all(r["correct"] for r in runs),
                      "attempted": sum(r["attempted"] for r in runs),
                      "failed": sum(r["failed"] for r in runs),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
