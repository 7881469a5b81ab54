"""Compare two sets of benchmark runs, metric by metric.

    python benchmarks/perf/compare.py BASE NEW
    python benchmarks/perf/compare.py A/*.json B/*.json

``BASE`` and ``NEW`` are results files written by ``run.py`` or
directories holding them; given more than two paths, the files are
split into the two sides by their directory.  For each workload and
metric the script prints both sides' median and quartiles, the share of
run pairs the new side wins (the i-th runs of each side form a pair;
ties count for neither) and a verdict:

* ``better``     — the new side wins at least 9 pairs in 10 and the
  medians differ by more than the base side's quartile distance;
* ``worse``      — the new median is worse than the base median by more
  than the metric's ``BENCHMARK.json`` bound, and either the base
  spread is within the bound or every new run is worse than every base
  run;
* ``unresolved`` — the base spread is wider than the bound and not
  every new run is worse than every base run;
* ``same``       — within the bound.

Per-layer metrics have no bound; they are ``better`` or ``worse`` by
the 9-in-10 rule alone, else ``-``.  Runs made with different CPU
counts, simulator backends, benchmark revisions or sizes are not
compared.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
#: run fields that must agree across every compared run
SAME = ("bench_rev", "backend", "smoke")


def load(paths) -> list:
    runs = []
    for path in paths:
        files = sorted(path.glob("BENCH_*.json")) if path.is_dir() else [path]
        for f in files:
            runs.extend(json.loads(f.read_text())["runs"])
    return runs


def sides(paths):
    if len(paths) == 2:
        return paths[:1], paths[1:]
    groups = {}
    for p in paths:
        groups.setdefault(p.parent, []).append(p)
    if len(groups) != 2:
        raise SystemExit(f"need two sides, got {len(groups)} directories: "
                         f"{', '.join(map(str, groups))}")
    return list(groups.values())


def group(run) -> tuple:
    return run["workload"], run["trace"]


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def verdict(base, new, better, bound):
    sign = 1 if better == "higher" else -1
    b_med, n_med = statistics.median(base), statistics.median(new)
    q1, q3 = quartiles(base)
    pairs = list(zip(base, new))
    wins = sum(1 for b, n in pairs if sign * (n - b) > 0)
    losses = sum(1 for b, n in pairs if sign * (n - b) < 0)
    win_frac = wins / len(pairs)
    if win_frac >= 0.9 and abs(n_med - b_med) > q3 - q1:
        return win_frac, "better"
    if bound is None:
        worse = losses / len(pairs) >= 0.9 and abs(n_med - b_med) > q3 - q1
        return win_frac, "worse" if worse else "-"
    all_worse = all(sign * (n - b) < 0 for n in new for b in base)
    spread = (q3 - q1) / abs(b_med) if b_med else 0.0
    if sign * (n_med - b_med) < -bound * abs(b_med) \
            and (spread <= bound or all_worse):
        return win_frac, "worse"
    if spread > bound and not all_worse:
        return win_frac, "unresolved"
    return win_frac, "same"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("paths", nargs="+", type=Path)
    args = ap.parse_args(argv)
    base_paths, new_paths = sides(args.paths)
    base, new = load(base_paths), load(new_paths)
    if not base or not new:
        raise SystemExit("one side holds no runs")
    for field in SAME:
        seen = {json.dumps(r[field]) for r in base + new}
        if len(seen) > 1:
            raise SystemExit(f"refusing to compare runs with different "
                             f"{field}: {', '.join(sorted(seen))}")
    cpus = {r["host"]["cpus"] for r in base + new}
    if len(cpus) > 1:
        raise SystemExit(f"refusing to compare runs with different CPU "
                         f"counts: {sorted(cpus)}")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    defs = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    for workload, trace in sorted({group(r) for r in base + new}):
        b_runs = [r for r in base if group(r) == (workload, trace)]
        n_runs = [r for r in new if group(r) == (workload, trace)]
        if not b_runs or not n_runs:
            continue
        print(f"== {workload} ({'traced' if trace else 'untraced'}; "
              f"{len(b_runs)} base runs, {len(n_runs)} new runs)")
        print(f"  {'metric':<36} {'unit':<6} {'base p50 [q1, q3]':>34} "
              f"{'new p50 [q1, q3]':>34} {'change':>8} {'wins':>5}  verdict")
        for name in b_runs[0]["metrics"]:
            b = [r["metrics"][name]["value"] for r in b_runs]
            n = [r["metrics"][name]["value"] for r in n_runs
                 if name in r["metrics"]]
            if not n:
                continue
            m = defs.get(name, {"unit": "?", "better": "lower"})
            win_frac, word = verdict(b, n, m["better"], m.get("bound"))
            b_med, n_med = statistics.median(b), statistics.median(n)
            change = (n_med - b_med) / abs(b_med) if b_med else 0.0
            bq, nq = quartiles(b), quartiles(n)
            b_txt = f"{b_med:.5g} [{bq[0]:.5g}, {bq[1]:.5g}]"
            n_txt = f"{n_med:.5g} [{nq[0]:.5g}, {nq[1]:.5g}]"
            print(f"  {name:<36} {m['unit']:<6} {b_txt:>34} {n_txt:>34} "
                  f"{change:>+8.2%} {win_frac:>5.0%}  {word}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
