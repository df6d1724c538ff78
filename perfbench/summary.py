"""One command for every workload: all metrics, their spread, and checks.

    python3 perfbench/summary.py [--seeds 0 1 2] [--out FILE]

For each workload in BENCHMARK.json, runs perfbench/run.py for its
run_seconds, untraced once per seed and traced once (first seed), then
prints every end-to-end metric (median over the seeds) and every
per-layer metric with its unit, the share of failed checks, and the
tracing overhead: the traced cell_s minus the median untraced one.
With two or more seeds it also prints each end-to-end metric's
interquartile range as a share of its median, next to its bound in
BENCHMARK.json, and marks a spread above a third of the bound.  Exits 1
if a check failed or a spread exceeds its bound.  --out writes every
run's record, with its environment stamp, as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [
        sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    sys.stderr.write(done.stderr)
    done.check_returncode()
    lines = done.stdout.strip().splitlines()
    record = json.loads(lines[-1])
    record["env"] = json.loads(next(l for l in lines if l.startswith("env "))[4:])
    return record


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[0])
    parser.add_argument("--out", default=None)
    args = parser.parse_args()
    seconds = bench["run_seconds"]
    ok = True
    record = {}
    for workload in bench["workloads"]:
        wl = workload["name"]
        plain = [run(wl, seed, seconds, 0) for seed in args.seeds]
        traced = run(wl, args.seeds[0], seconds, 1)
        runs = plain + [traced]
        attempted = sum(r["attempted"] for r in runs)
        failed = sum(r["failed"] for r in runs)
        ok = ok and failed == 0
        print(f"== {wl} ({len(args.seeds)} seeds): {workload['why']}")
        for m in bench["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in plain]
            med = statistics.median(values)
            line = f"  {m['name']:38s} {med:>16.6g} {m['unit']}"
            if len(values) >= 2:
                q1, _, q3 = statistics.quantiles(values, n=4)
                share = (q3 - q1) / med
                line += f"   iqr/median {share:.4f} (bound {m['bound']})"
                ok = ok and share <= m["bound"]
                line += "  <- above bound/3" if share > m["bound"] / 3 else ""
            print(line)
        for name, m in traced["metrics"].items():
            print(f"  {name:38s} {m['value']:>16.6g} {m['unit']}")
        cell = statistics.median(r["metrics"]["cell_s"]["value"] for r in plain)
        overhead = traced["metrics"]["trace.cell_s"]["value"] - cell
        print(f"  {'fail_share':38s} {failed / attempted:>16.6g} ({failed}/{attempted} checks)")
        print(f"  {'trace_overhead_s':38s} {overhead:>16.6g} s ({overhead / cell:+.1%} of cell_s)")
        record[wl] = {"seeds": args.seeds, "untraced": plain, "traced": traced}
    if args.out:
        Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
