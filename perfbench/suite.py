"""Run every workload, untraced then traced, each in its own process,
for the run_seconds of BENCHMARK.json.

    python3 perfbench/suite.py --label base --seeds 1 2 3

Result files go to perfbench/_out/<label>/<workload>-<seed>-<trace>.json
(compare two labels with compare.py).  The table printed at the end
gives each end-to-end metric as the median over seeds with its unit,
the failure share and job counts behind it, and from the traced runs
the tracing overhead and how the traced wall time splits into layer
self time, benchmark time and an unaccounted remainder.  The exit
status is 1 when any run reported a wrong output.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
SECONDS = SPEC["run_seconds"]


def run_one(workload, seed, seconds, trace, out):
    env = {k: v for k, v in os.environ.items() if k != "PROJDYN_WORKERS"}
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--out", str(out)]
    done = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=600)
    if not out.exists():
        sys.stderr.write(done.stderr)
        raise SystemExit(f"{workload} seed {seed} trace {trace}: no result (exit {done.returncode})")
    return json.loads(out.read_text())


def med(runs, key):
    return statistics.median(r["result"]["metrics"][key]["value"] for r in runs)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--label", default="latest")
    ap.add_argument("--seeds", type=int, nargs="+", default=[1])
    ap.add_argument("--no-trace", action="store_true", help="skip the traced runs")
    args = ap.parse_args()

    out_dir = BENCH / "_out" / args.label
    out_dir.mkdir(parents=True, exist_ok=True)
    runs = {}
    for seed in args.seeds:
        for w in WORKLOADS:
            for trace in (0,) if args.no_trace else (0, 1):
                res = run_one(w, seed, SECONDS, trace, out_dir / f"{w}-{seed}-{trace}.json")
                runs.setdefault((w, trace), []).append(res)
                r = res["result"]
                print(f"{w:9s} seed {seed} trace {trace}: correct={r['correct']} "
                      f"attempted={r['attempted']} failed={r['failed']}", flush=True)

    print(f"\nend-to-end, median over seeds {args.seeds} ({SECONDS} s per run)")
    for w in WORKLOADS:
        plain = runs[(w, 0)]
        metrics = plain[0]["result"]["metrics"]
        cells = [f"{k}={med(plain, k):.4g} {v['unit']}" for k, v in metrics.items()]
        d = [r["detail"] for r in plain]
        print(f"  {w}: " + ", ".join(cells))
        print(f"    fail_frac={statistics.median(x['fail_frac'] for x in d):.4g}, "
              f"jobs={[x['jobs'] for x in d]}, "
              f"tail percentile={[round(x['tail_percentile'], 1) for x in d]}, "
              f"known defects={[x['known_defects'] for x in d]}")
        if (w, 1) in runs:
            traced = runs[(w, 1)]
            wall = med(traced, "trace.wall_s")
            print(f"    tracing overhead: jobs_per_s traced - untraced = "
                  f"{med(traced, 'trace.jobs_per_s') - med(plain, 'jobs_per_s'):+.4g} 1/s; "
                  f"traced wall {wall:.3g} s = layers {med(traced, 'trace.layers_self_s') / wall:.1%}"
                  f" + benchmark {med(traced, 'trace.bench_s') / wall:.1%}"
                  f" + remainder {med(traced, 'trace.remainder_s') / wall:.1%}")
    bad = [r for rs in runs.values() for r in rs if not r["result"]["correct"]]
    for r in bad:
        print(f"WRONG {r['detail']['workload']}: {r['detail']['wrong'][:3]}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
