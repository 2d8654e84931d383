"""Compare two sets of untraced result files, one row per workload.

    python3 perfbench/compare.py perfbench/_out/base perfbench/_out/change

Runs are paired by workload and seed; run the two sides in alternating
order.  Both sides must have run the same number of rounds.  For each
end-to-end metric of BENCHMARK.json the table gives each side's median
and quartiles, the change's share of pairs won (ties count for neither
side), and the first verdict that applies:

- worse: the change's median is worse than the parent's by more than
  the bound;
- improved: the change wins at least 9 of 10 pairs, the medians differ
  by more than the parent's quartile spread, every change run checked
  out and the change's ok_frac median is not below the parent's;
- unresolved: the parent's spread (as a share of its median) exceeds
  the metric's bound and not every change run beats every parent run;
- unchanged: otherwise.
"""

import json
import statistics
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def load(directory):
    """{workload: {seed: (rounds, result)}} from the untraced result files."""
    runs = {}
    for path in sorted(Path(directory).glob("*-0.json")):
        data = json.loads(path.read_text())
        d = data["detail"]
        runs.setdefault(d["workload"], {})[d["provenance"]["seed"]] = (d["rounds"], data["result"])
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(base, change, bound, lower_is_better, may_improve):
    sign = 1 if lower_is_better else -1
    b1, bm, b3 = quartiles(base)
    _, cm, _ = quartiles(change)
    pairs = list(zip(base, change))
    wins = sum(sign * (c - b) < 0 for b, c in pairs)
    share = wins / len(pairs)
    if lower_is_better:
        all_better = max(change) < min(base)
    else:
        all_better = min(change) > max(base)
    spread = (b3 - b1) / abs(bm) if bm else float("inf")
    worse_by = sign * (cm - bm) / abs(bm) if bm else 0.0
    if worse_by > bound:
        label = "worse"
    elif may_improve and worse_by < 0 and share >= 0.9 and abs(cm - bm) > (b3 - b1):
        label = "improved"
    elif spread > bound and not all_better:
        label = "unresolved"
    else:
        label = "unchanged"
    return label, share


def main(argv):
    if len(argv) != 2:
        sys.exit(__doc__)
    base, change = load(argv[0]), load(argv[1])
    for w in [w["name"] for w in SPEC["workloads"]]:
        if w not in base or w not in change:
            print(f"{w}: missing on one side")
            continue
        seeds = sorted(set(base[w]) & set(change[w]))
        rounds = {base[w][s][0] for s in seeds} | {change[w][s][0] for s in seeds}
        if len(rounds) != 1:
            print(f"{w}: runs of different lengths ({sorted(rounds)} rounds), not comparable")
            continue
        b_res = [base[w][s][1] for s in seeds]
        c_res = [change[w][s][1] for s in seeds]

        def values(results, name):
            return [r["metrics"][name]["value"] for r in results]

        may_improve = (all(r["correct"] for r in c_res) and
                       statistics.median(values(c_res, "ok_frac")) >=
                       statistics.median(values(b_res, "ok_frac")))
        cells = []
        for m in SPEC["end_to_end"]:
            name = m["name"]
            b, c = values(b_res, name), values(c_res, name)
            label, share = verdict(b, c, m["bound"], m["better"] == "lower", may_improve)
            bq, cq = quartiles(b), quartiles(c)
            cells.append(f"{name} [{m['unit']}] parent {bq[1]:.4g} ({bq[0]:.4g}..{bq[2]:.4g}) "
                         f"change {cq[1]:.4g} ({cq[0]:.4g}..{cq[2]:.4g}) "
                         f"wins {share:.0%} -> {label}")
        print(f"{w} ({len(seeds)} pairs): " + "; ".join(cells))


if __name__ == "__main__":
    main(sys.argv[1:])
