"""Run one projdyn benchmark workload and print its metrics.

    python3 perfbench/run.py --workload certify --seed 1 --seconds 15 --trace 0

Workloads: certify, preflight, grid, point (see workloads.py and
BENCHMARK.json for what each one exercises).  The package is imported
from ./src of the checkout this file sits in; nothing is installed.

Set-up (import in a fresh interpreter, input generation, warm-up) runs
SETUP_REPS times.  The timed phase then runs round(seconds / ROUND_S)
rounds, one closed-loop client, so every commit does the same jobs and
each job runs once per round.

Times are CPU seconds of this process (and, for set-up, of the
interpreter it starts), not wall seconds: every job is single-threaded
and compute-bound, so the two agree on an idle machine, but on a shared
virtual machine the hypervisor stops the whole guest in bursts (steal
time) that inflate wall time and that no probe between jobs can see;
the kernel leaves steal time out of a process's CPU time.  The speed of
the CPU still drifts by tens of percent with the load of other guests,
so each time is also scaled by the speed a probe measured around it in
a process of its own (SpeedClock, speedprobe.py): times are seconds of a
machine on which the probe takes PROBE_REF_S.  Unscaled CPU and wall
figures are in the detail line.

Each job's time is the median over its repeats in the run (one per
round), which takes out the single slow runs that a busy neighbour
causes; the statistics below count every job once per round.

- setup_s: median set-up time; job_p50_s: median job time;
- job_tail_s: job time at the highest percentile with at least 10 jobs
  beyond it (the percentile is in the detail line); both job quantiles
  are Harrell-Davis estimates (see quantile);
- jobs_per_s: jobs divided by the summed job times;
- ok_frac: 1 - fail_frac, the share of jobs that did not raise, exit
  with an unexpected code or give a wrong output (known-defect probes
  count as failed);
- decided_frac: definite verdicts (or grid nodes, or evaluations) over
  all of them; peak_rss_mb: peak resident memory of this process.

With --trace 0 the last stdout line holds the end-to-end metrics; with
--trace 1 the public functions of every layer are wrapped (tracer.py)
and the line holds the per-layer metrics instead.  The line before it
holds run details and provenance.  Exit status: 0 when every output
checked out, 1 when an output was wrong or the package is missing.
"""

import argparse
import bisect
import contextlib
import functools
import importlib
import importlib.metadata
import importlib.util
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter, process_time
from types import SimpleNamespace

import mpmath

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
REFERENCE = BENCH / "reference.json"
SETUP_REPS = 5
TAIL_BEYOND = 10
# nominal length of one round at the commit that defined the benchmark;
# --seconds / ROUND_S whole rounds run, the same job list on every commit
ROUND_S = 5.0
# reference time of speedprobe.calibrate(): job and setup times are in
# seconds of a machine on which the probe takes this long
PROBE_REF_S = 0.001

sys.path.insert(0, str(BENCH))
import workloads  # noqa: E402
from workloads import Mismatch, Outcome  # noqa: E402


def load_package():
    """Import projdyn from this checkout's src/, never from elsewhere."""
    if not (SRC / "projdyn" / "__init__.py").is_file():
        sys.exit(f"error: no projdyn sources under {SRC}")
    sys.path.insert(0, str(SRC))
    package = importlib.import_module("projdyn")
    if Path(package.__file__).resolve().parent != SRC / "projdyn":
        sys.exit(f"error: projdyn was imported from {package.__file__}, not {SRC}")
    layers = {name: importlib.import_module(f"projdyn.{name}")
              for name in ("polycore", "mapiter", "specdeg", "family2", "greenpot", "cli")}
    return SimpleNamespace(package=package, **layers)


def fresh_import():
    code = f"import sys; sys.path.insert(0, {str(SRC)!r}); import projdyn.cli"
    subprocess.run([sys.executable, "-c", code], check=True, capture_output=True, timeout=120)


def cpu_time():
    """CPU seconds of this process and of the children it has waited for."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return process_time() + children.ru_utime + children.ru_stime


def current_cpu():
    """The CPU this process last ran on (field 39 of /proc/self/stat)."""
    with open("/proc/self/stat", encoding="ascii") as fh:
        return int(fh.read().rsplit(")", 1)[1].split()[36])


class SpeedProbe:
    """The speedprobe.py process; calling it returns one probe time.

    The probe runs in a process of its own so that nothing the package
    does to this process (threads holding the GIL, trace hooks, heap
    growth) slows the probe along with the jobs and cancels out of the
    scaled times.  It inherits this process's pinning to one CPU (see
    main), so a probe measures the CPU the jobs run on.
    """

    def __init__(self):
        self.proc = subprocess.Popen([sys.executable, str(BENCH / "speedprobe.py")],
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def __call__(self):
        self.proc.stdin.write("\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"speed probe ended with exit code {self.proc.wait()}")
        return float(line)

    def close(self):
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()


class SpeedClock:
    """Times calls in CPU seconds and scales each by the machine speed
    measured around it.

    On a shared machine the speed drifts by tens of percent between and
    within runs, and from one job to the next.  The probe runs before
    every call and once after the last; a call's speed is the mean of
    the probes just before and just after it, and its scaled time is
    cpu * PROBE_REF_S / speed.  (The median probe over a second around
    each call tracked the jobs worse: scaled times of one job spread
    more from round to round.)
    """

    def __init__(self, speed_probe):
        self.speed_probe = speed_probe
        self.samples = []  # (wall time, probe CPU seconds)
        self.calls = []  # (wall start, wall end, CPU seconds)

    def probe(self):
        self.samples.append((perf_counter(), self.speed_probe()))

    def time(self, fn):
        """(fn(), wall seconds); probe() once more after the last call."""
        self.probe()
        t0, c0 = perf_counter(), cpu_time()
        result = fn()
        c1, t1 = cpu_time(), perf_counter()
        self.calls.append((t0, t1, c1 - c0))
        return result, t1 - t0

    def cpu(self):
        return [c for _, _, c in self.calls]

    def scaled(self):
        times = [t for t, _ in self.samples]
        out = []
        for t0, t1, c in self.calls:
            before = self.samples[bisect.bisect_left(times, t0) - 1][1]
            after = self.samples[bisect.bisect_right(times, t1)][1]
            out.append(c * 2 * PROBE_REF_S / (before + after))
        return out


def per_job(ids, times):
    """Each time replaced by the median of the times of the same job."""
    repeats = defaultdict(list)
    for i, t in zip(ids, times):
        repeats[i].append(t)
    medians = {i: statistics.median(ts) for i, ts in repeats.items()}
    return [medians[i] for i in ids]


def run_job(job, clock, tracer=None):
    """(call wall seconds, Outcome); the check runs after the clock stops."""
    def call():
        try:
            return job.call(), None
        except Exception as exc:  # noqa: BLE001 - a raising job is a measured failure
            return None, exc

    (result, error), wall = clock.time(call)
    if tracer:
        tracer.active = False
    try:
        return wall, judge(job, result, error)
    finally:
        if tracer:
            tracer.active = True


def judge(job, result, error):
    if error is not None:
        if job.defect == type(error).__name__:
            return Outcome("known_defect", units=job.defect_units, note=repr(error))
        return Outcome("wrong", note=f"{job.key}: raised {error!r}")
    try:
        return job.check(result)
    except Mismatch as exc:
        return Outcome("wrong", note=str(exc))
    except Exception as exc:  # noqa: BLE001 - an output the check cannot read is wrong
        return Outcome("wrong", note=f"{job.key}: check raised {exc!r}")


def setup(mods, name, seed, ref, workdir, clock):
    """Import in a fresh interpreter, generate the inputs and warm up."""
    def work():
        fresh_import()
        workdir.mkdir(parents=True)
        os.chdir(workdir)
        wl = workloads.BUILDERS[name](mods, workloads.Inputs(mods, workdir), seed, ref)
        warm = SpeedClock(clock.speed_probe)
        for job in wl.warmup:
            run_job(job, warm)
        return wl

    return clock.time(work)[0]


def provenance(seed):
    commit = "unknown"
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        commit = done.stdout.strip() or commit
    def version(dist):
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return "absent"

    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "numpy": version("numpy"),
        "gmpy2": "present" if importlib.util.find_spec("gmpy2") else "absent",
        "commit": commit,
        "PROJDYN_WORKERS": os.environ.get("PROJDYN_WORKERS"),
    }


def quantile(values, p):
    """Harrell-Davis estimate of the p-quantile of values.

    A mean of all order statistics weighted by the Beta((n+1)p, (n+1)(1-p))
    distribution (Harrell and Davis, Biometrika 1982).  A single order
    statistic rests on one job's few repeats and jumps when two jobs of
    nearly equal cost trade places; this estimate averages over the jobs
    near the quantile and so spreads less from run to run.
    """
    xs = sorted(values)
    n = len(xs)
    if p <= 0 or p >= 1 or n == 1:
        return xs[0] if p <= 0 else xs[-1]
    return math.fsum(w * x for w, x in zip(hd_weights(n, p), xs))


@functools.lru_cache(maxsize=None)
def hd_weights(n, p):
    a, b = p * (n + 1), (1 - p) * (n + 1)
    cdf = [float(mpmath.betainc(a, b, 0, k / n, regularized=True)) for k in range(n + 1)]
    return [hi - lo for lo, hi in zip(cdf, cdf[1:])]


def tail(times):
    """(time, percentile) at the highest percentile with at least
    TAIL_BEYOND jobs beyond it."""
    n = len(times)
    p = max(0, n - TAIL_BEYOND - 1) / (n - 1) if n > 1 else 1.0
    return quantile(times, p), 100.0 * p


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.BUILDERS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", type=Path, default=None, help="also write the result to this file")
    args = ap.parse_args(argv)

    # measure the default configuration, whatever the caller's shell set
    os.environ.pop("PROJDYN_WORKERS", None)
    # jobs, speed probes and the set-up interpreters all run on the CPU
    # this process starts on, so the probes measure the jobs' CPU
    os.sched_setaffinity(0, {current_cpu()})
    mods = load_package()
    ref = workloads.Reference(json.loads(REFERENCE.read_text(encoding="utf-8")))
    work_root = BENCH / "_work" / f"{args.workload}-{os.getpid()}"
    rounds = max(1, round(args.seconds / ROUND_S))
    speed_probe = SpeedProbe()
    setup_clock, clock = SpeedClock(speed_probe), SpeedClock(speed_probe)
    try:
        for rep in range(SETUP_REPS):
            wl = setup(mods, args.workload, args.seed, ref, work_root / str(rep), setup_clock)
        setup_clock.probe()
        tracer = None
        if args.trace:
            from tracer import Tracer
            tracer = Tracer(mods)
            tracer.install()
        walls, outcomes, keys, ids = [], [], [], []
        index = {id(job): k for k, job in enumerate(wl.jobs)}
        start = perf_counter()
        try:
            for r in range(rounds):
                for job in wl.rounds(r):
                    if tracer:
                        tracer.job = len(walls)
                    wall_s, outcome = run_job(job, clock, tracer)
                    walls.append(wall_s)
                    outcomes.append(outcome)
                    keys.append(job.key)
                    ids.append(index[id(job)])
        finally:
            elapsed = perf_counter() - start
            if tracer:
                tracer.uninstall()
        clock.probe()
    finally:
        speed_probe.close()
        os.chdir(ROOT)
        shutil.rmtree(work_root, ignore_errors=True)
        with contextlib.suppress(OSError):
            work_root.parent.rmdir()

    scaled = per_job(ids, clock.scaled())
    cpu = per_job(ids, clock.cpu())
    jobs = len(walls)
    failed = sum(o.status != "ok" for o in outcomes)
    wrong = [o.note for o in outcomes if o.status == "wrong"]
    units = sum(o.units for o in outcomes)
    tail_s, tail_pct = tail(scaled)
    if tracer:
        metrics = tracer.rollup(elapsed, elapsed - sum(walls), jobs, jobs / sum(scaled))
        out_dir = BENCH / "_out"
        out_dir.mkdir(exist_ok=True)
        tracer.write_spans(out_dir / f"spans-{args.workload}-{args.seed}.jsonl.gz", metrics)
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setup_clock.scaled()), "unit": "s"},
            "job_p50_s": {"value": quantile(scaled, 0.5), "unit": "s"},
            "job_tail_s": {"value": tail_s, "unit": "s"},
            "jobs_per_s": {"value": jobs / sum(scaled), "unit": "1/s"},
            "ok_frac": {"value": 1 - failed / jobs, "unit": "ratio"},
            "decided_frac": {"value": sum(o.definite for o in outcomes) / units, "unit": "ratio"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                            "unit": "MB"},
        }
    detail = {
        "workload": args.workload,
        "trace": args.trace,
        "jobs": jobs,
        "rounds": rounds,
        "tail_percentile": tail_pct,
        "fail_frac": failed / jobs,
        "known_defects": sum(o.status == "known_defect" for o in outcomes),
        "wrong": wrong[:20],
        "timed_phase_s": elapsed,
        "unscaled": {
            "setup_cpu_s": setup_clock.cpu(),
            "setup_wall_s": [t1 - t0 for t0, t1, _ in setup_clock.calls],
            "job_p50_s": quantile(cpu, 0.5),
            "job_tail_s": tail(cpu)[0],
            "jobs_per_s": jobs / sum(cpu),
            "wall_job_p50_s": statistics.median(walls),
            "wall_jobs_per_s": jobs / sum(walls),
        },
        "speed_factor": sum(cpu) / sum(scaled),
        "job_keys": keys,
        "job_wall_s": walls,
        "job_cpu_s": clock.cpu(),
        "job_scaled_s": clock.scaled(),
        "provenance": provenance(args.seed),
    }
    result = {"correct": not wrong, "attempted": jobs, "failed": failed, "metrics": metrics}
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps({"detail": detail, "result": result}, indent=1) + "\n",
                            encoding="utf-8")
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0 if not wrong else 1


if __name__ == "__main__":
    sys.exit(main())
