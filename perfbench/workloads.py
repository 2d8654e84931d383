"""Job catalogues, input generation and output checks for the four workloads.

Every workload is a closed loop with one client: the harness starts the
next job only after the previous one returned.  A *round* is one pass
over the workload's catalogue in an order the seed shuffles; the timed
phase runs whole rounds, so every job runs once per round and the
harness can take each job's median over its repeats.

- certify and preflight run a fixed catalogue that is recorded in
  reference.json.
- grid and point draw part of their inputs (monomial-map slices, sample
  points) from the seed, once per run, and check those against
  closed-form oracles.

Package functions are looked up on their modules at call time, so the
traced run sees the wrapped versions.
"""

import contextlib
import hashlib
import io
import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

import mpmath

NAMES = ("z", "w", "t")

# The stable family map (P = z, Q = (w^2 + z*t, t^2 + z*w, 2*w*t),
# R = 2*w^2*t) expands to exactly the lag-1 cubic below, so one file
# serves both fixtures.
STABLE_FAMILY = ("z", "w^2 + z*t", "t^2 + z*w", "2*w*t", "2*w^2*t")
LAG1_CUBIC = ("z^2*t + z*w^2 - 2*w^2*t", "z^2*w + z*t^2 - 2*w^2*t", "2*z*w*t - 2*w^2*t")
EXTRACTING_CUBIC = ("z*w^2 - w^2*t", "z*t^2 - w^2*t", "z^2*w - w^2*t")
MONOMIAL = ("z^2", "w^2", "t^2")

STABLE_DEGREES = (1, 3, 8, 21, 55)
EXTRACTING_DEGREES = (1, 3, 7, 16, 37)

# random_family maps for certify: (deg_p, deg_q, seed, subcommand, depth).
# d = 3 maps go to depth 3 (about 250-term liftings; verify-all adds the
# lifting-recurrence check, about 1.3 s), d = 4 maps to depth 2.  The job
# costs are spread so that the median and the tail of a run each fall on
# the copies of one job, not among several jobs of the same cost.
CERTIFY_FAMILY = (
    (1, 2, 0, "infer-qas", 3),
    (1, 2, 1, "verify-all", 3),
    (1, 2, 2, "verify-all", 3),
    (2, 2, 0, "degrees", 2),
    (1, 3, 0, "degrees", 2),
)
COEFF_BOUND = 5

# (deg_p, deg_q, seed) with coefficient bound 5.  (1, 2) gets three more
# seeds: a round then has an odd number of jobs, and its middle job sits
# among the many cheap checks of similar cost, not at the jump to the
# expensive ones
PREFLIGHT_INSTANCES = tuple(
    (dp, dq, s) for dp, dq in ((1, 2), (1, 3), (2, 2), (2, 3), (3, 2), (3, 3)) for s in range(5)
) + ((1, 2, 5), (1, 2, 6), (1, 2, 7))

# fixed slices of the stable map: (key, base, e1, e2, resolution, pgm)
GRID_STABLE = (
    ("indet33", "0,0,1", "1,0,0", "0,1,0", 33, False),
    ("w48", "0,1,0.5", "1,0,0", "0,0,1", 48, True),
    ("mix36", "0.3+0.1j,1,0.4", "1,0,0", "0,0,1", 36, False),
    ("diag32", "1,1,1", "1,-1,0", "0,1j,0", 32, False),
    ("z40", "1,0.2,0.3", "0,1,0", "0,0,1j", 40, False),
)
GRID_MONOMIAL_RES = (32, 36, 40, 44)
GRID_SAMPLE_STRIDE = 7

POINT_HI, POINT_LO, POINT_MONO, POINT_LONG = 50, 8, 4, 4
# long enough that these orbits, not slow copies of the 40-step jobs, set the tail
LONG_ORBIT = 600
CHARPOLY_SPECS = ((3, 1, 1), (4, 2, 1), (5, 2, 3), (4, 3, 6))
CHARPOLY_BITS = (256, 1024)
# residuals go through a float lambda, so both precisions share one bound
RESIDUAL_BOUND = {53: 1e-12, 128: 1e-12}
GREEN_TOL = 1e-9
GRID_TOL = 1e-9

TERM_CAP_PROBE = 5000


class Mismatch(Exception):
    """An output disagrees with its oracle or with the reference file."""


@dataclass
class Outcome:
    """What one job produced, as judged by its check."""

    status: str = "ok"  # ok | known_defect | wrong
    units: int = 0  # verdict-producing units (verdicts, grid nodes, evaluations)
    definite: int = 0
    note: str = ""


@dataclass
class Job:
    key: str
    call: Callable[[], object]
    check: Callable[[object], Outcome]
    # a probe of a known defect; `defect` is the exception class name it
    # raised at the recorded parent commit, a failure that keeps `correct`
    probe: bool = False
    defect: Optional[str] = None
    defect_units: int = 0


@dataclass
class Workload:
    jobs: list  # the catalogue; every round runs each of these once
    seed: int
    warmup: list = field(default_factory=list)

    def rounds(self, r: int) -> list:
        """The catalogue in the order round r runs it."""
        order = list(self.jobs)
        random.Random(f"{self.seed}-{r}").shuffle(order)
        return order


def sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def run_cli(mods, argv):
    """In-process `projdyn <argv>`; returns (exit code, stdout)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = mods.cli.main(argv)
        except SystemExit as exc:  # argparse rejects its input this way
            code = exc.code if isinstance(exc.code, int) else 2
    return code, out.getvalue()


def expect(cond, what):
    if not cond:
        raise Mismatch(what)


class Reference:
    """Outputs recorded at the parent commit (reference.json)."""

    def __init__(self, data: dict):
        self.data = data

    def entry(self, key: str, make: Callable[[], dict]) -> dict:
        entry = self.data["jobs"].get(key)
        expect(entry is not None, f"{key}: not in the reference file")
        return entry

    def match(self, key: str, code: int, stdout: str) -> dict:
        """A CLI job's exit code and byte-identical stdout."""
        entry = self.entry(key, lambda: {"exit": code, "sha256": sha(stdout)})
        expect(code == entry["exit"], f"{key}: exit {code}, reference {entry['exit']}")
        expect(sha(stdout) == entry["sha256"], f"{key}: stdout differs from the reference")
        return entry

    def defect(self, key: str) -> Optional[str]:
        return self.data["probes"].get(key)


class Recorder(Reference):
    """Builds the reference file: every entry is taken from this run."""

    def __init__(self):
        super().__init__({"jobs": {}, "probes": {}})

    def entry(self, key, make):
        return self.data["jobs"].setdefault(key, make())

    def defect(self, key):
        return None


# -- inputs --------------------------------------------------------------------


class Inputs:
    """Map and family files plus in-memory objects for library jobs."""

    def __init__(self, mods, workdir: Path):
        self.mods = mods
        self.dir = workdir
        (workdir / "maps").mkdir(parents=True, exist_ok=True)
        (workdir / "out").mkdir(parents=True, exist_ok=True)

    def poly(self, text):
        return self.mods.polycore.parse_poly(text, NAMES)

    def map_of(self, texts):
        return self.mods.mapiter.make_map([self.poly(t) for t in texts], NAMES)

    def stable(self):
        fam = self.mods.family2.build_family_map(*(self.poly(t) for t in STABLE_FAMILY))
        return fam.map

    def write_map(self, name, f) -> str:
        rel = f"maps/{name}.map"
        self.mods.mapiter.save_map(f, self.dir / rel)
        return rel

    def family(self, deg_p, deg_q, seed):
        return self.mods.family2.random_family(deg_p, deg_q, COEFF_BOUND, seed)


# -- certify -------------------------------------------------------------------


def certify(mods, inputs: Inputs, seed: int, ref: Reference) -> Workload:
    stable_path = inputs.write_map("stable", inputs.stable())
    ext_path = inputs.write_map("extracting", inputs.map_of(EXTRACTING_CUBIC))
    lag1 = inputs.map_of(LAG1_CUBIC)
    extend = mods.specdeg.extend_degrees
    family_maps = []
    for dp, dq, s, sub, depth in CERTIFY_FAMILY:
        inst = inputs.family(dp, dq, s)
        path = inputs.write_map(f"fam-{dp}-{dq}-{s}", inst.map)
        oracle = tuple(extend(inst.recurrence, depth))
        family_maps.append((f"fam-{dp}-{dq}-{s}", sub, path, depth, oracle))

    def cli_job(key, argv, oracle, definite_verdicts=("AS", "QAS", "NotQAS")):
        def check(result):
            code, stdout = result
            ref.match(key, code, stdout)
            payload = json.loads(stdout)
            degrees = tuple(int(d) for d in payload["degrees"])
            expect(degrees == tuple(oracle), f"{key}: degrees {degrees}, oracle {oracle}")
            verdict = payload.get("verdict")
            if verdict is None:
                return Outcome()
            return Outcome(units=1, definite=int(verdict in definite_verdicts))
        return Job(key, lambda: run_cli(mods, argv), check)

    def probe():
        pc = mods.polycore
        old = pc.get_term_cap()
        pc.set_term_cap(TERM_CAP_PROBE)
        try:
            return mods.mapiter.iterate_degrees(lag1, 4).degrees
        finally:
            pc.set_term_cap(old)

    def probe_check(degrees):
        expect(tuple(degrees) == STABLE_DEGREES, f"term-cap probe: degrees {degrees}")
        return Outcome()

    jobs = [
        cli_job("certify/verify-all/stable/4",
                ["verify-all", "--map", stable_path, "--n", "4", "--json"], STABLE_DEGREES),
        cli_job("certify/verify-all/extracting/4",
                ["verify-all", "--map", ext_path, "--n", "4", "--json"], EXTRACTING_DEGREES),
        cli_job("certify/verify-all/stable/3",
                ["verify-all", "--map", stable_path, "--n", "3", "--json"], STABLE_DEGREES[:4]),
        cli_job("certify/degrees/stable/4",
                ["degrees", "--map", stable_path, "--n", "4", "--json"], STABLE_DEGREES),
        cli_job("certify/infer-qas/stable/3",
                ["infer-qas", "--map", stable_path, "--n", "3", "--json"], STABLE_DEGREES[:4]),
        Job("certify/probe/term-cap", probe, probe_check, probe=True,
            defect=ref.defect("certify/probe/term-cap")),
    ]
    for name, sub, path, depth, oracle in family_maps:
        jobs.append(cli_job(f"certify/{sub}/{name}/{depth}",
                            [sub, "--map", path, "--n", str(depth), "--json"], oracle))
    # the term-cap probe runs only in the timed rounds: a fix to it must not move setup_s
    return Workload(jobs, seed, warmup=[jobs[4]])


# -- preflight -----------------------------------------------------------------


VERDICT_FIELDS = (
    ("coprimality",),
    ("intersection", "verdict"),
    ("rank_verdict",),
    ("pencil", "verdict"),
    ("overall",),
)


def verdicts_of(payload: dict) -> dict:
    out = {}
    for path in VERDICT_FIELDS:
        v = payload
        for part in path:
            v = v[part]
        out[".".join(path)] = v
    return out


def preflight(mods, inputs: Inputs, seed: int, ref: Reference) -> Workload:
    jobs = []
    for dp, dq, s in PREFLIGHT_INSTANCES:
        key = f"preflight/{dp}-{dq}/{s}"
        fam = f"out/fam-{dp}-{dq}-{s}.txt"
        gen = ["family-gen", "--deg-p", str(dp), "--deg-q", str(dq),
               "--coeff-bound", str(COEFF_BOUND), "--seed", str(s),
               "--out", fam, "--json"]
        chk = ["family-check", "--family", fam, "--json"]

        def call(gen=gen, chk=chk):
            return run_cli(mods, gen), run_cli(mods, chk)

        def check(result, key=key):
            (gcode, gout), (ccode, cout) = result
            ref.match(key + "/gen", gcode, gout)
            got = verdicts_of(json.loads(cout))
            entry = ref.entry(key + "/check", lambda: {"verdicts": got})
            for name, was in entry["verdicts"].items():
                now = got[name]
                if was != "UNKNOWN":
                    expect(now == was, f"{key}: {name} flipped {was} -> {now}")
            overall = got["overall"]
            expect(ccode == (0 if overall == "PASS" else 1),
                   f"{key}: family-check exit {ccode} with overall {overall}")
            return Outcome(units=1, definite=int(overall != "UNKNOWN"))

        jobs.append(Job(key, call, check))
    return Workload(jobs, seed, warmup=[jobs[0]])


# -- grid ----------------------------------------------------------------------


def read_csv_rows(path: Path):
    """[(x, y, u or None, status)] in the order export_grid_csv writes them."""
    rows = []
    with open(path, encoding="utf-8") as fh:
        next(fh)
        for line in fh:
            x, y, u, status = line.rstrip("\n").split(",")
            rows.append((float(x), float(y), float(u) if u else None, status))
    return rows


def grid_reference_entry(stdout: str, csv_rows, pgm: Optional[Path]) -> dict:
    """What the reference file keeps for one stable-map grid."""
    ok = [u for _, _, u, s in csv_rows if s == "OK"]
    entry = {
        "counts": json.loads(stdout)["counts"],
        "ok_sum": math.fsum(ok),
        "samples": [[k, csv_rows[k][2]] for k in range(0, len(csv_rows), GRID_SAMPLE_STRIDE)],
    }
    if pgm is not None:
        side = json.loads(Path(str(pgm) + ".json").read_text(encoding="utf-8"))
        entry["pgm_min"], entry["pgm_max"] = side["min"], side["max"]
    return entry


def monomial_slice(rng):
    """A slice with t = 1 on every node, so no node is the zero vector."""
    def c():
        return complex(round(rng.uniform(-1.5, 1.5), 3), round(rng.uniform(-1.5, 1.5), 3))
    base = (c(), c(), 1)
    e1 = (c(), c(), 0)
    e2 = (c(), c(), 0)
    while abs(e1[0] * e2[1] - e1[1] * e2[0]) < 0.3:
        e2 = (c(), c(), 0)
    return base, e1, e2


def fmt_point(v):
    return ",".join(repr(complex(x)).strip("()") if isinstance(x, complex) else repr(x) for x in v)


def grid(mods, inputs: Inputs, seed: int, ref: Reference) -> Workload:
    stable_path = inputs.write_map("stable", inputs.stable())
    mono_path = inputs.write_map("monomial", inputs.map_of(MONOMIAL))
    out = inputs.dir

    def grid_argv(path, base, e1, e2, res, csv, pgm):
        # "--opt=value" keeps argparse from reading "-0.5+1j,..." as an option
        argv = ["green-grid", "--map", path, f"--base={base}", f"--e1={e1}", f"--e2={e2}",
                "--resolution", str(res), "--json", "--csv", csv]
        return argv + (["--pgm", pgm] if pgm else [])

    def stable_job(key, base, e1, e2, res, with_pgm):
        ref_key = f"grid/stable/{key}"
        csv, pgm = f"out/{key}.csv", (f"out/{key}.pgm" if with_pgm else None)
        argv = grid_argv(stable_path, base, e1, e2, res, csv, pgm)

        def check(result):
            code, stdout = result
            ref.match(ref_key, code, stdout)
            rows = read_csv_rows(out / csv)
            got = grid_reference_entry(stdout, rows, out / pgm if pgm else None)
            entry = ref.entry(ref_key + "/values", lambda: got)
            expect(got["counts"] == entry["counts"], f"{ref_key}: status counts differ")
            expect(abs(got["ok_sum"] - entry["ok_sum"]) <= GRID_TOL * len(rows),
                   f"{ref_key}: sum of OK values differs")
            for (k, u), (_, want) in zip(got["samples"], entry["samples"]):
                expect((u is None) == (want is None) and (u is None or abs(u - want) <= GRID_TOL),
                       f"{ref_key}: node {k} value {u}, reference {want}")
            if pgm:
                expect(abs(got["pgm_min"] - entry["pgm_min"]) <= GRID_TOL
                       and abs(got["pgm_max"] - entry["pgm_max"]) <= GRID_TOL,
                       f"{ref_key}: PGM value range differs")
            return grid_outcome(stdout, res)

        return Job(ref_key, lambda: run_cli(mods, argv), check)

    def mono_job(key, rng, res, with_pgm):
        base, e1, e2 = monomial_slice(rng)
        csv, pgm = f"out/{key}.csv", (f"out/{key}.pgm" if with_pgm else None)
        argv = grid_argv(mono_path, fmt_point(base), fmt_point(e1), fmt_point(e2), res, csv, pgm)

        def check(result):
            code, stdout = result
            expect(code == 0, f"grid/{key}: exit {code}")
            rows = read_csv_rows(out / csv)
            expect(len(rows) == res * res, f"grid/{key}: {len(rows)} CSV rows")
            for k, (x, y, u, status) in enumerate(rows):
                z = [b + x * a + y * c for b, a, c in zip(base, e1, e2)]
                want = max(math.log(abs(v)) for v in z)
                expect(status == "OK" and abs(u - want) <= GRID_TOL,
                       f"grid/{key}: node {k} gives {u} ({status}), oracle {want}")
            return grid_outcome(stdout, res)

        return Job(f"grid/{key}", lambda: run_cli(mods, argv), check)

    rng = random.Random(f"grid-{seed}")
    jobs = [stable_job(*spec) for spec in GRID_STABLE]
    jobs += [mono_job(f"mono{res}", rng, res, i == 0) for i, res in enumerate(GRID_MONOMIAL_RES)]
    warm_argv = grid_argv(stable_path, "0,0,1", "1,0,0", "0,1,0", 8, "out/warm.csv", None)
    warm = Job("grid/warmup", lambda: run_cli(mods, warm_argv), lambda result: Outcome())
    return Workload(jobs, seed, warmup=[warm])


def grid_outcome(stdout: str, res: int) -> Outcome:
    counts = {k: int(v) for k, v in json.loads(stdout)["counts"].items()}
    total = res * res
    expect(sum(counts.values()) == total, f"status counts cover {sum(counts.values())} of {total}")
    return Outcome(units=total, definite=total - counts.get("NotConverged", 0))


# -- point ---------------------------------------------------------------------


def point(mods, inputs: Inputs, seed: int, ref: Reference) -> Workload:
    gp, sd = mods.greenpot, mods.specdeg
    f = inputs.stable()
    cert = mods.mapiter.infer_qas(mods.mapiter.iterate_degrees(f, 3)).certificate
    rep = sd.char_poly_roots(sd.DegreeRecurrence(d=cert.d, h=cert.h, n0=cert.n0))
    mono = inputs.map_of(MONOMIAL)

    def residual_job(key, z, bits):
        def call():
            u, hist = gp.green_eval(f, cert, rep, z, n_iters=40, precision=bits)
            fe = gp.functional_eq_residual(f, cert, rep, z, n_iters=40, precision=bits)
            ts = gp.telescope_residual(f, cert, rep, z, 2, precision=bits, n_iters=48)
            return u, fe, ts

        def check(result):
            u, fe, ts = result
            bound = RESIDUAL_BOUND[bits]
            expect(float(fe) < bound, f"{key}: functional-equation residual {float(fe)}")
            expect(float(ts) < bound, f"{key}: telescope residual {float(ts)}")
            # a value at another precision is an independent evaluation path
            other, _ = gp.green_eval(f, cert, rep, z, n_iters=40,
                                     precision=53 if bits > 53 else 128)
            expect(abs(float(u) - float(other)) < GREEN_TOL, f"{key}: u {u} vs {other}")
            return Outcome(units=1, definite=1)

        return Job(key, call, check)

    def mono_job(key, z):
        def check(u):
            want = max(math.log(abs(c)) for c in z)
            expect(abs(float(u) - want) < GREEN_TOL, f"{key}: u {u}, oracle {want}")
            return Outcome(units=1, definite=1)
        return Job(key, lambda: gp.green_eval(mono, None, None, z, n_iters=40,
                                              precision=128)[0], check)

    def lambda_job(spec, bits):
        key = "point/lambda/{}-{}-{}/{}".format(*spec, bits)

        def check(report):
            lam = report.lambda_
            d, h, n0 = spec
            with mpmath.workprec(bits):
                tol = mpmath.mpf(2) ** (16 - bits) * lam
                # lambda is the dominant root of t^n0 (t - d) + h
                expect(abs(lam**n0 * (lam - d) + h) < tol * d**n0,
                       f"{key}: lambda {lam} is not a root of the characteristic polynomial")
                want = ref.entry(key, lambda: {"lambda": mpmath.nstr(lam, int(bits * 0.3))})
                expect(abs(lam - mpmath.mpf(want["lambda"])) < tol,
                       f"{key}: lambda {lam} differs from the reference")
            if spec == (3, 1, 1):
                expect(abs(float(lam) - (3 + math.sqrt(5)) / 2) < 1e-14,
                       f"{key}: lambda {lam} is not (3+sqrt 5)/2")
            return Outcome(units=1, definite=1)

        return Job(key, lambda: sd.char_poly_roots(sd.DegreeRecurrence(*spec),
                                                   precision_bits=bits), check)

    def long_job(z):
        def check(result):
            u, _ = result
            want, _ = gp.green_eval(f, cert, rep, z, n_iters=40)
            expect(abs(float(u) - float(want)) < GREEN_TOL, f"long orbit: u {u} vs {want}")
            return Outcome(units=1, definite=1)
        return Job("point/long-orbit/128",
                   lambda: gp.green_eval(f, cert, rep, z, n_iters=LONG_ORBIT, precision=128), check)

    z_probe = (0.9 + 0.3j, -1.1 + 0.4j, 0.5 - 0.7j)

    def probe_check(result):
        u, _ = result
        want, _ = gp.green_eval(f, cert, rep, z_probe, n_iters=60)
        expect(abs(float(u) - float(want)) < GREEN_TOL, f"long-orbit probe: u {u} vs {want}")
        return Outcome(units=1, definite=1)

    probe = Job("point/probe/n800",
                lambda: gp.green_eval(f, cert, rep, z_probe, n_iters=800, precision=53),
                probe_check, probe=True, defect=ref.defect("point/probe/n800"), defect_units=1)

    rng = random.Random(f"point-{seed}")

    def z():
        return tuple(complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(3))

    jobs = [residual_job("point/residuals/128", z(), 128) for _ in range(POINT_HI)]
    jobs += [residual_job("point/residuals/53", z(), 53) for _ in range(POINT_LO)]
    jobs += [mono_job("point/monomial/128", z()) for _ in range(POINT_MONO)]
    jobs += [long_job(z()) for _ in range(POINT_LONG)]
    jobs += [lambda_job(spec, bits) for spec in CHARPOLY_SPECS for bits in CHARPOLY_BITS]
    jobs.append(probe)

    rng0 = random.Random(f"point-{seed}-warmup")
    z0 = tuple(complex(rng0.gauss(0, 1), rng0.gauss(0, 1)) for _ in range(3))
    warm = [residual_job("point/warmup/128", z0, 128), residual_job("point/warmup/53", z0, 53),
            lambda_job((3, 1, 1), 256)]
    return Workload(jobs, seed, warmup=warm)


BUILDERS = {"certify": certify, "preflight": preflight, "grid": grid, "point": point}
