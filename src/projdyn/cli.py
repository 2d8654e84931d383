"""Command-line front end for map analysis and potential sampling.

Every run is fully determined by its flags, so reruns with the same
flags (including seeds) produce byte-identical JSON and CSV and
identical PGM payloads.  Machine output is selected with --json; JSON
payloads follow the schemas under docs/schemas/, print polynomials in
the parser grammar, and render exact integers as decimal strings
because degree values outgrow 64-bit range quickly.

Exit codes: 0 success; 1 negative analysis verdict (NotQAS, FAIL,
an orbit hitting the divisor or an indeterminacy point, no
convergence); 2 input error; 3 resource or precision limit (an orbit
that lost its normalization or its finite height at the working
precision); 4 internal invariant violation.
"""

import argparse
import json
import math
import random
import sys
from typing import Optional

from mpmath import mp, workprec

from . import greenpot as gp
from .family2 import (
    FAIL,
    PASS,
    FamilyError,
    GenerationExhausted,
    load_family,
    random_family,
    run_preflight,
    save_family,
)
from .mapiter import (
    MapError,
    certificate_digest,
    infer_qas,
    iterate_degrees,
    load_map,
    verify_lifting_recurrence,
)
from .polycore import ParseError, PolyError, ResourceLimit, poly_to_text
from .specdeg import (
    DegenerateLambda,
    DegreeRecurrence,
    InsufficientData,
    PrecisionExhausted,
    char_poly_roots,
    check_asymptotics,
    check_growth_bounds,
    check_sn_identity,
    extend_degrees,
)

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_INPUT = 2
EXIT_RESOURCE = 3
EXIT_INTERNAL = 4

# -- formatting helpers --------------------------------------------------------


def _istr(v) -> str:
    return str(int(v))


def _numstr(x, precision_bits: int = 53) -> str:
    """Decimal rendering with enough digits for the working precision.

    High-precision values are printed as they are; recasting through
    mp.mpf at the ambient precision would silently round them down.
    """
    if isinstance(x, float):
        return repr(x)
    dps = max(17, int(precision_bits * 0.3010299957) - 2)
    with workprec(precision_bits + 8):
        if not isinstance(x, mp.mpf):
            x = mp.mpf(x)
        return mp.nstr(x, dps, strip_zeros=True)


def _emit_json(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _poly_str(p, names) -> Optional[str]:
    return None if p is None else poly_to_text(p, names)


# -- subcommand runners ---------------------------------------------------------


def _run_degrees(args):
    trace = iterate_degrees(load_map(args.map), args.n)
    degs = [_istr(d) for d in trace.degrees]
    if args.json:
        payload = {"degrees": degs, "digest": certificate_digest(trace, None)}
        return EXIT_OK, _emit_json(payload)
    return EXIT_OK, " ".join(degs) + "\n"


def _run_infer_qas(args):
    f = load_map(args.map)
    trace = iterate_degrees(f, args.n)
    res = infer_qas(trace)
    cert = res.certificate
    H = cert.H if cert else res.H
    payload = {
        "verdict": res.verdict,
        "n0": _istr(cert.n0) if cert else (_istr(res.n0) if res.n0 is not None else None),
        "H": _poly_str(H, f.names),
        "h": _istr(cert.h) if cert else ("0" if res.verdict == "AS" else None),
        "d": _istr(f.degree),
        "degrees": [_istr(d) for d in trace.degrees],
        "verified_to": _istr(cert.verified_to) if cert else
                       (_istr(trace.depth) if res.verdict == "AS" else None),
        "witness": _istr(res.witness) if res.witness is not None else None,
        "digest": certificate_digest(trace, H),
    }
    code = EXIT_OK if res.verdict in ("AS", "QAS") else EXIT_NEGATIVE
    if args.json:
        return code, _emit_json(payload)
    lines = [f"verdict {res.verdict}"]
    for key in ("n0", "h", "d", "H", "verified_to", "witness"):
        if payload[key] is not None:
            lines.append(f"{key} {payload[key]}")
    lines.append("degrees " + " ".join(payload["degrees"]))
    return code, "\n".join(lines) + "\n"


def _run_lambda(args):
    spec = DegreeRecurrence(d=args.d, h=args.h, n0=args.n0)
    rep = char_poly_roots(spec, precision_bits=args.precision)
    bits = args.precision
    payload = {
        "d": _istr(spec.d),
        "h": _istr(spec.h),
        "n0": _istr(spec.n0),
        "charpoly": [_istr(c) for c in rep.charpoly],
        "lambda": _numstr(rep.lambda_, bits),
        "r": _istr(rep.r),
        "rho": _numstr(rep.rho, bits),
        "Q_fit": [_numstr(q, bits) for q in rep.Q_fit],
        "precision_bits": _istr(rep.precision_bits),
    }
    if args.json:
        return EXIT_OK, _emit_json(payload)
    text = (
        f"lambda {payload['lambda']}\n"
        f"r {payload['r']}\n"
        f"rho {payload['rho']}\n"
        f"charpoly {' '.join(payload['charpoly'])}\n"
    )
    return EXIT_OK, text


def _run_family_gen(args):
    inst = random_family(
        deg_p=args.deg_p,
        deg_q=args.deg_q,
        coeff_bound=args.coeff_bound,
        seed=args.seed,
    )
    out = args.out
    save_family(inst, out)
    names = inst.names
    payload = {
        "P": poly_to_text(inst.P, names),
        "Q1": poly_to_text(inst.Q1, names),
        "Q2": poly_to_text(inst.Q2, names),
        "Q3": poly_to_text(inst.Q3, names),
        "R": poly_to_text(inst.R, names),
        "d": _istr(inst.recurrence.d),
        "h": _istr(inst.recurrence.h),
        "n0": _istr(inst.recurrence.n0),
        "seed": _istr(args.seed),
        "path": str(out),
    }
    if args.json:
        return EXIT_OK, _emit_json(payload)
    lines = [f"wrote {out}"]
    lines += [f"{k} {payload[k]}" for k in ("P", "Q1", "Q2", "Q3", "R", "d", "h", "n0")]
    return EXIT_OK, "\n".join(lines) + "\n"


def _run_family_check(args):
    rep = run_preflight(load_family(args.family))
    inter, rank, pencil = rep.intersection, rep.rank, rep.pencil
    payload = {
        "coprimality": rep.coprimality,
        "intersection": {
            "verdict": inter.verdict,
            "rational_points": [[str(c) for c in pt] for pt in inter.rational_points],
            "boxed": _istr(inter.boxed_points),
            "failures": _istr(len(inter.failure_witnesses)),
            "unresolved": _istr(inter.unresolved),
        },
        "rank": _istr(rank.rank),
        "rank_verdict": rank.verdict,
        "pencil": {
            "verdict": pencil.verdict,
            "method": pencil.method,
            "witness": [_istr(c) for c in pencil.witness] if pencil.witness else None,
        },
        "overall": rep.overall,
    }
    code = EXIT_OK if rep.overall == PASS else EXIT_NEGATIVE
    if args.json:
        return code, _emit_json(payload)
    text = (
        f"coprimality {rep.coprimality}\n"
        f"intersection {inter.verdict}\n"
        f"rank {rank.rank} {rank.verdict}\n"
        f"pencil {pencil.verdict} {pencil.method}\n"
        f"overall {rep.overall}\n"
    )
    return code, text


def _certificate_for(f, mode: str, depth: int):
    """Resolve --cert: (cert, lambda_report, trace).  Plain mode has no divisor."""
    trace = iterate_degrees(f, depth)
    if mode == "none":
        return None, None, trace
    res = infer_qas(trace)
    if res.verdict == "QAS":
        cert = res.certificate
        rep = char_poly_roots(DegreeRecurrence(d=cert.d, h=cert.h, n0=cert.n0))
        return cert, rep, trace
    if res.verdict == "AS":
        return None, None, trace
    raise DegenerateLambda(
        f"cannot certify a divisor at depth {depth}: verdict {res.verdict}"
    )


def _parse_point(text: str, nvars: int):
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != nvars:
        raise ValueError(f"point needs {nvars} comma-separated coordinates")
    return tuple(complex(p) for p in parts)


def _precision_limit(exc: gp.OrbitError, bits: int) -> PrecisionExhausted:
    """A lost normalization or a non-finite height: the orbit outgrew its precision."""
    return PrecisionExhausted(f"{exc} at {bits} bits; rerun with a higher --precision")


def _run_green_point(args):
    f = load_map(args.map)
    cert, rep, trace = _certificate_for(f, args.cert, args.cert_depth)
    z = _parse_point(args.point, f.nvars)
    digest = certificate_digest(trace, cert.H if cert else None)
    mode = "QAS" if cert else "plain"
    try:
        u, hist = gp.green_eval(
            f, cert, rep, z,
            n_iters=args.n, precision=args.precision, converge_tol=args.tol,
        )
    except (gp.OrbitHitIndeterminacy, gp.OrbitHitDivisor, gp.NotConverged) as exc:
        payload = {
            "u": None,
            "status": type(exc).__name__.replace("Orbit", ""),
            "step": _istr(exc.step) if exc.step is not None else None,
            "mode": mode,
            "digest": digest,
        }
        if args.json:
            return EXIT_NEGATIVE, _emit_json(payload)
        return EXIT_NEGATIVE, f"status {payload['status']} step {payload['step']}\n"
    except gp.OrbitError as exc:
        raise _precision_limit(exc, args.precision) from exc
    payload = {
        "u": _numstr(u, args.precision),
        "status": gp.STATUS_OK,
        "step": _istr(args.n),
        "final_increment": _numstr(hist[-1], args.precision),
        "mode": mode,
        "digest": digest,
    }
    if args.json:
        return EXIT_OK, _emit_json(payload)
    return EXIT_OK, f"u {payload['u']}\nstatus OK\n"


def _parse_range(text: str):
    lo, hi = (float(p) for p in text.split(","))
    return lo, hi


def _run_green_grid(args):
    f = load_map(args.map)
    cert, rep, trace = _certificate_for(f, args.cert, args.cert_depth)
    slice_spec = gp.GridSlice(
        base=_parse_point(args.base, f.nvars),
        e1=_parse_point(args.e1, f.nvars),
        e2=_parse_point(args.e2, f.nvars),
        x_range=_parse_range(args.x_range),
        y_range=_parse_range(args.y_range),
    )
    try:
        grid = gp.grid_sample(
            f, cert, rep, slice_spec,
            resolution=args.resolution,
            n_iters=args.n,
            precision=args.precision,
            converge_tol=args.tol,
        )
    except gp.OrbitError as exc:
        raise _precision_limit(exc, args.precision) from exc
    counts = {}
    for row in grid.status:
        for s in row:
            counts[s] = counts.get(s, 0) + 1
    csv_path, pgm_path = args.csv, args.pgm
    if csv_path:
        gp.export_grid_csv(grid, csv_path)
    if pgm_path:
        gp.export_grid_pgm(grid, pgm_path)
    payload = {
        "resolution": _istr(grid.resolution),
        "counts": {k: _istr(v) for k, v in sorted(counts.items())},
        "depth": _istr(args.n),
        "precision": _istr(args.precision),
        "csv": str(csv_path) if csv_path else None,
        "pgm": str(pgm_path) if pgm_path else None,
        "digest": grid.meta["certificate"],
    }
    if args.json:
        return EXIT_OK, _emit_json(payload)
    lines = [f"resolution {payload['resolution']}"]
    lines += [f"{k} {v}" for k, v in sorted(counts.items())]
    for key in ("csv", "pgm"):
        if payload[key]:
            lines.append(f"wrote {key} {payload[key]}")
    return EXIT_OK, "\n".join(lines) + "\n"


def _residual_suite(f, cert, rep, seed, precision):
    """Deterministic functional-equation and telescope residual medians."""
    rng = random.Random(seed)

    def unit_point():
        while True:
            v = tuple(complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(f.nvars))
            nrm = math.sqrt(sum(abs(c) ** 2 for c in v))
            if nrm > 1e-6:
                return tuple(c / nrm for c in v)

    fe, ts = [], []
    attempts = 0
    while len(fe) < 9 and attempts < 60:
        attempts += 1
        z = unit_point()
        try:
            fe.append(gp.functional_eq_residual(f, cert, rep, z, n_iters=40,
                                                precision=precision))
            ts.append(gp.telescope_residual(f, cert, rep, z, 2, n_iters=48,
                                            precision=precision))
        except gp.OrbitError:
            continue
    if not fe:
        raise DegenerateLambda("no residual sample point escaped the singular loci")
    fe.sort()
    ts.sort()
    return fe[len(fe) // 2], ts[len(ts) // 2]


def _run_verify_all(args):
    f = load_map(args.map)
    trace = iterate_degrees(f, args.n)
    res = infer_qas(trace)
    digest = certificate_digest(trace, res.certificate.H if res.certificate else None)
    base = {
        "verdict": res.verdict,
        "degrees": [_istr(d) for d in trace.degrees],
        "digest": digest,
    }
    if res.verdict not in ("AS", "QAS"):
        payload = {**base, "lambda": None, "r": None, "checks": {}, "passed": False}
        out = _emit_json(payload) if args.json else f"verdict {res.verdict}\noverall FAIL\n"
        return EXIT_NEGATIVE, out

    if f.degree == 1:
        payload = {**base, "lambda": "1", "r": "1",
                   "checks": {"infer": res.verdict}, "passed": True}
        out = _emit_json(payload) if args.json else "verdict AS\nlambda 1\noverall PASS\n"
        return EXIT_OK, out

    cert = res.certificate
    if cert is None:
        spec = DegreeRecurrence(d=f.degree, h=0, n0=1)
    else:
        spec = DegreeRecurrence(d=cert.d, h=cert.h, n0=cert.n0)
    rep = char_poly_roots(spec, precision_bits=args.precision)
    long_degrees = extend_degrees(spec, 40)

    checks = {"infer": res.verdict}
    passed = True

    lift_ok = True
    if cert is not None:
        top = min(cert.verified_to, trace.depth)
        lift_ok = all(
            verify_lifting_recurrence(f, cert, trace, m)
            for m in range(cert.n0 + 1, top + 1)
        )
    checks["lifting_recurrence"] = PASS if lift_ok else FAIL
    passed &= lift_ok

    asym = check_asymptotics(long_degrees, rep)
    # early indices legitimately carry the subdominant transient, so the
    # pass decision looks at a tail residual away from the fit anchor
    tail = asym.residuals[-6]
    checks["asymptotics_max_residual"] = _numstr(asym.max_residual, args.precision)
    checks["asymptotics_tail_residual"] = _numstr(tail, args.precision)
    asym_ok = float(tail) < 1e-6
    checks["asymptotics"] = PASS if asym_ok else FAIL
    passed &= asym_ok

    c1, c2 = check_growth_bounds(long_degrees, rep.lambda_)
    checks["growth_c1"] = _numstr(c1, args.precision)
    checks["growth_c2"] = _numstr(c2, args.precision)

    sn = check_sn_identity(spec, rep.lambda_, long_degrees, 40)
    checks["sn_identity_max"] = _numstr(sn, args.precision)
    sn_ok = float(sn) < 1e-12
    checks["sn_identity"] = PASS if sn_ok else FAIL
    passed &= sn_ok

    fe_med, ts_med = _residual_suite(f, cert, rep, args.seed, 53)
    checks["residual_median"] = repr(float(fe_med))
    checks["telescope_median"] = repr(float(ts_med))
    resid_ok = float(fe_med) < 1e-8 and float(ts_med) < 1e-6
    checks["residuals"] = PASS if resid_ok else FAIL
    passed &= resid_ok

    payload = {
        **base,
        "lambda": _numstr(rep.lambda_, args.precision),
        "r": _istr(rep.r),
        "checks": checks,
        "passed": bool(passed),
    }
    code = EXIT_OK if passed else EXIT_NEGATIVE
    if args.json:
        return code, _emit_json(payload)
    lines = [f"verdict {res.verdict}", f"lambda {payload['lambda']}", f"r {payload['r']}"]
    for key in ("lifting_recurrence", "asymptotics", "sn_identity", "residuals"):
        lines.append(f"{key} {checks[key]}")
    lines.append(f"overall {'PASS' if passed else 'FAIL'}")
    return code, "\n".join(lines) + "\n"


# -- argument parsing -----------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="projdyn",
        description="Degree sequences, stability certificates, spectral data, "
                    "and Green-potential sampling for plane rational maps.",
    )
    sub = top.add_subparsers(dest="subcommand", required=True)

    def add(name, run, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.add_argument("--json", action="store_true", help="machine-readable output")
        p.set_defaults(run=run)
        return p

    p = add("degrees", _run_degrees, help="exact algebraic degree sequence of a map")
    p.add_argument("--map", required=True)
    p.add_argument("--n", type=int, default=4)

    p = add("infer-qas", _run_infer_qas, help="stability verdict and divisor certificate")
    p.add_argument("--map", required=True)
    p.add_argument("--n", type=int, default=3)

    p = add("lambda", _run_lambda, help="dominant root of a degree recurrence")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--h", type=int, required=True)
    p.add_argument("--n0", type=int, required=True)
    p.add_argument("--precision", type=int, default=128)

    p = add("family-gen", _run_family_gen, help="generate a calibrated family instance")
    p.add_argument("--deg-p", type=int, default=1)
    p.add_argument("--deg-q", type=int, default=2)
    p.add_argument("--coeff-bound", type=int, default=3)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)

    p = add("family-check", _run_family_check, help="preflight checks for a family file")
    p.add_argument("--family", required=True)

    p = add("green-point", _run_green_point, help="potential value at one point")
    p.add_argument("--map", required=True)
    p.add_argument("--point", required=True,
                   help="comma-separated complex coordinates, e.g. '1+2j,0.5,3'")
    p.add_argument("--cert", choices=("auto", "none"), default="auto")
    p.add_argument("--cert-depth", type=int, default=3)
    p.add_argument("--n", type=int, default=40)
    p.add_argument("--precision", type=int, default=53)
    p.add_argument("--tol", type=float, default=None)

    p = add("green-grid", _run_green_grid, help="potential over a 2-plane slice, CSV/PGM export")
    p.add_argument("--map", required=True)
    p.add_argument("--base", required=True)
    p.add_argument("--e1", required=True)
    p.add_argument("--e2", required=True)
    p.add_argument("--x-range", default="-1,1")
    p.add_argument("--y-range", default="-1,1")
    p.add_argument("--resolution", type=int, required=True)
    p.add_argument("--cert", choices=("auto", "none"), default="auto")
    p.add_argument("--cert-depth", type=int, default=3)
    p.add_argument("--n", type=int, default=32)
    p.add_argument("--precision", type=int, default=53)
    p.add_argument("--tol", type=float, default=1e-6)
    p.add_argument("--csv", default=None)
    p.add_argument("--pgm", default=None)

    p = add("verify-all", _run_verify_all,
            help="chained certification, spectral, and residual suite")
    p.add_argument("--map", required=True)
    p.add_argument("--n", type=int, default=4)
    p.add_argument("--precision", type=int, default=128)
    p.add_argument("--seed", type=int, default=0)

    return top


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        code, text = args.run(args)
    except (ParseError, InsufficientData) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (GenerationExhausted, ResourceLimit, PrecisionExhausted) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except DegenerateLambda as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NEGATIVE
    except (OSError, FamilyError, MapError, PolyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except gp.OrbitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NEGATIVE
    except Exception as exc:  # noqa: BLE001 - anything else is an internal fault
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
