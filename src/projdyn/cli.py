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
precision, or a map coefficient beyond the float range at 53 bits and
below); 4 internal invariant violation.
"""

import argparse
import functools
import json
import math
import random
import sys
from typing import Optional

# Each runner imports the layers it uses, so a command loads only those.

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_INPUT = 2
EXIT_RESOURCE = 3
EXIT_INTERNAL = 4


class _ResidualOrbitLimit(Exception):
    """A residual orbit failed other than at a singular locus; it runs at 53 bits whatever --precision is."""


# -- formatting helpers --------------------------------------------------------


def _istr(v) -> str:
    return str(int(v))


def _numstr(x, precision_bits: int = 53) -> str:
    """Decimal rendering with enough digits for the working precision.

    Values print as they are, never recast at the ambient precision: an
    mpf as it is, a Fraction n/2^k of greenpot (n of precision_bits bits
    at most) exactly.  A float is its repr; only other values load mpmath.
    """
    if isinstance(x, float):
        return repr(x)
    from mpmath import mp, workprec
    dps = max(17, int(precision_bits * 0.3010299957) - 2)
    with workprec(precision_bits + 8):
        if not isinstance(x, mp.mpf):
            x = mp.mpf(x.numerator) / x.denominator
        return mp.nstr(x, dps, strip_zeros=True)


def _emit_json(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _poly_str(p, names) -> Optional[str]:
    from .polycore import poly_to_text
    return None if p is None else poly_to_text(p, names)


def _pass(ok) -> str:
    """family2's PASS or FAIL, spelled here so that verify-all need not load family2."""
    return "PASS" if ok else "FAIL"


# -- subcommand runners ---------------------------------------------------------


def _run_degrees(args):
    from .mapiter import certificate_digest, iterate_degrees, load_map
    trace = iterate_degrees(load_map(args.map), args.n)
    degs = [_istr(d) for d in trace.degrees]
    payload = {"degrees": degs, "digest": certificate_digest(trace, None)}
    return EXIT_OK, payload, " ".join(degs) + "\n"


def _run_infer_qas(args):
    from .mapiter import certificate_digest, infer_qas, iterate_degrees, load_map
    f = load_map(args.map)
    trace = iterate_degrees(f, args.n)
    res = infer_qas(trace)
    cert = res.certificate
    payload = {
        "verdict": res.verdict,
        "n0": _istr(res.n0) if res.n0 is not None else None,
        "H": _poly_str(res.H, f.names),
        "h": _istr(cert.h) if cert else ("0" if res.verdict == "AS" else None),
        "d": _istr(f.degree),
        "degrees": [_istr(d) for d in trace.degrees],
        "verified_to": _istr(cert.verified_to) if cert else
                       (_istr(trace.depth) if res.verdict == "AS" else None),
        "witness": _istr(res.witness) if res.witness is not None else None,
        "digest": certificate_digest(trace, res.H),
    }
    code = EXIT_OK if res.verdict in ("AS", "QAS") else EXIT_NEGATIVE
    lines = [f"verdict {res.verdict}"]
    for key in ("n0", "h", "d", "H", "verified_to", "witness"):
        if payload[key] is not None:
            lines.append(f"{key} {payload[key]}")
    lines.append("degrees " + " ".join(payload["degrees"]))
    return code, payload, "\n".join(lines) + "\n"


def _run_lambda(args):
    from .specdeg import DegreeRecurrence, char_poly_roots
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
    text = (
        f"lambda {payload['lambda']}\n"
        f"r {payload['r']}\n"
        f"rho {payload['rho']}\n"
        f"charpoly {' '.join(payload['charpoly'])}\n"
    )
    return EXIT_OK, payload, text


def _run_family_gen(args):
    from .family2 import random_family, save_family
    from .polycore import poly_to_text
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
    lines = [f"wrote {out}"]
    lines += [f"{k} {payload[k]}" for k in ("P", "Q1", "Q2", "Q3", "R", "d", "h", "n0")]
    return EXIT_OK, payload, "\n".join(lines) + "\n"


def _run_family_check(args):
    from .family2 import PASS, load_family, run_preflight
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
    text = (
        f"coprimality {rep.coprimality}\n"
        f"intersection {inter.verdict}\n"
        f"rank {rank.rank} {rank.verdict}\n"
        f"pencil {pencil.verdict} {pencil.method}\n"
        f"overall {rep.overall}\n"
    )
    return code, payload, text


def _certificate_for(f, depth: int):
    """(cert, trace, verdict) by infer_qas at depth (ValueError below 2).

    QAS gives its certificate; AS, which proves degrees d^n up to the
    depth, gives plain mode (cert None).  Any other verdict leaves no
    divisor to certify, and the runner refuses by _uncertified.  The
    orbit runner raises DegenerateLambda for a recurrence with no root
    above 1.
    """
    from .mapiter import infer_qas, iterate_degrees
    trace = iterate_degrees(f, depth)
    res = infer_qas(trace)
    return res.certificate, trace, res.verdict


def _uncertified(verdict, trace, depth, fields):
    """Exit 1 with the verdict, the trace's digest and the value fields null."""
    from .mapiter import certificate_digest
    print(f"error: cannot certify a divisor at depth {depth}: verdict {verdict}", file=sys.stderr)
    payload = {**dict.fromkeys(fields), "verdict": verdict,
               "digest": certificate_digest(trace, None)}
    return EXIT_NEGATIVE, payload, f"verdict {verdict}\n"


def _parse_point(text: str, nvars: int):
    """The coordinate literals of text, each checked by complex().

    green_eval reads a literal exactly above 53 bits; the 53-bit orbit
    and grid_sample take complex() of it.
    """
    parts = tuple(p.strip() for p in text.split(","))
    if len(parts) != nvars:
        raise ValueError(f"point needs {nvars} comma-separated coordinates")
    for p in parts:
        complex(p)
    return parts


def _run_green_point(args):
    from . import greenpot as gp
    from .mapiter import certificate_digest, load_map
    f = load_map(args.map)
    cert, trace, verdict = _certificate_for(f, args.cert_depth)
    if verdict not in ("AS", "QAS"):
        return _uncertified(verdict, trace, args.cert_depth, ("u", "status", "step", "mode"))
    z = _parse_point(args.point, f.nvars)
    digest = certificate_digest(trace, cert.H if cert else None)
    mode = "QAS" if cert else "plain"
    try:
        u, hist = gp.green_eval(
            f, cert, None, z,
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
        return EXIT_NEGATIVE, payload, f"status {payload['status']} step {payload['step']}\n"
    payload = {
        "u": _numstr(u, args.precision),
        "status": gp.STATUS_OK,
        "step": _istr(args.n),
        "final_increment": _numstr(hist[-1], args.precision),
        "mode": mode,
        "digest": digest,
    }
    return EXIT_OK, payload, f"u {payload['u']}\nstatus OK\n"


def _parse_range(text: str):
    parts = text.split(",")
    if len(parts) != 2:
        raise ValueError(f"a range is two comma-separated numbers, not {text!r}")
    return float(parts[0]), float(parts[1])


def _run_green_grid(args):
    from . import greenpot as gp
    from .mapiter import load_map
    f = load_map(args.map)
    cert, trace, verdict = _certificate_for(f, args.cert_depth)
    if verdict not in ("AS", "QAS"):
        fields = ("resolution", "counts", "depth", "precision", "csv", "pgm")
        return _uncertified(verdict, trace, args.cert_depth, fields)
    slice_spec = gp.GridSlice(
        base=_parse_point(args.base, f.nvars),
        e1=_parse_point(args.e1, f.nvars),
        e2=_parse_point(args.e2, f.nvars),
        x_range=_parse_range(args.x_range),
        y_range=_parse_range(args.y_range),
    )
    grid = gp.grid_sample(
        f, cert, None, slice_spec,
        resolution=args.resolution,
        n_iters=args.n,
        precision=args.precision,
        converge_tol=args.tol,
    )
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
    lines = [f"resolution {payload['resolution']}"]
    lines += [f"{k} {v}" for k, v in sorted(counts.items())]
    for key in ("csv", "pgm"):
        if payload[key]:
            lines.append(f"wrote {key} {payload[key]}")
    return EXIT_OK, payload, "\n".join(lines) + "\n"


def _residual_suite(f, cert, rep, seed):
    """Deterministic functional-equation and telescope residual medians.

    Every residual orbit runs at 53 bits, whatever --precision is.  A
    sample point whose orbit meets the indeterminacy locus or the
    divisor is skipped; any other OrbitError (a lost normalization or
    height) raises _ResidualOrbitLimit, exit 3.
    """
    from . import greenpot as gp
    from .specdeg import DegenerateLambda
    bits = 53
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
            fe.append(gp.functional_eq_residual(f, cert, rep, z, n_iters=40, precision=bits))
            ts.append(gp.telescope_residual(f, cert, rep, z, 2, n_iters=48, precision=bits))
        except (gp.OrbitHitIndeterminacy, gp.OrbitHitDivisor):
            continue
        except gp.OrbitError as exc:
            raise _ResidualOrbitLimit(
                f"{exc} at {bits} bits in a residual orbit; the residual orbits run at "
                f"{bits} bits whatever --precision is") from exc
    if not fe:
        raise DegenerateLambda("no residual sample point escaped the singular loci")
    fe.sort()
    ts.sort()
    return fe[len(fe) // 2], ts[len(ts) // 2]


def _run_verify_all(args):
    from .mapiter import (certificate_digest, infer_qas, iterate_degrees, load_map,
                          verify_lifting_recurrence)
    from .specdeg import (DegreeRecurrence, char_poly_roots, check_asymptotics, check_growth_bounds,
                          check_sn_identity, extend_degrees)
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
        return EXIT_NEGATIVE, payload, f"verdict {res.verdict}\noverall FAIL\n"

    if f.degree == 1:
        payload = {**base, "lambda": "1", "r": "1",
                   "checks": {"infer": res.verdict}, "passed": True}
        return EXIT_OK, payload, "verdict AS\nlambda 1\noverall PASS\n"

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
    checks["lifting_recurrence"] = _pass(lift_ok)
    passed &= lift_ok

    asym = check_asymptotics(long_degrees, rep)
    # early indices legitimately carry the subdominant transient, so the
    # pass decision looks at a tail residual away from the fit anchor
    tail = asym.residuals[-6]
    checks["asymptotics_max_residual"] = _numstr(asym.max_residual, args.precision)
    checks["asymptotics_tail_residual"] = _numstr(tail, args.precision)
    asym_ok = float(tail) < 1e-6
    checks["asymptotics"] = _pass(asym_ok)
    passed &= asym_ok

    c1, c2 = check_growth_bounds(long_degrees, rep.lambda_)
    checks["growth_c1"] = _numstr(c1, args.precision)
    checks["growth_c2"] = _numstr(c2, args.precision)

    sn = check_sn_identity(spec, rep.lambda_, long_degrees, 40)
    checks["sn_identity_max"] = _numstr(sn, args.precision)
    sn_ok = float(sn) < 1e-12
    checks["sn_identity"] = _pass(sn_ok)
    passed &= sn_ok

    fe_med, ts_med = _residual_suite(f, cert, rep, args.seed)
    checks["residual_median"] = repr(float(fe_med))
    checks["telescope_median"] = repr(float(ts_med))
    resid_ok = float(fe_med) < 1e-8 and float(ts_med) < 1e-6
    checks["residuals"] = _pass(resid_ok)
    passed &= resid_ok

    payload = {
        **base,
        "lambda": _numstr(rep.lambda_, args.precision),
        "r": _istr(rep.r),
        "checks": checks,
        "passed": bool(passed),
    }
    code = EXIT_OK if passed else EXIT_NEGATIVE
    lines = [f"verdict {res.verdict}", f"lambda {payload['lambda']}", f"r {payload['r']}"]
    for key in ("lifting_recurrence", "asymptotics", "sn_identity", "residuals"):
        lines.append(f"{key} {checks[key]}")
    lines.append(f"overall {_pass(passed)}")
    return code, payload, "\n".join(lines) + "\n"


# -- argument parsing -----------------------------------------------------------


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built at the first `main` call; it names each runner, which `main` looks up."""
    top = argparse.ArgumentParser(
        prog="projdyn",
        # a prefix of an option is no option: "--cert 4" would set --cert-depth
        allow_abbrev=False,
        description="Degree sequences, stability certificates, spectral data, "
                    "and Green-potential sampling for plane rational maps.",
    )
    sub = top.add_subparsers(dest="subcommand", required=True)

    def add(name, run, **kwargs):
        p = sub.add_parser(name, allow_abbrev=False, **kwargs)
        p.add_argument("--json", action="store_true", help="machine-readable output")
        p.set_defaults(run=run)
        return p

    p = add("degrees", "_run_degrees", help="exact algebraic degree sequence of a map")
    p.add_argument("--map", required=True)
    p.add_argument("--n", type=int, default=4)

    p = add("infer-qas", "_run_infer_qas", help="stability verdict and divisor certificate")
    p.add_argument("--map", required=True)
    p.add_argument("--n", type=int, default=3)

    p = add("lambda", "_run_lambda", help="dominant root of a degree recurrence")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--h", type=int, required=True)
    p.add_argument("--n0", type=int, required=True)
    p.add_argument("--precision", type=int, default=128)

    p = add("family-gen", "_run_family_gen", help="generate a calibrated family instance")
    p.add_argument("--deg-p", type=int, default=1)
    p.add_argument("--deg-q", type=int, default=2)
    p.add_argument("--coeff-bound", type=int, default=3)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)

    p = add("family-check", "_run_family_check", help="preflight checks for a family file")
    p.add_argument("--family", required=True)

    p = add("green-point", "_run_green_point", help="potential value at one point")
    p.add_argument("--map", required=True)
    p.add_argument("--point", required=True,
                   help="comma-separated complex coordinates, e.g. '1+2j,0.5,3'")
    p.add_argument("--cert-depth", type=int, default=3,
                   help="iterates certified before sampling, at least 2")
    p.add_argument("--n", type=int, default=40)
    p.add_argument("--precision", type=int, default=53)
    p.add_argument("--tol", type=float, default=None)

    p = add("green-grid", "_run_green_grid", help="potential over a 2-plane slice, CSV/PGM export")
    p.add_argument("--map", required=True)
    p.add_argument("--base", required=True)
    p.add_argument("--e1", required=True)
    p.add_argument("--e2", required=True)
    p.add_argument("--x-range", default="-1,1")
    p.add_argument("--y-range", default="-1,1")
    p.add_argument("--resolution", type=int, required=True)
    p.add_argument("--cert-depth", type=int, default=3,
                   help="iterates certified before sampling, at least 2")
    p.add_argument("--n", type=int, default=32)
    p.add_argument("--precision", type=int, default=53)
    p.add_argument("--tol", type=float, default=1e-6)
    p.add_argument("--csv", default=None)
    p.add_argument("--pgm", default=None)

    p = add("verify-all", "_run_verify_all",
            help="chained certification, spectral, and residual suite")
    p.add_argument("--map", required=True)
    p.add_argument("--n", type=int, default=4)
    p.add_argument("--precision", type=int, default=128)
    p.add_argument("--seed", type=int, default=0)

    return top


def _raised(*names):
    """The exception classes named "layer.Class" whose layer is loaded.

    A layer that the runner did not load raised none of its classes, so
    main sorts an exception without loading a layer.
    """
    found = []
    for name in names:
        layer, cls = name.split(".")
        mod = sys.modules.get(f"{__package__}.{layer}")
        if mod:
            found.append(getattr(mod, cls))
    return tuple(found)


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    # argparse reads a value that starts with '-', such as --point -1,2,3,
    # as an option; a vector or range option takes the next word as its value
    for i in range(len(argv) - 2, -1, -1):
        if argv[i] in ("--point", "--base", "--e1", "--e2", "--x-range", "--y-range"):
            argv[i : i + 2] = [f"{argv[i]}={argv[i + 1]}"]
    args = _build_parser().parse_args(argv)
    # an except clause's classes are looked up only when an exception reaches it
    try:
        code, payload, text = globals()[args.run](args)
    except _raised("polycore.ParseError", "specdeg.InsufficientData") as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (_ResidualOrbitLimit, *_raised("family2.GenerationExhausted", "polycore.ResourceLimit",
                                          "specdeg.PrecisionExhausted")) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except _raised("specdeg.DegenerateLambda") as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NEGATIVE
    except (OSError, ValueError, *_raised("family2.FamilyError", "mapiter.MapError",
                                          "polycore.PolyError")) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except _raised("greenpot.OrbitError") as exc:
        # a lost normalization or a non-finite height: the orbit outgrew its precision
        print(f"error: {exc} at {args.precision} bits; rerun with a higher --precision",
              file=sys.stderr)
        return EXIT_RESOURCE
    except Exception as exc:  # noqa: BLE001 - anything else is an internal fault
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    sys.stdout.write(_emit_json(payload) if args.json else text)
    return code


if __name__ == "__main__":
    sys.exit(main())
