"""End-to-end command-line checks: outputs, exit codes, schemas, determinism.

Runs the entry point in process and validates every JSON payload
against the schemas shipped under docs/schemas/.
"""

import hashlib
import json
import subprocess
import sys
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import pytest
from jsonschema import ValidationError, validate

import projdyn
from projdyn import cli
from projdyn.cli import main
from projdyn.family2 import build_family_map, load_family, run_preflight, save_family
from projdyn.greenpot import OrbitError, functional_eq_residual, green_eval, telescope_residual
from projdyn.mapiter import load_map, make_map, save_map
from projdyn.polycore import parse_poly

NAMES = ("z", "w", "t")
SCHEMA_DIR = Path(__file__).resolve().parent.parent / "docs" / "schemas"


# the preflight catalogue of tests/test_family2.py and of the benchmark
PREFLIGHT_CATALOGUE = [
    (dp, dq, s) for dp, dq in ((1, 2), (1, 3), (2, 2), (2, 3), (3, 2), (3, 3)) for s in range(5)
] + [(1, 2, 5), (1, 2, 6), (1, 2, 7)]
# sha256 of the concatenated stdout of family-gen --json and family-check
# --json over the catalogue: it pins the rational points and the failure
# counts, which the verdict checks elsewhere do not see
CATALOGUE_SHA256 = "adbf49b4d2316e1f603db3375a83cc341eb9bfd0700942e063d3c3d880012904"


# stderr of a certificate whose degree recurrence has no root above 1
NO_GROWTH = "no real root above 1; the recurrence has no exponential rate\n"


def pp(s):
    return parse_poly(s, NAMES)


def schema(name):
    return json.loads((SCHEMA_DIR / f"{name}.schema.json").read_text())


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    stable = build_family_map(
        pp("z"), pp("w^2 + z*t"), pp("t^2 + z*w"), pp("2*w*t"), pp("2*w^2*t")
    )
    drops = build_family_map(pp("z"), pp("w^2"), pp("t^2"), pp("z*w"), pp("w^2*t"))
    paths = {
        "stable_map": root / "stable.map",
        "drops_map": root / "drops.map",
        "id_map": root / "id.map",
        "mono_map": root / "mono.map",
        "huge_coeff_map": root / "huge_coeff.map",
        "beyond_float_map": root / "beyond_float.map",
        "lost_norm_map": root / "lost_norm.map",
        "linear_map": root / "linear.map",
        "no_growth_map": root / "no_growth.map",
        "stable_fam": root / "stable.fam",
        "root": root,
    }
    save_map(stable.map, paths["stable_map"])
    save_map(drops.map, paths["drops_map"])
    save_map(make_map([pp("z"), pp("w"), pp("t")]), paths["id_map"])
    save_map(make_map([pp("z^2"), pp("w^2"), pp("t^2")]), paths["mono_map"])
    save_map(make_map([pp("w"), pp("t"), pp("z + w")]), paths["linear_map"])
    # QAS with degrees 1, 2, 3, ...: d = 2, h = 1, n0 = 1, so P = (t - 1)^2
    save_map(make_map([pp("t^2"), pp("-z*w - z*t"), pp("-z*w")]), paths["no_growth_map"])
    # F(1, 0.5, 0.3) has a norm near 1e200, whose square overflows a float
    save_map(make_map([pp("z^2") * 10**200, pp("w^2"), pp("t^2")]), paths["huge_coeff_map"])
    # a coefficient above 2^1024 has no float, so the 53-bit runner refuses the map
    save_map(make_map([pp("z^2") * 10**400, pp("w^2"), pp("t^2")]), paths["beyond_float_map"])
    # AS; at 53 bits the squares of |F(w)| overflow at most points of the unit sphere
    save_map(make_map([pp(f"{10**160}*z^2 + w*t"), pp("w^2"), pp("t^2 + z*w")]), paths["lost_norm_map"])
    save_family(stable, paths["stable_fam"])
    return paths


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestDegrees:
    def test_plain_sequence(self, files, capsys):
        code, out, _ = run(capsys, "degrees", "--map", files["stable_map"], "--n", 4)
        assert code == 0
        assert out == "1 3 8 21 55\n"

    def test_json_schema_and_strings(self, files, capsys):
        code, out, _ = run(
            capsys, "degrees", "--map", files["stable_map"], "--n", 4, "--json"
        )
        assert code == 0
        payload = json.loads(out)
        validate(payload, schema("degrees"))
        assert payload["degrees"] == ["1", "3", "8", "21", "55"]


class TestInferQas:
    def test_identity_is_stable(self, files, capsys):
        code, out, _ = run(capsys, "infer-qas", "--map", files["id_map"], "--n", 3)
        assert code == 0
        assert out.splitlines()[0] == "verdict AS"

    def test_certificate_json(self, files, capsys):
        code, out, _ = run(
            capsys, "infer-qas", "--map", files["stable_map"], "--n", 3, "--json"
        )
        assert code == 0
        payload = json.loads(out)
        validate(payload, schema("infer-qas"))
        assert payload["verdict"] == "QAS"
        assert payload["n0"] == "1" and payload["h"] == "1" and payload["d"] == "3"
        assert payload["H"] == "z"
        assert payload["degrees"] == ["1", "3", "8", "21"]

    def test_divisor_drift_detected(self, files, capsys):
        code, out, _ = run(
            capsys, "infer-qas", "--map", files["drops_map"], "--n", 3, "--json"
        )
        assert code == 1
        payload = json.loads(out)
        validate(payload, schema("infer-qas"))
        assert payload["verdict"] == "NotQAS"
        assert payload["witness"] == "3"

    @pytest.mark.parametrize("name, depth, degrees, digest", [
        ("n0_2_qas.map", 4, [1, 3, 9, 26, 75],
         "9698a9e1398d201b3f73899c17e3b6ebb4af33c193c0fe8dc65121370fe33e78"),
        ("n0_3_qas.map", 5, [1, 3, 9, 27, 80, 237],
         "4c3e44d50d1925e1173c89bc80a75c03ded87f4f1d369b929720974c0a60864a"),
    ])
    def test_twisted_fixtures_are_qas_with_their_lag(self, capsys, name, depth, degrees, digest):
        # the stable cubic twisted so that its contracted curve meets I(f)
        # n0 - 1 steps later; each is QAS with H = z from depth n0 + 2
        path = Path(__file__).parent / "fixtures" / name
        code, out, _ = run(capsys, "infer-qas", "--map", path, "--n", depth, "--json")
        payload = json.loads(out)
        validate(payload, schema("infer-qas"))
        assert code == 0
        assert payload == {
            "H": "z", "d": "3", "degrees": [str(d) for d in degrees], "digest": digest, "h": "1",
            "n0": str(depth - 2), "verdict": "QAS", "verified_to": str(depth), "witness": None,
        }


class TestLambda:
    def test_golden_recurrence(self, files, capsys):
        code, out, _ = run(
            capsys, "lambda", "--d", 3, "--h", 1, "--n0", 1,
            "--precision", 256, "--json",
        )
        assert code == 0
        payload = json.loads(out)
        validate(payload, schema("lambda"))
        assert payload["lambda"].startswith("2.618033988749894848204586834")
        assert payload["r"] == "1"
        assert payload["charpoly"] == ["1", "-3", "1"]

    def test_q_fit_near_tangency(self, capsys):
        # (lambda - t*)/lambda = 2.6e-16: Q_fit = lambda/((n0+1)(lambda - t*)) from the gap
        # itself, where an exact bisection gives 222961405279578.4825654689
        code, out, _ = run(capsys, "lambda", "--d", 68, "--h", 2**98 - 3, "--n0", 16,
                           "--precision", 64, "--json")
        assert code == 0 and json.loads(out)["Q_fit"] == ["222961405279578.48"]

    def test_no_dominant_root_is_negative(self, files, capsys):
        code, out, err = run(capsys, "lambda", "--d", 2, "--h", 5, "--n0", 1)
        assert code == 1
        assert out == "" and "error" in err


class TestFamilyCommands:
    def test_gen_writes_loadable_file(self, files, capsys):
        out_path = files["root"] / "gen.fam"
        code, out, _ = run(
            capsys, "family-gen", "--seed", 5, "--out", out_path, "--json"
        )
        assert code == 0
        payload = json.loads(out)
        validate(payload, schema("family-gen"))
        inst = load_family(out_path)
        assert inst.recurrence.d == int(payload["d"])

    def test_gen_deterministic(self, files, capsys):
        a_path = files["root"] / "a.fam"
        b_path = files["root"] / "b.fam"
        _, out_a, _ = run(capsys, "family-gen", "--seed", 9, "--out", a_path)
        _, out_b, _ = run(capsys, "family-gen", "--seed", 9, "--out", b_path)
        assert a_path.read_text() == b_path.read_text()
        assert out_a.splitlines()[1:] == out_b.splitlines()[1:]

    def test_check_passes_clean_instance(self, files, capsys):
        code, out, _ = run(
            capsys, "family-check", "--family", files["stable_fam"], "--json"
        )
        assert code == 0
        payload = json.loads(out)
        validate(payload, schema("family-check"))
        assert payload["overall"] == "PASS"
        assert payload["pencil"]["method"] == "kernel"

    def test_check_flags_degenerate_pencil(self, files, capsys):
        drops = build_family_map(pp("z"), pp("w^2"), pp("t^2"), pp("z*w"), pp("w^2*t"))
        fam = files["root"] / "drops.fam"
        save_family(drops, fam)
        code, out, _ = run(capsys, "family-check", "--family", fam, "--json")
        assert code == 1
        payload = json.loads(out)
        validate(payload, schema("family-check"))
        assert payload["overall"] == "FAIL"
        assert payload["pencil"]["witness"] == ["0", "0", "1"]

    @pytest.mark.parametrize("name, forms", [
        ("stable", ("z", "w^2 + z*t", "t^2 + z*w", "2*w*t", "2*w^2*t")),
        ("reference", ("z", "w^2", "t^2", "z*w", "w^2*t")),
        ("line_fail", ("z^2 - 2*w^2", "z*w + z^2 - 2*w^2 + w*t", "z*w + z^2 - 2*w^2 + t^2",
                       "z*w", "z^2*w^2 - 2*w^4 + z^3*t - z^2*w*t")),
    ])
    def test_check_overall_agrees_with_run_preflight(self, files, capsys, name, forms):
        inst = build_family_map(*(pp(f) for f in forms))
        fam = files["root"] / f"{name}.fam"
        save_family(inst, fam)
        code, out, _ = run(capsys, "family-check", "--family", fam, "--json")
        rep = run_preflight(inst)
        payload = json.loads(out)
        assert payload["coprimality"] == rep.coprimality
        assert payload["intersection"]["verdict"] == rep.intersection.verdict
        assert len(payload["intersection"]["rational_points"]) == len(
            rep.intersection.rational_points
        )
        assert payload["rank"] == str(rep.rank.rank)
        assert payload["rank_verdict"] == rep.rank.verdict
        assert payload["pencil"]["verdict"] == rep.pencil.verdict
        assert payload["pencil"]["method"] == rep.pencil.method
        witness = rep.pencil.witness
        assert payload["pencil"]["witness"] == ([str(c) for c in witness] if witness else None)
        assert payload["overall"] == rep.overall
        assert code == (0 if rep.overall == "PASS" else 1)

    def test_catalogue_output_is_pinned(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)  # family-gen prints the --out path, kept relative
        digest = hashlib.sha256()
        for dp, dq, seed in PREFLIGHT_CATALOGUE:
            fam = f"fam-{dp}-{dq}-{seed}.txt"
            for argv in (
                ("family-gen", "--deg-p", dp, "--deg-q", dq, "--coeff-bound", 5,
                 "--seed", seed, "--out", fam, "--json"),
                ("family-check", "--family", fam, "--json"),
            ):
                _, out, _ = run(capsys, *argv)
                digest.update(out.encode())
        assert digest.hexdigest() == CATALOGUE_SHA256

    def test_check_has_no_sampler_options(self, files, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["family-check", "--family", str(files["stable_fam"]), "--samples", "5"])
        assert exc.value.code == 2


class TestGreenPoint:
    def test_value_at_point(self, files, capsys):
        code, out, _ = run(
            capsys, "green-point", "--map", files["stable_map"],
            "--point", "0.9+0.3j,-1.1+0.4j,0.5-0.7j", "--json",
        )
        assert code == 0
        payload = json.loads(out)
        validate(payload, schema("green-point"))
        assert payload["status"] == "OK" and payload["mode"] == "QAS"
        assert abs(float(payload["u"]) - 0.5579286113366814) < 1e-12

    def test_high_precision_values_agree(self, files, capsys):
        # every printed digit of the 128-bit value holds, up to the last few bits
        values = []
        for bits in (128, 256):
            code, out, _ = run(
                capsys, "green-point", "--map", files["stable_map"], "--n", 40,
                "--point", "0.9+0.3j,-1.1+0.4j,0.5-0.7j", "--precision", bits, "--json",
            )
            assert code == 0
            payload = json.loads(out)
            validate(payload, schema("green-point"))
            values.append(Fraction(payload["u"]))
        assert abs(values[0] - values[1]) < Fraction(1, 2**118)

    def test_point_is_read_exactly_above_53_bits(self, files, capsys):
        # 0.9 + 0.3i is no double: at 128 bits the literal is evaluated, and the
        # exact decimal expansion of its nearest doubles gives another value
        point = "0.9+0.3j,-1.1+0.4j,0.5-0.7j"
        doubles = ",".join(f"{Decimal(z.real)}{Decimal(z.imag):+}j" for z in map(complex, point.split(",")))
        values = []
        for text in (point, doubles):
            code, out, _ = run(capsys, "green-point", "--map", files["stable_map"], "--point", text,
                               "--precision", 128, "--n", 100)
            assert code == 0
            values.append(out)
        assert values == ["u 0.557928611336681221481140891035094793\nstatus OK\n",
                          "u 0.55792861133668125875556762870095807\nstatus OK\n"]
        # at 53 bits a literal is its nearest double
        assert run(capsys, "green-point", "--map", files["stable_map"], "--point", point)[1] == \
            run(capsys, "green-point", "--map", files["stable_map"], "--point", doubles)[1]

    def test_divisor_point_reports_status(self, files, capsys):
        code, out, _ = run(
            capsys, "green-point", "--map", files["stable_map"],
            "--point", "0,1,0.7", "--json",
        )
        assert code == 1
        payload = json.loads(out)
        validate(payload, schema("green-point"))
        assert payload["status"] == "HitDivisor" and payload["step"] == "2"
        assert payload["u"] is None

    def test_plain_mode(self, files, capsys):
        code, out, _ = run(
            capsys, "green-point", "--map", files["mono_map"],
            "--point", "2,1,1", "--json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["mode"] == "plain"
        assert abs(float(payload["u"]) - 0.6931471805599453) < 1e-9

    def test_wrong_arity_is_input_error(self, files, capsys):
        code, out, err = run(
            capsys, "green-point", "--map", files["stable_map"], "--point", "1,2"
        )
        assert code == 2 and "error" in err

    def test_huge_point_is_evaluated(self, files, capsys):
        code, out, _ = run(
            capsys, "green-point", "--map", files["stable_map"],
            "--point=1e300,1e300,1", "--json",
        )
        assert code == 0
        payload = json.loads(out)
        validate(payload, schema("green-point"))
        assert payload["status"] == "OK"

    def test_orbit_beyond_the_precision_is_a_resource_limit(self, files, capsys):
        args = ("green-point", "--map", files["huge_coeff_map"], "--point", "1,0.5,0.3", "--json")
        code, out, err = run(capsys, *args)
        assert code == 3 and out == "" and "higher --precision" in err
        code, out, _ = run(capsys, *args, "--precision", 64)
        assert code == 0
        payload = json.loads(out)
        validate(payload, schema("green-point"))
        assert payload["status"] == "OK"
        assert abs(float(payload["u"]) - 460.51701859839028) < 1e-9

    def test_coefficient_beyond_the_float_range_is_a_precision_limit(self, files, capsys):
        args = ("green-point", "--map", files["beyond_float_map"], "--point", "1,2,3")
        code, out, err = run(capsys, *args)
        assert (code, out) == (3, "")
        assert err == ("error: coefficient 1.000e+400 of the map is beyond the float range at 53 "
                       "bits; rerun with a higher --precision\n")
        code, out, _ = run(capsys, *args, "--precision", 128)
        assert (code, out) == (0, "u 921.03403719678059803021281794864824\nstatus OK\n")

    def test_nan_point_is_input_error(self, files, capsys):
        code, out, err = run(
            capsys, "green-point", "--map", files["stable_map"], "--point=nan,1,1"
        )
        assert code == 2 and out == "" and "finite" in err

    def test_degree_one_map_is_input_error(self, files, capsys):
        # lambda = 1: u would grow with --n instead of converging to a potential
        for n in (10, 40):
            code, out, err = run(capsys, "green-point", "--map", files["linear_map"],
                                 "--point", "1,2,3", "--n", n)
            assert (code, out) == (2, "") and "degree at least 2" in err
        # verify-all runs no Green code on a degree-1 map
        code, out, _ = run(capsys, "verify-all", "--map", files["linear_map"], "--n", 3)
        assert code == 0 and out.endswith("overall PASS\n")

    def test_recurrence_without_growth_is_negative(self, files, capsys):
        for precision in (53, 128):
            code, out, err = run(capsys, "green-point", "--map", files["no_growth_map"],
                                 "--point", "1,2,3", "--precision", precision)
            assert (code, out, err) == (1, "", "error: " + NO_GROWTH)
        # the point is parsed before the orbit runner checks the growth
        code, out, err = run(capsys, "green-point", "--map", files["no_growth_map"],
                             "--point", "1,2")
        assert (code, out) == (2, "") and "3 comma-separated" in err

    @pytest.mark.parametrize("name", ["no_growth_map", "stable_map"])
    def test_cert_depth_below_two_is_input_error(self, files, capsys, name):
        # the map is always certified, and infer_qas gives no verdict on one iterate
        code, out, err = run(capsys, "green-point", "--map", files[name], "--point", "1,2,3",
                             "--cert-depth", 1)
        assert (code, out) == (2, "") and "depth at least 2" in err
        with pytest.raises(SystemExit) as exc:
            main(["green-point", "--map", str(files[name]), "--point", "1,2,3", "--cert", "none"])
        assert exc.value.code == 2
        csv_path = files["root"] / f"shallow-{name}.csv"
        code, out, err = run(capsys, "green-grid", "--map", files[name], "--base", "1,0,0",
                             "--e1", "0,1,0", "--e2", "0,0,1", "--resolution", 2,
                             "--cert-depth", 1, "--csv", csv_path)
        assert (code, out) == (2, "") and "depth at least 2" in err
        assert not csv_path.exists()

    @pytest.mark.parametrize("option, value", [("--cert", "4"), ("--prec", "128")])
    def test_option_prefixes_are_unknown_options(self, files, capsys, option, value):
        # argparse would otherwise read a prefix as --cert-depth or --precision
        with pytest.raises(SystemExit) as exc:
            main(["green-point", "--map", str(files["stable_map"]), "--point", "1,2,3", option, value])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and f"unrecognized arguments: {option} {value}" in captured.err

    @pytest.mark.parametrize("tol", ["nan", "-1"])
    def test_nan_or_negative_tol_is_input_error(self, files, capsys, tol):
        args = ("green-point", "--map", files["mono_map"], "--point", "1.5,1,1", "--n", 2)
        assert run(capsys, *args, "--tol", "1e-6")[0] == 1
        code, out, err = run(capsys, *args, f"--tol={tol}")
        assert code == 2 and out == "" and "converge_tol" in err

    def test_point_that_starts_with_a_minus(self, files, capsys):
        # argparse alone reads "-1,2,3" as an option and exits 2 with "expected one argument"
        spaced = run(capsys, "green-point", "--map", files["stable_map"], "--point", "-1,2,3")
        joined = run(capsys, "green-point", "--map", files["stable_map"], "--point=-1,2,3")
        assert spaced == joined
        assert spaced[0] == 0 and "u 1.224508559749691\n" in spaced[1]


class TestGreenGrid:
    def test_grid_run_with_exports(self, files, capsys):
        csv_path = files["root"] / "g.csv"
        pgm_path = files["root"] / "g.pgm"
        code, out, _ = run(
            capsys, "green-grid", "--map", files["stable_map"],
            "--base", "0,1,0.5", "--e1", "1,0,0", "--e2", "0,0,1",
            "--resolution", 5, "--n", 30,
            "--csv", csv_path, "--pgm", pgm_path, "--json",
        )
        assert code == 0
        payload = json.loads(out)
        validate(payload, schema("green-grid"))
        assert payload["counts"] == {
            "HitDivisor": "4", "HitIndeterminacy": "2", "OK": "19",
        }
        csv_lines = csv_path.read_text().splitlines()
        assert csv_lines[0] == "x,y,u,status" and len(csv_lines) == 26
        assert pgm_path.read_text().splitlines()[0] == "P2"
        sidecar = json.loads(Path(str(pgm_path) + ".json").read_text())
        assert sidecar["depth"] == 30

    def test_reruns_byte_identical(self, files, capsys):
        args = (
            "green-grid", "--map", files["stable_map"],
            "--base", "1,0.3,0.5", "--e1", "0,1,0", "--e2", "0,0,1",
            "--resolution", 4, "--n", 25, "--json",
        )
        code_a, out_a, _ = run(capsys, *args)
        code_b, out_b, _ = run(capsys, *args)
        assert (code_a, out_a) == (code_b, out_b)

    def test_ranges_that_start_with_a_minus(self, files, capsys):
        # the default range -1,1 spelled out: argparse alone reads "-1,1" as an option
        csv_path = files["root"] / "ranges.csv"
        args = ("green-grid", "--map", files["stable_map"], "--base", "1,0.3,0.5",
                "--e1", "0,1,0", "--e2", "0,0,1", "--resolution", 4, "--n", 25, "--csv", csv_path)
        spaced = run(capsys, *args, "--x-range", "-1,1", "--y-range", "-0.5,0.25")
        spaced_csv = csv_path.read_bytes()
        joined = run(capsys, *args, "--x-range=-1,1", "--y-range=-0.5,0.25")
        assert spaced == joined and spaced[0] == 0
        assert csv_path.read_bytes() == spaced_csv
        rows = spaced_csv.decode().splitlines()[1:]
        assert sorted({float(r.split(",")[1]) for r in rows}) == [-0.5, -0.25, 0.0, 0.25]

    def test_pgm_payload_identical(self, files, capsys):
        p1 = files["root"] / "r1.pgm"
        p2 = files["root"] / "r2.pgm"
        for p in (p1, p2):
            run(
                capsys, "green-grid", "--map", files["stable_map"],
                "--base", "1,0.3,0.5", "--e1", "0,1,0", "--e2", "0,0,1",
                "--resolution", 4, "--n", 25, "--pgm", p,
            )
        assert p1.read_bytes() == p2.read_bytes()

    def test_huge_base_keeps_the_grid(self, files, capsys):
        code, out, _ = run(
            capsys, "green-grid", "--map", files["stable_map"],
            "--base=1e300,0,1", "--e1=1,0,0", "--e2=0,1,0", "--resolution", 3, "--json",
        )
        assert code == 0
        payload = json.loads(out)
        validate(payload, schema("green-grid"))
        assert sum(int(v) for v in payload["counts"].values()) == 9

    def test_vectors_that_start_with_a_minus(self, files, capsys):
        vectors = {"--base": "-0.5,0,1", "--e1": "-1,0,0", "--e2": "0,-1,0"}
        tail = ("--resolution", 5, "--json")
        spaced = run(capsys, "green-grid", "--map", files["stable_map"],
                     *(w for pair in vectors.items() for w in pair), *tail)
        joined = run(capsys, "green-grid", "--map", files["stable_map"],
                     *(f"{k}={v}" for k, v in vectors.items()), *tail)
        assert spaced == joined and spaced[0] == 0
        assert json.loads(spaced[1])["counts"] == {"HitDivisor": "4", "HitIndeterminacy": "1", "OK": "20"}

    def test_orbit_beyond_the_precision_is_a_resource_limit(self, files, capsys):
        code, out, err = run(
            capsys, "green-grid", "--map", files["huge_coeff_map"],
            "--base", "1,0.5,0.3", "--e1", "1,0,0", "--e2", "0,1,0", "--resolution", 3,
        )
        assert code == 3 and out == "" and "higher --precision" in err

    def test_coefficient_beyond_the_float_range_is_a_precision_limit(self, files, capsys):
        args = ("green-grid", "--map", files["beyond_float_map"], "--base", "1,2,3",
                "--e1", "1,0,0", "--e2", "0,1,0", "--resolution", 2)
        code, out, err = run(capsys, *args)
        assert (code, out) == (3, "")
        assert err == ("error: coefficient 1.000e+400 of the map is beyond the float range at 53 "
                       "bits; rerun with a higher --precision\n")
        assert run(capsys, *args, "--precision", 128) == (0, "resolution 2\nOK 4\n", "")

    @pytest.mark.parametrize("tol", ["nan", "-1"])
    def test_nan_or_negative_tol_is_input_error(self, files, capsys, tol):
        args = ("green-grid", "--map", files["mono_map"], "--base", "1.5,1,1",
                "--e1", "1,0,0", "--e2", "0,1,0", "--resolution", 3, "--n", 2, "--json")
        code, out, _ = run(capsys, *args, "--tol", "1e-6")
        assert code == 0 and json.loads(out)["counts"] == {"NotConverged": "9"}
        code, out, err = run(capsys, *args, f"--tol={tol}")
        assert code == 2 and out == "" and "converge_tol" in err

    def test_recurrence_without_growth_is_negative(self, files, capsys):
        csv_path = files["root"] / "no_growth.csv"
        code, out, err = run(
            capsys, "green-grid", "--map", files["no_growth_map"],
            "--base", "1,0,0", "--e1", "0,1,0", "--e2", "0,0,1", "--resolution", 3,
            "--csv", csv_path,
        )
        assert (code, out, err) == (1, "", "error: " + NO_GROWTH)
        assert not csv_path.exists()

    @pytest.mark.parametrize("flag", ["--x-range", "--y-range"])
    def test_range_needs_two_numbers(self, files, capsys, flag):
        code, out, err = run(
            capsys, "green-grid", "--map", files["stable_map"],
            "--base", "1,0,0", "--e1", "0,1,0", "--e2", "0,0,1", "--resolution", 2, flag, "1",
        )
        assert (code, out) == (2, "") and "two comma-separated numbers" in err

    def test_bad_resolution_is_input_error(self, files, capsys):
        code, _, err = run(
            capsys, "green-grid", "--map", files["stable_map"],
            "--base", "1,0,0", "--e1", "0,1,0", "--e2", "0,0,1",
            "--resolution", 0,
        )
        assert code == 2 and "error" in err


class TestVerifyAll:
    def test_certified_map_passes(self, files, capsys):
        code, out, _ = run(
            capsys, "verify-all", "--map", files["stable_map"], "--n", 4, "--json"
        )
        assert code == 0
        payload = json.loads(out)
        validate(payload, schema("verify-all"))
        assert payload["passed"] is True
        assert payload["verdict"] == "QAS"
        assert payload["checks"]["lifting_recurrence"] == "PASS"
        assert payload["checks"]["residuals"] == "PASS"

    def test_byte_identical_reruns(self, files, capsys):
        args = ("verify-all", "--map", files["stable_map"], "--n", 4, "--json")
        _, out_a, _ = run(capsys, *args)
        _, out_b, _ = run(capsys, *args)
        assert out_a == out_b

    def test_plain_stable_map(self, files, capsys):
        code, out, _ = run(
            capsys, "verify-all", "--map", files["mono_map"], "--n", 4, "--json"
        )
        assert code == 0
        payload = json.loads(out)
        validate(payload, schema("verify-all"))
        assert payload["verdict"] == "AS" and payload["passed"] is True

    def test_drifting_map_fails(self, files, capsys):
        code, out, _ = run(
            capsys, "verify-all", "--map", files["drops_map"], "--n", 3, "--json"
        )
        assert code == 1
        payload = json.loads(out)
        validate(payload, schema("verify-all"))
        assert payload["verdict"] == "NotQAS" and payload["passed"] is False

    @pytest.mark.parametrize("precision", [64, 256])
    def test_lost_normalization_in_a_residual_orbit_is_a_precision_limit(self, files, capsys, precision):
        # only an orbit that meets a singular locus skips its sample point
        code, out, err = run(capsys, "verify-all", "--map", files["lost_norm_map"], "--n", 3,
                             "--precision", precision)
        assert (code, out) == (3, "")
        assert err == ("error: orbit point lost normalization (norm 0.0) at 53 bits in a residual "
                       "orbit; the residual orbits run at 53 bits whatever --precision is\n")

    @pytest.mark.parametrize("precision", [64, 256])
    def test_coefficient_beyond_the_float_range_in_a_residual_orbit(self, files, capsys, precision):
        code, out, err = run(capsys, "verify-all", "--map", files["beyond_float_map"], "--n", 3,
                             "--precision", precision)
        assert (code, out) == (3, "")
        assert err == ("error: coefficient 1.000e+400 of the map is beyond the float range at 53 "
                       "bits in a residual orbit; the residual orbits run at 53 bits whatever "
                       "--precision is\n")

    def test_degree_one_map_trivially_passes(self, files, capsys):
        code, out, _ = run(
            capsys, "verify-all", "--map", files["id_map"], "--n", 3, "--json"
        )
        assert code == 0
        assert json.loads(out)["lambda"] == "1"

    def test_p3_qas_fixture_end_to_end(self, capsys):
        # the committed QAS map of P^3 through verify-all, green-point at 53
        # and 128 bits, and green-grid on a complex line
        p3 = Path(__file__).parent / "fixtures" / "p3_qas.map"
        code, out, _ = run(capsys, "verify-all", "--map", p3, "--n", 3, "--json")
        payload = json.loads(out)
        validate(payload, schema("verify-all"))
        assert code == 0 and payload["passed"] is True
        assert payload["checks"]["lifting_recurrence"] == payload["checks"]["residuals"] == "PASS"
        assert payload["digest"] == "801cf17701cdbcc722d10e387068e8a71cea4d0f12ae6dd24f8bdc0f842c9b5b"
        values = []
        for precision in (53, 128):
            code, out, _ = run(capsys, "green-point", "--map", p3, "--point", "1,2,3,4",
                               "--precision", precision)
            assert code == 0 and out.splitlines()[1] == "status OK"
            values.append(out.splitlines()[0])
        assert values[0] == "u 2.2473498182454126"
        # the 128-bit digits are not pinned: only their agreement with 53 bits
        assert abs(Decimal(values[1][2:]) - Decimal(values[0][2:])) < Decimal("1e-14")
        code, out, _ = run(capsys, "green-grid", "--map", p3, "--base=1,2,3,4", "--e1=1,0.5,0,0",
                           "--e2=1j,0.5j,0,0", "--resolution", 16)
        assert (code, out) == (0, "resolution 16\nOK 256\n")


    def test_n0_2_fixture_end_to_end(self, capsys):
        # the stable cubic twisted to n0 = 2 through verify-all and green-point
        # at depth n0 + 2, the first that certifies it
        tw = Path(__file__).parent / "fixtures" / "n0_2_qas.map"
        code, out, _ = run(capsys, "verify-all", "--map", tw, "--n", 4, "--json")
        payload = json.loads(out)
        validate(payload, schema("verify-all"))
        assert code == 0 and payload["passed"] is True
        assert payload["checks"]["lifting_recurrence"] == "PASS"
        assert payload["lambda"] == "2.87938524157181676810821855464946294"
        values = [run(capsys, "green-point", "--map", tw, "--point", "1,2,3", "--cert-depth", 4,
                      "--precision", precision) for precision in (53, 128)]
        assert values == [(0, "u 0.9964779680105392\nstatus OK\n", ""),
                          (0, "u 0.996477968010540214945977166747919004\nstatus OK\n", "")]


class TestTextOutput:
    @pytest.mark.parametrize("argv, code, text", [
        (("lambda", "--d", 3, "--h", 1, "--n0", 1), 0,
         "lambda 2.61803398874989484820458683436563812\nr 1\n"
         "rho 0.145898033750315455386239496903085647\ncharpoly 1 -3 1\n"),
        (("family-check", "--family", "stable_fam"), 0,
         "coprimality PASS\nintersection PASS\nrank 2 PASS\npencil PASS kernel\noverall PASS\n"),
        (("green-point", "--map", "stable_map", "--point", "0.9+0.3j,-1.1+0.4j,0.5-0.7j"), 0,
         "u 0.5579286113366814\nstatus OK\n"),
        (("green-point", "--map", "stable_map", "--point", "0,1,0.7"), 1,
         "status HitDivisor step 2\n"),
        (("verify-all", "--map", "stable_map", "--n", 4), 0,
         "verdict QAS\nlambda 2.61803398874989484820458683436563812\nr 1\n"
         "lifting_recurrence PASS\nasymptotics PASS\nsn_identity PASS\nresiduals PASS\n"
         "overall PASS\n"),
    ])
    def test_text_output(self, files, capsys, argv, code, text):
        # a word naming a fixture file stands for its path
        got = run(capsys, *(files.get(a, a) if isinstance(a, str) else a for a in argv))
        assert got == (code, text, "")


class TestErrorPaths:
    def test_missing_file(self, files, capsys):
        code, out, err = run(capsys, "degrees", "--map", files["root"] / "nope.map")
        assert code == 2 and out == "" and "error" in err

    def test_unknown_subcommand_exits_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_unknown_directive_in_a_map_file(self, files, capsys):
        bad = files["root"] / "directive.map"
        bad.write_text("vars z w t\nmap z^2\nfrob w^2\nmap t^2\n")
        code, out, err = run(capsys, "degrees", "--map", bad)
        assert code == 2 and out == "" and "error" in err

    def test_shared_factor_is_named_in_the_file_variables(self, files, capsys):
        fam = files["root"] / "shared.fam"
        fam.write_text("vars z w t\nP z\nQ1 w^2\nQ2 w^2\nQ3 w^2\nR w^2*t\n")
        code, out, err = run(capsys, "family-check", "--family", fam)
        assert (code, out, err) == (2, "", "error: components share the factor z*w^2 - w^2*t\n")

    def test_unexpected_exception_is_an_internal_error(self, capsys, monkeypatch):
        def broken(args):
            raise RuntimeError("boom")

        monkeypatch.setattr(cli, "_run_lambda", broken)
        code, out, err = run(capsys, "lambda", "--d", 3, "--h", 1, "--n0", 1)
        assert code == 4 and out == "" and err == "internal error: boom\n"

    def test_bare_orbit_error_is_a_precision_limit(self, files, capsys, monkeypatch):
        def lost(args):
            raise OrbitError("orbit point lost normalization")

        monkeypatch.setattr(cli, "_run_green_point", lost)
        code, out, err = run(capsys, "green-point", "--map", files["stable_map"],
                             "--point", "1,2,3", "--precision", 64)
        assert (code, out) == (3, "")
        assert err == ("error: orbit point lost normalization at 64 bits; "
                       "rerun with a higher --precision\n")

    def test_uncertifiable_green_point(self, files, capsys):
        refusal = "error: cannot certify a divisor at depth 3: verdict NotQAS\n"
        code, out, err = run(
            capsys, "green-point", "--map", files["drops_map"], "--point", "1,2,3"
        )
        assert (code, out, err) == (1, "verdict NotQAS\n", refusal)
        # the refusal carries the verdict and the digest of the trace at the certificate depth
        digest = json.loads(run(capsys, "verify-all", "--map", files["drops_map"], "--n", 3,
                                "--json")[1])["digest"]
        code, out, err = run(
            capsys, "green-point", "--map", files["drops_map"], "--point", "1,2,3", "--json"
        )
        assert (code, err) == (1, refusal)
        payload = json.loads(out)
        validate(payload, schema("green-point"))
        assert payload == {"u": None, "status": None, "step": None, "mode": None,
                           "verdict": "NotQAS", "digest": digest}
        code, out, err = run(
            capsys, "green-grid", "--map", files["drops_map"], "--base", "1,0,0",
            "--e1", "0,1,0", "--e2", "0,0,1", "--resolution", 2, "--json",
        )
        assert (code, err) == (1, refusal)
        payload = json.loads(out)
        validate(payload, schema("green-grid"))
        assert payload == {"resolution": None, "counts": None, "depth": None, "precision": None,
                           "csv": None, "pgm": None, "verdict": "NotQAS", "digest": digest}
        # a refusal is no sample: a payload with a verdict and a value fails the schema
        with pytest.raises(ValidationError):
            validate({**payload, "counts": {"OK": "4"}}, schema("green-grid"))


# run in a fresh interpreter: import projdyn.cli from argv[1], note the mpmath modules
# that loaded, make mpmath unimportable, run each command of argv[2:] (a JSON list)
# and print those modules and each exit code and stdout as JSON
NO_MPMATH = """
import contextlib, io, json, sys
sys.path.insert(0, sys.argv[1])
import projdyn.cli
from projdyn import functional_eq_residual, green_eval, load_map, telescope_residual
LEAN = ("mpmath", "dataclasses", "inspect", "hashlib")
def loaded():  # a blocked module's entry is None
    return sorted(m for m, mod in sys.modules.items() if mod and m.split(".")[0] in LEAN)
at_import = loaded()
sys.modules["mpmath"] = None
runs, after = [], []
for arg in sys.argv[3:]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = projdyn.cli.main(json.loads(arg))
    runs.append([code, out.getvalue()])
    after.append(loaded())
f = load_map(sys.argv[2])
residuals = [functional_eq_residual(f, None, None, (1, 2, 3), precision=53),
             telescope_residual(f, None, None, (1, 2, 3), 3, precision=53)]
# above 53 bits the values are Fractions, compared as their str
u, hist = green_eval(f, None, None, (1, 2, 3), precision=128)
exact = list(map(str, (u, *hist, functional_eq_residual(f, None, None, (1, 2, 3), precision=128),
                       telescope_residual(f, None, None, (1, 2, 3), 3, precision=128))))
print(json.dumps({"loaded": at_import, "runs": runs, "after": after, "residuals": residuals,
                  "exact": exact}))
"""


class TestWithoutMpmath:
    """The exact commands, the 53-bit Green commands and green-grid at any precision need no mpmath.

    A fresh `import projdyn.cli` loads neither mpmath nor dataclasses
    (nor the inspect module it pulls in) nor hashlib, which only the
    commands that print a digest load.
    """

    def test_commands_print_the_same_bytes_without_mpmath(self, files, capsys, tmp_path, monkeypatch):
        commands = [
            ["family-gen", "--deg-p", 2, "--seed", 5, "--out", "gen.fam"],
            ["family-check", "--family", files["stable_fam"]],
            ["degrees", "--map", files["stable_map"], "--n", 4],
            ["infer-qas", "--map", files["stable_map"], "--n", 3],
            ["green-point", "--map", files["stable_map"], "--point", "1,2,3"],
            ["green-grid", "--map", files["stable_map"], "--base", "0,1,0.5", "--e1", "1,0,0",
             "--e2", "0,0,1", "--resolution", 5, "--csv", "g.csv", "--pgm", "g.pgm"],
            ["green-grid", "--map", files["stable_map"], "--base", "0,1,0.5", "--e1", "1,0,0",
             "--e2", "0,0,1", "--resolution", 5, "--precision", 96, "--csv", "g96.csv", "--pgm", "g96.pgm"],
        ]
        commands = [[str(a) for a in argv] + ["--json"] for argv in commands]
        src = str(Path(cli.__file__).resolve().parent.parent)
        alone, here = tmp_path / "alone", tmp_path / "here"
        alone.mkdir()
        here.mkdir()
        done = subprocess.run([sys.executable, "-c", NO_MPMATH, src, str(files["stable_map"]),
                               *map(json.dumps, commands)],
                              cwd=alone, capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        got = json.loads(done.stdout)
        assert got["loaded"] == []
        # the family commands make no digest; degrees prints one
        assert got["after"][:3] == [[], [], ["hashlib"]]
        monkeypatch.chdir(here)
        want = [list(run(capsys, *argv)[:2]) for argv in commands]
        assert [code for code, _ in want] == [0, 0, 0, 0, 0, 0, 0]
        assert got["runs"] == want
        f = load_map(files["stable_map"])
        assert got["residuals"] == [functional_eq_residual(f, None, None, (1, 2, 3), precision=53),
                                    telescope_residual(f, None, None, (1, 2, 3), 3, precision=53)]
        u, hist = green_eval(f, None, None, (1, 2, 3), precision=128)
        assert got["exact"] == list(map(str, (u, *hist,
                                              functional_eq_residual(f, None, None, (1, 2, 3), precision=128),
                                              telescope_residual(f, None, None, (1, 2, 3), 3, precision=128))))
        written = {p.name: p.read_bytes() for p in here.iterdir()}
        assert sorted(written) == ["g.csv", "g.pgm", "g.pgm.json", "g96.csv", "g96.pgm", "g96.pgm.json",
                                   "gen.fam"]
        assert {p.name: p.read_bytes() for p in alone.iterdir()} == written



# run in a fresh interpreter: import projdyn.cli from argv[1], run the command
# argv[2:] and print as JSON the layers loaded by the import and after the
# command, and its exit code, stdout and stderr
FRESH = """
import contextlib, io, json, sys
sys.path.insert(0, sys.argv[1])
import projdyn.cli
def layers():
    return sorted(m.split(".")[1] for m in sys.modules if m.startswith("projdyn.") and m != "projdyn.cli")
at_import = layers()
out, err = io.StringIO(), io.StringIO()
with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
    code = projdyn.cli.main(sys.argv[2:])
print(json.dumps({"import": at_import, "layers": layers(), "run": [code, out.getvalue(), err.getvalue()]}))
"""

# run in a fresh interpreter: the package namespace before and after a star import
NAMESPACE = """
import json, sys
sys.path.insert(0, sys.argv[1])
import projdyn
def layers():
    return sorted(m for m in sys.modules if m.startswith("projdyn."))
before, listed = layers(), dir(projdyn)
try:
    projdyn.no_such_name
    unknown = None
except AttributeError as exc:
    unknown = str(exc)
scope = {}
exec("from projdyn import *", scope)
bound = sorted(n for n in scope if n != "__builtins__")
print(json.dumps({"before": before, "dir": listed, "unknown": unknown, "bound": bound,
                  "all": sorted(projdyn.__all__), "after": layers()}))
"""

# run in a fresh interpreter: the names each layer's star import binds
STAR = """
import json, sys
sys.path.insert(0, sys.argv[1])
bound = {}
for layer in sys.argv[2:]:
    scope = {}
    exec(f"from projdyn.{layer} import *", scope)
    bound[layer] = sorted(n for n in scope if n != "__builtins__")
print(json.dumps(bound))
"""

EXACT = ["mapiter", "polycore"]
FAMILY = ["family2", "mapiter", "plane", "polycore", "specdeg"]
GREEN = ["greenpot", "mapiter", "polycore", "specdeg"]
GRID = ["--base", "0,1,0.5", "--e1", "1,0,0", "--e2", "0,0,1", "--resolution", 5]

# name -> (argv, the layers it loads, exit code); a word naming a file of the
# files fixture stands for its path
STARTS = {
    "degrees": (["degrees", "--map", "stable_map", "--n", 3, "--json"], EXACT, 0),
    "infer-qas": (["infer-qas", "--map", "stable_map", "--json"], EXACT, 0),
    "lambda": (["lambda", "--d", 3, "--h", 1, "--n0", 1, "--json"], ["specdeg"], 0),
    "family-gen": (["family-gen", "--deg-p", 2, "--seed", 5, "--out", "gen.fam", "--json"],
                   FAMILY, 0),
    "family-check": (["family-check", "--family", "stable_fam", "--json"], FAMILY, 0),
    "green-point": (["green-point", "--map", "stable_map", "--point", "1,2,3", "--json"], GREEN, 0),
    "green-grid": (["green-grid", "--map", "stable_map", *GRID, "--csv", "g.csv", "--pgm", "g.pgm"],
                   GREEN, 0),
    "verify-all": (["verify-all", "--map", "stable_map", "--n", 3, "--json"], GREEN, 0),
    # refusals, whose exception classes main looks up only when one is raised
    "green-point-uncertifiable": (["green-point", "--map", "drops_map", "--point", "1,2,3",
                                   "--json"], GREEN, 1),
    "green-grid-uncertifiable": (["green-grid", "--map", "drops_map", *GRID, "--json"], GREEN, 1),
    "cert-depth-1": (["green-point", "--map", "stable_map", "--point", "1,2,3", "--cert-depth", 1],
                     GREEN, 2),
    "malformed-map": (["degrees", "--map", "bad_map"], EXACT, 2),
    "map-as-family": (["family-check", "--family", "stable_map"], FAMILY, 2),
    "lambda-d-1": (["lambda", "--d", 1, "--h", 0, "--n0", 1], ["specdeg"], 2),
    "residual-orbit-at-53-bits": (["verify-all", "--map", "lost_norm_map", "--n", 3], GREEN, 3),
    "orbit-at-53-bits": (["green-point", "--map", "lost_norm_map", "--point", "1,2,3"], GREEN, 3),
}


class TestStartUp:
    """A fresh `import projdyn.cli` loads no layer, and each command only the layers it runs."""

    @staticmethod
    def fresh(script, cwd, *args):
        src = str(Path(cli.__file__).resolve().parent.parent)
        done = subprocess.run([sys.executable, "-c", script, src, *map(str, args)],
                              cwd=cwd, capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        return json.loads(done.stdout)

    @pytest.mark.parametrize("name", STARTS)
    def test_a_command_loads_only_its_layers(self, files, capsys, tmp_path, monkeypatch, name):
        argv, layers, code = STARTS[name]
        paths = {**files, "bad_map": files["root"] / "bad.map"}
        paths["bad_map"].write_text("vars z w t\nmap z^2 +\nmap w^2\nmap t^2\n")
        argv = [paths.get(a, a) if isinstance(a, str) else a for a in argv]
        alone, here = tmp_path / "alone", tmp_path / "here"
        alone.mkdir()
        here.mkdir()
        got = self.fresh(FRESH, alone, *argv)
        assert got["import"] == []
        assert got["layers"] == layers
        monkeypatch.chdir(here)
        want = list(run(capsys, *argv))
        assert got["run"] == want and want[0] == code
        assert {p.name: p.read_bytes() for p in alone.iterdir()} == \
            {p.name: p.read_bytes() for p in here.iterdir()}

    def test_the_namespace_resolves_on_first_access(self, tmp_path):
        got = self.fresh(NAMESPACE, tmp_path)
        assert got["before"] == []
        assert set(got["all"]) <= set(got["dir"])
        assert got["unknown"] == "module 'projdyn' has no attribute 'no_such_name'"
        assert got["bound"] == got["all"] == sorted(projdyn.__all__)
        assert got["after"] == [f"projdyn.{layer}" for layer in sorted(GREEN + ["family2", "plane"])]
        assert len(projdyn.__all__) == len(set(projdyn.__all__)) == 100
        assert projdyn.greenpot.OrbitError is OrbitError

    def test_a_layers_star_import_binds_its_table_entry(self, tmp_path):
        got = self.fresh(STAR, tmp_path, *projdyn._EXPORTS)
        assert got == {layer: sorted(names) for layer, names in projdyn._EXPORTS.items()}
