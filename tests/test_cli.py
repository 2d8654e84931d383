"""End-to-end command-line checks: outputs, exit codes, schemas, determinism.

Runs the entry point in process and validates every JSON payload
against the schemas shipped under docs/schemas/.
"""

import json
from fractions import Fraction
from pathlib import Path

import pytest
from jsonschema import validate

from projdyn.cli import main
from projdyn.family2 import build_family_map, load_family, run_preflight, save_family
from projdyn.mapiter import make_map, save_map
from projdyn.polycore import parse_poly

NAMES = ("z", "w", "t")
SCHEMA_DIR = Path(__file__).resolve().parent.parent / "docs" / "schemas"


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
        "stable_fam": root / "stable.fam",
        "root": root,
    }
    save_map(stable.map, paths["stable_map"])
    save_map(drops.map, paths["drops_map"])
    save_map(make_map([pp("z"), pp("w"), pp("t")]), paths["id_map"])
    save_map(make_map([pp("z^2"), pp("w^2"), pp("t^2")]), paths["mono_map"])
    # F(1, 0.5, 0.3) has a norm near 1e200, whose square overflows a float
    save_map(make_map([pp("z^2") * 10**200, pp("w^2"), pp("t^2")]), paths["huge_coeff_map"])
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
            "--point", "2,1,1", "--cert", "none", "--json",
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
        args = ("green-point", "--map", files["huge_coeff_map"], "--point", "1,0.5,0.3",
                "--cert", "none", "--json")
        code, out, err = run(capsys, *args)
        assert code == 3 and out == "" and "higher --precision" in err
        code, out, _ = run(capsys, *args, "--precision", 64)
        assert code == 0
        payload = json.loads(out)
        validate(payload, schema("green-point"))
        assert payload["status"] == "OK"
        assert abs(float(payload["u"]) - 460.51701859839028) < 1e-9

    def test_nan_point_is_input_error(self, files, capsys):
        code, out, err = run(
            capsys, "green-point", "--map", files["stable_map"], "--point=nan,1,1"
        )
        assert code == 2 and out == "" and "finite" in err


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

    def test_orbit_beyond_the_precision_is_a_resource_limit(self, files, capsys):
        code, out, err = run(
            capsys, "green-grid", "--map", files["huge_coeff_map"], "--cert", "none",
            "--base", "1,0.5,0.3", "--e1", "1,0,0", "--e2", "0,1,0", "--resolution", 3,
        )
        assert code == 3 and out == "" and "higher --precision" in err

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

    def test_degree_one_map_trivially_passes(self, files, capsys):
        code, out, _ = run(
            capsys, "verify-all", "--map", files["id_map"], "--n", 3, "--json"
        )
        assert code == 0
        assert json.loads(out)["lambda"] == "1"


class TestErrorPaths:
    def test_missing_file(self, files, capsys):
        code, out, err = run(capsys, "degrees", "--map", files["root"] / "nope.map")
        assert code == 2 and out == "" and "error" in err

    def test_unknown_subcommand_exits_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_uncertifiable_green_point(self, files, capsys):
        code, _, err = run(
            capsys, "green-point", "--map", files["drops_map"], "--point", "1,2,3"
        )
        assert code == 1 and "error" in err
