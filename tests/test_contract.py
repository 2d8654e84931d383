"""The command-line contract under seeded random inputs.

Every input either works or gets its documented exit code: 0 or 1 for
a verdict, 2 for an input the command refuses, 3 for a precision or
resource limit, and never 4.  A fixed seed draws family instances and
maps; every JSON payload validates against its schema under
docs/schemas/, and a second run of the same commands prints the same
bytes and writes the same files.
"""

import json
import random
from pathlib import Path

from jsonschema import validate

from projdyn.cli import main
from projdyn.family2 import random_family
from projdyn.mapiter import map_to_text
from projdyn.polycore import poly_to_text, random_hompoly

SCHEMA_DIR = Path(__file__).resolve().parent.parent / "docs" / "schemas"
NAMES = ("z", "w", "t")
P3_NAMES = ("x", "y", "z", "t")


def _random_map_text(rng, i: int) -> str:
    """A P^2 map: every fourth one a family instance's, the others of degree 2
    or 3 with 1 to 4 terms per component, sometimes with coefficients up to
    10^20 or a common linear factor."""
    if i % 4 == 0:
        return map_to_text(random_family(rng.randint(1, 2), 2, 5, rng.randrange(100)).map)
    deg = rng.randint(2, 3)
    bound = rng.choice((3, 50, 10**20))
    comps = [random_hompoly(rng, 3, deg, rng.randint(1, 4), bound) for _ in range(3)]
    if rng.random() < 0.25:
        common = random_hompoly(rng, 3, 1, 2, 5)
        comps = [c * common for c in comps]
    return "vars z w t\n" + "".join(f"map {poly_to_text(c, NAMES)}\n" for c in comps)


def _commands(seed: int, root: Path) -> list[list]:
    """20 family-gen and family-check pairs and 20 maps under degrees and infer-qas."""
    rng = random.Random(seed)
    out = []
    for i in range(20):
        fam = root / f"family{i}.txt"
        out.append(["family-gen", "--deg-p", rng.randint(1, 3), "--deg-q", rng.choice((1, 2, 2, 3, 3)),
                    "--coeff-bound", rng.choice((1, 5, 50)), "--seed", rng.randrange(100), "--out", fam])
        out.append(["family-check", "--family", fam])
    for i in range(20):
        path = root / f"map{i}.map"
        path.write_text(_random_map_text(rng, i))
        out.append(["degrees", "--map", path, "--n", 3])
        out.append(["infer-qas", "--map", path, "--n", 3])
    return out


def _p3_map_text(rng) -> str:
    """A quadratic map of P^3 with 1 to 5 terms per component, sometimes with
    coefficients up to 10^20, a common linear factor or a repeated component."""
    bound = rng.choice((3, 50, 10**20))
    comps = [random_hompoly(rng, 4, 2, rng.randint(1, 5), bound) for _ in range(4)]
    if rng.random() < 0.2:
        common = random_hompoly(rng, 4, 1, 2, 5)
        comps = [c * common for c in comps]
    if rng.random() < 0.1:
        comps[3] = comps[0]
    return "vars x y z t\n" + "".join(f"map {poly_to_text(c, P3_NAMES)}\n" for c in comps)


def _green_commands(seed: int, root: Path) -> list[list]:
    """green-point and green-grid on 20 maps of P^2, at drawn precisions, depths and resolutions."""
    rng = random.Random(seed)

    def vector():
        # small ints and complex numbers with imaginary part 1
        coords = (rng.choice((rng.randint(-3, 3), complex(rng.randint(-3, 3), 1))) for _ in range(3))
        return ",".join(map(str, coords))

    out = []
    for i in range(20):
        path = root / f"green{i}.map"
        path.write_text(_random_map_text(rng, i))
        common = ["--precision", rng.choice((24, 53, 64, 128, 300)), "--n", rng.randint(1, 200)]
        out.append(["green-point", "--map", path, f"--point={vector()}", *common])
        out.append(["green-grid", "--map", path, f"--base={vector()}", f"--e1={vector()}",
                    f"--e2={vector()}", "--resolution", rng.randint(1, 4), *common])
    return out


def _verify_commands(seed: int, root: Path) -> list[list]:
    """verify-all --n 3 on 20 maps of P^2, at drawn precisions."""
    rng = random.Random(seed)
    out = []
    for i in range(20):
        path = root / f"verify{i}.map"
        path.write_text(_random_map_text(rng, i))
        out.append(["verify-all", "--map", path, "--n", 3, "--precision", rng.choice((64, 128, 300))])
    return out


def _run(capsys, argv) -> tuple:
    code = main([str(a) for a in argv] + ["--json"])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _check(capsys, commands, root: Path) -> dict:
    """Run the commands twice; check exit codes, schemas, stderr and bytes; return the codes by command."""
    schemas = {
        name: json.loads((SCHEMA_DIR / f"{name}.schema.json").read_text())
        for name in {argv[0] for argv in commands}
    }
    first = [_run(capsys, argv) for argv in commands]
    files = {p.name: p.read_bytes() for p in root.iterdir()}
    codes = {}
    for argv, (code, out, err) in zip(commands, first):
        assert code in (0, 1, 2, 3), (argv, code, err)
        codes.setdefault(argv[0], set()).add(code)
        if code in (0, 1):
            validate(json.loads(out), schemas[argv[0]])
        else:
            assert out == "" and err.startswith("error: "), (argv, out, err)
    # the draw reaches verdicts on every command
    assert all(codes[name] & {0, 1} for name in schemas), codes
    assert [_run(capsys, argv) for argv in commands] == first
    assert {p.name: p.read_bytes() for p in root.iterdir()} == files
    return codes


def test_random_inputs_keep_the_exit_codes_schemas_and_bytes(tmp_path, capsys):
    commands = _commands(2037, tmp_path) + _green_commands(2039, tmp_path) + _verify_commands(2040, tmp_path)
    codes = _check(capsys, commands, tmp_path)
    # and refusals on some
    assert 2 in set().union(*codes.values()), codes


def test_random_maps_of_p3_keep_the_exit_codes_schemas_and_bytes(tmp_path, capsys):
    rng = random.Random(2038)
    commands = []
    for i in range(20):
        path = tmp_path / f"p3map{i}.map"
        path.write_text(_p3_map_text(rng))
        commands += [["degrees", "--map", path, "--n", 3], ["infer-qas", "--map", path, "--n", 3]]
    codes = _check(capsys, commands, tmp_path)
    assert 2 in codes["degrees"], codes
