"""Exact and numeric tooling for iterating dominant rational self-maps of P^k.

The package is organised as seven layers:

- `polycore`: exact homogeneous-polynomial arithmetic (parser, GCD, division)
- `mapiter`: projective maps, iteration traces, stability certificates
- `specdeg`: degree recurrences and the spectral data of their characteristic polynomial
- `plane`: exact common zeros of plane forms (resultants, rational roots, line and chart solvers)
- `family2`: a generator/validator for a certified family of plane maps
- `greenpot`: numeric Green potential evaluation, residual diagnostics, grids
- `cli`: the `projdyn` command line

Importing the package loads no layer: each name below is imported from
its layer on first access (PEP 562), so a command loads only the layers
it runs.
"""

import importlib

# the public names of each layer, and the only list of them: each layer's __all__ is
# its entry, and __all__, __dir__ and __getattr__ here read the table too
_EXPORTS = {
    "polycore": (
        "ArityMismatch", "DegreeMismatch", "DivisionByZero", "HomPoly", "IntPrimitiveForm",
        "NonHomogeneous", "NotDivisible", "ParseError", "PolyError", "ResourceLimit",
        "UnknownVariable", "ZeroPolynomialDegree", "coprime_certificate",
        "coprime_certificate_many", "compose_all", "exact_div", "get_term_cap",
        "int_primitive", "parse_poly", "poly_gcd", "poly_gcd_many", "poly_to_text",
        "random_hompoly", "same_up_to_scalar", "set_term_cap",
    ),
    "mapiter": (
        "AllZero", "IndexOutOfRange", "InferResult", "IterationTrace", "MapError",
        "NotDominant", "PointClass", "ProjMap", "QASCertificate", "ZeroVector",
        "certificate_digest", "compose_extract", "infer_qas", "iterate_degrees",
        "jacobian_det", "load_map", "make_map", "map_to_text", "parse_map_text",
        "point_class", "save_map", "verify_lifting_recurrence",
    ),
    "specdeg": (
        "AsymptoticsReport", "DegenerateLambda", "DegreeRecurrence", "InsufficientData",
        "NonPositiveDegree", "PrecisionExhausted", "SpectralError", "SpectralReport",
        "char_poly_roots", "check_asymptotics", "check_growth_bounds", "check_sn_identity",
        "extend_degrees",
    ),
    "family2": (
        "FAIL", "PASS", "CommonFactor", "DegreeConstraintViolated", "FamilyError",
        "FamilyInstance", "GenerationExhausted", "IntersectionReport", "NormalizationViolated",
        "PencilReport", "PreflightReport", "RankReport", "build_family_map",
        "check_coprimality", "check_intersection_conditions", "check_rank_and_pencil",
        "family_to_text", "load_family", "parse_family_text", "random_family",
        "run_preflight", "sample_divisor_points", "save_family",
    ),
    "greenpot": (
        "STATUS_DIVISOR", "STATUS_INDETERMINACY", "STATUS_NOT_CONVERGED", "STATUS_OK",
        "AmplificationOverflow", "GreenGrid", "GridSlice", "NotConverged", "OrbitError",
        "OrbitHitDivisor", "OrbitHitIndeterminacy", "export_grid_csv", "export_grid_pgm",
        "functional_eq_residual", "green_eval", "grid_sample", "telescope_residual",
    ),
}
_LAYER_OF = {name: layer for layer, names in _EXPORTS.items() for name in names}

__all__ = list(_LAYER_OF)
__version__ = "0.1.0"


def __getattr__(name):
    """A layer, or a public name from its layer, imported on first access and kept."""
    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _LAYER_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(__getattr__(_LAYER_OF[name]), name)
    return value


def __dir__():
    return sorted({*globals(), *_EXPORTS, *__all__})
