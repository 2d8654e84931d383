"""Exact and numeric tooling for iterating dominant rational self-maps of P^k.

The package is organised as six layers:

- `polycore`: exact homogeneous-polynomial arithmetic (parser, GCD, division)
- `mapiter`: projective maps, iteration traces, stability certificates
- `specdeg`: degree recurrences and the spectral data of their characteristic polynomial
- `family2`: a generator/validator for a certified family of plane maps
- `greenpot`: numeric Green potential evaluation, residual diagnostics, grids
- `cli`: the `projdyn` command line
"""

from .polycore import (
    ArityMismatch,
    DegreeMismatch,
    DivisionByZero,
    HomPoly,
    IntPrimitiveForm,
    NonHomogeneous,
    NotDivisible,
    ParseError,
    PolyError,
    ResourceLimit,
    UnknownVariable,
    ZeroPolynomialDegree,
    coprime_certificate,
    coprime_certificate_many,
    exact_div,
    get_term_cap,
    int_primitive,
    parse_poly,
    poly_gcd,
    poly_gcd_many,
    poly_to_text,
    random_hompoly,
    same_up_to_scalar,
    set_term_cap,
)

from .mapiter import (
    AllZero,
    IndexOutOfRange,
    InferResult,
    IterationTrace,
    MapError,
    NotDominant,
    PointClass,
    ProjMap,
    QASCertificate,
    ZeroVector,
    certificate_digest,
    compose_extract,
    infer_qas,
    iterate_degrees,
    jacobian_det,
    load_map,
    make_map,
    map_to_text,
    parse_map_text,
    point_class,
    save_map,
    verify_lifting_recurrence,
)

from .specdeg import (
    AsymptoticsReport,
    DegenerateLambda,
    DegreeRecurrence,
    InsufficientData,
    MultiplicityOutOfRange,
    NonPositiveDegree,
    PrecisionExhausted,
    SpectralError,
    SpectralReport,
    char_poly_roots,
    check_asymptotics,
    check_growth_bounds,
    check_sn_identity,
    extend_degrees,
)

from .family2 import (
    FAIL,
    PASS,
    CommonFactor,
    DegreeConstraintViolated,
    FamilyError,
    FamilyInstance,
    GenerationExhausted,
    IntersectionReport,
    NormalizationViolated,
    PencilReport,
    PreflightReport,
    RankReport,
    build_family_map,
    check_coprimality,
    check_intersection_conditions,
    check_rank_and_pencil,
    family_to_text,
    load_family,
    parse_family_text,
    random_family,
    run_preflight,
    sample_divisor_points,
    save_family,
)
from .greenpot import (
    STATUS_DIVISOR,
    STATUS_INDETERMINACY,
    STATUS_NOT_CONVERGED,
    STATUS_OK,
    AmplificationOverflow,
    GreenGrid,
    GridSlice,
    InsufficientOKRegion,
    NotConverged,
    OrbitError,
    OrbitHitDivisor,
    OrbitHitIndeterminacy,
    export_grid_csv,
    export_grid_pgm,
    functional_eq_residual,
    green_eval,
    grid_sample,
    laplacian_diagnostic,
    telescope_residual,
)

__version__ = "0.1.0"
