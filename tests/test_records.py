"""The record types: immutable NamedTuples that copy, compare and pickle as tuples."""

import pickle

import pytest

import projdyn
from projdyn import (
    DegreeRecurrence,
    GridSlice,
    HomPoly,
    build_family_map,
    char_poly_roots,
    check_asymptotics,
    extend_degrees,
    grid_sample,
    infer_qas,
    int_primitive,
    iterate_degrees,
    parse_poly,
    point_class,
    run_preflight,
)

# through getattr, as the package imports each name on first access
RECORDS = sorted(
    (obj for obj in (getattr(projdyn, name) for name in projdyn.__all__)
     if isinstance(obj, type) and issubclass(obj, tuple)),
    key=lambda cls: cls.__name__,
)


@pytest.fixture(scope="module")
def records():
    """One instance of each record type, made by the function that returns it."""
    def pp(s):
        return parse_poly(s, ("z", "w", "t"))

    inst = build_family_map(pp("z"), pp("w^2 + z*t"), pp("t^2 + z*w"), pp("2*w*t"), pp("2*w^2*t"))
    trace = iterate_degrees(inst.map, 3)
    qas = infer_qas(trace)
    spectral = char_poly_roots(inst.recurrence, 64)
    preflight = run_preflight(inst)
    window = GridSlice((0, 1, 0.5), (1, 0, 0), (0, 0, 1))
    out = [
        inst, inst.map, inst.recurrence, int_primitive(pp("2*z - 4*w")), trace, qas,
        qas.certificate, point_class(inst.map, (1, 2, 3)), spectral,
        check_asymptotics(extend_degrees(inst.recurrence, 20), spectral),
        preflight, preflight.intersection, preflight.rank, preflight.pencil,
        window, grid_sample(inst.map, qas.certificate, spectral, window, 3),
    ]
    return {type(rec).__name__: rec for rec in out}


def test_the_package_exports_all_16_record_types():
    assert [cls.__name__ for cls in RECORDS] == [
        "AsymptoticsReport", "DegreeRecurrence", "FamilyInstance", "GreenGrid", "GridSlice",
        "InferResult", "IntPrimitiveForm", "IntersectionReport", "IterationTrace", "PencilReport",
        "PointClass", "PreflightReport", "ProjMap", "QASCertificate", "RankReport", "SpectralReport",
    ]


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_record_is_an_immutable_tuple_of_its_fields(cls, records):
    rec = records[cls.__name__]
    assert type(rec) is cls
    for name in cls._fields:
        with pytest.raises(AttributeError):
            setattr(rec, name, getattr(rec, name))
    first = cls._fields[0]
    value = 4 if cls is DegreeRecurrence else "changed"
    new = rec._replace(**{first: value})
    assert type(new) is cls and getattr(new, first) == value and new != rec
    assert new[1:] == rec[1:]
    assert rec == tuple(rec) == cls(*rec) == cls(**rec._asdict())
    assert pickle.loads(pickle.dumps(rec)) == rec


def test_checked_records_check_their_replacements():
    with pytest.raises(ValueError):
        DegreeRecurrence(1, 0, 1)
    with pytest.raises(ValueError):
        DegreeRecurrence(3, 1, 1)._replace(d=1)
    form = int_primitive(parse_poly("2*x", ("x",)))
    with pytest.raises(AssertionError):
        form._replace(primitive=HomPoly.zero(1))
