"""The package's seven records, and what a cold import of the package loads."""

import copy
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import cuspbounds
from cuspbounds import AnalysisRequest, Slope, parse_pd, run_surgery
from cuspbounds.bounds import PretzelParams, SurfacePairData, twist_bound
from cuspbounds.diagram import BraidWord, PlanarDiagram
from cuspbounds.errors import (
    BadDiagramCounts,
    CuspBoundsError,
    DegenerateSurfacePair,
    EmptyDiagram,
    FewerThanTwoStrands,
    InvalidSlope,
    MultiComponentLink,
    NoSlopeSource,
    NotOddOrTooSmall,
    NotOneInputSource,
    ZeroExponent,
)
from cuspbounds.pipeline import BatchResult
from genutil import traced_bigons

DATA = Path(__file__).parent / "data" / "reference_meridians.csv"
TREFOIL = "X[1,4,2,5] X[3,6,4,1] X[5,2,6,3]"
FIG8 = "X[4,2,5,1] X[8,6,1,5] X[6,3,7,4] X[2,7,3,8]"

# record -> (a maker of one value, a maker of an unequal value, a field)
RECORDS = {
    "PlanarDiagram": (lambda: parse_pd(TREFOIL), lambda: parse_pd(FIG8), "slots"),
    "BraidWord": (lambda: BraidWord(3, ((1, 2), (2, -2))), lambda: BraidWord(3, ((1, 2),)),
                  "syllables"),
    "SurfacePairData": (lambda: SurfacePairData(1, 2, 3), lambda: SurfacePairData(2, 1, 3),
                        "intersection"),
    "PretzelParams": (lambda: PretzelParams(3, 3, 5), lambda: PretzelParams(3, 5, 3), "a"),
    "Slope": (lambda: Slope(1, 2), lambda: Slope(-1, 2), "q"),
    "AnalysisRequest": (lambda: AnalysisRequest(pd=TREFOIL, slopes=(Slope(1, 7),)),
                        lambda: AnalysisRequest(pd=TREFOIL), "pd"),
    "BatchResult": (lambda: BatchResult([{"name": "a"}]), lambda: BatchResult(), "rows"),
}
HASHABLE = sorted(set(RECORDS) - {"BatchResult"})
# The errors that are also a ValueError, so that callers catching one keep working
VALUE_ERRORS = {InvalidSlope, NotOneInputSource, NoSlopeSource, DegenerateSurfacePair,
                BadDiagramCounts}


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_equal_and_unequal_pairs(name):
    make, other, _ = RECORDS[name]
    a, b = make(), make()
    assert a is not b
    assert a == b and not a != b
    assert a != other() and not a == other()


@pytest.mark.parametrize("name", HASHABLE)
def test_hash_agrees_with_equality(name):
    make, other, _ = RECORDS[name]
    assert hash(make()) == hash(make())
    assert len({make(), make(), other()}) == 2


def test_batch_result_is_unhashable():
    with pytest.raises(TypeError):
        hash(BatchResult())


@pytest.mark.parametrize("name", HASHABLE)
def test_frozen(name):
    make, _, field = RECORDS[name]
    record = make()
    with pytest.raises(AttributeError):
        setattr(record, field, None)
    with pytest.raises(AttributeError):
        record.extra = 1
    with pytest.raises(AttributeError):
        delattr(record, field)
    assert record == make()


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_copy_and_pickle_round_trip(name):
    record = RECORDS[name][0]()
    for twin in (copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
        assert type(twin) is type(record) and twin == record


@pytest.mark.parametrize(
    "call, error",
    [
        (lambda: parse_pd(""), EmptyDiagram),
        (lambda: parse_pd("X[1,1,2,2] X[3,3,4,4]"), MultiComponentLink),
        (lambda: BraidWord(1, ()), FewerThanTwoStrands),
        (lambda: BraidWord(2, ((1, 0),)), ZeroExponent),
        (lambda: SurfacePairData(0, 1, 1), DegenerateSurfacePair),
        (lambda: SurfacePairData(1, 1, 0), DegenerateSurfacePair),
        (lambda: PretzelParams(3, 3, 4), NotOddOrTooSmall),
        (lambda: Slope(1, 0), InvalidSlope),
        (lambda: Slope(2, 14), InvalidSlope),
        (lambda: AnalysisRequest(), NotOneInputSource),
        (lambda: AnalysisRequest(pd=FIG8, braid="2: s1^3"), NotOneInputSource),
        # _replace builds through the same checks
        (lambda: BraidWord(2, ((1, 3),))._replace(strands=1), FewerThanTwoStrands),
        (lambda: SurfacePairData(1, 1, 1)._replace(intersection=0), DegenerateSurfacePair),
        (lambda: PretzelParams(3, 3, 3)._replace(b=2), NotOddOrTooSmall),
        (lambda: Slope(1, 7)._replace(q=0), InvalidSlope),
        (lambda: AnalysisRequest(pd=TREFOIL)._replace(pd=None), NotOneInputSource),
        # the two errors of VALUE_ERRORS that no record's construction raises
        (lambda: run_surgery((Slope(1, 6),)), NoSlopeSource),
        (lambda: twist_bound(4, 5), BadDiagramCounts),
    ],
)
def test_construction_errors_are_coded(call, error):
    with pytest.raises(error) as info:
        call()
    assert isinstance(info.value, CuspBoundsError)
    assert info.value.code == error.__name__
    assert isinstance(info.value, ValueError) == (error in VALUE_ERRORS)


def test_planar_diagram_compares_and_prints_slots_only():
    d = parse_pd(TREFOIL)
    assert repr(d) == f"PlanarDiagram(slots={d.slots!r})"
    assert vars(d) == {"partner": d.partner, "bigons": 3, "clasp": None}
    assert (d.bigons, d.clasp) == traced_bigons(d)
    assert d != d.slots
    for args in ((), (d.slots,)):
        with pytest.raises(TypeError, match="no public constructor"):
            PlanarDiagram(*args)


def test_constructor_keywords_and_defaults():
    assert Slope(q=3, p=2) == Slope(2, 3)
    assert SurfacePairData(abs_chi_1=1, abs_chi_2=2, intersection=3).abs_chi_2 == 2
    request = AnalysisRequest(braid="2: s1^3")
    assert (request.pd, request.budget, request.volume, request.slopes) == (None, None, None, ())
    assert BatchResult().rows == [] and BatchResult().rows is not BatchResult().rows
    with pytest.raises(TypeError):
        Slope(1, 2, 3)
    with pytest.raises(TypeError):
        AnalysisRequest(source=TREFOIL)


def test_cold_import_loads_no_dataclasses_inspect_typing_or_csv():
    # A fresh isolated interpreter: modules the interpreter itself loaded at
    # start-up are not counted. run_batch must still read its CSV afterwards.
    code = """if True:
        import sys
        bare = set(sys.modules)
        sys.path.insert(0, sys.argv[1])
        import cuspbounds, cuspbounds.cli
        assert cuspbounds.__file__.startswith(sys.argv[1]), cuspbounds.__file__
        print(sorted({"dataclasses", "inspect", "typing", "csv", "json"} & set(sys.modules) - bare))
        print(cuspbounds.run_batch(sys.argv[2]).to_dict()["summary"], "csv" in sys.modules)
    """
    src = str(Path(cuspbounds.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-I", "-c", code, src, str(DATA)],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["[]", "{'pass': 5, 'fail': 0, 'skip': 0} True"]
