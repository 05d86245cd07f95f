"""Every record type: equality and hash, the dataclass repr, copies, pickles,
frozenness, and the messages with which construction refuses bad fields."""

import copy
import pickle
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from innerforms.appendix import AppendixEntry, CatalogVariant, appendix_catalog
from innerforms.errors import DatumError, GroupSpecError
from innerforms.globalize import (
    CocycleCheck,
    DivisionAlgebraReport,
    GlobalizationPlan,
    HasseVector,
    PlaceLabel,
    build_cocycle,
    global_division_algebra,
    plan_globalization,
    plan_places,
)
from innerforms.grothendieck import BasisElement, GroupSide, split_side
from innerforms.kottwitz import InnerFormClass, inner_form_classes_gl
from innerforms.levi import LeviDescriptor, LeviReport, analyze_levi
from innerforms.rootdata import (
    BasedRootDatum,
    ComponentLayout,
    DynkinType,
    FiniteAbelianGroup,
    build_catalog_group,
)
from innerforms.satake import InnerFactor, InnerFormShape, SatakeDiagram, type_a_satake
from innerforms.weyl import RestrictedRoot, WeylWord

# the fields of each record, in the order the repr shows them
FIELDS = {
    GroupSide: ("m", "d"),
    BasisElement: ("side", "composition", "labels"),
    FiniteAbelianGroup: ("invariant_factors",),
    DynkinType: ("components", "torus_rank"),
    BasedRootDatum: ("rank", "simple_roots", "simple_coroots", "name"),
    ComponentLayout: ("series", "rank", "chain", "hanging", "attach"),
    LeviDescriptor: ("ambient", "theta"),
    LeviReport: ("derived_type", "split_component_rank", "derived_pi1", "condition_one",
                 "gl_envelope", "components", "envelope_exact", "central_gl1s"),
    WeylWord: ("letters",),
    RestrictedRoot: ("direction", "preimages"),
    SatakeDiagram: ("base", "black"),
    InnerFactor: ("m", "d", "kind"),
    InnerFormShape: ("factors", "field_note"),
    InnerFormClass: ("n", "label", "d", "invariant_numerator"),
    PlaceLabel: ("id", "kind", "prime"),
    HasseVector: ("entries",),
    GlobalizationPlan: ("base_prime", "tower_primes", "degree", "places", "s_multiple_of",
                        "s_places", "cocycle"),
    CocycleCheck: ("assignment", "valid", "message"),
    DivisionAlgebraReport: ("n", "valid", "message", "local_data", "non_split_places"),
    CatalogVariant: ("mprime_paper", "label", "condition", "degrees", "expected_factors",
                     "sample", "flags", "paper_claim_md", "alternatives"),
    AppendixEntry: ("key", "family", "group_paper", "theta_paper", "theta_bourbaki", "m_paper",
                    "variants", "sample", "m_der_paper", "mtilde_paper", "m_computed", "figure",
                    "exact_expected", "notes", "expected_components"),
}

GROUPS = [("GL", [3]), ("SL", [4]), ("PGL", [3]), ("Sp", [6]), ("GSpin", [7]), ("SO", [8]),
          ("G2", []), ("F4", []), ("Spin", [4])]
data = st.sampled_from(GROUPS).map(lambda spec: build_catalog_group(*spec))
primes = st.sampled_from([2, 3, 5, 7, 11])


@st.composite
def levi_descriptors(draw):
    datum = draw(data)
    return LeviDescriptor(datum, tuple(draw(st.sets(st.integers(0, datum.semisimple_rank - 1)))))


@st.composite
def basis_elements(draw):
    side = GroupSide(draw(st.integers(1, 6)), draw(st.integers(1, 3)))
    cuts = sorted(draw(st.sets(st.integers(1, side.m - 1)))) if side.m > 1 else []
    bounds = [0, *cuts, side.m]
    comp = tuple(b - a for a, b in zip(bounds, bounds[1:]))
    return BasisElement(side, comp, tuple(draw(st.sampled_from("abxy")) for _ in comp))


@st.composite
def abelian_groups(draw):
    factors, d = [], 1
    for step in draw(st.lists(st.integers(1, 4), max_size=3)):
        d *= step + (d == 1)  # the first factor is at least 2, later ones divide on
        factors.append(d)
    return FiniteAbelianGroup(tuple(factors))


LABELS = [("A", 1), ("A", 4), ("B", 3), ("C", 2), ("D", 4), ("E", 6), ("E", 8), ("F", 4), ("G", 2)]


@st.composite
def places(draw):
    label = f"v{draw(st.integers(0, 9))}"
    kind = draw(st.sampled_from(["finite", "real", "complex"]))
    return PlaceLabel(label, kind, draw(primes) if kind == "finite" else None)


@st.composite
def hasse_vectors(draw):
    chosen = {p.id: p for p in draw(st.lists(places(), max_size=4))}
    values = [Fraction(draw(st.integers(-5, 5)), draw(st.integers(1, 6))) for _ in chosen]
    return HasseVector.from_items(zip(chosen.values(), values))


@st.composite
def restricted_roots(draw):
    direction = draw(st.lists(st.integers(-3, 3), min_size=1, max_size=3)
                     .filter(lambda v: gcd(*v) == 1))
    preimages = draw(st.lists(st.tuples(st.integers(-2, 2), st.integers(-2, 2)), min_size=1,
                              max_size=3))
    return RestrictedRoot(tuple(direction), tuple(preimages))


@st.composite
def plans(draw):
    places = draw(st.integers(1, 5))
    return plan_globalization(draw(st.sampled_from([3, 5])), places, draw(st.integers(1, places)))


@st.composite
def cocycles(draw):
    places = plan_places(draw(st.sampled_from([3, 5, 7])), draw(st.integers(1, 5))).places
    s_places = places[:draw(st.integers(1, len(places)))]
    return build_cocycle(places, s_places, draw(st.integers(2, 3)), 1)


@st.composite
def division_reports(draw):
    n = draw(st.sampled_from([1, 2, 6, 12]))
    divisors = [d for d in range(1, n + 1) if n % d == 0]
    entries = [(PlaceLabel(f"v{i}", prime=draw(primes)),
                Fraction(draw(st.integers(0, 11)), draw(st.sampled_from(divisors))))
               for i in range(draw(st.integers(0, 4)))]
    return global_division_algebra(n, HasseVector.from_items(entries))


ENTRIES = appendix_catalog()
factors = st.builds(InnerFactor, st.integers(1, 5), st.integers(1, 3),
                    st.sampled_from(["GL", "sandwich"]))

RECORDS = st.one_of(
    st.builds(GroupSide, st.integers(1, 9), st.integers(1, 4)),
    basis_elements(),
    abelian_groups(),
    st.builds(DynkinType, st.lists(st.sampled_from(LABELS), max_size=4).map(tuple),
              st.integers(0, 3)),
    data,
    data.flatmap(lambda datum: st.sampled_from(datum.layouts)),
    levi_descriptors(),
    levi_descriptors().map(analyze_levi),
    st.lists(st.integers(0, 7), max_size=6).map(lambda letters: WeylWord(tuple(letters))),
    restricted_roots(),
    st.sampled_from([(6, 3), (4, 2), (5, 1), (3, 3)]).map(lambda nd: type_a_satake(*nd)),
    factors,
    st.builds(InnerFormShape, st.lists(factors, max_size=3).map(tuple),
              st.sampled_from(["", "D over F"])),
    st.integers(1, 8).flatmap(lambda n: st.sampled_from(inner_form_classes_gl(n))),
    places(),
    hasse_vectors(),
    plans(),
    cocycles(),
    division_reports(),
    st.sampled_from(ENTRIES),
    st.sampled_from([v for e in ENTRIES for v in e.variants]),
)


def test_the_strategy_covers_every_record_type():
    found = set()

    @settings(max_examples=600, deadline=None, derandomize=True)
    @given(RECORDS)
    def collect(record):
        found.add(type(record))

    collect()
    assert found == set(FIELDS)


def rebuilt(record):
    """The record made again from its fields, by keyword."""
    cls = type(record)
    return cls(**{name: getattr(record, name) for name in FIELDS[cls]})


@settings(max_examples=400, deadline=None, derandomize=True)
@given(RECORDS)
def test_record_round_trip(record):
    cls = type(record)
    fields = FIELDS[cls]
    body = ", ".join(f"{name}={getattr(record, name)!r}" for name in fields)
    assert repr(record) == f"{cls.__qualname__}({body})"
    again = rebuilt(record)
    assert again == record and hash(again) == hash(record) and not (again != record)
    assert record != object() and record != tuple(getattr(record, name) for name in fields)
    for twin in (copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
        assert type(twin) is cls
        assert twin == record and hash(twin) == hash(record) and repr(twin) == repr(record)
    for name in (*fields, "unrelated"):
        with pytest.raises(AttributeError):
            setattr(record, name, None)
    for name in fields:
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert [getattr(record, name) for name in fields] == [getattr(again, name) for name in fields]


def test_records_differing_in_one_field_are_unequal():
    gl3, sl4 = build_catalog_group("GL", [3]), build_catalog_group("SL", [4])
    for left, right in [
        (DynkinType((("A", 2),), 1), DynkinType((("A", 2),), 0)),
        (LeviDescriptor(gl3, (0,)), LeviDescriptor(gl3, (1,))),
        (LeviDescriptor(gl3, (0,)), LeviDescriptor(sl4, (0,))),
        (PlaceLabel("v1", prime=3), PlaceLabel("v1", prime=5)),
        (InnerFactor(2, 1, "GL"), InnerFactor(2, 1, "sandwich")),
        (ComponentLayout("A", 2, (0, 1)), ComponentLayout("A", 2, (1, 0))),
        (GroupSide(2, 1), GroupSide(2, 2)),
    ]:
        assert left != right and not left == right


def test_positional_keyword_and_default_arguments():
    assert PlaceLabel("v1", "finite", 3) == PlaceLabel(id="v1", prime=3) == PlaceLabel("v1", prime=3)
    assert ComponentLayout("A", 2, (0, 1)) == ComponentLayout("A", 2, (0, 1), None, -1)
    assert DynkinType(torus_rank=0, components=(("A", 1),)) == DynkinType((("A", 1),))
    assert InnerFormShape(()).field_note == ""
    for bad in (
        lambda: DynkinType(),  # a field without a default is missing
        lambda: WeylWord((0,), (1,)),  # more arguments than fields
        lambda: WeylWord((0,), letters=(1,)),  # one field given twice
        lambda: WeylWord(word=(0,)),  # no such field
        lambda: GroupSide(),
        lambda: BasisElement(split_side(1), (1,)),
    ):
        with pytest.raises(TypeError):
            bad()


GL3 = build_catalog_group("GL", [3])
REFUSALS = [
    (lambda: GroupSide(0), GroupSpecError, "group side needs positive m and d"),
    (lambda: GroupSide(2, 0), GroupSpecError, "group side needs positive m and d"),
    (lambda: BasisElement(split_side(3), (), ()), GroupSpecError, "bad composition ()"),
    (lambda: BasisElement(split_side(3), (0, 3), ("a", "b")), GroupSpecError,
     "bad composition (0, 3)"),
    (lambda: BasisElement(split_side(3), (2, 2), ("a", "b")), GroupSpecError,
     "composition (2, 2) does not sum to 3"),
    (lambda: BasisElement(split_side(3), (1, 2), ("a",)), GroupSpecError,
     "one label per composition block required"),
    (lambda: FiniteAbelianGroup((1,)), DatumError, "invariant factors must be >= 2: (1,)"),
    (lambda: FiniteAbelianGroup((2, 3)), DatumError, "divisibility chain broken: (2, 3)"),
    (lambda: DynkinType((("H", 1),)), DatumError, "bad component ('H', 1)"),
    (lambda: DynkinType((("A", 0),)), DatumError, "bad component ('A', 0)"),
    (lambda: DynkinType((("B", 2),)), DatumError,
     "B-components have rank >= 3 (C2 is canonical at rank 2)"),
    (lambda: DynkinType((("C", 1),)), DatumError, "C-components have rank >= 2"),
    (lambda: DynkinType((("D", 3),)), DatumError,
     "D-components have rank >= 4 (D3 = A3, D2 = A1+A1)"),
    (lambda: DynkinType((("E", 5),)), DatumError, "E-components have rank 6, 7 or 8"),
    (lambda: DynkinType((("F", 3),)), DatumError, "F4 is the only F-component"),
    (lambda: DynkinType((("G", 3),)), DatumError, "G2 is the only G-component"),
    (lambda: DynkinType((), -1), DatumError, "negative torus rank"),
    (lambda: BasedRootDatum(-1, (), ()), DatumError, "negative rank"),
    (lambda: BasedRootDatum(2, ((1, -1),), ()), DatumError, "root/coroot counts differ"),
    (lambda: BasedRootDatum(1, ((2,), (2,)), ((1,), (1,))), DatumError,
     "more simple roots than the lattice rank"),
    (lambda: BasedRootDatum(2, ((1,),), ((1, -1),)), DatumError,
     "vector length does not match rank"),
    (lambda: LeviDescriptor(GL3, (2,)), DatumError, "theta [2] out of range for 2 simple roots"),
    (lambda: WeylWord((0, -1)), DatumError, "negative reflection index"),
    (lambda: RestrictedRoot((2, 4), ((1, 0),)), DatumError, "direction (2, 4) is not primitive"),
    (lambda: RestrictedRoot((1,), ()), DatumError, "restricted root with no preimages"),
    (lambda: SatakeDiagram(GL3, {0, 5}), DatumError, "black vertices [0, 5] out of range"),
    (lambda: InnerFactor(0, 1, "GL"), DatumError, "factor sizes must be positive"),
    (lambda: InnerFactor(1, 1, "PGL"), DatumError, "unknown factor kind 'PGL'"),
    (lambda: InnerFactor(1, 1, "SL"), DatumError, "unknown factor kind 'SL'"),
    (lambda: PlaceLabel("v", "adelic"), GroupSpecError, "unknown place kind 'adelic'"),
    (lambda: PlaceLabel("v"), GroupSpecError, "finite place 'v' needs a prime >= 2 (got None)"),
    (lambda: PlaceLabel("v", prime=9), GroupSpecError,
     "finite place 'v' needs a prime >= 2 (got 9)"),
    (lambda: PlaceLabel("r", "real", 3), GroupSpecError, "archimedean places carry no prime"),
    (lambda: HasseVector.from_items([(PlaceLabel("v1", prime=3), Fraction(1, 2)),
                                     (PlaceLabel("v1", prime=5), Fraction(1, 2))]),
     GroupSpecError, "duplicate place 'v1'"),
    (lambda: GlobalizationPlan(5, (3,), 4, ()), GroupSpecError,
     "degree must be 2^(number of tower primes)"),
    (lambda: GlobalizationPlan(5, (), 1, (), 2, (PlaceLabel("v1", prime=5),)), GroupSpecError,
     "|S| = 1 is not a multiple of 2"),
]


@pytest.mark.parametrize("make,error,message", REFUSALS)
def test_construction_refuses_bad_fields_with_the_same_message(make, error, message):
    with pytest.raises(error) as info:
        make()
    assert type(info.value) is error and str(info.value) == message


def test_group_sides_are_interned():
    side = GroupSide(4, 2)
    assert GroupSide(4, 2) is side and GroupSide(m=4, d=2) is side and GroupSide(3) is split_side(3)
    for twin in (copy.copy(side), copy.deepcopy(side), pickle.loads(pickle.dumps(side))):
        assert twin is side
    elt = BasisElement(side, (2, 2), ("a", "b"))
    assert pickle.loads(pickle.dumps(elt)).side is side
