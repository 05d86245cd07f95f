"""Derived root data against the validated constructor.

Products, Levi sub-data and the canonical simply connected and adjoint data
inherit their Cartan matrix and layouts instead of computing and validating
them from their vectors.  Each such datum must be the datum that
``BasedRootDatum(rank, roots, coroots, name)`` validates and classifies from
the same vectors.
"""

from itertools import combinations, product

import pytest

from innerforms.levi import LeviDescriptor, levi_datum
from innerforms.rootdata import (
    BasedRootDatum,
    adjoint_datum,
    build_catalog_group,
    datum_product,
    simply_connected_datum,
)
from innerforms.satake import SatakeDiagram, levi_satake_diagram, parse_ascii, render_ascii

CATALOG = (
    [("GL", [n]) for n in (1, 2, 4)]
    + [(tag, [n]) for tag in ("SL", "PGL") for n in (2, 5)]
    + [(tag, [n]) for tag in ("Sp", "GSp") for n in (2, 6)]
    + [(tag, [n]) for tag in ("Spin", "GSpin") for n in (3, 4, 6, 7, 10)]
    + [("SO", [n]) for n in (4, 8)]
    + [(tag, []) for tag in ("E6sc", "E7sc", "E8", "F4", "G2")]
)

# every catalog group of semisimple rank <= 6
CATALOG_RANK6 = (
    [(tag, [n]) for tag in ("GL", "SL", "PGL") for n in range(2, 8)]
    + [("GL", [1])]
    + [(tag, [2 * n]) for tag in ("Sp", "GSp") for n in range(1, 7)]
    + [(tag, [m]) for tag in ("Spin", "GSpin") for m in range(3, 14)]
    + [("SO", [2 * n]) for n in range(2, 7)]
    + [("E6sc", []), ("F4", []), ("G2", [])]
)

SERIES_RANKS = (
    [("A", r) for r in range(1, 41)]
    + [(s, r) for s in "BCD" for r in range(2, 41)]
    + [("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2)]
)


def assert_validated(datum):
    """``datum`` equals the validated datum on its vectors, with the same invariants."""
    checked = BasedRootDatum(datum.rank, datum.simple_roots, datum.simple_coroots, datum.name)
    assert datum == checked
    for name in ("cartan", "neighbours", "layouts", "dynkin_type", "pi1", "symmetrizer"):
        assert getattr(datum, name) == getattr(checked, name), (datum.name, name)


def levis(tag, params):
    datum = build_catalog_group(tag, params)
    assert datum.semisimple_rank <= 6
    k = datum.semisimple_rank
    for size in range(k + 1):
        for theta in combinations(range(k), size):
            yield levi_datum(LeviDescriptor(datum, theta))


@pytest.mark.parametrize("first", CATALOG, ids=str)
def test_products_match_validated(first):
    for second in CATALOG:
        assert_validated(datum_product([build_catalog_group(*first), build_catalog_group(*second)]))


def test_longer_products_match_validated():
    groups = [build_catalog_group(*spec) for spec in (("G2", []), ("GL", [3]), ("Spin", [8]))]
    assert_validated(datum_product(groups))
    assert_validated(datum_product([datum_product(groups[:2]), groups[2]], name="nested"))
    assert_validated(datum_product([]))


@pytest.mark.parametrize("tag,params", CATALOG_RANK6, ids=str)
def test_levi_sub_data_match_validated(tag, params):
    for sub in levis(tag, params):
        assert_validated(sub)


@pytest.mark.parametrize("series,rank", SERIES_RANKS, ids=str)
def test_canonical_data_match_validated(series, rank):
    assert_validated(simply_connected_datum(series, rank))
    assert_validated(adjoint_datum(series, rank))


@pytest.mark.parametrize("tag,params", CATALOG_RANK6, ids=str)
def test_parsed_canonical_bases_match_validated(tag, params):
    # every rendered Levi picture parses to a product of canonical data
    for sub in levis(tag, params):
        black = frozenset(range(0, sub.semisimple_rank, 2))
        for unicode in (True, False):
            parsed = parse_ascii(render_ascii(SatakeDiagram(sub, black), unicode=unicode))
            assert_validated(parsed.base)


def test_satake_pictures_build_no_validated_datum(monkeypatch):
    # parse_ascii and levi_satake_diagram reuse validated invariants only
    data = [build_catalog_group(*spec) for spec in (("E7sc", []), ("Sp", [8]), ("GL", [6]))]
    descs = [LeviDescriptor(datum, theta) for datum, theta in product(data, [(0,), (0, 1), (1, 2)])]
    pictures = [(desc, render_ascii(SatakeDiagram(levi_datum(desc), {0}))) for desc in descs]
    runs = []
    monkeypatch.setattr(BasedRootDatum, "__post_init__", lambda self: runs.append(self.name))
    for desc, text in pictures:
        parse_ascii(text)
        levi_satake_diagram(desc, [1] * len(levi_datum(desc).layouts))
    assert runs == []
