import time

import pytest

from innerforms.errors import GroupSpecError
from innerforms.kottwitz import (
    ad_quotient_order,
    dual_center_positive_dimensional,
    inner_form_classes_gl,
    kottwitz_group,
)
from innerforms.rootdata import (
    MAX_LATTICE_RANK,
    adjoint_datum,
    build_catalog_group,
    datum_product,
    fundamental_group,
)
from oracles import cartan_determinant_closed_form, cofactor_det, kottwitz_by_dual_datum, totient


def test_sl_n_has_no_inner_twists():
    for n in range(2, 9):
        assert kottwitz_group(build_catalog_group("SL", [n])).is_trivial


def test_pgl_n_is_cyclic_of_order_n():
    for n in range(2, 9):
        group = kottwitz_group(build_catalog_group("PGL", [n]))
        assert group.invariant_factors == (n,)


def test_e8_f4_g2_trivial():
    for tag in ("E8", "F4", "G2"):
        assert kottwitz_group(build_catalog_group(tag, [])).is_trivial
        assert ad_quotient_order(build_catalog_group(tag, [])) == 1


def test_sp_group_trivial_but_adjoint_order_two():
    datum = build_catalog_group("Sp", [8])
    assert kottwitz_group(datum).is_trivial
    assert ad_quotient_order(datum) == 2


def test_so_2n_order_two():
    assert kottwitz_group(build_catalog_group("SO", [10])).invariant_factors == (2,)


IRREDUCIBLE_TYPES = (
    [("A", r) for r in range(1, 9)]
    + [("B", r) for r in range(3, 9)]
    + [("C", r) for r in range(2, 9)]
    + [("D", r) for r in range(4, 9)]
    + [("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2)]
)


@pytest.mark.parametrize("series,rank", IRREDUCIBLE_TYPES)
def test_adjoint_kottwitz_order_is_cartan_determinant(series, rank):
    datum = adjoint_datum(series, rank)
    det = abs(cofactor_det(datum.cartan))
    assert kottwitz_group(datum).order == det
    assert det == cartan_determinant_closed_form(series, rank)


@pytest.mark.parametrize("series,rank", IRREDUCIBLE_TYPES)
def test_simply_connected_kottwitz_trivial(series, rank):
    from innerforms.rootdata import simply_connected_datum

    assert kottwitz_group(simply_connected_datum(series, rank)).is_trivial


def test_kottwitz_agrees_with_fundamental_group_on_catalog():
    # both are the torsion of Y/<coroots>; A(G) is checked independently
    # against the dual datum in test_kottwitz_matches_dual_datum_oracle
    for tag, params in [
        ("SL", [6]), ("PGL", [6]), ("GL", [4]), ("Sp", [8]), ("GSp", [8]),
        ("Spin", [9]), ("GSpin", [8]), ("SO", [8]), ("E6sc", []), ("F4", []),
    ]:
        datum = build_catalog_group(tag, params)
        assert (
            kottwitz_group(datum).invariant_factors
            == fundamental_group(datum).invariant_factors
        )


CATALOG_LADDER = (
    [("GL", [n]) for n in (1, 2, 5, 12)]
    + [(tag, [n]) for tag in ("SL", "PGL") for n in (2, 3, 6, 13)]
    + [(tag, [n]) for tag in ("Sp", "GSp") for n in (2, 4, 10, 24)]
    + [(tag, [n]) for tag in ("Spin", "GSpin") for n in (3, 4, 5, 6, 8, 9, 14, 21)]
    + [("SO", [n]) for n in (4, 6, 8, 18)]
    + [(tag, []) for tag in ("E6sc", "E7sc", "E8", "F4", "G2")]
)


@pytest.mark.parametrize("tag,params", CATALOG_LADDER)
def test_kottwitz_matches_dual_datum_oracle(tag, params):
    datum = build_catalog_group(tag, params)
    torsion, free = kottwitz_by_dual_datum(datum)
    assert kottwitz_group(datum).invariant_factors == torsion
    assert dual_center_positive_dimensional(datum) == (free > 0)


@pytest.mark.parametrize(
    "specs",
    [[("GL", [3]), ("GL", [2])], [("PGL", [4]), ("SO", [8])], [("PGL", [6]), ("PGL", [4])],
     [("Sp", [6]), ("GSpin", [8]), ("E6sc", [])], [("PGL", [3]), ("PGL", [3]), ("G2", [])]],
)
def test_kottwitz_matches_dual_datum_oracle_on_products(specs):
    datum = datum_product([build_catalog_group(tag, params) for tag, params in specs])
    torsion, free = kottwitz_by_dual_datum(datum)
    assert kottwitz_group(datum).invariant_factors == torsion
    assert dual_center_positive_dimensional(datum) == (free > 0)


def test_dual_center_dimension_flag():
    assert dual_center_positive_dimensional(build_catalog_group("GL", [3]))
    assert dual_center_positive_dimensional(build_catalog_group("GSpin", [8]))
    assert not dual_center_positive_dimensional(build_catalog_group("Sp", [8]))


# ---------------------------------------------------------------------------
# GL_n inner form classes


def test_single_class_for_gl1():
    classes = inner_form_classes_gl(1)
    assert len(classes) == 1
    assert classes[0].d == 1


def test_gl4_class_two_is_quaternionic():
    classes = inner_form_classes_gl(4)
    c = classes[2]
    assert c.d == 2  # d = 4 / gcd(2, 4), by the invariant-order oracle
    assert c.matrix_size == 2
    assert c.describe() == "GL_2(D_2), invariant 1/2"
    assert classes[0].describe() == "GL_4(F) (split)"


def test_class_counts_follow_totient():
    for n in range(1, 65):
        classes = inner_form_classes_gl(n)
        assert len(classes) == n
        by_degree = {}
        for c in classes:
            assert n % c.d == 0
            assert c.d * c.matrix_size == n
            from math import gcd

            assert gcd(c.invariant_numerator, c.d) == 1
            by_degree[c.d] = by_degree.get(c.d, 0) + 1
        for d, count in by_degree.items():
            assert count == totient(d)
        assert sum(by_degree.values()) == n  # sum over d | n of phi(d) = n


def test_inner_form_classes_validation():
    with pytest.raises(GroupSpecError):
        inner_form_classes_gl(0)


def test_inner_form_classes_gl_is_capped_at_the_lattice_rank_limit():
    started = time.perf_counter()
    assert len(inner_form_classes_gl(MAX_LATTICE_RANK)) == MAX_LATTICE_RANK
    assert time.perf_counter() - started < 1.0
    above = r"^GL\(1025\) has lattice rank 1025, above the limit of 1024$"
    with pytest.raises(GroupSpecError, match=above):
        inner_form_classes_gl(MAX_LATTICE_RANK + 1)
    started = time.perf_counter()
    with pytest.raises(GroupSpecError, match=r"^GL\(1000000000\) has lattice rank"):
        inner_form_classes_gl(10**9)
    assert time.perf_counter() - started < 0.05


def test_ad_quotient_order_products_and_tori():
    datum = build_catalog_group("GL", [1])
    assert ad_quotient_order(datum) == 1
    from innerforms.rootdata import datum_product

    prod = datum_product(
        [build_catalog_group("SL", [3]), build_catalog_group("Sp", [4])]
    )
    assert ad_quotient_order(prod) == 6  # 3 for the A_2 part, 2 for the C_2 part


def test_ad_quotient_order_examples():
    assert ad_quotient_order(build_catalog_group("SL", [7])) == 7
    assert ad_quotient_order(build_catalog_group("Spin", [12])) == 4
    assert ad_quotient_order(build_catalog_group("E6sc", [])) == 3
    assert ad_quotient_order(build_catalog_group("E7sc", [])) == 2
