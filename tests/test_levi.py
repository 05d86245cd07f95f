from itertools import combinations
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from innerforms.errors import DatumError
from innerforms.levi import (
    LeviDescriptor,
    analyze_levi,
    is_maximal,
    levi_datum,
    remove_indices,
)
from innerforms.rootdata import build_catalog_group, classify, datum_product, fundamental_group
from oracles import cofactor_det


def desc_for(tag, params, removed):
    datum = build_catalog_group(tag, params)
    return LeviDescriptor(datum, remove_indices(datum, removed))


def test_levi_datum_full_theta_is_ambient():
    datum = build_catalog_group("Sp", [6])
    desc = LeviDescriptor(datum, (0, 1, 2))
    sub = levi_datum(desc)
    assert sub.simple_roots == datum.simple_roots
    assert sub.simple_coroots == datum.simple_coroots


def test_levi_datum_sl4_block():
    desc = desc_for("SL", [4], [1])
    dynkin = classify(levi_datum(desc))
    assert dynkin.components == (("A", 1), ("A", 1))
    assert dynkin.torus_rank == 1


def test_levi_datum_e7_remove_a4():
    # the three components left after removing the branch-adjacent node
    desc = desc_for("E7sc", [], [3])
    dynkin = classify(levi_datum(desc))
    assert dynkin.components == (("A", 1), ("A", 2), ("A", 3))


def test_analyze_levi_spin_odd():
    report = analyze_levi(desc_for("Spin", [9], [2]))
    assert report.condition_one
    assert report.derived_type.components == (("A", 1), ("A", 2))
    assert report.gl_envelope == (3, 2)
    assert not report.envelope_exact  # proper sandwich inside GL_3 x GL_2
    assert report.derived_pi1.is_trivial


def test_analyze_levi_sp_siegel():
    report = analyze_levi(desc_for("Sp", [8], [3]))
    assert report.condition_one
    assert report.gl_envelope == (4,)
    assert report.envelope_exact
    assert report.central_gl1s == 0
    assert report.split_component_rank == 1


def test_analyze_levi_gsp_siegel_has_central_gl1():
    report = analyze_levi(desc_for("GSp", [8], [3]))
    assert report.envelope_exact
    assert report.central_gl1s == 1


def test_analyze_levi_e6_remove_branch_adjacent():
    report = analyze_levi(desc_for("E6sc", [], [3]))
    assert report.condition_one
    assert report.derived_type.components == (("A", 1), ("A", 2), ("A", 2))
    assert report.gl_envelope == (3, 2, 3)
    assert report.split_component_rank == 1


def test_analyze_levi_f4():
    # removing an end node leaves a B_3/C_3 piece, so the sandwich fails there;
    # the two middle removals leave A_1 + A_2 with trivial pi_1 and pass
    expected = {
        0: ((("C", 3),), False),
        1: ((("A", 1), ("A", 2)), True),
        2: ((("A", 1), ("A", 2)), True),
        3: ((("B", 3),), False),
    }
    for removed, (components, condition) in expected.items():
        report = analyze_levi(desc_for("F4", [], [removed]))
        assert report.derived_type.components == components
        assert report.condition_one is condition
        assert report.derived_pi1.is_trivial


def test_is_maximal():
    datum = build_catalog_group("Sp", [8])
    assert not is_maximal(LeviDescriptor(datum, (0, 1, 2, 3)))
    assert is_maximal(LeviDescriptor(datum, (0, 1, 2)))
    a1 = build_catalog_group("SL", [2])
    assert is_maximal(LeviDescriptor(a1, ()))


def test_theta_validation():
    datum = build_catalog_group("SL", [3])
    with pytest.raises(DatumError):
        LeviDescriptor(datum, (5,))
    with pytest.raises(DatumError):
        remove_indices(datum, [7])


SIMPLY_CONNECTED_RANK7 = [
    ("SL", [n]) for n in range(2, 9)
] + [
    ("Sp", [2 * n]) for n in range(1, 8)
] + [
    ("Spin", [m]) for m in (5, 7, 9, 11, 13, 15, 8, 10, 12, 14)
] + [("E6sc", []), ("E7sc", []), ("F4", []), ("G2", [])]


def all_subsets(k):
    for mask in range(1 << k):
        yield tuple(i for i in range(k) if mask & (1 << i))


def test_levis_of_simply_connected_groups_are_simply_connected():
    for tag, params in SIMPLY_CONNECTED_RANK7:
        datum = build_catalog_group(tag, params)
        assert datum.rank <= 7
        for theta in all_subsets(datum.semisimple_rank):
            report = analyze_levi(LeviDescriptor(datum, theta))
            assert report.derived_pi1.is_trivial, (tag, params, theta)


def blocks_of_theta(n, theta):
    """Block sizes of the composition of n induced by theta inside GL_n."""
    sizes = []
    run = 1
    for i in range(n - 1):
        if i in theta:
            run += 1
        else:
            sizes.append(run)
            run = 1
    sizes.append(run)
    return sizes


def test_gl_condition_one_exhaustive():
    for n in range(1, 9):
        datum = build_catalog_group("GL", [n])
        for theta in all_subsets(n - 1):
            report = analyze_levi(LeviDescriptor(datum, theta))
            assert report.condition_one
            assert report.envelope_exact
            blocks = blocks_of_theta(n, set(theta))
            envelope = list(report.gl_envelope) + [1] * report.central_gl1s
            assert sorted(envelope) == sorted(blocks), (n, theta)
            # non-trivial blocks appear in composition order
            assert list(report.gl_envelope) == [b for b in blocks if b > 1]


def test_split_rank_monotone_in_theta():
    datum = build_catalog_group("Spin", [11])
    k = datum.semisimple_rank
    for theta in all_subsets(k):
        report = analyze_levi(LeviDescriptor(datum, theta))
        assert report.split_component_rank == datum.rank - len(theta)
        for extra in range(k):
            if extra in theta:
                continue
            bigger = tuple(sorted(theta + (extra,)))
            assert (
                analyze_levi(LeviDescriptor(datum, bigger)).split_component_rank
                < report.split_component_rank + 1
            )


def test_envelope_size_identity():
    for tag, params in [("Sp", [10]), ("Spin", [9]), ("E6sc", []), ("GL", [7])]:
        datum = build_catalog_group(tag, params)
        for theta in all_subsets(datum.semisimple_rank):
            report = analyze_levi(LeviDescriptor(datum, theta))
            if report.condition_one:
                assert sum(n - 1 for n in report.gl_envelope) == len(theta)


def surjective_oracle(rows, n) -> bool:
    """x -> (row . x) maps Z^n onto Z^r iff the r x r minors have gcd 1."""
    r = len(rows)
    if r > n:
        return False
    g = 0
    for cols in combinations(range(n), r):
        g = gcd(g, cofactor_det([[row[c] for c in cols] for row in rows]))
    return g == 1


@pytest.mark.parametrize(
    "tag,params",
    [("GL", [5]), ("SL", [4]), ("PGL", [4]), ("Sp", [6]), ("GSp", [6]), ("GSpin", [7]),
     ("GSpin", [8]), ("SO", [8])],
)
def test_envelope_exact_matches_minor_oracle(tag, params):
    datum = build_catalog_group(tag, params)
    for theta in all_subsets(datum.semisimple_rank):
        report = analyze_levi(LeviDescriptor(datum, theta))
        extra = datum.rank - len(theta) - len(report.components)
        expected = (
            report.condition_one
            and extra >= 0
            and surjective_oracle([datum.simple_roots[t] for t in theta], datum.rank)
            and surjective_oracle([datum.simple_coroots[t] for t in theta], datum.rank)
        )
        assert report.envelope_exact == expected, theta


CATALOG_UP_TO_RANK_16 = [
    ("GL", [16]), ("SL", [17]), ("PGL", [17]), ("Sp", [32]), ("GSp", [30]), ("Spin", [33]),
    ("Spin", [32]), ("GSpin", [31]), ("GSpin", [30]), ("SO", [32]), ("E6sc", []), ("E7sc", []),
    ("E8", []), ("F4", []), ("G2", []),
]


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    st.lists(st.sampled_from(CATALOG_UP_TO_RANK_16), min_size=1, max_size=2),
    st.integers(0, 2**32 - 1),
)
def test_levi_report_matches_levi_datum(specs, mask):
    # analyze_levi reads the type off the ambient datum; the Levi's own datum
    # must classify the same and have the same pi_1
    factors = [build_catalog_group(tag, params) for tag, params in specs]
    datum = factors[0] if len(factors) == 1 else datum_product(factors)
    theta = tuple(i for i in range(datum.semisimple_rank) if mask >> (i % 32) & 1)
    desc = LeviDescriptor(datum, theta)
    report = analyze_levi(desc)
    sub = levi_datum(desc)
    assert report.derived_type == classify(sub)
    assert report.derived_pi1 == fundamental_group(sub)
