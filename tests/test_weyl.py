from fractions import Fraction
from math import prod
from operator import mul

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from innerforms import weyl
from innerforms.errors import DatumError, EnumerationLimitError, GroupSpecError
from innerforms.levi import LeviDescriptor, levi_datum
from innerforms.rootdata import (
    build_catalog_group,
    classify,
    datum_product,
    simply_connected_datum,
)
from innerforms.weyl import (
    WeylWord,
    find_w_theta,
    orbit_product_order,
    rank_one_decomposition,
    reduced_roots,
    weyl_group_order,
)
from oracles import (
    coords_to_vector,
    coroot_of,
    find_w_theta_by_replay,
    positive_root_count,
    positive_roots_by_closure,
    proportional_positive,
    rank_one_by_pairwise_sums,
    rational_kernel,
    restricted_classes_by_restriction,
    roots_by_closure,
    subsystem_type,
    subsystem_type_by_subdatum,
    weyl_order_by_closure,
    weyl_order_closed_form,
    word_action,
    word_matrix,
)

ORDER_CASES = [
    ("SL", [2], 2),        # A1
    ("SL", [3], 6),        # A2 = S_3
    ("SL", [4], 24),
    ("SL", [5], 120),
    ("SL", [6], 720),      # A5
    ("Spin", [5], 8),      # B2
    ("Spin", [7], 48),     # B3: 2^3 * 3!
    ("Spin", [9], 384),    # B4
    ("Sp", [4], 8),        # C2
    ("Sp", [6], 48),
    ("Sp", [8], 384),      # C4
    ("Spin", [8], 192),    # D4: 2^3 * 4!
    ("G2", [], 12),        # dihedral of order 12
    ("SL", [7], 5040),     # A6
    ("Spin", [11], 3840),  # B5
    ("Spin", [13], 46080), # B6
    ("Sp", [10], 3840),    # C5
    ("Sp", [12], 46080),   # C6
    ("Spin", [10], 1920),  # D5
    ("Spin", [12], 23040), # D6
    ("E6sc", [], 51840),
    ("F4", [], 1152),
]


@pytest.mark.parametrize("tag,params,expected", ORDER_CASES)
def test_weyl_orders_match_closed_forms(tag, params, expected):
    # every irreducible type the catalog reaches up to semisimple rank 6; the
    # closure enumerator is the independent check on the orbit recursion
    datum = build_catalog_group(tag, params)
    assert weyl_group_order(datum) == expected
    assert weyl_order_by_closure(datum) == expected
    series, rank = classify_single(datum)
    assert weyl_order_closed_form(series, rank) == expected


def classify_single(datum):
    from innerforms.rootdata import classify

    dynkin = classify(datum)
    assert len(dynkin.components) == 1
    return dynkin.components[0]


def test_weyl_order_product():
    datum = build_catalog_group("GL", [3])
    assert weyl_group_order(datum) == 6


def test_weyl_order_e6():
    assert weyl_group_order(build_catalog_group("E6sc", [])) == 51840


def test_weyl_order_bound():
    with pytest.raises(EnumerationLimitError):
        weyl_group_order(build_catalog_group("E7sc", []))


@pytest.mark.parametrize(
    "series,rank",
    [("A", 8), ("B", 7), ("C", 5), ("D", 6), ("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2)],
)
def test_root_generation_matches_reflection_closure(series, rank):
    datum = simply_connected_datum(series, rank)
    roots = roots_by_closure(datum.cartan)
    positives = [coords for coords, _ in datum.positive_roots]
    assert set(positives) == {r for r in roots if all(c >= 0 for c in r)}
    assert len(positives) == positive_root_count(series, rank)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.sets(st.integers(0, 7)))
def test_root_generation_on_levi_subsystems(subset):
    datum = build_catalog_group("E8", [])
    levi = levi_datum(LeviDescriptor(datum, tuple(subset)))
    expected = sum(positive_root_count(s, r) for s, r in classify(levi).components)
    assert len(levi.positive_roots) == expected


@pytest.mark.parametrize("tag,params", [("GL", [5]), ("GSp", [8]), ("GSpin", [9]), ("Spin", [4])])
def test_orbit_recursion_on_reductive_and_reducible_groups(tag, params):
    datum = build_catalog_group(tag, params)
    assert weyl_group_order(datum) == weyl_order_by_closure(datum)


@pytest.mark.parametrize(
    "series,rank", [("E", 7), ("E", 8), ("A", 7), ("B", 8), ("C", 8), ("D", 8), ("F", 4)]
)
def test_orbit_product_beyond_enumeration_bound(series, rank):
    datum = simply_connected_datum(series, rank)
    assert orbit_product_order(datum) == weyl_order_closed_form(series, rank)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.sampled_from(["E8", "E7sc", "F4"]), st.sets(st.integers(0, 7)))
def test_orbit_product_on_parabolic_subgroups(tag, subset):
    # |W_S| is the product of the closed forms over the components of S
    datum = build_catalog_group(tag, [])
    subset = {s for s in subset if s < datum.semisimple_rank}
    levi = levi_datum(LeviDescriptor(datum, tuple(subset)))
    expected = prod(weyl_order_closed_form(s, r) for s, r in classify(levi).components)
    assert orbit_product_order(levi) == expected


# ---------------------------------------------------------------------------
# the representative w with w(theta) inside Delta


def test_find_w_theta_sl3():
    datum = build_catalog_group("SL", [3])
    word, image = find_w_theta(datum, [0])
    assert image == (1,)


def test_find_w_theta_full_theta_is_identity_on_delta():
    datum = build_catalog_group("Sp", [6])
    word, image = find_w_theta(datum, range(3))
    assert image == (0, 1, 2)


def test_find_w_theta_sp4_brute_force():
    datum = build_catalog_group("Sp", [4])
    word, image = find_w_theta(datum, [0])
    assert set(image) <= {0, 1}
    # brute force over all 8 elements: some element must map alpha_1 to a simple root,
    # and the chosen word does (checked through the independent matrix action).
    mat = word_matrix(datum, word)
    moved = tuple(
        sum(mat[i][j] * datum.simple_roots[0][j] for j in range(2)) for i in range(2)
    )
    assert moved in datum.simple_roots


CATALOG_RANK6 = (
    [("GL", [n]) for n in range(2, 8)]
    + [("SL", [n]) for n in range(2, 8)]
    + [("PGL", [n]) for n in range(2, 8)]
    + [("Sp", [2 * n]) for n in range(1, 7)]
    + [("GSp", [2 * n]) for n in range(1, 6)]
    + [("Spin", [m]) for m in (5, 7, 9, 11, 13, 8, 10, 12)]
    + [("GSpin", [m]) for m in (5, 7, 9, 11, 8, 10)]
    + [("SO", [m]) for m in (8, 10, 12)]
    + [("E6sc", []), ("F4", []), ("G2", [])]
)


def all_subsets(k):
    for mask in range(1 << k):
        yield [i for i in range(k) if mask & (1 << i)]


def test_find_w_theta_exhaustive_rank_le_6():
    from innerforms.levi import LeviDescriptor, levi_datum
    from innerforms.rootdata import classify

    for tag, params in CATALOG_RANK6:
        datum = build_catalog_group(tag, params)
        k = datum.semisimple_rank
        assert k <= 6
        for theta in all_subsets(k):
            word, image = find_w_theta(datum, theta)
            assert len(image) == len(theta)
            assert all(0 <= j < k for j in image)
            # independent verification through the character-lattice matrices
            mat = word_matrix(datum, word)
            simple = set(datum.simple_roots)
            for t in theta:
                root = datum.simple_roots[t]
                moved = tuple(
                    sum(mat[i][j] * root[j] for j in range(datum.rank))
                    for i in range(datum.rank)
                )
                assert moved in simple
            # the image generates a Levi of the same derived type
            before = classify(levi_datum(LeviDescriptor(datum, tuple(theta))))
            after = classify(levi_datum(LeviDescriptor(datum, image)))
            assert before == after


# ---------------------------------------------------------------------------
# reduced roots


def oracle_reduced_root_count(datum, theta):
    """Independent oracle: rational kernel + positive-proportionality classes."""
    rows = [list(datum.simple_roots[t]) for t in theta]
    basis = rational_kernel(rows, datum.rank)
    classes = []
    for coords, _ in datum.positive_roots:
        if {i for i, c in enumerate(coords) if c} <= set(theta):
            continue
        vec = coords_to_vector(datum, coords)
        restriction = [
            sum(Fraction(a) * b for a, b in zip(vec, col)) for col in basis
        ]
        for rep in classes:
            if proportional_positive(restriction, rep):
                break
        else:
            classes.append(restriction)
    return len(classes)


def test_reduced_roots_theta_delta_empty():
    datum = build_catalog_group("Sp", [6])
    assert reduced_roots(datum, range(3)) == []


def test_reduced_roots_sl3_full_torus():
    datum = build_catalog_group("SL", [3])
    rr = reduced_roots(datum, [])
    assert len(rr) == 3
    assert oracle_reduced_root_count(datum, []) == 3


def test_reduced_roots_sp4_siegel_adjacent():
    # the four positive roots of C2 restrict to one ray on the 1-dim split component
    datum = build_catalog_group("Sp", [4])
    rr = reduced_roots(datum, [0])
    assert oracle_reduced_root_count(datum, [0]) == 1
    assert len(rr) == 1
    assert len(rr[0].preimages) == 3


def test_reduced_roots_partition_and_nonproportional_maximal_theta():
    for tag, params in CATALOG_RANK6:
        datum = build_catalog_group(tag, params)
        k = datum.semisimple_rank
        if k == 0:
            continue
        for removed in range(k):
            theta = [i for i in range(k) if i != removed]
            rr = reduced_roots(datum, theta)
            # maximal theta: A_M is one-dimensional modulo the center
            assert len(rr) == 1
            assert oracle_reduced_root_count(datum, theta) == 1
            expected = [
                coords_to_vector(datum, c)
                for c, _ in datum.positive_roots
                if not {i for i, x in enumerate(c) if x} <= set(theta)
            ]
            assert sorted(rr[0].preimages) == sorted(expected)


def test_reduced_roots_partition_random_theta():
    datum = build_catalog_group("Sp", [8])
    for theta in ([0], [0, 2], [1, 3], [0, 1], []):
        rr = reduced_roots(datum, theta)
        seen = []
        for r in rr:
            seen.extend(r.preimages)
        expected = [
            coords_to_vector(datum, c)
            for c, _ in datum.positive_roots
            if not {i for i, x in enumerate(c) if x} <= set(theta)
        ]
        assert sorted(seen) == sorted(expected)
        assert len(set(seen)) == len(seen)
        assert oracle_reduced_root_count(datum, theta) == len(rr)
        for i, a in enumerate(rr):
            for b in rr[i + 1 :]:
                assert not proportional_positive(
                    [Fraction(x) for x in a.direction],
                    [Fraction(x) for x in b.direction],
                )


# ---------------------------------------------------------------------------
# rank-one decomposition


def test_rank_one_sl3_maximal():
    datum = build_catalog_group("SL", [3])
    decomposition = rank_one_decomposition(datum, [0])
    assert len(decomposition) == 1
    assert str(decomposition[0][1]) == "A2"


def test_rank_one_sl4_theta_13():
    # oracle: roots of A_3 vanishing on A_alpha form the whole A_3 system here
    datum = build_catalog_group("SL", [4])
    decomposition = rank_one_decomposition(datum, [0, 2])
    assert len(decomposition) == 1
    assert str(decomposition[0][1]) == "A3"


def test_rank_one_theta_delta_empty():
    datum = build_catalog_group("SL", [4])
    assert rank_one_decomposition(datum, range(3)) == []


def test_rank_one_groups_have_levi_as_maximal():
    # M is maximal in each M_alpha: the semisimple rank goes up by exactly one
    # (components of the Levi may merge, as in the SL_4 case above, so the
    # containment is a rank statement, not a component-multiset one)
    for tag, params, theta in [
        ("Sp", [6], [0]),
        ("Sp", [8], [0, 2]),
        ("Spin", [8], [0, 1]),
        ("SL", [5], [1, 3]),
        ("SL", [6], []),
    ]:
        datum = build_catalog_group(tag, params)
        for rr, m_alpha_type in rank_one_decomposition(datum, theta):
            assert m_alpha_type.semisimple_rank == len(theta) + 1
            assert m_alpha_type.torus_rank == datum.rank - len(theta) - 1


@pytest.mark.parametrize(
    "tag,params,theta",
    [
        ("Sp", [8], [0, 2]),
        ("Spin", [9], [1]),
        ("GSpin", [10], [0, 3]),
        ("SL", [6], [1, 2]),
        ("E6sc", [], [0, 2, 5]),
        ("E7sc", [], [1, 3]),
        ("E8", [], [0, 2, 3, 7]),
        ("F4", [], [1]),
        ("G2", [], []),
    ],
)
def test_rank_one_types_match_kernel_oracle(tag, params, theta):
    # members of M_alpha straight from the definition: the positive roots
    # vanishing on the rational kernel of theta's roots and one preimage
    datum = build_catalog_group(tag, params)
    positives = [coords_to_vector(datum, c) for c, _ in datum.positive_roots]
    theta_rows = [list(datum.simple_roots[t]) for t in theta]
    decomposition = rank_one_decomposition(datum, theta)
    assert [rr for rr, _ in decomposition] == reduced_roots(datum, theta)
    for rr, m_alpha_type in decomposition:
        a_alpha = rational_kernel(theta_rows + [list(rr.preimages[0])], datum.rank)
        members = [
            v for v in positives if all(sum(a * b for a, b in zip(v, y)) == 0 for y in a_alpha)
        ]
        count = sum(positive_root_count(s, r) for s, r in m_alpha_type.components)
        assert count == len(members)
        assert m_alpha_type.semisimple_rank == len(theta) + 1
        assert m_alpha_type.torus_rank == datum.rank - len(theta) - 1


def test_longest_word_properties():
    for tag, params in [("SL", [4]), ("Sp", [6]), ("Spin", [8]), ("G2", []), ("F4", [])]:
        datum = build_catalog_group(tag, params)
        k = datum.semisimple_rank
        positives = [coords for coords, _ in datum.positive_roots]
        word = WeylWord(datum.longest_element[1])
        assert len(word) == len(positives)
        cols = word_action(datum, word)
        for coords in positives:
            image = [sum(c * col[t] for c, col in zip(coords, cols)) for t in range(k)]
            assert all(c <= 0 for c in image)


def test_rank_one_exceptional_types():
    # maximal theta in G2 and F4: the single rank-one group is the whole group
    g2 = build_catalog_group("G2", [])
    decomposition = rank_one_decomposition(g2, [0])
    assert [str(t) for _, t in decomposition] == ["G2"]
    f4 = build_catalog_group("F4", [])
    decomposition = rank_one_decomposition(f4, [0, 1, 2])
    assert [str(t) for _, t in decomposition] == ["F4"]


def test_subsystem_coroots_normalized():
    # every root of a subsystem must pair to 2 against its own coroot, and to
    # integers against all roots of the ambient system
    for tag, params in [("Sp", [8]), ("Spin", [9]), ("F4", []), ("G2", []), ("Spin", [12])]:
        datum = build_catalog_group(tag, params)
        for coords, _ in datum.positive_roots:
            root = coords_to_vector(datum, coords)
            coroot = coroot_of(datum, coords)
            assert sum(a * b for a, b in zip(root, coroot)) == 2
            for other, _ in datum.positive_roots:
                vec = coords_to_vector(datum, other)
                pairing = sum(a * b for a, b in zip(vec, coroot))
                assert -3 <= pairing <= 3 or vec == root


# the Weyl part of the library benchmark: every rank up to 8 but B6 and D6
WEYL_LADDER = (
    [(("SL", [n]),) for n in range(2, 10)]
    + [(("Sp", [2 * r]),) for r in range(2, 9)]
    + [(("Spin", [2 * r + 1]),) for r in (2, 3, 4, 5, 7, 8)]
    + [(("Spin", [2 * r]),) for r in (4, 5, 7, 8)]
    + [((tag, []),) for tag in ("G2", "F4", "E6sc", "E7sc", "E8")]
)


@pytest.mark.parametrize(
    "factors",
    WEYL_LADDER + [(("G2", []), ("GSp", [6]))],
    ids=lambda factors: "x".join(f"{tag}{params}" for tag, params in factors),
)
def test_rank_one_types_match_subdatum_oracle(factors):
    # every theta: each rank-one type equals the type of the full-rank
    # sub-datum built from theta's simples plus the class's lowest preimage,
    # and the type read off the Cartan matrix of all those simples at once
    data = [build_catalog_group(tag, params) for tag, params in factors]
    datum = data[0] if len(data) == 1 else datum_product(data)
    k = datum.semisimple_rank
    coords_of = {vec: coords for coords, vec in datum.positive_roots}
    compared = 0
    for theta in all_subsets(k):
        theta_simples = [tuple(int(i == t) for i in range(k)) for t in theta]
        for rr, found in rank_one_decomposition(datum, theta):
            lowest = min((coords_of[v] for v in rr.preimages), key=sum)
            simples = theta_simples + [lowest]
            assert found == subsystem_type_by_subdatum(datum, simples), (theta, rr)
            assert found == subsystem_type(datum, simples), (theta, rr)
            compared += 1
    assert compared >= 2 ** k - 1


def test_subsystem_type_refuses_non_simple_roots():
    # 3 alpha_1 + alpha_2 is no root of A2: 2 B(x, alpha_1) / B(x, x) = 10/14;
    # alpha_1, alpha_2 and their sum are no set of simple roots of G2.  The
    # oracle and the rank-one path (theta's Cartan block and components plus
    # one row and column for beta) both refuse them.
    cases = [
        (("SL", [3]), [0], [([0], ("A", 1))], (3, 1), "not integral"),
        (("G2", []), [0, 1], [([0, 1], ("G", 2))], (1, 1), "positive off-diagonal"),
    ]
    for group, theta, comps, beta, message in cases:
        datum = build_catalog_group(*group)
        block = [[datum.cartan[s][t] for t in theta] for s in theta]
        with pytest.raises(DatumError, match=message):
            column, row = weyl._new_column_and_row(datum, theta, beta)
            weyl._rank_one_type(datum, block, comps, column, row)
        simples = [tuple(int(i == t) for i in range(len(beta))) for t in theta] + [beta]
        with pytest.raises(DatumError, match=message):
            subsystem_type(datum, simples)


def test_torus_edge_cases():
    torus = build_catalog_group("GL", [1])
    assert weyl_group_order(torus) == 1
    word, image = find_w_theta(torus, [])
    assert word.letters == () and image == ()
    assert reduced_roots(torus, []) == []


def test_weyl_word_validation():
    with pytest.raises(Exception):
        WeylWord((-1,))


# ---------------------------------------------------------------------------
# the Weyl layer against its first construction: a restriction per root and
# rank-one simples by pairwise sums (tests/oracles.py)


def check_first_construction(datum, theta):
    theta = tuple(theta)
    assert find_w_theta(datum, theta) == find_w_theta_by_replay(datum, theta)
    expected = rank_one_by_pairwise_sums(datum, theta)
    assert reduced_roots(datum, theta) == [rr for rr, _ in expected]
    assert rank_one_decomposition(datum, theta) == expected
    for _, preimages in restricted_classes_by_restriction(datum, theta):
        heights = [sum(c) for c in preimages]
        assert heights.count(min(heights)) == 1, f"two lowest roots in {preimages}"


def check_positive_roots(datum):
    coords = [c for c, _ in datum.positive_roots]
    assert coords == positive_roots_by_closure(datum)
    assert all(vec == coords_to_vector(datum, c) for c, vec in datum.positive_roots)
    expected = sum(positive_root_count(s, r) for s, r in classify(datum).components)
    assert len(datum.positive_roots) == expected


@pytest.mark.parametrize("tag,params", CATALOG_RANK6, ids=lambda x: str(x))
def test_weyl_layer_equals_first_construction_on_every_theta(tag, params):
    datum = build_catalog_group(tag, params)
    check_positive_roots(datum)
    for theta in all_subsets(datum.semisimple_rank):
        check_first_construction(datum, theta)


# rank 7 and 8: theta = {}, where every class is one root and every M_alpha
# is A1; every maximal theta, where |Delta - theta| = 1; and theta = Delta
RANK_7_8 = [("E7sc", []), ("E8", []), ("Sp", [16]), ("Spin", [16]), ("Spin", [17]), ("SL", [9])]


@pytest.mark.parametrize("tag,params", RANK_7_8, ids=lambda x: str(x))
def test_weyl_layer_equals_first_construction_at_rank_7_and_8(tag, params):
    datum = build_catalog_group(tag, params)
    k = datum.semisimple_rank
    assert k in (7, 8)
    check_positive_roots(datum)
    thetas = [[], list(range(k))] + [[i for i in range(k) if i != j] for j in range(k)]
    for theta in thetas:
        check_first_construction(datum, theta)


SAMPLED = (
    [(("E6sc", []),), (("E7sc", []),), (("E8", []),), (("F4", []),), (("G2", []),)]
    + [((tag, [n]),) for tag, n in (("GL", 9), ("SL", 9), ("PGL", 9), ("Sp", 14), ("Sp", 16))]
    + [((tag, [n]),) for tag, n in (("GSp", 14), ("Spin", 15), ("Spin", 17), ("Spin", 16))]
    + [((tag, [n]),) for tag, n in (("GSpin", 15), ("GSpin", 16), ("SO", 14), ("SO", 16))]
    + [(("G2", []), ("Sp", [6])), (("F4", []), ("SL", [3]))]
)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(st.sampled_from(SAMPLED), st.sets(st.integers(0, 7)))
def test_weyl_layer_equals_first_construction_on_sampled_theta(factors, subset):
    data = [build_catalog_group(tag, params) for tag, params in factors]
    datum = data[0] if len(data) == 1 else datum_product(data)
    check_positive_roots(datum)
    check_first_construction(datum, [t for t in subset if t < datum.semisimple_rank])


def test_weyl_layer_refuses_above_rank_limit():
    assert weyl.MAX_WEYL_RANK == 64
    for call in (find_w_theta, reduced_roots, rank_one_decomposition):
        datum = build_catalog_group("GL", [65])
        with pytest.raises(GroupSpecError, match="above the Weyl-layer limit of 64"):
            call(datum, ())
        assert "positive_roots" not in datum.__dict__
    # lattice rank 64 is admitted
    datum = build_catalog_group("GL", [64])
    assert reduced_roots(datum, range(63)) == []
    assert len(datum.positive_roots) == 63 * 64 // 2


@pytest.mark.parametrize("call", [find_w_theta, reduced_roots, rank_one_decomposition])
@pytest.mark.parametrize("theta", [(5,), (-1,), (0, 3)])
def test_weyl_layer_refuses_theta_out_of_range(call, theta):
    datum = build_catalog_group("SL", [4])
    with pytest.raises(DatumError, match=r"^theta \[.*\] out of range for 3 simple roots$"):
        call(datum, theta)


def test_rank_one_types_each_distinct_matrix_once(monkeypatch):
    # M_alpha's Cartan matrix is validated once per distinct new column and
    # row within a call; both are recomputed here from lattice vectors and
    # the coroot oracle
    runs = []
    validate = weyl.validate_cartan_matrix
    monkeypatch.setattr(
        weyl, "validate_cartan_matrix", lambda sub, nbrs: runs.append(len(sub)) or validate(sub, nbrs)
    )
    e8 = build_catalog_group("E8", [])
    assert len(rank_one_decomposition(e8, ())) == 120
    assert runs == [1]
    assert len(rank_one_decomposition(e8, [])) == 120
    assert runs == [1, 1]
    # Spin(17) at theta = {alpha_1}: a long and a short lowest root pair to -1
    # against alpha_1^vee, with rows -1 and -2 (A2 and C2)
    for group, theta, columns in [
        (("Spin", [17]), [0], 2),
        (("E8", []), [0, 2, 3, 5], None),
        (("F4", []), [0], 2),
        (("Sp", [16]), [1, 2, 5], None),
    ]:
        datum = build_catalog_group(*group)
        coords_of = {vec: coords for coords, vec in datum.positive_roots}
        runs.clear()
        decomposition = rank_one_decomposition(datum, theta)
        keys = set()
        for rr, _ in decomposition:
            lowest = min(rr.preimages, key=lambda vec: sum(coords_of[vec]))
            coroot = coroot_of(datum, coords_of[lowest])
            column = tuple(sum(map(mul, lowest, datum.simple_coroots[t])) for t in theta)
            row = tuple(sum(map(mul, datum.simple_roots[t], coroot)) for t in theta)
            keys.add((column, row))
        assert runs == [len(theta) + 1] * len(keys), group
        assert len(keys) < len(decomposition), group
        if columns is not None:
            assert len({column for column, _ in keys}) == columns < len(keys), group
