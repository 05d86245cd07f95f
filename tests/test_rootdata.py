import random
import re
import tracemalloc

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from innerforms.errors import DatumError, GroupSpecError
from innerforms.rootdata import (
    MAX_LATTICE_RANK,
    BasedRootDatum,
    ComponentLayout,
    FiniteAbelianGroup,
    adjoint_datum,
    build_catalog_group,
    cartan_matrix_of,
    change_basis,
    classify,
    cokernel_invariants,
    datum_product,
    det_int,
    diagonal_of,
    dual_datum,
    fundamental_group,
    mat_mul,
    simply_connected_datum,
    smith_normal_form,
    validate_cartan_matrix,
)
from oracles import (
    cartan_determinant_closed_form,
    cofactor_det,
    dense_cokernel_invariants,
    random_unimodular,
    symmetrizer_by_fractions,
    validate_cartan_dense,
)

GOLDEN_TYPES = [
    ("SL", [2], "A1"),
    ("SL", [5], "A4"),
    ("GL", [1], "0 (torus rank 1)"),
    ("GL", [3], "A2 (torus rank 1)"),
    ("PGL", [4], "A3"),
    ("Sp", [4], "C2"),
    ("Sp", [8], "C4"),
    ("GSp", [8], "C4 (torus rank 1)"),
    ("Spin", [3], "A1"),
    ("Spin", [5], "C2"),
    ("Spin", [7], "B3"),
    ("Spin", [9], "B4"),
    ("Spin", [4], "A1 + A1"),
    ("Spin", [6], "A3"),
    ("Spin", [8], "D4"),
    ("Spin", [12], "D6"),
    ("SO", [8], "D4"),
    ("SO", [4], "A1 + A1"),
    ("GSpin", [8], "D4 (torus rank 1)"),
    ("GSpin", [9], "B4 (torus rank 1)"),
    ("GSpin", [3], "A1 (torus rank 1)"),
    ("E6sc", [], "E6"),
    ("E7sc", [], "E7"),
    ("E8", [], "E8"),
    ("F4", [], "F4"),
    ("G2", [], "G2"),
]


@pytest.mark.parametrize("tag,params,expected", GOLDEN_TYPES)
def test_catalog_classification_golden(tag, params, expected):
    assert str(classify(build_catalog_group(tag, params))) == expected


def test_sl2_standard_convention():
    datum = build_catalog_group("SL", [2])
    assert datum.rank == 1
    assert datum.simple_roots == ((2,),)
    assert datum.simple_coroots == ((1,),)


def test_gl3_standard_convention():
    datum = build_catalog_group("GL", [3])
    assert datum.rank == 3
    assert datum.simple_roots == ((1, -1, 0), (0, 1, -1))
    assert datum.simple_coroots == datum.simple_roots


def test_sp4_matches_c2_cartan_oracle():
    datum = build_catalog_group("Sp", [4])
    # hand-written C2 Cartan matrix in the <alpha_j, alpha_i^vee> convention
    assert datum.cartan_matrix() == [[2, -2], [-1, 2]]


def test_gspin8_is_d4_with_one_dimensional_center():
    datum = build_catalog_group("GSpin", [8])
    dynkin = classify(datum)
    assert dynkin.components == (("D", 4),)
    assert dynkin.torus_rank == 1
    # reference D_4 adjacency: node 2 (0-based 1) joined to each of the others
    edges = {
        (i, j)
        for i in range(4)
        for j in datum.adjacency()[i]
        if i < j
    }
    assert edges == {(0, 1), (1, 2), (1, 3)}


@pytest.mark.parametrize(
    "tag,params",
    [("SL", [1]), ("GL", [0]), ("Sp", [3]), ("Sp", [0]), ("SO", [6, 1]), ("SO", [7]),
     ("Spin", [2]), ("PGL", [1]), ("Nope", [3]), ("E6sc", [2])],
)
def test_bad_parameters_raise(tag, params):
    with pytest.raises(GroupSpecError):
        build_catalog_group(tag, params)


def test_invalid_cartan_rejected():
    with pytest.raises(DatumError):
        BasedRootDatum(2, ((1, 0),), ((1, 0),), "bad-diagonal")
    with pytest.raises(DatumError):
        # positive off-diagonal entry
        BasedRootDatum(2, ((2, 1), (0, 2)), ((1, 0), (0, 1)), "bad-sign")
    with pytest.raises(DatumError):
        # bond multiplicity 4 is affine, not finite
        BasedRootDatum(2, ((2, -2), (-2, 2)), ((1, 0), (0, 1)), "affine")


def corrupted(series, rank, changes):
    c = cartan_matrix_of(series, rank)
    for (i, j), value in changes.items():
        c[i][j] = value
    return c


def dense_neighbours(c):
    return [[j for j, x in enumerate(row) if x and j != i] for i, row in enumerate(c)]


def datum_with_cartan(c):
    """Coroots the standard basis, roots the columns: the Cartan matrix is c."""
    k = len(c)
    roots = tuple(tuple(c[i][j] for i in range(k)) for j in range(k))
    coroots = tuple(tuple(int(i == j) for i in range(k)) for j in range(k))
    return BasedRootDatum(k, roots, coroots, "corrupted")


@pytest.mark.parametrize(
    "series,rank,changes,message",
    [
        ("A", 5, {(3, 3): 1}, "Cartan diagonal entry 1 != 2 at 3"),
        ("D", 5, {(4, 4): 0, (4, 2): 2}, "Cartan diagonal entry 0 != 2 at 4"),
        ("A", 5, {(1, 2): 1}, "positive off-diagonal Cartan entry at (1, 2)"),
        ("E", 6, {(5, 4): 1, (4, 5): 1}, "positive off-diagonal Cartan entry at (4, 5)"),
        ("A", 5, {(4, 1): -1}, "asymmetric zero pattern at (1, 4)"),
        ("B", 4, {(0, 1): 0}, "asymmetric zero pattern at (0, 1)"),
        ("A", 4, {(2, 0): -1, (0, 3): -2}, "asymmetric zero pattern at (0, 2)"),
        ("G", 2, {(0, 1): -4}, "bond multiplicity > 3 at (0, 1) (not finite type)"),
        ("F", 4, {(3, 2): -4, (2, 3): -2}, "bond multiplicity > 3 at (2, 3) (not finite type)"),
    ],
)
def test_corrupted_cartan_names_first_offending_pair(series, rank, changes, message):
    c = corrupted(series, rank, changes)
    assert validate_cartan_dense(c) == message
    with pytest.raises(DatumError, match=f"^{re.escape(message)}$"):
        validate_cartan_matrix(c, dense_neighbours(c))
    with pytest.raises(DatumError, match=f"^{re.escape(message)}$"):
        datum_with_cartan(c)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    st.sampled_from([("A", 6), ("B", 5), ("C", 4), ("D", 6), ("E", 7), ("F", 4), ("G", 2)]),
    st.data(),
)
def test_sparse_cartan_validation_matches_dense_scan(spec, data):
    c = cartan_matrix_of(*spec)
    k = len(c)
    for _ in range(data.draw(st.integers(1, 3))):
        i, j = data.draw(st.integers(0, k - 1)), data.draw(st.integers(0, k - 1))
        c[i][j] = data.draw(st.integers(-4, 3))
    message = validate_cartan_dense(c)
    if message is None:
        validate_cartan_matrix(c, dense_neighbours(c))
        return
    with pytest.raises(DatumError, match=f"^{re.escape(message)}$"):
        validate_cartan_matrix(c, dense_neighbours(c))
    with pytest.raises(DatumError, match=f"^{re.escape(message)}$"):
        datum_with_cartan(c)


def cartan_from_bonds(k, bonds):
    """k x k Cartan matrix with 2 on the diagonal and bonds {(i, j): (c_ij, c_ji)}."""
    c = [[2 if i == j else 0 for j in range(k)] for i in range(k)]
    for (i, j), (cij, cji) in bonds.items():
        c[i][j], c[j][i] = cij, cji
    return c


SIMPLE = (-1, -1)
DOUBLE = (-2, -1)
TRIPLE = (-3, -1)


# Each matrix passes the pairwise checks (diagonal 2, non-positive
# off-diagonal entries, symmetric zero pattern, bonds of multiplicity <= 3),
# so only the classification of the connected component can reject it.
@pytest.mark.parametrize(
    "k,bonds,message",
    [
        (3, {(0, 1): SIMPLE, (1, 2): SIMPLE, (0, 2): SIMPLE},
         "component [0, 1, 2] is not a tree"),
        (5, {(0, 1): SIMPLE, (0, 2): SIMPLE, (0, 3): SIMPLE, (0, 4): SIMPLE},
         "component [0, 1, 2, 3, 4]: node of degree > 3"),
        (6, {(0, 2): SIMPLE, (1, 2): SIMPLE, (2, 3): SIMPLE, (3, 4): SIMPLE, (3, 5): SIMPLE},
         "component [0, 1, 2, 3, 4, 5]: more than one branch node"),
        (3, {(0, 1): TRIPLE, (1, 2): SIMPLE},
         "component [0, 1, 2]: triple bond outside G2"),
        (4, {(0, 1): DOUBLE, (1, 2): SIMPLE, (2, 3): (-1, -2)},
         "component [0, 1, 2, 3]: unclassifiable double-bond layout"),
        (5, {(0, 2): SIMPLE, (1, 2): SIMPLE, (2, 3): SIMPLE, (3, 4): DOUBLE},
         "component [0, 1, 2, 3, 4]: unclassifiable double-bond layout"),
        (5, {(0, 1): SIMPLE, (1, 2): DOUBLE, (2, 3): SIMPLE, (3, 4): SIMPLE},
         "component [0, 1, 2, 3, 4]: interior double bond but not F4"),
        (8, {(0, 1): SIMPLE, (0, 2): SIMPLE, (2, 3): SIMPLE, (3, 4): SIMPLE,
             (0, 5): SIMPLE, (5, 6): SIMPLE, (6, 7): SIMPLE},
         "component [0, 1, 2, 3, 4, 5, 6, 7]: arms [1, 3, 3] not of finite type"),
        (7, {(0, 1): SIMPLE, (1, 2): SIMPLE, (0, 3): SIMPLE, (3, 4): SIMPLE,
             (0, 5): SIMPLE, (5, 6): SIMPLE},
         "component [0, 1, 2, 3, 4, 5, 6]: arms [2, 2, 2] not of finite type"),
        (9, {(0, 1): SIMPLE, (0, 2): SIMPLE, (2, 3): SIMPLE, (0, 4): SIMPLE,
             (4, 5): SIMPLE, (5, 6): SIMPLE, (6, 7): SIMPLE, (7, 8): SIMPLE},
         "component [0, 1, 2, 3, 4, 5, 6, 7, 8]: arms [1, 2, 5] not of finite type"),
    ],
)
def test_non_finite_components_rejected_by_classification(k, bonds, message):
    c = cartan_from_bonds(k, bonds)
    assert validate_cartan_dense(c) is None
    with pytest.raises(DatumError, match=f"^{re.escape(message)}$"):
        datum_with_cartan(c)


@pytest.mark.parametrize(
    "tag,params,layouts",
    [
        ("GL", [1], ()),
        ("SL", [2], (ComponentLayout("A", 1, (0,)),)),
        ("Sp", [8], (ComponentLayout("C", 4, (0, 1, 2, 3)),)),
        ("Spin", [9], (ComponentLayout("B", 4, (0, 1, 2, 3)),)),
        ("F4", [], (ComponentLayout("F", 4, (0, 1, 2, 3)),)),
        ("G2", [], (ComponentLayout("G", 2, (0, 1)),)),
        ("Spin", [4], (ComponentLayout("A", 1, (0,)), ComponentLayout("A", 1, (1,)))),
        ("Spin", [8], (ComponentLayout("D", 4, (0, 1, 2), 3, 1),)),
        ("Spin", [12], (ComponentLayout("D", 6, (0, 1, 2, 3, 4), 5, 3),)),
        # Bourbaki: chain alpha_1, alpha_3, alpha_4, ...; alpha_2 hangs below alpha_4
        ("E6sc", [], (ComponentLayout("E", 6, (0, 2, 3, 4, 5), 1, 2),)),
        ("E7sc", [], (ComponentLayout("E", 7, (0, 2, 3, 4, 5, 6), 1, 2),)),
        ("E8", [], (ComponentLayout("E", 8, (0, 2, 3, 4, 5, 6, 7), 1, 2),)),
    ],
)
def test_catalog_component_layouts(tag, params, layouts):
    datum = build_catalog_group(tag, params)
    assert datum.layouts == layouts
    assert tuple(layout.label for layout in layouts) == datum.dynkin_type.components


@pytest.mark.parametrize(
    "series,rank,layout",
    [
        # numbered backwards, the fork nodes of D5 are 0 and 1: 1 hangs
        ("D", 5, ComponentLayout("D", 5, (4, 3, 2, 0), 1, 2)),
        # E6 backwards: alpha_2 is node 4; the two length-2 arms tie, so the
        # one through the smaller neighbour of the branch node comes first
        ("E", 6, ComponentLayout("E", 6, (0, 1, 2, 3, 5), 4, 2)),
        ("B", 4, ComponentLayout("B", 4, (0, 1, 2, 3))),
        ("A", 5, ComponentLayout("A", 5, (0, 1, 2, 3, 4))),
    ],
)
def test_layout_of_backwards_numbered_diagram(series, rank, layout):
    c = cartan_matrix_of(series, rank)
    assert datum_with_cartan([row[::-1] for row in c[::-1]]).layouts == (layout,)


@pytest.mark.parametrize(
    "tag,series,ladder",
    [
        ("GL", "A", range(2, 42)),
        ("Sp", "C", range(4, 82, 2)),
        ("GSp", "C", range(4, 82, 2)),
        ("GSpin", "B", range(5, 82, 2)),
        ("GSpin", "D", range(8, 82, 2)),
        ("SO", "D", range(8, 82, 2)),
    ],
)
def test_classical_constructors_realize_bourbaki_cartan(tag, series, ladder):
    # the chain e_i - e_{i+1} plus each family's tail gives the Bourbaki
    # Cartan matrix in Bourbaki order, at every rank up to 40
    for n in ladder:
        rank = n - 1 if tag == "GL" else n // 2
        datum = build_catalog_group(tag, [n])
        assert datum.cartan_matrix() == cartan_matrix_of(series, rank), (tag, n)


def test_root_coroot_count_mismatch():
    with pytest.raises(DatumError):
        BasedRootDatum(2, ((2, 0),), (), "mismatch")


# ---------------------------------------------------------------------------
# Smith normal form


def test_snf_identity():
    u, d, v = smith_normal_form([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    assert d == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]


def test_snf_a1_cartan():
    _, d, _ = smith_normal_form([[2]])
    assert d == [[2]]


def test_snf_a4_cartan_diagonal():
    cartan = [
        [2, -1, 0, 0],
        [-1, 2, -1, 0],
        [0, -1, 2, -1],
        [0, 0, -1, 2],
    ]
    # oracle: |det| of the A_{n-1} Cartan matrix is n
    assert cofactor_det(cartan) == 5
    _, d, _ = smith_normal_form(cartan)
    assert diagonal_of(d) == [1, 1, 1, 5]


def test_snf_random_decomposition_property():
    rng = random.Random(20240817)
    for _ in range(1000):
        rows = rng.randint(1, 6)
        cols = rng.randint(1, 6)
        m = [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]
        u, d, v = smith_normal_form(m)
        assert mat_mul(mat_mul(u, m), v) == d
        assert abs(cofactor_det(u)) == 1
        assert abs(cofactor_det(v)) == 1
        diag = diagonal_of(d)
        assert all(x >= 0 for x in diag)
        nonzero = [x for x in diag if x]
        for a, b in zip(nonzero, nonzero[1:]):
            assert b % a == 0
        # off-diagonal must vanish
        for i, row in enumerate(d):
            for j, x in enumerate(row):
                if i != j:
                    assert x == 0


def test_snf_entry_growth_regression():
    # naive Euclidean sweeps without re-pivoting blow up to thousands of
    # digits on this matrix; Rosser pivoting must finish it immediately
    m = [
        [42, -40, -11, -40, 74, -43, 95, 18],
        [-25, -94, 7, 43, 65, -74, -52, 62],
        [86, -24, -69, 91, -14, 85, 83, 29],
        [9, 30, 72, -51, -22, -27, 51, 28],
        [30, 1, 51, -91, 23, -37, 91, 4],
        [7, 71, -55, -6, 41, 80, 99, 73],
        [89, -4, -77, 13, 70, 31, -72, -58],
        [34, 1, -5, 26, 88, -92, 21, -88],
    ]
    u, d, v = smith_normal_form(m)
    assert mat_mul(mat_mul(u, m), v) == d
    diag = diagonal_of(d)
    assert diag[:7] == [1] * 7
    assert diag[7] == abs(cofactor_det(m))


def test_snf_larger_random_sweep():
    rng = random.Random(77)
    for _ in range(150):
        rows = rng.randint(1, 10)
        cols = rng.randint(1, 10)
        m = [[rng.randint(-99, 99) for _ in range(cols)] for _ in range(rows)]
        u, d, v = smith_normal_form(m)
        assert mat_mul(mat_mul(u, m), v) == d
        nonzero = [x for x in diagonal_of(d) if x]
        for a, b in zip(nonzero, nonzero[1:]):
            assert b % a == 0


def test_snf_structured_cases():
    cases = {
        ((2, 4, 6), (4, 8, 12), (6, 12, 18)): [2, 0, 0],
        ((6, 0, 0), (0, 10, 0), (0, 0, 15)): [1, 30, 30],
        ((10**12, 3), (7, 10**12)): [1, 10**24 - 21],
    }
    for m, expected in cases.items():
        rows = [list(r) for r in m]
        u, d, v = smith_normal_form(rows)
        assert mat_mul(mat_mul(u, rows), v) == d
        assert diagonal_of(d) == expected


def test_snf_zero_and_rectangular():
    u, d, v = smith_normal_form([[0, 0], [0, 0], [0, 0]])
    assert d == [[0, 0], [0, 0], [0, 0]]
    u, d, v = smith_normal_form([[4, 6]])
    assert diagonal_of(d) == [2]


def matrices(entries):
    """Rectangular matrices (including empty, zero-row and zero-column ones) as row tuples."""
    return st.integers(0, 8).flatmap(
        lambda n: st.tuples(
            st.just(n), st.lists(st.tuples(*[entries] * n), min_size=0, max_size=9)
        )
    )


UNIT_HEAVY = st.sampled_from([0, 0, 0, 0, 1, -1, 1, -1, 2, -2, 3])
NO_UNITS = st.sampled_from([0, 0, 2, -2, 3, 4, -6, 9, 12])


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.one_of(matrices(UNIT_HEAVY), matrices(NO_UNITS), matrices(st.integers(-7, 7))))
def test_cokernel_invariants_match_dense_snf(shape):
    n, rows = shape
    assert cokernel_invariants(rows, n) == dense_cokernel_invariants(rows, n)


def test_cokernel_invariants_edge_cases():
    assert cokernel_invariants([], 3) == ([], 3)
    assert cokernel_invariants([(), ()], 0) == ([], 0)
    assert cokernel_invariants([(0, 0, 0)] * 2, 3) == ([], 3)
    assert cokernel_invariants([(2, 0, 0), (0, 0, 4)], 3) == ([2, 4], 1)
    # a unit pivot that leaves a B/C tail's 2 for the dense finish
    assert cokernel_invariants([(1, -1, 0), (0, 1, -1), (0, 0, 2)], 3) == ([2], 0)
    assert cokernel_invariants([(2, 4), (6, 8)], 2) == ([2, 4], 0)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(matrices(st.integers(-4, 4)), st.integers(0, 2**32 - 1))
def test_cokernel_invariants_unimodular_invariance(shape, seed):
    n, rows = shape
    assume(rows and n)
    rng = random.Random(seed)
    left, right = random_unimodular(len(rows), rng), random_unimodular(n, rng)
    moved = mat_mul(mat_mul(left, [list(r) for r in rows]), right)
    assert cokernel_invariants([tuple(r) for r in moved], n) == cokernel_invariants(rows, n)


# ---------------------------------------------------------------------------
# fundamental groups


def test_fundamental_group_simply_connected_trivial():
    for tag, params in [("SL", [5]), ("Sp", [8]), ("Spin", [9]), ("Spin", [8]),
                        ("E6sc", []), ("E7sc", []), ("E8", []), ("F4", []), ("G2", [])]:
        assert fundamental_group(build_catalog_group(tag, params)).is_trivial


def test_fundamental_group_pgl_n():
    for n in range(2, 9):
        group = fundamental_group(build_catalog_group("PGL", [n]))
        assert group.invariant_factors == (n,)
        assert group.order == n


def test_fundamental_group_adjoint_d4():
    group = fundamental_group(adjoint_datum("D", 4))
    assert group.invariant_factors == (2, 2)


def test_fundamental_group_so_2n():
    assert fundamental_group(build_catalog_group("SO", [10])).invariant_factors == (2,)


IRREDUCIBLE_TYPES = (
    [("A", r) for r in range(1, 9)]
    + [("B", r) for r in range(3, 9)]
    + [("C", r) for r in range(2, 9)]
    + [("D", r) for r in range(4, 9)]
    + [("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2)]
)


@pytest.mark.parametrize("series,rank", IRREDUCIBLE_TYPES)
def test_adjoint_fundamental_group_order_is_cartan_determinant(series, rank):
    datum = adjoint_datum(series, rank)
    det = abs(cofactor_det(datum.cartan_matrix()))
    assert det == cartan_determinant_closed_form(series, rank)
    assert fundamental_group(datum).order == det


@pytest.mark.parametrize("rank", [2, 3, 8, 17, 64, 129, 256])
def test_fundamental_group_rank_ladder(rank):
    # PGL: pi_1 is cyclic of order |det Cartan|; the simply connected forms
    # have trivial pi_1, and their adjoint forms have order |det Cartan|
    pgl = fundamental_group(build_catalog_group("PGL", [rank + 1]))
    assert pgl.invariant_factors == (cartan_determinant_closed_form("A", rank),)
    for tag, param, series in [("SL", rank + 1, "A"), ("Sp", 2 * rank, "C"),
                               ("Spin", 2 * rank + 1, "B"), ("Spin", 2 * rank, "D")]:
        if series in "BD" and rank < 4:
            continue
        assert fundamental_group(build_catalog_group(tag, [param])).is_trivial
        assert fundamental_group(adjoint_datum(series, rank)).order == (
            cartan_determinant_closed_form(series, rank)
        )


def test_fundamental_group_unimodular_invariance():
    rng = random.Random(11)
    for tag, params in [("PGL", [6]), ("SO", [8]), ("GSp", [6]), ("GL", [4])]:
        datum = build_catalog_group(tag, params)
        base = fundamental_group(datum)
        for _ in range(10):
            u = random_unimodular(datum.rank, rng)
            assert det_int(u) in (1, -1)
            moved = change_basis(datum, u)
            assert fundamental_group(moved).invariant_factors == base.invariant_factors


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    st.sampled_from([("GL", [5]), ("GSp", [8]), ("GSpin", [10]), ("PGL", [4]), ("E6sc", []),
                     ("F4", []), ("G2", []), ("Spin", [4]), ("SO", [8])]),
    st.integers(0, 2**32 - 1),
)
def test_cartan_matrix_matches_dense_pairing_after_basis_change(spec, seed):
    tag, params = spec
    base = build_catalog_group(tag, params)
    datum = change_basis(base, random_unimodular(base.rank, random.Random(seed), steps=20))
    k = datum.semisimple_rank
    dense = [
        [sum(a * b for a, b in zip(datum.simple_roots[j], datum.simple_coroots[i]))
         for j in range(k)]
        for i in range(k)
    ]
    adjacency = [[j for j in range(k) if j != i and dense[i][j]] for i in range(k)]
    assert datum.cartan_matrix() == dense == base.cartan_matrix()
    assert datum.adjacency() == adjacency
    # the returned lists are copies: mutating them leaves the datum unchanged
    cartan = datum.cartan_matrix()
    cartan[0][0] = 7
    cartan.append([0] * k)
    nbrs = datum.adjacency()
    nbrs[0].append(k + 5)
    assert datum.cartan_matrix() == dense
    assert datum.adjacency() == adjacency
    assert classify(datum) == classify(base)


@pytest.mark.parametrize(
    "tag,params,expected",
    [("Sp", [6], (1, 1, 2)), ("Spin", [7], (2, 2, 1)), ("G2", [], (1, 3)),
     ("F4", [], (2, 2, 1, 1)), ("GL", [4], (1, 1, 1)), ("GL", [1], ())],
)
def test_symmetrizer_symmetrizes_cartan(tag, params, expected):
    datum = build_catalog_group(tag, params)
    d, cartan = datum.symmetrizer, datum.cartan
    assert d == expected
    k = datum.semisimple_rank
    assert all(d[i] * cartan[i][j] == d[j] * cartan[j][i] for i in range(k) for j in range(k))


# every parametric catalog tag, with the parameters of semisimple rank r
CATALOG_AT_RANK = {
    "GL": lambda r: [r + 1], "SL": lambda r: [r + 1], "PGL": lambda r: [r + 1],
    "Sp": lambda r: [2 * r], "GSp": lambda r: [2 * r], "Spin": lambda r: [2 * r + 1],
    "GSpin": lambda r: [2 * r], "SO": lambda r: [2 * r],
}


def catalog_up_to_rank(top: int):
    for tag, params_at in CATALOG_AT_RANK.items():
        for r in range(1, top + 1):
            try:
                yield build_catalog_group(tag, params_at(r))
            except GroupSpecError:  # e.g. SO(2) or GSpin(2): outside the tag's domain
                continue
    for tag in ("E6sc", "E7sc", "E8", "F4", "G2"):
        yield build_catalog_group(tag, [])


def test_integer_symmetrizer_matches_rational_oracle_on_catalog():
    data = list(catalog_up_to_rank(40))
    assert len(data) > 300
    for datum in data:
        assert datum.symmetrizer == symmetrizer_by_fractions(datum), datum.name


@settings(max_examples=120, deadline=None, derandomize=True)
@given(st.lists(st.sampled_from([("G2", []), ("F4", []), ("Sp", [6]), ("Spin", [7]), ("GL", [3]),
                                 ("E6sc", []), ("GSp", [4]), ("SO", [8]), ("GL", [1])]),
                min_size=2, max_size=4))
def test_integer_symmetrizer_matches_rational_oracle_on_products(specs):
    # components with different scales share one lcm, as the oracle's
    datum = datum_product([build_catalog_group(tag, params) for tag, params in specs])
    assert datum.symmetrizer == symmetrizer_by_fractions(datum)


def test_dual_datum_involution():
    for tag, params in [("SL", [4]), ("GSp", [6]), ("SO", [8]), ("F4", [])]:
        datum = build_catalog_group(tag, params)
        double = dual_datum(dual_datum(datum))
        assert double.simple_roots == datum.simple_roots
        assert double.simple_coroots == datum.simple_coroots


def test_product_and_json_round_trip():
    datum = datum_product(
        [build_catalog_group("GL", [3]), build_catalog_group("GL", [2])]
    )
    assert datum.rank == 5
    assert str(classify(datum)) == "A1 + A2 (torus rank 2)"
    back = BasedRootDatum.from_json(datum.to_json())
    assert back == datum


def test_finite_abelian_group_validation():
    assert FiniteAbelianGroup(()).order == 1
    assert str(FiniteAbelianGroup((2, 4))) == "Z/2 x Z/4"
    with pytest.raises(DatumError):
        FiniteAbelianGroup((1,))
    with pytest.raises(DatumError):
        FiniteAbelianGroup((2, 3))


def test_simply_connected_matches_catalog_realizations():
    # same Dynkin type through a completely different coordinate realization
    assert str(classify(simply_connected_datum("B", 4))) == "B4"
    assert str(classify(build_catalog_group("Spin", [9]))) == "B4"


def allocated_peak(call) -> int:
    """Peak bytes traced while ``call`` runs; it must raise GroupSpecError."""
    tracemalloc.start()
    try:
        with pytest.raises(GroupSpecError, match="above the limit"):
            call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_lattice_rank_cap_refuses_before_allocating():
    assert allocated_peak(lambda: build_catalog_group("GL", [10**9])) < 100_000
    halves = [BasedRootDatum(MAX_LATTICE_RANK // 2 + 1, (), ()) for _ in range(2)]
    assert allocated_peak(lambda: datum_product(halves)) < 100_000


@pytest.mark.parametrize(
    "tag,param",
    [("GL", 1025), ("SL", 1026), ("PGL", 1026), ("Sp", 2050), ("GSp", 2048),
     ("Spin", 2050), ("Spin", 2051), ("GSpin", 2048), ("GSpin", 2049), ("SO", 2050)],
)
def test_lattice_rank_cap_per_tag(tag, param):
    with pytest.raises(GroupSpecError, match=f"lattice rank {MAX_LATTICE_RANK + 1}"):
        build_catalog_group(tag, [param])


def test_lattice_rank_cap_is_inclusive():
    assert datum_product([BasedRootDatum(MAX_LATTICE_RANK // 2, (), ())] * 2).rank == 1024
    assert build_catalog_group("GL", [MAX_LATTICE_RANK]).rank == MAX_LATTICE_RANK
