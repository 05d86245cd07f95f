"""Weyl group computations on based root data.

Roots are manipulated in simple-root coordinates (integer vectors indexed by
Delta), so positivity is coordinatewise nonnegativity and every reflection
is Cartan-matrix arithmetic.  The positive roots and w_{l,Delta} come from
the datum, which computes them once (``BasedRootDatum.positive_roots`` and
``longest_element``).  Weyl group orders come from the parabolic orbit
recursion; ``weyl_group_order`` keeps its documented bound of semisimple
rank 6.  ``find_w_theta``, ``reduced_roots`` and ``rank_one_decomposition``
refuse data above lattice rank :data:`MAX_WEYL_RANK` and indices of theta
outside Delta.  Within one call, the restricted directions come from one
sparse image in A_M-coordinates per simple root off theta, and each rank-one
type M_alpha is computed once per distinct new Cartan column and row.
"""

from __future__ import annotations

from itertools import compress
from math import gcd
from operator import itemgetter

from ._record import Record
from .errors import DatumError, EnumerationLimitError, GroupSpecError
from .rootdata import (
    BasedRootDatum,
    DynkinType,
    Vector,
    cartan_neighbours,
    check_theta,
    component_layout,
    dynkin_components,
    integer_kernel_basis,
    validate_cartan_matrix,
)

ENUMERATION_RANK_BOUND = 6

#: Largest lattice rank the Weyl layer accepts.  Sp(128) and Spin(129), with
#: 4,096 positive roots, are the largest admitted root systems.
MAX_WEYL_RANK = 64


def _check_weyl_rank(datum: BasedRootDatum) -> None:
    """Raise GroupSpecError above :data:`MAX_WEYL_RANK`, before any root is generated."""
    if datum.rank > MAX_WEYL_RANK:
        raise GroupSpecError(
            f"{datum.name or 'datum'} has lattice rank {datum.rank}, above the Weyl-layer"
            f" limit of {MAX_WEYL_RANK}"
        )


class WeylWord(Record):
    """Word in the simple reflections, 0-based indices into Delta."""

    letters: tuple[int, ...]

    def __post_init__(self):
        if any(i < 0 for i in self.letters):
            raise DatumError("negative reflection index")

    def __len__(self) -> int:
        return len(self.letters)


class RestrictedRoot(Record):
    """A reduced root of P with respect to the split component of the Levi.

    ``direction`` is a primitive integer vector in A_M-coordinates;
    ``preimages`` collects the roots of G (ambient coordinates) that restrict
    to a positive multiple of it.
    """

    direction: Vector
    preimages: tuple[Vector, ...]

    def __post_init__(self):
        if gcd(*self.direction) != 1:
            raise DatumError(f"direction {self.direction} is not primitive")
        if not self.preimages:
            raise DatumError("restricted root with no preimages")


# ---------------------------------------------------------------------------
# group order by the parabolic orbit recursion


def weyl_group_order(datum: BasedRootDatum) -> int:
    """Order of the Weyl group, as a product of fundamental-weight orbit sizes.

    See :func:`orbit_product_order`.  Raises EnumerationLimitError above
    semisimple rank 6: the bound is kept as the documented limit of this
    layer, although the recursion itself stays cheap beyond it.
    """
    k = datum.semisimple_rank
    if k > ENUMERATION_RANK_BOUND:
        raise EnumerationLimitError(
            f"semisimple rank {k} exceeds the enumeration bound {ENUMERATION_RANK_BOUND}"
        )
    return orbit_product_order(datum)


def orbit_product_order(datum: BasedRootDatum) -> int:
    """Order of the Weyl group, with no rank bound.

    Uses |W_S| = |W_S . omega_s| * |W_{S - s}|: the stabilizer of a fundamental
    weight omega_s in W_S is the parabolic subgroup W_{S - s} (Bourbaki, Lie
    groups VI 1.10; Humphreys, Reflection Groups 1.12).  Each connected
    component sheds its least end node at a time, so what is left stays
    connected; in Bourbaki numbering that keeps B_{n-1}, C_{n-1} and D_{n-1}.
    """
    cartan = datum.cartan
    order = 1
    for comp in dynkin_components(datum.neighbours):
        nodes = set(comp)
        while nodes:
            s = min(v for v in nodes if sum(w in nodes for w in datum.neighbours[v]) <= 1)
            order *= _fundamental_orbit_size(cartan, sorted(nodes), s)
            nodes.remove(s)
    return order


def _fundamental_orbit_size(cartan, nodes: list[int], s: int) -> int:
    """|W_S . omega_s| by a breadth-first search in weight coordinates.

    s_j(lambda) = lambda - lambda_j alpha_j, and alpha_j has weight coordinates
    C[i][j].  From a dominant weight every orbit element is reached by
    reflecting only where lambda_j > 0, so each step strictly descends.
    """
    local = {v: i for i, v in enumerate(nodes)}
    columns = [[(local[i], cartan[i][j]) for i in nodes if cartan[i][j]] for j in nodes]
    start = tuple(1 if v == s else 0 for v in nodes)
    seen = {start}
    frontier = [start]
    while frontier:
        new = []
        for weight in frontier:
            for j, column in enumerate(columns):
                x = weight[j]
                if x > 0:
                    image = list(weight)
                    for i, c in column:
                        image[i] -= x * c
                    image = tuple(image)
                    if image not in seen:
                        seen.add(image)
                        new.append(image)
        frontier = new
    return len(seen)


# ---------------------------------------------------------------------------
# longest elements and the representative mapping theta into Delta


def _right_multiply(cartan, cols: list[Vector], j: int) -> None:
    # (w s_j)(alpha_i) = w(alpha_i) - C[j][i] w(alpha_j) for every i
    old = cols[j]
    for i, c in enumerate(cartan[j]):
        if c:
            cols[i] = tuple(x - c * y for x, y in zip(cols[i], old))


def _greedy_longest(datum: BasedRootDatum, subset) -> tuple[list[Vector], list[int]]:
    """The longest element of W_subset: its columns w(alpha_j), in simple-root
    coordinates, and a reduced word.

    Greedy exchange: while some simple root of the subset is kept positive,
    multiply by that reflection on the right (least index first).  The word
    length equals the number of positive roots of the subsystem.
    """
    k = datum.semisimple_rank
    cols = [tuple(1 if i == j else 0 for i in range(k)) for j in range(k)]
    word: list[int] = []
    while True:
        for j in subset:
            if min(cols[j]) >= 0:
                break
        else:
            return cols, word
        _right_multiply(datum.cartan, cols, j)
        word.append(j)


def find_w_theta(datum: BasedRootDatum, theta) -> tuple[WeylWord, tuple[int, ...]]:
    """The representative w = w_{l,Delta} w_{l,theta} with w(theta) inside Delta.

    Returns the word and the image subset (0-based indices into Delta), after
    verifying by explicit action that every root of theta lands on a simple
    root: a copy of the datum's columns of w_{l,Delta}
    (``BasedRootDatum.longest_element``, computed once per datum) is
    right-multiplied by the letters of w_{l,theta}.
    """
    _check_weyl_rank(datum)
    theta = check_theta(datum, theta)
    cols, letters = datum.longest_element
    cols = list(cols)
    _, theta_letters = _greedy_longest(datum, theta)
    for letter in theta_letters:
        _right_multiply(datum.cartan, cols, letter)
    image = []
    for t in theta:
        img = cols[t]
        if min(img) < 0 or sum(img) != 1:
            raise DatumError(
                f"w(alpha_{t}) = {img} is not a simple root; construction violated"
            )
        image.append(img.index(1))
    return WeylWord(letters + tuple(theta_letters)), tuple(sorted(image))


# ---------------------------------------------------------------------------
# restricted roots and the rank-one decomposition


def split_component_basis(datum: BasedRootDatum, theta) -> list[Vector]:
    """Basis of the cocharacter lattice of A_M (integer annihilator of theta's roots).

    Raises DatumError on an index of theta outside Delta.
    """
    rows = [datum.simple_roots[t] for t in check_theta(datum, theta)]
    return integer_kernel_basis(rows, datum.rank)


def _primitive(v: Vector) -> Vector:
    g = gcd(*v)
    return tuple(x // g for x in v) if g > 1 else v


def _restricted_classes(datum: BasedRootDatum, theta: tuple[int, ...]):
    """The positive roots off theta, grouped by their restriction to A_M.

    The restrictions of the alpha_i with i not in theta are linearly
    independent, since X^*(A_M)_Q = X^*(T)_Q / span(theta).  So two roots
    restrict to positive multiples of one direction exactly when their
    coefficient patterns off theta are proportional: each class is keyed by
    that primitive pattern.  Restriction is linear and kills theta's roots,
    so a class's direction is the primitive vector of sum_i pattern_i r_i,
    with r_i the A_M-coordinates of alpha_i, computed once per call and kept
    sparse.  Returns, in direction order, the pairs (RestrictedRoot,
    simple-root coordinates of its preimages).
    """
    theta_set = set(theta)
    off = [i for i in range(datum.semisimple_rank) if i not in theta_set]
    if not off:
        return []
    if len(off) > 1:
        off_coords = itemgetter(*off)
    else:
        off_coords = lambda coords, i=off[0]: (coords[i],)  # noqa: E731
    classes: dict[Vector, tuple[list[Vector], list[Vector]]] = {}
    for coords, vec in datum.positive_roots:
        pattern = _primitive(off_coords(coords))
        if any(pattern):
            members = classes.get(pattern)
            if members is None:
                classes[pattern] = members = ([], [])
            members[0].append(coords)
            members[1].append(vec)
    basis = split_component_basis(datum, theta)
    images = []
    for i in off:
        root = [(a, x) for a, x in enumerate(datum.simple_roots[i]) if x]
        image = ((j, sum(x * col[a] for a, x in root)) for j, col in enumerate(basis))
        images.append([(j, y) for j, y in image if y])
    pairs = []
    for pattern, (coords, vecs) in classes.items():
        direction = [0] * len(basis)
        for p, image in zip(pattern, images):
            if p:
                for j, y in image:
                    direction[j] += p * y
        preimages = tuple(vecs) if len(vecs) == 1 else tuple(sorted(vecs))
        pairs.append((RestrictedRoot(_primitive(tuple(direction)), preimages), coords))
    pairs.sort(key=lambda pair: pair[0].direction)
    return pairs


def reduced_roots(datum: BasedRootDatum, theta) -> list[RestrictedRoot]:
    """The reduced roots of P_theta with respect to A_M.

    Positive roots not supported on theta are grouped by positive-rational
    proportionality of their restrictions to A_M (alpha and 2 alpha collapse
    into one class).  The classes partition the restricted roots.  Raises
    GroupSpecError above lattice rank :data:`MAX_WEYL_RANK` and DatumError
    on an index of theta outside Delta.

    At theta = {} each class is one positive root, whose direction is its
    primitive lattice vector:

    >>> from innerforms.rootdata import build_catalog_group
    >>> [(rr.direction, rr.preimages) for rr in reduced_roots(build_catalog_group("SL", [3]), ())]
    [((-1, 2), ((-1, 2),)), ((1, 1), ((1, 1),)), ((2, -1), ((2, -1),))]
    """
    _check_weyl_rank(datum)
    theta = check_theta(datum, theta)
    return [rr for rr, _ in _restricted_classes(datum, theta)]


def rank_one_decomposition(
    datum: BasedRootDatum, theta
) -> list[tuple[RestrictedRoot, DynkinType]]:
    """For each reduced root, the type of the rank-one group M_alpha = Z_G(A_alpha).

    A_alpha is the identity component of (ker alpha) inside A_M; its
    centralizer is the subsystem of roots vanishing on A_alpha, classified
    together with the ambient torus rank.  Its positive roots are theta's
    roots plus the preimages of alpha, and its simple roots are theta's simple
    roots plus the lowest (least-height) preimage.  The preimages with one
    off-theta pattern form an irreducible M_theta-module (Azad-Barry-Seitz,
    Comm. Algebra 18, 1990), so each is the lowest one plus simple roots of
    theta, and the subsystem has rank |theta| + 1.  Directly: the lowest
    preimage is no sum of two members, whose patterns would be 0 and its own;
    simple roots are independent, so it is unique and there is no other.

    Each M_alpha's Cartan matrix is theta's block of ``datum.cartan`` plus one
    row and column for the lowest preimage (:func:`_new_column_and_row`, whose
    integrality is checked for every class).  The type depends on nothing
    else, so it is cached per distinct (column, row) within the call: only on
    a miss is the matrix built, validated and walked, and then only the
    component the new root joins; theta's components keep their labels.  At
    theta = {} every class is A1 and one matrix is typed.  The directions come
    from one sparse image per simple root off theta.

    >>> from innerforms.rootdata import build_catalog_group
    >>> [(rr, m_alpha)] = rank_one_decomposition(build_catalog_group("Sp", [6]), (1, 2))
    >>> rr.preimages
    ((1, -1, 0), (1, 0, -1), (1, 0, 1), (1, 1, 0), (2, 0, 0))
    >>> str(m_alpha)
    'C3'
    """
    _check_weyl_rank(datum)
    theta = check_theta(datum, theta)
    cartan, neighbours = datum.cartan, datum.neighbours
    block = [[cartan[s][t] for t in theta] for s in theta]
    local = {t: i for i, t in enumerate(theta)}
    theta_comps = [
        ([local[v] for v in comp], component_layout(cartan, neighbours, comp).label)
        for comp in dynkin_components(neighbours, theta)
    ]
    types: dict[tuple[Vector, Vector], DynkinType] = {}
    out = []
    for rr, preimages in _restricted_classes(datum, theta):
        key = _new_column_and_row(datum, theta, min(preimages, key=sum))
        m_alpha = types.get(key)
        if m_alpha is None:
            types[key] = m_alpha = _rank_one_type(datum, block, theta_comps, *key)
        out.append((rr, m_alpha))
    return out


def _new_column_and_row(datum: BasedRootDatum, theta: tuple[int, ...], beta: Vector):
    """The Cartan entries joining ``beta`` (simple-root coordinates) to theta.

    The column is <beta, alpha_t^vee> = sum_a beta_a C[t][a], the row
    <alpha_t, beta^vee> = 2 B(beta, alpha_t) / B(beta, beta) with the
    W-invariant form B(x, y) = sum_ab x_a y_b d_a C[a][b], d the cached
    symmetrizer.  Raises DatumError unless the row is integral.
    """
    if not theta:
        return (), ()
    cartan, d = datum.cartan, datum.symmetrizer
    support = list(compress(range(len(beta)), beta))
    # form[b] = B(beta, alpha_b), summed over the support of beta
    form = [0] * len(cartan)
    for a in support:
        for b in (a, *datum.neighbours[a]):
            form[b] += beta[a] * d[a] * cartan[a][b]
    norm2 = sum(form[a] * beta[a] for a in support)
    row = [divmod(2 * form[t], norm2) for t in theta]
    if any(remainder for _, remainder in row):
        raise DatumError("Cartan entries not integral; corrupted subsystem")
    column = tuple(sum(beta[a] * cartan[t][a] for a in support) for t in theta)
    return column, tuple(entry for entry, _ in row)


def _rank_one_type(datum: BasedRootDatum, block, theta_comps, column, row) -> DynkinType:
    """Type of the subsystem with simple roots theta and one more root joined
    to theta by ``column`` and ``row`` (see :func:`_new_column_and_row`).

    ``block`` is theta's Cartan block, ``theta_comps`` theta's components as
    (local nodes, label).  Raises DatumError unless the new matrix passes the
    finite-type checks.
    """
    sub = [[*block_row, c] for block_row, c in zip(block, column)]
    sub.append([*row, 2])
    neighbours = cartan_neighbours(sub)
    validate_cartan_matrix(sub, neighbours)
    m = len(block)
    joined = set(neighbours[m])
    labels = [label for nodes, label in theta_comps if joined.isdisjoint(nodes)]
    comp = [m, *(v for nodes, _ in theta_comps if not joined.isdisjoint(nodes) for v in nodes)]
    labels.append(component_layout(sub, neighbours, sorted(comp)).label)
    return DynkinType(tuple(labels), datum.rank - m - 1)
