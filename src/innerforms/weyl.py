"""Weyl group computations on based root data.

Roots are manipulated in simple-root coordinates (integer vectors indexed by
Delta), so positivity is coordinatewise nonnegativity and every reflection
is Cartan-matrix arithmetic.  Weyl group orders come from the parabolic
orbit recursion; ``weyl_group_order`` keeps its documented bound of
semisimple rank 6.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress
from math import gcd
from operator import mul

from .errors import DatumError, EnumerationLimitError
from .rootdata import (
    BasedRootDatum,
    DynkinType,
    Vector,
    cartan_neighbours,
    component_layout,
    dynkin_components,
    integer_kernel_basis,
    validate_cartan_matrix,
)

ENUMERATION_RANK_BOUND = 6


@dataclass(frozen=True)
class WeylWord:
    """Word in the simple reflections, 0-based indices into Delta."""

    letters: tuple[int, ...]

    def __post_init__(self):
        if any(i < 0 for i in self.letters):
            raise DatumError("negative reflection index")

    def __len__(self) -> int:
        return len(self.letters)


@dataclass(frozen=True)
class RestrictedRoot:
    """A reduced root of P with respect to the split component of the Levi.

    ``direction`` is a primitive integer vector in A_M-coordinates;
    ``preimages`` collects the roots of G (ambient coordinates) that restrict
    to a positive multiple of it.
    """

    direction: Vector
    preimages: tuple[Vector, ...]

    def __post_init__(self):
        g = 0
        for x in self.direction:
            g = gcd(g, x)
        if g != 1:
            raise DatumError(f"direction {self.direction} is not primitive")
        if not self.preimages:
            raise DatumError("restricted root with no preimages")


# ---------------------------------------------------------------------------
# root generation in simple-root coordinates


def positive_roots_coords(datum: BasedRootDatum) -> list[Vector]:
    """Positive roots, as coordinates on Delta.

    Every positive root is reached from a simple root by reflections that
    raise the height, s_j(beta) = beta - <beta, alpha_j^vee> alpha_j with a
    negative pairing, and such a reflection never leaves the positive roots.
    """
    k = datum.semisimple_rank
    cartan = datum.cartan
    # <alpha_i, alpha_j^vee> = C[j][i], nonzero entries only
    rows = [(j, [(i, c) for i, c in enumerate(cartan[j]) if c]) for j in range(k)]
    frontier = [tuple(1 if i == s else 0 for i in range(k)) for s in range(k)]
    roots = set(frontier)
    while frontier:
        new = []
        for r in frontier:
            for j, row in rows:
                pairing = sum(r[i] * c for i, c in row)
                if pairing < 0:
                    image = list(r)
                    image[j] -= pairing
                    image = tuple(image)
                    if image not in roots:
                        roots.add(image)
                        new.append(image)
        frontier = new
    return sorted(roots)


def coords_to_vector(datum: BasedRootDatum, coords: Vector) -> Vector:
    out = [0] * datum.rank
    for c, root in zip(coords, datum.simple_roots):
        for i in range(datum.rank):
            out[i] += c * root[i]
    return tuple(out)


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


class _CoordAction:
    """A Weyl element as its matrix on simple-root coordinates (columns = images)."""

    __slots__ = ("cartan", "cols")

    def __init__(self, cartan):
        self.cartan = cartan
        k = len(cartan)
        self.cols = [tuple(1 if i == j else 0 for i in range(k)) for j in range(k)]

    def right_multiply(self, j: int) -> None:
        # (w s_j)(alpha_i) = w(alpha_i) - C[j][i] w(alpha_j) for every i
        old = self.cols[j]
        k = len(self.cartan)
        for i in range(k):
            c = self.cartan[j][i]
            if c:
                self.cols[i] = tuple(x - c * y for x, y in zip(self.cols[i], old))

    def image(self, coords: Vector) -> Vector:
        k = len(self.cartan)
        out = [0] * k
        for i, c in enumerate(coords):
            if c:
                for t in range(k):
                    out[t] += c * self.cols[i][t]
        return tuple(out)


def longest_word(datum: BasedRootDatum, subset) -> WeylWord:
    """Reduced word for the longest element of the parabolic subgroup W_subset.

    Greedy exchange: while some simple root of the subset is kept positive,
    multiply by that reflection on the right (least index first).  The word
    length equals the number of positive roots of the subsystem.
    """
    subset = sorted(set(subset))
    cartan = datum.cartan
    w = _CoordAction(cartan)
    word: list[int] = []
    while True:
        chosen = -1
        for j in subset:
            if all(c >= 0 for c in w.cols[j]):
                chosen = j
                break
        if chosen < 0:
            break
        w.right_multiply(chosen)
        word.append(chosen)
    return WeylWord(tuple(word))


def word_action(datum: BasedRootDatum, word: WeylWord) -> _CoordAction:
    """Action of the word (applied as s_{i1} o s_{i2} o ... o s_{ik}) on root coordinates."""
    action = _CoordAction(datum.cartan)
    for letter in word.letters:
        action.right_multiply(letter)
    return action


def word_matrix(datum: BasedRootDatum, word: WeylWord):
    """Matrix of the word on the character lattice (rightmost letter acts first)."""
    n = datum.rank
    mat = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for letter in reversed(word.letters):
        root = datum.simple_roots[letter]
        coroot = datum.simple_coroots[letter]
        pair_rows = [sum(coroot[t] * mat[t][j] for t in range(n)) for j in range(n)]
        mat = [
            [mat[i][j] - root[i] * pair_rows[j] for j in range(n)] for i in range(n)
        ]
    return mat


def find_w_theta(datum: BasedRootDatum, theta) -> tuple[WeylWord, tuple[int, ...]]:
    """The representative w = w_{l,Delta} w_{l,theta} with w(theta) inside Delta.

    Returns the word and the image subset (0-based indices into Delta), after
    verifying by explicit action that every root of theta lands on a simple
    root.
    """
    theta = sorted(set(theta))
    k = datum.semisimple_rank
    if any(t < 0 or t >= k for t in theta):
        raise DatumError(f"theta {theta} out of range for {k} simple roots")
    w_long_full = longest_word(datum, range(k))
    w_long_theta = longest_word(datum, theta)
    word = WeylWord(w_long_full.letters + w_long_theta.letters)

    action = word_action(datum, word)
    image = []
    for t in theta:
        img = action.cols[t]
        support = [i for i, c in enumerate(img) if c != 0]
        if len(support) != 1 or img[support[0]] != 1:
            raise DatumError(
                f"w(alpha_{t}) = {img} is not a simple root; construction violated"
            )
        image.append(support[0])
    return word, tuple(sorted(image))


# ---------------------------------------------------------------------------
# restricted roots and the rank-one decomposition


def split_component_basis(datum: BasedRootDatum, theta) -> list[Vector]:
    """Basis of the cocharacter lattice of A_M (integer annihilator of theta's roots)."""
    rows = [datum.simple_roots[t] for t in sorted(set(theta))]
    return integer_kernel_basis(rows, datum.rank)


def _primitive(v: Vector) -> Vector:
    g = 0
    for x in v:
        g = gcd(g, x)
    return tuple(x // g for x in v) if g else v


def _restricted_classes(datum: BasedRootDatum, theta):
    """Positive roots (simple-root coordinates) sorted by their restriction to A_M.

    Returns the roots of theta (restriction zero) and, per reduced root in
    direction order, the pair (RestrictedRoot, coordinates of its preimages).
    """
    theta_set = set(theta)
    basis = split_component_basis(datum, theta)
    inside: list[Vector] = []
    classes: dict[Vector, list[tuple[Vector, Vector]]] = {}
    for coords in positive_roots_coords(datum):
        if all(c == 0 or i in theta_set for i, c in enumerate(coords)):
            inside.append(coords)
            continue
        vec = coords_to_vector(datum, coords)
        restriction = tuple(sum(a * b for a, b in zip(vec, col)) for col in basis)
        classes.setdefault(_primitive(restriction), []).append((coords, vec))
    pairs = [
        (
            RestrictedRoot(direction=key, preimages=tuple(sorted(v for _, v in classes[key]))),
            [c for c, _ in classes[key]],
        )
        for key in sorted(classes)
    ]
    return inside, pairs


def reduced_roots(datum: BasedRootDatum, theta) -> list[RestrictedRoot]:
    """The reduced roots of P_theta with respect to A_M.

    Positive roots not supported on theta are restricted to A_M-coordinates
    and grouped by positive-rational proportionality (alpha and 2 alpha
    collapse into one class).  The classes partition the restricted roots.
    """
    _, pairs = _restricted_classes(datum, theta)
    return [rr for rr, _ in pairs]


def rank_one_decomposition(
    datum: BasedRootDatum, theta
) -> list[tuple[RestrictedRoot, DynkinType]]:
    """For each reduced root, the type of the rank-one group M_alpha = Z_G(A_alpha).

    A_alpha is the identity component of (ker alpha) inside A_M; its
    centralizer is the subsystem of roots vanishing on A_alpha, classified
    together with the ambient torus rank.  A root vanishes on A_alpha exactly
    when its restriction to A_M is a rational multiple of alpha, so the
    positive members are theta's roots plus the preimages of alpha; its
    simple roots are the members that are not a sum of two members.  A sum
    lands among the preimages only if one summand is a preimage, and the
    roots of theta that are not sums are the simple roots of theta.
    """
    inside, pairs = _restricted_classes(datum, theta)
    theta_simples = [c for c in inside if sum(c) == 1]
    out = []
    for rr, preimages in pairs:
        sums = {
            tuple(x + y for x, y in zip(a, b)) for a in inside + preimages for b in preimages
        }
        simples = theta_simples + [c for c in preimages if c not in sums]
        out.append((rr, subsystem_type(datum, simples)))
    return out


def subsystem_type(datum: BasedRootDatum, simple_coords: list[Vector]) -> DynkinType:
    """Classify a subsystem given the simple-root coordinates of its simples.

    Its Cartan matrix <beta_j, beta_i^vee> = 2 B(beta_i, beta_j) / B(beta_i, beta_i)
    comes from the W-invariant form B(x, y) = sum_ab x_a y_b d_a C[a][b], d the
    cached symmetrizer; its torus rank is the lattice rank minus the simples.
    """
    cartan, d = datum.cartan, datum.symmetrizer
    sub = []
    for coords in simple_coords:
        # form[b] = B(beta, alpha_b), summed over the support of beta
        form = [0] * len(cartan)
        for a in compress(range(len(coords)), coords):
            for b in (a, *datum.neighbours[a]):
                form[b] += coords[a] * d[a] * cartan[a][b]
        norm2 = sum(map(mul, form, coords))
        row = [divmod(2 * sum(map(mul, form, other)), norm2) for other in simple_coords]
        if any(remainder for _, remainder in row):
            raise DatumError("Cartan entries not integral; corrupted subsystem")
        sub.append(tuple(entry for entry, _ in row))
    neighbours = cartan_neighbours(sub)
    validate_cartan_matrix(sub, neighbours)
    layouts = (component_layout(sub, neighbours, comp) for comp in dynkin_components(neighbours))
    return DynkinType(tuple(layout.label for layout in layouts), datum.rank - len(sub))
