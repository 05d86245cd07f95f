"""Exact-arithmetic based root data and the integer linear algebra behind them.

Everything here works over plain Python integers, so lattice computations
(Smith normal form, saturated kernels, torsion quotients) are exact at any
size.  A :class:`BasedRootDatum` stores a character lattice Z^rank together
with simple roots and simple coroots in explicit coordinates; the catalog
constructors build the split groups used elsewhere in the package.
"""

from __future__ import annotations

import heapq
from functools import cached_property
from itertools import compress
from math import gcd

from ._record import Record
from .errors import DatumError, GroupSpecError

Vector = tuple[int, ...]
IntMatrix = list[list[int]]

#: Largest character-lattice rank of a catalog group or a product.  Roots and
#: coroots are dense tuples of this length, so larger requests are refused
#: before anything is allocated.
MAX_LATTICE_RANK = 1024


def check_lattice_rank(rank: int, what: str) -> None:
    """Raise GroupSpecError when ``what`` would have lattice rank above the cap."""
    if rank > MAX_LATTICE_RANK:
        raise GroupSpecError(
            f"{what} has lattice rank {rank}, above the limit of {MAX_LATTICE_RANK}"
        )


def check_theta(datum: BasedRootDatum, theta) -> tuple[int, ...]:
    """theta as sorted distinct indices; DatumError unless every index lies in Delta."""
    theta = tuple(sorted(set(theta)))
    k = datum.semisimple_rank
    if theta and (theta[0] < 0 or theta[-1] >= k):
        raise DatumError(f"theta {list(theta)} out of range for {k} simple roots")
    return theta


# ---------------------------------------------------------------------------
# integer matrix helpers


def identity_matrix(n: int) -> IntMatrix:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def transpose(a: IntMatrix) -> IntMatrix:
    return [list(col) for col in zip(*a)]


def smith_normal_form(matrix) -> tuple[IntMatrix, IntMatrix, IntMatrix]:
    """Return (U, D, V) with U*matrix*V = D, U and V unimodular.

    D is diagonal with nonnegative entries satisfying d_i | d_{i+1}.  The
    input may be any rectangular integer matrix (including empty ones).

    >>> u, d, v = smith_normal_form([[2, 4], [6, 8]])
    >>> [d[0][0], d[1][1]]
    [2, 4]
    """
    a = [[int(x) for x in row] for row in matrix]
    rows = len(a)
    cols = len(a[0]) if rows else 0
    u = identity_matrix(rows)
    v = identity_matrix(cols)

    def row_add(dst: int, src: int, c: int) -> None:
        for j in range(cols):
            a[dst][j] += c * a[src][j]
        for j in range(rows):
            u[dst][j] += c * u[src][j]

    def col_add(dst: int, src: int, c: int) -> None:
        for i in range(rows):
            a[i][dst] += c * a[i][src]
        for i in range(cols):
            v[i][dst] += c * v[i][src]

    def row_swap(i: int, k: int) -> None:
        a[i], a[k] = a[k], a[i]
        u[i], u[k] = u[k], u[i]

    def col_swap(j: int, k: int) -> None:
        for i in range(rows):
            a[i][j], a[i][k] = a[i][k], a[i][j]
        for i in range(cols):
            v[i][j], v[i][k] = v[i][k], v[i][j]

    def row_negate(i: int) -> None:
        a[i] = [-x for x in a[i]]
        u[i] = [-x for x in u[i]]

    t = 0
    while t < min(rows, cols):
        while True:
            # Rosser pivoting: re-select the least-magnitude nonzero entry of
            # the trailing block every round, which keeps entry growth tame;
            # the scan stops at the first +-1, which no later entry can beat
            pivot = None
            least = 0
            for i in range(t, rows):
                row = a[i]
                for j in range(t, cols):
                    x = row[j]
                    if x != 0 and (pivot is None or abs(x) < least):
                        pivot, least = (i, j), abs(x)
                        if least == 1:
                            break
                if least == 1:
                    break
            if pivot is None:
                break
            if pivot[0] != t:
                row_swap(t, pivot[0])
            if pivot[1] != t:
                col_swap(t, pivot[1])

            p = a[t][t]
            reduced = False
            for i in range(t + 1, rows):
                if a[i][t] != 0:
                    q = a[i][t] // p
                    if q:
                        row_add(i, t, -q)
                    if a[i][t] != 0:
                        reduced = True
            for j in range(t + 1, cols):
                if a[t][j] != 0:
                    q = a[t][j] // p
                    if q:
                        col_add(j, t, -q)
                    if a[t][j] != 0:
                        reduced = True
            if reduced:
                continue  # nonzero remainders shrink the next pivot strictly
            if least == 1:
                break  # a unit divides everything
            # pivot must divide the rest of the block for the chain to hold
            fix = None
            for i in range(t + 1, rows):
                for j in range(t + 1, cols):
                    if a[i][j] % p != 0:
                        fix = i
                        break
                if fix is not None:
                    break
            if fix is None:
                break
            row_add(t, fix, 1)

        if a[t][t] == 0:
            break
        if a[t][t] < 0:
            row_negate(t)
        t += 1

    d = [[a[i][j] if i == j else 0 for j in range(cols)] for i in range(rows)]
    return u, d, v


def diagonal_of(d: IntMatrix) -> list[int]:
    return [d[i][i] for i in range(min(len(d), len(d[0]) if d else 0))]


def cokernel_invariants(rows: list[Vector], ambient_rank: int) -> tuple[list[int], int]:
    """Invariant factors (>1) and free rank of Z^ambient_rank / <rows>.

    Only the invariants are computed, never the transforms.  The rows are
    kept sparse and every +-1 entry that can be reached is used as a pivot
    first (shortest row first, then the column in the fewest rows): clearing
    its column from the other rows and dropping the pivot row splits off an
    invariant factor 1 and the pivot's coordinate.  Whatever is left, for
    root data nothing or a tiny block, goes to :func:`smith_normal_form`.
    """
    live: dict[int, dict[int, int]] = {}  # row id -> {column: nonzero entry}
    at: dict[int, set[int]] = {}  # column -> ids of the live rows using it
    for i, row in enumerate(rows):
        entries = {j: x for j, x in enumerate(row) if x}
        if entries:
            live[i] = entries
            for j in entries:
                at.setdefault(j, set()).add(i)
    queue = [(len(entries), i) for i, entries in live.items()]
    heapq.heapify(queue)
    units = 0
    while queue:
        size, i = heapq.heappop(queue)
        pivot_row = live.get(i)
        if pivot_row is None or len(pivot_row) != size:
            continue  # stale: the row was dropped or changed and queued again
        unit_cols = [j for j, x in pivot_row.items() if x == 1 or x == -1]
        if not unit_cols:
            continue  # queued again if an elimination changes it
        col = min(unit_cols, key=lambda j: len(at[j]))
        sign = pivot_row[col]
        del live[i]
        for j in pivot_row:
            at[j].discard(i)
        for k in list(at[col]):
            row = live[k]
            factor = row[col] * sign
            for j, x in pivot_row.items():
                y = row.get(j, 0) - factor * x
                if y:
                    if j not in row:
                        at[j].add(k)
                    row[j] = y
                elif j in row:
                    del row[j]
                    at[j].discard(k)
            if row:
                heapq.heappush(queue, (len(row), k))
            else:
                del live[k]
        units += 1
    diag: list[int] = []
    if live:
        cols = sorted(j for j, ids in at.items() if ids)
        index = {j: c for c, j in enumerate(cols)}
        block = [[0] * len(cols) for _ in live]
        for dense_row, row in zip(block, live.values()):
            for j, x in row.items():
                dense_row[index[j]] = x
        _, d, _ = smith_normal_form(block)
        diag = [x for x in diagonal_of(d) if x != 0]
    return [x for x in diag if x > 1], ambient_rank - units - len(diag)


def integer_kernel_basis(rows: list[Vector], n: int) -> list[Vector]:
    """Basis of the saturated kernel {x in Z^n : row . x = 0 for all rows}."""
    if not rows:
        return [tuple(1 if i == j else 0 for i in range(n)) for j in range(n)]
    u, d, v = smith_normal_form([list(r) for r in rows])
    nonzero = sum(1 for x in diagonal_of(d) if x != 0)
    vt = transpose(v)  # columns of v as rows
    return [tuple(vt[j]) for j in range(nonzero, n)]


# ---------------------------------------------------------------------------
# finite abelian groups and Dynkin types


class FiniteAbelianGroup(Record):
    """Finite abelian group as an invariant-factor list d_1 | d_2 | ... (each >= 2)."""

    invariant_factors: tuple[int, ...] = ()

    def __post_init__(self):
        facts = self.invariant_factors
        if any(d < 2 for d in facts):
            raise DatumError(f"invariant factors must be >= 2: {facts}")
        for a, b in zip(facts, facts[1:]):
            if b % a != 0:
                raise DatumError(f"divisibility chain broken: {facts}")

    @property
    def order(self) -> int:
        n = 1
        for d in self.invariant_factors:
            n *= d
        return n

    @property
    def is_trivial(self) -> bool:
        return not self.invariant_factors

    def __str__(self) -> str:
        if not self.invariant_factors:
            return "1"
        return " x ".join(f"Z/{d}" for d in self.invariant_factors)


SERIES = ("A", "B", "C", "D", "E", "F", "G")


class DynkinType(Record):
    """Multiset of irreducible series labels plus the rank of the central torus.

    Canonical conventions: D_3 appears as A_3, D_2 as A_1+A_1, and the
    rank-2 double-bond diagram as C_2 (B_2 and C_2 are the same diagram).
    """

    components: tuple[tuple[str, int], ...]
    torus_rank: int = 0

    def __post_init__(self):
        object.__setattr__(self, "components", tuple(sorted(self.components)))
        for series, rank in self.components:
            if series not in SERIES or rank < 1:
                raise DatumError(f"bad component {(series, rank)}")
            if series == "B" and rank < 3:
                raise DatumError("B-components have rank >= 3 (C2 is canonical at rank 2)")
            if series == "C" and rank < 2:
                raise DatumError("C-components have rank >= 2")
            if series == "D" and rank < 4:
                raise DatumError("D-components have rank >= 4 (D3 = A3, D2 = A1+A1)")
            if series == "E" and rank not in (6, 7, 8):
                raise DatumError("E-components have rank 6, 7 or 8")
            if series == "F" and rank != 4:
                raise DatumError("F4 is the only F-component")
            if series == "G" and rank != 2:
                raise DatumError("G2 is the only G-component")
        if self.torus_rank < 0:
            raise DatumError("negative torus rank")

    @property
    def semisimple_rank(self) -> int:
        return sum(rank for _, rank in self.components)

    def __str__(self) -> str:
        if not self.components:
            body = "0"
        else:
            body = " + ".join(f"{s}{r}" for s, r in self.components)
        if self.torus_rank:
            body += f" (torus rank {self.torus_rank})"
        return body


# ---------------------------------------------------------------------------
# based root data


class BasedRootDatum(Record):
    """Character lattice Z^rank with chosen simple roots and simple coroots.

    The pairing <alpha_j, alpha_i^vee> is the plain dot product; validation
    checks that it forms a classifiable Cartan matrix.  The Cartan matrix,
    the Dynkin adjacency, the component layouts, the positive roots, the
    longest element, the type and pi_1 are computed once per instance
    (``cartan``, ``neighbours``, ``layouts``, ``positive_roots``,
    ``longest_element``, ``dynkin_type``, ``pi1``).

    Vectors from outside enter through this constructor or the catalog's
    lattice vectors, and are validated.  Products, Levi sub-data and the
    canonical data come from :meth:`_derived` and inherit their Cartan
    matrix and layouts: block sums and principal submatrices of finite-type
    Cartan matrices are of finite type.
    """

    rank: int
    simple_roots: tuple[Vector, ...]
    simple_coroots: tuple[Vector, ...]
    name: str = ""

    def __post_init__(self):
        if self.rank < 0:
            raise DatumError("negative rank")
        if len(self.simple_roots) != len(self.simple_coroots):
            raise DatumError("root/coroot counts differ")
        if len(self.simple_roots) > self.rank:
            raise DatumError("more simple roots than the lattice rank")
        for v in self.simple_roots + self.simple_coroots:
            if len(v) != self.rank:
                raise DatumError("vector length does not match rank")
        validate_cartan_matrix(self.cartan, self.neighbours)
        # classifiability check; raises DatumError on garbage
        self.dynkin_type

    @classmethod
    def _derived(cls, rank, simple_roots, simple_coroots, name, cartan, layouts=None):
        """A datum from valid data: the fields plus its known ``cartan`` (row
        tuples) and ``layouts`` as cached values, without ``__post_init__``;
        layouts not given are walked from ``cartan`` on first use."""
        datum = object.__new__(cls)
        for field, value in zip(cls._fields, (rank, simple_roots, simple_coroots, name)):
            object.__setattr__(datum, field, value)
        object.__setattr__(datum, "cartan", cartan)
        if layouts is not None:
            object.__setattr__(datum, "layouts", layouts)
        return datum

    @property
    def semisimple_rank(self) -> int:
        return len(self.simple_roots)

    @cached_property
    def cartan(self) -> tuple[tuple[int, ...], ...]:
        """C[i][j] = <alpha_j, alpha_i^vee>, built from the nonzero coordinates only."""
        k = self.semisimple_rank
        coords = range(self.rank)
        roots_at: list[list[tuple[int, int]]] = [[] for _ in coords]
        for j, root in enumerate(self.simple_roots):
            for t in compress(coords, root):
                roots_at[t].append((j, root[t]))
        rows = []
        for coroot in self.simple_coroots:
            row = [0] * k
            for t in compress(coords, coroot):
                y = coroot[t]
                for j, x in roots_at[t]:
                    row[j] += x * y
            rows.append(tuple(row))
        return tuple(rows)

    @cached_property
    def neighbours(self) -> tuple[tuple[int, ...], ...]:
        """Dynkin adjacency of ``cartan``; see :func:`cartan_neighbours`."""
        return cartan_neighbours(self.cartan)

    @cached_property
    def symmetrizer(self) -> tuple[int, ...]:
        """Per-component positive integers d_i with d_i C[i][j] = d_j C[j][i].

        The solution that is 1 at each component's first node, times the least
        ``scale`` that makes every entry whole, built up in integers.
        """
        cartan, neighbours = self.cartan, self.neighbours
        d = [0] * self.semisimple_rank
        scale = 1
        for start in range(len(d)):
            if d[start]:
                continue
            d[start], comp = scale, [start]
            for i in comp:
                for j in neighbours[i]:
                    if not d[j]:
                        num, den = d[i] * cartan[i][j], cartan[j][i]
                        k = abs(den) // gcd(num, den)  # the least k with num * k / den whole
                        if k != 1:
                            scale, num, d = scale * k, num * k, [x * k for x in d]
                        d[j] = num // den
                        comp.append(j)
        return tuple(d)

    @cached_property
    def layouts(self) -> tuple[ComponentLayout, ...]:
        """Label and drawing order of each Dynkin component, in node order."""
        cartan, neighbours = self.cartan, self.neighbours
        return tuple(
            component_layout(cartan, neighbours, comp) for comp in dynkin_components(neighbours)
        )

    @cached_property
    def positive_roots(self) -> tuple[tuple[Vector, Vector], ...]:
        """Positive roots as (simple-root coordinates, lattice vector), by coordinates.

        Every positive root is reached from a simple root by reflections that
        raise the height, s_j(beta) = beta - <beta, alpha_j^vee> alpha_j with a
        negative pairing, and such a reflection never leaves the positive roots.
        Each lattice vector adds that multiple of alpha_j's nonzero entries.
        """
        k = self.semisimple_rank
        # <alpha_i, alpha_j^vee> = C[j][i], nonzero entries only
        rows = [(j, [(i, c) for i, c in enumerate(self.cartan[j]) if c]) for j in range(k)]
        entries = [
            [(t, root[t]) for t in compress(range(self.rank), root)] for root in self.simple_roots
        ]
        frontier = [tuple(1 if i == s else 0 for i in range(k)) for s in range(k)]
        roots = dict(zip(frontier, self.simple_roots))
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
                            vec = list(roots[r])
                            for t, x in entries[j]:
                                vec[t] -= pairing * x
                            roots[image] = tuple(vec)
                            new.append(image)
            frontier = new
        return tuple(sorted(roots.items()))

    @cached_property
    def longest_element(self) -> tuple[tuple[Vector, ...], tuple[int, ...]]:
        """w_{l,Delta}: its columns w(alpha_j) in simple-root coordinates and a
        reduced word, by the Weyl layer's greedy exchange."""
        from .weyl import _greedy_longest  # weyl imports this module

        cols, word = _greedy_longest(self, range(self.semisimple_rank))
        return tuple(cols), tuple(word)

    @cached_property
    def dynkin_type(self) -> DynkinType:
        """Component multiset plus central torus rank; see :func:`classify`."""
        return DynkinType(
            tuple(layout.label for layout in self.layouts), self.rank - self.semisimple_rank
        )

    @cached_property
    def pi1(self) -> FiniteAbelianGroup:
        """Torsion of Y / <simple coroots>; see :func:`fundamental_group`."""
        torsion, _ = cokernel_invariants(list(self.simple_coroots), self.rank)
        return FiniteAbelianGroup(tuple(torsion))

def validate_cartan_matrix(c: IntMatrix, neighbours) -> None:
    """Raise DatumError unless ``c`` passes the pairwise finite-type checks.

    Only a pair with a nonzero entry on at least one side can fail, so only
    those pairs are visited: ``neighbours[i]`` lists the columns j != i with
    c[i][j] != 0.  The error names the first offending pair in row-major
    order.
    """
    if _cartan_failure(c, neighbours) is None:
        return
    # the rows omit pairs (i, j) with c[i][j] == 0 != c[j][i]; add them, so
    # that the first failing pair in row-major order is named
    transposed: list[list[int]] = [[] for _ in c]
    for i, cols in enumerate(neighbours):
        for j in cols:
            transposed[j].append(i)
    rows = [sorted(set(cols).union(transposed[i])) for i, cols in enumerate(neighbours)]
    raise DatumError(_cartan_failure(c, rows))


def _cartan_failure(c: IntMatrix, rows) -> str | None:
    """The first failing check, in row-major order, over the pairs (i, j in rows[i])."""
    for i, cols in enumerate(rows):
        if c[i][i] != 2:
            return f"Cartan diagonal entry {c[i][i]} != 2 at {i}"
        for j in cols:
            if c[i][j] > 0:
                return f"positive off-diagonal Cartan entry at {(i, j)}"
            if (c[i][j] == 0) != (c[j][i] == 0):
                return f"asymmetric zero pattern at {(i, j)}"
            if c[i][j] * c[j][i] > 3:
                return f"bond multiplicity > 3 at {(i, j)} (not finite type)"
    return None


def cartan_neighbours(cartan) -> tuple[tuple[int, ...], ...]:
    """Dynkin adjacency: for each node, the other nodes it is bonded to, ascending."""
    nodes = range(len(cartan))
    return tuple(
        tuple(j for j in compress(nodes, row) if j != i) for i, row in enumerate(cartan)
    )


def dynkin_components(neighbours, indices=None) -> list[list[int]]:
    """Connected components of the Dynkin graph on the given node subset.

    ``neighbours`` is the adjacency of :func:`cartan_neighbours`.  Components
    are returned in ambient node order (sorted by least node).
    """
    if indices is None:
        indices = range(len(neighbours))
    nodes = set(indices)
    seen: set[int] = set()
    comps: list[list[int]] = []
    for start in sorted(nodes):
        if start in seen:
            continue
        comp = []
        stack = [start]
        seen.add(start)
        while stack:
            x = stack.pop()
            comp.append(x)
            for y in neighbours[x]:
                if y in nodes and y not in seen:
                    seen.add(y)
                    stack.append(y)
        comps.append(sorted(comp))
    return comps


class ComponentLayout(Record):
    """One connected Dynkin component: its canonical label and how it is drawn.

    ``chain`` is the row of nodes in drawing order.  D and E components hang
    one more node, ``hanging``, below chain position ``attach``; for a path
    ``hanging`` is None and ``attach`` is -1.
    """

    series: str
    rank: int
    chain: tuple[int, ...]
    hanging: int | None = None
    attach: int = -1

    @property
    def label(self) -> tuple[str, int]:
        """(series, rank), the component's entry in a :class:`DynkinType`."""
        return (self.series, self.rank)

    def relabelled(self, index) -> ComponentLayout:
        """The layout with node v renamed ``index[v]``; for an increasing
        renaming, the one the walker finds on the renamed matrix."""
        hanging = None if self.hanging is None else index[self.hanging]
        chain = tuple(map(index.__getitem__, self.chain))
        return ComponentLayout(self.series, self.rank, chain, hanging, self.attach)


def _arm(adj: dict[int, list[int]], prev: int | None, cur: int) -> list[int]:
    """Nodes from ``cur`` to the end of its arm, walking away from ``prev``."""
    arm = [cur]
    while True:
        for nxt in adj[cur]:
            if nxt != prev:
                break
        else:
            return arm
        prev, cur = cur, nxt
        arm.append(cur)


def component_layout(cartan, neighbours, comp) -> ComponentLayout:
    """Series, rank and drawing order of one connected component, from one walk.

    Reads only the Cartan matrix C[i][j] = <alpha_j, alpha_i^vee> and its
    adjacency (:func:`cartan_neighbours`), so root data, Levis, rank-one
    subsystems and parsed pictures share it.  Raises DatumError unless the
    component is of finite type.  A path starts at its least end node.  D
    puts the long arm first and hangs the larger short arm; E leads with the
    length-2 arm and hangs the length-1 arm (Bourbaki, *Lie groups* ch. VI,
    plates I-IX).

    >>> g2 = ((2, -3), (-1, 2))
    >>> component_layout(g2, cartan_neighbours(g2), [0, 1])
    ComponentLayout(series='G', rank=2, chain=(0, 1), hanging=None, attach=-1)
    """
    comp = list(comp)
    k = len(comp)
    inside = set(comp)
    adj = {v: [w for w in neighbours[v] if w in inside] for v in comp}
    bonds = [cartan[v][w] * cartan[w][v] for v in comp for w in adj[v] if v < w]
    if len(bonds) != k - 1:
        raise DatumError(f"component {comp} is not a tree")
    triple, double = 3 in bonds, bonds.count(2)
    degree = max(map(len, adj.values()))
    if triple and (k != 2 or double):
        raise DatumError(f"component {comp}: triple bond outside G2")
    if double and (double > 1 or degree > 2):
        raise DatumError(f"component {comp}: unclassifiable double-bond layout")
    if degree > 3:
        raise DatumError(f"component {comp}: node of degree > 3")
    branch = [v for v in comp if len(adj[v]) == 3] if degree == 3 else []
    if len(branch) > 1:
        raise DatumError(f"component {comp}: more than one branch node")

    if not branch:
        chain = _arm(adj, None, min(v for v in comp if len(adj[v]) <= 1))
        if triple:
            series = "G"
        elif not double:
            series = "A"
        elif k == 2:
            series = "C"  # B2 = C2 as a diagram; C2 is the canonical label
        else:
            for leaf, nbr in ((chain[0], chain[1]), (chain[-1], chain[-2])):
                if cartan[leaf][nbr] * cartan[nbr][leaf] == 2:
                    # C[leaf][nbr] == -2 means the leaf root is short (type B tail)
                    series = "B" if cartan[leaf][nbr] == -2 else "C"
                    break
            else:
                if k != 4:
                    raise DatumError(f"component {comp}: interior double bond but not F4")
                series = "F"
        return ComponentLayout(series, k, tuple(chain))

    b = branch[0]
    arms = [_arm(adj, b, w) for w in adj[b]]
    lengths = sorted(map(len, arms))
    if lengths[:2] == [1, 1]:
        series = "D"
    elif lengths[:2] == [1, 2] and lengths[2] in (2, 3, 4):
        series = "E"
    else:
        raise DatumError(f"component {comp}: arms {lengths} not of finite type")
    hanging = max(arm[0] for arm in arms if len(arm) == 1)
    # ties keep the arms in node order
    first, second = sorted(
        (arm for arm in arms if arm[0] != hanging), key=len, reverse=series == "D"
    )
    return ComponentLayout(series, k, (*reversed(first), b, *second), hanging, len(first))


def classify(datum: BasedRootDatum) -> DynkinType:
    """Dynkin type of the datum: component multiset plus central torus rank.

    >>> classify(build_catalog_group("GL", [3]))
    DynkinType(components=(('A', 2),), torus_rank=1)
    """
    return datum.dynkin_type


def fundamental_group(datum: BasedRootDatum) -> FiniteAbelianGroup:
    """Torsion of (cocharacter lattice) / (span of the simple coroots).

    Trivial exactly when the derived group is simply connected; for an
    adjoint datum its order is |det Cartan|.  Computed once per datum.
    """
    return datum.pi1


def datum_product(data: list[BasedRootDatum], name: str | None = None) -> BasedRootDatum:
    """Direct sum of root data (block coordinates, roots/coroots padded).

    The product inherits its factors' invariants without revalidation: its
    Cartan matrix is the block sum of theirs, which is of finite type as
    theirs are, and its layouts are theirs with the nodes shifted.
    """
    total = sum(d.rank for d in data)
    check_lattice_rank(total, name or "the product")
    k = sum(d.semisimple_rank for d in data)
    roots: list[Vector] = []
    coroots: list[Vector] = []
    cartan: list[tuple[int, ...]] = []
    layouts: list[ComponentLayout] = []
    offset = node = 0
    for d in data:
        before, after = (0,) * offset, (0,) * (total - offset - d.rank)
        roots.extend(before + r + after for r in d.simple_roots)
        coroots.extend(before + c + after for c in d.simple_coroots)
        before, after = (0,) * node, (0,) * (k - node - d.semisimple_rank)
        cartan.extend(before + row + after for row in d.cartan)
        shift = range(node, node + d.semisimple_rank)
        layouts.extend(layout.relabelled(shift) for layout in d.layouts)
        offset += d.rank
        node += d.semisimple_rank
    name = name if name is not None else "x".join(d.name for d in data)
    return BasedRootDatum._derived(
        total, tuple(roots), tuple(coroots), name, tuple(cartan), tuple(layouts)
    )


# ---------------------------------------------------------------------------
# catalog constructors

BOURBAKI_EDGES = {
    # 1-based adjacency for the exceptional simply-laced types
    "E6": [(1, 3), (3, 4), (4, 5), (5, 6), (2, 4)],
    "E7": [(1, 3), (3, 4), (4, 5), (5, 6), (6, 7), (2, 4)],
    "E8": [(1, 3), (3, 4), (4, 5), (5, 6), (6, 7), (7, 8), (2, 4)],
}


def cartan_matrix_of(series: str, rank: int) -> IntMatrix:
    """Bourbaki Cartan matrix, C[i][j] = <alpha_{j+1}, alpha_{i+1}^vee>."""
    if rank < 1:
        raise GroupSpecError(f"{series}{rank}: rank must be positive")
    c = [[2 if i == j else 0 for j in range(rank)] for i in range(rank)]

    def chain_edge(i, j):
        c[i][j] = -1
        c[j][i] = -1

    if series == "A":
        for i in range(rank - 1):
            chain_edge(i, i + 1)
    elif series in ("B", "C"):
        if rank < 2:
            raise GroupSpecError(f"{series}{rank}: rank must be >= 2")
        for i in range(rank - 2):
            chain_edge(i, i + 1)
        # last root short for B, long for C
        if series == "B":
            c[rank - 1][rank - 2] = -2
            c[rank - 2][rank - 1] = -1
        else:
            c[rank - 1][rank - 2] = -1
            c[rank - 2][rank - 1] = -2
    elif series == "D":
        if rank < 2:
            raise GroupSpecError(f"D{rank}: rank must be >= 2")
        for i in range(rank - 2):
            chain_edge(i, i + 1)
        if rank >= 3:
            chain_edge(rank - 3, rank - 1)
    elif series == "E":
        if rank not in (6, 7, 8):
            raise GroupSpecError(f"E{rank}: rank must be 6, 7 or 8")
        for i, j in BOURBAKI_EDGES[f"E{rank}"]:
            chain_edge(i - 1, j - 1)
    elif series == "F":
        if rank != 4:
            raise GroupSpecError("F-series has rank 4 only")
        chain_edge(0, 1)
        chain_edge(2, 3)
        c[1][2] = -1
        c[2][1] = -2  # alpha_3 short
    elif series == "G":
        if rank != 2:
            raise GroupSpecError("G-series has rank 2 only")
        c[0][1] = -3  # alpha_1 short
        c[1][0] = -1
    else:
        raise GroupSpecError(f"unknown series {series}")
    return c


def simply_connected_datum(series: str, rank: int, name: str | None = None) -> BasedRootDatum:
    """Simply connected datum: coroots are the standard basis, roots the Cartan columns.

    Its Cartan matrix is the Bourbaki one, so it is seeded from
    :func:`cartan_matrix_of` rather than recomputed and revalidated.
    """
    rows = tuple(map(tuple, cartan_matrix_of(series, rank)))
    units = tuple(_vec(rank, {j: 1}) for j in range(rank))
    return BasedRootDatum._derived(rank, tuple(zip(*rows)), units, name or f"{series}{rank}sc", rows)


def adjoint_datum(series: str, rank: int, name: str | None = None) -> BasedRootDatum:
    """Adjoint datum: roots are the standard basis, coroots the Cartan rows.

    Its Cartan matrix is seeded as in :func:`simply_connected_datum`.
    """
    rows = tuple(map(tuple, cartan_matrix_of(series, rank)))
    units = tuple(_vec(rank, {j: 1}) for j in range(rank))
    return BasedRootDatum._derived(rank, units, rows, name or f"{series}{rank}ad", rows)


def _vec(n: int, entries: dict[int, int]) -> Vector:
    """The vector of Z^n with the given nonzero coordinates {index: value}."""
    v = [0] * n
    for i, x in entries.items():
        v[i] = x
    return tuple(v)


def _type_a_chain(n: int, length: int) -> list[Vector]:
    """e_i - e_{i+1} for i < length: the first ``length`` type-A simple roots in Z^n."""
    return [_vec(n, {i: 1, i + 1: -1}) for i in range(length)]


# lattice rank of each parametric catalog tag as a function of its parameter
LATTICE_RANK = {
    "GL": lambda n: n,
    "SL": lambda n: n - 1,
    "PGL": lambda n: n - 1,
    "Sp": lambda n: n // 2,
    "GSp": lambda n: n // 2 + 1,
    "Spin": lambda n: n // 2,
    "GSpin": lambda n: n // 2 + 1,
    "SO": lambda n: n // 2,
}

# (series, rank) of each exceptional catalog tag, all built simply connected
_EXCEPTIONAL = {
    "E6sc": ("E", 6),
    "E7sc": ("E", 7),
    "E8": ("E", 8),
    "F4": ("F", 4),
    "G2": ("G", 2),
}


def build_catalog_group(name: str, parameters: list[int]) -> BasedRootDatum:
    """Construct a split group from its catalog tag.

    Tags: GL(n), SL(n), PGL(n), Sp(2n), GSp(2n), Spin(m), GSpin(m), SO(2n),
    E6sc, E7sc, E8, F4, G2.  Raises GroupSpecError for unknown tags or
    parameters outside the tag's domain, or above :data:`MAX_LATTICE_RANK`.
    """
    tag = name.strip()
    if tag in _EXCEPTIONAL:
        if parameters:
            raise GroupSpecError(f"{tag} takes no parameters")
        return simply_connected_datum(*_EXCEPTIONAL[tag], tag)

    if len(parameters) != 1:
        raise GroupSpecError(f"{tag} takes exactly one integer parameter")
    n = parameters[0]
    if tag in LATTICE_RANK:
        check_lattice_rank(LATTICE_RANK[tag](n), f"{tag}({n})")

    if tag == "GL":
        if n < 1:
            raise GroupSpecError("GL(n) requires n >= 1")
        roots = tuple(_type_a_chain(n, n - 1))
        return BasedRootDatum(n, roots, roots, f"GL({n})")
    if tag == "SL":
        if n < 2:
            raise GroupSpecError("SL(n) requires n >= 2")
        return simply_connected_datum("A", n - 1, f"SL({n})")
    if tag == "PGL":
        if n < 2:
            raise GroupSpecError("PGL(n) requires n >= 2")
        return adjoint_datum("A", n - 1, f"PGL({n})")
    # the classical families below share the chain e_i - e_{i+1} and differ
    # only in the tail root and coroot (e_0, the similitude, is the last
    # coordinate of GSp and GSpin)
    if tag in ("Sp", "GSp"):
        if n < 2 or n % 2:
            raise GroupSpecError(f"{tag}(2n) requires an even parameter >= 2")
        half = n // 2
        if tag == "Sp":
            rank, root_tail = half, {half - 1: 2}
        else:
            rank, root_tail = half + 1, {half - 1: 2, half: -1}
        chain = _type_a_chain(rank, half - 1)
        return BasedRootDatum(
            rank,
            (*chain, _vec(rank, root_tail)),
            (*chain, _vec(rank, {half - 1: 1})),
            f"{tag}({n})",
        )
    if tag == "Spin":
        if n < 3:
            raise GroupSpecError("Spin(m) requires m >= 3")
        if n % 2:
            return simply_connected_datum("B", (n - 1) // 2, f"Spin({n})") if n > 3 else simply_connected_datum("A", 1, "Spin(3)")
        half = n // 2
        if half == 3:
            return simply_connected_datum("A", 3, "Spin(6)")
        return simply_connected_datum("D", half, f"Spin({n})")
    if tag == "GSpin":
        if n < 3:
            raise GroupSpecError("GSpin(m) requires m >= 3")
        half = n // 2
        if n % 2:
            root_tail, coroot_tail = {half - 1: 1}, {half - 1: 2, half: -1}
        else:
            root_tail = {half - 2: 1, half - 1: 1}
            coroot_tail = {half - 2: 1, half - 1: 1, half: -1}
        rank = half + 1
        chain = _type_a_chain(rank, half - 1)
        return BasedRootDatum(
            rank,
            (*chain, _vec(rank, root_tail)),
            (*chain, _vec(rank, coroot_tail)),
            f"GSpin({n})",
        )
    if tag == "SO":
        if n < 4 or n % 2:
            raise GroupSpecError("SO(2n) requires an even parameter >= 4")
        rank = n // 2
        roots = (*_type_a_chain(rank, rank - 1), _vec(rank, {rank - 2: 1, rank - 1: 1}))
        return BasedRootDatum(rank, roots, roots, f"SO({n})")

    raise GroupSpecError(
        f"unknown catalog tag {tag!r}; known tags: {', '.join([*LATTICE_RANK, *_EXCEPTIONAL])}"
    )
