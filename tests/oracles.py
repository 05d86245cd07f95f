"""Independent oracles used across the test suite.

These deliberately avoid the library's code paths: determinants by cofactor
expansion, kernels by rational Gaussian elimination, multiplicative counts
straight from definitions.  Lattice quotients go through the dense Smith
normal form, which the library's sparse invariant-factor path does not use.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from innerforms.rootdata import diagonal_of, dual_datum, smith_normal_form


def cofactor_det(m) -> int:
    """Determinant by recursive cofactor expansion (exact, small matrices only)."""
    n = len(m)
    if n == 0:
        return 1
    if n == 1:
        return m[0][0]
    total = 0
    for j in range(n):
        minor = [row[:j] + row[j + 1 :] for row in m[1:]]
        term = m[0][j] * cofactor_det(minor)
        total += -term if j % 2 else term
    return total


def rational_kernel(rows, n):
    """Basis of the rational kernel of the row map, by Gaussian elimination."""
    mat = [[Fraction(x) for x in row] for row in rows]
    pivots = []
    r = 0
    for c in range(n):
        pivot = next((i for i in range(r, len(mat)) if mat[i][c] != 0), None)
        if pivot is None:
            continue
        mat[r], mat[pivot] = mat[pivot], mat[r]
        mat[r] = [x / mat[r][c] for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c] != 0:
                factor = mat[i][c]
                mat[i] = [a - factor * b for a, b in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
    free = [c for c in range(n) if c not in pivots]
    basis = []
    for f in free:
        vec = [Fraction(0)] * n
        vec[f] = Fraction(1)
        for i, c in enumerate(pivots):
            vec[c] = -mat[i][f]
        basis.append(vec)
    return basis


def proportional_positive(u, v) -> bool:
    """Whether u = q v for some rational q > 0 (u, v nonzero)."""
    ratio = None
    for a, b in zip(u, v):
        if (a == 0) != (b == 0):
            return False
        if b != 0:
            q = Fraction(a) / Fraction(b)
            if ratio is None:
                ratio = q
            elif q != ratio:
                return False
    return ratio is not None and ratio > 0


def totient(d: int) -> int:
    return sum(1 for k in range(1, d + 1) if gcd(k, d) == 1)


def count_square_roots(a: int, p: int) -> int:
    """Number of solutions of x^2 = a over Z/p, by direct enumeration."""
    a %= p
    return sum(1 for x in range(p) if (x * x - a) % p == 0)


def _reflect(cartan, coords, j):
    # s_j(v) = v - <v, alpha_j^vee> alpha_j with <alpha_i, alpha_j^vee> = C[j][i]
    out = list(coords)
    out[j] -= sum(coords[i] * cartan[j][i] for i in range(len(coords)))
    return tuple(out)


def roots_by_closure(cartan) -> set:
    """All roots in simple-root coordinates: reflect the simple roots until nothing is new."""
    k = len(cartan)
    roots = {tuple(1 if i == s else 0 for i in range(k)) for s in range(k)}
    frontier = list(roots)
    while frontier:
        images = {_reflect(cartan, x, j) for x in frontier for j in range(k)}
        frontier = [r for r in images if r not in roots]
        roots.update(frontier)
    return roots


def weyl_order_by_closure(datum) -> int:
    """|W| by breadth-first closure over the images of the simple roots.

    A Weyl element is pinned down by where it sends the simple roots, so the
    closure runs over tuples of root indices: every element is visited once
    (51,840 states for E6).  Only the dense Cartan matrix is read.
    """
    cartan = datum.cartan_matrix()
    k = len(cartan)
    if k == 0:
        return 1
    roots = sorted(roots_by_closure(cartan))
    index = {r: i for i, r in enumerate(roots)}
    action = [[index[_reflect(cartan, r, j)] for r in roots] for j in range(k)]
    start = tuple(index[tuple(1 if i == s else 0 for i in range(k))] for s in range(k))
    seen = {start}
    frontier = [start]
    while frontier:
        new = []
        for state in frontier:
            for j in range(k):
                image = tuple(action[j][x] for x in state)
                if image not in seen:
                    seen.add(image)
                    new.append(image)
        frontier = new
    return len(seen)


def positive_root_count(series: str, rank: int) -> int:
    """|Phi^+| of an irreducible type, from the standard tables."""
    if series == "A":
        return rank * (rank + 1) // 2
    if series in ("B", "C"):
        return rank * rank
    if series == "D":
        return rank * (rank - 1)
    return {("E", 6): 36, ("E", 7): 63, ("E", 8): 120, ("F", 4): 24, ("G", 2): 6}[(series, rank)]


def random_unimodular(rank: int, rng, steps: int = 12):
    """Random unimodular matrix built from shears and signed swaps."""
    m = [[1 if i == j else 0 for j in range(rank)] for i in range(rank)]
    for _ in range(steps):
        i, j = rng.randrange(rank), rng.randrange(rank)
        if i == j:
            m[i] = [-x for x in m[i]]
            continue
        c = rng.randint(-2, 2)
        for k in range(rank):
            m[i][k] += c * m[j][k]
    return m


def weyl_order_closed_form(series: str, rank: int) -> int:
    """|W| of an irreducible type, from the standard tables."""
    fact = 1
    for k in range(2, rank + 1):
        fact *= k
    if series == "A":
        return fact * (rank + 1)
    if series in ("B", "C"):
        return (2**rank) * fact
    if series == "D":
        return (2 ** (rank - 1)) * fact
    if series == "G":
        return 12
    if series == "F":
        return 1152
    if series == "E":
        return {6: 51840, 7: 2903040, 8: 696729600}[rank]
    raise ValueError(f"unknown series {series}")


def cartan_determinant_closed_form(series: str, rank: int) -> int:
    """|det Cartan| of an irreducible type, from the standard tables."""
    if series == "A":
        return rank + 1
    if series in ("B", "C"):
        return 2
    if series == "D":
        return 4
    if series == "E":
        return {6: 3, 7: 2, 8: 1}[rank]
    return 1  # F4, G2


def dense_cokernel_invariants(rows, n) -> tuple[list[int], int]:
    """Invariant factors (>1) and free rank of Z^n/<rows> from the dense SNF."""
    if not rows:
        return [], n
    _, d, _ = smith_normal_form([list(r) for r in rows])
    diag = [x for x in diagonal_of(d) if x != 0]
    return [x for x in diag if x > 1], n - len(diag)


def kottwitz_by_dual_datum(datum) -> tuple[tuple[int, ...], int]:
    """A(G) the long way: X*(Z(G^)) = X(T^)/<roots of G^> on the dual datum.

    Returns the invariant factors (>1) of its torsion and its free rank, from
    the dense Smith normal form of the dual datum's simple roots.
    """
    dual = dual_datum(datum)
    torsion, free = dense_cokernel_invariants(dual.simple_roots, dual.rank)
    return tuple(torsion), free


def validate_cartan_dense(c) -> str | None:
    """The pairwise finite-type checks over all k^2 pairs in row-major order.

    Returns the message of the first failing check, or None if all pass.
    """
    k = len(c)
    for i in range(k):
        if c[i][i] != 2:
            return f"Cartan diagonal entry {c[i][i]} != 2 at {i}"
        for j in range(k):
            if i == j:
                continue
            if c[i][j] > 0:
                return f"positive off-diagonal Cartan entry at {(i, j)}"
            if (c[i][j] == 0) != (c[j][i] == 0):
                return f"asymmetric zero pattern at {(i, j)}"
            if c[i][j] * c[j][i] > 3:
                return f"bond multiplicity > 3 at {(i, j)} (not finite type)"
    return None


def lj_by_terms(terms: dict, d: int, tag=lambda t: t) -> dict:
    """The LJ map termwise on {(composition, labels): coefficient} dicts.

    A term survives iff d divides every block; its image has the blocks
    divided by d and each tag mapped by ``tag``.  Coefficients of equal
    images add up, zeros are dropped, and the result is sorted by
    (composition, labels), as an element that sorts on every build would be.
    """
    out: dict = {}
    for (comp, labels), coeff in terms.items():
        if all(block % d == 0 for block in comp):
            key = (tuple(block // d for block in comp), tuple(tag(t) for t in labels))
            out[key] = out.get(key, 0) + coeff
    return dict(sorted((key, coeff) for key, coeff in out.items() if coeff))
