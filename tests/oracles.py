"""Independent oracles used across the test suite.

These deliberately avoid the library's code paths: determinants by cofactor
expansion, kernels by rational Gaussian elimination, multiplicative counts
straight from definitions.  Lattice quotients go through the dense Smith
normal form, which the library's sparse invariant-factor path does not use.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from innerforms.errors import DatumError, GroupSpecError
from innerforms.grothendieck import (
    _LIST_SEP,
    _TERM_RE,
    BasisElement,
    VirtualElement,
    split_side,
    zero,
)
from innerforms.rootdata import (
    BasedRootDatum,
    classify,
    diagonal_of,
    dual_datum,
    smith_normal_form,
)
from innerforms.satake import _tokenize_chain
from innerforms.weyl import coords_to_vector


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


def symmetrizer_by_fractions(datum) -> tuple[int, ...]:
    """The datum's symmetrizer in exact rationals, then scaled to integers.

    d = 1 at the first node of each component and d_j = d_i C[i][j] / C[j][i]
    along edges; every d is then multiplied by the lcm of all denominators.
    """
    cartan, neighbours = datum.cartan, datum.neighbours
    d: list[Fraction | None] = [None] * datum.semisimple_rank
    for start in range(len(d)):
        if d[start] is not None:
            continue
        d[start] = Fraction(1)
        stack = [start]
        while stack:
            i = stack.pop()
            for j in neighbours[i]:
                if d[j] is None:
                    d[j] = d[i] * cartan[i][j] / cartan[j][i]
                    stack.append(j)
    scale = lcm(*(x.denominator for x in d)) if d else 1
    return tuple(int(x * scale) for x in d)


def parse_virtual_by_terms(text: str, n: int | None = None) -> VirtualElement:
    """The term grammar with every term built by the public, fully checked
    ``BasisElement`` constructor: the parser as it was before it skipped the
    checks it had already made."""
    text = text.strip()
    if text == "0":
        return zero()
    pos = 0
    total: dict = {}
    first = True
    seen_n = n
    side = None
    while pos < len(text):
        match = _TERM_RE.match(text, pos)
        if match is None or match.start() != pos:
            raise GroupSpecError(f"cannot parse element near offset {pos}: {text[pos:pos+20]!r}")
        sign, coeff_text, comp_text, tags_text = match.group("sign", "coeff", "comp", "tags")
        if first and sign is None:
            sign = "+"
        if sign is None:
            raise GroupSpecError(f"missing +/- between terms at offset {pos}")
        coeff = int(coeff_text or 1) * (1 if sign == "+" else -1)
        comp = tuple(map(int, _LIST_SEP.split(comp_text)))
        tags = tuple(_LIST_SEP.split(tags_text))
        if len(tags) != len(comp):
            raise GroupSpecError(
                f"term {match.group(0).strip()!r}: {len(comp)} blocks but {len(tags)} tags"
            )
        total_n = sum(comp)
        if seen_n is None:
            seen_n = total_n
        elif total_n != seen_n:
            raise GroupSpecError(f"composition {comp} sums to {total_n}, expected {seen_n}")
        if side is None:
            side = split_side(total_n)
        element = BasisElement(side, comp, tags)
        total[element] = total.get(element, 0) + coeff
        first = False
        pos = match.end()
    if first:
        raise GroupSpecError("empty element expression")
    return VirtualElement(total)


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


# ---------------------------------------------------------------------------
# Dynkin classification by other routes than the one Cartan walker


def subsystem_type_by_subdatum(datum, simple_coords):
    """Type of a subsystem by building and classifying its full-rank root datum.

    The roots are the simples in lattice coordinates and the coroots come
    from :func:`coroot_of`, so the datum's own Cartan matrix and validation
    decide the type.
    """
    roots = tuple(coords_to_vector(datum, c) for c in simple_coords)
    coroots = tuple(coroot_of(datum, c) for c in simple_coords)
    return classify(BasedRootDatum(datum.rank, roots, coroots, name=f"{datum.name}|sub"))


def coroot_of(datum, coords):
    """Coroot of the root with the given simple-root coordinates.

    With a W-invariant form normalized per component, r^vee expands as
    sum_i (2 d_i c_i / (r,r)) alpha_i^vee; the coefficients are integers
    for any root of a finite system; d is the datum's cached symmetrizer.
    """
    cartan = datum.cartan
    d = datum.symmetrizer
    support = [i for i, c in enumerate(coords) if c]
    norm2 = sum(coords[i] * coords[j] * d[i] * cartan[i][j] for i in support for j in support)
    out = [0] * datum.rank
    for i in support:
        c, remainder = divmod(2 * d[i] * coords[i], norm2)
        if remainder:
            raise DatumError("coroot coefficients not integral; corrupted subsystem")
        for t, y in enumerate(datum.simple_coroots[i]):
            if y:
                out[t] += c * y
    return tuple(out)


def parse_component_by_series_rules(block: str) -> tuple[str, int, list[int]]:
    """One picture block -> (series, rank, black positions in canonical order).

    Reads the series straight off the drawing, rule by rule: G2 and C2 by
    their arrow, F4 by its interior double bond, B against C by the arrow at
    the end, D and E by the arm lengths around the hanging node.
    """
    lines = block.split("\n")
    colors, edges, cols = _tokenize_chain(lines[0])
    hanging_color = None
    attach_idx = None
    if len(lines) > 1:
        if len(lines) != 3 or lines[1].strip() != "|":
            raise DatumError(f"malformed branch block: {block!r}")
        bar_col = lines[1].index("|")
        sym = lines[2].strip()
        if sym not in ("●", "○", "*", "o"):
            raise DatumError(f"bad hanging vertex {sym!r}")
        if lines[2].index(sym) != bar_col or bar_col not in cols:
            raise DatumError(f"branch not aligned under a chain vertex: {block!r}")
        hanging_color = sym in ("●", "*")
        attach_idx = cols.index(bar_col)

    k = len(colors) + (1 if hanging_color is not None else 0)
    multis = [(i, e) for i, e in enumerate(edges) if e[0] > 1]

    if hanging_color is None and not multis:
        # type A as read
        return ("A", k, [i for i, c in enumerate(colors) if c])

    if multis:
        if hanging_color is not None or len(multis) > 1:
            raise DatumError(f"unclassifiable bond layout: {block!r}")
        pos, (mult, direction) = multis[0]
        if mult == 3:
            if k != 2:
                raise DatumError("triple bond outside G2")
            # canonical G2 order: short root first; arrow points at the short root
            flip = direction == "right"
            cc = list(reversed(colors)) if flip else colors
            return ("G", 2, [i for i, c in enumerate(cc) if c])
        # double bond
        if k == 2:
            # canonical C2: arrow points left (first root short)
            flip = direction == "right"
            cc = list(reversed(colors)) if flip else colors
            return ("C", 2, [i for i, c in enumerate(cc) if c])
        if 0 < pos < len(edges) - 1:
            if k != 4:
                raise DatumError("interior double bond outside F4")
            flip = direction == "left"
            cc = list(reversed(colors)) if flip else colors
            return ("F", 4, [i for i, c in enumerate(cc) if c])
        flip = pos == 0  # canonical layout keeps the multiple bond at the right end
        cc = list(reversed(colors)) if flip else colors
        dd = direction
        if flip:
            dd = "left" if direction == "right" else "right"
        series = "B" if dd == "right" else "C"
        return (series, k, [i for i, c in enumerate(cc) if c])

    # branch node: D_k has chain arms (k-3, 1); E_k has chain arms (2, k-4)
    left_arm = attach_idx
    right_arm = len(colors) - 1 - attach_idx
    if min(left_arm, right_arm) < 1:
        raise DatumError(f"branch at a chain end: {block!r}")
    if 1 in (left_arm, right_arm):
        if k < 4 or max(left_arm, right_arm) != k - 3:
            raise DatumError(f"branch arms ({left_arm},{right_arm}) not of finite type")
        flip = left_arm == 1 and right_arm != 1  # canonical fork is at the right
        cc = list(reversed(colors)) if flip else colors
        # canonical node order: chain alpha_1..alpha_{k-1}, hanging alpha_k
        positions = [i for i, c in enumerate(cc) if c]
        if hanging_color:
            positions.append(k - 1)
        return ("D", k, sorted(positions))
    if k not in (6, 7, 8) or sorted((left_arm, right_arm)) != [2, k - 4]:
        raise DatumError(f"branch arms ({left_arm},{right_arm}) not of finite type")
    flip = left_arm != 2
    cc = list(reversed(colors)) if flip else colors
    # canonical Bourbaki order: chain = alpha_1, alpha_3, ..., alpha_k; hanging = alpha_2
    chain_names = [0] + list(range(2, k))
    positions = [chain_names[i] for i, c in enumerate(cc) if c]
    if hanging_color:
        positions.append(1)
    return ("E", k, sorted(positions))
