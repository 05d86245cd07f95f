"""Independent oracles used across the test suite.

These deliberately avoid the library's code paths: determinants by cofactor
expansion, kernels by rational Gaussian elimination, multiplicative counts
straight from definitions.  Lattice quotients go through the dense Smith
normal form, which the library's sparse invariant-factor path does not use.
The module also holds what only tests need: basis changes and duals of root
data, canonical Satake diagrams, and the GL_2 elements of the transfer suite.
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
    DynkinType,
    cartan_neighbours,
    classify,
    component_layout,
    datum_product,
    diagonal_of,
    dynkin_components,
    identity_matrix,
    simply_connected_datum,
    smith_normal_form,
    transpose,
    validate_cartan_matrix,
)
from innerforms.satake import SatakeDiagram, _tokenize_chain
from innerforms.weyl import RestrictedRoot, WeylWord, split_component_basis


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
    cartan = datum.cartan
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


def mat_mul(a, b):
    if not a or not b:
        return [[0] * (len(b[0]) if b else 0) for _ in range(len(a))]
    cols = len(b[0])
    return [
        [sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(cols)]
        for i in range(len(a))
    ]


def mat_vec(a, v):
    return tuple(sum(row[k] * v[k] for k in range(len(v))) for row in a)


def det_int(a) -> int:
    """Exact determinant by fraction-free (Bareiss) elimination."""
    n = len(a)
    if n == 0:
        return 1
    if any(len(row) != n for row in a):
        raise ValueError("determinant of a non-square matrix")
    m = [list(row) for row in a]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def is_unimodular(a) -> bool:
    return abs(det_int(a)) == 1


def change_basis(datum, u):
    """The datum after a unimodular change of basis of the character lattice.

    Roots transform by u, coroots by the inverse transpose, so all pairings
    are preserved exactly; the result goes through the validating constructor.
    """
    if not is_unimodular(u):
        raise DatumError("change of basis must be unimodular")
    n = datum.rank
    uu, _, v = smith_normal_form(u)
    # UuV = 1 for unimodular u, so u^{-1} = V U; verified before use
    inv = mat_mul(v, uu)
    if mat_mul(u, inv) != identity_matrix(n):
        raise DatumError("failed to invert unimodular matrix")
    inv_t = transpose(inv)
    return BasedRootDatum(
        rank=n,
        simple_roots=tuple(mat_vec(u, r) for r in datum.simple_roots),
        simple_coroots=tuple(mat_vec(inv_t, c) for c in datum.simple_coroots),
        name=datum.name,
    )


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


def dual_datum(datum):
    """Swap the roles of roots and coroots (the Langlands dual's datum)."""
    return BasedRootDatum(
        rank=datum.rank,
        simple_roots=datum.simple_coroots,
        simple_coroots=datum.simple_roots,
        name=f"dual({datum.name})" if datum.name else "dual",
    )


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


def steinberg(n: int, tag: str = "St") -> VirtualElement:
    """The full-group basis element (n):tag."""
    return VirtualElement.of(BasisElement(split_side(n), (n,), (tag,)))


def gl2_principal_series(tag1: str = "x", tag2: str = "y") -> VirtualElement:
    """Induced-from-torus basis element (1,1) of GL_2."""
    return VirtualElement.of(BasisElement(split_side(2), (1, 1), (tag1, tag2)))


def gl2_trivial(tag1: str = "x", tag2: str = "y", st_tag: str = "St") -> VirtualElement:
    """The trivial representation of GL_2 in the induced basis.

    Classically the normalized principal series induced from the torus
    equals trivial + Steinberg in the Grothendieck group, so the trivial
    class is the (1,1)-term minus the Steinberg term.
    """
    return gl2_principal_series(tag1, tag2) - steinberg(2, st_tag)


# ---------------------------------------------------------------------------
# Dynkin classification by other routes than the one Cartan walker


def subsystem_type(datum, simple_coords):
    """Type of a subsystem from the Cartan matrix of all its simples at once.

    <beta_j, beta_i^vee> = 2 B(beta_i, beta_j) / B(beta_i, beta_i) with the
    W-invariant form B(x, y) = sum_ab x_a y_b d_a C[a][b], d the datum's
    cached symmetrizer; the torus rank is the lattice rank minus the simples.
    Every entry is computed from the form, none is read off the datum's
    Cartan matrix, and every component is walked.
    """
    cartan, d = datum.cartan, datum.symmetrizer
    sub = []
    for coords in simple_coords:
        # form[b] = B(beta, alpha_b)
        form = [sum(coords[a] * d[a] * cartan[a][b] for a in range(len(cartan)))
                for b in range(len(cartan))]
        norm2 = sum(f * x for f, x in zip(form, coords))
        row = [divmod(2 * sum(f * x for f, x in zip(form, other)), norm2) for other in simple_coords]
        if any(remainder for _, remainder in row):
            raise DatumError("Cartan entries not integral; corrupted subsystem")
        sub.append(tuple(entry for entry, _ in row))
    neighbours = cartan_neighbours(sub)
    validate_cartan_matrix(sub, neighbours)
    layouts = (component_layout(sub, neighbours, comp) for comp in dynkin_components(neighbours))
    return DynkinType(tuple(layout.label for layout in layouts), datum.rank - len(sub))


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


def canonical_diagram(components) -> SatakeDiagram:
    """Diagram over a product of canonical simply connected data.

    ``components`` is a list of (series, rank, black_positions) with
    0-based black positions in Bourbaki numbering.
    """
    data = [simply_connected_datum(series, rank) for series, rank, _ in components]
    base = datum_product(data)
    black: set[int] = set()
    offset = 0
    for (series, rank, positions), d in zip(components, data):
        for p in positions:
            if p < 0 or p >= rank:
                raise DatumError(f"black position {p} out of range for {series}{rank}")
            black.add(offset + p)
        offset += d.semisimple_rank
    return SatakeDiagram(base, frozenset(black))


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


# ---------------------------------------------------------------------------
# the Weyl layer by its first construction: dense root vectors, a restriction
# per root, simple roots by pairwise sums, and words replayed letter by letter


def coords_to_vector(datum, coords):
    """Lattice vector of the root with the given simple-root coordinates, densely."""
    out = [0] * datum.rank
    for c, root in zip(coords, datum.simple_roots):
        for i in range(datum.rank):
            out[i] += c * root[i]
    return tuple(out)


def positive_roots_by_closure(datum) -> list:
    """Positive roots in simple-root coordinates, sorted, from the reflection closure."""
    return sorted(r for r in roots_by_closure(datum.cartan) if min(r) >= 0)


def _right_multiply(cartan, cols, j) -> None:
    # (w s_j)(alpha_i) = w(alpha_i) - C[j][i] w(alpha_j) for every i
    old = cols[j]
    for i, c in enumerate(cartan[j]):
        if c:
            cols[i] = tuple(x - c * y for x, y in zip(cols[i], old))


def word_action(datum, word) -> list:
    """Columns w(alpha_j), in simple-root coordinates, of s_{i1} o s_{i2} o ... o s_{ik}."""
    k = datum.semisimple_rank
    cols = [tuple(int(i == j) for i in range(k)) for j in range(k)]
    for letter in word.letters:
        _right_multiply(datum.cartan, cols, letter)
    return cols


def word_matrix(datum, word):
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


def longest_word_by_greedy(datum, subset) -> tuple:
    """Greedy reduced word of the longest element of W_subset (least index first)."""
    k = datum.semisimple_rank
    cols = [tuple(int(i == j) for i in range(k)) for j in range(k)]
    word = []
    while True:
        j = next((j for j in sorted(subset) if all(c >= 0 for c in cols[j])), None)
        if j is None:
            return tuple(word)
        _right_multiply(datum.cartan, cols, j)
        word.append(j)


def find_w_theta_by_replay(datum, theta):
    """w_{l,Delta} w_{l,theta} and the image of theta, by replaying the whole word."""
    theta = sorted(set(theta))
    word = WeylWord(
        longest_word_by_greedy(datum, range(datum.semisimple_rank))
        + longest_word_by_greedy(datum, theta)
    )
    cols = word_action(datum, word)
    image = []
    for t in theta:
        support = [i for i, c in enumerate(cols[t]) if c]
        assert len(support) == 1 and cols[t][support[0]] == 1, cols[t]
        image.append(support[0])
    return word, tuple(sorted(image))


def restricted_classes_by_restriction(datum, theta) -> list:
    """(RestrictedRoot, preimage coordinates) per reduced root, in direction order.

    Every positive root off theta is expanded densely, restricted to A_M
    through ``split_component_basis`` and keyed by its primitive restriction.
    """
    basis = split_component_basis(datum, theta)
    classes: dict = {}
    for coords in positive_roots_by_closure(datum):
        if all(c == 0 or i in theta for i, c in enumerate(coords)):
            continue
        vec = coords_to_vector(datum, coords)
        restriction = [sum(a * b for a, b in zip(vec, col)) for col in basis]
        g = gcd(*restriction)
        classes.setdefault(tuple(x // g for x in restriction), []).append((coords, vec))
    return [
        (RestrictedRoot(key, tuple(sorted(v for _, v in classes[key]))), [c for c, _ in classes[key]])
        for key in sorted(classes)
    ]


def rank_one_by_pairwise_sums(datum, theta) -> list:
    """Each reduced root with the type of M_alpha, whose simple roots are the
    members that are not a sum of two members, typed through a sub-datum."""
    inside = [
        c for c in positive_roots_by_closure(datum)
        if all(x == 0 or i in theta for i, x in enumerate(c))
    ]
    out = []
    for rr, preimages in restricted_classes_by_restriction(datum, theta):
        members = inside + preimages
        sums = {tuple(x + y for x, y in zip(a, b)) for a in members for b in members}
        simples = [c for c in members if c not in sums]
        out.append((rr, subsystem_type_by_subdatum(datum, simples)))
    return out
