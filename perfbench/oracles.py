"""Expected answers computed without the library.

Closed forms for Weyl orders and positive-root counts, a small Dynkin
classifier for theta-subdiagrams (Bourbaki numbering, as the catalog uses),
block arithmetic for type-A Levis, and the term-by-term rule of the LJ map
with the grammar's canonical rendering.  The checkers compare library and CLI
outputs against these.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, gcd

# ---------------------------------------------------------------------------
# Dynkin diagrams of the weyl part's groups

_E_EDGES = {6: [(1, 3), (3, 4), (4, 5), (5, 6), (2, 4)]}
_E_EDGES[7] = _E_EDGES[6] + [(6, 7)]
_E_EDGES[8] = _E_EDGES[7] + [(7, 8)]


def series_of(tag: str, params) -> tuple[str, int]:
    """Irreducible type of a simple catalog group (B2 is reported as C2)."""
    fixed = {"E6sc": ("E", 6), "E7sc": ("E", 7), "E8": ("E", 8), "F4": ("F", 4), "G2": ("G", 2)}
    if tag in fixed:
        return fixed[tag]
    (n,) = params
    if tag == "SL":
        return ("A", n - 1)
    if tag == "Sp":
        return ("C", n // 2)
    if tag == "Spin" and n % 2:
        return ("B", n // 2) if n >= 7 else ("C", 2)
    if tag == "Spin":
        return ("D", n // 2)
    raise ValueError(f"no diagram oracle for {tag}{params}")


def diagram_edges(series: str, k: int) -> dict[frozenset, int]:
    """Bonds of the Bourbaki diagram, 0-based nodes -> bond multiplicity."""
    if series == "E":
        return {frozenset((i - 1, j - 1)): 1 for i, j in _E_EDGES[k]}
    edges = {frozenset((i, i + 1)): 1 for i in range(k - 1)}
    if series in ("B", "C") and k >= 2:
        edges[frozenset((k - 2, k - 1))] = 2
    if series == "D":
        del edges[frozenset((k - 2, k - 1))]
        edges[frozenset((k - 3, k - 1))] = 1
    if series == "F":
        edges[frozenset((1, 2))] = 2
    if series == "G":
        edges[frozenset((0, 1))] = 3
    return edges


def _components(nodes, edges):
    nodes = set(nodes)
    comps = []
    while nodes:
        stack = [nodes.pop()]
        comp = set(stack)
        while stack:
            v = stack.pop()
            for w in list(nodes):
                if frozenset((v, w)) in edges:
                    nodes.discard(w)
                    comp.add(w)
                    stack.append(w)
        comps.append(comp)
    return comps


def component_type(comp, edges) -> tuple[str, int]:
    """Type of a connected subdiagram, from its shape and bonds."""
    m = len(comp)
    inner = {e: b for e, b in edges.items() if e <= comp}
    bonds = sorted(inner.values())
    if 3 in bonds:
        return ("G", 2)
    if 2 in bonds:
        (double,) = [e for e, b in inner.items() if b == 2]
        degree = {v: sum(v in e for e in inner) for v in comp}
        if m == 4 and all(degree[v] == 2 for v in double):
            return ("F", 4)
        return ("C", m) if m >= 2 else ("A", 1)
    degree = {v: sum(v in e for e in inner) for v in comp}
    branch = [v for v in comp if degree[v] == 3]
    if not branch:
        return ("A", m)
    (b,) = branch
    arms = []
    for start in [w for w in comp if frozenset((b, w)) in inner]:
        length, prev, cur = 1, b, start
        while True:
            nxt = [w for w in comp if w != prev and frozenset((cur, w)) in inner]
            if not nxt:
                break
            prev, cur = cur, nxt[0]
            length += 1
        arms.append(length)
    arms.sort()
    if arms[:2] == [1, 1]:
        return ("D", m)
    return ("E", m)


def positive_root_count(series: str, k: int) -> int:
    if series == "A":
        return k * (k + 1) // 2
    if series in ("B", "C"):
        return k * k
    if series == "D":
        return k * (k - 1)
    return {("E", 6): 36, ("E", 7): 63, ("E", 8): 120, ("F", 4): 24, ("G", 2): 6}[(series, k)]


def weyl_order(series: str, k: int) -> int:
    if series == "A":
        return factorial(k + 1)
    if series in ("B", "C"):
        return 2**k * factorial(k)
    if series == "D":
        return 2 ** (k - 1) * factorial(k)
    return {("E", 6): 51840, ("E", 7): 2903040, ("E", 8): 696729600,
            ("F", 4): 1152, ("G", 2): 12}[(series, k)]


def theta_positive_roots(series: str, k: int, theta) -> int:
    """|Phi+_theta| of the standard Levi generated by theta."""
    edges = diagram_edges(series, k)
    return sum(positive_root_count(*component_type(c, edges)) for c in _components(theta, edges))


# ---------------------------------------------------------------------------
# type-A Levis


def gl_blocks(n: int, theta) -> list[int]:
    """Block sizes of GL_n cut at the simple roots missing from theta."""
    removed = [i for i in range(n - 1) if i not in set(theta)]
    edges = [0, *(r + 1 for r in removed), n]
    return [edges[i + 1] - edges[i] for i in range(len(edges) - 1)]


def type_a_sandwich(tag: str, blocks) -> bool:
    """GL/SL Levis always satisfy the sandwich; PGL ones iff gcd(blocks) = 1."""
    if tag != "PGL":
        return True
    g = 0
    for b in blocks:
        g = gcd(g, b)
    return g == 1


def kottwitz_order(tag: str, params) -> int | None:
    """|A(G)|: 1 for GL_n and SL_n, n for PGL_n; None when no closed form is kept."""
    if tag in ("GL", "SL"):
        return 1
    if tag == "PGL":
        return params[0]
    return None


# ---------------------------------------------------------------------------
# the LJ map, term by term


def accumulate(terms) -> dict:
    """(composition, tags) -> coefficient, zero coefficients dropped."""
    out: dict = {}
    for coeff, comp, tags in terms:
        key = (tuple(comp), tuple(tags))
        out[key] = out.get(key, 0) + coeff
    return {k: v for k, v in out.items() if v}


def lj_expected(terms: dict, d: int) -> dict:
    """A term survives iff every block is divisible by d; blocks are divided by d."""
    out: dict = {}
    for (comp, tags), coeff in terms.items():
        if all(c % d == 0 for c in comp):
            key = (tuple(c // d for c in comp), tags)
            out[key] = out.get(key, 0) + coeff
    return {k: v for k, v in out.items() if v}


def render_expected(terms: dict) -> str:
    """Canonical text: terms sorted by (composition, tags), '+'/'-' joined."""
    if not terms:
        return "0"
    parts = []
    for (comp, tags), coeff in sorted(terms.items()):
        body = f"({','.join(map(str, comp))}):{','.join(tags)}"
        mag = abs(coeff)
        body = body if mag == 1 else f"{mag}*{body}"
        if not parts:
            parts.append(("-" if coeff < 0 else "") + body)
        else:
            parts.append((" - " if coeff < 0 else " + ") + body)
    return "".join(parts)


def element_terms(element) -> dict:
    """A library VirtualElement as the oracle's (composition, tags) dict."""
    return {(e.composition, e.labels): c for e, c in element.terms.items()}


def hasse_total(invariants) -> Fraction:
    total = sum((Fraction(j, d) for _, j, d in invariants), Fraction(0))
    return total - (total.numerator // total.denominator)
