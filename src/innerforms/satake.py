"""Satake diagrams for inner forms of split groups, and the Levi transfer map.

A diagram is a based root datum plus a set of black vertices (the simple
roots of the minimal Levi of the non-split form).  Type-A periodic patterns
encode the inner forms GL_m(D_d); ``transfer_levi`` carries a GL-sandwich
Levi to its division-algebra shape.  Rendering is deterministic text with a
Unicode default and an ASCII fallback, and round-trips through
``parse_ascii`` for diagrams over canonical simply connected data.
"""

from __future__ import annotations

import os

from ._record import Record
from .errors import DatumError, TransferError
from .levi import LeviDescriptor, LeviReport, levi_datum
from .rootdata import (
    BasedRootDatum,
    ComponentLayout,
    IntMatrix,
    build_catalog_group,
    cartan_neighbours,
    component_layout,
    datum_product,
    simply_connected_datum,
)

ASCII_ENV_VAR = "INNERFORMS_ASCII"


class SatakeDiagram(Record):
    """Dynkin diagram of ``base`` with a black-vertex subset."""

    base: BasedRootDatum
    black: frozenset[int]

    def __post_init__(self):
        object.__setattr__(self, "black", frozenset(self.black))
        k = self.base.semisimple_rank
        if any(b < 0 or b >= k for b in self.black):
            raise DatumError(f"black vertices {sorted(self.black)} out of range")


class InnerFactor(Record):
    """One factor GL_m(D_d); ``kind`` records how much of the GL the group fills."""

    m: int
    d: int
    kind: str  # "GL" | "SL" | "sandwich"

    def __post_init__(self):
        if self.m < 1 or self.d < 1:
            raise DatumError("factor sizes must be positive")
        if self.kind not in ("GL", "SL", "sandwich"):
            raise DatumError(f"unknown factor kind {self.kind!r}")

    @property
    def n(self) -> int:
        return self.m * self.d

    def __str__(self) -> str:
        body = f"GL_{self.m}(D_{self.d})" if self.d > 1 else f"GL_{self.m}(F)"
        if self.kind == "SL":
            body = body.replace("GL", "SL", 1)
        return body


class InnerFormShape(Record):
    factors: tuple[InnerFactor, ...]
    field_note: str = ""

    def __str__(self) -> str:
        body = " x ".join(str(f) for f in self.factors) if self.factors else "(torus)"
        return f"{body} [{self.field_note}]" if self.field_note else body


# ---------------------------------------------------------------------------
# type-A periodic patterns


def type_a_black_positions(n: int, d: int) -> list[int]:
    """0-based black positions on the A_{n-1} chain: all but d, 2d, ..., n-d (1-based)."""
    if n < 1 or d < 1 or n % d != 0:
        raise TransferError(f"no inner-form diagram: {d} does not divide {n}")
    return [i for i in range(n - 1) if (i + 1) % d]


def type_a_satake(n: int, d: int) -> SatakeDiagram:
    """Satake diagram of the inner form GL_{n/d}(D_d) of GL_n.

    White vertices sit at positions d, 2d, ..., n-d; black vertices fill
    runs of length d-1 between them.  d = 1 is the split (all-white) form,
    d = n the form anisotropic modulo the center (all-black).
    """
    base = build_catalog_group("GL", [n])
    return SatakeDiagram(base=base, black=frozenset(type_a_black_positions(n, d)))


# ---------------------------------------------------------------------------
# Levi transfer


def transfer_levi(report: LeviReport, division_degrees) -> InnerFormShape:
    """Transfer a sandwich Levi to its inner form shape prod GL_{m_i}(D_{d_i}).

    Each division degree must divide its envelope size n_i; otherwise the
    inner form has no corresponding Levi and TransferError is raised.
    Factor kind is GL when the Levi is exactly the GL-envelope (times
    central GL_1 factors) and sandwich otherwise.
    """
    if not report.condition_one:
        raise TransferError(
            "Levi does not satisfy the SL-GL sandwich condition; no transfer"
        )
    envelope = report.gl_envelope or ()
    degrees = tuple(int(d) for d in division_degrees)
    if len(degrees) != len(envelope):
        raise TransferError(
            f"expected {len(envelope)} division degrees for envelope {envelope}, "
            f"got {len(degrees)}"
        )
    factors = []
    for n_i, d_i in zip(envelope, degrees):
        if d_i < 1:
            raise TransferError(f"division degree {d_i} must be >= 1")
        if n_i % d_i:
            raise TransferError(
                f"degree {d_i} does not divide {n_i}: no corresponding Levi "
                f"in this inner form"
            )
        kind = "GL" if report.envelope_exact else "sandwich"
        factors.append(InnerFactor(n_i // d_i, d_i, kind))
    if report.envelope_exact:
        note = f"central GL_1 factors: {report.central_gl1s}"
    else:
        note = (
            "proper sandwich between the SL- and GL-products; "
            f"split component rank {report.split_component_rank}"
        )
    return InnerFormShape(tuple(factors), note)


def levi_satake_diagram(desc: LeviDescriptor, division_degrees) -> SatakeDiagram:
    """Satake diagram of the Levi's inner form: period-d_i black runs per factor."""
    sub = levi_datum(desc)
    layouts = sub.layouts
    degrees = tuple(int(d) for d in division_degrees)
    if len(degrees) != len(layouts):
        raise TransferError(
            f"expected {len(layouts)} degrees (one per component), got {len(degrees)}"
        )
    black: set[int] = set()
    for layout, d in zip(layouts, degrees):
        if layout.series != "A":
            raise TransferError("period patterns only exist on type-A components")
        black.update(layout.chain[i] for i in type_a_black_positions(layout.rank + 1, d))
    return SatakeDiagram(sub, frozenset(black))


# ---------------------------------------------------------------------------
# rendering

_GLYPHS = {
    True: {  # unicode
        "black": "●",
        "white": "○",
        (1, ""): "—",
        (2, "right"): "⇒",
        (2, "left"): "⇐",
        (3, "right"): "⇛",
        (3, "left"): "⇚",
    },
    False: {  # ascii
        "black": "*",
        "white": "o",
        (1, ""): "--",
        (2, "right"): "=>",
        (2, "left"): "<=",
        (3, "right"): "3>",
        (3, "left"): "<3",
    },
}
# the parser reads both alphabets: vertex glyph -> black?, bond glyph -> (mult, arrow)
_VERTICES = {g[color]: color == "black" for g in _GLYPHS.values() for color in ("black", "white")}
_BONDS = {glyph: key for g in _GLYPHS.values() for key, glyph in g.items()
          if isinstance(key, tuple)}


def _use_unicode(unicode: bool | None) -> bool:
    if unicode is not None:
        return unicode
    return not os.environ.get(ASCII_ENV_VAR)


def render_ascii(diagram: SatakeDiagram, unicode: bool | None = None) -> str:
    """Deterministic text rendering; components are blocks separated by blank lines.

    Double and triple bonds carry an arrow pointing at the short root; a
    branch node (D/E types) hangs below its attachment.  Honors the
    INNERFORMS_ASCII environment variable unless ``unicode`` is forced.
    """
    uni = _use_unicode(unicode)
    g = _GLYPHS[uni]
    datum = diagram.base
    cartan = datum.cartan
    blocks = []
    for layout in datum.layouts:
        chain = layout.chain
        line = ""
        cols = []
        for idx, node in enumerate(chain):
            cols.append(len(line))
            line += g["black"] if node in diagram.black else g["white"]
            if idx + 1 < len(chain):
                nxt = chain[idx + 1]
                mult = cartan[node][nxt] * cartan[nxt][node]
                # C[a][b] == -mult means a is the short root
                side = "" if mult == 1 else "left" if cartan[node][nxt] == -mult else "right"
                line += g[(mult, side)]
        if layout.hanging is None:
            blocks.append(line)
        else:
            pad = " " * cols[layout.attach]
            sym = g["black"] if layout.hanging in diagram.black else g["white"]
            blocks.append("\n".join([line, pad + "|", pad + sym]))
    return "\n\n".join(blocks)


# ---------------------------------------------------------------------------
# parsing back to a diagram over canonical data


def _tokenize_chain(line: str) -> tuple[list[bool], list[tuple[int, str]], list[int]]:
    """Colors (True = black), bonds (mult, direction), and node columns."""
    colors: list[bool] = []
    edges: list[tuple[int, str]] = []
    cols: list[int] = []
    i = 0
    expect_node = True
    while i < len(line):
        ch = line[i]
        if expect_node:
            if ch not in _VERTICES:
                raise DatumError(f"expected a vertex symbol at column {i}: {line!r}")
            colors.append(_VERTICES[ch])
            cols.append(i)
            i += 1
            expect_node = False
        else:
            matched = None
            for tok, info in _BONDS.items():
                if line.startswith(tok, i):
                    matched = (tok, info)
                    break
            if matched is None:
                raise DatumError(f"expected a bond at column {i}: {line!r}")
            edges.append(matched[1])
            i += len(matched[0])
            expect_node = True
    if expect_node:
        raise DatumError(f"dangling bond in {line!r}")
    return colors, edges, cols


def _read_block(block: str) -> tuple[ComponentLayout, IntMatrix, list[bool]]:
    """One component block -> its walker layout, Cartan matrix and node colors.

    Chain nodes are numbered left to right and the hanging node last; an
    arrow points at the short root.
    """
    lines = block.split("\n")
    colors, edges, cols = _tokenize_chain(lines[0])
    bonds = [(i, i + 1, mult, direction) for i, (mult, direction) in enumerate(edges)]
    if len(lines) > 1:
        if len(lines) != 3 or lines[1].strip() != "|":
            raise DatumError(f"malformed branch block: {block!r}")
        bar_col = lines[1].index("|")
        sym = lines[2].strip()
        if sym not in _VERTICES:
            raise DatumError(f"bad hanging vertex {sym!r}")
        if lines[2].index(sym) != bar_col or bar_col not in cols:
            raise DatumError(f"branch not aligned under a chain vertex: {block!r}")
        attach = cols.index(bar_col)
        if attach in (0, len(cols) - 1):
            raise DatumError(f"branch at a chain end: {block!r}")
        bonds.append((attach, len(colors), 1, ""))
        colors.append(_VERTICES[sym])

    k = len(colors)
    cartan = [[2 if i == j else 0 for j in range(k)] for i in range(k)]
    for a, b, mult, direction in bonds:
        short, long = (b, a) if direction == "right" else (a, b)
        cartan[short][long], cartan[long][short] = -mult, -1
    return component_layout(cartan, cartan_neighbours(cartan), range(k)), cartan, colors


def parse_ascii(text: str) -> SatakeDiagram:
    """Parse a rendered diagram back into canonical simply connected form.

    Inverse to render_ascii on diagrams over a product of canonical simply
    connected data; for other bases it recovers the same picture over
    canonical data (the torus part and lattice gluing are not encoded in the
    picture).  Each block is classified by the Dynkin walker and its nodes
    are laid onto the canonical drawing of its type; a path whose bonds read
    backwards is reversed.  The base is the product of one canonical simply
    connected datum per block; both inherit the Bourbaki Cartan matrices
    (see :func:`datum_product`), so a parse validates no datum: the walk of
    each picture block is its check.
    """
    blocks = [_read_block(b) for b in text.split("\n\n") if b.strip()]
    base = datum_product([simply_connected_datum(lay.series, lay.rank) for lay, _, _ in blocks])
    black: set[int] = set()
    for (layout, cartan, colors), target in zip(blocks, base.layouts):
        chain = layout.chain
        drawn = [cartan[a][b] for a, b in zip(chain, chain[1:])]
        if drawn != [base.cartan[a][b] for a, b in zip(target.chain, target.chain[1:])]:
            chain = chain[::-1]
        position = dict(zip((*chain, layout.hanging), (*target.chain, target.hanging)))
        black.update(position[v] for v, color in enumerate(colors) if color)
    return SatakeDiagram(base, frozenset(black))
