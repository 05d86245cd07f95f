"""Formal transfer between Grothendieck-group bases of GL_n(F) and GL_m(D_d).

Basis elements are parabolically induced from standard Levis, recorded as
ordered compositions with opaque discrete-series tags.  The transfer map
keeps a term when every block of its composition is divisible by d (the
standard Levi then has a counterpart on the division-algebra side) and
kills it otherwise; it is Z-linear and surjective onto the inner basis.
Tag semantics never enter: any bijection of tags models the underlying
discrete-series correspondence.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Callable, Mapping

from .errors import GroupSpecError, TransferError


@dataclass(frozen=True)
class GroupSide:
    """GL_m(D_d); the split side is d = 1 with n = m."""

    m: int
    d: int = 1

    def __post_init__(self):
        if self.m < 1 or self.d < 1:
            raise GroupSpecError("group side needs positive m and d")

    @property
    def n(self) -> int:
        return self.m * self.d

    @property
    def split(self) -> bool:
        return self.d == 1

    def __str__(self) -> str:
        return f"GL_{self.m}" if self.split else f"GL_{self.m}(D_{self.d})"


def split_side(n: int) -> GroupSide:
    return GroupSide(m=n, d=1)


def inner_side(m: int, d: int) -> GroupSide:
    return GroupSide(m=m, d=d)


@dataclass(frozen=True)
class BasisElement:
    """Induced from the standard Levi given by ``composition``, one tag per block."""

    side: GroupSide
    composition: tuple[int, ...]
    labels: tuple[str, ...]

    def __post_init__(self):
        if not self.composition or any(c < 1 for c in self.composition):
            raise GroupSpecError(f"bad composition {self.composition}")
        if sum(self.composition) != self.side.m:
            raise GroupSpecError(
                f"composition {self.composition} does not sum to {self.side.m}"
            )
        if len(self.labels) != len(self.composition):
            raise GroupSpecError("one label per composition block required")

    def render(self) -> str:
        comp = ",".join(str(c) for c in self.composition)
        tags = ",".join(self.labels)
        return f"({comp}):{tags}"


class VirtualElement:
    """Z-linear combination of basis elements; zero coefficients are dropped."""

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[BasisElement, int] | None = None):
        data = {}
        for elt, coeff in (terms or {}).items():
            if coeff:
                data[elt] = coeff
        self._terms = dict(
            sorted(data.items(), key=lambda kv: (kv[0].composition, kv[0].labels))
        )

    @staticmethod
    def of(element: BasisElement, coefficient: int = 1) -> "VirtualElement":
        return VirtualElement({element: coefficient})

    @property
    def terms(self) -> dict[BasisElement, int]:
        return dict(self._terms)

    def is_zero(self) -> bool:
        return not self._terms

    def coefficient(self, element: BasisElement) -> int:
        return self._terms.get(element, 0)

    def __add__(self, other: "VirtualElement") -> "VirtualElement":
        out = dict(self._terms)
        for elt, coeff in other._terms.items():
            out[elt] = out.get(elt, 0) + coeff
        return VirtualElement(out)

    def __neg__(self) -> "VirtualElement":
        return VirtualElement({e: -c for e, c in self._terms.items()})

    def __sub__(self, other: "VirtualElement") -> "VirtualElement":
        return self + (-other)

    def scale(self, c: int) -> "VirtualElement":
        return VirtualElement({e: c * v for e, v in self._terms.items()})

    def __rmul__(self, c: int) -> "VirtualElement":
        return self.scale(c)

    def __eq__(self, other) -> bool:
        return isinstance(other, VirtualElement) and self._terms == other._terms

    def __hash__(self):
        return hash(tuple(self._terms.items()))

    def render(self) -> str:
        if not self._terms:
            return "0"
        parts = []
        for elt, coeff in self._terms.items():
            body = elt.render()
            if coeff == 1:
                piece = body
            elif coeff == -1:
                piece = f"-{body}"
            else:
                piece = f"{coeff}*{body}"
            parts.append(piece)
        out = parts[0]
        for piece in parts[1:]:
            out += f" - {piece[1:]}" if piece.startswith("-") else f" + {piece}"
        return out

    def __repr__(self):
        return f"VirtualElement({self.render()})"


def zero() -> VirtualElement:
    return VirtualElement()


# ---------------------------------------------------------------------------
# transfer


def levi_transfers(composition, d: int) -> tuple[int, ...] | None:
    """Composition of n/d matching the standard Levi on the inner side, or None.

    Exists iff every block is divisible by d; raises if d does not divide
    the total (that inner form does not exist at all).
    """
    comp = tuple(int(c) for c in composition)
    n = sum(comp)
    if d < 1 or n % d:
        raise TransferError(f"degree {d} does not divide n = {n}")
    if any(c % d for c in comp):
        return None
    return tuple(c // d for c in comp)


def _tag_mapper(label_transfer) -> Callable[[str], str]:
    if label_transfer is None:
        return lambda tag: tag
    if isinstance(label_transfer, Mapping):
        return lambda tag: label_transfer[tag]
    return label_transfer


def lj_map(element: VirtualElement, d: int, label_transfer=None) -> VirtualElement:
    """Z-linear transfer to the d-th inner side.

    Terms whose composition has a block not divisible by d are sent to zero;
    the rest keep their coefficients, with block sizes divided by d and tags
    carried through ``label_transfer`` (a bijection; identity by default).
    """
    mapper = _tag_mapper(label_transfer)
    out: dict[BasisElement, int] = {}
    for elt, coeff in element.terms.items():
        if not elt.side.split:
            raise TransferError("lj_map applies to split-side elements")
        target = levi_transfers(elt.composition, d)
        if target is None:
            continue
        image = BasisElement(
            side=inner_side(elt.side.m // d, d),
            composition=target,
            labels=tuple(mapper(t) for t in elt.labels),
        )
        out[image] = out.get(image, 0) + coeff
    return VirtualElement(out)


def unitary_transfer(element: VirtualElement, d: int, label_transfer=None) -> BasisElement:
    """The transfer restricted to a single transferable basis term.

    Alias of ``lj_map`` on its unitary domain: the input must be one basis
    element with coefficient 1 whose composition transfers; the image is the
    corresponding inner basis element.  Raises TransferError otherwise.
    """
    terms = element.terms
    if len(terms) != 1 or set(terms.values()) != {1}:
        raise TransferError("unitary transfer applies to a single basis term")
    image = lj_map(element, d, label_transfer)
    if image.is_zero():
        raise TransferError("term is not transferable (its Levi has no counterpart)")
    ((target, _),) = image.terms.items()
    return target


def character_sign(n: int, m: int) -> int:
    """The sign (-1)^(n-m) relating character values across the transfer."""
    if n < 1 or m < 1 or n % m:
        raise TransferError(f"m = {m} must divide n = {n}")
    return -1 if (n - m) % 2 else 1


def is_d_compatible(element: VirtualElement, d: int) -> bool:
    """Whether the transfer of ``element`` survives (is nonzero)."""
    return not lj_map(element, d).is_zero()


def global_d_compatibility(
    place_degrees: Mapping[str, int], place_elements: Mapping[str, VirtualElement]
) -> bool:
    """Conjunction of d_v-compatibility over the non-split places (d_v > 1)."""
    for place, d in place_degrees.items():
        if d < 1:
            raise GroupSpecError(f"bad degree {d} at place {place}")
        if d == 1:
            continue
        if place not in place_elements:
            raise GroupSpecError(f"no local element given at non-split place {place}")
        if not is_d_compatible(place_elements[place], d):
            return False
    return True


# ---------------------------------------------------------------------------
# small built-ins (the GL_2 rewrite) and product bookkeeping


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


class TensorElement:
    """Formal sum of tuples of basis elements (one per GL factor of a product)."""

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[tuple[BasisElement, ...], int] | None = None):
        data = {k: v for k, v in (terms or {}).items() if v}
        self._terms = dict(
            sorted(
                data.items(),
                key=lambda kv: tuple((e.composition, e.labels) for e in kv[0]),
            )
        )

    @property
    def terms(self) -> dict[tuple[BasisElement, ...], int]:
        return dict(self._terms)

    def is_zero(self) -> bool:
        return not self._terms

    def __eq__(self, other):
        return isinstance(other, TensorElement) and self._terms == other._terms

    def __hash__(self):
        return hash(tuple(self._terms.items()))


def tensor(*factors: VirtualElement) -> TensorElement:
    """Tensor product of per-factor virtual elements."""
    terms: dict[tuple[BasisElement, ...], int] = {(): 1}
    for factor in factors:
        new: dict[tuple[BasisElement, ...], int] = {}
        for prefix, c0 in terms.items():
            for elt, c1 in factor.terms.items():
                key = prefix + (elt,)
                new[key] = new.get(key, 0) + c0 * c1
        terms = new
    return TensorElement(terms)


def tensor_lj(element: TensorElement, degrees) -> TensorElement:
    """Factorwise transfer of a product element; a term dies if any factor dies."""
    degrees = tuple(degrees)
    out: dict[tuple[BasisElement, ...], int] = {}
    for key, coeff in element.terms.items():
        if len(key) != len(degrees):
            raise TransferError("one degree per tensor factor required")
        images = []
        dead = False
        for elt, d in zip(key, degrees):
            image = lj_map(VirtualElement.of(elt), d)
            if image.is_zero():
                dead = True
                break
            ((ielt, icoeff),) = image.terms.items()
            assert icoeff == 1
            images.append(ielt)
        if dead:
            continue
        tkey = tuple(images)
        out[tkey] = out.get(tkey, 0) + coeff
    return TensorElement(out)


# ---------------------------------------------------------------------------
# expression grammar: INT? '*'? '(' comp ')' ':' tags, joined by +/-

_TERM_RE = re.compile(
    r"""
    \s*(?P<sign>[+-])?\s*
    (?:(?P<coeff>\d+)\s*\*\s*)?
    \((?P<comp>\d+(?:\s*,\s*\d+)*)\)
    \s*:\s*
    (?P<tags>[A-Za-z_][A-Za-z0-9_']*(?:\s*,\s*[A-Za-z_][A-Za-z0-9_']*)*)
    \s*
    """,
    re.VERBOSE,
)
_LIST_SEP = re.compile(r"\s*,\s*")


def parse_virtual(text: str, n: int | None = None) -> VirtualElement:
    """Parse the term grammar, e.g. ``(2,4):a,b + 3*(6):c - (1,5):u,v``.

    Every term must be a composition of the same n (checked against the
    given n when provided).  The literal ``0`` denotes the zero element.
    """
    text = text.strip()
    if text == "0":
        return zero()
    pos = 0
    total: dict[BasisElement, int] = {}
    first = True
    seen_n = n
    while pos < len(text):
        match = _TERM_RE.match(text, pos)
        if match is None or match.start() != pos:
            raise GroupSpecError(f"cannot parse element near offset {pos}: {text[pos:pos+20]!r}")
        sign = match.group("sign")
        if first and sign is None:
            sign = "+"
        if sign is None:
            raise GroupSpecError(f"missing +/- between terms at offset {pos}")
        coeff = int(match.group("coeff") or 1) * (1 if sign == "+" else -1)
        comp = tuple(int(x) for x in _LIST_SEP.split(match.group("comp")))
        tags = tuple(_LIST_SEP.split(match.group("tags")))
        if len(tags) != len(comp):
            raise GroupSpecError(
                f"term {match.group(0).strip()!r}: {len(comp)} blocks but {len(tags)} tags"
            )
        total_n = sum(comp)
        if seen_n is None:
            seen_n = total_n
        elif total_n != seen_n:
            raise GroupSpecError(
                f"composition {comp} sums to {total_n}, expected {seen_n}"
            )
        element = BasisElement(split_side(total_n), comp, tags)
        total[element] = total.get(element, 0) + coeff
        first = False
        pos = match.end()
    if first:
        raise GroupSpecError("empty element expression")
    return VirtualElement(total)
