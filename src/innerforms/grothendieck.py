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
from operator import itemgetter
from typing import Callable, Mapping

from ._record import Record, _setattr
from .errors import GroupSpecError, TransferError


class GroupSide:
    """GL_m(D_d); the split side is d = 1 with n = m.

    One object per (m, d), so equality and hashing are by identity.
    """

    __slots__ = ("m", "d")
    _interned: dict[tuple[int, int], GroupSide] = {}

    def __new__(cls, m: int, d: int = 1):
        side = cls._interned.get((m, d))
        if side is None:
            if m < 1 or d < 1:
                raise GroupSpecError("group side needs positive m and d")
            side = cls._interned[m, d] = object.__new__(cls)
            _setattr(side, "m", m)
            _setattr(side, "d", d)
        return side

    def __reduce__(self):
        return GroupSide, (self.m, self.d)

    # frozen, with the dataclass repr, as the other records
    _fields = __slots__
    __setattr__, __delattr__, __repr__ = Record.__setattr__, Record.__delattr__, Record.__repr__

    @property
    def split(self) -> bool:
        return self.d == 1


def split_side(n: int) -> GroupSide:
    return GroupSide(n, 1)


def inner_side(m: int, d: int) -> GroupSide:
    return GroupSide(m, d)


class BasisElement:
    """Induced from the standard Levi given by ``composition``, one tag per block.

    The hash is computed once, after validation; equality compares it first.
    """

    __slots__ = ("side", "composition", "labels", "_hash")

    def __init__(self, side: GroupSide, composition: tuple[int, ...], labels: tuple[str, ...]):
        if not composition or min(composition) < 1:
            raise GroupSpecError(f"bad composition {composition}")
        if sum(composition) != side.m:
            raise GroupSpecError(f"composition {composition} does not sum to {side.m}")
        if len(labels) != len(composition):
            raise GroupSpecError("one label per composition block required")
        _fill(self, side, composition, labels)

    @classmethod
    def _checked(cls, side: GroupSide, composition: tuple[int, ...], labels: tuple[str, ...]):
        """A term whose nonnegative blocks are known to sum to ``side.m``, one label each."""
        if 0 in composition:
            raise GroupSpecError(f"bad composition {composition}")
        return _fill(object.__new__(cls), side, composition, labels)

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # rebuilt from the fields: a string hash differs between processes
        return BasisElement, (self.side, self.composition, self.labels)

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (
            self._hash == other._hash
            and self.composition == other.composition
            and self.labels == other.labels
            and self.side is other.side
        )

    _fields = ("side", "composition", "labels")
    __setattr__, __delattr__, __repr__ = Record.__setattr__, Record.__delattr__, Record.__repr__

    def render(self) -> str:
        return _composition_text(self.composition) + ",".join(self.labels)


def _fill(elt: BasisElement, side, composition, labels) -> BasisElement:
    _setattr(elt, "side", side)
    _setattr(elt, "composition", composition)
    _setattr(elt, "labels", labels)
    _setattr(elt, "_hash", hash((side, composition, labels)))
    return elt


def _composition_text(composition: tuple[int, ...]) -> str:
    """The ``(comp):`` head of a rendered term; its tags follow, comma-joined."""
    return f"({','.join(map(str, composition))}):"


_first = itemgetter(0)


def _canonical_groups(terms: dict[BasisElement, int]):
    """Terms in canonical order, grouped by composition.

    Yields (composition, [(labels, element, coefficient), ...]) with the
    compositions ascending and the labels ascending within a group; equal
    keys (the same labels on different sides) keep their insertion order.
    Sorting compositions and labels separately compares less than sorting
    (composition, labels) pairs, and each composition is rendered once.
    """
    groups: dict[tuple[int, ...], list[tuple[tuple[str, ...], BasisElement, int]]] = {}
    for elt, coeff in terms.items():
        group = groups.get(elt.composition)
        if group is None:
            groups[elt.composition] = [(elt.labels, elt, coeff)]
        else:
            group.append((elt.labels, elt, coeff))
    for composition in sorted(groups):
        yield composition, sorted(groups[composition], key=_first)


class VirtualElement:
    """Z-linear combination of basis elements; zero coefficients are dropped.

    Terms are kept in an unordered dict, so equality and hash do not depend
    on the order in which terms were added.  The canonical order, by
    (composition, labels), is applied where order can be seen: ``render``,
    ``repr`` and the ``terms`` copy.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[BasisElement, int] | None = None):
        self._terms = {e: c for e, c in terms.items() if c} if terms else {}

    @classmethod
    def _adopt(cls, terms: dict[BasisElement, int]) -> "VirtualElement":
        """Wrap a freshly built dict without zero coefficients; no copy."""
        out = cls.__new__(cls)
        out._terms = terms
        return out

    @staticmethod
    def of(element: BasisElement, coefficient: int = 1) -> "VirtualElement":
        return VirtualElement({element: coefficient})

    @property
    def terms(self) -> dict[BasisElement, int]:
        return {
            elt: coeff
            for _, group in _canonical_groups(self._terms)
            for _, elt, coeff in group
        }

    def is_zero(self) -> bool:
        return not self._terms

    def _combine(self, other: "VirtualElement", sign: int) -> "VirtualElement":
        out = dict(self._terms)
        for elt, coeff in other._terms.items():
            total = out.get(elt, 0) + sign * coeff
            if total:
                out[elt] = total
            else:
                del out[elt]
        return VirtualElement._adopt(out)

    def __add__(self, other: "VirtualElement") -> "VirtualElement":
        return self._combine(other, 1)

    def __neg__(self) -> "VirtualElement":
        return VirtualElement._adopt({e: -c for e, c in self._terms.items()})

    def __sub__(self, other: "VirtualElement") -> "VirtualElement":
        return self._combine(other, -1)

    def scale(self, c: int) -> "VirtualElement":
        if not c:
            return zero()
        return VirtualElement._adopt({e: c * v for e, v in self._terms.items()})

    def __eq__(self, other) -> bool:
        return isinstance(other, VirtualElement) and self._terms == other._terms

    def __hash__(self):
        return hash(frozenset(self._terms.items()))

    def render(self) -> str:
        if not self._terms:
            return "0"
        parts = []
        for composition, group in _canonical_groups(self._terms):
            head = _composition_text(composition)
            for labels, _, coeff in group:
                sign = " - " if coeff < 0 else " + "
                if coeff in (1, -1):
                    parts.append(f"{sign}{head}{','.join(labels)}")
                else:
                    parts.append(f"{sign}{abs(coeff)}*{head}{','.join(labels)}")
        text = "".join(parts)
        return text[3:] if text[1] == "+" else "-" + text[3:]

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
    comp = tuple(map(int, composition))
    n = sum(comp)
    if d < 1 or n % d:
        raise TransferError(f"degree {d} does not divide n = {n}")
    blocks = [c // d for c in comp]
    if sum(blocks) * d != n:  # c // d * d < c for some block
        return None
    return tuple(blocks)


def _tag_mapper(label_transfer) -> Callable[[str], str] | None:
    """None for the identity, so that tags can be carried over unchanged."""
    if label_transfer is None:
        return None
    if isinstance(label_transfer, Mapping):
        return label_transfer.__getitem__
    return label_transfer


def _term_transfer(d: int, label_transfer=None) -> Callable[[BasisElement], BasisElement | None]:
    """The transfer of single basis elements, for the span of one call.

    Split-ness and d | n are checked once per distinct source side, and
    ``levi_transfers`` runs once per distinct composition; the returned
    function gives the image of a basis element, or None if it dies.
    """
    mapper = _tag_mapper(label_transfer)
    inner_sides: dict[GroupSide, GroupSide] = {}
    targets: dict[tuple[int, ...], tuple[int, ...] | None] = {}

    def transfer(elt: BasisElement) -> BasisElement | None:
        side = elt.side
        inner = inner_sides.get(side)
        if inner is None:
            if not side.split:
                raise TransferError("lj_map applies to split-side elements")
            (m,) = levi_transfers((side.m,), d)
            inner = inner_sides[side] = inner_side(m, d)
        comp = elt.composition
        if comp in targets:
            target = targets[comp]
        else:
            target = targets[comp] = levi_transfers(comp, d)
        if target is None:
            return None
        labels = elt.labels if mapper is None else tuple(mapper(t) for t in elt.labels)
        return BasisElement._checked(inner, target, labels)

    return transfer


def lj_map(element: VirtualElement, d: int, label_transfer=None) -> VirtualElement:
    """Z-linear transfer to the d-th inner side.

    Terms whose composition has a block not divisible by d are sent to zero;
    the rest keep their coefficients, with block sizes divided by d and tags
    carried through ``label_transfer`` (a bijection; identity by default).
    """
    transfer = _term_transfer(d, label_transfer)
    images = [(transfer(elt), coeff) for elt, coeff in element._terms.items()]
    kept = [(image, coeff) for image, coeff in images if image is not None]
    if label_transfer is None:
        # distinct split terms have distinct images: nothing merges
        return VirtualElement._adopt(dict(kept))
    merged: dict[BasisElement, int] = {}
    for image, coeff in kept:  # a tag map that is not injective merges terms
        merged[image] = merged.get(image, 0) + coeff
    return VirtualElement(merged)


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
# product bookkeeping


def _tensor_key(item: tuple[tuple[BasisElement, ...], int]):
    return tuple((e.composition, e.labels) for e in item[0])


class TensorElement:
    """Formal sum of tuples of basis elements (one per GL factor of a product).

    Like ``VirtualElement``: unordered terms, canonical order in ``terms``.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[tuple[BasisElement, ...], int] | None = None):
        self._terms = {k: v for k, v in terms.items() if v} if terms else {}

    @classmethod
    def _adopt(cls, terms: dict[tuple[BasisElement, ...], int]) -> "TensorElement":
        """Wrap a freshly built dict without zero coefficients; no copy."""
        out = cls.__new__(cls)
        out._terms = terms
        return out

    @property
    def terms(self) -> dict[tuple[BasisElement, ...], int]:
        return dict(sorted(self._terms.items(), key=_tensor_key))

    def is_zero(self) -> bool:
        return not self._terms

    def __eq__(self, other):
        return isinstance(other, TensorElement) and self._terms == other._terms

    def __hash__(self):
        return hash(frozenset(self._terms.items()))


def tensor(*factors: VirtualElement) -> TensorElement:
    """Tensor product of per-factor virtual elements."""
    # distinct prefixes extended by distinct elements stay distinct, and
    # products of nonzero coefficients are nonzero: nothing to accumulate
    terms: dict[tuple[BasisElement, ...], int] = {(): 1}
    for factor in factors:
        terms = {
            prefix + (elt,): c0 * c1
            for prefix, c0 in terms.items()
            for elt, c1 in factor._terms.items()
        }
    return TensorElement._adopt(terms)


def tensor_lj(element: TensorElement, degrees) -> TensorElement:
    """Factorwise transfer of a product element; a term dies if any factor dies."""
    degrees = tuple(degrees)
    steps = [(_term_transfer(d), {}) for d in degrees]
    out: dict[tuple[BasisElement, ...], int] = {}
    for key, coeff in element._terms.items():
        if len(key) != len(degrees):
            raise TransferError("one degree per tensor factor required")
        images = []
        for elt, (transfer, seen) in zip(key, steps):
            if elt in seen:
                image = seen[elt]
            else:
                image = seen[elt] = transfer(elt)
            if image is None:
                break
            images.append(image)
        else:
            # the images of distinct split terms are distinct
            out[tuple(images)] = coeff
    return TensorElement._adopt(out)


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
            raise GroupSpecError(
                f"composition {comp} sums to {total_n}, expected {seen_n}"
            )
        if side is None:
            side = split_side(total_n)
        element = BasisElement._checked(side, comp, tags)
        total[element] = total.get(element, 0) + coeff
        first = False
        pos = match.end()
    if first:
        raise GroupSpecError("empty element expression")
    return VirtualElement(total)
