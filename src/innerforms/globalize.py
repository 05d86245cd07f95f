"""Local-to-global construction engine: prime searches, place plans, cocycles.

Places are symbolic labels; what the construction actually consumes are
cardinalities, quadratic splitting verdicts, and exact Q/Z sums of local
invariants, so no number-field element arithmetic appears.  All fractions
are canonical representatives in [0, 1).
"""

from __future__ import annotations

from fractions import Fraction

from ._record import Record
from .errors import GroupSpecError, TransferError

#: Largest prime a plan or a finite place may name.  Primality is tested by
#: trial division, about sqrt(p)/2 steps per place, so larger primes are
#: refused before any division; at this limit a plan of MAX_PLACES places
#: takes about 0.2 s on a 2-vCPU host.
MAX_PRIME = 10**6

# most places a plan may list; each one is a PlaceLabel held in memory
MAX_PLACES = 4096

#: Most split primes ``split_primes`` searches for: the tower primes a plan of
#: MAX_PLACES places needs (degree 2^12 = 4096).
MAX_TOWER_PRIMES = (MAX_PLACES - 1).bit_length()


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    i = 3
    while i * i <= n:
        if n % i == 0:
            return False
        i += 2
    return True


def legendre_symbol(a: int, p: int) -> int:
    """(a/p) for an odd prime p: 0, 1 or -1 by Euler's criterion."""
    a %= p
    if a == 0:
        return 0
    r = pow(a, (p - 1) // 2, p)
    return 1 if r == 1 else -1


def q_star(q: int) -> int:
    """q* = (-1)^((q-1)/2) q, the squarefree kernel of the quadratic field's discriminant."""
    return q if q % 4 == 1 else -q


def prime_splits_in_quadratic(p: int, q: int) -> bool:
    """Whether p splits completely in Q(sqrt(q*)) for an odd prime q != p.

    For odd p this says q* is a nonzero square mod p; for p = 2 the
    discriminant condition q* = 1 (mod 8).
    """
    if p == 2:
        return q_star(q) % 8 == 1
    return legendre_symbol(q_star(q), p) == 1


def split_primes(p: int, count: int) -> list[int]:
    """First ``count`` odd primes q (increasing, q != p) with p split in Q(sqrt(q*)).

    Raises GroupSpecError for p above :data:`MAX_PRIME` or ``count`` above
    :data:`MAX_TOWER_PRIMES`, before testing any number.
    """
    if p > MAX_PRIME:
        raise GroupSpecError(f"prime {p} is above the limit of {MAX_PRIME}")
    if count > MAX_TOWER_PRIMES:
        raise GroupSpecError(
            f"{count} split primes requested, above the limit of {MAX_TOWER_PRIMES}"
        )
    if not is_prime(p):
        raise GroupSpecError(f"{p} is not prime")
    if count < 0:
        raise GroupSpecError("count must be nonnegative")
    out: list[int] = []
    q = 3
    while len(out) < count:
        if q != p and is_prime(q) and prime_splits_in_quadratic(p, q):
            out.append(q)
        q += 2
    return out


# ---------------------------------------------------------------------------
# places and Hasse vectors


class PlaceLabel(Record):
    """Symbolic place: finite places carry their residue prime, at most
    :data:`MAX_PRIME`."""

    id: str
    kind: str = "finite"  # "finite" | "real" | "complex"
    prime: int | None = None

    def __post_init__(self):
        if self.kind not in ("finite", "real", "complex"):
            raise GroupSpecError(f"unknown place kind {self.kind!r}")
        if self.kind == "finite":
            if self.prime is not None and self.prime > MAX_PRIME:
                raise GroupSpecError(
                    f"finite place {self.id!r}: prime {self.prime} is above the limit of "
                    f"{MAX_PRIME}"
                )
            if self.prime is None or self.prime < 2 or not is_prime(self.prime):
                raise GroupSpecError(
                    f"finite place {self.id!r} needs a prime >= 2 (got {self.prime})"
                )
        elif self.prime is not None:
            raise GroupSpecError("archimedean places carry no prime")


def _canonical_fraction(x: Fraction) -> Fraction:
    return x - (x.numerator // x.denominator)  # representative in [0, 1)


class HasseVector(Record):
    """Finite-support map place -> Q/Z, entries canonical in [0, 1)."""

    entries: tuple[tuple[PlaceLabel, Fraction], ...]

    def __post_init__(self):
        seen = set()
        canon = []
        for place, value in self.entries:
            if place.id in seen:
                raise GroupSpecError(f"duplicate place {place.id!r}")
            seen.add(place.id)
            value = _canonical_fraction(Fraction(value))
            if value != 0:
                canon.append((place, value))
        object.__setattr__(
            self, "entries", tuple(sorted(canon, key=lambda pv: pv[0].id))
        )

    @staticmethod
    def from_items(items) -> "HasseVector":
        return HasseVector(entries=tuple(items))

    def support(self) -> tuple[PlaceLabel, ...]:
        return tuple(place for place, _ in self.entries)

    def total(self) -> Fraction:
        return _canonical_fraction(sum((v for _, v in self.entries), Fraction(0)))


# ---------------------------------------------------------------------------
# place plans


class GlobalizationPlan(Record):
    """Plan data for a number field with l places isomorphic to the base field.

    ``tower_primes`` are the r split primes whose square roots generate the
    degree-2^r tower; every place of T satisfies F_v = F by construction
    (recorded as an assertion, not re-derived).  S, when set, is the
    non-split locus; |S| must be a multiple of ``s_multiple_of``.
    """

    base_prime: int
    tower_primes: tuple[int, ...]
    degree: int
    places: tuple[PlaceLabel, ...]
    s_multiple_of: int | None = None
    s_places: tuple[PlaceLabel, ...] = ()
    cocycle: HasseVector | None = None

    def __post_init__(self):
        if self.degree != 2 ** len(self.tower_primes):
            raise GroupSpecError("degree must be 2^(number of tower primes)")
        if self.s_multiple_of is not None and self.s_places:
            if len(self.s_places) % self.s_multiple_of:
                raise GroupSpecError(
                    f"|S| = {len(self.s_places)} is not a multiple of {self.s_multiple_of}"
                )


def plan_places(p: int, l: int) -> GlobalizationPlan:
    """Tower plan with at least l places above p: minimal r with 2^r >= l.

    Raises GroupSpecError for l < 1 or l above :data:`MAX_PLACES`, before
    anything is built.

    >>> plan_places(5, 3).degree
    4
    """
    if l < 1:
        raise GroupSpecError("need at least one place")
    if l > MAX_PLACES:
        raise GroupSpecError(f"{l} places requested, above the limit of {MAX_PLACES}")
    r = (l - 1).bit_length()  # minimal r with 2^r >= l
    towers = split_primes(p, r)
    places = tuple(
        PlaceLabel(id=f"v{i}", kind="finite", prime=p) for i in range(l)
    )
    return GlobalizationPlan(
        base_prime=p,
        tower_primes=tuple(towers),
        degree=2**r,
        places=places,
    )


class CocycleCheck(Record):
    assignment: tuple[tuple[PlaceLabel, Fraction], ...]
    valid: bool
    message: str


def build_cocycle(
    places, s_places, phi_order: int, phi_class: int
) -> CocycleCheck:
    """Adelic class that is phi on S and trivial elsewhere, with its sum verdict.

    The verdict holds iff |S| * phi_class = 0 mod phi_order, i.e. the sum of
    local classes dies in the global group; a False verdict signals that S
    must be enlarged to a multiple of the class order.
    """
    if phi_order < 1:
        raise GroupSpecError("phi_order must be positive")
    if phi_class % phi_order == 0:
        raise GroupSpecError("phi_class must be nonzero modulo phi_order")
    s_places = tuple(s_places)
    if not s_places:
        raise GroupSpecError("S must be nonempty")
    s_ids = {p.id for p in s_places}
    value = _canonical_fraction(Fraction(phi_class, phi_order))
    assignment = tuple(
        (place, value if place.id in s_ids else Fraction(0)) for place in places
    )
    total = (len(s_places) * phi_class) % phi_order
    if total == 0:
        return CocycleCheck(assignment, True, "sum of local classes is trivial")
    return CocycleCheck(
        assignment,
        False,
        f"|S| * class = {len(s_places)} * {phi_class} = {total} != 0 mod {phi_order}; "
        f"enlarge S to a multiple of the class order",
    )


def plan_globalization(
    p: int, l: int, class_order: int, class_residue: int = 1
) -> GlobalizationPlan:
    """Full plan: places, an S of size class_order, and the cocycle on it."""
    if class_order < 1:
        raise GroupSpecError("class order must be positive")
    base = plan_places(p, l)
    if class_order > l:
        raise TransferError(
            f"need at least {class_order} places for |S| a multiple of {class_order}"
        )
    s_places = base.places[:class_order]
    if class_order == 1:
        cocycle = HasseVector(entries=())
    else:
        check = build_cocycle(base.places, s_places, class_order, class_residue)
        if not check.valid:
            raise TransferError(check.message)
        cocycle = HasseVector(entries=check.assignment)
    return GlobalizationPlan(
        base_prime=base.base_prime,
        tower_primes=base.tower_primes,
        degree=base.degree,
        places=base.places,
        s_multiple_of=class_order,
        s_places=s_places,
        cocycle=cocycle,
    )


# ---------------------------------------------------------------------------
# global division algebras


class DivisionAlgebraReport(Record):
    n: int
    valid: bool
    message: str
    local_data: tuple[tuple[PlaceLabel, int, int], ...]  # (place, m_v, d_v)
    non_split_places: tuple[PlaceLabel, ...]


def global_division_algebra(n: int, invariants: HasseVector) -> DivisionAlgebraReport:
    """Existence check for a degree-n global algebra with the given invariants.

    Valid iff the invariants sum to zero in Q/Z; each local degree is the
    denominator of the reduced invariant and m_v = n/d_v.  Denominators must
    divide n, archimedean entries must be 0 or 1/2 at real places and 0 at
    complex ones.
    """
    if n < 1:
        raise GroupSpecError("n must be positive")
    for place, value in invariants.entries:
        if n % value.denominator:
            raise TransferError(
                f"invariant {value} at {place.id} has denominator not dividing n = {n}"
            )
        if place.kind == "real" and value not in (Fraction(0), Fraction(1, 2)):
            raise TransferError(
                f"real place {place.id} admits only invariants 0 and 1/2"
            )
        if place.kind == "complex" and value != 0:
            raise TransferError(f"complex place {place.id} admits only invariant 0")
    total = invariants.total()
    local = tuple(
        (place, n // value.denominator, value.denominator)
        for place, value in invariants.entries
    )
    support = invariants.support()
    if total == 0:
        return DivisionAlgebraReport(
            n=n,
            valid=True,
            message="invariants sum to zero; a global algebra with this local data exists",
            local_data=local,
            non_split_places=support,
        )
    return DivisionAlgebraReport(
        n=n,
        valid=False,
        message=f"invariants sum to {total} != 0 in Q/Z; no global algebra exists",
        local_data=local,
        non_split_places=support,
    )
