"""Levi subgroup calculus: derived type, the GL-product sandwich test, envelopes.

A standard Levi is cut out of a based root datum by a subset theta of the
simple roots.  ``analyze_levi`` decides whether the derived group is a
product of SL's sitting inside a product of GL's (the sandwich condition
that makes division-algebra transfer available) and reports the GL envelope
together with exactness data.
"""

from __future__ import annotations

from ._record import Record
from .errors import DatumError
from .rootdata import (
    BasedRootDatum,
    DynkinType,
    FiniteAbelianGroup,
    cokernel_invariants,
    component_layout,
    dynkin_components,
)


class LeviDescriptor(Record):
    """Ambient datum plus the sorted subset of Delta generating the Levi."""

    ambient: BasedRootDatum
    theta: tuple[int, ...]

    def __post_init__(self):
        theta = tuple(sorted(set(self.theta)))
        object.__setattr__(self, "theta", theta)
        k = self.ambient.semisimple_rank
        if any(t < 0 or t >= k for t in theta):
            raise DatumError(f"theta {theta} out of range for {k} simple roots")


class LeviReport(Record):
    """What the Levi looks like as a group, and whether it transfers.

    ``gl_envelope`` lists the n_i of the enveloping product of GL_{n_i}
    (one per type-A component of theta, in ambient node order); it is None
    unless the sandwich condition holds.  ``envelope_exact`` records whether
    the Levi *is* the envelope times ``central_gl1s`` extra GL_1 factors:
    given the sandwich condition, that is rank bookkeeping (at least as many
    coordinates as theta's roots plus one per component) and no torsion in
    Z^rank/<theta's roots>.  When False the Levi sits strictly between the
    SL- and GL-products and the quotient lattice is not chosen here.
    """

    derived_type: DynkinType
    split_component_rank: int
    derived_pi1: FiniteAbelianGroup
    condition_one: bool
    gl_envelope: tuple[int, ...] | None
    components: tuple[tuple[int, ...], ...]
    envelope_exact: bool
    central_gl1s: int | None


def levi_datum(desc: LeviDescriptor) -> BasedRootDatum:
    """Sub-root-datum of the Levi: same lattices, simple roots restricted to theta.

    It inherits the ambient invariants without revalidation: its Cartan
    matrix is the ambient one restricted to theta (a principal submatrix, so
    of finite type), and its layouts are the ambient walker's layouts of
    theta's components, renumbered in order through the sorted theta.
    """
    amb, theta = desc.ambient, desc.theta
    cartan, neighbours = amb.cartan, amb.neighbours
    local = {t: i for i, t in enumerate(theta)}
    block = []
    for s in theta:  # a row's nonzeros are its diagonal and its bonds
        row = [0] * len(theta)
        for t in (s, *neighbours[s]):
            if t in local:
                row[local[t]] = cartan[s][t]
        block.append(tuple(row))
    layouts = tuple(
        component_layout(cartan, neighbours, comp).relabelled(local)
        for comp in dynkin_components(neighbours, theta)
    )
    return BasedRootDatum._derived(
        amb.rank,
        tuple(amb.simple_roots[t] for t in theta),
        tuple(amb.simple_coroots[t] for t in theta),
        f"{amb.name}|theta={list(theta)}",
        tuple(block),
        layouts,
    )


def is_maximal(desc: LeviDescriptor) -> bool:
    return len(desc.theta) == desc.ambient.semisimple_rank - 1


def analyze_levi(desc: LeviDescriptor) -> LeviReport:
    """Derived type, split-component rank, and the GL-sandwich verdict.

    condition_one holds iff every component of theta is series A and the
    derived group of the Levi is simply connected; the envelope then lists
    each component's GL size (component rank + 1).
    """
    amb = desc.ambient
    theta = desc.theta
    cartan, neighbours = amb.cartan, amb.neighbours
    comps = tuple(tuple(c) for c in dynkin_components(neighbours, theta))
    # the Levi's Cartan matrix is the ambient one restricted to theta, so its
    # components carry the same labels as theta's components in the ambient
    derived_type = DynkinType(
        tuple(component_layout(cartan, neighbours, c).label for c in comps), amb.rank - len(theta)
    )

    pi1_factors, _ = cokernel_invariants(
        [amb.simple_coroots[t] for t in theta], amb.rank
    )
    derived_pi1 = FiniteAbelianGroup(tuple(pi1_factors))

    root_torsion, free_rank = cokernel_invariants(
        [amb.simple_roots[t] for t in theta], amb.rank
    )
    split_component_rank = free_rank  # = rank of the integer annihilator of theta

    # the Levi's components are theta's components, so its labels decide type A
    all_a = all(series == "A" for series, _ in derived_type.components)
    condition_one = all_a and derived_pi1.is_trivial

    gl_envelope = tuple(len(c) + 1 for c in comps) if condition_one else None

    # x -> (row . x) maps Z^rank onto Z^{#rows} iff Z^rank / <rows> is free
    # of rank (rank - #rows).  Simple roots and coroots are linearly
    # independent, so this is freedom from torsion, read off the two SNFs
    # above; condition_one already holds it for the coroots.
    extra = amb.rank - len(theta) - len(comps)
    exact = condition_one and extra >= 0 and not root_torsion
    return LeviReport(
        derived_type, split_component_rank, derived_pi1, condition_one, gl_envelope, comps,
        exact, extra if exact else None,
    )


def remove_indices(datum: BasedRootDatum, removed) -> tuple[int, ...]:
    """theta = Delta minus the removed (0-based) indices."""
    removed = set(removed)
    k = datum.semisimple_rank
    if any(r < 0 or r >= k for r in removed):
        raise DatumError(f"removed indices {sorted(removed)} out of range")
    return tuple(i for i in range(k) if i not in removed)
