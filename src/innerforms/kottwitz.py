"""Inner-form classification data: the finite group A(G) and GL_n torsion classes.

For a split group the Galois action on the dual center is trivial, so A(G)
is the Pontryagin dual of the component group of the dual center; its
invariant factors are read off the character lattice of that center, i.e.
the torsion of Y/<coroots>.  For GL_n the classes match the n-torsion of the
Brauer group and are labelled by residues j mod n.
"""

from __future__ import annotations

from math import gcd

from ._record import Record
from .errors import GroupSpecError
from .rootdata import BasedRootDatum, FiniteAbelianGroup, adjoint_datum, classify


class InnerFormClass(Record):
    """One inner form of GL_n: residue label j and its division data (d, j')."""

    n: int
    label: int  # j mod n
    d: int  # division algebra degree, d | n
    invariant_numerator: int  # j' with j/n = j'/d and gcd(j', d) = 1

    @property
    def matrix_size(self) -> int:
        return self.n // self.d

    def describe(self) -> str:
        if self.d == 1:
            return f"GL_{self.n}(F) (split)"
        return f"GL_{self.matrix_size}(D_{self.d}), invariant {self.invariant_numerator}/{self.d}"


def kottwitz_group(datum: BasedRootDatum) -> FiniteAbelianGroup:
    """A(G) for a split group: the component group of the dual group's center.

    The character lattice of Z(G^) is X(T^)/<roots of G^> = Y/<coroots>, so
    A(G) has the invariant factors of its torsion, which is pi_1(G)_tors:
    the datum's cached ``pi1`` is returned.  Trivial for simply connected
    semisimple groups; order |det Cartan| for adjoint ones.
    """
    return datum.pi1


def dual_center_positive_dimensional(datum: BasedRootDatum) -> bool:
    """Whether Z(G^) has positive dimension (non-semisimple G), so pi_0 is a quotient.

    The simple coroots are linearly independent, so Y/<coroots> has free rank
    rank - semisimple rank.
    """
    return datum.rank > datum.semisimple_rank


def inner_form_classes_gl(n: int) -> list[InnerFormClass]:
    """The n classes of inner forms of GL_n, labelled j = 0..n-1.

    Class j corresponds to the invariant j/n: the division degree is
    d = n/gcd(j, n) and the form is GL_{n/d}(D_d).  The number of classes
    with a given d equals Euler's phi(d).
    """
    if n < 1:
        raise GroupSpecError("inner_form_classes_gl requires n >= 1")
    out = []
    for j in range(n):
        g = gcd(j, n)
        d = n // g
        out.append(InnerFormClass(n, j, d, j // g))
    return out


def ad_quotient_order(datum: BasedRootDatum) -> int:
    """|A(G^ad)| for the adjoint form of the datum's semisimple part."""
    dynkin = classify(datum)
    order = 1
    for series, rank in dynkin.components:
        order *= kottwitz_group(adjoint_datum(series, rank)).order
    return order
