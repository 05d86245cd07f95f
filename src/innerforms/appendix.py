"""The worked catalog of maximal sandwich Levis and their inner forms.

Each entry records, verbatim, the classical description of a Levi subgroup
M of a split group G satisfying the SL-GL sandwich condition, together with
the division-algebra shape of the corresponding Levi M' in a non-split
inner form G'.  The entries carry concrete sample instantiations so the
whole table can be recomputed by ``analyze_levi`` + ``transfer_levi``; the
one internally inconsistent source value, in entry (5)(b), is preserved,
flagged, and accompanied by the arithmetically consistent candidates rather
than silently corrected.

Source-text quirks that recomputation contradicts (index shifts and one
exactness claim) are kept verbatim and called out in ``notes``; they are
presentational and do not count as catalog violations.
"""

from __future__ import annotations

from ._record import Record
from .kottwitz import ad_quotient_order
from .levi import LeviDescriptor, analyze_levi, remove_indices
from .rootdata import build_catalog_group
from .satake import transfer_levi

GroupTag = tuple[str, tuple[int, ...]]  # (catalog tag, parameters)
Sample = tuple[GroupTag, tuple[int, ...], tuple[int, ...]]  # (group, removed, degrees)


class CatalogVariant(Record):
    """One inner-form variant of an entry (some entries have two)."""

    mprime_paper: str
    label: str = ""
    condition: str = ""
    degrees: tuple[int, ...] | None = None
    expected_factors: tuple[tuple[int, int], ...] | None = None
    sample: Sample | None = None
    flags: tuple[str, ...] = ()
    paper_claim_md: tuple[int, int] | None = None
    alternatives: tuple[str, ...] = ()


class AppendixEntry(Record):
    key: str
    family: str
    group_paper: str
    theta_paper: str
    theta_bourbaki: str
    m_paper: str
    variants: tuple[CatalogVariant, ...]
    m_der_paper: str | None = None
    mtilde_paper: str | None = None
    m_computed: str | None = None
    figure: str | None = None
    exact_expected: bool | None = None
    notes: tuple[str, ...] = ()
    sample_group: GroupTag | None = None
    sample_removed: tuple[int, ...] | None = None
    expected_components: tuple[tuple[str, int], ...] | None = None


FIG_A = (
    "●—⋯—●—○—●—⋯—●—○—"
    "⋯—○—●—⋯—●\n"
    "(black runs of length d−1 separated by white vertices at "
    "α_d, α_{2d}, …, α_{md}; md = n−d+1)"
)
FIG_B = "○—○—⋯—○—○⇒●"
FIG_C_EVEN = (
    "●—○—●—○—⋯—●⇐○\n"
    "(every other vertex black; n even)"
)
FIG_C_ODD = (
    "●—○—●—○—⋯—○⇐●\n"
    "(every other vertex black; n odd)"
)
FIG_D1 = (
    "●—○—⋯—●—○—●\n"
    "        |\n"
    "        ○            (n even; the white fork vertex is α_n)"
)
FIG_D2_UPPER = (
    "○—○—⋯—○—○—●\n"
    "        |\n"
    "        ●            (any n)"
)
FIG_D2_LOWER = (
    "●—○—⋯—●—○—●\n"
    "        |\n"
    "        ○            (n even)"
)
FIG_D3_UPPER = FIG_D2_UPPER
FIG_D3_LOWER = (
    "●—○—⋯—○—●—●\n"
    "        |\n"
    "        ●            (n odd)"
)
FIG_E6 = (
    "●—●—○—●—●\n"
    "    |\n"
    "    ○"
)
FIG_E7 = (
    "○—○—○—●—○—●\n"
    "    |\n"
    "    ●"
)


def _v(
    mprime,
    degrees=None,
    expected=None,
    label="",
    condition="",
    sample=None,
    flags=(),
    claim=None,
    alternatives=(),
):
    return CatalogVariant(
        mprime_paper=mprime,
        label=label,
        condition=condition,
        degrees=tuple(degrees) if degrees is not None else None,
        expected_factors=tuple(expected) if expected is not None else None,
        sample=sample,
        flags=tuple(flags),
        paper_claim_md=claim,
        alternatives=tuple(alternatives),
    )


APPENDIX: tuple[AppendixEntry, ...] = (
    AppendixEntry(
        key="1a",
        family="(1) A_n",
        group_paper="GL_{n+1}  (G'(F) = GL_{m+1}(D_d), n+1 = d(m+1))",
        figure=FIG_A,
        theta_paper="Δ − {α_j}, α_j = e_j − e_{j+1}, j = m_1 d",
        theta_bourbaki="remove α_{m_1 d} (Bourbaki numbering agrees)",
        m_paper="M = M_θ = GL_{m_1 d} × GL_{m_2 d} = M̃,  m_1 d + m_2 d = n+1",
        mtilde_paper="GL_{m_1 d} × GL_{m_2 d}",
        exact_expected=True,
        sample_group=("GL", (6,)),
        sample_removed=(1,),
        expected_components=(("A", 1), ("A", 3)),
        variants=(
            _v(
                "M'(F) = GL_{m_1}(D_d) × GL_{m_2}(D_d)",
                degrees=(2, 2),
                expected=((1, 2), (2, 2)),
            ),
        ),
    ),
    AppendixEntry(
        key="1b",
        family="(1) A_n",
        group_paper="SL_{n+1}  (G'(F) = SL_{m+1}(D_d), n+1 = d(m+1))",
        figure=FIG_A,
        theta_paper="Δ − {α_j}, α_j = e_j − e_{j+1}, j = m_1 d",
        theta_bourbaki="remove α_{m_1 d}",
        m_paper=(
            "M = M_θ = G ∩ (GL_{m_1 d} × GL_{m_2 d}) "
            "↪ GL_{m_1 d} × GL_{m_2 d} = M̃"
        ),
        mtilde_paper="GL_{m_1 d} × GL_{m_2 d}",
        exact_expected=False,
        sample_group=("SL", (6,)),
        sample_removed=(1,),
        expected_components=(("A", 1), ("A", 3)),
        variants=(
            _v(
                "M'(F) = G'(F) ∩ (GL_{m_1}(D_d) × GL_{m_2}(D_d))",
                degrees=(2, 2),
                expected=((1, 2), (2, 2)),
            ),
        ),
    ),
    AppendixEntry(
        key="2a",
        family="(2) B_n",
        group_paper="Spin_{2n+1}",
        figure=FIG_B,
        theta_paper="Δ − {α_{n−1}}, α_{n−1} = e_{n−1} − e_n",
        theta_bourbaki="remove α_{n−1}",
        m_paper="M = M_θ ≃ GL_n × SL_2 ↪ M̃ = GL_n × GL_2",
        mtilde_paper="GL_n × GL_2",
        m_computed="envelope GL_{n−1} × GL_2; proper sandwich",
        exact_expected=False,
        notes=(
            "the source's GL_n factor is the computed GL_{n−1} "
            "(rank of Spin_{2n+1} is n)",
        ),
        sample_group=("Spin", (9,)),
        sample_removed=(2,),
        expected_components=(("A", 2), ("A", 1)),
        variants=(
            _v(
                "M'(F) ≃ GL_n(F) × SL_1(D_2)",
                degrees=(1, 2),
                expected=((3, 1), (1, 2)),
            ),
        ),
    ),
    AppendixEntry(
        key="2b",
        family="(2) B_n",
        group_paper="GSpin_{2n+1}",
        figure=FIG_B,
        theta_paper="Δ − {α_{n−1}}",
        theta_bourbaki="remove α_{n−1}",
        m_paper="M = M_θ ≃ GL_n × GL_2 = M̃",
        mtilde_paper="GL_n × GL_2",
        m_computed="GL_{n−1} × GL_2 (exact)",
        exact_expected=True,
        notes=("same index shift as (2)(a): computed first factor is GL_{n−1}",),
        sample_group=("GSpin", (9,)),
        sample_removed=(2,),
        expected_components=(("A", 2), ("A", 1)),
        variants=(
            _v(
                "M'(F) ≃ GL_n(F) × GL_1(D_2)",
                degrees=(1, 2),
                expected=((3, 1), (1, 2)),
            ),
        ),
    ),
    AppendixEntry(
        key="3a",
        family="(3) C_n, n even",
        group_paper="Sp_{2n}",
        figure=FIG_C_EVEN,
        theta_paper="Δ − {α_n}, α_n = 2e_n",
        theta_bourbaki="remove α_n",
        m_paper="M = M_θ ≃ GL_n = M̃  (the Siegel Levi subgroup)",
        mtilde_paper="GL_n",
        exact_expected=True,
        sample_group=("Sp", (8,)),
        sample_removed=(3,),
        expected_components=(("A", 3),),
        variants=(
            _v(
                "M'(F) ≃ GL_{n/2}(D_2)",
                degrees=(2,),
                expected=((2, 2),),
            ),
        ),
    ),
    AppendixEntry(
        key="3b",
        family="(3) C_n, n even",
        group_paper="GSp_{2n}",
        figure=FIG_C_EVEN,
        theta_paper="Δ − {α_n}",
        theta_bourbaki="remove α_n",
        m_paper="M = M_θ ≃ GL_n × GL_1 = M̃",
        mtilde_paper="GL_n × GL_1",
        exact_expected=True,
        sample_group=("GSp", (8,)),
        sample_removed=(3,),
        expected_components=(("A", 3),),
        variants=(
            _v(
                "M'(F) ≃ GL_{n/2}(D_2) × GL_1(F)",
                degrees=(2,),
                expected=((2, 2),),
            ),
        ),
    ),
    AppendixEntry(
        key="3c",
        family="(3) C_n, n odd",
        group_paper="Sp_{2n}",
        figure=FIG_C_ODD,
        theta_paper="Δ − {α_{n−1}}, α_{n−1} = e_{n−1} − e_n",
        theta_bourbaki="remove α_{n−1}",
        m_paper="M = M_θ ≃ GL_{n−1} × SL_2 ↪ GL_{n−1} × GL_2 = M̃",
        mtilde_paper="GL_{n−1} × GL_2",
        exact_expected=False,
        sample_group=("Sp", (10,)),
        sample_removed=(3,),
        expected_components=(("A", 3), ("A", 1)),
        variants=(
            _v(
                "M'(F) ≃ GL_{(n−1)/2}(D_2) × SL_1(D_2)",
                degrees=(2, 2),
                expected=((2, 2), (1, 2)),
            ),
        ),
    ),
    AppendixEntry(
        key="3d",
        family="(3) C_n, n odd",
        group_paper="GSp_{2n}",
        figure=FIG_C_ODD,
        theta_paper="Δ − {α_{n−1}}",
        theta_bourbaki="remove α_{n−1}",
        m_paper="M = M_θ ≃ GL_n × GL_2 = M̃",
        mtilde_paper="GL_n × GL_2",
        m_computed="GL_{n−1} × GL_2 (exact)",
        exact_expected=True,
        notes=("the source's GL_n is the computed GL_{n−1}, matching the stated M'",),
        sample_group=("GSp", (10,)),
        sample_removed=(3,),
        expected_components=(("A", 3), ("A", 1)),
        variants=(
            _v(
                "M'(F) ≃ GL_{(n−1)/2}(D_2) × GL_1(D_2)",
                degrees=(2, 2),
                expected=((2, 2), (1, 2)),
            ),
        ),
    ),
    AppendixEntry(
        key="4a",
        family="(4) D_n − 1",
        group_paper="Spin_{2n}",
        figure=FIG_D1,
        theta_paper="Δ − {α_n}, α_n = e_{n−1} + e_n  (n even)",
        theta_bourbaki="remove α_n",
        m_paper="M_der = SL_n ↪ M = M_θ ↪ GL_1 × GL_n = M̃",
        m_der_paper="SL_n",
        mtilde_paper="GL_1 × GL_n",
        exact_expected=False,
        sample_group=("Spin", (8,)),
        sample_removed=(3,),
        expected_components=(("A", 3),),
        variants=(
            _v(
                "M'(F) ↪ GL_1(F) × GL_{n/2}(D_2) = M̃'(F)",
                degrees=(2,),
                expected=((2, 2),),
            ),
        ),
    ),
    AppendixEntry(
        key="4b",
        family="(4) D_n − 1",
        group_paper="GSpin_{2n}",
        figure=FIG_D1,
        theta_paper="Δ − {α_n}  (n even)",
        theta_bourbaki="remove α_n",
        m_paper="M = M_θ ≃ GL_1 × GL_n = M̃",
        mtilde_paper="GL_1 × GL_n",
        exact_expected=True,
        sample_group=("GSpin", (8,)),
        sample_removed=(3,),
        expected_components=(("A", 3),),
        variants=(
            _v(
                "M'(F) ≃ GL_1 × GL_{n/2}(D_2)",
                degrees=(2,),
                expected=((2, 2),),
            ),
        ),
    ),
    AppendixEntry(
        key="4c",
        family="(4) D_n − 1",
        group_paper="SO_{2n}",
        figure=FIG_D1,
        theta_paper="Δ − {α_n}  (n even)",
        theta_bourbaki="remove α_n",
        m_paper="M = M_θ ≃ GL_n = M̃  (the Siegel Levi subgroup)",
        mtilde_paper="GL_n",
        exact_expected=True,
        sample_group=("SO", (8,)),
        sample_removed=(3,),
        expected_components=(("A", 3),),
        variants=(
            _v(
                "M'(F) ≃ GL_{n/2}(D_2)",
                degrees=(2,),
                expected=((2, 2),),
            ),
        ),
    ),
    AppendixEntry(
        key="4d",
        family="(4) D_n − 2",
        group_paper="Spin_{2n}",
        figure=FIG_D2_UPPER + "\n\n" + FIG_D2_LOWER,
        theta_paper="Δ − {α_{n−2}}, α_{n−2} = e_{n−2} − e_{n−1}",
        theta_bourbaki="remove α_{n−2}; two inequivalent inner forms M'",
        m_paper=(
            "M_der ≃ SL_{n−2} × SL_2 × SL_2 ↪ M = M_θ "
            "↪ GL_1 × GL_{n−2} × GL_2 × GL_2 = M̃"
        ),
        m_der_paper="SL_{n−2} × SL_2 × SL_2",
        mtilde_paper="GL_1 × GL_{n−2} × GL_2 × GL_2",
        exact_expected=False,
        sample_group=("Spin", (12,)),
        sample_removed=(3,),
        expected_components=(("A", 3), ("A", 1), ("A", 1)),
        variants=(
            _v(
                "M'(F) ↪ GL_1(F) × GL_{n−2}(F) × GL_1(D_2) × GL_1(D_2) = M̃'(F)",
                label="upper",
                condition="any n",
                degrees=(1, 2, 2),
                expected=((4, 1), (1, 2), (1, 2)),
            ),
            _v(
                "M'(F) ↪ GL_1(F) × GL_{n−2}(F) × GL_1(D_2) × GL_2(F) = M̃'(F)",
                label="lower",
                condition="n even",
                degrees=(1, 2, 1),
                expected=((4, 1), (1, 2), (2, 1)),
            ),
        ),
    ),
    AppendixEntry(
        key="4e",
        family="(4) D_n − 2",
        group_paper="GSpin_{2n}",
        figure=FIG_D2_UPPER + "\n\n" + FIG_D2_LOWER,
        theta_paper="Δ − {α_{n−2}}",
        theta_bourbaki="remove α_{n−2}; two inequivalent inner forms M'",
        m_paper="M = M_θ ≃ GL_{n−2} × GL_2 × GL_2 = M̃",
        mtilde_paper="GL_{n−2} × GL_2 × GL_2",
        m_computed="envelope GL_{n−2} × GL_2 × GL_2; proper sandwich",
        exact_expected=False,
        notes=(
            "the source asserts M = M̃ but GSpin_{2n} has rank n+1 < n+2; "
            "recomputation reports a proper sandwich",
            "the GL_1(F) leading the stated M' has no counterpart in the stated M̃",
        ),
        sample_group=("GSpin", (12,)),
        sample_removed=(3,),
        expected_components=(("A", 3), ("A", 1), ("A", 1)),
        variants=(
            _v(
                "M'(F) ≃ GL_1(F) × GL_{n−2}(F) × GL_1(D_2) × GL_1(D_2)",
                label="upper",
                condition="any n",
                degrees=(1, 2, 2),
                expected=((4, 1), (1, 2), (1, 2)),
            ),
            _v(
                "M'(F) ≃ GL_1(F) × GL_{n−2}(F) × GL_1(D_2) × GL_2(F)",
                label="lower",
                condition="n even",
                degrees=(1, 2, 1),
                expected=((4, 1), (1, 2), (2, 1)),
            ),
        ),
    ),
    AppendixEntry(
        key="4f",
        family="(4) D_n − 3",
        group_paper="Spin_{2n}",
        figure=FIG_D3_UPPER + "\n\n" + FIG_D3_LOWER,
        theta_paper="Δ − {α_{n−3}}, α_{n−3} = e_{n−3} − e_{n−2}",
        theta_bourbaki="remove α_{n−3}",
        m_paper=(
            "M_der ≃ SL_{n−3} × SL_4 ↪ M = M_θ "
            "↪ GL_1 × GL_{n−3} × GL_4 = M̃"
        ),
        m_der_paper="SL_{n−3} × SL_4",
        mtilde_paper="GL_1 × GL_{n−3} × GL_4",
        exact_expected=False,
        sample_group=("Spin", (12,)),
        sample_removed=(2,),
        expected_components=(("A", 2), ("A", 3)),
        variants=(
            _v(
                "M'(F) ↪ GL_1(F) × GL_{n−3}(F) × GL_2(D_2) = M̃'(F)",
                label="upper",
                condition="any n",
                degrees=(1, 2),
                expected=((3, 1), (2, 2)),
            ),
            _v(
                "M'(F) ↪ GL_1(F) × GL_{(n−3)/2}(D_2) × GL_1(D_4) = M̃'(F)",
                label="lower",
                condition="n odd",
                degrees=(2, 4),
                expected=((2, 2), (1, 4)),
                sample=(("Spin", (14,)), (3,), (2, 4)),
            ),
        ),
    ),
    AppendixEntry(
        key="4g",
        family="(4) D_n − 3",
        group_paper="GSpin_{2n}",
        figure=FIG_D3_UPPER + "\n\n" + FIG_D3_LOWER,
        theta_paper="Δ − {α_{n−3}}",
        theta_bourbaki="remove α_{n−3}",
        m_paper="M = M_θ ≃ GL_{n−2} × GL_4 = M̃",
        mtilde_paper="GL_{n−2} × GL_4",
        m_computed="envelope GL_{n−3} × GL_4; proper sandwich",
        exact_expected=False,
        notes=(
            "the source's GL_{n−2} is the computed GL_{n−3} "
            "(and the lower variant's (n−2)/2 the computed (n−3)/2)",
            "the source asserts M = M̃; recomputation reports a proper sandwich "
            "(the fork component carries a nontrivial lattice gluing)",
        ),
        sample_group=("GSpin", (12,)),
        sample_removed=(2,),
        expected_components=(("A", 2), ("A", 3)),
        variants=(
            _v(
                "M'(F) ≃ GL_{n−2}(F) × GL_2(D_2)",
                label="upper",
                condition="any n",
                degrees=(1, 2),
                expected=((3, 1), (2, 2)),
            ),
            _v(
                "M'(F) ≃ GL_{(n−2)/2}(D_2) × GL_1(D_4)",
                label="lower",
                condition="n odd",
                degrees=(2, 4),
                expected=((2, 2), (1, 4)),
                sample=(("GSpin", (14,)), (3,), (2, 4)),
            ),
        ),
    ),
    AppendixEntry(
        key="5a",
        family="(5) E_6 (simply connected)",
        group_paper="E_6 simply connected",
        figure=FIG_E6,
        theta_paper="Δ − {α_3}, α_3 = e_3 − e_4  (source labels)",
        theta_bourbaki="remove Bourbaki α_4 (the source numbers the chain 1..5 with "
        "α_6 on the branch; its α_3 is Bourbaki α_4)",
        m_paper=(
            "M_der ≃ SL_3 × SL_3 × SL_2 ↪ M = M_θ "
            "↪ GL_1 × GL_3 × GL_3 × GL_2 = M̃"
        ),
        m_der_paper="SL_3 × SL_3 × SL_2",
        mtilde_paper="GL_1 × GL_3 × GL_3 × GL_2",
        exact_expected=False,
        sample_group=("E6sc", ()),
        sample_removed=(3,),
        expected_components=(("A", 2), ("A", 1), ("A", 2)),
        variants=(
            _v(
                "M'(F) ↪ GL_1 × GL_1(D_3) × GL_1(D_3) × GL_2(F) = M̃'(F)",
                degrees=(3, 1, 3),
                expected=((1, 3), (2, 1), (1, 3)),
            ),
        ),
    ),
    AppendixEntry(
        key="5b",
        family="(5) E_6 (simply connected)",
        group_paper="E_6 simply connected",
        figure=FIG_E6,
        theta_paper="Δ − {α_6}, α_6 = e_4 + e_5 + e_6 + ε  (source labels)",
        theta_bourbaki="remove Bourbaki α_2 (the branch vertex)",
        m_paper="M_der ≃ SL_6 ↪ M = M_θ ↪ GL_1 × GL_6 = M̃",
        m_der_paper="SL_6",
        mtilde_paper="GL_1 × GL_6",
        exact_expected=False,
        sample_group=("E6sc", ()),
        sample_removed=(1,),
        expected_components=(("A", 5),),
        variants=(
            _v(
                "M'(F) ↪ GL_1(F) × GL_2(D_2) = M̃'(F)",
                flags=("inconsistent-m-times-d",),
                claim=(2, 2),
                alternatives=("GL_3(D_2)", "GL_2(D_3)", "GL_1(D_6)"),
            ),
        ),
        notes=(
            "stated GL_2(D_2) has m·d = 4 while the envelope factor is GL_6; "
            "the arithmetically consistent candidates are listed and none is chosen "
            "(the diagram's period-3 black pattern happens to match GL_2(D_3))",
        ),
    ),
    AppendixEntry(
        key="5c",
        family="(5) E_6 (simply connected)",
        group_paper="E_6 simply connected",
        figure=FIG_E6,
        theta_paper="Δ − {α_3, α_6}  (source labels)",
        theta_bourbaki="remove Bourbaki α_4 and α_2",
        m_paper=(
            "M_der ≃ SL_3 × SL_3 ↪ M = M_θ "
            "↪ GL_1 × GL_3 × GL_3 = M̃"
        ),
        m_der_paper="SL_3 × SL_3",
        mtilde_paper="GL_1 × GL_3 × GL_3",
        exact_expected=False,
        notes=("not a maximal Levi; listed with the other E_6 Levi types",),
        sample_group=("E6sc", ()),
        sample_removed=(1, 3),
        expected_components=(("A", 2), ("A", 2)),
        variants=(
            _v(
                "M'(F) ↪ GL_1(F) × GL_1(D_3) × GL_1(D_3) = M̃'(F)",
                degrees=(3, 3),
                expected=((1, 3), (1, 3)),
            ),
        ),
    ),
    AppendixEntry(
        key="6a",
        family="(6) E_7 (simply connected)",
        group_paper="E_7 simply connected",
        figure=FIG_E7,
        theta_paper="Δ − {α_4}, α_4 = e_4 − e_5  (source labels)",
        theta_bourbaki="remove Bourbaki α_4 (the source's reversed chain keeps "
        "α_4 at the branch)",
        m_paper=(
            "M_der ≃ SL_2 × SL_3 × SL_4 ↪ M = M_θ "
            "↪ GL_1 × GL_2 × GL_3 × GL_4 = M̃"
        ),
        m_der_paper="SL_2 × SL_3 × SL_4",
        mtilde_paper="GL_1 × GL_2 × GL_3 × GL_4",
        exact_expected=False,
        sample_group=("E7sc", ()),
        sample_removed=(3,),
        expected_components=(("A", 2), ("A", 1), ("A", 3)),
        variants=(
            _v(
                "M'(F) ↪ GL_1(F) × GL_1(D_2) × GL_3(F) × GL_2(D_2) = M̃'(F)",
                degrees=(1, 2, 2),
                expected=((3, 1), (1, 2), (2, 2)),
            ),
        ),
    ),
    AppendixEntry(
        key="6b",
        family="(6) E_7 (simply connected)",
        group_paper="E_7 simply connected",
        figure=FIG_E7,
        theta_paper="Δ − {α_5}, α_5 = e_5 − e_6  (source labels)",
        theta_bourbaki="remove Bourbaki α_3",
        m_paper=(
            "M_der ≃ SL_6 × SL_2 ↪ M = M_θ "
            "↪ GL_1 × GL_6 × GL_2 = M̃"
        ),
        m_der_paper="SL_6 × SL_2",
        mtilde_paper="GL_1 × GL_6 × GL_2",
        exact_expected=False,
        sample_group=("E7sc", ()),
        sample_removed=(2,),
        expected_components=(("A", 1), ("A", 5)),
        variants=(
            _v(
                "M'(F) ↪ GL_1(F) × GL_3(D_2) × GL_2(F) = M̃'(F)",
                degrees=(1, 2),
                expected=((2, 1), (3, 2)),
            ),
        ),
    ),
    AppendixEntry(
        key="7-E8",
        family="(7) E_8, F_4 and G_2",
        group_paper="E_8",
        theta_paper="-",
        theta_bourbaki="-",
        m_paper="no non-quasi-split inner forms (the adjoint group is simply connected)",
        variants=(),
        sample_group=("E8", ()),
    ),
    AppendixEntry(
        key="7-F4",
        family="(7) E_8, F_4 and G_2",
        group_paper="F_4",
        theta_paper="-",
        theta_bourbaki="-",
        m_paper="no non-quasi-split inner forms (the adjoint group is simply connected)",
        variants=(),
        sample_group=("F4", ()),
    ),
    AppendixEntry(
        key="7-G2",
        family="(7) E_8, F_4 and G_2",
        group_paper="G_2",
        theta_paper="-",
        theta_bourbaki="-",
        m_paper="no non-quasi-split inner forms (the adjoint group is simply connected)",
        variants=(),
        sample_group=("G2", ()),
    ),
)


def appendix_catalog() -> tuple[AppendixEntry, ...]:
    """All catalog entries, (1)(a) through (7), in source order."""
    return APPENDIX


def _build_group(group: GroupTag):
    tag, params = group
    return build_catalog_group(tag, list(params))


def verify_catalog() -> tuple[list[str], list[str]]:
    """Recompute every entry; return (violations, flags_seen).

    ``violations`` is expected to be empty: each sample instantiation must
    reproduce the stored component types, exactness verdict, and the
    (m_i, d_i) multiset of the transferred factors.  Flagged variants are
    instead checked to be genuinely inconsistent (that the flag is earned).
    """
    violations: list[str] = []
    flags_seen: list[str] = []
    for entry in APPENDIX:
        group = _build_group(entry.sample_group)
        if not entry.variants:
            if ad_quotient_order(group) != 1:
                violations.append(f"{entry.key}: expected |A(G^ad)| = 1")
            continue
        desc = LeviDescriptor(group, remove_indices(group, entry.sample_removed))
        report = analyze_levi(desc)
        if not report.condition_one:
            violations.append(f"{entry.key}: sandwich condition fails at sample")
            continue
        comps = tuple(
            sorted(
                (series, rank)
                for series, rank in report.derived_type.components
            )
        )
        if comps != tuple(sorted(entry.expected_components)):
            violations.append(
                f"{entry.key}: components {comps} != expected {entry.expected_components}"
            )
        if report.envelope_exact != entry.exact_expected:
            violations.append(
                f"{entry.key}: envelope exactness {report.envelope_exact} != "
                f"expected {entry.exact_expected}"
            )
        for variant in entry.variants:
            tag = f"{entry.key}{('/' + variant.label) if variant.label else ''}"
            if variant.flags:
                flags_seen.extend(f"{tag}:{f}" for f in variant.flags)
                if variant.paper_claim_md is not None:
                    m, d = variant.paper_claim_md
                    envelope = report.gl_envelope or ()
                    if len(envelope) != 1 or m * d == envelope[0]:
                        violations.append(
                            f"{tag}: flag not earned (claim {m}x{d} vs envelope {envelope})"
                        )
                    expected_alts = tuple(
                        f"GL_{envelope[0] // dd}(D_{dd})"
                        for dd in range(2, envelope[0] + 1)
                        if envelope[0] % dd == 0
                    )
                    if tuple(sorted(variant.alternatives)) != tuple(sorted(expected_alts)):
                        violations.append(
                            f"{tag}: candidate list {variant.alternatives} != {expected_alts}"
                        )
                continue
            if variant.sample is not None:
                vgroup = _build_group(variant.sample[0])
                vdesc = LeviDescriptor(
                    vgroup, remove_indices(vgroup, variant.sample[1])
                )
                vreport = analyze_levi(vdesc)
                degrees = variant.sample[2]
            else:
                vreport = report
                degrees = variant.degrees
            shape = transfer_levi(vreport, degrees)
            got = tuple(sorted((f.m, f.d) for f in shape.factors))
            want = tuple(sorted(variant.expected_factors))
            if got != want:
                violations.append(f"{tag}: factors {got} != expected {want}")
            kinds = {f.kind for f in shape.factors}
            expected_kind = {"GL"} if vreport.envelope_exact else {"sandwich"}
            if kinds != expected_kind:
                violations.append(f"{tag}: kinds {kinds} != {expected_kind}")
    return violations, flags_seen


# ---------------------------------------------------------------------------
# golden renderings


def catalog_markdown() -> str:
    """Deterministic markdown table of the whole catalog."""
    out: list[str] = []
    out.append("# Levi subgroups and their inner forms: the worked catalog")
    out.append("")
    out.append(
        "Black vertices mark the simple roots of the minimal Levi of the "
        "non-split form; a Levi of the inner form arises by removing white "
        "vertices only.  Source descriptions are quoted verbatim; computed "
        "forms are listed where they differ, and the one internally "
        "inconsistent source value is flagged rather than corrected."
    )
    current_family = None
    for entry in APPENDIX:
        if entry.family != current_family:
            current_family = entry.family
            out.append("")
            out.append(f"## {entry.family}")
            if entry.figure:
                out.append("")
                out.append("```")
                out.append(entry.figure)
                out.append("```")
        out.append("")
        if len(entry.key) == 2 and entry.key[0].isdigit():
            out.append(f"### ({entry.key[0]})({entry.key[1]})")
        else:
            out.append(f"### (7) {entry.group_paper}")
        out.append("")
        out.append(f"- G: {entry.group_paper}")
        if entry.theta_paper != "-":
            out.append(f"- θ: {entry.theta_paper}")
            out.append(f"- removal (Bourbaki): {entry.theta_bourbaki}")
        out.append(f"- M: {entry.m_paper}")
        if entry.m_computed:
            out.append(f"- M (computed): {entry.m_computed}")
        for variant in entry.variants:
            label = f" [{variant.label}, {variant.condition}]" if variant.label else ""
            out.append(f"- M'{label}: {variant.mprime_paper}")
            if variant.flags:
                out.append(
                    f"  - FLAG {', '.join(variant.flags)}: consistent candidates "
                    f"{', '.join(variant.alternatives)}"
                )
            elif variant.degrees is not None:
                out.append(f"  - division degrees {list(variant.degrees)}")
        if not entry.variants:
            out.append("- M': none (no non-quasi-split inner forms)")
        for note in entry.notes:
            out.append(f"- note: {note}")
    out.append("")
    return "\n".join(out)


def catalog_json() -> dict:
    """Full structured dump of the catalog."""
    entries = []
    for entry in APPENDIX:
        entries.append(
            {
                "key": entry.key,
                "family": entry.family,
                "group": entry.group_paper,
                "theta": entry.theta_paper,
                "theta_bourbaki": entry.theta_bourbaki,
                "m": entry.m_paper,
                "m_der": entry.m_der_paper,
                "m_tilde": entry.mtilde_paper,
                "m_computed": entry.m_computed,
                "figure": entry.figure,
                "envelope_exact": entry.exact_expected,
                "notes": list(entry.notes),
                "sample": {
                    "group": list(entry.sample_group) if entry.sample_group else None,
                    "removed": list(entry.sample_removed or ()),
                    "components": [list(c) for c in entry.expected_components or ()],
                },
                "inner_forms": [
                    {
                        "label": v.label,
                        "condition": v.condition,
                        "m_prime": v.mprime_paper,
                        "degrees": list(v.degrees) if v.degrees is not None else None,
                        "expected_factors": [
                            list(f) for f in v.expected_factors or ()
                        ],
                        "flags": list(v.flags),
                        "claimed_m_d": list(v.paper_claim_md) if v.paper_claim_md else None,
                        "alternatives": list(v.alternatives),
                    }
                    for v in entry.variants
                ],
            }
        )
    return {"entries": entries}
