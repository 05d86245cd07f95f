import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from innerforms.appendix import (
    appendix_catalog,
    catalog_json,
    catalog_markdown,
    verify_catalog,
)
from innerforms.errors import TransferError
from innerforms.levi import LeviDescriptor, analyze_levi, levi_datum, remove_indices
from innerforms.rootdata import build_catalog_group, datum_product, dynkin_components
from innerforms.satake import (
    SatakeDiagram,
    canonical_diagram,
    forget_division_algebras,
    levi_satake_diagram,
    parse_ascii,
    render_ascii,
    transfer_levi,
    type_a_satake,
    validate_type_a_period,
)


def black_set(diagram):
    return set(diagram.black)


def test_type_a_split_all_white():
    assert black_set(type_a_satake(4, 1)) == set()


def test_type_a_n4_d2_pattern():
    # runs of d-1 = 1 black separated by a single white: pattern *o*
    assert black_set(type_a_satake(4, 2)) == {0, 2}
    assert render_ascii(type_a_satake(4, 2), unicode=False) == "*--o--*"


def test_type_a_n6_d3_pattern_modular_oracle():
    diagram = type_a_satake(6, 3)
    # oracle: white vertices are exactly the nonzero multiples of d below n
    white = {j for j in range(1, 6) if j % 3 == 0}
    expected_black = {i for i in range(5) if (i + 1) not in white}
    assert black_set(diagram) == expected_black
    assert render_ascii(diagram, unicode=True) == "●—●—○—●—●"


def test_type_a_all_black_anisotropic():
    assert black_set(type_a_satake(4, 4)) == {0, 1, 2}


def test_type_a_requires_divisor():
    with pytest.raises(TransferError):
        type_a_satake(6, 4)


def test_validate_type_a_period():
    assert validate_type_a_period(type_a_satake(8, 2), 2)
    assert not validate_type_a_period(type_a_satake(8, 2), 4)


def test_render_b_and_c_patterns():
    b4 = build_catalog_group("Spin", [9])
    assert (
        render_ascii(SatakeDiagram(b4, frozenset({3})))
        == "○—○—○⇒●"
    )
    c4 = build_catalog_group("Sp", [8])
    assert (
        render_ascii(SatakeDiagram(c4, frozenset({0, 2})))
        == "●—○—●⇐○"
    )


def test_render_parse_round_trip_random():
    rng = random.Random(20240809)
    pool = (
        [("A", r) for r in range(1, 10)]
        + [("B", r) for r in range(3, 9)]
        + [("C", r) for r in range(2, 9)]
        + [("D", r) for r in range(4, 9)]
        + [("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2)]
    )
    done = 0
    while done < 500:
        comps = []
        total = 0
        for _ in range(rng.randint(1, 3)):
            series, rank = rng.choice(pool)
            if total + rank > 10:
                continue
            total += rank
            comps.append(
                (series, rank, tuple(sorted(rng.sample(range(rank), rng.randint(0, rank)))))
            )
        if not comps:
            continue
        diagram = canonical_diagram(comps)
        for unicode in (True, False):
            text = render_ascii(diagram, unicode=unicode)
            assert parse_ascii(text) == diagram, (comps, text)
        done += 1


# catalog groups of semisimple rank <= 16, the exceptional groups and
# (in the test) products of two of them
LEVI_LADDER = (
    [("GL", (n,)) for n in range(1, 18)]
    + [(tag, (n,)) for tag in ("SL", "PGL") for n in range(2, 18)]
    + [(tag, (n,)) for tag in ("Sp", "GSp") for n in range(2, 33, 2)]
    + [(tag, (n,)) for tag in ("Spin", "GSpin") for n in range(3, 34)]
    + [("SO", (n,)) for n in range(4, 33, 2)]
    + [(tag, ()) for tag in ("E6sc", "E7sc", "E8", "F4", "G2")]
)


def ladder_datum(factors):
    data = [build_catalog_group(tag, list(params)) for tag, params in factors]
    return data[0] if len(data) == 1 else datum_product(data)


def subset_of(n):
    return st.sets(st.sampled_from(range(n))) if n else st.just(set())


def labels(datum):
    return [layout.label for layout in datum.layouts]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.lists(st.sampled_from(LEVI_LADDER), min_size=1, max_size=2), st.data())
def test_levi_diagrams_render_and_parse_to_their_derived_type(factors, data):
    datum = ladder_datum(factors)
    desc = LeviDescriptor(datum, tuple(data.draw(subset_of(datum.semisimple_rank))))
    report = analyze_levi(desc)
    sub = levi_datum(desc)

    # any black set: the picture parses back to theta's components, in node
    # order, and keeps its black count
    black = frozenset(data.draw(subset_of(len(desc.theta))))
    parsed = parse_ascii(render_ascii(SatakeDiagram(sub, black)))
    assert labels(parsed.base) == labels(sub)
    assert tuple(sorted(labels(sub))) == report.derived_type.components
    assert len(parsed.black) == len(black)

    # every type-A chain starts at its least end node
    for layout, comp in zip(sub.layouts, dynkin_components(sub)):
        if layout.series == "A":
            ends = [v for v in comp if len(set(sub.neighbours[v]) & set(comp)) <= 1]
            assert layout.chain[0] == min(ends)

    # the period-d patterns on theta's type-A components
    a_theta = [desc.theta[v] for lay in sub.layouts if lay.series == "A" for v in lay.chain]
    a_desc = LeviDescriptor(datum, tuple(a_theta))
    sizes = [len(c) + 1 for c in analyze_levi(a_desc).components]
    degrees = [data.draw(st.sampled_from([d for d in range(1, n + 1) if n % d == 0]))
               for n in sizes]
    diagram = levi_satake_diagram(a_desc, degrees)
    assert parse_ascii(render_ascii(diagram)) == canonical_diagram(
        [("A", n - 1, [i for i in range(n - 1) if (i + 1) % d]) for n, d in zip(sizes, degrees)]
    )
    assert len(diagram.black) == sum(n - n // d for n, d in zip(sizes, degrees))


# ---------------------------------------------------------------------------
# transfer


def report_for(tag, params, removed):
    datum = build_catalog_group(tag, params)
    return analyze_levi(LeviDescriptor(datum, remove_indices(datum, removed)))


def test_transfer_sp_siegel():
    shape = transfer_levi(report_for("Sp", [8], [3]), [2])
    assert [(f.m, f.d, f.kind) for f in shape.factors] == [(2, 2, "GL")]
    assert str(shape.factors[0]) == "GL_2(D_2)"


def test_transfer_gspin_odd():
    shape = transfer_levi(report_for("GSpin", [9], [2]), [1, 2])
    assert [(f.m, f.d) for f in shape.factors] == [(3, 1), (1, 2)]
    assert all(f.kind == "GL" for f in shape.factors)


def test_transfer_e7_remove_a4():
    shape = transfer_levi(report_for("E7sc", [], [3]), [1, 2, 2])
    assert sorted((f.m, f.d) for f in shape.factors) == [(1, 2), (2, 2), (3, 1)]
    assert all(f.kind == "sandwich" for f in shape.factors)


def test_transfer_requires_divisibility():
    with pytest.raises(TransferError):
        transfer_levi(report_for("Sp", [10], [4]), [2])  # GL_5 with d = 2


def test_transfer_requires_condition_one():
    with pytest.raises(TransferError):
        transfer_levi(report_for("F4", [], [0]), [1])


def test_forget_division_algebras_recovers_envelope():
    for tag, params, removed, degrees in [
        ("Sp", [8], [3], [2]),
        ("E7sc", [], [3], [1, 2, 2]),
        ("GSpin", [9], [2], [1, 2]),
        ("SL", [6], [1], [2, 2]),
    ]:
        report = report_for(tag, params, removed)
        shape = transfer_levi(report, degrees)
        assert forget_division_algebras(shape) == report.gl_envelope


def test_levi_satake_diagram_periods():
    datum = build_catalog_group("E7sc", [])
    desc = LeviDescriptor(datum, remove_indices(datum, [3]))
    diagram = levi_satake_diagram(desc, [1, 2, 2])
    # A_2 component split (all white), A_1 black, A_3 component gets *o*
    text = render_ascii(diagram, unicode=False)
    assert text == "o--o\n\n*\n\n*--o--*"


def test_factor_sizes_recover_envelope_for_all_catalog_entries():
    by_key = {entry.key: entry for entry in appendix_catalog()}
    for entry in appendix_catalog():
        if entry.sample_group is None or entry.sample_removed is None:
            continue
        report = report_for(entry.sample_group[0], list(entry.sample_group[1]),
                            list(entry.sample_removed))
        for variant in entry.variants:
            if variant.degrees is None or variant.sample is not None:
                continue
            shape = transfer_levi(report, variant.degrees)
            # m_i * d_i recovers the split envelope factor by factor
            assert tuple(f.m * f.d for f in shape.factors) == report.gl_envelope


def black_runs(diagram):
    runs = []
    current = 0
    for i in range(diagram.base.semisimple_rank):
        if i in diagram.black:
            current += 1
        elif current:
            runs.append(current)
            current = 0
    if current:
        runs.append(current)
    return runs


def test_type_a_black_runs_count():
    # m runs of size d-1 for the pattern of GL_m(D_d)
    for n in (4, 6, 8, 12):
        for d in (2, 3, 4, 6):
            if n % d:
                continue
            runs = black_runs(type_a_satake(n, d))
            assert runs == [d - 1] * (n // d)
    assert black_runs(type_a_satake(6, 1)) == []


# ---------------------------------------------------------------------------
# the worked catalog


def test_catalog_recomputation_zero_violations():
    violations, flags = verify_catalog()
    assert violations == []
    assert flags == ["5b:inconsistent-m-times-d"]


def test_catalog_has_all_entries_and_variants():
    keys = [entry.key for entry in appendix_catalog()]
    assert keys == [
        "1a", "1b", "2a", "2b", "3a", "3b", "3c", "3d",
        "4a", "4b", "4c", "4d", "4e", "4f", "4g",
        "5a", "5b", "5c", "6a", "6b", "7-E8", "7-F4", "7-G2",
    ]
    by_key = {entry.key: entry for entry in appendix_catalog()}
    assert len(by_key["4d"].variants) == 2  # the two inequivalent inner forms
    assert all(not by_key[k].variants for k in ("7-E8", "7-F4", "7-G2"))
    assert by_key["5b"].variants[0].alternatives == (
        "GL_3(D_2)", "GL_2(D_3)", "GL_1(D_6)",
    )


def test_catalog_markdown_contains_flagship_strings():
    text = catalog_markdown()
    assert "GL_n × SL_2" in text  # B_n case (a)
    assert "GL_{n/2}(D_2)" in text  # Siegel transfers
    assert "GL_1(F) × GL_1(D_2) × GL_3(F) × GL_2(D_2)" in text  # E7 (a)
    assert text.count("two inequivalent inner forms") == 2  # the D_n - 2 rows
    assert "FLAG inconsistent-m-times-d" in text
    assert "no non-quasi-split inner forms" in text


def test_catalog_outputs_deterministic():
    assert catalog_markdown() == catalog_markdown()
    assert catalog_json() == catalog_json()


def test_levi_shares_derived_type_with_envelope():
    from innerforms.satake import shares_derived_type_with_envelope

    for entry in appendix_catalog():
        if entry.sample_group is None or entry.sample_removed is None:
            continue
        if not entry.variants:
            continue
        report = report_for(entry.sample_group[0], list(entry.sample_group[1]),
                            list(entry.sample_removed))
        assert shares_derived_type_with_envelope(report)
    assert not shares_derived_type_with_envelope(report_for("F4", [], [0]))


def test_5b_note_period_three_diagram_claim():
    # the ambient non-split form of the rank-6 exceptional group paints the
    # A_5 chain left after removing the branch vertex as the period-3 pattern
    # (the note on the flagged entry records this without electing a value)
    datum = build_catalog_group("E6sc", [])
    black = {0, 2, 4, 5}  # chain vertices alpha_1, alpha_3, alpha_5, alpha_6
    chain = [0, 2, 3, 4, 5]  # node order of the A_5 after removing alpha_2
    colors = [node in black for node in chain]
    reference = type_a_satake(6, 3)
    expected = [i in reference.black for i in range(5)]
    assert colors == expected
