import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from innerforms import appendix
from innerforms.appendix import (
    appendix_catalog,
    catalog_json,
    catalog_markdown,
    verify_catalog,
)
from innerforms.errors import DatumError, TransferError
from innerforms.levi import LeviDescriptor, analyze_levi, levi_datum, remove_indices
from innerforms.rootdata import build_catalog_group, datum_product, dynkin_components
from innerforms.satake import (
    SatakeDiagram,
    _tokenize_chain,
    levi_satake_diagram,
    parse_ascii,
    render_ascii,
    transfer_levi,
    type_a_black_positions,
    type_a_satake,
)
from oracles import canonical_diagram, parse_component_by_series_rules


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
    black = type_a_satake(8, 2).black
    assert black == set(type_a_black_positions(8, 2))
    assert black != set(type_a_black_positions(8, 4))


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


# (picture, exact DatumError text or None): the structural checks on the text
# are pinned word for word; the rest only have to be refused
MALFORMED_PICTURES = [
    ("o--o--o\n|\no", "branch at a chain end: 'o--o--o\\n|\\no'"),
    ("o--o--o\n      |\n      o", "branch at a chain end: 'o--o--o\\n      |\\n      o'"),
    ("o\n|\no", "branch at a chain end: 'o\\n|\\no'"),
    ("o--o--o\n |\n o", "branch not aligned under a chain vertex: 'o--o--o\\n |\\n o'"),
    ("o--o--o\n   |\n  o", "branch not aligned under a chain vertex: 'o--o--o\\n   |\\n  o'"),
    ("o--o--o\n   |\n   x", "bad hanging vertex 'x'"),
    ("o--o--o\n   |\n   oo", "bad hanging vertex 'oo'"),
    ("o--o--", "dangling bond in 'o--o--'"),
    ("●—●⇒", "dangling bond in '●—●⇒'"),
    ("o--o--o\n   +\n   o", "malformed branch block: 'o--o--o\\n   +\\n   o'"),
    ("o--o--o\n   |", "malformed branch block: 'o--o--o\\n   |'"),
    ("o--o--o\n   |\n   o\n   |", "malformed branch block: 'o--o--o\\n   |\\n   o\\n   |'"),
    ("o-o", "expected a bond at column 1: 'o-o'"),
    ("o----o", "expected a vertex symbol at column 3: 'o----o'"),
    ("o--o--o--o--o--o--o\n         |\n         o", None),  # arms (3, 3)
    ("o=>o=>o", None),  # two double bonds
    ("o<=o--o=>o", None),
    ("o3>o--o", None),  # triple bond, rank 3
    ("o--o<3o", None),
    ("o\n\no3>o<3o", None),
    ("o--o=>o--o\n   |\n   o", None),  # hanging node plus a double bond
    ("o--o--o--o--o--o--o--o\n      |\n      o", None),  # arms (2, 5)
    ("o=>o--o--o=>o", None),
]


@pytest.mark.parametrize("text,message", MALFORMED_PICTURES)
def test_parse_ascii_refuses_malformed_pictures(text, message):
    with pytest.raises(DatumError) as excinfo:
        parse_ascii(text)
    if message is not None:
        assert str(excinfo.value) == message


# ---------------------------------------------------------------------------
# the walker-based parser against the series-rule oracle

GLYPHS = {
    True: {True: "●", False: "○", (1, ""): "—", (2, "right"): "⇒", (2, "left"): "⇐",
           (3, "right"): "⇛", (3, "left"): "⇚"},
    False: {True: "*", False: "o", (1, ""): "--", (2, "right"): "=>", (2, "left"): "<=",
            (3, "right"): "3>", (3, "left"): "<3"},
}
FLIPPED = {"": "", "left": "right", "right": "left"}


def draw_block(colors, edges, hanging, unicode):
    """Picture of one block; ``hanging`` is None or (chain index, color)."""
    g = GLYPHS[unicode]
    line, cols = "", []
    for i, color in enumerate(colors):
        if i:
            line += g[edges[i - 1]]
        cols.append(len(line))
        line += g[color]
    if hanging is None:
        return line
    pad = " " * cols[hanging[0]]
    return "\n".join([line, pad + "|", pad + g[hanging[1]]])


def mirrored(colors, edges, hanging):
    edges = [(mult, FLIPPED[direction]) for mult, direction in reversed(edges)]
    if hanging is not None:
        hanging = (len(colors) - 1 - hanging[0], hanging[1])
    return colors[::-1], edges, hanging


def canonical_tokens(series, rank, black):
    """Colors, bonds and hanging node of the rendered canonical picture."""
    lines = render_ascii(canonical_diagram([(series, rank, black)]), unicode=True).split("\n")
    colors, edges, cols = _tokenize_chain(lines[0])
    hanging = None
    if len(lines) == 3:
        hanging = (cols.index(lines[1].index("|")), lines[2].strip() == "●")
    return colors, edges, hanging


def read_back(text):
    """(series, rank, black positions) of a one-block picture, through parse_ascii."""
    diagram = parse_ascii(text)
    ((series, rank),) = diagram.base.dynkin_type.components
    return series, rank, sorted(diagram.black)


def outcome(compute):
    try:
        return compute()
    except DatumError:
        return DatumError


CANONICAL_TYPES = (
    [("A", r) for r in range(1, 10)]
    + [("B", r) for r in range(3, 10)]
    + [("C", r) for r in range(2, 10)]
    + [("D", r) for r in range(4, 10)]
    + [("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2)]
)


def black_subsets(rank):
    """Every subset up to rank 8; at rank 9, at most two black nodes or two white."""
    for mask in range(1 << rank):
        if rank <= 8 or min(bin(mask).count("1"), rank - bin(mask).count("1")) <= 2:
            yield [i for i in range(rank) if mask >> i & 1]


def test_parser_matches_series_rules_on_every_canonical_picture():
    blocks = 0
    for series, rank in CANONICAL_TYPES:
        for black in black_subsets(rank):
            tokens = canonical_tokens(series, rank, black)
            for unicode in (True, False):
                text = draw_block(*tokens, unicode)
                expected = (series, rank, black)
                assert read_back(text) == expected, text
                assert parse_component_by_series_rules(text) == expected, text
                text = draw_block(*mirrored(*tokens), unicode)
                assert read_back(text) == parse_component_by_series_rules(text), text
                blocks += 2
    assert blocks == 11_416


BONDS = [(1, "")] * 6 + [(2, "left"), (2, "right"), (3, "left"), (3, "right")]


@st.composite
def token_blocks(draw):
    n = draw(st.integers(1, 9))
    colors = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    edges = draw(st.lists(st.sampled_from(BONDS), min_size=n - 1, max_size=n - 1))
    hanging = draw(st.none() | st.tuples(st.integers(0, n - 1), st.booleans()))
    return draw_block(colors, edges, hanging, draw(st.booleans()))


@settings(max_examples=600, deadline=None, derandomize=True)
@given(st.lists(token_blocks(), min_size=1, max_size=2))
def test_parser_matches_series_rules_on_random_token_pictures(blocks):
    text = "\n\n".join(blocks)
    expected = outcome(
        lambda: canonical_diagram([parse_component_by_series_rules(b) for b in blocks])
    )
    assert outcome(lambda: parse_ascii(text)) == expected, text


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
    for layout, comp in zip(sub.layouts, dynkin_components(sub.neighbours)):
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


def sample_report(sample):
    (tag, params), removed = sample
    return report_for(tag, list(params), list(removed))


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
        assert tuple(f.n for f in shape.factors) == report.gl_envelope


def test_levi_satake_diagram_periods():
    datum = build_catalog_group("E7sc", [])
    desc = LeviDescriptor(datum, remove_indices(datum, [3]))
    diagram = levi_satake_diagram(desc, [1, 2, 2])
    # A_2 component split (all white), A_1 black, A_3 component gets *o*
    text = render_ascii(diagram, unicode=False)
    assert text == "o--o\n\n*\n\n*--o--*"


def test_factor_sizes_recover_envelope_for_all_catalog_entries():
    checked = 0
    for entry in appendix_catalog():
        for variant in entry.variants:
            if variant.degrees is None:
                continue
            report = sample_report(variant.sample or entry.sample)
            shape = transfer_levi(report, variant.degrees)
            # m_i * d_i recovers the split envelope factor by factor
            assert tuple(f.m * f.d for f in shape.factors) == report.gl_envelope
            checked += 1
    assert checked == 23  # every variant but the flagged (5)(b), lower (4)(f)/(4)(g) included


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
    # a sandwich Levi and its GL-envelope have the same derived root system,
    # a product of type-A systems of ranks n_i - 1
    samples = [sample for entry in appendix_catalog() if entry.variants
               for sample in (entry.sample, *(v.sample for v in entry.variants if v.sample))]
    assert len(samples) == 22  # 20 entries with variants, and the lower (4)(f)/(4)(g)
    for sample in samples:
        report = sample_report(sample)
        assert report.condition_one
        envelope_derived = tuple(sorted(("A", n - 1) for n in report.gl_envelope if n > 1))
        assert envelope_derived == report.derived_type.components
    assert not report_for("F4", [], [0]).condition_one


def test_verify_catalog_checks_a_variant_on_its_own_sample(monkeypatch):
    def replaced(record, **changes):
        return type(record)(**{f: getattr(record, f) for f in record._fields} | changes)

    entries = list(appendix_catalog())
    i = next(i for i, entry in enumerate(entries) if entry.key == "4f")
    upper, lower = entries[i].variants
    assert lower.sample == (("Spin", (14,)), (3,))
    wrong = replaced(lower, expected_factors=((1, 2), (1, 4)))
    entries[i] = replaced(entries[i], variants=(upper, wrong))
    monkeypatch.setattr(appendix, "APPENDIX", tuple(entries))
    violations, flags = verify_catalog()
    assert violations == ["4f/lower: factors ((1, 4), (2, 2)) != expected ((1, 2), (1, 4))"]
    assert flags == ["5b:inconsistent-m-times-d"]


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
