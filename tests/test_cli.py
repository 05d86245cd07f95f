import json
import time
from pathlib import Path

import pytest
from jsonschema import Draft202012Validator

from innerforms.cli import main, parse_group_expr
from innerforms.errors import GroupParseError
from innerforms.rootdata import build_catalog_group, classify, datum_product

GOLDEN = Path(__file__).parent / "golden"
SCHEMA = json.loads(
    (Path(__file__).parent.parent / "schemas" / "cli_output.schema.json").read_text()
)
VALIDATOR = Draft202012Validator(SCHEMA)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--json")
    payload = json.loads(out)
    VALIDATOR.validate(payload)
    return code, payload


# ---------------------------------------------------------------------------
# group expression parsing


def test_parse_group_expr_basic():
    assert str(classify(parse_group_expr("SL(2)"))) == "A1"
    datum = parse_group_expr("GL(3)xGL(2)")
    assert datum.rank == 5
    assert str(classify(parse_group_expr("E7sc"))) == "E7"


def test_parse_group_expr_errors_carry_position():
    with pytest.raises(GroupParseError) as info:
        parse_group_expr("GL(3)xZL(2)")
    assert info.value.position == 6
    with pytest.raises(GroupParseError):
        parse_group_expr("GL(x)")
    with pytest.raises(GroupParseError):
        parse_group_expr("")


@pytest.mark.parametrize(
    "text,factors",
    [
        ("G2xSp(6)", [("G2", []), ("Sp", [6])]),
        ("E8xGL(2)", [("E8", []), ("GL", [2])]),
        ("F4xSL(3)", [("F4", []), ("SL", [3])]),
        ("E8xE8", [("E8", []), ("E8", [])]),
        ("GL(2)xE8", [("GL", [2]), ("E8", [])]),
    ],
)
def test_products_may_start_with_a_parameterless_tag(text, factors):
    # no catalog tag contains an x, so a tag stops before the x of a product
    expected = datum_product([build_catalog_group(*f) for f in factors], name=text)
    assert parse_group_expr(text) == expected


@pytest.mark.parametrize("text,position", [("xGL(2)", 0), ("GL(2)xx", 6), ("E8x", 3), ("G2xQ", 3)])
def test_a_stray_x_is_a_parse_error_at_its_offset(text, position):
    with pytest.raises(GroupParseError) as info:
        parse_group_expr(text)
    assert info.value.position == position


# ---------------------------------------------------------------------------
# subcommands


def test_levi_text_and_json(capsys):
    code, out, _ = run(capsys, "levi", "Sp(8)", "--remove", "a4")
    assert code == 0
    assert "sandwich condition    yes" in out
    assert "GL envelope           [4]" in out
    code, payload = run_json(capsys, "levi", "Sp(8)", "--remove", "a4")
    assert code == 0
    assert payload["condition_one"] is True
    assert payload["gl_envelope"] == [4]
    assert payload["maximal"] is True


def test_levi_supports_direct_theta(capsys):
    code, payload = run_json(capsys, "levi", "SL(4)", "--theta", "0,2")
    assert code == 0
    assert payload["derived_type"] == "A1 + A1 (torus rank 1)"


def test_satake_transfer(capsys):
    code, payload = run_json(
        capsys, "satake", "--group", "E7sc", "--remove", "a4", "--degrees", "1,2,2"
    )
    assert code == 0
    assert payload["envelope"] == [3, 2, 4]
    assert sorted((f["m"], f["d"]) for f in payload["factors"]) == [
        (1, 2), (2, 2), (3, 1),
    ]


def test_satake_pattern(capsys):
    code, payload = run_json(capsys, "satake", "--group", "GL(6)", "--pattern", "6,3")
    assert code == 0
    assert payload["black"] == [0, 1, 3, 4]


def test_satake_domain_error_exit_code(capsys):
    code, out, err = run(
        capsys, "satake", "--group", "Sp(10)", "--remove", "a5", "--degrees", "2"
    )
    assert code == 1
    assert "does not divide" in err


def test_usage_error_exit_code(capsys):
    code, out, err = run(capsys, "levi", "ZL(4)")
    assert code == 2
    code, out, err = run(capsys, "inner-forms", "Sp(4)")
    assert code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["satake", "--group", "GL(6)", "--pattern", "6"],
        ["satake", "--group", "E7sc", "--remove", "a4", "--degrees", "x"],
        ["division-algebra", "--n", "6", "--inv", "v1=1/0"],
        ["division-algebra", "--n", "6", "--inv", "v1@x=1/2"],
    ],
)
def test_malformed_options_are_usage_errors(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")


@pytest.mark.parametrize(
    "argv,code,message",
    [
        (("satake", "--group", "GL(4)", "--theta", "0", "--degrees", "0"), 1,
         "division degree 0 must be >= 1"),
        (("division-algebra", "--n", "2", "--inv", "cplx1=1/2"), 1,
         "complex place cplx1 admits only invariant 0"),
        (("levi", "GL(3)+GL(2)"), 2,
         "expected 'x' or end of expression in 'GL(3)+GL(2)' (at offset 5)"),
        (("levi", "Foo(3)"), 2,
         "unknown catalog tag 'Foo'; known tags: GL, SL, PGL, Sp, GSp, Spin, GSpin, SO, "
         "E6sc, E7sc, E8, F4, G2 (at offset 0)"),
        (("levi", "Spin"), 2, "tag Spin needs a parameter list (at offset 0)"),
        (("weyl", "SL(3)", "--theta", "0,x"), 2,
         "bad theta list '0,x'; expected comma-separated integers"),
    ],
)
def test_refusals_exit_with_their_exact_message(capsys, argv, code, message):
    assert run(capsys, *argv) == (code, "", f"error: {message}\n")


@pytest.mark.parametrize(
    "flags", [("--remove", "a4"), ("--theta", "0,1"), ("--degrees", "1,2,2")]
)
def test_pattern_with_a_levi_flag_is_a_usage_error(capsys, flags):
    # --pattern draws a GL picture and would ignore the Levi and its degrees
    code, out, err = run(capsys, "satake", "--group", "E7sc", "--pattern", "6,3", *flags)
    assert (code, out) == (2, "")
    assert err == f"error: argument --pattern: not allowed with argument {flags[0]}\n"


@pytest.mark.parametrize("group", ["GL(1000000000)", "Spin(2050)", "GL(600)xGL(500)"])
def test_lattice_rank_cap_is_a_usage_error(capsys, group):
    code, out, err = run(capsys, "levi", group)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "above the limit of 1024" in err


def test_place_cap_is_a_usage_error(capsys):
    code, out, err = run(
        capsys, "globalize", "--prime", "5", "--places", "1000000000", "--class-order", "2"
    )
    assert code == 2
    assert out == ""
    assert err == "error: 1000000000 places requested, above the limit of 4096\n"


@pytest.mark.parametrize(
    "argv,message",
    [
        (("globalize", "--prime", "1000000000039", "--places", "64"),
         "prime 1000000000039 is above the limit of 1000000"),
        (("globalize", "--prime", "10000000000000061", "--places", "1"),
         "prime 10000000000000061 is above the limit of 1000000"),
        (("division-algebra", "--n", "2", "--inv", "v1@10000000000000061=1/2,v2=1/2"),
         "finite place 'v1@10000000000000061': prime 10000000000000061 is above the limit "
         "of 1000000"),
    ],
)
def test_prime_cap_is_a_usage_error(capsys, argv, message):
    # trial division of these primes takes seconds to hours; the cap answers at once
    started = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert time.perf_counter() - started < 1.0
    assert code == 2
    assert out == ""
    assert err == f"error: {message}\n"


def test_largest_prime_under_the_cap_is_admitted(capsys):
    code, payload = run_json(capsys, "globalize", "--prime", "999983", "--places", "4096")
    assert code == 0
    assert payload["base_prime"] == 999983
    assert len(payload["places"]) == 4096
    code, payload = run_json(
        capsys, "division-algebra", "--n", "2", "--inv", "v1@999983=1/2,v2=1/2"
    )
    assert code == 0
    assert payload["valid"] is True


@pytest.mark.parametrize("command", [["levi", "GL(4)"], ["satake", "--group", "GL(4)"],
                                     ["weyl", "GL(4)"]])
@pytest.mark.parametrize("order", [0, 1])
def test_remove_and_theta_together_are_a_usage_error(capsys, command, order):
    flags = [["--remove", "a1"], ["--theta", "0,1"]]
    with pytest.raises(SystemExit) as info:
        main([*command, *flags[order], *flags[1 - order]])
    assert info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "not allowed with argument" in captured.err


@pytest.mark.parametrize(
    "argv",
    [("weyl", "GL(65)"), ("weyl", "Sp(130)", "--remove", "a1"), ("weyl", "GL(1024)", "--json")],
)
def test_weyl_rank_cap_is_a_usage_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "above the Weyl-layer limit of 64" in err
    assert "Traceback" not in err


def test_weyl_json(capsys):
    code, payload = run_json(capsys, "weyl", "SL(3)", "--theta", "0")
    assert code == 0
    assert payload["order"] == 6
    assert payload["image_of_theta"] == [1]
    assert len(payload["reduced_roots"]) == 1  # maximal theta: one class


def test_weyl_text_is_its_json_payload_ascii_escaped(capsys):
    # a product is named by its text, here with an Arabic-Indic digit six
    group = "G2xSp(\u0666)"
    code, out, err = run(capsys, "weyl", group, "--theta", "0,2", "--json")
    assert (code, err) == (0, "")
    assert f'"group": "{group}"' in out
    payload = json.loads(out)
    code, out, err = run(capsys, "weyl", group, "--theta", "0,2")
    assert (code, err) == (0, "")
    assert '"group": "G2xSp(\\u0666)"' in out
    assert out == json.dumps(payload, indent=2, sort_keys=True) + "\n"


def test_weyl_above_enumeration_bound_reports_null_order(capsys):
    code, payload = run_json(capsys, "weyl", "E7sc", "--theta", "0")
    assert code == 0
    assert payload["order"] is None
    assert "rank > 6" in payload["order_note"]


def test_kottwitz(capsys):
    code, payload = run_json(capsys, "kottwitz", "PGL(6)")
    assert code == 0
    assert payload["invariant_factors"] == [6]
    code, payload = run_json(capsys, "kottwitz", "GSpin(8)")
    assert payload["dual_center_positive_dimensional"] is True


def test_inner_forms(capsys):
    code, payload = run_json(capsys, "inner-forms", "GL(6)")
    assert code == 0
    assert len(payload["classes"]) == 6
    assert payload["classes"][3] == {
        "label": 3,
        "d": 2,
        "m": 3,
        "invariant": "1/2",
        "description": "GL_3(D_2), invariant 1/2",
    }


@pytest.mark.parametrize(
    "group,n",
    [("GL(1)", 1), ("GL(2)", 2), ("GL(9)", 9), ("GL(17)", 17),
     # GSp_2 and GSpin_3 are both isomorphic to GL_2
     ("GSp(2)", 2), ("GSpin(3)", 2)],
)
def test_inner_forms_accepts_groups_isomorphic_to_gl_n(capsys, group, n):
    code, payload = run_json(capsys, "inner-forms", group)
    assert code == 0
    assert payload["n"] == n
    assert len(payload["classes"]) == n
    code, out, err = run(capsys, "inner-forms", group)
    assert (code, err) == (0, "")
    assert out.startswith(f"inner forms of GL_{n}: {n} classes\n")


@pytest.mark.parametrize(
    "group",
    ["GL(2)xGL(1)", "GL(1)xSL(2)", "SL(2)xGL(1)", "GL(1)xGL(1)", "SL(3)", "PGL(2)",
     "Sp(4)", "GSp(4)"],
)
def test_inner_forms_rejects_groups_other_than_gl_n(capsys, group):
    code, out, err = run(capsys, "inner-forms", group)
    assert (code, out) == (2, "")
    assert err == "error: inner-forms expects a GL(n) group\n"


def test_globalize(capsys):
    code, payload = run_json(
        capsys, "globalize", "--prime", "5", "--places", "3", "--class-order", "2"
    )
    assert code == 0
    assert payload["degree"] == 4
    assert payload["tower_primes"] == [11, 19]
    assert payload["cocycle"] == {"v0": "1/2", "v1": "1/2"}


def test_division_algebra(capsys):
    code, payload = run_json(
        capsys, "division-algebra", "--n", "6", "--inv", "v1=1/2,v2=1/3,v3=1/6"
    )
    assert code == 0
    assert payload["valid"] is True
    assert payload["local"] == [
        {"place": "v1", "m": 3, "d": 2},
        {"place": "v2", "m": 2, "d": 3},
        {"place": "v3", "m": 1, "d": 6},
    ]
    code, payload = run_json(capsys, "division-algebra", "--n", "2", "--inv", "v1=1/2")
    assert code == 1
    assert payload["valid"] is False


def test_lj(capsys):
    code, out, _ = run(capsys, "lj", "--n", "2", "--d", "2", "--element", "(1,1):x,y")
    assert code == 0
    assert out.strip() == "0"
    code, payload = run_json(
        capsys, "lj", "--n", "6", "--d", "2", "--element", "(2,4):a,b + 3*(6):c"
    )
    assert payload["image"] == "(1,2):a,b + 3*(3):c"


@pytest.mark.parametrize("n,d", [("0", "1"), ("2", "0"), ("-1", "1"), ("0", "0")])
def test_lj_refuses_sizes_below_one(capsys, n, d):
    # even the zero element, which no divisibility check would reach
    code, out, err = run(capsys, "lj", "--n", n, "--d", d, "--element", "0", "--json")
    assert (code, out) == (2, "")
    assert err == f"error: lj needs --n and --d of at least 1, got {n} and {d}\n"


def test_lj_reads_stdin(capsys, monkeypatch):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO("(2):St"))
    code, out, _ = run(capsys, "lj", "--n", "2", "--d", "2")
    assert code == 0
    assert out.strip() == "(1):St"


def test_appendix_matches_goldens(capsys):
    code, out, _ = run(capsys, "appendix-a")
    assert code == 0
    assert out == (GOLDEN / "appendix_a.md").read_text()
    code, out, _ = run(capsys, "appendix-a", "--json")
    assert out == (GOLDEN / "appendix_a.json").read_text()
    payload = json.loads(out)
    VALIDATOR.validate(payload)


def test_outputs_deterministic(capsys):
    for argv in (
        ["appendix-a"],
        ["levi", "Sp(8)", "--remove", "a4", "--json"],
        ["weyl", "Sp(4)", "--theta", "0", "--json"],
        ["kottwitz", "SO(8)", "--json"],
    ):
        first = run(capsys, *argv)
        second = run(capsys, *argv)
        assert first == second


def test_ascii_env_var_fallback(capsys, monkeypatch):
    monkeypatch.setenv("INNERFORMS_ASCII", "1")
    code, payload = run_json(capsys, "satake", "--group", "GL(4)", "--pattern", "4,2")
    assert code == 0
    assert payload["diagram"] == "*--o--*"
    monkeypatch.delenv("INNERFORMS_ASCII")
    code, payload = run_json(capsys, "satake", "--group", "GL(4)", "--pattern", "4,2")
    assert payload["diagram"] == "●—○—●"
