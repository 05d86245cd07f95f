"""Property test of the command line: every argv ends in exit 0, 1 or 2.

Random argument lists for all nine subcommands, at small sizes, run in
process through ``cli.main``.  No call may raise (a traceback), stderr never
shows one, and a successful ``--json`` answer validates against the schema.
"""

import io
import json
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st
from jsonschema import Draft202012Validator

from innerforms.cli import main

VALIDATOR = Draft202012Validator(
    json.loads((Path(__file__).parent.parent / "schemas" / "cli_output.schema.json").read_text())
)

junk = st.text(alphabet="GLSpinOxE8()0123456789,-a/= ", max_size=12)


def mostly(valid, invalid=junk):
    """Draws from ``valid``, and about one in five from ``invalid``."""
    return st.sampled_from([valid] * 4 + [invalid]).flatmap(lambda strategy: strategy)


def listed(values):
    return st.lists(values, min_size=1, max_size=4).map(lambda xs: ",".join(map(str, xs)))


FACTORS = (
    [f"{tag}({n})" for tag in ("GL", "SL", "PGL") for n in range(1, 6)]
    + [f"{tag}({n})" for tag in ("Sp", "GSp", "SO") for n in range(1, 9)]
    + [f"{tag}({n})" for tag in ("Spin", "GSpin") for n in range(2, 9)]
    + ["G2", "F4", "GL(0)", "GL", "Sp(6,2)"]
)
factors = st.sampled_from(FACTORS)
groups = mostly(st.one_of(factors, st.tuples(factors, factors).map("x".join)))
indices = mostly(listed(st.integers(0, 5)))


@st.composite
def levi_options(draw):
    """Nothing, --remove, --theta or both (a usage error), possibly out of range or malformed."""
    kind = draw(st.sampled_from(["none", "remove", "theta", "both"]))
    options = []
    if kind in ("remove", "both"):
        options += ["--remove", draw(indices.map(lambda x: "a" + x.replace(",", ",a")))]
    if kind in ("theta", "both"):
        options += ["--theta", draw(indices)]
    return options


@st.composite
def compositions(draw, n):
    parts = []
    while sum(parts) < n:
        parts.append(draw(st.integers(1, n - sum(parts))))
    return parts


@st.composite
def elements(draw, n):
    terms = draw(st.lists(st.tuples(compositions(n), st.sampled_from(["a", "St"]),
                                    st.integers(-3, 3)), min_size=1, max_size=3))
    text = " + ".join(
        f"{c}*({','.join(map(str, comp))}):{','.join([tag] * len(comp))}" for comp, tag, c in terms
    )
    return text.replace("+ -", "- ")


@st.composite
def argvs(draw):
    command = draw(st.sampled_from(
        ["levi", "satake", "appendix-a", "weyl", "kottwitz", "inner-forms", "globalize",
         "division-algebra", "lj"]
    ))
    if command in ("levi", "weyl"):
        argv = [command, draw(groups), *draw(levi_options())]
    elif command == "satake":
        argv = ["satake", "--group", draw(groups)]
        if draw(st.booleans()):
            argv += ["--pattern", draw(mostly(listed(st.integers(1, 6))))]
        else:
            argv += draw(levi_options())
            if draw(st.booleans()):
                argv += ["--degrees", draw(mostly(listed(st.integers(1, 3))))]
    elif command == "appendix-a":
        argv = ["appendix-a"]
    elif command in ("kottwitz", "inner-forms"):
        argv = [command, draw(groups)]
    elif command == "globalize":
        argv = ["globalize", "--prime", str(draw(mostly(st.sampled_from([2, 3, 5, 7, 13]),
                                                        st.integers(-2, 12)))),
                "--places", str(draw(mostly(st.integers(1, 6), st.integers(-1, 0))))]
        if draw(st.booleans()):
            argv += ["--class-order", str(draw(st.integers(1, 3))),
                     "--class-residue", str(draw(st.integers(-1, 3)))]
    elif command == "division-algebra":
        places = st.tuples(st.sampled_from(["v1", "v2", "v3@3", "inf", "cplx"]),
                           st.integers(0, 5), st.integers(1, 6))
        inv = draw(mostly(st.lists(places, min_size=1, max_size=3, unique_by=lambda p: p[0]).map(
            lambda ps: ",".join(f"{p}={a}/{b}" for p, a, b in ps))))
        argv = ["division-algebra", "--n", str(draw(mostly(st.integers(1, 8), st.integers(-1, 0)))),
                "--inv", inv]
    else:
        n = draw(st.integers(1, 6))
        element = draw(mostly(elements(n), st.one_of(junk, st.just("0"))))
        argv = ["lj", "--n", str(draw(mostly(st.just(n), st.integers(-1, 7)))),
                "--d", str(draw(mostly(st.integers(1, 3), st.integers(-1, 0)))),
                f"--element={element}"]
    if draw(st.booleans()):
        argv.append("--json")
    if draw(st.sampled_from([False] * 19 + [True])):
        argv.append("--bogus")
    return argv


def call(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse reports usage errors this way
            code = exc.code
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=400, deadline=None, derandomize=True)
@given(argvs())
def test_every_argv_ends_in_an_exit_code(argv):
    code, out, err = call(argv)
    assert code in (0, 1, 2), (argv, code, err)
    assert "Traceback" not in err, argv
    if code == 0 and "--json" in argv:
        VALIDATOR.validate(json.loads(out))
