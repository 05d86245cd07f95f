"""What a fresh ``innerforms`` process loads: one subprocess per check.

Each check starts ``python -S`` (no site hooks, so the host's ``.pth`` files
load nothing) with ``src`` on the path and prints what it finds as JSON.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

# the public names of the package, as the eager package bound them
PUBLIC = (
    "BasedRootDatum BasisElement DatumError DynkinType EnumerationLimitError FiniteAbelianGroup "
    "GlobalizationPlan GroupParseError GroupSpecError HasseVector InnerFormShape InnerFormsError "
    "LeviDescriptor LeviReport PlaceLabel RestrictedRoot SatakeDiagram TransferError "
    "VirtualElement WeylWord ad_quotient_order analyze_levi appendix_catalog build_catalog_group "
    "build_cocycle catalog_json catalog_markdown character_sign classify find_w_theta "
    "fundamental_group global_d_compatibility global_division_algebra inner_form_classes_gl "
    "is_d_compatible is_maximal kottwitz_group levi_datum levi_transfers lj_map parse_ascii "
    "parse_virtual plan_places rank_one_decomposition reduced_roots render_ascii "
    "smith_normal_form split_primes transfer_levi type_a_satake verify_catalog weyl_group_order"
).split()

HEAVY = ("dataclasses", "inspect", "fractions")
BASE = {"innerforms", "innerforms.cli", "innerforms.errors"}


def run_fresh(code: str) -> dict:
    """Run ``code`` in a fresh interpreter; it prints one JSON object last."""
    env = {k: v for k, v in os.environ.items() if not k.startswith(("PYTHON", "INNERFORMS_"))}
    env.update(PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
    done = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                          env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def test_importing_the_cli_loads_no_records_fractions_or_layers():
    found = run_fresh(
        "import json, sys\n"
        "import innerforms.cli\n"
        f"print(json.dumps({{'heavy': [m for m in {HEAVY!r} if m in sys.modules],\n"
        "                   'package': sorted(m for m in sys.modules if m.startswith('innerforms'))}))"
    )
    assert found == {"heavy": [], "package": sorted(BASE)}


# each subcommand, and the submodules (beyond BASE) it may load
SUBCOMMANDS = [
    (["levi", "Sp(8)", "--remove", "a4"], {"_record", "rootdata", "levi"}),
    (["satake", "--group", "E7sc", "--remove", "a4", "--degrees", "1,2,2"],
     {"_record", "rootdata", "levi", "satake"}),
    (["appendix-a", "--json"], {"_record", "rootdata", "levi", "satake", "kottwitz", "appendix"}),
    (["weyl", "SL(3)", "--theta", "0"], {"_record", "rootdata", "weyl"}),
    (["kottwitz", "PGL(6)"], {"_record", "rootdata", "kottwitz"}),
    (["inner-forms", "GL(6)"], {"_record", "rootdata", "levi", "kottwitz"}),
    (["globalize", "--prime", "5", "--places", "3", "--class-order", "2"],
     {"_record", "globalize"}),
    (["division-algebra", "--n", "6", "--inv", "v1=1/2,v2=1/3,v3=1/6"], {"_record", "globalize"}),
    (["lj", "--n", "6", "--d", "2", "--element", "(2,4):a,b + 3*(6):c"],
     {"_record", "grothendieck"}),
]


@pytest.mark.parametrize("argv,layers", SUBCOMMANDS, ids=[argv[0] for argv, _ in SUBCOMMANDS])
def test_each_subcommand_loads_only_its_own_layers(argv, layers):
    found = run_fresh(
        "import contextlib, io, json, sys\n"
        "from innerforms.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    code = main({argv!r})\n"
        f"print(json.dumps({{'code': code, 'heavy': [m for m in {HEAVY!r} if m in sys.modules],\n"
        "                   'package': sorted(m for m in sys.modules if m.startswith('innerforms'))}))"
    )
    assert found["code"] == 0
    assert found["package"] == sorted(BASE | {f"innerforms.{layer}" for layer in layers})
    # only the Hasse-invariant commands need rationals; nothing needs dataclasses
    assert found["heavy"] == (["fractions"] if "globalize" in layers else [])


def test_public_names_resolve_lazily_to_their_submodules():
    found = run_fresh(
        "import importlib, json, sys\n"
        "import innerforms\n"
        "before = sorted(m for m in sys.modules if m.startswith('innerforms.'))\n"
        "listed = dir(innerforms)\n"
        "same = [name for name in innerforms.__all__ if getattr(innerforms, name) is getattr(\n"
        "    importlib.import_module(getattr(innerforms, name).__module__), name)]\n"
        "star = {}\n"
        "exec('from innerforms import *', star)\n"
        "try:\n"
        "    innerforms.no_such_name\n"
        "    missing = 'bound'\n"
        "except AttributeError as exc:\n"
        "    missing = str(exc)\n"
        "from innerforms import appendix\n"
        "print(json.dumps({'all': innerforms.__all__, 'version': innerforms.__version__,\n"
        "                  'before': before, 'listed': [n for n in innerforms.__all__ if n in listed],\n"
        "                  'same': same, 'star': sorted(k for k in star if k != '__builtins__'),\n"
        "                  'missing': missing, 'appendix': appendix.__name__}))"
    )
    assert sorted(found["all"]) == sorted(PUBLIC) and len(PUBLIC) == 52
    assert found["version"] == "0.1.0"
    assert found["before"] == []  # importing the package loads no submodule
    assert found["listed"] == found["same"] == found["all"]
    assert found["star"] == sorted(PUBLIC)
    assert found["missing"] == "module 'innerforms' has no attribute 'no_such_name'"
    assert found["appendix"] == "innerforms.appendix"
