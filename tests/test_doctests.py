import doctest
import importlib
import pkgutil

import pytest

import innerforms

MODULES = ["innerforms"] + sorted(
    f"innerforms.{m.name}" for m in pkgutil.iter_modules(innerforms.__path__)
)


@pytest.mark.parametrize("name", MODULES)
def test_module_doctests_pass(name):
    result = doctest.testmod(importlib.import_module(name))
    assert result.failed == 0, result


def test_doctest_examples_are_collected():
    # rootdata has Smith normal form, classify and the walker on a bare
    # Cartan matrix; globalize has one example, and weyl the non-reduced
    # rank-one decomposition of Sp(6)
    for name, least in (
        ("innerforms.globalize", 1),
        ("innerforms.rootdata", 5),
        ("innerforms.weyl", 1),
    ):
        assert doctest.testmod(importlib.import_module(name)).attempted >= least, name
