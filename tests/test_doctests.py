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
    # examples, not docstrings, are counted: rootdata has Smith normal form,
    # classify and the walker on a bare Cartan matrix; globalize has one
    # example, and weyl two for the reduced roots of SL(3) at theta = {} and
    # four for the non-reduced rank-one decomposition of Sp(6)
    for name, least in (
        ("innerforms.globalize", 1),
        ("innerforms.rootdata", 5),
        ("innerforms.weyl", 6),
    ):
        assert doctest.testmod(importlib.import_module(name)).attempted >= least, name
