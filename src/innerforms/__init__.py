"""Levi subgroup calculus on based root data and inner-form transfer bookkeeping.

The public names below load on first use: ``innerforms.X`` imports the
submodule that defines ``X`` (with what that submodule imports) and no
other, so a short process pays only for the layers it touches.
"""

from importlib import import_module

_EXPORTS = {
    "errors": ("DatumError", "EnumerationLimitError", "GroupParseError", "GroupSpecError",
               "InnerFormsError", "TransferError"),
    "rootdata": ("BasedRootDatum", "DynkinType", "FiniteAbelianGroup", "build_catalog_group",
                 "classify", "fundamental_group", "smith_normal_form"),
    "levi": ("LeviDescriptor", "LeviReport", "analyze_levi", "is_maximal", "levi_datum"),
    "weyl": ("RestrictedRoot", "WeylWord", "find_w_theta", "rank_one_decomposition",
             "reduced_roots", "weyl_group_order"),
    "satake": ("InnerFormShape", "SatakeDiagram", "parse_ascii", "render_ascii", "transfer_levi",
               "type_a_satake"),
    "appendix": ("appendix_catalog", "catalog_json", "catalog_markdown", "verify_catalog"),
    "kottwitz": ("ad_quotient_order", "inner_form_classes_gl", "kottwitz_group"),
    "globalize": ("GlobalizationPlan", "HasseVector", "PlaceLabel", "build_cocycle",
                  "global_division_algebra", "plan_places", "split_primes"),
    "grothendieck": ("BasisElement", "VirtualElement", "character_sign", "global_d_compatibility",
                     "is_d_compatible", "levi_transfers", "lj_map", "parse_virtual"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = sorted(_MODULE_OF)

__version__ = "0.1.0"


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f"{__name__}.{module}"), name)
    return value


def __dir__():
    return sorted({*globals(), *__all__})
