"""Exact Kostka-number combinatorics with fast certified predicates.

Public names are imported on first use (PEP 562): `import kostka` compiles
this file only, and `kostka.kostka` or `from kostka import kostka` imports
the submodule that defines the name.
"""

# each public name, listed once, under the submodule that defines it
_EXPORTS = {
    "counting": """is_multiplicity_one is_multiplicity_one_multi is_positive
        kostka kostka_multi unique_weight unique_weight_multi
        verify_certificate verify_certificate_multi""",
    "ggg": "theta_kostka theta_positive zelcor_multiplicity_one",
    "partitions": "dominates is_horizontal_strip normalize sort_to_partition tilde",
    "tableaux": """enumerate_multitableaux enumerate_tableaux greedy_tableau
        is_semistandard redistribute_columns weight""",
    "wreath": """Constituent decompose_permutation_character hook_length_degree
        irreducible_degree""",
}
_MODULE_OF = {name: mod for mod, names in _EXPORTS.items() for name in names.split()}
_SUBMODULES = {*_EXPORTS, "cli", "errors"}

__all__ = sorted(_MODULE_OF)

__version__ = "0.1.0"


def __getattr__(name):
    from importlib import import_module

    if name in _SUBMODULES:
        return import_module(f"{__name__}.{name}")
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__, *_SUBMODULES})
