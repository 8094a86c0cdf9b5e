"""Verification toolkit for finite orthomodular lattices and event rings.

The package checks, constructs and cross-validates three kinds of finite
structure: orthomodular lattices given by order and complement, ring-like
event structures given by two operation tables, and sets of numerical
events (probability vectors under a full set of states).  Everything is
exact: orders and tables are index arithmetic, probabilities are
Fractions, and every derived result is re-verified against an
independent computation where one exists.

Importing the package loads none of its modules: each module below, and
each name listed with it, is imported on first use (PEP 562), so a
command line run compiles only the modules its subcommand needs.
"""

import importlib

__version__ = "0.1.0"

#: Each module, with the public names the package takes from it.
_SOURCES = {
    "corpus": ("all_names", "builtin"),
    "errors": (
        "CustomPlusInvalid", "CycleError", "DimensionMismatch", "EmptyCorpus",
        "InvalidState", "MalformedTable", "NoBoundsError", "NotAnEventAlgebra",
        "NotAnRlse", "NotFull", "NotLatticeOrdered", "OmlkitError",
        "OracleMismatch", "ParseError", "UnknownLabel", "UnknownName",
        "ValidationError",
    ),
    "laws": ("LAWS", "Failure", "Verdict"),
    "lattice": ("FiniteOml", "FinitePoset", "build_poset", "check_oml",
                "direct_product", "is_distributive"),
    "rlse": ("RlseTables", "check_correspondence", "check_derived_identities",
             "check_r4_orthogonal_form", "check_r5", "check_rlse",
             "derived_lattice", "is_boolean_ring", "rlse_from_oml"),
    "states": ("boolean_test", "check_full", "check_representation",
               "check_s_probability_algebra", "check_state",
               "events_from_states", "find_full_state_set"),
    "structfile": ("parse_structure", "serialize_structure"),
    "terms": ("T1", "T2", "THAT", "chain_check", "enumerate_canonical_terms",
              "eval_term", "filter_symmetric_difference_terms", "format_term",
              "term_function"),
}

#: Public name -> the module that defines it.
_MODULE_OF = {name: module for module, names in _SOURCES.items() for name in names}

__all__ = [*_SOURCES, *_MODULE_OF]


def __getattr__(name):
    if name in _SOURCES:
        return importlib.import_module(f".{name}", __name__)
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
