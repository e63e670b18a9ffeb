"""The public API, frozen: each module's sorted __all__, every name in it
resolving, and the package re-exporting each library name.  A change that
removes code must keep this surface; a change that means to alter it edits
the table below."""

import importlib
import types

import pytest

import wschreier

API = {
    "monoid": [
        "BoundExceeded", "Congruence", "ConsistencyError", "FiniteMonoid", "FormatError",
        "InverseStructure", "MonoidHom", "PreconditionError", "Verdict", "Violation",
        "are_isomorphic", "canonical_form", "center", "check_hom", "check_monoid", "compose",
        "congruence_closure", "direct_product", "idempotents", "identity_hom", "image",
        "inverse_structure", "is_cokernel", "is_congruence", "kernel", "quotient", "submonoid",
        "zero_hom",
    ],
    "extension": [
        "SchreierRetraction", "SplitExtension", "all_retractions", "direct_product_extension",
        "extension_morphism", "extensions_equivalent", "find_retraction",
        "retraction_candidates", "verify_split_extension",
    ],
    "waction": [
        "ActionTable", "AdmissibleRelation", "DEFAULT_BOUND", "WActPair", "action_signature",
        "actions_equivalent", "admissible_relations", "build_extension", "check_admissible",
        "check_compatible_action", "compatible_actions", "enumerate_wactions",
        "extract_waction", "waction_leq",
    ],
    "lambda_product": [
        "InverseAction", "LambdaProduct", "artin_join", "artin_like_action",
        "canonical_multiplication", "canonicalize", "check_inverse_action",
        "enumerate_inverse_actions", "join_hom", "lambda_action_leq", "lambda_product",
        "semigroup_endomorphisms", "waction_of",
    ],
    "frames": [
        "FiniteFrame", "artin_glueing", "check_frame", "glueing_equals_lambda", "glueing_join",
    ],
    "catalog": [
        "all_homs", "all_monoid_tables", "catalog_inverse_monoids", "catalog_monoids",
        "central_idempotent_homs", "chain_lattice", "commutative_idempotent_monoids",
        "cyclic_group", "diamond_lattice", "m3_lattice", "right_zero_adjoined",
        "trivial_monoid",
    ],
    "io": [
        "ParseError", "load_action", "load_extension", "load_hom", "load_monoid",
        "load_wact_pair", "parse_monoid", "serialize_action", "serialize_extension",
        "serialize_hom", "serialize_monoid", "serialize_wact_pair",
    ],
    "cli": ["emit_dot", "main", "run"],
}

# library names the package does not re-export: none, since __init__ star-imports
# each library module
NOT_REEXPORTED = set()


@pytest.mark.parametrize("name", sorted(API))
def test_module_api_is_frozen(name):
    module = importlib.import_module("wschreier." + name)
    assert sorted(module.__all__) == API[name]
    for attr in module.__all__:
        assert hasattr(module, attr), attr


def test_package_reexports_the_library():
    """Every library name but those recorded is the package's own
    attribute; cli is the program, not the library."""
    missing = set()
    for name, names in API.items():
        if name == "cli":
            continue
        module = importlib.import_module("wschreier." + name)
        for attr in names:
            if getattr(wschreier, attr, None) is not getattr(module, attr):
                missing.add((name, attr))
    assert missing == NOT_REEXPORTED


def test_package_defines_no_public_name_of_its_own():
    """The package's public names, less its submodules, are exactly the union
    of the seven library __all__ lists, so __init__ only re-exports."""
    public = {attr for attr, value in vars(wschreier).items()
              if not attr.startswith("_") and not isinstance(value, types.ModuleType)}
    library = set()
    for name in API:
        if name != "cli":
            library.update(importlib.import_module("wschreier." + name).__all__)
    assert public == library
