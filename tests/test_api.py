"""The public API, frozen: each module's sorted __all__, every name in it
resolving, and the package re-exporting each library name.  A change that
removes code must keep this surface; a change that means to alter it edits
the table below.  The value classes keep their fields, in order, and stay
frozen."""

import ast
import importlib
import json
import os
import subprocess
import sys
import types

import pytest

import wschreier
from wschreier.catalog import catalog_inverse_monoids, chain_lattice, cyclic_group
from wschreier.extension import SchreierRetraction, SplitExtension, direct_product_extension
from wschreier.frames import FiniteFrame, check_frame
from wschreier.lambda_product import (
    InverseAction, LambdaProduct, enumerate_inverse_actions, lambda_product,
)
from wschreier.monoid import (
    Congruence, FiniteMonoid, FormatError, InverseStructure, MonoidHom, Verdict, Violation,
    check_monoid, congruence_closure, inverse_structure,
)
from wschreier.waction import ActionTable, AdmissibleRelation, WActPair, extract_waction

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

# library names the package does not re-export: none, since the package binds
# each library module's __all__ when it is first asked for a name
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


# The package imports its library modules on the first name it does not yet
# bind.  Each case below starts from a fresh process, since this one has
# long loaded everything.
def fresh(code):
    """The JSON value that code, run in a fresh interpreter, prints last."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(wschreier.__file__)))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src), check=True)
    return json.loads(proc.stdout.splitlines()[-1])


LIBRARY = sorted({attr for name, names in API.items() if name != "cli" for attr in names})
SUBMODULES = ["catalog", "extension", "frames", "io", "monoid", "waction"]


def test_submodule_import_leaves_lambda_product_the_function():
    # importing frames imports the lambda_product module, which the import
    # system binds on the package under the function's name
    assert fresh(
        "import json, sys, wschreier.frames, wschreier\n"
        "f = sys.modules['wschreier.lambda_product'].lambda_product\n"
        "from wschreier import lambda_product\n"
        "print(json.dumps([wschreier.lambda_product is f, lambda_product is f]))"
    ) == [True, True]


def test_star_import_binds_the_library_and_its_modules():
    names = fresh("import json\nfrom wschreier import *\n"
                  "print(json.dumps(sorted(n for n in dir() if not n.startswith('_'))))")
    assert names == sorted(set(LIBRARY) | {"json"} | set(SUBMODULES))


def test_dir_lists_the_library():
    names = fresh("import json, wschreier\nprint(json.dumps(dir(wschreier)))")
    assert set(LIBRARY) | set(SUBMODULES) <= set(names)


def test_loaded_package_is_a_plain_module():
    # attribute reads are specialised only on a plain module without __getattr__
    assert fresh(
        "import json, types, wschreier\n"
        "def plain():\n"
        "    return type(wschreier) is types.ModuleType and '__getattr__' not in vars(wschreier)\n"
        "before = plain()\n"
        "wschreier.check_monoid\n"
        "print(json.dumps([before, plain()]))"
    ) == [False, True]


def test_unknown_name_is_an_attribute_error():
    assert fresh(
        "import json, wschreier\n"
        "try:\n    wschreier.no_such_name\nexcept AttributeError as exc:\n    out = str(exc)\n"
        "print(json.dumps([out, hasattr(wschreier, 'check_monoid')]))"
    ) == ["module 'wschreier' has no attribute 'no_such_name'", True]


# The frozen value classes: their constructor parameters are their fields, in
# order.  FiniteMonoid keeps its own ==, hash and repr: size, identity and
# table decide equality, and repr shows the size and identity alone.
RECORDS = {
    Violation: ("law", "witness"),
    Verdict: ("value", "violations"),
    FiniteMonoid: ("size", "identity", "table", "labels"),
    InverseStructure: ("base", "inv"),
    MonoidHom: ("source", "target", "map"),
    Congruence: ("base", "class_id"),
    AdmissibleRelation: ("N", "H", "fibers"),
    ActionTable: ("N", "H", "act"),
    WActPair: ("E", "alpha"),
    SplitExtension: ("N", "G", "H", "k", "e", "s"),
    SchreierRetraction: ("ext", "q"),
    InverseAction: ("N", "H", "act"),
    LambdaProduct: ("action", "carrier", "extension", "retraction"),
    FiniteFrame: ("base", "leq", "join", "bottom"),
}


def record_samples():
    """Instances of each class as the library makes them, from the
    λ-products over the inverse monoids of size 2."""
    two = [iv for iv in catalog_inverse_monoids(2) if iv.base.size == 2]
    lams = [lambda_product(a) for N in two for H in two for a in enumerate_inverse_actions(N, H)]
    exts = [lam.extension for lam in lams]
    pairs = [extract_waction(lam.extension, lam.retraction) for lam in lams]
    verdicts = [check_monoid(((0, 1), (1, 0)), 1), check_monoid(((0, 0), (0, 0)))]
    verdicts += [check_frame(M) for M in (chain_lattice(2), chain_lattice(3), cyclic_group(2))]
    return {
        Violation: [v for verdict in verdicts for v in verdict.violations],
        Verdict: verdicts,
        FiniteMonoid: [ext.G for ext in exts] + [chain_lattice(3)],
        InverseStructure: two,
        MonoidHom: [f for ext in exts for f in (ext.k, ext.e, ext.s)],
        Congruence: [congruence_closure(exts[0].G, [(0, g)]) for g in exts[0].G.elements],
        AdmissibleRelation: [p.E for p in pairs],
        ActionTable: [p.alpha for p in pairs],
        WActPair: pairs,
        SplitExtension: exts,
        SchreierRetraction: [lam.retraction for lam in lams],
        InverseAction: [lam.action for lam in lams],
        LambdaProduct: lams,
        FiniteFrame: [v.value for v in verdicts if isinstance(v.value, FiniteFrame)],
    }


@pytest.mark.parametrize("cls", list(RECORDS), ids=lambda cls: cls.__name__)
def test_records_are_frozen_values(cls):
    """Each value class builds by keyword; ==, hash and repr follow its
    fields in order; an attribute kept with object.__setattr__ changes none
    of them; assigning or deleting an attribute raises AttributeError."""
    fields = RECORDS[cls]
    eq_fields, repr_fields = fields, fields
    if cls is FiniteMonoid:
        eq_fields, repr_fields = fields[:3], fields[:2]

    def key(x):
        return tuple(getattr(x, f) for f in eq_fields)

    xs = record_samples()[cls]
    for x in xs:
        y = cls(**{f: getattr(x, f) for f in fields})
        assert y is not x and y == x and hash(y) == hash(x) == hash(key(x))
        shown = ", ".join("%s=%r" % (f, getattr(x, f)) for f in repr_fields)
        assert repr(y) == repr(x) == "%s(%s)" % (cls.__name__, shown)
        assert x.__eq__(object()) is NotImplemented
        object.__setattr__(y, "_kept", object())
        assert y == x and x == y and hash(y) == hash(x) and repr(y) == repr(x)
        for name in fields + ("_kept", "other"):
            with pytest.raises(AttributeError):
                setattr(y, name, None)
            with pytest.raises(AttributeError):
                delattr(y, name)
        assert key(y) == key(x)
    assert len({key(x) for x in xs}) > 1
    for x in xs:
        for z in xs:
            assert (x == z) == (key(x) == key(z))


def malformed_arguments():
    """For each record whose constructor checks its arguments, arguments of
    which exactly one is malformed, caught by the last check it makes."""
    c2, sl2 = cyclic_group(2), chain_lattice(2)
    ext = direct_product_extension(c2, sl2)
    inv = inverse_structure(c2).value
    return {
        FiniteMonoid: (2, 0, c2.table, ("1",)),  # one label for two elements
        MonoidHom: (c2, sl2, (0, 2)),  # an image out of range
        Congruence: (c2, (0, True)),  # a class id that is no plain int
        SplitExtension: (c2, ext.G, sl2, ext.k, ext.e, ext.k),  # s leaves from N
        SchreierRetraction: (ext, (1,) * ext.G.size),  # q(0) = 1 does not factor 0
        AdmissibleRelation: (c2, sl2, ((0, 1), (0, None))),  # a class id that is no plain int
        ActionTable: (c2, sl2, ((0, 1), (0, 2))),  # a value out of range
        WActPair: (AdmissibleRelation.discrete(c2, sl2), ActionTable(sl2, c2, ((0, 1), (0, 1)))),
        InverseAction: (inv, inv, ((0, 1), (1, 2))),  # a value out of range
    }


@pytest.mark.parametrize("cls", [FiniteMonoid, MonoidHom, Congruence, SplitExtension,
                                 SchreierRetraction, AdmissibleRelation, ActionTable, WActPair,
                                 InverseAction], ids=lambda cls: cls.__name__)
def test_malformed_argument_writes_nothing(cls):
    """Each constructor validates all of its arguments before it writes a
    field, so the FormatError of a malformed one leaves the instance empty."""
    obj = cls.__new__(cls)
    with pytest.raises(FormatError):
        obj.__init__(*malformed_arguments()[cls])
    assert vars(obj) == {}


def test_records_are_written_through_set_only():
    """No class in the package has a second construction step
    (__post_init__), and object.__setattr__ appears only in the alias
    _set = object.__setattr__, the one way anything writes to a record."""
    package = os.path.dirname(os.path.abspath(wschreier.__file__))
    found = []
    for name in sorted(os.listdir(package)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(package, name), encoding="utf-8") as f:
            tree = ast.parse(f.read(), name)
        alias = [node.value for node in ast.walk(tree) if isinstance(node, ast.Assign)
                 and [ast.dump(t) for t in node.targets] == [ast.dump(ast.Name("_set", ast.Store()))]]
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    names = [item.name] if isinstance(item, ast.FunctionDef) else [
                        t.id for t in getattr(item, "targets", ()) if isinstance(t, ast.Name)]
                    if "__post_init__" in names:
                        found.append("%s:%d: %s.__post_init__" % (name, item.lineno, node.name))
            elif (isinstance(node, ast.Attribute) and node.attr == "__setattr__"
                  and isinstance(node.value, ast.Name) and node.value.id == "object"
                  and not any(node is a for a in alias)):
                found.append("%s:%d: object.__setattr__" % (name, node.lineno))
    assert found == []
