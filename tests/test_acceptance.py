"""Whole-catalog acceptance sweep.

Each test checks one headline guarantee of the package over the full desk
scale catalog (all monoids of size <= 4 up to isomorphism, frames of size
<= 5) and prints a single line

    acceptance <n>: pass

or ``acceptance <n>: FAIL`` before re-raising.  Run with

    pytest tests/test_acceptance.py -v -s

to see the lines as they go; under plain ``pytest -v`` each criterion is
still one PASSED/FAILED row.  The frozen counters in the sweeps are scope
tripwires: they fail loudly if a refactor silently narrows an enumeration.
"""

import functools
import os
import shutil
import subprocess
import sys
import time

import pytest

import wschreier
from conftest import assert_dag_transitively_reduced
from wschreier import (
    ActionTable,
    MonoidHom,
    SplitExtension,
    actions_equivalent,
    all_homs,
    all_retractions,
    artin_join,
    artin_like_action,
    build_extension,
    catalog_inverse_monoids,
    catalog_monoids,
    central_idempotent_homs,
    check_frame,
    commutative_idempotent_monoids,
    direct_product,
    enumerate_inverse_actions,
    enumerate_wactions,
    extension_morphism,
    extensions_equivalent,
    extract_waction,
    find_retraction,
    glueing_equals_lambda,
    glueing_join,
    inverse_structure,
    lambda_action_leq,
    lambda_product,
    retraction_candidates,
    right_zero_adjoined,
    serialize_action,
    serialize_extension,
    serialize_hom,
    serialize_monoid,
    verify_split_extension,
    waction_leq,
    waction_of,
)

IN_BOUND = 9  # default |N| * |H| cap for exhaustive pair enumeration


def criterion(n):
    """Print one 'acceptance <n>: pass/FAIL' line per criterion test."""

    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print("acceptance %d: FAIL" % n)
                raise
            print("acceptance %d: pass" % n)

        return wrapper

    return deco


@pytest.fixture(scope="module")
def inverse_catalog():
    return catalog_inverse_monoids(4)


@pytest.fixture(scope="module")
def monoid_catalog():
    return catalog_monoids(4)


@pytest.fixture(scope="module")
def frame_catalog():
    return tuple(
        M for M in commutative_idempotent_monoids(5) if check_frame(M).ok
    )


def iter_inverse_actions(inverse_catalog):
    for Niv in inverse_catalog:
        for Hiv in inverse_catalog:
            for action in enumerate_inverse_actions(Niv, Hiv):
                yield action


@criterion(1)
def test_criterion_1_lambda_products_weakly_schreier(inverse_catalog):
    """Every lambda product of a catalog inverse action is a verified split
    extension and admits a retraction, and the whole sweep stays under the
    pinned 60 second budget."""
    start = time.monotonic()
    checked = 0
    for action in iter_inverse_actions(inverse_catalog):
        prod = lambda_product(action)
        assert verify_split_extension(prod.extension).ok
        assert find_retraction(prod.extension).ok
        checked += 1
    elapsed = time.monotonic() - start
    assert checked == 4789
    assert elapsed < 60.0, "sweep took %.1f s" % elapsed


@criterion(2)
def test_criterion_2_projection_recovers_the_action(inverse_catalog):
    """Extracting along the first-projection retraction gives back exactly
    the action the lambda product was built from."""
    for action in iter_inverse_actions(inverse_catalog):
        prod = lambda_product(action)
        got = extract_waction(prod.extension, prod.retraction)
        assert got.alpha.act == action.act


@criterion(3)
def test_criterion_3_round_trips(monoid_catalog):
    """build then extract is the identity on relation/action pairs, and
    extract then build lands in the same equivalence class of extensions,
    over every catalog pair within the enumeration bound."""
    pairs = 0
    total = 0
    for N in monoid_catalog:
        for H in monoid_catalog:
            if N.size * H.size > IN_BOUND:
                continue
            pairs += 1
            for p in enumerate_wactions(N, H):
                total += 1
                ext = build_extension(p)
                r = find_retraction(ext)
                assert r.ok
                back = extract_waction(ext, r.value)
                assert back.E.fibers == p.E.fibers
                assert actions_equivalent(p.E, p.alpha, back.alpha)
                assert extensions_equivalent(ext, build_extension(back))
    assert pairs == 310
    assert total == 1993


@criterion(4)
def test_criterion_4_order_matches_morphism_existence():
    """On inverse pairs of size <= 3 the action preorder holds exactly when
    a morphism of the lambda extensions exists."""
    small = catalog_inverse_monoids(3)
    checked = 0
    for Niv in small:
        for Hiv in small:
            actions = enumerate_inverse_actions(Niv, Hiv)
            exts = [lambda_product(a).extension for a in actions]
            for i, a in enumerate(actions):
                for j, b in enumerate(actions):
                    expected = extension_morphism(exts[i], exts[j]) is not None
                    assert lambda_action_leq(a, b) == expected
                    checked += 1
    assert checked == 1201


@criterion(5)
def test_criterion_5_distinct_actions_same_extension(alpha_a, alpha_0):
    """The two constant-idempotent actions on (sl3, sl2) differ as tables,
    their lambda extensions are equivalent, and both induce the relation
    with a discrete identity fiber and a total e fiber."""
    assert alpha_a.act != alpha_0.act
    assert alpha_a.act == ((0, 1, 2), (1, 1, 1))
    assert alpha_0.act == ((0, 1, 2), (2, 2, 2))
    ext_a = lambda_product(alpha_a).extension
    ext_0 = lambda_product(alpha_0).extension
    assert extensions_equivalent(ext_a, ext_0)
    for ext in (ext_a, ext_0):
        p = extract_waction(ext, find_retraction(ext).value)
        assert p.E.fibers == ((0, 1, 2), (0, 0, 0))


@criterion(6)
def test_criterion_6_join_is_least_upper_bound(inverse_catalog):
    """For every pair of central-idempotent-valued homs between catalog
    inverse monoids, the pointwise-product action is an upper bound of both
    factors and sits below every enumerated upper bound."""
    hom_pairs = 0
    leastness = 0
    for Niv in inverse_catalog:
        for Hiv in inverse_catalog:
            homs = central_idempotent_homs(Hiv.base, Niv.base)
            if not homs:
                continue
            in_bound = Niv.base.size * Hiv.base.size <= IN_BOUND
            enum = enumerate_wactions(Niv.base, Hiv.base) if in_bound else ()
            pairs = [(f, waction_of(artin_like_action(f))) for f in homs]
            for f, pf in pairs:
                for g, pg in pairs:
                    pj = waction_of(artin_join(f, g))
                    assert waction_leq(pf, pj)
                    assert waction_leq(pg, pj)
                    hom_pairs += 1
                    for p in enum:
                        if waction_leq(pf, p) and waction_leq(pg, p):
                            assert waction_leq(pj, p)
                            leastness += 1
    assert hom_pairs == 4495
    assert leastness == 682


@criterion(7)
def test_criterion_7_glueing_is_lambda_product(frame_catalog):
    """Every meet-preserving map between catalog frames glues to exactly the
    lambda product of its meet action (same carrier, table, and structure
    maps), and glueing the pointwise meet realizes the join of the two
    glueings in the enumerated preorder."""
    assert sorted(M.size for M in frame_catalog) == [1, 2, 3, 4, 4, 5, 5, 5]
    checked_homs = 0
    join_pairs = 0
    leastness = 0
    for H in frame_catalog:
        for N in frame_catalog:
            homs = all_homs(H, N)
            for f in homs:
                assert glueing_equals_lambda(f)
                checked_homs += 1
            in_bound = N.size * H.size <= IN_BOUND
            enum = enumerate_wactions(N, H) if in_bound else ()
            by_map = {}

            def wact(f):
                if f.map not in by_map:
                    by_map[f.map] = waction_of(artin_like_action(f))
                return by_map[f.map]

            for f in homs:
                pf = wact(f)
                for g in homs:
                    pg = wact(g)
                    pj = wact(glueing_join(f, g))
                    assert waction_leq(pf, pj)
                    assert waction_leq(pg, pj)
                    join_pairs += 1
                    if in_bound:
                        assert any(
                            waction_leq(q, pj) and waction_leq(pj, q)
                            for q in enum
                        )
                        for p in enum:
                            if waction_leq(pf, p) and waction_leq(pg, p):
                                assert waction_leq(pj, p)
                                leastness += 1
    assert checked_homs == 1093
    assert join_pairs == 39459
    assert leastness == 265


def assert_retraction_independent(ext):
    """All retractions of ext induce the same relation/action pair.

    The relation never depends on the retraction, so it is enough that for
    each (h, n) every candidate value of q(s(h) k(n)) lies in one class of
    fiber h; when the full set of retractions is small we also materialize
    it and compare the extracted pairs directly.
    """
    base = extract_waction(ext, find_retraction(ext).expect("retraction"))
    cands = retraction_candidates(ext)
    for h in ext.H.elements:
        sh = ext.s.map[h]
        row = base.E.fibers[h]
        for n in ext.N.elements:
            g = ext.G.mul(sh, ext.k.map[n])
            assert len({row[x] for x in cands[g]}) == 1
    try:
        retractions = all_retractions(ext)
    except ValueError:
        return 0
    for r in retractions:
        p = extract_waction(ext, r)
        assert p.E.fibers == base.E.fibers
        assert actions_equivalent(base.E, base.alpha, p.alpha)
    return len(retractions)


@criterion(8)
def test_criterion_8_retraction_independence(monoid_catalog, inverse_catalog):
    """Every catalog weakly Schreier extension, whether built from an
    enumerated relation/action pair or as a lambda product, yields the same
    pair no matter which retraction is chosen."""
    extensions = 0
    materialized = 0
    for N in monoid_catalog:
        for H in monoid_catalog:
            if N.size * H.size > IN_BOUND:
                continue
            for p in enumerate_wactions(N, H):
                extensions += 1
                materialized += assert_retraction_independent(
                    build_extension(p)
                )
    for action in iter_inverse_actions(inverse_catalog):
        extensions += 1
        materialized += assert_retraction_independent(
            lambda_product(action).extension
        )
    assert extensions == 6782
    assert materialized == 94793


# ---------------------------------------------------------------------------
# Criterion 9: CLI determinism and the exit code contract


@pytest.fixture(scope="module")
def cli_dir(tmp_path_factory, sl2, sl3, c2):
    d = tmp_path_factory.mktemp("acceptance_cli")

    def w(name, text):
        (d / name).write_text(text, encoding="utf-8")

    rz = right_zero_adjoined(2)
    w("sl2.mon", serialize_monoid(sl2, "sl2"))
    w("sl3.mon", serialize_monoid(sl3, "sl3"))
    w("c2.mon", serialize_monoid(c2, "c2"))
    w("rz.mon", serialize_monoid(rz, "rz"))
    w("broken.mon", "monoid broken 2\nidentity 0\nrow 0: 0 0\nrow 1: 1 1\n")
    w("garbage.mon", "monoid broken\n")
    alpha_a = ActionTable(sl3, sl2, ((0, 1, 2), (1, 1, 1)))
    alpha_0 = ActionTable(sl3, sl2, ((0, 1, 2), (2, 2, 2)))
    w("alpha_a.act", serialize_action(alpha_a, "sl3.mon", "sl2.mon", "aa"))
    w("alpha_0.act", serialize_action(alpha_0, "sl3.mon", "sl2.mon", "a0"))
    bad = ActionTable(sl3, sl2, ((0, 1, 2), (0, 2, 1)))
    w("bad.act", serialize_action(bad, "sl3.mon", "sl2.mon", "bad"))
    rza = ActionTable(rz, sl2, ((0, 1, 2), (0, 1, 2)))
    w("rz.act", serialize_action(rza, "rz.mon", "sl2.mon", "rza"))
    w("f.map", serialize_hom(MonoidHom(sl2, sl3, (0, 1)), "sl2.mon", "sl3.mon", "f"))
    w("g.map", serialize_hom(MonoidHom(sl2, sl3, (0, 2)), "sl2.mon", "sl3.mon", "g"))
    w(
        "rzmap.map",
        serialize_hom(MonoidHom(sl2, rz, (0, 1)), "sl2.mon", "rz.mon", "h"),
    )
    lam = lambda_product(
        enumerate_inverse_actions(
            inverse_structure(sl3).expect("sl3"),
            inverse_structure(sl2).expect("sl2"),
        )[0]
    )
    w("lamG.mon", serialize_monoid(lam.extension.G, "lamG"))
    w(
        "lam.ext",
        serialize_extension(
            lam.extension, "sl3.mon", "lamG.mon", "sl2.mon", "lam"
        ),
    )
    G = direct_product(sl2, sl2)
    w("G.mon", serialize_monoid(G, "G"))
    diag = SplitExtension(
        sl2,
        G,
        sl2,
        MonoidHom(sl2, G, (0, 2)),
        MonoidHom(G, sl2, (0, 1, 0, 1)),
        MonoidHom(sl2, G, (0, 3)),
    )
    assert verify_split_extension(diag).ok
    w("diag.ext", serialize_extension(diag, "sl2.mon", "G.mon", "sl2.mon", "diag"))
    return d


CLI_CASES = [
    (["check", "sl3.mon"], 0, None),
    (["check", "c2.mon"], 0, None),
    (["check", "sl3.mon", "--as-frame"], 0, None),
    (["check", "rz.mon", "--as-frame"], 1, None),
    (["check", "broken.mon"], 1, None),
    (["check", "garbage.mon"], 2, None),
    (["check", "missing.mon"], 2, None),
    (["inverse", "sl3.mon"], 0, None),
    (["inverse", "rz.mon"], 1, None),
    (["lambda", "alpha_a.act"], 0, None),
    (["lambda", "alpha_a.act", "--emit", "lam_emit.ext"], 0, "lam_emit.ext"),
    (["lambda", "bad.act"], 1, None),
    (["lambda", "rz.act"], 1, None),
    (["glue", "f.map"], 0, None),
    (["glue", "f.map", "--emit", "glued.ext"], 0, "glued.ext"),
    (["glue", "rzmap.map"], 1, None),
    (["extract", "lam.ext"], 0, None),
    (["extract", "diag.ext"], 1, None),
    (["compare", "alpha_a.act", "alpha_0.act"], 0, None),
    (["compare", "lam.ext", "alpha_0.act"], 0, None),
    (["join", "f.map", "g.map"], 0, None),
    (["join", "rzmap.map", "rzmap.map"], 1, None),
    (["enumerate", "sl3.mon", "sl2.mon"], 0, None),
    (["enumerate", "sl3.mon", "sl2.mon", "--actions"], 0, None),
    (["enumerate", "sl3.mon", "sl2.mon", "--wactions", "--limit", "3"], 0, None),
    (["poset", "sl3.mon", "sl2.mon", "--dot", "poset.dot"], 0, "poset.dot"),
    (["frobnicate"], 2, None),
]


def run_cli(workdir, args, seed, extra_env=None):
    env = os.environ.copy()
    env.pop("WSCHREIER_BOUND", None)
    env["PYTHONHASHSEED"] = seed
    src = os.path.dirname(os.path.dirname(os.path.abspath(wschreier.__file__)))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    if extra_env:
        env.update(extra_env)
    return subprocess.run(
        [sys.executable, "-m", "wschreier"] + args,
        capture_output=True,
        cwd=str(workdir),
        env=env,
    )


@criterion(9)
def test_criterion_9_cli_determinism(cli_dir, tmp_path):
    """Every verb is byte-identical across two runs under different hash
    seeds, exit codes follow the 0/1/2 contract, and the emitted preorder
    graph is acyclic and transitively reduced.

    The runs use identical argv in two separate copies of the fixture tree
    so emitted files can be compared byte for byte as well.
    """
    run_a = tmp_path / "run_a"
    run_b = tmp_path / "run_b"
    shutil.copytree(cli_dir, run_a)
    shutil.copytree(cli_dir, run_b)
    for args, expected, emitted in CLI_CASES:
        first = run_cli(run_a, args, "0")
        second = run_cli(run_b, args, "4242")
        assert first.returncode == expected, (args, first.stdout, first.stderr)
        assert second.returncode == expected
        assert first.stdout == second.stdout, args
        assert first.stderr == second.stderr, args
        if emitted is not None:
            assert (run_a / emitted).read_bytes() == (
                run_b / emitted
            ).read_bytes(), args
    bounded = ["enumerate", "sl3.mon", "sl3.mon"]
    for seed in ("0", "4242"):
        p = run_cli(run_a, bounded, seed, {"WSCHREIER_BOUND": "5"})
        assert p.returncode == 2
        assert b"bound" in p.stdout + p.stderr
    dot = (run_a / "poset.dot").read_text(encoding="utf-8")
    assert dot.startswith("digraph")
    assert_dag_transitively_reduced(dot)
