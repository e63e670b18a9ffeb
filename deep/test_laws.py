"""The row kernels of check_monoid and congruence_closure against the
element loops they replaced, on the size-5 classes and the G of every
lambda product, and the law checks on the generators k(N) and s(H) against
the full checks, on every lambda product and glueing."""

import random
from collections import Counter
from dataclasses import replace
from functools import partial

import pytest

import tests.conftest as oracle
from wschreier.catalog import chain_lattice
from wschreier.extension import _extension_on_carrier, verify_split_extension
from wschreier.frames import _frame_laws
from wschreier.monoid import MonoidHom, check_monoid, congruence_closure

from .conftest import SEED, agree

MUTANTS = 2  # seeded one-cell mutants per table


@pytest.fixture(scope="module")
def monoids(classes, lambdas):
    return classes + [lam.extension.G for group in lambdas for lam in group]


@pytest.fixture(scope="module")
def draws(monoids):
    """The mutant tables and closure generators, drawn in this order from
    one seeded generator, and its state after them."""
    rng = random.Random(SEED)
    mutants = [
        (oracle.one_cell_mutant(M.table, rng), M.identity) for M in monoids for _ in range(MUTANTS)
    ]
    pairs = [
        (M, [(rng.randrange(M.size), rng.randrange(M.size)) for _ in range(k)])
        for M in monoids
        for k in (1, 2, 3)
    ]
    return mutants, pairs, rng.getstate()


def _class_ids(closure):
    return lambda M, pairs: closure(M, pairs).class_id


def test_monoid(monoids):
    cases = [c for M in monoids for c in ((M.table, M.identity), (M.table,))]
    agree(check_monoid, oracle.reference_check_monoid, cases, 10034)


def test_mutants(draws):
    """Whole verdicts: every violation, in order, with its witness."""
    cases = [c for table, e in draws[0] for c in ((table, e), (table,))]
    agree(check_monoid, oracle.reference_check_monoid, cases, 20068)


def test_closure(draws, lambdas):
    """Seeded generator sets, and the image of k identified with 1 (what
    is_cokernel asks); congruences are compared by their class ids."""
    exts = [lam.extension for group in lambdas for lam in group]
    cases = draws[1] + [(x.G, [(g, x.G.identity) for g in x.k.map]) for x in exts]
    new, ref = map(_class_ids, (congruence_closure, oracle.reference_congruence_closure))
    agree(new, ref, cases, 19840)


def test_generators(draws, lambdas, glued):
    """The builder on each table, on seeded one-cell mutants, on one that
    breaks k(n) * s(h) and on one unfactored table that is associative at
    every generator middle; the verifier on one-cell mutants of e; the frame
    laws of each glued frame."""
    rng = random.Random()
    rng.setstate(draws[2])
    build, verify, frames, paths = [], [], [], Counter()
    made = [("lambda product", lam.carrier, lam.extension) for group in lambdas for lam in group]
    for what, carrier, ext in made + [("glueing", carrier, ext) for ext, carrier in glued]:
        G, k, s = ext.G, ext.k.map, ext.s.map
        tables = [G.table] + [oracle.one_cell_mutant(G.table, rng) for _ in range(MUTANTS)]
        if G.size > 1:
            tables.append(oracle.factor_cell_mutant(carrier, ext, rng))
        for table in tables:
            factored = all(table[k[n]][s[h]] == g for g, (n, h) in enumerate(carrier))
            paths[factored, oracle.reference_check_monoid(table, G.identity).ok] += 1
            products = [[carrier[x] for x in row] for row in table]
            build.append((ext.N, ext.H, carrier, products, [carrier[g] for g in s], what))
        for _ in range(MUTANTS):
            e = oracle.one_cell_mutant((ext.e.map,), rng, ext.H.size)[0]
            verify.append((replace(ext, e=MonoidHom(G, ext.H, e)),))
        if what == "glueing":
            frames.append((G, set(k).union(s)))
    # tables checked in full, factored with a broken law (the rerun), factored monoids
    unfactored = paths[False, False] + paths[False, True]
    assert (unfactored, paths[True, False], paths[True, True]) == (7086, 10459, 5981)
    # no seeded table is unfactored, non-associative and associative at the
    # middles k(N) ∪ s(H) = {0, 1, 2}; in this one every failure has middle 3
    N = H = chain_lattice(2)
    carrier = [(n, h) for h in H.elements for n in N.elements]
    table = ((0, 1, 2, 3), (1, 1, 1, 1), (2, 1, 2, 1), (3, 1, 1, 0))
    products = [[carrier[x] for x in row] for row in table]
    build.append((N, H, carrier, products, [carrier[0], carrier[2]], "unfactored"))
    assert len(build) + len(verify) + len(frames) == 36384
    new = partial(oracle.outcome, _extension_on_carrier)
    agree(new, partial(oracle.full_path_outcome, _extension_on_carrier), build, 23527)
    agree(verify_split_extension, oracle.reference_verify_split_extension, verify, 11764)
    agree(_frame_laws, lambda M, gens: _frame_laws(M), frames, 1093)
