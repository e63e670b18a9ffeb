"""Compare the row kernels of check_monoid and congruence_closure with the
element loops they replaced, and the law checks on generators with the
full checks, above the scale of the test suite.

    PYTHONPATH=src:tests python3 tests/compare_laws.py --seed 29 --mutants 2

The inputs are the 228 isomorphism classes of monoids of size 5, built from
all_monoid_tables(5) and canonical_form (about 1.5 s), the G tables of all
4789 lambda products over catalog_inverse_monoids(4), and the 1093 glueings
between the frames of commutative_idempotent_monoids(5).  Four sections:

    monoid     check_monoid of every table, with its identity and without
    mutants    check_monoid of --mutants seeded one-cell mutations of each
               table, with the identity and without; every violation, in
               order, with its witness
    closure    congruence_closure of each table on three seeded random
               generator sets, and of each lambda product G on the image of
               k identified with 1 (what is_cokernel asks)
    generators the checks on k(N) and s(H) against the full checks, on every
               lambda product and glueing: the extension builder on its
               table, on --mutants seeded one-cell mutants and on one
               mutant that breaks the factorisation k(n) * s(h); the
               verifier on --mutants one-cell mutants of the e map; and
               the frame laws of each glued frame

The references are reference_check_monoid, reference_congruence_closure,
full_path_outcome and reference_verify_split_extension from
tests/conftest.py, and _frame_laws without generators.  Whole Verdicts and
outcomes are compared, and congruences by their class ids.  Prints each
difference and one line per section with the time each side took; exits 1
on any difference.
"""

from __future__ import annotations

import argparse
import random
import sys
import time
from collections import Counter
from dataclasses import replace
from functools import partial

from compare_homs import _Section
from conftest import (
    factor_cell_mutant,
    full_path_outcome,
    one_cell_mutant,
    outcome,
    reference_check_monoid,
    reference_congruence_closure,
    reference_verify_split_extension,
)
from wschreier.catalog import (
    all_homs,
    all_monoid_tables,
    catalog_inverse_monoids,
    commutative_idempotent_monoids,
)
from wschreier.extension import _extension_on_carrier, verify_split_extension
from wschreier.frames import _frame_laws, _glueing, check_frame
from wschreier.lambda_product import enumerate_inverse_actions, lambda_product
from wschreier.monoid import (
    FiniteMonoid,
    MonoidHom,
    canonical_form,
    check_monoid,
    congruence_closure,
)


def _closure_ids(M, pairs):
    return congruence_closure(M, pairs).class_id


def _reference_ids(M, pairs):
    return reference_congruence_closure(M, pairs).class_id


def _full_frame_laws(M, gens):
    return _frame_laws(M)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--seed", type=int, default=29)
    p.add_argument("--mutants", type=int, default=2, help="mutants per table")
    args = p.parse_args(argv)
    rng = random.Random(args.seed)
    t0 = time.perf_counter()
    forms = {canonical_form(FiniteMonoid(5, 0, t)) for t in all_monoid_tables(5)}
    classes = [FiniteMonoid(5, 0, table) for _, table in sorted(forms)]
    catalog = catalog_inverse_monoids(4)
    lams = [
        lambda_product(a)
        for N in catalog
        for H in catalog
        for a in enumerate_inverse_actions(N, H)
    ]
    exts = [lam.extension for lam in lams]
    frames = [M for M in commutative_idempotent_monoids(5) if check_frame(M).ok]
    glued = [_glueing(f)[1:] for H in frames for N in frames for f in all_homs(H, N)]
    print(
        "%d size-5 classes, %d lambda products and %d glueings in %.1f s"
        % (len(classes), len(exts), len(glued), time.perf_counter() - t0),
        flush=True,
    )
    monoids = classes + [ext.G for ext in exts]
    bad = 0

    section = _Section("monoid", "kernel")
    for M in monoids:
        section.compare(check_monoid, reference_check_monoid, M.table, M.identity)
        section.compare(check_monoid, reference_check_monoid, M.table)
    bad += section.report()

    section = _Section("mutants", "kernel")
    for M in monoids:
        for _ in range(args.mutants):
            table = one_cell_mutant(M.table, rng)
            section.compare(check_monoid, reference_check_monoid, table, M.identity)
            section.compare(check_monoid, reference_check_monoid, table)
    bad += section.report()

    section = _Section("closure", "kernel")
    for M in monoids:
        for k in (1, 2, 3):
            pairs = [(rng.randrange(M.size), rng.randrange(M.size)) for _ in range(k)]
            section.compare(_closure_ids, _reference_ids, M, pairs)
    for ext in exts:
        pairs = [(g, ext.G.identity) for g in ext.k.map]
        section.compare(_closure_ids, _reference_ids, ext.G, pairs)
    bad += section.report()

    section = _Section("generators", "generators")
    paths = Counter()
    built = [("lambda product", lam.carrier, lam.extension) for lam in lams]
    built += [("glueing", carrier, ext) for ext, carrier in glued]
    for what, carrier, ext in built:
        G, s = ext.G, [carrier[g] for g in ext.s.map]
        tables = [G.table] + [one_cell_mutant(G.table, rng) for _ in range(args.mutants)]
        if G.size > 1:
            tables.append(factor_cell_mutant(carrier, ext, rng))
        for table in tables:
            factored = all(
                table[ext.k.map[n]][ext.s.map[h]] == g for g, (n, h) in enumerate(carrier)
            )
            paths[factored, reference_check_monoid(table, G.identity).ok] += 1
            products = [[carrier[x] for x in row] for row in table]
            section.compare(
                partial(outcome, _extension_on_carrier),
                partial(full_path_outcome, _extension_on_carrier),
                ext.N, ext.H, carrier, products, s, what,
            )
        for _ in range(args.mutants):
            e = one_cell_mutant((ext.e.map,), rng, ext.H.size)[0]
            mutant = replace(ext, e=MonoidHom(G, ext.H, e))
            section.compare(verify_split_extension, reference_verify_split_extension, mutant)
        if what == "glueing":
            gens = set(ext.k.map).union(ext.s.map)
            section.compare(_frame_laws, _full_frame_laws, G, gens)
    unfactored = paths[False, False] + paths[False, True]
    print(
        "generators: %d tables unfactored (full check), %d factored with a broken law"
        " (rerun), %d factored monoids" % (unfactored, paths[True, False], paths[True, True]),
        flush=True,
    )
    bad += section.report()
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
