"""Compare the row kernels of check_monoid and congruence_closure with the
element loops they replaced, above the scale of the test suite.

    PYTHONPATH=src:tests python3 tests/compare_laws.py --seed 29 --mutants 2

The inputs are the 228 isomorphism classes of monoids of size 5, built from
all_monoid_tables(5) and canonical_form (about 1.5 s), and the G tables
of all 4789 lambda products over catalog_inverse_monoids(4).  The whole run
takes about 11 s.  Three sections:

    monoid     check_monoid of every table, with its identity and without
    mutants    check_monoid of --mutants seeded one-cell mutations of each
               table, with the identity and without; every violation, in
               order, with its witness
    closure    congruence_closure of each table on three seeded random
               generator sets, and of each lambda product G on the image of
               k identified with 1 (what is_cokernel asks)

The references are reference_check_monoid and reference_congruence_closure
from tests/conftest.py.  Whole Verdicts are compared, and congruences by
their class ids.  Prints each difference and one line per section with the
time each side took; exits 1 on any difference.
"""

from __future__ import annotations

import argparse
import random
import sys
import time

from compare_homs import _Section
from conftest import one_cell_mutant, reference_check_monoid, reference_congruence_closure
from wschreier.catalog import all_monoid_tables, catalog_inverse_monoids
from wschreier.lambda_product import enumerate_inverse_actions, lambda_product
from wschreier.monoid import FiniteMonoid, canonical_form, check_monoid, congruence_closure


def _closure_ids(M, pairs):
    return congruence_closure(M, pairs).class_id


def _reference_ids(M, pairs):
    return reference_congruence_closure(M, pairs).class_id


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
    exts = [
        lambda_product(a).extension
        for N in catalog
        for H in catalog
        for a in enumerate_inverse_actions(N, H)
    ]
    print(
        "%d size-5 classes and %d lambda products in %.1f s"
        % (len(classes), len(exts), time.perf_counter() - t0),
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
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
