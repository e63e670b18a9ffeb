"""Compare the plan-driven hom search with the generate-and-test references
above the scale of the test suite.

    PYTHONPATH=src:tests python3 tests/compare_homs.py --seed 29

The inputs are the 228 isomorphism classes of monoids of size 5, built from
all_monoid_tables(5) and canonical_form (about 1.5 s), each also under one
seeded relabelling, and the chains of 6 and 7 elements.  Four sections:

    endomorphisms  semigroup_endomorphisms of every input
    homs           all_homs between each size-5 monoid and each member of
                   catalog_monoids(3), both ways, and from each chain to itself
    actions        enumerate_inverse_actions of each inverse size-5 monoid on
                   and by each member of catalog_inverse_monoids(3), refusals
                   included
    isomorphism    are_isomorphic against equal canonical forms, for each
                   size-5 class and the relabelled copy of each class

The references are reference_semigroup_endomorphisms, reference_all_homs and
reference_inverse_actions from tests/conftest.py.  The references take
about 11 s on the size-5 inputs and the whole run about 16 s, so this script
is not part of the test suite.  Prints one line per section; exits 1 on a
mismatch.
"""

from __future__ import annotations

import argparse
import random
import sys
import time

from conftest import (
    reference_all_homs,
    reference_inverse_actions,
    reference_semigroup_endomorphisms,
    relabelled,
)
from wschreier.catalog import (
    all_homs,
    all_monoid_tables,
    catalog_inverse_monoids,
    catalog_monoids,
    chain_lattice,
)
from wschreier.lambda_product import enumerate_inverse_actions, semigroup_endomorphisms
from wschreier.monoid import (
    BoundExceeded,
    FiniteMonoid,
    are_isomorphic,
    canonical_form,
    inverse_structure,
)


def _with_refusals(enumerate_):
    """enumerate_, returning the estimate and message of a refusal."""

    def run(N, H):
        try:
            return enumerate_(N, H)
        except BoundExceeded as exc:
            return ("refused", exc.estimate, str(exc))

    return run


class _Section:
    def __init__(self, name, side="search"):
        self.name = name
        self.side = side  # what the new side is called in the report
        self.cases = self.bad = 0
        self.seconds = [0.0, 0.0]

    def compare(self, new, ref, *args):
        t0 = time.perf_counter()
        got = new(*args)
        t1 = time.perf_counter()
        want = ref(*args)
        t2 = time.perf_counter()
        self.seconds[0] += t1 - t0
        self.seconds[1] += t2 - t1
        self.cases += 1
        if got != want:
            self.bad += 1
            print("%s: DIFFERENT on %r" % (self.name, args), flush=True)

    def report(self):
        print(
            "%s: %d of %d cases identical; %s %.2f s, reference %.2f s"
            % (self.name, self.cases - self.bad, self.cases, self.side, *self.seconds),
            flush=True,
        )
        return self.bad


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--seed", type=int, default=29)
    args = p.parse_args(argv)
    rng = random.Random(args.seed)
    t0 = time.perf_counter()
    forms = {canonical_form(FiniteMonoid(5, 0, t)) for t in all_monoid_tables(5)}
    classes = [FiniteMonoid(5, 0, table) for _, table in sorted(forms)]
    copies = [relabelled(M, rng) for M in classes]
    print("%d size-5 classes in %.1f s" % (len(classes), time.perf_counter() - t0), flush=True)
    chains = [chain_lattice(6), chain_lattice(7)]
    bad = 0

    section = _Section("endomorphisms")
    for M in classes + copies + chains:
        section.compare(semigroup_endomorphisms, reference_semigroup_endomorphisms, M)
    bad += section.report()

    section = _Section("homs")
    for A in classes + copies:
        for B in catalog_monoids(3):
            section.compare(all_homs, reference_all_homs, A, B)
            section.compare(all_homs, reference_all_homs, B, A)
    for C in chains:
        section.compare(all_homs, reference_all_homs, C, C)
    bad += section.report()

    section = _Section("actions")
    new = _with_refusals(enumerate_inverse_actions)
    ref = _with_refusals(reference_inverse_actions)
    for M in classes + copies:
        big = inverse_structure(M)
        if not big.ok:
            continue
        for small in catalog_inverse_monoids(3):
            section.compare(new, ref, big.value, small)
            section.compare(new, ref, small, big.value)
    bad += section.report()

    section = _Section("isomorphism")
    form = {M: canonical_form(M) for M in classes + copies}
    for A in classes:
        for B in copies:
            section.compare(are_isomorphic, lambda A, B: form[A] == form[B], A, B)
    bad += section.report()
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
