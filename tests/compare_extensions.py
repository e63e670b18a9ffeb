"""Compare the readers of the factor table SplitExtension.ks, the
retraction the extension builder returns, and waction_leq, with the
derivations they replaced, above the scale of the test suite.

    PYTHONPATH=src:tests python3 tests/compare_extensions.py [--seed N]

The inputs are the 4789 lambda products over catalog_inverse_monoids(4),
and the 1993 relation/action pairs of the 310 in-bound (N, H) pairs of
catalog_monoids(4) with the extensions built from them.  Seven sections:

    build       build_extension of the 1993 pairs and of one seeded
                relabelling of each, against reference_build_extension: the
                table, identity and labels of G and the maps k, e and s
    candidates  retraction_candidates of every lambda product and every
                built extension
    unique      SchreierRetraction.unique, derived from the rows of ext.ks,
                of the retraction the builder returned with each lambda
                product and built extension, against the count of the
                reference candidates: one for every g
    retraction  that retraction against the first projection (n, h) -> n of
                the builder's carrier, which the reference candidates must
                admit at every g
    morphisms   extension_morphism between every ordered pair of built
                extensions over the same (N, H), 31859 in all, and between
                each lambda product and the next one over the same (N, H),
                both ways
    leq         waction_leq between every ordered pair of the same (N, H),
                the 31859 ordered pairs of the 310 posets, against
                reference_waction_leq and against the existence of an
                extension_morphism between the two built extensions, the
                order of the paper
    verdicts    verify_split_extension of the 6782 lambda products and
                built extensions, and of every one-entry mutant of e or s of
                direct_product_extension(N, H) over the 310 in-bound pairs,
                against a verdict whose cokernel law is always decided by a
                congruence closure; with each verdict, whether
                congruence_closure ran, against whether the extension reached
                the cokernel law without being weakly Schreier

The references are reference_build_extension, reference_retraction_candidates,
reference_extension_morphism, reference_waction_leq and
reference_verify_split_extension from tests/conftest.py; a raised exception
is compared by its type and message.  The builder's carrier and retraction
for a built extension are recorded by wrapping the waction module's
reference to the builder for the run, and the closures run by counting
calls through the monoid module's reference to congruence_closure.
Prints each difference and one line per section with the time each side
took; exits 1 on any difference.  On a 2 vCPU VM with Python 3.11.7 a run
takes about 6 s, and the leq section reads "31859 of 31859 cases identical;
key 0.07-0.10 s, reference 0.58-0.82 s" over five runs.  The key side
includes deriving the order key of each of the 1993 pairs on first use; the
flat pass over a set of class pairs that the key replaced read 0.10-0.14 s
beside it.  The build section reads "3986 of 3986 cases identical; cells
0.51-0.65 s, reference 0.66-0.85 s" over five runs (seed 29).  Both sides
include the assembly and checks of the shared builder, about 60 us of each
build; the cell side checks only the relabelled pairs, since the enumerated
ones carry the mark of a passed check, and the reference checks every pair.
"""

from __future__ import annotations

import argparse
import importlib
import random
import sys
import time
from functools import partial

from compare_homs import _Section
from conftest import (
    extension_mutants,
    outcome,
    reference_build_extension,
    reference_extension_morphism,
    reference_retraction_candidates,
    reference_verify_split_extension,
    reference_waction_leq,
    relabelled_pair,
)
from wschreier.catalog import catalog_inverse_monoids, catalog_monoids
from wschreier.extension import extension_morphism, retraction_candidates, verify_split_extension
from wschreier.lambda_product import enumerate_inverse_actions, lambda_product
from wschreier.waction import DEFAULT_BOUND, build_extension, enumerate_wactions, waction_leq


def exactly(ext):
    return ext.G.table, ext.G.identity, ext.G.labels, ext.k.map, ext.e.map, ext.s.map


def built_exactly(pair):
    return exactly(build_extension(pair))


def reference_built_exactly(pair):
    return exactly(reference_build_extension(pair))


def derived_unique(r):
    return r.unique


def counted_unique(r):
    return all(len(c) == 1 for c in reference_retraction_candidates(r.ext))


def builder_retraction(carrier, ext, r):
    return r.q if r.ext is ext else "retraction of another extension"


def first_projection(carrier, ext, r):
    q = tuple([n for n, _ in carrier])
    cands = reference_retraction_candidates(ext)
    return q if all(n in c for n, c in zip(q, cands)) else "no retraction"


def leq_twice(p1, p2, x1, x2):
    got = outcome(waction_leq, p1, p2)
    return got, got


def leq_references(p1, p2, x1, x2):
    return outcome(reference_waction_leq, p1, p2), extension_morphism(x1, x2) is not None


def verdict_and_closure(closures, ext):
    before = len(closures)
    verdict = verify_split_extension(ext)
    return verdict, len(closures) > before


def reference_verdict_and_closure(ext):
    verdict = reference_verify_split_extension(ext)
    reached = verdict.ok or verdict.violations[0].law == "cokernel"
    return verdict, reached and not all(reference_retraction_candidates(ext))


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--seed", type=int, default=29, help="seed of the relabellings")
    args = p.parse_args(argv)
    t0 = time.perf_counter()
    inverse = catalog_inverse_monoids(4)
    products = [
        [lambda_product(a) for a in enumerate_inverse_actions(N, H)]
        for N in inverse
        for H in inverse
    ]
    lambdas = [[lam.extension for lam in group] for group in products]
    made = [(lam.carrier, lam.extension, lam.retraction) for group in products for lam in group]
    catalog = catalog_monoids(4)
    in_bound = [(N, H) for N in catalog for H in catalog if N.size * H.size <= DEFAULT_BOUND]
    posets = [enumerate_wactions(N, H) for N, H in in_bound]
    waction = importlib.import_module("wschreier.waction")
    builder = waction._extension_on_carrier

    def recording(N, H, carrier, *rest):
        ext, r = builder(N, H, carrier, *rest)
        made.append((carrier, ext, r))
        return ext, r

    waction._extension_on_carrier = recording
    try:
        built = [[build_extension(pair) for pair in poset] for poset in posets]
    finally:
        waction._extension_on_carrier = builder
    print(
        "%d lambda products, %d pairs in %d posets in %.1f s"
        % (sum(map(len, lambdas)), sum(map(len, posets)), len(posets), time.perf_counter() - t0),
        flush=True,
    )
    bad = 0

    section = _Section("build", "cells")
    new, ref = partial(outcome, built_exactly), partial(outcome, reference_built_exactly)
    rng = random.Random(args.seed)
    pairs = [pair for poset in posets for pair in poset]
    for pair in pairs + [relabelled_pair(pair, rng) for pair in pairs]:
        section.compare(new, ref, pair)
    bad += section.report()

    section = _Section("candidates", "table")
    new = partial(outcome, retraction_candidates)
    ref = partial(outcome, reference_retraction_candidates)
    for group in lambdas + built:
        for ext in group:
            section.compare(new, ref, ext)
    bad += section.report()

    section = _Section("unique", "derived")
    for _, _, r in made:
        section.compare(derived_unique, counted_unique, r)
    bad += section.report()

    section = _Section("retraction", "builder")
    for case in made:
        section.compare(builder_retraction, first_projection, *case)
    bad += section.report()

    section = _Section("morphisms", "table")
    new, ref = partial(outcome, extension_morphism), partial(outcome, reference_extension_morphism)
    for exts in built:
        for a in exts:
            for b in exts:
                section.compare(new, ref, a, b)
    for exts in lambdas:
        for a, b in zip(exts, exts[1:]):
            section.compare(new, ref, a, b)
            section.compare(new, ref, b, a)
    bad += section.report()

    section = _Section("leq", "key")
    for poset, exts in zip(posets, built):
        for p1, x1 in zip(poset, exts):
            for p2, x2 in zip(poset, exts):
                section.compare(leq_twice, leq_references, p1, p2, x1, x2)
    bad += section.report()

    section = _Section("verdicts", "table")
    monoid = importlib.import_module("wschreier.monoid")
    closure, closures = monoid.congruence_closure, []

    def counting(M, pairs):
        closures.append(M)
        return closure(M, pairs)

    monoid.congruence_closure = counting
    try:
        new = partial(verdict_and_closure, closures)
        for group in lambdas + built:
            for ext in group:
                section.compare(new, reference_verdict_and_closure, ext)
        for N, H in in_bound:
            for ext in extension_mutants(N, H):
                section.compare(new, reference_verdict_and_closure, ext)
    finally:
        monoid.congruence_closure = closure
    print("verdicts: %d closures" % len(closures), flush=True)
    bad += section.report()
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
