"""Compare the readers of the factor table SplitExtension.ks, and
waction_leq, with the derivations they replaced, above the scale of the
test suite.

    PYTHONPATH=src:tests python3 tests/compare_extensions.py

The inputs are the 4789 lambda products over catalog_inverse_monoids(4),
and the 1993 relation/action pairs of the 310 in-bound (N, H) pairs of
catalog_monoids(4) with the extensions built from them.  Three sections:

    candidates  retraction_candidates of every lambda product and every
                built extension
    morphisms   extension_morphism between every ordered pair of built
                extensions over the same (N, H), 31859 in all, and between
                each lambda product and the next one over the same (N, H),
                both ways
    leq         waction_leq between every ordered pair of the same (N, H),
                the 31859 ordered pairs of the 310 posets

The references are reference_retraction_candidates,
reference_extension_morphism and reference_waction_leq from
tests/conftest.py; a raised exception is compared by its type and message.
Prints each difference and one line per section with the time each side
took; exits 1 on any difference.
"""

from __future__ import annotations

import argparse
import sys
import time
from functools import partial

from compare_homs import _Section
from conftest import (
    outcome,
    reference_extension_morphism,
    reference_retraction_candidates,
    reference_waction_leq,
)
from wschreier.catalog import catalog_inverse_monoids, catalog_monoids
from wschreier.extension import extension_morphism, retraction_candidates
from wschreier.lambda_product import enumerate_inverse_actions, lambda_product
from wschreier.waction import DEFAULT_BOUND, build_extension, enumerate_wactions, waction_leq


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.parse_args(argv)
    t0 = time.perf_counter()
    inverse = catalog_inverse_monoids(4)
    lambdas = [
        [lambda_product(a).extension for a in enumerate_inverse_actions(N, H)]
        for N in inverse
        for H in inverse
    ]
    catalog = catalog_monoids(4)
    posets = [
        enumerate_wactions(N, H)
        for N in catalog
        for H in catalog
        if N.size * H.size <= DEFAULT_BOUND
    ]
    built = [[build_extension(pair) for pair in poset] for poset in posets]
    print(
        "%d lambda products, %d pairs in %d posets in %.1f s"
        % (sum(map(len, lambdas)), sum(map(len, posets)), len(posets), time.perf_counter() - t0),
        flush=True,
    )
    bad = 0

    section = _Section("candidates", "table")
    new = partial(outcome, retraction_candidates)
    ref = partial(outcome, reference_retraction_candidates)
    for group in lambdas + built:
        for ext in group:
            section.compare(new, ref, ext)
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

    section = _Section("leq", "classes")
    new, ref = partial(outcome, waction_leq), partial(outcome, reference_waction_leq)
    for poset in posets:
        for p1 in poset:
            for p2 in poset:
                section.compare(new, ref, p1, p2)
    bad += section.report()
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
