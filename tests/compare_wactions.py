"""Compare enumerate_wactions with the generate-and-test reference on
seeded random pairs above the default bound.

    PYTHONPATH=src:tests python3 tests/compare_wactions.py --pairs 40 --seed 29 --cells 12

Each pair is drawn from catalog_monoids(4) with |N| * |H| equal to --cells,
and both members are relabelled by a seeded random permutation.  Both
enumerators run with bound=--cells and must return the same tuple.  The
reference draws its relations from reference_admissible_relations, so the
cell search is checked against the generate-and-test loops it replaced.  It
takes about 3 s per 12-cell pair, and the default run about two minutes, so
this script is not part of the test suite.  Prints one line per pair and a
total; exits 1 on a mismatch.
"""

from __future__ import annotations

import argparse
import random
import sys
import time

from conftest import reference_wactions, relabelled
from wschreier.catalog import catalog_monoids
from wschreier.waction import enumerate_wactions


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--pairs", type=int, default=40)
    p.add_argument("--seed", type=int, default=29)
    p.add_argument("--cells", type=int, default=12)
    args = p.parse_args(argv)
    rng = random.Random(args.seed)
    catalog = catalog_monoids(4)
    candidates = [
        (i, j)
        for i, N in enumerate(catalog)
        for j, H in enumerate(catalog)
        if N.size * H.size == args.cells
    ]
    chosen = rng.sample(candidates, min(args.pairs, len(candidates)))
    totals = [0.0, 0.0]
    bad = 0
    for i, j in chosen:
        N, H = relabelled(catalog[i], rng), relabelled(catalog[j], rng)
        t0 = time.perf_counter()
        new = enumerate_wactions(N, H, bound=args.cells)
        t1 = time.perf_counter()
        ref = reference_wactions(N, H, bound=args.cells)
        t2 = time.perf_counter()
        totals[0] += t1 - t0
        totals[1] += t2 - t1
        same = new == ref
        bad += not same
        print(
            "catalog[%d] x catalog[%d]: %d pairs, new %.3f s, reference %.3f s, %s"
            % (i, j, len(new), t1 - t0, t2 - t1, "same" if same else "DIFFERENT"),
            flush=True,
        )
    print(
        "%d of %d pairs identical; new %.1f s, reference %.1f s in total"
        % (len(chosen) - bad, len(chosen), totals[0], totals[1])
    )
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
