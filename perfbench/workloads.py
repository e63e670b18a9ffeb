"""The three catalog sweeps, on catalogs relabelled from the seed.

Each sweep is set up once (catalog generation and relabelling) and then run
in whole passes.  A pass walks every pair of its catalog in a seeded order
and checks every item against the laws; the totals of a pass are
isomorphism invariants of the catalog, so they are frozen below and any
relabelling must reproduce them.

Both members of every pair get their own relabelling.  The cost of some
enumerators depends on the labels (enumerate_inverse_actions picks its
generators greedily by index), so one labelling per monoid, shared by all
its pairs, moved the rate of the lambda sweep by up to 1.6x between seeds.
One labelling per pair averages that over hundreds of pairs.

Workload code looks every library function up on the ``wschreier`` package
at call time, so the tracer's wrappers see the calls.
"""

from __future__ import annotations

import random
import sys
import traceback

import wschreier as W

IN_BOUND = 9  # the default |N| * |H| bound of enumerate_wactions

# Frozen totals of one pass: full catalog, and the reduced one the
# benchmark's own tests use.
EXPECTED = {
    "lambda_sweep": {
        "full": {"items": 4789},
        "small": {"items": 155},
    },
    "wact_roundtrip": {
        "full": {"pairs": 310, "items": 1993},
        "small": {"pairs": 100, "items": 757},
    },
    "glueing_join": {
        "full": {"homs": 1093, "items": 39459, "leastness": 265},
        "small": {"homs": 145, "items": 1661, "leastness": 259},
    },
}


def relabel(M, rng):
    """M with its non-identity elements permuted by rng; no labels."""
    n = M.size
    rest = [a for a in range(n) if a != M.identity]
    image = rest[:]
    rng.shuffle(image)
    p = list(range(n))
    for a, b in zip(rest, image):
        p[a] = b
    table = [[0] * n for _ in range(n)]
    for a in range(n):
        for b in range(n):
            table[p[a]][p[b]] = p[M.table[a][b]]
    return W.FiniteMonoid(n, M.identity, tuple(map(tuple, table)))


def _report(exc_label):
    """Print the traceback of a failed item to stderr."""
    print("item failed: %s" % exc_label, file=sys.stderr)
    traceback.print_exc(file=sys.stderr)


class Sweep:
    """A catalog sweep: ``pairs`` in seeded order, run in whole passes."""

    name = ""

    def __init__(self, seed: int, small: bool = False):
        self.size = "small" if small else "full"
        self.rng = random.Random("%s:%d" % (self.name, seed))
        self.expected = EXPECTED[self.name][self.size]
        self.pairs = self.setup(small)
        self.rng.shuffle(self.pairs)

    def setup(self, small):
        raise NotImplementedError

    def run_pass(self, meter):
        """One pass over all pairs, timing each item on meter.  Returns
        (counts, failed items)."""
        raise NotImplementedError

    def check(self, counts):
        """Names of the frozen totals this pass got wrong."""
        return [k for k, v in self.expected.items() if counts.get(k) != v]


class LambdaSweep(Sweep):
    """Every inverse action of the catalog: lambda product, retraction,
    extraction; the extracted action must equal the original."""

    name = "lambda_sweep"

    def setup(self, small):
        catalog = [iv.base for iv in W.catalog_inverse_monoids(3 if small else 4)]

        def inverse(M):
            return W.inverse_structure(relabel(M, self.rng)).expect("inverse")

        return [(inverse(N), inverse(H)) for N in catalog for H in catalog]

    def run_pass(self, meter):
        items = failed = 0
        for N, H in self.pairs:
            actions = W.enumerate_inverse_actions(N, H)
            meter.tick()
            for action in actions:
                items += 1
                t0 = meter.start()
                try:
                    prod = W.lambda_product(action)
                    ok = W.find_retraction(prod.extension).ok
                    got = W.extract_waction(prod.extension, prod.retraction)
                    ok = ok and got.alpha.act == action.act
                except Exception:
                    _report("lambda %r" % (action.act,))
                    ok = False
                meter.stop(t0)
                failed += not ok
        return {"items": items}, failed


class WactRoundtrip(Sweep):
    """Every relation/action pair of the catalog within the bound: build,
    retract, extract, and rebuild; the round trip must be the identity up
    to equivalence."""

    name = "wact_roundtrip"

    def setup(self, small):
        catalog = W.catalog_monoids(3 if small else 4)
        return [
            (relabel(N, self.rng), relabel(H, self.rng))
            for N in catalog
            for H in catalog
            if N.size * H.size <= IN_BOUND
        ]

    def run_pass(self, meter):
        items = failed = 0
        for N, H in self.pairs:
            pairs = W.enumerate_wactions(N, H)
            meter.tick()
            for p in pairs:
                items += 1
                t0 = meter.start()
                try:
                    ext = W.build_extension(p)
                    r = W.find_retraction(ext)
                    back = W.extract_waction(ext, r.value)
                    ok = (
                        r.ok
                        and back.E.fibers == p.E.fibers
                        and W.actions_equivalent(p.E, p.alpha, back.alpha)
                        and W.extensions_equivalent(ext, W.build_extension(back))
                    )
                except Exception:
                    _report("wact %r %r" % (p.E.fibers, p.alpha.act))
                    ok = False
                meter.stop(t0)
                failed += not ok
        return {"pairs": len(self.pairs), "items": items}, failed


class GlueingJoin(Sweep):
    """Every meet-preserving map between catalog frames glues to its lambda
    product, and every glued pointwise meet is the least upper bound of the
    two factors among the enumerated pairs."""

    name = "glueing_join"

    def setup(self, small):
        frames = [
            M for M in W.commutative_idempotent_monoids(4 if small else 5) if W.check_frame(M).ok
        ]
        return [(relabel(H, self.rng), relabel(N, self.rng)) for H in frames for N in frames]

    def run_pass(self, meter):
        homs_seen = items = leastness = failed = 0
        for H, N in self.pairs:
            homs = W.all_homs(H, N)
            for f in homs:
                homs_seen += 1
                try:
                    ok = W.glueing_equals_lambda(f)
                except Exception:
                    _report("glueing %r" % (f.map,))
                    ok = False
                failed += not ok
                meter.tick()
            enum = W.enumerate_wactions(N, H) if N.size * H.size <= IN_BOUND else ()
            meter.tick()
            by_map = {}

            def wact(f):
                if f.map not in by_map:
                    by_map[f.map] = W.waction_of(W.artin_like_action(f))
                return by_map[f.map]

            for f in homs:
                for g in homs:
                    items += 1
                    t0 = meter.start()
                    try:
                        pf, pg = wact(f), wact(g)
                        pj = wact(W.glueing_join(f, g))
                        ok = W.waction_leq(pf, pj) and W.waction_leq(pg, pj)
                        for p in enum:
                            if W.waction_leq(pf, p) and W.waction_leq(pg, p):
                                ok = ok and W.waction_leq(pj, p)
                                leastness += 1
                    except Exception:
                        _report("join %r %r" % (f.map, g.map))
                        ok = False
                    meter.stop(t0)
                    failed += not ok
        return {"homs": homs_seen, "items": items, "leastness": leastness}, failed


SWEEPS = {cls.name: cls for cls in (LambdaSweep, WactRoundtrip, GlueingJoin)}
