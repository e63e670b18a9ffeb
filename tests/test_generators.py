"""The law checks that run on the generators k(N) ∪ s(H) of a weakly
Schreier extension, against the full checks.

When every carrier pair (n, h) of a built table is k(n) * s(h), the
extension builder checks associativity only at middles in k(N) ∪ s(H);
verify_split_extension checks e's product law only for left factors in
them once its factor table covers G; and a glued frame is checked for
idempotence and commutativity on them and for distributivity with the
outer element in them (the closure lemma is in monoid.check_monoid).  Any
violation reruns the full check.  So every outcome must be the full one:
the same verdict, the same first witness and the same ConsistencyError
text as with reference_check_monoid, _hom_laws without generators and
_frame_laws without generators.

The inputs are the 155 λ-products over catalog_inverse_monoids(3), every
glueing between the frames of commutative_idempotent_monoids(4), and
seeded one-cell mutants of each table and e map.  One more mutant per
table moves a cell k(n) * s(h), which breaks the factorisation, so the
builder falls back to the full associativity check.
"""

import random
from collections import Counter

import pytest

from conftest import (
    factor_cell_mutant,
    full_path_outcome,
    one_cell_mutant,
    outcome,
    reference_check_monoid,
    reference_verify_split_extension,
)
from wschreier.catalog import (
    all_homs,
    all_monoid_tables,
    catalog_inverse_monoids,
    chain_lattice,
    commutative_idempotent_monoids,
)
from wschreier.extension import SplitExtension, _extension_on_carrier, verify_split_extension
from wschreier.frames import _frame_laws, _glueing_parts, artin_glueing, check_frame
from wschreier.lambda_product import enumerate_inverse_actions, lambda_product
from wschreier.monoid import (
    ConsistencyError,
    FiniteMonoid,
    MonoidHom,
    check_monoid,
    generating_plan,
)

SEED = 16
MUTANTS = 3


def generators(ext) -> set:
    return set(ext.k.map).union(ext.s.map)


@pytest.fixture(scope="module")
def built():
    """(what, carrier, extension) of every λ-product over
    catalog_inverse_monoids(3) and every glueing between the frames of
    commutative_idempotent_monoids(4)."""
    inverse = catalog_inverse_monoids(3)
    out = []
    for N in inverse:
        for H in inverse:
            for a in enumerate_inverse_actions(N, H):
                lam = lambda_product(a)
                out.append(("lambda product", lam.carrier, lam.extension))
    assert len(out) == 155
    frames = [M for M in commutative_idempotent_monoids(4) if check_frame(M).ok]
    for H in frames:
        for N in frames:
            for f in all_homs(H, N):
                out.append(("glueing", _glueing_parts(f)[0], artin_glueing(f)[1]))
    return out


class TestBuilder:
    def test_built_tables_and_mutants_match_the_full_checks(self, built):
        rng = random.Random(SEED)
        paths = Counter()
        for what, carrier, ext in built:
            G = ext.G
            tables = [G.table] + [one_cell_mutant(G.table, rng) for _ in range(MUTANTS)]
            if G.size > 1:
                tables.append(factor_cell_mutant(carrier, ext, rng))
            s = [carrier[g] for g in ext.s.map]
            for table in tables:
                products = [[carrier[x] for x in row] for row in table]
                args = (ext.N, ext.H, carrier, products, s, what)
                got = outcome(_extension_on_carrier, *args)
                assert got == full_path_outcome(_extension_on_carrier, *args), (what, table)
                factored = all(
                    table[ext.k.map[n]][ext.s.map[h]] == g for g, (n, h) in enumerate(carrier)
                )
                monoid = reference_check_monoid(table, G.identity).ok
                paths[factored, monoid, got[0] == "ConsistencyError"] += 1
        # the fallback for an unfactored table, a rerun after a failing
        # generator check, and tables that pass
        assert paths[False, False, True] > 0
        assert paths[True, False, True] > 0
        assert paths[True, True, False] > 0

    def test_unfactored_table_is_checked_in_full(self):
        """k(N) ∪ s(H) = {0, 1, 2} is closed here, and every associativity
        failure has the pair 3 = (1, 1) as its middle: only the
        factorisation check sends this table to the full check."""
        N = H = chain_lattice(2)
        carrier = [(n, h) for h in H.elements for n in N.elements]
        table = ((0, 1, 2, 3), (1, 1, 1, 1), (2, 1, 2, 1), (3, 1, 1, 0))
        assert check_monoid(table, 0, _middles={0, 1, 2}).ok
        assert not reference_check_monoid(table, 0).ok
        products = [[carrier[x] for x in row] for row in table]
        with pytest.raises(ConsistencyError, match=r"^x fails monoid laws: associativity: 2 3 3$"):
            _extension_on_carrier(N, H, carrier, products, [carrier[0], carrier[2]], "x")


class TestSplitExtension:
    def test_e_mutants_match_the_full_hom_check(self, built):
        rng = random.Random(SEED)
        laws = Counter()
        for _, _, ext in built:
            for _ in range(MUTANTS):
                e = one_cell_mutant((ext.e.map,), rng, ext.H.size)[0]
                bad = SplitExtension(ext.N, ext.G, ext.H, ext.k, MonoidHom(ext.G, ext.H, e), ext.s)
                assert len(set().union(*bad.ks)) == bad.G.size
                got = verify_split_extension(bad)
                assert got == reference_verify_split_extension(bad)
                laws[got.violations[0].law if got.violations else "ok"] += 1
        assert laws["e-hom-mul"] > 0 and laws["e-hom-identity"] > 0


class TestFrames:
    def test_glued_frames_on_their_generators(self, built):
        glued = [ext for what, _, ext in built if what == "glueing"]
        assert len(glued) > 0
        for ext in glued:
            assert _frame_laws(ext.G, generators(ext)) == _frame_laws(ext.G)

    def test_generating_sets_name_the_full_first_violation(self):
        """Every monoid table on at most 5 elements with identity 0, checked
        on its generating plan, its identity and one more element, taken in
        a seeded order that is not the order of the full check."""
        rng = random.Random(SEED)
        laws = Counter()
        for n in range(1, 6):
            for table in all_monoid_tables(n):
                M = FiniteMonoid(n, 0, table)
                gens = list(set(generating_plan(M)[0]) | {0, rng.randrange(n)})
                rng.shuffle(gens)
                got = _frame_laws(M, gens)
                assert got == _frame_laws(M), (table, gens)
                laws["ok" if got is None else got.law] += 1
        assert all(laws[law] > 0 for law in ("idempotent", "commutative", "distributive", "ok"))
