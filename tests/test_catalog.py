import random
from collections import Counter

import pytest

from conftest import (
    reference_all_homs,
    reference_lattice_tables,
    reference_monoid_tables,
    relabelled,
)
from wschreier.catalog import (
    _associative_tables,
    all_homs,
    all_monoid_tables,
    catalog_inverse_monoids,
    catalog_monoids,
    central_idempotent_homs,
    chain_lattice,
    commutative_idempotent_monoids,
    cyclic_group,
    diamond_lattice,
    m3_lattice,
    right_zero_adjoined,
    trivial_monoid,
)
from wschreier.frames import check_frame
from wschreier.monoid import (
    PreconditionError,
    canonical_form,
    center,
    check_hom,
    check_monoid,
    idempotents,
    inverse_structure,
)

# Golden counts, frozen after cross-checking against published enumerations
# of monoids of order n up to isomorphism (1, 2, 7, 35 for n = 1..4) and of
# lattices of order n (1, 1, 1, 2, 5 for n = 1..5).
MONOID_COUNTS = {1: 1, 2: 2, 3: 7, 4: 35}
INVERSE_COUNTS = {1: 1, 2: 2, 3: 4, 4: 11}
COMM_IDEM_COUNTS = {1: 1, 2: 1, 3: 1, 4: 2, 5: 5}


class TestFixtures:
    def test_trivial(self):
        t = trivial_monoid()
        assert t.size == 1 and t.identity == 0

    def test_cyclic_group(self):
        c4 = cyclic_group(4)
        assert check_monoid(c4.table, 0).ok
        assert c4.mul(3, 2) == 1

    def test_chain_lattice(self):
        sl3 = chain_lattice(3)
        assert check_monoid(sl3.table, 0).ok
        assert sl3.mul(1, 2) == 2  # a * 0 = 0
        assert [sl3.label(i) for i in sl3.elements] == ["1", "a", "0"]

    def test_diamond_and_m3_are_monoids(self):
        for M in (diamond_lattice(), m3_lattice()):
            assert check_monoid(M.table, M.identity).ok
            assert idempotents(M) == tuple(M.elements)

    def test_right_zero_adjoined(self):
        rz = right_zero_adjoined(2)
        assert check_monoid(rz.table, 0).ok
        assert rz.mul(1, 2) == 2 and rz.mul(2, 1) == 1
        assert not inverse_structure(rz).ok


class TestCatalog:
    def test_monoid_counts(self):
        counts = Counter(M.size for M in catalog_monoids(4))
        assert dict(counts) == MONOID_COUNTS

    def test_all_entries_are_monoids_with_identity_zero(self):
        for M in catalog_monoids(4):
            assert M.identity == 0
            assert check_monoid(M.table, 0).ok

    def test_pairwise_non_isomorphic(self):
        forms = [canonical_form(M) for M in catalog_monoids(4)]
        assert len(forms) == len(set(forms))

    def test_inverse_counts(self):
        counts = Counter(iv.base.size for iv in catalog_inverse_monoids(4))
        assert dict(counts) == INVERSE_COUNTS

    def test_inverse_catalog_is_the_inverse_filter(self):
        expected = [M for M in catalog_monoids(4) if inverse_structure(M).ok]
        assert [iv.base for iv in catalog_inverse_monoids(4)] == expected
        for iv in catalog_inverse_monoids(4):
            assert inverse_structure(iv.base).value.inv == iv.inv

    def test_commutative_idempotent_counts(self):
        counts = Counter(M.size for M in commutative_idempotent_monoids(5))
        assert dict(counts) == COMM_IDEM_COUNTS

    def test_commutative_idempotent_entries(self):
        for M in commutative_idempotent_monoids(5):
            t = M.table
            assert all(t[a][a] == a for a in M.elements)
            assert all(t[a][b] == t[b][a] for a in M.elements for b in M.elements)
            assert check_monoid(t, M.identity).ok

    def test_commutative_idempotent_pairwise_non_isomorphic(self):
        forms = [canonical_form(M) for M in commutative_idempotent_monoids(5)]
        assert len(forms) == len(set(forms))

    def test_small_commutative_idempotent_agree_with_catalog(self):
        # sizes <= 4 must match the commutative idempotent slice of the
        # full catalog up to isomorphism
        slice_forms = {
            canonical_form(M)
            for M in catalog_monoids(4)
            if all(M.table[a][a] == a for a in M.elements)
            and all(
                M.table[a][b] == M.table[b][a]
                for a in M.elements
                for b in M.elements
            )
        }
        built_forms = {
            canonical_form(M)
            for M in commutative_idempotent_monoids(4)
        }
        assert built_forms == slice_forms

    def test_size_bound_enforced(self):
        with pytest.raises(PreconditionError):
            catalog_monoids(5)

    @pytest.mark.parametrize(
        "lattice,reference,n",
        [(False, reference_monoid_tables, n) for n in range(1, 5)]
        + [(True, reference_lattice_tables, n) for n in range(1, 6)],
    )
    def test_tables_match_reference(self, lattice, reference, n):
        tables = _associative_tables(n, True) if lattice else all_monoid_tables(n)
        assert list(tables) == list(reference(n))

    @pytest.mark.parametrize("n", [0, -1])
    def test_no_tables_below_size_one(self, n):
        assert list(all_monoid_tables(n)) == []
        assert catalog_monoids(n) == () == commutative_idempotent_monoids(n)


class TestHomSearch:
    def test_homs_between_chains(self):
        sl2, sl3 = chain_lattice(2), chain_lattice(3)
        homs = all_homs(sl2, sl3)
        assert [f.map for f in homs] == [(0, 0), (0, 1), (0, 2)]
        for f in homs:
            assert check_hom(sl2, sl3, f.map).ok

    def test_homs_are_exhaustive(self):
        sl3 = chain_lattice(3)
        import itertools

        expected = [
            m
            for m in itertools.product(sl3.elements, repeat=3)
            if check_hom(sl3, sl3, m).ok
        ]
        assert [f.map for f in all_homs(sl3, sl3)] == expected

    def test_homs_match_reference(self):
        # the size-5 commutative idempotent monoids complete the catalog; the
        # smaller ones are in it up to isomorphism already
        rng = random.Random(20200508)
        monoids = catalog_monoids(4) + tuple(
            M for M in commutative_idempotent_monoids(5) if M.size == 5
        )
        relabels = [relabelled(M, rng) for M in monoids]
        for i, A in enumerate(monoids):
            for j, B in enumerate(monoids):
                if A.size * B.size > 16:
                    continue
                assert all_homs(A, B) == reference_all_homs(A, B)
                A2, B2 = relabels[i], relabels[j]
                assert all_homs(A2, B2) == reference_all_homs(A2, B2)

    def test_homs_match_reference_on_frame_pairs(self):
        rng = random.Random(20200509)
        frames = [M for M in commutative_idempotent_monoids(5) if check_frame(M).ok]
        frames += [relabelled(M, rng) for M in frames]
        for A in frames:
            for B in frames:
                assert all_homs(A, B) == reference_all_homs(A, B)

    def test_central_idempotent_homs_into_chain(self):
        sl2, sl3 = chain_lattice(2), chain_lattice(3)
        maps = [f.map for f in central_idempotent_homs(sl2, sl3)]
        assert maps == [(0, 0), (0, 1), (0, 2)]

    def test_central_idempotent_homs_exclude_non_central(self):
        sl2 = chain_lattice(2)
        rz = right_zero_adjoined(2)
        # a and b are idempotent but not central, so only the zero map stays
        maps = [f.map for f in central_idempotent_homs(sl2, rz)]
        assert maps == [(0, 0)]
        assert set(idempotents(rz)) - set(center(rz)) == {1, 2}
