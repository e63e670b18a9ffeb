import gc
import itertools
import random
import re
import time
import weakref

import pytest
from hypothesis import given, settings, strategies as st

import wschreier.monoid as monoid_mod
from conftest import fresh, naive_is_hom, naive_is_monoid, relabelled
from wschreier.catalog import (
    catalog_monoids,
    chain_lattice,
    cyclic_group,
    right_zero_adjoined,
    trivial_monoid,
)
from wschreier.lambda_product import artin_like_action
from wschreier.monoid import (
    Congruence,
    FiniteMonoid,
    FormatError,
    MonoidHom,
    PreconditionError,
    Violation,
    _decimal,
    are_isomorphic,
    canonical_form,
    center,
    check_hom,
    check_monoid,
    compose,
    congruence_closure,
    direct_product,
    idempotents,
    identity_hom,
    image,
    inverse_structure,
    is_cokernel,
    is_congruence,
    kernel,
    quotient,
    submonoid,
    zero_hom,
)


class TestCheckMonoid:
    def test_accepts_cyclic_group(self):
        verdict = check_monoid(((0, 1), (1, 0)), 0)
        assert verdict.ok
        assert verdict.value.size == 2

    def test_finds_identity_when_omitted(self):
        verdict = check_monoid(((1, 0), (0, 1)))
        assert verdict.ok
        assert verdict.value.identity == 1

    def test_rejects_wrong_identity(self):
        verdict = check_monoid(((0, 1), (1, 0)), 1)
        assert not verdict.ok
        assert verdict.violations[0].law == "identity"

    def test_rejects_non_associative(self):
        # (aa)b = 1*b = b but a(ab) = a*1 = a
        table = ((0, 1, 2), (1, 0, 0), (2, 0, 0))
        verdict = check_monoid(table, 0)
        assert not verdict.ok
        laws = {v.law for v in verdict.violations}
        assert "associativity" in laws

    def test_collects_all_violations(self):
        table = ((0, 1, 2), (1, 0, 2), (2, 2, 0))
        verdict = check_monoid(table, 0)
        assert not verdict.ok
        assert len(verdict.violations) > 1

    def test_rejects_ragged_table(self):
        with pytest.raises(FormatError):
            check_monoid(((0, 1), (1,)), 0)

    def test_rejects_out_of_range_entry(self):
        with pytest.raises(FormatError):
            check_monoid(((0, 1), (1, 7)), 0)

    def test_expect_raises_on_failure(self):
        verdict = check_monoid(((0, 1), (1, 0)), 1)
        with pytest.raises(PreconditionError):
            verdict.expect("demo")

    def test_agrees_with_naive_oracle_on_all_size3_tables(self):
        for flat in itertools.product(range(3), repeat=6):
            table = ((0, 1, 2), (1,) + flat[:2], (2,) + flat[2:4])
            table = (
                (0, 1, 2),
                (1, flat[0], flat[1]),
                (2, flat[2], flat[3]),
            )
            verdict = check_monoid(table, 0)
            assert verdict.ok == naive_is_monoid(table, 0)


class TestViolation:
    def test_str_names_the_law_then_its_witness(self):
        assert str(Violation("cokernel")) == "cokernel"
        assert str(Violation("associativity", (2, 3, 3))) == "associativity: 2 3 3"


class TestFiniteMonoid:
    def test_labels_do_not_affect_equality(self):
        a = FiniteMonoid(2, 0, ((0, 1), (1, 1)), ("1", "e"))
        b = FiniteMonoid(2, 0, ((0, 1), (1, 1)), ("top", "bot"))
        assert a == b
        assert hash(a) == hash(b)

    def test_mul_and_label(self, sl3):
        assert sl3.mul(1, 2) == 2
        assert sl3.label(0) == "1"
        assert sl3.label(2) == "0"

    def test_shape_validation(self):
        with pytest.raises(FormatError):
            FiniteMonoid(2, 5, ((0, 1), (1, 0)), None)

    @pytest.mark.parametrize("bad", [1.0, "1", True, -1, 2])
    def test_identity_must_be_a_plain_int_in_range(self, bad):
        # an equal float or bool is no index, as for a cell of the table
        table = ((0, 0), (0, 1))
        message = "^identity index %s out of range$" % re.escape(repr(bad))
        with pytest.raises(FormatError, match=message):
            FiniteMonoid(2, bad, table)
        with pytest.raises(FormatError, match=message):
            check_monoid(table, bad)
        assert type(FiniteMonoid(2, 1, table).identity) is int

    @pytest.mark.parametrize("size", [0, 1, 3, 5])
    def test_size_must_match_the_table(self, size):
        with pytest.raises(FormatError, match="size %d does not match the 2 rows" % size):
            FiniteMonoid(size, 0, ((0, 1), (1, 1)))
        assert FiniteMonoid(2, 0, ((0, 1), (1, 1))).size == 2
        assert type(FiniteMonoid(2.0, 0, ((0, 1), (1, 1))).size) is int


class TestInverseStructure:
    def test_group_inverse(self):
        c3 = cyclic_group(3)
        verdict = inverse_structure(c3)
        assert verdict.ok
        assert verdict.value.inv == (0, 2, 1)

    def test_semilattice_is_self_inverse(self, sl3):
        verdict = inverse_structure(sl3)
        assert verdict.ok
        assert verdict.value.inv == (0, 1, 2)

    def test_right_zero_monoid_is_not_inverse(self):
        rz = right_zero_adjoined(2)
        verdict = inverse_structure(rz)
        assert not verdict.ok
        laws = {v.law for v in verdict.violations}
        assert laws & {"unique-inverse", "idempotents-commute"}

    def test_agrees_with_commuting_idempotents_criterion(self):
        # inverse <=> every element regular and idempotents commute
        for M in catalog_monoids(4):
            t = M.table
            regular = all(
                any(
                    t[t[a][b]][a] == a and t[t[b][a]][b] == b
                    for b in M.elements
                )
                for a in M.elements
            )
            idem = idempotents(M)
            commuting = all(t[e][f] == t[f][e] for e in idem for f in idem)
            assert inverse_structure(M).ok == (regular and commuting)

    def test_inv_of(self):
        c3 = cyclic_group(3)
        inv = inverse_structure(c3).value
        assert inv.inv_of(1) == 2


class TestInverseOnce:
    def test_inverse_table_derived_once_per_instance(self, monkeypatch):
        real, calls = monoid_mod._inverse_laws, []
        monkeypatch.setattr(monoid_mod, "_inverse_laws", lambda M: calls.append(M) or real(M))
        M = fresh(cyclic_group(3))
        for _ in range(3):
            assert inverse_structure(M).value.inv == (0, 2, 1)
        f = identity_hom(fresh(chain_lattice(3)))
        for _ in range(3):
            artin_like_action(f)
        assert len(calls) == 2
        assert inverse_structure(fresh(M)).ok
        assert len(calls) == 3

    def test_each_verdict_matches_a_fresh_instance(self):
        for M in catalog_monoids(3):
            first, second = inverse_structure(M), inverse_structure(M)
            assert first == second == inverse_structure(fresh(M))
            assert first is not second
            if first.ok:
                assert first.value is not second.value
                assert second.value.base is M

    def test_failing_monoid_reports_its_violations_on_every_call(self):
        M = fresh(right_zero_adjoined(2))
        want = inverse_structure(fresh(M)).violations
        for _ in range(3):
            verdict = inverse_structure(M)
            assert not verdict.ok and verdict.violations == want
            with pytest.raises(PreconditionError, match="unique-inverse"):
                verdict.expect()

    def test_keep_is_invisible_and_makes_no_reference_cycle(self):
        M = fresh(cyclic_group(3))
        before = (hash(M), repr(M))
        inverse_structure(M)
        assert M == fresh(M) and fresh(M) == M
        assert (hash(M), repr(M)) == before
        gc.collect()
        gc.disable()
        try:
            ref = weakref.ref(M)
            del M
            assert ref() is None
        finally:
            gc.enable()


class TestHoms:
    def test_identity_and_zero(self, sl3):
        assert check_hom(sl3, sl3, identity_hom(sl3).map).ok
        z = zero_hom(sl3, sl3)
        assert z.map == (0, 0, 0)
        assert check_hom(sl3, sl3, z.map).ok

    def test_rejects_non_hom(self, sl3):
        # f(a*0) = f(0) = a but f(a)f(0) = a*0 = 0
        verdict = check_hom(sl3, sl3, (0, 1, 0))
        assert not verdict.ok

    def test_wrong_shape_map_is_a_format_error(self, sl2, sl3):
        with pytest.raises(FormatError):
            check_hom(sl2, sl3, (0, 0, 1))

    def test_non_multiplicative_witness(self, c2, sl2):
        # sending the generator of C2 to bottom is not multiplicative
        verdict = check_hom(c2, sl2, (0, 1))
        assert not verdict.ok
        assert verdict.violations[0].law == "hom-mul"

    def test_compose(self, sl2, sl3):
        f = MonoidHom(sl2, sl3, (0, 1))
        g = MonoidHom(sl3, sl3, (0, 2, 2))
        gf = compose(f, g)
        assert gf.map == (0, 2)
        assert gf.source is sl2 and gf.target is sl3

    def test_map_shape_validated(self, sl2, sl3):
        with pytest.raises(FormatError):
            MonoidHom(sl2, sl3, (0, 9))

    def test_exhaustive_hom_check_agrees_with_naive(self, sl3, c2):
        for source, target in ((sl3, sl3), (c2, sl3), (sl3, c2)):
            for map_ in itertools.product(target.elements, repeat=source.size):
                assert check_hom(source, target, map_).ok == naive_is_hom(
                    source, target, map_
                )


class TestClauseWitnesses:
    # Inputs that break one clause of check_monoid, check_hom or
    # inverse_structure and no other, each with the checker's witnesses.
    # broken_* states every clause on its own over all of its instances.
    MONOIDS = [
        ("identity", ((0, 0), (0, 0)), [(1,)]),
        ("associativity", ((0, 1, 2), (1, 0, 1), (2, 1, 0)), [(1, 1, 2), (2, 1, 1)]),
    ]
    HOMS = [("hom-identity", (1, 1), (0,)), ("hom-mul", (0, 1), (1, 1))]

    @staticmethod
    def broken_monoid(t, e):
        xs = range(len(t))
        holds = {
            "identity": all(t[e][a] == a == t[a][e] for a in xs),
            "associativity": all(t[t[a][b]][c] == t[a][t[b][c]] for a in xs for b in xs for c in xs),
        }
        return {law for law, ok in holds.items() if not ok}

    @staticmethod
    def broken_inverse(M):
        t, xs = M.table, M.elements
        inverses = [[b for b in xs if t[t[a][b]][a] == a and t[t[b][a]][b] == b] for a in xs]
        idem = idempotents(M)
        holds = {
            "regular": all(inverses),
            "unique-inverse": all(len(bs) <= 1 for bs in inverses),
            "idempotents-commute": all(t[e][f] == t[f][e] for e in idem for f in idem),
        }
        return {law for law, ok in holds.items() if not ok}

    @pytest.mark.parametrize("law, table, witnesses", MONOIDS, ids=[c[0] for c in MONOIDS])
    def test_monoid_clause_fails_alone(self, law, table, witnesses):
        assert self.broken_monoid(table, 0) == {law}
        assert check_monoid(table, 0).violations == tuple(Violation(law, w) for w in witnesses)

    @pytest.mark.parametrize("law, map_, witness", HOMS, ids=[c[0] for c in HOMS])
    def test_hom_clause_fails_alone(self, c2, sl2, law, map_, witness):
        identity_ok = map_[c2.identity] == sl2.identity
        mul_ok = all(map_[c2.mul(a, b)] == sl2.mul(map_[a], map_[b])
                     for a in c2.elements for b in c2.elements)
        assert (identity_ok, mul_ok) == (law != "hom-identity", law != "hom-mul")
        assert check_hom(c2, sl2, map_).violations == (Violation(law, witness),)

    def test_regular_fails_alone(self):
        M = FiniteMonoid(3, 0, ((0, 1, 2), (1, 2, 2), (2, 2, 2)))
        assert self.broken_inverse(M) == {"regular"}
        assert inverse_structure(M).violations == (Violation("regular", (1,)),)

    def test_unique_inverse_never_fails_alone(self):
        # commuting idempotents force unique inverses (see _inverse_laws)
        for M in catalog_monoids(4):
            broken = self.broken_inverse(M)
            assert "unique-inverse" not in broken or "idempotents-commute" in broken
            assert {v.law for v in inverse_structure(M).violations} == broken


class TestCongruence:
    def test_closure_of_nothing_is_discrete(self, sl3):
        c = congruence_closure(sl3, [])
        assert c.num_classes == 3

    def test_closure_propagates_translations(self, sl3):
        # identifying 1 with a forces nothing else in a chain
        c = congruence_closure(sl3, [(0, 1)])
        assert c.related(0, 1)
        assert not c.related(0, 2)

    def test_is_congruence_rejects_unstable_partition(self, sl3):
        # {1, 0} | {a} is not multiplication stable: 1*a=a but 0*a=0
        assert not is_congruence(sl3, (0, 1, 0))

    def test_is_congruence_rejects_a_class_list_of_the_wrong_length(self, sl3):
        assert is_congruence(sl3, (0, 0)) is False
        assert is_congruence(sl3, (0, 0, 0, 0)) is False

    def test_quotient_collapses_classes(self, sl3):
        c = congruence_closure(sl3, [(1, 2)])
        Q, proj = quotient(sl3, c)
        assert Q.size == 2
        assert check_monoid(Q.table, Q.identity).ok
        assert check_hom(sl3, Q, proj.map).ok

    def test_quotient_requires_congruence(self, sl3):
        with pytest.raises(PreconditionError):
            quotient(sl3, Congruence(sl3, (0, 1, 0)))

    def test_closure_is_smallest(self, sl3):
        # every congruence containing the generators contains the closure
        gen = [(1, 2)]
        closed = congruence_closure(sl3, gen)
        for ids in itertools.product(range(3), repeat=3):
            if not is_congruence(sl3, ids):
                continue
            if any(ids[a] != ids[b] for a, b in gen):
                continue
            for x in sl3.elements:
                for y in sl3.elements:
                    if closed.related(x, y):
                        assert ids[x] == ids[y]


    @pytest.mark.parametrize(
        "pair, message",
        [
            ((1.7, 0), "congruence generator (1.7,0) out of range"),
            (("2", 0), "congruence generator ('2',0) out of range"),
            ((True, 0), "congruence generator (True,0) out of range"),
            (("x", 0), "congruence generator ('x',0) out of range"),
            ((0, 3), "congruence generator (0,3) out of range"),
            ((0,), "congruence generator (0,) is not a pair"),
            (7, "congruence generator 7 is not a pair"),
        ],
    )
    def test_closure_generators_are_cells(self, sl3, pair, message):
        with pytest.raises(FormatError, match="^%s$" % re.escape(message)):
            congruence_closure(sl3, [(0, 0), pair])

    @pytest.mark.parametrize(
        "ids, bad",
        [
            ((None, [], 2), None),
            ((0.5, 0.5, 2), 0.5),
            ((0, 1.5, 2), 1.5),
            ((0, True, 2), True),
            (("0", 1, 2), "0"),
        ],
    )
    def test_class_ids_are_plain_ints(self, ids, bad):
        # no range bound: any plain ints name the classes
        M = chain_lattice(3)
        message = "^class id %s is not a plain int$" % re.escape(repr(bad))
        with pytest.raises(FormatError, match=message):
            Congruence(M, ids)
        with pytest.raises(FormatError, match=message):
            is_congruence(M, ids)
        assert Congruence(M, (7, -3, 7)).class_id == (0, 1, 0)


class TestSubKernelCokernel:
    def test_submonoid_of_chain(self, sl3):
        S, emb = submonoid(sl3, [0, 2])
        assert S.size == 2
        assert check_hom(S, sl3, emb.map).ok

    @pytest.mark.parametrize("bad", [2.0, True, "2", -1, 3])
    def test_submonoid_elements_are_cells(self, sl3, bad):
        message = "^subset element %s out of range$" % re.escape(repr(bad))
        with pytest.raises(FormatError, match=message):
            submonoid(sl3, [0, 2, bad])

    def test_submonoid_requires_closure(self):
        with pytest.raises(FormatError):
            submonoid(cyclic_group(3), [0, 1])  # g*g escapes
        with pytest.raises(FormatError):
            submonoid(right_zero_adjoined(2), [1, 2])  # missing identity

    def test_kernel_of_projection(self, sl2):
        P = direct_product(sl2, sl2)
        e = MonoidHom(P, sl2, tuple(b for a in sl2.elements for b in sl2.elements))
        K, emb = kernel(e)
        assert K.size == 2
        assert image(e) == (0, 1)

    def test_cokernel_recognised(self, sl2):
        P = direct_product(sl2, sl2)
        e = MonoidHom(P, sl2, tuple(b for a in sl2.elements for b in sl2.elements))
        k = MonoidHom(sl2, P, tuple(a * sl2.size for a in sl2.elements))
        assert is_cokernel(k, e)

    def test_cokernel_rejects_non_surjective(self, sl2, sl3):
        k = MonoidHom(trivial_monoid(), sl3, (0,))
        e = MonoidHom(sl3, sl3, (0, 0, 0))
        assert not is_cokernel(k, e)


class TestCellSearch:
    """_cell_search against a brute force over every assignment: the same
    fillings in the same order."""

    @staticmethod
    def brute_force(rows, cells, values, check):
        """Every assignment, in lexicographic order, whose prefixes all pass."""
        for vs in itertools.product(*values):
            for k, (cell, v) in enumerate(zip(cells, vs)):
                for r, c in cell:
                    rows[r][c] = v
                if not check(k, v):
                    break
            else:
                yield tuple(map(tuple, rows))

    @staticmethod
    def run(search, shape, cells, values, refuse_at):
        rows = [list(row) for row in shape]

        def check(k, v):
            # reads every cell up to k, so the verdict depends on earlier cells
            seen = tuple(rows[r][c] for cell in cells[:k + 1] for r, c in cell)
            return k != refuse_at and hash((k, v) + seen) % 3 != 0

        return list(search(rows, cells, values, check))

    @staticmethod
    def problem(rng):
        height, width = rng.randint(1, 3), rng.randint(1, 3)
        positions = [(r, c) for r in range(height) for c in range(width)]
        rng.shuffle(positions)
        del positions[rng.randint(0, len(positions)):]  # the rest stay fixed
        cells = []
        while positions:  # cells of one position, or two as in lattice tables
            take = rng.choice((1, 2))
            cells.append(tuple(positions[:take]))
            del positions[:take]
        values = [sorted(rng.sample(range(4), rng.randint(0, 3))) for _ in cells]
        shape = [[rng.randrange(4) for _ in range(width)] for _ in range(height)]
        refuse_at = rng.choice([-1] * 4 + [0] + list(range(len(cells))))
        return shape, cells, values, refuse_at

    def test_matches_brute_force_on_seeded_problems(self):
        rng = random.Random(20201021)
        shapes = {"no cells": 0, "two positions": 0, "empty range": 0, "refused at 0": 0}
        for _ in range(400):
            shape, cells, values, refuse_at = self.problem(rng)
            new = self.run(monoid_mod._cell_search, shape, cells, values, refuse_at)
            ref = self.run(self.brute_force, shape, cells, values, refuse_at)
            assert new == ref
            shapes["no cells"] += not cells
            shapes["two positions"] += any(len(cell) == 2 for cell in cells)
            shapes["empty range"] += any(not v for v in values)
            shapes["refused at 0"] += refuse_at == 0 and bool(cells)
        assert min(shapes.values()) > 0, shapes

    def test_first_of_a_billion_fillings_is_lazy(self):
        # 9 cells of 10 values each: 10 ** 9 fillings, every check passes
        calls = []
        rows = [[0] * 9]
        search = monoid_mod._cell_search(
            rows, [((0, c),) for c in range(9)], [range(10)] * 9,
            lambda k, v: calls.append(k) is None)
        assert calls == []
        assert next(search) == ((0,) * 9,)
        assert calls == list(range(9))
        assert next(search) == ((0,) * 8 + (1,),)
        assert calls == list(range(9)) + [8]


class TestIsomorphism:
    def test_relabelled_copy_is_isomorphic(self, sl3):
        # conjugate the chain by the permutation swapping a and 0
        perm = (0, 2, 1)
        inv = (0, 2, 1)
        table = tuple(
            tuple(perm[sl3.table[inv[a]][inv[b]]] for b in range(3))
            for a in range(3)
        )
        M = FiniteMonoid(3, 0, table, None)
        assert are_isomorphic(sl3, M)
        assert canonical_form(sl3) == canonical_form(M)

    def test_different_sizes_are_not_isomorphic(self, sl3):
        assert are_isomorphic(sl3, chain_lattice(4)) is False
        assert are_isomorphic(chain_lattice(4), sl3) is False

    def test_distinguishes_chain_from_group(self, sl3):
        assert not are_isomorphic(sl3, cyclic_group(3))
        assert canonical_form(sl3) != canonical_form(cyclic_group(3))

    def test_agrees_with_canonical_form(self):
        rng = random.Random(20200510)
        catalog = catalog_monoids(4)
        # a relabelled copy of each member makes every isomorphic pair a
        # pair of different tables
        relabels = [relabelled(M, rng) for M in catalog]
        forms = {M: canonical_form(M) for M in catalog + tuple(relabels)}
        for A in catalog:
            for B in relabels:
                if A.size == B.size:
                    assert are_isomorphic(A, B) == (forms[A] == forms[B])

    def test_right_zero_adjoined_is_fast(self):
        # every non-identity element is a generator with the same
        # fingerprint and every map is a hom, so a search that kept
        # non-injective maps would visit about k^(k-2) of them first
        rng = random.Random(7)
        M = right_zero_adjoined(10)
        start = time.perf_counter()
        assert are_isomorphic(M, M)
        assert are_isomorphic(M, relabelled(M, rng))
        assert not are_isomorphic(M, chain_lattice(11))
        assert time.perf_counter() - start < 0.5

    def test_catalog_members_pairwise_distinct(self):
        forms = [canonical_form(M) for M in catalog_monoids(3) if M.size == 3]
        assert len(forms) == len(set(forms))

    def test_canonical_form_is_realisable(self, sl3):
        size, table = canonical_form(sl3)
        assert size == 3
        assert check_monoid(table, 0).ok


class TestCenterIdempotents:
    def test_chain_is_all_central_idempotent(self, sl3):
        assert idempotents(sl3) == (0, 1, 2)
        assert center(sl3) == (0, 1, 2)

    def test_right_zero_center_is_identity_only(self):
        rz = right_zero_adjoined(2)
        assert center(rz) == (0,)
        assert idempotents(rz) == (0, 1, 2)


@st.composite
def catalog_monoid(draw):
    return draw(st.sampled_from(catalog_monoids(4)))


class TestProperties:
    @given(catalog_monoid(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_congruence_closure_is_idempotent(self, M, data):
        pairs = data.draw(
            st.lists(
                st.tuples(
                    st.integers(0, M.size - 1), st.integers(0, M.size - 1)
                ),
                max_size=3,
            )
        )
        c = congruence_closure(M, pairs)
        again = congruence_closure(
            M,
            [
                (a, b)
                for a in M.elements
                for b in M.elements
                if c.related(a, b)
            ],
        )
        assert again.class_id == c.class_id
        assert is_congruence(M, c.class_id)

    @given(catalog_monoid(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_canonical_form_invariant_under_relabelling(self, M, data):
        perm = data.draw(st.permutations(list(M.elements)))
        inv = [0] * M.size
        for i, p in enumerate(perm):
            inv[p] = i
        table = tuple(
            tuple(perm[M.table[inv[a]][inv[b]]] for b in M.elements)
            for a in M.elements
        )
        relabelled = FiniteMonoid(M.size, perm[M.identity], table, None)
        assert canonical_form(relabelled) == canonical_form(M)
        assert are_isomorphic(M, relabelled)

    @given(catalog_monoid())
    @settings(max_examples=40, deadline=None)
    def test_quotient_projection_is_cokernel_of_kernel(self, M):
        c = congruence_closure(M, [(M.identity, M.size - 1)])
        Q, proj = quotient(M, c)
        K, emb = kernel(proj)
        assert is_cokernel(emb, proj)


class TestShapeErrors:
    # Shape errors that no other in-process test reaches, each a FormatError
    # with its exact message.
    CASES = [
        pytest.param(
            lambda: FiniteMonoid(2, 0, ((0, 1), (1, 1)), ("1",)),
            "expected 2 labels, got 1",
            id="labels",
        ),
        pytest.param(
            lambda: compose(identity_hom(chain_lattice(2)), identity_hom(chain_lattice(3))),
            "composite of non-composable homs",
            id="compose",
        ),
        pytest.param(
            lambda: Congruence(chain_lattice(3), (0, 0)),
            "congruence over wrong carrier size",
            id="congruence-size",
        ),
        pytest.param(
            lambda: quotient(chain_lattice(3), Congruence(chain_lattice(2), (0, 1))),
            "congruence belongs to a different monoid",
            id="quotient",
        ),
        pytest.param(
            lambda: is_cokernel(identity_hom(chain_lattice(2)), identity_hom(chain_lattice(3))),
            "k and e are not composable",
            id="cokernel",
        ),
    ]

    @pytest.mark.parametrize("call, message", CASES)
    def test_message(self, call, message):
        with pytest.raises(FormatError) as info:
            call()
        assert type(info.value) is FormatError
        assert str(info.value) == message


class TestDecimal:
    # the BoundExceeded messages print a count this way
    def test_a_printable_count_is_its_decimal(self):
        assert _decimal(7 ** 2000) == "%d" % 7 ** 2000

    def test_a_count_too_long_to_print_is_a_power_of_ten(self):
        assert _decimal(10 ** 5000) == "10^5000"
