import gc
import itertools
import math
import random
import re
from operator import itemgetter

import pytest
from hypothesis import given, settings, strategies as st

import conftest
from conftest import (
    blocks_to_classes,
    fresh,
    naive_admissible,
    naive_compatible,
    naive_wschreier_pairs,
    normalize_classes,
    reference_admissible_relations,
    reference_compatible_actions,
    reference_build_extension,
    reference_waction_leq,
    reference_wactions,
    relabelled,
    relabelled_pair,
    set_partitions,
)
from wschreier.catalog import (
    catalog_inverse_monoids,
    catalog_monoids,
    central_idempotent_homs,
    chain_lattice,
    cyclic_group,
    diamond_lattice,
)
from wschreier.extension import (
    direct_product_extension,
    extension_morphism,
    extensions_equivalent,
    find_retraction,
    verify_split_extension,
)
from wschreier.lambda_product import artin_like_action, join_hom, waction_of
from wschreier import waction as waction_mod
from wschreier.monoid import (
    BoundExceeded,
    ConsistencyError,
    FiniteMonoid,
    FormatError,
    PreconditionError,
    Verdict,
    Violation,
)
from wschreier.waction import (
    DEFAULT_BOUND,
    ActionTable,
    AdmissibleRelation,
    WActPair,
    _order_key,
    action_signature,
    actions_equivalent,
    admissible_relations,
    build_extension,
    check_admissible,
    check_compatible_action,
    compatible_actions,
    enumerate_wactions,
    extract_waction,
    waction_leq,
)

# every ordered pair of the size <= 4 catalog within the default bound
IN_BOUND = [
    (N, H)
    for N in catalog_monoids(4)
    for H in catalog_monoids(4)
    if N.size * H.size <= DEFAULT_BOUND
]


@pytest.fixture(scope="module")
def collapse_E(sl3, sl2):
    """Identity fiber discrete, the other fiber total."""
    return AdmissibleRelation(sl3, sl2, ((0, 1, 2), (0, 0, 0)))


def pair_of(N, H, fibers, act):
    return WActPair(AdmissibleRelation(N, H, fibers), ActionTable(N, H, act))


class TestAdmissibleRelation:
    def test_class_ids_normalised(self, sl3, sl2):
        E = AdmissibleRelation(sl3, sl2, ((0, 1, 2), (5, 5, 9)))
        assert E.fibers == ((0, 1, 2), (0, 0, 1))

    @pytest.mark.parametrize("bad", [True, 1.0, "1", None])
    def test_class_ids_are_plain_ints(self, sl2, bad):
        # True == 1 once merged the two into one class
        message = "^class id %s is not a plain int$" % re.escape(repr(bad))
        with pytest.raises(FormatError, match=message):
            AdmissibleRelation(sl2, sl2, ((0, 1), (bad, 1)))
        assert AdmissibleRelation(sl2, sl2, ((0, 1), (1, 1))).fibers == ((0, 1), (0, 0))

    def test_discrete(self, sl3, sl2):
        E = AdmissibleRelation.discrete(sl3, sl2)
        assert E.fibers == ((0, 1, 2), (0, 1, 2))
        assert check_admissible(E).ok

    def test_blocks_and_related(self, collapse_E):
        assert collapse_E.blocks(0) == ((0,), (1,), (2,))
        assert collapse_E.blocks(1) == ((0, 1, 2),)
        assert collapse_E.related(0, 2, h=1)
        assert not collapse_E.related(0, 2, h=0)

    def test_collapse_relation_is_admissible(self, collapse_E):
        assert check_admissible(collapse_E).ok

    def test_identity_fiber_must_be_discrete(self, sl3, sl2):
        E = AdmissibleRelation(sl3, sl2, ((0, 0, 1), (0, 0, 0)))
        verdict = check_admissible(E)
        assert not verdict.ok
        assert verdict.violations[0].law == "identity-fiber"

    def test_left_translation_violation(self, sl3, sl2):
        # 1 ~ 0 over e, but a*1 = a and a*0 = 0 land in different classes
        E = AdmissibleRelation(sl3, sl2, ((0, 1, 2), (0, 1, 0)))
        verdict = check_admissible(E)
        assert not verdict.ok
        assert verdict.violations[0].law == "left-translation"

    def test_right_translation_violation(self, sl2, sl3):
        # fiber at a is total but a*0 = 0 has a discrete fiber
        E = AdmissibleRelation(sl2, sl3, ((0, 1), (0, 0), (0, 1)))
        verdict = check_admissible(E)
        assert not verdict.ok
        assert verdict.violations[0].law == "right-translation"

    def test_agrees_with_naive_oracle(self, sl3, sl2):
        for fiber_e in set_partitions(range(3)):
            fibers = ((0, 1, 2), blocks_to_classes(3, fiber_e))
            E = AdmissibleRelation(sl3, sl2, fibers)
            assert check_admissible(E).ok == naive_admissible(sl3, sl2, E.fibers)


class TestCompatibleAction:
    def test_collapse_actions_compatible(self, collapse_E, alpha_a, alpha_0):
        for act in (alpha_a.act, alpha_0.act):
            a = ActionTable(collapse_E.N, collapse_E.H, act)
            assert check_compatible_action(collapse_E, a).ok

    @pytest.mark.parametrize("bad", [1.0, True, 0.0, False])
    def test_non_int_cell_rejected(self, collapse_E, alpha_a, bad):
        # alpha_a's second row is (1, 1, 1); an equal float or bool is no cell
        rows = [list(row) for row in alpha_a.act]
        rows[1][0] = bad
        with pytest.raises(FormatError, match="action value %r out of range" % (bad,)):
            ActionTable(collapse_E.N, collapse_E.H, rows)

    def test_action_unit_h_violation(self, sl3, sl2):
        E = AdmissibleRelation.discrete(sl3, sl2)
        a = ActionTable(sl3, sl2, ((0, 1, 1), (0, 1, 2)))
        verdict = check_compatible_action(E, a)
        assert not verdict.ok
        assert verdict.violations[0].law == "action-unit-h"

    def test_action_unit_n_violation(self, sl3, sl2):
        E = AdmissibleRelation.discrete(sl3, sl2)
        a = ActionTable(sl3, sl2, ((0, 1, 2), (1, 1, 1)))
        verdict = check_compatible_action(E, a)
        assert not verdict.ok
        assert verdict.violations[0].law == "action-unit-n"

    def test_agrees_with_naive_oracle(self, sl3, sl2, collapse_E):
        discrete = AdmissibleRelation.discrete(sl3, sl2)
        for E in (discrete, collapse_E):
            for row in itertools.product(range(3), repeat=3):
                a = ActionTable(sl3, sl2, ((0, 1, 2), row))
                assert check_compatible_action(E, a).ok == naive_compatible(
                    sl3, sl2, E.fibers, a.act
                )

    def test_signature_and_equivalence(self, collapse_E, alpha_a, alpha_0, sl3, sl2):
        a = ActionTable(sl3, sl2, alpha_a.act)
        b = ActionTable(sl3, sl2, alpha_0.act)
        assert actions_equivalent(collapse_E, a, b)
        assert action_signature(collapse_E, a) == action_signature(collapse_E, b)
        discrete = AdmissibleRelation.discrete(sl3, sl2)
        assert not actions_equivalent(discrete, a, b)


# Cayley tables with identity 0: C2, the 2-chain, C2 with a zero adjoined, and
# two left zeros with an identity adjoined
C2, CHAIN2 = ((0, 1), (1, 0)), ((0, 1), (1, 1))
C2_ZERO, LZ3 = ((0, 1, 2), (1, 0, 2), (2, 2, 2)), ((0, 1, 2), (1, 1, 1), (2, 2, 2))


class TestSingleLawWitnesses:
    # (law, N's table, H's table, E.fibers, act, the checker's witness): an
    # admissible E and an action that break this law of check_compatible_action
    # and no other.  Found by brute force over the pairs of catalog_monoids(3)
    # with |N|*|H| <= 6, their admissible relations and every action table.
    CASES = [
        ("action-unit-n", CHAIN2, CHAIN2, ((0, 1), (0, 1)), ((0, 1), (1, 1)), (1,)),
        ("action-unit-h", C2, ((0,),), ((0, 1),), ((0, 0),), (1,)),
        ("action-mul", C2_ZERO, C2, ((0, 1, 2), (0, 1, 2)), ((0, 1, 2), (0, 2, 1)),
         (1, 1, 1)),
        ("action-assoc", C2, C2, ((0, 1), (0, 1)), ((0, 1), (0, 0)), (1, 1, 1)),
        ("action-congruence-left", LZ3, CHAIN2, ((0, 1, 2), (0, 0, 1)),
         ((0, 1, 2), (0, 1, 2)), (1, 0, 1, 2)),
        ("action-congruence-right", C2, LZ3, ((0, 1), (0, 0), (0, 1)),
         ((0, 1), (0, 1), (0, 1)), (2, 1, 0, 1)),
    ]

    @staticmethod
    def broken_laws(N, H, fibers, a):
        """The laws that fail, each stated on its own over every instance."""
        hs, ns, mn, mh = H.elements, N.elements, N.mul, H.mul

        def rel(h, x, y):
            return fibers[h][x] == fibers[h][y]

        holds = {
            "action-unit-n": all(rel(h, a[h][N.identity], N.identity) for h in hs),
            "action-unit-h": all(rel(H.identity, a[H.identity][n], n) for n in ns),
            "action-mul": all(rel(h, a[h][mn(n, m)], mn(a[h][n], a[h][m]))
                              for h in hs for n in ns for m in ns),
            "action-assoc": all(rel(mh(h, g), a[mh(h, g)][n], a[h][a[g][n]])
                                for h in hs for g in hs for n in ns),
            "action-congruence-left": all(rel(h, mn(x, a[h][n]), mn(y, a[h][n]))
                                          for h in hs for x in ns for y in ns
                                          if rel(h, x, y) for n in ns),
            "action-congruence-right": all(rel(mh(h, g), a[h][x], a[h][y])
                                           for g in hs for x in ns for y in ns
                                           if rel(g, x, y) for h in hs),
        }
        return {law for law, ok in holds.items() if not ok}

    @pytest.mark.parametrize("law, n_table, h_table, fibers, act, witness", CASES,
                             ids=[c[0] for c in CASES])
    def test_law_fails_alone(self, law, n_table, h_table, fibers, act, witness):
        N, H = (FiniteMonoid(len(t), 0, t) for t in (n_table, h_table))
        E = AdmissibleRelation(N, H, fibers)
        assert check_admissible(E).ok
        verdict = check_compatible_action(E, ActionTable(N, H, act))
        assert verdict.violations == (Violation(law, witness),)
        assert self.broken_laws(N, H, E.fibers, act) == {law}


class TestAdmissibleClauseWitnesses:
    # (law, N's table, H's table, E.fibers, check_admissible's witness): a
    # relation that breaks this clause of check_admissible and no other.
    # Found by brute force over the pairs of catalog_monoids(3) and every
    # fiber partition, the first in catalog order for each clause.
    CASES = [
        ("identity-fiber", C2, ((0,),), ((0, 0),), (0, 1)),
        ("left-translation", C2_ZERO, CHAIN2, ((0, 1, 2), (0, 1, 0)), (1, 0, 2, 1)),
        ("right-translation", C2, C2, ((0, 1), (0, 0)), (1, 0, 1, 1)),
    ]

    @staticmethod
    def broken_laws(N, H, fibers):
        """The clauses that fail, each stated on its own over every instance."""
        hs, ns, mn, mh = H.elements, N.elements, N.mul, H.mul

        def rel(h, x, y):
            return fibers[h][x] == fibers[h][y]

        holds = {
            "identity-fiber": all(x == y for x in ns for y in ns if rel(H.identity, x, y)),
            "left-translation": all(rel(h, mn(z, x), mn(z, y))
                                    for h in hs for x in ns for y in ns
                                    if rel(h, x, y) for z in ns),
            "right-translation": all(rel(mh(h, g), x, y)
                                     for h in hs for x in ns for y in ns
                                     if rel(h, x, y) for g in hs),
        }
        return {law for law, ok in holds.items() if not ok}

    @pytest.mark.parametrize("law, n_table, h_table, fibers, witness", CASES,
                             ids=[c[0] for c in CASES])
    def test_clause_fails_alone(self, law, n_table, h_table, fibers, witness):
        N, H = (FiniteMonoid(len(t), 0, t) for t in (n_table, h_table))
        E = AdmissibleRelation(N, H, fibers)
        assert check_admissible(E).violations == (Violation(law, witness),)
        assert self.broken_laws(N, H, E.fibers) == {law}


class TestBuildExtension:
    def test_collapse_pair_builds_four_element_carrier(
        self, sl3, sl2, collapse_E, alpha_a
    ):
        p = WActPair(collapse_E, ActionTable(sl3, sl2, alpha_a.act))
        ext = build_extension(p)
        assert ext.verified
        assert ext.G.size == 4
        assert ext.e.map == (0, 0, 0, 1)

    def test_build_rejects_incompatible_input(self, sl3, sl2):
        E = AdmissibleRelation.discrete(sl3, sl2)
        p = WActPair(E, ActionTable(sl3, sl2, ((0, 1, 2), (1, 1, 1))))
        from wschreier.monoid import PreconditionError

        with pytest.raises(PreconditionError):
            build_extension(p)

    def test_direct_product_pair_round_trip(self, sl2):
        # the discrete relation with the trivial action builds the product
        p = pair_of(sl2, sl2, ((0, 1), (0, 1)), ((0, 1), (0, 1)))
        ext = build_extension(p)
        prod = verify_split_extension(direct_product_extension(sl2, sl2)).value
        assert extensions_equivalent(ext, prod)

    def test_extract_then_build_is_identity(self, enum_cache, sl2, sl3, c2):
        for N, H in ((sl2, sl2), (c2, c2), (sl3, sl2), (sl2, sl3)):
            for p in enum_cache.wactions(N, H):
                ext = build_extension(p)
                r = find_retraction(ext).value
                back = extract_waction(ext, r)
                assert back.E.fibers == p.E.fibers
                assert actions_equivalent(p.E, p.alpha, back.alpha)

    def test_build_then_extract_is_identity(self, sl2):
        prod = verify_split_extension(direct_product_extension(sl2, sl2)).value
        r = find_retraction(prod).value
        p = extract_waction(prod, r)
        rebuilt = build_extension(p)
        assert extensions_equivalent(prod, rebuilt)

    def test_extract_rejects_foreign_retraction(self, sl2, sl3):
        a = verify_split_extension(direct_product_extension(sl2, sl2)).value
        b = verify_split_extension(direct_product_extension(sl3, sl2)).value
        r = find_retraction(a).value
        with pytest.raises(FormatError):
            extract_waction(b, r)

    def test_extracted_pair_failing_validation_is_internal(self, sl2, broken_compatibility):
        prod = verify_split_extension(direct_product_extension(sl2, sl2)).value
        message = "^extracted pair fails validation: action-mul: 0 0 0$"
        with pytest.raises(ConsistencyError, match=message):
            extract_waction(prod, find_retraction(prod).value)

    @staticmethod
    def exact(ext):
        return ext.G.table, ext.G.identity, ext.G.labels, ext.k.map, ext.e.map, ext.s.map

    def test_matches_reference_on_catalog(self, enum_cache):
        """The cell table against the set per class pair that it replaced,
        on the 1993 pairs of the 310 in-bound (N, H) and one relabelling of
        each; a relabelled pair is built unchecked, so it is checked in
        full on its first build."""
        rng = random.Random(20201019)
        pairs = [p for N, H in IN_BOUND for p in enum_cache.wactions(N, H)]
        assert len(pairs) == 1993
        for p in pairs + [relabelled_pair(p, rng) for p in pairs]:
            assert self.exact(build_extension(p)) == self.exact(reference_build_extension(p))

    # Incompatible pairs on which one half of the well-definedness test
    # fails and the other holds.  Row half: row (h1, n1) of the cell table
    # equals the row of n1's first classmate in fiber h1.  Column half: each
    # such first row is constant on the classes of every fiber.
    ONE_HALF_FAILS = {
        "row": (((0, 1, 2), (1, 1, 1), (2, 2, 2)), ((0, 1, 2), (0, 0, 1)),
                ((0, 0, 0), (0, 0, 2)), (3, 2)),
        "column": (((0, 1, 2), (1, 1, 2), (2, 2, 2)), ((0, 1, 2), (0, 0, 1)),
                   ((0, 0, 0), (0, 2, 0)), (3, 3)),
    }

    @staticmethod
    def halves(p):
        """Whether the row half and the column half hold, worked out cell by
        cell from the classes of the products."""
        N, H, f = p.N, p.H, p.E.fibers
        cells = [(h, n) for h in H.elements for n in N.elements]
        first = {(h, n): (h, f[h].index(f[h][n])) for h, n in cells}

        def P(c1, c2):
            (h1, n1), (h2, n2) = c1, c2
            g = H.table[h1][h2]
            return g, f[g][N.table[n1][p.alpha.act[h1][n2]]]

        rows = all(P(c1, c2) == P(first[c1], c2) for c1 in cells for c2 in cells)
        columns = all(P(r, c) == P(r, first[c]) for r in set(first.values()) for c in cells)
        return rows, columns

    @pytest.mark.parametrize("half", sorted(ONE_HALF_FAILS))
    def test_ill_defined_product_is_reported(self, monkeypatch, sl2, half):
        """Reached by marking an incompatible pair as checked; the message
        names the first class pair (in carrier order) whose products fall
        in more than one class, as the reference loop does when its own
        checks are skipped."""
        table, fibers, act, (i, j) = self.ONE_HALF_FAILS[half]
        p = pair_of(FiniteMonoid(3, 0, table), sl2, fibers, act)
        assert not check_compatible_action(p.E, p.alpha).ok
        assert self.halves(p) == (half != "row", half != "column")
        message = "product of classes %d and %d is not well defined" % (i, j)
        monkeypatch.setattr(conftest, "check_compatible_action", lambda E, a: Verdict(a))
        with pytest.raises(ConsistencyError, match=message):
            reference_build_extension(p)
        object.__setattr__(p, "_valid", True)
        with pytest.raises(ConsistencyError, match="^%s$" % message):
            build_extension(p)


class TestValidateOnce:
    """A passed check of a pair is kept on it as _valid; a failed one is not."""

    def test_enumerated_and_extracted_pairs_are_marked(self, enum_cache, sl3, sl2):
        for p in enum_cache.wactions(sl3, sl2):
            assert p._valid
            fresh = WActPair(p.E, p.alpha)
            assert not hasattr(fresh, "_valid")
            ext = build_extension(fresh)
            assert fresh._valid
            back = extract_waction(ext, find_retraction(ext).value)
            assert back._valid

    @staticmethod
    def count_checks(monkeypatch):
        calls = []
        for name in ("check_admissible", "check_compatible_action"):
            real = getattr(waction_mod, name)
            monkeypatch.setattr(waction_mod, name, lambda *a, real=real, name=name: (
                calls.append(name) or real(*a)))
        return calls

    def test_marked_pairs_are_not_checked_again(self, monkeypatch, enum_cache, sl3, sl2):
        calls = self.count_checks(monkeypatch)
        p = enum_cache.wactions(sl3, sl2)[-1]
        fresh = WActPair(p.E, p.alpha)
        for _ in range(2):
            build_extension(p)
            build_extension(fresh)
        assert calls == ["check_admissible", "check_compatible_action"]

    def test_failed_check_is_repeated(self, monkeypatch, sl3, sl2):
        calls = self.count_checks(monkeypatch)
        p = pair_of(sl3, sl2, ((0, 1, 2), (0, 1, 2)), ((0, 1, 2), (1, 1, 1)))
        for n in (1, 2):
            with pytest.raises(PreconditionError, match="check_compatible_action"):
                build_extension(p)
            assert calls == ["check_admissible", "check_compatible_action"] * n
            assert not hasattr(p, "_valid")

    def test_mark_takes_no_part_in_equality(self, enum_cache, sl3, sl2):
        for p in enum_cache.wactions(sl3, sl2):
            fresh = WActPair(p.E, p.alpha)
            before = (hash(fresh), repr(fresh))
            build_extension(fresh)
            assert fresh == p and (hash(fresh), repr(fresh)) == before == (hash(p), repr(p))


class TestEnumeration:
    # Golden counts, frozen from the brute-force oracle over every
    # equivalence relation and raw action table.
    GOLDEN_COUNTS = {
        ("c2", "c2"): 1,
        ("sl2", "sl2"): 3,
        ("sl3", "sl2"): 10,
        ("sl2", "sl3"): 6,
    }

    def _monoid(self, name, request):
        return request.getfixturevalue(name)

    @pytest.mark.parametrize("n_name,h_name", sorted(GOLDEN_COUNTS))
    def test_counts_match_brute_force(self, n_name, h_name, request, enum_cache):
        N = request.getfixturevalue(n_name)
        H = request.getfixturevalue(h_name)
        pairs = enum_cache.wactions(N, H)
        assert len(pairs) == self.GOLDEN_COUNTS[(n_name, h_name)]
        keys = {
            (p.E.fibers, action_signature(p.E, p.alpha)) for p in pairs
        }
        assert keys == naive_wschreier_pairs(N, H)

    def test_table_failing_compatibility_is_internal(self, sl2, broken_compatibility):
        message = "^table fails compatibility: action-mul: 0 0 0$"
        with pytest.raises(ConsistencyError, match=message):
            next(compatible_actions(AdmissibleRelation.discrete(sl2, sl2)))

    def test_admissible_relations_complete(self, sl3, sl2):
        found = {E.fibers for E in admissible_relations(sl3, sl2)}
        expected = set()
        for blocks in set_partitions(range(3)):
            fibers = ((0, 1, 2), normalize_classes(blocks_to_classes(3, blocks)))
            if naive_admissible(sl3, sl2, fibers):
                expected.add(fibers)
        assert found == expected

    def test_compatible_actions_complete(self, sl3, sl2, collapse_E):
        found = {a.act for a in compatible_actions(collapse_E)}
        expected = set()
        for row in itertools.product(range(3), repeat=3):
            act = ((0, 1, 2), row)
            if naive_compatible(sl3, sl2, collapse_E.fibers, act):
                expected.add(act)
        assert found == expected

    def test_compatible_actions_refuses_inadmissible_relation(self, sl3, sl2):
        E = AdmissibleRelation(sl3, sl2, ((0, 0, 1), (0, 0, 0)))
        with pytest.raises(PreconditionError):
            next(compatible_actions(E))

    def test_compatible_actions_match_reference(self, sl3, sl2, c2):
        for N, H in ((sl3, sl2), (sl2, sl3), (c2, sl2), (sl2, c2)):
            for E in admissible_relations(N, H):
                assert list(compatible_actions(E)) == list(reference_compatible_actions(E))

    def test_matches_reference_on_catalog(self, enum_cache):
        total = 0
        for N, H in IN_BOUND:
            got = enum_cache.wactions(N, H)
            assert got == reference_wactions(N, H)
            assert tuple(admissible_relations(N, H)) == tuple(reference_admissible_relations(N, H))
            total += len(got)
        assert (len(IN_BOUND), total) == (310, 1993)

    def test_matches_reference_on_relabelled_catalog(self):
        rng = random.Random(20200505)
        for N, H in IN_BOUND:
            N2, H2 = relabelled(N, rng), relabelled(H, rng)
            assert enumerate_wactions(N2, H2) == reference_wactions(N2, H2)
            relations = tuple(admissible_relations(N2, H2))
            assert relations == tuple(reference_admissible_relations(N2, H2))

    def test_bound_matches_reference(self, sl3):
        for N, H, bound in ((diamond_lattice(), sl3, DEFAULT_BOUND), (sl3, sl3, 8)):
            with pytest.raises(BoundExceeded) as new:
                enumerate_wactions(N, H, bound)
            with pytest.raises(BoundExceeded) as ref:
                reference_wactions(N, H, bound)
            assert new.value.estimate == ref.value.estimate
            assert str(new.value) == str(ref.value)
        assert enumerate_wactions(sl3, sl3, 9) == reference_wactions(sl3, sl3, 9)

    @given(st.sampled_from(IN_BOUND), st.data())
    @settings(max_examples=60, deadline=None)
    def test_class_members_are_compatible(self, enum_cache, monoids, data):
        pair = data.draw(st.sampled_from(enum_cache.wactions(*monoids)))
        E, alpha = pair.E, pair.alpha
        act = tuple(
            tuple(
                data.draw(st.sampled_from(E.blocks(h)[E.fibers[h][v]]))
                for v in alpha.act[h]
            )
            for h in E.H.elements
        )
        member = ActionTable(E.N, E.H, act)
        assert check_compatible_action(E, member).ok
        assert actions_equivalent(E, alpha, member)

    def test_every_enumerated_pair_builds(self, enum_cache, sl3, sl2):
        for p in enum_cache.wactions(sl3, sl2):
            ext = build_extension(p)
            assert ext.verified

    def test_bound_enforced(self, sl3):
        with pytest.raises(BoundExceeded) as info:
            enumerate_wactions(diamond_lattice(), sl3)
        assert info.value.estimate > 0

    def test_bound_refuses_an_estimate_too_long_to_print(self):
        bell = [1]
        for n in range(50):
            bell.append(sum(math.comb(n, k) * bell[k] for k in range(n + 1)))
        C50 = cyclic_group(50)
        with pytest.raises(BoundExceeded) as info:
            enumerate_wactions(C50, C50)
        assert info.value.estimate == bell[50] ** 49 * 50 ** (49 * 50)
        assert str(info.value) == "|N|*|H| = 2500 exceeds bound 9 (about 10^6478 raw candidates)"

    def test_bound_override(self, sl2, c2):
        # explicit bound below the pair size also refuses
        with pytest.raises(BoundExceeded):
            enumerate_wactions(sl2, c2, bound=3)


class TestOrder:
    def test_reflexive_and_transitive(self, enum_cache, sl3, sl2):
        pairs = enum_cache.wactions(sl3, sl2)
        for p in pairs:
            assert waction_leq(p, p)
        for p1 in pairs:
            for p2 in pairs:
                for p3 in pairs:
                    if waction_leq(p1, p2) and waction_leq(p2, p3):
                        assert waction_leq(p1, p3)

    def test_discrete_below_collapse(self, sl2):
        fine = pair_of(sl2, sl2, ((0, 1), (0, 1)), ((0, 1), (0, 1)))
        coarse = pair_of(sl2, sl2, ((0, 1), (0, 0)), ((0, 1), (0, 0)))
        assert waction_leq(fine, coarse)
        assert not waction_leq(coarse, fine)

    def test_mismatched_carriers_rejected(self, sl2, sl3):
        p1 = pair_of(sl2, sl2, ((0, 1), (0, 1)), ((0, 1), (0, 1)))
        p2 = pair_of(sl3, sl2, ((0, 1, 2), (0, 1, 2)), ((0, 1, 2), (0, 1, 2)))
        with pytest.raises(FormatError):
            waction_leq(p1, p2)

    def test_equal_distinct_monoids_give_the_same_verdicts(self, enum_cache, sl3, sl2):
        pairs = enum_cache.wactions(sl3, sl2)
        N, H = fresh(sl3), fresh(sl2)
        copies = [pair_of(N, H, p.E.fibers, p.alpha.act) for p in pairs]
        holds = 0
        for p1, c1 in zip(pairs, copies):
            for p2, c2 in zip(pairs, copies):
                got = waction_leq(p1, p2)
                assert waction_leq(p1, c2) == waction_leq(c1, p2) == waction_leq(c1, c2) == got
                assert got == reference_waction_leq(c1, p2)
                holds += got
        assert 0 < holds < len(pairs) ** 2

    def test_mismatch_text_on_distinct_instances(self, sl2, sl3, c2):
        def discrete(N, H):
            rows = tuple([tuple(N.elements)] * H.size)
            return pair_of(N, H, rows, rows)

        p = discrete(sl2, sl2)
        for N, H in ((fresh(sl3), sl2), (sl2, fresh(sl3)), (fresh(c2), sl2), (sl2, fresh(c2))):
            for args in ((p, discrete(N, H)), (discrete(N, H), p)):
                with pytest.raises(FormatError) as info:
                    waction_leq(*args)
                assert str(info.value) == "pairs do not share the same N and H"
                assert conftest.outcome(reference_waction_leq, *args) == (
                    "FormatError",
                    str(info.value),
                )

    def test_fibers_refine_one_by_one(self, sl2):
        # fiber 1 of p1 is total and that of p2 discrete, fiber 0 the other
        # way round; the pairs of class ids of both fibers taken together
        # are as many as p1's three classes, so a count over all cells at
        # once would miss the fiber that does not refine
        p1 = pair_of(sl2, sl2, ((0, 1), (0, 0)), ((0, 1), (0, 1)))
        p2 = pair_of(sl2, sl2, ((0, 0), (0, 1)), ((0, 1), (0, 1)))
        assert not waction_leq(p1, p2)
        assert not reference_waction_leq(p1, p2)

    def test_one_cell_pair(self, t1):
        # an itemgetter of one index returns a bare item, not a tuple
        p = pair_of(t1, t1, ((0,),), ((0,),))
        assert waction_leq(p, p)
        assert reference_waction_leq(p, p)

    def test_each_half_can_fail_alone(self, c2, sl2):
        discrete = ((0, 1), (0, 1))
        p = pair_of(c2, sl2, discrete, ((0, 1), (0, 0)))
        other_action = pair_of(c2, sl2, discrete, ((0, 1), (0, 1)))
        collapsed = pair_of(c2, sl2, ((0, 1), (0, 0)), ((0, 1), (0, 0)))
        for q in (p, other_action, collapsed):
            assert check_admissible(q.E).ok and check_compatible_action(q.E, q.alpha).ok
        # the fibers refine, the actions disagree up to the discrete fibers
        assert p.E == other_action.E
        assert not waction_leq(p, other_action)
        assert not reference_waction_leq(p, other_action)
        # the actions agree, the total fiber over 1 does not refine
        assert actions_equivalent(p.E, collapsed.alpha, p.alpha)
        assert not waction_leq(collapsed, p)
        assert not reference_waction_leq(collapsed, p)

    def test_leq_matches_morphism_existence(self, enum_cache):
        """The order of the paper: an extension morphism between the built
        extensions, on the 728 ordered pairs of the next test."""
        compared = holds = 0
        for N, H in IN_BOUND:
            if N.size * H.size <= 6:
                pairs = enum_cache.wactions(N, H)
                exts = [build_extension(p) for p in pairs]
                for p1, x1 in zip(pairs, exts):
                    for p2, x2 in zip(pairs, exts):
                        got = waction_leq(p1, p2)
                        assert got == (extension_morphism(x1, x2) is not None)
                        compared += 1
                        holds += got
        assert (compared, holds) == (728, 338)

    def test_order_key_is_derived_once(self, enum_cache, sl3, sl2):
        for p in enum_cache.wactions(sl3, sl2):
            fresh = WActPair(p.E, p.alpha)
            before = (fresh == p, hash(fresh), repr(fresh))
            key = _order_key(fresh)
            assert _order_key(fresh) is key
            F, R, A, S = key
            assert all(type(x) is int for part in (F, S) for x in part)
            for getter in (R, A):  # an itemgetter refers to its class and its cells
                cells = [r for r in gc.get_referents(getter) if r is not itemgetter]
                assert cells and all(type(c) is tuple for c in cells)
                assert all(type(x) is int for c in cells for x in c)
            assert (fresh == p, hash(fresh), repr(fresh)) == before == (True, hash(p), repr(p))

    def test_leq_matches_reference_on_small_catalog(self, enum_cache):
        compared = holds = 0
        for N, H in IN_BOUND:
            if N.size * H.size <= 6:
                pairs = enum_cache.wactions(N, H)
                for p1 in pairs:
                    for p2 in pairs:
                        got = waction_leq(p1, p2)
                        assert got == reference_waction_leq(p1, p2)
                        compared += 1
                        holds += got
        assert compared == 728
        assert 0 < holds < compared

    def test_leq_matches_reference_on_join_inputs(self):
        """The pairs of acceptance criterion 6: the waction_of of every
        central-idempotent hom and of every pointwise join, against each
        other and against the enumerated pairs within the bound."""
        catalog = catalog_inverse_monoids(4)
        compared = holds = 0
        for Niv in catalog:
            for Hiv in catalog:
                N, H = Niv.base, Hiv.base
                homs = central_idempotent_homs(H, N)
                maps = set(homs) | {join_hom(f, g) for f in homs for g in homs}
                pairs = [waction_of(artin_like_action(f)) for f in maps]
                enum = enumerate_wactions(N, H) if N.size * H.size <= DEFAULT_BOUND else ()
                for p1 in pairs:
                    for p2 in pairs + list(enum):
                        got = waction_leq(p1, p2)
                        assert got == reference_waction_leq(p1, p2)
                        compared += 1
                        holds += got
        assert compared == 5978
        assert 0 < holds < compared


class TestShapeErrors:
    # Shape errors that no other in-process test reaches, over N = 3-chain
    # and H = 2-chain; the action over (2-chain, 2-chain) lives elsewhere.
    CASES = [
        pytest.param(
            lambda N, H: AdmissibleRelation(N, H, ((0, 1, 2),)),
            "expected one fiber per element of H",
            id="fiber-count",
        ),
        pytest.param(
            lambda N, H: AdmissibleRelation(N, H, ((0, 1, 2), (0, 1))),
            "fiber partitions must cover N",
            id="fiber-length",
        ),
        pytest.param(
            lambda N, H: ActionTable(N, H, ((0, 1, 2),)),
            "expected one action row per element of H",
            id="row-count",
        ),
        pytest.param(
            lambda N, H: ActionTable(N, H, ((0, 1, 2), (0, 1))),
            "action rows must cover N",
            id="row-length",
        ),
        pytest.param(
            lambda N, H: check_compatible_action(
                AdmissibleRelation.discrete(N, H), ActionTable(H, H, ((0, 1), (0, 1)))
            ),
            "action and relation live over different monoids",
            id="compatible",
        ),
        pytest.param(
            lambda N, H: WActPair(
                AdmissibleRelation.discrete(N, H), ActionTable(H, H, ((0, 1), (0, 1)))
            ),
            "relation and action live over different monoids",
            id="pair",
        ),
    ]

    @pytest.mark.parametrize("call, message", CASES)
    def test_message(self, sl3, sl2, call, message):
        with pytest.raises(FormatError) as info:
            call(sl3, sl2)
        assert type(info.value) is FormatError
        assert str(info.value) == message
