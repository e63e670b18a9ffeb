import itertools
import math
import random

import importlib

import pytest

from conftest import (
    fresh,
    make_inverse_action,
    naive_inverse_actions,
    reference_inverse_actions,
    reference_semigroup_endomorphisms,
    relabelled,
)
from wschreier.catalog import (
    catalog_inverse_monoids,
    catalog_monoids,
    chain_lattice,
    commutative_idempotent_monoids,
    cyclic_group,
    right_zero_adjoined,
)
from wschreier.extension import (
    all_retractions,
    extension_morphism,
    extensions_equivalent,
    find_retraction,
)
from wschreier.monoid import (
    BoundExceeded,
    FiniteMonoid,
    FormatError,
    MonoidHom,
    PreconditionError,
    Violation,
    check_hom,
    direct_product,
    generating_plan,
    inverse_structure,
    zero_hom,
)
from wschreier.lambda_product import (
    artin_join,
    artin_like_action,
    canonical_multiplication,
    canonicalize,
    check_inverse_action,
    enumerate_inverse_actions,
    join_hom,
    lambda_action_leq,
    lambda_product,
    semigroup_endomorphisms,
    waction_of,
)
from wschreier.waction import action_signature, extract_waction, waction_leq

# the package binds the name lambda_product to the function, so the modules
# are looked up by name
lambda_module = importlib.import_module("wschreier.lambda_product")
monoid_module = importlib.import_module("wschreier.monoid")


class TestCheckInverseAction:
    def test_collapse_to_idempotent_is_an_action(self, alpha_a, alpha_0):
        for a in (alpha_a, alpha_0):
            assert check_inverse_action(a.N, a.H, a.act).ok

    def test_collapse_to_non_idempotent_fails_multiplicativity(self, c2, sl2):
        # away from 1, everything goes to the group generator g; then
        # h.(g g) = g but (h.g)(h.g) = g g = 1
        a = make_inverse_action(c2, sl2, ((0, 1), (1, 1)))
        verdict = check_inverse_action(a.N, a.H, a.act)
        assert not verdict.ok
        assert verdict.violations[0].law == "act-mul"

    def test_identity_row_enforced(self, sl2):
        a = make_inverse_action(sl2, sl2, ((1, 1), (0, 1)))
        verdict = check_inverse_action(a.N, a.H, a.act)
        assert not verdict.ok
        assert verdict.violations[0].law == "act-identity"

    def test_composition_law(self, sl2, c2):
        # g.g = 1 must act as the identity, but const-top twice is const-top
        a = make_inverse_action(sl2, c2, ((0, 1), (0, 0)))
        verdict = check_inverse_action(a.N, a.H, a.act)
        assert not verdict.ok
        assert verdict.violations[0].law == "act-compose"

    def test_acting_by_identity_elsewhere_is_fine(self, sl3, sl2):
        a = make_inverse_action(sl3, sl2, ((0, 1, 2), (0, 1, 2)))
        assert check_inverse_action(a.N, a.H, a.act).ok


class TestClauseWitnesses:
    # (law, N's table, H's table, act, check_inverse_action's witness): an
    # action table that breaks this clause of check_inverse_action and no
    # other.  Found by brute force over the pairs of catalog_inverse_monoids(3)
    # and every table of maps N -> N, the first in catalog order for each clause.
    C2 = ((0, 1), (1, 0))
    CASES = [
        ("act-identity", C2, ((0,),), ((0, 0),), (1,)),
        ("act-mul", C2, C2, ((0, 1), (1, 0)), (1, 0, 0)),
        ("act-compose", C2, C2, ((0, 1), (0, 0)), (1, 1, 1)),
    ]

    @staticmethod
    def broken_laws(N, H, act):
        """The clauses that fail, each stated on its own over every instance."""
        hs, ns, mn, mh = H.elements, N.elements, N.mul, H.mul
        holds = {
            "act-identity": all(act[H.identity][n] == n for n in ns),
            "act-mul": all(act[h][mn(n, m)] == mn(act[h][n], act[h][m])
                           for h in hs for n in ns for m in ns),
            "act-compose": all(act[mh(h, g)][n] == act[h][act[g][n]]
                               for h in hs for g in hs for n in ns),
        }
        return {law for law, ok in holds.items() if not ok}

    @pytest.mark.parametrize("law, n_table, h_table, act, witness", CASES,
                             ids=[c[0] for c in CASES])
    def test_clause_fails_alone(self, law, n_table, h_table, act, witness):
        N, H = (inverse_structure(FiniteMonoid(len(t), 0, t)).expect() for t in (n_table, h_table))
        verdict = check_inverse_action(N, H, act)
        assert verdict.violations == (Violation(law, witness),)
        assert self.broken_laws(N.base, H.base, act) == {law}


class TestLambdaProduct:
    def test_collapse_to_a_carrier(self, alpha_a):
        lam = lambda_product(alpha_a)
        assert lam.carrier == ((0, 0), (1, 0), (2, 0), (1, 1))
        assert lam.monoid.size == 4

    def test_collapse_to_bottom_carrier(self, alpha_0):
        lam = lambda_product(alpha_0)
        assert lam.carrier == ((0, 0), (1, 0), (2, 0), (2, 1))

    def test_collapsed_element_is_idempotent(self, alpha_a):
        lam = lambda_product(alpha_a)
        i = lam.index((1, 1))
        assert lam.monoid.table[i][i] == i

    def test_extension_structure(self, alpha_a):
        lam = lambda_product(alpha_a)
        ext = lam.extension
        assert ext.verified
        assert ext.k.map == (0, 1, 2)
        assert ext.e.map == (0, 0, 0, 1)
        assert ext.s.map == (0, 3)  # s(e) is the collapsed pair (a, e)

    def test_first_projection_retraction(self, alpha_a):
        lam = lambda_product(alpha_a)
        assert lam.retraction.q == (0, 1, 2, 1)
        assert not lam.retraction.unique
        assert len(list(all_retractions(lam.extension))) == 3

    def test_identity_action_gives_direct_product(self, sl2):
        a = make_inverse_action(sl2, sl2, ((0, 1), (0, 1)))
        lam = lambda_product(a)
        assert lam.monoid.size == 4
        assert lam.retraction.unique

    def test_group_case_is_schreier(self, c2):
        a = make_inverse_action(c2, c2, ((0, 1), (0, 1)))
        lam = lambda_product(a)
        assert lam.monoid.size == 4
        assert lam.retraction.unique

    def test_invalid_action_refused(self, c2, sl2):
        bad = make_inverse_action(c2, sl2, ((0, 1), (1, 1)))
        with pytest.raises(PreconditionError):
            lambda_product(bad)

    def test_equivalent_extensions_from_different_actions(self, alpha_a, alpha_0):
        assert alpha_a.act != alpha_0.act
        ext_a = lambda_product(alpha_a).extension
        ext_0 = lambda_product(alpha_0).extension
        assert extensions_equivalent(ext_a, ext_0)


class TestCanonical:
    def test_canonicalize_moves_to_carrier(self, alpha_a):
        assert canonicalize(alpha_a, 0, 1) == (1, 1)
        assert canonicalize(alpha_a, 2, 1) == (1, 1)
        assert canonicalize(alpha_a, 2, 0) == (2, 0)

    def test_canonical_multiplication_of_collapsed_and_bottom(self, alpha_a):
        # (a, e) * (0, 1) stays at the collapsed pair (a, e)
        assert canonical_multiplication(alpha_a, (1, 1), (2, 0)) == (1, 1)

    def test_matches_table(self, alpha_a):
        lam = lambda_product(alpha_a)
        for p1 in lam.carrier:
            for p2 in lam.carrier:
                i = lam.monoid.table[lam.index(p1)][lam.index(p2)]
                assert lam.carrier[i] == canonical_multiplication(alpha_a, p1, p2)

    def test_carrier_precondition(self, alpha_a):
        with pytest.raises(PreconditionError):
            canonical_multiplication(alpha_a, (0, 1), (0, 0))


class TestExtraction:
    def test_waction_of_matches_extraction(self, alpha_a, alpha_0, sl2):
        actions = [
            alpha_a,
            alpha_0,
            make_inverse_action(sl2, sl2, ((0, 1), (0, 1))),
            make_inverse_action(sl2, sl2, ((0, 1), (0, 0))),
        ]
        for a in actions:
            lam = lambda_product(a)
            extracted = extract_waction(lam.extension, lam.retraction)
            direct = waction_of(a)
            assert extracted.E.fibers == direct.E.fibers
            assert extracted.alpha.act == direct.alpha.act

    def test_collapse_relation_shape(self, alpha_a):
        pair = waction_of(alpha_a)
        assert pair.E.fibers == ((0, 1, 2), (0, 0, 0))


class TestOrder:
    def test_collapse_actions_mutually_below(self, alpha_a, alpha_0):
        assert lambda_action_leq(alpha_a, alpha_0)
        assert lambda_action_leq(alpha_0, alpha_a)

    def test_strict_comparison(self, sl2):
        ident = make_inverse_action(sl2, sl2, ((0, 1), (0, 1)))
        collapse = make_inverse_action(sl2, sl2, ((0, 1), (1, 1)))
        assert lambda_action_leq(ident, collapse)
        assert not lambda_action_leq(collapse, ident)

    def test_mismatched_pairs_rejected(self, sl2, sl3):
        a = make_inverse_action(sl2, sl2, ((0, 1), (0, 1)))
        b = make_inverse_action(sl3, sl2, ((0, 1, 2), (0, 1, 2)))
        with pytest.raises(FormatError):
            lambda_action_leq(a, b)

    def test_agrees_with_extension_morphisms(self, enum_cache, sl2, sl3, c2):
        for N, H in ((sl2, sl2), (sl3, sl2), (c2, c2), (sl2, c2)):
            actions = enum_cache.inverse_actions(N, H)
            lams = [lambda_product(a) for a in actions]
            for a, la in zip(actions, lams):
                for b, lb in zip(actions, lams):
                    expected = extension_morphism(la.extension, lb.extension)
                    assert lambda_action_leq(a, b) == (expected is not None)

    def test_agrees_with_waction_order(self, enum_cache, sl2, sl3):
        for N, H in ((sl2, sl2), (sl3, sl2)):
            actions = enum_cache.inverse_actions(N, H)
            for a in actions:
                for b in actions:
                    assert lambda_action_leq(a, b) == waction_leq(
                        waction_of(a), waction_of(b)
                    )


class TestArtinLike:
    def test_action_of_meet_map(self, sl2, sl3):
        f = MonoidHom(sl2, sl3, (0, 1))
        a = artin_like_action(f)
        assert a.act == ((0, 1, 2), (1, 1, 2))

    def test_rejects_non_central_image(self, sl2):
        rz = right_zero_adjoined(2)
        f = MonoidHom(sl2, rz, (0, 1))
        with pytest.raises(PreconditionError):
            artin_like_action(f)

    def test_rejects_non_inverse_target_even_with_zero_map(self, sl2):
        rz = right_zero_adjoined(2)
        with pytest.raises(PreconditionError):
            artin_like_action(zero_hom(sl2, rz))

    def test_join_hom_is_pointwise_product(self, sl2, sl3):
        f = MonoidHom(sl2, sl3, (0, 1))
        g = MonoidHom(sl2, sl3, (0, 2))
        assert join_hom(f, g).map == (0, 2)
        assert join_hom(f, f).map == (0, 1)

    def test_join_requires_parallel(self, sl2, sl3):
        f = MonoidHom(sl2, sl3, (0, 1))
        g = MonoidHom(sl2, sl2, (0, 1))
        with pytest.raises(FormatError):
            join_hom(f, g)

    def test_join_map_is_a_plain_tuple(self, sl2, sl3):
        """join_hom hands check_hom a private marker; the hom it returns is
        the hom built from the same plain tuple."""
        j = join_hom(MonoidHom(sl2, sl3, (0, 1)), MonoidHom(sl2, sl3, (0, 2)))
        for plain in (MonoidHom(sl2, sl3, (0, 2)), check_hom(sl2, sl3, [0, 2]).value):
            assert type(j.map) is type(plain.map) is tuple
            assert (j == plain, hash(j), repr(j)) == (True, hash(plain), repr(plain))

    @pytest.mark.parametrize("cells, shown", [((0, 3), "3"), ((0, True), "True"), ((-1, 0), "-1")])
    def test_bad_cells_are_still_refused(self, sl2, sl3, cells, shown):
        i = 0 if cells[0] != 0 else 1
        text = "hom image of %d is %s, out of range" % (i, shown)
        for build in (MonoidHom, check_hom):
            for map_ in (cells, list(cells)):
                with pytest.raises(FormatError) as info:
                    build(sl2, sl3, map_)
                assert str(info.value) == text

    def test_parallel_check_on_equal_instances(self, sl2, sl3):
        f = MonoidHom(sl2, sl3, (0, 1))
        S, T = fresh(sl2), fresh(sl3)
        for source, target in ((sl2, sl3), (S, T), (S, sl3), (sl2, T)):
            g = MonoidHom(source, target, (0, 2))
            assert join_hom(f, g) == join_hom(g, f) == MonoidHom(sl2, sl3, (0, 2))
        for source, target in ((sl2, sl2), (S, fresh(sl2)), (fresh(sl3), T), (cyclic_group(2), T)):
            g = MonoidHom(source, target, (0,) * source.size)
            for args in ((f, g), (g, f)):
                with pytest.raises(FormatError) as info:
                    join_hom(*args)
                assert str(info.value) == "homs are not parallel"

    def test_artin_join_is_an_upper_bound(self, sl2, sl3):
        f = MonoidHom(sl2, sl3, (0, 1))
        g = MonoidHom(sl2, sl3, (0, 2))
        joined = artin_join(f, g)
        assert lambda_action_leq(artin_like_action(f), joined)
        assert lambda_action_leq(artin_like_action(g), joined)

    def test_artin_join_is_least_among_artin_upper_bounds(self, sl2, sl3):
        from wschreier.catalog import central_idempotent_homs

        f = MonoidHom(sl2, sl3, (0, 1))
        g = MonoidHom(sl2, sl3, (0, 2))
        joined = artin_join(f, g)
        af, ag = artin_like_action(f), artin_like_action(g)
        for h in central_idempotent_homs(sl2, sl3):
            cand = artin_like_action(h)
            if lambda_action_leq(af, cand) and lambda_action_leq(ag, cand):
                assert lambda_action_leq(joined, cand)


class TestEnumeration:
    # Golden counts, frozen from the brute-force filter over every
    # function H x N -> N.
    GOLDEN_COUNTS = {
        ("c2", "c2"): 1,
        ("sl2", "sl2"): 3,
        ("sl3", "sl2"): 8,
        ("sl2", "sl3"): 5,
        ("sl2", "c2"): 1,
        ("c2", "sl2"): 2,
    }

    def test_endomorphisms_of_chain(self, sl2):
        assert semigroup_endomorphisms(sl2) == ((0, 0), (0, 1), (1, 1))

    def test_endomorphisms_match_reference(self):
        # the size-5 commutative idempotent monoids complete the catalog; the
        # smaller ones are in it up to isomorphism already
        rng = random.Random(20200507)
        monoids = catalog_monoids(4) + tuple(
            M for M in commutative_idempotent_monoids(5) if M.size == 5
        )
        for M in monoids:
            for X in (M, relabelled(M, rng)):
                assert semigroup_endomorphisms(X) == reference_semigroup_endomorphisms(X)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_endomorphisms_of_chains_are_counted(self, n):
        # an endomorphism of the n-chain is a monotone self-map, and there
        # are C(2n - 1, n) of those
        assert len(semigroup_endomorphisms(chain_lattice(n))) == math.comb(2 * n - 1, n)

    @pytest.mark.parametrize("n_name,h_name", sorted(GOLDEN_COUNTS))
    def test_counts_match_brute_force(self, n_name, h_name, request, enum_cache):
        N = request.getfixturevalue(n_name)
        H = request.getfixturevalue(h_name)
        actions = enum_cache.inverse_actions(N, H)
        assert len(actions) == self.GOLDEN_COUNTS[(n_name, h_name)]
        assert sorted(a.act for a in actions) == sorted(naive_inverse_actions(N, H))

    def test_every_action_builds(self, enum_cache, sl3, sl2):
        for a in enum_cache.inverse_actions(sl3, sl2):
            lam = lambda_product(a)
            assert lam.extension.verified

    def test_bound_enforced(self, sl2):
        n_inv = inverse_structure(sl2).value
        with pytest.raises(BoundExceeded) as info:
            enumerate_inverse_actions(n_inv, n_inv, max_candidates=1)
        assert info.value.estimate > 1

    def test_matches_reference_on_catalog(self):
        catalog = catalog_inverse_monoids(4)
        for N in catalog:
            for H in catalog:
                assert enumerate_inverse_actions(N, H) == reference_inverse_actions(N, H)

    def test_matches_reference_on_relabelled_small_pairs(self):
        rng = random.Random(20200505)

        def relabel(M):
            rest = [a for a in M.elements if a != M.identity]
            image = rest[:]
            rng.shuffle(image)
            p = list(M.elements)
            for a, b in zip(rest, image):
                p[a] = b
            table = [[0] * M.size for _ in M.elements]
            for a in M.elements:
                for b in M.elements:
                    table[p[a]][p[b]] = p[M.table[a][b]]
            M2 = FiniteMonoid(M.size, M.identity, tuple(map(tuple, table)))
            return inverse_structure(M2).expect("relabelled")

        small = [S.base for S in catalog_inverse_monoids(3)]
        for N in small:
            for H in small:
                N2, H2 = relabel(N), relabel(H)
                assert enumerate_inverse_actions(N2, H2) == reference_inverse_actions(N2, H2)

    def test_bound_matches_reference(self, sl3, sl2):
        N = inverse_structure(sl3).value
        H = inverse_structure(direct_product(sl2, sl2)).value
        gens, _ = generating_plan(H.base)
        estimate = len(semigroup_endomorphisms(sl3)) ** len(gens)
        assert len(gens) == 2
        # at cap 1 End(N) is drawn until 2 maps exceed it, then one more: at
        # least 3 ** 2; at estimate - 1 the last map exceeds it, so it is exact
        for cap, bound in ((1, 3 ** 2), (estimate - 1, estimate)):
            with pytest.raises(BoundExceeded) as new:
                enumerate_inverse_actions(N, H, max_candidates=cap)
            with pytest.raises(BoundExceeded) as ref:
                reference_inverse_actions(N, H, max_candidates=cap)
            assert new.value.estimate == bound and ref.value.estimate == estimate
            assert str(new.value) == ("at least " if bound < estimate else "") + (
                "%d candidate assignments exceed cap %d" % (bound, cap)
            )
            assert str(ref.value) == "%d candidate assignments exceed cap %d" % (estimate, cap)
        assert enumerate_inverse_actions(N, H, max_candidates=estimate) == (
            reference_inverse_actions(N, H, max_candidates=estimate)
        )

    def test_bound_is_checked_before_end_n_is_built(self, sl2, t1, monkeypatch):
        # End of the 8-chain is far past cap 10: the refusal comes after the
        # 11th map, and one more map shows that 12 is only a lower bound
        N = inverse_structure(chain_lattice(8)).value
        real, drawn = lambda_module._hom_search, []

        def counted(A, *args, **kwargs):
            for f in real(A, *args, **kwargs):
                drawn.append(A)
                yield f

        monkeypatch.setattr(lambda_module, "_hom_search", counted)
        with pytest.raises(BoundExceeded, match="^at least 12 candidate assignments exceed cap 10$"):
            enumerate_inverse_actions(N, inverse_structure(sl2).value, max_candidates=10)
        assert len(drawn) <= 12 and set(drawn) == {N.base}
        drawn.clear()
        assert len(enumerate_inverse_actions(N, inverse_structure(t1).value)) == 1
        assert N.base not in drawn

    def test_trivial_h_builds_no_endomorphisms(self, sl3, t1, monkeypatch):
        # a trivial H has no generators, so End(N) is never read
        N = inverse_structure(sl3).value
        H = inverse_structure(t1).value
        built = []

        def counted(M):
            built.append(M)
            return semigroup_endomorphisms(M)

        monkeypatch.setattr(lambda_module, "semigroup_endomorphisms", counted)
        actions = enumerate_inverse_actions(N, H)
        assert [a.act for a in actions] == [(tuple(sl3.elements),)]
        with pytest.raises(BoundExceeded, match="^1 candidate assignments exceed cap 0$"):
            enumerate_inverse_actions(N, H, max_candidates=0)
        assert built == []

    def test_plan_of_h_is_built_once(self, sl3, sl2, monkeypatch):
        N = inverse_structure(sl3).value
        H = inverse_structure(direct_product(sl2, sl2)).value
        planned = []

        def counted(M):
            planned.append(M)
            return generating_plan(M)

        for module in (monoid_module, lambda_module):
            monkeypatch.setattr(module, "generating_plan", counted)
        actions = enumerate_inverse_actions(N, H)
        assert planned.count(H.base) == 1
        monkeypatch.undo()
        assert actions == reference_inverse_actions(N, H)
