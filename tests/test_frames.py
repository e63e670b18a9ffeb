import gc
import importlib
import random
import weakref
from collections import Counter

import pytest

from conftest import (
    downset_frames,
    fresh,
    naive_is_hom,
    non_distributive_lattices,
    reference_check_frame,
    reference_frame_laws,
    reference_glueing_equals_lambda,
    reference_hom_violation,
    reference_waction_leq,
    relabelled,
)
from wschreier.catalog import (
    all_homs,
    all_monoid_tables,
    catalog_monoids,
    chain_lattice,
    commutative_idempotent_monoids,
    cyclic_group,
    diamond_lattice,
    m3_lattice,
    right_zero_adjoined,
)
from wschreier.extension import extension_morphism, find_retraction
from wschreier.frames import (
    artin_glueing,
    check_frame,
    glueing_equals_lambda,
    glueing_join,
)
from wschreier.io import serialize_monoid
from wschreier.lambda_product import (
    InverseAction,
    artin_like_action,
    join_hom,
    lambda_action_leq,
    lambda_product,
    waction_of,
)
from wschreier.monoid import (
    ConsistencyError,
    FiniteMonoid,
    MonoidHom,
    PreconditionError,
    Violation,
    canonical_form,
    identity_hom,
)
from wschreier.waction import DEFAULT_BOUND, enumerate_wactions, waction_leq


# the package exports functions named like these modules
frames_mod = importlib.import_module("wschreier.frames")
lambda_mod = importlib.import_module("wschreier.lambda_product")


def counting(monkeypatch, module, name):
    """Replace module.name by a wrapper that counts its calls."""
    real = getattr(module, name)
    calls = []

    def wrapper(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(module, name, wrapper)
    return calls


class TestCheckFrame:
    def test_table_that_is_not_associative_is_a_precondition_error(self):
        """Commutative and idempotent, but the product of two distinct
        elements other than the identity 0 is 0: (1 * 1) * 2 = 0 and
        1 * (1 * 2) = 1.  No element lies below all the others."""
        M = FiniteMonoid(4, 0, ((0, 1, 2, 3), (1, 1, 0, 0), (2, 0, 2, 0), (3, 0, 0, 3)))
        with pytest.raises(PreconditionError, match="^frame laws of a table that is not assoc"):
            check_frame(M)

    def test_chains_are_frames(self):
        for k in (1, 2, 3, 4):
            verdict = check_frame(chain_lattice(k))
            assert verdict.ok
            frame = verdict.value
            assert frame.top == 0
            assert frame.bottom == k - 1

    def test_diamond_is_a_frame(self):
        verdict = check_frame(diamond_lattice())
        assert verdict.ok
        frame = verdict.value
        assert frame.bottom == 3
        assert frame.join[1][2] == 0  # x v y = top
        assert frame.meet(1, 2) == 3  # x ^ y = bottom

    def test_m3_is_not_distributive(self):
        verdict = check_frame(m3_lattice())
        assert not verdict.ok
        assert verdict.violations[0].law == "distributive"

    def test_group_is_not_idempotent(self):
        verdict = check_frame(cyclic_group(2))
        assert not verdict.ok
        assert verdict.violations[0].law == "idempotent"

    def test_right_zero_is_not_commutative(self):
        verdict = check_frame(right_zero_adjoined(2))
        assert not verdict.ok
        assert verdict.violations[0].law == "commutative"

    def test_frame_counts_in_catalog(self):
        # among commutative idempotent monoids, only the non-distributive
        # five-element lattices (the diamond M3 and the pentagon N5) fail
        sizes = Counter(
            M.size for M in commutative_idempotent_monoids(5) if check_frame(M).ok
        )
        assert dict(sizes) == {1: 1, 2: 1, 3: 1, 4: 2, 5: 3}

    def test_below_and_order(self, sl3):
        frame = check_frame(sl3).value
        assert frame.below(2, 0) and frame.below(2, 1) and frame.below(1, 0)
        assert not frame.below(0, 1)


def _reference_inputs():
    small_frames = [M for M in commutative_idempotent_monoids(4) if check_frame(M).ok]
    glued = [
        artin_glueing(f)[0].base
        for H in small_frames
        for N in small_frames
        for f in all_homs(H, N)
    ]
    monoids = list(catalog_monoids(4)) + list(commutative_idempotent_monoids(5)) + glued
    rng = random.Random(20)
    return monoids + [relabelled(M, rng) for M in monoids]


class TestCheckFrameMatchesReference:
    def test_same_verdict_and_first_violation(self):
        inputs = _reference_inputs()
        assert len(inputs) == 2 * (45 + 10 + 145)
        laws = Counter()
        for M in inputs:
            verdict = check_frame(fresh(M))
            assert verdict == reference_check_frame(M), M.table
            laws[verdict.violations[0].law if verdict.violations else "ok"] += 1
        assert laws["distributive"] > 0 and laws["commutative"] > 0
        assert laws["idempotent"] > 0 and laws["ok"] > 0


@pytest.fixture(scope="module")
def lattices6():
    """The 25 commutative idempotent monoids of size at most 6: the finite
    lattices, 5 of size 5 and 15 of size 6; 13 of them are distributive."""
    return commutative_idempotent_monoids(6)


class TestFrameLawsMatchReference:
    """_frame_laws decides distributivity by meet-primes and check_frame
    reads its verdict; both name the brute-force oracle's first violation."""

    @staticmethod
    def assert_agree(M):
        expected = reference_frame_laws(M)
        assert frames_mod._frame_laws(M) == expected, M.table
        assert check_frame(fresh(M)).violations == (() if expected is None else (expected,))
        return expected

    def test_on_the_lattices_of_size_at_most_6(self, lattices6):
        laws = Counter()
        for M in lattices6:
            expected = self.assert_agree(M)
            laws[expected.law if expected else "ok"] += 1
        assert laws == {"ok": 13, "distributive": 12}

    def test_meet_primes_decide_distributivity(self, lattices6):
        """The meet-prime test alone gives the oracle's verdict on every
        lattice, identity 0 or not, so a pass needs no triple loop."""
        rng = random.Random(29)
        for M in list(lattices6) + [relabelled(M, rng) for M in lattices6]:
            distributive = reference_frame_laws(M) is None
            assert frames_mod._meet_primes(M.table, M.identity) == distributive, M.table

    def test_join_table_built_only_on_a_failure(self, monkeypatch, lattices6):
        """_frame_laws builds the order data only for a violation, and
        check_frame builds it once either way."""
        orders = counting(monkeypatch, frames_mod, "_order")
        for M in lattices6:
            del orders[:]
            failed = frames_mod._frame_laws(M) is not None
            assert len(orders) == failed
            check_frame(fresh(M))
            assert len(orders) == failed + 1

    def test_on_non_distributive_lattices_past_size_6(self):
        """The meet-prime failure path on lattices the catalog's table search
        cannot reach: M3 and N5 with a chain stacked on them, and their
        products with C2, each under seeded relabellings."""
        rng = random.Random(30)
        lattices = non_distributive_lattices()
        assert sorted(M.size for M in lattices) == [7, 7, 7, 7, 8, 8, 8, 8, 10, 10]
        for M in lattices:
            for copy in [M] + [relabelled(M, rng) for _ in range(2)]:
                assert self.assert_agree(copy).law == "distributive", copy.table
                assert not frames_mod._meet_primes(copy.table, copy.identity)

    def test_on_every_monoid_table_of_size_at_most_4(self):
        laws = Counter()
        for n in range(1, 5):
            for table in all_monoid_tables(n):
                expected = self.assert_agree(FiniteMonoid(n, 0, table))
                laws[expected.law if expected else "ok"] += 1
        assert laws == {"idempotent": 107, "commutative": 50, "ok": 13}


class TestClauseWitnesses:
    # (law, table, check_frame's witness): a monoid table that breaks this
    # clause of check_frame and no other.  Distributivity is stated only on a
    # lattice, so the first two break one of idempotence and commutativity
    # and keep the other; M3 and the pentagon N5 are lattices.  The first two
    # are the smallest by brute force over all_monoid_tables, and the lattices
    # are the labelled ones of commutative_idempotent_monoids(5).
    CASES = [
        ("idempotent", ((0, 1), (1, 0)), (1,)),
        ("commutative", ((0, 1, 2), (1, 1, 2), (2, 1, 2)), (1, 2)),
        ("distributive",
         ((0, 1, 2, 3, 4), (1, 1, 1, 1, 1), (2, 1, 2, 1, 1), (3, 1, 1, 3, 1), (4, 1, 1, 1, 4)),
         (2, 3, 4)),
        ("distributive",
         ((0, 1, 2, 3, 4), (1, 1, 1, 1, 1), (2, 1, 2, 1, 1), (3, 1, 1, 3, 3), (4, 1, 1, 3, 4)),
         (4, 2, 3)),
    ]

    @staticmethod
    def broken_laws(M):
        """The clauses that fail, each stated on its own over every instance;
        distributivity through the oracle's least upper bounds."""
        t, xs = M.table, M.elements
        broken = set()
        if any(t[a][a] != a for a in xs):
            broken.add("idempotent")
        if any(t[a][b] != t[b][a] for a in xs for b in xs):
            broken.add("commutative")
        if not broken and reference_frame_laws(M) is not None:
            broken.add("distributive")
        return broken

    @pytest.mark.parametrize("law, table, witness", CASES, ids=["idempotent", "commutative", "m3", "n5"])
    def test_clause_fails_alone(self, law, table, witness):
        M = FiniteMonoid(len(table), 0, table)
        assert self.broken_laws(M) == {law}
        assert check_frame(M).violations == (Violation(law, witness),)
        assert frames_mod._frame_laws(fresh(M)) == reference_frame_laws(M) == Violation(law, witness)


class TestBirkhoffFrames:
    def test_downset_frames_are_the_catalog_frames(self, lattices6):
        """Every finite frame is the lattice of down-sets of a finite poset:
        the down-set frames of size at most 6 are, up to isomorphism, the
        lattices of that size that pass check_frame (OEIS A006982)."""
        frames = downset_frames(6)
        assert [M.size for M in frames] == [1, 2, 3, 4, 4, 5, 5, 5] + [6] * 5
        assert all(check_frame(M).ok for M in frames)
        catalog = [M for M in lattices6 if check_frame(M).ok]
        assert sorted(map(canonical_form, frames)) == sorted(map(canonical_form, catalog))


class TestValidateOnce:
    def test_second_call_matches_a_fresh_instance(self):
        M = diamond_lattice()
        first = check_frame(M)
        second = check_frame(M)
        assert second == first == check_frame(fresh(M))
        assert second.value is not first.value
        assert second.value.base is M

    def test_frame_laws_run_once_per_instance(self, monkeypatch):
        calls = counting(monkeypatch, frames_mod, "_frame_laws")
        M = fresh(diamond_lattice())
        for _ in range(3):
            assert check_frame(M).ok
        assert len(calls) == 1
        assert check_frame(fresh(M)).ok
        assert len(calls) == 2

    def test_non_frame_reports_its_violation_on_every_call(self, sl2):
        M = fresh(m3_lattice())
        f = MonoidHom(sl2, M, (0, 0))
        for _ in range(3):
            verdict = check_frame(M)
            assert [v.law for v in verdict.violations] == ["distributive"]
            with pytest.raises(PreconditionError, match=r"check_frame\(target\) failed"):
                glueing_join(f, f)

    def test_meet_hom_checked_once_and_join_on_every_call(self, monkeypatch, sl2, sl3):
        f = MonoidHom(sl2, sl3, (0, 1))
        g = MonoidHom(sl2, sl3, (0, 2))
        frame_checks = counting(monkeypatch, frames_mod, "_hom_laws")
        join_checks = counting(monkeypatch, lambda_mod, "check_hom")
        for _ in range(3):
            assert glueing_join(f, g).map == (0, 2)
        assert len(frame_checks) == 2
        assert len(join_checks) == 3
        assert glueing_join(MonoidHom(sl2, sl3, (0, 1)), g).map == (0, 2)
        assert len(frame_checks) == 3

    def test_marked_homs_skip_the_frame_lookups(self, monkeypatch, sl2, sl3):
        f = MonoidHom(fresh(sl2), fresh(sl3), (0, 1))
        g = MonoidHom(f.source, f.target, (0, 2))
        assert glueing_join(f, g).map == (0, 2)
        lookups = counting(monkeypatch, frames_mod, "_frame_data")
        for _ in range(3):
            assert glueing_join(f, g).map == (0, 2)
            assert glueing_join(g, f).map == (0, 2)
        assert lookups == []
        # an unmarked hom over the same frames looks both ends up again
        assert glueing_join(MonoidHom(f.source, f.target, (0, 1)), g).map == (0, 2)
        assert len(lookups) == 2

    def test_failed_hom_check_is_repeated(self, monkeypatch, sl3, sl2):
        f = MonoidHom(sl3, sl2, (0, 1, 0))
        calls = counting(monkeypatch, frames_mod, "_hom_laws")
        for _ in range(3):
            with pytest.raises(PreconditionError, match="check_hom failed: hom-mul"):
                glueing_join(f, f)
        assert len(calls) == 3

    def test_glued_frame_is_checked_on_every_glueing(self, monkeypatch, sl2, sl3):
        f = MonoidHom(sl2, sl3, (0, 1))
        artin_glueing(f)
        calls = counting(monkeypatch, frames_mod, "_frame_laws")
        for _ in range(3):
            artin_glueing(f)
        assert len(calls) == 3

    def test_cache_is_invisible(self):
        M = diamond_lattice()
        before = (hash(M), repr(M), serialize_monoid(M, "d"))
        check_frame(M)
        artin_glueing(identity_hom(M))
        other = fresh(M)
        assert M == other and other == M
        assert (hash(M), repr(M), serialize_monoid(M, "d")) == before
        assert (hash(other), repr(other), serialize_monoid(other, "d")) == before
        f = MonoidHom(M, M, tuple(M.elements))
        h = MonoidHom(M, M, tuple(M.elements))
        glueing_join(f, f)
        assert f == h and hash(f) == hash(h) and repr(f) == repr(h)

    def test_cache_makes_no_reference_cycle(self):
        gc.collect()
        gc.disable()
        try:
            M = fresh(diamond_lattice())
            f = identity_hom(M)
            assert check_frame(M).ok
            glueing_join(f, f)
            refs = weakref.ref(M), weakref.ref(f)
            del M, f
            assert [r() for r in refs] == [None, None]
        finally:
            gc.enable()


class TestArtinGlueing:
    def test_identity_glueing_is_chain(self, sl2):
        frame, ext = artin_glueing(identity_hom(sl2))
        assert ext.G.size == 3
        assert frame.bottom == 2
        assert ext.verified
        assert find_retraction(ext).ok

    def test_glueing_carrier_pairs(self, sl2, sl3):
        f = MonoidHom(sl2, sl3, (0, 1))
        frame, ext = artin_glueing(f)
        assert ext.G.size == 5
        labels = [ext.G.label(g) for g in ext.G.elements]
        assert labels == ["(1,1)", "(a,1)", "(0,1)", "(a,0)", "(0,0)"]

    def test_glueing_of_zero_map(self, sl2, sl3):
        # f = const top glues in the direct-product shape
        f = MonoidHom(sl2, sl3, (0, 0))
        frame, ext = artin_glueing(f)
        assert ext.G.size == 6

    def test_requires_frames(self, c2):
        with pytest.raises(PreconditionError):
            artin_glueing(identity_hom(c2))

    def test_requires_meet_hom(self, sl3, sl2):
        # f(a * 0) = f(0) = top but f(a) * f(0) = bottom
        with pytest.raises(PreconditionError):
            artin_glueing(MonoidHom(sl3, sl2, (0, 1, 0)))

    def test_carrier_failing_frame_laws_is_internal(self, sl2, sl3, broken_frame_laws):
        message = "^glueing carrier fails frame laws: distributive: 0 1 2$"
        with pytest.raises(ConsistencyError, match=message):
            artin_glueing(MonoidHom(sl2, sl3, (0, 1)))


class TestGlueingEqualsLambda:
    def test_on_chain_homs(self, sl2, sl3):
        for f in all_homs(sl2, sl3):
            assert glueing_equals_lambda(f)
        for f in all_homs(sl3, sl2):
            assert glueing_equals_lambda(f)

    def test_on_diamond(self, sl2):
        for f in all_homs(sl2, diamond_lattice()):
            assert glueing_equals_lambda(f)

    def test_rejects_non_frame(self, c2):
        with pytest.raises(PreconditionError):
            glueing_equals_lambda(identity_hom(c2))

    def test_each_action_is_checked_once(self, monkeypatch, sl2, sl3):
        """artin_like_action keeps the passed check on the action it returns,
        so lambda_product does not repeat it; an action built directly is
        checked on every lambda_product."""
        calls = counting(monkeypatch, lambda_mod, "check_inverse_action")
        homs = all_homs(sl2, sl3) + all_homs(sl3, sl2)
        for f in homs:
            assert glueing_equals_lambda(f)
        assert len(calls) == len(homs)
        a = artin_like_action(homs[0])
        direct = InverseAction(a.N, a.H, a.act)
        for _ in range(2):
            lambda_product(direct)
        assert len(calls) == len(homs) + 3

    def test_agrees_with_two_builds_on_catalog_frames(self):
        frames = [M for M in commutative_idempotent_monoids(5) if check_frame(M).ok]
        homs = [f for H in frames for N in frames for f in all_homs(H, N)]
        assert len(frames) == 8 and len(homs) == 1093
        for f in homs:
            assert (glueing_equals_lambda(f), reference_glueing_equals_lambda(f)) == (True, True)

    def test_one_build_and_one_frame_check_per_call(self, monkeypatch, sl2, sl3):
        """The lambda product is the one extension built, and the glued frame
        laws run once, on it; artin_glueing still builds its own."""
        diamond = diamond_lattice()
        for M in (sl2, sl3, diamond):
            assert check_frame(M).ok
        homs = all_homs(sl2, sl3) + all_homs(sl3, sl2) + all_homs(sl2, diamond)
        glued = counting(monkeypatch, frames_mod, "_extension_on_carrier")
        built = counting(monkeypatch, lambda_mod, "_extension_on_carrier")
        laws = counting(monkeypatch, frames_mod, "_frame_laws")
        for f in homs:
            assert glueing_equals_lambda(f)
        assert (len(glued), len(built), len(laws)) == (0, len(homs), len(homs))
        for f in homs:
            artin_glueing(f)
        assert (len(glued), len(built), len(laws)) == (len(homs), len(homs), 2 * len(homs))

    @pytest.mark.parametrize("part", ["carrier", "products", "s"])
    def test_changed_glueing_part_is_false(self, monkeypatch, sl2, sl3, part):
        """One pair of the glueing's parts changed: False, with no second
        build and no frame check."""
        real = frames_mod._glueing_parts

        def changed(f):
            carrier, products, s = real(f)
            if part == "carrier":
                carrier = (carrier[1], carrier[0]) + carrier[2:]
            elif part == "products":
                products[2][3] = next(p for p in carrier if p != products[2][3])
            else:
                s[1] = next(p for p in carrier if p != s[1])
            return carrier, products, s

        f = MonoidHom(sl2, sl3, (0, 1))
        assert glueing_equals_lambda(f)
        monkeypatch.setattr(frames_mod, "_glueing_parts", changed)
        glued = counting(monkeypatch, frames_mod, "_extension_on_carrier")
        built = counting(monkeypatch, lambda_mod, "_extension_on_carrier")
        laws = counting(monkeypatch, frames_mod, "_frame_laws")
        assert glueing_equals_lambda(f) is False
        assert (len(glued), len(built), len(laws)) == (0, 1, 0)

    def test_carrier_failing_frame_laws_is_internal(self, sl2, sl3, broken_frame_laws):
        message = "^glueing carrier fails frame laws: distributive: 0 1 2$"
        with pytest.raises(ConsistencyError, match=message):
            glueing_equals_lambda(MonoidHom(sl2, sl3, (0, 1)))


class TestGlueingJoin:
    def test_pointwise_meet(self, sl2, sl3):
        f = MonoidHom(sl2, sl3, (0, 1))
        g = MonoidHom(sl2, sl3, (0, 2))
        assert glueing_join(f, g).map == (0, 2)

    def test_join_is_upper_bound_of_glueings(self, sl2, sl3):
        f = MonoidHom(sl2, sl3, (0, 1))
        g = MonoidHom(sl2, sl3, (0, 2))
        _, ext_f = artin_glueing(f)
        _, ext_g = artin_glueing(g)
        _, ext_j = artin_glueing(glueing_join(f, g))
        assert extension_morphism(ext_f, ext_j) is not None
        assert extension_morphism(ext_g, ext_j) is not None

    def test_requires_frames(self, c2, sl2):
        with pytest.raises(PreconditionError):
            glueing_join(identity_hom(c2), identity_hom(c2))


@pytest.fixture(scope="module")
def small_frame_pairs():
    """Every ordered pair (H, N) of the frames of size <= 4 with their homs:
    the reduced glueing_join workload of the benchmark."""
    frames = [M for M in commutative_idempotent_monoids(4) if check_frame(M).ok]
    return [(H, N, all_homs(H, N)) for H in frames for N in frames]


class TestJoinOracle:
    """Each join item of the reduced workload against the brute-force
    oracles: the pointwise meet, the naive hom test, the pair-loop order and
    the first broken hom law."""

    def test_joins_and_order_match_the_references(self, small_frame_pairs):
        homs_seen = items = compared = 0
        for H, N, homs in small_frame_pairs:
            homs_seen += len(homs)
            enum = enumerate_wactions(N, H) if N.size * H.size <= DEFAULT_BOUND else ()
            wact = {f.map: waction_of(artin_like_action(f)) for f in homs}
            for f in homs:
                for g in homs:
                    j = glueing_join(f, g)
                    meet = tuple([N.mul(f(h), g(h)) for h in H.elements])
                    assert type(j.map) is tuple and j.map == meet
                    assert naive_is_hom(H, N, j.map)
                    pf, pg, pj = wact[f.map], wact[g.map], wact[j.map]
                    assert reference_waction_leq(pf, pj) and reference_waction_leq(pg, pj)
                    checks = [(pf, pj), (pg, pj), (pj, pf), (pj, pg)]
                    checks += [(q, p) for p in enum for q in (pf, pg, pj)]
                    for p1, p2 in checks:
                        assert waction_leq(p1, p2) == reference_waction_leq(p1, p2)
                    compared += len(checks)
                    items += 1
        assert (homs_seen, items, compared) == (145, 1661, 15695)

    def test_non_hom_mutants_of_g_are_refused(self, small_frame_pairs):
        rng = random.Random(41)
        refused, meets = Counter(), Counter()
        for H, N, homs in small_frame_pairs:
            for f in homs:
                for g in homs:
                    h, v = rng.randrange(H.size), rng.randrange(N.size)
                    m = g.map[:h] + (v,) + g.map[h + 1 :]
                    first = reference_hom_violation(H, N, m)
                    if first is None:
                        continue  # g itself or another hom
                    bad = MonoidHom(H, N, m)
                    for _ in range(2):  # a failed check is not kept
                        with pytest.raises(PreconditionError) as info:
                            glueing_join(f, bad)
                        assert str(info.value) == "check_hom failed: " + first
                    meet = tuple([N.mul(f(x), m[x]) for x in H.elements])
                    first_meet = reference_hom_violation(H, N, meet)
                    if first_meet is None:
                        assert join_hom(f, bad).map == meet
                    else:
                        with pytest.raises(PreconditionError) as info:
                            join_hom(f, bad)
                        assert str(info.value) == "join_hom failed: " + first_meet
                    refused[first.split(":")[0]] += 1
                    meets[first_meet and first_meet.split(":")[0]] += 1
        # 812 refused and 517 refused meets with this seed
        assert set(refused) == {"hom-identity", "hom-mul"} and sum(refused.values()) > 500
        assert set(meets) == {None, "hom-identity", "hom-mul"}


class TestDuality:
    def test_pointwise_order_reverses_action_order(self, sl2, sl3):
        frame_n = check_frame(sl3).value
        homs = all_homs(sl2, sl3)
        for f in homs:
            for g in homs:
                pointwise = all(
                    frame_n.leq[f.map[h]][g.map[h]] for h in sl2.elements
                )
                reversed_actions = lambda_action_leq(
                    artin_like_action(g), artin_like_action(f)
                )
                assert pointwise == reversed_actions
