import importlib

import pytest

import wschreier.monoid as monoid_mod
from conftest import (
    extension_mutants,
    naive_weakly_schreier,
    outcome,
    reference_extension_morphism,
    reference_retraction_candidates,
    reference_verify_split_extension,
)
from wschreier.catalog import (
    catalog_inverse_monoids,
    catalog_monoids,
    chain_lattice,
    cyclic_group,
    trivial_monoid,
)
from wschreier.extension import (
    SchreierRetraction,
    SplitExtension,
    _extension_on_carrier,
    all_retractions,
    direct_product_extension,
    extension_morphism,
    extensions_equivalent,
    find_retraction,
    retraction_candidates,
    verify_split_extension,
)
from wschreier.frames import artin_glueing
from wschreier.lambda_product import enumerate_inverse_actions, lambda_product
from wschreier.monoid import (
    BoundExceeded,
    ConsistencyError,
    FormatError,
    MonoidHom,
    PreconditionError,
    check_hom,
    direct_product,
    identity_hom,
)
from wschreier.waction import DEFAULT_BOUND, build_extension, enumerate_wactions, extract_waction

# the package exports a function named like this module
extension_mod = importlib.import_module("wschreier.extension")


@pytest.fixture(scope="module")
def product_ext(sl2):
    return verify_split_extension(direct_product_extension(sl2, sl2)).expect(
        "product extension"
    )


@pytest.fixture(scope="module")
def glued_chain(sl2):
    """The 3-chain as an extension of the 2-chain by the 2-chain, via the
    glueing along the identity map."""
    _, ext = artin_glueing(identity_hom(sl2))
    return ext


@pytest.fixture(scope="module")
def diagonal_section(sl2):
    """A verified extension that is not weakly Schreier: the product monoid
    with the second projection but the diagonal section."""
    G = direct_product(sl2, sl2)
    k = MonoidHom(sl2, G, (0, 2))
    e = MonoidHom(G, sl2, (0, 1, 0, 1))
    s = MonoidHom(sl2, G, (0, 3))
    return verify_split_extension(SplitExtension(sl2, G, sl2, k, e, s)).expect(
        "diagonal extension"
    )


class TestVerify:
    def test_direct_product_verifies(self, product_ext):
        assert verify_split_extension(product_ext).value is product_ext

    def test_section_violation(self, sl2):
        G = direct_product(sl2, sl2)
        k = MonoidHom(sl2, G, (0, 2))
        e = MonoidHom(G, sl2, (0, 1, 0, 1))
        s = MonoidHom(sl2, G, (0, 2))  # lands in the kernel
        verdict = verify_split_extension(SplitExtension(sl2, G, sl2, k, e, s))
        assert not verdict.ok
        assert verdict.violations[0].law == "section"

    def test_kernel_injectivity_violation(self, sl2):
        G = direct_product(sl2, sl2)
        k = MonoidHom(sl2, G, (0, 0))
        e = MonoidHom(G, sl2, (0, 1, 0, 1))
        s = MonoidHom(sl2, G, (0, 1))
        verdict = verify_split_extension(SplitExtension(sl2, G, sl2, k, e, s))
        assert not verdict.ok
        assert verdict.violations[0].law in ("kernel-injective", "kernel-image")

    def test_kernel_image_violation(self, sl2):
        G = direct_product(sl2, sl2)
        t1 = trivial_monoid()
        k = MonoidHom(t1, G, (0,))
        e = MonoidHom(G, sl2, (0, 1, 0, 1))
        s = MonoidHom(sl2, G, (0, 1))
        verdict = verify_split_extension(SplitExtension(t1, G, sl2, k, e, s))
        assert not verdict.ok
        assert verdict.violations[0].law == "kernel-image"

    def test_cokernel_violation(self, sl2, sl3):
        t1 = trivial_monoid()
        k = MonoidHom(t1, sl3, (0,))
        e = MonoidHom(sl3, sl2, (0, 1, 1))
        s = MonoidHom(sl2, sl3, (0, 1))
        verdict = verify_split_extension(SplitExtension(t1, sl3, sl2, k, e, s))
        assert not verdict.ok
        assert verdict.violations[0].law == "cokernel"

    def test_composability_checked_at_construction(self, sl2, sl3):
        G = direct_product(sl2, sl2)
        with pytest.raises(FormatError):
            SplitExtension(
                sl2,
                G,
                sl2,
                MonoidHom(sl3, G, (0, 1, 3)),
                MonoidHom(G, sl2, (0, 1, 0, 1)),
                MonoidHom(sl2, G, (0, 1)),
            )


class TestRetraction:
    def test_direct_product_is_schreier(self, product_ext):
        verdict = find_retraction(product_ext)
        assert verdict.ok
        r = verdict.value
        assert r.unique
        assert r.q == (0, 0, 1, 1)

    def test_retraction_factors_every_element(self, product_ext, glued_chain):
        for ext in (product_ext, glued_chain):
            r = find_retraction(ext).value
            t = ext.G.table
            for g in ext.G.elements:
                assert t[ext.k.map[r.q[g]]][ext.s.map[ext.e.map[g]]] == g

    def test_weakly_schreier_failure_witness(self, diagonal_section):
        verdict = find_retraction(diagonal_section)
        assert not verdict.ok
        violation = verdict.violations[0]
        assert violation.law == "weakly-schreier"
        (g,) = violation.witness
        assert diagonal_section.e.map[g] == 1  # the unreachable fiber
        assert not naive_weakly_schreier(diagonal_section)

    def test_naive_oracle_agrees(self, product_ext, glued_chain):
        for ext in (product_ext, glued_chain):
            assert naive_weakly_schreier(ext)
            assert find_retraction(ext).ok

    def test_glued_chain_is_weakly_but_not_schreier(self, glued_chain):
        # (1, bot) factors through n = 1 and n = bot alike
        verdict = find_retraction(glued_chain)
        assert verdict.ok
        assert not verdict.value.unique
        cands = retraction_candidates(glued_chain)
        assert max(len(c) for c in cands) > 1

    def test_all_retractions_counts(self, product_ext, glued_chain):
        assert len(list(all_retractions(product_ext))) == 1
        rs = list(all_retractions(glued_chain))
        assert len(rs) == 2
        # the bottom of the chain factors through either n
        qs = sorted(r.q for r in rs)
        assert qs == [(0, 1, 0), (0, 1, 1)]

    def test_all_retractions_of_a_non_weakly_schreier_extension(self, diagonal_section):
        assert all_retractions(diagonal_section) == ()

    def test_all_retractions_limit(self, glued_chain):
        with pytest.raises(ValueError):
            list(all_retractions(glued_chain, limit=1))

    def test_all_retractions_refusal_is_bound_exceeded(self, glued_chain):
        with pytest.raises(BoundExceeded) as info:
            all_retractions(glued_chain, limit=1)
        assert isinstance(info.value, ValueError)
        assert info.value.estimate == 2
        assert str(info.value) == "2 retractions exceed limit 1"

    def test_invalid_retraction_rejected(self, glued_chain):
        with pytest.raises(FormatError):
            SchreierRetraction(glued_chain, (1, 0, 0))

    @pytest.mark.parametrize("bad", [0.0, False, 1.0, True])
    def test_non_int_retraction_value_rejected(self, product_ext, bad):
        # (0, 0, 1, 1) is the retraction; an equal float or bool is not
        q = list(find_retraction(product_ext).value.q)
        q[q.index(int(bad))] = bad
        with pytest.raises(FormatError, match="retraction value %r out of range" % (bad,)):
            SchreierRetraction(product_ext, tuple(q))

    def test_trivial_kernel_retraction_is_constant(self, sl2):
        t1 = trivial_monoid()
        ext = verify_split_extension(direct_product_extension(t1, sl2)).value
        r = find_retraction(ext).value
        assert r.q == (0, 0)
        assert r.unique


class TestMorphism:
    def test_product_maps_onto_glued_chain(self, product_ext, glued_chain):
        f = extension_morphism(product_ext, glued_chain)
        assert f is not None
        # collapses (top, bot) and (bot, bot) onto the bottom of the chain
        assert f.map == (0, 2, 1, 2)

    def test_no_morphism_back(self, product_ext, glued_chain):
        assert extension_morphism(glued_chain, product_ext) is None

    def test_not_equivalent(self, product_ext, glued_chain):
        assert not extensions_equivalent(product_ext, glued_chain)

    def test_self_morphism_is_identity(self, product_ext):
        f = extension_morphism(product_ext, product_ext)
        assert f.map == tuple(product_ext.G.elements)
        assert extensions_equivalent(product_ext, product_ext)

    def test_mismatched_base_pair_rejected(self, product_ext, sl3):
        other = verify_split_extension(
            direct_product_extension(sl3, chain_lattice(2))
        ).value
        with pytest.raises(FormatError):
            extension_morphism(product_ext, other)

    def test_requires_weakly_schreier(self, diagonal_section, product_ext):
        with pytest.raises(PreconditionError):
            extension_morphism(diagonal_section, product_ext)

    def test_squares_check_is_live(self):
        # b is no split extension (e_b o s_b is not the identity of H), yet
        # every g of both ends has a retraction candidate and the one image
        # map f = (0, 0) is a hom: only the square e_b o f = e_a fails
        t1, c2 = trivial_monoid(), cyclic_group(2)
        a = SplitExtension(t1, c2, c2, MonoidHom(t1, c2, (0,)), identity_hom(c2), identity_hom(c2))
        b = SplitExtension(t1, t1, c2, MonoidHom(t1, t1, (0,)), MonoidHom(t1, c2, (0,)),
                           MonoidHom(c2, t1, (0, 0)))
        assert verify_split_extension(a).ok and not verify_split_extension(b).ok
        assert all(retraction_candidates(a)) and all(retraction_candidates(b))
        assert check_hom(a.G, b.G, (0, 0)).ok
        assert extension_morphism(a, b) is None


class TestCarrierBuilder:
    """The shared builder behind lambda products, glueings and (E, alpha)
    extensions, fed the componentwise product of sl2 x sl2 directly.  Pairs
    are element indices: 0 is the top (the identity), 1 the bottom.  A
    table that breaks a law but whose pairs all factor as k(n) * s(h) gets
    past the first-projection check to that law's own."""

    FULL = ((0, 0), (1, 0), (0, 1), (1, 1))

    @staticmethod
    def build(sl2, carrier, s=((0, 0), (0, 1)), what="test carrier", cell=None):
        """The build on carrier, with products[i][j] set to pair when cell
        is (i, j, pair)."""
        t = sl2.table
        products = [[(t[n1][n2], t[h1][h2]) for n2, h2 in carrier] for n1, h1 in carrier]
        if cell is not None:
            i, j, pair = cell
            products[i][j] = pair
        return _extension_on_carrier(sl2, sl2, carrier, products, s, what)

    def test_full_carrier_is_the_direct_product(self, sl2, product_ext):
        ext = self.build(sl2, self.FULL)
        assert verify_split_extension(ext).value is ext
        assert ext.G.labels == ("(1,1)", "(0,1)", "(1,0)", "(0,0)")
        assert extensions_equivalent(ext, product_ext)

    def test_missing_product_pair_is_a_consistency_error(self, sl2):
        # (0,1) * (1,0) = (1,1), which the carrier leaves out
        missing = "test carrier: \\(1, 1\\) is not a carrier pair"
        with pytest.raises(ConsistencyError, match=missing):
            self.build(sl2, ((0, 0), (1, 0), (0, 1)))

    def test_section_off_the_carrier_is_a_consistency_error(self, sl2):
        with pytest.raises(ConsistencyError, match="not a carrier pair"):
            self.build(sl2, ((0, 0), (1, 0)), s=((0, 0), (0, 1)))

    def test_monoid_law_failure_names_the_construction(self, sl2):
        # (0,0) * (1,0) = (0,0), off the factor cells k(n) * s(h): (0, 0) is
        # no identity
        with pytest.raises(
            ConsistencyError, match=r"^test carrier fails monoid laws: identity: 1$"
        ):
            self.build(sl2, self.FULL, cell=(0, 1, (0, 0)))

    def test_extension_law_failure_names_the_construction(self, sl2):
        # (1,0) * (1,0) = (1,1) is associative with the same factor cells,
        # but k(1) * k(1) is not k(1)
        with pytest.raises(
            ConsistencyError, match=r"^test carrier fails extension laws: k-hom-mul: 1 1$"
        ):
            self.build(sl2, self.FULL, cell=(1, 1, (1, 1)))

    def test_first_projection_is_the_retraction(self, sl2):
        ext = self.build(sl2, self.FULL, what="test")
        r = SchreierRetraction(ext, tuple(n for n, _ in self.FULL))
        assert r.q == (0, 1, 0, 1)
        assert r.unique
        assert find_retraction(ext).value == r

    def test_first_projection_failure_is_a_consistency_error(self, sl2):
        # the diagonal section s(1) = (1, 1) passes the extension laws, but
        # k(0) * s(1) = (1, 1), so the first projection does not factor (0, 1)
        full = ((0, 0), (1, 0), (0, 1), (1, 1))
        with pytest.raises(
            ConsistencyError,
            match=r"^test carrier first projection is no Schreier retraction: "
            r"q\(2\) = 0 does not factor g$",
        ):
            self.build(sl2, full, s=((0, 0), (1, 1)))


class TestFactorTable:
    """ks[h][n] = k(n) * s(h), derived once by SplitExtension and read by
    retraction_candidates and extension_morphism; compared with the scans
    over G x N that it replaced (conftest.reference_*)."""

    def test_entries_are_the_products(self, sl2, product_ext, glued_chain, diagonal_section):
        for ext in (product_ext, glued_chain, diagonal_section):
            t = ext.G.table
            assert ext.ks == tuple(
                tuple(t[ext.k.map[n]][ext.s.map[h]] for n in ext.N.elements)
                for h in ext.H.elements
            )
        assert "ks" not in SplitExtension._fields
        assert "ks" not in repr(product_ext)
        other = verify_split_extension(direct_product_extension(sl2, sl2)).value
        assert other == product_ext and hash(other) == hash(product_ext)

    def test_candidates_are_derived_once(self, product_ext, glued_chain, diagonal_section):
        for ext in (product_ext, glued_chain, diagonal_section):
            fresh = SplitExtension(ext.N, ext.G, ext.H, ext.k, ext.e, ext.s)
            assert not hasattr(fresh, "_cands")
            before = (hash(fresh), repr(fresh))
            cands = retraction_candidates(fresh)
            assert retraction_candidates(fresh) is cands
            assert cands == reference_retraction_candidates(fresh)
            assert fresh == ext and (hash(fresh), repr(fresh)) == before == (hash(ext), repr(ext))
            assert "_cands" not in SplitExtension._fields

    def check_against_references(self, exts):
        """Candidates of each extension, and morphisms between every ordered
        pair; returns how many morphisms exist."""
        found = 0
        for a in exts:
            assert retraction_candidates(a) == reference_retraction_candidates(a)
            for b in exts:
                got = outcome(extension_morphism, a, b)
                assert got == outcome(reference_extension_morphism, a, b)
                found += got is not None
        return found

    def test_lambda_products_match_references(self):
        catalog = catalog_inverse_monoids(3)
        pairs = found = 0
        for N in catalog:
            for H in catalog:
                exts = [lambda_product(a).extension for a in enumerate_inverse_actions(N, H)]
                found += self.check_against_references(exts)
                pairs += len(exts) ** 2
        assert pairs == 1201  # the pairs of acceptance criterion 4
        assert 0 < found < pairs

    def test_built_extensions_match_references(self):
        catalog = catalog_monoids(3)
        built = 0
        for N in catalog:
            for H in catalog:
                if N.size * H.size <= DEFAULT_BOUND:
                    exts = [build_extension(p) for p in enumerate_wactions(N, H)]
                    self.check_against_references(exts)
                    built += len(exts)
        assert built == 757

    def test_unverified_extensions_match_references(self, sl2, sl3, c2):
        refused = 0
        for N, H in ((sl2, sl2), (sl3, sl2), (sl2, c2), (c2, sl3)):
            base = direct_product_extension(N, H)
            for m in extension_mutants(N, H):
                assert retraction_candidates(m) == reference_retraction_candidates(m)
                for a, b in ((m, base), (base, m), (m, m)):
                    got = outcome(extension_morphism, a, b)
                    assert got == outcome(reference_extension_morphism, a, b)
                    refused += got == ("PreconditionError", "extension is not weakly Schreier")
        assert refused > 0

    def test_not_weakly_schreier_matches_reference(self, diagonal_section, product_ext):
        for a, b in ((diagonal_section, product_ext), (product_ext, diagonal_section)):
            got = outcome(extension_morphism, a, b)
            assert got == ("PreconditionError", "extension is not weakly Schreier")
            assert got == outcome(reference_extension_morphism, a, b)

    def test_lambda_product_builds_three_homs(self, monkeypatch, alpha_a):
        built = []
        init = MonoidHom.__init__
        monkeypatch.setattr(MonoidHom, "__init__", lambda f, *a: built.append(f) or init(f, *a))
        lam = lambda_product(alpha_a)
        assert built == [lam.extension.e, lam.extension.k, lam.extension.s]

    def test_morphism_finds_no_retraction(self, monkeypatch, product_ext, glued_chain):
        calls = []
        real = extension_mod.find_retraction
        monkeypatch.setattr(
            extension_mod, "find_retraction", lambda ext: calls.append(ext) or real(ext)
        )
        assert extension_morphism(product_ext, glued_chain) is not None
        assert extensions_equivalent(product_ext, product_ext)
        assert calls == []


class TestDerivedFlags:
    """unique is worked out, not passed in: it reads the factor table, and
    like ks it takes no part in equality, hashing or repr.
    verify_split_extension returns the instance it passes, not a copy."""

    def test_neither_is_a_field(self):
        assert SplitExtension._fields == ("N", "G", "H", "k", "e", "s")
        assert SchreierRetraction._fields == ("ext", "q")

    def test_verify_marks_and_returns_the_instance(self, sl2):
        ext = direct_product_extension(sl2, sl2)
        assert verify_split_extension(ext).value is ext
        other = direct_product_extension(sl2, sl2)
        assert other == ext and hash(other) == hash(ext) and repr(other) == repr(ext)

    def test_retraction_found_before_verification_extracts(self):
        ext = direct_product_extension(cyclic_group(2), chain_lattice(2))
        pair = extract_waction(verify_split_extension(ext).value, find_retraction(ext).value)
        assert pair.E.fibers == ((0, 1), (0, 1))
        assert pair.alpha.act == ((0, 1), (0, 1))

    def test_each_extension_is_built_once(self, monkeypatch, alpha_a, sl2):
        built, cands = [], []
        init = SplitExtension.__init__
        monkeypatch.setattr(SplitExtension, "__init__", lambda x, *a: built.append(x) or init(x, *a))
        real = extension_mod.retraction_candidates
        monkeypatch.setattr(
            extension_mod, "retraction_candidates", lambda x: cands.append(x) or real(x)
        )
        lam = lambda_product(alpha_a)
        assert built == [lam.extension] and cands == []
        ext = direct_product_extension(sl2, sl2)
        verify_split_extension(ext)
        assert built == [lam.extension, ext]

    def test_unique_is_the_candidate_count(self):
        def count_unique(ext):
            return all(len(c) == 1 for c in reference_retraction_candidates(ext))

        catalog = catalog_inverse_monoids(3)
        lams = [
            lambda_product(a) for N in catalog for H in catalog
            for a in enumerate_inverse_actions(N, H)
        ]
        assert len(lams) == 155
        for lam in lams:
            assert lam.retraction.unique == count_unique(lam.extension)
            assert find_retraction(lam.extension).value.unique == lam.retraction.unique
        catalog = catalog_monoids(3)
        built = [
            build_extension(p) for N in catalog for H in catalog
            if N.size * H.size <= DEFAULT_BOUND for p in enumerate_wactions(N, H)
        ]
        assert len(built) == 757
        uniques = [find_retraction(ext).value.unique for ext in built]
        assert uniques == [count_unique(ext) for ext in built]
        assert 0 < sum(uniques) < len(built)
        for ext in built[:50]:
            rs = all_retractions(ext, limit=10**6)
            assert all(r.unique == (len(rs) == 1) for r in rs)


class TestCokernelRoute:
    """verify_split_extension decides the cokernel law from the factor table
    when its entries cover G, and runs congruence_closure only when they do
    not; its verdict is the one a closure gives every time
    (conftest.reference_verify_split_extension)."""

    @pytest.fixture
    def closures(self, monkeypatch):
        calls = []
        real = monoid_mod.congruence_closure
        monkeypatch.setattr(
            monoid_mod, "congruence_closure", lambda M, pairs: calls.append(M) or real(M, pairs)
        )
        return calls

    def test_builders_run_no_closure(self, closures, alpha_a, sl2, sl3):
        lam = lambda_product(alpha_a)
        _, glued = artin_glueing(identity_hom(sl2))
        built = [build_extension(p) for p in enumerate_wactions(sl3, sl2)]
        for ext in [lam.extension, glued, *built]:
            assert verify_split_extension(ext).value is ext
        assert len(built) > 1
        assert closures == []

    def test_closure_runs_once_off_the_table(self, closures, sl2, sl3, diagonal_section):
        # test_cokernel_violation's input: the bottom of sl3 is no k(n) * s(h)
        t1 = trivial_monoid()
        k = MonoidHom(t1, sl3, (0,))
        e = MonoidHom(sl3, sl2, (0, 1, 1))
        ext = SplitExtension(t1, sl3, sl2, k, e, MonoidHom(sl2, sl3, (0, 1)))
        assert verify_split_extension(ext).violations[0].law == "cokernel"
        assert closures == [sl3]
        # the diagonal extension passes, though it is not weakly Schreier
        assert verify_split_extension(diagonal_section).ok
        assert closures == [sl3, diagonal_section.G]

    def check_verdicts(self, exts):
        for ext in exts:
            assert verify_split_extension(ext) == reference_verify_split_extension(ext)

    def test_lambda_products_match_reference(self):
        catalog = catalog_inverse_monoids(3)
        exts = [
            lambda_product(a).extension for N in catalog for H in catalog
            for a in enumerate_inverse_actions(N, H)
        ]
        assert len(exts) == 155
        self.check_verdicts(exts)

    def test_built_extensions_match_reference(self):
        catalog = catalog_monoids(3)
        exts = [
            build_extension(p) for N in catalog for H in catalog
            if N.size * H.size <= DEFAULT_BOUND for p in enumerate_wactions(N, H)
        ]
        assert len(exts) == 757
        self.check_verdicts(exts)

    def test_mutants_match_reference(self, sl2, sl3, c2):
        laws = []
        for N, H in ((sl2, sl2), (sl3, sl2), (sl2, c2), (c2, sl3)):
            for m in extension_mutants(N, H):
                verdict = verify_split_extension(m)
                assert verdict == reference_verify_split_extension(m)
                laws.append(verdict.violations[0].law if verdict.violations else "ok")
        assert len(laws) == 63 and laws.count("ok") == 3
        assert {"e-hom-mul", "s-hom-identity", "section", "kernel-image"} <= set(laws)


class TestShapeErrors:
    # Shape errors that no other in-process test reaches, each raised from the
    # product extension with N the 2-chain and H the 3-chain (|G| = 6).
    CASES = [
        pytest.param(
            lambda ext: SplitExtension(ext.N, ext.G, ext.H, ext.k, identity_hom(ext.G), ext.s),
            "e must map G onto H",
            id="e",
        ),
        pytest.param(
            lambda ext: SplitExtension(ext.N, ext.G, ext.H, ext.k, ext.e, identity_hom(ext.G)),
            "s must map H into G",
            id="s",
        ),
        pytest.param(
            lambda ext: SchreierRetraction(ext, (0,)),
            "retraction has 1 entries, expected 6",
            id="retraction",
        ),
    ]

    @pytest.mark.parametrize("call, message", CASES)
    def test_message(self, call, message):
        ext = direct_product_extension(chain_lattice(2), chain_lattice(3))
        with pytest.raises(FormatError) as info:
            call(ext)
        assert type(info.value) is FormatError
        assert str(info.value) == message
