"""Split extensions of finite monoids and the weakly Schreier condition.

A split extension is a diagram N -k-> G <-e/s-> H where k, e, s are monoid
homs, e o s = id, k is the kernel of e and e is the cokernel of k.  It is
weakly Schreier when every g factors as k(n) * s(e(g)) for some n; any map q
picking such an n is a Schreier retraction.  q is a bare index map with no
hom laws of its own.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from .monoid import (
    BoundExceeded,
    ConsistencyError,
    FiniteMonoid,
    FormatError,
    MonoidHom,
    PreconditionError,
    Verdict,
    Violation,
    _bad_cell,
    _hom_laws,
    check_hom,
    check_monoid,
    direct_product,
    is_cokernel,
)

__all__ = [
    "SplitExtension",
    "SchreierRetraction",
    "verify_split_extension",
    "find_retraction",
    "retraction_candidates",
    "all_retractions",
    "extension_morphism",
    "extensions_equivalent",
    "direct_product_extension",
]


@dataclass(frozen=True)
class SplitExtension:
    """Bundle (N, G, H, k, e, s).

    ks[h][n] = k(n) * s(h) is the factor table, derived once per instance.
    verified starts False, and verify_split_extension sets it on the instance
    it passes.  Like FiniteMonoid.elements, neither takes part in equality,
    hashing or repr.
    """

    N: FiniteMonoid
    G: FiniteMonoid
    H: FiniteMonoid
    k: MonoidHom
    e: MonoidHom
    s: MonoidHom

    def __post_init__(self):
        if self.k.source != self.N or self.k.target != self.G:
            raise FormatError("k must map N into G")
        if self.e.source != self.G or self.e.target != self.H:
            raise FormatError("e must map G onto H")
        if self.s.source != self.H or self.s.target != self.G:
            raise FormatError("s must map H into G")
        t = self.G.table
        ks = tuple([tuple([t[kn][sh] for kn in self.k.map]) for sh in self.s.map])
        object.__setattr__(self, "ks", ks)
        object.__setattr__(self, "verified", False)


@dataclass(frozen=True)
class SchreierRetraction:
    """A map q: G -> N with k(q(g)) * s(e(g)) = g for every g.

    The constructor checks q against the factor table ext.ks, the one check
    of a q that a caller passes in; unique is read off the same table.
    """

    ext: SplitExtension
    q: tuple

    def __post_init__(self):
        ext = self.ext
        q = tuple(self.q)
        if len(q) != ext.G.size:
            raise FormatError("retraction has %d entries, expected %d" % (len(q), ext.G.size))
        if (g := _bad_cell(q, ext.N.size)) is not None:
            raise FormatError("retraction value %r out of range" % (q[g],))
        ks, e = ext.ks, ext.e.map
        for g in ext.G.elements:
            if ks[e[g]][q[g]] != g:
                raise FormatError("q(%d) = %d does not factor g" % (g, q[g]))
        object.__setattr__(self, "q", q)

    @property
    def unique(self) -> bool:
        """Whether q is the only such map (the Schreier case): every row of
        ext.ks is injective.  In a split extension row h lies over h, so a
        repeat in it is a g with more than one candidate n."""
        return all(len(set(row)) == len(row) for row in self.ext.ks)

    def __call__(self, g: int) -> int:
        return self.q[g]


def verify_split_extension(ext: SplitExtension) -> Verdict:
    """Check the split-extension laws, reporting the first failure.

    Laws: k, e, s are homs; e o s = id; k is injective with image exactly
    the e-preimage of the identity; e is the cokernel of k.  On success the
    value is ext itself, now marked verified.
    """
    for name, f in (("k", ext.k), ("e", ext.e), ("s", ext.s)):
        v = _hom_laws(f)
        if not v.ok:
            bad = v.violations[0]
            return Verdict(None, (Violation("%s-%s" % (name, bad.law), bad.witness),))
    for h in ext.H.elements:
        if ext.e.map[ext.s.map[h]] != h:
            return Verdict(None, (Violation("section", (h,)),))
    kimg = {}
    for n in ext.N.elements:
        g = ext.k.map[n]
        if g in kimg:
            return Verdict(None, (Violation("kernel-injective", (kimg[g], n)),))
        kimg[g] = n
    fiber = set(g for g in ext.G.elements if ext.e.map[g] == ext.H.identity)
    if set(kimg) != fiber:
        g = min(set(kimg) ^ fiber)
        return Verdict(None, (Violation("kernel-image", (g,)),))
    if not is_cokernel(ext.k, ext.e):
        return Verdict(None, (Violation("cokernel"),))
    object.__setattr__(ext, "verified", True)
    return Verdict(ext)


def _extension_on_carrier(N, H, carrier, products, s, what, brackets="(%s,%s)"):
    """The verified split extension of H by N on a carrier of pairs (n, h),
    and its first projection (n, h) -> n as a Schreier retraction.

    carrier lists the pairs h-major; products[i][j] is the pair of
    carrier[i] * carrier[j] and s[h] the pair of s(h).  k(n) = (n, 1) and e
    is the second projection.  Elements are labelled brackets % (n, h).
    Closure, the monoid laws, the split-extension laws and the retraction
    are all checked; any failure raises ConsistencyError naming what was
    built.  Returns (extension, retraction).
    """
    index = {p: i for i, p in enumerate(carrier)}
    one = H.identity
    # Here and in the other builders and checkers, tuples are built from
    # lists.  CPython 3.11 takes a tuple(<generator>) from the free list of
    # 10-item tuples and resizes it, but frees it to the list of its final
    # size.  Too little else takes from the lists of sizes 1-9 and 11-20 to
    # drain them, so a sweep fills each to its cap of 2000, about 4 MB in all.
    try:
        table = tuple([tuple([index[p] for p in row]) for row in products])
        identity = index[(N.identity, one)]
        kmap = tuple([index[(n, one)] for n in N.elements])
        smap = tuple([index[p] for p in s])
    except KeyError as exc:
        raise ConsistencyError("%s: %r is not a carrier pair" % (what, exc.args[0])) from None
    labels = tuple([brackets % (N.label(n), H.label(h)) for n, h in carrier])
    laws = check_monoid(table, identity, labels)
    if not laws.ok:
        raise ConsistencyError("%s fails monoid laws: %s" % (what, laws.violations[0]))
    G = laws.value
    e = MonoidHom(G, H, tuple([h for _, h in carrier]))
    ext = SplitExtension(N, G, H, MonoidHom(N, G, kmap), e, MonoidHom(H, G, smap))
    verdict = verify_split_extension(ext)
    if not verdict.ok:
        raise ConsistencyError("%s fails extension laws: %s" % (what, verdict.violations[0]))
    try:
        return ext, SchreierRetraction(ext, tuple([n for n, _ in carrier]))
    except FormatError as exc:
        raise ConsistencyError(
            "%s first projection is no Schreier retraction: %s" % (what, exc)
        ) from None


def retraction_candidates(ext: SplitExtension) -> tuple:
    """For each g, the sorted tuple of n with ext.ks[e(g)][n] = g."""
    ks, e = ext.ks, ext.e.map
    return tuple([tuple([n for n, x in enumerate(ks[e[g]]) if x == g]) for g in ext.G.elements])


def find_retraction(ext: SplitExtension) -> Verdict:
    """Least-index Schreier retraction, or a witness g with no factorization."""
    cands = retraction_candidates(ext)
    for g, options in enumerate(cands):
        if not options:
            return Verdict(None, (Violation("weakly-schreier", (g,)),))
    return Verdict(SchreierRetraction(ext, tuple([options[0] for options in cands])))


def all_retractions(ext: SplitExtension, limit: int = 64) -> tuple:
    """Every Schreier retraction.  The count is the product of the
    per-element candidate counts; refuse (BoundExceeded, a ValueError, with
    the count as its estimate) beyond limit."""
    cands = retraction_candidates(ext)
    total = 1
    for options in cands:
        if not options:
            return ()
        total *= len(options)
    if total > limit:
        raise BoundExceeded("%d retractions exceed limit %d" % (total, limit), total)
    return tuple(SchreierRetraction(ext, qs) for qs in product(*cands))


def extension_morphism(a: SplitExtension, b: SplitExtension) -> MonoidHom | None:
    """The unique morphism of extensions a -> b if one exists, else None.

    A morphism is a hom f: G_a -> G_b with f o k_a = k_b, e_b o f = e_a and
    f o s_a = s_b.  Both extensions must be weakly Schreier: every g has
    retraction candidates n, with g = k_a(n) * s_a(e_a(g)).  Their images
    b.ks[e_a(g)][n] = k_b(n) * s_b(e_a(g)) must agree, and the resulting map
    must be a hom.  Uniqueness is forced by the construction.
    """
    if a.N != b.N or a.H != b.H:
        raise FormatError("extensions do not share the same N and H")
    cands = retraction_candidates(a)
    if not all(cands) or not all(retraction_candidates(b)):
        raise PreconditionError("extension is not weakly Schreier")
    ea = a.e.map
    fmap = []
    for g, h in enumerate(ea):
        images = {b.ks[h][n] for n in cands[g]}
        if len(images) != 1:
            return None
        fmap.append(images.pop())
    verdict = check_hom(a.G, b.G, tuple(fmap))
    if not verdict.ok:
        return None
    fm = verdict.value.map
    # the three squares hold by construction; keep the cheap assertion honest
    squares = (
        tuple([fm[x] for x in a.k.map]) == b.k.map
        and tuple([b.e.map[x] for x in fm]) == ea
        and tuple([fm[x] for x in a.s.map]) == b.s.map
    )
    return verdict.value if squares else None


def extensions_equivalent(a: SplitExtension, b: SplitExtension) -> bool:
    """Morphisms in both directions (the preorder's equivalence)."""
    return extension_morphism(a, b) is not None and extension_morphism(b, a) is not None


def direct_product_extension(N: FiniteMonoid, H: FiniteMonoid) -> SplitExtension:
    """N x H with k(n) = (n, 1), e the second projection, s(h) = (1, h)."""
    G = direct_product(N, H)
    idx = {(n, h): n * H.size + h for n in N.elements for h in H.elements}
    k = MonoidHom(N, G, tuple(idx[(n, H.identity)] for n in N.elements))
    e = MonoidHom(G, H, tuple(h for n in N.elements for h in H.elements))
    s = MonoidHom(H, G, tuple(idx[(N.identity, h)] for h in H.elements))
    return SplitExtension(N, G, H, k, e, s)
