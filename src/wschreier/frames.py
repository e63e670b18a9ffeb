"""Finite frames as meet monoids, and Artin glueings along meet-preserving
maps.

A finite frame is a finite distributive lattice; as a monoid it is
commutative and idempotent with the identity as top, the order is
a <= b iff a*b = a, binary joins exist, and meet distributes over join.
A meet-preserving map between frames that also preserves the top is exactly
a monoid hom of the underlying meet monoids.

The Artin glueing Gl(f) of f: H -> N is the frame of pairs
{(n, h) : n <= f(h)} under componentwise meet.  It is the lambda semidirect
product of the action h.n = f(h) meet n, and pointwise meet of maps gives
the join of glueings.  artin_glueing builds its own carrier and meet and
hands them to the extension builder shared with lambda_product and
build_extension (extension._extension_on_carrier), which also checks that
(n, h) -> n is a Schreier retraction, so glueing_equals_lambda compares two
independent constructions.

Frames and meet-homs are validated once per instance.  check_frame keeps its
label-free result on the FiniteMonoid, and the glueing functions keep a
passed hom check on the MonoidHom, so a sweep over the homs between a few
frames checks each frame once; that mark is set only once both frames have
passed too, so a marked hom skips the frame lookups.  Constructed outputs are
new instances and are checked on every call: the glued frame, and the
pointwise meet that glueing_join returns, whose map skips only the range check
(join_hom).  The glued frame's laws are checked on its generators k(N) and
s(H), in full on a failure; joins are read off up-set bitmasks.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress

from .monoid import (
    ConsistencyError,
    FiniteMonoid,
    MonoidHom,
    PreconditionError,
    Verdict,
    Violation,
    _hom_laws,
)
from .extension import _extension_on_carrier
from .lambda_product import LambdaProduct, artin_like_action, join_hom, lambda_product

__all__ = [
    "FiniteFrame",
    "check_frame",
    "artin_glueing",
    "glueing_equals_lambda",
    "glueing_join",
]


@dataclass(frozen=True)
class FiniteFrame:
    """A frame with its derived order, join table and bottom element."""

    base: FiniteMonoid
    leq: tuple
    join: tuple
    bottom: int

    @property
    def top(self) -> int:
        return self.base.identity

    def meet(self, a: int, b: int) -> int:
        return self.base.table[a][b]

    def below(self, a: int, b: int) -> bool:
        return self.leq[a][b]


def _frame_laws(M: FiniteMonoid, gens=None):
    """(leq, join, bottom) of M, or the first Violation of the frame laws.
    gens, when given, generate M: only they are checked for idempotence,
    commutativity and as the outer a of distributivity (monoid.check_monoid's
    closure lemma), and a violation reruns the full check."""
    t, n = M.table, M.size
    outer = M.elements if gens is None else tuple(gens)

    def fail(law, witness):
        return Violation(law, witness) if gens is None else _frame_laws(M)

    for i, a in enumerate(outer):
        if t[a][a] != a:
            return fail("idempotent", (a,))
        for b in outer[i + 1 :]:
            if t[a][b] != t[b][a]:
                return fail("commutative", (a, b))
    leq = tuple([tuple([x == a for x in t[a]]) for a in range(n)])
    # a meet-semilattice now: the up-set of a v b, a bitmask, is up(a) & up(b)
    bits = [1 << c for c in range(n)]
    masks = [sum(compress(bits, above)) for above in leq]
    by_mask = {m: a for a, m in enumerate(masks)}
    try:
        join = tuple([tuple([by_mask[ma & mb] for mb in masks]) for ma in masks])
        bottom = by_mask[(1 << n) - 1]
    except KeyError:
        raise PreconditionError("frame laws of a table that is not associative") from None
    # the failing triples are symmetric in b and c, and b = c never fails, so
    # the first one in (a, b, c) order has b < c
    for a in outer:
        ta = t[a]
        for b in range(n):
            jb = join[b]
            jab = join[ta[b]]
            for c in range(b + 1, n):
                if ta[jb[c]] != jab[ta[c]]:
                    return fail("distributive", (a, b, c))
    return leq, join, bottom


def _frame_data(M: FiniteMonoid, gens=None):
    """(leq, join, bottom) of M, or the first Violation of the frame laws.

    Computed once per instance and kept on it as _frame, the way elements
    is.  The data does not depend on the labels and holds no reference to M.
    """
    try:
        return M._frame
    except AttributeError:
        data = _frame_laws(M, gens)
        object.__setattr__(M, "_frame", data)
        return data


def check_frame(M: FiniteMonoid) -> Verdict:
    """Commutative, idempotent and meet distributes over join.

    M must satisfy the monoid laws, as every FiniteMonoid from check_monoid,
    the loaders and the constructions does.  It is then a meet-semilattice
    with top, so every pair has a join, and a bottom, the meet of all
    elements; a table that breaks the laws may raise PreconditionError.
    The laws are checked once per instance; each call returns a fresh Verdict.
    """
    data = _frame_data(M)
    if isinstance(data, Violation):
        return Verdict(None, (data,))
    return Verdict(FiniteFrame(M, *data))


def _require_frames(f: MonoidHom):
    """The frame data of f.target, once both ends are frames and f is a
    monoid hom (PreconditionError otherwise).  A passed hom check is kept
    on f as _meet_hom once both frames passed too, so a marked f returns the
    data kept on its target at once; a failed check is repeated on every call."""
    if getattr(f, "_meet_hom", False):
        return f.target._frame
    check_frame(f.source).expect("check_frame(source)")
    check_frame(f.target).expect("check_frame(target)")
    _hom_laws(f).expect("check_hom")
    object.__setattr__(f, "_meet_hom", True)
    return f.target._frame


def _glueing(f: MonoidHom):
    """The glueing frame, its extension and its carrier pairs, with the
    frames and f validated first."""
    leq = _require_frames(f)[0]
    H, N = f.source, f.target
    tn, th = N.table, H.table
    carrier = tuple([(n, h) for h in H.elements for n in N.elements if leq[n][f.map[h]]])
    products = [[(tn[n1][n2], th[h1][h2]) for n2, h2 in carrier] for n1, h1 in carrier]
    s = [(f.map[h], h) for h in H.elements]
    ext, _ = _extension_on_carrier(N, H, carrier, products, s, "glueing")
    # the builder checked that k(N), s(H) generate; check_frame reads the kept data
    _frame_data(ext.G, set(ext.k.map).union(ext.s.map))
    glued = check_frame(ext.G)
    if not glued.ok:
        raise ConsistencyError("glueing carrier fails frame laws: %s" % (glued.violations[0],))
    return glued.value, ext, carrier


def artin_glueing(f: MonoidHom):
    """The glueing frame of a meet-preserving f: H -> N and its extension.

    Carrier pairs (n, h) with n <= f(h) under componentwise meet, ordered by
    h then n; k(n) = (n, top), e = second projection, s(h) = (f(h), h), and
    the builder checks that (n, h) -> n is a Schreier retraction.  Returns
    (FiniteFrame, SplitExtension); the frame laws of the carrier are
    re-checked and a failure raises ConsistencyError.
    """
    frame, ext, _ = _glueing(f)
    return frame, ext


def glueing_equals_lambda(f: MonoidHom) -> bool:
    """The glueing of f and the lambda product of h.n = f(h) meet n are the
    same labelled structure: same carrier pairs in the same order, same
    table, and the same k, e, s maps."""
    _, ext, carrier = _glueing(f)
    lam: LambdaProduct = lambda_product(artin_like_action(f))
    return (
        lam.carrier == carrier
        and lam.extension.G.table == ext.G.table
        and lam.extension.G.identity == ext.G.identity
        and lam.extension.k.map == ext.k.map
        and lam.extension.e.map == ext.e.map
        and lam.extension.s.map == ext.s.map
    )


def glueing_join(f: MonoidHom, g: MonoidHom) -> MonoidHom:
    """Pointwise meet of two parallel meet-preserving maps between frames."""
    _require_frames(f)
    _require_frames(g)
    return join_hom(f, g)
