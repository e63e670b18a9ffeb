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
(n, h) -> n is a Schreier retraction.  glueing_equals_lambda builds the
glueing's carrier and meet the same way, but compares them, as pairs, with
the lambda product's checked extension instead of building them a second
time; the builder is deterministic, so each law of the structure it vouches
for, the glued frame's included, is checked once.

Frames and meet-homs are validated once per instance.  check_frame keeps its
label-free result on the FiniteMonoid, and the glueing functions keep a
passed hom check on the MonoidHom, so a sweep over the homs between a few
frames checks each frame once; that mark is set only once both frames have
passed too, so a marked hom skips the frame lookups.  Constructed outputs are
new instances and are checked on every call: the glued frame, and the
pointwise meet that glueing_join returns, whose map skips only the range check
(join_hom).  The glued frame's laws are checked on its generators k(N) and
s(H), in full on a failure.

A finite commutative idempotent monoid is a lattice, and its distributivity
is decided from the meet table alone, in O(n^2) steps against the triple
loop's O(n^3): a finite lattice is distributive iff every meet-irreducible
element is meet-prime (Birkhoff; Davey and Priestley, Introduction to
Lattices and Order, 2002).  Only a failure builds the join table, read off
up-set bitmasks, and runs the loop for the first failing triple, so every
law name and witness is the loop's.  check_frame derives the order and join
table once the laws pass; glueing_equals_lambda, which returns no frame,
builds them only on a failure.
"""

from __future__ import annotations

from itertools import compress

from .monoid import (
    ConsistencyError,
    FiniteMonoid,
    MonoidHom,
    PreconditionError,
    Verdict,
    Violation,
    _Record,
    _hom_laws,
    _set,
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


class FiniteFrame(_Record):
    """A frame with its derived order, join table and bottom element."""

    _fields = ("base", "leq", "join", "bottom")

    def __init__(self, base: FiniteMonoid, leq: tuple, join: tuple, bottom: int):
        _set(self, "base", base)
        _set(self, "leq", leq)
        _set(self, "join", join)
        _set(self, "bottom", bottom)

    @property
    def top(self) -> int:
        return self.base.identity

    def meet(self, a: int, b: int) -> int:
        return self.base.table[a][b]

    def below(self, a: int, b: int) -> bool:
        return self.leq[a][b]


def _meet_primes(t, top) -> bool:
    """Every meet-irreducible element of the meet table t, whose identity is
    top, is meet-prime: for a finite lattice, that it is distributive.

    m other than the top is meet-irreducible when the meet of the x strictly
    above it is not m, and meet-prime when the x not below it (m*x != x) are
    closed under meet, so when their meet is not below m either.  Both meets
    are taken in one pass over those x; x > m is among them."""
    for m, row in enumerate(t):
        if m == top:
            continue
        above = outside = top
        for x, mx in enumerate(row):
            if mx != x:
                outside = t[outside][x]
                if mx == m:
                    above = t[above][x]
        if above != m and row[outside] == outside:
            return False
    return True


def _frame_laws(M: FiniteMonoid, gens=None):
    """The first Violation of the frame laws by M, or None.

    gens, when given, generate M: only they are checked for idempotence and
    commutativity (monoid.check_monoid's closure lemma), and a violation
    reruns the full check.  M is then a finite lattice, distributive iff
    every meet-irreducible element is meet-prime (Birkhoff; Davey and
    Priestley, Introduction to Lattices and Order, 2002), which _meet_primes
    decides from the meet table.  Only a failure builds the join table and
    runs the (a, b, c) loop, with the gens as the outer a, for the first
    failing triple."""
    t = M.table
    outer = M.elements if gens is None else tuple(gens)

    def fail(law, witness):
        return Violation(law, witness) if gens is None else _frame_laws(M)

    for i, a in enumerate(outer):
        if t[a][a] != a:
            return fail("idempotent", (a,))
        for b in outer[i + 1 :]:
            if t[a][b] != t[b][a]:
                return fail("commutative", (a, b))
    if _meet_primes(t, M.identity):
        return None
    join, n = _order(M)[1], M.size
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
    return None


def _order(M: FiniteMonoid):
    """(leq, join, bottom) of M, a meet-semilattice with top; a table with
    no join raises PreconditionError."""
    t, n = M.table, M.size
    leq = tuple([tuple([x == a for x in t[a]]) for a in range(n)])
    # the up-set of a v b, a bitmask, is up(a) & up(b)
    bits = [1 << c for c in range(n)]
    masks = [sum(compress(bits, above)) for above in leq]
    by_mask = {m: a for a, m in enumerate(masks)}
    try:
        join = tuple([tuple([by_mask[ma & mb] for mb in masks]) for ma in masks])
        bottom = by_mask[(1 << n) - 1]
    except KeyError:
        raise PreconditionError("frame laws of a table that is not associative") from None
    return leq, join, bottom


def _frame_data(M: FiniteMonoid):
    """(leq, join, bottom) of M, or the first Violation of the frame laws.

    Computed once per instance and kept on it as _frame, the way elements
    is; the order data is derived only once the laws pass.  The data does
    not depend on the labels and holds no reference to M.
    """
    try:
        return M._frame
    except AttributeError:
        data = _frame_laws(M) or _order(M)
        _set(M, "_frame", data)
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
    _set(f, "_meet_hom", True)
    return f.target._frame


def _glueing_parts(f: MonoidHom):
    """The glueing's carrier pairs, their products as pairs and the pairs of
    s, as the extension builder takes them, with the frames and f validated
    first."""
    leq = _require_frames(f)[0]
    H, N = f.source, f.target
    tn, th = N.table, H.table
    carrier = tuple([(n, h) for h in H.elements for n in N.elements if leq[n][f.map[h]]])
    products = [[(tn[n1][n2], th[h1][h2]) for n2, h2 in carrier] for n1, h1 in carrier]
    s = [(f.map[h], h) for h in H.elements]
    return carrier, products, s


def _glued_laws(ext):
    """Check the frame laws of a glueing's built extension on k(N) | s(H),
    which generate ext.G since its builder read the first projection as a
    Schreier retraction; a Violation raises ConsistencyError."""
    violation = _frame_laws(ext.G, set(ext.k.map).union(ext.s.map))
    if violation is not None:
        raise ConsistencyError("glueing carrier fails frame laws: %s" % (violation,))


def artin_glueing(f: MonoidHom):
    """The glueing frame of a meet-preserving f: H -> N and its extension.

    Carrier pairs (n, h) with n <= f(h) under componentwise meet, ordered by
    h then n; k(n) = (n, top), e = second projection, s(h) = (f(h), h), and
    the builder checks that (n, h) -> n is a Schreier retraction.  Returns
    (FiniteFrame, SplitExtension); the frame laws of the carrier are
    re-checked and a failure raises ConsistencyError.
    """
    carrier, products, s = _glueing_parts(f)
    ext = _extension_on_carrier(f.target, f.source, carrier, products, s, "glueing")
    _glued_laws(ext)
    return FiniteFrame(ext.G, *_order(ext.G)), ext


def glueing_equals_lambda(f: MonoidHom) -> bool:
    """The glueing of f and the lambda product of h.n = f(h) meet n are the
    same labelled structure: same carrier pairs in the same order, same
    table, and the same k, e, s maps.

    lambda_product builds and verifies its extension of H by N.  The
    glueing's carrier, its products and its s, all as pairs, are compared
    with that extension's carrier, table and s read back as pairs.  The
    builder is deterministic in N, H and these three, and derives k, e, the
    identity and the labels from them, so on a match the glueing's own build
    would be that extension: its frame laws are checked on it, once.  A
    mismatch returns False, with no second build.
    """
    carrier, products, s = _glueing_parts(f)
    lam: LambdaProduct = lambda_product(artin_like_action(f))
    ext, pairs = lam.extension, lam.carrier
    if (
        pairs != carrier
        or [[pairs[x] for x in row] for row in ext.G.table] != products
        or [pairs[x] for x in ext.s.map] != s
    ):
        return False
    _glued_laws(ext)
    return True


def glueing_join(f: MonoidHom, g: MonoidHom) -> MonoidHom:
    """Pointwise meet of two parallel meet-preserving maps between frames."""
    _require_frames(f)
    _require_frames(g)
    return join_hom(f, g)
