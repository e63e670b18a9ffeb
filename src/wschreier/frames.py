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
the join of glueings.
"""

from __future__ import annotations

from dataclasses import dataclass

from .monoid import (
    FiniteMonoid,
    FormatError,
    MonoidHom,
    ConsistencyError,
    PreconditionError,
    Verdict,
    Violation,
    check_hom,
    check_monoid,
)
from .extension import SplitExtension, SchreierRetraction, verify_split_extension
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


def check_frame(M: FiniteMonoid) -> Verdict:
    """Commutative, idempotent, every pair has a least upper bound, and meet
    distributes over join.  The identity is the top and the meet of all
    elements the bottom, both automatic once the other laws hold."""
    t = M.table
    n = M.size
    for a in range(n):
        if t[a][a] != a:
            return Verdict(None, (Violation("idempotent", (a,)),))
        for b in range(a + 1, n):
            if t[a][b] != t[b][a]:
                return Verdict(None, (Violation("commutative", (a, b)),))
    leq = tuple(tuple(t[a][b] == a for b in range(n)) for a in range(n))
    join_rows = []
    for a in range(n):
        row = []
        for b in range(n):
            ubs = [c for c in range(n) if leq[a][c] and leq[b][c]]
            least = [c for c in ubs if all(leq[c][d] for d in ubs)]
            if len(least) != 1:
                return Verdict(None, (Violation("join", (a, b)),))
            row.append(least[0])
        join_rows.append(tuple(row))
    join = tuple(join_rows)
    for a in range(n):
        for b in range(n):
            for c in range(n):
                if t[a][join[b][c]] != join[t[a][b]][t[a][c]]:
                    return Verdict(None, (Violation("distributive", (a, b, c)),))
    bottom = 0
    for a in range(n):
        if leq[a][bottom]:
            bottom = a
    return Verdict(FiniteFrame(M, leq, join, bottom))


def _require_frames(f: MonoidHom):
    H = check_frame(f.source).expect("check_frame(source)")
    N = check_frame(f.target).expect("check_frame(target)")
    check_hom(f.source, f.target, f.map).expect("check_hom")
    return H, N


def artin_glueing(f: MonoidHom):
    """The glueing frame of a meet-preserving f: H -> N and its extension.

    Carrier pairs (n, h) with n <= f(h) under componentwise meet, ordered by
    h then n; k(n) = (n, top), e = second projection, s(h) = (f(h), h), and
    (n, h) -> n is a Schreier retraction.  Returns (FiniteFrame,
    SplitExtension); the frame laws of the carrier are re-checked and a
    failure raises ConsistencyError.
    """
    frame_h, frame_n = _require_frames(f)
    H, N = f.source, f.target
    carrier = [
        (n, h) for h in H.elements for n in N.elements if frame_n.leq[n][f.map[h]]
    ]
    index = {p: i for i, p in enumerate(carrier)}
    tn, th = N.table, H.table
    table = tuple(
        tuple(index[(tn[n1][n2], th[h1][h2])] for n2, h2 in carrier) for n1, h1 in carrier
    )
    labels = tuple("(%s,%s)" % (N.label(n), H.label(h)) for n, h in carrier)
    laws = check_monoid(table, index[(N.identity, H.identity)], labels)
    if not laws.ok:
        raise ConsistencyError("glueing carrier fails monoid laws: %s" % (laws.violations[0],))
    G = laws.value
    glued = check_frame(G)
    if not glued.ok:
        raise ConsistencyError("glueing carrier fails frame laws: %s" % (glued.violations[0],))
    k = MonoidHom(N, G, tuple(index[(n, H.identity)] for n in N.elements))
    e = MonoidHom(G, H, tuple(h for _, h in carrier))
    s = MonoidHom(H, G, tuple(index[(f.map[h], h)] for h in H.elements))
    ext = SplitExtension(N, G, H, k, e, s)
    verdict = verify_split_extension(ext)
    if not verdict.ok:
        raise ConsistencyError("glueing fails extension laws: %s" % (verdict.violations[0],))
    ext = verdict.value
    SchreierRetraction(ext, tuple(n for n, _ in carrier), unique=False)
    return glued.value, ext


def glueing_equals_lambda(f: MonoidHom) -> bool:
    """The glueing of f and the lambda product of h.n = f(h) meet n are the
    same labelled structure: same carrier pairs in the same order, same
    table, and the same k, e, s maps."""
    _, ext = artin_glueing(f)
    lam: LambdaProduct = lambda_product(artin_like_action(f))
    frame_n = check_frame(f.target).expect("check_frame(target)")
    glue_carrier = tuple(
        (n, h)
        for h in f.source.elements
        for n in f.target.elements
        if frame_n.leq[n][f.map[h]]
    )
    same_carrier = lam.carrier == glue_carrier
    return (
        same_carrier
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
