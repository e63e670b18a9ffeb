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
build_extension (extension._extension_on_carrier), so glueing_equals_lambda
compares two independent constructions.
"""

from __future__ import annotations

from dataclasses import dataclass

from .monoid import (
    ConsistencyError,
    FiniteMonoid,
    MonoidHom,
    Verdict,
    Violation,
    check_hom,
)
from .extension import SchreierRetraction, _extension_on_carrier
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


def _glueing(f: MonoidHom):
    """The glueing frame, its extension and its carrier pairs, with the
    frames and f validated first."""
    _, frame_n = _require_frames(f)
    H, N = f.source, f.target
    tn, th = N.table, H.table
    leq = frame_n.leq
    carrier = tuple((n, h) for h in H.elements for n in N.elements if leq[n][f.map[h]])
    products = [[(tn[n1][n2], th[h1][h2]) for n2, h2 in carrier] for n1, h1 in carrier]
    s = [(f.map[h], h) for h in H.elements]
    ext = _extension_on_carrier(N, H, carrier, products, s, "glueing")
    glued = check_frame(ext.G)
    if not glued.ok:
        raise ConsistencyError("glueing carrier fails frame laws: %s" % (glued.violations[0],))
    SchreierRetraction(ext, tuple(n for n, _ in carrier), unique=False)
    return glued.value, ext, carrier


def artin_glueing(f: MonoidHom):
    """The glueing frame of a meet-preserving f: H -> N and its extension.

    Carrier pairs (n, h) with n <= f(h) under componentwise meet, ordered by
    h then n; k(n) = (n, top), e = second projection, s(h) = (f(h), h), and
    (n, h) -> n is a Schreier retraction.  Returns (FiniteFrame,
    SplitExtension); the frame laws of the carrier are re-checked and a
    failure raises ConsistencyError.
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
