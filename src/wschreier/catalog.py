"""Exhaustively generated catalogs of small monoids, plus named fixtures.

The catalogs are the desk-scale oracles: every monoid of a given order up to
isomorphism, from a cell search over Cayley tables with the identity pinned
at 0 (monoid._cell_search), deduplicated via canonical relabelling, and kept
once per size by functools.cache; a refused size raises on every call.
"""

from __future__ import annotations

from functools import cache

from .monoid import (
    FiniteMonoid,
    MonoidHom,
    PreconditionError,
    _cell_search,
    _hom_search,
    canonical_form,
    center,
    idempotents,
    inverse_structure,
)

__all__ = [
    "trivial_monoid",
    "cyclic_group",
    "chain_lattice",
    "diamond_lattice",
    "m3_lattice",
    "right_zero_adjoined",
    "all_monoid_tables",
    "catalog_monoids",
    "catalog_inverse_monoids",
    "commutative_idempotent_monoids",
    "all_homs",
    "central_idempotent_homs",
]


def trivial_monoid() -> FiniteMonoid:
    return FiniteMonoid(1, 0, ((0,),), ("1",))


def cyclic_group(k: int) -> FiniteMonoid:
    table = tuple(tuple((a + b) % k for b in range(k)) for a in range(k))
    labels = ("1",) + tuple("g%d" % a if a > 1 else "g" for a in range(1, k))
    return FiniteMonoid(k, 0, table, labels)


def chain_lattice(k: int) -> FiniteMonoid:
    """The k-element chain as a meet monoid: index 0 is the top (identity),
    index k-1 the bottom, and the product of two elements is the lower one."""
    table = tuple(tuple(max(a, b) for b in range(k)) for a in range(k))
    if k == 1:
        labels = ("1",)
    elif k == 3:
        labels = ("1", "a", "0")
    else:
        labels = ("1",) + tuple("a%d" % i for i in range(1, k - 1)) + ("0",)
    return FiniteMonoid(k, 0, table, labels)


def diamond_lattice() -> FiniteMonoid:
    """Four elements: top, two incomparable middles, bottom (the 2x2 Boolean
    lattice).  The product of two elements is their meet."""
    table = ((0, 1, 2, 3), (1, 1, 3, 3), (2, 3, 2, 3), (3, 3, 3, 3))
    return FiniteMonoid(4, 0, table, ("1", "x", "y", "0"))


def m3_lattice() -> FiniteMonoid:
    """Five elements: top, three pairwise incomparable middles, bottom.  A
    lattice but not distributive.  The product of two elements is their meet."""
    table = ((0, 1, 2, 3, 4), (1, 1, 4, 4, 4), (2, 4, 2, 4, 4), (3, 4, 4, 3, 4), (4,) * 5)
    return FiniteMonoid(5, 0, table, ("1", "x", "y", "z", "0"))


def right_zero_adjoined(k: int = 2) -> FiniteMonoid:
    """A k-element right-zero semigroup (x*y = y) with an identity adjoined."""
    n = k + 1
    table = [[b for b in range(n)]]
    for a in range(1, n):
        table.append([a] + [b for b in range(1, n)])
    labels = ("1",) + tuple(chr(ord("a") + i) for i in range(k))
    return FiniteMonoid(n, 0, tuple(map(tuple, table)), labels)


def _associative_tables(n: int, lattice: bool = False):
    """Monoid tables on 0..n-1 with identity 0, lexicographically: a cell
    search over the cells off row and column 0 in row order.  With lattice,
    a*a = a is fixed and b*a is written with a*b, so the tables are
    commutative and idempotent.  Each instance (xy)z = x(yz) is checked once
    its four reads are written, so every table yielded is associative."""
    if n < 1:
        return iter(())  # no monoid is empty
    rest = range(1, n)
    if lattice:
        cells = [((a, b), (b, a)) for a in rest for b in range(a + 1, n)]
    else:
        cells = [((a, b),) for a in rest for b in rest]
    t = [list(range(n))] + [[a] * n for a in rest]
    order = [[-1] * n for _ in range(n)]  # the cell that writes t[a][b]; -1 when fixed
    for k, positions in enumerate(cells):
        for a, b in positions:
            order[a][b] = k

    def check(k, v):
        for a, b in cells[k]:
            ta, oa, ob, tv, ov = t[a], order[a], order[b], t[v], order[v]
            for x in rest:
                tx, ox = t[x], order[x]
                bx, xa = t[b][x], tx[a]
                # (ab)x = a(bx), then (xa)b = x(ab)
                if ov[x] <= k and ob[x] <= k and oa[bx] <= k and tv[x] != ta[bx]:
                    return False
                if ox[a] <= k and order[xa][b] <= k and ox[v] <= k and t[xa][b] != tx[v]:
                    return False
                for y in rest:
                    if ox[y] > k:
                        continue
                    xy = tx[y]
                    # (xy)b = x(yb) with xy = a, then (ax)y = a(xy) with xy = b
                    if xy == a and order[y][b] <= k and ox[t[y][b]] <= k and tx[t[y][b]] != v:
                        return False
                    if xy == b and oa[x] <= k and order[ta[x]][y] <= k and t[ta[x]][y] != v:
                        return False
        return True

    return _cell_search(t, cells, [range(n)] * len(cells), check)


def all_monoid_tables(n: int):
    """Yield every Cayley table of a monoid on 0..n-1 with identity 0, in
    lexicographic order, and none for n < 1: a search over the cells off
    row and column 0 under associativity."""
    return _associative_tables(n)


def _isomorphism_classes(tables, max_size: int) -> tuple:
    """One canonical monoid per isomorphism class among the tables(n) for
    n = 1..max_size, by size then by canonical form.  tables(n) yields monoid
    tables on 0..n-1 with identity 0."""
    out = []
    for n in range(1, max_size + 1):
        seen = {}
        for table in tables(n):
            cf = canonical_form(FiniteMonoid(n, 0, table))
            if cf not in seen:
                seen[cf] = FiniteMonoid(n, 0, cf[1])
        out.extend(seen[cf] for cf in sorted(seen))
    return tuple(out)


@cache
def catalog_monoids(max_size: int = 4) -> tuple:
    """All monoids of size 1..max_size up to isomorphism, by size then by
    canonical table.  Sizes above 4 are refused: the table search reaches
    size 5, but every caller is sized to the 45 monoids up to size 4 (35 of
    them of size 4), and deduplicating the 4,122 tables of size 5 alone takes
    about a second."""
    if max_size > 4:
        raise PreconditionError("catalog_monoids is meant for desk scale (size <= 4)")
    return _isomorphism_classes(all_monoid_tables, max_size)


@cache
def catalog_inverse_monoids(max_size: int = 4) -> tuple:
    """The inverse monoids of the catalog, paired with their inverse tables."""
    out = []
    for M in catalog_monoids(max_size):
        verdict = inverse_structure(M)
        if verdict.ok:
            out.append(verdict.value)
    return tuple(out)


def commutative_idempotent_monoids(max_size: int = 5) -> tuple:
    """All commutative idempotent monoids (meet semilattices with top) of
    size 1..max_size up to isomorphism, from the table search with the
    diagonal fixed and each cell assigned together with its mirror."""
    return _isomorphism_classes(lambda n: _associative_tables(n, True), max_size)


def all_homs(A: FiniteMonoid, B: FiniteMonoid) -> tuple:
    """Every monoid hom A -> B, in lexicographic order of the map: the hom
    search with 1 sent to B's identity and each generator of A anywhere."""
    one = (B.identity,)
    maps = _hom_search(A, B.table, lambda x: one if x == A.identity else B.elements)
    return tuple(MonoidHom(A, B, m) for m in sorted(maps))


def central_idempotent_homs(H: FiniteMonoid, N: FiniteMonoid) -> tuple:
    """Homs H -> N whose image lies in the central idempotents of N."""
    allowed = set(idempotents(N)) & set(center(N))
    return tuple(f for f in all_homs(H, N) if set(f.map) <= allowed)
