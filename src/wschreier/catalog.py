"""Exhaustively generated catalogs of small monoids, plus named fixtures.

The catalogs are the desk-scale oracles: every monoid of a given order up to
isomorphism, generated by depth-first search over Cayley tables with the
identity pinned at index 0 and deduplicated via canonical relabelling.
"""

from __future__ import annotations

from itertools import product

from .monoid import (
    FiniteMonoid,
    MonoidHom,
    PreconditionError,
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
    elif k == 2:
        labels = ("1", "0")
    elif k == 3:
        labels = ("1", "a", "0")
    else:
        labels = ("1",) + tuple("a%d" % i for i in range(1, k - 1)) + ("0",)
    return FiniteMonoid(k, 0, table, labels)


def _meet_monoid_from_leq(leq, labels):
    """Build the meet monoid of a poset given as a leq matrix.  Every pair is
    assumed to have a meet (greatest common lower bound)."""
    n = len(leq)
    table = []
    for a in range(n):
        row = []
        for b in range(n):
            lower = [c for c in range(n) if leq[c][a] and leq[c][b]]
            meets = [c for c in lower if all(leq[d][c] for d in lower)]
            if len(meets) != 1:
                raise ValueError("poset lacks a meet for (%d,%d)" % (a, b))
            row.append(meets[0])
        table.append(tuple(row))
    top = [a for a in range(n) if all(leq[b][a] for b in range(n))]
    return FiniteMonoid(n, top[0], tuple(table), labels)


def diamond_lattice() -> FiniteMonoid:
    """Four elements: top, two incomparable middles, bottom (the 2x2 Boolean
    lattice)."""
    order = {(0, 0), (1, 1), (2, 2), (3, 3), (3, 1), (3, 2), (3, 0), (1, 0), (2, 0)}
    leq = [[(a, b) in order for b in range(4)] for a in range(4)]
    return _meet_monoid_from_leq(leq, ("1", "x", "y", "0"))


def m3_lattice() -> FiniteMonoid:
    """Five elements: top, three pairwise incomparable middles, bottom.  A
    lattice but not distributive."""
    n = 5
    leq = [[False] * n for _ in range(n)]
    for a in range(n):
        leq[a][a] = True
        leq[a][0] = True
        leq[4][a] = True
    return _meet_monoid_from_leq(leq, ("1", "x", "y", "z", "0"))


def right_zero_adjoined(k: int = 2) -> FiniteMonoid:
    """A k-element right-zero semigroup (x*y = y) with an identity adjoined."""
    n = k + 1
    table = [[b for b in range(n)]]
    for a in range(1, n):
        table.append([a] + [b for b in range(1, n)])
    labels = ("1",) + tuple(chr(ord("a") + i) for i in range(k))
    return FiniteMonoid(n, 0, tuple(map(tuple, table)), labels)


# Not check_monoid, which lists every violation: about 6x slower on these candidates.
def _associative(table, n) -> bool:
    for a in range(n):
        ra = table[a]
        for b in range(n):
            rab = table[ra[b]]
            rb = table[b]
            for c in range(n):
                if rab[c] != ra[rb[c]]:
                    return False
    return True


def all_monoid_tables(n: int):
    """Yield every Cayley table of a monoid on 0..n-1 with identity 0.

    Rows are left-multiplication maps; row 0 is the identity map and column 0
    is fixed by the identity law.  Associativity says the row of a*b is the
    composite of the rows of a and b, which prunes the search as rows are
    chosen.
    """
    if n == 1:
        yield ((0,),)
        return
    idrow = tuple(range(n))
    rows = [idrow] + [None] * (n - 1)

    def compatible(a, b):
        # both rows known: row(a*b) must equal row_a o row_b where known
        ab = rows[a][b]
        composed = tuple(rows[a][rows[b][x]] for x in range(n))
        if rows[ab] is None:
            return composed[0] == ab  # column 0 constraint for a future row
        return rows[ab] == composed

    def fill(a):
        if a == n:
            table = tuple(rows)
            if _associative(table, n):
                yield table
            return
        for cand in product(range(n), repeat=n - 1):
            row = (a,) + cand  # a*identity = a
            rows[a] = row
            ok = True
            for b in range(1, a + 1):
                if not compatible(a, b) or (b != a and not compatible(b, a)):
                    ok = False
                    break
            if ok:
                yield from fill(a + 1)
        rows[a] = None

    yield from fill(1)


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


_monoid_cache: dict = {}


def catalog_monoids(max_size: int = 4) -> tuple:
    """All monoids of size 1..max_size up to isomorphism, by size then by
    canonical table.  Exhaustive and deduplicated; sizes above 4 are refused
    because the unrestricted table search explodes (commutative idempotent
    tables have their own generator that reaches size 5)."""
    if max_size > 4:
        raise PreconditionError("catalog_monoids is meant for desk scale (size <= 4)")
    key = max_size
    if key in _monoid_cache:
        return _monoid_cache[key]
    result = _isomorphism_classes(all_monoid_tables, max_size)
    _monoid_cache[key] = result
    return result


_inverse_cache: dict = {}


def catalog_inverse_monoids(max_size: int = 4) -> tuple:
    """The inverse monoids of the catalog, paired with their inverse tables."""
    if max_size in _inverse_cache:
        return _inverse_cache[max_size]
    out = []
    for M in catalog_monoids(max_size):
        verdict = inverse_structure(M)
        if verdict.ok:
            out.append(verdict.value)
    result = tuple(out)
    _inverse_cache[max_size] = result
    return result


def commutative_idempotent_monoids(max_size: int = 5) -> tuple:
    """All commutative idempotent monoids (meet semilattices with top) of
    size 1..max_size up to isomorphism.  The symmetric, diagonal-fixed table
    space is tiny even at size 5, unlike the full monoid search."""

    def tables(n):
        cells = [(i, j) for i in range(1, n) for j in range(i + 1, n)]
        for values in product(range(n), repeat=len(cells)):
            table = [[0] * n for _ in range(n)]
            for a in range(n):
                table[0][a] = a
                table[a][0] = a
                table[a][a] = a
            for (i, j), v in zip(cells, values):
                table[i][j] = v
                table[j][i] = v
            table = tuple(map(tuple, table))
            if _associative(table, n):
                yield table

    return _isomorphism_classes(tables, max_size)


def all_homs(A: FiniteMonoid, B: FiniteMonoid) -> tuple:
    """Every monoid hom A -> B, in lexicographic order of the map: the hom
    search with 1 sent to B's identity and each generator of A anywhere."""
    one = (B.identity,)
    maps = _hom_search(A, B.mul, lambda x: one if x == A.identity else B.elements)
    return tuple(MonoidHom(A, B, m) for m in sorted(maps))


def central_idempotent_homs(H: FiniteMonoid, N: FiniteMonoid) -> tuple:
    """Homs H -> N whose image lies in the central idempotents of N."""
    allowed = set(idempotents(N)) & set(center(N))
    return tuple(f for f in all_homs(H, N) if set(f.map) <= allowed)
