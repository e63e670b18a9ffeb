"""Shared fixtures and independent brute-force oracles.

The oracle functions below restate the defining conditions directly from
first principles, without reusing the library's checkers, so that library
results can be compared against an independent implementation.
"""

from __future__ import annotations

import itertools
import sys

import pytest

from wschreier import frames as frames_mod, waction as waction_mod
from wschreier.catalog import chain_lattice, cyclic_group, m3_lattice, trivial_monoid
from wschreier.extension import SplitExtension, _extension_on_carrier, direct_product_extension
from wschreier.frames import FiniteFrame, artin_glueing
from wschreier.monoid import (
    BoundExceeded,
    Congruence,
    ConsistencyError,
    FiniteMonoid,
    FormatError,
    MonoidHom,
    PreconditionError,
    Verdict,
    Violation,
    are_isomorphic,
    check_hom,
    generating_plan,
    inverse_structure,
)
from wschreier.lambda_product import InverseAction, artin_like_action, lambda_product
from wschreier.waction import (
    DEFAULT_BOUND,
    ActionTable,
    AdmissibleRelation,
    WActPair,
    _bell,
    action_signature,
    check_admissible,
    check_compatible_action,
)


# ---------------------------------------------------------------------------
# fixture monoids


@pytest.fixture(scope="session")
def t1():
    return trivial_monoid()


@pytest.fixture(scope="session")
def c2():
    return cyclic_group(2)


@pytest.fixture(scope="session")
def sl2():
    return chain_lattice(2)


@pytest.fixture(scope="session")
def sl3():
    return chain_lattice(3)


def make_inverse_action(N: FiniteMonoid, H: FiniteMonoid, act) -> InverseAction:
    n_inv = inverse_structure(N).expect("N is inverse")
    h_inv = inverse_structure(H).expect("H is inverse")
    return InverseAction(n_inv, h_inv, tuple(tuple(row) for row in act))


@pytest.fixture(scope="session")
def alpha_a(sl3, sl2):
    """Action of the 2-chain on the 3-chain that collapses everything to a
    away from the identity."""
    return make_inverse_action(sl3, sl2, ((0, 1, 2), (1, 1, 1)))


@pytest.fixture(scope="session")
def alpha_0(sl3, sl2):
    """Action of the 2-chain on the 3-chain that collapses everything to
    bottom away from the identity."""
    return make_inverse_action(sl3, sl2, ((0, 1, 2), (2, 2, 2)))


# ---------------------------------------------------------------------------
# naive oracles


def naive_is_monoid(table, identity) -> bool:
    n = len(table)
    if not 0 <= identity < n:
        return False
    for a in range(n):
        if table[identity][a] != a or table[a][identity] != a:
            return False
    for a in range(n):
        for b in range(n):
            if not 0 <= table[a][b] < n:
                return False
            for c in range(n):
                if table[table[a][b]][c] != table[a][table[b][c]]:
                    return False
    return True


def naive_is_hom(source: FiniteMonoid, target: FiniteMonoid, map_) -> bool:
    if map_[source.identity] != target.identity:
        return False
    return all(
        map_[source.mul(a, b)] == target.mul(map_[a], map_[b])
        for a in source.elements
        for b in source.elements
    )


def reference_hom_violation(source: FiniteMonoid, target: FiniteMonoid, map_):
    """The first broken hom law as check_hom words it, or None for a hom:
    the identity first, then f(ab) = f(a)f(b) with a, then b, ascending."""
    if map_[source.identity] != target.identity:
        return "hom-identity: %d" % source.identity
    for a in source.elements:
        for b in source.elements:
            if map_[source.mul(a, b)] != target.mul(map_[a], map_[b]):
                return "hom-mul: %d %d" % (a, b)
    return None


def set_partitions(items):
    """All partitions of a list, as tuples of tuples."""
    items = list(items)
    if not items:
        yield ()
        return
    first, rest = items[0], items[1:]
    for partial in set_partitions(rest):
        for i, block in enumerate(partial):
            yield partial[:i] + ((first,) + block,) + partial[i + 1 :]
        yield ((first,),) + partial


def blocks_to_classes(n, blocks):
    out = [0] * n
    for i, block in enumerate(blocks):
        for x in block:
            out[x] = i
    return tuple(out)


def naive_admissible(N: FiniteMonoid, H: FiniteMonoid, fibers) -> bool:
    """Fibers as per-h class-id tuples over N."""

    def related(h, a, b):
        return fibers[h][a] == fibers[h][b]

    for n1 in N.elements:
        for n2 in N.elements:
            if related(H.identity, n1, n2) and n1 != n2:
                return False
    for h in H.elements:
        for n1 in N.elements:
            for n2 in N.elements:
                if not related(h, n1, n2):
                    continue
                for x in N.elements:
                    if not related(h, N.mul(x, n1), N.mul(x, n2)):
                        return False
                for y in H.elements:
                    if not related(H.mul(h, y), n1, n2):
                        return False
    return True


def naive_compatible(N: FiniteMonoid, H: FiniteMonoid, fibers, act) -> bool:
    """The six compatibility conditions, stated directly."""

    def related(h, a, b):
        return fibers[h][a] == fibers[h][b]

    one_n, one_h = N.identity, H.identity
    for h in H.elements:
        if not related(h, act[h][one_n], one_n):
            return False
    for n in N.elements:
        if act[one_h][n] != n:
            return False
    for h in H.elements:
        for n1 in N.elements:
            for n2 in N.elements:
                lhs = N.mul(act[h][n1], act[h][n2])
                if not related(h, act[h][N.mul(n1, n2)], lhs):
                    return False
    for h1 in H.elements:
        for h2 in H.elements:
            for n in N.elements:
                lhs = act[H.mul(h1, h2)][n]
                if not related(H.mul(h1, h2), lhs, act[h1][act[h2][n]]):
                    return False
    for h in H.elements:
        for n1 in N.elements:
            for n2 in N.elements:
                if not related(h, n1, n2):
                    continue
                for n in N.elements:
                    if not related(h, N.mul(n1, n), N.mul(n2, n)):
                        return False
    for h1 in H.elements:
        for n1 in N.elements:
            for n2 in N.elements:
                if not related(h1, n1, n2):
                    continue
                for h2 in H.elements:
                    prod = H.mul(h2, h1)
                    if not related(prod, act[h2][n1], act[h2][n2]):
                        return False
    return True


def naive_wschreier_pairs(N: FiniteMonoid, H: FiniteMonoid):
    """Every admissible-relation/compatible-action pair, deduplicated by the
    class pattern of the action; returns a set of canonical keys."""
    per_h = []
    for h in H.elements:
        if h == H.identity:
            per_h.append([tuple(range(N.size))])
        else:
            per_h.append(
                [
                    blocks_to_classes(N.size, blocks)
                    for blocks in set_partitions(range(N.size))
                ]
            )
    keys = set()
    all_acts = itertools.product(
        *[
            [tuple(range(N.size))] if h == H.identity else
            list(itertools.product(N.elements, repeat=N.size))
            for h in H.elements
        ]
    )
    all_acts = list(all_acts)
    for fibers in itertools.product(*per_h):
        if not naive_admissible(N, H, fibers):
            continue
        norm = tuple(normalize_classes(f) for f in fibers)
        for act in all_acts:
            if not naive_compatible(N, H, norm, act):
                continue
            signature = tuple(
                norm[h][act[h][n]] for h in H.elements for n in N.elements
            )
            keys.add((norm, signature))
    return keys


def normalize_classes(class_id):
    seen = {}
    out = []
    for c in class_id:
        if c not in seen:
            seen[c] = len(seen)
        out.append(seen[c])
    return tuple(out)


def naive_inverse_actions(N: FiniteMonoid, H: FiniteMonoid):
    """All action tables satisfying the three inverse-action laws, found by
    filtering every function H x N -> N."""
    found = []
    for flat in itertools.product(N.elements, repeat=N.size * H.size):
        act = tuple(
            flat[h * N.size : (h + 1) * N.size] for h in H.elements
        )
        if any(act[H.identity][n] != n for n in N.elements):
            continue
        ok = all(
            act[h][N.mul(n1, n2)] == N.mul(act[h][n1], act[h][n2])
            for h in H.elements
            for n1 in N.elements
            for n2 in N.elements
        ) and all(
            act[H.mul(h1, h2)][n] == act[h1][act[h2][n]]
            for h1 in H.elements
            for h2 in H.elements
            for n in N.elements
        )
        if ok:
            found.append(act)
    return found


def reference_semigroup_endomorphisms(M: FiniteMonoid) -> tuple:
    """The generate-and-test loop that the hom search replaced, kept as the
    reference for semigroup_endomorphisms: every one of the size^size maps
    is tested against every law f(a b) = f(a) f(b).  Sorted."""
    t = M.table
    n = M.size
    out = []
    for f in itertools.product(range(n), repeat=n):
        ok = True
        for a in range(n):
            fa = f[a]
            for b in range(n):
                if f[t[a][b]] != t[fa][f[b]]:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            out.append(f)
    return tuple(sorted(out))


def reference_all_homs(A: FiniteMonoid, B: FiniteMonoid) -> tuple:
    """The generate-and-test loop that the hom search replaced, kept as the
    reference for all_homs: every map sending 1 to 1 is tested with
    naive_is_hom, in lexicographic order of the map."""
    rest = [a for a in A.elements if a != A.identity]
    out = []
    for values in itertools.product(range(B.size), repeat=len(rest)):
        m = [B.identity] * A.size
        for a, v in zip(rest, values):
            m[a] = v
        if naive_is_hom(A, B, m):
            out.append(MonoidHom(A, B, tuple(m)))
    return tuple(out)


def reference_inverse_actions(N, H, max_candidates: int = 10**7):
    """The generate-and-test enumerator that the hom search replaced, kept
    as the reference for its output, order and refusals.

    End(N) comes from reference_semigroup_endomorphisms.  Every assignment
    of endomorphisms to the generators of H is extended along the
    generating plan, and only then are all |H|^2 hom laws checked.
    """
    endos = reference_semigroup_endomorphisms(N.base)
    gens, plan = generating_plan(H.base)
    estimate = len(endos) ** len(gens)
    if estimate > max_candidates:
        raise BoundExceeded(
            "%d candidate assignments exceed cap %d" % (estimate, max_candidates),
            estimate,
        )
    tn = N.base.size
    th = H.base.table
    identity_endo = tuple(range(tn))
    found = []
    for assignment in itertools.product(endos, repeat=len(gens)):
        phi = {}
        for x, rule in plan:
            if rule[0] == "one":
                phi[x] = identity_endo
            elif rule[0] == "gen":
                phi[x] = assignment[rule[1]]
            else:
                a, b = rule[1], rule[2]
                fa, fb = phi[a], phi[b]
                phi[x] = tuple(fa[fb[i]] for i in range(tn))
        ok = True
        for a in H.base.elements:
            fa = phi[a]
            for b in H.base.elements:
                fb = phi[b]
                if phi[th[a][b]] != tuple(fa[fb[i]] for i in range(tn)):
                    ok = False
                    break
            if not ok:
                break
        if ok:
            found.append(tuple(phi[h] for h in H.base.elements))
    found.sort()
    return tuple(InverseAction(N, H, act) for act in found)


def _reference_order(M):
    """leq of M, a commutative idempotent table, and its join table: each
    join is searched for among all upper bounds as the unique least one, and
    is None where there is none."""
    t, n = M.table, M.size
    leq = tuple(tuple(t[a][b] == a for b in range(n)) for a in range(n))

    def least_upper_bound(a, b):
        ubs = [c for c in range(n) if leq[a][c] and leq[b][c]]
        least = [c for c in ubs if all(leq[c][d] for d in ubs)]
        return least[0] if len(least) == 1 else None

    return leq, tuple(tuple(least_upper_bound(a, b) for b in range(n)) for a in range(n))


def reference_frame_laws(M):
    """The first Violation of the frame laws by M, or None, by brute force:
    idempotence and commutativity on every element and pair, then
    a(b v c) = ab v ac over every triple, with each join taken from the order
    as the least common upper bound, not from frames' up-set masks.  A pair
    with no least upper bound is a "join" violation."""
    t, n = M.table, M.size
    for a in range(n):
        if t[a][a] != a:
            return Violation("idempotent", (a,))
        for b in range(a + 1, n):
            if t[a][b] != t[b][a]:
                return Violation("commutative", (a, b))
    join = _reference_order(M)[1]
    for a, b in itertools.product(range(n), repeat=2):
        if join[a][b] is None:
            return Violation("join", (a, b))
    for a, b, c in itertools.product(range(n), repeat=3):
        if t[a][join[b][c]] != join[t[a][b]][t[a][c]]:
            return Violation("distributive", (a, b, c))
    return None


def reference_check_frame(M):
    """The frame check that computing joins as meets of upper bounds
    replaced, kept as the reference for its verdict and first violation
    (reference_frame_laws) and for its order, joins and bottom."""
    violation = reference_frame_laws(M)
    if violation is not None:
        return Verdict(None, (violation,))
    leq, join = _reference_order(M)
    bottom = 0
    for a in range(M.size):
        if leq[a][bottom]:
            bottom = a
    return Verdict(FiniteFrame(M, leq, join, bottom))


def reference_glueing_equals_lambda(f) -> bool:
    """The two-build route that comparing the glueing's parts with the lambda
    product replaced, kept as its reference: artin_glueing and lambda_product
    each build and verify an extension.  The lambda product's carrier must
    be the glueing's by definition, {(n, h) : n <= f(h)} h-major, and the
    two extensions must have the same labels, table, identity, k, e and s."""
    _, ext = artin_glueing(f)
    lam = lambda_product(artin_like_action(f))
    H, N = f.source, f.target
    carrier = tuple(
        (n, h) for h in H.elements for n in N.elements if N.table[n][f.map[h]] == n
    )
    other = lam.extension
    return (
        lam.carrier == carrier
        and other.G.labels == ext.G.labels
        and other.G.table == ext.G.table
        and other.G.identity == ext.G.identity
        and other.k.map == ext.k.map
        and other.e.map == ext.e.map
        and other.s.map == ext.s.map
    )


# ---------------------------------------------------------------------------
# element loops kept as references for the row kernels


def reference_check_monoid(table, identity=None, labels=None) -> Verdict:
    """The element-loop check_monoid that the row kernel replaced: the table
    is validated cell by cell, and every triple (a, b, c) is tested."""
    rows = tuple([tuple(row) for row in table])
    n = len(rows)
    if n == 0:
        raise FormatError("empty table")
    for i, row in enumerate(rows):
        if len(row) != n:
            raise FormatError("row %d has %d entries, expected %d" % (i, len(row), n))
        for j, v in enumerate(row):
            if not isinstance(v, int) or isinstance(v, bool) or not 0 <= v < n:
                raise FormatError("entry (%d,%d) = %r out of range 0..%d" % (i, j, v, n - 1))
    if identity is not None and (
        not isinstance(identity, int) or isinstance(identity, bool) or not 0 <= identity < n
    ):
        raise FormatError("identity index %r out of range" % (identity,))
    violations = []
    e = identity
    if e is None:
        for cand in range(n):
            if all(rows[cand][a] == a and rows[a][cand] == a for a in range(n)):
                e = cand
                break
        if e is None:
            violations.append(Violation("identity"))
    else:
        for a in range(n):
            if rows[e][a] != a or rows[a][e] != a:
                violations.append(Violation("identity", (a,)))
    for a in range(n):
        ra = rows[a]
        for b in range(n):
            ab = ra[b]
            rab = rows[ab]
            rb = rows[b]
            for c in range(n):
                if rab[c] != ra[rb[c]]:
                    violations.append(Violation("associativity", (a, b, c)))
    if violations:
        return Verdict(None, tuple(violations))
    return Verdict(FiniteMonoid(n, e, rows, labels))


def reference_congruence_closure(M, pairs) -> Congruence:
    """The union-find closure that the class-id arrays replaced: each merge
    queues the translates (xa, xb) and (ax, bx) one pair at a time."""
    n = M.size
    t = M.table
    parent = list(range(n))

    def find(a):
        while parent[a] != a:
            a = parent[a]
        return a

    work = [(int(a), int(b)) for a, b in pairs]
    for a, b in work:
        if not 0 <= a < n or not 0 <= b < n:
            raise FormatError("congruence generator (%d,%d) out of range" % (a, b))
    while work:
        a, b = work.pop()
        ra, rb = find(a), find(b)
        if ra == rb:
            continue
        parent[max(ra, rb)] = min(ra, rb)
        for x in range(n):
            work.append((t[x][a], t[x][b]))
            work.append((t[a][x], t[b][x]))
    return Congruence(M, tuple([find(a) for a in range(n)]))


# ---------------------------------------------------------------------------
# generate-and-test loops kept as references for the cell search


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


def reference_monoid_tables(n: int):
    """The row loop that the cell search replaced in all_monoid_tables.

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
        for cand in itertools.product(range(n), repeat=n - 1):
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


def reference_lattice_tables(n: int):
    """The table loop that the cell search replaced in
    commutative_idempotent_monoids: every symmetric table with the identity
    row and column and the diagonal fixed, kept when associative."""
    cells = [(i, j) for i in range(1, n) for j in range(i + 1, n)]
    for values in itertools.product(range(n), repeat=len(cells)):
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


# ---------------------------------------------------------------------------
# Birkhoff: every finite frame is the lattice of down-sets of a finite poset


def downset_frame(below) -> FiniteMonoid:
    """The frame of down-sets of a poset under intersection.  below[i] is the
    set of points strictly below point i, transitively closed.  The down-sets
    are the elements, largest first, so the whole poset is the top and the
    identity 0."""
    points = range(len(below))
    subsets = itertools.chain.from_iterable(
        itertools.combinations(points, k) for k in range(len(below) + 1)
    )
    downs = [D for D in map(frozenset, subsets) if all(below[x] <= D for x in D)]
    downs.sort(key=lambda D: (-len(D), sorted(D)))
    index = {D: i for i, D in enumerate(downs)}
    return FiniteMonoid(len(downs), 0, tuple(tuple(index[D & E] for E in downs) for D in downs))


def _bounded_posets(max_downsets: int):
    """The posets with points 0..k-1, i below j only if i < j, that have at
    most max_downsets down-sets, as below tuples.  Each new point is maximal,
    strictly above one down-set D of the points before it; the down-sets then
    gain E | {k} for each old down-set E that contains D."""
    found = []

    def grow(below, downs):
        found.append(below)
        for D in downs:
            grown = [E | {len(below)} for E in downs if D <= E]
            if len(downs) + len(grown) <= max_downsets:
                grow(below + (D,), downs + grown)

    grow((), [frozenset()])
    return found


def downset_frames(max_size: int) -> list:
    """One downset_frame per isomorphism class with at most max_size
    elements, ordered by size: by Birkhoff's theorem, one per finite frame.
    Copies are removed with are_isomorphic among the frames with the same
    multiset of (elements below, elements above) per element."""
    buckets = {}
    for below in _bounded_posets(max_size):
        M = downset_frame(below)
        t = M.table
        key = sorted(
            (sum(t[a][b] == b for b in M.elements), sum(t[a][b] == a for b in M.elements))
            for a in M.elements
        )
        bucket = buckets.setdefault((M.size, tuple(key)), [])
        if not any(are_isomorphic(M, other) for other in bucket):
            bucket.append(M)
    return sorted((M for bucket in buckets.values() for M in bucket), key=lambda M: M.size)


# ---------------------------------------------------------------------------
# non-distributive lattices past size 6, built from M3 and the pentagon N5

N5_TABLE = ((0, 1, 2, 3, 4), (1, 1, 1, 1, 1), (2, 1, 2, 1, 1), (3, 1, 1, 3, 3), (4, 1, 1, 3, 4))


def _meet_lattice(points, meet, top) -> FiniteMonoid:
    """The lattice on points as the monoid of its meets, top the identity."""
    index = {p: i for i, p in enumerate(points)}
    table = tuple(tuple(index[meet(a, b)] for b in points) for a in points)
    return FiniteMonoid(len(points), index[top], table)


def ordinal_sum(lower: FiniteMonoid, upper: FiniteMonoid) -> FiniteMonoid:
    """The lattice with every element of lower below every element of upper;
    each is given by its meet table with its top as the identity."""
    points = [(0, a) for a in lower.elements] + [(1, b) for b in upper.elements]

    def meet(x, y):
        if x[0] != y[0]:
            return min(x, y)
        return x[0], (upper if x[0] else lower).table[x[1]][y[1]]

    return _meet_lattice(points, meet, (1, upper.identity))


def product_lattice(A: FiniteMonoid, B: FiniteMonoid) -> FiniteMonoid:
    """The product of two lattices, each given by its meet table, ordered
    componentwise."""
    points = list(itertools.product(A.elements, B.elements))
    return _meet_lattice(
        points, lambda x, y: (A.table[x[0]][y[0]], B.table[x[1]][y[1]]), (A.identity, B.identity)
    )


def non_distributive_lattices() -> list:
    """M3 and N5 with a chain of 2 or 3 stacked above or below them (sizes 7
    and 8), and M3 x C2 and N5 x C2 (size 10).  Each holds M3 or N5 as a
    sublattice, so none is distributive."""
    out = []
    for L in (m3_lattice(), FiniteMonoid(5, 0, N5_TABLE)):
        for k in (2, 3):
            out += [ordinal_sum(chain_lattice(k), L), ordinal_sum(L, chain_lattice(k))]
        out.append(product_lattice(L, chain_lattice(2)))
    return out


def _set_partitions(n: int):
    """Partitions of 0..n-1 as restricted-growth strings, lexicographically.
    n is the size of a monoid, so at least 1."""

    def rec(prefix, maxc):
        i = len(prefix)
        if i == n:
            yield tuple(prefix)
            return
        for c in range(maxc + 2):
            prefix.append(c)
            yield from rec(prefix, max(maxc, c))
            prefix.pop()

    yield from rec([0], 0)


def reference_admissible_relations(N: FiniteMonoid, H: FiniteMonoid):
    """The loop that the cell search replaced in admissible_relations: every
    choice of a partition per non-identity fiber, checked in full, in
    lexicographic order of the non-identity fibers."""
    others = [h for h in H.elements if h != H.identity]
    discrete = tuple(range(N.size))
    for combo in itertools.product(list(_set_partitions(N.size)), repeat=len(others)):
        fibers = [discrete] * H.size
        for h, f in zip(others, combo):
            fibers[h] = f
        E = AdmissibleRelation(N, H, tuple(fibers))
        if check_admissible(E).ok:
            yield E


def reference_compatible_actions(E):
    """The generate-and-test loop that the class-minimum search replaced:
    every table with the identity row forced and the column at 1 in N
    inside 1's class, fully checked, in lexicographic table order."""
    N, H = E.N, E.H
    one_n, one_h = N.identity, H.identity
    choices = []
    for h in H.elements:
        for n in N.elements:
            if h == one_h:
                choices.append((n,))
            elif n == one_n:
                f = E.fibers[h]
                choices.append(tuple(v for v in N.elements if f[v] == f[one_n]))
            else:
                choices.append(tuple(N.elements))
    for flat in itertools.product(*choices):
        act = tuple(flat[h * N.size : (h + 1) * N.size] for h in H.elements)
        a = ActionTable(N, H, act)
        if check_compatible_action(E, a).ok:
            yield a


def reference_wactions(N, H, bound: int = DEFAULT_BOUND):
    """The generate-and-test enumerator that the class-minimum search
    replaced, kept as the reference for its output, order and refusals.

    Every compatible table is generated and the first one of each class
    (equal action signatures) is kept.
    """
    if N.size * H.size > bound:
        estimate = _bell(N.size) ** (H.size - 1) * N.size ** ((H.size - 1) * N.size)
        raise BoundExceeded(
            "|N|*|H| = %d exceeds bound %d (about %d raw candidates)"
            % (N.size * H.size, bound, estimate),
            estimate,
        )
    out = []
    for E in reference_admissible_relations(N, H):
        seen = set()
        for a in reference_compatible_actions(E):
            sig = action_signature(E, a)
            if sig in seen:
                continue
            seen.add(sig)
            out.append(WActPair(E, a))
    return tuple(out)


def reference_build_extension(p):
    """The set-per-class-pair loop that the cell table of build_extension
    replaced: the pair is checked in full, then for every pair of carrier
    classes the set of the classes of n1 * alpha(h1, n2) over all members
    n1 and n2 must hold one class; the extension is then assembled by the
    library's shared builder, as it was."""
    check_admissible(p.E).expect("check_admissible")
    check_compatible_action(p.E, p.alpha).expect("check_compatible_action")
    N, H, E = p.N, p.H, p.E
    act = p.alpha.act
    tn, th = N.table, H.table
    carrier, members, least = [], [], []  # least[h][n]: least member of n's class
    for h in H.elements:
        blocks = E.blocks(h)
        carrier.extend((block[0], h) for block in blocks)
        members.extend(blocks)
        least.append(tuple(blocks[c][0] for c in E.fibers[h]))
    products = []
    for i, (_, h1) in enumerate(carrier):
        row = []
        for j, (_, h2) in enumerate(carrier):
            h = th[h1][h2]
            lh = least[h]
            results = {lh[tn[n1][act[h1][n2]]] for n1 in members[i] for n2 in members[j]}
            if len(results) != 1:
                raise ConsistencyError("product of classes %d and %d is not well defined" % (i, j))
            row.append((results.pop(), h))
        products.append(row)
    s = [(least[h][N.identity], h) for h in H.elements]
    return _extension_on_carrier(N, H, carrier, products, s, "built extension", "[%s,%s]")[0]


def relabelled_pair(p, rng):
    """p carried to relabelled copies of N and H (see relabelled), as a new,
    unchecked WActPair: fiber pH[h] relates pN[n1] and pN[n2] when fiber h
    relates n1 and n2, and alpha'(pH[h], pN[n]) = pN[alpha(h, n)]."""
    pN, pH = (rng.sample(M.elements, M.size) for M in (p.N, p.H))
    N, H = _transported(p.N, pN), _transported(p.H, pH)
    fibers = [[0] * N.size for _ in H.elements]
    act = [[0] * N.size for _ in H.elements]
    for h in p.H.elements:
        for n in p.N.elements:
            fibers[pH[h]][pN[n]] = p.E.fibers[h][n]
            act[pH[h]][pN[n]] = pN[p.alpha.act[h][n]]
    return WActPair(AdmissibleRelation(N, H, fibers), ActionTable(N, H, act))


def _transported(M, p):
    table = [[0] * M.size for _ in M.elements]
    for a in M.elements:
        for b in M.elements:
            table[p[a]][p[b]] = p[M.table[a][b]]
    return FiniteMonoid(M.size, p[M.identity], tuple(map(tuple, table)))


def fresh(M):
    """An equal, never-checked instance of M."""
    return FiniteMonoid(M.size, M.identity, M.table, M.labels)


def relabelled(M, rng):
    """M under a random permutation of its elements, identity included."""
    p = list(M.elements)
    rng.shuffle(p)
    return _transported(M, p)


def one_cell_mutant(table, rng, bound=None):
    """table with one cell, chosen by rng, moved to another value in
    range(bound), by default range(len(table)); with bound 1 (a table of
    one element) it is returned as it is.  A map is mutated as a table of
    one row, (map,)."""
    bound = bound or len(table)
    rows = [list(r) for r in table]
    if bound > 1:
        i = rng.randrange(len(rows))
        j = rng.randrange(len(rows[i]))
        rows[i][j] = (rows[i][j] + rng.randrange(1, bound)) % bound
    return tuple(map(tuple, rows))


def factor_cell_mutant(carrier, ext, rng):
    """ext.G's table with the cell k(n) * s(h) of a random carrier pair
    (n, h) moved to another element."""
    n, h = carrier[rng.randrange(len(carrier))]
    k, s = ext.k.map[n], ext.s.map[h]
    rows = [list(r) for r in ext.G.table]
    rows[k][s] = (rows[k][s] + rng.randrange(1, ext.G.size)) % ext.G.size
    return tuple(map(tuple, rows))


def full_path_outcome(build, *args):
    """outcome(build, *args) with the associativity and hom checks of
    wschreier.extension run in full, never on generators: check_monoid as
    reference_check_monoid, and _hom_laws on every left factor."""
    extension = sys.modules["wschreier.extension"]
    saved = extension.check_monoid, extension._hom_laws
    extension.check_monoid = lambda t, e=None, labels=None, *, _middles=None: (
        reference_check_monoid(t, e, labels)
    )
    extension._hom_laws = lambda f, lefts=None: saved[1](f)
    try:
        return outcome(build, *args)
    finally:
        extension.check_monoid, extension._hom_laws = saved


def naive_weakly_schreier(ext) -> bool:
    t = ext.G.table
    return all(
        any(
            t[ext.k.map[n]][ext.s.map[ext.e.map[g]]] == g
            for n in ext.N.elements
        )
        for g in ext.G.elements
    )


# ---------------------------------------------------------------------------
# DOT inspection helpers


def parse_dot(text):
    """Node names and directed edges of an emitted DOT graph."""
    nodes, edges = [], []
    for line in text.splitlines():
        line = line.strip()
        if "[label=" in line:
            nodes.append(line.split(" ")[0])
        elif "->" in line:
            a, b = line.rstrip(";").split(" -> ")
            edges.append((a.strip(), b.strip()))
    return nodes, edges


def assert_dag_transitively_reduced(text):
    """The graph must be acyclic and contain no edge implied by a longer
    path."""
    nodes, edges = parse_dot(text)
    adjacency = {n: [] for n in nodes}
    for a, b in edges:
        adjacency[a].append(b)

    def reachable(start, goal):
        stack = list(adjacency[start])
        seen = set()
        while stack:
            x = stack.pop()
            if x == goal:
                return True
            if x in seen:
                continue
            seen.add(x)
            stack.extend(adjacency[x])
        return False

    for n in nodes:
        assert not reachable(n, n), "cycle through %s" % n
    for a, b in edges:
        assert not any(m != b and reachable(m, b) for m in adjacency[a]), (
            "edge %s -> %s is transitively implied" % (a, b)
        )


# ---------------------------------------------------------------------------
# cached enumerations shared across test modules


class _EnumerationCache:
    def __init__(self):
        self._wact = {}
        self._inv = {}

    def wactions(self, N: FiniteMonoid, H: FiniteMonoid):
        from wschreier.waction import enumerate_wactions

        key = (N, H)
        if key not in self._wact:
            self._wact[key] = enumerate_wactions(N, H)
        return self._wact[key]

    def inverse_actions(self, N: FiniteMonoid, H: FiniteMonoid):
        from wschreier.lambda_product import enumerate_inverse_actions

        key = (N, H)
        if key not in self._inv:
            n_inv = inverse_structure(N).expect("N is inverse")
            h_inv = inverse_structure(H).expect("H is inverse")
            self._inv[key] = enumerate_inverse_actions(n_inv, h_inv)
        return self._inv[key]


@pytest.fixture(scope="session")
def enum_cache():
    return _EnumerationCache()


# ---------------------------------------------------------------------------
# broken builders: the ConsistencyError sites that correct code never reaches


@pytest.fixture()
def broken_frame_laws(monkeypatch):
    """frames._frame_laws finds distributive: 0 1 2 whenever it is given
    generators, which only the glueing carrier's check passes."""
    laws = frames_mod._frame_laws

    def broken(M, gens=None):
        return laws(M) if gens is None else Violation("distributive", (0, 1, 2))

    monkeypatch.setattr(frames_mod, "_frame_laws", broken)


@pytest.fixture()
def broken_compatibility(monkeypatch):
    """waction.check_compatible_action fails every table with action-mul: 0 0 0."""
    verdict = Verdict(None, (Violation("action-mul", (0, 0, 0)),))
    monkeypatch.setattr(waction_mod, "check_compatible_action", lambda E, a: verdict)


# ---------------------------------------------------------------------------
# derivations kept as references for the factor table of SplitExtension


def reference_retraction_candidates(ext) -> tuple:
    """The G x N scan that reading ext.ks replaced: for each g, the sorted
    tuple of n with k(n) * s(e(g)) = g, each product worked out in G."""
    t = ext.G.table
    k, e, s = ext.k.map, ext.e.map, ext.s.map
    out = []
    for g in ext.G.elements:
        sg = s[e[g]]
        out.append(tuple([n for n in ext.N.elements if t[k[n]][sg] == g]))
    return tuple(out)


def reference_extension_morphism(a, b):
    """The extension_morphism that the factor table replaced: both ends are
    tested for a retraction (find_retraction, here by its candidates), and
    the images of each g are found by rescanning N for the n with
    k_a(n) * s_a(e_a(g)) = g."""
    if a.N != b.N or a.H != b.H:
        raise FormatError("extensions do not share the same N and H")
    for ext in (a, b):
        if not all(reference_retraction_candidates(ext)):
            raise PreconditionError("extension is not weakly Schreier")
    ta, tb = a.G.table, b.G.table
    ka, sa, ea = a.k.map, a.s.map, a.e.map
    kb, sb = b.k.map, b.s.map
    fmap = []
    for g in a.G.elements:
        h = ea[g]
        sag, sbg = sa[h], sb[h]
        images = {tb[kb[n]][sbg] for n in a.N.elements if ta[ka[n]][sag] == g}
        if len(images) != 1:
            return None
        fmap.append(images.pop())
    verdict = check_hom(a.G, b.G, tuple(fmap))
    if not verdict.ok:
        return None
    f = verdict.value
    for n in a.N.elements:
        if f.map[ka[n]] != kb[n]:
            return None
    for g in a.G.elements:
        if b.e.map[f.map[g]] != ea[g]:
            return None
    for h in a.H.elements:
        if f.map[sa[h]] != sb[h]:
            return None
    return f


def reference_verify_split_extension(ext) -> Verdict:
    """verify_split_extension with the cokernel law always decided by a
    congruence closure, here reference_congruence_closure, as it was before
    the factor table decided it for weakly Schreier extensions.  The same
    laws in the same order with the same witnesses; ext is not marked."""
    for name, f in (("k", ext.k), ("e", ext.e), ("s", ext.s)):
        verdict = check_hom(f.source, f.target, f.map)
        if not verdict.ok:
            bad = verdict.violations[0]
            return Verdict(None, (Violation("%s-%s" % (name, bad.law), bad.witness),))
    G, H, k, e = ext.G, ext.H, ext.k.map, ext.e.map
    for h in H.elements:
        if e[ext.s.map[h]] != h:
            return Verdict(None, (Violation("section", (h,)),))
    for n2 in ext.N.elements:
        for n1 in range(n2):
            if k[n1] == k[n2]:
                return Verdict(None, (Violation("kernel-injective", (n1, n2)),))
    fiber = {g for g in G.elements if e[g] == H.identity}
    if set(k) != fiber:
        return Verdict(None, (Violation("kernel-image", (min(set(k) ^ fiber),)),))
    generated = reference_congruence_closure(G, [(g, G.identity) for g in k])
    if len(set(e)) != H.size or normalize_classes(e) != generated.class_id:
        return Verdict(None, (Violation("cokernel"),))
    return Verdict(ext)


def extension_mutants(N, H):
    """direct_product_extension(N, H) with one entry of e or of s moved, as
    unverified extensions: not split, not weakly Schreier, or not homs."""
    base = direct_product_extension(N, H)
    G = base.G
    for g in G.elements:
        for h in H.elements:
            if h != base.e.map[g]:
                e = base.e.map[:g] + (h,) + base.e.map[g + 1 :]
                yield SplitExtension(base.N, G, base.H, base.k, MonoidHom(G, H, e), base.s)
    for h in H.elements:
        for g in G.elements:
            if g != base.s.map[h]:
                s = base.s.map[:h] + (g,) + base.s.map[h + 1 :]
                yield SplitExtension(base.N, G, base.H, base.k, base.e, MonoidHom(H, G, s))


def reference_waction_leq(p1, p2) -> bool:
    """The pair loop that one class map per fiber replaced: E1 refines E2
    when no pair n1 < n2 related in a fiber of E1 is split in E2's."""
    if p1.N != p2.N or p1.H != p2.H:
        raise FormatError("pairs do not share the same N and H")
    f1, f2 = p1.E.fibers, p2.E.fibers
    N, H = p1.N, p1.H
    for h in H.elements:
        a, b = f1[h], f2[h]
        for n1 in N.elements:
            for n2 in range(n1 + 1, N.size):
                if a[n1] == a[n2] and b[n1] != b[n2]:
                    return False
    a1, a2 = p1.alpha.act, p2.alpha.act
    for h in H.elements:
        f = f2[h]
        for n in N.elements:
            if f[a1[h][n]] != f[a2[h][n]]:
                return False
    return True


def outcome(fn, *args):
    """fn(*args), or the type and message of the exception it raised, so
    that a function and its reference can be compared on failing input."""
    try:
        return fn(*args)
    except Exception as exc:
        return (type(exc).__name__, str(exc))
