"""Admissible relations and compatible actions: the structure equivalent to a
weakly Schreier extension of H by N.

An admissible relation E on N x H relates pairs only within a common H
component, so it is stored as one partition of N per element of H (the
fibers).  Its laws: the fiber over the identity is discrete; fibers are
stable under left multiplication on N; and the fiber over h refines the
fiber over h*y for every y.  A compatible action is a table alpha(h, n)
satisfying the six congruence-and-action laws below, each only up to E.
A fiber is read one way everywhere: its related pairs n1 < n2 come from
monoid._related_pairs, and the first classmate of class c is f.index(c).

build_extension and extract_waction convert between pairs (E, alpha) and
weakly Schreier extensions.  build_extension reads the class of each product
n1 * alpha(h1, n2) into a table with one row per cell (h1, n1); two
whole-row read-throughs over first classmates then compare every pair of
class representatives (see build_extension).  The builder shared with
lambda_product and frames.artin_glueing (extension._extension_on_carrier)
assembles and verifies the extension.  A pair keeps a passed check on it
(_validated).  waction_leq is the order matching the existence of extension
morphisms.  It reads an order key that each pair derives on first use and
keeps (_order_key): the fibers flattened cell by cell, an itemgetter over
the cell of each cell's first classmate in its fiber, and an itemgetter over
the cell of each action value.  Refinement of every fiber and agreement of
the actions are then one C-level read-through of the other pair's flattened
fibers each.  enumerate_wactions lists every pair for a given (N, H), one
canonical action per equivalence class.  The relations and the actions come
from the cell search of monoid._cell_search: one cell of a fiber or of the
table at a time, each law instance checked once its reads are known, the
actions drawn only from the least members of fiber classes.
"""

from __future__ import annotations

from operator import itemgetter

from .monoid import (
    BoundExceeded,
    ConsistencyError,
    FiniteMonoid,
    FormatError,
    Verdict,
    Violation,
    _Record,
    _bad_cell,
    _cell_search,
    _decimal,
    _normalize_classes,
    _related_pairs,
    _set,
)
from .extension import SchreierRetraction, SplitExtension, _extension_on_carrier

__all__ = [
    "AdmissibleRelation",
    "ActionTable",
    "WActPair",
    "check_admissible",
    "check_compatible_action",
    "actions_equivalent",
    "action_signature",
    "build_extension",
    "extract_waction",
    "waction_leq",
    "admissible_relations",
    "compatible_actions",
    "enumerate_wactions",
    "DEFAULT_BOUND",
]

DEFAULT_BOUND = 9


class AdmissibleRelation(_Record):
    """Per-fiber partitions of N indexed by elements of H.

    fibers[h][n] is the class id of n in the fiber over h; class ids are
    normalized by first occurrence, so equality of relations is equality of
    the fibers field.  Cross-component pairs are unrelated by construction.
    """

    _fields = ("N", "H", "fibers")

    def __init__(self, N: FiniteMonoid, H: FiniteMonoid, fibers: tuple):
        fibers = tuple(tuple(f) for f in fibers)
        if len(fibers) != H.size:
            raise FormatError("expected one fiber per element of H")
        for f in fibers:
            if len(f) != N.size:
                raise FormatError("fiber partitions must cover N")
        fibers = tuple(_normalize_classes(f) for f in fibers)
        _set(self, "N", N)
        _set(self, "H", H)
        _set(self, "fibers", fibers)

    @classmethod
    def discrete(cls, N: FiniteMonoid, H: FiniteMonoid) -> "AdmissibleRelation":
        return cls(N, H, (tuple(N.elements),) * H.size)

    def related(self, n1: int, n2: int, h: int) -> bool:
        return self.fibers[h][n1] == self.fibers[h][n2]

    def blocks(self, h: int) -> tuple:
        f = self.fibers[h]
        return tuple(tuple(n for n in self.N.elements if f[n] == c) for c in range(max(f) + 1))


def check_admissible(E: AdmissibleRelation) -> Verdict:
    """Identity fiber discrete; left-translation stability inside each fiber;
    fiber over h refines fiber over h*y."""
    N, H, fibers = E.N, E.H, E.fibers
    if merged := _related_pairs(fibers[H.identity]):
        return Verdict(None, (Violation("identity-fiber", merged[0]),))
    tn, th = N.table, H.table
    for h in H.elements:
        f = fibers[h]
        for n1, n2 in _related_pairs(f):
            for x in N.elements:
                if f[tn[x][n1]] != f[tn[x][n2]]:
                    return Verdict(None, (Violation("left-translation", (h, n1, n2, x)),))
            for y in H.elements:
                fy = fibers[th[h][y]]
                if fy[n1] != fy[n2]:
                    return Verdict(None, (Violation("right-translation", (h, n1, n2, y)),))
    return Verdict(E)


class ActionTable(_Record):
    """A raw table act[h][n] in N, prior to any law being imposed."""

    _fields = ("N", "H", "act")

    def __init__(self, N: FiniteMonoid, H: FiniteMonoid, act: tuple):
        act = tuple(tuple(row) for row in act)
        if len(act) != H.size:
            raise FormatError("expected one action row per element of H")
        for row in act:
            if len(row) != N.size:
                raise FormatError("action rows must cover N")
            if (j := _bad_cell(row, N.size)) is not None:
                raise FormatError("action value %r out of range" % (row[j],))
        _set(self, "N", N)
        _set(self, "H", H)
        _set(self, "act", act)

    def __call__(self, h: int, n: int) -> int:
        return self.act[h][n]


def check_compatible_action(E: AdmissibleRelation, a: ActionTable) -> Verdict:
    """The six laws of an action compatible with E, all up to E:

    1. n1 ~ n2 in fiber h implies n1*a(h,n) ~ n2*a(h,n) in fiber h;
    2. n ~ n' in fiber h' implies a(h,n) ~ a(h,n') in fiber h*h';
    3. a(h, n*n') ~ a(h,n)*a(h,n') in fiber h;
    4. a(h*h', n) ~ a(h, a(h',n)) in fiber h*h';
    5. a(h, 1) ~ 1 in fiber h;
    6. a(1, n) ~ n in fiber 1 (with law 5's mate, forces a(1,.) = id when
       the identity fiber is discrete).
    """
    if a.N != E.N or a.H != E.H:
        raise FormatError("action and relation live over different monoids")
    N, H = E.N, E.H
    fibers = E.fibers
    tn, th = N.table, H.table
    act = a.act
    one_n, one_h = N.identity, H.identity
    for h in H.elements:
        f = fibers[h]
        if f[act[h][one_n]] != f[one_n]:
            return Verdict(None, (Violation("action-unit-n", (h,)),))
    f1 = fibers[one_h]
    for n in N.elements:
        if f1[act[one_h][n]] != f1[n]:
            return Verdict(None, (Violation("action-unit-h", (n,)),))
    for h in H.elements:
        f = fibers[h]
        row = act[h]
        for n in N.elements:
            for n2 in N.elements:
                if f[row[tn[n][n2]]] != f[tn[row[n]][row[n2]]]:
                    return Verdict(None, (Violation("action-mul", (h, n, n2)),))
    for h in H.elements:
        for h2 in H.elements:
            hh2 = th[h][h2]
            f = fibers[hh2]
            for n in N.elements:
                if f[act[hh2][n]] != f[act[h][act[h2][n]]]:
                    return Verdict(None, (Violation("action-assoc", (h, h2, n)),))
    for h in H.elements:
        f = fibers[h]
        row = act[h]
        for n1, n2 in _related_pairs(f):
            for n in N.elements:
                if f[tn[n1][row[n]]] != f[tn[n2][row[n]]]:
                    return Verdict(None, (Violation("action-congruence-left", (h, n1, n2, n)),))
    for h2 in H.elements:
        for n1, n2 in _related_pairs(fibers[h2]):
            for h in H.elements:
                f = fibers[th[h][h2]]
                if f[act[h][n1]] != f[act[h][n2]]:
                    return Verdict(
                        None, (Violation("action-congruence-right", (h, h2, n1, n2)),)
                    )
    return Verdict(a)


def action_signature(E: AdmissibleRelation, a: ActionTable) -> tuple:
    """Class ids of every a(h, n) in fiber h; equal signatures mean the
    actions are equivalent over E."""
    return tuple(E.fibers[h][v] for h in a.H.elements for v in a.act[h])


def actions_equivalent(E: AdmissibleRelation, a: ActionTable, b: ActionTable) -> bool:
    """a(h,n) ~ b(h,n) in fiber h, for all h and n."""
    return action_signature(E, a) == action_signature(E, b)


class WActPair(_Record):
    """An admissible relation together with a compatible action."""

    _fields = ("E", "alpha")

    def __init__(self, E: AdmissibleRelation, alpha: ActionTable):
        if alpha.N != E.N or alpha.H != E.H:
            raise FormatError("relation and action live over different monoids")
        _set(self, "E", E)
        _set(self, "alpha", alpha)

    @property
    def N(self) -> FiniteMonoid:
        return self.E.N

    @property
    def H(self) -> FiniteMonoid:
        return self.E.H


def _checked(p):
    _set(p, "_valid", True)
    return p


def _validated(p: WActPair) -> WActPair:
    """p, once E is admissible and alpha compatible.  A pass is kept on p as
    _valid, outside equality, hashing and repr, as enumerate_wactions and
    extract_waction keep theirs; a failure is repeated on every call."""
    if not getattr(p, "_valid", False):
        check_admissible(p.E).expect("check_admissible")
        check_compatible_action(p.E, p.alpha).expect("check_compatible_action")
        _checked(p)
    return p


def build_extension(p: WActPair) -> SplitExtension:
    """The weakly Schreier extension with carrier (N x H) / E.

    [n, h] * [n', h'] = [n * alpha(h, n'), h * h'], k(n) = [n, 1],
    e([n, h]) = h, s(h) = [1, h]; a class is the carrier pair (least member,
    h).  Row (h1, n1) of the cell table P holds at (h2, n2) the class of
    n1 * alpha(h1, n2) over h1 * h2.  Read through R, the cell of each cell's
    first classmate, P is unchanged, so P[c] = P[first(c)], and so is each
    first row, so P[first(c)][d] = P[first(c)][first(d)]: P is constant on
    each pair of classes, which re-checks well-definedness (a theorem for
    valid input).  A failure raises ConsistencyError naming the first pair.
    """
    _validated(p)
    N, H, tn, size = p.N, p.H, p.N.table, p.N.size
    F, K = zip(*[(h * size + (n := f.index(c)), (n, h))  # first classmate, class
                 for h, f in enumerate(p.E.fibers) for c in f])
    reps = [c for c, r in enumerate(F) if c == r]
    P = []
    for act, hh in zip(p.alpha.act, H.table):
        for n1 in N.elements:
            m = [tn[n1][x] for x in act]
            P.append(tuple([K[g * size + v] for g in hh for v in m]))
    P = tuple(P)  # with one cell both getters are tuple, as in _order_key
    R, cut = (itemgetter(*F), itemgetter(*reps)) if len(P) > 1 else (tuple, tuple)
    if R(P) != P or not all(R(P[r]) == P[r] for r in reps):
        i, j = min((reps.index(a), reps.index(b)) for x, a in enumerate(F)
                   for y, b in enumerate(F) if P[x][y] != P[a][b])
        raise ConsistencyError("product of classes %d and %d is not well defined" % (i, j))
    s = [K[h * size + N.identity] for h in H.elements]
    products = [cut(P[r]) for r in reps]
    return _extension_on_carrier(N, H, cut(K), products, s, "built extension", "[%s,%s]")[0]


def extract_waction(ext: SplitExtension, r: SchreierRetraction) -> WActPair:
    """The pair (E, alpha) of a weakly Schreier extension.

    (n1, h) ~ (n2, h) iff k(n1) * s(h) = k(n2) * s(h): the fiber over h is
    row h of the factor table ext.ks, its classes numbered by first
    occurrence.  alpha(h, n) = q(s(h) * k(n)).  Any retraction q gives an
    equivalent action; the output is validated and a failure raises
    ConsistencyError.
    """
    if r.ext != ext:
        raise FormatError("retraction belongs to a different extension")
    N, H = ext.N, ext.H
    t = ext.G.table
    E = AdmissibleRelation(N, H, ext.ks)
    act = tuple(tuple(r.q[t[sh][kn]] for kn in ext.k.map) for sh in ext.s.map)
    alpha = ActionTable(N, H, act)
    pair = WActPair(E, alpha)
    va = check_admissible(E)
    vc = check_compatible_action(E, alpha)
    if not va.ok or not vc.ok:
        bad = (va.violations + vc.violations)[0]
        raise ConsistencyError("extracted pair fails validation: %s" % (bad,))
    return _checked(pair)


def _order_key(p: WActPair) -> tuple:
    """(F, R, A, S) of p, what waction_leq reads.

    F is the fibers flattened cell by cell, cell (h, n) at h * |N| + n, with
    the class ids as AdmissibleRelation normalized them; R is an itemgetter
    over, for each cell, the cell of its first classmate in the same fiber;
    A is an itemgetter over the cells h * |N| + alpha(h, n) of the action
    values; S is A(F).  An itemgetter of one index returns a bare item, so
    with one cell both getters are tuple.  Derived on first use and kept on
    the pair as _order, the way frames keeps _frame; it takes no part in the
    pair's equality, hashing or repr, and refers to neither the pair nor its
    monoids.
    """
    try:
        return p._order
    except AttributeError:
        pass
    size = p.N.size
    F, R, A = [], [], []
    for h, (f, row) in enumerate(zip(p.E.fibers, p.alpha.act)):
        F += f
        R += [h * size + f.index(c) for c in f]
        A += [h * size + v for v in row]
    # tuples from lists, as in extension._extension_on_carrier
    F = tuple(F)
    R, A = (itemgetter(*R), itemgetter(*A)) if len(F) > 1 else (tuple, tuple)
    key = (F, R, A, A(F))
    _set(p, "_order", key)
    return key


def waction_leq(p1: WActPair, p2: WActPair) -> bool:
    """(E1, [a1]) <= (E2, [a2]): E1's fibers refine E2's and
    a1(h,n) ~ a2(h,n) in E2's fiber over h for all h, n.  This is the
    existence of a morphism between the built extensions.

    Two C-level read-throughs of E2's flattened fibers F2 (see _order_key).
    E1's fiber over h refines E2's exactly when F2 takes one value on each
    class of E1 there, that is when F2 at every cell equals F2 at the cell
    of its first E1-classmate: R1(F2) == F2.  A first classmate lies in its
    own fiber, so each cell is compared only with a cell of the same fiber
    and the class ids of different fibers need no offsets to stay apart.
    A1 and A2 read the same fiber of F2, so the actions agree up to E2
    exactly when A1(F2) == S2 = A2(F2).  With one cell both getters are
    tuple, and both tests compare F2 with itself.  The shared-(N, H) guard
    compares by identity before FiniteMonoid.__eq__, as sweeps share them."""
    if (p1.N is not p2.N and p1.N != p2.N) or (p1.H is not p2.H and p1.H != p2.H):
        raise FormatError("pairs do not share the same N and H")
    _, R1, A1, _ = _order_key(p1)
    F2, _, _, S2 = _order_key(p2)
    return R1(F2) == F2 and A1(F2) == S2


def _bell(n: int) -> int:
    row = [1]
    for _ in range(n):
        nxt = [row[-1]]
        for v in row:
            nxt.append(nxt[-1] + v)
        row = nxt
    return row[0]


def admissible_relations(N: FiniteMonoid, H: FiniteMonoid):
    """All admissible relations, lexicographic in the non-identity fibers:
    a cell search over the fibers' cells (h, n), numbered h * |N| + n.  The
    identity fiber is forced discrete, and the other cells try
    restricted-growth class ids, so each partition comes once.  Each
    instance of left-translation stability and of refinement is checked at
    the cell of its last read, so no second check_admissible runs."""
    size, one, tn, th = N.size, H.identity, N.table, H.table
    cells = [((h, n),) for h in H.elements for n in N.elements]
    laws = [set() for _ in cells]  # n1 ~ n2 in fiber h implies m1 ~ m2 in fiber g
    pairs = [(h, n1, n2) for h in H.elements if h != one for n1 in N.elements
             for n2 in range(n1 + 1, size)]
    for h, n1, n2 in pairs:
        implied = [(h, tn[x][n1], tn[x][n2]) for x in N.elements]
        for g, m1, m2 in implied + [(th[h][y], n1, n2) for y in H.elements]:
            if m1 != m2 and (g, m1, m2) != (h, n1, n2):
                laws[max(h * size + n2, g * size + max(m1, m2))].add((h, n1, n2, g, m1, m2))
    fibers = [list(N.elements) for _ in H.elements]
    values = [(n,) if h == one else range(n + 1) for h in H.elements for n in N.elements]

    def check(k, v):
        h, n = cells[k][0]  # a class id is at most one past those before it
        return v <= max(fibers[h][:n], default=-1) + 1 and all(
            fibers[h1][n1] != fibers[h1][n2] or fibers[g][m1] == fibers[g][m2]
            for h1, n1, n2, g, m1, m2 in laws[k])

    return (AdmissibleRelation(N, H, f) for f in _cell_search(fibers, cells, values, check))


def _action_tables(E: AdmissibleRelation, minimal: bool):
    """The compatible tables over an admissible E, lexicographically: all of
    them, or with minimal, those made of fiber-class minima (see
    enumerate_wactions).  A cell search over the cells (h, n) in row order:
    the identity row is forced and the cell at 1 in N tries 1's class (laws
    5 and 6 of check_compatible_action).  Laws 1-3 read row h only and are
    checked at the cell of their last read, law 4 once its three rows are
    complete.  Every table found is checked again; a failure raises
    ConsistencyError."""
    N, H, fibers = E.N, E.H, E.fibers
    size, one_n, one_h = N.size, N.identity, H.identity
    tn, th = N.table, H.table
    cells = [((h, n),) for h in H.elements for n in N.elements]
    tried = [[block[:1] if minimal else block for block in E.blocks(h)] for h in H.elements]
    anywhere = [sorted(n for block in classes for n in block) for classes in tried]
    related = [_related_pairs(f) for f in fibers]
    right = [[(h2, a) for h2 in H.elements for a, b in related[h2] if b == n] for n in N.elements]
    mul = [[] for _ in N.elements]
    for a in N.elements:
        for b in N.elements:
            mul[max(a, b, tn[a][b])].append((a, b, tn[a][b]))
    rows = [[(h1, h2, g) for h1 in H.elements for h2 in H.elements
             if max(h1, h2, g := th[h1][h2]) == h and one_h not in (h1, h2)] for h in H.elements]
    act = [list(N.elements) for _ in H.elements]
    values = [(n,) if h == one_h else tried[h][fibers[h][one_n]] if n == one_n else anywhere[h]
              for h in H.elements for n in N.elements]

    def check(k, v):
        h, n = cells[k][0]
        f, row = fibers[h], act[h]
        for a, b in related[h]:  # law 1
            if f[tn[a][v]] != f[tn[b][v]]:
                return False
        for h2, a in right[n]:  # law 2
            fg = fibers[th[h][h2]]
            if fg[row[a]] != fg[v]:
                return False
        for a, b, ab in mul[n]:  # law 3
            if f[row[ab]] != f[tn[row[a]][row[b]]]:
                return False
        return n < size - 1 or all(  # law 4
            fibers[g][act[g][m]] == fibers[g][act[h1][act[h2][m]]]
            for h1, h2, g in rows[h] for m in N.elements)

    for table in _cell_search(act, cells, values, check):
        a = ActionTable(N, H, table)
        verdict = check_compatible_action(E, a)
        if not verdict.ok:
            raise ConsistencyError("table fails compatibility: %s" % (verdict.violations[0],))
        yield a


def compatible_actions(E: AdmissibleRelation):
    """All compatible action tables over an admissible E, in lexicographic
    table order, each checked again (see _action_tables); PreconditionError
    when E is not admissible."""
    check_admissible(E).expect("check_admissible")
    yield from _action_tables(E, False)


def enumerate_wactions(N: FiniteMonoid, H: FiniteMonoid, bound: int = DEFAULT_BOUND) -> tuple:
    """Every pair (E, [alpha]) for (N, H), one representative action per
    class, ordered by fiber partitions then by action table.

    Lemma: compatibility is a class invariant.  If alpha is compatible with
    an admissible E and alpha'(h,n) ~ alpha(h,n) in fiber h for all h and n,
    then alpha' is compatible.  With the laws numbered as in
    check_compatible_action, laws 1 and 3 follow from left-translation
    stability of the fibers (with law 1 for alpha), laws 2 and 4 from law 2
    for alpha and the fiber over h refining the fiber over h*h', and laws 5
    and 6 from the discrete identity fiber.

    So the lexicographically least table of a class is its cellwise class
    minimum.  The cell search of _action_tables tries only class minima
    (identity row forced, the column at 1 in N the least member of 1's
    class) and finds the compatible tables made of them: exactly one per
    class, with no deduplication.  Refuses with BoundExceeded when
    |N| * |H| > bound, reporting the raw candidate-count estimate.
    """
    if N.size * H.size > bound:
        estimate = _bell(N.size) ** (H.size - 1) * N.size ** ((H.size - 1) * N.size)
        raise BoundExceeded(
            "|N|*|H| = %d exceeds bound %d (about %s raw candidates)"
            % (N.size * H.size, bound, _decimal(estimate)),
            estimate,
        )
    return tuple(_checked(WActPair(E, a))
                 for E in admissible_relations(N, H) for a in _action_tables(E, True))
