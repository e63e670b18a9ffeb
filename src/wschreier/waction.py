"""Admissible relations and compatible actions: the structure equivalent to a
weakly Schreier extension of H by N.

An admissible relation E on N x H relates pairs only within a common H
component, so it is stored as one partition of N per element of H (the
fibers).  Its laws: the fiber over the identity is discrete; fibers are
stable under left multiplication on N; and the fiber over h refines the
fiber over h*y for every y.  A compatible action is a table alpha(h, n)
satisfying the six congruence-and-action laws below, each only up to E.

build_extension and extract_waction convert between pairs (E, alpha) and
weakly Schreier extensions; build_extension checks that the product of
classes is well defined and leaves the assembly and verification of the
extension to the builder shared with lambda_product and frames.artin_glueing
(extension._extension_on_carrier); waction_leq is the order matching the existence
of extension morphisms; enumerate_wactions lists every pair for a given
(N, H), one canonical action per equivalence class, found by searching
only tables whose cells are the least members of their fiber classes.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import merge
from itertools import product

from .monoid import (
    BoundExceeded,
    ConsistencyError,
    FiniteMonoid,
    FormatError,
    Verdict,
    Violation,
    _bad_cell,
    _normalize_classes,
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


@dataclass(frozen=True)
class AdmissibleRelation:
    """Per-fiber partitions of N indexed by elements of H.

    fibers[h][n] is the class id of n in the fiber over h; class ids are
    normalized by first occurrence, so equality of relations is equality of
    the fibers field.  Cross-component pairs are unrelated by construction.
    """

    N: FiniteMonoid
    H: FiniteMonoid
    fibers: tuple

    def __post_init__(self):
        fibers = tuple(tuple(f) for f in self.fibers)
        if len(fibers) != self.H.size:
            raise FormatError("expected one fiber per element of H")
        for f in fibers:
            if len(f) != self.N.size:
                raise FormatError("fiber partitions must cover N")
        object.__setattr__(self, "fibers", tuple(_normalize_classes(f) for f in fibers))

    @classmethod
    def discrete(cls, N: FiniteMonoid, H: FiniteMonoid) -> "AdmissibleRelation":
        return cls(N, H, (tuple(N.elements),) * H.size)

    def related(self, n1: int, n2: int, h: int) -> bool:
        return self.fibers[h][n1] == self.fibers[h][n2]

    def blocks(self, h: int) -> tuple:
        out = {}
        for n, c in enumerate(self.fibers[h]):
            out.setdefault(c, []).append(n)
        return tuple(tuple(b) for _, b in sorted(out.items()))


def check_admissible(E: AdmissibleRelation) -> Verdict:
    """Identity fiber discrete; left-translation stability inside each fiber;
    fiber over h refines fiber over h*y."""
    N, H, fibers = E.N, E.H, E.fibers
    idf = fibers[H.identity]
    for n1 in N.elements:
        for n2 in range(n1 + 1, N.size):
            if idf[n1] == idf[n2]:
                return Verdict(None, (Violation("identity-fiber", (n1, n2)),))
    tn, th = N.table, H.table
    for h in H.elements:
        f = fibers[h]
        for n1 in N.elements:
            for n2 in range(n1 + 1, N.size):
                if f[n1] != f[n2]:
                    continue
                for x in N.elements:
                    if f[tn[x][n1]] != f[tn[x][n2]]:
                        return Verdict(None, (Violation("left-translation", (h, n1, n2, x)),))
                for y in H.elements:
                    fy = fibers[th[h][y]]
                    if fy[n1] != fy[n2]:
                        return Verdict(None, (Violation("right-translation", (h, n1, n2, y)),))
    return Verdict(E)


@dataclass(frozen=True)
class ActionTable:
    """A raw table act[h][n] in N, prior to any law being imposed."""

    N: FiniteMonoid
    H: FiniteMonoid
    act: tuple

    def __post_init__(self):
        act = tuple(tuple(row) for row in self.act)
        if len(act) != self.H.size:
            raise FormatError("expected one action row per element of H")
        for row in act:
            if len(row) != self.N.size:
                raise FormatError("action rows must cover N")
            if (j := _bad_cell(row, self.N.size)) is not None:
                raise FormatError("action value %r out of range" % (row[j],))
        object.__setattr__(self, "act", act)

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
        for n1 in N.elements:
            for n2 in range(n1 + 1, N.size):
                if f[n1] != f[n2]:
                    continue
                for n in N.elements:
                    if f[tn[n1][row[n]]] != f[tn[n2][row[n]]]:
                        return Verdict(
                            None, (Violation("action-congruence-left", (h, n1, n2, n)),)
                        )
    for h2 in H.elements:
        f2 = fibers[h2]
        for n1 in N.elements:
            for n2 in range(n1 + 1, N.size):
                if f2[n1] != f2[n2]:
                    continue
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


@dataclass(frozen=True)
class WActPair:
    """An admissible relation together with a compatible action."""

    E: AdmissibleRelation
    alpha: ActionTable

    def __post_init__(self):
        if self.alpha.N != self.E.N or self.alpha.H != self.E.H:
            raise FormatError("relation and action live over different monoids")

    @property
    def N(self) -> FiniteMonoid:
        return self.E.N

    @property
    def H(self) -> FiniteMonoid:
        return self.E.H


def _validated(p: WActPair) -> WActPair:
    check_admissible(p.E).expect("check_admissible")
    check_compatible_action(p.E, p.alpha).expect("check_compatible_action")
    return p


def build_extension(p: WActPair) -> SplitExtension:
    """The weakly Schreier extension with carrier (N x H) / E.

    [n, h] * [n', h'] = [n * alpha(h, n'), h * h'], k(n) = [n, 1],
    e([n, h]) = h, s(h) = [1, h].  Multiplication well-definedness is
    re-checked over every representative pair even though it is a theorem
    for valid input; a mismatch raises ConsistencyError.
    """
    _validated(p)
    N, H, E = p.N, p.H, p.E
    act = p.alpha.act
    tn, th = N.table, H.table
    carrier = []
    members = []
    least = []  # least[h][n]: the least member of n's class in fiber h
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
                raise ConsistencyError(
                    "product of classes %d and %d is not well defined" % (i, j)
                )
            row.append((results.pop(), h))
        products.append(row)
    s = [(least[h][N.identity], h) for h in H.elements]
    return _extension_on_carrier(N, H, carrier, products, s, "built extension", "[%s,%s]")[0]


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
    return pair


def waction_leq(p1: WActPair, p2: WActPair) -> bool:
    """(E1, [a1]) <= (E2, [a2]): E1's fibers refine E2's and
    a1(h,n) ~ a2(h,n) in E2's fiber over h for all h, n.  A fiber a refines
    b when the pairs (a[n], b[n]) are as many as the classes of a."""
    if p1.N != p2.N or p1.H != p2.H:
        raise FormatError("pairs do not share the same N and H")
    f1, f2 = p1.E.fibers, p2.E.fibers
    for a, b in zip(f1, f2):
        if len(set(zip(a, b))) != len(set(a)):
            return False
    N, H = p1.N, p1.H
    a1, a2 = p1.alpha.act, p2.alpha.act
    for h in H.elements:
        f = f2[h]
        for n in N.elements:
            if f[a1[h][n]] != f[a2[h][n]]:
                return False
    return True


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


def _bell(n: int) -> int:
    row = [1]
    for _ in range(n):
        nxt = [row[-1]]
        for v in row:
            nxt.append(nxt[-1] + v)
        row = nxt
    return row[0]


def admissible_relations(N: FiniteMonoid, H: FiniteMonoid):
    """All admissible relations, lexicographic in the non-identity fibers."""
    others = [h for h in H.elements if h != H.identity]
    discrete = tuple(range(N.size))
    for combo in product(list(_set_partitions(N.size)), repeat=len(others)):
        fibers = [discrete] * H.size
        for h, f in zip(others, combo):
            fibers[h] = f
        E = AdmissibleRelation(N, H, tuple(fibers))
        if check_admissible(E).ok:
            yield E


def _table(N: FiniteMonoid, H: FiniteMonoid, flat: tuple) -> ActionTable:
    """The action table whose rows are consecutive |N|-slices of flat."""
    size = N.size
    return ActionTable(N, H, tuple(flat[i : i + size] for i in range(0, len(flat), size)))


def _class_minimal_actions(E: AdmissibleRelation):
    """The compatible tables over an admissible E whose every cell is the
    least member of its fiber class, in lexicographic table order: one per
    class (see enumerate_wactions)."""
    N, H = E.N, E.H
    one_n, one_h = N.identity, H.identity
    choices = []
    for h in H.elements:
        f = E.fibers[h]
        least = tuple(block[0] for block in E.blocks(h))
        for n in N.elements:
            if h == one_h:
                choices.append((n,))
            elif n == one_n:
                choices.append((least[f[one_n]],))
            else:
                choices.append(least)
    for flat in product(*choices):
        a = _table(N, H, flat)
        if check_compatible_action(E, a).ok:
            yield a


def compatible_actions(E: AdmissibleRelation):
    """All compatible action tables over an admissible E, in lexicographic
    table order; PreconditionError when E is not admissible.

    Compatibility is a class invariant (proof sketch in enumerate_wactions):
    alpha' is compatible whenever alpha is and alpha'(h,n) ~ alpha(h,n) in
    fiber h for all h and n.  So one search finds the class minima, each
    class is expanded cell by cell over its members, and the expansions are
    merged into one sorted stream.  Every table is checked again before it
    is yielded; a failure raises ConsistencyError.
    """
    check_admissible(E).expect("check_admissible")
    N, H = E.N, E.H
    blocks = tuple(E.blocks(h) for h in H.elements)
    fibers = E.fibers

    def expansion(rep):
        return product(
            *(blocks[h][fibers[h][v]] for h in H.elements for v in rep.act[h])
        )

    for flat in merge(*(expansion(rep) for rep in _class_minimal_actions(E))):
        a = _table(N, H, flat)
        verdict = check_compatible_action(E, a)
        if not verdict.ok:
            raise ConsistencyError(
                "class member fails compatibility: %s" % (verdict.violations[0],)
            )
        yield a


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
    minimum.  The search visits only tables made of class minima (identity
    row forced, the column at 1 in N the least member of 1's class), checks
    each one with check_compatible_action, and keeps every table that
    passes: exactly one per class, with no deduplication.  Refuses with
    BoundExceeded when |N| * |H| > bound, reporting the raw candidate-count
    estimate.
    """
    if N.size * H.size > bound:
        estimate = _bell(N.size) ** (H.size - 1) * N.size ** ((H.size - 1) * N.size)
        raise BoundExceeded(
            "|N|*|H| = %d exceeds bound %d (about %d raw candidates)"
            % (N.size * H.size, bound, estimate),
            estimate,
        )
    return tuple(
        WActPair(E, a) for E in admissible_relations(N, H) for a in _class_minimal_actions(E)
    )
