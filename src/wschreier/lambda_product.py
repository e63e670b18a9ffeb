"""Lambda semidirect products of inverse monoids.

An action of an inverse monoid H on an inverse monoid N (h, n) -> h.n must
satisfy h.(n n') = (h.n)(h.n'), (h h').n = h.(h'.n) and 1.n = n; h.1 = 1 is
not required.  The lambda semidirect product lives on the carrier
{(n, h) : (h h^-1).n = n} with

    (n, h) (n', h') = ( ((h h')(h h')^-1 . n) (h . n'),  h h' )

and is a weakly Schreier extension of H by N via k(n) = (n, 1), e = second
projection, s(h) = ((h h^-1).1, h), with the first projection as a Schreier
retraction.  lambda_product assembles and verifies it, that retraction
included, with the extension builder shared with frames.artin_glueing and
waction.build_extension (extension._extension_on_carrier).  Artin-like
actions h.n = f(h) n, for f a hom into the central idempotents of N, carry
binary joins: the pointwise product of f and g is the join of the induced
extensions.
"""

from __future__ import annotations

from .monoid import (
    BoundExceeded,
    FiniteMonoid,
    FormatError,
    InverseStructure,
    MonoidHom,
    PreconditionError,
    Verdict,
    Violation,
    _Cells,
    _Record,
    _decimal,
    _hom_laws,
    _hom_search,
    _set,
    center,
    check_hom,
    generating_plan,
    idempotents,
    inverse_structure,
)
from .extension import SchreierRetraction, SplitExtension, _extension_on_carrier
from .waction import ActionTable, AdmissibleRelation, WActPair, _checked

__all__ = [
    "InverseAction",
    "LambdaProduct",
    "check_inverse_action",
    "lambda_product",
    "canonicalize",
    "canonical_multiplication",
    "lambda_action_leq",
    "waction_of",
    "artin_like_action",
    "join_hom",
    "artin_join",
    "semigroup_endomorphisms",
    "enumerate_inverse_actions",
]


class InverseAction(_Record):
    """An action table act[h][n] over inverse structures for N and H."""

    _fields = ("N", "H", "act")

    def __init__(self, N: InverseStructure, H: InverseStructure, act: tuple):
        act = ActionTable(N.base, H.base, act).act
        _set(self, "N", N)
        _set(self, "H", H)
        _set(self, "act", act)

    def __call__(self, h: int, n: int) -> int:
        return self.act[h][n]

    def table(self) -> ActionTable:
        return ActionTable(self.N.base, self.H.base, self.act)

    def idem(self, h: int) -> int:
        """The idempotent h * h^-1."""
        return self.H.base.table[h][self.H.inv[h]]


def check_inverse_action(N: InverseStructure, H: InverseStructure, act) -> Verdict:
    """The three action laws; h.1 = 1 is deliberately not one of them.  A pass
    is kept on the returned action (waction._checked), and lambda_product reads it."""
    a = InverseAction(N, H, act)
    tn, th = N.base.table, H.base.table
    rows = a.act
    for n in N.base.elements:
        if rows[H.base.identity][n] != n:
            return Verdict(None, (Violation("act-identity", (n,)),))
    for h in H.base.elements:
        row = rows[h]
        for n in N.base.elements:
            for n2 in N.base.elements:
                if row[tn[n][n2]] != tn[row[n]][row[n2]]:
                    return Verdict(None, (Violation("act-mul", (h, n, n2)),))
    for h in H.base.elements:
        for h2 in H.base.elements:
            comp = rows[th[h][h2]]
            row, row2 = rows[h], rows[h2]
            for n in N.base.elements:
                if comp[n] != row[row2[n]]:
                    return Verdict(None, (Violation("act-compose", (h, h2, n)),))
    return Verdict(_checked(a))


class LambdaProduct(_Record):
    """The lambda semidirect product bundle: carrier pairs in (n, h) index
    form, the split extension over them, and the first-projection
    retraction."""

    _fields = ("action", "carrier", "extension", "retraction")

    def __init__(self, action: InverseAction, carrier: tuple, extension: SplitExtension,
                 retraction: SchreierRetraction):
        _set(self, "action", action)
        _set(self, "carrier", carrier)
        _set(self, "extension", extension)
        _set(self, "retraction", retraction)

    @property
    def monoid(self) -> FiniteMonoid:
        return self.extension.G

    def index(self, pair) -> int:
        return self.carrier.index(pair)


def lambda_product(a: InverseAction) -> LambdaProduct:
    """Build and verify the lambda semidirect product of a valid action.

    The action is validated first, unless check_inverse_action returned it
    (PreconditionError if not valid).  The carrier, its twisted product and
    s go to the shared extension builder, which checks closure, the monoid
    laws, the split-extension laws and the first projection as a Schreier
    retraction, and raises ConsistencyError on a failure, since each is a
    theorem for a valid action.  That retraction comes back with it.
    """
    if not getattr(a, "_valid", False):
        check_inverse_action(a.N, a.H, a.act).expect("check_inverse_action")
    N, H = a.N.base, a.H.base
    tn, th = N.table, H.table
    rows = a.act
    idem_rows = tuple([rows[a.idem(h)] for h in H.elements])
    carrier = tuple([(n, h) for h in H.elements for n in N.elements if idem_rows[h][n] == n])
    products = []
    for n1, h1 in carrier:
        row1, th1 = rows[h1], th[h1]
        products.append(
            [(tn[idem_rows[th1[h2]][n1]][row1[n2]], th1[h2]) for n2, h2 in carrier]
        )
    s = [(idem_rows[h][N.identity], h) for h in H.elements]
    ext, retraction = _extension_on_carrier(N, H, carrier, products, s, "lambda product")
    return LambdaProduct(a, carrier, ext, retraction)


def canonicalize(a: InverseAction, n: int, h: int):
    """Send (n, h) to its carrier representative ((h h^-1).n, h)."""
    return a.act[a.idem(h)][n], h


def canonical_multiplication(a: InverseAction, p1, p2):
    """Product of two carrier pairs directly on representatives:

    (n1, h1)(n2, h2) = ( ((h1 h2)(h1 h2)^-1 . n1) (h1 . (h2 h2^-1 . n2)),
                         h1 h2 )

    Both inputs must lie on the carrier (PreconditionError otherwise); the
    value then equals canonicalize of the raw product and the lambda-product
    table entry.
    """
    for n, h in (p1, p2):
        if a.act[a.idem(h)][n] != n:
            raise PreconditionError("(%d, %d) is not a carrier pair" % (n, h))
    (n1, h1), (n2, h2) = p1, p2
    tn = a.N.base.table
    h = a.H.base.table[h1][h2]
    return tn[a.act[a.idem(h)][n1]][a.act[h1][a.act[a.idem(h2)][n2]]], h


def lambda_action_leq(a: InverseAction, b: InverseAction) -> bool:
    """a <= b iff b(h h^-1, a(h, n)) = b(h, n) for all h, n."""
    if a.N != b.N or a.H != b.H:
        raise FormatError("actions do not share the same N and H")
    for h in a.H.base.elements:
        eh = a.idem(h)
        for n in a.N.base.elements:
            if b.act[eh][a.act[h][n]] != b.act[h][n]:
                return False
    return True


def waction_of(a: InverseAction) -> WActPair:
    """The admissible-relation/compatible-action pair of the lambda product:
    n1 ~ n2 in fiber h iff (h h^-1).n1 = (h h^-1).n2, with the action table
    unchanged."""
    N, H = a.N.base, a.H.base
    fibers = tuple(tuple(a.act[a.idem(h)][n] for n in N.elements) for h in H.elements)
    E = AdmissibleRelation(N, H, fibers)
    return WActPair(E, ActionTable(N, H, a.act))


def artin_like_action(f: MonoidHom) -> InverseAction:
    """The action h.n = f(h) * n of a hom f: H -> N landing in central
    idempotents of N.  Rejects (PreconditionError, with witness) homs whose
    image strays, non-homs, and non-inverse N or H."""
    H, N = f.source, f.target
    _hom_laws(f).expect("check_hom")
    allowed = set(idempotents(N)) & set(center(N))
    for h in H.elements:
        if f.map[h] not in allowed:
            raise PreconditionError(
                "f(%d) = %d is not a central idempotent" % (h, f.map[h])
            )
    n_inv = inverse_structure(N).expect("inverse_structure(N)")
    h_inv = inverse_structure(H).expect("inverse_structure(H)")
    act = tuple(tuple(N.table[f.map[h]][n] for n in N.elements) for h in H.elements)
    return check_inverse_action(n_inv, h_inv, act).expect("check_inverse_action")


def join_hom(f: MonoidHom, g: MonoidHom) -> MonoidHom:
    """Pointwise product of two parallel homs into central idempotents.  The
    parallel check compares by identity before FiniteMonoid.__eq__.  Each cell
    is read off the target's validated table, so the map goes to check_hom as
    _Cells, with no range check; the hom laws run on every call."""
    S, T = f.source, f.target
    if (S is not g.source and S != g.source) or (T is not g.target and T != g.target):
        raise FormatError("homs are not parallel")
    m = _Cells([T.table[a][b] for a, b in zip(f.map, g.map)])
    return check_hom(S, T, m).expect("join_hom")


def artin_join(f: MonoidHom, g: MonoidHom) -> InverseAction:
    """The Artin-like action of the pointwise product, the join of the two
    induced extensions."""
    artin_like_action(f)
    artin_like_action(g)
    return artin_like_action(join_hom(f, g))


def semigroup_endomorphisms(M: FiniteMonoid) -> tuple:
    """All maps M -> M with f(a b) = f(a) f(b); f(1) = 1 is not required.
    Sorted; the identity map is always present.  Found by the plan-driven hom
    search with every image free, the identity's too (the law (1, 1) makes it
    idempotent), which drops a partial map at its first broken law."""
    return tuple(sorted(_hom_search(M, M.mul, lambda x: M.elements)))


def _compose(f: tuple, g: tuple) -> tuple:
    """The endomorphism f after g."""
    return tuple(map(f.__getitem__, g))


def enumerate_inverse_actions(
    N: InverseStructure, H: InverseStructure, max_candidates: int = 10**7
):
    """All inverse-monoid actions of H on N, sorted by action table.

    An action is exactly a monoid hom phi from H into the semigroup
    endomorphisms of N under composition, so the plan-driven hom search runs
    over H with the identity endomorphism for 1 and End(N) for each
    generator: the images of the other elements are derived by composition,
    and each hom law phi(a b) = phi(a) phi(b) is checked once, as soon as its
    three values are known.  Refuses with BoundExceeded when the assignment
    count |End(N)|^#generators exceeds max_candidates.  End(N) is drawn one
    endomorphism at a time, and the refusal comes as soon as the maps drawn
    so far exceed the cap; one more map is then drawn, and if there is one
    the count is a lower bound, stated as "at least".  A trivial H has no
    generators, so End(N) is not built for it (0 ** 0 is 1 candidate).
    """
    gens, plan = generating_plan(H.base)
    endos, more = [], False
    search = _hom_search(N.base, N.base.mul, lambda x: N.base.elements) if gens else ()
    for f in search:
        endos.append(f)
        if len(endos) ** len(gens) > max_candidates:
            more = next(search, None) is not None
            break
    estimate = (len(endos) + more) ** len(gens)
    if estimate > max_candidates:
        raise BoundExceeded(
            "%s%s candidate assignments exceed cap %d"
            % ("at least " if more else "", _decimal(estimate), max_candidates),
            estimate,
        )
    one, e = (tuple(N.base.elements),), H.base.identity
    maps = _hom_search(H.base, _compose, lambda x: one if x == e else endos, plan=plan)
    return tuple(InverseAction(N, H, act) for act in sorted(maps))
