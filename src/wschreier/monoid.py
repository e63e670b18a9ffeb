"""Finite monoids as Cayley tables.

Elements of a monoid of size n are the indices 0..n-1 and the table stores
products as table[a][b] = a*b.  Labels, when present, are display names only:
they never take part in equality or hashing.  Constructors validate shapes
(raising FormatError); algebraic laws are checked by the check_* functions,
which return a Verdict carrying either the validated value or a list of
violated laws with witnesses.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import chain, permutations
from math import log10
from operator import attrgetter, itemgetter

__all__ = [
    "FormatError",
    "ConsistencyError",
    "PreconditionError",
    "BoundExceeded",
    "Violation",
    "Verdict",
    "FiniteMonoid",
    "MonoidHom",
    "InverseStructure",
    "Congruence",
    "check_monoid",
    "idempotents",
    "center",
    "inverse_structure",
    "check_hom",
    "identity_hom",
    "zero_hom",
    "compose",
    "congruence_closure",
    "is_congruence",
    "quotient",
    "submonoid",
    "kernel",
    "image",
    "is_cokernel",
    "direct_product",
    "are_isomorphic",
    "canonical_form",
]


class FormatError(ValueError):
    """Malformed raw data: wrong shapes, out-of-range indices, bad references."""


class ConsistencyError(RuntimeError):
    """A property that should hold by construction failed; never silent."""


class PreconditionError(ValueError):
    """An operation was invoked on input violating its stated precondition."""


class BoundExceeded(RuntimeError, ValueError):
    """An enumeration refused to run because its count, estimate, would
    exceed its bound.  Also a ValueError, which callers of all_retractions catch."""

    def __init__(self, message: str, estimate: int):
        super().__init__(message)
        self.estimate = estimate


def _decimal(n: int) -> str:
    """n in decimal, or 10^k with k about log10 n for an n with more digits
    than Python converts to a string (sys.get_int_max_str_digits)."""
    try:
        return "%d" % n
    except ValueError:
        return "10^%d" % log10(n)


_set = object.__setattr__  # every write to a record: a global read, no lookup on object


class _Record:
    """Base of the frozen value classes.

    A subclass names its fields in order in _fields.  Its __init__ checks
    and normalises its arguments, so a bad one raises before anything is
    written, then writes each field once with _set.  _set is the only way
    anything writes to a record: its fields, what is derived with them
    (FiniteMonoid.elements, SplitExtension.ks) and the results kept on it
    later for validate-once (verified, _frame, _valid and the like).  ==,
    hash and repr follow the fields in that order, and records of different
    classes are never equal; nothing else takes part in them.  Assigning or
    deleting an attribute raises AttributeError.
    """

    _fields = ()

    def __init_subclass__(cls):
        cls._key = attrgetter(*cls._fields)

    def __eq__(self, other):
        if other is self:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        key = self._key
        return key(self) == key(other)

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self):
        return "%s(%s)" % (
            type(self).__qualname__,
            ", ".join(["%s=%r" % (f, getattr(self, f)) for f in self._fields]),
        )

    def __setattr__(self, name, value):
        raise AttributeError("cannot assign to field %r" % (name,))

    def __delattr__(self, name):
        raise AttributeError("cannot delete field %r" % (name,))


class Violation(_Record):
    """A broken law together with the witnessing elements."""

    _fields = ("law", "witness")

    def __init__(self, law: str, witness: tuple = ()):
        _set(self, "law", law)
        _set(self, "witness", witness)

    def __str__(self):
        if not self.witness:
            return self.law
        return "%s: %s" % (self.law, " ".join(str(w) for w in self.witness))


class Verdict(_Record):
    """Outcome of a law check: a validated value or the violations found."""

    _fields = ("value", "violations")

    def __init__(self, value: object = None, violations: tuple = ()):
        _set(self, "value", value)
        _set(self, "violations", violations)

    @property
    def ok(self) -> bool:
        return not self.violations

    def __bool__(self) -> bool:
        return self.ok

    def expect(self, what: str = "check"):
        """Return the value, raising PreconditionError if the check failed."""
        if self.violations:
            raise PreconditionError(
                "%s failed: %s" % (what, "; ".join(str(v) for v in self.violations))
            )
        return self.value


class _Rows(tuple):
    """Table rows that _as_table has already validated, passed by
    check_monoid together with an identity it has validated too."""


class _Cells(tuple):
    """A hom map read off the target's validated table: each cell is in range."""


def _bad_cell(cells, bound: int):
    """The index of the first cell that is not a plain int in 0..bound-1, or
    None.  A bool is no plain int; other int subclasses pass."""
    for i, v in enumerate(cells):
        if not isinstance(v, int) or isinstance(v, bool) or not 0 <= v < bound:
            return i
    return None


def _as_table(table) -> tuple:
    rows = tuple([tuple(row) for row in table])
    n = len(rows)
    if n == 0:
        raise FormatError("empty table")
    cells = chain.from_iterable
    if (
        set(map(len, rows)) == {n}
        and {int}.issuperset(map(type, cells(rows)))
        and set(range(n)).issuperset(cells(rows))
    ):
        return rows  # every cell a plain int in range; else the loop names the first bad one
    for i, row in enumerate(rows):
        if len(row) != n:
            raise FormatError("row %d has %d entries, expected %d" % (i, len(row), n))
        if (j := _bad_cell(row, n)) is not None:
            raise FormatError("entry (%d,%d) = %r out of range 0..%d" % (i, j, row[j], n - 1))
    return rows


class FiniteMonoid(_Record):
    """A monoid on indices 0..size-1 given by its Cayley table.

    elements is range(size), computed once; it takes no part in equality,
    hashing or repr.  inverse_structure and frames.check_frame keep their
    label-free results on the instance the same way.  Its own ==, hash and
    repr leave the labels out.
    """

    _fields = ("size", "identity", "table", "labels")

    def __init__(self, size: int, identity: int, table: tuple, labels: tuple | None = None):
        validated = type(table) is _Rows
        rows = tuple(table) if validated else _as_table(table)
        n = len(rows)
        if size != n:
            raise FormatError("size %r does not match the %d rows" % (size, n))
        if not validated and _bad_cell((identity,), n) is not None:
            raise FormatError("identity index %r out of range" % (identity,))
        if labels is not None:
            labels = tuple([str(x) for x in labels])
            if len(labels) != n:
                raise FormatError("expected %d labels, got %d" % (n, len(labels)))
        _set(self, "size", n)  # an equal 2.0 or True becomes an int
        _set(self, "identity", identity)
        _set(self, "table", rows)
        _set(self, "labels", labels)
        _set(self, "elements", range(n))

    def mul(self, a: int, b: int) -> int:
        return self.table[a][b]

    def label(self, a: int) -> str:
        if self.labels is not None:
            return self.labels[a]
        return str(a)

    def __eq__(self, other):
        if other is self:
            return True
        if not isinstance(other, FiniteMonoid):
            return NotImplemented
        return (
            self.size == other.size
            and self.identity == other.identity
            and self.table == other.table
        )

    def __hash__(self):
        return hash((self.size, self.identity, self.table))

    def __repr__(self):
        return "FiniteMonoid(size=%d, identity=%d)" % (self.size, self.identity)


def check_monoid(table, identity: int | None = None, labels=None, *, _middles=None) -> Verdict:
    """Validate a raw Cayley table.

    When identity is None a two-sided identity is searched for.  Returns a
    Verdict whose value is the FiniteMonoid; every violated law is reported
    with a witness (identity failures as (a,), associativity as (a, b, c)).
    Shape problems raise FormatError instead of being reported as violations.
    Laws are checked a whole row at a time: associativity at (a, b) compares
    the row of ab with row a read through row b, and the element loop runs
    only on a row that differs, to list its witnesses.  The validated rows
    go to the FiniteMonoid without a second shape check.

    _middles, from the extension builder, generates the table; only middles
    b in it are checked (Light's test), and a violation reruns the full check.
    Lemma: the b with (xb)y = x(by) for all x, y are closed under products, as
    (x(bc))y = ((xb)c)y = (xb)(cy) = x(b(cy)) = x((bc)y); in a monoid so are the
    a with f(ab) = f(a)f(b) or a(b v c) = ab v ac for all b, c, and commuting idempotents.
    """
    rows = _as_table(table)
    n = len(rows)
    if identity is not None and _bad_cell((identity,), n) is not None:
        raise FormatError("identity index %r out of range" % (identity,))
    violations = []
    e = identity
    ids = tuple(range(n))

    def is_identity(c):
        # the column is read only here: a tuple(zip(*rows)) of all columns per
        # call raised the peak RSS of a glueing_join pass by about 0.5 MB
        return rows[c] == ids and tuple([r[c] for r in rows]) == ids

    if e is None:
        e = next((c for c in ids if is_identity(c)), None)
        if e is None:
            violations.append(Violation("identity"))
    elif not is_identity(e):
        for a in range(n):
            if rows[e][a] != a or rows[a][e] != a:
                violations.append(Violation("identity", (a,)))
    # get(ra) is row a read through row b; for n = 1 it is a bare item,
    # never equal to a row, so the loop over c decides
    gets = [(b, itemgetter(*rows[b])) for b in (ids if _middles is None else _middles)]
    for a, ra in enumerate(rows):
        for b, get in gets:
            if rows[ra[b]] != get(ra):
                rab, rb = rows[ra[b]], rows[b]
                violations.extend(
                    Violation("associativity", (a, b, c)) for c in ids if rab[c] != ra[rb[c]]
                )
    if violations:
        if _middles is not None:
            return check_monoid(table, identity, labels)
        return Verdict(None, tuple(violations))
    return Verdict(FiniteMonoid(n, e, _Rows(rows), labels))


def idempotents(M: FiniteMonoid) -> tuple:
    return tuple(a for a in M.elements if M.table[a][a] == a)


def center(M: FiniteMonoid) -> tuple:
    t = M.table
    return tuple(a for a in M.elements if all(t[a][b] == t[b][a] for b in M.elements))


class InverseStructure(_Record):
    """A monoid in which every element has a unique generalized inverse."""

    _fields = ("base", "inv")

    def __init__(self, base: FiniteMonoid, inv: tuple):
        _set(self, "base", base)
        _set(self, "inv", inv)

    def inv_of(self, a: int) -> int:
        return self.inv[a]


def inverse_structure(M: FiniteMonoid) -> Verdict:
    """Compute the unique-generalized-inverse table, or witnesses against it.

    b is a generalized inverse of a when aba = a and bab = b.  Failures are
    reported as ("regular", (a,)) for an element with no inverse,
    ("unique-inverse", (a, b1, b2)) for one with several, and, when inverses
    exist but are ambiguous, ("idempotents-commute", (e, f)) pinpoints a
    non-commuting idempotent pair if there is one.

    The inverse table, or the violations, is derived once per instance and
    kept on it as _inverse, the way frames.check_frame keeps _frame; it does
    not depend on the labels and holds no reference to M.  Each call returns
    a fresh Verdict.
    """
    try:
        inv = M._inverse
    except AttributeError:
        inv = _inverse_laws(M)
        _set(M, "_inverse", inv)
    if type(inv[0]) is Violation:
        return Verdict(None, inv)
    return Verdict(InverseStructure(M, inv))


def _inverse_laws(M: FiniteMonoid) -> tuple:
    """The inverse table of M, or the tuple of its violations.

    unique-inverse never fails alone: commuting idempotents force unique
    inverses.  If b and c are inverses of a, then ab, ac, ba and ca are
    idempotents, and if they commute, b = bab = b(aca)b = (ba)(ca)b =
    (ca)(ba)b = c(aba)b = cab and c = cac = c(aba)c = c(ab)(ac) =
    c(ac)(ab) = (cac)ab = cab, so b = c.  So an element with two inverses
    comes with two idempotents that do not commute, and the search below
    reports idempotents-commute beside unique-inverse."""
    t = M.table
    violations = []
    inv = []
    for a in M.elements:
        cands = [b for b in M.elements if t[t[a][b]][a] == a and t[t[b][a]][b] == b]
        if not cands:
            violations.append(Violation("regular", (a,)))
            inv.append(a)
        elif len(cands) > 1:
            violations.append(Violation("unique-inverse", (a, cands[0], cands[1])))
            inv.append(cands[0])
        else:
            inv.append(cands[0])
    if violations:
        idem = idempotents(M)
        clash = next(((e, f) for e in idem for f in idem if t[e][f] != t[f][e]), None)
        if clash is not None:
            violations.append(Violation("idempotents-commute", clash))
        return tuple(violations)
    return tuple(inv)


class MonoidHom(_Record):
    """A map between monoids, a plain tuple over the source.  A _Cells map, read
    off the target's validated table, skips the range check but not the length."""

    _fields = ("source", "target", "map")

    def __init__(self, source: FiniteMonoid, target: FiniteMonoid, map: tuple):
        m = tuple(map)
        if len(m) != source.size:
            raise FormatError("hom map has %d entries, expected %d" % (len(m), source.size))
        if type(map) is not _Cells and (i := _bad_cell(m, target.size)) is not None:
            raise FormatError("hom image of %d is %r, out of range" % (i, m[i]))
        _set(self, "source", source)
        _set(self, "target", target)
        _set(self, "map", m)

    def __call__(self, a: int) -> int:
        return self.map[a]


def check_hom(source: FiniteMonoid, target: FiniteMonoid, map_) -> Verdict:
    """Check identity and multiplication preservation of a candidate hom built
    here from map_ as given, _Cells included (FormatError on a bad shape).  A
    caller that holds a MonoidHom checks it with _hom_laws, the same loop."""
    return _hom_laws(MonoidHom(source, target, map_))


def _hom_laws(f: MonoidHom, lefts=None) -> Verdict:
    """The first broken hom law of f, or a Verdict carrying f itself.  lefts,
    when given, generate the source: only left factors in them are checked
    (check_monoid's closure lemma), and a violation reruns the full check."""
    source, target, m = f.source, f.target, f.map
    if m[source.identity] != target.identity:
        return Verdict(None, (Violation("hom-identity", (source.identity,)),))
    ts, tt = source.table, target.table
    for a in source.elements if lefts is None else lefts:
        ma, ra = m[a], ts[a]
        row = tt[ma]
        for b in source.elements:
            if m[ra[b]] != row[m[b]]:
                return _hom_laws(f) if lefts else Verdict(None, (Violation("hom-mul", (a, b)),))
    return Verdict(f)


def identity_hom(M: FiniteMonoid) -> MonoidHom:
    return MonoidHom(M, M, tuple(M.elements))


def zero_hom(source: FiniteMonoid, target: FiniteMonoid) -> MonoidHom:
    return MonoidHom(source, target, (target.identity,) * source.size)


def compose(f: MonoidHom, g: MonoidHom) -> MonoidHom:
    """g after f: the composite source of f -> target of g."""
    if f.target != g.source:
        raise FormatError("composite of non-composable homs")
    return MonoidHom(f.source, g.target, tuple(g.map[x] for x in f.map))


def _normalize_classes(ids) -> tuple:
    """The class ids of a sequence renumbered by first occurrence.  Each id
    must be a plain int, as a cell is for _bad_cell; no range is imposed,
    since extract_waction passes rows of ext.ks, which are indices into G.
    The type-set test decides the usual case; the loop names the first id
    that is not a plain int, with a FormatError.  ids.index(c) is the least
    member of class c, and least members rise with c (quotient, blocks)."""
    if not {int}.issuperset(map(type, ids)):
        for c in ids:
            if not isinstance(c, int) or isinstance(c, bool):
                raise FormatError("class id %r is not a plain int" % (c,))
    seen = {}
    out = []
    for c in ids:
        if c not in seen:
            seen[c] = len(seen)
        out.append(seen[c])
    return tuple(out)


@lru_cache(maxsize=4096)
def _related_pairs(ids: tuple) -> tuple:
    """Pairs a < b with ids[a] == ids[b], lexicographic; kept, as sweeps repeat fibers."""
    return tuple((a, b) for a, c in enumerate(ids) for b in range(a + 1, len(ids)) if ids[b] == c)


class Congruence(_Record):
    """A multiplication-stable partition, stored as class ids per element."""

    _fields = ("base", "class_id")

    def __init__(self, base: FiniteMonoid, class_id: tuple):
        ids = tuple(class_id)
        if len(ids) != base.size:
            raise FormatError("congruence over wrong carrier size")
        ids = _normalize_classes(ids)
        _set(self, "base", base)
        _set(self, "class_id", ids)

    @property
    def num_classes(self) -> int:
        return max(self.class_id) + 1

    def related(self, a: int, b: int) -> bool:
        return self.class_id[a] == self.class_id[b]


def congruence_closure(M: FiniteMonoid, pairs) -> Congruence:
    """Smallest congruence relating every pair in pairs.

    Worklist fixpoint over a class id per element and the member list of
    each class: whenever (a, b) merges two classes, the smaller joins the
    larger, and the translates (xa, xb) and (ax, bx) of every x are queued
    as whole columns and rows.
    """
    n = M.size
    t = M.table
    work = []
    for pair in pairs:
        try:
            a, b = pair
        except (TypeError, ValueError):
            raise FormatError("congruence generator %r is not a pair" % (pair,)) from None
        if _bad_cell((a, b), n) is not None:
            raise FormatError("congruence generator (%r,%r) out of range" % (a, b))
        work.append((a, b))
    cls = list(range(n))
    members = [[a] for a in range(n)]
    while work:
        a, b = work.pop()
        ca, cb = cls[a], cls[b]
        if ca == cb:
            continue
        if len(members[ca]) < len(members[cb]):
            ca, cb = cb, ca
        for x in members[cb]:
            cls[x] = ca
        members[ca] += members[cb]
        # columns a and b, read in place: a transposed copy costs n*n cells a call
        work.extend(zip(map(itemgetter(a), t), map(itemgetter(b), t)))
        work.extend(zip(t[a], t[b]))
    return Congruence(M, tuple(cls))


def is_congruence(M: FiniteMonoid, class_id) -> bool:
    ids = tuple(class_id)
    if len(ids) != M.size:
        return False
    ids = _normalize_classes(ids)  # FormatError on an id that is not a plain int
    t = M.table
    for a, b in _related_pairs(ids):
        for x in M.elements:
            if ids[t[x][a]] != ids[t[x][b]] or ids[t[a][x]] != ids[t[b][x]]:
                return False
    return True


def quotient(M: FiniteMonoid, c: Congruence):
    """Quotient monoid and projection hom.  c must be a congruence on M."""
    if c.base != M:
        raise FormatError("congruence belongs to a different monoid")
    if not is_congruence(M, c.class_id):
        raise PreconditionError("partition is not a congruence")
    ids = c.class_id
    k = c.num_classes
    reps = [ids.index(i) for i in range(k)]
    table = [[ids[M.table[reps[i]][reps[j]]] for j in range(k)] for i in range(k)]
    labels = tuple("[%s]" % M.label(reps[i]) for i in range(k))
    Q = FiniteMonoid(k, ids[M.identity], tuple(map(tuple, table)), labels)
    return Q, MonoidHom(M, Q, ids)


def submonoid(M: FiniteMonoid, elements):
    """Restrict M to a subset (which must contain 1 and be product-closed)."""
    elements = tuple(elements)
    if (i := _bad_cell(elements, M.size)) is not None:
        raise FormatError("subset element %r out of range" % (elements[i],))
    subset = sorted(set(elements))
    if M.identity not in subset:
        raise FormatError("subset does not contain the identity")
    index = {a: i for i, a in enumerate(subset)}
    t = M.table
    for a in subset:
        for b in subset:
            if t[a][b] not in index:
                raise FormatError("subset not closed: %d*%d escapes" % (a, b))
    table = tuple(tuple(index[t[a][b]] for b in subset) for a in subset)
    labels = tuple(M.label(a) for a in subset)
    S = FiniteMonoid(len(subset), index[M.identity], table, labels)
    return S, MonoidHom(S, M, tuple(subset))


def kernel(f: MonoidHom):
    """The full preimage of the target identity, with its embedding."""
    ids = [a for a in f.source.elements if f.map[a] == f.target.identity]
    return submonoid(f.source, ids)


def image(f: MonoidHom) -> tuple:
    return tuple(sorted(set(f.map)))


def is_cokernel(k: MonoidHom, e: MonoidHom) -> bool:
    """e is the cokernel of k: e is surjective and the congruence it induces
    equals the congruence generated by identifying the image of k with 1.

    verify_split_extension calls it only for an extension whose factor
    table k(n) * s(h) misses some element of G, one that is not weakly
    Schreier; on the others the table decides the law."""
    if k.target != e.source:
        raise FormatError("k and e are not composable")
    G = e.source
    if len(set(e.map)) != e.target.size:
        return False
    induced = _normalize_classes(e.map)
    generated = congruence_closure(G, [(k.map[n], G.identity) for n in k.source.elements])
    return induced == generated.class_id


def direct_product(A: FiniteMonoid, B: FiniteMonoid) -> FiniteMonoid:
    """Componentwise product on pairs ordered lexicographically."""
    pairs = [(a, b) for a in A.elements for b in B.elements]
    index = {p: i for i, p in enumerate(pairs)}
    table = tuple(
        tuple(index[(A.table[a1][a2], B.table[b1][b2])] for (a2, b2) in pairs)
        for (a1, b1) in pairs
    )
    labels = tuple("(%s,%s)" % (A.label(a), B.label(b)) for (a, b) in pairs)
    return FiniteMonoid(len(pairs), index[(A.identity, B.identity)], table, labels)


def _element_fingerprint(M: FiniteMonoid, x: int) -> tuple:
    t = M.table
    # iterate powers of x until the sequence cycles
    seen = {}
    p = M.identity
    tail = 0
    while p not in seen:
        seen[p] = tail
        tail += 1
        p = t[p][x]
    return (
        x == M.identity,
        t[x][x] == x,
        len(set(t[x])),
        len(set(row[x] for row in t)),
        tail,
        tail - seen[p],
    )


def generating_plan(M: FiniteMonoid):
    """Greedy least-index generators and a plan that defines every element.

    Returns (gens, plan).  The plan lists every element once, as (x, rule):
    the identity first with rule ("one",), then alternately the products of
    known elements, each as ("mul", a, b) with a and b earlier in the plan,
    and the least-index element not yet reached, as ("gen", i) for gens[i].
    """
    how = {M.identity: ("one",)}
    order = [M.identity]
    gens = []
    while len(order) < M.size:
        progressed = True
        while progressed:
            progressed = False
            for a in list(order):
                for b in list(order):
                    c = M.table[a][b]
                    if c not in how:
                        how[c] = ("mul", a, b)
                        order.append(c)
                        progressed = True
        if len(order) == M.size:
            break
        g = min(x for x in M.elements if x not in how)
        how[g] = ("gen", len(gens))
        gens.append(g)
        order.append(g)
    return gens, [(x, how[x]) for x in order]


def _hom_search(A: FiniteMonoid, mul, choices, injective=False, plan=None):
    """Yield lazily, in search order, every map phi on A's elements with
    phi(a b) = mul(phi(a), phi(b)) for all a, b, whose values at the identity
    and at each generator of A are drawn from choices(x).

    The search is _cell_search over the stages of A's generating plan, each
    a cell of the one-row table [phi]: stage 0 chooses phi(1), each later one
    a generator's image, and its check derives the products the plan builds
    from that image and tests its law instances.  Each law (a, b) is checked
    once, at the first stage where phi(a), phi(b) and phi(a b) are all known,
    and a failure prunes every extension; with injective, so does a stage
    that gives two known elements one value.  plan is A's generating plan."""
    plan = plan or generating_plan(A)[1]
    stages = []  # (x chosen at this stage, [(y, a, b) derived as mul(phi(a), phi(b))])
    stage_of = {}
    for x, rule in plan:
        if rule[0] == "mul":
            stages[-1][1].append((x, rule[1], rule[2]))
        else:
            stages.append((x, []))
        stage_of[x] = len(stages) - 1
    laws = [[] for _ in stages]
    for a in A.elements:
        for b in A.elements:
            ab = A.table[a][b]
            laws[max(stage_of[a], stage_of[b], stage_of[ab])].append((a, b, ab))
    phi = [None] * A.size
    known = [[z for z in A.elements if stage_of[z] <= k] for k in range(len(stages))]

    def check(k, v):
        for y, a, b in stages[k][1]:
            phi[y] = mul(phi[a], phi[b])
        if injective and len({phi[z] for z in known[k]}) < len(known[k]):
            return False
        for a, b, ab in laws[k]:
            if phi[ab] != mul(phi[a], phi[b]):
                return False
        return True

    cells = [((0, x),) for x, _ in stages]
    values = [choices(x) for x, _ in stages]
    return (rows[0] for rows in _cell_search([phi], cells, values, check))


def _cell_search(rows, cells, values, check):
    """Yield, depth first, every filling of rows (a list of lists) in which
    cell k, a tuple of positions (r, c), takes a value from values[k] and
    passes check(k, v), a test of law instances read from fixed cells and
    cells 0..k whose failure prunes every extension; ascending values give
    fillings in lexicographic cell order.  In _hom_search a cell is a stage:
    check derives the stage's products and tests its law instances."""

    def search(k):
        if k == len(cells):
            yield tuple(map(tuple, rows))
            return
        for v in values[k]:
            for r, c in cells[k]:
                rows[r][c] = v
            if check(k, v):
                yield from search(k + 1)

    return search(0)


def are_isomorphic(A: FiniteMonoid, B: FiniteMonoid) -> bool:
    """Backtracking isomorphism test over generator images.

    Each element's image is limited to the elements with its cheap
    invariants, and the hom search shared with all_homs, kept injective,
    stops at its first hom; the answer is whether that map is a bijection,
    so it does not rest on the pruning.  Practical into the low tens.
    """
    if A.size != B.size:
        return False
    fpa = [_element_fingerprint(A, x) for x in A.elements]
    fpb = [_element_fingerprint(B, x) for x in B.elements]
    if sorted(fpa) != sorted(fpb):
        return False
    # a fingerprint marks the identity, so only B's identity matches A's
    choices = [[y for y in B.elements if fpb[y] == fpa[x]] for x in A.elements]
    phi = next(_hom_search(A, B.mul, choices.__getitem__, injective=True), ())
    return len(set(phi)) == A.size


def canonical_form(M: FiniteMonoid) -> tuple:
    """Least relabelled table over all bijections sending the identity to 0.

    Factorial in size-1; meant for deduplicating catalogs of small monoids.
    """
    rest = [x for x in M.elements if x != M.identity]
    t = M.table
    best = None
    for perm in permutations(range(1, M.size)):
        relabel = [0] * M.size
        relabel[M.identity] = 0
        for old, new in zip(rest, perm):
            relabel[old] = new
        inverse = [0] * M.size
        for old, new in enumerate(relabel):
            inverse[new] = old
        cand = tuple(
            tuple(relabel[t[inverse[i]][inverse[j]]] for j in range(M.size))
            for i in range(M.size)
        )
        if best is None or cand < best:
            best = cand
    return (M.size, best)
