"""Counts that come from outside the package: published enumerations and
theorems about Schreier extensions of monoids.

The other oracles in conftest.py restate the package's own definitions, so a
law misread in both places would pass them.  Here each side is counted by
brute force from the statement of a known result:

* monoids of order 5 up to isomorphism number 228 (OEIS A058129);
* a left-translation stable partition of a group G is the partition into the
  left cosets of a subgroup, so with H = chain_lattice(2), whose fiber over 0
  has no other law to meet, the admissible relations on G are as many as
  its subgroups;
* a split extension is Schreier exactly when its retraction is unique, and
  Schreier split extensions correspond to actions of H on N by monoid
  endomorphisms (Patchkoria 1998; Martins-Ferreira, Montoli and Sobral
  2013): the pairs with every fiber discrete are the monoid homs
  H -> End(N), and the retraction of a built extension is unique exactly
  when its relation is discrete;
* when H is a group each s(h) is invertible, so every weakly Schreier
  extension is Schreier and every fiber is discrete;
* when H is a group h h^-1 = 1, so the carrier of a lambda product is all
  of N x H, and when N is a group too the lambda product is the semidirect
  product (n, h)(n', h') = (n (h.n'), h h').

The frozen counts were read from two runs that agreed.
"""

import itertools

from wschreier.catalog import (
    all_monoid_tables,
    catalog_inverse_monoids,
    catalog_monoids,
    chain_lattice,
)
from wschreier.extension import find_retraction
from wschreier.lambda_product import enumerate_inverse_actions, lambda_product
from wschreier.waction import DEFAULT_BOUND, admissible_relations, build_extension

IN_BOUND = [
    (N, H)
    for N in catalog_monoids(4)
    for H in catalog_monoids(4)
    if N.size * H.size <= DEFAULT_BOUND
]


def is_group(M):
    return all(any(M.table[a][b] == M.identity for b in M.elements) for a in M.elements)


def subgroup_count(G):
    """Subsets holding 1 and closed under the product: in a finite group
    these are the subgroups."""
    rest = [a for a in G.elements if a != G.identity]
    count = 0
    for r in range(len(rest) + 1):
        for chosen in itertools.combinations(rest, r):
            S = {G.identity, *chosen}
            count += all(G.table[a][b] in S for a in S for b in S)
    return count


def monoid_endomorphisms(N):
    """Every map of N fixing 1 and preserving products, as a tuple."""
    t = N.table
    return [
        f
        for f in itertools.product(N.elements, repeat=N.size)
        if f[N.identity] == N.identity
        and all(f[t[a][b]] == t[f[a]][f[b]] for a in N.elements for b in N.elements)
    ]


def action_count(N, H):
    """Monoid homs H -> End(N) under composition, (phi(h) phi(h'))(n) =
    phi(h)(phi(h')(n)), by trying every image of every h other than 1."""
    ends = monoid_endomorphisms(N)
    rest = [h for h in H.elements if h != H.identity]
    count = 0
    for images in itertools.product(ends, repeat=len(rest)):
        phi = dict(zip(rest, images))
        phi[H.identity] = tuple(N.elements)
        count += all(
            phi[H.table[h][k]] == tuple(phi[h][x] for x in phi[k])
            for h in H.elements
            for k in H.elements
        )
    return count


def discrete(p):
    return all(f == tuple(p.N.elements) for f in p.E.fibers)


def test_monoids_of_order_five():
    # Burnside: the classes number the mean, over the relabellings that fix
    # the identity 0, of the tables each relabelling maps to themselves
    tables = list(all_monoid_tables(5))
    perms = [(0,) + p for p in itertools.permutations(range(1, 5))]
    fixed = sum(
        all(t[p[a]][p[b]] == p[t[a][b]] for a in range(5) for b in range(5))
        for t in tables
        for p in perms
    )
    assert (len(tables), fixed % len(perms), fixed // len(perms)) == (4122, 0, 228)


def test_left_stable_partitions_of_a_group_are_its_subgroups():
    groups = [G for G in catalog_monoids(4) if is_group(G)]
    H = chain_lattice(2)
    counts = [len(list(admissible_relations(G, H))) for G in groups]
    assert counts == [subgroup_count(G) for G in groups]
    assert counts == [1, 2, 2, 5, 3]


def test_discrete_pairs_are_actions_by_endomorphisms(enum_cache):
    found = [sum(map(discrete, enum_cache.wactions(N, H))) for N, H in IN_BOUND]
    assert found == [action_count(N, H) for N, H in IN_BOUND]
    assert sum(found) == 817


def test_fibers_over_a_group_are_discrete(enum_cache):
    pairs = [p for N, H in IN_BOUND if is_group(H) for p in enum_cache.wactions(N, H)]
    assert all(map(discrete, pairs))
    assert sum(is_group(H) for _, H in IN_BOUND) == 106


def test_unique_retraction_exactly_when_discrete(enum_cache):
    for N, H in IN_BOUND:
        for p in enum_cache.wactions(N, H):
            r = find_retraction(build_extension(p)).value
            assert r.unique == discrete(p)


def test_lambda_products_over_a_group():
    # the carrier lists pairs h-major, so (n, h) is element h |N| + n
    inverse = catalog_inverse_monoids(4)
    groups = [H for H in inverse if is_group(H.base)]
    full = semidirect = 0
    for N in inverse:
        for H in groups:
            tn, th, elements = N.base.table, H.base.table, N.base.elements
            pairs = [(n, h) for h in H.base.elements for n in elements]
            for a in enumerate_inverse_actions(N, H):
                lam = lambda_product(a)
                assert list(lam.carrier) == pairs
                full += 1
                if is_group(N.base):
                    assert lam.monoid.table == tuple(
                        tuple(th[h][h2] * len(elements) + tn[n][a.act[h][n2]] for n2, h2 in pairs)
                        for n, h in pairs
                    )
                    semidirect += 1
    assert (full, semidirect) == (132, 52)
