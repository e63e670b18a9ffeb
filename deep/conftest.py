"""Session fixtures, each input of the deep tier built once, and the one
assertion of every deep test."""

import random

import pytest

import tests.conftest as oracle
from wschreier import waction
from wschreier.catalog import (
    all_homs,
    all_monoid_tables,
    catalog_inverse_monoids,
    catalog_monoids,
    commutative_idempotent_monoids,
)
from wschreier.extension import SchreierRetraction
from wschreier.frames import _glueing_parts, artin_glueing, check_frame
from wschreier.lambda_product import enumerate_inverse_actions, lambda_product
from wschreier.monoid import FiniteMonoid, canonical_form

SEED = 29


def agree(new, ref, cases, count):
    """There are count cases, argument tuples, and new and ref agree on each."""
    assert len(cases) == count
    assert [args for args in cases if new(*args) != ref(*args)] == []


@pytest.fixture(scope="session")
def classes():
    """The 228 isomorphism classes of monoids of size 5."""
    forms = {canonical_form(FiniteMonoid(5, 0, t)) for t in all_monoid_tables(5)}
    return [FiniteMonoid(5, 0, table) for _, table in sorted(forms)]


@pytest.fixture(scope="session")
def copies(classes):
    rng = random.Random(SEED)
    return [oracle.relabelled(M, rng) for M in classes]


@pytest.fixture(scope="session")
def lambdas():
    """The 4789 lambda products over catalog_inverse_monoids(4), a list per (N, H)."""
    inv = catalog_inverse_monoids(4)
    return [[lambda_product(a) for a in enumerate_inverse_actions(N, H)] for N in inv for H in inv]


@pytest.fixture(scope="session")
def glued():
    """(extension, carrier) of the 1093 glueings of commutative_idempotent_monoids(5)."""
    frames = [M for M in commutative_idempotent_monoids(5) if check_frame(M).ok]
    return [
        (artin_glueing(f)[1], _glueing_parts(f)[0])
        for H in frames
        for N in frames
        for f in all_homs(H, N)
    ]


@pytest.fixture(scope="session")
def in_bound():
    catalog = catalog_monoids(4)
    return [(N, H) for N in catalog for H in catalog if N.size * H.size <= waction.DEFAULT_BOUND]


@pytest.fixture(scope="session")
def posets(in_bound):
    """The 1993 enumerated pairs of the 310 in-bound (N, H), a tuple per (N, H)."""
    return [waction.enumerate_wactions(N, H) for N, H in in_bound]


@pytest.fixture(scope="session")
def built(posets):
    """build_extension of every pair, a list per poset, and the (carrier,
    extension, retraction) of each build, recorded through the waction
    module's reference to the builder; the retraction is the first
    projection, built through SchreierRetraction."""
    builder, made = waction._extension_on_carrier, []

    def recording(N, H, carrier, *rest):
        ext = builder(N, H, carrier, *rest)
        made.append((carrier, ext, SchreierRetraction(ext, tuple([n for n, _ in carrier]))))
        return ext

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(waction, "_extension_on_carrier", recording)
        return [[waction.build_extension(pair) for pair in poset] for poset in posets], made
