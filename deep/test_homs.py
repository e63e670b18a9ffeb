"""The plan-driven hom search against the generate-and-test references, on
the size-5 classes, their relabelled copies and two chains."""

import tests.conftest as oracle
from wschreier.catalog import all_homs, catalog_inverse_monoids, catalog_monoids, chain_lattice
from wschreier.lambda_product import enumerate_inverse_actions, semigroup_endomorphisms
from wschreier.monoid import BoundExceeded, are_isomorphic, canonical_form, inverse_structure

from .conftest import agree

CHAINS = [chain_lattice(6), chain_lattice(7)]


def _with_refusals(enumerate_):
    """enumerate_, returning the estimate and message of a refusal."""

    def run(N, H):
        try:
            return enumerate_(N, H)
        except BoundExceeded as exc:
            return ("refused", exc.estimate, str(exc))

    return run


def test_endomorphisms(classes, copies):
    cases = [(M,) for M in classes + copies + CHAINS]
    agree(semigroup_endomorphisms, oracle.reference_semigroup_endomorphisms, cases, 458)


def test_homs(classes, copies):
    cases = [p for A in classes + copies for B in catalog_monoids(3) for p in ((A, B), (B, A))]
    agree(all_homs, oracle.reference_all_homs, cases + [(C, C) for C in CHAINS], 9122)


def test_actions(classes, copies):
    """Refusals included: each inverse size-5 monoid on and by each member
    of catalog_inverse_monoids(3)."""
    big = [v.value for v in map(inverse_structure, classes + copies) if v.ok]
    cases = [p for N in big for H in catalog_inverse_monoids(3) for p in ((N, H), (H, N))]
    new, ref = map(_with_refusals, (enumerate_inverse_actions, oracle.reference_inverse_actions))
    agree(new, ref, cases, 756)


def test_isomorphism(classes, copies):
    form = {M: canonical_form(M) for M in classes + copies}
    cases = [(A, B) for A in classes for B in copies]
    agree(are_isomorphic, lambda A, B: form[A] == form[B], cases, 51984)
