"""enumerate_wactions against the generate-and-test reference, whose
relations come from reference_admissible_relations, on 40 seeded 12-cell
pairs of catalog_monoids(4) above the default bound, both members
relabelled."""

import random

import tests.conftest as oracle
from wschreier.catalog import catalog_monoids
from wschreier.waction import enumerate_wactions

from .conftest import SEED, agree

PAIRS, CELLS = 40, 12


def test_wactions():
    rng = random.Random(SEED)
    catalog = catalog_monoids(4)
    candidates = [(N, H) for N in catalog for H in catalog if N.size * H.size == CELLS]
    chosen = rng.sample(candidates, PAIRS)
    cases = [(oracle.relabelled(N, rng), oracle.relabelled(H, rng), CELLS) for N, H in chosen]
    agree(enumerate_wactions, oracle.reference_wactions, cases, PAIRS)
