"""The down-set frames of size 7 and 8 (Birkhoff's theorem: every finite
frame is one) through check_frame against the brute-force order, and their
glueings on seeded homs against the two-build route."""

import random

import pytest

import tests.conftest as oracle
from wschreier.catalog import all_homs
from wschreier.frames import check_frame, glueing_equals_lambda

from .conftest import SEED, agree

HOMS_PER_PAIR = 2  # seeded homs per ordered pair (H, N)


@pytest.fixture(scope="module")
def frames():
    """The 8 frames of size 7 and the 15 of size 8 (OEIS A006982)."""
    return [M for M in oracle.downset_frames(8) if M.size >= 7]


def test_downset_frames(frames):
    cases = [(M,) for M in frames]
    agree(
        lambda M: check_frame(M).value,
        lambda M: oracle.reference_check_frame(M).expect("reference_check_frame"),
        cases,
        23,
    )


def test_downset_glueings(frames):
    rng = random.Random(SEED)
    cases = [
        (f,) for H in frames for N in frames for f in rng.sample(all_homs(H, N), HOMS_PER_PAIR)
    ]
    agree(
        lambda f: (glueing_equals_lambda(f), oracle.reference_glueing_equals_lambda(f)),
        lambda f: (True, True),
        cases,
        23 * 23 * HOMS_PER_PAIR,
    )
