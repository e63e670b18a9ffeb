"""The row kernels of check_monoid and congruence_closure against the
element loops they replaced (reference_check_monoid and
reference_congruence_closure in conftest).

check_monoid must return the whole Verdict of its reference: ok, every
violation in order, and every witness.  The inputs are the tables of
catalog_monoids(4) and of every lambda product G over
catalog_inverse_monoids(3), and seeded one-cell mutations of each, which
reach the failure paths.  congruence_closure must give the same classes on
random generator sets and on the generators that is_cokernel passes.
"""

from __future__ import annotations

import enum
import random

import pytest

from conftest import (
    one_cell_mutant,
    outcome,
    reference_check_monoid,
    reference_congruence_closure,
)
from wschreier import monoid
from wschreier.catalog import catalog_inverse_monoids, catalog_monoids
from wschreier.lambda_product import enumerate_inverse_actions, lambda_product
from wschreier.monoid import FiniteMonoid, FormatError, check_monoid, congruence_closure

SEED = 29


@pytest.fixture(scope="module")
def lambdas():
    """The lambda products over catalog_inverse_monoids(3)."""
    cat = catalog_inverse_monoids(3)
    acts = [a for N in cat for H in cat for a in enumerate_inverse_actions(N, H)]
    return [lambda_product(a) for a in acts]


@pytest.fixture(scope="module")
def tables(lambdas):
    """(table, identity) of every catalog_monoids(4) member and lambda product G."""
    monoids = list(catalog_monoids(4)) + [p.monoid for p in lambdas]
    return [(M.table, M.identity) for M in monoids]


def same_verdict(got, want):
    """The whole Verdict: ok, the violations in order and their witnesses."""
    assert (got.ok, got.violations, got.value) == (want.ok, want.violations, want.value)


class TestCheckMonoid:
    def test_valid_tables(self, tables):
        for table, e in tables:
            same_verdict(check_monoid(table, e), reference_check_monoid(table, e))
            same_verdict(check_monoid(table), reference_check_monoid(table))
            assert type(check_monoid(table, e).value.table) is tuple

    def test_mutants_list_every_violation(self, tables):
        rng = random.Random(SEED)
        failed = 0
        for table, e in tables:
            for _ in range(3):
                bad = one_cell_mutant(table, rng)
                n = len(bad)
                triples = [
                    (a, b, c)
                    for a in range(n)
                    for b in range(n)
                    for c in range(n)
                    if bad[bad[a][b]][c] != bad[a][bad[b][c]]
                ]
                for identity in (e, None):
                    got = check_monoid(bad, identity)
                    same_verdict(got, reference_check_monoid(bad, identity))
                    assert [v.witness for v in got.violations if v.law == "associativity"] == triples
                    failed += not got.ok
        assert failed > len(tables)

    def test_table_is_validated_once(self, monkeypatch):
        calls = []
        as_table = monoid._as_table
        monkeypatch.setattr(monoid, "_as_table", lambda t: calls.append(t) or as_table(t))
        M = check_monoid(((0, 1), (1, 1)), 0, ("1", "z")).value
        assert len(calls) == 1
        assert M.labels == ("1", "z")

    def test_one_element_table(self):
        same_verdict(check_monoid(((0,),), 0, ("1",)), reference_check_monoid(((0,),), 0, ("1",)))

    @pytest.mark.parametrize(
        "table",
        [
            (),
            ((0, 1), (1,)),
            ((0, 1), (1, 2)),
            ((0, 1), (1, -1)),
            ((0, True), (1, 0)),
            ((0, 1.0), (1, 0)),
            ((0, "1"), (1, 0)),
            ((0, [1]), (1, 0)),
            ((0, None), (1, 0)),
            ((0, 1), (1, 0), (0, 1)),
        ],
    )
    def test_shape_errors_are_unchanged(self, table):
        with pytest.raises(FormatError) as want:
            reference_check_monoid(table, 0)
        with pytest.raises(FormatError) as got:
            check_monoid(table, 0)
        assert str(got.value) == str(want.value)
        with pytest.raises(FormatError) as direct:
            FiniteMonoid(len(table), 0, table)
        assert str(direct.value) == str(want.value)

    @pytest.mark.parametrize("identity", [1.0, "1", True, -1, 2, None])
    def test_identity_checks_agree(self, identity):
        # a given identity is a plain int in range, as a cell is
        table = ((0, 0), (0, 1))
        assert outcome(check_monoid, table, identity) == outcome(
            reference_check_monoid, table, identity
        )

    def test_int_subclass_entries_pass_the_element_loop(self):
        One = enum.IntEnum("One", "one")  # One.one == 1
        table = ((0, One.one), (One.one, 0))
        same_verdict(check_monoid(table, 0), reference_check_monoid(table, 0))
        assert check_monoid(table, 0).ok


class TestCongruenceClosure:
    def test_random_generators(self, tables):
        rng = random.Random(SEED)
        for table, e in tables:
            M = FiniteMonoid(len(table), e, table)
            for k in (0, 1, 2, 3):
                pairs = [(rng.randrange(M.size), rng.randrange(M.size)) for _ in range(k)]
                got = congruence_closure(M, pairs).class_id
                assert got == reference_congruence_closure(M, pairs).class_id

    def test_kernel_generators_of_lambda_products(self, lambdas):
        """The generators is_cokernel passes: the image of k, identified with 1."""
        for p in lambdas:
            ext = p.extension
            pairs = [(g, ext.G.identity) for g in ext.k.map]
            got = congruence_closure(ext.G, pairs).class_id
            assert got == reference_congruence_closure(ext.G, pairs).class_id

    def test_generator_out_of_range(self, lambdas):
        G = lambdas[0].monoid
        with pytest.raises(FormatError, match="congruence generator"):
            congruence_closure(G, [(0, G.size)])
