"""The readers of SplitExtension.ks, the builder's retraction, waction_leq
and verify_split_extension against the derivations they replaced, on the
lambda products and built extensions; an exception is its type and message."""

import random
from functools import partial

import pytest

import tests.conftest as oracle
from wschreier import monoid
from wschreier.extension import extension_morphism, retraction_candidates, verify_split_extension
from wschreier.waction import build_extension, waction_leq

from .conftest import SEED, agree


@pytest.fixture(scope="module")
def extensions(lambdas, built):
    """The 6782 lambda products and built extensions, a list per (N, H)."""
    return [[lam.extension for lam in group] for group in lambdas] + built[0]


@pytest.fixture(scope="module")
def made(lambdas, built):
    """(carrier, extension, retraction) of every lambda product and build."""
    return [(lam.carrier, lam.extension, lam.retraction) for g in lambdas for lam in g] + built[1]


def _outcomes(*fns):
    return [partial(oracle.outcome, fn) for fn in fns]


def _exactly(build, pair):
    ext = build(pair)
    return ext.G.table, ext.G.identity, ext.G.labels, ext.k.map, ext.e.map, ext.s.map


def test_build(posets):
    """Every pair and one seeded relabelling of each."""
    rng = random.Random(SEED)
    pairs = [pair for poset in posets for pair in poset]
    pairs += [oracle.relabelled_pair(pair, rng) for pair in pairs]
    new, ref = (partial(_exactly, b) for b in (build_extension, oracle.reference_build_extension))
    agree(*_outcomes(new, ref), [(pair,) for pair in pairs], 3986)


def test_candidates(extensions):
    cases = [(ext,) for group in extensions for ext in group]
    agree(*_outcomes(retraction_candidates, oracle.reference_retraction_candidates), cases, 6782)


def test_unique(made):
    """SchreierRetraction.unique, read off ext.ks, against one reference
    candidate for every g."""

    def counted(r):
        return all(len(c) == 1 for c in oracle.reference_retraction_candidates(r.ext))

    agree(lambda r: r.unique, counted, [(r,) for _, _, r in made], 6782)


def test_retraction(made):
    """The builder's retraction is the first projection (n, h) -> n of its
    carrier, which the reference candidates must admit at every g."""

    def builder(carrier, ext, r):
        return r.q if r.ext is ext else "retraction of another extension"

    def first_projection(carrier, ext, r):
        q = tuple([n for n, _ in carrier])
        cands = oracle.reference_retraction_candidates(ext)
        return q if all(n in c for n, c in zip(q, cands)) else "no retraction"

    agree(builder, first_projection, made, 6782)


def test_morphisms(lambdas, built):
    """Every ordered pair of built extensions over one (N, H), and each
    lambda product and the next over the same (N, H), both ways."""
    cases = [(a, b) for exts in built[0] for a in exts for b in exts]
    for group in lambdas:
        for a, b in zip(group, group[1:]):
            cases += [(a.extension, b.extension), (b.extension, a.extension)]
    agree(*_outcomes(extension_morphism, oracle.reference_extension_morphism), cases, 40789)


def test_leq(posets, built):
    """Every ordered pair of each poset, against reference_waction_leq and
    against the order of the paper: a morphism between the built extensions."""

    def twice(p1, p2, x1, x2):
        return (oracle.outcome(waction_leq, p1, p2),) * 2

    def references(p1, p2, x1, x2):
        ordered = extension_morphism(x1, x2) is not None
        return oracle.outcome(oracle.reference_waction_leq, p1, p2), ordered

    cases = [
        (p1, p2, x1, x2)
        for poset, exts in zip(posets, built[0])
        for p1, x1 in zip(poset, exts)
        for p2, x2 in zip(poset, exts)
    ]
    agree(twice, references, cases, 31859)


def test_verdicts(monkeypatch, extensions, in_bound):
    """Every extension and every one-entry mutant of e or s of
    direct_product_extension(N, H), against a verdict whose cokernel law a
    congruence closure always decides; and whether congruence_closure ran,
    against whether a table that is not weakly Schreier reached that law."""
    real, closures = monoid.congruence_closure, []
    monkeypatch.setattr(monoid, "congruence_closure", lambda M, p: closures.append(M) or real(M, p))

    def verdict_and_closure(ext):
        before = len(closures)
        return verify_split_extension(ext), len(closures) > before

    def reference(ext):
        verdict = oracle.reference_verify_split_extension(ext)
        reached = verdict.ok or verdict.violations[0].law == "cokernel"
        return verdict, reached and not all(oracle.reference_retraction_candidates(ext))

    cases = [(ext,) for group in extensions for ext in group]
    cases += [(ext,) for N, H in in_bound for ext in oracle.extension_mutants(N, H)]
    agree(verdict_and_closure, reference, cases, 15715)
    assert len(closures) == 104
