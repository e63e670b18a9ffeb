"""Golden digests of the three extension builders.

Each builder's outputs over a small catalog slice are serialized and hashed
into one digest per builder.  The digests were frozen from the builders as
they stood before they were folded into one shared assembly routine, so any
change of carrier order, table, labels, k/e/s, retraction or frame data
shows up here as a digest mismatch.
"""

from __future__ import annotations

import hashlib

from wschreier.catalog import (
    all_homs,
    catalog_inverse_monoids,
    catalog_monoids,
    commutative_idempotent_monoids,
)
from wschreier.frames import artin_glueing, check_frame
from wschreier.io import serialize_extension, serialize_monoid
from wschreier.lambda_product import enumerate_inverse_actions, lambda_product
from wschreier.waction import DEFAULT_BOUND, build_extension, enumerate_wactions

GOLDEN = {
    "lambda": (155, "679227c64a5a98e91d5e566722867cda21ff775ec3d808b7725bc08edec4682f"),
    "glueing": (145, "ef46d0a5e3d68fecf1e2dbc4062e6754044c5d8ccf59e1c138911cbcdfbc6416"),
    "build": (757, "d1a3a1fe20688967e4a80839665a79270f87d7ba6793a312f787b86be606b178"),
}


def _extension_text(ext) -> str:
    return serialize_monoid(ext.G, "G") + serialize_extension(ext, "N", "G", "H")


def _digest(texts) -> tuple:
    h = hashlib.sha256()
    count = 0
    for text in texts:
        h.update(text.encode())
        h.update(b"\0")
        count += 1
    return count, h.hexdigest()


def _lambda_texts():
    catalog = catalog_inverse_monoids(3)
    for N in catalog:
        for H in catalog:
            for a in enumerate_inverse_actions(N, H):
                lam = lambda_product(a)
                r = lam.retraction
                yield _extension_text(lam.extension) + repr((lam.carrier, r.q, r.unique))


def _glueing_texts():
    frames = [M for M in commutative_idempotent_monoids(4) if check_frame(M).ok]
    for H in frames:
        for N in frames:
            for f in all_homs(H, N):
                frame, ext = artin_glueing(f)
                yield _extension_text(ext) + repr((frame.leq, frame.join, frame.bottom))


def _build_texts():
    catalog = catalog_monoids(3)
    for N in catalog:
        for H in catalog:
            if N.size * H.size <= DEFAULT_BOUND:
                for p in enumerate_wactions(N, H):
                    yield _extension_text(build_extension(p))


def test_lambda_products_match_golden():
    assert _digest(_lambda_texts()) == GOLDEN["lambda"]


def test_artin_glueings_match_golden():
    assert _digest(_glueing_texts()) == GOLDEN["glueing"]


def test_built_extensions_match_golden():
    assert _digest(_build_texts()) == GOLDEN["build"]
