"""Golden digests of the three extension builders and of every CLI verb.

Each builder's outputs over a small catalog slice are serialized and hashed
into one digest per builder.  The digests were frozen from the builders as
they stood before they were folded into one shared assembly routine, so any
change of carrier order, table, labels, k/e/s, retraction or frame data
shows up here as a digest mismatch.

Each criterion-9 CLI case runs in this process through ``wschreier.cli.run``
on its own copy of the criterion-9 input directory.  Its exit code, stdout,
stderr and every file it creates or changes there are hashed into one digest
per case.  These digests were frozen before the input files' parsing was
moved entirely into ``wschreier.io``, so any change of the bytes a verb
prints or writes shows up here.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import shutil

import pytest

from test_acceptance import CLI_CASES, cli_dir  # noqa: F401  the criterion-9 cases

from wschreier.catalog import (
    all_homs,
    catalog_inverse_monoids,
    catalog_monoids,
    commutative_idempotent_monoids,
)
from wschreier.cli import run
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


CLI_GOLDEN = {
    "check sl3.mon": "93c1a4c170e018084e25c5045b6e0ad0",
    "check c2.mon": "10b8bd774eeb28bcd7eccadc3750bf7e",
    "check sl3.mon --as-frame": "4d0fc610d899ce22c2dd2f7072efed65",
    "check rz.mon --as-frame": "06e7580cf8536a2f8c1fb17337049e43",
    "check broken.mon": "0c68094c5aa83b06319ca18521352d52",
    "check garbage.mon": "b8fa3f90cee76707492646e7f9b09ed5",
    "check missing.mon": "2b99d3c889330eccf54fd74c75bc0e62",
    "inverse sl3.mon": "f93dbbb4ef306a63edf1893c3263add2",
    "inverse rz.mon": "25ee87b7a3ee6950228286ca147f98cb",
    "lambda alpha_a.act": "988d6e25dbda479dded0f85db083a311",
    "lambda alpha_a.act --emit lam_emit.ext": "9a2067002fc07953dda0bcec0f22b035",
    "lambda bad.act": "9985095b898d52a9ca188790b0796d9f",
    "lambda rz.act": "c5086bde915c1c2d366fa41a566692d7",
    "glue f.map": "c027f733e586df2ae558a593ddc774d7",
    "glue f.map --emit glued.ext": "59d1cacc24d6f4cae1f658844c3468fb",
    "glue rzmap.map": "3bb25852dd1202c425dba83ed480090d",
    "extract lam.ext": "8f974317cad5f6709462e830cd2eef5f",
    "extract diag.ext": "90dffe8ffbac1caf5b809475402c8c95",
    "compare alpha_a.act alpha_0.act": "5805264b0e6c2faecf9aa8eb0fdbcb7d",
    "compare lam.ext alpha_0.act": "5805264b0e6c2faecf9aa8eb0fdbcb7d",
    "join f.map g.map": "1ef53d0fa378f9d98872851e182db409",
    "join rzmap.map rzmap.map": "478843ba034f4536287e578085a8d106",
    "enumerate sl3.mon sl2.mon": "7d885778f890432dbaec5ecf418cc47d",
    "enumerate sl3.mon sl2.mon --actions": "48bfaea047614cfffef35b247d041403",
    "enumerate sl3.mon sl2.mon --wactions --limit 3": "96a6352f103fdd92d93749cf5b84030b",
    "poset sl3.mon sl2.mon --dot poset.dot": "95793e919932a41cfc3ff3510499d444",
    "frobnicate": "2be845e8641703b14effd6483c158428",
}


def _cli_digest(workdir, args) -> tuple:
    """Exit code and digest of one in-process CLI run in workdir."""
    before = {p.name: p.read_bytes() for p in workdir.iterdir()}
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = run(args)
        except SystemExit as exc:  # argparse refusing the command line
            code = exc.code
    h = hashlib.sha256()
    for part in (str(code), out.getvalue(), err.getvalue()):
        h.update(part.encode())
        h.update(b"\0")
    for path in sorted(workdir.iterdir()):
        data = path.read_bytes()
        if before.get(path.name) != data:
            h.update(path.name.encode() + b"\0" + data + b"\0")
    return code, h.hexdigest()[:32]


@pytest.mark.parametrize(
    "args, expected", [(a, e) for a, e, _ in CLI_CASES], ids=[" ".join(a) for a, _, _ in CLI_CASES]
)
def test_cli_verbs_match_golden(cli_dir, tmp_path, monkeypatch, args, expected):  # noqa: F811
    work = tmp_path / "work"
    shutil.copytree(cli_dir, work)
    monkeypatch.chdir(work)
    monkeypatch.delenv("WSCHREIER_BOUND", raising=False)
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps its usage line to this width
    code, digest = _cli_digest(work, args)
    assert code == expected
    assert digest == CLI_GOLDEN[" ".join(args)]
