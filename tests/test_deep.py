"""The deep tier in deep/ is not collected by tier-1; this checks that it
still collects, with the tests it should hold, without building any of its
inputs."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

DEEP_TESTS = {
    "test_cli.py": ["cli"],
    "test_extensions.py": [
        "build", "candidates", "unique", "retraction", "morphisms", "leq", "verdicts",
    ],
    "test_frames.py": ["downset_frames", "downset_glueings"],
    "test_homs.py": ["endomorphisms", "homs", "actions", "isomorphism"],
    "test_laws.py": ["monoid", "mutants", "closure", "generators"],
    "test_wactions.py": ["wactions"],
}


def test_deep_tier_collects():
    pythonpath = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    p = subprocess.run(
        [sys.executable, "-m", "pytest", "--collect-only", "-q", "-p", "no:cacheprovider", "deep"],
        cwd=ROOT,
        env=dict(os.environ, PYTHONPATH=pythonpath),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert p.returncode == 0, p.stdout + p.stderr
    ids = [line for line in p.stdout.splitlines() if "::" in line]
    assert len(ids) == 19
    assert ids == ["deep/%s::test_%s" % (m, t) for m, names in DEEP_TESTS.items() for t in names]
