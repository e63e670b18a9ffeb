"""The command line of this working tree against that of the git revision
WSCHREIER_PARENT names (HEAD when it is unset): the cli_mixed cases of
seeds 1-3 and an --emit variant of every lambda and glue case, each run as
python -m wschreier in a copy of its inputs per side.  Exit code, stdout,
stderr and the files left behind must be equal.  When the revision's src/
equals the working tree's, as for HEAD on a committed checkout, there is
nothing to compare and the test skips."""

import os
import shutil
import subprocess
import sys
import zipfile
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

from cli_mix import CliMix  # noqa: E402

PARENT = os.environ.get("WSCHREIER_PARENT", "HEAD")


def _cases(seed: int, inputs: Path) -> list:
    argvs = [case.argv for case in CliMix(seed, str(inputs)).cases]
    return argvs + [
        argv + ["--emit", "emit%d.ext" % i]
        for i, argv in enumerate(argvs)
        if argv[0] in ("lambda", "glue") and "--emit" not in argv
    ]


def _sources(src: Path) -> dict:
    """The bytes of every file under src by relative path, less __pycache__."""
    files = {p.relative_to(src): p for p in src.rglob("*") if p.is_file()}
    return {r: p.read_bytes() for r, p in files.items() if "__pycache__" not in r.parts}


def _run(src: Path, inputs: Path, workdir: Path, argvs: list) -> list:
    """(exit code, stdout, stderr) of every case run in a copy of inputs,
    then the files left behind."""
    shutil.copytree(inputs, workdir)
    env = dict(os.environ, PYTHONHASHSEED="0", PYTHONPATH=str(src))
    env.pop("WSCHREIER_BOUND", None)
    runs = [
        subprocess.run(
            [sys.executable, "-m", "wschreier", *argv],
            cwd=workdir, env=env, capture_output=True, timeout=120,
        )
        for argv in argvs
    ]
    files = {f.name: f.read_bytes() for f in sorted(workdir.iterdir())}
    return [(p.returncode, p.stdout, p.stderr) for p in runs] + [files]


def test_cli(tmp_path):
    if not (ROOT / ".git").exists() or shutil.which("git") is None:
        pytest.skip("not a git checkout")
    archive = tmp_path / "parent.zip"
    git = ["git", "-C", ROOT, "archive", "--format=zip", "-o", archive, PARENT]
    subprocess.run(git, check=True)
    with zipfile.ZipFile(archive) as z:
        z.extractall(tmp_path / "parent")
    if _sources(tmp_path / "parent" / "src") == _sources(ROOT / "src"):
        pytest.skip("src/ at WSCHREIER_PARENT=%s equals the working tree's; set it to "
                    "the parent commit to compare the command lines" % PARENT)
    total, differing = 0, []
    for seed in (1, 2, 3):
        inputs = tmp_path / ("seed%d" % seed)
        inputs.mkdir()
        argvs = _cases(seed, inputs)
        parent = _run(tmp_path / "parent" / "src", inputs, tmp_path / ("parent%d" % seed), argvs)
        change = _run(ROOT / "src", inputs, tmp_path / ("change%d" % seed), argvs)
        cases = [" ".join(argv) for argv in argvs] + ["the files left behind"]
        differing += [(seed, case) for case, a, b in zip(cases, parent, change) if a != b]
        total += len(argvs)
    assert total == 135
    assert differing == []
