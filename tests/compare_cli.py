"""Compare the command line of two source trees, case by case.

    python3 tests/compare_cli.py --parent <tree> --change <tree> --seeds 1 2 3

For each seed the ``cli_mixed`` cases of ``perfbench/cli_mix.py`` are built
once, with the package of this checkout, plus an ``--emit`` variant of every
``lambda`` and ``glue`` case.  The input directory is copied for each side,
and every case runs there as ``python -m wschreier`` with ``PYTHONPATH`` set
to that side's source root (``<tree>/src`` when it exists, else ``<tree>``).
Prints every difference in exit code, stdout, stderr or the files left in
the directory, then a total; exits 1 when there is a difference.  It starts
hundreds of processes, so it is not part of the test suite.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]

from cli_mix import CliMix  # noqa: E402


def source_root(tree: str) -> str:
    src = os.path.join(tree, "src")
    return os.path.abspath(src if os.path.isdir(src) else tree)


def cases(seed: int, workdir: str) -> list:
    """The argument vectors of one seed's mix, written into workdir."""
    out = [case.argv for case in CliMix(seed, workdir).cases]
    emits = [
        argv + ["--emit", "emit%d.ext" % i]
        for i, argv in enumerate(out)
        if argv[0] in ("lambda", "glue") and "--emit" not in argv
    ]
    return out + emits


def run_side(root: str, workdir: str, argvs: list) -> tuple:
    """(code, stdout, stderr) of every case, and the files left in workdir."""
    env = os.environ.copy()
    env.pop("WSCHREIER_BOUND", None)
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = root
    results = []
    for argv in argvs:
        p = subprocess.run(
            [sys.executable, "-m", "wschreier"] + argv,
            cwd=workdir,
            env=env,
            capture_output=True,
            timeout=120,
        )
        results.append((p.returncode, p.stdout, p.stderr))
    files = {}
    for name in sorted(os.listdir(workdir)):
        with open(os.path.join(workdir, name), "rb") as fh:
            files[name] = fh.read()
    return results, files


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--parent", required=True, help="tree of the parent commit")
    p.add_argument("--change", required=True, help="tree of the change")
    p.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3])
    args = p.parse_args(argv)
    roots = {"parent": source_root(args.parent), "change": source_root(args.change)}
    total = differences = 0
    with tempfile.TemporaryDirectory() as tmp:
        for seed in args.seeds:
            base = os.path.join(tmp, "seed%d" % seed)
            os.mkdir(base)
            argvs = cases(seed, base)
            side = {}
            for name, root in roots.items():
                workdir = os.path.join(tmp, "%s%d" % (name, seed))
                shutil.copytree(base, workdir)
                side[name] = run_side(root, workdir, argvs)
            (before, files_a), (after, files_b) = side["parent"], side["change"]
            for argv, a, b in zip(argvs, before, after):
                for what, x, y in zip(("exit code", "stdout", "stderr"), a, b):
                    if x != y:
                        differences += 1
                        print("seed %d: %s: %s differs" % (seed, " ".join(argv), what))
            for name in sorted(set(files_a) | set(files_b)):
                if files_a.get(name) != files_b.get(name):
                    differences += 1
                    print("seed %d: file %s differs" % (seed, name))
            total += len(argvs)
            print("seed %d: %d cases" % (seed, len(argvs)), flush=True)
    print("%d cases, %d differences" % (total, differences))
    return 1 if differences else 0


if __name__ == "__main__":
    sys.exit(main())
