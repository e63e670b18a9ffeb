"""Time whole passes of one perfbench sweep on two source trees, in one process.

Each tree's src/wschreier is copied into a temporary directory under its own
package name, and perfbench/workloads.py (read from the first tree, never
changed) is executed once per package with ``import wschreier as W`` bound to
that package.  The rounds then alternate one whole pass of the sweep on each
tree, the first tree leading in even rounds, and every pass must reproduce
the sweep's frozen counts with no failed item.  Both trees share the host's
drift within a round, so the per-round ratio of pass times (A over B: above
1 when B is faster) resolves smaller changes than separate processes do.
Stdlib only; nothing is written in either tree:
    python tools/ab_passes.py PARENT_TREE CHANGED_TREE --workload lambda_sweep --seed 29
"""

import argparse
import gc
import importlib
import shutil
import statistics
import sys
import tempfile
import time
import types
from pathlib import Path

def load(tree: Path, name: str, tmp: Path, source: str) -> types.ModuleType:
    """perfbench's workloads module bound to tree's package, imported as name."""
    shutil.copytree(tree / "src" / "wschreier", tmp / name)
    # the source's "import wschreier as W" finds this package
    sys.modules["wschreier"] = importlib.import_module(name)
    module = types.ModuleType("workloads_" + name)
    exec(compile(source, "workloads.py", "exec"), vars(module))
    del sys.modules["wschreier"]
    return module


# perfbench's meter interface, timing nothing: the pass is timed whole
NULL_METER = types.SimpleNamespace(start=int, stop=lambda t0: None, tick=lambda force=False: None)


def one_pass(sweep) -> float:
    gc.collect()
    t0 = time.perf_counter()
    counts, failed = sweep.run_pass(NULL_METER)
    elapsed = time.perf_counter() - t0
    if failed or sweep.check(counts):
        raise SystemExit("%s: %d failed, counts %r" % (sweep.name, failed, counts))
    return elapsed


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("trees", nargs=2, type=Path, metavar="TREE")
    p.add_argument("--workload", default="lambda_sweep", help="a name in workloads.SWEEPS")
    p.add_argument("--seed", type=int, default=29)
    p.add_argument("--rounds", type=int, default=12)
    args = p.parse_args(argv)
    sys.dont_write_bytecode = True
    source = (args.trees[0] / "perfbench" / "workloads.py").read_text(encoding="utf-8")
    with tempfile.TemporaryDirectory() as tmp:
        sys.path.insert(0, tmp)
        modules = [load(tree.resolve(), "ab_tree_%d" % i, Path(tmp), source)
                   for i, tree in enumerate(args.trees)]
        if args.workload not in modules[0].SWEEPS:
            p.error("--workload: choose from %s" % ", ".join(sorted(modules[0].SWEEPS)))
        sweeps = [m.SWEEPS[args.workload](args.seed) for m in modules]
        times = [[], []]
        for r in range(args.rounds):
            for i in (0, 1) if r % 2 == 0 else (1, 0):
                times[i].append(one_pass(sweeps[i]))
            print("round %2d  A %.4f s  B %.4f s  A/B %.3f"
                  % (r, times[0][-1], times[1][-1], times[0][-1] / times[1][-1]))
    ratios = [a / b for a, b in zip(*times)]
    for label, t in zip("AB", times):
        print("%s best %.4f s  median %.4f s" % (label, min(t), statistics.median(t)))
    print("median A/B %.3f; B faster in %d of %d rounds"
          % (statistics.median(ratios), sum(r > 1 for r in ratios), len(ratios)))


if __name__ == "__main__":
    main()
