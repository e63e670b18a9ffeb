"""The ``cli_mixed`` workload: a seeded mix of all nine verbs.

Set-up writes relabelled catalog monoids, actions, maps and extensions as
files, then builds a fixed number of cases per verb.  A fixed share of the
cases read a copy of their first input file that was truncated, had a digit
replaced by a letter, had a byte replaced by a non-UTF-8 byte, or had one
table entry changed.  Every case carries the exit code the 0/1/2 contract
gives it and one stdout line that must appear.  Those expectations come
from the case's construction, from brute-force checks in this file, or from
library results on other entry points, never from running the CLI.
"""

from __future__ import annotations

import contextlib
import io
import os
import random
import subprocess
import sys
import traceback

import wschreier as W
import wschreier.cli  # noqa: F401  (binds W.cli)
from workloads import relabel

# How many cases of each kind a mix holds; the seed picks their inputs.
VALID_PLAN = (
    ("check", 3),
    ("check_frame", 2),
    ("check_not_frame", 1),
    ("inverse", 2),
    ("inverse_not", 1),
    ("lambda", 2),
    ("lambda_emit", 1),
    ("glue", 3),
    ("extract", 2),
    ("compare", 2),
    ("join", 2),
    ("enumerate_wactions", 2),
    ("enumerate_actions", 1),
    ("poset", 2),
)
CORRUPT_PLAN = (
    ("truncate", 3),
    ("letter", 3),
    ("non_utf8", 2),
    ("law_monoid", 2),
    ("law_action", 1),
)
# Verbs whose first argument the file corruptions apply to.
CORRUPTIBLE = ("check", "inverse", "lambda", "glue", "extract", "compare", "join",
               "enumerate_wactions", "poset")
SMALL_CELLS = 6  # |N| * |H| of the enumerate and poset inputs


def is_monoid(table, e):
    n = len(table)
    if any(table[e][a] != a or table[a][e] != a for a in range(n)):
        return False
    return all(
        table[table[a][b]][c] == table[a][table[b][c]]
        for a in range(n)
        for b in range(n)
        for c in range(n)
    )


def is_semilattice(M):
    """Idempotent and commutative: every frame is one."""
    t, n = M.table, M.size
    return all(t[a][a] == a for a in range(n)) and all(
        t[a][b] == t[b][a] for a in range(n) for b in range(n)
    )


def classification(M):
    """The suffix ``wschreier inverse`` prints after "inverse: yes"."""
    t, n = M.table, M.size
    if all(any(t[a][b] == M.identity == t[b][a] for b in range(n)) for a in range(n)):
        return " (group)"
    return " (semilattice)" if is_semilattice(M) else ""


def child_env():
    """Environment of a CLI child: the absolute source root of the imported
    package, no bound override, a fixed hash seed."""
    env = os.environ.copy()
    env.pop("WSCHREIER_BOUND", None)
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(os.path.abspath(W.__file__)))
    return env


class Case:
    def __init__(self, kind, argv, exit_code, line):
        self.kind = kind
        self.argv = argv
        self.exit_code = exit_code
        self.line = line  # None: stdout is one line starting "error: "

    def judge(self, code, out, err):
        """(failed, crashed) for one invocation's exit code and output."""
        crashed = "Traceback" in err
        lines = out.splitlines()
        if self.line is None:
            good = len(lines) == 1 and lines[0].startswith("error: ")
        else:
            good = self.line in lines
        return crashed or code != self.exit_code or not good, crashed


class CliMix:
    name = "cli_mixed"

    def __init__(self, seed: int, workdir: str):
        self.dir = workdir
        self.rng = rng = random.Random("%s:%d" % (self.name, seed))
        self._files = {}
        self._serial = 0
        monoids = W.catalog_monoids(4)
        inverse_ids = {id(iv.base) for iv in W.catalog_inverse_monoids(4)}
        self.mons = [(relabel(M, rng), id(M) in inverse_ids) for M in monoids]
        self.frames = [
            relabel(M, rng)
            for M in W.commutative_idempotent_monoids(4)
            if W.check_frame(M).ok
        ]
        self.small_inverse = [
            W.inverse_structure(M).expect("inverse")
            for M, inv in self.mons
            if inv and M.size <= 3
        ]
        cases = [
            getattr(self, "_" + kind)(i)
            for kind, k in VALID_PLAN + CORRUPT_PLAN
            for i in range(k)
        ]
        rng.shuffle(cases)
        self.cases = cases
        self.env = child_env()

    # -- files --------------------------------------------------------------

    def _write(self, name, text):
        with open(os.path.join(self.dir, name), "w", encoding="utf-8") as fh:
            fh.write(text)
        return name

    def _mon(self, M):
        key = (M.size, M.identity, M.table)
        if key not in self._files:
            name = "m%d.mon" % len(self._files)
            self._files[key] = self._write(name, W.serialize_monoid(M, name[:-4]))
        return self._files[key]

    def _act(self, action, tag):
        return self._write(
            "%s.act" % tag,
            W.serialize_action(action.table(), self._mon(action.N.base),
                               self._mon(action.H.base), tag),
        )

    def _map(self, f, tag):
        return self._write(
            "%s.map" % tag, W.serialize_hom(f, self._mon(f.source), self._mon(f.target), tag)
        )

    def _inverse_pair(self):
        """A pair of small inverse monoids and its actions (at least two)."""
        while True:
            N = self.rng.choice(self.small_inverse)
            H = self.rng.choice(self.small_inverse)
            if N.base.size * H.base.size <= SMALL_CELLS and H.base.size > 1:
                actions = W.enumerate_inverse_actions(N, H)
                if len(actions) >= 2:
                    return N, H, actions

    def _small_pair(self):
        small = [M for M, _ in self.mons if M.size <= 3]
        while True:
            N, H = self.rng.choice(small), self.rng.choice(small)
            if N.size * H.size <= SMALL_CELLS:
                return N, H

    # -- valid cases ------------------------------------------------------

    def _check(self, i):
        M, _ = self.rng.choice(self.mons)
        return Case("check", ["check", self._mon(M)], 0, "monoid: valid")

    def _check_frame(self, i):
        F = self.rng.choice(self.frames)
        return Case("check", ["check", self._mon(F), "--as-frame"], 0, "frame: yes")

    def _check_not_frame(self, i):
        pool = [M for M, _ in self.mons if not is_semilattice(M)]
        M = self.rng.choice(pool)
        return Case("check", ["check", self._mon(M), "--as-frame"], 1, "frame: no")

    def _inverse(self, i):
        M = self.rng.choice([M for M, inv in self.mons if inv])
        return Case("inverse", ["inverse", self._mon(M)], 0,
                    "inverse: yes" + classification(M))

    def _inverse_not(self, i):
        M = self.rng.choice([M for M, inv in self.mons if not inv])
        return Case("inverse", ["inverse", self._mon(M)], 1, "inverse: no")

    def _lambda(self, i):
        _, _, actions = self._inverse_pair()
        tag = "lam%d" % i
        return Case("lambda", ["lambda", self._act(self.rng.choice(actions), tag)], 0,
                    "action: valid")

    def _lambda_emit(self, i):
        _, _, actions = self._inverse_pair()
        tag = "lamemit%d" % i
        out = "%s_out.ext" % tag
        return Case("lambda", ["lambda", self._act(self.rng.choice(actions), tag),
                               "--emit", out], 0, "emitted: %s" % out)

    def _glue(self, i):
        H, N = self.rng.choice(self.frames), self.rng.choice(self.frames)
        f = self.rng.choice(W.all_homs(H, N))
        return Case("glue", ["glue", self._map(f, "glue%d" % i)], 0, "weakly-schreier: yes")

    def _extract(self, i):
        _, _, actions = self._inverse_pair()
        ext = W.lambda_product(self.rng.choice(actions)).extension
        tag = "ext%d" % i
        g = self._write("%s.G.mon" % tag, W.serialize_monoid(ext.G, tag + "_G"))
        name = self._write(
            "%s.ext" % tag,
            W.serialize_extension(ext, self._mon(ext.N), g, self._mon(ext.H), tag),
        )
        return Case("extract", ["extract", name], 0, "weakly-schreier: yes")

    def _compare(self, i):
        _, _, actions = self._inverse_pair()
        a, b = self.rng.sample(actions, 2)
        leq = "yes" if W.lambda_action_leq(a, b) else "no"
        return Case("compare", ["compare", self._act(a, "cmpa%d" % i),
                                self._act(b, "cmpb%d" % i)], 0, "a<=b: %s" % leq)

    def _join(self, i):
        N, H, _ = self._inverse_pair()
        homs = W.central_idempotent_homs(H.base, N.base)
        f, g = self.rng.choice(homs), self.rng.choice(homs)
        return Case("join", ["join", self._map(f, "joinf%d" % i),
                             self._map(g, "joing%d" % i)], 0, "join: valid")

    def _enumerate_wactions(self, i):
        N, H = self._small_pair()
        count = len(W.enumerate_wactions(N, H))
        return Case("enumerate", ["enumerate", self._mon(N), self._mon(H), "--wactions",
                                  "--limit", "2"], 0, "count: %d" % count)

    def _enumerate_actions(self, i):
        N, H, actions = self._inverse_pair()
        return Case("enumerate", ["enumerate", self._mon(N.base), self._mon(H.base),
                                  "--actions", "--limit", "1"], 0,
                    "count: %d" % len(actions))

    def _poset(self, i):
        N, H = self._small_pair()
        count = len(W.enumerate_wactions(N, H))
        return Case("poset", ["poset", self._mon(N), self._mon(H), "--dot",
                              "poset%d.dot" % i], 0, "pairs: %d" % count)

    # -- corrupted cases ----------------------------------------------------

    def _corrupt(self, tag, change):
        """A valid case of a random verb whose first input file is replaced
        by change(data, suffix); the result must be refused with exit 2."""
        kind = self.rng.choice(CORRUPTIBLE)
        self._serial += 1
        case = getattr(self, "_" + kind)(100 + self._serial)
        src = case.argv[1]
        suffix = os.path.splitext(src)[1]
        with open(os.path.join(self.dir, src), "rb") as fh:
            data = fh.read()
        name = tag + suffix
        with open(os.path.join(self.dir, name), "wb") as fh:
            fh.write(change(data, suffix))
        return Case(case.kind + "/" + tag.rstrip("0123456789"),
                    [case.argv[0], name] + case.argv[2:], 2, None)

    def _truncate(self, i):
        def change(data, ext):
            lines = data.decode("ascii").splitlines(keepends=True)
            while ext == ".mon" and lines[-1].startswith("labels:"):
                lines.pop()
            last_start = sum(len(x) for x in lines[:-1])
            return data[: self.rng.randrange(last_start)]

        return self._corrupt("trunc%d" % i, change)

    def _letter(self, i):
        numeric = {".mon": ("identity", "row"), ".act": ("act",), ".map": ("map:",),
                   ".ext": ("k:", "e:", "s:")}

        def change(data, ext):
            spots, offset = [], 0
            for n, line in enumerate(data.decode("ascii").splitlines(keepends=True)):
                words = line.split()
                if ext == ".mon" and n == 0:
                    start = line.rstrip().rfind(" ") + 1  # the size token
                elif words and words[0] in numeric[ext]:
                    start = 0
                else:
                    start = len(line)
                spots.extend(offset + j for j in range(start, len(line)) if line[j].isdigit())
                offset += len(line)
            at = self.rng.choice(spots)
            return data[:at] + b"x" + data[at + 1:]

        return self._corrupt("letter%d" % i, change)

    def _non_utf8(self, i):
        def change(data, ext):
            at = self.rng.randrange(len(data))
            return data[:at] + bytes([self.rng.randrange(0x80, 0x100)]) + data[at + 1:]

        return self._corrupt("nonutf%d" % i, change)

    def _law_monoid(self, i):
        M = self.rng.choice([M for M, _ in self.mons if M.size >= 3])
        rest = [a for a in M.elements if a != M.identity]
        a, b = self.rng.choice(rest), self.rng.choice(rest)
        table = [list(row) for row in M.table]
        table[a][b] = self.rng.choice([v for v in M.elements if v != table[a][b]])
        bad = W.FiniteMonoid(M.size, M.identity, tuple(map(tuple, table)))
        name = self._write("lawm%d.mon" % i, W.serialize_monoid(bad, "lawm%d" % i))
        if is_monoid(bad.table, bad.identity):
            return Case("check/law", ["check", name], 0, "monoid: valid")
        return Case("check/law", ["check", name], 1, "monoid: invalid")

    def _law_action(self, i):
        N, H, actions = self._inverse_pair()
        base = self.rng.choice(actions)
        act = [list(row) for row in base.act]
        h = self.rng.choice([h for h in H.base.elements if h != H.base.identity])
        n = self.rng.randrange(N.base.size)
        act[h][n] = self.rng.choice([v for v in N.base.elements if v != act[h][n]])
        changed = W.ActionTable(N.base, H.base, act)
        name = self._write("lawa%d.act" % i, W.serialize_action(
            changed, self._mon(N.base), self._mon(H.base), "lawa%d" % i))
        if changed.act in {a.act for a in actions}:
            return Case("lambda/law", ["lambda", name], 0, "action: valid")
        return Case("lambda/law", ["lambda", name], 1, "action: invalid")

    # -- running ------------------------------------------------------------

    def invoke(self, case):
        """Run one case as a child process: (exit code, stdout, stderr)."""
        p = subprocess.run(
            [sys.executable, "-m", "wschreier"] + case.argv,
            cwd=self.dir,
            env=self.env,
            capture_output=True,
            timeout=120,
        )
        return (p.returncode, p.stdout.decode("utf-8", "replace"),
                p.stderr.decode("utf-8", "replace"))

    def invoke_in_process(self, case):
        """Run one case through ``wschreier.cli.run`` in this process."""
        out, err = io.StringIO(), io.StringIO()
        here = os.getcwd()
        os.chdir(self.dir)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = W.cli.run(case.argv)
                except SystemExit as exc:
                    code = exc.code
                except Exception:
                    traceback.print_exc(file=err)
                    code = 1
        finally:
            os.chdir(here)
        return code, out.getvalue(), err.getvalue()
