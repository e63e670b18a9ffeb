"""Command line interface.

Verbs:

    wschreier check <m.mon> [--as-frame]
    wschreier inverse <m.mon>
    wschreier lambda <a.act> [--emit <out.ext>]
    wschreier glue <f.map> [--emit <out.ext>]
    wschreier extract <e.ext>
    wschreier compare <a.{act,ext,wact}> <b.{act,ext,wact}>
    wschreier join <f.map> <g.map>
    wschreier enumerate <N.mon> <H.mon> [--actions | --wactions] [--limit K]
    wschreier poset <N.mon> <H.mon> --dot <out.dot>

Exit codes: 0 on success, 1 on mathematical failure (law violation, missing
morphism input, not weakly Schreier), 2 on input or format errors, 3 on an
internal error: a constructed output failed its own verification, which is
a bug, reported as one line "error: internal: <message>".  Output is
deterministic: identical invocations produce identical bytes.

The enumeration bound on |N| * |H| defaults to 9 and can be overridden
through the WSCHREIER_BOUND environment variable.  It caps the relation/action
enumeration only: enumerate, enumerate --wactions and poset.  enumerate
--actions is capped instead by the candidate estimate of
enumerate_inverse_actions.
"""

from __future__ import annotations

import argparse
import os
import sys

from .monoid import (
    BoundExceeded,
    ConsistencyError,
    FormatError,
    PreconditionError,
    _hom_laws,
    center,
    check_monoid,
    idempotents,
    inverse_structure,
)
from .extension import find_retraction, extension_morphism, verify_split_extension
from .waction import (
    DEFAULT_BOUND,
    build_extension,
    check_admissible,
    check_compatible_action,
    enumerate_wactions,
    extract_waction,
    waction_leq,
)
from .lambda_product import (
    artin_like_action,
    check_inverse_action,
    enumerate_inverse_actions,
    join_hom,
    lambda_product,
)
from .frames import artin_glueing, check_frame
from . import io as wio

__all__ = ["main", "run", "emit_dot"]


def _bound() -> int:
    raw = os.environ.get("WSCHREIER_BOUND", "")
    if raw.strip() == "":
        return DEFAULT_BOUND
    try:
        return int(raw)
    except ValueError:
        raise FormatError("WSCHREIER_BOUND must be an integer, got %r" % raw)


class _Refusal(Exception):
    """A law failed on the input.  Its args are the report lines, which run
    prints before it exits 1."""


def _passed(verdict, header, every=False):
    """The value of a passed verdict.  Otherwise a _Refusal of header and a
    violation line for the first violation, or for each one with every."""
    if verdict.ok:
        return verdict.value
    shown = verdict.violations if every else verdict.violations[:1]
    raise _Refusal(header, *["violation %s" % v for v in shown])


def _classify(M) -> str:
    t = M.table
    if all(
        any(t[a][b] == M.identity and t[b][a] == M.identity for b in M.elements)
        for a in M.elements
    ):
        return " (group)"
    if all(t[a][a] == a for a in M.elements) and all(
        t[a][b] == t[b][a] for a in M.elements for b in M.elements
    ):
        return " (semilattice)"
    return ""


def cmd_check(args) -> int:
    M = wio.load_monoid(args.monoid, validate=False)
    M = _passed(check_monoid(M.table, M.identity, M.labels), "monoid: invalid", every=True)
    print("monoid: valid")
    print("inverse: %s%s" % ("yes" if inverse_structure(M).ok else "no", _classify(M)))
    if args.as_frame:
        frame = _passed(check_frame(M), "frame: no")
        print("frame: yes")
        print("bottom: %s" % M.label(frame.bottom))
    return 0


def cmd_inverse(args) -> int:
    M = wio.load_monoid(args.monoid)
    inv = _passed(inverse_structure(M), "inverse: no", every=True)
    print("inverse: yes%s" % _classify(M))
    print("inv: %s" % " ".join(str(v) for v in inv.inv))
    return 0


def _inverse_pair(N, H):
    """Inverse structures for both monoids; a _Refusal names the first
    that has none."""
    return [_passed(inverse_structure(M), "inverse %s: no" % x) for x, M in (("N", N), ("H", H))]


def _emit_extension(ext, out_path, name):
    """Write the extension and its three monoids next to out_path.

    The four files are written under temporary names in their directory and
    then moved into place, so a failure while they are serialised or written
    leaves none of them behind, and no temporary file is left either."""
    stem = out_path[:-4] if out_path.endswith(".ext") else out_path
    base = os.path.basename(stem)
    texts = {}
    for role, M in (("N", ext.N), ("G", ext.G), ("H", ext.H)):
        texts["%s.%s.mon" % (stem, role)] = wio.serialize_monoid(M, "%s_%s" % (name, role))
    refs = ["%s.%s.mon" % (base, role) for role in "NGH"]
    texts[out_path] = wio.serialize_extension(ext, *refs, name)
    temps = {path: "%s.%d.tmp" % (path, os.getpid()) for path in texts}
    try:
        for path, text in texts.items():
            with open(temps[path], "w", encoding="utf-8") as fh:
                fh.write(text)
        for path, tmp in temps.items():
            os.replace(tmp, path)
    finally:
        for tmp in temps.values():
            if os.path.exists(tmp):
                os.remove(tmp)
    print("emitted: %s" % out_path)


def cmd_lambda(args) -> int:
    table = wio.load_action(args.action)
    n_inv, h_inv = _inverse_pair(table.N, table.H)
    action = _passed(check_inverse_action(n_inv, h_inv, table.act), "action: invalid")
    print("action: valid")
    lam = lambda_product(action)
    print("carrier: %d" % lam.monoid.size)
    print("weakly-schreier: yes")
    print("schreier: %s" % ("yes" if lam.retraction.unique else "no"))
    if args.emit:
        _emit_extension(lam.extension, args.emit, "lambda")
    return 0


def cmd_glue(args) -> int:
    f = wio.load_hom(args.map, validate=False)
    for name, M in (("source", f.source), ("target", f.target)):
        _passed(check_frame(M), "frame %s: no" % name)
    print("frames: yes")
    _passed(_hom_laws(f), "meet-hom: no")
    print("meet-hom: yes")
    _, ext = artin_glueing(f)
    print("carrier: %d" % ext.G.size)
    print("weakly-schreier: yes")
    if args.emit:
        _emit_extension(ext, args.emit, "glueing")
    return 0


def cmd_extract(args) -> int:
    ext, n_ref, h_ref = wio._load_extension(args.extension)
    _passed(verify_split_extension(ext), "extension: invalid")
    print("extension: valid")
    r = _passed(find_retraction(ext), "weakly-schreier: no")
    print("weakly-schreier: yes")
    print("schreier: %s" % ("yes" if r.unique else "no"))
    pair = extract_waction(ext, r)
    sys.stdout.write(wio.serialize_wact_pair(pair, n_ref, h_ref, "extracted"))
    return 0


def _load_comparand(path):
    """An extension from an .act, .ext or .wact file; a _Refusal of one line
    names the first law that fails."""
    if path.endswith(".act"):
        table = wio.load_action(path)
        n_inv = inverse_structure(table.N)
        h_inv = inverse_structure(table.H)
        if not n_inv.ok or not h_inv.ok:
            raise _Refusal("inverse: no (%s)" % path)
        verdict = check_inverse_action(n_inv.value, h_inv.value, table.act)
        if not verdict.ok:
            raise _Refusal("action: invalid (%s)" % path)
        return lambda_product(verdict.value).extension
    if path.endswith(".wact"):
        pair = wio.load_wact_pair(path)
        if not check_admissible(pair.E).ok:
            raise _Refusal("admissible: no (%s)" % path)
        if not check_compatible_action(pair.E, pair.alpha).ok:
            raise _Refusal("compatible: no (%s)" % path)
        return build_extension(pair)
    ext = wio.load_extension(path)
    if not verify_split_extension(ext).ok:
        raise _Refusal("extension: invalid (%s)" % path)
    if not find_retraction(ext).ok:
        raise _Refusal("weakly-schreier: no (%s)" % path)
    return ext


def cmd_compare(args) -> int:
    a, b = _load_comparand(args.a), _load_comparand(args.b)
    ab = extension_morphism(a, b) is not None
    ba = extension_morphism(b, a) is not None
    print("a<=b: %s" % ("yes" if ab else "no"))
    print("b<=a: %s" % ("yes" if ba else "no"))
    print("equivalent: %s" % ("yes" if ab and ba else "no"))
    return 0


def cmd_join(args) -> int:
    f = wio.load_hom(args.f, validate=False)
    g = wio.load_hom(args.g, validate=False)
    if f.source != g.source or f.target != g.target:
        raise FormatError("join requires parallel maps")
    allowed = set(idempotents(f.target)) & set(center(f.target))
    for name, m in (("f", f), ("g", g)):
        _passed(_hom_laws(m), "hom %s: no" % name)
        bad = [h for h in m.source.elements if m.map[h] not in allowed]
        if bad:
            raise _Refusal("central-idempotent %s: no" % name, "violation image: %s" % bad[0])
    _inverse_pair(f.target, f.source)  # the Artin-like action below needs both inverse
    joined = join_hom(f, g)
    print("join: valid")
    print("map: %s" % " ".join(str(v) for v in joined.map))
    print("\n".join(wio._format_act(artin_like_action(joined).act)))
    return 0


def cmd_enumerate(args) -> int:
    N = wio.load_monoid(args.N)
    H = wio.load_monoid(args.H)
    # a --limit below 1 lists nothing
    limit = None if args.limit is None else max(args.limit, 0)
    if args.actions:
        actions = enumerate_inverse_actions(*_inverse_pair(N, H))
        for i, a in enumerate(actions[:limit]):
            print("action %d:" % i)
            print("\n".join(wio._format_act(a.act)))
        print("count: %d" % len(actions))
        return 0
    pairs = list(enumerate_wactions(N, H, bound=_bound()))
    for i, p in enumerate(pairs[:limit]):
        print("pair %d:" % i)
        print("\n".join(wio._format_pair(p)))
    print("count: %d" % len(pairs))
    return 0


def _fingerprint(p) -> str:
    import hashlib  # only poset needs it; a cold import costs a few ms

    body = repr((p.E.fibers, p.alpha.act)).encode()
    return hashlib.sha1(body).hexdigest()[:8]


def emit_dot(pairs, leq) -> str:
    """DOT text of the poset reflection of a preorder on pairs.

    Mutually comparable pairs collapse into one node labelled by class size
    and the fingerprint of its first member; edges are the covers of the
    quotient (transitive reduction), drawn upward.  On the output of
    enumerate_wactions every node has size 1: p <= q <= p forces equal
    fibres and equivalent actions, and the enumerator yields one pair per
    class.
    """
    n = len(pairs)
    below = [[i == j or leq(pairs[i], pairs[j]) for j in range(n)] for i in range(n)]
    klass = [-1] * n
    reps = []
    for i in range(n):
        if klass[i] >= 0:
            continue
        klass[i] = len(reps)
        for j in range(i + 1, n):
            if klass[j] < 0 and below[i][j] and below[j][i]:
                klass[j] = len(reps)
        reps.append(i)
    k = len(reps)
    order = [[below[reps[i]][reps[j]] for j in range(k)] for i in range(k)]
    edges = []
    for i in range(k):
        for j in range(k):
            if i == j or not order[i][j]:
                continue
            if any(m != i and m != j and order[i][m] and order[m][j] for m in range(k)):
                continue
            edges.append((i, j))
    sizes = [sum(1 for c in klass if c == ci) for ci in range(k)]
    out = ["digraph wact_poset {", "  rankdir=BT;"]
    for ci in range(k):
        out.append(
            '  n%d [label="size=%d fp=%s"];' % (ci, sizes[ci], _fingerprint(pairs[reps[ci]]))
        )
    for i, j in sorted(edges):
        out.append("  n%d -> n%d;" % (i, j))
    out.append("}")
    return "\n".join(out) + "\n"


def cmd_poset(args) -> int:
    N = wio.load_monoid(args.N)
    H = wio.load_monoid(args.H)
    pairs = list(enumerate_wactions(N, H, bound=_bound()))
    dot = emit_dot(pairs, waction_leq)
    with open(args.dot, "w", encoding="utf-8") as fh:
        fh.write(dot)
    nodes = sum(1 for line in dot.splitlines() if "[label=" in line)
    edges = sum(1 for line in dot.splitlines() if "->" in line)
    print("pairs: %d" % len(pairs))
    print("nodes: %d" % nodes)
    print("edges: %d" % edges)
    print("dot: %s" % args.dot)
    return 0


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="wschreier", description=__doc__.split("\n")[0])
    sub = p.add_subparsers(dest="verb", required=True)

    c = sub.add_parser("check", help="validate a monoid file")
    c.add_argument("monoid")
    c.add_argument("--as-frame", action="store_true")
    c.set_defaults(func=cmd_check)

    c = sub.add_parser("inverse", help="inverse structure of a monoid")
    c.add_argument("monoid")
    c.set_defaults(func=cmd_inverse)

    c = sub.add_parser("lambda", help="lambda semidirect product of an action")
    c.add_argument("action")
    c.add_argument("--emit", metavar="OUT")
    c.set_defaults(func=cmd_lambda)

    c = sub.add_parser("glue", help="Artin glueing of a meet-preserving map")
    c.add_argument("map")
    c.add_argument("--emit", metavar="OUT")
    c.set_defaults(func=cmd_glue)

    c = sub.add_parser("extract", help="admissible relation and action of an extension")
    c.add_argument("extension")
    c.set_defaults(func=cmd_extract)

    c = sub.add_parser("compare", help="order two extensions")
    c.add_argument("a")
    c.add_argument("b")
    c.set_defaults(func=cmd_compare)

    c = sub.add_parser("join", help="pointwise join of two central-idempotent maps")
    c.add_argument("f")
    c.add_argument("g")
    c.set_defaults(func=cmd_join)

    c = sub.add_parser("enumerate", help="stream actions or relation/action pairs")
    c.add_argument("N")
    c.add_argument("H")
    group = c.add_mutually_exclusive_group()
    group.add_argument("--actions", action="store_true")
    group.add_argument("--wactions", action="store_true")
    c.add_argument("--limit", type=int, default=None)
    c.set_defaults(func=cmd_enumerate)

    c = sub.add_parser("poset", help="DOT Hasse diagram of the extension poset")
    c.add_argument("N")
    c.add_argument("H")
    c.add_argument("--dot", required=True)
    c.set_defaults(func=cmd_poset)

    return p


def run(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except _Refusal as exc:
        print("\n".join(exc.args))
        return 1
    except (FormatError, BoundExceeded, OSError) as exc:  # ParseError is a FormatError
        print("error: %s" % exc)
        return 2
    except PreconditionError as exc:
        print("error: %s" % exc)
        return 1
    except ConsistencyError as exc:
        print("error: internal: %s" % exc)
        return 3


def main(argv=None) -> int:
    return run(argv)


if __name__ == "__main__":
    sys.exit(main())
