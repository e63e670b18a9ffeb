"""Line-oriented text formats.

Monoid file (.mon):

    monoid <name> <size>
    identity <index>
    row 0: j0 j1 ... j(size-1)
    ...
    labels: x0 x1 ...          (optional)

Hom file (.map):             Action file (.act):
    map <name>                   action <name>
    source <path>                N <path>
    target <path>                H <path>
    map: i0 i1 ...               act <h> <n> -> <m>   (one line per pair)

Extension file (.ext):       Pair file (.wact):
    extension <name>             wact <name>
    N <path>                     N <path>
    G <path>                     H <path>
    H <path>                     fiber <h>: {n n ...} {n ...}
    k: i0 i1 ...                 action <h> <n> -> <m>
    e: i0 i1 ...
    s: i0 i1 ...

A line ends at \\n, \\r\\n or \\r and nowhere else: \\v, \\f, \\x1c-\\x1e, \\x85
and U+2028/U+2029 stay inside their line.  Tokens are separated by spaces.
An index is written as an optional - and ASCII digits.
A line that is blank, or whose first non-blank character is #, is a
comment.  A reference path runs from its first token to the end of its
line, less surrounding whitespace, so it may hold spaces and #.
Referenced paths are resolved relative to the referencing file, by joining
them to its directory as named, so an error's file does not depend on the
working directory.  A path that a file references twice is loaded once.
Parse errors carry the file, line and column of the offending token.
"""

from __future__ import annotations

import os
import re

from .monoid import FiniteMonoid, FormatError, MonoidHom, check_hom, check_monoid

# The loaders of actions, extensions and pairs import extension and waction
# when they build their result, so reading a monoid or a map loads neither.

__all__ = [
    "ParseError",
    "load_monoid",
    "parse_monoid",
    "serialize_monoid",
    "load_hom",
    "serialize_hom",
    "load_action",
    "serialize_action",
    "load_extension",
    "serialize_extension",
    "load_wact_pair",
    "serialize_wact_pair",
]


class ParseError(FormatError):
    def __init__(self, message, file="<input>", line=0, col=0):
        super().__init__("%s:%d:%d: %s" % (file, line, col, message))
        self.file = file
        self.line = line
        self.col = col


def _split_lines(text: str) -> list:
    """The lines of a text, as the module docstring defines them."""
    return text.replace("\r\n", "\n").replace("\r", "\n").split("\n")


def _read_text(path: str) -> str:
    """The text of a file.  A byte sequence that is not UTF-8 is a ParseError
    at its line and column."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        rows = _split_lines(data[: exc.start].decode("utf-8"))
        raise ParseError(
            "invalid UTF-8 byte 0x%02x" % data[exc.start], path, len(rows), len(rows[-1]) + 1
        ) from None


class _Lines:
    """Significant lines of a file as (lineno, [(token, column)], raw) records."""

    def __init__(self, text, file):
        self.file = file
        self.records = []
        for lineno, raw in enumerate(_split_lines(text), start=1):
            if raw.strip() == "" or raw.lstrip().startswith("#"):
                continue
            tokens = [(m.group(), m.start() + 1) for m in re.finditer("[^ ]+", raw)]
            self.records.append((lineno, tokens, raw))
        self.pos = 0
        self.loaded = {}  # the monoids this file references, by resolved path

    def error(self, message, line=0, col=0):
        raise ParseError(message, self.file, line, col)

    def next(self, expect=None):
        if self.pos >= len(self.records):
            last = self.records[-1][0] if self.records else 1
            self.error("unexpected end of file (expected %s)" % (expect or "more"), last, 1)
        rec = self.records[self.pos]
        self.pos += 1
        return rec

    def done(self):
        if self.pos < len(self.records):
            lineno, tokens, _ = self.records[self.pos]
            self.error("unexpected trailing line", lineno, tokens[0][1])


def _integer(text):
    """The integer of a text that is exactly an optional - and ASCII digits
    (no whitespace, +, _ or other digits, all of which int() would read),
    within int()'s limit on digits; else None."""
    digits = text[1:] if text[:1] == "-" else text
    try:
        if digits.isascii() and digits.isdigit():
            return int(text)
    except ValueError:
        pass
    return None


def _int(lines, token, lineno, what):
    """The integer of a token (see _integer)."""
    text, col = token
    v = _integer(text)
    if v is None:
        lines.error("%s must be an integer, got %r" % (what, text), lineno, col)
    return v


def _in_range(lines, v, bound, message, lineno, col):
    """v, which must lie in 0..bound-1; message.format(v, bound - 1) otherwise."""
    if not 0 <= v < bound:
        lines.error(message.format(v, bound - 1), lineno, col)
    return v


def _index(lines, token, lineno, what, bound, message):
    """The integer of a token, an index in 0..bound-1 (see _in_range)."""
    return _in_range(lines, _int(lines, token, lineno, what), bound, message, lineno, token[1])


def _entries(lines, lineno, tokens, label, col, what, size, bound):
    """The indices in 0..bound-1 of a line's entry tokens, of which there
    must be size; a wrong count is an error at col naming the line by label."""
    if len(tokens) != size:
        lines.error("%s has %d entries, expected %d" % (label, len(tokens), size), lineno, col)
    message = "entry {} out of range 0..{}"
    return tuple([_index(lines, t, lineno, what, bound, message) for t in tokens])


def _keyword(lines, rec, word):
    lineno, tokens, _ = rec
    if not tokens or tokens[0][0] != word:
        got = tokens[0][0] if tokens else ""
        lines.error("expected %r, got %r" % (word, got), lineno, tokens[0][1] if tokens else 1)
    return lineno, tokens


def parse_monoid(text: str, file: str = "<input>", validate: bool = True) -> FiniteMonoid:
    """Parse a monoid file.  With validate the table must satisfy the monoid
    laws (a ParseError otherwise); without, only the shape is enforced, so
    callers can report law violations themselves."""
    lines = _Lines(text, file)
    lineno, tokens = _keyword(lines, lines.next("monoid header"), "monoid")
    if len(tokens) != 3:
        lines.error("header must be 'monoid <name> <size>'", lineno, tokens[0][1])
    size = _int(lines, tokens[2], lineno, "size")
    if size < 1:
        lines.error("size must be at least 1", lineno, tokens[2][1])
    lineno, tokens = _keyword(lines, lines.next("identity line"), "identity")
    if len(tokens) != 2:
        lines.error("expected 'identity <index>'", lineno, tokens[0][1])
    identity = _index(lines, tokens[1], lineno, "identity", size, "identity {} out of range 0..{}")
    table = []
    for i in range(size):
        label = "row %d" % i
        lineno, tokens = _keyword(lines, lines.next(label), "row")
        if len(tokens) < 2 or not tokens[1][0].endswith(":"):
            lines.error("expected '%s: ...'" % label, lineno, tokens[0][1])
        got, col = tokens[1][0][:-1], tokens[1][1]
        if got != str(i):
            lines.error("expected %s, got row %s" % (label, got), lineno, col)
        table.append(_entries(lines, lineno, tokens[2:], label, col, "table entry", size, size))
    labels = None
    if lines.pos < len(lines.records) and lines.records[lines.pos][1][0][0] == "labels:":
        lineno, tokens, _ = lines.next()
        labels = tuple(tok[0] for tok in tokens[1:])
        if len(labels) != size:
            lines.error("expected %d labels, got %d" % (size, len(labels)), lineno, tokens[0][1])
    lines.done()
    if not validate:
        return FiniteMonoid(size, identity, tuple(table), labels)
    verdict = check_monoid(tuple(table), identity, labels)
    if not verdict.ok:
        bad = verdict.violations[0]
        lines.error("table is not a monoid (%s)" % (bad,), lineno, 1)
    return verdict.value


def serialize_monoid(M: FiniteMonoid, name: str = "m") -> str:
    out = ["monoid %s %d" % (name, M.size), "identity %d" % M.identity]
    for i in range(M.size):
        out.append("row %d: %s" % (i, " ".join(str(v) for v in M.table[i])))
    if M.labels is not None:
        out.append("labels: %s" % " ".join(M.labels))
    return "\n".join(out) + "\n"


def load_monoid(path: str, validate: bool = True) -> FiniteMonoid:
    return parse_monoid(_read_text(path), path, validate)


def _open(path, word):
    """The significant lines of a file whose header keyword is word, past
    the header, and the directory its references are resolved against."""
    lines = _Lines(_read_text(path), path)
    _keyword(lines, lines.next("%s header" % word), word)
    return lines, os.path.dirname(path)


def _reference(lines, rec, word, base_dir):
    lineno, tokens = _keyword(lines, rec, word)
    # the path runs from its first token to the end of the line
    path = rec[2][tokens[1][1] - 1 :].strip() if len(tokens) > 1 else ""
    if not path:
        lines.error("expected '%s <path>'" % word, lineno, tokens[0][1])
    if "\0" in path:
        lines.error("path contains a NUL character", lineno, tokens[1][1])
    full = path if os.path.isabs(path) else os.path.join(base_dir, path)
    try:
        if full not in lines.loaded:
            lines.loaded[full] = load_monoid(full)
        return lines.loaded[full], path
    except OSError as exc:
        lines.error("cannot read %r (%s)" % (path, exc), lineno, tokens[1][1])


def _map_line(lines, rec, word, size, bound):
    lineno, tokens = _keyword(lines, rec, word)
    return _entries(lines, lineno, tokens[1:], word, tokens[0][1], "map entry", size, bound)


def load_hom(path: str, validate: bool = True) -> MonoidHom:
    """Load a hom file.  With validate the map must satisfy the hom laws
    (a ParseError otherwise); without, only the shape is enforced, so
    callers can report law violations themselves."""
    lines, base = _open(path, "map")
    source, _ = _reference(lines, lines.next("source"), "source", base)
    target, _ = _reference(lines, lines.next("target"), "target", base)
    rec = lines.next("map:")
    lineno = rec[0]
    m = _map_line(lines, rec, "map:", source.size, target.size)
    lines.done()
    if not validate:
        return MonoidHom(source, target, m)
    verdict = check_hom(source, target, m)
    if not verdict.ok:
        lines.error("map is not a hom (%s)" % (verdict.violations[0],), lineno, 1)
    return verdict.value


def serialize_hom(f: MonoidHom, source_path: str, target_path: str, name: str = "f") -> str:
    return "\n".join(
        [
            "map %s" % name,
            "source %s" % source_path,
            "target %s" % target_path,
            "map: %s" % " ".join(str(v) for v in f.map),
        ]
    ) + "\n"


def _act_lines(lines, N, H, word="act"):
    table = [[None] * N.size for _ in range(H.size)]
    remaining = N.size * H.size
    while remaining:
        lineno, tokens = _keyword(lines, lines.next("%s line" % word), word)
        if len(tokens) != 5 or tokens[3][0] != "->":
            lines.error("expected '%s <h> <n> -> <m>'" % word, lineno, tokens[0][1])
        h = _int(lines, tokens[1], lineno, "h")
        n = _int(lines, tokens[2], lineno, "n")
        m = _int(lines, tokens[4], lineno, "m")
        _in_range(lines, h, H.size, "h = {} out of range", lineno, tokens[1][1])
        _in_range(lines, n, N.size, "n = {} out of range", lineno, tokens[2][1])
        _in_range(lines, m, N.size, "m = {} out of range", lineno, tokens[4][1])
        if table[h][n] is not None:
            lines.error("duplicate entry for (%d, %d)" % (h, n), lineno, tokens[1][1])
        table[h][n] = m
        remaining -= 1
    return tuple(tuple(row) for row in table)


def load_action(path: str) -> ActionTable:
    lines, base = _open(path, "action")
    N, _ = _reference(lines, lines.next("N"), "N", base)
    H, _ = _reference(lines, lines.next("H"), "H", base)
    act = _act_lines(lines, N, H)
    lines.done()
    from .waction import ActionTable

    return ActionTable(N, H, act)


def _format_act(act, word="act") -> list:
    """The '<word> <h> <n> -> <m>' lines of an action table, h-major."""
    rows = enumerate(act)
    return ["%s %d %d -> %d" % (word, h, n, m) for h, row in rows for n, m in enumerate(row)]


def serialize_action(a: ActionTable, n_path: str, h_path: str, name: str = "a") -> str:
    out = ["action %s" % name, "N %s" % n_path, "H %s" % h_path]
    return "\n".join(out + _format_act(a.act)) + "\n"


def _load_extension(path: str) -> tuple:
    """The extension of an .ext file and its N and H reference paths, as
    written in the file."""
    lines, base = _open(path, "extension")
    N, n_ref = _reference(lines, lines.next("N"), "N", base)
    G, _ = _reference(lines, lines.next("G"), "G", base)
    H, h_ref = _reference(lines, lines.next("H"), "H", base)
    k = _map_line(lines, lines.next("k:"), "k:", N.size, G.size)
    e = _map_line(lines, lines.next("e:"), "e:", G.size, H.size)
    s = _map_line(lines, lines.next("s:"), "s:", H.size, G.size)
    lines.done()
    from .extension import SplitExtension

    ext = SplitExtension(N, G, H, MonoidHom(N, G, k), MonoidHom(G, H, e), MonoidHom(H, G, s))
    return ext, n_ref, h_ref


def load_extension(path: str) -> SplitExtension:
    return _load_extension(path)[0]


def serialize_extension(
    ext: SplitExtension, n_path: str, g_path: str, h_path: str, name: str = "e"
) -> str:
    return "\n".join(
        [
            "extension %s" % name,
            "N %s" % n_path,
            "G %s" % g_path,
            "H %s" % h_path,
            "k: %s" % " ".join(str(v) for v in ext.k.map),
            "e: %s" % " ".join(str(v) for v in ext.e.map),
            "s: %s" % " ".join(str(v) for v in ext.s.map),
        ]
    ) + "\n"


def load_wact_pair(path: str) -> WActPair:
    lines, base = _open(path, "wact")
    N, _ = _reference(lines, lines.next("N"), "N", base)
    H, _ = _reference(lines, lines.next("H"), "H", base)
    fibers = [None] * H.size
    message = "fiber member {} out of range"
    for _ in range(H.size):
        lineno, tokens = _keyword(lines, lines.next("fiber line"), "fiber")
        if len(tokens) < 2 or not tokens[1][0].endswith(":"):
            lines.error("expected 'fiber <h>: {...} ...'", lineno, tokens[0][1])
        index = (tokens[1][0][:-1], tokens[1][1])
        h = _index(lines, index, lineno, "fiber index", H.size, "fiber index {} out of range")
        if fibers[h] is not None:
            lines.error("duplicate fiber %d" % h, lineno, tokens[1][1])
        ids = [None] * N.size
        block = -1
        for tok, col in tokens[2:]:
            word = tok
            while word.startswith("{"):
                block += 1
                word = word[1:]
            word = word.rstrip("}")
            if word == "":
                lines.error("empty token in fiber", lineno, col)
            if block < 0:
                lines.error("fiber members must be inside {...}", lineno, col)
            n = _index(lines, (word, col), lineno, "fiber member", N.size, message)
            if ids[n] is not None:
                lines.error("element %d listed twice in fiber %d" % (n, h), lineno, col)
            ids[n] = block
        if any(v is None for v in ids):
            missing = next(i for i, v in enumerate(ids) if v is None)
            lines.error("fiber %d does not cover element %d" % (h, missing), lineno, tokens[0][1])
        fibers[h] = tuple(ids)
    act = _act_lines(lines, N, H, word="action")
    lines.done()
    from .waction import ActionTable, AdmissibleRelation, WActPair

    return WActPair(AdmissibleRelation(N, H, tuple(fibers)), ActionTable(N, H, act))


def _format_pair(p: WActPair) -> list:
    """The 'fiber' and 'action' lines of a relation/action pair."""
    out = []
    for h in p.H.elements:
        blocks = " ".join("{%s}" % " ".join(str(n) for n in b) for b in p.E.blocks(h))
        out.append("fiber %d: %s" % (h, blocks))
    return out + _format_act(p.alpha.act, "action")


def serialize_wact_pair(p: WActPair, n_path: str, h_path: str, name: str = "p") -> str:
    out = ["wact %s" % name, "N %s" % n_path, "H %s" % h_path]
    return "\n".join(out + _format_pair(p)) + "\n"
