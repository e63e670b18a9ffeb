"""Line counts of the package, per module and in total.

For each module of src/wschreier: the physical lines (what wc -l counts),
the code lines (lines holding a token outside docstrings, comments and
blank lines) and the docstring lines (the lines that module, class and
function docstrings span).  Stdlib only; run from anywhere as
    python tools/linecount.py
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
        tokenize.ENDMARKER, tokenize.ENCODING}
OWNERS = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def counts(source: str) -> tuple:
    """(physical, code, docstring) line counts of one module's source."""
    docs = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, OWNERS) and ast.get_docstring(node, clean=False) is not None:
            docs.update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in SKIP:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return source.count("\n"), len(code - docs), len(docs)


def main(root: Path) -> None:
    total = [0, 0, 0]
    print("%-20s %6s %6s %6s" % ("module", "wc -l", "code", "doc"))
    for path in sorted(root.glob("*.py")):
        row = counts(path.read_text(encoding="utf-8"))
        total = [t + r for t, r in zip(total, row)]
        print("%-20s %6d %6d %6d" % ((path.stem,) + row))
    print("%-20s %6d %6d %6d" % (("total",) + tuple(total)))


if __name__ == "__main__":
    main(Path(sys.argv[1]) if len(sys.argv) > 1 else Path(__file__).resolve().parent.parent / "src" / "wschreier")
