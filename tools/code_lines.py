"""Count the code lines of the package in one or more trees.

Usage: python3 tools/code_lines.py TREE...

Each TREE is the root of a checkout of this repository. For every module
under the tree's ``src/periodic_portfolio`` it prints the module's code
lines, then the tree's total:

    TREE module lines
    TREE total lines

A code line is one that holds part of a token other than a comment or a
docstring. Blank lines, comment lines and the lines of a docstring (a
statement that is only a string literal) do not count. A statement that
spans lines counts each line it covers, its strings' inner lines too.
The count reads the sources with ``tokenize``, so a ``#`` inside a string
or a string that only looks like a docstring is told apart correctly.
"""

from __future__ import annotations

import io
import sys
import tokenize
from pathlib import Path

PACKAGE = Path("src") / "periodic_portfolio"
# tokens that end or lay out a line, or say nothing to the interpreter
_NOT_CODE = frozenset(
    (
        tokenize.COMMENT,
        tokenize.NL,
        tokenize.NEWLINE,
        tokenize.INDENT,
        tokenize.DEDENT,
        tokenize.ENCODING,
        tokenize.ENDMARKER,
    )
)


def code_lines(source: str) -> int:
    """The number of code lines in the Python ``source``."""
    lines: set[int] = set()
    statement: list[tokenize.TokenInfo] = []  # the code tokens of the current logical line
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            statement.append(tok)
        elif tok.type in (tokenize.NEWLINE, tokenize.ENDMARKER) and statement:
            if any(t.type != tokenize.STRING for t in statement):  # not a docstring
                for t in statement:
                    lines.update(range(t.start[0], t.end[0] + 1))
            statement = []
    return len(lines)


def tree_counts(tree: Path) -> dict[str, int]:
    """Code lines per module of ``tree``'s package, by module file name."""
    return {
        path.name: code_lines(path.read_text(encoding="utf-8"))
        for path in sorted((tree / PACKAGE).glob("*.py"))
    }


def main(argv: list[str]) -> int:
    if not argv:
        sys.stderr.write(__doc__.split("\n\n")[1] + "\n")
        return 2
    for tree in argv:
        counts = tree_counts(Path(tree))
        for name, count in counts.items():
            print(tree, name, count)
        print(tree, "total", sum(counts.values()))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
