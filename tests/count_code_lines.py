"""Count the code lines of Python sources.

A code line is a line that holds a token other than a comment or a
docstring, where a docstring is any string literal that stands alone as a
statement.  Blank lines, comment lines and docstring lines do not count; a
string literal that spans lines counts every line it spans.  This is the
rule the code-line counts in CHANGES.md use.

    python tests/count_code_lines.py [path ...]

Each path is a file or a directory searched for *.py files; the default is
src/qmodular.  Prints one "path count" line per file, then the total on the
last line.  pytest does not collect this file.
"""

import sys
import tokenize
from pathlib import Path

# tokens that hold no code; comments and blank-line NLs are dropped first,
# so that a docstring followed by a comment still reads as a statement
_LAYOUT = {
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}
_DROPPED = (tokenize.COMMENT, tokenize.NL)


def code_lines(path) -> int:
    with open(path, "rb") as f:
        tokens = [t for t in tokenize.tokenize(f.readline) if t.type not in _DROPPED]
    lines = set()
    for i, t in enumerate(tokens):
        if t.type in _LAYOUT:
            continue
        alone = tokens[i - 1].type in _LAYOUT and tokens[i + 1].type == tokenize.NEWLINE
        if t.type == tokenize.STRING and alone:
            continue  # a string standing alone as a statement: a docstring
        lines.update(range(t.start[0], t.end[0] + 1))
    return len(lines)


def main(paths) -> int:
    files = []
    for p in map(Path, paths or ["src/qmodular"]):
        files += sorted(p.rglob("*.py")) if p.is_dir() else [p]
    total = 0
    for f in files:
        n = code_lines(f)
        print(f, n)
        total += n
    return total


if __name__ == "__main__":
    print(main(sys.argv[1:]))
