"""Count the code lines of Python files: no blank lines, comments or docstrings.

    python3 tools/code_lines.py src/kostka/*.py
    python3 tools/code_lines.py src/kostka

A directory stands for its *.py files, sorted.  Prints one line per file
and the total, between Markdown code fences, so the output can be appended
to a CI step summary as it is.
"""

import ast
import sys
import tokenize
from pathlib import Path

NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def code_lines(path):
    """Number of lines of path that hold a token other than a docstring."""
    with open(path, "rb") as fh:
        tokens = list(tokenize.tokenize(fh.readline))
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    docs = set()
    for node in ast.walk(tree):
        body = getattr(node, "body", None)
        first = body[0] if isinstance(body, list) and body else None
        if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant):
            if isinstance(first.value.value, str):
                docs.update(range(first.lineno, first.end_lineno + 1))
    lines = {n for t in tokens if t.type not in NOT_CODE for n in range(t.start[0], t.end[0] + 1)}
    return len(lines - docs)


def main(paths):
    total = 0
    print("```")
    files = []
    for p in map(Path, paths):
        files += sorted(p.glob("*.py")) if p.is_dir() else [p]
    for path in files:
        n = code_lines(path)
        total += n
        print(f"{n:7d} {path} (code only)")
    print(f"{total:7d} total (code only)")
    print("```")


if __name__ == "__main__":
    main(sys.argv[1:])
