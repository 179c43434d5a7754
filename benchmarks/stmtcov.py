"""The statements of src/gamma_envelope that the Tier-1 tests never run.

Run:  python benchmarks/stmtcov.py [pytest arguments, default: tests -q]

Runs pytest in this process under ``sys.settrace``, recording the lines
run in frames of the package's own files only, then prints every
statement that no test ran as ``path:line: source`` and a count.  A
statement counts as run when any of its lines ran, so a compound
statement counts when its header or any statement in its body ran;
docstrings are not statements.  Exits with pytest's code when a test
fails, else 1 when any statement never ran, else 0.  Code run in a child
process (the CLI's subprocess tests) is not seen.  Only the standard
library and pytest are needed.  A traced run takes several times as long
as a plain one.
"""

import ast
import pathlib
import sys
import threading

import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"
PACKAGE = SRC / "gamma_envelope"


def statements(path):
    """(line, lines) of every statement of one file, docstrings left out."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.stmt) and not (
                isinstance(node, ast.Expr)
                and isinstance(node.value, ast.Constant)
                and isinstance(node.value.value, str)):
            yield node.lineno, range(node.lineno, node.end_lineno + 1)


def main(args):
    prefix = str(PACKAGE) + "/"
    ran = set()

    def local(frame, event, arg):
        if event == "line":
            ran.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def trace(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(prefix) else None

    sys.path.insert(0, str(SRC))
    threading.settrace(trace)
    sys.settrace(trace)
    try:
        code = pytest.main(args or ["tests", "-q"])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    total = missed = 0
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text().splitlines()
        for line, lines in sorted(statements(path)):
            total += 1
            if not any((str(path), n) in ran for n in lines):
                missed += 1
                print("%s:%d: %s" % (path.relative_to(SRC.parent), line,
                                     source[line - 1].strip()))
    print("%d of %d statements never run" % (missed, total))
    return int(code) or int(missed > 0)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
