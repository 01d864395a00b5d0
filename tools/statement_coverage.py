"""Check that every statement of src/replayq runs under the Tier-1 tests.

Runs `pytest tests` in this process under a stdlib line tracer
(`sys.settrace` and `threading.settrace`) that records the lines run in
frames of src/replayq, then compares them with every statement in the
package's syntax trees. Docstrings are not statements here, and neither is
the body of an `if TYPE_CHECKING:` block, which only type checkers read.

A statement that never ran fails the check unless an `ALLOWED` entry holds
it, with its reason. An entry names a module file and the start of a line
that opens a statement or an `except` clause, and holds every such one and
all the statements inside it, so it stays put when lines above it move. An
entry that holds no statement that never ran fails the check too, so the
list holds only what the tests cannot reach in-process. Extra arguments are passed
to pytest. Exit status: pytest's own when the tests fail, else 1 when the
check fails, else 0.

    python tools/statement_coverage.py
"""

import ast
import os
import sys
import threading

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "replayq")

# (module file, start of a statement's first line) -> why no test runs that statement, or any inside it, in-process.
ALLOWED = {
    ("cli.py", "except BrokenPipeError:"):
        "the broken-pipe exit: a closed stdout is tested in a subprocess, "
        "tests/test_cli.py::test_a_reader_that_closes_stdout_early_gets_exit_141_and_no_error",
    ("cli.py", 'if __name__ == "__main__":'):
        "`python -m replayq.cli`: run only as a subprocess, by tests/test_cli.py and CI",
}


def _first_line(node):
    """A statement's first line: its first decorator's, if it has any."""
    return min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])


def _spans_opening_with(tree, lines, text):
    """(first line, last line) of each statement or `except` clause whose first line starts with `text`."""
    return [(_first_line(node), node.end_lineno) for node in ast.walk(tree)
            if isinstance(node, (ast.stmt, ast.excepthandler))
            and lines[_first_line(node) - 1].strip().startswith(text)]


def _statements(tree):
    """(first line, last line) of each statement's own lines, for every statement the check covers.

    A compound statement's own lines are its header, from its first decorator
    to the line before its body; a simple statement's are all its lines.
    """
    spans = []

    def visit(body, docstring_allowed):
        for k, node in enumerate(body):
            if k == 0 and docstring_allowed and isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant) \
                    and isinstance(node.value.value, str):
                continue
            first = _first_line(node)
            blocks = [getattr(node, name) for name in ("body", "orelse", "finalbody") if getattr(node, name, None)]
            blocks += [handler.body for handler in getattr(node, "handlers", [])]
            blocks += [case.body for case in getattr(node, "cases", [])]
            if not blocks:
                spans.append((first, node.end_lineno))
                continue
            spans.append((first, max(first, node.body[0].lineno - 1) if getattr(node, "body", None) else first))
            if isinstance(node, ast.If) and isinstance(node.test, ast.Name) and node.test.id == "TYPE_CHECKING":
                blocks = blocks[1:]  # its body is read only by type checkers
            for block in blocks:
                visit(block, isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)))

    visit(tree.body, True)
    return spans


def main(argv):
    import pytest

    sys.path.insert(0, os.path.join(ROOT, "src"))
    run = {}  # file -> set of lines run
    prefix = PACKAGE + os.sep

    def local(frame, event, arg):
        if event == "line":
            run[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        filename = frame.f_code.co_filename
        if not filename.startswith(prefix):
            return None
        run.setdefault(filename, set()).add(frame.f_lineno)
        return local

    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider", os.path.join(ROOT, "tests"), *argv])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    if status != 0:
        print(f"statement coverage: the tests failed (pytest exit {int(status)})")
        return int(status)

    unrun, stale = [], []
    for name in sorted(os.listdir(PACKAGE)):
        if not name.endswith(".py"):
            continue
        path = os.path.join(PACKAGE, name)
        with open(path, encoding="utf-8") as fh:
            source = fh.read()
        lines, seen, tree = source.splitlines(), run.get(path, set()), ast.parse(source, path)
        spans = {text: _spans_opening_with(tree, lines, text) for file, text in ALLOWED if file == name}
        used = dict.fromkeys(spans, False)  # entry -> whether it holds a statement that never ran
        for first, last in _statements(tree):
            if seen.isdisjoint(range(first, last + 1)):
                entries = [text for text in spans if any(a <= first and last <= b for a, b in spans[text])]
                used.update(dict.fromkeys(entries, True))
                if not entries:
                    unrun.append(f"{name}:{first}: {lines[first - 1].strip()}")
        stale += [f"{name}: {text}" for text, held in used.items() if not held]
    for line in unrun:
        print(f"statement never run by the tests: {line}")
    for entry in stale:
        print(f"an ALLOWED entry holds no statement that never ran, so the entry is stale: {entry}")
    if unrun or stale:
        return 1
    print(f"statement coverage: every statement of src/replayq ran, but the {len(ALLOWED)} allowed entries")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
