"""List the statements of a plaplace checkout that the tier-1 suite never runs.

    python tools/untested_lines.py <repo>

Runs <repo>'s tests with pytest in this process, with <repo>/src first on
the import path and a sys.settrace hook that records the lines executed in
the files of src/plaplace (frames of any other file are not traced). Then
prints one `path:line: source` line per statement that never ran, and
their count. A statement counts as run if any line of it did (for a
compound statement, any line of its header); docstrings, `def` and `class`
statements are left out, since they run at import whether or not anything
calls them. Exits with pytest's status, which is 0 when the suite passes.
Needs only the standard library and pytest.
"""

import ast
import os
import sys
import threading


def _statements(path):
    """{first line: line range} of every statement of one source file that
    a test run can leave unexecuted."""
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    scopes = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
    docstrings = {id(node.body[0]) for node in ast.walk(tree)
                  if isinstance(node, scopes) and ast.get_docstring(node, clean=False)}
    out = {}
    for node in ast.walk(tree):
        if (not isinstance(node, ast.stmt) or isinstance(node, scopes)
                or id(node) in docstrings):
            continue
        # a compound statement's header ends where its first block begins
        body = getattr(node, "body", None)
        last = body[0].lineno - 1 if isinstance(body, list) else node.end_lineno
        out[node.lineno] = range(node.lineno, max(last, node.lineno) + 1)
    return out


def main(repo):
    repo = os.path.abspath(repo)
    package = os.path.join(repo, "src", "plaplace")
    executed = {}

    def trace(frame, event, arg):
        path = frame.f_code.co_filename
        if not path.startswith(package):
            return None
        lines = executed.setdefault(path, set())

        def local(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return local

        return local

    sys.path.insert(0, os.path.join(repo, "src"))
    import pytest

    threading.settrace(trace)
    sys.settrace(trace)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider", os.path.join(repo, "tests")])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    missed = []
    for name in sorted(os.listdir(package)):
        if not name.endswith(".py"):
            continue
        path = os.path.join(package, name)
        ran = executed.get(path, set())
        with open(path, encoding="utf-8") as fh:
            source = fh.read().splitlines()
        for first, span in sorted(_statements(path).items()):
            if ran.isdisjoint(span):
                rel = os.path.relpath(path, repo)
                missed.append(f"{rel}:{first}: {source[first - 1].strip()}")
    print("\n".join(missed))
    print(f"{len(missed)} statements never executed")
    return int(status)


if __name__ == "__main__":
    if len(sys.argv) != 2:
        raise SystemExit(__doc__)
    sys.exit(main(sys.argv[1]))
