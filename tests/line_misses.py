"""List the statements of src/speechground that the test suite never executes.

Runs pytest in this process under `sys.settrace`, records every line that
runs inside src/speechground/, and prints each statement line that never
ran as `path:line: source`, then a count.  A statement line is one where
the compiled code starts a new line (`dis.findlinestarts`), which is where
the tracer reports one.

    PYTHONPATH=src python tests/line_misses.py [pytest arguments]

With no arguments it runs the whole suite quietly.  It is a manual tool
for finding untested guards, not a test: pytest does not collect it, and
tracing roughly doubles the suite's run time.  Code that only subprocess
tests reach (the demos, `python -m speechground.cli`) is listed as missed.
"""

import dis
import sys
import threading
from pathlib import Path
from types import CodeType

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "speechground"


def statement_lines(path: Path) -> set[int]:
    """Line numbers where any code object compiled from `path` starts a line."""
    stack, lines = [compile(path.read_text(encoding="utf-8"), str(path), "exec")], set()
    while stack:
        code = stack.pop()
        lines.update(line for _, line in dis.findlinestarts(code) if line)
        stack.extend(const for const in code.co_consts if isinstance(const, CodeType))
    return lines


def traced_run(args: list[str]) -> tuple[int, dict[str, set[int]]]:
    """Exit code of `pytest.main(args)` and the package lines it ran, per file."""
    ran: dict[str, set[int]] = {}
    lines_of: dict[str, set[int] | None] = {}  # co_filename -> its file's set, if in the package

    def local(frame, event, arg):
        if event == "line":
            lines_of[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def trace(frame, event, arg):
        # only frames of package code get a line tracer; the rest run untraced
        filename = frame.f_code.co_filename
        if filename not in lines_of:
            path = Path(filename).resolve()
            lines_of[filename] = (ran.setdefault(str(path), set())
                                  if path.is_relative_to(PACKAGE) else None)
        return None if lines_of[filename] is None else local

    threading.settrace(trace)
    sys.settrace(trace)
    try:
        code = pytest.main(args)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return code, ran


def main(argv: list[str]) -> int:
    code, ran = traced_run(argv or ["-q", "-p", "no:cacheprovider", str(ROOT / "tests")])
    missed = 0
    for path in sorted(PACKAGE.rglob("*.py")):
        source = path.read_text(encoding="utf-8").splitlines()
        for line in sorted(statement_lines(path) - ran.get(str(path), set())):
            print(f"{path.relative_to(ROOT)}:{line}: {source[line - 1].strip()}")
            missed += 1
    print(f"{missed} statement lines never executed (pytest exit code {int(code)})")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
