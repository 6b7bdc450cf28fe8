"""List the lines of src/ghzcert that no test runs.

Runs pytest in-process under ``sys.settrace``, records the lines executed
in the package's own files, and prints every executable line inside a
function (method, lambda and comprehension included) that never ran.
Module and class bodies run at import and are not listed.  Only the
standard library is used, since no coverage package is a dependency; code
that a test runs in a subprocess is not seen.

    python3 tests/uncovered.py [pytest arguments]

With no arguments it runs the whole suite, as Tier-1 does, which takes 60
to 100 s under tracing on 2 CPUs (3 to 4 times the untraced run).  Tests
that bound their own wall time may fail under tracing; the lines are
listed anyway.  It exits 0 only when it lists no line and pytest passed,
and 1 otherwise, so a script can gate on it.
"""

from __future__ import annotations

import inspect
import os
import sys
import threading
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "ghzcert"


def function_lines(path: Path) -> set[int]:
    """The lines of ``path`` that carry code of some function.

    A function's first line holds only its entry, which no line event
    reports, so it counts only where another code object has code on it.
    """
    lines: set[int] = set()
    todo = [compile(path.read_text(), str(path), "exec")]
    while todo:
        code = todo.pop()
        todo += [c for c in code.co_consts if isinstance(c, types.CodeType)]
        if code.co_flags & inspect.CO_NEWLOCALS:
            lines |= {
                line
                for _, _, line in code.co_lines()
                if line is not None and line != code.co_firstlineno
            }
    return lines


def main(argv: list[str]) -> int:
    # import this checkout's package, here (so its file names are the keys
    # of ran) and in the subprocesses some tests start
    src = str(ROOT / "src")
    sys.path.insert(0, src)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])
    )
    ran: dict[str, set[int]] = {str(p): set() for p in sorted(PACKAGE.glob("*.py"))}

    def local(frame, event, arg):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def call(frame, event, arg):
        return local if frame.f_code.co_filename in ran else None

    os.chdir(ROOT)
    threading.settrace(call)
    sys.settrace(call)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider", *argv])
    finally:
        sys.settrace(None)
        threading.settrace(None)

    missed = 0
    for name, seen in ran.items():
        path = Path(name)
        source = path.read_text().splitlines()
        for line in sorted(function_lines(path) - seen):
            print(f"{path.relative_to(ROOT)}:{line}: {source[line - 1].strip()}")
            missed += 1
    print(f"lines inside functions never run: {missed}; pytest exited {int(status)}")
    return int(bool(missed or status))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
