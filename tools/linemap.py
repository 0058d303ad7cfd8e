"""Line map of tier-1: which tests run each line of `src/supersymp`.

    python3 tools/linemap.py

Runs the tier-1 suite once, in this process (`pytest.main`), under
`sys.settrace` and `threading.settrace`, tracing only frames whose code lies
in `src/supersymp`.  The trace starts before anything imports `supersymp`,
so module-level lines (imports, `def` and `class` statements, tables) count.
A line is charged to the id of the test whose setup, call or teardown runs
it; lines run outside every test (module-level lines, run while the tests
are collected) are charged to the id `<collection>`.

The executable lines of a module are the lines its code objects name
(`co_lines`, recursively through nested code).  A function's first line is
counted when the function is called.

Writes `.linemap.json` at the repository root,

    {"tests": [id, ...], "lines": {"cli.py": {"44": [k, ...], ...}, ...}}

where each k indexes "tests" and a never-run line maps to [], and prints
the never-run lines of each module as ranges with the function that holds
them.  Exits 2 when pytest stops short (an interrupt, an internal or a
usage error), else 0.  One pass takes about a minute; the map is not part
of tier-1.
"""

from __future__ import annotations

import json
import os
import sys
import threading
from itertools import groupby
from typing import Dict, List, Set, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "supersymp")
OUT = os.path.join(ROOT, ".linemap.json")
COLLECTION = "<collection>"


def executable_lines(path: str) -> Dict[int, str]:
    """Each executable line of a module, with the qualified name of the
    code object that owns it (`<module>` for module-level lines)."""
    with open(path, encoding="utf-8") as fh:
        code = compile(fh.read(), path, "exec")
    lines: Dict[int, str] = {}
    stack = [code]
    while stack:
        co = stack.pop()
        for _, _, line in co.co_lines():
            if line:
                lines.setdefault(line, co.co_qualname)
        stack.extend(c for c in co.co_consts if hasattr(c, "co_lines"))
    return lines


class LineTracer:
    """Collects the (file, line) pairs each test runs in `PACKAGE`."""

    def __init__(self):
        self.current: Set[Tuple[str, int]] = set()
        self.by_test: Dict[str, Set[Tuple[str, int]]] = {}
        self.prefix = PACKAGE + os.sep
        self.replaced = 0  # tests during which someone else's tracer was installed

    def trace(self, frame, event, arg):
        filename = frame.f_code.co_filename
        if not filename.startswith(self.prefix):
            return None
        seen = self.current
        seen.add((filename, frame.f_lineno))

        def local(frame, event, arg):
            if event == "line":
                seen.add((filename, frame.f_lineno))
            return local

        return local

    def install(self) -> None:
        threading.settrace(self.trace)
        sys.settrace(self.trace)

    def charge(self, test_id: str) -> None:
        """Add the lines seen since the last charge to `test_id`, and start
        the next test with an empty set."""
        self.by_test.setdefault(test_id, set()).update(self.current)
        self.current = set()

    # pytest hooks, registered by passing this object to `pytest.main`
    def pytest_runtest_protocol(self, item, nextitem):
        self.charge(COLLECTION)
        if sys.gettrace() != self.trace:
            self.replaced += 1
            self.install()

    def pytest_runtest_logfinish(self, nodeid, location):
        self.charge(nodeid)


def main() -> int:
    tracer = LineTracer()
    tracer.install()  # before pytest, conftest or any test imports supersymp
    import pytest

    os.chdir(ROOT)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider", "--continue-on-collection-errors"], plugins=[tracer])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    tracer.charge(COLLECTION)
    if status not in (pytest.ExitCode.OK, pytest.ExitCode.TESTS_FAILED):
        print(f"# tier-1 did not run cleanly: pytest exit {int(status)}")
        return 2

    tests = sorted(tracer.by_test)
    index = {test: k for k, test in enumerate(tests)}
    runs: Dict[Tuple[str, int], List[int]] = {}
    for test in tests:
        for hit in tracer.by_test[test]:
            runs.setdefault(hit, []).append(index[test])

    lines: Dict[str, Dict[str, List[int]]] = {}
    never: Dict[str, List[Tuple[int, str]]] = {}
    for module in sorted(f for f in os.listdir(PACKAGE) if f.endswith(".py")):
        path = os.path.join(PACKAGE, module)
        owners = executable_lines(path)
        lines[module] = {str(line): runs.get((path, line), []) for line in sorted(owners)}
        never[module] = [(line, owners[line]) for line in sorted(owners) if (path, line) not in runs]
    with open(OUT, "w", encoding="utf-8") as fh:
        json.dump({"tests": tests, "lines": lines}, fh, separators=(",", ":"))

    total = sum(len(v) for v in lines.values())
    missed = sum(len(v) for v in never.values())
    print(f"# {total} executable lines in {len(lines)} modules, {missed} never run by {len(tests) - 1} tests")
    if tracer.replaced:
        print(f"# another tracer replaced this one before {tracer.replaced} test(s); their lines may be missing")
    for module, missing in never.items():
        for owner, group in groupby(missing, key=lambda m: m[1]):
            spans = []
            for _, run in groupby(enumerate(line for line, _ in group), key=lambda t: t[1] - t[0]):
                first, *rest = [line for _, line in run]
                spans.append(f"{first}-{rest[-1]}" if rest else f"{first}")
            print(f"{module}:{','.join(spans)} {owner}")
    print(f"# wrote {os.path.relpath(OUT, ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
