"""Sign-mutation audit of the graded sign rules.

    python3 tools/sign_mutants.py

Makes one mutant per call site of `skew_sign`, `koszul` and `graded_sort`
in `src/supersymp/`; each mutant drops one graded sign:

* `skew_sign(a, b)` becomes -1, the sign of an even swap;
* `koszul(e, w)` becomes `koszul(0, w)`, the letter taken as even;
* `graded_sort(...)` keeps its sorted word and its degenerate 0, and its
  sign 1 or -1 becomes 1.

Each mutant runs the tier-1 suite with `-x` in a copy of the checkout
(without `.git`), made once in a temporary directory, with the tests that
already fail on the unmutated copy deselected.  Every site is printed as
`killed` with the first failing test (or with the time limit, when a run
gives no result within TIMEOUT seconds), `survived`, or `equivalent` when
the mutant's source is the original's.  One full pass takes a few minutes; the audit is not part of
tier-1.
"""

from __future__ import annotations

import ast
import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from typing import List, NamedTuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join("src", "supersymp")
RULES = ("skew_sign", "koszul", "graded_sort")
TIMEOUT = 600.0  # seconds per test run; one run takes 2-14 s


class Site(NamedTuple):
    file: str
    line: int
    scope: str
    rule: str
    start: int  # byte offsets of the replaced span in the file
    end: int
    mutant: bytes  # the replacement for source[start:end]

    def name(self) -> str:
        return f"{self.file}:{self.line} {self.scope} {self.rule}"


def _offsets(source: bytes) -> List[int]:
    """Byte offset of the start of each line, 1-based by index."""
    starts = [0, 0]
    for line in source.splitlines(keepends=True):
        starts.append(starts[-1] + len(line))
    return starts


def find_sites(path: str) -> List[Site]:
    """The call sites of the sign rules in one module, in source order."""
    with open(path, "rb") as fh:
        source = fh.read()
    starts = _offsets(source)
    sites: List[Site] = []
    file = os.path.basename(path)

    def at(line: int, col: int) -> int:
        return starts[line] + col  # ast columns count UTF-8 bytes

    def visit(node: ast.AST, scope: List[str]) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = scope + [node.name]
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id in RULES:
            rule = node.func.id
            begin, end = at(node.lineno, node.col_offset), at(node.end_lineno, node.end_col_offset)
            call = source[begin:end]
            if rule == "skew_sign":
                span, mutant = (begin, end), b"(-1)"
            elif rule == "koszul":
                first = node.args[0]
                span, mutant = (at(first.lineno, first.col_offset), at(first.end_lineno, first.end_col_offset)), b"0"
            else:
                span, mutant = (begin, end), b"(lambda r: (r[0] and 1, r[1]))(" + call + b")"
            sites.append(Site(file, node.lineno, ".".join(scope) or "<module>", rule, *span, mutant))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(source), [])
    return sorted(sites, key=lambda s: s.start)


def run_tests(copy: str, extra: List[str]) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=os.path.join(copy, "src"), PYTHONDONTWRITEBYTECODE="1")
    argv = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "--continue-on-collection-errors", *extra, "tests"]
    return subprocess.run(argv, cwd=copy, env=env, capture_output=True, text=True, timeout=TIMEOUT)


def failures(proc: subprocess.CompletedProcess) -> List[str]:
    return re.findall(r"^(?:FAILED|ERROR) (\S+)", proc.stdout, re.M)


def main() -> int:
    package = os.path.join(ROOT, PACKAGE)
    modules = sorted(f for f in os.listdir(package) if f.endswith(".py"))
    sites = [s for f in modules for s in find_sites(os.path.join(package, f))]

    work = tempfile.mkdtemp(prefix="sign-mutants-")
    try:
        copy = os.path.join(work, "repo")
        shutil.copytree(ROOT, copy, ignore=shutil.ignore_patterns(".git", "__pycache__", ".hypothesis", ".pytest_cache"))
        proc = run_tests(copy, [])
        if re.search(r"^ERROR ", proc.stdout, re.M):
            print(f"# the unmutated copy does not collect:\n{proc.stdout}")
            return 2
        baseline = failures(proc)
        print(f"# unmutated copy: {len(baseline)} failing test(s) deselected: {' '.join(baseline) or '-'}", flush=True)
        deselect = [arg for test in baseline for arg in ("--deselect", test)]

        counts = {"killed": 0, "survived": 0, "equivalent": 0}
        for site in sites:
            path = os.path.join(copy, PACKAGE, site.file)
            with open(path, "rb") as fh:
                source = fh.read()
            if source[site.start:site.end] == site.mutant:
                status, detail = "equivalent", f"already {site.rule}({site.mutant.decode()}, ...)"
            else:
                with open(path, "wb") as fh:
                    fh.write(source[:site.start] + site.mutant + source[site.end:])
                t0 = time.perf_counter()
                try:
                    proc = run_tests(copy, ["-x", *deselect])
                    failed = failures(proc)
                    if proc.returncode == 0:
                        status, detail = "survived", "-"
                    else:
                        status, detail = "killed", failed[0] if failed else f"pytest exit {proc.returncode}"
                except subprocess.TimeoutExpired:
                    status, detail = "killed", f"no result in {TIMEOUT:.0f} s"
                finally:
                    with open(path, "wb") as fh:
                        fh.write(source)
                detail += f" ({time.perf_counter() - t0:.1f} s)"
            counts[status] += 1
            print(f"{status:<10} {site.name()}  {detail}", flush=True)
        print(f"# {len(sites)} sites: " + ", ".join(f"{n} {k}" for k, n in counts.items()))
        return 1 if counts["survived"] else 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
