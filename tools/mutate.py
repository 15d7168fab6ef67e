"""Mutation sweep: how many small faults in a module do its own tests catch?

Run from the root of a checkout (standard library only; the tests need
pytest and numpy):

    python tools/mutate.py                              # all seven modules
    python tools/mutate.py --module rgflow --verbose    # one module, every mutant's fate and time

Each mutant changes one token of src/xyquench/<module>.py:

- a comparison:   <  <=  >  >=  ==  !=  each to its neighbour (< <-> <=, == <-> !=)
- an arithmetic operator:  + <-> -,  * <-> /,  // -> /,  ** -> *
  (unary minus included, so w[-1] becomes w[+1])
- a boolean:  and <-> or,  True <-> False,  not deleted

Tokens inside strings, comments and docstrings are left alone, and a
mutant that does not compile is dropped.  The sweep copies src/, tests/,
perfbench/ and pyproject.toml to a temporary directory, never touching the
checkout, checks that the module's test file (TEST_FILES) passes there
unmutated, and then runs it once per mutant with ``pytest -x``.  A mutant is killed
when pytest fails, crashes or runs past the timeout (set from the
unmutated run), and survives when every test passes.  A run that has
printed pytest's summary line gets EXIT_GRACE seconds more to exit; one
still running then (a thread it cannot join, say) is ended and counts as
a timeout, whatever its summary said.

Survivors that are listed in tools/equivalent_mutants.json, each with the
reason no test can kill it, count as explained.  The script prints the
killed and survived counts per module and every unexplained survivor,
and exits 1 if there is one.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import resource
import selectors
import shutil
import signal
import subprocess
import sys
import tempfile
import time
import tokenize
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
EQUIVALENT = Path(__file__).with_name("equivalent_mutants.json")
# the test file that guards each module; sweeps and cli share one, and the
# acceptance file is red by design, so it cannot be a baseline
TEST_FILES = {
    "chain": "tests/test_chain.py",
    "geophase": "tests/test_geophase.py",
    "edoracle": "tests/test_edoracle.py",
    "rgflow": "tests/test_rgflow.py",
    "quench": "tests/test_quench.py",
    "sweeps": "tests/test_sweeps_cli.py",
    "cli": "tests/test_sweeps_cli.py",
}
MODULES = tuple(TEST_FILES)
MEMORY_LIMIT = 3 << 30  # bytes of address space per test run; a mutant may allocate wildly
EXIT_GRACE = 5.0  # seconds a run has to exit once pytest has printed its summary
# pytest's last line, as -q prints it: "1 failed, 3 passed in 0.52s", "no tests ran in 0.01s"
SUMMARY = re.compile(rb"^=* ?(?:no tests ran|\d+ \w+(?:, \d+ \w+)*) in [\d.]+s\b.*$", re.M)

OPERATORS = {
    "<": "<=", "<=": "<", ">": ">=", ">=": ">", "==": "!=", "!=": "==",
    "+": "-", "-": "+", "*": "/", "/": "*", "//": "/", "**": "*",
}
NAMES = {"and": "or", "or": "and", "True": "False", "False": "True", "not": ""}


@dataclass(frozen=True)
class Mutant:
    module: str
    lineno: int  # 1-based
    col: int  # 0-based, in the unstripped line
    old: str
    new: str
    line: str  # the source line, unstripped

    def key(self) -> tuple:
        """Identity that survives edits elsewhere: the stripped line and the column in it."""
        indent = len(self.line) - len(self.line.lstrip())
        return (self.module, self.line.strip(), self.col - indent, self.old, self.new)

    def label(self) -> str:
        return f"{self.module}.py:{self.lineno}:{self.col + 1}  {self.old!r} -> {self.new!r}"

    def apply(self, source_lines: list) -> str:
        line = self.line
        rest = line[self.col + len(self.old):]
        if self.old == "not":  # a deleted not takes the blanks after it along
            rest = rest.lstrip(" ")
        mutated = line[:self.col] + self.new + rest
        out = list(source_lines)
        out[self.lineno - 1] = mutated
        return "".join(out)


def mutants(module: str, source: str) -> list:
    """Every compiling one-token mutant of a module's source, in source order."""
    lines = source.splitlines(keepends=True)
    found = []
    fstring = 0
    start, end = getattr(tokenize, "FSTRING_START", None), getattr(tokenize, "FSTRING_END", None)
    for tok in tokenize.generate_tokens(iter(lines).__next__):
        if tok.type == start:
            fstring += 1
        elif tok.type == end:
            fstring -= 1
        if fstring:
            continue
        table = OPERATORS if tok.type == tokenize.OP else NAMES if tok.type == tokenize.NAME else {}
        if tok.string not in table:
            continue
        row, col = tok.start
        m = Mutant(module, row, col, tok.string, table[tok.string], lines[row - 1])
        try:
            compile(m.apply(lines), f"{module}.py", "exec")
        except SyntaxError:
            continue
        found.append(m)
    return found


def _limit_memory():
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_LIMIT, MEMORY_LIMIT))


def run_tests(work: Path, test_file: str, timeout: float) -> tuple:
    """(passed, seconds, timed_out) of one pytest -x run of test_file in the copy.

    The run's output is read until pytest prints its summary line; from
    there it has EXIT_GRACE seconds to exit, within the timeout.  pytest
    runs in a session and process group of its own, so a Ctrl-C at the
    terminal reaches only this script; whatever ends the run (the timeout,
    the grace, or the SystemExit that SIGTERM or SIGINT raises here) kills
    the whole group before this returns.
    """
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env.update(PYTHONDONTWRITEBYTECODE="1", PYTHONUNBUFFERED="1", OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    t0 = time.perf_counter()
    deadline = t0 + timeout
    child = subprocess.Popen([sys.executable, "-m", "pytest", "-x", "-q", "--color=no",
                              "-p", "no:cacheprovider", test_file], cwd=work, env=env,
                             stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                             preexec_fn=_limit_memory, start_new_session=True)
    try:
        with selectors.DefaultSelector() as sel:
            sel.register(child.stdout, selectors.EVENT_READ)
            line = b""  # the output since the last complete line
            while (left := deadline - time.perf_counter()) > 0 and sel.select(left):
                chunk = os.read(child.stdout.fileno(), 1 << 16)
                if not chunk:
                    break  # the output is closed: pytest is exiting
                done, _, line = (line + chunk).rpartition(b"\n")
                if SUMMARY.search(done):
                    deadline = min(deadline, time.perf_counter() + EXIT_GRACE)
                    break
        passed, timed_out = child.wait(max(deadline - time.perf_counter(), 0.0)) == 0, False
    except subprocess.TimeoutExpired:
        passed, timed_out = False, True
    finally:
        if child.returncode is None:
            os.killpg(child.pid, signal.SIGKILL)
            child.wait()
        child.stdout.close()
    return passed, time.perf_counter() - t0, timed_out


def sweep(module: str, work: Path, equivalent: set, verbose: bool) -> dict:
    """Run every mutant of module against its TEST_FILES entry in the copy at work."""
    target = work / "src" / "xyquench" / f"{module}.py"
    test_file = TEST_FILES[module]
    source = target.read_text()
    ok, seconds, _ = run_tests(work, test_file, timeout=600.0)
    if not ok:
        raise SystemExit(f"{module}: {test_file} fails before any mutation")
    timeout = 10.0 * seconds + 10.0
    if verbose:
        print(f"  baseline {seconds:6.1f} s  {test_file}, timeout {timeout:.0f} s", flush=True)
    lines = source.splitlines(keepends=True)
    counts = {"mutants": 0, "killed": 0, "equivalent": 0, "unexplained": []}
    try:
        for m in mutants(module, source):
            target.write_text(m.apply(lines))
            passed, seconds, timed_out = run_tests(work, test_file, timeout)
            counts["mutants"] += 1
            if not passed:
                counts["killed"] += 1
            elif m.key() in equivalent:
                counts["equivalent"] += 1
            else:
                counts["unexplained"].append(m)
            if verbose:
                state = "timeout" if timed_out else "killed" if not passed else "survived"
                print(f"  {state:8} {seconds:6.1f} s  {m.label()}", flush=True)
    finally:
        target.write_text(source)
    return counts


def _exit_on_signal(signum, frame):
    """End the sweep by SystemExit on SIGTERM or SIGINT, so the pytest group and the copy go too."""
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    for signum in (signal.SIGTERM, signal.SIGINT):
        signal.signal(signum, _exit_on_signal)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--module", action="append", choices=MODULES,
                        help="module to mutate (repeatable; default: all seven)")
    parser.add_argument("--verbose", action="store_true",
                        help="print every mutant's fate (killed, timeout or survived) and seconds")
    args = parser.parse_args(argv)
    modules = args.module or list(MODULES)
    equivalent = {(e["module"], e["line"], e["col"], e["from"], e["to"])
                  for e in json.loads(EQUIVALENT.read_text())}
    unexplained = 0
    with tempfile.TemporaryDirectory(prefix="xyquench-mutate-") as tmp:
        work = Path(tmp)
        for sub in ("src", "tests", "perfbench"):  # the tests read perfbench's span bindings
            shutil.copytree(ROOT / sub, work / sub, ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy2(ROOT / "pyproject.toml", work)
        print(f"{'module':10} {'mutants':>7} {'killed':>7} {'survived':>8} "
              f"{'equivalent':>10} {'unexplained':>11}")
        for module in modules:
            c = sweep(module, work, equivalent, args.verbose)
            survived = c["equivalent"] + len(c["unexplained"])
            print(f"{module:10} {c['mutants']:7} {c['killed']:7} {survived:8} "
                  f"{c['equivalent']:10} {len(c['unexplained']):11}", flush=True)
            for m in c["unexplained"]:
                print(f"    unexplained: {m.label()}  | {m.line.strip()}", flush=True)
            unexplained += len(c["unexplained"])
    return 1 if unexplained else 0


if __name__ == "__main__":
    sys.exit(main())
