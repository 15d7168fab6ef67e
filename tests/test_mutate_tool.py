"""tools/mutate.py leaves nothing behind when a sweep is interrupted, and
ends a test run soon after pytest has printed its summary.

Each sweep runs on a throwaway tree with one module and one test file.
"""

import os
import runpy
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

SLEEPING_TEST = """
import os, time
with open(os.environ["MUTATE_CHILD_PID"] + ".tmp", "w") as f:
    f.write(str(os.getpid()))
os.replace(os.environ["MUTATE_CHILD_PID"] + ".tmp", os.environ["MUTATE_CHILD_PID"])
time.sleep(30)
"""


# the test passes but leaves a non-daemon thread that blocks for a minute, so pytest
# prints its summary and then cannot exit
LINGERING_TEST = """
import threading

def test_leaves_a_thread_running():
    threading.Thread(target=threading.Event().wait, args=(60,)).start()
"""


def _tree(root: Path, test_source: str) -> Path:
    """A checkout with mutate.py, one module (chain) and its test file."""
    tree = root / "tree"
    for sub in ("tools", "src/xyquench", "tests", "perfbench"):
        (tree / sub).mkdir(parents=True)
    shutil.copy2(ROOT / "tools" / "mutate.py", tree / "tools")
    (tree / "tools" / "equivalent_mutants.json").write_text("[]")
    (tree / "src" / "xyquench" / "chain.py").write_text("X = 1 + 1\n")
    (tree / "tests" / "test_chain.py").write_text(test_source)
    (tree / "pyproject.toml").write_text("")
    return tree


@pytest.mark.parametrize("signum", [signal.SIGTERM, signal.SIGINT])
def test_an_interrupted_sweep_ends_its_pytest_and_removes_its_copy(tmp_path, signum):
    tree = _tree(tmp_path, SLEEPING_TEST)
    tmp, pid_file = tmp_path / "tmp", tmp_path / "child.pid"
    tmp.mkdir()
    env = {**os.environ, "TMPDIR": str(tmp), "MUTATE_CHILD_PID": str(pid_file)}
    sweep = subprocess.Popen([sys.executable, str(tree / "tools" / "mutate.py"),
                              "--module", "chain"], env=env,
                             stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    try:
        deadline = time.monotonic() + 60.0
        while not pid_file.exists():  # the unmutated baseline run is asleep once this exists
            assert sweep.poll() is None and time.monotonic() < deadline
            time.sleep(0.05)
        child = int(pid_file.read_text())
        assert [p.name[:16] for p in tmp.iterdir()] == ["xyquench-mutate-"]
        sweep.send_signal(signum)
        assert sweep.wait(timeout=60) == 128 + signum
    finally:
        if sweep.poll() is None:
            sweep.kill()
            sweep.wait()
    with pytest.raises(ProcessLookupError):  # ended and reaped, not orphaned
        os.kill(child, 0)
    assert list(tmp.iterdir()) == []


def test_a_run_that_passes_but_cannot_exit_ends_soon_after_its_summary(tmp_path):
    # the thread outlives the 45 s bound, so the unmutated run counts as timed out, as a
    # run blocked for good does at the 600 s timeout
    tree = _tree(tmp_path, LINGERING_TEST)
    t0 = time.monotonic()
    with subprocess.Popen([sys.executable, str(tree / "tools" / "mutate.py"), "--module", "chain"],
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True) as sweep:
        try:
            err = sweep.communicate(timeout=45)[1]
        except subprocess.TimeoutExpired:
            sweep.kill()
            raise
    assert time.monotonic() - t0 < 45
    assert sweep.returncode == 1
    assert err.strip() == "chain: tests/test_chain.py fails before any mutation"


@pytest.mark.parametrize("test_source,passed", [
    ("def test_passes():\n    pass\n", True),
    ("def test_fails():\n    assert False\n", False),
], ids=["passes", "fails"])
def test_a_run_that_exits_after_its_summary_keeps_its_verdict(tmp_path, test_source, passed):
    tree = _tree(tmp_path, test_source)
    run_tests = runpy.run_path(str(tree / "tools" / "mutate.py"), run_name="mutate")["run_tests"]
    got_passed, seconds, timed_out = run_tests(tree, "tests/test_chain.py", timeout=120.0)
    assert (got_passed, timed_out) == (passed, False)
    assert seconds < 45
