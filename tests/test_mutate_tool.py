"""tools/mutate.py leaves nothing behind when a sweep is interrupted.

The sweep runs on a throwaway tree whose only test file sleeps, so the
signal always arrives while pytest runs on the copy.
"""

import os
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


@pytest.mark.parametrize("signum", [signal.SIGTERM, signal.SIGINT])
def test_an_interrupted_sweep_ends_its_pytest_and_removes_its_copy(tmp_path, signum):
    tree = tmp_path / "tree"
    for sub in ("tools", "src/xyquench", "tests", "perfbench"):
        (tree / sub).mkdir(parents=True)
    shutil.copy2(ROOT / "tools" / "mutate.py", tree / "tools")
    (tree / "tools" / "equivalent_mutants.json").write_text("[]")
    (tree / "src" / "xyquench" / "chain.py").write_text("X = 1 + 1\n")
    (tree / "tests" / "test_chain.py").write_text(SLEEPING_TEST)
    (tree / "pyproject.toml").write_text("")
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
