"""Every entry of tools/equivalent_mutants.json names a mutant of today's source.

An entry whose line was edited or deleted no longer explains any survivor,
so the list would hide nothing and mislead its reader; this check builds
the mutants only (tools/mutate.py's `mutants`) and runs no tests.
"""

import json
import runpy
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_every_equivalent_mutant_matches_a_mutant_of_the_source():
    mutate = runpy.run_path(str(ROOT / "tools" / "mutate.py"), run_name="mutate")
    entries = json.loads(mutate["EQUIVALENT"].read_text())
    listed = [(e["module"], e["line"], e["col"], e["from"], e["to"]) for e in entries]
    assert len(set(listed)) == len(listed), "an entry is listed twice"
    keys = set()
    for module in sorted({key[0] for key in listed}):
        assert module in mutate["MODULES"]
        source = (ROOT / "src" / "xyquench" / f"{module}.py").read_text()
        keys.update(m.key() for m in mutate["mutants"](module, source))
    stale = [key for key in listed if key not in keys]
    assert stale == []
    assert all(e["reason"].strip() for e in entries)
