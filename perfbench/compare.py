"""Compare benchmark result files of a base commit and a change.

    python3 perfbench/compare.py base/*.json --vs change/*.json

Each file is one ``run.py --out FILE`` result.  Files are grouped by
workload and trace mode, and runs of the two sides are paired by seed.
For every metric the table gives each side's median and quartile spread
(IQR / median), the relative change of the medians and the share of
seed pairs the change wins.  Verdicts follow the rules in README.md:

- ``worse``: an end-to-end median is worse than the base by more than its
  BENCHMARK.json bound;
- ``unresolved``: fewer than MIN_PAIRS seed pairs, or the base's own
  spread exceeds the bound and the change does not beat every base run;
- ``better``: the change wins at least 9 in 10 pairs and the medians differ
  by more than the base's quartile distance;
- ``same``: none of these.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
MIN_PAIRS = 10  # fewer seed pairs cannot show a spread or a 9-in-10 win


def _load(paths):
    groups = {}
    for p in paths:
        r = json.loads(Path(p).read_text())
        groups.setdefault((r["workload"], r["trace"]), {})[r["seed"]] = r["result"]
    return groups


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def verdict(base, change, better, bound):
    """Verdict for one metric from the per-seed values of both sides."""
    sign = 1.0 if better == "higher" else -1.0
    b_med, c_med = statistics.median(base.values()), statistics.median(change.values())
    q1, q3 = _quartiles(list(base.values()))
    seeds = sorted(set(base) & set(change))
    wins = sum(sign * (change[s] - base[s]) > 0 for s in seeds)
    if bound is not None and sign * (c_med - b_med) < -bound * abs(b_med):
        return "worse", wins, len(seeds)
    if len(seeds) < MIN_PAIRS:
        return "unresolved", wins, len(seeds)
    beats_all = all(sign * (c - b) > 0 for c in change.values() for b in base.values())
    if bound is not None and b_med and (q3 - q1) / abs(b_med) > bound and not beats_all:
        return "unresolved", wins, len(seeds)
    if wins >= 0.9 * len(seeds) and abs(c_med - b_med) > q3 - q1:
        return "better", wins, len(seeds)
    return "same", wins, len(seeds)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("base", nargs="+", help="result files of the base commit")
    ap.add_argument("--vs", nargs="+", required=True, help="result files of the change")
    args = ap.parse_args(argv)

    spec = json.loads(BENCHMARK.read_text())
    meta = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    base, change = _load(args.base), _load(args.vs)
    worse = 0
    print(f"{'workload':14} {'metric':36} {'base':>12} {'spread':>7} {'change':>12} "
          f"{'spread':>7} {'delta':>8} {'wins':>6}  verdict")
    for key in sorted(set(base) & set(change)):
        b_runs, c_runs = base[key], change[key]
        names = next(iter(b_runs.values()))["metrics"]
        for name in names:
            b = {s: r["metrics"][name]["value"] for s, r in b_runs.items()}
            c = {s: r["metrics"][name]["value"] for s, r in c_runs.items()}
            m = meta.get(name, {"better": "lower"})
            v, wins, pairs = verdict(b, c, m["better"], m.get("bound"))
            worse += v == "worse"
            b_med, c_med = statistics.median(b.values()), statistics.median(c.values())
            spreads = []
            for vals, med in ((b, b_med), (c, c_med)):
                lo, hi = _quartiles(list(vals.values()))
                spreads.append((hi - lo) / abs(med) if med else 0.0)
            delta = (c_med - b_med) / abs(b_med) if b_med else 0.0
            print(f"{key[0]:14} {name:36} {b_med:12.6g} {spreads[0]:7.3f} {c_med:12.6g} "
                  f"{spreads[1]:7.3f} {delta:+8.3f} {wins:>3}/{pairs:<2}  {v}")
        for side, runs in (("base", b_runs), ("change", c_runs)):
            bad = sorted(s for s, r in runs.items() if not r["correct"])
            if bad:
                print(f"{key[0]:14} {side} runs not correct at seeds {bad}")
                worse += 1
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
