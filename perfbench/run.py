"""xyquench benchmark: run one workload at one seed, check it, print its metrics.

    python3 perfbench/run.py --workload sweeps --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout; it imports the package from ``src/``.
With ``--trace 0`` it prints the end-to-end metrics, with ``--trace 1``
the per-layer metrics of a traced run (see README.md).  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
``--out FILE`` also writes the samples, checks and run facts for
compare.py.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import workloads  # noqa: E402

WORKER_TIMEOUT_S = 170.0


def _host_load() -> dict:
    """Load average and cumulative CPU/steal jiffies of the host, if readable."""
    try:
        load = Path("/proc/loadavg").read_text().split()[:3]
        cpu = [int(x) for x in Path("/proc/stat").read_text().split("\n")[0].split()[1:]]
    except (OSError, ValueError):
        return {}
    return {"loadavg": [float(x) for x in load], "cpu_jiffies": sum(cpu),
            "steal_jiffies": cpu[7] if len(cpu) > 7 else 0}


def _steal_share(before: dict, after: dict):
    if not before or not after:
        return None
    total = after["cpu_jiffies"] - before["cpu_jiffies"]
    return (after["steal_jiffies"] - before["steal_jiffies"]) / total if total > 0 else 0.0


def _commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30, check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return None


def _source_digest() -> str:
    """sha256 over the package sources, for checkouts that are not git repositories."""
    h = hashlib.sha256()
    for p in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(p.relative_to(ROOT)).encode() + b"\0" + p.read_bytes())
    return h.hexdigest()


def _facts(blas_threads) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "commit": _commit(),
        "source_sha256": _source_digest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
    }


def _pass_failures(passes, check_failures) -> list:
    """Per pass: None when it passed, else the first reason it failed."""
    ref = passes[0]["hashes"]
    reasons = []
    for p in passes:
        if p["error"]:
            reasons.append(p["error"].strip().splitlines()[-1])
        elif any(code != 0 for code in p["exit_codes"]):
            reasons.append(f"exit codes {p['exit_codes']}")
        elif p["hashes"] != ref:
            changed = sorted(f for f in set(ref) | set(p["hashes"])
                             if ref.get(f) != p["hashes"].get(f))
            reasons.append(f"output bytes differ from pass 0: {', '.join(changed)}")
        elif check_failures:
            reasons.append(check_failures[0])
        else:
            reasons.append(None)
    return reasons


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", default=None, help="also write the full result JSON here")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "xyquench" / "__init__.py").is_file():
        print(f"perfbench: no package sources at {ROOT / 'src' / 'xyquench'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    plan = workloads.plan(args.workload, args.seed)

    load_before = _host_load()
    workdir = ROOT / ".bench_build" / "perfbench" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        subprocess.run(
            [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace), "--workdir", str(workdir)],
            stdout=subprocess.DEVNULL, timeout=WORKER_TIMEOUT_S, check=True)
        report = json.loads((workdir / "report.json").read_text())
        passes = report["passes"]
        rep = checks.check(plan, workdir / "ref")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    load_after = _host_load()
    setup = report["setup_s"]

    reasons = _pass_failures(passes, rep.failures)
    attempted, failed = len(passes), sum(r is not None for r in reasons)
    untraced = [p for p in passes if not p["traced"]]
    wall_raw = statistics.median(p["wall_s"] for p in untraced)

    if args.trace:
        traced = [p for p in passes if p["traced"]]
        values = {name: statistics.median(p["layers"][name] for p in traced)
                  for name in traced[0]["layers"]}
        values["edoracle.loops_checked_ratio"] = (
            rep.loops_checked / rep.loops_run if rep.loops_run else 1.0)
        # Wrapped calls times the calibrated cost of one wrapper, over the
        # untraced pass: a ratio of traced to untraced pass times would
        # measure the host's drift between two passes instead.
        values["trace_overhead"] = statistics.median(
            p["wrapped_calls"] for p in traced) * report["wrapper_cost_s"] / wall_raw
    else:
        values = {
            "setup_s": statistics.median(s for _, s in setup),
            # Pass times scaled to the probe's reference host speed (speed.py).
            "wall_s": statistics.median(p["wall_scaled_s"] for p in untraced),
            "cpu_s": statistics.median(p["cpu_scaled_s"] for p in untraced),
            "peak_rss_mb": report["peak_rss_kb"] * 1024 / 1e6,
            "pass_ratio": (attempted - failed) / attempted,
            # NaN fails a check; report it as a huge finite ratio.
            "err_to_tol": min(rep.err_to_tol, 1e12),
        }
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in spec["per_layer" if args.trace else "end_to_end"]}

    facts = _facts(report["blas_threads"])
    facts.update(load_before=load_before.get("loadavg"), load_after=load_after.get("loadavg"),
                 steal_share=_steal_share(load_before, load_after))
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}: "
          f"{attempted} passes ({len(untraced)} untraced), {failed} failed")
    for i, r in enumerate(reasons):
        if r is not None:
            print(f"  pass {i} failed: {r}")
    for msg in rep.failures:
        print(f"  check failed: {msg}")
    print(f"  err_to_tol {rep.err_to_tol:.6g} at {rep.worst or '-'}; loops checked "
          f"{rep.loops_checked}/{rep.loops_run}")
    for key in ("wall_scaled_s", "wall_s", "cpu_scaled_s", "cpu_s"):
        print(f"  {key} samples (n={len(untraced)}): "
              + " ".join(f"{p[key]:.4f}" for p in untraced))
    print(f"  raw medians: wall {wall_raw:.6g} s, cpu "
          f"{statistics.median(p['cpu_s'] for p in untraced):.6g} s; probes per pass "
          + " ".join(str(p["probes"]) for p in untraced))
    print(f"  setup_s samples (n={len(setup)}), scaled: " + " ".join(f"{s:.4f}" for _, s in setup))
    print(f"  setup_s samples (n={len(setup)}), raw: " + " ".join(f"{r:.4f}" for r, _ in setup))
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print("  facts " + json.dumps(facts, sort_keys=True))

    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    if args.out:
        full = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
                "seconds": args.seconds, "result": result, "facts": facts,
                "samples": {"setup_s": setup, "passes": [
                    {k: p.get(k) for k in ("traced", "wall_s", "cpu_s", "wall_scaled_s",
                                           "cpu_scaled_s", "probes")} for p in passes]},
                "checks": {"failures": rep.failures, "worst": rep.worst}}
        Path(args.out).write_text(json.dumps(full, indent=1, sort_keys=True) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
