"""Runs the passes of one workload in one process and writes report.json.

Started by run.py; not meant to be run by hand.  Every pass runs the
same inputs and writes to ``<workdir>/out``, so that file names printed
by the CLI repeat; the first pass's outputs are then moved to
``<workdir>/ref`` for run.py to check.  Every pass's files are hashed so
that run.py can flag byte differences.  With
``--trace 1`` passes run untraced and traced in the order U T T U U T T U ...,
which cancels a linear drift of machine speed over the run.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import hashlib
import io
import json
import re
import resource
import shutil
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter, process_time

import workloads
from speed import Scaler
from tracer import Tracer, wrapper_cost

ROOT = Path(__file__).resolve().parent.parent
SETUP_SAMPLES = 10
# numpy is imported before the clock starts: its import (the BLAS thread
# pool's start) took about 60 ms longer in some host states than in
# others, for minutes at a time, and that swung the metric by 40 %.  The
# package's own import and parser build are timed, then scaled like a
# pass segment by the python probe run in the same interpreter.
SETUP_CODE = (
    "import sys, time\n"
    "import numpy\n"
    "sys.path.insert(0, sys.argv[2])\n"
    "import speed\n"
    "t0 = time.perf_counter()\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "import xyquench\n"
    "from xyquench import cli\n"
    "cli.build_parser()\n"
    "t = time.perf_counter() - t0\n"
    "kernel, ref_s = speed.KERNELS['python']\n"
    "print(t, t * ref_s / speed.probe(kernel))\n"
)


def _import_package():
    sys.path.insert(0, str(ROOT / "src"))
    import xyquench
    from xyquench import cli, edoracle

    if Path(xyquench.__file__).resolve().parent != ROOT / "src" / "xyquench":
        raise ImportError(f"xyquench imported from {xyquench.__file__}, not from {ROOT / 'src'}")
    return cli, edoracle


def _run_cli(cli, plan, out: Path):
    buf = io.StringIO()
    codes = []
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
        for argv in plan["commands"]:
            codes.append(cli.main([a.format(out=out) for a in argv]))
    (out / "stdout.txt").write_text(buf.getvalue(), encoding="utf-8")
    return codes


def _run_ed_large(edoracle, plan, out: Path):
    import numpy as np

    s = plan["sizes"]
    loops = []
    for alpha, field in plan["loops"]:
        r = edoracle.berry_phase_loop(s["sites"], alpha, field, steps=s["steps"])
        loops.append({"alpha": alpha, "field": field, "phase": r.phase, "parity": r.parity,
                      "valid": r.valid, "degenerate": r.degenerate,
                      "overlaps_min": r.overlaps_min})
    alpha, field, phi = plan["spectrum"]
    w0 = np.linalg.eigvalsh(edoracle.build_hamiltonian(s["spectrum_sites"], alpha, field, 0.0))
    w1 = np.linalg.eigvalsh(edoracle.build_hamiltonian(s["spectrum_sites"], alpha, field, phi))
    result = {"loops": loops, "spectrum": {"alpha": alpha, "field": field, "phi": phi,
                                           "w0": w0.tolist(), "w1": w1.tolist()}}
    (out / "ed_large.json").write_text(json.dumps(result), encoding="utf-8")
    return [0]


def setup_seconds(n: int) -> list:
    """[raw, scaled] seconds of import xyquench + cli.build_parser() in n fresh processes."""
    out = []
    for _ in range(n):
        res = subprocess.run([sys.executable, "-c", SETUP_CODE, str(ROOT / "src"),
                              str(Path(__file__).resolve().parent)],
                             capture_output=True, text=True, timeout=60, check=True)
        out.append([float(x) for x in res.stdout.strip().splitlines()[-1].split()])
    return out


def _hash_dir(out: Path) -> dict:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out.iterdir())}


def blas_threads():
    """Thread count of the loaded OpenBLAS, or None when it cannot be asked."""
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return None
    for lib in sorted(set(re.findall(r"(/\S*openblas\S*\.so\S*)", maps))):
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workdir", required=True)
    args = ap.parse_args()

    cli, edoracle = _import_package()
    plan = workloads.plan(args.workload, args.seed)
    workdir = Path(args.workdir)
    if plan["commands"]:
        def run(out):
            return _run_cli(cli, plan, out)
    else:
        def run(out):
            return _run_ed_large(edoracle, plan, out)

    passes = []
    start = perf_counter()
    setup = setup_seconds(1)
    while True:
        i = len(passes)
        traced = bool(args.trace) and i % 4 in (1, 2)
        out = workdir / "out"
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir(parents=True)
        body = run
        if traced:
            tracer = Tracer()
            tracer.install()
            body = tracer.wrap("bench.pass", run)
        else:
            scaler = Scaler(plan["probe"])
            scaler.install()
            scaler.start()
        error = None
        codes = []
        t0, c0 = perf_counter(), process_time()
        try:
            codes = body(out)
        except Exception:  # a crashing pass is a failed pass; keep measuring
            error = traceback.format_exc(limit=5)
        if traced:
            times = {"wall_s": perf_counter() - t0, "cpu_s": process_time() - c0}
            tracer.uninstall()
        else:
            scaler.cut()
            scaler.uninstall()
            times = scaler.totals()
        passes.append({
            "traced": traced, **times, "exit_codes": codes,
            "error": error, "hashes": _hash_dir(out),
            "layers": tracer.layer_metrics() if traced else None,
            "wrapped_calls": tracer.wrapped_calls() if traced else 0,
        })
        if i == 0:
            out.rename(workdir / "ref")
        # Set-up samples are spread over the run, between passes, so that
        # their median follows the host's speed over the whole run.
        due = 1 + int((SETUP_SAMPLES - 2) * min(1.0, (perf_counter() - start) / args.seconds))
        setup += setup_seconds(due - len(setup))
        done = len(passes) >= 2 and perf_counter() - start >= args.seconds
        if done and (not args.trace or len(passes) % 2 == 0):
            break

    setup += setup_seconds(SETUP_SAMPLES - len(setup))
    report = {
        "passes": passes,
        "setup_s": setup,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "blas_threads": blas_threads(),
        "wrapper_cost_s": wrapper_cost() if args.trace else None,
    }
    (workdir / "report.json").write_text(json.dumps(report), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
