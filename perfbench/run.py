"""Benchmark of symdisc: end-to-end metrics, or per-layer metrics from a traced run.

    python3 perfbench/run.py --workload certify --seed 1 --seconds 8 --trace 0
    python3 perfbench/run.py --all --seed 1 --seconds 8 --trace 0

Run from the repository root.  One workload runs in one process with one
BLAS thread.  The last line of standard output is a JSON object with the
keys correct, attempted, failed and metrics; the line before it starts
with "info " and holds the machine fingerprint and run details.  See
perfbench/README.md for the workloads and the metric-to-layer map.
"""

from __future__ import annotations

import os

# before numpy is imported anywhere
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import math
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import hostspeed

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 3
WORKLOAD_NAMES = ("certify", "verify", "scan")


def import_program() -> tuple[float, float]:
    """Import symdisc from this checkout's src/; returns the interval taken."""
    if not (SRC / "symdisc" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no symdisc sources under {SRC}")
    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    import symdisc
    import symdisc.cli  # noqa: F401

    end = time.perf_counter()
    if Path(symdisc.__file__).resolve().parent != SRC / "symdisc":
        raise SystemExit(f"perfbench: imported symdisc from {symdisc.__file__}, not {SRC}")
    return start, end


def fingerprint() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "symdisc").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    ld = np.finfo(np.longdouble)
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "git_commit": git_commit(),
        "source_sha256": digest.hexdigest(),
        "longdouble": {"dtype": str(ld.dtype), "eps": float(ld.eps), "precision": ld.precision, "nmant": ld.nmant},
    }


def git_commit() -> str | None:
    """HEAD of the checkout when it is a git work tree (read without git)."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_workload(name: str, seed: int, seconds: float, trace: bool, spec: dict) -> tuple[dict, dict]:
    # the traced run reports plain wall time; the timed run scales its
    # times to the reference host speed (see hostspeed.py)
    clock = hostspeed.WallClock() if trace else hostspeed.Speedometer()
    workdir = ROOT / ".bench_work"
    workdir.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=workdir))
    try:
        with clock:
            return measure(name, seed, seconds, trace, spec, clock, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            workdir.rmdir()
        except OSError:
            pass


def measure(name, seed, seconds, trace, spec, clock, tmp) -> tuple[dict, dict]:
    """Import, set up SETUP_REPEATS times, then the timed or traced run."""
    imported = import_program()
    import layers
    from workloads import WORKLOADS

    setups = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        w = WORKLOADS[name](seed, tmp, clock)
        w.setup()
        setups.append((start, time.perf_counter()))
    w.reset()
    info = {
        "setup_repeats_wall_s": [end - start for start, end in setups],
        "import_wall_s": imported[1] - imported[0],
    }
    if trace:
        metrics = layers.traced_run(w, [m["name"] for m in spec["per_layer"]], info)
    else:
        info["cycles"] = w.run_for(seconds)
        if w.LADDER:
            info["ladder"] = w.ladder()
        metrics = w.metrics()
        metrics["setup_s"] = clock.seconds(*imported) + statistics.median(clock.seconds(*s) for s in setups)
        metrics["ok_frac"] = (w.attempted - len(w.failures)) / w.attempted
        metrics["peak_rss_mb"] = peak_rss_mb()
        info["wall_medians_s"] = w.wall_medians()
        info["speed"] = {"ticks": clock.ticks, "run_factor": clock.factor(-math.inf, math.inf)}
    registered = spec["per_layer"] if trace else spec["end_to_end"]
    info["samples"] = {k: len(v) for k, v in w.samples.items()}
    info["failures"] = w.failures
    result = {
        "correct": not w.failures,
        "attempted": w.attempted,
        "failed": len(w.failures),
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in registered},
    }
    return result, info


def print_report(name: str, result: dict, info: dict) -> None:
    print(f"== {name}: {result['attempted']} ops, {result['failed']} failed")
    for key, m in result["metrics"].items():
        print(f"  {key:42s} {m['value']:>16.6g} {m['unit']}")
    for f in info.get("failures", []):
        print(f"  FAILED {f['op']}: {f['error']}: {f['message']}")
    ladder = info.get("ladder")
    if ladder:
        print(
            f"  ladder from n={ladder['start_n']}: max n certified {ladder['max_n_certified']}, "
            f"stopped after {ladder['seconds']:.1f} s by {ladder['error']}: {ladder['message']}"
        )


def run_all(args) -> int:
    """Each workload in its own process, one after the other."""
    status = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=900)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode or not lines:
            print(f"== {name}: exited {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            status = 1
            continue
        print("\n".join(lines[:-2]))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    target = parser.add_mutually_exclusive_group(required=True)
    target.add_argument("--workload", choices=WORKLOAD_NAMES)
    target.add_argument("--all", action="store_true", help="run every workload, one process each")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=8.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.all:
        return run_all(args)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    result, info = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), spec)
    info["fingerprint"] = fingerprint()
    info.update(workload=args.workload, seed=args.seed, seconds=args.seconds, trace=args.trace)
    print_report(args.workload, result, info)
    print("info " + json.dumps(info, default=str))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
