#!/usr/bin/env python3
"""One-shot reproduction driver.

Runs the exact/numeric identity suite, constructs certified kernel
zeros for n = 3 and n = --max-n, reads every certificate file back, and
scans the nonvanishing families, writing all artifacts into an output
directory through the symdisc CLI.  The read-back rebuilds each chain
from its stored coordinates alone (zerofind.recheck: validate() as
stored, then the residual, kernel modulus and slice witness recomputed
at every node) and requires the rebuilt chain to write the very record
just read, so every certificate is reproducible from its coordinates in
the same run.  Exits nonzero when a check or a read-back fails.

Usage:
    python scripts/reproduce_paper.py --out-dir out
    python scripts/reproduce_paper.py --max-n 7 --samples 100000
"""

import argparse
import json
import sys
import time
from pathlib import Path

from symdisc import cli, zerofind
from symdisc.errors import CertificationFailure


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out-dir", default="out")
    ap.add_argument("--max-n", type=int, default=6)
    ap.add_argument("--samples", type=int, default=20000)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)

    print("== identity verification ==")
    code = cli.main(["verify-paper", "--format", "json", "--out", str(out / "verification.json")])
    payload = json.loads((out / "verification.json").read_text())
    total = sum(len(r["checks"]) for r in payload["reports"])
    print(f"verify-paper: exit {code}, {total} checks, passed={payload['passed']}")
    if code != 0:
        return code

    print("\n== certified kernel zeros ==")
    written = []
    for n in dict.fromkeys((3, args.max_n)):  # one file when --max-n is 3
        path = out / f"certificate_n{n}.json"
        code = cli.main(["find-zero", str(n), "--out", str(path)])
        if code != 0:
            return code
        written.append(path)
    back_start = time.perf_counter()
    nodes = 0
    for path in written:
        stored = json.loads(path.read_text())
        try:
            rebuilt = zerofind.recheck(zerofind.ZeroCertificate.from_dict(stored))
        except CertificationFailure as exc:
            print(f"read-back failed: {path.name}, {exc}")
            return 1
        if rebuilt.to_dict() != stored:
            print(f"read-back failed: {path.name} differs from the chain rebuilt from its coordinates")
            return 1
        nodes += len(list(rebuilt.nodes()))
    print(
        f"read-back: {nodes} nodes of {len(written)} certificate files rebuilt and "
        f"matched in {time.perf_counter() - back_start:.3f}s"
    )

    print("\n== nonvanishing scans ==")
    for mode in zerofind.SAMPLING_MODES:
        path = out / f"sampling_{mode}.json"
        argv = ["sample", mode, "--count", str(args.samples), "--seed", str(args.seed)]
        code = cli.main([*argv, "--format", "json", "--out", str(path)])
        if code != 0:
            return code
        report = json.loads(path.read_text())
        extra = "" if report["diag_min_real"] is None else f"  min real {report['diag_min_real']:.3e}"
        print(
            f"{mode:15s} samples={report['samples']}  min |per C| / per |C| = "
            f"{report['min_scaled_abs']:.4e}  zero found: {report['zero_found']}{extra}"
        )
    print(f"\nartifacts in {out}/")
    return 0


if __name__ == "__main__":
    sys.exit(main())
