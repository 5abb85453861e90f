#!/usr/bin/env python3
"""One-shot reproduction driver.

Runs the exact/numeric identity suite, constructs certified kernel
zeros for n = 3 and n = --max-n, reads every certificate file back
(zerofind.recheck: validate(), a recomputed residual within its
stored tolerance and the slice witness test at that tolerance, at
every node of the chain), and scans the
nonvanishing families, writing all artifacts into an output directory
through the symdisc CLI.  Exits nonzero when a check or a read-back
fails.

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
        cert = zerofind.ZeroCertificate.from_dict(json.loads(path.read_text()))
        try:
            zerofind.recheck(cert)
        except CertificationFailure as exc:
            print(f"read-back failed: {path.name}, {exc}")
            return 1
        nodes += len(list(cert.nodes()))
    print(
        f"read-back: {nodes} nodes of {len(written)} certificate files validated and "
        f"recertified in {time.perf_counter() - back_start:.3f}s"
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
