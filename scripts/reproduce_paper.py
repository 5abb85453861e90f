#!/usr/bin/env python3
"""One-shot reproduction driver.

Runs the exact/numeric identity suite, constructs certified kernel
zeros for a range of dimensions, and scans the nonvanishing families,
writing all artifacts into an output directory.

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
    rows = []
    cert = zerofind.construct_zero_dim3()
    chain_start = time.perf_counter()
    chain = zerofind.build_certificate_chain(args.max_n)
    chain_secs = time.perf_counter() - chain_start
    (out / "certificate_n3.json").write_text(json.dumps(cert.to_dict(), indent=2, sort_keys=True))
    (out / f"certificate_n{args.max_n}.json").write_text(
        json.dumps(chain.to_dict(), indent=2, sort_keys=True)
    )
    node = chain
    while node is not None:
        rows.append(node)
        node = node.parent
    for node in reversed(rows):
        appended = node.lam[-1].real if node.construction == "lift" else float("nan")
        print(
            f"n={node.n}  construction={node.construction:5s}  "
            f"residual_rel={node.residual_rel:.3e}  kernel_abs={node.kernel_abs:.3e}  "
            f"appended={appended:.6f}" if node.construction == "lift" else
            f"n={node.n}  construction={node.construction:5s}  "
            f"residual_rel={node.residual_rel:.3e}  kernel_abs={node.kernel_abs:.3e}"
        )
    print(f"chain to n={args.max_n}: {chain_secs:.1f}s")

    print("\n== nonvanishing scans ==")
    for mode in ("g2_full", "g3_equal_third", "diagonal"):
        report = zerofind.sample_nonvanishing(mode, args.samples, seed=args.seed)
        (out / f"sampling_{mode}.json").write_text(
            json.dumps(report.to_dict(), indent=2, sort_keys=True)
        )
        extra = ""
        if report.diag_min_real is not None:
            extra = f"  min real {report.diag_min_real:.3e}"
        print(
            f"{mode:15s} samples={report.samples}  min |per C| / per |C| = "
            f"{report.min_scaled_abs:.4e}  zero found: {report.zero_found}{extra}"
        )
    print(f"\nartifacts in {out}/")
    return 0


if __name__ == "__main__":
    sys.exit(main())
