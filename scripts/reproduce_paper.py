#!/usr/bin/env python3
"""One-shot reproduction driver.

Runs the exact/numeric identity suite, constructs certified kernel
zeros for a range of dimensions, reads every certificate file back
(validate() and a recomputed residual within its stored tolerance, at
every node of the chain), and scans the nonvanishing families, writing
all artifacts into an output directory.  Exits nonzero when a check or
a read-back fails.

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


def read_back(path: Path) -> int:
    """Load the certificate file at path and check every node of its
    chain with zerofind.recheck: validate() and a recomputed residual
    within the node's stored tolerance.  Returns the number of nodes; a
    failing node raises CertificationFailure naming the file and the
    node."""
    node = zerofind.ZeroCertificate.from_dict(json.loads(path.read_text()))
    count = 0
    while node is not None:
        try:
            zerofind.recheck(node)
        except CertificationFailure as exc:
            raise CertificationFailure(f"{path.name}, node n={node.n}: {exc}") from exc
        count += 1
        node = node.parent
    return count


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
    written = [out / "certificate_n3.json", out / f"certificate_n{args.max_n}.json"]
    for path, node in zip(written, (cert, chain)):
        path.write_text(json.dumps(node.to_dict(), indent=2, sort_keys=True))
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
    back_start = time.perf_counter()
    try:
        nodes = sum(read_back(path) for path in written)
    except CertificationFailure as exc:
        print(f"read-back failed: {exc}")
        return 1
    print(
        f"read-back: {nodes} nodes of {len(written)} certificate files validated and "
        f"recertified in {time.perf_counter() - back_start:.3f}s"
    )

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
