"""Command-line surface.

Subcommands: verify-paper, find-zero, eval, lift, sample, grid.
Exit codes: 0 success, 1 verification failure, 2 usage error,
3 numerical failure.  Outputs are deterministic for fixed seeds.
"""

from __future__ import annotations

import argparse
import cmath
import contextlib
import functools
import itertools
import json
import math
import re
import sys

import numpy as np

from . import exactfield, kernel, zerofind
from .errors import CertificationFailure, InvalidScaling, SymdiscError
from .zerofind import ZeroCertificate

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_NUMERICAL = 3


def parse_complex(text: str) -> complex:
    """Parse 're,im' into a finite complex number."""
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(f"expected 're,im', got {text!r}")
    try:
        value = complex(float(parts[0]), float(parts[1]))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad complex literal {text!r}") from exc
    if not cmath.isfinite(value):
        raise argparse.ArgumentTypeError(f"non-finite coordinate {text!r}")
    return value


def _write_chunks(out: str | None, chunks) -> None:
    """Write the strings of an iterable one after another, to the file out
    or to stdout, and end with a newline; a generator's chunks are not all
    held at once."""
    with open(out, "w") if out else contextlib.nullcontext(sys.stdout) as fh:
        last = ""
        for last in chunks:
            fh.write(last)
        if not last.endswith("\n"):
            fh.write("\n")


def _fmt_complex(c: complex) -> str:
    return f"{c.real:+.17g}{c.imag:+.17g}j"


# --- verify-paper -------------------------------------------------------------


def cmd_verify_paper(args) -> int:
    if args.samples < 1:
        print(f"verify-paper: --samples must be at least 1, got {args.samples}", file=sys.stderr)
        return EXIT_USAGE
    reports = [
        exactfield.verify_base_point_identities(fault=args.fault_inject),
        exactfield.verify_bracket_identities(),
    ]
    numeric = exactfield.VerificationReport("numeric cross-checks")
    closed = kernel.closed_form_comparison(samples=args.samples, seed=args.seed)
    numeric.add(
        "closed-form-vs-permanent",
        f"dimension-3 closed form matches the permanent formula per C / (pi^n prod B) at {closed['samples']} points (1e-9 relative)",
        closed["max_rel_diff"] < 1e-9,
        detail=f"max relative difference {closed['max_rel_diff']:.3e}",
    )
    chain = kernel.reduction_chain_check(samples=max(50, args.samples // 5), seed=args.seed + 1)
    numeric.add(
        "reduction-chain",
        f"all stages of the two-column reduction agree at {chain['samples']} points (1e-9 relative)",
        chain["max_rel_diff"] < 1e-9,
        detail=f"max relative difference {chain['max_rel_diff']:.3e}",
    )
    a_ex, b_ex, c_ex = exactfield.exact_base_quadratic()
    q = kernel.abc_coeffs(zerofind.TORUS_BASE)
    worst = max(
        abs(complex(a_ex) - q.a) / abs(q.a),
        abs(complex(b_ex) - q.b) / abs(q.b),
        abs(complex(c_ex) - q.c) / abs(q.c),
    )
    numeric.add(
        "exact-vs-float-abc",
        "float quadratic coefficients at the base triple match their exact values (1e-14 relative)",
        worst < 1e-14,
        detail=f"max relative difference {worst:.3e}",
    )
    moments = zerofind.moment_identity_check(*zerofind.zero_point_dim3())
    numeric.add(
        "slice-moment-identity",
        "Taylor data of the first-slot slice matches the moment determinants "
        "(second row over all three conjugated mu coordinates; the "
        "repeated-column variant of that display is rejected)",
        moments["max_rel_diff"] < 1e-9,
        detail=f"max relative difference {moments['max_rel_diff']:.3e}",
    )
    reports.append(numeric)

    all_passed = all(r.passed for r in reports)
    if args.fmt == "json":
        payload = {
            "passed": all_passed,
            "reports": [r.to_dict() for r in reports],
        }
        _write_chunks(args.out, [json.dumps(payload, indent=2, sort_keys=True)])
    else:
        blocks = [r.to_text() for r in reports]
        total = sum(len(r.checks) for r in reports)
        failed = sum(len(r.failures()) for r in reports)
        blocks.append(f"# {total - failed}/{total} checks passed")
        _write_chunks(args.out, ["\n\n".join(blocks)])
    return EXIT_OK if all_passed else EXIT_VERIFY_FAILED


# --- find-zero / lift ----------------------------------------------------------


def _emit_certificate(cert: ZeroCertificate, out: str | None) -> None:
    text = json.dumps(cert.to_dict(), indent=2, sort_keys=True)
    if out:
        with open(out, "w") as fh:
            fh.write(text + "\n")
    for node in reversed(list(cert.nodes())):
        print(
            f"n={node.n} construction={node.construction} "
            f"residual_rel={node.residual_rel:.3e} kernel_abs={node.kernel_abs:.3e} "
            f"witness_abs={node.witness_abs:.3e}"
        )
    if not out:
        print(text)


def cmd_find_zero(args) -> int:
    _emit_certificate(zerofind.build_certificate_chain(args.n, args.rho, args.mu1), args.out)
    return EXIT_OK


def _load_certificate(path: str) -> ZeroCertificate:
    with open(path) as fh:
        return ZeroCertificate.from_dict(json.load(fh))


def cmd_lift(args) -> int:
    cert = zerofind.recheck(_load_certificate(args.cert))
    _emit_certificate(zerofind.lift_zero(cert), args.out)
    return EXIT_OK


# --- eval ----------------------------------------------------------------------


def _json_number(x: float) -> float | None:
    """x, or None (null) where it is not finite: JSON has no inf or nan."""
    return x if math.isfinite(x) else None


def cmd_eval(args) -> int:
    lam = tuple(args.lam)
    mu = tuple(args.mu)
    if len(lam) != len(mu):
        print(
            f"eval: --lambda and --mu need as many coordinates, got {len(lam)} and {len(mu)}",
            file=sys.stderr,
        )
        return EXIT_USAGE
    outside = [c for c in (*lam, *mu) if abs(c) >= 1.0]
    if outside:
        print(f"eval: coordinates not in the open unit disc: {outside}", file=sys.stderr)
        return EXIT_USAGE
    # K overflows near n = 12: inf in text, null in JSON, and no warning
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        ev, error = kernel.kernel_gn_with_error(lam, mu)
    if args.fmt == "json":
        payload = {
            "value": [_json_number(ev.value.real), _json_number(ev.value.imag)],
            "abs": _json_number(abs(ev.value)),
            "permanent": [_json_number(ev.numerator.real), _json_number(ev.numerator.imag)],
            "permanent_error": _json_number(error),
            "scale": _json_number(ev.scale),
            "permanent_rel": _json_number(abs(ev.numerator) / ev.scale),
        }
        _write_chunks(args.out, [json.dumps(payload, indent=2, sort_keys=True)])
    else:
        lines = [
            f"K        = {_fmt_complex(ev.value)}  (|K| = {abs(ev.value):.6e})",
            f"per C    = {_fmt_complex(ev.numerator)}",
            f"|per C - exact per C| <= {error:.6e}",
            f"per |C|  = {ev.scale:.6e}",
            f"|per C| / per |C| = {abs(ev.numerator) / ev.scale:.6e}",
        ]
        _write_chunks(args.out, ["\n".join(lines)])
    return EXIT_OK


# --- sample ---------------------------------------------------------------------


def cmd_sample(args) -> int:
    report = zerofind.sample_nonvanishing(args.mode, args.count, seed=args.seed, n=args.n)
    if args.fmt == "json":
        _write_chunks(args.out, [json.dumps(report.to_dict(), indent=2, sort_keys=True)])
    else:
        lines = [
            f"mode={report.mode} samples={report.samples} seed={report.seed}",
            f"min |per C| / per |C| = {report.min_scaled_abs:.6e}",
            f"argmin lambda = {[_fmt_complex(c) for c in report.argmin_lambda]}",
            f"argmin mu     = {[_fmt_complex(c) for c in report.argmin_mu]}",
            f"zero found: {'yes' if report.zero_found else 'no'}",
        ]
        if report.diag_min_real is not None:
            lines.append(
                f"diagonal: min real part {report.diag_min_real:.6e}, "
                f"max |imag|/real {report.diag_max_imag_ratio:.3e}"
            )
        _write_chunks(args.out, ["\n".join(lines)])
    return EXIT_OK


# --- grid -----------------------------------------------------------------------


def cmd_grid(args) -> int:
    if args.res < 1:
        print(f"grid: --res must be at least 1, got {args.res}", file=sys.stderr)
        return EXIT_USAGE
    if not (math.isfinite(args.width) and args.width > 0):
        print(f"grid: --width must be finite and positive, got {args.width}", file=sys.stderr)
        return EXIT_USAGE
    # validate() only: the grid certifies nothing, and a recheck would add
    # an exact permanent per node of the chain to every grid job
    cert = _load_certificate(args.around)
    try:
        cert.validate()
    except CertificationFailure as exc:
        raise CertificationFailure(f"node n={cert.n}: {exc}") from exc
    lam = np.asarray(cert.lam, dtype=complex)
    mu = np.asarray(cert.mu, dtype=complex)
    res = args.res
    width = args.width

    if args.axis == "z":
        if mu[0] == 0:
            print("grid: --axis z needs mu_1 != 0 (z = conj(mu_2) / conj(mu_1)), "
                  "but the certificate has mu_1 = 0", file=sys.stderr)
            return EXIT_USAGE
        center = mu[1].conjugate() / mu[0].conjugate()
    elif args.axis == "lambda1":
        center = lam[0]
    else:
        center = mu[1]

    half = res // 2
    step = width / max(half, 1)
    offsets = (np.arange(res) - half) * step
    re_, im_ = center.real + offsets, center.imag + offsets
    pts = re_[:, None] + 1j * im_[None, :]

    # each axis moves one coordinate of one tuple, so the values lie on one
    # fiber: lambda1 moves lambda_1 itself, and mu2 and z move mu_2, which
    # K(lam, mu) = conj K(mu, lam) and K's symmetry in mu turn into the
    # first coordinate of a fiber with mu_2 left out and lam in mu's role
    if args.axis == "lambda1":
        fiber = (pts, lam[1:], mu)
    else:
        fiber = (np.conj(pts) * mu[0] if args.axis == "z" else pts, np.delete(mu, 1), lam)
    # the coordinates take res values each: format them once, and each block
    # of res rows with one format string over its |K| and arg K columns,
    # written as it is made: holding the whole table, as one string or as
    # blocks, raised the command's peak memory by 9 MiB at --res 200
    fields = _abs_arg(fiber, conj=args.axis != "lambda1").reshape(res, -1).tolist()
    tails = [""] + ["%.17g,%%.17g,%%.17g" % y for y in im_.tolist()]
    blocks = (("\n%.17g," % x).join(tails) % tuple(block) for x, block in zip(re_.tolist(), fields))
    _write_chunks(args.out, itertools.chain(["re,im,abs_k,arg_k"], blocks))
    return EXIT_OK


def _abs_arg(fiber, conj: bool) -> np.ndarray:
    """(|K|, arg K) per point of kernel.fiber_kernel(*fiber), conjugated
    when conj is set, as a (points, 2) array.  pi^m prod B underflows to 0
    from n = 13 and K overflows from n = 12: the points where the float K
    is not finite take |K| and arg K from kernel.fiber_log_kernel, and no
    warning is written."""
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        values = kernel.fiber_kernel(*fiber)
        if conj:
            values = np.conj(values)
        out = np.stack([np.abs(values), np.angle(values)], axis=-1)
        lost = ~np.isfinite(values)
        if lost.any():
            log_abs, arg = kernel.fiber_log_kernel(fiber[0][lost], *fiber[1:])
            out[lost, 0] = np.exp(log_abs)
            # arg conj K = -arg K, with pi kept in (-pi, pi]
            out[lost, 1] = np.where(arg == np.pi, arg, -arg) if conj else arg
    return out


# --- parser ---------------------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every subcommand, built once per process: main runs
    many times in one process under the benchmark, the paper script and
    the tests, and each parse makes a fresh namespace, so no option of
    one call carries over into the next."""
    # the common options, each declared on the subcommands that read it
    seed = argparse.ArgumentParser(add_help=False)
    seed.add_argument("--seed", type=int, default=0, help="RNG seed (default 0)")
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out", help="output file (default: stdout)")
    fmt = argparse.ArgumentParser(add_help=False)
    fmt.add_argument("--format", choices=("text", "json"), default="text", dest="fmt")

    parser = argparse.ArgumentParser(
        prog="symdisc",
        description="Bergman kernel of the symmetrized polydisc: evaluation, "
        "certified zeros, exact identity verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "verify-paper",
        help="run the exact and numeric identity suite",
        parents=[seed, out, fmt],
    )
    p.add_argument("--fault-inject", choices=("p-coeff",), default=None)
    p.add_argument("--samples", type=int, default=1000)
    p.set_defaults(func=cmd_verify_paper)

    p = sub.add_parser("find-zero", help="construct a certified kernel zero", parents=[out])
    p.add_argument("n", type=int)
    p.add_argument("--rho", type=float, default=zerofind.DEFAULT_RHO)
    p.add_argument("--mu1", type=float, default=zerofind.DEFAULT_MU1)
    p.set_defaults(func=cmd_find_zero)

    p = sub.add_parser("lift", help="lift a certificate one dimension up", parents=[out])
    p.add_argument("--cert", required=True)
    p.set_defaults(func=cmd_lift)

    p = sub.add_parser("eval", help="evaluate the kernel at explicit tuples", parents=[out, fmt])
    # a single-dash token with a comma, such as -0.3,0 or -inf,0, is a
    # coordinate; argparse by default takes only plain negative numbers
    # for values and everything else starting with '-' for an option
    p._negative_number_matcher = re.compile(r"^-[^-].*,")
    p.add_argument("--lambda", dest="lam", type=parse_complex, nargs="+", required=True)
    p.add_argument("--mu", type=parse_complex, nargs="+", required=True)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser(
        "sample",
        help="sample families for the least cancellation ratio |per C| / per |C|",
        parents=[seed, out, fmt],
    )
    p.add_argument("mode", choices=zerofind.SAMPLING_MODES)
    p.add_argument("--count", type=int, default=10000)
    p.add_argument("--n", type=int, default=None, help="dimension for diagonal mode only (default 3)")
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("grid", help="CSV slice of |K| and arg(K) around a certificate", parents=[out])
    p.add_argument("--around", required=True, help="certificate JSON file")
    p.add_argument("--axis", choices=("z", "lambda1", "mu2"), default="z")
    p.add_argument("--res", type=int, default=200)
    p.add_argument("--width", type=float, default=0.05)
    p.set_defaults(func=cmd_grid)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, InvalidScaling) as exc:
        print(f"symdisc: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SymdiscError as exc:
        print(f"symdisc: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
