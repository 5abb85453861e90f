"""The three workloads: certify, verify and scan.

Each workload builds its inputs from the seed, sets up its fixtures, and
then runs whole cycles of its own jobs (its focus) for the run's seconds.
Every end-to-end metric is reported on every workload, so each workload
also runs a fixed list of probe groups of the other job kinds, spread
evenly between its focus cycles.  Every operation's output is checked;
an operation that raises, exits nonzero or fails its check is recorded
as failed and its timings are dropped.  Timings are kept as intervals of
time.perf_counter() and turned into seconds by the run's clock (see
hostspeed.py) when the metrics are computed.  Program functions are
looked up on their module at call time, so the tracer's wrappers see
every call.
"""

from __future__ import annotations

import contextlib
import io
import json
import statistics
import time

import numpy as np

import symdisc
from symdisc import cli, zerofind
from symdisc.errors import SymdiscError

from oracle import confluent_kernel_mp, kernel_mp


class CheckFailed(Exception):
    """An operation completed but its output is wrong."""


def expect(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def run_cli(argv: list[str]) -> None:
    """cli.main with its console output captured; a nonzero exit fails."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    expect(code == 0, f"{argv[0]} exited {code}: {err.getvalue().strip()[:200]}")


def timed(fn, *args):
    """((start, end), result) of one call."""
    start = time.perf_counter()
    result = fn(*args)
    return (start, time.perf_counter()), result


def rng_for(seed: int, *path: int) -> np.random.Generator:
    return np.random.default_rng([seed, *path])


# --- inputs -------------------------------------------------------------------

# (rho, mu_1 - rho) band around the find-zero defaults (0.9945, 0.9985), on
# the side where chains to n = 7 certify; (0.995, 0.9995) and
# (0.9955, 0.99925) raise RoucheBoundViolated after about 14 s.
RHO_BAND = (0.992, 0.9945)
GAP_BAND = (0.003, 0.0045)
LADDER_TOP = 10
WARM_UP_VERIFY_SAMPLES = 100

SAMPLE_COUNT = 100_000
SAMPLE_JOBS = (("g2_full", []), ("g3_equal_third", []), ("diagonal", ["--n", "6"]))
# the determinant of a Hermitian positive-definite matrix is real, so its
# imaginary part is complex128 rounding, which grows with the matrix's
# condition number near the polydisc boundary (up to 5.6e-6 seen at 1e5
# samples); a value that is not real by construction gives a ratio of order 1
DIAG_IMAG_TOL = 1e-3
GRID_RES = 200
GRID_AXES = ("z", "lambda1", "mu2")
EVAL_DIMS = (3, 5, 7)
# per dimension and eval set: pairs at distinct coordinates (kernel_gn) and
# pairs with a doubled coordinate (kernel_gn_stable only).  With 8:1 the
# median call is an exact n = 5 evaluation and p90 an exact n = 7 one.
EVAL_DISTINCT = 8
EVAL_COINCIDENT = 1
DISTINCT_TOL = 1e-9
COINCIDENT_TOL = 1e-6
# eval sets in a probe, and per scan cycle: at least 100 calls a run leave
# ten samples beyond p90
PROBE_EVAL_SETS = 4
SCAN_EVAL_SETS = 2
# sample jobs per mode in a probe, and per scan cycle
PROBE_SAMPLE_SETS = 3
SCAN_SAMPLE_SETS = 2
MIN_EVALS = 100
# eval sets generated at set-up; later cycles generate theirs on demand
EVAL_SETS_AHEAD = 8


def certify_draw(seed: int, i: int) -> tuple[float, float]:
    rng = rng_for(seed, 1, i)
    rho = RHO_BAND[0] + (RHO_BAND[1] - RHO_BAND[0]) * rng.random()
    gap = GAP_BAND[0] + (GAP_BAND[1] - GAP_BAND[0]) * rng.random()
    return float(rho), float(rho + gap)


def separated_points(rng, count, radius, min_gap) -> list[complex]:
    while True:
        pts = radius * np.sqrt(rng.random(count)) * np.exp(2j * np.pi * rng.random(count))
        gaps = np.abs(pts[:, None] - pts[None, :]) + np.eye(count)
        if gaps.min() >= min_gap:
            return [complex(p) for p in pts]


def coincident_pair(rng, n):
    """(nodes, multiplicities) for lambda with one doubled coordinate, and
    for mu with a doubled coordinate half of the time."""
    lnodes = separated_points(rng, n - 1, 0.7, 0.2)
    lmults = [2] + [1] * (n - 2)
    if rng.random() < 0.5:
        mnodes, mmults = separated_points(rng, n - 1, 0.7, 0.2), list(lmults)
    else:
        mnodes, mmults = separated_points(rng, n, 0.7, 0.2), [1] * n
    return lnodes, lmults, mnodes, mmults


def eval_set(seed: int, c: int):
    rng = rng_for(seed, 3, c)
    out = []
    for n in EVAL_DIMS:
        for _ in range(EVAL_DISTINCT):
            out.append(("distinct", n, (separated_points(rng, n, 0.9, 0.05), separated_points(rng, n, 0.9, 0.05))))
        out += [("coincident", n, coincident_pair(rng, n)) for _ in range(EVAL_COINCIDENT)]
    return out


def expand(nodes, mults) -> list[complex]:
    return [u for u, m in zip(nodes, mults) for _ in range(m)]


# --- output checks ------------------------------------------------------------


def read_back(path) -> zerofind.ZeroCertificate:
    """Load a certificate and re-check every node of its chain: structure
    (validate) and a recomputed residual within the stored tolerance."""
    with open(path) as fh:
        cert = zerofind.ZeroCertificate.from_dict(json.load(fh))
    node = cert
    while node is not None:
        check_certificate(node)
        node = node.parent
    return cert


def check_certificate(cert) -> None:
    cert.validate()
    residual = zerofind.recertify(cert)["residual_rel"]
    tol = cert.tolerances["residual_rel"]
    expect(residual <= tol, f"n={cert.n} residual {residual:.3e} above {tol:.1e}")


def check_csv(path, res: int) -> None:
    with open(path) as fh:
        header, _, body = fh.read().partition("\n")
    expect(header == "re,im,abs_k,arg_k", f"unexpected CSV header {header!r}")
    rows = body.split()
    expect(len(rows) == res * res, f"{len(rows)} CSV rows, expected {res * res}")
    values = np.array(",".join(rows).split(","), dtype=float)
    expect(values.size == 4 * res * res, "CSV rows do not all have four fields")
    expect(bool(np.isfinite(values).all()), "non-finite value in grid CSV")


# --- workloads ----------------------------------------------------------------


class Workload:
    """Operations of every job kind, failure accounting and samples.

    Subclasses provide setup() (inputs, fixtures and one untimed warm-up
    operation), cycle(c) (a list of (label, operation) pairs), probes()
    (a list of such lists, one per probe group) and TRACE_CYCLES, the
    fixed number of cycles the traced run replays.  Timing samples are
    (start, end) intervals; other samples are amounts.
    """

    name = ""
    TRACE_CYCLES = 1
    LADDER = False

    def __init__(self, seed: int, workdir, clock):
        self.seed = seed
        self.workdir = workdir
        self.clock = clock
        self.certs = {}  # n -> path of a checked certificate at the CLI defaults
        self.evals = [eval_set(seed, c) for c in range(EVAL_SETS_AHEAD)]
        self.reset()

    def reset(self) -> None:
        self.attempted = 0
        self.failures: list[dict] = []
        self.samples: dict[str, list] = {}
        self.max_n = 0

    def record(self, key: str, value) -> None:
        self.samples.setdefault(key, []).append(value)

    def attempt(self, label: str, op) -> None:
        self.attempted += 1
        try:
            op()
        except (CheckFailed, SymdiscError, ValueError, ArithmeticError, OSError) as exc:
            self.failures.append(
                {"op": label, "error": type(exc).__name__, "message": str(exc)[:300]}
            )

    def run_cycles(self, first: int, count: int) -> None:
        for c in range(first, first + count):
            for label, op in self.cycle(c):
                self.attempt(label, op)

    def run_for(self, seconds: float) -> int:
        """Whole focus cycles until they have taken `seconds`, with the
        probe groups spread evenly between them so that every metric
        samples the whole run; returns the number of cycles."""
        groups = self.probes()
        done = 0
        busy = 0.0
        c = 0
        while busy < seconds:
            start = time.perf_counter()
            self.run_cycles(c, 1)
            busy += time.perf_counter() - start
            c += 1
            due = len(groups) * min(busy / seconds, 1.0)
            while done < due:
                for label, op in groups[done]:
                    self.attempt(label, op)
                done += 1
        return c

    # -- operations --

    def find_zero(self, n: int, rho=None, mu1=None, key=None):
        """find-zero n, then read-back; with `key`, both are timed."""
        tag = "default" if rho is None else f"{rho!r}-{mu1!r}"
        path = self.workdir / f"c{n}-{tag}.json"
        argv = ["find-zero", str(n), "--out", str(path)]
        if rho is not None:
            argv += ["--rho", repr(rho), "--mu1", repr(mu1)]

        def op():
            t_find, _ = timed(run_cli, argv)
            t_back, cert = timed(read_back, path)
            expect(cert.n == n, f"certificate has n={cert.n}, expected {n}")
            self.max_n = max(self.max_n, n)
            if rho is None:
                self.certs[n] = path
            if key:
                self.record(key, t_find)
                self.record("recertify_s", t_back)

        return " ".join(argv[:2] + argv[4:]), op

    def recertify(self, n: int):
        """Read back the n-dimensional fixture again (timed)."""

        def op():
            expect(n in self.certs, f"no checked n={n} certificate to read back")
            interval, cert = timed(read_back, self.certs[n])
            expect(cert.n == n, f"certificate has n={cert.n}, expected {n}")
            self.record("recertify_s", interval)

        return f"read back c{n}", op

    def verify(self, samples: int = 1000):
        path = self.workdir / "verify.json"
        argv = ["verify-paper", "--format", "json", "--seed", str(self.seed),
                "--samples", str(samples), "--out", str(path)]

        def op():
            interval, _ = timed(run_cli, argv)
            with open(path) as fh:
                report = json.load(fh)
            expect(report["passed"] is True, "verify-paper reported a failed check")
            self.record("verify_paper_s", interval)

        return "verify-paper", op

    def sample(self, mode, extra, c, j):
        seed = int(rng_for(self.seed, 2, c, j).integers(2**32))
        path = self.workdir / f"sample-{mode}.json"
        argv = ["sample", mode, "--count", str(SAMPLE_COUNT), "--seed", str(seed),
                "--format", "json", "--out", str(path), *extra]

        def op():
            interval, _ = timed(run_cli, argv)
            with open(path) as fh:
                report = json.load(fh)
            expect(report["samples"] == SAMPLE_COUNT, "sample count mismatch")
            expect(report["zero_found"] is False, f"{mode}: zero_found is true")
            if mode == "diagonal":
                expect(report["diag_min_real"] > 0, "diagonal minimum is not positive")
                expect(
                    report["diag_max_imag_ratio"] < DIAG_IMAG_TOL,
                    f"diagonal values not real: |imag|/real {report['diag_max_imag_ratio']:.2e}",
                )
            self.record("sample_s", interval)
            self.record("sample_pairs", SAMPLE_COUNT)

        return f"sample {mode} --seed {seed}", op

    def grid(self, n, axis):
        path = self.workdir / f"grid-{n}-{axis}.csv"

        def op():
            expect(n in self.certs, f"no checked n={n} certificate to grid around")
            argv = ["grid", "--around", str(self.certs[n]), "--axis", axis,
                    "--res", str(GRID_RES), "--out", str(path)]
            interval, _ = timed(run_cli, argv)
            check_csv(path, GRID_RES)
            self.record("grid_s", interval)
            self.record("grid_points", GRID_RES * GRID_RES)

        return f"grid around c{n} --axis {axis}", op

    def evaluate(self, kind, n, data):
        if kind == "distinct":
            lam, mu = data

            def value():
                return symdisc.kernel_gn(lam, mu).value

            def reference():
                return kernel_mp(lam, mu), DISTINCT_TOL

        else:
            lnodes, lmults, mnodes, mmults = data
            lam, mu = expand(lnodes, lmults), expand(mnodes, mmults)

            def value():
                return symdisc.kernel_gn_stable(symdisc.elem_sym(lam), symdisc.elem_sym(mu)).value

            def reference():
                return confluent_kernel_mp(lnodes, lmults, mnodes, mmults), COINCIDENT_TOL

        def op():
            interval, got = timed(value)
            ref, tol = reference()
            rel = abs(got - ref) / abs(ref)
            expect(rel <= tol, f"relative error {rel:.2e} above {tol:.0e}")
            self.record("eval_s", interval)

        return f"eval {kind} n={n} lambda={lam} mu={mu}", op

    def eval_ops(self, c: int):
        while c >= len(self.evals):
            self.evals.append(eval_set(self.seed, len(self.evals)))
        return [self.evaluate(*e) for e in self.evals[c]]

    def sample_set(self, c: int):
        return [self.sample(mode, extra, c, j) for j, (mode, extra) in enumerate(SAMPLE_JOBS)]

    def scan_probe(self, long_ops):
        """Probe groups: one per entry of `long_ops`, PROBE_EVAL_SETS eval
        sets, PROBE_SAMPLE_SETS of a sample job per mode and two of a grid
        per axis around the n = 7 certificate, each kind spread over the
        run."""
        grids = [self.grid(7, axis) for axis in GRID_AXES]
        short = interleave(
            [self.eval_ops(c) for c in range(PROBE_EVAL_SETS)],
            interleave([self.sample_set(c) for c in range(PROBE_SAMPLE_SETS)], [grids, grids]),
        )
        return interleave([[op] for op in long_ops], short)

    def ladder(self) -> dict:
        """Lift the checked n = 7 certificate toward LADDER_TOP, stopping
        at the first failure; the outcome is information, not a timing."""
        outcome = {"start_n": 7, "error": None, "message": None}
        start = time.perf_counter()
        try:
            expect(7 in self.certs, "no checked n=7 certificate to start from")
            cert = zerofind.ZeroCertificate.from_dict(json.loads(self.certs[7].read_text()))
            while cert.n < LADDER_TOP:
                cert = zerofind.lift_zero(cert)
                check_certificate(cert)
                self.max_n = max(self.max_n, cert.n)
        except (CheckFailed, SymdiscError, ValueError) as exc:
            outcome["error"] = type(exc).__name__
            outcome["message"] = str(exc)[:300]
        outcome["seconds"] = time.perf_counter() - start
        outcome["max_n_certified"] = self.max_n
        return outcome

    def seconds(self, key: str) -> list[float]:
        """The timing samples under `key` in seconds of the run's clock."""
        expect(bool(self.samples.get(key)), f"no successful samples for {key}")
        return [self.clock.seconds(start, end) for start, end in self.samples[key]]

    def wall_medians(self) -> dict:
        """Median wall seconds per timing key, for the run's info line."""
        return {
            key: statistics.median(end - start for start, end in values)
            for key, values in self.samples.items()
            if key.endswith("_s")
        }

    def metrics(self) -> dict:
        def median(key):
            return statistics.median(self.seconds(key))

        def rate(amount, key):
            return sum(self.samples[amount]) / sum(self.seconds(key))

        latency = self.seconds("eval_s")
        expect(len(latency) >= MIN_EVALS, f"{len(latency)} point evaluations, fewer than {MIN_EVALS}")
        return {
            "find_zero_n7_s": median("find_zero_n7_s"),
            "recertify_s": median("recertify_s"),
            "max_n_certified": self.max_n,
            "verify_paper_s": median("verify_paper_s"),
            "sample_pairs_per_s": rate("sample_pairs", "sample_s"),
            "grid_points_per_s": rate("grid_points", "grid_s"),
            "eval_p50_ms": 1e3 * statistics.median(latency),
            "eval_p90_ms": 1e3 * statistics.quantiles(latency, n=10)[-1],
        }


def interleave(a: list, b: list) -> list:
    """The items of a and b, each list spread evenly over the result."""
    keyed = [((i + 0.5) / len(a), 0, x) for i, x in enumerate(a)]
    keyed += [((i + 0.5) / len(b), 1, x) for i, x in enumerate(b)]
    return [x for _, _, x in sorted(keyed, key=lambda k: k[:2])]


def setup_ops(ops) -> None:
    """Fixture and warm-up operations: a failure here stops the run."""
    for label, op in ops:
        try:
            op()
        except (CheckFailed, SymdiscError, ValueError, ArithmeticError, OSError) as exc:
            raise SystemExit(f"perfbench: set-up operation {label!r} failed: {exc}") from exc


class Certify(Workload):
    """find-zero 7 at the CLI defaults, then at seeded (rho, mu_1) draws,
    each read back and recertified; afterwards the lift ladder from the
    first certificate."""

    name = "certify"
    TRACE_CYCLES = 3
    LADDER = True

    def setup(self) -> None:
        self.draws = [certify_draw(self.seed, i) for i in range(64)]
        # the warm-up: find-zero 3 runs the CLI, the n = 3 construction
        # and the read-back checks
        setup_ops([self.find_zero(3)])

    def cycle(self, c: int):
        # cycle 0 builds the certificate the grid probes and the ladder use
        if c == 0:
            return [self.find_zero(7, key="find_zero_n7_s")]
        while c > len(self.draws):
            self.draws.append(certify_draw(self.seed, len(self.draws)))
        rho, mu1 = self.draws[c - 1]
        return [self.find_zero(7, rho, mu1, key="find_zero_n7_s")]

    def probes(self):
        return self.scan_probe([self.verify(), self.verify()])


class Verify(Workload):
    """verify-paper at the default 1000 samples with the workload seed."""

    name = "verify"
    TRACE_CYCLES = 3

    def setup(self) -> None:
        # the warm-up runs every check of verify-paper on fewer samples
        setup_ops([self.verify(samples=WARM_UP_VERIFY_SAMPLES)])

    def cycle(self, c: int):
        return [self.verify()]

    def probes(self):
        # the first group builds the n = 7 certificate the others read
        fz7 = self.find_zero(7, key="find_zero_n7_s")
        rc7 = self.recertify(7)
        return [[fz7], *self.scan_probe([rc7, fz7, rc7])]


class Scan(Workload):
    """Per cycle: sample twice in each of the three modes, grid on three
    axes around the n = 3 and n = 7 fixtures, and 2 x 27 point
    evaluations."""

    name = "scan"
    TRACE_CYCLES = 2

    def setup(self) -> None:
        setup_ops([self.find_zero(3), self.find_zero(7), self.grid(7, "z")])

    def cycle(self, c: int):
        ops = []
        for k in range(SCAN_SAMPLE_SETS):
            ops += self.sample_set(SCAN_SAMPLE_SETS * c + k)
        ops += [self.grid(n, axis) for n in (3, 7) for axis in GRID_AXES]
        for e in range(SCAN_EVAL_SETS):
            ops += self.eval_ops(SCAN_EVAL_SETS * c + e)
        return ops

    def probes(self):
        fz7 = self.find_zero(7, key="find_zero_n7_s")
        rc7 = self.recertify(7)
        verify = self.verify()
        return [[fz7], [rc7], [verify], [rc7], [rc7], [fz7], [rc7], [verify], [rc7], [rc7], [verify]]


WORKLOADS = {w.name: w for w in (Certify, Verify, Scan)}
