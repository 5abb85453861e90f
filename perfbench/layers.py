"""Traced run: in-memory spans around the public functions of each symdisc module.

The wrappers are installed from the benchmark's own code: every module
attribute that is one of the traced functions is replaced, so a function
imported by name into another module (``zerofind.delta_n`` as well as
``kernel.delta_n``) is traced at each binding site, and calls inside a
module go through the wrapper because they look the name up at call
time.  Nothing is traced unless a ``Tracer`` is installed.
"""

from __future__ import annotations

import contextlib
import functools
import time
from collections import defaultdict

# Layer name -> traced public functions of that module.  ``main`` of the cli
# is named after its subcommand, so each subcommand gets its own span name.
TRACED = {
    "cli": ("main",),
    "zerofind": (
        "build_certificate_chain",
        "construct_zero_dim3",
        "lift_zero",
        "count_zeros_disc",
        "fn_nontrivial",
        "recertify",
        "sample_nonvanishing",
        "moment_identity_check",
    ),
    "kernel": (
        "delta_n",
        "det_pivoted",
        "kernel_gn",
        "kernel_gn_stable",
        "batch_kernel",
        "batch_cauchy_power",
        "closed_form_comparison",
        "reduction_chain_check",
    ),
    "exactfield": (
        "verify_base_point_identities",
        "verify_bracket_identities",
        "alg_sign",
    ),
    "symcore": ("elem_sym", "roots_from_sym", "in_gn"),
}

# Failures raised inside symcore or on its results; counted once each.
SYMCORE_FAILURES = ("SolverFailure", "NotInDomain")


class Tracer:
    """Records one span per traced call: (name, start, end, parent index).

    Use as a context manager, as often as needed: spans accumulate, and
    the original functions are restored on each exit.
    """

    def __init__(self):
        import symdisc
        from symdisc import cli, errors  # noqa: F401  (loads every layer module)

        self._modules = (symdisc, *(getattr(symdisc, layer) for layer in TRACED))
        self._originals = {}
        for layer, names in TRACED.items():
            for name in names:
                fn = getattr(getattr(symdisc, layer), name)
                self._originals[id(fn)] = (fn, f"{layer}.{name}")
        self._failure_types = tuple(getattr(errors, n) for n in SYMCORE_FAILURES)
        self._patched = []
        self.spans = []  # (name, start, end, parent)
        self._stack = []
        self.returned = defaultdict(int)
        self.counts = defaultdict(int)

    def __enter__(self):
        for module in self._modules:
            for attr, value in list(vars(module).items()):
                entry = self._originals.get(id(value))
                if entry is not None and entry[0] is value:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, self._wrap(*entry))
        return self

    def __exit__(self, *exc):
        for module, attr, value in reversed(self._patched):
            setattr(module, attr, value)
        self._patched.clear()
        return False

    def _wrap(self, fn, name):
        tracer = self

        if name == "cli.main":

            @functools.wraps(fn)
            def wrapper(argv=None):
                return tracer._call(f"cli.{argv[0]}", fn, (argv,), {})

        elif name == "kernel.batch_cauchy_power":

            @functools.wraps(fn)
            def wrapper(lams, mus):
                tracer.counts["kernel.batch.pairs"] += len(lams)
                return tracer._call(name, fn, (lams, mus), {})

        else:

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                return tracer._call(name, fn, args, kwargs)

        return wrapper

    def _call(self, name, fn, args, kwargs):
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        self.spans.append(None)
        self._stack.append(index)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except self._failure_types as exc:
            if not getattr(exc, "_bench_counted", False):
                exc._bench_counted = True
                self.counts["symcore.failures"] += 1
            raise
        else:
            self.returned[name] += 1
            return result
        finally:
            self.spans[index] = (name, start, time.perf_counter(), parent)
            self._stack.pop()

    def summary(self):
        """Per span name: calls, inclusive seconds and self seconds (the
        span's duration minus the durations of its direct children)."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls = defaultdict(int)
        total = defaultdict(float)
        own = defaultdict(float)
        for i, (name, start, end, parent) in enumerate(self.spans):
            calls[name] += 1
            total[name] += end - start
            own[name] += end - start - child[i]
        return calls, total, own

    def root_seconds(self) -> float:
        """Time covered by spans that have no traced parent."""
        return sum(end - start for _, start, end, parent in self.spans if parent < 0)


def layer_value(name: str, tracer: Tracer, summary) -> float:
    """A per-layer metric by its registered name: ``<span>.calls``,
    ``<span>.s`` (inclusive), ``<span>.self_s``, ``layer.<layer>.self_s``
    or one of the counters."""
    calls, total, own = summary
    if name == "zerofind.lift.windings_per_lift":
        return calls["zerofind.count_zeros_disc"] / max(tracer.returned["zerofind.lift_zero"], 1)
    if name.startswith("layer."):
        layer = name.split(".")[1]
        return sum(v for k, v in own.items() if k.split(".")[0] == layer)
    if name in ("kernel.batch.pairs", "symcore.failures"):
        return tracer.counts[name]
    span, _, kind = name.rpartition(".")
    return {"calls": calls, "s": total, "self_s": own}[kind][span]


def traced_run(workload, names: list[str], info: dict) -> dict:
    """Run the workload's first TRACE_CYCLES cycles twice each, untraced
    and traced back to back (alternating which goes first), so both
    halves see the same inputs and machine state; certify also lifts its
    ladder under a separate tracer.

    trace.overhead_s is traced minus untraced wall time and
    trace.unattributed_s the traced wall time outside every span (the
    benchmark's own checks and bookkeeping).
    """
    tracer = Tracer()
    untraced = traced = 0.0
    for c in range(workload.TRACE_CYCLES):
        for traced_half in ((False, True) if c % 2 == 0 else (True, False)):
            with tracer if traced_half else contextlib.nullcontext():
                start = time.perf_counter()
                workload.run_cycles(c, 1)
                seconds = time.perf_counter() - start
            if traced_half:
                traced += seconds
            else:
                untraced += seconds
    summary = tracer.summary()
    metrics = {
        "trace.untraced_s": untraced,
        "trace.traced_s": traced,
        "trace.overhead_s": traced - untraced,
        "trace.unattributed_s": traced - tracer.root_seconds(),
        "trace.spans": len(tracer.spans),
        "ladder.s": 0.0,
        "ladder.count_zeros_disc.calls": 0,
    }
    info["trace_cycles"] = workload.TRACE_CYCLES
    if workload.LADDER:
        with Tracer() as ladder_tracer:
            info["ladder"] = workload.ladder()
        metrics["ladder.s"] = info["ladder"]["seconds"]
        metrics["ladder.count_zeros_disc.calls"] = ladder_tracer.summary()[0]["zerofind.count_zeros_disc"]
    for name in names:
        if name not in metrics:
            metrics[name] = layer_value(name, tracer, summary)
    return {name: metrics[name] for name in names}
