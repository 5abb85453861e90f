"""Acceptance suite: one test per criterion, each printing a summary line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines alongside the pytest verdicts.
"""

import cmath
import json
import math
import time

import numpy as np
import pytest

from symdisc import cli, exactfield, kernel, symcore, zerofind

from .conftest import draw_disc_tuple, expand_clusters, multiset_close
from .oracles import extrapolated_confluent_kernel


def _report(num, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num}: {status} - {detail}")
    assert ok, detail


def test_criterion_1_exact_verification(tmp_path):
    start = time.perf_counter()
    code = cli.main(["verify-paper", "--out", str(tmp_path / "log.txt")])
    elapsed = time.perf_counter() - start
    text = (tmp_path / "log.txt").read_text()
    ok = code == 0 and "[FAIL]" not in text and elapsed < 10.0
    _report(
        1,
        ok,
        f"verify-paper exit={code}, {text.count('[PASS]')} checks passed, {elapsed:.2f}s (< 10 s)",
    )


def test_criterion_2_root_reproduction():
    import mpmath as mp

    mp.mp.dps = 60
    s3 = mp.sqrt(3)
    x0_hp = (6 - 3 * s3 - mp.sqrt(40 * s3 - 69)) / (mp.sqrt(2) * (3 * s3 - 5))
    in_interval = 0 < x0_hp < 1
    near_stated = abs(float(x0_hp) - 0.983345) <= 1e-5

    roots = zerofind.solve_abc_quadratic(kernel.abc_coeffs(zerofind.TORUS_BASE))
    small = min(roots, key=abs)
    target = cmath.exp(-1j * math.pi / 4) * float(x0_hp)
    reproduces = abs(small - target) <= 1e-10
    _report(
        2,
        in_interval and near_stated and reproduces,
        f"x0={float(x0_hp):.8f} in (0,1), |x0-0.983345|={abs(float(x0_hp)-0.983345):.2e} <= 1e-5, "
        f"|root - e^(-i pi/4) x0|={abs(small-target):.2e} <= 1e-10",
    )


def test_criterion_3_zero_dim3(tmp_path):
    out = tmp_path / "c3.json"
    start = time.perf_counter()
    code = cli.main(["find-zero", "3", "--out", str(out)])
    elapsed = time.perf_counter() - start
    cert = zerofind.ZeroCertificate.from_dict(json.loads(out.read_text()))
    moduli_ok = all(abs(c) < 1 for c in (*cert.lam, *cert.mu))
    distinct_ok = len(set(cert.lam)) == 3 and len(set(cert.mu)) == 3
    witness_ok = cert.fn_witness.value_abs > 1e3 * cert.tolerances["residual_rel"]
    ok = (
        code == 0
        and cert.residual_rel < 1e-10
        and moduli_ok
        and distinct_ok
        and witness_ok
        and elapsed < 1.0
    )
    _report(
        3,
        ok,
        f"residual={cert.residual_rel:.2e} (< 1e-10), moduli<1={moduli_ok}, distinct={distinct_ok}, "
        f"witness |per C|/per |C|={cert.fn_witness.value_abs:.2e} > 1e3*tol, {elapsed:.2f}s (< 1 s)",
    )


def test_criterion_4_lifted_zeros():
    start = time.perf_counter()
    cert = zerofind.build_certificate_chain(6)
    elapsed = time.perf_counter() - start
    chain = {}
    node = cert
    while node is not None:
        chain[node.n] = node
        node = node.parent
    residuals_ok = all(chain[n].residual_rel < 1e-8 for n in (4, 5, 6))
    appended_ok = all(
        chain[n].lam[-1] == chain[n].mu[-1]
        and chain[n].lam[-1].real > 0
        and chain[n].lam[-1].imag == 0
        for n in (4, 5, 6)
    )
    ok = residuals_ok and appended_ok and elapsed < 30.0
    _report(
        4,
        ok,
        "residuals "
        + ", ".join(f"n={n}: {chain[n].residual_rel:.2e}" for n in (4, 5, 6))
        + f" (< 1e-8 each), appended coords shared/real/positive={appended_ok}, "
        f"{elapsed:.1f}s (< 30 s)",
    )


def test_criterion_5_closed_form_equivalence():
    out = kernel.closed_form_comparison(samples=1000, seed=0)
    ok = out["max_rel_diff"] < 1e-9
    _report(
        5,
        ok,
        f"max relative difference over {out['samples']} seeded points: "
        f"{out['max_rel_diff']:.2e} (< 1e-9)",
    )


def test_criterion_6_confluent_consistency():
    rng = np.random.default_rng(2024)
    worst = 0.0
    cases = 0
    while cases < 100:
        n_cluster = rng.integers(1, 4)
        patterns = {
            1: ([2], 2),
            2: ([2, 1], 3) if rng.random() < 0.5 else ([3], 3),
            3: ([2, 2], 4) if rng.random() < 0.5 else ([3, 1], 4),
        }[int(n_cluster)]
        lmults, n = patterns
        # mu side: confluent half the time
        if rng.random() < 0.5:
            mmults = list(lmults)
        else:
            mmults = [1] * n
        lnodes = _separated_nodes(rng, len(lmults))
        mnodes = _separated_nodes(rng, len(mmults))
        got = kernel.kernel_gn(
            expand_clusters(lnodes, lmults), expand_clusters(mnodes, mmults)
        ).value
        oracle = extrapolated_confluent_kernel(lnodes, lmults, mnodes, mmults)
        worst = max(worst, abs(got - oracle) / abs(oracle))
        cases += 1
    ok = worst < 1e-6
    _report(6, ok, f"max relative gap to extrapolation over {cases} confluent cases: {worst:.2e} (< 1e-6)")


def _separated_nodes(rng, count, radius=0.65, min_gap=0.3):
    while True:
        pts = radius * np.sqrt(rng.random(count)) * np.exp(2j * np.pi * rng.random(count))
        if all(
            abs(pts[i] - pts[j]) >= min_gap for i in range(count) for j in range(i + 1, count)
        ):
            return [complex(c) for c in pts]


def test_criterion_7_property_suite():
    rng = np.random.default_rng(77)
    herm_worst = perm_worst = 0.0
    for _ in range(150):
        n = int(rng.integers(2, 6))
        lam = draw_disc_tuple(rng, n)
        mu = draw_disc_tuple(rng, n)
        k1 = kernel.kernel_gn(lam, mu).value
        k2 = kernel.kernel_gn(mu, lam).value
        herm_worst = max(herm_worst, abs(k2 - k1.conjugate()) / abs(k1))
        order = rng.permutation(n)
        k3 = kernel.kernel_gn(tuple(lam[i] for i in order), mu).value
        perm_worst = max(perm_worst, abs(k3 - k1) / abs(k1))
    hermitian_ok = herm_worst < 1e-12
    permutation_ok = perm_worst < 1e-12

    diag = zerofind.sample_nonvanishing("diagonal", 10_000, seed=11, n=3)
    diagonal_ok = diag.diag_min_real > 0 and diag.diag_max_imag_ratio < 1e-9

    rt_worst = 0.0
    for _ in range(150):
        n = int(rng.integers(2, 9))
        lam = draw_disc_tuple(rng, n, radius=0.93, min_gap=1e-3)
        rec = symcore.roots_from_sym(symcore.elem_sym(lam))
        assert multiset_close(rec, lam, 1e-9)
        rt_worst = max(
            rt_worst,
            max(min(abs(r - x) for r in rec) for x in lam),
        )
    roundtrip_ok = rt_worst < 1e-9

    ok = hermitian_ok and permutation_ok and diagonal_ok and roundtrip_ok
    _report(
        7,
        ok,
        f"hermitian {herm_worst:.2e} (< 1e-12), permutation {perm_worst:.2e} (< 1e-12), "
        f"diagonal min real {diag.diag_min_real:.2e} > 0 on 10^4 samples, "
        f"round-trip {rt_worst:.2e} (< 1e-9)",
    )


def test_criterion_8_nonvanishing_sampling():
    start = time.perf_counter()
    g2 = zerofind.sample_nonvanishing("g2_full", 100_000, seed=0)
    g3 = zerofind.sample_nonvanishing("g3_equal_third", 100_000, seed=0)
    elapsed = time.perf_counter() - start
    ok = (
        g2.min_scaled_abs > 0
        and not g2.zero_found
        and g3.min_scaled_abs > 0
        and not g3.zero_found
        and elapsed < 60.0
    )
    _report(
        8,
        ok,
        f"g2_full min |per C| / per |C| = {g2.min_scaled_abs:.2e} > 0, "
        f"g3_equal_third min = {g3.min_scaled_abs:.2e} > 0, over 1e5 samples each, "
        f"{elapsed:.1f}s (< 60 s)",
    )
