import cmath
import json
import math
from pathlib import Path

import numpy as np
import pytest

from symdisc.cli import main, parse_complex
from symdisc.kernel import kernel_gn
from symdisc.zerofind import ZeroCertificate, recertify

from .oracles import extrapolated_confluent_kernel


def run(args):
    return main(args)


def test_parse_complex():
    assert parse_complex("1.5,-2") == complex(1.5, -2)
    import argparse

    with pytest.raises(argparse.ArgumentTypeError):
        parse_complex("1.5")
    with pytest.raises(argparse.ArgumentTypeError):
        parse_complex("a,b")


def test_verify_paper_passes(tmp_path, capsys):
    out = tmp_path / "log.txt"
    assert run(["verify-paper", "--samples", "150", "--out", str(out)]) == 0
    text = out.read_text()
    assert text.count("[PASS]") >= 12
    assert "[FAIL]" not in text


def test_verify_paper_fault_injection(tmp_path):
    out = tmp_path / "log.txt"
    assert run(["verify-paper", "--fault-inject", "p-coeff", "--samples", "100", "--out", str(out)]) == 1
    text = out.read_text()
    assert text.count("[FAIL]") == 1
    assert "p-subst" in text


def test_verify_paper_json(tmp_path):
    out = tmp_path / "log.json"
    assert run(["verify-paper", "--samples", "100", "--format", "json", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["passed"] is True
    assert all(
        isinstance(check["passed"], bool)
        for report in payload["reports"]
        for check in report["checks"]
    )


@pytest.mark.parametrize("samples", ["0", "-5"])
def test_verify_paper_rejects_non_positive_samples(samples, tmp_path, capsys):
    # a check over no points would pass vacuously
    out = tmp_path / "log.txt"
    assert run(["verify-paper", "--samples", samples, "--out", str(out)]) == 2
    assert "--samples must be at least 1" in capsys.readouterr().err
    assert not out.exists()


def test_find_zero_three(tmp_path, capsys):
    out = tmp_path / "c3.json"
    assert run(["find-zero", "3", "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "residual_rel" in printed
    cert = ZeroCertificate.from_dict(json.loads(out.read_text()))
    assert cert.n == 3 and cert.residual_rel < 1e-10


def test_find_zero_rejects_small_dimension(capsys):
    assert run(["find-zero", "2"]) == 2


@pytest.mark.parametrize("scaling", [["--rho", "1.5"], ["--rho", "0.9999", "--mu1", "0.999"]])
def test_find_zero_rejects_bad_scaling_as_usage(scaling, capsys):
    # 0 < rho < mu1 < 1 is a condition on the input, so exit 2, not 3
    assert run(["find-zero", "7", *scaling]) == 2
    err = capsys.readouterr().err
    assert "need 0 < rho < mu1_modulus < 1" in err and "numerical failure" not in err


def test_find_zero_reproducible(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    assert run(["find-zero", "4", "--out", str(a)]) == 0
    assert run(["find-zero", "4", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_lift_subcommand(tmp_path):
    c3 = tmp_path / "c3.json"
    c4 = tmp_path / "c4.json"
    assert run(["find-zero", "3", "--out", str(c3)]) == 0
    assert run(["lift", "--cert", str(c3), "--out", str(c4)]) == 0
    cert = ZeroCertificate.from_dict(json.loads(c4.read_text()))
    assert cert.n == 4
    assert cert.parent is not None and cert.parent.n == 3
    again = recertify(cert)
    assert again["residual_rel"] <= 2 * max(cert.residual_rel, 1e-300)


def _tampered(tmp_path, name, change):
    """A valid n = 3 certificate file with one field changed."""
    good = tmp_path / "c3.json"
    if not good.exists():
        assert run(["find-zero", "3", "--out", str(good)]) == 0
    data = json.loads(good.read_text())
    change(data)
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return path


@pytest.mark.parametrize(
    "flag", ["--disc-radius", "--append-step", "--max-retries", "--tol-cert", "--tol-lift", "--seed"]
)
def test_lift_tuning_flags_are_gone(flag, tmp_path, capsys):
    for argv in (["find-zero", "4"], ["lift", "--cert", str(tmp_path / "c3.json")]):
        with pytest.raises(SystemExit) as exc:
            run([*argv, flag, "0.5"])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


def test_common_options_follow_the_subcommand(tmp_path, capsys):
    # before the subcommand --seed is not an option of the program, so it
    # cannot be silently replaced by the subcommand's default
    with pytest.raises(SystemExit) as exc:
        run(["--seed", "5", "sample", "g2_full", "--count", "10"])
    assert exc.value.code == 2
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for path, seed in ((a, "0"), (b, "5")):
        assert run(["sample", "g2_full", "--count", "10", "--seed", seed, "--format", "json", "--out", str(path)]) == 0
    assert json.loads(a.read_text())["seed"] == 0 and json.loads(b.read_text())["seed"] == 5


def test_lift_rechecks_the_loaded_residual(tmp_path, capsys):
    # a moved coordinate passes validate() but not recertify()
    def move(data):
        data["lambda"][0][0] += 1e-6

    path = _tampered(tmp_path, "moved.json", move)
    assert ZeroCertificate.from_dict(json.loads(path.read_text())).validate() is None
    assert run(["lift", "--cert", str(path), "--out", str(tmp_path / "c4.json")]) == 3
    assert "recomputes" in capsys.readouterr().err
    assert not (tmp_path / "c4.json").exists()


def test_lift_validates_the_loaded_certificate(tmp_path, capsys):
    def outside(data):
        data["mu"][0] = [1.0, 0.0]

    path = _tampered(tmp_path, "outside.json", outside)
    assert run(["lift", "--cert", str(path)]) == 3
    assert "not in the unit disc" in capsys.readouterr().err


def test_grid_validates_the_loaded_certificate(tmp_path, capsys):
    def loose(data):
        data["residual_rel"] = 1e-3

    path = _tampered(tmp_path, "loose.json", loose)
    out = tmp_path / "slice.csv"
    assert run(["grid", "--around", str(path), "--res", "5", "--out", str(out)]) == 3
    assert "exceeds tolerance" in capsys.readouterr().err
    assert not out.exists()


def test_eval_subcommand(tmp_path):
    out = tmp_path / "eval.json"
    code = run(
        [
            "eval",
            "--n",
            "2",
            "--lambda",
            "0,0",
            "0.5,0",
            "--mu",
            "0,0",
            "0.5,0",
            "--format",
            "json",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["abs"] == pytest.approx(28 / (9 * math.pi**2), rel=1e-12)


def test_eval_dimension_mismatch():
    assert run(["eval", "--n", "3", "--lambda", "0,0", "--mu", "0,0"]) == 2


def test_eval_negative_coordinates_parse(tmp_path):
    out = tmp_path / "eval.json"
    args = ["--n", "2", "--format", "json", "--out", str(out)]
    assert run(["eval", "--lambda", "-0.3,0", "0.5,0", "--mu", "0,-0.2", "-.5,-0.1", *args]) == 0
    payload = json.loads(out.read_text())
    expected = kernel_gn((-0.3, 0.5), (-0.2j, -0.5 - 0.1j)).value
    assert complex(*payload["value"]) == pytest.approx(expected, rel=1e-15)


@pytest.mark.parametrize("bad", ["nan,0", "0,inf", "-inf,0"])
def test_eval_rejects_non_finite_coordinates(bad, capsys):
    with pytest.raises(SystemExit) as exc:
        run(["eval", "--n", "2", "--lambda", bad, "0.5,0", "--mu", "0,0", "0.5,0"])
    assert exc.value.code == 2
    assert "non-finite coordinate" in capsys.readouterr().err


def test_eval_rejects_coordinates_outside_disc(capsys):
    assert run(["eval", "--n", "2", "--lambda", "1,0", "0.5,0", "--mu", "0,0", "0.5,0"]) == 2
    assert run(["eval", "--n", "2", "--lambda", "0,0", "0.5,0", "--mu", "0,0", "0.6,-0.8"]) == 2
    assert "not in the open unit disc" in capsys.readouterr().err


def test_eval_repeated_coordinate_matches_oracle(tmp_path):
    out = tmp_path / "eval.json"
    code = run(
        ["eval", "--n", "2", "--lambda", "0.3,0", "0.3,0", "--mu", "0,0", "0.5,0",
         "--format", "json", "--out", str(out)]
    )
    assert code == 0
    payload = json.loads(out.read_text())
    oracle = extrapolated_confluent_kernel([0.3], [2], [0, 0.5], [1, 1])
    assert complex(*payload["value"]) == pytest.approx(oracle, rel=1e-6)


def test_sample_subcommand_reproducible(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    assert run(["sample", "g2_full", "--count", "3000", "--format", "json", "--out", str(a)]) == 0
    assert run(["sample", "g2_full", "--count", "3000", "--format", "json", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    payload = json.loads(a.read_text())
    assert payload["min_scaled_abs"] > 0
    assert payload["zero_found"] is False


@pytest.mark.parametrize("n", ["0", "-1"])
def test_sample_rejects_non_positive_dimension(n, capsys):
    assert run(["sample", "diagonal", "--n", n, "--count", "10"]) == 2
    assert "n must be positive" in capsys.readouterr().err


@pytest.mark.parametrize("mode", ["g2_full", "g3_equal_third"])
def test_sample_rejects_dimension_outside_diagonal_mode(mode, tmp_path, capsys):
    # these modes fix their dimension, so an --n would be ignored
    out = tmp_path / "s.json"
    assert run(["sample", mode, "--n", "5", "--count", "10", "--out", str(out)]) == 2
    assert "diagonal mode only" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--res", "0"], "--res must be at least 1"),
        (["--res", "-3"], "--res must be at least 1"),
        (["--width", "nan"], "--width must be finite and positive"),
        (["--width", "inf"], "--width must be finite and positive"),
        (["--width", "0"], "--width must be finite and positive"),
        (["--width", "-0.01"], "--width must be finite and positive"),
    ],
)
def test_grid_rejects_bad_resolution_and_width(flags, message, tmp_path, capsys):
    # rejected before the certificate is read: the file need not exist
    out = tmp_path / "slice.csv"
    assert run(["grid", "--around", str(tmp_path / "missing.json"), *flags, "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_grid_subcommand(tmp_path):
    c3 = tmp_path / "c3.json"
    grid = tmp_path / "slice.csv"
    assert run(["find-zero", "3", "--out", str(c3)]) == 0
    assert run(["grid", "--around", str(c3), "--res", "21", "--width", "0.02", "--out", str(grid)]) == 0
    lines = grid.read_text().strip().splitlines()
    assert lines[0] == "re,im,abs_k,arg_k"
    assert len(lines) == 1 + 21 * 21
    cert = json.loads(c3.read_text())
    min_abs = min(float(line.split(",")[2]) for line in lines[1:])
    assert min_abs <= max(10 * cert["kernel_abs"], 1e-10)


def test_grid_lambda_axis(tmp_path):
    c3 = tmp_path / "c3.json"
    grid = tmp_path / "slice.csv"
    assert run(["find-zero", "3", "--out", str(c3)]) == 0
    assert run(
        ["grid", "--around", str(c3), "--axis", "lambda1", "--res", "11", "--width", "0.001", "--out", str(grid)]
    ) == 0
    lines = grid.read_text().strip().splitlines()
    assert len(lines) == 1 + 11 * 11
    # each row is (lambda_1, |K|, arg K) at that point, as kernel_gn gives it
    cert = ZeroCertificate.from_dict(json.loads(c3.read_text()))
    rows = [[float(x) for x in line.split(",")] for line in lines[1:]]
    top = max(r[2] for r in rows)
    for re_, im_, abs_k, arg_k in rows:
        k = kernel_gn((complex(re_, im_), *cert.lam[1:]), cert.mu).value
        assert abs(abs_k * cmath.exp(1j * arg_k) - k) <= 1e-9 * top


def test_grid_z_axis_rejects_mu_one_zero(tmp_path, capsys):
    # z = conj(mu_2) / conj(mu_1) has no value: every row was inf, -inf, nan
    def mu_one_zero(data):
        data["mu"][0] = [0.0, 0.0]
        data["mu"][2] = [0.1, 0.0]

    path = _tampered(tmp_path, "mu1zero.json", mu_one_zero)
    out = tmp_path / "slice.csv"
    assert run(["grid", "--around", str(path), "--axis", "z", "--res", "5", "--out", str(out)]) == 2
    assert "mu_1 = 0" in capsys.readouterr().err
    assert not out.exists()
    # the other axes do not divide by mu_1
    assert run(["grid", "--around", str(path), "--axis", "mu2", "--res", "5", "--out", str(out)]) == 0


def _grid_around(tmp_path, which):
    """A certificate file: find-zero 3's, or the pinned n = 7 chain."""
    if which == "c7":
        return Path(__file__).parent / "data" / "chain7_v1.json"
    path = tmp_path / "c3.json"
    assert run(["find-zero", "3", "--out", str(path)]) == 0
    return path


@pytest.mark.parametrize("which", ["c3", "c7"])
@pytest.mark.parametrize("axis", ["z", "lambda1", "mu2"])
def test_grid_rows_are_the_kernel_at_their_points(axis, which, tmp_path):
    path = _grid_around(tmp_path, which)
    res, width = 9, 0.01
    out = tmp_path / "slice.csv"
    assert run(["grid", "--around", str(path), "--axis", axis, "--res", str(res),
                "--width", str(width), "--out", str(out)]) == 0
    cert = ZeroCertificate.from_dict(json.loads(path.read_text()))
    lam, mu = list(cert.lam), list(cert.mu)
    # in complex128, as numpy divides (Python's complex division rounds differently)
    m1, m2 = np.conj(np.asarray(cert.mu[:2]))
    center = {"z": m2 / m1, "lambda1": lam[0], "mu2": mu[1]}[axis]
    offsets = (np.arange(res) - res // 2) * (width / (res // 2))
    lines = out.read_text().splitlines()
    assert lines[0] == "re,im,abs_k,arg_k" and len(lines) == 1 + res * res
    # the coordinate columns are "%.17g" of center + offsets, row by row
    expected = ["%.17g,%.17g" % (center.real + a, center.imag + b) for a in offsets for b in offsets]
    assert [line.rsplit(",", 2)[0] for line in lines[1:]] == expected
    rows = [[float(x) for x in line.split(",")] for line in lines[1:]]
    top = max(r[2] for r in rows)
    for re_, im_, abs_k, arg_k in rows:
        point = complex(re_, im_)
        if axis == "lambda1":
            lam[0] = point
        else:
            mu[1] = point.conjugate() * mu[0] if axis == "z" else point
        k = kernel_gn(lam, mu).value
        assert abs(abs_k * cmath.exp(1j * arg_k) - k) <= 1e-9 * top
