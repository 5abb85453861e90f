import cmath
import json
import math
import re
import shlex
from pathlib import Path

import numpy as np
import pytest

from symdisc import kernel, zerofind
from symdisc.cli import main, parse_complex
from symdisc.errors import CertificationFailure
from symdisc.kernel import kernel_gn, numerator_error, permanent_exact
from symdisc.zerofind import ZeroCertificate, recertify

from .oracles import extrapolated_confluent_kernel, log_kernel_mp


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


def test_verify_paper_certifies_nothing(tmp_path, monkeypatch):
    # the moment check reads only the point of the dimension-3 zero
    def refuse(*args, **kwargs):
        raise AssertionError("verify-paper certified a zero")

    monkeypatch.setattr(zerofind, "construct_zero_dim3", refuse)
    monkeypatch.setattr(zerofind, "_certified", refuse)
    out = tmp_path / "log.txt"
    assert run(["verify-paper", "--samples", "100", "--out", str(out)]) == 0
    assert "[PASS] slice-moment-identity" in out.read_text()


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


def test_find_zero_three_is_the_root_of_every_chain(tmp_path):
    c3, c4 = tmp_path / "c3.json", tmp_path / "c4.json"
    assert run(["find-zero", "3", "--out", str(c3)]) == 0
    assert run(["find-zero", "4", "--out", str(c4)]) == 0
    root = json.loads(c4.read_text())
    while root["parent"] is not None:
        root = root["parent"]
    assert json.loads(c3.read_text()) == root


def _readme_commands():
    """The symdisc lines of the README's "Command line" block, as argv lists."""
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```")[1]
    lines = [line.split("#", 1)[0].strip() for line in block.splitlines()]
    return [shlex.split(line)[1:] for line in lines if line.startswith("symdisc ")]


def test_readme_command_line_block_runs(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    commands = _readme_commands()
    assert len(commands) == 11
    for argv in commands:
        expected = 1 if "--fault-inject" in argv else 0
        assert run(argv) == expected, argv
    capsys.readouterr()
    # the lift of find-zero 3's file is find-zero 4's, byte for byte
    assert run(["find-zero", "4", "--out", "c4-direct.json"]) == 0
    assert Path("c4.json").read_bytes() == Path("c4-direct.json").read_bytes()


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


def test_successive_calls_share_one_parser_and_leak_no_options(tmp_path, capsys):
    from symdisc import cli

    assert cli.build_parser() is cli.build_parser()
    # g2_full rejects --n, so an --n kept from the first call would fail it
    assert run(["sample", "diagonal", "--n", "6", "--count", "10"]) == 0
    assert run(["sample", "g2_full", "--count", "10"]) == 0
    # and a fault target kept from the first call would fail the second
    assert run(["verify-paper", "--fault-inject", "p-coeff", "--samples", "50"]) == 1
    assert run(["verify-paper", "--samples", "50"]) == 0
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert run(["sample", "g2_full", "--count", "10", "--seed", "5", "--format", "json", "--out", str(a)]) == 0
    assert run(["sample", "g2_full", "--count", "10", "--out", str(b)]) == 0
    assert json.loads(a.read_text())["seed"] == 5 and b.read_text().startswith("mode=g2_full samples=10 seed=0\n")


def test_lift_rechecks_the_loaded_residual(tmp_path, capsys):
    # a moved coordinate passes validate() but not recertify()
    def move(data):
        data["lambda"][0][0] += 1e-6

    path = _tampered(tmp_path, "moved.json", move)
    assert ZeroCertificate.from_dict(json.loads(path.read_text())).validate() is None
    assert run(["lift", "--cert", str(path), "--out", str(tmp_path / "c4.json")]) == 3
    assert "node n=3: residual 7.612e-07 exceeds tolerance 1.0e-10" in capsys.readouterr().err
    assert not (tmp_path / "c4.json").exists()


def test_lift_holds_a_node_without_tolerances_to_its_construction(tmp_path, capsys):
    # 23 times the dim3 tolerance, but within the lift tolerance a missing
    # field once fell back to
    def move(data):
        data["lambda"][0][0] += 3e-9
        del data["tolerances"]

    path = _tampered(tmp_path, "moved.json", move)
    assert run(["lift", "--cert", str(path), "--out", str(tmp_path / "c4.json")]) == 3
    assert "node n=3: residual 2.284e-09 exceeds tolerance 1.0e-10" in capsys.readouterr().err
    assert not (tmp_path / "c4.json").exists()


def test_lift_rechecks_every_ancestor(tmp_path, capsys):
    # the n = 3 parent of an n = 5 file, with lambda_1 moved: every node
    # still passes validate(), and the top two still recertify
    c5, c6 = tmp_path / "c5.json", tmp_path / "c6.json"
    assert run(["find-zero", "5", "--out", str(c5)]) == 0
    data = json.loads(c5.read_text())
    data["parent"]["parent"]["lambda"][0] = [0.5, 0.5]
    c5.write_text(json.dumps(data))
    for node in ZeroCertificate.from_dict(data).nodes():
        node.validate()
    capsys.readouterr()
    assert run(["lift", "--cert", str(c5), "--out", str(c6)]) == 3
    assert "node n=3: residual 4.035e-01 exceeds tolerance 1.0e-10" in capsys.readouterr().err
    assert not c6.exists()


def test_lift_rejects_a_stored_tolerance_that_is_not_the_constructions(tmp_path, capsys):
    # the moved n = 6 node recomputes to 7.6e-8, within the raised 1e-5 the
    # file states but not the lift tolerance 1e-8: the file cannot set it
    c6, c7 = tmp_path / "c6.json", tmp_path / "c7.json"
    assert run(["find-zero", "6", "--out", str(c6)]) == 0
    data = json.loads(c6.read_text())
    data["lambda"][0][0] += 1e-7
    data["tolerances"]["residual_rel"] = 1e-5
    c6.write_text(json.dumps(data))
    capsys.readouterr()
    assert run(["lift", "--cert", str(c6), "--out", str(c7)]) == 2
    assert "certificate field 'tolerances' is {'residual_rel': 1e-05}" in capsys.readouterr().err
    assert not c7.exists()


def test_lift_writes_the_rebuilt_chain_not_the_stored_numbers(tmp_path, capsys):
    # a tampered witness is not checked against anything: recheck replaces it
    c5, bad, good_out, bad_out = (tmp_path / name for name in ("c5.json", "bad.json", "c6.json", "bad6.json"))
    assert run(["find-zero", "5", "--out", str(c5)]) == 0
    data = json.loads(c5.read_text())
    data["fn_witness"]["value_abs"] = 123
    bad.write_text(json.dumps(data))
    capsys.readouterr()
    assert run(["lift", "--cert", str(c5), "--out", str(good_out)]) == 0
    printed = capsys.readouterr().out
    assert run(["lift", "--cert", str(bad), "--out", str(bad_out)]) == 0
    assert capsys.readouterr().out == printed and "witness_abs=1.230e+02" not in printed
    assert bad_out.read_bytes() == good_out.read_bytes()


def _find_zero(tmp_path, n, *options):
    """The record find-zero n writes."""
    path = tmp_path / f"c{n}{''.join(options)}.json"
    assert run(["find-zero", str(n), *options, "--out", str(path)]) == 0
    return json.loads(path.read_text())


def _refused(tmp_path, capsys, data):
    """stderr of lift --cert and of grid --around on a record, both of which
    have to exit 3 and write nothing."""
    path, out = tmp_path / "bad.json", tmp_path / "out"
    path.write_text(json.dumps(data))
    capsys.readouterr()
    errors = []
    for argv in (["lift", "--cert", str(path)], ["grid", "--around", str(path), "--res", "3"]):
        assert run([*argv, "--out", str(out)]) == 3
        assert not out.exists()
        errors.append(capsys.readouterr().err)
    return errors


def test_a_spliced_chain_is_refused(tmp_path, capsys):
    # the n = 7 node put directly over the n = 4 node of its own chain
    data = _find_zero(tmp_path, 7)
    data["parent"] = data["parent"]["parent"]["parent"]
    for err in _refused(tmp_path, capsys, data):
        assert "node n=7: a lift node has 5 coordinates, not 7" in err


def test_a_node_over_another_chains_parent_is_refused(tmp_path, capsys):
    # the same dimensions, but the n = 6 node of another chain: the n = 7
    # node does not keep its lambda_2..lambda_6
    data = _find_zero(tmp_path, 7)
    data["parent"] = _find_zero(tmp_path, 6, "--rho", "0.993", "--mu1", "0.997")
    for err in _refused(tmp_path, capsys, data):
        assert "node n=7: a lift keeps lambda_2..lambda_n and shares its new coordinate" in err


@pytest.mark.parametrize(
    "path, construction, message",
    [
        (["parent"], "dim3", "node n=4: construction 'dim3' contradicts the parent link"),
        (["parent", "parent"], "lift", "node n=3: construction 'lift' contradicts the parent link"),
    ],
    ids=["lift-relabelled-dim3", "root-relabelled-lift"],
)
def test_a_relabelled_node_is_refused(tmp_path, capsys, path, construction, message):
    # a node of find-zero 5 labelled with the other construction
    data = _find_zero(tmp_path, 5)
    node = data
    for key in path:
        node = node[key]
    node["construction"] = construction
    node.pop("tolerances")
    for err in _refused(tmp_path, capsys, data):
        assert message in err


def test_a_stated_n_other_than_the_coordinate_count_is_refused(tmp_path, capsys):
    data = _find_zero(tmp_path, 5)
    data["n"] = 4
    for err in _refused(tmp_path, capsys, data):
        assert "node n=5: certificate dimension mismatch: n=4 stated" in err


def test_a_moved_witness_point_is_not_kept(tmp_path, capsys):
    # the witness is taken at x = 0; a file stating another point reads as
    # the same certificate and lifts to the same bytes
    data = _find_zero(tmp_path, 5)
    moved = json.loads(json.dumps(data))
    moved["fn_witness"]["point"] = [0.3, 0.1]
    moved["parent"]["fn_witness"]["point"] = [0.3, 0.1]
    assert ZeroCertificate.from_dict(moved) == ZeroCertificate.from_dict(data)
    good, bad = tmp_path / "c5.json", tmp_path / "moved.json"
    bad.write_text(json.dumps(moved))
    assert run(["lift", "--cert", str(good), "--out", str(tmp_path / "good6.json")]) == 0
    assert run(["lift", "--cert", str(bad), "--out", str(tmp_path / "bad6.json")]) == 0
    assert (tmp_path / "bad6.json").read_bytes() == (tmp_path / "good6.json").read_bytes()


def test_lift_validates_the_loaded_certificate(tmp_path, capsys):
    def outside(data):
        data["mu"][0] = [1.0, 0.0]

    path = _tampered(tmp_path, "outside.json", outside)
    assert run(["lift", "--cert", str(path)]) == 3
    assert "not in the unit disc" in capsys.readouterr().err


def test_lift_rejects_a_nan_witness(tmp_path, capsys):
    # value_abs <= 0 is false for nan: the witness gate has to fail closed
    def nan_witness(data):
        data["fn_witness"] = {"point": [math.nan, 0.0], "value_abs": math.nan}

    path = _tampered(tmp_path, "nan_witness.json", nan_witness)
    assert run(["lift", "--cert", str(path), "--out", str(tmp_path / "c4.json")]) == 3
    assert "slice witness" in capsys.readouterr().err
    assert not (tmp_path / "c4.json").exists()


def test_grid_validates_the_loaded_certificate(tmp_path, capsys):
    def loose(data):
        data["residual_rel"] = 1e-3

    path = _tampered(tmp_path, "loose.json", loose)
    out = tmp_path / "slice.csv"
    assert run(["grid", "--around", str(path), "--res", "5", "--out", str(out)]) == 3
    assert "exceeds tolerance" in capsys.readouterr().err
    assert not out.exists()


def test_non_finite_coordinate_fails_validation(tmp_path, capsys):
    def nan_lambda(data):
        data["lambda"][0] = [math.nan, 0.0]

    path = _tampered(tmp_path, "nan.json", nan_lambda)
    with pytest.raises(CertificationFailure, match="not in the unit disc"):
        ZeroCertificate.from_dict(json.loads(path.read_text())).validate()
    out = tmp_path / "slice.csv"
    assert run(["grid", "--around", str(path), "--res", "5", "--out", str(out)]) == 3
    assert "not in the unit disc" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "point, value_abs",
    [
        ([0.0, 0.0], math.nan),
        ([0.0, 0.0], -1.0),
        ([0.0, 0.0], 0.0),
        ([0.0, 0.0], math.inf),
        ([math.nan, 0.0], 1.0),
        ([0.0, math.inf], 1.0),
    ],
    ids=["nan", "negative", "zero", "inf", "nan-point", "inf-point"],
)
def test_bad_witness_fails_validation(tmp_path, capsys, point, value_abs):
    def bad_witness(data):
        data["fn_witness"] = {"point": point, "value_abs": value_abs}

    path = _tampered(tmp_path, "witness.json", bad_witness)
    with pytest.raises(CertificationFailure, match="slice witness"):
        ZeroCertificate.from_dict(json.loads(path.read_text())).validate()
    for argv in (["grid", "--around", str(path), "--res", "5"], ["lift", "--cert", str(path)]):
        out = tmp_path / "out"
        assert run([*argv, "--out", str(out)]) == 3
        assert "slice witness" in capsys.readouterr().err
        assert not out.exists()


def _top_level_list(data):
    return [data]


def _no_witness(data):
    del data["fn_witness"]


def _string_coordinate(data):
    data["mu"][1] = [str(x) for x in data["mu"][1]]


def _string_tolerance(data):
    data["tolerances"]["residual_rel"] = "1e-8"


@pytest.mark.parametrize(
    "change, message",
    [
        (_top_level_list, "a certificate is a JSON object, not list"),
        (_no_witness, "certificate has no 'fn_witness' field"),
        (_string_coordinate, "certificate field 'mu' holds ["),
        (_string_tolerance, "certificate field 'tolerances' is {'residual_rel': '1e-8'}, not {'residual_rel': 1e-10}"),
    ],
    ids=["top-level-list", "no-witness", "string-coordinate", "string-tolerance"],
)
def test_malformed_certificate_is_a_usage_error(change, message, tmp_path, capsys):
    good = tmp_path / "c3.json"
    assert run(["find-zero", "3", "--out", str(good)]) == 0
    data = json.loads(good.read_text())
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(change(data) or data))
    for argv in (["lift", "--cert", str(path)], ["grid", "--around", str(path), "--res", "3"]):
        out = tmp_path / "out"
        assert run([*argv, "--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()


def test_eval_subcommand(tmp_path):
    out = tmp_path / "eval.json"
    code = run(
        [
            "eval",
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


def test_eval_reports_the_error_bound_of_the_float_permanent(tmp_path):
    rng = np.random.default_rng(17)
    lam, mu = (tuple((0.95 * np.sqrt(rng.random(5)) * np.exp(2j * np.pi * rng.random(5))).tolist()) for _ in range(2))
    coords = [f"{c.real!r},{c.imag!r}" for c in (*lam, *mu)]
    out = tmp_path / "eval.json"
    argv = ["eval", "--lambda", *coords[:5], "--mu", *coords[5:]]
    assert run([*argv, "--format", "json", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    size = np.abs(1.0 / (1.0 - np.multiply.outer(lam, np.conj(mu))))
    assert payload["permanent_error"] == numerator_error(size, payload["scale"]) > 0
    exact = permanent_exact(lam, mu)
    assert abs(complex(*payload["permanent"]) - exact) <= payload["permanent_error"]
    text = tmp_path / "eval.txt"
    assert run([*argv, "--out", str(text)]) == 0
    assert f"|per C - exact per C| <= {payload['permanent_error']:.6e}" in text.read_text()


def test_eval_writes_strict_json_where_k_overflows(tmp_path, capsys):
    # at the top node of find-zero 12, pi^n prod B is so small that K is
    # inf; the suite turns numpy's overflow warning into an error
    data = _find_zero(tmp_path, 12)
    coords = [f"{re!r},{im!r}" for re, im in (*data["lambda"], *data["mu"])]
    argv = ["eval", "--lambda", *coords[:12], "--mu", *coords[12:]]
    out, text = tmp_path / "eval.json", tmp_path / "eval.txt"
    capsys.readouterr()
    assert run([*argv, "--format", "json", "--out", str(out)]) == 0
    assert run([*argv, "--out", str(text)]) == 0
    assert capsys.readouterr().err == ""

    def refuse(name):
        raise ValueError(f"{name} is not JSON")

    payload = json.loads(out.read_text(), parse_constant=refuse)
    assert payload["abs"] is None and payload["value"] == [None, None]
    assert 0 < payload["permanent_rel"] < 1e-8 and math.isfinite(payload["scale"])
    assert "(|K| = inf)" in text.read_text()


def test_find_zero_13_certifies_where_pi_n_prod_b_underflows(tmp_path, capsys):
    # pi^13 prod B rounds to 0, so |K| is inf and written as null, as |K|
    # is at n = 12; the suite turns numpy's warnings into errors
    path, lifted = tmp_path / "c13.json", tmp_path / "l14.json"
    capsys.readouterr()
    assert run(["find-zero", "13", "--out", str(path)]) == 0
    assert capsys.readouterr().err == ""

    def refuse(name):
        raise ValueError(f"{name} is not JSON")

    data = json.loads(path.read_text(), parse_constant=refuse)
    assert data["n"] == 13 and data["kernel_abs"] is None
    assert 0 < data["residual_rel"] <= data["tolerances"]["residual_rel"]
    # read back, every node is rebuilt from its coordinates before the lift
    assert run(["lift", "--cert", str(path), "--out", str(lifted)]) == 0
    assert capsys.readouterr().err == ""
    top = json.loads(lifted.read_text(), parse_constant=refuse)
    assert top["n"] == 14 and top["parent"] == data


def test_eval_dimension_mismatch(capsys):
    # the dimension is the number of --lambda values; --mu has to match it
    assert run(["eval", "--lambda", "0,0", "0.5,0", "--mu", "0,0"]) == 2
    assert "got 2 and 1" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:
        run(["eval", "--n", "2", "--lambda", "0,0", "0.5,0", "--mu", "0,0", "0.5,0"])
    assert exc.value.code == 2


def test_eval_negative_coordinates_parse(tmp_path):
    out = tmp_path / "eval.json"
    args = ["--format", "json", "--out", str(out)]
    assert run(["eval", "--lambda", "-0.3,0", "0.5,0", "--mu", "0,-0.2", "-.5,-0.1", *args]) == 0
    payload = json.loads(out.read_text())
    expected = kernel_gn((-0.3, 0.5), (-0.2j, -0.5 - 0.1j)).value
    assert complex(*payload["value"]) == pytest.approx(expected, rel=1e-15)


@pytest.mark.parametrize("bad", ["nan,0", "0,inf", "-inf,0"])
def test_eval_rejects_non_finite_coordinates(bad, capsys):
    with pytest.raises(SystemExit) as exc:
        run(["eval", "--lambda", bad, "0.5,0", "--mu", "0,0", "0.5,0"])
    assert exc.value.code == 2
    assert "non-finite coordinate" in capsys.readouterr().err


def test_eval_rejects_coordinates_outside_disc(capsys):
    assert run(["eval", "--lambda", "1,0", "0.5,0", "--mu", "0,0", "0.5,0"]) == 2
    assert run(["eval", "--lambda", "0,0", "0.5,0", "--mu", "0,0", "0.6,-0.8"]) == 2
    assert "not in the open unit disc" in capsys.readouterr().err


def test_eval_repeated_coordinate_matches_oracle(tmp_path):
    out = tmp_path / "eval.json"
    code = run(
        ["eval", "--lambda", "0.3,0", "0.3,0", "--mu", "0,0", "0.5,0",
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
    assert run(["grid", "--around", str(c3), "--res", "21", "--width", "0.005", "--out", str(grid)]) == 0
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


def test_grid_rejects_an_unknown_axis(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        run(["grid", "--around", str(tmp_path / "c3.json"), "--axis", "bogus"])
    assert exc.value.code == 2
    assert "invalid choice: 'bogus'" in capsys.readouterr().err


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
    # 0.001 keeps every square inside the domain (the narrowest limit,
    # lambda1 around the n = 7 node, is 0.00165)
    res, width = 9, 0.001
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


def _moving_coordinates(path, axis, csv):
    """The coordinate each row of a grid CSV moves, and the half-width of
    the square its rows span."""
    cert = ZeroCertificate.from_dict(json.loads(path.read_text()))
    rows = np.loadtxt(csv, delimiter=",", skiprows=1, ndmin=2)
    points = rows[:, 0] + 1j * rows[:, 1]
    moving = np.conj(points) * cert.mu[0] if axis == "z" else points
    return moving, (rows[:, 0].max() - rows[:, 0].min()) / 2


@pytest.mark.parametrize("which", ["c3", "c7"])
@pytest.mark.parametrize("axis", ["z", "lambda1", "mu2"])
def test_grid_default_width_keeps_the_square_in_the_domain(axis, which, tmp_path):
    # at width 0.05 a third or more of these rows lay outside the unit disc
    path = _grid_around(tmp_path, which)
    out = tmp_path / "slice.csv"
    assert run(["grid", "--around", str(path), "--axis", axis, "--res", "21", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "re,im,abs_k,arg_k" and len(lines) == 1 + 21 * 21
    moving, half_width = _moving_coordinates(path, axis, out)
    assert np.abs(moving).max() < 1
    assert all(math.isfinite(float(x)) for line in lines[1:] for x in line.split(","))
    # the largest width up to 0.05 with the square inside: its corner lies
    # within 2^-19 of the width from the circle
    cert = ZeroCertificate.from_dict(json.loads(path.read_text()))
    lam, mu = cert.lam, cert.mu
    center = {"z": mu[1].conjugate() / mu[0].conjugate(), "lambda1": lam[0], "mu2": mu[1]}[axis]
    scale = abs(mu[0]) if axis == "z" else 1.0
    assert half_width < 0.05
    for w, inside in ((half_width, True), (half_width * (1 + 2.0**-19), False)):
        corner = complex(abs(center.real) + w, abs(center.imag) + w)
        assert (abs(corner) * scale < 1) == inside


@pytest.mark.parametrize("axis", ["z", "lambda1", "mu2"])
def test_grid_refuses_a_width_that_leaves_the_domain(axis, tmp_path, capsys):
    path = _grid_around(tmp_path, "c3")
    out = tmp_path / "slice.csv"
    capsys.readouterr()
    assert run(["grid", "--around", str(path), "--axis", axis, "--width", "1", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "out of the unit disc" in err and not out.exists()
    limit = float(re.search(r"below --width (\S+)$", err.strip()).group(1))
    assert 0 < limit < 0.05
    # just past the limit is refused; just inside it is written
    assert run(["grid", "--around", str(path), "--axis", axis, "--width", repr(limit * 1.001),
                "--res", "5", "--out", str(out)]) == 2
    assert run(["grid", "--around", str(path), "--axis", axis, "--width", repr(limit * 0.999),
                "--res", "5", "--out", str(out)]) == 0
    moving, _ = _moving_coordinates(path, axis, out)
    assert np.abs(moving).max() < 1


@pytest.mark.parametrize("axis", ["z", "lambda1", "mu2"])
def test_grid_around_an_n13_node_takes_k_from_the_logs(axis, tmp_path, capsys, monkeypatch):
    # pi^13 prod B underflows to 0, so every float K is inf + inf j: the rows
    # take |K| (inf: it overflows) and arg K from the logs of the factors,
    # with no warning, which the suite would turn into an error
    path = tmp_path / "c13.json"
    assert run(["find-zero", "13", "--out", str(path)]) == 0
    out = tmp_path / "slice.csv"
    walks = []
    minors = kernel.fiber_minors
    monkeypatch.setattr(kernel, "fiber_minors", lambda *args: walks.append(args) or minors(*args))
    capsys.readouterr()
    assert run(["grid", "--around", str(path), "--axis", axis, "--res", "5", "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    # the minors of the fiber are walked once, for the finite and the lost rows
    assert len(walks) == 1
    rows = [[float(x) for x in line.split(",")] for line in out.read_text().splitlines()[1:]]
    assert len(rows) == 25 and all(abs_k == math.inf and -math.pi < arg_k <= math.pi for _, _, abs_k, arg_k in rows)
    assert len({arg_k for *_, arg_k in rows}) == 25
    cert = ZeroCertificate.from_dict(json.loads(path.read_text()))
    lam, mu = list(cert.lam), list(cert.mu)
    # two corners, away from the zero at the centre, against mpmath; the
    # float per C of the fiber's minors loses about 8 digits at n = 13
    for re_, im_, _, arg_k in (rows[0], rows[18]):
        point = complex(re_, im_)
        if axis == "lambda1":
            lam[0] = point
        else:
            mu[1] = point.conjugate() * mu[0] if axis == "z" else point
        log_abs, arg = log_kernel_mp(lam, mu)
        assert log_abs > math.log(np.finfo(float).max)
        assert abs(cmath.exp(1j * arg_k) - cmath.exp(1j * arg)) <= 1e-6
        if axis == "lambda1":
            fiber = (lam[1:], mu)
        else:
            fiber = (np.delete(mu, 1), lam)
        [[abs_k, fiber_arg]] = kernel.fiber_abs_arg([lam[0] if axis == "lambda1" else mu[1]], *fiber)
        # the fiber of mu2 and z carries conj K
        assert abs_k == math.inf
        assert abs(cmath.exp(1j * fiber_arg) - cmath.exp(1j * (arg if axis == "lambda1" else -arg))) <= 1e-6
