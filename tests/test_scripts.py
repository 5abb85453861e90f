import importlib.util
import json
import os
import re
import subprocess
import sys
from pathlib import Path

from symdisc import zerofind

ROOT = Path(__file__).resolve().parent.parent


def test_reproduce_paper_smoke(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    out = tmp_path / "out"
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "reproduce_paper.py"),
         "--max-n", "4", "--samples", "2000", "--out-dir", str(out)],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads((out / "verification.json").read_text())["passed"]
    assert json.loads((out / "certificate_n3.json").read_text())["n"] == 3
    chain = json.loads((out / "certificate_n4.json").read_text())
    assert chain["n"] == 4 and chain["parent"]["n"] == 3
    # the n = 3 file holds one node and the n = 4 file two
    assert re.search(
        r"^read-back: 3 nodes of 2 certificate files rebuilt and matched in \d+\.\d{3}s$",
        proc.stdout,
        re.MULTILINE,
    ), proc.stdout
    for mode in ("g2_full", "g3_equal_third", "diagonal"):
        report = json.loads((out / f"sampling_{mode}.json").read_text())
        assert report["mode"] == mode and report["samples"] == 2000


def _load_script():
    spec = importlib.util.spec_from_file_location("reproduce_paper", ROOT / "scripts" / "reproduce_paper.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    return script


def test_reproduce_paper_writes_and_reads_one_file_at_max_n_3(tmp_path, monkeypatch, capsys):
    script = _load_script()
    calls = []
    main = script.cli.main
    monkeypatch.setattr(script.cli, "main", lambda argv: (calls.append(argv[0]), main(argv))[1])
    argv = ["reproduce_paper.py", "--max-n", "3", "--samples", "10", "--out-dir", str(tmp_path)]
    monkeypatch.setattr(sys, "argv", argv)
    assert script.main() == 0
    assert calls.count("find-zero") == 1
    assert sorted(p.name for p in tmp_path.glob("certificate_*")) == ["certificate_n3.json"]
    assert re.search(
        r"^read-back: 1 nodes of 1 certificate files rebuilt and matched in \d+\.\d{3}s$",
        capsys.readouterr().out,
        re.MULTILINE,
    )


def test_reproduce_paper_fails_on_a_file_edited_between_write_and_read(tmp_path, monkeypatch, capsys):
    # a witness set to 123 passes recheck, which replaces it, but the
    # rebuilt chain no longer writes the file that was read
    script = _load_script()
    main = script.cli.main

    def edit_after_find_zero(argv):
        code = main(argv)
        if argv[0] == "find-zero" and argv[1] == "4":
            path = Path(argv[-1])
            data = json.loads(path.read_text())
            data["fn_witness"]["value_abs"] = 123
            path.write_text(json.dumps(data))
        return code

    monkeypatch.setattr(script.cli, "main", edit_after_find_zero)
    argv = ["reproduce_paper.py", "--max-n", "4", "--samples", "10", "--out-dir", str(tmp_path)]
    monkeypatch.setattr(sys, "argv", argv)
    assert script.main() == 1
    printed = capsys.readouterr().out
    assert "read-back failed: certificate_n4.json differs from the chain rebuilt from its coordinates" in printed
    assert "read-back failed: certificate_n3.json" not in printed
    assert not (tmp_path / "sampling_g2_full.json").exists()


def test_reproduce_paper_exits_nonzero_when_a_read_back_fails(tmp_path, monkeypatch, capsys):
    script = _load_script()
    recertify = zerofind.recertify

    def loose_at_n4(cert):
        # the n = 4 node recomputes above its tolerance
        return {**recertify(cert), "residual_rel": 1.0} if cert.n == 4 else recertify(cert)

    monkeypatch.setattr(zerofind, "recertify", loose_at_n4)
    argv = ["reproduce_paper.py", "--max-n", "4", "--samples", "10", "--out-dir", str(tmp_path)]
    monkeypatch.setattr(sys, "argv", argv)
    assert script.main() == 1
    printed = capsys.readouterr().out
    assert "read-back failed: certificate_n4.json, node n=4: residual 1.000e+00 exceeds tolerance 1.0e-08" in printed
    assert not (tmp_path / "sampling_g2_full.json").exists()
