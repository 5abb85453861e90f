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
        r"^read-back: 3 nodes of 2 certificate files validated and recertified in \d+\.\d{3}s$",
        proc.stdout,
        re.MULTILINE,
    ), proc.stdout
    for mode in ("g2_full", "g3_equal_third", "diagonal"):
        report = json.loads((out / f"sampling_{mode}.json").read_text())
        assert report["mode"] == mode and report["samples"] == 2000


def test_reproduce_paper_exits_nonzero_when_a_read_back_fails(tmp_path, monkeypatch, capsys):
    spec = importlib.util.spec_from_file_location("reproduce_paper", ROOT / "scripts" / "reproduce_paper.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    recertify = zerofind.recertify

    def loose_at_n4(cert):
        # the n = 4 node recomputes above its tolerance
        return {**recertify(cert), "residual_rel": 1.0} if cert.n == 4 else recertify(cert)

    monkeypatch.setattr(zerofind, "recertify", loose_at_n4)
    argv = ["reproduce_paper.py", "--max-n", "4", "--samples", "10", "--out-dir", str(tmp_path)]
    monkeypatch.setattr(sys, "argv", argv)
    assert script.main() == 1
    printed = capsys.readouterr().out
    assert "read-back failed: certificate_n4.json, node n=4: residual recomputes to 1.000e+00" in printed
    assert not (tmp_path / "sampling_g2_full.json").exists()
