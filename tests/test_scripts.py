import json
import os
import subprocess
import sys
from pathlib import Path

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
    for mode in ("g2_full", "g3_equal_third", "diagonal"):
        report = json.loads((out / f"sampling_{mode}.json").read_text())
        assert report["mode"] == mode and report["samples"] == 2000
