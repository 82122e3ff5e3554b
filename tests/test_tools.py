import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _digest(*args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, str(ROOT / "tools" / "answer_digest.py"), *args],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_answer_digest_is_byte_stable():
    first = _digest("--max-n", "4")
    assert first == _digest("--max-n", "4")
    records = [json.loads(line) for line in first.splitlines()]
    # 10 atlas graphs with n <= 4 and radius >= 2 plus 6 fixtures, per
    # center; 18 atlas graphs plus the 6 fixtures profiled; no prism fits;
    # the 6 fixtures again under the small bound, with k2 and p3; the 18
    # atlas graphs and 6 fixtures as the one side of each one-sided variant;
    # the 9 default-bound oracle cases, none over 4 vertices, and the 2
    # bound-30 cases without c5 or p5; the 18 atlas graphs and 6 fixtures
    # analyzed
    assert Counter(r["op"] for r in records) == {
        "append": 48, "profile": 24, "append-bounded": 12, "profile-bounded": 6,
        "center-only": 24, "periphery-only": 24, "oracle": 11, "analyze": 24}
