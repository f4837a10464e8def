"""scripts/rank_ab.py: a parent's and this checkout's rankings, interleaved in one process."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.skipif(not (ROOT / ".git").exists(), reason="needs the git repository")
def test_head_against_this_checkout_on_a_tiny_config():
    cmd = [sys.executable, "scripts/rank_ab.py", "--parent", "HEAD", "--users", "20",
           "--trajs", "3", "--rounds", "2", "--hidden", "16", "--layers", "1", "--heads", "2"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr[-2000:]
    doc = json.loads(proc.stdout)
    assert doc["trios"] == 6 and doc["rankings_identical"] is True
    for name in ("own_heads", "ffn", "lstm", "trio"):
        assert doc[name]["parent_ms"] > 0 and doc[name]["change_ms"] > 0
    assert doc["median_trio_ratio"] > 0
