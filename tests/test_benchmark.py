import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def test_benchmark_self_check():
    """``perfbench/run.py --self-check`` passes: result schema, metric names
    against BENCHMARK.json, and each workload's output check, on one cheap
    job per workload.  It judges no timing."""
    if not (ROOT / "perfbench" / "run.py").is_file():
        pytest.skip("no perfbench/ in this checkout")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--self-check"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "self-check passed" in proc.stdout
