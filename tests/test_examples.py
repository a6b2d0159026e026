"""Smoke-test the examples as subprocesses (they are user-facing docs).

``quickstart.py`` and ``cluster_scaling.py`` exercise both rails end to
end; the other examples are covered by their own unit-tested building
blocks and are too slow for the default test run.  The two scripts'
problem sizes are deliberately small (hand-coded in the scripts), so no
extra shrinking is needed here.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
EXAMPLES = REPO / "examples"


def run_example(name: str, timeout: float = 600.0, cwd=None) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src") + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, str(EXAMPLES / name)],
        capture_output=True, text=True, timeout=timeout, env=env, cwd=cwd,
    )
    assert proc.returncode == 0, (
        f"{name} failed (exit {proc.returncode}):\n{proc.stdout}\n{proc.stderr}"
    )
    return proc.stdout


@pytest.mark.slow
def test_quickstart():
    out = run_example("quickstart.py")
    assert "plain Jacobi sweeps" in out
    assert "MLUP/s" in out


@pytest.mark.slow
def test_cluster_scaling(tmp_path):
    out = run_example("cluster_scaling.py", cwd=tmp_path)
    assert "distributed == single-domain reference" in out
    assert "func boundary on 2x2x1 simmpi ranks == reference_sweeps" in out
    assert ("traces written: trace_hybrid.json trace_multihalo.json"
            in out)
    # README's obs dump/summarize/diff commands read these two files.
    for name in ("trace_hybrid.json", "trace_multihalo.json"):
        assert '"traceEvents"' in (tmp_path / name).read_text()
    assert "pipelined 2PPN [weak]" in out


@pytest.mark.slow
def test_serving():
    out = run_example("serving.py")
    assert "cache hit: bit-identical result" in out
    assert "rank processes spawned" in out
    assert "disk tier: a second service's hit is bit-identical" in out
    assert "health: ok, 4 jobs completed" in out
    assert "slowest recorded job:" in out


@pytest.mark.slow
def test_engines():
    out = run_example("engines.py")
    assert "bit-identical ✓" in out
    assert "pure cache hit" in out


@pytest.mark.slow
def test_analysis():
    out = run_example("analysis.py")
    assert "paper default (4 stages, d_l=1, d_u=4): CERTIFIED" in out
    assert "drain deadlock: REJECTED" in out
    assert "witness interleaving" in out
    assert "certified solve bit-identical to reference: True" in out
