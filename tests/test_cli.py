"""``python -m data_quality_ray``: the ``run`` subcommand end to end, and
session ownership."""

import json
import os
import subprocess
import sys

import pytest

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.mark.slow
def test_run_subcommand_prints_final_rows(f1_dir, tmp_path):
    """``run IN OUT --cpus 1`` starts its own one-CPU session, runs the
    pipeline and prints its metrics as one JSON line."""
    proc = subprocess.run(
        [sys.executable, "-m", "data_quality_ray", "run", f1_dir, str(tmp_path / "out"),
         "--cpus", "1"],
        cwd=REPO, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    stats = json.loads(proc.stdout.strip().splitlines()[-1])
    assert stats["n_rows"] == 600 and stats["final_rows"] > 0


def test_main_keeps_a_session_it_did_not_start(ray_session, tmp_path):
    """``main()`` inside a caller's Ray session leaves that session up."""
    import ray

    from data_quality_ray.__main__ import main

    assert main(["gen", str(tmp_path / "f1"), "16"]) == 0
    assert ray.is_initialized()
