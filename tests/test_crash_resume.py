"""Crash-resume proof: SIGKILL the pipeline mid-run, resume, and verify
the final state is identical to an uninterrupted run — the north rule's
"exact resume from checkpoint" exercised the hard way."""

import json
import os
import shutil
import signal
import subprocess
import sys
import time

import pytest

SCRIPT = """
import sys
sys.path.insert(0, {repo!r})
import ray
ray.init(address="local", num_cpus=4, include_dashboard=False, logging_level="ERROR")
from data_quality_ray.pipelines.north import run_quality_pipeline
stats = run_quality_pipeline({src!r}, {out!r}, batch_size=128,
                             wave_files=1)
import json
print("DONE " + json.dumps(stats))
ray.shutdown()
"""

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _run(src, out, kill_after=None):
    proc = subprocess.Popen(
        [sys.executable, "-c", SCRIPT.format(repo=REPO, src=src, out=out)],
        cwd=REPO, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
    )
    if kill_after is None:
        out_text, _ = proc.communicate(timeout=300)
        return out_text
    time.sleep(kill_after)
    proc.send_signal(signal.SIGKILL)
    proc.wait()
    return None


@pytest.mark.slow
def test_sigkill_mid_run_then_resume(f1_dir, tmp_path):
    out_a = str(tmp_path / "clean")
    out_b = str(tmp_path / "crashed")

    # uninterrupted reference run
    text = _run(f1_dir, out_a)
    clean = json.loads(text.split("DONE ", 1)[1])

    # killed mid-run (wave_files=1 → per-fragment commits; kill lands
    # after Ray startup, during the waves)
    _run(f1_dir, out_b, kill_after=12)
    manifest_dir = os.path.join(out_b, "_manifest")
    partial = len(os.listdir(manifest_dir)) if os.path.isdir(manifest_dir) else 0
    # resume to completion
    text = _run(f1_dir, out_b)
    resumed = json.loads(text.split("DONE ", 1)[1])

    assert resumed["n_rows"] == clean["n_rows"] == 600
    assert resumed["kept"] == clean["kept"]
    assert resumed["rule_hits"] == clean["rule_hits"]
    assert resumed["final_rows"] == clean["final_rows"]
    # and the surviving-row payloads are byte-identical
    import duckdb

    h_a = duckdb.sql(f"select count(*), sum(phash), sum(length(caption)) from '{out_a}/final/*.parquet'").fetchone()
    h_b = duckdb.sql(f"select count(*), sum(phash), sum(length(caption)) from '{out_b}/final/*.parquet'").fetchone()
    assert h_a == h_b


def test_manifest_sharding_and_mixed_layout(tmp_path):
    """Sharded manifests group records into shard dirs; reads accept flat
    and sharded records interchangeably (resuming a flat run with
    sharding on, or vice versa, loses nothing)."""
    import os

    from data_quality_ray.state.manifest import Manifest

    out = str(tmp_path / "run")
    rec = lambda i: {"fragment": i, "source_file": f"f{i}", "n_rows": 10,
                     "kept": 7, "dropped": 2, "corrected": 1,
                     "rule_hits": {"r": i}, "output_path": f"p{i}"}
    flat = Manifest(out)
    for i in range(3):
        flat.commit(rec(i))
    sharded = Manifest(out, shard_size=2)
    for i in range(3, 7):
        sharded.commit(rec(i))
    assert os.path.isdir(os.path.join(out, "_manifest", "shard-000001"))
    # both instances see all 7 records regardless of who wrote them
    for m in (flat, sharded, Manifest(out, shard_size=3)):
        assert m.completed_fragments() == set(range(7))
        tot = m.totals()
        assert tot["n_rows"] == 70 and tot["rule_hits"]["r"] == sum(range(7))
    # idempotent re-commit across layouts
    sharded.commit(rec(1))  # fragment 1 exists flat; upsert under shard
    assert Manifest(out).totals()["n_rows"] == 70
