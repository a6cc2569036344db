"""North pipeline: lineage manifest, exact resume, dedup, validation."""

import json
import os
import shutil

import pyarrow.parquet as pq
import pytest


@pytest.fixture(scope="module")
def north_run(ray_session, f1_dir, tmp_path_factory):
    from data_quality_ray.pipelines.north import run_quality_pipeline

    out = str(tmp_path_factory.mktemp("north"))
    stats = run_quality_pipeline(f1_dir, out, concurrency=2, batch_size=256, wave_files=2)
    return out, stats


def test_totals_match_input(north_run, f1_dir):
    _, stats = north_run
    assert stats["n_rows"] == 600
    assert stats["kept"] + stats["dropped"] + stats["corrected"] == 600
    assert stats["final_rows"] <= stats["kept"] + stats["corrected"]


def test_manifest_per_fragment(north_run, f1_dir):
    out, stats = north_run
    from data_quality_ray.state.manifest import Manifest

    m = Manifest(out)
    records = m.load()
    import glob

    n_files = len(glob.glob(f1_dir + "/part-*.parquet"))
    assert len(records) == n_files
    for r in records:
        assert set(r) >= {"fragment", "source_file", "n_rows", "kept", "dropped",
                          "corrected", "rule_hits", "output_path"}
        assert r["n_rows"] == r["kept"] + r["dropped"] + r["corrected"]
    assert m.totals()["n_rows"] == 600


def test_verdicts_match_oracle_labels(north_run, f1_dir):
    """Per-row keep/drop + scrubbed caption of the pipeline OUTPUT equals
    the row-by-row oracle (image validation must not flip healthy rows)."""
    out, _ = north_run
    import ray.data as rd

    got = rd.read_parquet(out + "/filtered").to_pandas().sort_values("image_id")
    labels = pq.read_table(f1_dir + "/_labels.parquet").to_pandas().sort_values("image_id")
    assert (got["image_id"].to_numpy() == labels["image_id"].to_numpy()).all()
    assert ((got["verdict"] != "DROP").to_numpy() == labels["keep"].to_numpy()).all()
    keep = labels["keep"].to_numpy()
    assert (got["caption"].to_numpy()[keep] == labels["scrubbed_caption"].to_numpy()[keep]).all()


def test_final_unique_on_phash(north_run):
    out, stats = north_run
    import ray.data as rd

    final = rd.read_parquet(out + "/final").to_pandas()
    assert len(final) == stats["final_rows"]
    assert final["phash"].nunique() == len(final)
    assert (final["verdict"] != "DROP").all()


def test_exact_resume_skips_completed(north_run, f1_dir):
    out, stats = north_run
    from data_quality_ray.pipelines.north import run_quality_pipeline

    stats2 = run_quality_pipeline(f1_dir, out, concurrency=2, batch_size=256, wave_files=2)
    assert stats2["n_rows"] == stats["n_rows"]
    assert stats2["final_rows"] == stats["final_rows"]
    assert stats2["rule_hits"] == stats["rule_hits"]
    assert set(stats2["phase1_stage_s"].values()) == {0.0}  # no phase-1 batch ran


def test_phase1_stage_timings(north_run):
    """A fresh run returns the in-batch stage times summed over batches."""
    _, stats = north_run
    from data_quality_ray.pipelines.north import PHASE1_STAGES

    st = stats["phase1_stage_s"]
    assert set(st) == set(PHASE1_STAGES)
    assert all(0 < v < 60 for v in st.values())


def test_phase1_stage_timing_rows(f1_dir, tmp_path):
    """One ``Phase1Stage`` batch returns one ``t:<stage>`` row per stage under
    ``TIMING_FRAGMENT``, beside the batch's verdict/rule tallies."""
    import glob

    import pyarrow as pa

    from data_quality_ray.pipelines.north import PHASE1_STAGES, TIMING_FRAGMENT, Phase1Stage

    t = pq.read_table(sorted(glob.glob(f1_dir + "/part-*.parquet"))[0])
    t = t.append_column("fragment", pa.array([3] * len(t), type=pa.int32()))
    res = Phase1Stage(str(tmp_path))(t)
    rows = res.filter(res["key"].is_valid()).to_pylist()
    timing = [r for r in rows if r["key"].startswith("t:")]
    tallies = [r for r in rows if not r["key"].startswith("t:")]
    assert sorted(r["key"] for r in timing) == sorted("t:" + s for s in PHASE1_STAGES)
    assert all(r["fragment"] == TIMING_FRAGMENT and r["n"] > 0 for r in timing)
    assert {r["fragment"] for r in tallies} == {3}
    assert sum(r["n"] for r in tallies if r["key"].startswith("verdict:")) == len(t)


def test_partial_resume_reprocesses_only_missing(north_run, f1_dir):
    out, stats = north_run
    # drop one fragment's manifest record AND its output → resume must
    # rebuild exactly that fragment and reproduce identical totals
    victim = sorted(os.listdir(out + "/_manifest"))[1]
    frag = int(victim[5:-5])
    os.remove(os.path.join(out, "_manifest", victim))
    shutil.rmtree(os.path.join(out, "filtered", f"frag-{frag:06d}"))
    from data_quality_ray.pipelines.north import run_quality_pipeline

    stats2 = run_quality_pipeline(f1_dir, out, concurrency=2, batch_size=256, wave_files=2)
    assert stats2["n_rows"] == stats["n_rows"]
    assert stats2["final_rows"] == stats["final_rows"]
    assert stats2["rule_hits"] == stats["rule_hits"]


def test_metadata_final_mode_matches_rewrite(north_run, f1_dir, tmp_path):
    """final_output='metadata' (winner table committed, no second payload
    copy) read back through read_final() must be byte-identical to the
    rewrite path's final/ on every column."""
    import ray.data as rd

    from data_quality_ray.pipelines.north import read_final, run_quality_pipeline

    out_b, stats_b = north_run
    out_m = str(tmp_path / "meta")
    stats_m = run_quality_pipeline(f1_dir, out_m, concurrency=2, batch_size=256,
                                   wave_files=2, final_output="metadata")
    assert stats_m["final_mode"] == "metadata"
    assert stats_m["final_rows"] == stats_b["final_rows"]
    assert not os.path.isdir(out_m + "/final")  # no payload rewrite happened
    a = rd.read_parquet(out_b + "/final").to_pandas().sort_values("image_id").reset_index(drop=True)
    b = read_final(out_m).to_pandas().sort_values("image_id").reset_index(drop=True)
    assert list(a.columns) == list(b.columns)
    for c in a.columns:
        assert (a[c].to_numpy() == b[c].to_numpy()).all(), c
    # read_final on a rewrite-mode dir returns the rewritten payloads
    assert read_final(out_b).count() == stats_b["final_rows"]


def test_final_files_sized_to_cpus(north_run):
    """The phase-2 rewrite reads its small input in 2 × CPUs blocks (not
    Ray's ~1 MiB split) and writes one file per block. Ray reads the
    blocks as min(blocks, files) tasks of ceil(blocks / tasks) blocks
    each, so fewer input files than blocks round the count up. (Row
    identity with read_final in metadata mode is checked above.)"""
    import glob
    import math

    import ray

    out, stats = north_run
    blocks = 2 * int(ray.cluster_resources()["CPU"])
    tasks = min(blocks, len(glob.glob(out + "/filtered/*/*.parquet")))
    files = glob.glob(out + "/final/*.parquet")
    assert 0 < len(files) <= tasks * math.ceil(blocks / tasks)
    assert sum(pq.read_metadata(f).num_rows for f in files) == stats["final_rows"]


def test_shuffle_dedup_strategy_matches_broadcast(north_run, f1_dir, tmp_path):
    """dedup_strategy='shuffle' (unbounded-key-space path) produces the
    identical final row set as the default broadcast-winner path."""
    import ray.data as rd

    from data_quality_ray.pipelines.north import run_quality_pipeline

    out_b, stats_b = north_run
    out_s = str(tmp_path / "shuffle")
    stats_s = run_quality_pipeline(f1_dir, out_s, concurrency=2, batch_size=256,
                                   wave_files=2, dedup_strategy="shuffle")
    assert stats_s["final_rows"] == stats_b["final_rows"]
    a = rd.read_parquet(out_b + "/final").to_pandas().sort_values("image_id")
    b = rd.read_parquet(out_s + "/final").to_pandas().sort_values("image_id")
    assert (a["image_id"].to_numpy() == b["image_id"].to_numpy()).all()
    assert (a["caption"].to_numpy() == b["caption"].to_numpy()).all()


def test_validate_inputs_skips_corrupt_fragment(ray_session, f1_dir, tmp_path):
    """validate_inputs=True: a torn parquet is skipped with a lineage
    record instead of failing the run; fragment ids stay positional so
    a later resume (with the file fixed) processes ONLY that fragment."""
    import glob
    import json
    import shutil

    from data_quality_ray.pipelines.north import run_quality_pipeline

    src = tmp_path / "in"
    src.mkdir()
    files = sorted(glob.glob(f"{f1_dir}/part-*.parquet"))
    for f in files:
        shutil.copy(f, src / os.path.basename(f))
    victim = sorted(glob.glob(str(src / "part-*.parquet")))[1]
    good = open(victim, "rb").read()
    open(victim, "wb").write(good[: len(good) // 2])  # torn write

    out = str(tmp_path / "out")
    stats = run_quality_pipeline(str(src), out, concurrency=2, batch_size=256,
                                 wave_files=2, validate_inputs=True)
    assert stats["skipped_inputs"] == 1
    recs = [json.loads(l) for l in open(os.path.join(out, "skipped_inputs.jsonl"))]
    assert recs[0]["fragment"] == 1 and recs[0]["file"].endswith(
        os.path.basename(victim))

    # "fix" the file and resume: only fragment 1 is reprocessed
    open(victim, "wb").write(good)
    stats2 = run_quality_pipeline(str(src), out, concurrency=2, batch_size=256,
                                  wave_files=2, validate_inputs=True)
    assert "skipped_inputs" not in stats2
    full = run_quality_pipeline(str(src), str(tmp_path / "ref"), concurrency=2,
                                batch_size=256, wave_files=2)
    assert stats2["n_rows"] == full["n_rows"]
    assert stats2["kept"] == full["kept"]


def test_ar_batch_layout_stage(ray_session, f1_dir, tmp_path):
    """Optional training-batch layout: metadata-only scan over the
    survivors, full batches of 8, identical in both final modes, and
    idempotent under resume."""
    import glob
    import os

    import pyarrow.parquet as pq

    from data_quality_ray.pipelines.north import run_quality_pipeline

    rows = {}
    for mode in ("rewrite", "metadata"):
        out = str(tmp_path / mode)
        m = run_quality_pipeline(f1_dir, out, concurrency=2, batch_size=256,
                                 final_output=mode, ar_batch_size=8)
        assert m["ar_batch_rows"] == m["ar_batches"] * 8 or \
            m["ar_batch_rows"] < m["final_rows"]  # partials dropped
        assert m["ar_batch_rows"] <= m["final_rows"]
        # layout holds metadata columns only — payload bytes never copied
        f = glob.glob(os.path.join(out, "batches", "*.parquet"))[0]
        cols = set(pq.ParquetFile(f).schema_arrow.names)
        assert "bytes" not in cols and {"image_id", "batch_id", "slot"} <= cols
        m2 = run_quality_pipeline(f1_dir, out, concurrency=2, batch_size=256,
                                  final_output=mode, ar_batch_size=8)
        assert m2["ar_batch_rows"] == m["ar_batch_rows"]  # resume: committed
        rows[mode] = m["ar_batch_rows"]
    assert rows["rewrite"] == rows["metadata"]
