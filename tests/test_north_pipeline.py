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
    assert stats2["phase_s"]["phase1"] == 0.0


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
    """The phase-2 rewrite writes one file per group of contiguous
    fragment directories, and there are as many groups as
    ``read_block_count`` gives the filtered bytes (2 × CPUs here, not
    Ray's ~1 MiB split), at most one per fragment. (Row identity with
    read_final in metadata mode is checked above.)"""
    import glob

    import ray
    import ray.data as rd

    from data_quality_ray.sources.io import parquet_bytes, read_block_count

    out, stats = north_run
    frag_dirs = glob.glob(out + "/filtered/frag-*")
    nbytes = parquet_bytes(pq.read_metadata(f)
                           for f in glob.glob(out + "/filtered/*/*.parquet"))
    groups = read_block_count(int(ray.cluster_resources()["CPU"]), nbytes,
                              rd.DataContext.get_current().target_max_block_size)
    files = glob.glob(out + "/final/*.parquet")
    assert len(files) == min(groups, len(frag_dirs))
    assert sum(pq.read_metadata(f).num_rows for f in files) == stats["final_rows"]


def _final_table(out):
    import glob

    import pyarrow as pa

    files = sorted(glob.glob(out + "/final/*.parquet"))
    return [os.path.basename(f) for f in files], \
        pa.concat_tables(pq.read_table(f) for f in files).sort_by("image_id")


def test_phase2_names_rerun_and_stale_tmp(ray_session, f1_dir, tmp_path):
    """Phase 2 writes ``part-<first frag>-<last frag>.parquet`` over
    contiguous fragment groups that cover every fragment once; a rerun
    into the same ``out_dir`` gives the same names and rows, and stale
    ``.tmp-*`` files under ``filtered/`` or ``final/`` are neither read
    nor left behind. The driver's phase ledger tiles the run."""
    import glob
    import time

    from data_quality_ray.pipelines.north import RUN_PHASES, run_quality_pipeline

    out = str(tmp_path / "out")
    t0 = time.perf_counter()
    stats = run_quality_pipeline(f1_dir, out, batch_size=256)
    wall = time.perf_counter() - t0
    assert list(stats["phase_s"]) == list(RUN_PHASES)
    assert min(stats["phase_s"].values()) >= 0
    assert wall * 0.95 <= sum(stats["phase_s"].values()) <= wall

    names, rows = _final_table(out)
    spans = [tuple(int(x) for x in n[len("part-"):-len(".parquet")].split("-")) for n in names]
    n_frags = len(glob.glob(out + "/filtered/frag-*"))
    covered = [f for lo, hi in spans for f in range(lo, hi + 1)]
    assert covered == list(range(n_frags))
    assert rows.num_rows == stats["final_rows"]

    # a torn earlier attempt: a tmp copy of a committed file (its rows
    # would be duplicate winners if read) and a tmp in final/
    src = sorted(glob.glob(out + "/filtered/frag-000000/*.parquet"))[0]
    shutil.copy(src, os.path.join(os.path.dirname(src), ".tmp-1-" + os.path.basename(src)))
    open(os.path.join(out, "final", ".tmp-1-part-000000-000000.parquet"), "wb").write(b"torn")
    stats2 = run_quality_pipeline(f1_dir, out, batch_size=256)
    names2, rows2 = _final_table(out)
    assert names2 == names
    assert rows2.equals(rows)
    assert stats2["final_rows"] == stats["final_rows"]
    assert not glob.glob(out + "/final/.tmp-*")


def test_phase1_stage_slices_its_block(f1_dir, tmp_path):
    """One ``Phase1Stage(batch_size=k)`` call on a block of 2.5·k rows
    writes the same ``filtered/`` files and rows and returns the same
    tallies and winner partials as its three slices called one by one,
    with one ``t:<stage>`` row per stage."""
    import glob
    from collections import Counter

    import pyarrow as pa

    from data_quality_ray.pipelines.north import PHASE1_STAGES, Phase1Stage

    k = 100
    parts = []
    for frag, f in enumerate(sorted(glob.glob(f1_dir + "/part-*.parquet"))[:2]):
        t = pq.read_table(f)
        parts.append(t.append_column("fragment", pa.array([frag] * len(t), type=pa.int32())))
    block = pa.concat_tables(parts).slice(0, 5 * k // 2)

    def split(res):
        keyed = res.filter(res["key"].is_valid()).to_pylist()
        tallies = Counter()
        for r in keyed:
            if not r["key"].startswith("t:"):
                tallies[(r["fragment"], r["key"])] += r["n"]
        wins = res.filter(res["key"].is_null())
        return ([r["key"] for r in keyed if r["key"].startswith("t:")], tallies,
                sorted(zip(wins["phash"].to_pylist(), wins["win_id"].to_pylist())))

    def written(d):
        files = sorted(glob.glob(f"{d}/*/*.parquet"))
        return ([os.path.relpath(f, d) for f in files],
                pa.concat_tables(pq.read_table(f) for f in files).sort_by("image_id"))

    whole = split(Phase1Stage(str(tmp_path / "a"), batch_size=k)(block))
    stage = Phase1Stage(str(tmp_path / "b"), batch_size=k)
    sliced = [split(stage(block.slice(s, k))) for s in range(0, len(block), k)]
    assert len(sliced) == 3
    assert whole[0] == ["t:" + s for s in PHASE1_STAGES]
    assert whole[1] == sum((s[1] for s in sliced), Counter())
    assert sum(whole[1][key] for key in whole[1] if key[1].startswith("verdict:")) == len(block)
    assert whole[2] == sorted(w for s in sliced for w in s[2])
    files_a, rows_a = written(tmp_path / "a")
    files_b, rows_b = written(tmp_path / "b")
    assert files_a == files_b and rows_a.equals(rows_b)


@pytest.mark.parametrize("stage_mode", ["tasks", "actors"])
def test_phase1_is_one_fused_operator(ray_session, tmp_path, monkeypatch, stage_mode):
    """The phase-1 job runs as ONE operator from the parquet read through
    the stage: a map with a minimum batch size is never fused behind a
    read, and the payload would then cross the object store. The wave has
    2 × CPUs files, so the read's block count (2 × CPUs for these few
    bytes) does not split a file, which Ray does not fuse either."""
    import glob
    import re

    import ray.data as rd

    from data_quality_ray.pipelines.north import run_quality_pipeline
    from data_quality_ray.sources.fixtures import write_f1
    from data_quality_ray.sources.io import cluster_cpus, parquet_bytes, session_block_count

    src = str(tmp_path / "in")
    write_f1(src, n_rows=64 * 2 * cluster_cpus(), seed=42, rows_per_file=64)
    files = glob.glob(src + "/part-*.parquet")
    assert session_block_count(parquet_bytes(pq.read_metadata(f) for f in files)) <= len(files)

    iterated = []
    orig = rd.Dataset.iter_batches

    def record(self, *args, **kwargs):
        iterated.append(self)
        return orig(self, *args, **kwargs)

    monkeypatch.setattr(rd.Dataset, "iter_batches", record)
    run_quality_pipeline(src, str(tmp_path / "out"), batch_size=256, stage_mode=stage_mode)
    ops = re.findall(r"^Operator \d+ (.+?):", iterated[0].stats(), flags=re.M)
    stage = "_phase1_task" if stage_mode == "tasks" else "Phase1Stage"
    assert len(ops) == 1 and "ReadParquet" in ops[0] and stage in ops[0], ops


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


_ONE_CPU_SCRIPT = """
import signal
import sys
import ray

def _timeout(signum, frame):  # a pool that never starts ends the run, Ray stopped
    sys.exit("timed out")

signal.signal(signal.SIGALRM, _timeout)
signal.alarm({alarm})
ray.init(address="local", num_cpus=1, include_dashboard=False, logging_level="ERROR")
try:
    from data_quality_ray.pipelines.north import run_quality_pipeline
    stats = run_quality_pipeline({f1!r}, {out!r}, batch_size=256, stage_mode="actors")
    print("final_rows", stats["final_rows"], flush=True)
finally:
    ray.shutdown()
"""


@pytest.mark.slow
def test_actor_mode_default_concurrency_runs_on_one_cpu(f1_dir, tmp_path):
    """``stage_mode="actors"`` with the default ``concurrency`` starts its
    pool at one actor, so it finishes on a 1-CPU Ray session (a fixed pool
    of four one-CPU actors waits forever there)."""
    import subprocess
    import sys

    repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    script = _ONE_CPU_SCRIPT.format(alarm=180, f1=f1_dir, out=str(tmp_path / "out"))
    proc = subprocess.run([sys.executable, "-c", script], cwd=repo, capture_output=True,
                          text=True, timeout=240)
    assert proc.returncode == 0 and "final_rows" in proc.stdout, proc.stderr[-2000:]
