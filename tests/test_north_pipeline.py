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
    stats = run_quality_pipeline(f1_dir, out, batch_size=256, wave_files=2)
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

    stats2 = run_quality_pipeline(f1_dir, out, batch_size=256, wave_files=2)
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
    # per-rule times: every rule of the chain, together within the rules stage
    from data_quality_ray.pipelines.quality_filter import build_image_chain

    engine = build_image_chain()
    rules = stats["phase1_rule_s"]
    assert list(rules) == [r.name for r in engine.drop_rules + engine.scrub_rules]
    assert 0 < sum(rules.values()) <= st["rules"]


def test_phase1_stage_timing_rows(f1_dir, tmp_path):
    """One ``Phase1Stage`` batch returns one ``t:<stage>`` row per stage and
    one ``t:rule:<rule>`` row per rule under ``TIMING_FRAGMENT``, beside the
    batch's verdict/rule tallies."""
    import glob

    import pyarrow as pa

    from data_quality_ray.pipelines.north import PHASE1_STAGES, TIMING_FRAGMENT, Phase1Stage

    t = pq.read_table(sorted(glob.glob(f1_dir + "/part-*.parquet"))[0])
    t = t.append_column("fragment", pa.array([3] * len(t), type=pa.int32()))
    stage = Phase1Stage(str(tmp_path))
    res = stage(t)
    rows = res.filter(res["key"].is_valid()).to_pylist()
    timing = [r for r in rows if r["key"].startswith("t:")]
    tallies = [r for r in rows if not r["key"].startswith("t:")]
    assert sorted(r["key"] for r in timing) == sorted(
        ["t:" + s for s in PHASE1_STAGES] + ["t:" + k for k in stage.rule_keys])
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

    stats2 = run_quality_pipeline(f1_dir, out, batch_size=256, wave_files=2)
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
    stats_m = run_quality_pipeline(f1_dir, out_m, batch_size=256,
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
    assert whole[0] == ["t:" + s for s in PHASE1_STAGES] + ["t:" + k for k in stage.rule_keys]
    assert whole[1] == sum((s[1] for s in sliced), Counter())
    assert sum(whole[1][key] for key in whole[1] if key[1].startswith("verdict:")) == len(block)
    assert whole[2] == sorted(w for s in sliced for w in s[2])
    files_a, rows_a = written(tmp_path / "a")
    files_b, rows_b = written(tmp_path / "b")
    assert files_a == files_b and rows_a.equals(rows_b)


def test_phase1_runs_without_ray_data(ray_session, f1_dir, tmp_path, monkeypatch):
    """Phase 1 and phase 2 are plain Ray tasks: a fresh run with the
    default settings never starts a Ray Data read."""
    import ray.data as rd

    from data_quality_ray.pipelines.north import run_quality_pipeline

    def no_read(*args, **kwargs):
        raise AssertionError("ray.data.read_parquet called")

    monkeypatch.setattr(rd, "read_parquet", no_read)
    stats = run_quality_pipeline(f1_dir, str(tmp_path / "out"))
    assert stats["n_rows"] == 600 and stats["final_rows"] > 0


def test_failed_phase1_frees_its_cpus(ray_session, f1_dir, tmp_path):
    """A phase-1 unit that raises surfaces its error to the caller, and
    the session has all its CPUs back while the error is handled."""
    import glob
    import time

    import ray

    from data_quality_ray.pipelines.north import run_quality_pipeline

    src = tmp_path / "in"
    src.mkdir()
    for f in sorted(glob.glob(f1_dir + "/part-*.parquet")):
        shutil.copy(f, src)
    bad = pq.read_table(f).drop_columns(["caption"])  # the stage raises on it
    pq.write_table(bad, src / "part-zzz.parquet")
    total = ray.cluster_resources()["CPU"]
    # ``failed`` keeps the failed frame alive, as a caller's handler does
    with pytest.raises(Exception) as failed:
        run_quality_pipeline(str(src), str(tmp_path / "out"))
    assert "caption" in str(failed.value)
    deadline = time.time() + 30
    while ray.available_resources().get("CPU", 0) < total and time.time() < deadline:
        time.sleep(0.2)
    assert ray.available_resources().get("CPU", 0) == total


def _records(out):
    from data_quality_ray.state.manifest import Manifest

    return sorted(Manifest(out).load(), key=lambda r: r["fragment"])


def _filtered_rows(out):
    import glob

    import pyarrow as pa

    files = glob.glob(out + "/filtered/frag-*/*.parquet")
    return pa.concat_tables(pq.read_table(f) for f in files).sort_by("image_id")


def test_overlapping_id_ranges_keep_their_fragments(ray_session, f1_dir, tmp_path, monkeypatch):
    """A fragment is its file's position in the sorted input list, not an
    id range: files whose ``image_id`` ranges overlap (rows dealt out
    round-robin, shuffled within each file) give the same per-fragment
    manifest records and ``filtered/`` rows as the same rows written
    id-sorted — cut into row ranges (3 files, 2 × CPUs units) or read as
    one unit of whole files — and each record counts exactly its file's
    rows by the oracle labels."""
    import glob

    import numpy as np
    import pyarrow as pa

    from data_quality_ray.pipelines import north

    rows = pa.concat_tables(pq.read_table(f)
                            for f in sorted(glob.glob(f1_dir + "/part-*.parquet")))
    labels = pq.read_table(f1_dir + "/_labels.parquet").to_pandas().set_index("image_id")
    rng = np.random.default_rng(0)
    for layout in ("overlapping", "sorted"):
        src = tmp_path / layout
        src.mkdir()
        for k in range(3):
            part = rows.take(np.arange(k, len(rows), 3))
            part = (part.take(rng.permutation(len(part))) if layout == "overlapping"
                    else part.sort_by("image_id"))
            pq.write_table(part, src / f"part-{k:05d}.parquet")
    outs = [str(tmp_path / name) for name in ("o-ranges", "s-ranges", "o-whole")]
    north.run_quality_pipeline(str(tmp_path / "overlapping"), outs[0], batch_size=64)
    north.run_quality_pipeline(str(tmp_path / "sorted"), outs[1], batch_size=64)
    monkeypatch.setattr(north, "session_block_count", lambda nbytes: 1)
    north.run_quality_pipeline(str(tmp_path / "overlapping"), outs[2], batch_size=64)

    recs = _records(outs[0])
    for out in outs[1:]:
        assert _records(out) == recs
        assert _filtered_rows(out).equals(_filtered_rows(outs[0]))
    for k, rec in enumerate(recs):
        verdicts = labels.loc[rows["image_id"].to_numpy(zero_copy_only=False)[k::3], "verdict"]
        assert rec["fragment"] == k and rec["n_rows"] == len(verdicts)
        assert (rec["kept"], rec["dropped"], rec["corrected"]) == tuple(
            int((verdicts == v).sum()) for v in ("KEEP", "DROP", "CORRECTED"))


def test_few_files_split_at_row_groups(ray_session, f1_dir, tmp_path, monkeypatch):
    """A wave with fewer files than units (2 files, 2 × CPUs units) is cut
    at row-group boundaries, one task per unit, every row group read by
    exactly one unit, and gives the same ``filtered/`` rows and manifest
    records as the same files run as one unit."""
    import glob

    from data_quality_ray.pipelines import north

    src = tmp_path / "in"
    src.mkdir()
    for f in sorted(glob.glob(f1_dir + "/part-*.parquet"))[:2]:
        pq.write_table(pq.read_table(f), src / os.path.basename(f), row_group_size=40)
    units = []
    split = north._phase1_units

    def record(wave, skipped=None):
        out = split(wave, skipped)
        units.extend(out)
        return out

    monkeypatch.setattr(north, "_phase1_units", record)
    north.run_quality_pipeline(str(src), str(tmp_path / "split"), batch_size=64)
    read = sorted((frag, g) for u in units for frag, _, groups in u for g in groups)
    files = sorted(glob.glob(str(src / "*.parquet")))
    assert read == [(i, g) for i, f in enumerate(files)
                    for g in range(pq.ParquetFile(f).num_row_groups)]
    assert len(units) >= 4 and all(len(u) == 1 for u in units)  # one row group each

    monkeypatch.setattr(north, "session_block_count", lambda nbytes: 1)
    north.run_quality_pipeline(str(src), str(tmp_path / "whole"), batch_size=64)
    assert _records(str(tmp_path / "split")) == _records(str(tmp_path / "whole"))
    assert _filtered_rows(str(tmp_path / "split")).equals(_filtered_rows(str(tmp_path / "whole")))


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
    stats = run_quality_pipeline(str(src), out, batch_size=256,
                                 wave_files=2, validate_inputs=True)
    assert stats["skipped_inputs"] == 1
    recs = [json.loads(l) for l in open(os.path.join(out, "skipped_inputs.jsonl"))]
    assert recs[0]["fragment"] == 1 and recs[0]["file"].endswith(
        os.path.basename(victim))

    # "fix" the file and resume: only fragment 1 is reprocessed
    open(victim, "wb").write(good)
    stats2 = run_quality_pipeline(str(src), out, batch_size=256,
                                  wave_files=2, validate_inputs=True)
    assert "skipped_inputs" not in stats2
    full = run_quality_pipeline(str(src), str(tmp_path / "ref"), batch_size=256, wave_files=2)
    assert stats2["n_rows"] == full["n_rows"]
    assert stats2["kept"] == full["kept"]


def test_torn_input_raises_without_validate_inputs(ray_session, f1_dir, tmp_path):
    """Without ``validate_inputs`` an input whose footer does not read
    fails the run instead of being skipped."""
    import glob

    import pyarrow as pa

    from data_quality_ray.pipelines.north import run_quality_pipeline

    src = tmp_path / "in"
    src.mkdir()
    f = sorted(glob.glob(f"{f1_dir}/part-*.parquet"))[0]
    good = open(f, "rb").read()
    (src / os.path.basename(f)).write_bytes(good[: len(good) // 2])  # torn write
    with pytest.raises(pa.ArrowInvalid):
        run_quality_pipeline(str(src), str(tmp_path / "out"))


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
        m = run_quality_pipeline(f1_dir, out, batch_size=256,
                                 final_output=mode, ar_batch_size=8)
        assert m["ar_batch_rows"] == m["ar_batches"] * 8 or \
            m["ar_batch_rows"] < m["final_rows"]  # partials dropped
        assert m["ar_batch_rows"] <= m["final_rows"]
        # layout holds metadata columns only — payload bytes never copied
        f = glob.glob(os.path.join(out, "batches", "*.parquet"))[0]
        cols = set(pq.ParquetFile(f).schema_arrow.names)
        assert "bytes" not in cols and {"image_id", "batch_id", "slot"} <= cols
        m2 = run_quality_pipeline(f1_dir, out, batch_size=256,
                                  final_output=mode, ar_batch_size=8)
        assert m2["ar_batch_rows"] == m["ar_batch_rows"]  # resume: committed
        rows[mode] = m["ar_batch_rows"]
    assert rows["rewrite"] == rows["metadata"]
