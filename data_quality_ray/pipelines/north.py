"""The end-to-end north-star pipeline with lineage + exact resume.

Phase 1 — plain Ray tasks, no Ray Data job, one per unit of work
(``_phase1_units``: runs of whole files, or runs of row groups when a
wave has fewer files than units), so payload bytes go from the file to
the stage inside one task, never via the object store:
    read the unit (``pyarrow.parquet``); ``fragment`` = the file's
        POSITION in the sorted input list
      → cross-run index screens: Arrow table filters over ``phash``
        (exact, then Hamming)
      → Phase1Stage over the unit, in zero-copy ``batch_size``-row
        slices: caption rule chain (langid + perplexity + heuristics +
        PII/toxicity scrub) + image validation (decode, dims + phash
        verify; corrupt rows → DROP 'corrupt_image')
      → writes its own per-fragment parquet files (idempotent
        deterministic names, tmp+rename atomic) as a side output
      → RETURNS the unit's tally and winner partials (tiny) — the task's
        only object-store output
    then per-fragment lineage records commit atomically to the manifest.

Phase 2 — phash dedup over committed survivors:
    winners = min(image_id) per phash, merged vectorized from the phase-1
              partials (resume-path fragments contribute via a pruned
              key-column read) and broadcast as sorted numpy arrays
    final   = plain Ray tasks, one per contiguous group of fragment
              directories: read a fragment → searchsorted keep-winners
              filter → stream into ``final/part-<first>-<last>.parquet``
              (deterministic names, tmp+rename)

Resume: fragments in the manifest are skipped; stale partial output of
uncommitted fragments is deleted before reprocessing. ``wave_files``
bounds work lost to a crash (1 → exact per-fragment commits).

Scale shape: bytes are scanned once in phase 1 (decoded for validation,
written back untouched — pixel integrity) and once in phase 2's final
pass; the only all-to-all exchange is the Min-aggregate over the two key
columns. Payload parquet is written uncompressed/undictionaried (codec
bytes are already compressed — re-encoding burned 6× the write CPU).
"""

from __future__ import annotations

import glob
import json
import os
import shutil
import time

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from ..dedup.simhash import hamming64_pairs
from ..sources.io import (cluster_cpus, parquet_bytes, plan_units, read_parquet_sized,
                          session_block_count)
from ..stages.image import decode, phash64_batch
from ..state.manifest import Manifest
from .quality_filter import build_image_chain

_PAYLOAD_WRITE_ARGS = dict(compression="none", use_dictionary=False)
LOSSY_FORMATS = {"jpeg", "jpg", "webp"}
PHASH_HAMMING_MAX_LOSSY = 4  # measured max 1 for the stand-in codec
# tally rows under this fragment id carry per-batch stage nanoseconds
# ("t:<stage>", and "t:rule:<rule>" per rule of the chain); no manifest
# record reads them
TIMING_FRAGMENT = -1
PHASE1_STAGES = ("rules", "decode", "phash", "write", "tally")
# driver-side wall-time ledger of one run (``totals["phase_s"]``), in run order
RUN_PHASES = ("screen_setup", "inputs", "phase1", "manifest", "winners", "final",
              "index_append", "ar_batches")
# most rows one rule-chain/decode call sees (``run_quality_pipeline``'s default)
BATCH_SIZE = 2048


def _fragment_files(input_dir: str) -> list[str]:
    return sorted(glob.glob(os.path.join(input_dir, "part-*.parquet")))


def _frag_dir(filtered_dir: str, frag: int) -> str:
    return os.path.join(filtered_dir, f"frag-{frag:06d}")


class Phase1Stage:
    """Phase-1 stage over one unit of work: rule chain + image validation +
    in-stage partitioned write, ``batch_size`` rows at a time. Returns
    tally partial rows; files are the side output."""

    def __init__(self, filtered_dir: str, chain_builder=build_image_chain,
                 validate_images: bool = True, batch_size: int = BATCH_SIZE):
        self.engine = chain_builder()
        self.rule_keys = ["rule:" + r.name for r in self.engine.drop_rules + self.engine.scrub_rules]
        self.filtered_dir = filtered_dir
        self.validate_images = validate_images
        self.batch_size = batch_size

    def _validate(self, batch: pa.Table, verdict: np.ndarray, first_rule: np.ndarray,
                  ns: dict[str, int]) -> None:
        blobs = batch["bytes"].to_numpy(zero_copy_only=False)
        fmts = batch["fmt"].to_numpy(zero_copy_only=False)
        ws = batch["w"].to_numpy()
        hs = batch["h"].to_numpy()
        phs = batch["phash"].to_numpy()
        # decode per survivor (shapes vary); phash in ONE vectorized pass
        t0 = time.perf_counter_ns()
        alive = np.flatnonzero(verdict != "DROP")
        good_idx, good_px = [], []
        for i in alive:
            try:
                px = decode(blobs[i], fmts[i])
            except Exception:
                px = None
            if px is None or px.shape != (hs[i], ws[i], 3):
                verdict[i] = "DROP"
                first_rule[i] = "corrupt_image"
            else:
                good_idx.append(i)
                good_px.append(px)
        t1 = time.perf_counter_ns()
        ns["decode"] += t1 - t0
        if not good_idx:
            return
        recomputed = phash64_batch(good_px)
        ns["phash"] += time.perf_counter_ns() - t1
        dist = hamming64_pairs(recomputed, phs[np.array(good_idx)])
        lossy = np.isin(fmts[np.array(good_idx)], list(LOSSY_FORMATS))
        bad = np.where(lossy, dist > PHASH_HAMMING_MAX_LOSSY, dist != 0)
        for i in np.array(good_idx)[bad]:
            verdict[i] = "DROP"
            first_rule[i] = "corrupt_image"

    def __call__(self, block: pa.Table) -> pa.Table:
        """The whole block in zero-copy ``batch_size``-row slices, so one
        rule-chain/decode call (and its decoded pixels) never sees more
        rows than that; one ``t:<stage>`` row per stage, and one
        ``t:rule:<rule>`` row per rule of the chain, carries the
        nanoseconds summed over the slices."""
        ns = dict.fromkeys(PHASE1_STAGES, 0)
        ns.update(dict.fromkeys(self.rule_keys, 0))
        parts = [self._slice(block.slice(s, self.batch_size), ns)
                 for s in range(0, len(block), self.batch_size)]
        parts.append(_tally_table([TIMING_FRAGMENT] * len(ns), ["t:" + s for s in ns],
                                  list(ns.values())))
        return pa.concat_tables(parts)

    def _slice(self, batch: pa.Table, ns: dict[str, int]) -> pa.Table:
        t0 = time.perf_counter_ns()
        res = self.engine.apply(batch["caption"])
        ns["rules"] += time.perf_counter_ns() - t0
        for name, t in res.rule_ns.items():
            ns["rule:" + name] += t
        verdict, first_rule = res.verdict, res.first_rule
        if self.validate_images:
            self._validate(batch, verdict, first_rule, ns)
        t0, write_ns = time.perf_counter_ns(), ns["write"]
        out = batch.set_column(
            batch.schema.get_field_index("caption"), "caption",
            pa.array(res.values, type=pa.string()),
        )
        out = out.append_column("verdict", pa.array(verdict, type=pa.string()))
        out = out.append_column("first_rule", pa.array(first_rule, type=pa.string()))

        frag_col = out["fragment"].to_numpy()
        ids = out["image_id"].to_numpy(zero_copy_only=False)
        frags, keys, counts = [], [], []
        for frag in np.unique(frag_col):
            mask = frag_col == frag
            sub = out.filter(pa.array(mask))
            tw = time.perf_counter_ns()
            d = _frag_dir(self.filtered_dir, int(frag))
            os.makedirs(d, exist_ok=True)
            # deterministic name from the id range → task retries overwrite
            # the same file (idempotent); tmp+rename is atomic
            sub_ids = ids[mask]
            fname = f"part-{sub_ids.min()}-{sub_ids.max()}.parquet"
            tmp = os.path.join(d, f".tmp-{os.getpid()}-{fname}")
            pq.write_table(sub, tmp, **_PAYLOAD_WRITE_ARGS)
            os.replace(tmp, os.path.join(d, fname))
            ns["write"] += time.perf_counter_ns() - tw
            for col, prefix in (("verdict", "verdict:"), ("first_rule", "rule:")):
                for item in pc.value_counts(sub[col]):
                    frags.append(int(frag))
                    keys.append(prefix + item["values"].as_py())
                    counts.append(item["counts"].as_py())
        # dedup winner partials (min image_id per phash among survivors in
        # this slice) ride the same return table — phase 2 needs no extra
        # scan of freshly-processed fragments
        alive = verdict != "DROP"
        out = _tally_table(frags, keys, counts,
                           *_min_id_per_phash(batch["phash"].to_numpy()[alive], ids[alive]))
        ns["tally"] += time.perf_counter_ns() - t0 - (ns["write"] - write_ns)
        return out


def _tally_table(frags: list, keys: list, counts: list,
                 win_ph=(), win_id=()) -> pa.Table:
    """The stage's return rows: (fragment, key, n) tallies, then
    (phash, win_id) winner partials, each padded with nulls."""
    pad, n_win = [None] * len(frags), len(win_ph)
    return pa.table({
        "fragment": pa.array(frags + [None] * n_win, type=pa.int64()),
        "key": pa.array(keys + [None] * n_win, type=pa.string()),
        "n": pa.array(counts + [None] * n_win, type=pa.int64()),
        "phash": pa.array(pad + list(win_ph), type=pa.int64()),
        "win_id": pa.array(pad + list(win_id), type=pa.string()),
    })


_STAGE_CACHE: dict = {}


def _phase1_task(unit: list[tuple[int, str, list[int]]], screens: list, filtered_dir: str,
                 validate_images: bool, batch_size: int) -> pa.Table:
    """Phase-1 task body over one ``_phase1_units`` unit: its rows plus
    ``fragment``, through ``screens`` (``pa.Table → pa.Table`` filters),
    then the stage. The stage object (rule chain + models) is built once
    per WORKER PROCESS and cached at module level — Ray reuses worker
    processes across tasks and runs, and model setup is cheap (~20 ms)."""
    key = (filtered_dir, validate_images, batch_size)
    stage = _STAGE_CACHE.get(key)
    if stage is None:
        stage = _STAGE_CACHE[key] = Phase1Stage(filtered_dir, validate_images=validate_images,
                                                batch_size=batch_size)
    parts = []
    for frag, path, groups in unit:
        with pq.ParquetFile(path) as f:
            t = f.read_row_groups(groups)
        parts.append(t.append_column("fragment", pa.array(np.full(len(t), frag, dtype=np.int32))))
    t = pa.concat_tables(parts, promote_options="default")
    for screen in screens:
        t = screen(t)
    return stage(t)


def _phase1_units(wave: list[tuple[int, str]],
                  skipped: list[dict] | None = None) -> list[list[tuple[int, str, list[int]]]]:
    """``sources.io.plan_units`` over ``session_block_count(wave bytes)``
    units, each a list of ``(fragment, path, row groups)``: runs of whole
    contiguous files, or — when the wave has fewer files than units — runs
    of contiguous row groups, at most one unit per row group, so no byte
    is read twice.

    A footer that fails to read raises, unless ``skipped`` is a list: then
    the file gets a skip record there and no unit."""
    readable = []
    for frag, path in wave:
        try:
            readable.append((frag, path, pq.read_metadata(path)))
        except (pa.ArrowException, OSError) as e:  # torn, truncated or unreadable
            if skipped is None:
                raise
            skipped.append({"fragment": frag, "file": path, "error": f"{type(e).__name__}: {e}"})
    footers = [md for _, _, md in readable]
    units = plan_units(footers, session_block_count(parquet_bytes(footers)))
    return [[(readable[i][0], readable[i][1], groups) for i, groups in unit] for unit in units]


def _bounded(submit, items):
    """``submit(item)`` (a Ray ObjectRef) for every item, at most 2 × CPUs
    in flight; yields the results in completion order."""
    import ray

    limit, in_flight = 2 * cluster_cpus(), []
    for item in items:
        if len(in_flight) >= limit:
            ready, in_flight = ray.wait(in_flight, num_returns=1)
            yield ray.get(ready[0])
        in_flight.append(submit(item))
    while in_flight:
        ready, in_flight = ray.wait(in_flight, num_returns=1)
        yield ray.get(ready[0])


def run_quality_pipeline(input_dir: str, out_dir: str,
                         batch_size: int = BATCH_SIZE, wave_files: int = 64,
                         dedup: bool = True, validate_images: bool = True,
                         dedup_index_dir: str | None = None,
                         neardup_index_dir: str | None = None,
                         neardup_radius: int = 2,
                         final_output: str = "rewrite",
                         validate_inputs: bool = False,
                         ar_batch_size: int | None = None,
                         ar_buckets=None) -> dict:
    """Run (or resume) the full pipeline. Returns run-level metrics.

    Phase 2 merges the winner map (one (phash, image_id) pair per distinct
    surviving phash) on the driver and broadcasts it: it must fit driver
    memory (SCALE.md capacity assumption).

    ``dedup_index_dir``: optional cross-RUN dedup index
    (state/dedup_index.py). Rows whose phash was committed by a previous
    run are dropped inside each phase-1 task right after its read, before
    the stage (no decode/scoring spent on known dups), and this run's
    surviving phashes are committed as the next index generation after
    phase 2 — idempotent under crash/retry.

    ``neardup_index_dir``: optional cross-run NEAR-dup index
    (state/hamming_index.py): rows whose phash is within
    ``neardup_radius`` Hamming bits of ANY previous run's committed
    winners are dropped the same way (exact screen by pigeonhole —
    the day-two re-crawl whose images were re-encoded/resized). Winner
    phashes are committed after phase 2, same generation-store
    guarantees as ``dedup_index_dir``; both indexes can run together
    (exact first — it's cheaper — then the Hamming screen).

    ``validate_inputs``: SKIP input files whose parquet footer does not
    read (torn/truncated) instead of failing the whole job. Phase 1 reads
    every footer anyway to plan its units; each skip is recorded in the
    run's ``skipped_inputs.jsonl`` lineage file and surfaced in the
    returned metrics. Fragment ids stay positions in the sorted file
    list, so a fixed file keeps its id and a later run resumes it. At
    100 TB a single corrupt object must not kill a multi-hour run; the
    record keeps the skip auditable and re-runnable.

    ``final_output``: "rewrite" (default) re-writes the deduped survivors
    under ``out_dir/final``; "metadata" skips the second full payload
    pass and instead commits the winner (phash, image_id) table to
    ``out_dir/final_keep/winners.parquet`` — downstream readers consume
    via ``read_final(out_dir)``, which applies the same filter at read
    time. At 100 TB this halves the dominant byte movement (payloads are
    scanned once, never copied); ``read_final`` output is row-identical
    to the rewrite path (parity-tested).
    """
    import ray

    phase_s = dict.fromkeys(RUN_PHASES, 0.0)
    mark = time.perf_counter()

    def lap(phase: str) -> None:
        """Charge the wall time since the previous lap to ``phase`` — the
        laps tile the run, so ``phase_s`` sums to its wall time."""
        nonlocal mark
        now = time.perf_counter()
        phase_s[phase] += now - mark
        mark = now

    index = None
    if dedup_index_dir is not None:
        from ..state.dedup_index import DedupIndex

        index = DedupIndex(dedup_index_dir)
    hidx = None
    if neardup_index_dir is not None:
        from ..state.hamming_index import HammingIndex

        hidx = HammingIndex(neardup_index_dir, radius=neardup_radius)
    # exact first — it's cheaper — then the Hamming screen
    screens = [ix.table_filter("phash") for ix in (index, hidx) if ix is not None and ix.n_keys]
    lap("screen_setup")

    manifest = Manifest(out_dir)
    done = manifest.completed_fragments()
    pending = [(i, f) for i, f in enumerate(_fragment_files(input_dir)) if i not in done]
    filtered_dir = os.path.join(out_dir, "filtered")
    os.makedirs(filtered_dir, exist_ok=True)
    lap("inputs")

    win_parts: list[tuple[np.ndarray, np.ndarray]] = []  # winner partials
    stage_ns = dict.fromkeys(PHASE1_STAGES, 0)
    rule_ns: dict[str, int] = {}
    stage_kwargs = {"filtered_dir": filtered_dir, "validate_images": validate_images,
                    "batch_size": batch_size}
    n_skipped = 0
    task = ray.remote(_phase1_task)
    for w in range(0, len(pending), wave_files):
        wave = pending[w : w + wave_files]
        for frag_id, _ in wave:  # clear stale partial output (uncommitted)
            shutil.rmtree(_frag_dir(filtered_dir, frag_id), ignore_errors=True)
        skipped = [] if validate_inputs else None
        units = _phase1_units(wave, skipped)
        if skipped:  # no unit, no manifest record: a later run retries the file
            with open(os.path.join(out_dir, "skipped_inputs.jsonl"), "a") as f:
                f.writelines(json.dumps(rec) + "\n" for rec in skipped)
            n_skipped += len(skipped)
            bad = {rec["fragment"] for rec in skipped}
            wave = [(frag_id, path) for frag_id, path in wave if frag_id not in bad]
        tally: dict[tuple[int, str], int] = {}
        for b in _bounded(lambda u: task.remote(u, screens, **stage_kwargs), units):
            kmask = b["key"].is_valid()
            tb = b.filter(kmask)
            for frag, key, n in zip(tb["fragment"].to_pylist(), tb["key"].to_pylist(),
                                    tb["n"].to_pylist()):
                tally[(frag, key)] = tally.get((frag, key), 0) + n
            wb = b.filter(pc.invert(kmask))
            if len(wb):  # winner partials stay numpy; merged vectorized below
                win_parts.append((wb["phash"].to_numpy(),
                                  wb["win_id"].to_numpy(zero_copy_only=False)))
        for stage in PHASE1_STAGES:
            stage_ns[stage] += tally.get((TIMING_FRAGMENT, "t:" + stage), 0)
        for (frag, key), v in tally.items():
            if frag == TIMING_FRAGMENT and key.startswith("t:rule:"):
                rule_ns[key[7:]] = rule_ns.get(key[7:], 0) + v
        lap("phase1")
        for frag_id, path in wave:
            agg = {k: v for (f, k), v in tally.items() if f == frag_id}
            manifest.commit({
                "fragment": int(frag_id),
                "source_file": os.path.basename(path),
                "n_rows": int(sum(v for k, v in agg.items() if k.startswith("verdict:"))),
                "kept": int(agg.get("verdict:KEEP", 0)),
                "dropped": int(agg.get("verdict:DROP", 0)),
                "corrected": int(agg.get("verdict:CORRECTED", 0)),
                "rule_hits": {k.split(":", 1)[1]: int(v) for k, v in agg.items()
                              if k.startswith("rule:") and k != "rule:"},
                "output_path": f"filtered/frag-{frag_id:06d}",
            })
        lap("manifest")

    totals = manifest.totals()
    totals["phase1_stage_s"] = {k: v / 1e9 for k, v in stage_ns.items()}
    totals["phase1_rule_s"] = {k: v / 1e9 for k, v in rule_ns.items()}
    if n_skipped:
        totals["skipped_inputs"] = n_skipped
    lap("manifest")
    final_dir = os.path.join(out_dir, "final")
    if dedup:
        # winners for fragments committed in PREVIOUS runs (resume path):
        # read their key columns only, merge into the winner partials
        if done:
            prev_files = [
                f for frag in sorted(done)
                for f in sorted(glob.glob(os.path.join(_frag_dir(filtered_dir, frag), "*.parquet")))
            ]
            if prev_files:
                _merge_committed_winners(prev_files, win_parts)
        wp, wi = _finalize_winners(win_parts)
        lap("winners")
        if final_output == "metadata":
            keep_dir = os.path.join(out_dir, "final_keep")
            os.makedirs(keep_dir, exist_ok=True)
            tmp = os.path.join(keep_dir, f".tmp-{os.getpid()}-winners.parquet")
            pq.write_table(pa.table({"phash": pa.array(wp, type=pa.int64()),
                                     "image_id": pa.array(np.asarray(wi, dtype=object),
                                                          type=pa.string())}), tmp)
            os.replace(tmp, os.path.join(keep_dir, "winners.parquet"))
            totals["final_rows"] = len(wp)
            totals["final_mode"] = "metadata"
        else:
            totals["final_rows"] = _dedup_phase(filtered_dir, final_dir, wp, wi)
        lap("final")
        from ..state.dedup_index import append as _index_append

        for ix in (index, hidx):
            if ix is not None:  # same store primitive — keys ARE the raw winner phashes
                _index_append(ix.index_dir, wp)
        lap("index_append")
    if ar_batch_size is not None:
        _write_ar_batches(out_dir, totals, ar_batch_size, ar_buckets)
        lap("ar_batches")
    totals["phase_s"] = phase_s
    return totals


def _write_ar_batches(out_dir: str, totals: dict, batch_size: int,
                      buckets) -> None:
    """Optional final stage: the training-batch layout over the deduped
    survivors (stages/arbatch — SDXL-style aspect buckets, full batches
    only), written to ``out_dir/batches/``. Reads survivor METADATA only
    (image_id, w, h — payload bytes never move), so it costs one pruned
    scan + one window exchange on top of whichever final mode ran.
    Idempotent: a committed layout (marker file) is skipped on resume."""
    import glob as _glob

    from ..stages.arbatch import SDXL_BUCKETS, ar_bucket_batches

    batches_dir = os.path.join(out_dir, "batches")
    marker = os.path.join(batches_dir, "_BATCHES_DONE")
    if not os.path.exists(marker):
        shutil.rmtree(batches_dir, ignore_errors=True)
        survivors = read_final(out_dir, columns=["image_id", "w", "h"])
        layout = ar_bucket_batches(survivors,
                                   buckets=buckets or SDXL_BUCKETS,
                                   batch_size=batch_size)
        layout.write_parquet(batches_dir)
        open(marker + ".tmp", "w").close()
        os.replace(marker + ".tmp", marker)
    totals["ar_batch_rows"] = sum(
        pq.ParquetFile(f).metadata.num_rows
        for f in _glob.glob(os.path.join(batches_dir, "*.parquet")))
    totals["ar_batches"] = totals["ar_batch_rows"] // batch_size


def read_final(out_dir: str, columns: list[str] | None = None):
    """Dataset of the pipeline's deduped survivors, whichever final mode
    produced them: the rewritten ``final/`` payloads, or ``filtered/``
    filtered at read time against the committed ``final_keep`` winner
    table (metadata mode — no second payload copy ever existed).

    ``columns`` prunes the read at the parquet level — a metadata-only
    consumer (e.g. the training-batch layout) must not move payload
    bytes. The filter columns (verdict / phash / image_id) are read
    regardless and dropped again if not requested."""
    import ray

    from ..functions.broadcast import cached_get

    final_dir = os.path.join(out_dir, "final")
    if os.path.isdir(final_dir):
        return read_parquet_sized(final_dir, columns=columns)
    read_cols = (sorted({*columns, "verdict", "phash", "image_id"})
                 if columns is not None else None)
    winners = pq.read_table(os.path.join(out_dir, "final_keep", "winners.parquet"))
    wp = winners["phash"].to_numpy()
    wi = winners["image_id"].to_numpy(zero_copy_only=False)
    win_ref = ray.put((wp, np.asarray(wi)))

    def keep_winners(batch: pa.Table) -> pa.Table:
        wphash, wid = cached_get(win_ref)
        return _filter_winners(batch, wphash, wid)

    ds = (
        read_parquet_sized(os.path.join(out_dir, "filtered"), columns=read_cols)
        .map_batches(_surviving, batch_format="pyarrow")
        .map_batches(keep_winners, batch_format="pyarrow")
    )
    if columns is not None:
        ds = ds.select_columns(list(columns))
    return ds


def _finalize_winners(parts: list[tuple[np.ndarray, np.ndarray]]):
    """Vectorized final merge of (phash, image_id) winner partials:
    sorted-unique phash with the lexicographically smallest image_id."""
    if not parts:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype="U1")
    return _min_id_per_phash(
        np.concatenate([p for p, _ in parts]),
        np.concatenate([np.asarray(i, dtype=object) for _, i in parts]).astype(str))


def _min_id_per_phash(ph: np.ndarray, ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(phash, smallest image_id) per distinct phash, sorted by phash."""
    idx = np.lexsort((ids, ph))
    sp, si = ph[idx], ids[idx]
    first = np.ones(len(sp), dtype=bool)
    first[1:] = sp[1:] != sp[:-1]
    return sp[first], si[first]


def _surviving(t: pa.Table) -> pa.Table:
    return t.filter(pc.not_equal(t["verdict"], pa.scalar("DROP")))


def _merge_committed_winners(frag_dirs: list[str],
                             win_parts: list[tuple[np.ndarray, np.ndarray]]) -> None:
    """Append min-image_id-per-phash partials for previously committed
    fragments (resume path): reads the two key columns only."""

    def partial_min(batch: pa.Table) -> pa.Table:
        ph, ids = _min_id_per_phash(batch["phash"].to_numpy(),
                                    batch["image_id"].to_numpy(zero_copy_only=False))
        return pa.table({"phash": pa.array(ph), "image_id": pa.array(ids, type=pa.string())})

    partials = (
        read_parquet_sized(frag_dirs, columns=["phash", "image_id", "verdict"])
        .map_batches(_surviving, batch_format="pyarrow")
        .map_batches(partial_min, batch_format="pyarrow")
    )
    for b in partials.iter_batches(batch_size=65536, batch_format="pyarrow"):
        if len(b):
            win_parts.append((b["phash"].to_numpy(),
                              b["image_id"].to_numpy(zero_copy_only=False)))


def _filter_winners(batch: pa.Table, wphash: np.ndarray, wid: np.ndarray) -> pa.Table:
    """Vectorized keep-winners membership filter over the sorted winner
    arrays (searchsorted — never a Python set probe per row)."""
    if len(wphash) == 0:
        return batch.slice(0, 0)
    ks = batch["phash"].to_numpy()
    ids = batch["image_id"].to_numpy(zero_copy_only=False)
    pos = np.clip(np.searchsorted(wphash, ks), 0, len(wphash) - 1)
    mask = (wphash[pos] == ks) & (wid[pos] == ids)
    return batch.filter(pa.array(mask))


def _dedup_phase(filtered_dir: str, final_dir: str,
                 wp: np.ndarray, wi: np.ndarray) -> int:
    """Keep-first-by-image_id per phash using the precomputed winner
    arrays (sorted by phash, phash unique; broadcast once via ray.put →
    zero-copy plasma reads + vectorized searchsorted membership). The
    winner arrays fit driver memory by the capacity assumption
    (SCALE.md). Returns final row count.

    A per-row filter with no exchange, so it runs as plain Ray tasks, not
    a Ray Data job: the sorted fragment directories split into contiguous
    groups (as many as ``read_block_count`` gives the filtered bytes,
    at most one per fragment), one task per group, a bounded number in
    flight (``_bounded``, as in phase 1). Each task streams its fragments
    one at a time into ``final/part-<first frag>-<last frag>.parquet`` —
    a retried task rewrites the same name."""
    import ray

    shutil.rmtree(final_dir, ignore_errors=True)
    os.makedirs(final_dir)
    frag_dirs = sorted(glob.glob(os.path.join(filtered_dir, "frag-*")))
    if not frag_dirs:
        return len(wp)
    nbytes = parquet_bytes(pq.read_metadata(f) for d in frag_dirs
                           for f in glob.glob(os.path.join(d, "*.parquet")))
    n_groups = min(session_block_count(nbytes), len(frag_dirs))
    win_ref = ray.put((wp, np.asarray(wi)))
    task = ray.remote(_rewrite_group)

    def submit(group):
        first, last = (os.path.basename(d)[len("frag-"):] for d in (group[0], group[-1]))
        return task.remote(group.tolist(), win_ref,
                           os.path.join(final_dir, f"part-{first}-{last}.parquet"))

    list(_bounded(submit, np.array_split(np.array(frag_dirs), n_groups)))
    return len(wp)


def _rewrite_group(frag_dirs: list[str], winners: tuple[np.ndarray, np.ndarray],
                   path: str) -> None:
    """Phase-2 task body: the winner rows of ``frag_dirs``, read one file
    at a time, streamed through one writer to ``path`` (tmp+rename)."""
    wphash, wid = winners
    tmp = os.path.join(os.path.dirname(path), f".tmp-{os.getpid()}-{os.path.basename(path)}")
    writer = None
    try:
        for d in frag_dirs:
            for f in sorted(glob.glob(os.path.join(d, "*.parquet"))):
                t = _filter_winners(_surviving(pq.read_table(f)), wphash, wid)
                if writer is None:
                    writer = pq.ParquetWriter(tmp, t.schema, **_PAYLOAD_WRITE_ARGS)
                writer.write_table(t)
    finally:
        if writer is not None:
            writer.close()
    if writer is not None:
        os.replace(tmp, path)
