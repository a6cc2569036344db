"""The two image workloads: ``flagship`` (a fresh quality-filter run) and
``recrawl`` (a day-two run screened by the cross-run indexes).

Both time one ``run_quality_pipeline`` call per iteration over a seeded F1
fixture and check its outputs against the fixture's construction-time
labels, which come from the row-by-row rule oracle.
"""

from __future__ import annotations

import glob
import os
import random
import shutil
import statistics
import time

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq

from checks import CheckFailed, keep_f1
from tracing import Capture

FRAGMENTS = 8
ROWS_PER_FRAGMENT = 1024
SLICE_FRAGMENTS = 2  # the fixed-cost run (pipelines.fixed_s)
FIXED_REPEATS = 3
BATCH_SIZE = 2048  # run_quality_pipeline's default phase-1 batch
MIN_KEEP_F1 = 0.99


class FlagshipWorkload:
    """Fresh run with the default settings: tasks mode, broadcast dedup,
    ``final_output="rewrite"``."""

    run_kwargs: dict = {}
    span_name = "pipelines.run"

    def __init__(self, work: str, seed: int):
        self.work = work
        self.seed = seed
        self.fixture = os.path.join(work, "fixture")
        self.slice = os.path.join(work, "fixture_slice")
        self.out = os.path.join(work, "out")
        self.rows = FRAGMENTS * ROWS_PER_FRAGMENT
        self.slice_rows = SLICE_FRAGMENTS * ROWS_PER_FRAGMENT
        self._expect: tuple | None = None

    # -- set-up ----------------------------------------------------------

    def build(self) -> float:
        """Write the fixture one fragment at a time (the shard generator
        and file layout of ``write_f1``); returns the time that took. The
        labels are computed afterwards, outside that time."""
        from data_quality_ray.sources.fixtures import generate_f1_shard, label_table

        os.makedirs(self.fixture)
        t0 = time.perf_counter()
        for i in range(FRAGMENTS):
            tbl = generate_f1_shard(i * ROWS_PER_FRAGMENT, ROWS_PER_FRAGMENT, self.seed)
            pq.write_table(tbl, os.path.join(self.fixture, f"part-{i:05d}.parquet"),
                           row_group_size=2048)
        build_s = time.perf_counter() - t0
        lab = pa.concat_tables([label_table(pq.read_table(f)) for f in self.files()])
        self.labels = pd.DataFrame({"image_id": lab["image_id"].to_numpy(zero_copy_only=False),
                                    "label_keep": lab["keep"].to_numpy(zero_copy_only=False)})
        os.makedirs(self.slice)
        for f in self.files()[:SLICE_FRAGMENTS]:
            shutil.copy(f, self.slice)
        return build_s

    def prepare(self) -> None:
        """Set-up that needs the Ray session (none for a fresh run)."""

    def files(self) -> list[str]:
        return sorted(glob.glob(os.path.join(self.fixture, "part-*.parquet")))

    # -- one iteration ---------------------------------------------------

    def reset(self) -> None:
        shutil.rmtree(self.out, ignore_errors=True)

    def run(self, tracer=None, input_dir: str | None = None) -> dict:
        """One pipeline call; driver-side spans come from the patched
        targets, so ``tracer`` is unused here."""
        from data_quality_ray.pipelines.north import run_quality_pipeline

        return run_quality_pipeline(input_dir or self.fixture, self.out, **self.run_kwargs)

    def fixed_s(self) -> float:
        """Median time of the same call on the first fragments only."""
        times = []
        for _ in range(FIXED_REPEATS):
            self.reset()
            t0 = time.perf_counter()
            self.run(input_dir=self.slice)
            times.append(time.perf_counter() - t0)
        self.reset()
        return statistics.median(times)

    def check(self, totals: dict) -> float:
        """Keep/drop F1 of the rows that reached phase 1 against the
        labels, and dedup consistency; raises CheckFailed."""
        files = glob.glob(os.path.join(self.out, "filtered", "frag-*", "*.parquet"))
        got = pq.ParquetDataset(files).read(columns=["image_id", "verdict", "phash"]).to_pandas()
        if got["image_id"].duplicated().any():
            raise CheckFailed("an image was written twice to filtered/", 0.0)
        m = got.merge(self.labels, on="image_id", how="left", validate="one_to_one")
        if m["label_keep"].isna().any():
            raise CheckFailed("filtered/ holds an image that is not in the input", 0.0)
        kept = (m["verdict"] != "DROP").to_numpy()
        f1 = keep_f1(kept, m["label_keep"].to_numpy(dtype=bool))
        problems = []
        if f1 < MIN_KEEP_F1:
            problems.append(f"keep F1 {f1:.4f} < {MIN_KEEP_F1}")
        winners = m.loc[kept, "phash"].nunique()
        if totals.get("final_rows") != winners:
            problems.append(f"final_rows {totals.get('final_rows')} != {winners} distinct "
                            "surviving phashes")
        problems += self._final_problems(totals)
        expect = (len(m), int(kept.sum()), winners)
        if self._expect is None:
            self._expect = expect
        elif expect != self._expect:
            problems.append(f"counts {expect} differ from the first iteration's {self._expect}")
        if problems:
            raise CheckFailed("; ".join(problems), f1)
        return f1

    def _final_problems(self, totals: dict) -> list[str]:
        n = sum(pq.read_metadata(f).num_rows
                for f in glob.glob(os.path.join(self.out, "final", "*.parquet")))
        if n != totals["final_rows"]:
            return [f"final/ holds {n} rows, final_rows is {totals['final_rows']}"]
        return []

    # -- tracing ---------------------------------------------------------

    def trace_targets(self) -> list[tuple[object, str, str]]:
        from data_quality_ray.state import dedup_index
        from data_quality_ray.state.dedup_index import DedupIndex
        from data_quality_ray.state.hamming_index import HammingIndex
        from data_quality_ray.state.manifest import Manifest

        return [(Manifest, "commit", "state.manifest_commit"),
                (dedup_index, "append", "state.index_append"),
                (DedupIndex, "__init__", "state.index_screen"),
                (DedupIndex, "filter_new", "state.index_screen"),
                (HammingIndex, "__init__", "state.index_screen"),
                (HammingIndex, "filter_new", "state.index_screen")]

    def screens(self) -> list[Capture]:
        """Captured worker-side index screens, in pipeline order."""
        return []

    def layer_metrics(self, tracer, iterations: list[int], run_s: float,
                      wall_s: float) -> dict:
        """Per-layer values: driver-side spans of the traced iterations
        (median per iteration) plus the worker-side layers replayed
        in-process; what neither accounts for is ``unattributed_s``."""
        rp = self.replay()
        screen_s = tracer.median_per_iteration("state.index_screen", iterations) + rp["screen_s"]
        manifest_s = tracer.median_per_iteration("state.manifest_commit", iterations)
        append_s = tracer.median_per_iteration("state.index_append", iterations)
        fixed_s = self.fixed_s()
        attributed = (rp["read_s"] + screen_s + rp["rules_s"] + rp["decode_s"] + rp["phash_s"]
                      + manifest_s + append_s)
        return {
            "rules.apply_s": rp["rules_s"],
            "rules.rows": rp["rows"],
            "rules.drop_frac": rp["dropped"] / max(1, rp["rows"]),
            "stages.decode_s": rp["decode_s"],
            "stages.phash_s": rp["phash_s"],
            "stages.images_decoded": rp["decoded"],
            "state.index_screen_s": screen_s,
            "state.index_screen_keep_frac": rp["rows"] / self.rows,
            "state.index_append_s": append_s,
            "state.manifest_commit_s": manifest_s,
            "state.manifest_commits": statistics.median(
                tracer.count("state.manifest_commit", i) for i in iterations),
            "sources.read_s": rp["read_s"],
            "sources.fixture_rows": self.rows,
            "sources.fixture_mb": sum(os.path.getsize(f) for f in self.files()) / 1e6,
            "pipelines.run_s": run_s,
            "pipelines.fixed_s": fixed_s,
            "pipelines.per_image_ms": 1000 * (wall_s - fixed_s) / (self.rows - self.slice_rows),
            "pipelines.unattributed_s": run_s - attributed,
        }

    def replay(self) -> dict:
        """Re-run the worker-side layers in-process over the run's inputs,
        in 2048-row batches as phase 1 sees them: the parquet read, the
        index screens, the rule chain, then decode and phash of the rule
        survivors."""
        from data_quality_ray.pipelines.quality_filter import build_image_chain
        from data_quality_ray.stages.image import decode, phash64_batch

        r = dict.fromkeys(("read_s", "screen_s", "rules_s", "decode_s", "phash_s"), 0.0)
        t0 = time.perf_counter()
        tables = [pq.read_table(f) for f in self.files()]
        r["read_s"] = time.perf_counter() - t0
        screens = self.screens()
        t0 = time.perf_counter()
        for cap in screens:
            tables = [cap.replay(t) for t in tables]
        r["screen_s"] = time.perf_counter() - t0
        batch = pa.concat_tables(tables)
        r["rows"] = batch.num_rows
        engine = build_image_chain()
        r["dropped"] = r["decoded"] = 0
        for start in range(0, batch.num_rows, BATCH_SIZE):
            b = batch.slice(start, BATCH_SIZE)
            t0 = time.perf_counter()
            res = engine.apply(b["caption"].to_numpy(zero_copy_only=False))
            r["rules_s"] += time.perf_counter() - t0
            alive = np.flatnonzero(res.verdict != "DROP")
            r["dropped"] += len(b) - len(alive)
            blobs = b["bytes"].to_numpy(zero_copy_only=False)
            fmts = b["fmt"].to_numpy(zero_copy_only=False)
            t0 = time.perf_counter()
            pixels = [decode(blobs[i], fmts[i]) for i in alive]
            r["decode_s"] += time.perf_counter() - t0
            t0 = time.perf_counter()
            phash64_batch(pixels)
            r["phash_s"] += time.perf_counter() - t0
            r["decoded"] += len(pixels)
        return r


class RecrawlWorkload(FlagshipWorkload):
    """Day-two run: a seeded half of the fixture's fragments was committed
    to both cross-run indexes on day one; every iteration re-runs all
    fragments against the restored day-one indexes."""

    def __init__(self, work: str, seed: int):
        super().__init__(work, seed)
        self.index = os.path.join(work, "index")
        self.index_day1 = os.path.join(work, "index_day1")
        self.run_kwargs = {"dedup_index_dir": os.path.join(self.index, "exact"),
                           "neardup_index_dir": os.path.join(self.index, "near"),
                           "final_output": "metadata"}

    def prepare(self) -> None:
        from data_quality_ray.pipelines.north import run_quality_pipeline

        files = self.files()
        day1 = os.path.join(self.work, "day1")
        os.makedirs(day1)
        for i in sorted(random.Random(self.seed).sample(range(len(files)), len(files) // 2)):
            shutil.copy(files[i], day1)
        run_quality_pipeline(day1, os.path.join(self.work, "day1_out"), **self.run_kwargs)
        shutil.copytree(self.index, self.index_day1)
        keys = [pq.read_table(f, columns=["key"])["key"].to_numpy()
                for f in glob.glob(os.path.join(self.index_day1, "*", "gen-*", "keys-*.parquet"))]
        self.day1_keys = np.unique(np.concatenate(keys))
        shutil.rmtree(day1)
        shutil.rmtree(os.path.join(self.work, "day1_out"))

    def reset(self) -> None:
        super().reset()
        shutil.rmtree(self.index, ignore_errors=True)
        shutil.copytree(self.index_day1, self.index)

    def _final_problems(self, totals: dict) -> list[str]:
        win = pq.read_table(os.path.join(self.out, "final_keep", "winners.parquet"))
        problems = []
        if win.num_rows != totals["final_rows"]:
            problems.append(f"winners table holds {win.num_rows} rows, final_rows is "
                            f"{totals['final_rows']}")
        if np.isin(win["phash"].to_numpy(), self.day1_keys).any():
            problems.append("a final winner's phash is already in the day-one index")
        return problems

    def screens(self) -> list[Capture]:
        from data_quality_ray.state.dedup_index import DedupIndex
        from data_quality_ray.state.hamming_index import HammingIndex

        self.reset()
        caps = []
        for idx in (DedupIndex(self.run_kwargs["dedup_index_dir"]),
                    HammingIndex(self.run_kwargs["neardup_index_dir"], radius=2)):
            if idx.n_keys:
                cap = Capture()
                idx.filter_new(cap, "phash")
                caps.append(cap)
        return caps
