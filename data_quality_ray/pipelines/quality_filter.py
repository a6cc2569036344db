"""The flagship quality-filter pipeline (north star).

Chain assembly (rule order is part of the contract — it determines
first-failure attribution, EmailVerify.java:120-150 semantics) plus the
Ray Data stage that applies it:

    read → map_batches(QualityFilterStage, concurrency=N)   # actor pool
         → [groupby(phash) dedup]
         → write_parquet + lineage manifest

``QualityFilterStage`` is a callable class: models (langid, perplexity LM)
are built ONCE per actor in ``__init__`` (the per-JVM dictionary-singleton
pattern, TextTokenizerBase.java:19-56), each Arrow batch is scored
vectorized in ``__call__``. The image ``bytes`` column rides along
zero-copy — caption rules never touch it.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..rules.core import DropRule, RuleEngine, RuleTally, ScrubRule
from ..rules import heuristics as H
from ..rules import scrub as S
from ..stages.models import HeuristicLangID, NgramPerplexity

PPL_THRESHOLD = 120.0

# image-caption chain: codepoint length bounds for captions
CAPTION_MIN_LEN, CAPTION_MAX_LEN = 15, 300
# documents-table chain (text is longer-form)
DOC_MIN_LEN, DOC_MAX_LEN = 60, 500


def build_image_chain(ppl_threshold: float = PPL_THRESHOLD) -> RuleEngine:
    """Rule chain for image+caption rows (caption column). Ordered; rule k
    sees only rows undecided by rules 1..k-1."""
    langid = HeuristicLangID()
    ppl = NgramPerplexity()
    drop = [
        DropRule("empty", H.empty_mask),
        DropRule("length", lambda v: H.length_mask(v, CAPTION_MIN_LEN, CAPTION_MAX_LEN)),
        DropRule("junk_numeric", H.junk_numeric_mask),
        DropRule("langid", lambda v: langid.predict(v) != "en"),
        DropRule("symbol_ratio", H.symbol_ratio_mask),
        DropRule("char_run", H.char_run_mask),
        DropRule("repetition", H.repetition_mask),
        DropRule("stopword_density", H.stopword_density_mask),
        DropRule("perplexity", lambda v: ppl.perplexity(v) > ppl_threshold),
    ]
    scrub = [
        ScrubRule("toxicity", S.scrub_toxic),
        ScrubRule("pii_email", S.scrub_email),
        ScrubRule("pii_ssn", S.scrub_ssn),
        ScrubRule("pii_phone", S.scrub_phone),
    ]
    return RuleEngine(drop, scrub)


def build_docs_chain() -> RuleEngine:
    """Rule chain for the `documents` table (text + provided lang column).

    Every rule here is expressible in ANSI SQL (see
    ``__ray_entry__.oracle_sql['quality_filter_docs']``) so the DuckDB
    oracle checks it end-to-end: empty, length, junk_numeric, langid (from
    the lang column), symbol_ratio, repetition, stopword_density, then the
    PII/toxicity scrubs."""
    drop = [
        DropRule("empty", H.empty_mask),
        DropRule("length", lambda v: H.length_mask(v, DOC_MIN_LEN, DOC_MAX_LEN)),
        DropRule("junk_numeric", H.junk_numeric_mask),
        DropRule("langid", lambda v, aux: np.asarray(aux["lang"], dtype=object) != "en", use_aux=True),
        DropRule("symbol_ratio", H.symbol_ratio_mask),
        DropRule("repetition", H.repetition_mask),
        DropRule("stopword_density", H.stopword_density_mask),
    ]
    scrub = [
        ScrubRule("toxicity", S.scrub_toxic),
        ScrubRule("pii_email", S.scrub_email),
        ScrubRule("pii_ssn", S.scrub_ssn),
        ScrubRule("pii_phone", S.scrub_phone),
    ]
    return RuleEngine(drop, scrub)


_CHAIN_CACHE: dict[str, RuleEngine] = {}


def cached_chain(builder=build_docs_chain) -> RuleEngine:
    """Per-process chain cache: plain-function map_batches callers get the
    once-per-worker construction the actor-pool stage gets from
    ``__init__`` (the north.py _STAGE_CACHE pattern) instead of a rebuild
    per batch."""
    key = builder.__qualname__
    if key not in _CHAIN_CACHE:
        _CHAIN_CACHE[key] = builder()
    return _CHAIN_CACHE[key]


class QualityFilterStage:
    """Actor-pool batch stage: appends verdict / first_rule / rewritten
    caption columns. Models load once per actor; batches stay Arrow."""

    def __init__(self, chain_builder=build_image_chain, column: str = "caption",
                 aux_columns: tuple[str, ...] = ()):
        self.engine = chain_builder()
        self.column = column
        self.aux_columns = aux_columns
        self.tally = RuleTally()  # per-actor running tally (lineage)

    def __call__(self, batch: pa.Table) -> pa.Table:
        values = batch[self.column].to_numpy(zero_copy_only=False)
        aux = {c: batch[c].to_numpy(zero_copy_only=False) for c in self.aux_columns}
        res = self.engine.apply(values, aux=aux)
        self.tally.merge(res.tally)
        out = batch.set_column(
            batch.schema.get_field_index(self.column), self.column, pa.array(res.values, type=pa.string())
        )
        out = out.append_column("verdict", pa.array(res.verdict, type=pa.string()))
        out = out.append_column("first_rule", pa.array(res.first_rule, type=pa.string()))
        return out


def filtered(ds, chain_builder=build_image_chain, column: str = "caption",
             aux_columns: tuple[str, ...] = (), concurrency: int | tuple = (1, 4),
             batch_size: int = 4096, keep_only: bool = False,
             num_cpus: float | None = None, num_gpus: float | None = None):
    """Apply the quality-filter stage to a Dataset; optionally keep only
    surviving rows (KEEP/CORRECTED).

    ``num_cpus``/``num_gpus`` pin each actor's resource slice (the north
    rule's GPU/CPU-pinned model hosts): e.g. a real fastText/KenLM pair
    on GPU would use ``num_gpus=0.25, concurrency=(4, n_gpus*4)`` so the
    scheduler packs four scoring actors per device."""
    import pyarrow.compute as pc

    res = {}
    if num_cpus is not None:
        res["num_cpus"] = num_cpus
    if num_gpus is not None:
        res["num_gpus"] = num_gpus
    out = ds.map_batches(
        QualityFilterStage,
        fn_constructor_kwargs={"chain_builder": chain_builder, "column": column,
                               "aux_columns": aux_columns},
        batch_format="pyarrow",
        batch_size=batch_size,
        concurrency=concurrency,
        **res,
    )
    if keep_only:
        out = out.map_batches(
            lambda t: t.filter(pc.not_equal(t["verdict"], pa.scalar("DROP"))),
            batch_format="pyarrow",
        )
    return out
