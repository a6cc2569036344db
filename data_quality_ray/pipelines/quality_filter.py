"""Quality-filter rule chains and the Ray Data stage that applies one.

Chain assembly (rule order is part of the contract — it determines
first-failure attribution, EmailVerify.java:120-150 semantics): each
library rule is a columnar kernel plus its scalar definition (``one``),
see rules/core.py. ``QualityFilterStage`` applies a chain to a Dataset:

    read → map_batches(QualityFilterStage, concurrency=N)   # actor pool
         → (optionally) keep only non-DROP rows

The flagship pipeline (pipelines/north.py) does not use this stage: its
phase-1 Ray tasks apply ``build_image_chain`` inside ``Phase1Stage``.
``QualityFilterStage`` is a callable class: models (langid, perplexity
LM) are built ONCE per actor in ``__init__`` (the per-JVM
dictionary-singleton pattern, TextTokenizerBase.java:19-56), each Arrow
batch is scored vectorized in ``__call__``. The image ``bytes`` column
rides along zero-copy — caption rules never touch it.
"""

from __future__ import annotations

from functools import partial

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


def _drop(name: str, mask, one, **params) -> DropRule:
    """A columnar drop rule and its scalar definition, bound to ``params``."""
    return DropRule(name, partial(mask, **params), one=partial(one, **params))


def _scrubs() -> list[ScrubRule]:
    return [
        ScrubRule("toxicity", S.scrub_toxic, one=S.scrub_toxic_one),
        ScrubRule("pii_email", S.scrub_email, one=S.scrub_email_one),
        ScrubRule("pii_ssn", S.scrub_ssn, one=S.scrub_ssn_one),
        ScrubRule("pii_phone", S.scrub_phone, one=S.scrub_phone_one),
    ]


def build_image_chain(ppl_threshold: float = PPL_THRESHOLD) -> RuleEngine:
    """Rule chain for image+caption rows (caption column). Ordered; rule k
    sees only rows undecided by rules 1..k-1."""
    langid = HeuristicLangID()
    ppl = NgramPerplexity()
    drop = [
        _drop("empty", H.empty_mask, H.empty_one),
        _drop("length", H.length_mask, H.length_one,
              min_len=CAPTION_MIN_LEN, max_len=CAPTION_MAX_LEN),
        _drop("junk_numeric", H.junk_numeric_mask, H.junk_numeric_one),
        DropRule("langid", lambda v: langid.predict(v) != "en",
                 one=lambda v: langid.predict_one(v) != "en"),
        _drop("symbol_ratio", H.symbol_ratio_mask, H.symbol_ratio_one),
        _drop("char_run", H.char_run_mask, H.char_run_one),
        _drop("repetition", H.repetition_mask, H.repetition_one),
        _drop("stopword_density", H.stopword_density_mask, H.stopword_density_one),
        DropRule("perplexity", lambda v: ppl.perplexity(v) > ppl_threshold,
                 one=lambda v: ppl.perplexity_one(v) > ppl_threshold),
    ]
    return RuleEngine(drop, _scrubs())


def build_docs_chain() -> RuleEngine:
    """Rule chain for the `documents` table (text + provided lang column).

    Every rule here is expressible in ANSI SQL (see
    ``__ray_entry__.oracle_sql['quality_filter_docs']``) so the DuckDB
    oracle checks it end-to-end: empty, length, junk_numeric, langid (from
    the lang column), symbol_ratio, repetition, stopword_density, then the
    PII/toxicity scrubs."""
    drop = [
        _drop("empty", H.empty_mask, H.empty_one),
        _drop("length", H.length_mask, H.length_one, min_len=DOC_MIN_LEN, max_len=DOC_MAX_LEN),
        _drop("junk_numeric", H.junk_numeric_mask, H.junk_numeric_one),
        DropRule("langid", lambda v, aux: np.asarray(aux["lang"], dtype=object) != "en",
                 use_aux=True, one=lambda v, aux: aux["lang"] != "en"),
        _drop("symbol_ratio", H.symbol_ratio_mask, H.symbol_ratio_one),
        _drop("repetition", H.repetition_mask, H.repetition_one),
        _drop("stopword_density", H.stopword_density_mask, H.stopword_density_one),
    ]
    return RuleEngine(drop, _scrubs())


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
        aux = {c: batch[c].to_numpy(zero_copy_only=False) for c in self.aux_columns}
        res = self.engine.apply(batch[self.column], aux=aux)
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
