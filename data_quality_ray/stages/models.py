"""Stateful model stages: language ID and n-gram perplexity.

These are the "model loaded once per actor" stages of the north pipeline
(reference precedent: the per-JVM lazy dictionary singletons —
dataquality-text-japanese tokenization/TextTokenizerBase.java:19-56,
dataquality-wordnet WordNetDictionary.getInstance:46). In Ray Data they are
held inside a callable class passed to ``map_batches(Cls, concurrency=N)``:
construction happens once per actor in ``__init__``, scoring per batch in
``__call__`` (see ``pipelines/quality_filter.QualityFilterStage``), or once
per worker process (``process_model``).

- ``HeuristicLangID``: fastText-style lightweight language identifier —
  charset check (CJK) + function-word profiles for {en,es,fr,de}. Fully
  deterministic, no external model file.
- ``NgramPerplexity``: KenLM-style word-bigram language model with add-k
  smoothing, trained at init on the deterministic in-domain corpus
  (stages/corpus.py). High perplexity ⇒ word salad.

Both score a batch as columnar kernels over a ``rules.tokens.TextBatch``
(ASCII rows; nulls and non-ASCII rows go through ``predict_one`` /
``perplexity_one``, once per distinct value).
"""

from __future__ import annotations

import math
import re
from collections import Counter

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..rules.heuristics import round_half_away
from ..rules.tokens import TextBatch
from .corpus import training_sentences

_PROCESS_MODELS: dict = {}


def process_model(cls, *args):
    """Per-worker-process model singleton: for models whose construction
    is cheap (≤ tens of ms — regex compile, small n-gram LM) a stage can
    run as a TASK pool (no per-query actor launches, fully elastic)
    while still building the model once per process — the actor-pool
    shape only pays off when setup is expensive AND can't ride a
    broadcast (then see HashedLinearQuality.from_weights)."""
    key = (cls, args)
    if key not in _PROCESS_MODELS:
        _PROCESS_MODELS[key] = cls(*args)
    return _PROCESS_MODELS[key]


_LANG_MARKERS: dict[str, frozenset] = {
    "en": frozenset("the and of in is a an with for on this there near next to at by".split()),
    "es": frozenset("el la los las de que en un una es y por corre casa junto".split()),
    "fr": frozenset("le la les des du et est une dans pour avec sur près chez".split()),
    "de": frozenset("der die das und ist ein eine mit für von auf nicht dem neben".split()),
}
_LANG_ORDER = ("en", "es", "fr", "de")
_TOKEN_RE = re.compile(r"[^\W\d_]+", re.UNICODE)


class HeuristicLangID:
    """Deterministic language identification: ``predict`` → lang code or
    'unknown'. CJK-dominant text → 'zh'; otherwise argmax of function-word
    hits over the per-language marker sets (ties broken by _LANG_ORDER)."""

    def __init__(self):
        self.markers = _LANG_MARKERS
        # token → tuple of language indices containing it: ONE dict probe
        # per token instead of four set-membership passes
        self._tok_langs: dict[str, tuple[int, ...]] = {}
        for li, lang in enumerate(_LANG_ORDER):
            for w in _LANG_MARKERS[lang]:
                self._tok_langs[w] = self._tok_langs.get(w, ()) + (li,)
        # the same table as arrays: marker words and a (word, lang) 0/1 matrix
        self._words = pa.array(sorted(self._tok_langs), type=pa.string())
        self._word_langs = np.zeros((len(self._words), len(_LANG_ORDER)), dtype=np.int64)
        for wi, w in enumerate(self._words.to_pylist()):
            self._word_langs[wi, list(self._tok_langs[w])] = 1

    def predict_one(self, text: str | None) -> str:
        if not text:
            return "unknown"
        if not text.isascii():  # C-speed prefilter: CJK needs non-ASCII
            cjk = sum(1 for c in text if 0x4E00 <= ord(c) <= 0x9FFF)
            if cjk and cjk / max(1, len(text.replace(" ", ""))) > 0.2:
                return "zh"
        findall = _TOKEN_RE.findall
        get = self._tok_langs.get
        scores = [0, 0, 0, 0]
        n_toks = 0
        for t in findall(text):
            n_toks += 1
            hit = get(t.lower())
            if hit is not None:
                for li in hit:
                    scores[li] += 1
        if n_toks == 0:
            return "unknown"
        best_lang, best = "unknown", 0
        for li, lang in enumerate(_LANG_ORDER):
            if scores[li] > best:
                best_lang, best = lang, scores[li]
        return best_lang

    def predict(self, values) -> np.ndarray:
        """``predict_one`` of every value. ASCII rows: marker hits per
        language from the letter-run token table, argmax in _LANG_ORDER
        order (the first strictly greater score wins), 'unknown' on no hit."""
        t = TextBatch.of(values)
        tab = t.letters
        marker = pc.index_in(tab.vocab, value_set=self._words)
        marker = pc.fill_null(marker, len(self._words)).to_numpy()[tab.ids]
        hit = marker < len(self._words)
        rows, langs = tab.parent[hit], self._word_langs[marker[hit]]
        scores = np.stack([np.bincount(rows[langs[:, li] > 0], minlength=len(t))
                           for li in range(len(_LANG_ORDER))], axis=1)
        best = scores.argmax(axis=1)
        pred = np.where(scores.max(axis=1) > 0, np.array(_LANG_ORDER, dtype=object)[best],
                        "unknown")
        return t.per_ascii(pred[t.ascii], self.predict_one, dtype=object)


class NgramPerplexity:
    """Word-bigram LM with add-k smoothing; perplexity per caption.

    P(w|prev) = (c(prev,w) + k) / (c(prev) + k·V); ppl = exp(−mean log P).
    OOV words map to a single UNK id. Deterministic by construction.
    """

    BOS = "<s>"
    UNK = "<unk>"

    def __init__(self, k: float = 0.1, corpus: list[str] | None = None):
        self.k = k
        sents = corpus if corpus is not None else training_sentences()
        uni: Counter = Counter()
        bi: Counter = Counter()
        for s in sents:
            toks = [self.BOS] + s.lower().split()
            uni.update(toks)
            bi.update(zip(toks, toks[1:]))
        self.vocab = set(uni)
        self.V = len(self.vocab) + 1  # + UNK
        self.uni, self.bi = dict(uni), dict(bi)
        # precomputed log-probs (one log per DISTINCT event at init, none
        # per scored pair): seen bigrams + per-prev unseen fallback
        self._logp_pair = {
            (p, w): math.log((c + self.k) / (self.uni.get(p, 0) + self.k * self.V))
            for (p, w), c in self.bi.items()
        }
        self._logp_miss = {
            p: math.log((0 + self.k) / (c + self.k * self.V)) for p, c in self.uni.items()
        }
        self._logp_miss_unk = math.log((0 + self.k) / (0 + self.k * self.V))
        # the same model as arrays, built once per instance: LM word ids
        # (UNK last unless the corpus has it), sorted int64 bigram keys
        # prev·W + w with their log-probs, and the per-prev miss log-prob
        words = sorted(self.vocab)
        self._lm_words = pa.array(words, type=pa.string())
        ids = {w: i for i, w in enumerate(words)}
        self._unk = ids.get(self.UNK, len(words))
        self._bos = ids[self.BOS]
        self._W = len(words) + 1
        keys = np.array([ids[p] * self._W + ids[w] for p, w in self._logp_pair], dtype=np.int64)
        order = np.argsort(keys)
        self._pair_keys = keys[order]
        self._pair_lp = np.array(list(self._logp_pair.values()), dtype=np.float64)[order]
        self._miss_lp = np.array([self._logp_miss.get(w, self._logp_miss_unk) for w in words]
                                 + [self._logp_miss.get(self.UNK, self._logp_miss_unk)])

    def _pair_logp(self, prev: str, w: str) -> float:
        lp = self._logp_pair.get((prev, w))
        if lp is None:
            lp = self._logp_miss.get(prev, self._logp_miss_unk)
        return lp

    def perplexity_one(self, text: str | None) -> float:
        if not text:
            return float("inf")
        toks = [t if t in self.vocab else self.UNK for t in text.lower().split()]
        toks = [self.BOS] + toks
        if len(toks) < 2:
            return float("inf")
        lp = 0.0
        for prev, w in zip(toks, toks[1:]):
            lp += self._pair_logp(prev, w)
        return math.exp(-lp / (len(toks) - 1))

    def perplexity(self, values) -> np.ndarray:
        """``perplexity_one`` of every value, bit for bit. ASCII rows: LM ids
        of the ``lower().split()`` token table, bigram keys looked up by
        ``searchsorted``, and each row's log-probs added left to right
        (``_ordered_row_sums``) as ``perplexity_one`` does."""
        t = TextBatch.of(values)
        tab = t.words
        lm = pc.fill_null(pc.index_in(tab.vocab, value_set=self._lm_words), self._unk)
        cur = lm.to_numpy()[tab.ids].astype(np.int64)
        prev = np.empty_like(cur)
        prev[1:] = cur[:-1]
        prev[tab.position == 0] = self._bos
        keys = prev * self._W + cur
        pos = np.minimum(np.searchsorted(self._pair_keys, keys), len(self._pair_keys) - 1)
        lp = np.where(self._pair_keys[pos] == keys, self._pair_lp[pos], self._miss_lp[prev])
        n = tab.counts
        mean = -_ordered_row_sums(lp, tab.position, tab.parent, n) / np.maximum(n, 1)
        # math.exp, not np.exp: the two may differ in the last bit
        ppl = np.array([math.exp(x) if c else math.inf for x, c in zip(mean.tolist(), n.tolist())])
        return t.per_ascii(ppl[t.ascii], self.perplexity_one, dtype=np.float64)


def _ordered_row_sums(x: np.ndarray, position: np.ndarray, parent: np.ndarray,
                      counts: np.ndarray) -> np.ndarray:
    """Per row, ``0.0 + x[0] + x[1] + …`` in that order (``np.add.reduceat``
    and ``np.sum`` sum pairwise, which can move the last bit). Rows sorted by
    descending length put position p's terms in one contiguous run over the
    first k_p rows, so the loop is one vector add per position."""
    order = np.argsort(-counts, kind="stable")
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    active = np.bincount(counts, minlength=1)[::-1].cumsum()[::-1][1:]  # rows longer than p
    row_start = np.concatenate(([0], np.cumsum(active)))
    by_pos = np.empty(len(x))
    by_pos[row_start[position] + rank[parent]] = x
    acc = np.zeros(len(counts))
    for p, k in enumerate(active.tolist()):
        acc[:k] += by_pos[row_start[p]: row_start[p] + k]
    return acc[rank]


class HashedLinearQuality:
    """fastText-style hashed linear quality classifier.

    Features = word unigrams + bigrams (shared lowercase/whitespace-split
    tokenizer), hashed to ``n_buckets`` via md5 (the SQL-replayable hash).
    Weights = per-bucket add-one-smoothed Naive-Bayes log-odds trained on
    the in-domain caption corpus (positive) vs the deterministic junk
    corpus (negative) — a DENSE weight vector, trained once per process
    (build the instance in an actor's / stage's ``__init__``). Score =
    mean feature weight, round-half-away at 6 dp; label = score > 0.
    The DuckDB oracle re-trains the identical model from the corpus side
    tables and re-scores every document independently.
    """

    def __init__(self, n_buckets: int = 4096,
                 pos: list[str] | None = None,
                 neg: list[str] | None = None):
        from ..profiling.sketches import md5_hash64
        from .corpus import junk_sentences

        self._hash = md5_hash64
        self.B = n_buckets
        pos = pos if pos is not None else training_sentences()
        neg = neg if neg is not None else junk_sentences()
        pc, ptot = self._bucket_counts(pos)
        nc, ntot = self._bucket_counts(neg)
        self.w = (np.log((pc + 1.0) / (ptot + self.B))
                  - np.log((nc + 1.0) / (ntot + self.B)))

    @classmethod
    def from_weights(cls, w: np.ndarray) -> "HashedLinearQuality":
        """Rebuild a scorer from an already-trained weight vector
        WITHOUT re-training: training costs ~0.6 s per instance, so an
        autoscaling actor pool that trains in every actor's __init__
        pays it per actor per query. Train ONCE on the driver,
        ``ray.put`` the dense 4096-float vector, and have each actor
        reconstruct from the broadcast — identical scores (the model is
        deterministic), setup cost per actor drops to a memcpy."""
        from ..profiling.sketches import md5_hash64

        self = cls.__new__(cls)
        self._hash = md5_hash64
        self.w = np.asarray(w, dtype=np.float64)
        self.B = len(self.w)
        return self

    @staticmethod
    def _features(text: str | None) -> list[str]:
        toks = (text or "").lower().split()
        return toks + [a + " " + b for a, b in zip(toks, toks[1:])]

    def _buckets(self, flat: list[str]) -> np.ndarray:
        """md5 % B over the DISTINCT feature strings (features repeat
        heavily), mapped back to occurrence order. uint64 mod uint64 —
        a python-int modulus would silently promote to float64."""
        uniq, inv = np.unique(np.array(flat, dtype=object), return_inverse=True)
        return (self._hash(uniq) % np.uint64(self.B)).astype(np.int64)[inv]

    def _bucket_counts(self, sents) -> tuple[np.ndarray, int]:
        flat = [f for s in sents for f in self._features(s)]
        if not flat:
            return np.zeros(self.B, dtype=np.int64), 0
        return (np.bincount(self._buckets(flat), minlength=self.B),
                len(flat))

    def score(self, values) -> dict[str, np.ndarray]:
        """→ n_features / quality_score / quality_label arrays for a
        batch; one hash pass over the batch's distinct features, segment
        sums via prefix-sum (robust to zero-feature docs anywhere)."""
        vals = np.asarray(values, dtype=object)
        feats = [self._features(v if isinstance(v, str) else "") for v in vals]
        counts = np.array([len(f) for f in feats], dtype=np.int64)
        flat = [f for fl in feats for f in fl]
        w = self.w[self._buckets(flat)] if flat else np.zeros(0, np.float64)
        csum = np.concatenate(([0.0], np.cumsum(w)))
        ends = np.cumsum(counts)
        sums = csum[ends] - csum[ends - counts]
        raw = sums / np.maximum(counts, 1)
        score = round_half_away(raw)
        return {"n_features": counts,
                "quality_score": score,
                "quality_label": score > 0}
