"""The columnar rule kernels against frozen copies of the per-caption
definitions they replaced (kept below, unchanged), on random strings over
all 128 ASCII code points, word salads of more than 128 tokens joined by
every Python whitespace, Unicode samples, ``None`` and ``""``."""

import math
import re
import string
from collections import Counter

import numpy as np
import pyarrow as pa
import pytest

from data_quality_ray.pipelines.quality_filter import build_docs_chain, build_image_chain
from data_quality_ray.rules import heuristics as H
from data_quality_ray.rules import scrub as S
from data_quality_ray.rules.oracle import oracle_labels
from data_quality_ray.rules.tokens import TextBatch
from data_quality_ray.stages.models import _LANG_MARKERS, HeuristicLangID, NgramPerplexity

# ---- frozen per-caption definitions ----------------------------------------

_OLD_JUNK_RE = re.compile(r"^[0-9０-９\s.,/:+%-]+$")
_OLD_JUNK_DIGIT_RE = re.compile(r"[0-9０-９]")
_OLD_DEL = str.maketrans("", "", string.ascii_letters + string.digits)
_OLD_RUN_RE = re.compile(r"(.)\1{4,}")
_OLD_TOKEN_RE = re.compile(r"[^\W\d_]+", re.UNICODE)


def old_empty(v):
    return v is None or str(v).strip() == ""


def old_length(v, lo, hi):
    return v is None or not (lo <= len(v) <= hi)


def old_junk(v):
    return v is not None and _OLD_JUNK_RE.match(v) is not None \
        and _OLD_JUNK_DIGIT_RE.search(v) is not None


def old_symbol_ratio(v, max_ratio=0.3):
    if v is None:
        return False
    ns = "".join(v.split())
    if not ns:
        return False
    return len(ns.translate(_OLD_DEL)) / len(ns) > max_ratio


def old_repetition(v, max_top_ratio=0.5, min_tokens=6):
    if v is None:
        return False
    toks = v.lower().split()
    if len(toks) < min_tokens:
        return False
    counts = {}
    for t in toks:
        counts[t] = counts.get(t, 0) + 1
    return max(counts.values()) / len(toks) >= max_top_ratio


def old_char_run(v):
    return v is not None and bool(_OLD_RUN_RE.search(v))


def old_stopword(v, min_ratio=0.08, min_tokens=8, stopwords=H.EN_STOPWORDS):
    if v is None:
        return False
    toks = v.lower().split()
    if len(toks) < min_tokens:
        return False
    hits = sum(1 for t in toks if t in stopwords)
    return hits / len(toks) < min_ratio


def old_langid(text):
    if not text:
        return "unknown"
    if not text.isascii():
        cjk = sum(1 for c in text if 0x4E00 <= ord(c) <= 0x9FFF)
        if cjk and cjk / max(1, len(text.replace(" ", ""))) > 0.2:
            return "zh"
    order = ("en", "es", "fr", "de")
    scores = dict.fromkeys(order, 0)
    toks = [t.lower() for t in _OLD_TOKEN_RE.findall(text)]
    if not toks:
        return "unknown"
    for t in toks:
        for lang in order:
            if t in _LANG_MARKERS[lang]:
                scores[lang] += 1
    best_lang, best = "unknown", 0
    for lang in order:
        if scores[lang] > best:
            best_lang, best = lang, scores[lang]
    return best_lang


def old_perplexity(model, text):
    if not text:
        return float("inf")
    toks = [model.BOS] + [t if t in model.vocab else model.UNK for t in text.lower().split()]
    if len(toks) < 2:
        return float("inf")
    lp = 0.0
    for prev, w in zip(toks, toks[1:]):
        p = model._logp_pair.get((prev, w))
        lp += p if p is not None else model._logp_miss.get(prev, model._logp_miss_unk)
    return math.exp(-lp / (len(toks) - 1))


# ---- inputs -------------------------------------------------------------------

_SPACES = [" ", "  ", "\t", "\n", "\n\n\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x1f"]
_UNICODE = ["é", "中文字", "ß", "　", "\xa0", "\x85", " ", "ſ", "K", "１２３", "²",
            "🐕", "𠀀"]


def _words() -> list[str]:
    pool = set(H.EN_STOPWORDS) | set().union(*_LANG_MARKERS.values())
    pool |= set(sorted(NgramPerplexity().vocab)[:300]) | set(S.TOXIC_LEXICON)
    pool = sorted(pool)
    return pool + [w.upper() for w in pool[:40]] + [w.title() for w in pool[40:80]] + [
        "x@y.com", "123-45-6789", "555-123-4567", "+1", "(555)", "!!!", "$$$", "...", "12,5",
        "aaaaaa", "zzzz", "<s>", "<unk>", "éclair", "naïve", "中"]


def fuzz_values(seed: int = 7, n_random: int = 20000, n_words: int = 6000) -> list:
    rng = np.random.RandomState(seed)
    ascii_chars = [chr(i) for i in range(128)]
    vals: list = [None, "", " ", "\x1c", "\n\n", "aaaaa", "aaaa\na", "\n\n\n\n\n",
                  "12\n", "a" * 300, " ".join(["spam"] * 200)]
    for _ in range(n_random):
        k = rng.randint(0, 40)
        s = "".join(ascii_chars[j] for j in rng.randint(0, 128, k))
        if rng.rand() < 0.3:  # plant runs
            c = ascii_chars[rng.randint(0, 128)]
            pos = rng.randint(0, len(s) + 1)
            s = s[:pos] + c * rng.randint(2, 8) + s[pos:]
        if rng.rand() < 0.05:
            s += _UNICODE[rng.randint(len(_UNICODE))]
        vals.append(s)
    words = _words()
    for _ in range(n_words):
        k = rng.choice([0, 1, 3, 6, 8, 9, 12, 20, 40, 130, 200])
        toks = [words[j] for j in rng.randint(0, len(words), k)]
        if k and rng.rand() < 0.3:  # a dominant token
            toks[: k // 2 + 1] = [toks[0]] * (k // 2 + 1)
            rng.shuffle(toks)
        seps = [_SPACES[j] if rng.rand() < 0.2 else " " for j in rng.randint(0, len(_SPACES), k + 1)]
        s = "".join(sep + t for sep, t in zip(seps, toks)) + (seps[-1] if rng.rand() < 0.3 else "")
        if rng.rand() < 0.03:
            s += _UNICODE[rng.randint(len(_UNICODE))]
        vals.append(s)
    return vals


VALS = np.array(fuzz_values(), dtype=object)


def _old(fn, vals=VALS):
    return np.array([fn(v) for v in vals])


@pytest.fixture(scope="module")
def batch():
    return TextBatch.of(VALS)


def _check(got, want, lo=50):
    got, want = np.asarray(got), np.asarray(want)
    assert got.tolist() == want.tolist()
    if want.dtype == bool:  # the inputs exercise both answers
        assert lo < want.sum() < len(want) - lo


def test_byte_rules_match(batch):
    _check(H.empty_mask(batch), _old(old_empty), lo=5)
    _check(H.length_mask(batch, 15, 300), _old(lambda v: old_length(v, 15, 300)))
    _check(H.junk_numeric_mask(batch), _old(old_junk), lo=5)
    for r in (0.0, 0.3, 0.5):
        _check(H.symbol_ratio_mask(batch, r), _old(lambda v: old_symbol_ratio(v, r)))
    _check(H.char_run_mask(batch), _old(old_char_run))


def test_char_run_other_lengths():
    for run_len in (1, 2, 3, 7):
        rx = re.compile(r"(.)\1{%d,}" % (run_len - 1))
        _check(H.char_run_mask(VALS, run_len),
               _old(lambda v: v is not None and bool(rx.search(v))), lo=5)


def test_token_rules_match(batch):
    _check(H.repetition_mask(batch), _old(old_repetition))
    _check(H.stopword_density_mask(batch), _old(old_stopword))
    _check(H.repetition_mask(batch, 0.3, 3), _old(lambda v: old_repetition(v, 0.3, 3)))
    sw = frozenset({"spam", "the", "x@y.com"})
    _check(H.stopword_density_mask(batch, 0.5, 2, sw),
           _old(lambda v: old_stopword(v, 0.5, 2, sw)))


def test_langid_matches(batch):
    _check(HeuristicLangID().predict(batch), _old(old_langid))
    assert {"en", "es", "fr", "de", "unknown"} <= set(_old(old_langid))


def test_perplexity_bit_for_bit(batch):
    """The old ``lp += …`` order and ``math.exp``: pairwise sums or
    ``np.exp`` move the last bit of some of these."""
    model = NgramPerplexity()
    got = model.perplexity(batch)
    want = np.array([old_perplexity(model, v) for v in VALS], dtype=np.float64)
    assert got.tobytes() == want.tobytes()
    n_tok = np.array([len(v.split()) if v else 0 for v in VALS])
    assert (n_tok > 128).sum() > 100


def test_scrubs_match(batch):
    for fn, rx, tok in ((S.scrub_email, S._EMAIL_RE, S.EMAIL_TOKEN),
                        (S.scrub_ssn, S._SSN_RE, S.SSN_TOKEN),
                        (S.scrub_phone, S._PHONE_RE, S.PHONE_TOKEN),
                        (S.scrub_toxic, S._TOXIC_RE, S.TOXIC_MASK)):
        want = _old(lambda v: v if v is None else rx.sub(tok, v))
        got = fn(batch)
        assert got.tolist() == want.tolist()
        assert (got != VALS).sum() > 5
    # IGNORECASE folds 'ſ' to 's' and the Kelvin sign to 'k': non-ASCII rows
    # always reach the regex
    assert S.scrub_toxic(np.array(["oh ſmeg", "shazbot", "FRAK!"], dtype=object)).tolist() \
        == ["oh ****", "****", "****!"]


def _old_chain(vals, aux=None):
    """Today's engine semantics on one value at a time with the frozen
    definitions: first failing drop rule, else scrubs in order."""
    model, ppl_t = NgramPerplexity(), 120.0
    out = []
    for i, v in enumerate(vals):
        if aux is None:
            drops = [("empty", old_empty), ("length", lambda x: old_length(x, 15, 300)),
                     ("junk_numeric", old_junk), ("langid", lambda x: old_langid(x) != "en"),
                     ("symbol_ratio", old_symbol_ratio), ("char_run", old_char_run),
                     ("repetition", old_repetition), ("stopword_density", old_stopword),
                     ("perplexity", lambda x: old_perplexity(model, x) > ppl_t)]
        else:
            drops = [("empty", old_empty), ("length", lambda x: old_length(x, 60, 500)),
                     ("junk_numeric", old_junk), ("langid", lambda x: aux[i] != "en"),
                     ("symbol_ratio", old_symbol_ratio), ("repetition", old_repetition),
                     ("stopword_density", old_stopword)]
        rule = next((name for name, f in drops if f(v)), None)
        if rule is not None:
            out.append(("DROP", rule, v))
            continue
        first, cur = "", v
        for name, rx, tok in (("toxicity", S._TOXIC_RE, S.TOXIC_MASK),
                              ("pii_email", S._EMAIL_RE, S.EMAIL_TOKEN),
                              ("pii_ssn", S._SSN_RE, S.SSN_TOKEN),
                              ("pii_phone", S._PHONE_RE, S.PHONE_TOKEN)):
            new = rx.sub(tok, cur)
            if new != cur:
                first, cur = first or name, new
        out.append(("CORRECTED" if first else "KEEP", first, cur))
    return out


def _chain_rows(res):
    return list(zip(res.verdict.tolist(), res.first_rule.tolist(), res.values.tolist()))


@pytest.mark.parametrize("docs", [False, True])
def test_chain_matches_frozen_definitions_and_oracle(docs):
    """The engine (distinct values, columnar kernels), the row-by-row
    oracle (scalar definitions) and the frozen definitions agree; a
    repeated value with a different ``lang`` is decided by its own row."""
    vals = np.concatenate([VALS[:3000], VALS[-3000:], VALS[-3000:]])
    engine = build_docs_chain() if docs else build_image_chain()
    aux = None
    if docs:
        aux = np.array(["en", "en", "de"] * (len(vals) // 3), dtype=object)
    res = engine.apply(pa.array(vals, type=pa.string()),
                       aux=None if aux is None else {"lang": aux})
    want = _old_chain(vals, aux)
    assert _chain_rows(res) == want
    keep, first, scrubbed = oracle_labels(vals, engine, None if aux is None else {"lang": aux})
    assert keep.tolist() == [w[0] != "DROP" for w in want]
    assert first.tolist() == [w[1] for w in want]
    assert scrubbed.tolist() == [w[2] for w in want]
    drops = Counter(w[1] for w in want if w[0] == "DROP")
    assert len(drops) >= 6
    hits = res.tally.counts
    assert {k: hits[k] for k in drops} == drops
    assert res.tally.dropped == sum(drops.values()) and res.tally.total == len(vals)


def test_rule_matrix_runs_the_kernels():
    engine = build_image_chain()
    vals = VALS[-4000:]
    m = engine.rule_matrix(vals)
    for rule in engine.drop_rules:
        assert m[rule.name].tolist() == [bool(rule.one(v)) for v in vals], rule.name


def test_chain_on_empty_and_all_null():
    engine = build_image_chain()
    assert len(engine.apply(np.array([], dtype=object)).verdict) == 0
    res = engine.apply(pa.array([None, None], type=pa.string()))
    assert res.verdict.tolist() == ["DROP", "DROP"] and res.first_rule.tolist() == ["empty"] * 2


def test_oracle_walks_scalar_definitions_only():
    """The labeller never calls a rule's columnar ``fn``, so fixture labels
    made by it can disagree with a kernel bug."""
    engine = build_image_chain()

    def broken(*_):
        raise AssertionError("the oracle ran a kernel")

    for rule in engine.drop_rules + engine.scrub_rules:
        rule.fn = broken
    keep, first, scrubbed = oracle_labels(VALS[-500:], engine)
    want = _old_chain(VALS[-500:])
    assert first.tolist() == [w[1] for w in want]
