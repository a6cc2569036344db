"""Unit tests for the rule kernels and the short-circuit chain engine."""

import re

import numpy as np
import pytest

from data_quality_ray.rules import heuristics as H
from data_quality_ray.rules import scrub as S
from data_quality_ray.rules.core import DropRule, RuleEngine, ScrubRule
from data_quality_ray.stages.models import HeuristicLangID, NgramPerplexity


def test_empty_and_length():
    vals = np.array([None, "", "   ", "hello world caption here", "hi"], dtype=object)
    assert H.empty_mask(vals).tolist() == [True, True, True, False, False]
    assert H.length_mask(vals, 5, 50).tolist() == [True, True, True, False, True]


def test_junk_numeric():
    vals = np.array(["2024/08/17 123,456.78", "a 2024 photo", "abc", "１２３", "+12-3"], dtype=object)
    assert H.junk_numeric_mask(vals).tolist() == [True, False, False, True, True]


def test_symbol_ratio():
    vals = np.array(["the $$$ price of a ### deal !!!", "a calm dog resting"], dtype=object)
    assert H.symbol_ratio_mask(vals).tolist() == [True, False]


_OLD_JUNK_RE = re.compile(r"^[0-9０-９\s.,/:+%-]+$")
_OLD_SYMBOL_RE = re.compile(r"[^A-Za-z0-9\s]")
_OLD_NONSPACE_RE = re.compile(r"\S")


def _old_junk_numeric_mask(values):
    return np.array([v is not None and any(c.isdigit() for c in v)
                     and bool(_OLD_JUNK_RE.match(v)) for v in values], dtype=bool)


def _old_symbol_ratio_mask(values, max_ratio=0.3):
    out = np.zeros(len(values), dtype=bool)
    for i, v in enumerate(values):
        if v is None:
            continue
        nonspace = len(_OLD_NONSPACE_RE.findall(v))
        if nonspace:
            out[i] = len(_OLD_SYMBOL_RE.findall(v)) / nonspace > max_ratio
    return out


def test_junk_numeric_and_symbol_ratio_match_regex_definitions():
    """The match-then-digit-search and split/translate kernels agree with
    the regex definitions they replaced (kept above) on random strings
    over digits of every kind, Unicode spaces, symbols and letters."""
    alphabet = ("0123456789０１２３４５６７８９²³¹⁴٣६"  # ASCII, full-width, other digits
                "  \t\n\r\x0b\x0c\x1c\x1d\x1e\x1f\x85\xa0\u2028\u3000"  # spaces
                ".,/:+%-$#!*_aZzé中ß")
    rng = np.random.RandomState(11)
    vals = [None, "", " ", "\x1c", "\x85", "\xa0", "\u3000", "１２３", "²³", "12\n", "12\x85"]
    for _ in range(20000):
        n = rng.randint(1, 12)
        vals.append("".join(alphabet[j] for j in rng.randint(0, len(alphabet), n)))
    vals = np.array(vals, dtype=object)
    junk = H.junk_numeric_mask(vals)
    assert junk.tolist() == _old_junk_numeric_mask(vals).tolist()
    assert 200 < junk.sum() < len(vals) - 200
    for r in (0.0, 0.3, 0.5):
        sym = H.symbol_ratio_mask(vals, r)
        assert sym.tolist() == _old_symbol_ratio_mask(vals, r).tolist()
        assert 200 < sym.sum() < len(vals) - 200


def test_repetition_and_char_run():
    rep = "the best buy buy buy buy buy buy buy buy deal"
    ok = "a photo of a small dog running in the park"
    assert H.repetition_mask(np.array([rep, ok], dtype=object)).tolist() == [True, False]
    assert H.char_run_mask(np.array(["sooooo cool", "soo cool"], dtype=object)).tolist() == [True, False]


def test_stopword_density():
    stuffing = "the mountain river bridge harbor tower boat window train forest market city garden child"
    normal = "a photo of a small dog running in the park"
    assert H.stopword_density_mask(np.array([stuffing, normal], dtype=object)).tolist() == [True, False]


def test_scrub_email_ssn_phone_toxic():
    vals = np.array(
        [
            "contact me at john.doe+x@mail.example.com now",
            "my id is 123-45-6789 ok",
            "call +1 555-123-4567 today",
            "what the frak is this",
            "a clean caption with no pii at all",
        ],
        dtype=object,
    )
    assert S.scrub_email(vals)[0] == "contact me at <EMAIL> now"
    assert S.scrub_ssn(vals)[1] == "my id is <SSN> ok"
    assert S.scrub_phone(vals)[2] == "call <PHONE> today"
    assert S.scrub_toxic(vals)[3] == "what the **** is this"
    assert S.scrub_email(vals)[4] == vals[4]


def test_email_validator():
    assert S.email_is_valid("a.b@x.com")
    assert not S.email_is_valid("a.b@x.zzz")  # TLD not whitelisted
    assert not S.email_is_valid("not-an-email")


def test_phone_handler():
    assert S.phone_is_possible("+1 555-123-4567")
    assert not S.phone_is_possible("12-34")
    assert S.phone_format_e164("555-123-4567") == "+15551234567"
    assert S.phone_format_e164("(555) 123-4567") == "+15551234567"


def test_langid():
    lid = HeuristicLangID()
    assert lid.predict_one("a photo of the dog in the park") == "en"
    assert lid.predict_one("le chien court dans la rue et le chat dort") == "fr"
    assert lid.predict_one("一只小狗在街上跑") == "zh"
    assert lid.predict_one("zzz qqq www") == "unknown"


def test_perplexity_separates():
    ppl = NgramPerplexity()
    low = ppl.perplexity_one("a photo of a small dog running in the park")
    high = ppl.perplexity_one("the zymurgy of quixotic and fjord in sphinx kumquat the obelisk")
    assert low < 50 < 200 < high


def test_chain_short_circuit_attribution():
    """A row failing rule 1 never reaches rule 2 (EmailVerify.java:131-150)."""
    calls = []

    def r1(v):
        calls.append(("r1", len(v)))
        return np.array([x == "bad1" for x in v])

    def r2(v):
        calls.append(("r2", len(v)))
        return np.array([x == "bad2" for x in v])

    eng = RuleEngine([DropRule("r1", r1), DropRule("r2", r2)], [])
    res = eng.apply(np.array(["bad1", "bad2", "fine"], dtype=object))
    assert res.verdict.tolist() == ["DROP", "DROP", "KEEP"]
    assert res.first_rule.tolist() == ["r1", "r2", ""]
    assert calls == [("r1", 3), ("r2", 2)]  # r2 saw only undecided rows


def test_chain_scrub_attribution_and_tally():
    eng = RuleEngine(
        [DropRule("len", lambda v: np.array([len(x) < 4 for x in v]))],
        [ScrubRule("email", S.scrub_email), ScrubRule("ssn", S.scrub_ssn)],
    )
    vals = np.array(["x", "mail a@b.com and 123-45-6789", "clean text"], dtype=object)
    res = eng.apply(vals)
    assert res.verdict.tolist() == ["DROP", "CORRECTED", "KEEP"]
    assert res.first_rule.tolist() == ["len", "email", ""]
    assert res.values[1] == "mail <EMAIL> and <SSN>"
    t = res.tally
    assert t.counts == {"len": 1, "email": 1, "ssn": 1}
    assert (t.kept, t.dropped, t.corrected) == (1, 1, 1)


def test_tally_merge():
    from data_quality_ray.rules.core import RuleTally

    a = RuleTally(counts={"x": 2}, total=10, kept=8, dropped=2)
    b = RuleTally(counts={"x": 1, "y": 5}, total=20, kept=15, dropped=5)
    a.merge(b)
    assert a.counts == {"x": 3, "y": 5} and a.total == 30 and a.kept == 23


def test_rule_registry_config_chain():
    from data_quality_ray.rules.registry import (
        available_rules, build_chain_from_config, register_drop_rule,
    )

    @register_drop_rule("all_caps")
    def all_caps(values):
        return np.array([v is not None and v.isupper() for v in values], dtype=bool)

    assert "all_caps" in available_rules()["drop"]
    assert "scrub_email" in available_rules()["scrub"]

    engine = build_chain_from_config([
        {"rule": "empty"},
        {"rule": "length", "params": {"min_len": 3, "max_len": 100}, "as": "len3_100"},
        {"rule": "all_caps"},
        {"rule": "scrub_email"},
    ])
    res = engine.apply(np.array(["", "ab", "SHOUTY TEXT", "mail me a@b.com ok"], dtype=object))
    assert res.verdict.tolist() == ["DROP", "DROP", "DROP", "CORRECTED"]
    assert res.first_rule.tolist() == ["empty", "len3_100", "all_caps", "scrub_email"]
    assert res.values[3] == "mail me <EMAIL> ok"


def test_chain_astral_plane_and_exotic_captions():
    """Robustness: astral-plane and exotic-unicode captions go through the
    full chain without error and deterministically."""
    import numpy as np

    from data_quality_ray.pipelines.quality_filter import build_image_chain

    captions = np.array([
        "𠀀𠀁 astral start of a caption about a dog in the park today",
        "a normal caption with an emoji 🐕 walking near the old bridge",
        "ʇxǝʇ pǝddᴉlɟ a strange but letterful caption near the harbor",
        "‮control‬ direction marks in a caption by the station",
        "🏳️‍🌈🏳️‍🌈🏳️‍🌈",
    ], dtype=object)
    eng = build_image_chain()
    r1 = eng.apply(captions.copy())
    r2 = eng.apply(captions.copy())
    assert list(r1.verdict) == list(r2.verdict)
    assert list(r1.values) == list(r2.values)
    assert all(v in ("KEEP", "DROP", "CORRECTED") for v in r1.verdict)


def test_rule_matrix_independent_vs_chain(ray_session):
    """rule_matrix evaluates every rule on every row (no short-circuit):
    the chain's first_rule must equal the first fired rule of the
    matrix, and matrix hits can exceed chain attributions."""
    import numpy as np

    from data_quality_ray.pipelines.quality_filter import build_docs_chain

    engine = build_docs_chain()
    vals = np.array([None, "123 456", "x" * 600,
                     "the quick brown fox jumps over the lazy dog and "
                     "this caption is long enough to pass the bounds"],
                    dtype=object)
    aux = {"lang": np.array(["en", "en", "de", "en"], dtype=object)}
    m = engine.rule_matrix(vals, aux=aux)
    res = engine.apply(vals, aux=aux)
    names = [r.name for r in engine.drop_rules]
    for i in range(len(vals)):
        fired = [n for n in names if m[n][i]]
        if res.verdict[i] == "DROP":
            assert res.first_rule[i] == fired[0]
        else:
            assert not fired
    # the oversized German doc trips BOTH length and langid in the
    # matrix, but the chain attributes only length
    assert m["length"][2] and m["langid"][2]
    assert res.first_rule[2] == "length"
