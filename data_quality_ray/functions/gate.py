"""The size gate behind every collect-vs-shuffle choice.

The reference library is in-memory, so each wide step here either
brings a measured-small table to the driver (collect, broadcast,
driver union-find) or runs a distributed exchange. ``fits`` makes that
choice from a measured size and one named entry of ``LIMITS``, and
records it: ``RECORD`` keeps the latest decisions as
``(site, size, limit, path)`` with ``path`` "collect" or "shuffle".

Tests force a path by patching ``LIMITS`` (every entry ``sys.maxsize``
→ always collect, ``-1`` → always shuffle); see the ``force_path``
fixture in ``tests/conftest.py``.
"""

from __future__ import annotations

from collections import deque

LIMITS = {
    # Rows collected to the driver as one small-column table: fingerprint
    # clustering's keyed table (mirrors the in-memory reference exactly),
    # the minhash band table (3 small columns per row), Hamming, near-dup
    # and DBSCAN pair lists, the substring duplicate-window set, the
    # tf-idf (term → df) vocabulary (natural-language vocabularies are a
    # few million terms at most) and the q3 customer side.
    "collect_rows": 2_000_000,
    # Driver label maps: verified-pair edge lists through driver
    # union-find, and component / contamination maps broadcast as sorted
    # arrays. Above it components run as distributed min-label rounds and
    # labels ride a hash_join (the maps are bounded by DUPLICATED rows,
    # which at web scale can exceed a broadcast).
    "label_map_rows": 5_000_000,
    # Per-batch grouped-aggregate partials merged on the driver (one row
    # per (batch, key), an upper bound on distinct keys). Interleaved
    # quiet-window A/B at sf0.1 (235k distinct doc texts): driver 1.20 s
    # vs shuffle 1.89 s; the bucketed exchange's fixed latency only pays
    # off past millions of keys.
    "partial_rows": 4_000_000,
    # Candidate pairs verified from a driver-side text dict; above it
    # verification broadcasts shingle arrays or shuffles.
    "verify_pairs": 200_000,
    # Candidate docs whose shingle arrays ship once via ray.put
    # (~150 shingles × 8 B each ⇒ ≤ ~250 MB at the gate).
    "verify_docs": 200_000,
    # A tiny graph through six bucketed exchanges is pure fixed launch
    # latency (measured: 42 s for 3853 edges at 64 buckets, 32 CPUs, vs
    # ~0.1 s local): collect when the edge count fits ...
    "graph_edges": 100_000,
    # ... and the wedge workload (Σ c·(c−1)/2 over the relevant degree)
    # fits in one process.
    "graph_wedges": 50_000_000,
    # Blocked fuzzy self-join on the driver: the bucketed groupby's fixed
    # shuffle cost (~1 s) dwarfs the compute on small tables (measured:
    # collect 1.43 s vs shuffle 2.44 s at sf0.1, 2k suppliers).
    "matching_rows": 500_000,
}

RECORD: deque = deque(maxlen=1024)


def fits(site: str, size: int, limit: str) -> bool:
    """True (take the collect path) when ``size <= LIMITS[limit]``;
    records ``(site, size, limit value, path)`` either way."""
    bound = LIMITS[limit]
    ok = size <= bound
    RECORD.append((site, int(size), bound, "collect" if ok else "shuffle"))
    return ok
