"""Fellegi–Sunter probabilistic record linkage with EM-fitted weights
(Fellegi & Sunter 1969; Winkler's EM fitting) — the probabilistic
counterpart of the reference's hand-weighted record matching
(`SURVEY.md` §2.4 record linkage; functions/matchers.py is the
deterministic scorer).

Scale shape: candidate pairs NEVER reach the driver — they fold to the
2^K agreement-PATTERN count table in one grouped exchange (K binary
field comparisons ⇒ at most 2^K rows, 16 for K=4), and EM iterates
driver-side over that tiny table. Every round quantizes (m, u, p) to
``EM_ROUND`` decimals and clips into [CLIP, 1-CLIP] (the kmeans
quantized-state trick), so a DuckDB oracle replays the whole fit with
unrolled CTEs: products are written in the same field order both sides,
making the per-pattern arithmetic bit-identical.
"""

from __future__ import annotations

import numpy as np
import pandas as pd

EM_ROUND = 9
CLIP = 1e-6


def _q(x: np.ndarray | float) -> np.ndarray | float:
    return np.clip(np.round(x, EM_ROUND), CLIP, 1.0 - CLIP)


def fs_em(pat: pd.DataFrame, bits: list[str], rounds: int = 5,
          m0: float = 0.9, u0: float = 0.1, p0: float = 0.1):
    """EM over the pattern-count table ``pat`` (columns ``bits`` ∈ {0,1}
    plus ``n``). Returns (m, u, p, scored) where scored adds per-pattern
    ``weight`` (ln likelihood ratio), ``posterior`` and ``is_link``
    (posterior ≥ 0.9)."""
    G = pat[bits].to_numpy(dtype=np.float64)
    nn = pat["n"].to_numpy(dtype=np.float64)
    N = nn.sum()
    k = len(bits)
    m = np.full(k, m0)
    u = np.full(k, u0)
    p = p0

    def probs(mv, uv):
        # product in bit order — the SQL writes the same sequence, so
        # float multiplication order (and thus the result) is identical
        pm = np.ones(len(G))
        pu = np.ones(len(G))
        for j in range(k):
            pm = pm * np.where(G[:, j] == 1.0, mv[j], 1.0 - mv[j])
            pu = pu * np.where(G[:, j] == 1.0, uv[j], 1.0 - uv[j])
        return pm, pu

    for _ in range(rounds):
        pm, pu = probs(m, u)
        g = p * pm / (p * pm + (1.0 - p) * pu)
        p = float(_q(np.array((nn * g).sum() / N)))
        sg = (nn * g).sum()
        su = (nn * (1.0 - g)).sum()
        m = _q((nn[:, None] * g[:, None] * G).sum(axis=0) / sg)
        u = _q((nn[:, None] * (1.0 - g[:, None]) * G).sum(axis=0) / su)

    pm, pu = probs(m, u)
    g = p * pm / (p * pm + (1.0 - p) * pu)
    scored = pat.copy()
    scored["weight"] = np.round(np.log(pm / pu), 6)
    scored["posterior"] = np.round(g, 6)
    scored["is_link"] = g >= 0.9
    return m, u, p, scored
