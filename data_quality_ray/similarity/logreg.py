"""Distributed logistic regression — deterministic full-batch gradient
descent with the repo's quantized-state trick (kmeans/pagerank shape):
every round is ONE streaming pass of mergeable partials (for each of
Σ xᵀ(σ(xw)−y) and Σ logloss, the Shewchuk partials of its per-row terms,
plus n), the driver adds them with ``math.fsum``, takes a step, and
re-rounds the weights half-away at 6 dp. Every sum is the correctly
rounded exact sum, so the fit is identical on any partitioning, block
order or cluster size, and the unrolled SQL CTE replays every round with
DuckDB's compensated ``fsum``. Both matter: the first round's gradient
on ``lineitem`` lands on an exact 6-dp half (p = 1/2 for every row), where
DuckDB's plain ``sum`` (off by ~5e-15 relative there) and an
order-dependent float fold each rounded it either way.

No stochasticity, no momentum: the point is a *reproducible, oracled*
linear classifier for quality-score calibration at 10^12-row scale
(rounds × one pass each; weights broadcast via ``ray.put`` per round).
For heavy-duty model fitting swap the step for L-BFGS on the same
partial fold.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pandas as pd

from ..rules.heuristics import round_half_away

ROUND_TO = 6


def exact_partials(terms: np.ndarray) -> list[float]:
    """Non-overlapping floats (Shewchuk partials) whose sum is EXACTLY the
    sum of the finite float64 ``terms``, so ``math.fsum`` over the partials
    of any split of an array gives the correctly rounded sum of the whole
    array, whatever the blocks and their order. Vectorized: each term is
    an integer mantissa times a power of two; mantissas are added per
    exponent in two 26/27-bit halves (int64 holds 2^36 terms) and the
    exact total is peeled into floats from the top."""
    t = terms[terms != 0]
    if not len(t):
        return []
    if not np.isfinite(t).all():
        return [float(t.sum())]
    frac, exp = np.frexp(t)
    mant = np.ldexp(frac, 53).astype(np.int64)  # t = mant * 2**(exp - 53)
    order = np.argsort(exp, kind="stable")
    exp, mant = exp[order] - 53, mant[order]
    starts = np.flatnonzero(np.r_[True, exp[1:] != exp[:-1]])
    hi = np.add.reduceat(mant >> 26, starts)
    lo = np.add.reduceat(mant & ((1 << 26) - 1), starts)
    low = int(exp[0])
    units = sum(((int(h) << 26) + int(l)) << (int(e) - low)
                for h, l, e in zip(hi, lo, exp[starts]))
    rest, out = Fraction(units) * Fraction(2) ** low, []
    while rest:
        out.append(float(rest))
        rest -= Fraction(out[-1])
    return out


def logreg_fit(ds, x_cols: list[str], label_col: str, rounds: int = 8,
               lr: float = 1.0) -> dict:
    """→ {"w": (d+1,) weights (bias first), "loss": final mean logloss,
    "n": rows}. Features are used AS GIVEN — scale them upstream (the
    oracle shares the scaling expressions). Null rows are excluded on
    both engines."""
    import ray

    from ..functions.broadcast import cached_get

    # Project to the needed columns and materialize ONCE: the round loop
    # re-consumes `ds` every iteration — unmaterialized, the whole
    # upstream re-executes rounds× (pagerank/pq precedent: graph.py:39,
    # pq.py:180). The projected float frame is tiny relative to rounds×
    # upstream scans at 10^12 rows.
    ds = ds.select_columns(list(dict.fromkeys([*x_cols, label_col]))) \
        .materialize()

    d = len(x_cols)
    w = np.zeros(d + 1)
    n_total = 0
    loss = float("nan")
    for _ in range(rounds):
        ref = ray.put(w.copy())

        def partial(b: pd.DataFrame) -> pd.DataFrame:
            import pickle

            wk = cached_get(ref)
            x = b[x_cols].to_numpy(np.float64)
            y = b[label_col].to_numpy(np.float64)
            ok = ~(np.isnan(x).any(axis=1) | np.isnan(y))
            x, y = x[ok], y[ok]
            z = np.full(len(x), wk[0])
            for j in range(d):  # left to right, as the SQL replay adds them
                z = z + wk[j + 1] * x[:, j]
            p = 1.0 / (1.0 + np.exp(-z))
            terms = [p - y, *((p - y) * x[:, j] for j in range(d)),
                     -(y * np.log(np.maximum(p, 1e-300))
                       + (1 - y) * np.log(np.maximum(1 - p, 1e-300)))]
            return pd.DataFrame({"p": [pickle.dumps(([exact_partials(t) for t in terms],
                                                     len(x)))]})

        import pickle

        parts = [[] for _ in range(d + 2)]
        n = 0
        for b in ds.map_batches(partial, batch_format="pandas") \
                .iter_batches(batch_size=256, batch_format="pandas"):
            for blob in b["p"]:
                cols, m = pickle.loads(blob)
                for acc, col in zip(parts, cols):
                    acc += col
                n += m
        sums = np.array([math.fsum(acc) for acc in parts])
        gsum, lsum = sums[:-1], sums[-1]
        n_total = n
        loss = round_half_away(np.float64(lsum / n), ROUND_TO) if n else float("nan")
        w = round_half_away(w - lr * gsum / n, ROUND_TO) if n else w
    return {"w": w, "loss": float(loss), "n": int(n_total)}


def logreg_fit_sql(feats_cte: str, x_exprs: list[str], y_expr: str,
                   rounds: int = 8, lr: float = 1.0) -> str:
    """Build the unrolled-CTE DuckDB replay of ``logreg_fit``:
    ``feats_cte`` must yield columns referenced by ``x_exprs`` /
    ``y_expr``. Returns a complete WITH…SELECT producing one row
    (n, loss, w0..wd) — the same quantized rounds in SQL."""
    d = len(x_exprs)
    names = [f"w{i}" for i in range(d + 1)]
    ctes = [f"f AS ({feats_cte})",
            "r0 AS (SELECT " + ", ".join(f"0.0 AS {nm}" for nm in names) + ")"]
    for r in range(1, rounds + 1):
        z = " + ".join([f"r.w0"] + [f"r.w{i+1} * ({x_exprs[i]})"
                                    for i in range(d)])
        p = f"(1.0 / (1.0 + exp(-({z}))))"
        gsel = [f"fsum(({p}) - ({y_expr})) AS g0"] + [
            f"fsum((({p}) - ({y_expr})) * ({x_exprs[i]})) AS g{i+1}"
            for i in range(d)]
        lsel = (f"fsum(-(({y_expr}) * ln(greatest({p}, 1e-300)) + "
                f"(1 - ({y_expr})) * ln(greatest(1 - ({p}), 1e-300)))) AS ll")
        ctes.append(
            f"g{r} AS (SELECT {', '.join(gsel)}, {lsel}, count(*) AS n "
            f"FROM f, r{r-1} r)")
        step = ", ".join(
            f"round(r.{nm} - {lr} * g.g{i} / g.n, 6) AS {nm}"
            for i, nm in enumerate(names))
        ctes.append(f"r{r} AS (SELECT {step} FROM r{r-1} r, g{r} g)")
    final = (f"SELECT CAST(g.n AS BIGINT) AS n, round(g.ll / g.n, 6) AS loss, "
             + ", ".join(f"r.{nm} AS {nm}" for nm in names)
             + f" FROM r{rounds} r, g{rounds} g")
    return "WITH " + ",\n".join(ctes) + "\n" + final
