"""Distributed logistic regression — deterministic full-batch gradient
descent with the repo's quantized-state trick (kmeans/pagerank shape):
every round is ONE streaming pass of mergeable fixed-width partials
(Σ xᵀ(σ(xw)−y), Σ logloss, n — width d+2, independent of rows), the
driver folds them, takes a step, and re-rounds the weights half-away at
6 dp — so an unrolled SQL CTE replays every round bit-for-bit and the
fit is identical on any partitioning or cluster size.

No stochasticity, no momentum: the point is a *reproducible, oracled*
linear classifier for quality-score calibration at 10^12-row scale
(rounds × one pass each; weights broadcast via ``ray.put`` per round).
For heavy-duty model fitting swap the step for L-BFGS on the same
partial fold.
"""

from __future__ import annotations

import numpy as np
import pandas as pd

from ..rules.heuristics import round_half_away

ROUND_TO = 6


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
            xa = np.concatenate([np.ones((len(x), 1)), x], axis=1)
            z = xa @ wk
            p = 1.0 / (1.0 + np.exp(-z))
            g = xa.T @ (p - y)
            ll = float(-(y * np.log(np.maximum(p, 1e-300))
                         + (1 - y) * np.log(np.maximum(1 - p, 1e-300))).sum())
            return pd.DataFrame({"p": [pickle.dumps((g, ll, len(x)))]})

        import pickle

        gsum = np.zeros(d + 1)
        lsum = 0.0
        n = 0
        for b in ds.map_batches(partial, batch_format="pandas") \
                .iter_batches(batch_size=256, batch_format="pandas"):
            for blob in b["p"]:
                g, ll, m = pickle.loads(blob)
                gsum += g
                lsum += ll
                n += m
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
        gsel = [f"sum(({p}) - ({y_expr})) AS g0"] + [
            f"sum((({p}) - ({y_expr})) * ({x_exprs[i]})) AS g{i+1}"
            for i in range(d)]
        lsel = (f"sum(-(({y_expr}) * ln(greatest({p}, 1e-300)) + "
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
