"""URL canonicalization, registered-domain extraction and URL-keyed
corpus policies — the web-crawl half of a training-data pipeline
(CCNet/RefinedWeb-style: dedup by canonical URL, cap each domain's
contribution, block bad hosts) the reference has no analog for.

Everything is vectorized pandas string kernels inside ``map_batches``
(never a per-row Python parse), and every rule constant below is shared
verbatim with the SQL oracles in ``__ray_entry__.oracle_sql`` so the two
engines cannot desynchronize.

Canonicalization contract (documented subset of WHATWG/RFC 3986 — the
steps crawl pipelines actually apply):

1. strip surrounding whitespace; drop the ``#fragment``;
2. a URL without a ``scheme://`` prefix is INVALID → null canonical /
   null domain (both engines);
3. lowercase the scheme and the host; strip one leading ``www.``;
4. strip the scheme's default port (``:80`` for http, ``:443`` for
   https);
5. strip ALL trailing slashes from the path (``rtrim(path, '/')``);
6. drop empty and tracking query parameters (``TRACKING_PARAM_RE``),
   sort the survivors lexicographically (bytewise — parameters are
   ASCII by RFC 3986), re-join with ``&``.

Registered domain = last two host labels, or last three when the last
two form a known multi-part public suffix (``MULTIPART_SUFFIXES`` — a
deliberately small, shared constant standing in for the full public
suffix list; swap the tuple for the PSL snapshot in production).
Percent-encoding and userinfo normalization are out of scope (documented;
the fixture generator emits neither).
"""

from __future__ import annotations

import pandas as pd

# Shared verbatim with the SQL oracle (regexp_matches on each param).
TRACKING_PARAM_RE = r"^(utm_[a-z0-9_]*|gclid|fbclid|msclkid|mc_cid|mc_eid|ref)="

# Last-two-label suffixes that take a third label (PSL stand-in).
MULTIPART_SUFFIXES = (
    "ac.uk", "co.in", "co.jp", "co.uk", "com.au", "com.br", "com.cn",
    "gov.uk", "net.au", "org.uk",
)

_SCHEME_RE = r"^([A-Za-z][A-Za-z0-9+.\-]*)://"


def _sorted_query(query: pd.Series) -> pd.Series:
    """Canonical query string: drop empty/tracking params, sort the
    rest bytewise, join with '&'. Vectorized via explode + stable sort
    (no per-row loop)."""
    ex = query.str.split("&").explode().dropna().astype(str)
    ex = ex[(ex != "") & ~ex.str.match(TRACKING_PARAM_RE)]
    if ex.empty:
        return pd.Series("", index=query.index)
    f = ex.rename("p").reset_index()
    f = f.sort_values(["index", "p"], kind="mergesort")
    qc = f.groupby("index", sort=False)["p"].agg("&".join)
    return qc.reindex(query.index, fill_value="")


def url_parts(urls: pd.Series) -> pd.DataFrame:
    """Split + canonicalize: returns (scheme, host, path, query,
    url_canon) — null everywhere for scheme-less (invalid) inputs."""
    u = urls.astype("string").str.strip()
    u = u.str.split("#", n=1).str[0]
    scheme = u.str.extract(_SCHEME_RE, expand=False).str.lower()
    valid = scheme.notna()
    rest = u.str.replace(_SCHEME_RE, "", regex=True)
    hostport = rest.str.extract(r"^([^/?]*)", expand=False)
    tail = rest.str.replace(r"^[^/?]*", "", regex=True)
    host = hostport.str.lower().str.replace(r"^www\.", "", regex=True)
    host = host.mask(scheme == "http", host.str.replace(r":80$", "", regex=True))
    host = host.mask(scheme == "https", host.str.replace(r":443$", "", regex=True))
    path = tail.str.extract(r"^([^?]*)", expand=False).str.rstrip("/")
    query = tail.str.replace(r"^[^?]*", "", regex=True).str.replace(
        r"^\?", "", regex=True)
    qc = _sorted_query(query)
    canon = scheme + "://" + host + path + ("?" + qc).where(qc != "", "")
    out = pd.DataFrame({
        "scheme": scheme, "host": host, "path": path, "query": qc,
        "url_canon": canon,
    }, index=urls.index)
    return out.where(pd.concat([valid] * out.shape[1], axis=1)
                     .set_axis(out.columns, axis=1))


def registered_domains(host: pd.Series) -> pd.Series:
    """Registered domain per host (see module docstring). Hosts with a
    single label (e.g. 'localhost') return themselves; nulls propagate."""
    parts = host.str.split(".")
    n = parts.str.len()
    # str[-k] is all-NaN float64 when NO host has k labels — pin dtype.
    p1, p2, p3 = (parts.str[-k].astype("string") for k in (1, 2, 3))
    last2 = (p2 + "." + p1).where(n >= 2, host.astype("string"))
    last3 = p3 + "." + last2
    return last3.where((n >= 3) & last2.isin(MULTIPART_SUFFIXES), last2)


def add_canonical_url(ds, url_col: str, canon_col: str = "url_canon",
                      domain_col: str = "domain"):
    """Streaming stage: append canonical-URL and registered-domain
    columns. One stateless vectorized pass, zero shuffle."""

    def stage(b: pd.DataFrame) -> pd.DataFrame:
        p = url_parts(b[url_col])
        b = b.copy()
        b[canon_col] = p["url_canon"].astype(object)
        b[domain_col] = registered_domains(p["host"]).astype(object)
        return b

    return ds.map_batches(stage, batch_format="pandas")


def url_dedup(ds, url_col: str, id_col: str):
    """Canonical-URL dedup: canonicalize (stateless pass), drop invalid
    URLs, keep the minimal ``id_col`` row per canonical URL via the
    scale-gated ``dedup_by_key`` machinery (batch pre-dedup → key-only
    Min exchange → broadcast winners)."""
    from ..dedup.exact import dedup_by_key

    tagged = add_canonical_url(ds, url_col)
    tagged = tagged.map_batches(
        lambda b: b[b["url_canon"].notna()], batch_format="pandas")
    # dedup_by_key consumes its input twice (winners pass + filter
    # pass); materialize so the canonicalization doesn't re-execute —
    # measured 7.3 → 2.9 s at sf0.1 (the lazy-re-execution trap)
    tagged = tagged.materialize()
    return dedup_by_key(tagged, key="url_canon", order_col=id_col)


def domain_cap(ds, url_col: str, id_col: str, cap: int, seed: int = 42,
               output: str = "pandas"):
    """Cap every registered domain's contribution at ``cap`` rows —
    the per-source balance step of crawl curation. Selection is the
    md5-order contract of ``grouped_reservoir_sample`` (uniform within
    each domain, deterministic under any partitioning; per-batch
    partials prune to cap per (domain, batch) pre-motion). Invalid
    URLs are dropped."""
    from ..sampling.reservoir import grouped_reservoir_sample

    tagged = add_canonical_url(ds, url_col)
    tagged = tagged.map_batches(
        lambda b: b[b["url_canon"].notna()], batch_format="pandas")
    return grouped_reservoir_sample(tagged, [id_col], "domain", cap,
                                    seed=seed, output=output)
