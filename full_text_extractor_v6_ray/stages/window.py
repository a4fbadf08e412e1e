"""Keyed window analytics: row_number, running sums, per-group z-score.

The reference has only whole-document in-memory ordering (slide order,
`sorted(pages)` — hyperlink_extractor.py:378); a corpus-scale engine
needs the keyed generalizations every training-data pipeline leans on:
"rank each user's crawls by recency", "running bytes ingested per
host", "normalize a metric within its partition".

Scale shapes (the partitioning assumptions, per the briefing):

- ``grouped_row_number`` / ``grouped_cumsum``: ONE bucketed shuffle on
  the pinned version-independent hash (stages/hashing.py) co-locates
  equal keys (``exchange.by_bucket``); inside each bucket a single
  vectorized pandas pass (stable mergesort + cython
  ``groupby.cumcount``/``cumsum``) — Python cost O(buckets), never
  O(keys) or O(rows).
- ``grouped_zscore``: two-phase. Phase 1 is a map-side combiner
  (per-batch ``(key, sum, sumsq, count)`` partials) so the shuffle
  moves one tiny row per key per block; phase 2 joins the per-key
  moment table map-side (``joins.broadcast_join``) and decorates each
  batch vectorized. Broadcast is sound for dimension-cardinality keys
  (status codes, languages, hosts-bucketed); for billion-key
  partitions use a bucketed join (stages/joins.py) instead.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

import ray.data

from .dedup import hash_bucketed_distinct
from .exchange import by_bucket
from .joins import broadcast_join


def grouped_row_number(ds: "ray.data.Dataset", key: str,
                       order_cols: list[str],
                       ascending: list[bool] | None = None,
                       out_col: str = "rn",
                       limit: int | None = None
                       ) -> "ray.data.Dataset":
    """Per-``key`` ROW_NUMBER() ordered by ``order_cols`` (1-based).

    Deterministic output requires ``order_cols`` to be unique within a
    key (append a unique tiebreak column, the window-function
    contract). ``limit`` keeps only rows with ``rn <= limit`` (top-N
    per key with explicit sequence numbers).
    """
    if ascending is None:
        ascending = [True] * len(order_cols)

    def number_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values([key] + order_cols,
                          ascending=[True] + list(ascending),
                          kind="mergesort")
        g[out_col] = g.groupby(key, sort=False).cumcount() + 1
        if limit is not None:
            g = g[g[out_col] <= limit]
        return g

    return by_bucket(ds, key, number_bucket, batch_format="pandas")


def grouped_percent_rank(ds: "ray.data.Dataset", key: str,
                         order_cols: list[str],
                         ascending: list[bool] | None = None,
                         out_col: str = "pr"
                         ) -> "ray.data.Dataset":
    """Per-``key`` PERCENT_RANK() = (rank-1)/(n-1) (0.0 for singleton
    groups). ``order_cols`` must be unique within a key, making rank ==
    row_number and the output deterministic; the division is two exact
    small ints, so it is bit-identical across engines."""
    if ascending is None:
        ascending = [True] * len(order_cols)

    def pr_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values([key] + order_cols,
                          ascending=[True] + list(ascending),
                          kind="mergesort")
        grp = g.groupby(key, sort=False)
        rn = grp.cumcount().to_numpy(dtype=np.float64)
        n = grp[key].transform("size").to_numpy(dtype=np.float64)
        g[out_col] = np.where(n > 1, rn / np.maximum(n - 1, 1), 0.0)
        return g

    return by_bucket(ds, key, pr_bucket, batch_format="pandas")


def grouped_dense_rank(ds: "ray.data.Dataset", key: str,
                       order_col: str,
                       ascending: bool = True,
                       out_col: str = "dr"
                       ) -> "ray.data.Dataset":
    """Per-``key`` DENSE_RANK() over ``order_col`` (1-based; ties share
    a rank, no gaps). Unlike row_number/percent_rank, the order column
    may contain duplicates — each row's rank depends only on the SET of
    distinct values below it, so the output is deterministic without a
    tiebreak column."""

    def dr_bucket(g: pd.DataFrame) -> pd.DataFrame:
        r = g.groupby(key, sort=False)[order_col].rank(
            method="dense", ascending=ascending)
        g[out_col] = r.astype("int64")
        return g

    return by_bucket(ds, key, dr_bucket, batch_format="pandas")


def grouped_rolling_mean(ds: "ray.data.Dataset", key: str,
                         order_cols: list[str], value_col: str,
                         window: int,
                         out_col: str = "rolling_mean",
                         ndigits: int = 6
                         ) -> "ray.data.Dataset":
    """Per-``key`` trailing-window moving average: SQL
    ``AVG(v) OVER (PARTITION BY key ORDER BY order_cols ROWS BETWEEN
    window-1 PRECEDING AND CURRENT ROW)``. ``order_cols`` must be
    unique within a key (window-function contract).

    The mean is computed as left-associated shifted adds (v[t-w+1] +
    ... + v[t], oldest first) over the partition order — the same
    summation order a SQL engine scanning the frame uses — then
    rounded, so the values cross-check against the DuckDB oracle
    bit-for-bit after rounding (a running-subtract rolling sum would
    accumulate float drift)."""

    def roll_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values([key] + order_cols, kind="mergesort")
        grp = g.groupby(key, sort=False)[value_col]
        s = None
        cnt = None
        # oldest-first left-associated sum of the trailing frame
        for i in range(window - 1, -1, -1):
            sh = grp.shift(i)
            have = sh.notna().astype("float64")
            s = sh.fillna(0.0) if s is None else s + sh.fillna(0.0)
            cnt = have if cnt is None else cnt + have
        g[out_col] = (s / cnt).round(ndigits)
        return g

    return by_bucket(ds, key, roll_bucket, batch_format="pandas")


def grouped_cumsum(ds: "ray.data.Dataset", key: str,
                   order_cols: list[str], value_col: str,
                   out_col: str = "running_sum") -> "ray.data.Dataset":
    """Per-``key`` running SUM(``value_col``) in ``order_cols`` order
    (ROWS UNBOUNDED PRECEDING frame; sequential within a key, so both
    engines add in the same order)."""

    def cumsum_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values([key] + order_cols, kind="mergesort")
        g[out_col] = g.groupby(key, sort=False)[value_col].cumsum()
        return g

    return by_bucket(ds, key, cumsum_bucket, batch_format="pandas")


def grouped_string_agg(ds: "ray.data.Dataset", key: str, value_col: str,
                       order_cols: list[str] | None = None,
                       sep: str = ",", out_col: str = "agg"
                       ) -> "ray.data.Dataset":
    """Per-``key`` ordered string concatenation (STRING_AGG / the
    collect_list shape): one bucketed shuffle, then all-Arrow per-bucket
    assembly — sort, key-run offsets, ONE ``binary_join`` kernel. No
    pandas round-trip anywhere (string payloads skip object boxing; a
    per-key Python lambda here dominated the 2M-doc paragraph
    reassembly bench before). ``order_cols`` pins element order
    (required for deterministic output); values stringify with Arrow
    ``cast`` (ints format identically to SQL CAST AS VARCHAR).

    Scale note: output rows are one per key and can be wide for hot
    keys — the collect-style aggregate is for bounded group sizes
    (per-doc links, per-user sessions), not unbounded corpora.
    """
    order_cols = order_cols or [value_col]

    def agg_bucket(g: pa.Table) -> pa.Table:
        idx = pc.sort_indices(g, sort_keys=[
            (c, "ascending") for c in [key] + order_cols])
        t = g.take(idx)
        k = t.column(key).combine_chunks()
        n = len(k)
        if n == 0:
            return pa.table({key: k, out_col: pa.array([], pa.string())})
        vals = pc.cast(t.column(value_col), pa.string()).combine_chunks()
        first = np.concatenate(([True], pc.not_equal(
            k.slice(1), k.slice(0, n - 1))
            .to_numpy(zero_copy_only=False))) if n > 1 else \
            np.array([True])
        starts = np.flatnonzero(first)
        offsets = pa.array(
            np.concatenate((starts, [n])).astype(np.int32))
        joined = pc.binary_join(pa.ListArray.from_arrays(offsets, vals),
                                sep)
        return pa.table({key: k.take(pa.array(starts)),
                         out_col: joined})

    return by_bucket(ds, key, agg_bucket).select_columns([key, out_col])


def grouped_exact_distinct(ds: "ray.data.Dataset", key: str,
                           value_col: str,
                           out_col: str = "n_distinct"
                           ) -> "ray.data.Dataset":
    """Exact COUNT(DISTINCT value) per ``key``: distinct (key, value)
    pairs via one keyed exchange (``hash_bucketed_distinct``), then a
    tiny per-key count. The exact companion of the HLL sketch path
    (stages/sketches.py)."""
    from ray.data.aggregate import Count

    pairs = hash_bucketed_distinct(ds.select_columns([key, value_col]),
                                   [key, value_col])
    return pairs.groupby(key).aggregate(Count(alias_name=out_col))


def grouped_zscore(ds: "ray.data.Dataset", key: str, value_col: str,
                   out_col: str = "zscore",
                   ndigits: int = 6) -> "ray.data.Dataset":
    """Per-``key`` z-score of ``value_col`` (sample std, ddof=1 — the
    STDDEV_SAMP window-function contract), rounded to ``ndigits`` for
    the cross-engine float contract.

    Two passes, each a map-side combiner + tiny per-key aggregate
    (mean first, then sum of squared deviations) — the single-pass
    raw-moment formula loses ~7 digits to cancellation, enough to flip
    the 6th rounded decimal against the oracle's stable accumulation;
    the two-pass form keeps full double precision. The per-key moment
    table is collected on the driver and each pass reads it through a
    ``broadcast_join``; decoration is vectorized.
    Keys must be dimension-like (see module docstring).
    """
    from ray.data.aggregate import Sum

    slim = ds.select_columns([key, value_col])

    def sums(batch: pa.Table) -> pa.Table:
        df = pd.DataFrame({key: batch.column(key).to_pandas(),
                           "v": batch.column(value_col).to_pandas()})
        g = df.groupby(key)["v"]
        out = pd.DataFrame({"__s": g.sum(), "__n": g.count()})
        return pa.Table.from_pandas(out.reset_index(),
                                    preserve_index=False)

    m = (slim.map_batches(sums, batch_format="pyarrow").groupby(key)
         .aggregate(Sum("__s", alias_name="s"), Sum("__n", alias_name="n"))
         .to_pandas())
    n = m["n"].to_numpy().astype(np.float64)
    moments = pa.table({key: pa.Array.from_pandas(m[key]),
                        "__mu": m["s"].to_numpy() / n})

    def sqdev(batch: pa.Table) -> pa.Table:
        v = batch.column(value_col).to_numpy(zero_copy_only=False)
        d = v - batch.column("__mu").to_numpy(zero_copy_only=False)
        df = pd.DataFrame({key: batch.column(key).to_pandas(),
                           "__d2": d * d})
        out = df.groupby(key)["__d2"].sum().reset_index()
        return pa.Table.from_pandas(out, preserve_index=False)

    ssd = (broadcast_join(slim, moments, key)
           .map_batches(sqdev, batch_format="pyarrow").groupby(key)
           .aggregate(Sum("__d2", alias_name="ssd")).to_pandas())
    s = ssd.set_index(key)["ssd"].reindex(m[key]).to_numpy(np.float64)
    with np.errstate(divide="ignore", invalid="ignore"):
        sd = np.where(n > 1, np.sqrt(s / (n - 1)), 0.0)
    moments = moments.append_column("__sd", pa.array(sd))

    def decorate(batch: pa.Table) -> pa.Table:
        v = batch.column(value_col).to_numpy(zero_copy_only=False)
        ms = batch.column("__mu").to_numpy(zero_copy_only=False)
        sd = batch.column("__sd").to_numpy(zero_copy_only=False)
        with np.errstate(divide="ignore", invalid="ignore"):
            z = np.where(sd > 0, (v - ms) / sd, 0.0)
        return batch.drop_columns(["__mu", "__sd"]).append_column(
            out_col, pa.array(np.round(z, ndigits)))

    return broadcast_join(ds, moments, key, how="left").map_batches(
        decorate, batch_format="pyarrow", zero_copy_batch=True)


def pivot_counts(ds: "ray.data.Dataset", group_key: str, pivot_key: str,
                 pivot_values: list[str],
                 prefix: str = "n_") -> "ray.data.Dataset":
    """Wide pivot: one row per ``group_key``, one count column per
    ``pivot_values`` entry (the SUM(CASE WHEN ...) shape).

    Map-side combiner: each batch collapses to at most
    |groups-in-batch| partial rows (vectorized crosstab), so the
    shuffle moves partials, never raw rows. ``pivot_values`` is the
    explicit closed column set — same contract as SQL PIVOT IN (...);
    unlisted values are ignored.
    """
    cols = [prefix + str(v) for v in pivot_values]

    def partial(batch: pa.Table) -> pa.Table:
        df = pd.DataFrame({
            "g": batch.column(group_key).to_pandas(),
            "p": batch.column(pivot_key).to_pandas(),
        })
        ct = pd.crosstab(df["g"], df["p"])
        out = pd.DataFrame(index=ct.index)
        for v, c in zip(pivot_values, cols):
            out[c] = ct[v].astype("int64") if v in ct.columns else 0
        out.index.name = group_key
        return pa.Table.from_pandas(out.reset_index(),
                                    preserve_index=False)

    from ray.data.aggregate import Sum
    aggs = [Sum(c, alias_name=c) for c in cols]
    return (ds.select_columns([group_key, pivot_key])
            .map_batches(partial, batch_format="pyarrow")
            .groupby(group_key).aggregate(*aggs))


def grouped_mode(ds: "ray.data.Dataset", key: str, value_col: str,
                 count_alias: str = "n") -> "ray.data.Dataset":
    """Modal (most frequent) ``value_col`` per ``key``; ties broken by
    the lexicographically smallest value (deterministic, engine-portable).

    Two-stage: one composite-key groupby collapses the raw rows to
    (key, value, count) — map-side partials keep the shuffle at distinct
    pairs — then the tiny counts table takes a grouped top-1 (the
    ROW_NUMBER machinery, count desc / value asc)."""
    from ray.data.aggregate import Count

    counts = (ds.select_columns([key, value_col])
              .groupby([key, value_col])
              .aggregate(Count(alias_name=count_alias)))
    top = grouped_row_number(counts, key, [count_alias, value_col],
                             ascending=[False, True], limit=1,
                             out_col="__rn")
    return top.select_columns([key, value_col, count_alias])


def grouped_lag_gap(ds: "ray.data.Dataset", key: str, ts_col: str,
                    order_cols: list[str] | None = None,
                    out_col: str = "gap_s") -> "ray.data.Dataset":
    """LAG analog: seconds since the previous row of the same ``key``
    in (ts, tiebreak) order; null for each key's first row.

    Same bucketed shape as grouped_row_number: one shuffle on the key
    hash, one vectorized pandas pass per bucket (sort + shift per key),
    O(buckets) Python calls."""
    order = [ts_col] + (order_cols or [])

    def lag_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values([key] + order, kind="mergesort")
        prev = g.groupby(key, sort=False)[ts_col].shift()
        gap = (g[ts_col] - prev).dt.total_seconds()
        g[out_col] = gap
        return g

    return by_bucket(ds, key, lag_bucket, batch_format="pandas")


def grouped_ntile(ds: "ray.data.Dataset", key: str,
                  order_cols: list[str], n: int,
                  ascending: list[bool] | None = None,
                  out_col: str = "tile") -> "ray.data.Dataset":
    """NTILE(n) per key: rows split into n as-even-as-possible ordered
    tiles (first ``size % n`` tiles one row larger — SQL semantics).
    ``order_cols`` must be unique within a key (window contract)."""
    if ascending is None:
        ascending = [True] * len(order_cols)

    def tile_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values([key] + order_cols,
                          ascending=[True] + list(ascending),
                          kind="mergesort")
        grp = g.groupby(key, sort=False)
        rn = grp.cumcount().to_numpy()
        size = grp[key].transform("size").to_numpy()
        big, rem = size // n, size % n        # tiles 1..rem get big+1 rows
        cut = rem * (big + 1)
        g[out_col] = np.where(
            rn < cut,
            rn // np.maximum(big + 1, 1) + 1,
            np.where(big > 0, rem + (rn - cut) // np.maximum(big, 1) + 1,
                     rem)).astype(np.int64)
        return g

    return by_bucket(ds, key, tile_bucket, batch_format="pandas")


def grouped_ewma(ds: "ray.data.Dataset", key: str,
                 order_cols: list[str], value_col: str,
                 alpha: float, out_col: str = "ewma",
                 ndigits: int = 6) -> "ray.data.Dataset":
    """Per-``key`` exponentially weighted moving average in
    ``order_cols`` order: ewma₀ = v₀; ewmaₜ = α·vₜ + (1−α)·ewmaₜ₋₁
    (the recursive / ``adjust=False`` form — each observation's weight
    decays geometrically with its distance from the current row).

    Not SQL-expressible without recursive CTE gymnastics, so the query
    is rows-only; exactness is pinned by an explicit-loop unit test.
    Scale shape matches the other keyed windows: ONE bucketed shuffle
    co-locates keys, then a single vectorized (cython ``ewm``) pass per
    bucket — Python cost O(buckets). ``order_cols`` must be unique
    within a key (window-function contract). Null values propagate the
    previous ewma (pandas ``ignore_na=False`` semantics).
    """

    def ewma_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = (g.sort_values([key] + order_cols, kind="mergesort")
             .reset_index(drop=True))
        # cython grouped-EWM kernel (ExponentialMovingWindowGroupby) —
        # one vectorized pass, no per-key Python
        ew = (g.groupby(key, sort=False)[value_col]
              .ewm(alpha=alpha, adjust=False).mean().droplevel(0))
        g[out_col] = ew.round(ndigits)
        return g

    return by_bucket(ds, key, ewma_bucket, batch_format="pandas")


def grouped_cume_dist(ds: "ray.data.Dataset", key: str, order_col: str,
                      out_col: str = "cd"
                      ) -> "ray.data.Dataset":
    """Per-``key`` CUME_DIST(): (# rows with value <= current) / n.
    Ties share a value (rank ``method="max"``), so the order column may
    contain duplicates and the output is still deterministic — the
    division is two exact small ints, bit-identical across engines."""

    def cd_bucket(g: pd.DataFrame) -> pd.DataFrame:
        grp = g.groupby(key, sort=False)
        r = grp[order_col].rank(method="max").to_numpy(dtype=np.float64)
        n = grp[key].transform("size").to_numpy(dtype=np.float64)
        g[out_col] = r / n
        return g

    return by_bucket(ds, key, cd_bucket, batch_format="pandas")


def grouped_rank(ds: "ray.data.Dataset", key: str, order_col: str,
                 ascending: bool = True,
                 out_col: str = "rk") -> "ray.data.Dataset":
    """Per-``key`` RANK() over ``order_col`` (1-based; ties share the
    MINIMUM rank and leave gaps — SQL RANK, vs dense_rank's gapless
    ranks). Duplicate order values allowed; output deterministic."""

    def rk_bucket(g: pd.DataFrame) -> pd.DataFrame:
        r = g.groupby(key, sort=False)[order_col].rank(
            method="min", ascending=ascending)
        g[out_col] = r.astype("int64")
        return g

    return by_bucket(ds, key, rk_bucket, batch_format="pandas")


def funnel_counts(ds: "ray.data.Dataset", user_col: str, ts_col: str,
                  type_col: str, steps: list[str]) -> pa.Table:
    """Ordered-funnel analysis: how many users completed step 1, then
    step 2 STRICTLY after their step-1 time, then step 3 after step 2,
    ... (the product-analytics conversion funnel).

    Scale shape: rows are filtered to the funnel's event types at the
    map side (everything else never enters the shuffle), ONE bucketed
    user shuffle co-locates each user's funnel events, and each bucket
    reduces — fully vectorized groupby-min / merge per step, no
    per-user Python — to a single row of per-step counts. The final
    fold sums O(buckets) rows. Strict '>' between consecutive steps
    matches the SQL oracle's correlated MIN-chain semantics.
    """
    step_list = list(steps)

    def prefilter(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc
        return batch.filter(pc.is_in(batch.column(type_col),
                                     value_set=pa.array(step_list)))

    def bucket_counts(g: pd.DataFrame) -> pd.DataFrame:
        prev = None  # Series: user -> first time reaching previous step
        counts = []
        for step in step_list:
            s = g[g[type_col] == step]
            if prev is not None:
                # vectorized decorate: users absent from prev map to NaT
                # and NaT > cmp is False, so they drop — exactly the
                # "never reached the previous step" semantics
                reached = s[user_col].map(prev)
                s = s[s[ts_col].to_numpy() > reached.to_numpy()]
            prev = s.groupby(user_col)[ts_col].min()
            counts.append(len(prev))
        return pd.DataFrame({f"n_step{i + 1}": [c]
                             for i, c in enumerate(counts)})

    per_bucket = by_bucket(
        ds.map_batches(prefilter, batch_format="pyarrow",
                       zero_copy_batch=True),
        user_col, bucket_counts, batch_format="pandas")
    cols = [f"n_step{i + 1}" for i in range(len(step_list))]
    totals = per_bucket.sum(cols) or {}
    if not isinstance(totals, dict):  # single-col sum returns a scalar
        totals = {f"sum({cols[0]})": totals}
    return pa.table({c: pa.array([int(totals.get(f"sum({c})") or 0)],
                                 pa.int64())
                     for c in cols})


def grouped_time_range_sum(ds: "ray.data.Dataset", key: str, ts_col: str,
                           value_col: str, window: str = "1h",
                           out_col: str = "range_sum"
                           ) -> "ray.data.Dataset":
    """Per-``key`` time-based frame sum: SQL
    ``SUM(v) OVER (PARTITION BY key ORDER BY ts
    RANGE BETWEEN INTERVAL w PRECEDING AND CURRENT ROW)``.

    A RANGE frame is bounded by VALUES, not row offsets — every row
    whose ts lies in [cur_ts − w, cur_ts] contributes, and peer rows
    (equal ts) all share one frame regardless of physical order. To get
    those peer semantics deterministically, each bucket first collapses
    to per-(key, ts) sums, runs a cython time-based rolling sum over
    the collapsed series (``rolling(window, closed="both")`` — closed on
    both ends matches the SQL inclusive frame), then decorates the
    original rows back by (key, ts) merge. One bucketed shuffle; all
    post-shuffle work is vectorized pandas."""
    w = pd.Timedelta(window)

    def roll_bucket(g: pd.DataFrame) -> pd.DataFrame:
        # a null ts has no place on a value-bounded axis: drop explicitly
        # (pandas time-rolling would otherwise raise mid-task on NaT)
        g = g[g[ts_col].notna() & g[key].notna()]
        if g.empty:
            out = g.copy()
            out[out_col] = pd.Series(dtype="float64")
            return out
        ded = (g.groupby([key, ts_col], sort=True)[value_col]
               .sum().reset_index())
        rolled = (ded.groupby(key, sort=False)
                  .rolling(w, on=ts_col, closed="both")[value_col]
                  .sum().reset_index(drop=True))
        ded[out_col] = rolled.to_numpy()
        return g.merge(ded[[key, ts_col, out_col]], on=[key, ts_col],
                       how="left")

    return by_bucket(ds, key, roll_bucket, batch_format="pandas")
