"""Grouped top-k: keep the k best rows per key (one keyed exchange).

The keyed generalization of O1/O3 (priority sort + preview limit,
reference folder_processor.py:49, powerpoint_processor.py:83): the
keyed exchange of ``stages/exchange.py``, then ONE vectorized pandas
pass per bucket (stable sort + cython groupby head) — Python cost
O(buckets), never O(keys), the same scale shape as keyed_keep_one
(stages/dedup.py).

Partitioning assumption (documented per the briefing): equal keys
co-locate via the shared stable hash; one bucket-group fits a task.
"""

from __future__ import annotations

import pandas as pd
import pyarrow as pa

import ray.data

from .exchange import by_bucket


def grouped_top_k(ds: "ray.data.Dataset", key: str, order_col: str,
                  k: int, descending: bool = True,
                  tie_col: str | None = None) -> "ray.data.Dataset":
    """Top ``k`` rows per ``key`` ordered by ``order_col`` (desc by
    default), ties broken by ``tie_col`` ascending (deterministic
    output requires a tie column unique within the key)."""
    sort_cols = [key, order_col] + ([tie_col] if tie_col else [])
    ascending = [True, not descending] + ([True] if tie_col else [])

    def bucket_top(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(sort_cols, ascending=ascending, kind="mergesort")
        return g.groupby(key, sort=False).head(k)

    return by_bucket(ds, key, bucket_top, batch_format="pandas")


def per_host_cap(ds: "ray.data.Dataset", url_col: str = "url",
                 quality_col: str = "quality_score", cap: int = 5,
                 host_col: str = "host") -> "ray.data.Dataset":
    """FineWeb-style per-host page cap: keep at most ``cap`` pages per
    hostname, best ``quality_col`` first (ties broken by url asc for
    determinism). Guards the corpus against any single crawl-heavy
    domain dominating the token budget — the output-side dual of
    salting hot hosts on the shuffle side.

    Host extraction is one vectorized ``pc.extract_regex`` over the
    scheme://host/ prefix (rows without a parseable host are dropped —
    they cannot be budgeted); the cap itself is grouped_row_number's
    one bucketed shuffle with the limit pushed into the bucket pass, so
    only surviving rows leave the shuffle task."""
    import pyarrow.compute as pc

    from .window import grouped_row_number

    def add_host(batch: pa.Table) -> pa.Table:
        m = pc.extract_regex(batch.column(url_col),
                             r"^[a-z][a-z0-9+.-]*://(?P<h>[^/]+)")
        host = pc.struct_field(m, "h")
        t = batch.append_column(host_col, host)
        return t.filter(pc.is_valid(host))

    with_host = ds.map_batches(add_host, batch_format="pyarrow",
                               zero_copy_batch=True)
    return grouped_row_number(with_host, host_col,
                              [quality_col, url_col],
                              ascending=[False, True], out_col="rn",
                              limit=cap)
