"""Keyed keep-one reductions: url dedup & first/last-by-timestamp (D2).

The reference has no cross-document operators; this is the rebuild-added
shuffle required by the north rule (BASELINE.json:14 "groupby-on-url
dedup/shuffle"). Designed for 10^12 rows:

  Phase A (no shuffle): vectorized WITHIN-BATCH reduce in ``map_batches`` —
    keep-latest-by-``warc_ts`` is an associative max-by, so a local combine
    is always safe. It bounds a hot key's shuffle volume to (#batches) rows
    instead of (#occurrences) — the effect salting buys, without a second
    shuffle (skew handling per SURVEY.md §4.2).

  Phase B (one shuffle): the keyed exchange of ``stages/exchange.py``
    (``by_bucket``): ``hash(key) % bucket_count()`` integer buckets, ONE
    ``groupby(bucket).map_groups`` and a VECTORIZED within-bucket reduce
    (arrow sort_indices + run-boundary filter). The per-group Python
    cost is O(buckets), not O(distinct keys) — a naive
    ``groupby(url).map_groups`` pays a Python call per url and does not
    scale (measured: it halved pipeline throughput at 45k urls).

Determinism: the bucket hash is pinned (``exchange.bucket_ids``); ties
are fully ordered, so output bytes are identical at any parallelism /
bucket count.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray.data

from .exchange import by_bucket


def materialize_rebased(ds: "ray.data.Dataset",
                        num_blocks: int = 32,
                        spill_dir: str | None = None) -> "ray.data.Dataset":
    """Materialize + HARD lineage cut at a pinned block count.

    Needed when one lazy pipeline feeds SEVERAL consumers (join sides,
    iterative loops, schema probes): without the cut, every consumer —
    including each ``.schema()`` probe a join makes — re-executes the
    full upstream lineage, and iterative
    unions double block counts per round.

    Two flavors:
      - default: rebuild from the materialized object-store refs (no
        driver copy) — O(1) downstream reads, intermediate pinned in the
        object store;
      - ``spill_dir``: write a parquet intermediate and re-read it (the
        checkpoint pattern) — the 10^12-row flavor: nothing stays pinned
        in the object store, the intermediate lives on (shared) storage
        and a crashed consumer re-reads instead of re-executing.
    """
    if spill_dir is not None:
        import os
        import uuid

        path = os.path.join(spill_dir, f"rebase-{uuid.uuid4().hex}")
        ds.write_parquet(path)
        files = [f for f in os.listdir(path) if f.endswith(".parquet")]
        if files:
            return ray.data.read_parquet(path,
                                         override_num_blocks=num_blocks)
        # zero rows written -> nothing to read back; fall through to the
        # object-store flavor (an empty materialize is cheap)
    mat = ds.repartition(num_blocks).materialize()
    return ray.data.from_arrow_refs(mat.to_arrow_refs())


def _keep_first_of_runs(batch: pa.Table, key: str,
                        order: list[tuple[str, str]]) -> pa.Table:
    """Sort by (key, *order) and keep the first row of each key run."""
    if batch.num_rows <= 1:
        return batch
    idx = pc.sort_indices(batch, sort_keys=[(key, "ascending"), *order])
    t = batch.take(idx)
    keys = t.column(key).combine_chunks()
    prev = keys.slice(0, len(keys) - 1)
    first = pa.concat_arrays([pa.array([True]),
                              pc.not_equal(keys.slice(1), prev)])
    return t.filter(first)


def hash_bucketed_distinct(ds: "ray.data.Dataset", cols: list[str]
                           ) -> "ray.data.Dataset":
    """Distinct rows by the key columns ``cols`` (the first row of each
    key kept whole): one keyed exchange, one Arrow ``group_by(cols)`` per
    bucket (O(buckets) Python calls; a per-key map_groups does not
    scale)."""
    def first_rows(g: pa.Table) -> pa.Table:
        first = (g.select(cols)
                 .append_column("__i", pa.array(np.arange(g.num_rows)))
                 .group_by(cols, use_threads=False)
                 .aggregate([("__i", "min")]))
        return g.take(np.sort(first.column("__i_min").to_numpy()))

    return by_bucket(ds, cols, first_rows)


def keyed_keep_one(ds: "ray.data.Dataset", key: str,
                   order: list[tuple[str, str]],
                   local_combine: bool = True) -> "ray.data.Dataset":
    """Keep exactly one row per ``key``, the first under ``order``.

    ``order`` is a list of (column, "ascending"|"descending") applied after
    the key — e.g. [("warc_ts", "descending")] keeps the latest crawl.
    """
    def keep_first(batch: pa.Table) -> pa.Table:
        return _keep_first_of_runs(batch, key, order)

    if local_combine:
        ds = ds.map_batches(keep_first, batch_format="pyarrow",
                            zero_copy_batch=True)
    return by_bucket(ds, key, keep_first)


def dedup_latest_by_ts(ds: "ray.data.Dataset",
                       local_combine: bool = True,
                       tie_break: tuple[str, str] | None = ("n_chars", "descending"),
                       ) -> "ray.data.Dataset":
    """URL dedup: keep the latest crawl per url.

    ``tie_break`` orders equal-timestamp crawls deterministically (the
    extraction schema always carries n_chars); pass None for datasets
    without that column. No ``ds.schema()`` probe here — that can trigger
    partial execution of a lazy pipeline.
    """
    order = [("warc_ts", "descending")]
    if tie_break is not None:
        order.append(tie_break)
    return keyed_keep_one(ds, "url", order, local_combine=local_combine)


def bucketed_group_agg(ds: "ray.data.Dataset", key: str,
                       aggs: list[tuple[str, str]]) -> "ray.data.Dataset":
    """Associative aggregate per ``key`` without Ray's sort-based
    aggregate: ONE keyed exchange + a vectorized Arrow hash-aggregate
    per bucket. For string-ish keys this replaces a full distributed
    sort of the key column (measured on the 2M-doc bigram LM: the
    string-key Aggregate was 65% of pipeline CPU) with an int64 bucket
    exchange; the per-bucket reduce is C++ (``pa.Table.group_by``),
    O(buckets) Python calls. ``aggs`` are (column, op) with op an
    ASSOCIATIVE pyarrow op ("sum", "min", "max", ...) — inputs should
    already be map-side partials; this is the reduce half of the
    combiner pattern. Output columns keep their input names, key
    first."""
    def reduce_bucket(g: pa.Table) -> pa.Table:
        a = g.group_by(key).aggregate(list(aggs))
        return a.rename_columns([key] + [c for c, _ in aggs])

    return by_bucket(ds, key, reduce_bucket)


def bucketed_group_sum(ds: "ray.data.Dataset", key: str,
                       sum_cols: list[str]) -> "ray.data.Dataset":
    """SUM flavor of ``bucketed_group_agg`` (see its scale notes)."""
    return bucketed_group_agg(ds, key, [(c, "sum") for c in sum_cols])
