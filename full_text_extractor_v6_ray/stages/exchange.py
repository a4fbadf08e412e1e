"""The keyed exchange: one bucket count, one bucket hash, one shuffle.

Every keyed reduce in the engine (dedup, windows, top-k, group
aggregates, joins) moves rows the same way: each row gets ``bucket =
hash(key) % bucket_count()``, ONE ``groupby(bucket).map_groups``
co-locates equal keys, and a vectorized per-bucket function reduces
them. The Python cost is O(buckets), never O(keys): a per-key
``groupby(key).map_groups`` pays a Python call per key and does not
scale.

Determinism: ``bucket_ids`` is the pinned pure-numpy hash of
``stages/hashing.py``, so a key lands in the same bucket in every
process and every library version. The bucket count only bounds task
memory and parallelism; every per-bucket function re-groups by the exact
key inside its bucket, so no output depends on it.
"""

from __future__ import annotations

from collections.abc import Callable

import numpy as np
import pyarrow as pa

import ray
import ray.data

from .hashing import hash64, splitmix64

BUCKET = "__bucket"


def bucket_count() -> int:
    """``max(32, 4 x cluster CPUs)``: reduce parallelism is fixed at the
    bucket count, and one bucket must fit a task's memory, so the count
    grows with the cluster. Called on the driver when the plan is built;
    never starts Ray (32 when it is down)."""
    try:
        if ray.is_initialized():
            return max(32, 4 * int(ray.cluster_resources().get("CPU", 0)))
    except Exception:
        pass
    return 32


def bucket_ids(table: pa.Table, keys: list[str], n: int) -> pa.Array:
    """int64 bucket in ``[0, n)`` of each row's (composite) key: the
    per-column ``hash64``, splitmix-remixed pairwise so (a, b) and
    (b, a) land differently."""
    h = hash64(table.column(keys[0]))
    for k in keys[1:]:
        h = splitmix64(h ^ hash64(table.column(k)))
    return pa.array((h % np.uint64(n)).astype(np.int64))


def by_bucket(ds: "ray.data.Dataset", keys: str | list[str],
              per_bucket: Callable, batch_format: str = "pyarrow"
              ) -> "ray.data.Dataset":
    """Co-locate equal ``keys`` and run ``per_bucket`` once per bucket
    on a ``batch_format`` ("pyarrow" or "pandas") group of rows, the
    bucket column already dropped."""
    keys = [keys] if isinstance(keys, str) else list(keys)
    n = bucket_count()

    def add_bucket(batch: pa.Table) -> pa.Table:
        return batch.append_column(BUCKET, bucket_ids(batch, keys, n))

    if batch_format == "pandas":
        def run(g):
            return per_bucket(g.drop(columns=BUCKET))
    else:
        def run(g):
            return per_bucket(g.drop_columns([BUCKET]))

    return (ds.map_batches(add_bucket, batch_format="pyarrow",
                           zero_copy_batch=True)
            .groupby(BUCKET).map_groups(run, batch_format=batch_format))
