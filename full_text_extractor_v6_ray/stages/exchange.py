"""The keyed exchange: one bucket count, one bucket hash, one mover.

Every keyed reduce in the engine (dedup, windows, top-k, group
aggregates, joins) moves rows the same way. Each map task cuts its
batch by ``bucket = hash(key) % bucket_count()`` into one Arrow IPC
stream per bucket, one ``(bucket, side, blob)`` row each (an empty
slice still carries its schema); ONE sort on the bucket moves the rows
(the shuffle ``groupby(bucket).map_groups`` runs); the reducer decodes
each side's slices under the schema they carry and runs a vectorized
per-bucket function once per bucket that holds a row. So the driver
never needs a side's schema and no side is padded to another's (map
tasks pre-partition, the exchange moves partitions: *Hyper Dimension
Shuffle*, VLDB 2019). The Python cost is O(buckets), never O(keys): a
per-key ``groupby(key).map_groups`` pays a Python call per key.

Determinism: ``bucket_ids`` is the pinned pure-numpy hash of
``stages/hashing.py``, so a key lands in the same bucket in every
process and every library version. The bucket count only bounds task
memory and parallelism; every per-bucket function re-groups by the exact
key inside its bucket, so no output depends on it. A bucket's rows
reach its function in input order: the sort is stable.
"""

from __future__ import annotations

from collections.abc import Callable

import numpy as np
import pyarrow as pa

import ray
import ray.data

from .hashing import hash64, hash_family, splitmix64

BUCKET = "__bucket"
_SIDE = "__side"
_BLOB = "__blob"


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


def _cut(keys: list[str], n: int, side: int) -> Callable:
    """Map task: a batch -> ``n`` rows ``(bucket, side, blob)``, ``blob``
    the Arrow IPC stream of the batch's rows in that bucket, in batch
    order."""
    def cut(batch: pa.Table) -> pa.Table:
        b = bucket_ids(batch, keys, n).to_numpy()
        # the narrowest dtype makes numpy's stable sort a radix sort
        order = np.argsort(b.astype(np.min_scalar_type(n)), kind="stable")
        bounds = np.searchsorted(b[order], np.arange(n + 1))
        rows = batch.take(order)
        sink, ends = pa.BufferOutputStream(), [0]
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            with pa.ipc.new_stream(sink, rows.schema) as w:
                w.write_table(rows.slice(lo, hi - lo))
            ends.append(sink.tell())
        blobs = pa.LargeBinaryArray.from_buffers(
            pa.large_binary(), n,
            [None, pa.array(ends, pa.int64()).buffers()[1], sink.getvalue()])
        return pa.table({BUCKET: np.arange(n, dtype=np.int64),
                         _SIDE: np.full(n, side, np.int8), _BLOB: blobs})

    return cut


def _decode(blobs: pa.ChunkedArray, rows: np.ndarray) -> pa.Table | None:
    """The slices at ``rows`` of ``blobs`` as one table, None for no rows
    (zero-copy reads; types that differ between batches are widened)."""
    if not len(rows):
        return None
    return pa.concat_tables(
        [pa.ipc.open_stream(blobs[int(r)].as_buffer()).read_all()
         for r in rows], promote_options="permissive").combine_chunks()


def _move(sides: list[tuple["ray.data.Dataset", list[str]]],
          reduce: Callable) -> "ray.data.Dataset":
    """The mover: ``reduce(*tables)`` once per bucket holding a row of any
    side, one table per side, or None for a side that sent no slice
    (it has no rows at all: Ray calls no map task on an empty block)."""
    n, k = bucket_count(), len(sides)
    cut = [ds.map_batches(_cut(keys, n, i), batch_format="pyarrow",
                          zero_copy_batch=True)
           for i, (ds, keys) in enumerate(sides)]

    def run(block: pa.Table):
        # a sorted block holds whole buckets (a range of the sort)
        b = block.column(BUCKET).to_numpy()
        side = block.column(_SIDE).to_numpy()
        blobs = block.column(_BLOB)
        starts = np.flatnonzero(np.diff(b, prepend=-1))
        for lo, hi in zip(starts, np.append(starts[1:], len(b))):
            tables = [_decode(blobs, lo + np.flatnonzero(side[lo:hi] == i))
                      for i in range(k)]
            if any(t is not None and t.num_rows for t in tables):
                yield reduce(*tables)

    rows = cut[0] if len(cut) == 1 else cut[0].union(*cut[1:])
    return (rows.sort(BUCKET)
            .map_batches(run, batch_size=None, batch_format="pyarrow",
                         zero_copy_batch=True))


def by_bucket(ds: "ray.data.Dataset", keys: str | list[str],
              per_bucket: Callable, batch_format: str = "pyarrow"
              ) -> "ray.data.Dataset":
    """Co-locate equal ``keys`` and run ``per_bucket`` once per bucket
    on a ``batch_format`` ("pyarrow" or "pandas") group of rows."""
    from ray.data.block import BlockAccessor

    keys = [keys] if isinstance(keys, str) else list(keys)
    return _move([(ds, keys)], (
        lambda t: per_bucket(BlockAccessor.for_block(t).to_pandas()))
        if batch_format == "pandas" else per_bucket)


def plan_schema(ds: "ray.data.Dataset") -> pa.Schema | None:
    """The Arrow schema of ``ds`` when its plan knows it without running
    anything (a parquet read, a materialized dataset, ``from_arrow`` of
    rows), else None."""
    s = ds.schema(fetch_if_missing=False)
    return s.base_schema if s and isinstance(s.base_schema, pa.Schema) \
        else None


def co_bucket(left: "ray.data.Dataset", right: "ray.data.Dataset",
              lkeys: list[str], rkeys: list[str],
              per_bucket: Callable) -> "ray.data.Dataset":
    """ONE exchange of two sides: ``per_bucket(left rows, right rows)``
    once per bucket holding a row of either side, the right keys cast to
    the left key types (Acero joins equal types only). Keys of two
    ``hash_family``s (float against int) raise ``ValueError`` naming both
    columns: equal keys could miss. A side with no rows sends no slice;
    it arrives as the empty table of its ``plan_schema``, else of its
    keys alone."""
    known = [plan_schema(left), plan_schema(right)]

    def empty(i: int, keys: list[str], other: pa.Table, okeys: list[str]):
        return known[i].empty_table() if known[i] else pa.table(
            {k: other.column(ok).slice(0, 0) for k, ok in zip(keys, okeys)})

    def reduce(lt: pa.Table | None, rt: pa.Table | None):
        lt = empty(0, lkeys, rt, rkeys) if lt is None else lt
        rt = empty(1, rkeys, lt, lkeys) if rt is None else rt
        for lk, rk in zip(lkeys, rkeys):
            ltype, rtype = lt.schema.field(lk).type, rt.schema.field(rk).type
            if len({hash_family(ltype), hash_family(rtype)} - {None}) > 1:
                raise ValueError(
                    f"join keys {lk!r} ({ltype}) and {rk!r} ({rtype}) hash "
                    f"differently; cast one side to the other's type")
            rt = rt.set_column(rt.schema.get_field_index(rk), rk,
                               rt.column(rk).cast(ltype))
        return per_bucket(lt, rt)

    return _move([(left, lkeys), (right, rkeys)], reduce)
