"""Bucketed joins: one exchange shape, one per-bucket Arrow kernel.

  - ``hash_join``: the partitioned equi-join (inner, left, full outer,
    semi, anti; one key column or several). Both sides get ``bucket =
    exchange.bucket_ids(key)``, a side tag and typed-null padding to the
    union schema; ONE groupby-bucket exchange moves each row once. The
    bucket count (``exchange.bucket_count``) bounds per-task memory for
    spread keys, never for a hot one: one key always lands in one bucket
    (``skew_hash_join`` handles hot keys). Inside a bucket the
    kernel matches row INDICES with ``pa.Table.join`` over slim tables
    (the key columns plus an int64 row index) and ``take``s the payload,
    so every dtype (int64 above 2^53, uint64, lists, structs) leaves
    exactly as it came in, and a null key matches nothing, as in SQL.

  - ``range_join`` (inner match + interval filter), ``asof_join``
    (``pa.Table.join_asof`` per bucket), ``skew_hash_join`` and
    ``bloom_hash_join`` build on the same exchange and kernel.

  - ``broadcast_join``: the map-side twin of ``hash_join`` (inner,
    left, semi, anti; one key column) for a right side the driver
    holds (a dimension table, a key list). One ``SortedKeyIndex`` over
    the right key is ``ray.put`` with the right payload once and every
    left batch probes it in a plain task: no exchange. Every map-side
    key lookup in the package goes through it (``filter_to_keys``'s
    small branch and ``skew_hash_join``'s hot keys included).

Partitioning assumption: equal keys land in equal buckets — guaranteed
by ``exchange.bucket_ids`` on both sides, with both sides' keys cast to
the left key types before hashing.

Why not Ray's native ``Dataset.join``: Ray 2.49 has every join type used
here, but its hash-shuffle join starts a pool of aggregator actors sized
for a cluster. A 50k x 5k int64-key inner join on a one-CPU Ray
(``num_cpus=1``, ``num_partitions=32``) warned "Required: 4.0 CPUs for
32 aggregators" and "Required: 28.00 GiB for 32 aggregators" and had
not finished after 200 s; ``hash_join`` ran the same join in 0.74 s.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray.data

from . import exchange

_SIDE = "__side"
# hash_join's ``how`` -> Acero join type
_JOIN_TYPES = {"inner": "inner", "left": "left outer",
               "outer": "full outer", "semi": "left semi",
               "anti": "left anti"}


def _schema(ds: "ray.data.Dataset", given: pa.Schema | None) -> pa.Schema:
    """``given``, else the Arrow schema of a ``ds.schema()`` probe (a
    PandasBlockSchema's numpy dtypes mapped to Arrow types)."""
    if given is not None:
        return given
    schema = ds.schema().base_schema
    if isinstance(schema, pa.Schema):
        return schema
    fields = []
    for n, t in zip(schema.names, schema.types):
        if not isinstance(t, pa.DataType):
            try:
                t = pa.from_numpy_dtype(t)
            except Exception:
                t = pa.string()
        fields.append((n, t))
    return pa.schema(fields)


def _concat(a: pa.Table, b: pa.Table) -> pa.Table:
    """Columns of ``a`` then those of ``b`` (equal row counts)."""
    return pa.Table.from_arrays(a.columns + b.columns,
                                names=a.column_names + b.column_names)


def _exchange(left: "ray.data.Dataset", right: "ray.data.Dataset",
              lkeys: list[str], rkeys: list[str],
              ls: pa.Schema, rs: pa.Schema,
              per_bucket) -> "ray.data.Dataset":
    """ONE bucketed exchange of both sides: the key columns of both are
    cast to the left key types of ``ls`` (Acero joins equal types only),
    both sides bucket on the key hash and pad to one union schema (left
    columns, then right-only ones; the other side's as typed nulls), and
    ``per_bucket(left rows, right rows)`` runs once per bucket."""
    buckets = exchange.bucket_count()
    types = [ls.field(k).type for k in lkeys]
    lcast, rcast = dict(zip(lkeys, types)), dict(zip(rkeys, types))
    rs = pa.schema([(n, rcast.get(n, t))
                    for n, t in zip(rs.names, rs.types)])
    union = {**dict(zip(rs.names, rs.types)), **dict(zip(ls.names, ls.types))}
    names = list(dict.fromkeys(ls.names + rs.names))

    def prep(keys: list[str], side: int, own: pa.Schema, cast: dict):
        def fn(batch: pa.Table) -> pa.Table:
            t = pa.Table.from_arrays(
                [batch.column(c).cast(cast[c]) if c in cast
                 else batch.column(c) for c in own.names], names=own.names)
            n = t.num_rows
            return pa.Table.from_arrays(
                [t.column(c) if c in own.names else pa.nulls(n, union[c])
                 for c in names]
                + [pa.array(np.full(n, side, np.int8)),
                   exchange.bucket_ids(t, keys, buckets)],
                names=names + [_SIDE, exchange.BUCKET])

        return fn

    lt = left.map_batches(prep(lkeys, 0, ls, lcast),
                          batch_format="pyarrow", zero_copy_batch=True)
    rt = right.map_batches(prep(rkeys, 1, rs, rcast),
                           batch_format="pyarrow", zero_copy_batch=True)

    def run(g: pa.Table) -> pa.Table:
        lmask = pc.equal(g.column(_SIDE), 0)
        return per_bucket(g.filter(lmask).select(ls.names),
                          g.filter(pc.invert(lmask)).select(rs.names))

    return lt.union(rt).groupby(exchange.BUCKET).map_groups(
        run, batch_format="pyarrow")


def _join_tables(lt: pa.Table, rt: pa.Table, lkeys: list[str],
                 rkeys: list[str], how: str) -> pa.Table:
    """The per-bucket kernel: equi-join two in-memory tables whose key
    columns have equal types. Acero matches row indices on slim (keys,
    row index) tables; the payload is ``take``n, so dtypes stay exact.
    Rows come out in left order (each left row's matches in right
    order), right-only rows of an outer join last."""
    names = [f"__k{i}" for i in range(len(lkeys))]
    lidx = pa.table([lt.column(k) for k in lkeys]
                    + [pa.array(np.arange(lt.num_rows))],
                    names=names + ["__li"])
    ridx = pa.table([rt.column(k) for k in rkeys]
                    + [pa.array(np.arange(rt.num_rows))],
                    names=names + ["__ri"])
    pairs = lidx.join(ridx, names, join_type=_JOIN_TYPES[how],
                      use_threads=False)
    pairs = pairs.sort_by([(c, "ascending") for c in ("__li", "__ri")
                           if c in pairs.column_names])
    out = lt.take(pairs.column("__li"))
    if how in ("semi", "anti"):
        return out
    ri = pairs.column("__ri")
    if how == "outer":
        # right-only rows carry the key on the right side only
        for lk, rk in zip(lkeys, rkeys):
            i = out.schema.get_field_index(lk)
            out = out.set_column(i, lk, pc.coalesce(
                out.column(i), rt.column(rk).take(ri)))
    return _concat(out, rt.drop_columns(rkeys).take(ri))


def hash_join(left: "ray.data.Dataset", right: "ray.data.Dataset",
              on: str | list[str], right_on: str | list[str] | None = None,
              how: str = "inner",
              left_schema: pa.Schema | None = None,
              right_schema: pa.Schema | None = None) -> "ray.data.Dataset":
    """Partitioned hash join of ``left.on`` = ``right.right_on``
    (``right_on`` defaults to ``on``; a list joins on a composite key).

    Output = left columns + right columns minus the right keys; no
    other name may appear on both sides. ``how``:

      - "inner": one row per matching (left, right) pair;
      - "left": every left row, right columns null when unmatched;
      - "outer": FULL OUTER — right-only rows appear with the key
        COALESCEd into the left key columns and nulls in the other
        left columns;
      - "semi": each left row with at least one match, once (EXISTS);
      - "anti": each left row with NO match (NOT EXISTS) — a left row
        whose key is null matches nothing, so it is kept.

    Null keys never match (SQL equality). Semi and anti ship only the
    right keys, deduped per batch (the combiner that bounds hot-key
    traffic at O(batches)), and never probe the right schema.

    ``left_schema``/``right_schema``: pass ``pa.schema(...)`` to skip
    the ``ds.schema()`` probe. The probe triggers PARTIAL EXECUTION of
    a lazy input — and when that input's lineage ends in an aggregate
    (a keeper election, a df table), "partial" means the WHOLE
    upstream shuffle runs once just for the schema and again for the
    join (measured: ~25% of the 2M-doc paragraph-dedup wall time).
    Always pass schemas when the input is shuffle-derived.
    """
    lkeys = [on] if isinstance(on, str) else list(on)
    rkeys = lkeys if right_on is None else (
        [right_on] if isinstance(right_on, str) else list(right_on))
    if how not in _JOIN_TYPES:
        raise ValueError(f"hash_join: unknown how={how!r}")
    if not lkeys or len(lkeys) != len(rkeys):
        raise ValueError("hash_join: on/right_on must be equal-length, "
                         "non-empty")
    ls = _schema(left, left_schema)
    if how in ("semi", "anti"):
        right = right.select_columns(rkeys).map_batches(
            lambda b: b.group_by(rkeys).aggregate([]),
            batch_format="pyarrow", zero_copy_batch=True)
        rs = pa.schema([(rk, ls.field(lk).type)
                        for lk, rk in zip(lkeys, rkeys)])
    else:
        rs = _schema(right, right_schema)
        clash = set(ls.names) & (set(rs.names) - set(rkeys))
        if clash:
            raise ValueError(f"hash_join: columns on both sides: "
                             f"{sorted(clash)}")
    return _exchange(left, right, lkeys, rkeys, ls, rs,
                     lambda lg, rg: _join_tables(lg, rg, lkeys, rkeys, how))


# Key lists up to this many rows broadcast to a map-side filter; longer
# ones take the bucketed semi-join (``filter_to_keys``).
BROADCAST_MAX = 2_000_000


class SortedKeyIndex:
    """Exact lookup over integer or string keys, built ONCE and probed
    by many batches; duplicate keys are allowed (``matches`` returns
    every equal pair, ``positions`` one of them).

    ``pc.index_in(value_set=keys)`` rebuilds its hash table over every
    key on each call (0.30 s per 2k-row batch at 1M keys); this index
    pays the build once — ``hash64`` of the keys in chunks plus one
    argsort — and a batch probe is ``hash64`` of the batch, two
    ``np.searchsorted`` over the sorted hashes and one equality check
    per candidate, so its cost does not grow with the key count.
    Keys sharing a ``hash64`` are all compared, so collisions never
    change an answer. Null probe values and null keys match nothing.
    Plain numpy and Arrow members: ``ray.put`` it once and ``ray.get``
    it in tasks.
    """

    _CHUNK = 16_384  # keys hashed per call: bounds hash64's per-byte arrays

    def __init__(self, keys: "pa.Array | pa.ChunkedArray"):
        from .hashing import hash64

        if isinstance(keys, pa.ChunkedArray):
            keys = keys.combine_chunks()
        h = np.concatenate(
            [np.empty(0, np.uint64)]
            + [hash64(keys.slice(i, self._CHUNK))
               for i in range(0, len(keys), self._CHUNK)])
        self.keys = keys
        self.order = np.argsort(h, kind="stable")
        self.hashes = h[self.order]

    def __len__(self) -> int:
        return len(self.keys)

    def matches(self, probe: "pa.Array | pa.ChunkedArray"
                ) -> tuple[np.ndarray, np.ndarray]:
        """``(probe_rows, key_rows)``: every pair of a probe value and an
        equal key, grouped by probe hash (a probe row's key rows
        ascend)."""
        from .hashing import hash64

        if isinstance(probe, pa.ChunkedArray):
            probe = probe.combine_chunks()
        if not len(probe) or not len(self.keys):
            return np.empty(0, np.int64), np.empty(0, np.int64)
        ph = hash64(probe)
        # searching in hash order keeps the binary searches' walk over
        # ``hashes`` monotone: ~10x faster than in row order
        by_hash = np.argsort(ph)
        ph = ph[by_hash]
        lo = np.searchsorted(self.hashes, ph, "left")
        n = np.searchsorted(self.hashes, ph, "right") - lo
        # one candidate per (probe row, key with an equal hash): one per
        # match, more only on a hash64 collision
        row = np.repeat(by_hash, n)
        first = np.cumsum(n) - n
        cand = self.order[np.repeat(lo - first, n) + np.arange(len(row))]
        hit = pc.fill_null(pc.equal(probe.take(row), self.keys.take(cand)),
                           False).to_numpy(zero_copy_only=False)
        return row[hit], cand[hit]

    def positions(self, probe: "pa.Array | pa.ChunkedArray") -> np.ndarray:
        """int64 position in ``keys`` of every probe value, -1 if absent."""
        out = np.full(len(probe), -1, np.int64)
        rows, at = self.matches(probe)
        out[rows] = at
        return out

    def contains(self, probe: "pa.Array | pa.ChunkedArray") -> pa.Array:
        """Boolean mask: which probe values are keys."""
        return pa.array(self.positions(probe) >= 0)


def broadcast_join(left: "ray.data.Dataset", right: pa.Table, on: str,
                   right_on: str | None = None,
                   how: str = "inner") -> "ray.data.Dataset":
    """Map-side join of ``left.on`` = ``right.right_on`` against a table
    the driver holds (``right_on`` defaults to ``on``): the twin of
    ``hash_join`` for a dimension-sized right side, with its output
    contract — left columns, then right columns minus the right key;
    rows in left order, each left row's matches in right order; null
    keys match nothing; dtypes exact. ``how`` is "inner", "left",
    "semi" or "anti" (the anti join keeps null-key left rows); a full
    outer join needs every batch's view of the right rows, so it is
    ``hash_join``'s.

    ONE ``SortedKeyIndex`` over the right key is built on the driver and
    ``ray.put`` with the right payload once; each batch of ``left``
    probes it in a plain task, so ``left`` never enters an exchange
    and no per-batch work grows with the right side's size.
    """
    rk = on if right_on is None else right_on
    if how not in ("inner", "left", "semi", "anti"):
        raise ValueError(f"broadcast_join: unknown how={how!r}")
    payload = (None if how in ("semi", "anti")
               else right.drop_columns([rk]))
    right_names = set() if payload is None else set(payload.column_names)

    def check(names: list[str]) -> None:
        clash = set(names) & right_names
        if clash:
            raise ValueError(f"broadcast_join: columns on both sides: "
                             f"{sorted(clash)}")

    # the left names are checked here when the plan knows them without
    # running anything, else by the first batch
    known = left.schema(fetch_if_missing=False)
    if known is not None:
        check(known.names)
    ref = ray.put((SortedKeyIndex(right.column(rk)), payload))

    def join(batch: pa.Table) -> pa.Table:
        index, rows = ray.get(ref)
        if rows is None:
            has = index.contains(batch.column(on))
            return batch.filter(has if how == "semi" else pc.invert(has))
        check(batch.column_names)
        li, ri = index.matches(batch.column(on))
        if how == "left":
            seen = np.zeros(batch.num_rows, bool)
            seen[li] = True
            miss = np.flatnonzero(~seen)
            li = np.concatenate([li, miss])
            ri = np.concatenate([ri, np.full(len(miss), -1, np.int64)])
        by_row = np.argsort(li, kind="stable")
        li, ri = li[by_row], ri[by_row]
        return _concat(batch.take(li), rows.take(pa.array(ri, mask=ri < 0)))

    return left.map_batches(join, batch_format="pyarrow",
                            zero_copy_batch=True)


def filter_to_keys(ds: "ray.data.Dataset",
                   keys: "ray.data.Dataset | pa.Array",
                   key: str, n_keys: int,
                   broadcast_max: int = BROADCAST_MAX
                   ) -> "ray.data.Dataset":
    """Keep the rows of ``ds`` whose string column ``key`` is in
    ``keys``: the size-dispatched work-list filter.

    ``keys`` is a Dataset with one unique string column named ``key``
    (or, under the threshold only, the values already collected on the
    driver); ``n_keys`` is its row count or an upper bound of it. At or
    below ``broadcast_max`` the values are collected on the driver and
    ``ds`` takes a semi ``broadcast_join`` with them, so the wide rows
    never enter a shuffle. Above it the key list is corpus-sized: ``ds``
    and the keys meet in ONE bucketed ``hash_join`` semi-join.
    """
    if n_keys <= broadcast_max:
        if isinstance(keys, pa.Array):
            vals = keys
        elif n_keys:
            vals = pa.chunked_array(
                [b.column(key) for b in keys.iter_batches(
                    batch_format="pyarrow")], pa.string())
        else:
            vals = pa.array([], pa.string())
        return broadcast_join(ds, pa.table({key: vals}), key, how="semi")
    return hash_join(ds, keys, key, how="semi")


def range_join(left: "ray.data.Dataset", right: "ray.data.Dataset",
               key_left: str, key_right: str,
               ts_left: str, start_right: str, end_right: str
               ) -> "ray.data.Dataset":
    """Range (interval) join: each left row matched to every right row of
    the same key whose interval contains it —
    ``start_right <= ts_left < end_right``. Inner join (non-matching left
    rows drop): the ``hash_join`` inner match on the key followed by the
    interval filter, fused into the same tasks.

    Partitioning assumption: equal keys co-locate via the shared stable
    hash; one bucket-group fits a task — key fan-out (rows-per-key LEFT
    x rows-per-key RIGHT) bounds the intermediate, so salt hot keys
    upstream if a single key's cartesian block is large.
    """
    def within(batch: pa.Table) -> pa.Table:
        ts = batch.column(ts_left)
        return batch.filter(pc.and_(
            pc.greater_equal(ts, batch.column(start_right)),
            pc.less(ts, batch.column(end_right))))

    return hash_join(left, right, key_left, key_right).map_batches(
        within, batch_format="pyarrow", zero_copy_batch=True)


def _asof_on(col: pa.ChunkedArray, typ: pa.DataType) -> pa.Array:
    """Order-preserving uint64 image of an as-of column: Acero's as-of
    join compares its on-key unsigned, so a negative value (a timestamp
    before 1970) would break the sort order it requires."""
    if col.null_count:
        raise ValueError("asof_join: null timestamps")
    v = col.cast(typ).cast(pa.int64()).to_numpy()
    return pa.array(v.view(np.uint64) ^ np.uint64(1 << 63))


def asof_join(left: "ray.data.Dataset", right: "ray.data.Dataset",
              key_left: str, key_right: str,
              ts_left: str, ts_right: str) -> "ray.data.Dataset":
    """As-of join: latest right row with ts_right <= ts_left per key.

    Output = left columns + right columns minus ``key_right`` and
    ``ts_right``. Left rows with no earlier right row keep nulls in
    right columns; among right rows tied on (key, ts) the last one
    wins. Same exchange as ``hash_join``; per bucket
    ``pa.Table.join_asof`` matches row indices on slim (key, ts, row
    index) tables and the payload is ``take``n. A match reaches back at
    most 2^63 - 1 units of the ts column (292 years at ns).
    """
    ls, rs = _schema(left, None), _schema(right, None)
    rvals = [n for n in rs.names if n not in (key_right, ts_right)]
    ts_type = ls.field(ts_left).type

    def per_bucket(lg: pa.Table, rg: pa.Table) -> pa.Table:
        def slim(t: pa.Table, key: str, ts: str, idx: str) -> pa.Table:
            return pa.table({"k": t.column(key),
                             "t": _asof_on(t.column(ts), ts_type),
                             idx: np.arange(t.num_rows)}).sort_by("t")

        m = slim(lg, key_left, ts_left, "__li").join_asof(
            slim(rg, key_right, ts_right, "__ri"), on="t", by="k",
            tolerance=-(2**63 - 1)).sort_by("__li")
        return _concat(lg.take(m.column("__li")),
                       rg.select(rvals).take(m.column("__ri")))

    return _exchange(left, right, [key_left], [key_right], ls, rs,
                     per_bucket)


def skew_hash_join(left: "ray.data.Dataset", right: "ray.data.Dataset",
                   left_key: str, right_key: str,
                   sample_frac: float = 0.05,
                   hot_min_samples: int = 8,
                   max_hot_keys: int = 64,
                   seed: int = 42) -> "ray.data.Dataset":
    """Skew-aware inner hash join: hot keys bypass the shuffle.

    A single hot key sends ALL its rows through one bucket of a
    partitioned hash join — the straggler that kills wall-clock at
    scale. Mitigation (the standard hybrid):

      1. a seeded sample of the left key column estimates hot keys
         (sampled count >= ``hot_min_samples``, capped at
         ``max_hot_keys``) — the estimate only routes rows; join
         OUTPUT is identical whichever path a key takes;
      2. the right-side rows of hot keys (assumed few per key — a dim
         table; documented partitioning assumption) are collected once
         and hot left rows take an inner ``broadcast_join`` with them —
         no shuffle, no straggler;
      3. everything else (an anti ``broadcast_join`` on the hot keys,
         both sides) takes the normal bucketed ``hash_join``;
      4. union of the two streams (identical column order/dtypes).

    Same output contract as ``hash_join(how='inner')``: left columns +
    right columns minus the right key.
    """
    from ray.data.aggregate import Count

    ls, rs = _schema(left, None), _schema(right, None)

    sample = (left.select_columns([left_key])
              .random_sample(sample_frac, seed=seed))
    top = (sample.groupby(left_key).aggregate(Count(alias_name="__c"))
           .sort("__c", descending=True).limit(max_hot_keys).take_all())
    hot = pa.table({"__hot": pa.array(
        sorted(r[left_key] for r in top
               if r["__c"] >= hot_min_samples and r[left_key] is not None),
        ls.field(left_key).type)})

    if not hot.num_rows:
        return hash_join(left, right, left_key, right_key,
                         left_schema=ls, right_schema=rs)

    # small by the dim-table assumption: |hot keys| x rows-per-key
    parts = list(broadcast_join(right, hot, right_key, "__hot", how="semi")
                 .iter_batches(batch_format="pyarrow"))
    right_hot = pa.concat_tables(parts) if parts else rs.empty_table()
    hot_joined = broadcast_join(left, right_hot, left_key, right_key)

    cold_joined = hash_join(
        broadcast_join(left, hot, left_key, "__hot", how="anti"),
        broadcast_join(right, hot, right_key, "__hot", how="anti"),
        left_key, right_key, left_schema=ls, right_schema=rs)
    return hot_joined.union(cold_joined)


class BloomFilter:
    """Vectorized fixed-size Bloom filter over int64 keys.

    k derived hash probes from two numpy multiplicative hashes
    (h_i = h1 + i*h2 mod m — Kirsch-Mitzenmacher double hashing,
    public construction). ~1% FP at 10 bits/key, k=7.
    """

    M1 = np.uint64(0x9E3779B97F4A7C15)
    M2 = np.uint64(0xC2B2AE3D27D4EB4F)

    def __init__(self, n_bits: int, k: int = 7):
        self.m = np.uint64(n_bits)
        self.k = k
        self.bits = np.zeros((n_bits + 7) // 8, dtype=np.uint8)

    def _probes(self, keys: np.ndarray) -> "np.ndarray":
        u = keys.astype(np.int64).view(np.uint64)
        with np.errstate(over="ignore"):
            h1 = u * self.M1
            h2 = (u ^ (u >> np.uint64(33))) * self.M2 | np.uint64(1)
            idx = np.empty((self.k, u.size), dtype=np.uint64)
            for i in range(self.k):
                idx[i] = (h1 + np.uint64(i) * h2) % self.m
        return idx

    def add(self, keys: np.ndarray) -> None:
        idx = self._probes(keys).ravel()
        np.bitwise_or.at(self.bits, (idx >> np.uint64(3)).astype(np.int64),
                         np.left_shift(np.uint8(1),
                                       (idx & np.uint64(7)).astype(np.uint8)))

    def might_contain(self, keys: np.ndarray) -> np.ndarray:
        idx = self._probes(keys)
        ok = np.ones(keys.size, dtype=bool)
        for i in range(self.k):
            byte = self.bits[(idx[i] >> np.uint64(3)).astype(np.int64)]
            bit = np.left_shift(np.uint8(1),
                                (idx[i] & np.uint64(7)).astype(np.uint8))
            ok &= (byte & bit) != 0
        return ok

    def merge(self, other: "BloomFilter") -> None:
        np.bitwise_or(self.bits, other.bits, out=self.bits)


def bloom_hash_join(left: "ray.data.Dataset", right: "ray.data.Dataset",
                    left_key: str, right_key: str,
                    n_bits: int = 1 << 20) -> "ray.data.Dataset":
    """Bloom-pre-filtered inner hash join (the classic bloom join).

    The build side's keys fold into per-block Bloom bitmaps (one
    ``n_bits/8``-byte partial per block, OR-merged on the driver — at
    1 MiB for 10^6-key filters this is a metadata-sized reduce), the
    bitmap broadcasts once via ``ray.put``, and the probe side drops
    non-matching rows BEFORE the shuffle — the standard way to keep a
    selective join from moving the whole big side through the
    exchange. False positives only let extra rows into the exact
    ``hash_join``, so the OUTPUT is byte-identical to the plain
    join (fully oracle-able); false negatives are impossible.
    """
    def build(batch: pa.Table) -> pa.Table:
        bf = BloomFilter(n_bits)
        bf.add(batch.column(right_key).to_numpy(zero_copy_only=False)
               .astype(np.int64))
        return pa.table({"bits": pa.array([bf.bits.tobytes()],
                                          pa.large_binary())})

    bf = BloomFilter(n_bits)
    for row in (right.select_columns([right_key])
                .map_batches(build, batch_format="pyarrow")
                .iter_rows()):
        bf.bits |= np.frombuffer(row["bits"], dtype=np.uint8)
    ref = ray.put(bf)

    def prefilter(batch: pa.Table) -> pa.Table:
        k = batch.column(left_key).to_numpy(
            zero_copy_only=False).astype(np.int64)
        return batch.filter(pa.array(ray.get(ref).might_contain(k)))

    slim = left.map_batches(prefilter, batch_format="pyarrow",
                            batch_size=8192)
    return hash_join(slim, right, left_key, right_key)
