"""Join operators Ray Data lacks natively: partitioned hash join, as-of join.

Patterns per the Ray guide ("Joins and lookups"):

  - ``bucket_hash_join``: the explicit partitioned hash join — add
    ``bucket = hash(key) % B`` to BOTH sides, tag the side, pad each side
    with the other's columns as TYPED nulls (schemas must match for
    union), union, groupby the bucket, and join the two sides pairwise
    inside each bucket group (pandas merge). ONE shuffle total; B bounds
    per-task memory; raise B to dilute hot keys.

  - ``asof_join``: same bucketing; inside each bucket sort both sides by
    (key, ts) and ``pd.merge_asof`` — each left row matched to the latest
    right row with ``right_ts <= left_ts`` for the same key.

Partitioning assumption (documented per the briefing): equal keys land in
equal buckets — guaranteed by the shared version-independent hash
(stages/hashing.py) on both sides.

Caveat: the per-bucket pandas merge round-trips null-padded integer
columns through float64, so uint64 VALUES above 2^53 survive the join
only approximately (and never crash — unsigned dtypes are restored, not
force-cast to int64). Store 64-bit hashes as int64 bit-views (the
repo-wide convention for bucket/band ids) when they must join exactly.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

import ray.data

from .dedup import _stable_bucket, default_num_buckets

_SIDE = "__side"
_BUCKET = "__jbucket"


def _fields(schema) -> list[tuple[str, pa.DataType]]:
    """(name, arrow type) pairs from an arrow Schema OR PandasBlockSchema."""
    if isinstance(schema, pa.Schema):
        return [(n, schema.field(n).type) for n in schema.names]
    out = []
    for n, t in zip(schema.names, schema.types):
        if isinstance(t, pa.DataType):
            out.append((n, t))
        else:
            try:
                out.append((n, pa.from_numpy_dtype(t)))
            except Exception:
                out.append((n, pa.string()))
    return out


def _prep_side(ds: "ray.data.Dataset", key: str, side: int,
               num_buckets: int, own, other) -> "ray.data.Dataset":
    """Tag + bucket + pad to the union schema (own cols then other-only)."""
    own_names = list(own.names)
    other_only = [(n, t) for n, t in _fields(other) if n not in own_names]
    ordered = own_names + [n for n, _ in other_only]

    def fn(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        for name, typ in other_only:
            batch = batch.append_column(name, pa.nulls(n, typ))
        batch = batch.select(ordered)
        batch = batch.append_column(_SIDE, pa.array([side] * n, pa.int8()))
        return batch.append_column(_BUCKET,
                                   _stable_bucket(batch.column(key),
                                                  num_buckets))

    return ds.map_batches(fn, batch_format="pyarrow", zero_copy_batch=True)


def _pd_dtype(t: pa.DataType) -> str:
    """Pandas dtype used for typed empty/NA columns of an arrow type."""
    if pa.types.is_integer(t):
        return "Int64"
    if pa.types.is_floating(t):
        return "float64"
    if pa.types.is_boolean(t):
        return "boolean"
    if pa.types.is_timestamp(t):
        return "datetime64[ns]"
    if (pa.types.is_binary(t) or pa.types.is_large_binary(t)
            or pa.types.is_fixed_size_binary(t)):
        # bytes stay object-dtype: an empty bucket emitting a pandas
        # 'string' column would carry arrow type string while populated
        # buckets carry binary — schema unification breakage (advisor
        # finding, round 2). An empty object column converts to arrow
        # null, which promotes cleanly against binary.
        return "object"
    return "string"


def _typed_empty(fields: list[tuple[str, pa.DataType]]) -> pa.Table:
    """Empty bucket output as an ARROW table whose types match what the
    pandas->arrow conversion yields for populated buckets (bytes columns
    especially: a pandas 'string' empty would carry arrow type string
    where populated buckets carry binary — schema unification breakage;
    advisor finding, round 2)."""
    def arrow_t(t: pa.DataType) -> pa.DataType:
        if pa.types.is_integer(t):
            return pa.int64()
        if pa.types.is_floating(t):
            return pa.float64()
        if pa.types.is_boolean(t):
            return pa.bool_()
        if pa.types.is_timestamp(t):
            return pa.timestamp("ns")
        if (pa.types.is_binary(t) or pa.types.is_large_binary(t)
                or pa.types.is_fixed_size_binary(t)):
            return pa.binary()
        return pa.string()
    return pa.table({n: pa.array([], arrow_t(t)) for n, t in fields})


def _split_sides(g: pd.DataFrame, lcols: list[str], rcols: list[str],
                 ltypes: dict, rtypes: dict):
    lg = g.loc[g[_SIDE] == 0, lcols].copy()
    rg = g.loc[g[_SIDE] == 1, rcols].copy()
    # The union pads each side's rows with nulls in the OTHER side's
    # columns, so after the pandas conversion every int/bool column whose
    # opposite side had rows became float64/object. Restore from the
    # ORIGINAL arrow schema — never by value inspection (an all-integral
    # float column like totalprice=100.0 must stay float64).
    for df, types in ((lg, ltypes), (rg, rtypes)):
        for c in df.columns:
            t = types.get(c)
            if t is None:
                continue
            if pa.types.is_unsigned_integer(t):
                # uint64 values >= 2^63 overflow an int64 cast (advisor
                # finding, round 2) — keep the unsigned dtype
                if df[c].dtype != "uint64":
                    df[c] = df[c].astype("uint64")
            elif pa.types.is_integer(t) and df[c].dtype != "int64":
                df[c] = df[c].astype("int64")  # own side: never null
            elif pa.types.is_boolean(t) and df[c].dtype == object:
                df[c] = df[c].astype(bool)
    return lg, rg


def _coerce_merged(df: pd.DataFrame, types: dict, cols: list[str]) -> pd.DataFrame:
    """Right-side value columns after an outer-ish merge: unmatched rows
    hold NaN, floating int-origin columns -> nullable Int64 (arrow int64)."""
    for c in cols:
        t = types.get(c)
        if t is None or c not in df.columns:
            continue
        if pa.types.is_integer(t) and str(df[c].dtype) == "float64":
            df[c] = df[c].astype("Int64")
    return df


def bucket_hash_join(left: "ray.data.Dataset", right: "ray.data.Dataset",
                     left_key: str, right_key: str,
                     num_buckets: int | None = None,
                     how: str = "inner") -> "ray.data.Dataset":
    """Partitioned hash join on an equality key (non-key names must differ).

    Output = left columns + right columns minus the right key.
    ``how``: "inner", "left", or "outer" (FULL OUTER: right-only rows
    appear with the key COALESCEd into ``left_key`` and nulls in the
    other left columns — the usual COALESCE(l.k, r.k) result shape).
    ``num_buckets=None`` scales with the cluster (4 x CPUs, min 32) —
    bucket-grouped joins fix parallelism at the bucket count.
    """
    if num_buckets is None:
        num_buckets = default_num_buckets(32)
    ls, rs = left.schema().base_schema, right.schema().base_schema
    lcols, rcols = list(ls.names), list(rs.names)
    ltypes, rtypes = dict(_fields(ls)), dict(_fields(rs))
    out_fields = (_fields(ls) + [(n, t) for n, t in _fields(rs)
                                 if n != right_key])
    rvals = [n for n in rcols if n != right_key]
    lvals = [n for n in lcols if n != left_key]
    lt = _prep_side(left, left_key, 0, num_buckets, ls, rs)
    rt = _prep_side(right, right_key, 1, num_buckets, rs, ls)

    def join_bucket(g: pd.DataFrame) -> pd.DataFrame:
        lg, rg = _split_sides(g, lcols, rcols, ltypes, rtypes)
        if (lg.empty and rg.empty) or (lg.empty and how != "outer") \
                or (rg.empty and how == "inner"):
            return _typed_empty(out_fields)
        merged = lg.merge(rg, left_on=left_key, right_on=right_key, how=how)
        if how == "outer" and right_key in merged.columns \
                and right_key != left_key:
            # right-only rows carry the key only on the right side
            merged[left_key] = merged[left_key].fillna(merged[right_key])
        if right_key != left_key and right_key in merged.columns:
            merged = merged.drop(columns=[right_key])
        merged = _coerce_merged(merged, rtypes, rvals)
        if how == "outer":
            # right-only rows hold NaN in LEFT columns too
            merged = _coerce_merged(merged, ltypes, lvals + [left_key])
        return merged

    return lt.union(rt).groupby(_BUCKET).map_groups(join_bucket,
                                                    batch_format="pandas")


def lookup_hash_join(left: "ray.data.Dataset", right: "ray.data.Dataset",
                     left_key: str, right_key: str,
                     num_buckets: int | None = None,
                     how: str = "inner",
                     left_schema: pa.Schema | None = None,
                     right_schema: pa.Schema | None = None
                     ) -> "ray.data.Dataset":
    """Join where the right side's key is UNIQUE (a lookup / decorate
    join: one row per key on the build side — keeper elections,
    per-term df tables, per-node rank/degree states, dimension
    lookups). All-Arrow per-bucket probe: ``pc.index_in`` + ``take`` —
    no pandas round-trip, so (a) string/list-heavy payloads skip
    object boxing (the pandas merge was the measured hot stage of the
    2M-doc paragraph dedup) and (b) every dtype survives exactly (the
    module-caveat float64 null-padding corruption cannot occur).
    ``how``: "inner" drops unmatched left rows; "left" keeps them with
    null right columns (``take`` on a null index IS null — no extra
    work).

    If the right key is NOT unique this silently joins each left row
    to ONE arbitrary match (``index_in`` first-hit) — use
    ``bucket_hash_join`` for general many-to-many joins. Same shuffle
    shape: both sides pad to the union schema, ONE bucketed exchange.

    ``left_schema``/``right_schema``: pass ``pa.schema(...)`` to skip
    the ``ds.schema()`` probe. The probe triggers PARTIAL EXECUTION of
    a lazy input — and when that input's lineage ends in an aggregate
    (a keeper election, a df table), "partial" means the WHOLE
    upstream shuffle runs once just for the schema and again for the
    join (measured: ~25% of the 2M-doc paragraph-dedup wall time).
    Always pass schemas when the input is shuffle-derived.
    """
    if how not in ("inner", "left"):
        raise ValueError("lookup_hash_join supports how='inner'|'left'")
    if num_buckets is None:
        num_buckets = default_num_buckets(32)
    ls = left_schema if left_schema is not None \
        else left.schema().base_schema
    rs = right_schema if right_schema is not None \
        else right.schema().base_schema
    lcols, rcols = list(ls.names), list(rs.names)
    rvals = [n for n in rcols if n != right_key]
    rtypes = dict(_fields(rs))
    lt = _prep_side(left, left_key, 0, num_buckets, ls, rs)
    rt = _prep_side(right, right_key, 1, num_buckets, rs, ls)

    def join_bucket(g: pa.Table) -> pa.Table:
        lmask = pc.equal(g.column(_SIDE), 0)
        lg = g.filter(lmask).select(lcols)
        rg = g.filter(pc.invert(lmask)).select(rcols)
        rkeys = rg.column(right_key).combine_chunks()
        idx = pc.index_in(lg.column(left_key), value_set=rkeys)
        out = lg
        if how == "inner":
            keep = pc.is_valid(idx)
            out = out.filter(keep)
            idx = idx.filter(keep)
        for c in rvals:
            if len(rg) == 0:
                # take on an empty array errors for non-null idx and
                # loses the dtype: emit typed nulls directly
                out = out.append_column(
                    c, pa.nulls(out.num_rows, rtypes[c]))
            else:
                out = out.append_column(c, pc.take(rg.column(c), idx))
        return out

    return lt.union(rt).groupby(_BUCKET).map_groups(
        join_bucket, batch_format="pyarrow")


# Key lists up to this many rows broadcast to a map-side filter; longer
# ones take the bucketed semi-join (``filter_to_keys``).
BROADCAST_MAX = 2_000_000


def filter_to_keys(ds: "ray.data.Dataset",
                   keys: "ray.data.Dataset | pa.Array",
                   key: str, n_keys: int,
                   broadcast_max: int = BROADCAST_MAX,
                   left_schema: pa.Schema | None = None
                   ) -> "ray.data.Dataset":
    """Keep the rows of ``ds`` whose string column ``key`` is in
    ``keys``: the size-dispatched work-list filter.

    ``keys`` is a Dataset with one unique string column named ``key``
    (or, under the threshold only, the values already collected on the
    driver); ``n_keys`` is its row count or an upper bound of it. At or
    below ``broadcast_max`` the values are ``ray.put`` once and every
    batch of ``ds`` is filtered map-side (``pc.is_in``), so the wide
    rows never enter a shuffle. Above it the key list is corpus-sized:
    ``ds`` and the keys meet in ONE bucketed ``lookup_hash_join``
    semi-join (``left_schema`` skips its schema probe of ``ds``).
    """
    if n_keys <= broadcast_max:
        if isinstance(keys, pa.Array):
            vals = keys
        elif n_keys:
            vals = pa.chunked_array(
                [b.column(key) for b in keys.iter_batches(
                    batch_format="pyarrow")], pa.string()).combine_chunks()
        else:
            vals = pa.array([], pa.string())
        ref = ray.put(vals)

        def keep(batch: pa.Table) -> pa.Table:
            return batch.filter(pc.is_in(batch.column(key),
                                         value_set=ray.get(ref)))

        return ds.map_batches(keep, batch_format="pyarrow",
                              zero_copy_batch=True)
    return lookup_hash_join(ds, keys, key, key, left_schema=left_schema,
                            right_schema=pa.schema([(key, pa.string())]))


def _stable_bucket_multi(batch: pa.Table, keys: list[str],
                         num_buckets: int) -> pa.Array:
    """Deterministic bucket over a COMPOSITE key: per-column stable
    hash64, splitmix-remixed pairwise so (a, b) and (b, a) land
    differently — same version-independence contract as the
    single-column `_stable_bucket`."""
    from .hashing import hash64, splitmix64

    h = hash64(batch.column(keys[0]))
    for k in keys[1:]:
        h = splitmix64(h ^ hash64(batch.column(k)))
    return pa.array((h % np.uint64(num_buckets)).astype(np.int64))


def bucket_hash_join_multi(left: "ray.data.Dataset",
                           right: "ray.data.Dataset",
                           left_keys: list[str], right_keys: list[str],
                           num_buckets: int | None = None,
                           how: str = "inner") -> "ray.data.Dataset":
    """Partitioned hash join on a COMPOSITE equality key (multi-column
    ON clause). Same shuffle shape as `bucket_hash_join`; the bucket is
    a splitmix-combined stable hash of every key column, so equal
    composite keys co-locate. Output = left columns + right columns
    minus the right keys. ``how``: "inner" or "left"."""
    if num_buckets is None:
        num_buckets = default_num_buckets(32)
    if len(left_keys) != len(right_keys) or not left_keys:
        raise ValueError("left_keys/right_keys must be equal-length, "
                         "non-empty")
    ls, rs = left.schema().base_schema, right.schema().base_schema
    lcols, rcols = list(ls.names), list(rs.names)
    ltypes, rtypes = dict(_fields(ls)), dict(_fields(rs))
    out_fields = (_fields(ls) + [(n, t) for n, t in _fields(rs)
                                 if n not in right_keys])
    rvals = [n for n in rcols if n not in right_keys]

    def prep(keys: list[str], side: int, own, other):
        own_names = list(own.names)
        other_only = [(n, t) for n, t in _fields(other)
                      if n not in own_names]
        ordered = own_names + [n for n, _ in other_only]

        def fn(batch: pa.Table) -> pa.Table:
            bucket = _stable_bucket_multi(batch, keys, num_buckets)
            n = batch.num_rows
            for name, typ in other_only:
                batch = batch.append_column(name, pa.nulls(n, typ))
            batch = batch.select(ordered)
            batch = batch.append_column(_SIDE,
                                        pa.array([side] * n, pa.int8()))
            return batch.append_column(_BUCKET, bucket)
        return fn

    lt = left.map_batches(prep(left_keys, 0, ls, rs),
                          batch_format="pyarrow", zero_copy_batch=True)
    rt = right.map_batches(prep(right_keys, 1, rs, ls),
                           batch_format="pyarrow", zero_copy_batch=True)

    def join_bucket(g: pd.DataFrame) -> pd.DataFrame:
        lg, rg = _split_sides(g, lcols, rcols, ltypes, rtypes)
        if lg.empty or (rg.empty and how == "inner"):
            return _typed_empty(out_fields)
        merged = lg.merge(rg, left_on=left_keys, right_on=right_keys,
                          how=how)
        drop = [k for k in right_keys
                if k not in left_keys and k in merged.columns]
        if drop:
            merged = merged.drop(columns=drop)
        return _coerce_merged(merged, rtypes, rvals)

    return lt.union(rt).groupby(_BUCKET).map_groups(join_bucket,
                                                    batch_format="pandas")


def range_join(left: "ray.data.Dataset", right: "ray.data.Dataset",
               key_left: str, key_right: str,
               ts_left: str, start_right: str, end_right: str,
               num_buckets: int | None = None) -> "ray.data.Dataset":
    """Range (interval) join: each left row matched to every right row of
    the same key whose interval contains it —
    ``start_right <= ts_left < end_right``. Inner join (non-matching left
    rows drop); one bucketed shuffle, per-bucket vectorized equi-merge on
    the key followed by the interval filter.

    Partitioning assumption (documented per the briefing): equal keys
    co-locate via the shared stable hash; one bucket-group fits a task —
    key fan-out (rows-per-key LEFT x rows-per-key RIGHT) bounds the
    intermediate, so salt hot keys upstream if a single key's cartesian
    block is large.
    """
    if num_buckets is None:
        num_buckets = default_num_buckets(32)
    ls, rs = left.schema().base_schema, right.schema().base_schema
    lcols, rcols = list(ls.names), list(rs.names)
    ltypes, rtypes = dict(_fields(ls)), dict(_fields(rs))
    out_fields = _fields(ls) + [(n, t) for n, t in _fields(rs)
                                if n != key_right]
    rvals = [n for n in rcols if n != key_right]
    lt = _prep_side(left, key_left, 0, num_buckets, ls, rs)
    rt = _prep_side(right, key_right, 1, num_buckets, rs, ls)

    def join_bucket(g: pd.DataFrame) -> pd.DataFrame:
        lg, rg = _split_sides(g, lcols, rcols, ltypes, rtypes)
        if lg.empty or rg.empty:
            return _typed_empty(out_fields)
        merged = lg.merge(rg, left_on=key_left, right_on=key_right,
                          how="inner")
        keep = ((merged[ts_left] >= merged[start_right])
                & (merged[ts_left] < merged[end_right]))
        merged = merged.loc[keep]
        if key_right != key_left and key_right in merged.columns:
            merged = merged.drop(columns=[key_right])
        return _coerce_merged(merged, rtypes, rvals)

    return lt.union(rt).groupby(_BUCKET).map_groups(join_bucket,
                                                    batch_format="pandas")


def asof_join(left: "ray.data.Dataset", right: "ray.data.Dataset",
              key_left: str, key_right: str,
              ts_left: str, ts_right: str,
              num_buckets: int | None = None) -> "ray.data.Dataset":
    """As-of join: latest right row with ts_right <= ts_left per key.

    Left rows with no earlier right row keep nulls in right columns.
    """
    if num_buckets is None:
        num_buckets = default_num_buckets(32)
    ls, rs = left.schema().base_schema, right.schema().base_schema
    lcols, rcols = list(ls.names), list(rs.names)
    ltypes, rtypes = dict(_fields(ls)), dict(_fields(rs))
    rvals = [c for c in rcols if c not in (key_right, ts_right)]
    out_fields = _fields(ls) + [(n, t) for n, t in _fields(rs)
                                if n in rvals]
    lt = _prep_side(left, key_left, 0, num_buckets, ls, rs)
    rt = _prep_side(right, key_right, 1, num_buckets, rs, ls)

    def join_bucket(g: pd.DataFrame) -> pd.DataFrame:
        lg, rg = _split_sides(g, lcols, rcols, ltypes, rtypes)
        if lg.empty:
            return _typed_empty(out_fields)
        lg = lg.sort_values([ts_left, key_left], kind="mergesort")
        if rg.empty:
            for c in rvals:
                t = rtypes[c]
                fill = pd.NaT if pa.types.is_timestamp(t) else pd.NA
                lg[c] = pd.Series([fill] * len(lg),
                                  dtype=_pd_dtype(t), index=lg.index)
            return lg
        rg = rg.sort_values([ts_right, key_right], kind="mergesort")
        merged = pd.merge_asof(
            lg, rg, left_on=ts_left, right_on=ts_right,
            left_by=key_left, right_by=key_right, direction="backward")
        if ts_right in merged.columns and ts_right != ts_left:
            merged = merged.drop(columns=[ts_right])
        if key_right in merged.columns and key_right != key_left:
            merged = merged.drop(columns=[key_right])
        return _coerce_merged(merged, rtypes, rvals)

    return lt.union(rt).groupby(_BUCKET).map_groups(join_bucket,
                                                    batch_format="pandas")


def skew_hash_join(left: "ray.data.Dataset", right: "ray.data.Dataset",
                   left_key: str, right_key: str,
                   num_buckets: int | None = None,
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
         table; documented partitioning assumption) broadcast once via
         ``ray.put`` and hot left rows merge against them inside
         ``map_batches`` — no shuffle, no straggler;
      3. everything else takes the normal bucketed hash join;
      4. union of the two streams (identical column order/dtypes).

    Same output contract as ``bucket_hash_join(how='inner')``:
    left columns + right columns minus the right key.
    """
    import ray

    from ray.data.aggregate import Count

    rs_schema = right.schema().base_schema
    ls_schema = left.schema().base_schema
    lcols = list(ls_schema.names)
    rvals = [n for n in rs_schema.names if n != right_key]
    out_order = lcols + rvals

    sample = (left.select_columns([left_key])
              .random_sample(sample_frac, seed=seed))
    top = (sample.groupby(left_key).aggregate(Count(alias_name="__c"))
           .sort("__c", descending=True).limit(max_hot_keys).take_all())
    hot = np.array(sorted(r[left_key] for r in top
                          if r["__c"] >= hot_min_samples), dtype=np.int64)

    if hot.size == 0:
        return bucket_hash_join(left, right, left_key, right_key,
                                num_buckets=num_buckets, how="inner")

    def keep(batch: pa.Table, key: str, invert: bool) -> pa.Table:
        k = batch.column(key).to_numpy(zero_copy_only=False).astype(np.int64)
        m = np.isin(k, hot)
        return batch.filter(pa.array(~m if invert else m))

    # small by the dim-table assumption: |hot keys| x rows-per-key
    right_hot = (right.map_batches(lambda b: keep(b, right_key, False),
                                   batch_format="pyarrow").to_pandas())
    ref = ray.put(right_hot)

    class HotMerge:
        def __init__(self, ref):
            self.rdf = ray.get(ref)

        def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
            merged = batch.merge(self.rdf, left_on=left_key,
                                 right_on=right_key, how="inner")
            if right_key != left_key and right_key in merged.columns:
                merged = merged.drop(columns=[right_key])
            return merged.reindex(columns=out_order)

    left_hot = left.map_batches(lambda b: keep(b, left_key, False),
                                batch_format="pyarrow")
    hot_joined = left_hot.map_batches(
        HotMerge, fn_constructor_kwargs={"ref": ref},
        batch_format="pandas", concurrency=(1, 4))

    left_cold = left.map_batches(lambda b: keep(b, left_key, True),
                                 batch_format="pyarrow")
    right_cold = right.map_batches(lambda b: keep(b, right_key, True),
                                   batch_format="pyarrow")
    cold_joined = bucket_hash_join(left_cold, right_cold,
                                   left_key, right_key,
                                   num_buckets=num_buckets, how="inner")
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
                    n_bits: int = 1 << 20,
                    num_buckets: int | None = None) -> "ray.data.Dataset":
    """Bloom-pre-filtered inner hash join (the classic bloom join).

    The build side's keys fold into per-block Bloom bitmaps (one
    ``n_bits/8``-byte partial per block, OR-merged on the driver — at
    1 MiB for 10^6-key filters this is a metadata-sized reduce), the
    bitmap broadcasts once via ``ray.put``, and the probe side drops
    non-matching rows BEFORE the shuffle — the standard way to keep a
    selective join from moving the whole big side through the
    exchange. False positives only let extra rows into the exact
    ``bucket_hash_join``, so the OUTPUT is byte-identical to the plain
    join (fully oracle-able); false negatives are impossible.
    """
    import ray

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

    class Prefilter:
        def __init__(self):
            self.bf = ray.get(ref)

        def __call__(self, batch: pa.Table) -> pa.Table:
            k = batch.column(left_key).to_numpy(
                zero_copy_only=False).astype(np.int64)
            return batch.filter(pa.array(self.bf.might_contain(k)))

    slim = left.map_batches(Prefilter, batch_format="pyarrow",
                            batch_size=8192, concurrency=(1, 4))
    return bucket_hash_join(slim, right, left_key, right_key,
                            num_buckets=num_buckets, how="inner")


def bucket_anti_join(left: "ray.data.Dataset", right: "ray.data.Dataset",
                     left_key: str, right_key: str,
                     num_buckets: int | None = None) -> "ray.data.Dataset":
    """ANTI join: every left row (full payload) whose key has NO match
    in ``right[right_key]`` — the distributed dual of the broadcast
    np.isin filter, for when the right side is NOT small (a near-dup
    drop set at CC scale runs 20-40% of the corpus and cannot live on
    the driver).

    ONE shuffle: the left payload moves once; the right side ships only
    its key column, per-batch-deduped before the exchange (the combiner
    that bounds hot-key traffic at O(batches)). Per-bucket work is one
    vectorized pandas isin — O(num_buckets) Python calls total.
    """
    if num_buckets is None:
        num_buckets = default_num_buckets(32)
    ls = left.schema().base_schema
    lcols = list(ls.names)
    ltypes = dict(_fields(ls))
    out_fields = _fields(ls)

    def rdistinct(batch: pa.Table) -> pa.Table:
        return batch.group_by([right_key]).aggregate([])

    rkeys = right.select_columns([right_key]).map_batches(
        rdistinct, batch_format="pyarrow", zero_copy_batch=True)
    rs = pa.schema([(right_key, ltypes.get(left_key, pa.int64()))])
    rtypes = dict(_fields(rs))
    lt = _prep_side(left, left_key, 0, num_buckets, ls, rs)
    rt = _prep_side(rkeys, right_key, 1, num_buckets, rs, ls)

    def anti_bucket(g: pd.DataFrame) -> pd.DataFrame:
        lg, rg = _split_sides(g, lcols, [right_key], ltypes, rtypes)
        if lg.empty:
            return _typed_empty(out_fields)
        out = lg[~lg[left_key].isin(rg[right_key])]
        return out if len(out) else _typed_empty(out_fields)

    return lt.union(rt).groupby(_BUCKET).map_groups(anti_bucket,
                                                    batch_format="pandas")
