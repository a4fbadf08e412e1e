"""Deterministic, engine-portable sampling.

``ds.random_sample(frac, seed=...)`` is deterministic for a fixed
engine + partitioning, but no other engine can reproduce the same row
set — so a 100 TB pipeline that samples before an expensive stage
(quality-score calibration, dedup-threshold tuning, eval-set carving)
can't be cross-checked or resumed on different infrastructure. The
reference has no sampling story at all (it processes every file,
folder_processor.py:60-96); at corpus scale you need one.

``md5_hash_sample`` keeps a row iff the first 8 hex chars of
``md5(str(key))`` sort below a threshold derived from the fraction.
Properties:

- engine-portable: DuckDB ``substr(md5(CAST(k AS VARCHAR)), 1, 8) <
  'xxxxxxxx'`` (and the Spark/pandas equivalents) select the SAME rows
  — the sample is oracle-checkable, which seeded RNG samples are not;
- stable under repartitioning / retries / cluster size — membership
  depends only on the key value;
- consistent across tables: sampling two tables by the same join key
  keeps referential integrity (the classic hash-sample property);
- embarrassingly parallel: a pure per-batch filter, no shuffle, no
  state, composes with read-side column pruning.

Cost note: md5 over short keys is ~1 µs/row of per-row Python — fine
for a sampling stage (it prunes 1-frac of everything downstream), but
this is deliberately NOT the engine's internal bucket hash
(stages/hashing.py stays numpy-vectorized); use this only where
cross-engine reproducibility is the point.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

_HEX_SPACE = 16 ** 8


def fraction_threshold(fraction: float) -> str:
    """Lowercase 8-hex-char threshold such that P[md5_prefix < t] ==
    round(fraction * 16^8) / 16^8 (exact to ~2.3e-10)."""
    if not 0.0 <= fraction <= 1.0:
        raise ValueError("fraction must be in [0, 1]")
    return format(min(int(round(fraction * _HEX_SPACE)), _HEX_SPACE - 1),
                  "08x")


def md5_head(col: "pa.Array | pa.ChunkedArray", nbytes: int = 4
             ) -> np.ndarray:
    """The leading ``nbytes`` (4 or 8) bytes of md5(str(value)) per row
    as uint64 — the digest's first ``2 * nbytes`` hex chars read as a
    number, so comparing them to a threshold orders rows exactly as
    comparing the lowercase hex prefixes does (a null hashes as the
    string 'None'; callers that must drop nulls mask them)."""
    heads = b"".join(hashlib.md5(str(v).encode("utf-8")).digest()[:nbytes]
                     for v in col.to_pylist())
    return np.frombuffer(heads, f">u{nbytes}").astype(np.uint64)


def md5_hash_sample(ds: "ray.data.Dataset", key_col: str,
                    fraction: float) -> "ray.data.Dataset":
    """Keep rows whose md5(str(key)) 8-hex prefix < threshold(fraction).

    Matches DuckDB ``substr(md5(CAST(key AS VARCHAR)), 1, 8) <
    '<threshold>'`` row-for-row (Python ``str(int)`` == DuckDB BIGINT
    -> VARCHAR; both md5 hex digests are lowercase).
    """
    thresh = int(fraction_threshold(fraction), 16)

    def keep(batch: pa.Table) -> pa.Table:
        col = batch.column(key_col)
        return batch.filter(pa.array((md5_head(col) < thresh)
                                     & pc.is_valid(col).to_numpy()))

    return ds.map_batches(keep, batch_format="pyarrow",
                          zero_copy_batch=True)


def floor_threshold(fraction: float) -> str:
    """Lowercase 8-hex threshold with FLOOR semantics: keep iff
    md5_prefix < floor(fraction * 16^8).

    Unlike ``fraction_threshold`` (round-half), floor is bit-identical
    between numpy/python and SQL doubles — ``round()`` is banker's in
    Python and half-away in DuckDB, so a computed (not hand-chosen)
    fraction landing on .5 would silently shift the threshold by one in
    exactly one engine. Stratified/mixture rates are computed from
    counts, so they take the floor convention.
    """
    if not 0.0 <= fraction <= 1.0:
        raise ValueError("fraction must be in [0, 1]")
    return format(min(int(np.floor(fraction * _HEX_SPACE)),
                      _HEX_SPACE - 1), "08x")


def stratified_hash_sample(ds: "ray.data.Dataset", key_col: str,
                           strata_col: str,
                           rates: dict) -> "ray.data.Dataset":
    """Per-stratum deterministic hash sampling: keep a row iff
    md5(str(key)) 8-hex prefix < floor_threshold(rates[stratum]).

    The training-data mixture primitive: up/down-weight domains,
    languages or quality tiers to a target composition without an RNG —
    membership depends only on (key, stratum rate), so the sample is
    stable under repartitioning, resumable, referentially consistent
    across tables sharing the key, and reproducible in SQL (DuckDB
    ``md5(CAST(k AS VARCHAR)) < CASE stratum WHEN ... THEN
    '<lower(lpad(to_hex(floor(rate*4294967296)),8,'0'))>' ...``).

    Strata missing from ``rates`` are dropped (rate 0); rate >= 1.0
    keeps the whole stratum. Pure per-batch filter — no shuffle; the
    rates dict is bounded (|strata| entries) and ships in the task
    closure once.
    """
    thresholds = {s: (_HEX_SPACE if r >= 1.0
                      else int(floor_threshold(r), 16))
                  for s, r in rates.items()}
    # 16^8 is above every 8-hex prefix: rate >= 1 keeps the stratum

    def keep(batch: pa.Table) -> pa.Table:
        col = batch.column(key_col)
        strata = batch.column(strata_col).to_pylist()
        th = np.array([thresholds.get(s, 0) for s in strata],
                      dtype=np.uint64)
        # 0 never admits anything (no prefix < 0)
        return batch.filter(pa.array((md5_head(col) < th)
                                     & pc.is_valid(col).to_numpy()))

    return ds.map_batches(keep, batch_format="pyarrow",
                          zero_copy_batch=True)


def uniform_mixture_rates(counts: dict) -> dict:
    """Rates that resample strata toward a UNIFORM target composition:
    rate_s = min(1, (total/|strata|) / count_s) — downsample
    over-represented strata to the mean stratum size, keep the rest.

    ``counts`` comes from a small groupby().count() (metadata-sized);
    the division order is pinned (total/|strata| first, then /count) so
    SQL doubles reproduce it bit-for-bit.
    """
    if not counts:
        return {}
    total = float(sum(counts.values()))
    target = total / len(counts)
    return {s: min(1.0, target / c) for s, c in counts.items() if c}


def weighted_hash_topk(ds: "ray.data.Dataset", key_col: str,
                       weight_col: str, k: int,
                       score_col: str = "score"
                       ) -> "ray.data.Dataset":
    """Weighted sample WITHOUT replacement of size k — the A-ES
    (Efraimidis–Spirakis) order-sampling scheme with the RNG replaced
    by the engine-portable md5 uniform: u = (md5_int(key)+0.5)/16^8,
    score = u^(1/w), keep the k largest scores. Inclusion probability
    is proportional to weight (in the order-sampling sense); rows with
    weight <= 0 or null key never qualify.

    Same portability contract as ``md5_hash_sample``: DuckDB selects
    the identical row set via POW/md5 SQL, so the sample is
    oracle-checkable and stable under repartitioning, retries and
    cluster resize. Scale shape: per-batch vectorized scoring + LOCAL
    top-k prune (argpartition), so the global sort sees k rows per
    batch, never the corpus."""
    def score_batch(batch: pa.Table) -> pa.Table:
        w = batch.column(weight_col).to_numpy(zero_copy_only=False)
        col = batch.column(key_col)
        h = md5_head(col).astype(np.int64)
        ok = pc.is_valid(col).to_numpy() & np.isfinite(w) & (w > 0)
        u = (h + 0.5) / float(_HEX_SPACE)
        with np.errstate(invalid="ignore", divide="ignore"):
            s = np.where(ok, np.power(u, 1.0 / np.where(ok, w, 1.0)),
                         -1.0)
        t = batch.append_column(score_col, pa.array(s, pa.float64()))
        t = t.filter(pa.array(ok))
        if t.num_rows > k:
            sv = t.column(score_col).to_numpy()
            top = np.argpartition(sv, len(sv) - k)[len(sv) - k:]
            t = t.take(pa.array(np.sort(top)))
        return t

    return (ds.map_batches(score_batch, batch_format="pyarrow",
                           zero_copy_batch=True)
            .sort([score_col, key_col], descending=[True, False])
            .limit(k))


def mixture_quota_sample(ds: "ray.data.Dataset", part_col: str,
                         quotas: dict, key_col: str = "doc_id",
                         token_col: str = "n_tok",
                         out_col: str = "running_tok",
                         num_ranges: int | None = None
                         ) -> "ray.data.Dataset":
    """Token-budget mixture selection: within each partition (source /
    language / quality tier), keep documents in md5(str(key)) hex order
    until the partition's token quota fills — a document stays iff the
    running token total INCLUDING it is <= ``quotas[part]`` (the budget
    is never exceeded; partitions absent from ``quotas`` are dropped).
    This is the assemble-a-training-mix-at-fixed-token-budget
    primitive: deterministic, repartition/resume-stable, and
    engine-portable — the selected row set equals SQL

        SUM(n_tok) OVER (PARTITION BY p
                         ORDER BY substr(md5(CAST(k AS VARCHAR)), 1, 16),
                                  k
                         ROWS UNBOUNDED PRECEDING) <= quota(p)

    (64-bit hash-prefix ties are broken by key on both sides; a full
    16-hex collision between distinct keys is the only divergence case
    and needs ~2^32 docs per partition to appear).

    Scale shape: per-batch hashing, ONE bucketed exchange over the
    uniform md5 range (``packing.grouped_prefix_sum``), an
    O(ranges × |parts|) driver offset table, then a stateless quota
    filter. The corpus text never moves — project to (key, part,
    n_tok) before calling and join survivors back by key if payloads
    are needed.
    """
    from .joins import broadcast_join
    from .packing import grouped_prefix_sum

    def add_h(batch: pa.Table) -> pa.Table:
        h = md5_head(batch.column(key_col), 8)
        # order-preserving uint64 -> int64 bijection (raw uint64 >= 2^63
        # degrades to a pickled-object column in Ray reduces)
        h64 = (h ^ np.uint64(1 << 63)).view(np.int64)
        return batch.append_column("_h64", pa.array(h64, pa.int64()))

    run = grouped_prefix_sum(
        ds.map_batches(add_h, batch_format="pyarrow",
                       zero_copy_batch=True),
        part_col, "_h64", token_col, out_col=out_col,
        tie_col=key_col, num_ranges=num_ranges)

    def keep(batch: pa.Table) -> pa.Table:
        # a partition without a quota has quota 0
        q = pc.fill_null(batch.column("__quota"), 0.0)
        return batch.filter(pc.less_equal(batch.column(out_col), q)) \
            .drop_columns(["_h64", "__quota"])

    table = pa.table({part_col: pa.array(list(quotas)),
                      "__quota": pa.array(list(quotas.values()),
                                          pa.float64())})
    return broadcast_join(run, table, part_col, how="left").map_batches(
        keep, batch_format="pyarrow", zero_copy_batch=True)


def deterministic_shuffle(ds: "ray.data.Dataset", key_col: str,
                          seed: int = 42, num_shards: int = 16,
                          shard_col: str = "shard",
                          pos_col: str = "pos"
                          ) -> "ray.data.Dataset":
    """Deterministic global training-order shuffle: every row gets a
    (shard, pos-within-shard) coordinate derived only from
    md5(str(key) + ':' + str(seed)) — the order a training loader
    consumes (shards round-robin, positions sequentially).

    Why not ``ds.random_shuffle(seed=...)``: that order depends on the
    engine's partitioning and cannot be reproduced elsewhere; this one
    is the same on any engine (DuckDB: ``ROW_NUMBER() OVER (PARTITION
    BY substr(md5(k||':'||seed), 1, SH) ORDER BY md5(k||':'||seed),
    k) - 1``), stable under repartitioning/retries, and resumable
    mid-epoch (a loader restarts at (shard, pos) with no RNG state).

    Scale shape: shard = first hex chars of the md5 (uniform by
    construction — no salting needed), so the ONE shuffle is a
    bucketed groupby on ``num_shards`` uniform keys; the within-shard
    sort is per-group and vectorized. num_shards must be a power of 16
    here (1 or 2 hex chars) to keep the SQL oracle a substring; 16 or
    256 in practice — at 100 TB use 256 shards of ~400 GB consumed
    round-robin, or shard first by this and sub-shard with a second
    seed.
    """
    if num_shards == 16:
        width = 1
    elif num_shards == 256:
        width = 2
    else:
        raise ValueError("num_shards must be 16 or 256 (hex-substring "
                         "sharding keeps the SQL oracle portable)")

    def add_key(batch: pa.Table) -> pa.Table:
        import hashlib as _h
        digests = np.array([
            _h.md5((str(v) + ":" + str(seed)).encode()).hexdigest()
            if v is not None else None
            for v in batch.column(key_col).to_pylist()], dtype=object)
        batch = batch.append_column("_md5", pa.array(digests, pa.string()))
        return batch.append_column(
            shard_col, pa.array([d[:width] if d is not None else None
                                 for d in digests], pa.string()))

    def order_group(g):
        g = g.sort_values(["_md5", key_col], kind="mergesort")
        g[pos_col] = np.arange(len(g), dtype=np.int64)
        return g.drop(columns=["_md5"])

    return (ds.map_batches(add_key, batch_format="pyarrow",
                           zero_copy_batch=True)
            .groupby(shard_col)
            .map_groups(order_group, batch_format="pandas"))
