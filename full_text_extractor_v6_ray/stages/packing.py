"""Sequence-packing primitives for LLM training-data preparation.

``ordered_prefix_sum``: distributed running sum over a global order —
the classic two-phase parallel scan. Rows are partitioned into
ORDER-CONTIGUOUS ranges of the (integer) order key; phase 1 ships one
(range, Σv) partial per (batch, range) through a metadata-sized
aggregate whose cumulative offsets are computed on the driver
(O(num_ranges) rows — bounded and chosen, never data-scale); phase 2
is ONE bucketed shuffle on the range id, inside which each range sorts
locally and adds its broadcast offset. No global sort, no driver-side
data pass.

``chunk_assignment``: GPT-style concat-and-chunk packing — documents
are concatenated in ``order_col`` order into one virtual token stream
that is cut into fixed ``ctx``-token context windows; each document
learns its global token offset, its first window id, and how many
windows it spans. This is the deterministic packing used by most LM
pretraining data loaders (contrast first-fit bin packing, which is
order-dependent and not SQL-expressible; this one oracles exactly via
``SUM(...) OVER (ORDER BY ...)``).

Partitioning assumption (documented per the briefing): the order key is
integer and roughly uniform over its [min, max] span, so fixed-width
ranges balance; raise ``num_ranges`` to dilute skewed id spaces. A
single range's rows must fit in one task — num_ranges scales with the
cluster (default ``exchange.bucket_count()``).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from . import exchange

_RANGE = "__psrange"
# part of every first_fit_pack bin id, so fixed, never cluster-scaled
_PACK_PARTITIONS = 32


def ordered_prefix_sum(ds: "ray.data.Dataset", order_col: str,
                       value_col: str, out_col: str = "running",
                       exclusive: bool = False,
                       num_ranges: int | None = None
                       ) -> "ray.data.Dataset":
    """Running sum of ``value_col`` in global ``order_col`` order:
    SQL ``SUM(v) OVER (ORDER BY k ROWS UNBOUNDED PRECEDING)`` (or
    ``... AND 1 PRECEDING`` when ``exclusive=True``, with 0 for the
    first row instead of NULL).

    ``order_col`` must be unique (it defines the order) and integral.
    Three narrow passes over (order, value): min/max bounds, range
    partials, and the decorated output — project before calling so
    only those two columns scan.
    """
    import ray as _ray
    from ray.data.aggregate import Max, Min

    if num_ranges is None:
        num_ranges = exchange.bucket_count()

    bounds = ds.aggregate(Min(order_col, alias_name="lo"),
                          Max(order_col, alias_name="hi"))
    lo, hi = bounds["lo"], bounds["hi"]
    if lo is None:  # empty input
        return ds.map_batches(
            lambda b: b.append_column(out_col,
                                      pa.array([], pa.float64())),
            batch_format="pyarrow", zero_copy_batch=True)
    width = max(1, -(-(int(hi) - int(lo) + 1) // num_ranges))

    def rng_of(col: pa.ChunkedArray) -> pa.Array:
        k = col.to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.array((k - int(lo)) // width, pa.int64())

    def range_partial(batch: pa.Table) -> pa.Table:
        t = pa.table({
            _RANGE: rng_of(batch.column(order_col)),
            "_v": pc.cast(batch.column(value_col), pa.float64()),
        })
        g = t.group_by(_RANGE).aggregate([("_v", "sum")])
        return g.rename_columns([_RANGE, "_v"])

    from ray.data.aggregate import Sum

    # O(num_ranges) rows — a chosen constant, never data-scale
    totals = (ds.map_batches(range_partial, batch_format="pyarrow",
                             zero_copy_batch=True)
              .groupby(_RANGE).aggregate(Sum("_v", alias_name="_v"))
              .to_pandas().sort_values(_RANGE))
    offsets = np.zeros(num_ranges + 1, dtype=np.float64)
    np.add.at(offsets, totals[_RANGE].to_numpy() + 1,
              totals["_v"].to_numpy())
    offsets = np.cumsum(offsets)
    off_ref = _ray.put(offsets)

    def add_range(batch: pa.Table) -> pa.Table:
        return batch.append_column(_RANGE,
                                   rng_of(batch.column(order_col)))

    def decorate(g: pd.DataFrame) -> pd.DataFrame:
        off = _ray.get(off_ref)
        g = g.sort_values(order_col, kind="mergesort")
        v = g[value_col].to_numpy(dtype=np.float64)
        run = np.cumsum(v) + off[int(g[_RANGE].iloc[0])]
        if exclusive:
            run = run - v
        return g.drop(columns=[_RANGE]).assign(**{out_col: run})

    return (ds.map_batches(add_range, batch_format="pyarrow",
                           zero_copy_batch=True)
            .groupby(_RANGE)
            .map_groups(decorate, batch_format="pandas"))


def grouped_prefix_sum(ds: "ray.data.Dataset", part_col: str,
                       order_col: str, value_col: str,
                       out_col: str = "running",
                       num_ranges: int | None = None,
                       tie_col: str | None = None
                       ) -> "ray.data.Dataset":
    """Per-partition running sum in global ``order_col`` order: SQL
    ``SUM(v) OVER (PARTITION BY p ORDER BY k[, tie] ROWS UNBOUNDED
    PRECEDING)`` — the same two-phase scan as ``ordered_prefix_sum``
    with per-(range, partition) offsets.

    ``part_col`` must be dimension-like (languages, sources, tiers):
    the driver-side offset table is O(num_ranges × |parts|) rows.
    ``order_col`` must be numeric with (order, tie) unique within a
    partition; range bucketing runs in float64 (bucketing only needs
    monotonicity — the in-range sort uses exact values), so the full
    int64 span is safe.
    """
    import ray as _ray
    from ray.data.aggregate import Max, Min, Sum

    if num_ranges is None:
        num_ranges = exchange.bucket_count()

    bounds = ds.aggregate(Min(order_col, alias_name="lo"),
                          Max(order_col, alias_name="hi"))
    lo, hi = bounds["lo"], bounds["hi"]
    if lo is None:  # empty input
        return ds.map_batches(
            lambda b: b.append_column(out_col,
                                      pa.array([], pa.float64())),
            batch_format="pyarrow", zero_copy_batch=True)
    lo_f = float(lo)
    width_f = max((float(hi) - lo_f) / num_ranges, 1e-12)

    def rng_of(col: pa.ChunkedArray) -> pa.Array:
        k = col.to_numpy(zero_copy_only=False).astype(np.float64)
        r = ((k - lo_f) / width_f).astype(np.int64)
        return pa.array(np.clip(r, 0, num_ranges - 1), pa.int64())

    def range_partial(batch: pa.Table) -> pa.Table:
        t = pa.table({
            _RANGE: rng_of(batch.column(order_col)),
            "_p": pc.cast(batch.column(part_col), pa.string()),
            "_v": pc.cast(batch.column(value_col), pa.float64()),
        })
        g = t.group_by([_RANGE, "_p"]).aggregate([("_v", "sum")])
        return g.rename_columns([_RANGE, "_p", "_v"])

    # O(num_ranges × |parts|) rows — bounded by construction
    totals = (ds.map_batches(range_partial, batch_format="pyarrow",
                             zero_copy_batch=True)
              .groupby([_RANGE, "_p"]).aggregate(Sum("_v", alias_name="_v"))
              .to_pandas().sort_values(["_p", _RANGE]))
    offmap: dict = {}
    for p, gdf in totals.groupby("_p", sort=False):
        v = gdf["_v"].to_numpy(dtype=np.float64)
        excl = np.cumsum(v) - v
        for r, o in zip(gdf[_RANGE].to_numpy(), excl):
            offmap[(p, int(r))] = float(o)
    off_ref = _ray.put(offmap)

    def add_range(batch: pa.Table) -> pa.Table:
        return batch.append_column(_RANGE,
                                   rng_of(batch.column(order_col)))

    sort_cols = [part_col, order_col] + ([tie_col] if tie_col else [])

    def decorate(g: pd.DataFrame) -> pd.DataFrame:
        off = _ray.get(off_ref)
        g = g.sort_values(sort_cols, kind="mergesort")
        rng = int(g[_RANGE].iloc[0])
        run = (g.groupby(part_col, sort=False)[value_col]
               .cumsum().to_numpy(dtype=np.float64))
        # dict-map via pd.Series.map (vectorized lookup, no row loop)
        off_p = {p: o for (p, r), o in off.items() if r == rng}
        base = (g[part_col].astype(str).map(off_p)
                .fillna(0.0).to_numpy(dtype=np.float64))
        return g.drop(columns=[_RANGE]).assign(**{out_col: run + base})

    return (ds.map_batches(add_range, batch_format="pyarrow",
                           zero_copy_batch=True)
            .groupby(_RANGE)
            .map_groups(decorate, batch_format="pandas"))


def chunk_assignment(docs: "ray.data.Dataset", id_col: str = "doc_id",
                     text_col: str = "text", ctx: int = 2048,
                     num_ranges: int | None = None
                     ) -> "ray.data.Dataset":
    """Concat-and-chunk context-window assignment: documents are laid
    end-to-end in ``id_col`` order as one token stream; window ``i``
    covers tokens [i·ctx, (i+1)·ctx). Output per doc: token count,
    exclusive global ``start_tok``, first window ``chunk_id``, and
    ``n_chunks`` windows spanned (0 for empty docs).

    Tokens are non-whitespace runs (``\\S+``), counted vectorized by
    ``pc.count_substring_regex`` — the raw text never leaves the map
    stage; the prefix sum runs over the docs-scale (id, n_tok) table.
    """

    def count_tokens(batch: pa.Table) -> pa.Table:
        n = pc.count_substring_regex(
            pc.cast(batch.column(text_col), pa.string()), pattern=r"\S+")
        return pa.table({
            id_col: batch.column(id_col),
            "n_tok": pc.cast(n, pa.int64()),
        })

    counts = docs.select_columns([id_col, text_col]).map_batches(
        count_tokens, batch_format="pyarrow", zero_copy_batch=True)
    started = ordered_prefix_sum(counts, id_col, "n_tok",
                                 out_col="_start", exclusive=True,
                                 num_ranges=num_ranges)

    def finish(batch: pa.Table) -> pa.Table:
        start = batch.column("_start").to_numpy(
            zero_copy_only=False).astype(np.int64)
        n = batch.column("n_tok").to_numpy(zero_copy_only=False)
        first = start // ctx
        last = np.where(n > 0, (start + n - 1) // ctx, first)
        n_chunks = np.where(n > 0, last - first + 1, 0)
        return pa.table({
            id_col: batch.column(id_col),
            "n_tok": batch.column("n_tok"),
            "start_tok": pa.array(start, pa.int64()),
            "chunk_id": pa.array(first, pa.int64()),
            "n_chunks": pa.array(n_chunks.astype(np.int64), pa.int64()),
        })

    return started.map_batches(finish, batch_format="pyarrow",
                               zero_copy_batch=True)


def chunk_slices(docs: "ray.data.Dataset", id_col: str = "doc_id",
                 text_col: str = "text", ctx: int = 2048,
                 num_ranges: int | None = None) -> "ray.data.Dataset":
    """The packer output a training data-loader actually consumes: one
    row per (context window, document slice) — which token range of
    which document fills which part of window ``chunk_id``. Empty docs
    contribute nothing. Columns: chunk_id, doc_id, ``doc_from``/
    ``doc_to`` (token range within the doc, half-open) and
    ``off_in_chunk``/``end_in_chunk`` (position within the window).

    Built by exploding ``chunk_assignment`` rows over their spanned
    windows — vectorized repeat/arange, one output row per (doc,
    window) incidence; a doc appears in ceil-ish (n_tok/ctx)+1 windows,
    so the explode is O(total_tokens/ctx) rows, far below token
    scale."""

    assigned = chunk_assignment(docs, id_col, text_col, ctx=ctx,
                                num_ranges=num_ranges)

    def explode(batch: pa.Table) -> pa.Table:
        start = batch.column("start_tok").to_numpy(zero_copy_only=False)
        n = batch.column("n_tok").to_numpy(zero_copy_only=False)
        first = batch.column("chunk_id").to_numpy(zero_copy_only=False)
        reps = batch.column("n_chunks").to_numpy(zero_copy_only=False)
        parents = np.repeat(np.arange(batch.num_rows), reps)
        total = int(reps.sum())
        if total == 0:
            return pa.table({
                "chunk_id": pa.array([], pa.int64()),
                id_col: pa.array([], pa.int64()),
                "doc_from": pa.array([], pa.int64()),
                "doc_to": pa.array([], pa.int64()),
                "off_in_chunk": pa.array([], pa.int64()),
                "end_in_chunk": pa.array([], pa.int64()),
            })
        run_starts = np.concatenate(([0], np.cumsum(reps)[:-1]))
        j = np.arange(total) - run_starts[parents]
        chunk = first[parents] + j
        lo = np.maximum(start[parents], chunk * ctx)
        hi = np.minimum(start[parents] + n[parents], (chunk + 1) * ctx)
        ids = batch.column(id_col).to_numpy(zero_copy_only=False)
        return pa.table({
            "chunk_id": pa.array(chunk.astype(np.int64)),
            id_col: pa.array(ids[parents].astype(np.int64)),
            "doc_from": pa.array((lo - start[parents]).astype(np.int64)),
            "doc_to": pa.array((hi - start[parents]).astype(np.int64)),
            "off_in_chunk": pa.array((lo - chunk * ctx).astype(np.int64)),
            "end_in_chunk": pa.array((hi - chunk * ctx).astype(np.int64)),
        })

    return assigned.map_batches(explode, batch_format="pyarrow",
                                zero_copy_batch=True)


def first_fit_pack(docs: "ray.data.Dataset", id_col: str = "doc_id",
                   text_col: str = "text", ctx: int = 2048
                   ) -> "ray.data.Dataset":
    """First-fit-decreasing bin packing of whole documents into
    ``ctx``-token bins — the no-document-splitting packing flavor
    (contrast ``chunk_assignment``, which concatenates and cuts).
    Output: (doc_id, n_tok, bin_id, oversize) — ``oversize`` docs
    (n_tok > ctx) get a dedicated bin each.

    FFD is inherently sequential, so bins are scoped PER HASH
    PARTITION: each doc falls in one of ``_PACK_PARTITIONS`` (32)
    partitions by ``exchange.bucket_ids`` of its id, the keyed exchange
    co-locates each partition, each partition packs independently with
    FFD, and bin ids namespace as partition·2^40 + local_bin. The
    partition count is fixed, so the bins do not depend on the cluster
    size. Packing quality equals single-node FFD within each partition
    (≥ (11/9)OPT per partition); global bin count is at most 31 bins
    worse than packing the whole corpus in one sequence — the price of
    parallelism, documented. The per-doc Python loop is confined to
    exchange tasks (the operator is a combinatorial assignment, not a
    numeric kernel)."""

    def count_tokens(batch: pa.Table) -> pa.Table:
        n = pc.count_substring_regex(
            pc.cast(batch.column(text_col), pa.string()), pattern=r"\S+")
        t = pa.table({
            id_col: batch.column(id_col),
            "n_tok": pc.cast(n, pa.int64()),
        })
        return t.append_column("_part", exchange.bucket_ids(
            t, [id_col], _PACK_PARTITIONS))

    def pack_partition(part: int, g: pd.DataFrame) -> pd.DataFrame:
        base = part << 40
        g = g.sort_values(["n_tok", id_col], ascending=[False, True],
                          kind="mergesort")
        n = g["n_tok"].to_numpy()
        bins_rem: list[int] = []   # remaining capacity of open bins
        bin_ids: list[int] = []    # their local ids
        assign = np.empty(len(g), dtype=np.int64)
        oversize = n > ctx
        next_bin = 0
        for i, tok in enumerate(n):
            if tok > ctx:
                assign[i] = next_bin
                next_bin += 1
                continue
            for bi, rem in enumerate(bins_rem):
                if rem >= tok:
                    bins_rem[bi] = rem - tok
                    assign[i] = bin_ids[bi]
                    break
            else:
                bins_rem.append(ctx - tok)
                bin_ids.append(next_bin)
                assign[i] = next_bin
                next_bin += 1
        return pd.DataFrame({
            id_col: g[id_col].to_numpy(),
            "n_tok": n,
            "bin_id": base + assign,
            "oversize": oversize,
        })

    def pack(g: pd.DataFrame) -> pd.DataFrame:
        return pd.concat([pack_partition(int(p), pg)
                          for p, pg in g.groupby("_part", sort=True)],
                         ignore_index=True)

    return exchange.by_bucket(
        docs.select_columns([id_col, text_col])
        .map_batches(count_tokens, batch_format="pyarrow",
                     zero_copy_batch=True),
        "_part", pack, batch_format="pandas")


def packed_chunk_text(docs: "ray.data.Dataset", id_col: str = "doc_id",
                      text_col: str = "text", ctx: int = 2048,
                      num_ranges: int | None = None
                      ) -> "ray.data.Dataset":
    """Materialize the packed training chunks themselves: one row per
    context window — (chunk_id, text, n_tok) — where ``text`` is the
    window's token stream (documents laid end-to-end in id order, cut
    every ``ctx`` tokens, tokens rejoined with single spaces across
    doc boundaries). The loader contract on top of ``chunk_slices``:
    the manifest says WHICH doc slices fill which window; this stage
    fetches and concatenates them.

    Scale shape: the slices manifest (O(total_tokens/ctx) rows, no
    text) lookup-joins against the corpus — each doc's text crosses
    the exchange ONCE and is sliced to tokens [doc_from, doc_to)
    in-task; the window assembly is one groupby over slice rows whose
    payload is already cut down to exactly the tokens that survive.
    Every window except the last has exactly ``ctx`` tokens."""
    from .joins import hash_join

    slices = chunk_slices(docs, id_col, text_col, ctx=ctx,
                          num_ranges=num_ranges)
    joined = hash_join(slices, docs.select_columns([id_col, text_col]),
                       id_col, id_col)

    # RE2_TOKEN_RE, not Python re \S+: the manifest counted tokens with
    # Arrow's RE2 \S+ (ASCII whitespace), so the slicer must produce the
    # IDENTICAL token list or every boundary in a doc containing
    # \x0b/\xa0/… shifts. One tokenization per distinct doc per batch —
    # a doc spanning k windows has k adjacent slice rows here, and
    # re-running findall over the full text per row is O(n²/ctx).
    from ..functions.text_stats import RE2_TOKEN_RE

    def cut(batch: pa.Table) -> pa.Table:
        texts = batch.column(text_col).to_pylist()
        ids = batch.column(id_col).to_pylist()
        lo = batch.column("doc_from").to_numpy(zero_copy_only=False)
        hi = batch.column("doc_to").to_numpy(zero_copy_only=False)
        tok_cache: dict = {}
        out = []
        for i, t, a, b in zip(ids, texts, lo, hi):
            toks = tok_cache.get(i)
            if toks is None:
                toks = tok_cache[i] = RE2_TOKEN_RE.findall(t or "")
            out.append(" ".join(toks[int(a):int(b)]))
        return pa.table({
            "chunk_id": batch.column("chunk_id"),
            "off_in_chunk": batch.column("off_in_chunk"),
            "_slice_text": pa.array(out, pa.string()),
            "_slice_tok": pa.array((hi - lo).astype(np.int64)),
        })

    def assemble(g: pd.DataFrame) -> pd.DataFrame:
        # one vectorized pandas groupby per BUCKET (not per chunk):
        # O(buckets) python frames, O(chunks) cheap str joins
        g = g.sort_values(["chunk_id", "off_in_chunk"], kind="mergesort")
        return (g.groupby("chunk_id", sort=True)
                .agg(text=("_slice_text", " ".join),
                     n_tok=("_slice_tok", "sum"))
                .reset_index()[["chunk_id", "text", "n_tok"]])

    return exchange.by_bucket(
        joined.map_batches(cut, batch_format="pyarrow",
                           zero_copy_batch=True),
        "chunk_id", assemble, batch_format="pandas")


def iter_training_batches(chunks: "ray.data.Dataset",
                          batch_size: int = 16,
                          start_chunk: int = 0):
    """The loader contract on top of ``packed_chunk_text``: stream the
    packed windows in global ``chunk_id`` order as fixed-size
    micro-batches (pyarrow Tables), optionally RESUMING at
    ``start_chunk`` — a crashed training job restarts from its last
    consumed window id with no other state, and sees byte-identical
    remaining batches (determinism test-pinned).

    Scale shape: the resume filter prunes before the sort; the sort is
    the one exchange (range-partitioned on an int64 key — Ray's sort
    samples boundaries, so uniform chunk ids balance); consumption is
    ``iter_batches`` streaming with backpressure — the driver holds
    ``batch_size`` windows at a time, never the corpus.
    """
    ds = chunks
    if start_chunk:
        ds = ds.map_batches(
            lambda b, _s=start_chunk: b.filter(
                pc.greater_equal(b.column("chunk_id"), _s)),
            batch_format="pyarrow", zero_copy_batch=True)
    yield from ds.sort("chunk_id").iter_batches(
        batch_size=batch_size, batch_format="pyarrow")
