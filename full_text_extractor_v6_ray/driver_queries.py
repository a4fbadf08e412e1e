"""Driver-facing query registry: Ray pipelines + their DuckDB oracles.

Each entry in ``QUERIES`` is ``name -> callable(sf_dir) -> Dataset/Table/DF``;
``ORACLES[name]`` is the ANSI-SQL equivalent DuckDB runs over the same
parquet tables (views: region nation customer supplier part orders lineitem
events documents embeddings). Computed-column names match the SQL aliases
exactly (driver hash-compares after sorting columns by name).

Queries without an oracle (extraction, MinHash, language ID, ...) are
genuinely non-SQL-expressible; the driver records a rows-only check and the
pytest golden fixtures carry their correctness instead.
"""

from __future__ import annotations

import hashlib
import os

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

import ray.data

from .driver_queries_tpch import _read, _round_cols
from .functions.text_stats import token_count_arrays
from .pipelines import extraction_pipeline, pages_dataset_from_documents, extract_pages




# ---------------------------------------------------------------------------
# Extraction pipelines (non-SQL-expressible; golden-fixture tested instead)
# ---------------------------------------------------------------------------

def q_extract(sf_dir: str):
    """Full extraction, no dedup: one row per crawled page."""
    ds = extraction_pipeline(sf_dir, dedup=False)
    return ds.select_columns(["url", "warc_ts", "lang", "extracted_text",
                              "method", "error", "n_blocks_kept",
                              "n_blocks_dropped", "n_links", "n_chars",
                              "n_words", "quality_score"])


def q_extract_dedup(sf_dir: str):
    """Extraction + keep-latest-crawl-per-url dedup (D2, the north-rule shuffle)."""
    ds = extraction_pipeline(sf_dir, dedup=True)
    return ds.select_columns(["url", "warc_ts", "extracted_text", "method",
                              "n_chars", "n_words"])


def q_links_flat(sf_dir: str):
    """Hyperlink side-output: one row per extracted link (M21/M23 analog).
    Arrow-native explode (list_parent_indices + flatten, no Python loop)."""
    from .stages.links import explode_links_column

    pages = pages_dataset_from_documents(sf_dir)
    return explode_links_column(extract_pages(pages))


def q_extract_quality_by_lang(sf_dir: str):
    """Aggregate extraction metrics per language (metrics/lineage analog)."""
    from ray.data.aggregate import Count, Mean, Sum

    ds = extraction_pipeline(sf_dir, dedup=False)
    out = ds.groupby("lang").aggregate(
        Count(alias_name="n_pages"),
        Sum("n_chars", alias_name="total_chars"),
        Mean("quality_score", alias_name="avg_quality"),
    )
    return out


# ---------------------------------------------------------------------------
# SQL-expressible operators over the driver tables (DuckDB oracles below)
# ---------------------------------------------------------------------------

def q_docs_token_stats(sf_dir: str):
    """Per-document whitespace token count + char count (M25 word count)."""
    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])

    def stats(batch: pa.Table) -> pa.Table:
        return pa.table({
            "doc_id": batch["doc_id"],
            "n_tokens": pc.cast(token_count_arrays(batch["text"]), pa.int64()),
            "n_chars": pc.cast(pc.utf8_length(batch["text"]), pa.int64()),
        })

    return ds.map_batches(stats, batch_format="pyarrow", zero_copy_batch=True)


def q_docs_lang_stats(sf_dir: str):
    """Group-by-language counts + average length (G2/G5 analog)."""
    from ray.data.aggregate import Count, Mean

    ds = _read(sf_dir, "documents", columns=["lang", "n_chars"])
    return ds.groupby("lang").aggregate(
        Count(alias_name="n_docs"),
        Mean("n_chars", alias_name="avg_chars"),
    )


def q_docs_exact_dedup(sf_dir: str):
    """Exact dedup by content hash: canonical doc per distinct text.

    Scale path: md5 computed per batch (C-speed hashing), groupby on the
    32-char hash — the shuffle moves hashes + ids, never the text bodies.
    """
    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])

    def add_hash(batch: pa.Table) -> pa.Table:
        # md5 is pinned by the oracle (DuckDB md5(text)); hash the utf-8
        # bytes straight off the Arrow buffers via memoryview slices —
        # no per-row str materialization/encode (hashlib itself is C).
        col = batch["text"].combine_chunks().cast(pa.large_binary())
        offs = np.frombuffer(col.buffers()[1], dtype=np.int64,
                             count=len(col) + 1, offset=col.offset * 8)
        data = memoryview(col.buffers()[2])
        hashes = [hashlib.md5(data[offs[i]:offs[i + 1]]).hexdigest()
                  for i in range(len(col))]
        return pa.table({"doc_id": batch["doc_id"],
                         "text_hash": pa.array(hashes, pa.string())})

    from ray.data.aggregate import Count, Min

    hashed = ds.map_batches(add_hash, batch_format="pyarrow",
                            zero_copy_batch=True)
    return hashed.groupby("text_hash").aggregate(
        Min("doc_id", alias_name="doc_id"),
        Count(alias_name="n_dups"),
    )


def q_events_first_by_ts(sf_dir: str):
    """Per-user earliest event (first-by-ts dedup — D2 semantics on events)."""
    from .stages.dedup import keyed_keep_one

    ds = _read(sf_dir, "events",
               columns=["event_id", "ts", "user_id", "event_type", "value"])
    return keyed_keep_one(ds, "user_id",
                          [("ts", "ascending"), ("event_id", "ascending")])


def q_events_hourly(sf_dir: str):
    """Tumbling 1-hour window aggregate per event_type (streaming analog)."""
    from ray.data.aggregate import Count, Sum

    ds = _read(sf_dir, "events", columns=["ts", "event_type", "value"])

    def add_hour(batch: pa.Table) -> pa.Table:
        return batch.append_column("hour", pc.floor_temporal(batch["ts"],
                                                             unit="hour"))

    return (ds.map_batches(add_hour, batch_format="pyarrow",
                           zero_copy_batch=True)
            .groupby(["event_type", "hour"])
            .aggregate(Count(alias_name="n_events"),
                       Sum("value", alias_name="total_value")))


def q_top_users_by_value(sf_dir: str):
    """Top-10 users by total event value (sort + limit; deterministic ties)."""
    from ray.data.aggregate import Sum, Count

    ds = _read(sf_dir, "events", columns=["user_id", "value"])
    agg = ds.groupby("user_id").aggregate(Sum("value", alias_name="total_value"),
                                          Count(alias_name="n_events"))
    return agg.sort(["total_value", "user_id"], descending=[True, False]).limit(10)


def q_lineitem_pricing_summary(sf_dir: str):
    """TPC-H Q1-style pricing summary (partial-aggregate-friendly groupby)."""
    from ray.data.aggregate import Count, Mean, Sum

    ds = _read(sf_dir, "lineitem",
               columns=["l_returnflag", "l_linestatus", "l_quantity",
                        "l_extendedprice", "l_discount"])

    def add_revenue(batch: pa.Table) -> pa.Table:
        rev = pc.multiply(batch["l_extendedprice"],
                          pc.subtract(pa.scalar(1.0), batch["l_discount"]))
        return batch.append_column("revenue", rev)

    agg = (ds.map_batches(add_revenue, batch_format="pyarrow",
                          zero_copy_batch=True)
           .groupby(["l_returnflag", "l_linestatus"])
           .aggregate(Sum("l_quantity", alias_name="sum_qty"),
                      Sum("l_extendedprice", alias_name="sum_base_price"),
                      Sum("revenue", alias_name="sum_disc_price"),
                      Mean("l_quantity", alias_name="avg_qty"),
                      Count(alias_name="count_order")))
    # Float sums are accumulation-order sensitive across partitions; pin a
    # fixed precision (matched in the oracle) so the value hash is stable.
    return agg.map_batches(lambda b: _round_cols(
        b, ["sum_qty", "sum_base_price", "sum_disc_price", "avg_qty"], 4),
        batch_format="pyarrow")


def q_orders_by_status(sf_dir: str):
    from ray.data.aggregate import Count, Sum

    ds = _read(sf_dir, "orders", columns=["o_orderstatus", "o_totalprice"])
    agg = ds.groupby("o_orderstatus").aggregate(
        Count(alias_name="n_orders"),
        Sum("o_totalprice", alias_name="total_price"))
    return agg.map_batches(lambda b: _round_cols(b, ["total_price"], 4),
                           batch_format="pyarrow")


def _customer_nations(sf_dir: str, columns: list[str]) -> pa.Table:
    """Customer ``columns`` + ``n_name`` (null when the nation is
    missing), joined on the driver."""
    import pyarrow.parquet as pq

    cust = pq.read_table(os.path.join(sf_dir, "customer.parquet"),
                         columns=columns + ["c_nationkey"])
    nat = pq.read_table(os.path.join(sf_dir, "nation.parquet"),
                        columns=["n_nationkey", "n_name"])
    return cust.join(nat, "c_nationkey", "n_nationkey",
                     join_type="left outer").select(columns + ["n_name"])


def q_customer_nation_revenue(sf_dir: str):
    """Broadcast join: orders ⋈ customer ⋈ nation -> revenue per nation.

    customer+nation are the small side: joined on the driver, then a
    left ``broadcast_join`` decorates each orders batch — no shuffle
    join (an order without a customer or nation counts under "").
    """
    from ray.data.aggregate import Count, Sum

    from .stages.joins import broadcast_join

    orders = _read(sf_dir, "orders", columns=["o_custkey", "o_totalprice"])
    joined = broadcast_join(orders, _customer_nations(sf_dir, ["c_custkey"]),
                            "o_custkey", "c_custkey", how="left")
    joined = joined.map_batches(
        lambda b: pa.table({"n_name": pc.fill_null(b.column("n_name"), ""),
                            "o_totalprice": b.column("o_totalprice")}),
        batch_format="pyarrow", zero_copy_batch=True)
    return joined.groupby("n_name").aggregate(
        Count(alias_name="n_orders"),
        Sum("o_totalprice", alias_name="revenue"))


def q_embeddings_label_stats(sf_dir: str):
    from ray.data.aggregate import Count

    ds = _read(sf_dir, "embeddings", columns=["label"])
    return ds.groupby("label").aggregate(Count(alias_name="n_vecs"))


# ---------------------------------------------------------------------------
# training-data operators (SURVEY.md "beyond the reference" family)
# ---------------------------------------------------------------------------

def q_docs_langid(sf_dir: str):
    """Heuristic language ID (n-gram/stopword profiles) per document."""
    from .stages.text_ops import LangIdBatch

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    out = ds.map_batches(LangIdBatch(), batch_format="pyarrow", batch_size=512)
    return out.select_columns(["doc_id", "lang_pred", "lang_conf"])


def q_docs_quality(sf_dir: str):
    """Gopher/C4-style quality scoring per document."""
    from .stages.text_ops import QualityScoreBatch

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    out = ds.map_batches(QualityScoreBatch(), batch_format="pyarrow",
                         batch_size=512)
    return out.select_columns(["doc_id", "n_tokens", "mean_token_len",
                               "stop_ratio", "punct_ratio", "digit_ratio",
                               "max_repeat_ratio", "quality"])


def q_docs_repetition(sf_dir: str):
    """Gopher-style repetition signals (duplicate-token / top-token
    fraction; SQL-pinned split(' ') tokenization). The bigram signal
    is unit-tested (not SQL-oracle-able cleanly)."""
    from .stages.text_ops import RepetitionBatch

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    out = ds.map_batches(RepetitionBatch(), batch_format="pyarrow",
                         batch_size=512)
    return out.select_columns(["doc_id", "n_tok", "dup_tok_frac",
                               "top_tok_frac"])


def q_docs_fingerprint(sf_dir: str):
    """Content fingerprints: md5 (exact-dup key, SQL-oracled) per doc."""
    from .stages.text_ops import FingerprintBatch

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    out = ds.map_batches(FingerprintBatch(), batch_format="pyarrow",
                         batch_size=512)
    return out.select_columns(["doc_id", "content_md5"])


def q_docs_minhash_pairs(sf_dir: str):
    """MinHash-LSH near-duplicate pairs over documents."""
    from .stages.fuzzy_dedup import minhash_dup_pairs

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    return minhash_dup_pairs(ds, threshold=0.7)


def q_docs_dup_components(sf_dir: str):
    """Connected components over the MinHash near-dup graph via the
    distributed min-label-propagation loop (scale path of the driver-side
    union-find; equality tested in tests/test_fuzzy_dedup.py)."""
    from .stages.fuzzy_dedup import dup_components_ds, minhash_dup_pairs

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    return dup_components_ds(minhash_dup_pairs(ds, threshold=0.7))


def q_embeddings_centroids(sf_dir: str):
    """Per-label centroid vectors in long (label, dim, mean_val) format —
    map-side combiner over the vector column, one small label shuffle."""
    from .stages.embed import label_centroids

    ds = _read(sf_dir, "embeddings", columns=["embedding", "label"])
    return label_centroids(ds)


def q_embeddings_quantized(sf_dir: str):
    """Symmetric per-vector int8 quantization (long format) — the vector
    storage/compression scale path; rounding pinned cross-engine."""
    from .stages.embed import quantize_int8

    ds = _read(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    return quantize_int8(ds)


def q_docs_pii_scrub(sf_dir: str):
    """PII redaction (emails/phones/IPv4 -> placeholders) + match counts.
    Cross-engine exactness proven on planted PII in tests; the driver
    corpus exercises the no-op path + schema."""
    from .stages.text_ops import PiiScrubBatch

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    out = ds.map_batches(PiiScrubBatch(), batch_format="pyarrow",
                         batch_size=512)
    return out.select_columns(["doc_id", "text_scrubbed",
                               "n_email", "n_phone", "n_ip"])


def q_docs_vocab_stats(sf_dir: str):
    """Corpus vocabulary table (token, tf, df) — map-side combiner, then
    one small groupby; the shuffle carries per-batch partials, never
    per-occurrence rows."""
    from .stages.text_ops import vocab_stats

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    return vocab_stats(ds)


def q_docs_jaccard_pairs(sf_dir: str):
    """Exact k-shingle Jaccard near-dup pairs (LSH candidates -> exact
    verify) — the candidate/verify split of production dedup: MinHash
    estimates propose, true set intersection decides."""
    from .stages.fuzzy_dedup import jaccard_verified_pairs

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    return jaccard_verified_pairs(ds, threshold=0.8, candidate_threshold=0.5)


def q_docs_dup_components_star(sf_dir: str):
    """Same component map via large-star/small-star contraction
    (O(log n) rounds — the deep-chain-safe scale path; equality with
    union-find tested in tests/test_fuzzy_dedup.py)."""
    from .stages.fuzzy_dedup import dup_components_star_ds, minhash_dup_pairs

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    return dup_components_star_ds(minhash_dup_pairs(ds, threshold=0.7))


def q_docs_neardup_dedup(sf_dir: str):
    """End-to-end near-dup REMOVAL (the training-data capstone):
    minhash pairs -> connected components -> keep the canonical (min-id)
    doc per component, pass non-dup docs through.

    Scale shape: size-dispatched removal (`remove_neardup_members`) —
    the drop set is COUNTED, taken by an anti ``broadcast_join`` only
    when provably small, and removed with one distributed anti-join shuffle
    when it is corpus-scale (CC near-dup fractions run 20-40%)."""
    from .stages.fuzzy_dedup import (
        dup_components_ds,
        minhash_dup_pairs,
        remove_neardup_members,
    )

    docs = _read(sf_dir, "documents", columns=["doc_id", "text"])
    comp = dup_components_ds(minhash_dup_pairs(docs, threshold=0.7))
    kept = _read(sf_dir, "documents", columns=["doc_id", "lang", "n_chars"])
    return remove_neardup_members(kept, comp, key="doc_id")


def q_docs_simhash_pairs(sf_dir: str):
    """SimHash near-duplicate pairs (Hamming <= 3) over documents."""
    from .stages.fuzzy_dedup import simhash_dup_pairs

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    return simhash_dup_pairs(ds, max_hamming=3)


def _first_query_vecs(sf_dir: str, n: int = 5):
    import pyarrow.parquet as pq

    tbl = pq.read_table(os.path.join(sf_dir, "embeddings.parquet"),
                        columns=["vec_id", "embedding"])
    idx = np.argsort(np.array(tbl["vec_id"].to_pylist()))[:n]
    ids = [int(tbl["vec_id"][int(i)].as_py()) for i in idx]
    vecs = np.array([tbl["embedding"][int(i)].as_py() for i in idx],
                    dtype=np.float64)
    return ids, vecs


def q_knn_cosine_top10(sf_dir: str):
    """Exact brute-force cosine top-10 for the 5 lowest vec_id queries."""
    from .stages.embed import knn_cosine

    ids, vecs = _first_query_vecs(sf_dir, 5)
    ds = _read(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    out = knn_cosine(ds, ids, vecs, k=10).copy()
    out["score"] = out["score"].round(6)
    return out


def q_knn_cosine_lsh_top10(sf_dir: str):
    """Approximate (multi-table LSH) variant of the same search."""
    from .stages.embed import knn_cosine_lsh

    ids, vecs = _first_query_vecs(sf_dir, 5)
    ds = _read(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    out = knn_cosine_lsh(ds, ids, vecs, k=10).copy()
    out["score"] = out["score"].round(6)
    return out


def q_knn_cosine_ivf_top10(sf_dir: str):
    """IVF (coarse k-means) ANN variant of the same search."""
    from .stages.embed import knn_cosine_ivf

    ids, vecs = _first_query_vecs(sf_dir, 5)
    ds = _read(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    out = knn_cosine_ivf(ds, ids, vecs, k=10, n_clusters=8, nprobe=3).copy()
    out["score"] = out["score"].round(6)
    return out


def q_embeddings_norms(sf_dir: str):
    """Per-vector L2 norm (vectorized numpy per batch)."""
    from .stages.embed import _to_matrix

    ds = _read(sf_dir, "embeddings", columns=["vec_id", "embedding"])

    def norms(batch: pa.Table) -> pa.Table:
        m = _to_matrix(batch.column("embedding"))
        return pa.table({
            "vec_id": batch["vec_id"],
            "l2_norm": pa.array(np.round(np.linalg.norm(m, axis=1), 6),
                                pa.float64()),
        })

    return ds.map_batches(norms, batch_format="pyarrow", zero_copy_batch=True)


def q_links_reparsed(sf_dir: str):
    """M21: the reference's markdown->links regex reparser over
    extracted_text (2-phase flow parity; equals the links column)."""
    from .stages.links import links_from_markdown

    extracted = extraction_pipeline(sf_dir, dedup=False)
    return links_from_markdown(extracted)


def q_links_dedup_longest(sf_dir: str):
    """G4: per (url, link_url) keep-longest-text link dedup
    (reference hyperlink_extractor.py:172-195 semantics)."""
    from .stages.links import dedupe_links_keep_longest, explode_links_column

    extracted = extraction_pipeline(sf_dir, dedup=False)
    return dedupe_links_keep_longest(explode_links_column(extracted))


def q_extract_error_summary(sf_dir: str):
    """G1: success/error counters as a grouped rollup (folder_processor
    success_count/error_count/errors{} analog)."""
    from ray.data.aggregate import Count

    ds = extraction_pipeline(sf_dir, dedup=False)
    return ds.groupby(["method", "error"]).aggregate(
        Count(alias_name="n_pages"))


def q_extract_top_by_chars(sf_dir: str):
    """O1/O3 analog: global sort + limit over extraction output."""
    ds = extraction_pipeline(sf_dir, dedup=True)
    top = ds.select_columns(["url", "n_chars", "n_words", "method"]).sort(
        ["n_chars", "url"], descending=[True, False]).limit(25)
    return top


def q_events_sessions(sf_dir: str):
    """Gap-based sessionization (30-min inactivity window) per user —
    the streaming-shaped windowed aggregate.

    Scale shape: users are hash-bucketed (one shuffle on a small int key)
    and each bucket is ONE vectorized pandas pass — sort by
    (user, ts, event_id), session boundaries via shift/diff, per-session
    rollup via a cython groupby on the integer session id. Python-call
    cost is O(buckets), not O(users); a naive
    ``groupby(user_id).map_groups`` pays a Python call per user (measured
    in stages/dedup.py to halve throughput at 45k keys).
    """
    from .stages.exchange import by_bucket

    ds = _read(sf_dir, "events",
               columns=["event_id", "ts", "user_id", "value"])

    def bucket_sessions(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["user_id", "ts", "event_id"], kind="mergesort")
        new_user = g["user_id"].ne(g["user_id"].shift())
        gap = g["ts"].diff() > pd.Timedelta(minutes=30)
        sid = (new_user | gap).cumsum()
        out = g.groupby(sid, sort=False).agg(
            user_id=("user_id", "first"),
            session_start=("ts", "min"),
            n_events=("event_id", "count"),
            total_value=("value", "sum"),
        )
        return out.reset_index(drop=True)

    return by_bucket(ds, "user_id", bucket_sessions, batch_format="pandas")


def q_events_sliding(sf_dir: str):
    """Sliding-window aggregate (1-hour window, 30-minute hop): each event
    lands in exactly two windows — decomposed as two phase-shifted
    tumbling windows inside one map_batches (no row explosion shuffle
    cost beyond the single groupby)."""
    from ray.data.aggregate import Count, Sum

    ds = _read(sf_dir, "events", columns=["ts", "event_type", "value"])

    def two_phases(batch: pa.Table) -> pa.Table:
        h0 = pc.floor_temporal(batch["ts"], unit="hour")
        shifted = pc.subtract(
            batch["ts"], pa.scalar(1800 * 1_000_000, pa.duration("us")))
        h1 = pc.add(pc.floor_temporal(shifted, unit="hour"),
                    pa.scalar(1800 * 1_000_000, pa.duration("us")))
        out0 = pa.table({"win_start": h0, "event_type": batch["event_type"],
                         "value": batch["value"]})
        out1 = pa.table({"win_start": h1, "event_type": batch["event_type"],
                         "value": batch["value"]})
        return pa.concat_tables([out0, out1])

    return (ds.map_batches(two_phases, batch_format="pyarrow",
                           zero_copy_batch=True)
            .groupby(["event_type", "win_start"])
            .aggregate(Count(alias_name="n_events"),
                       Sum("value", alias_name="total_value")))


def q_order_keys_union(sf_dir: str):
    """Set op: distinct union of order keys from orders and lineitem."""
    from ray.data.aggregate import Count

    o = _read(sf_dir, "orders", columns=["o_orderkey"]).map_batches(
        lambda b: b.rename_columns(["okey"]), batch_format="pyarrow")
    l = _read(sf_dir, "lineitem", columns=["l_orderkey"]).map_batches(
        lambda b: b.rename_columns(["okey"]), batch_format="pyarrow")
    u = o.union(l)
    return (u.groupby("okey").aggregate(Count(alias_name="__n"))
            .select_columns(["okey"]))


def q_embeddings_neardup(sf_dir: str, threshold: float = 0.45):
    """Embedding-cosine near-duplicate pairs (exact, oracle-checked).

    Sandbox-exact path: the normalized matrix rides inside the stage's
    function (shipped once), each batch computes one matmul and emits pairs
    (vec_a < vec_b, cosine >= threshold). At 10^12 scale this becomes the
    LSH-bucketed variant (stages/embed.knn_cosine_lsh machinery).
    """
    import pyarrow.parquet as pq

    from .stages.embed import _normalize, _to_matrix

    tbl = pq.read_table(os.path.join(sf_dir, "embeddings.parquet"),
                        columns=["vec_id", "embedding"])
    full = _normalize(np.array(tbl["embedding"].to_pylist(), dtype=np.float64))
    full_ids = np.array(tbl["vec_id"].to_pylist(), dtype=np.int64)

    def near_dup(batch: pa.Table) -> pa.Table:
        vecs = _normalize(_to_matrix(batch.column("embedding")))
        vec_ids = batch.column("vec_id").to_numpy(zero_copy_only=False)
        scores = vecs @ full.T
        rows_a, rows_b, sims = [], [], []
        for i, vid in enumerate(vec_ids):
            hits = np.nonzero(scores[i] >= threshold)[0]
            for j in hits:
                other = int(full_ids[j])
                if int(vid) < other:   # i<j once, no self-pairs
                    rows_a.append(int(vid))
                    rows_b.append(other)
                    sims.append(round(float(scores[i, j]), 6))
        return pa.table({"vec_a": pa.array(rows_a, pa.int64()),
                         "vec_b": pa.array(rows_b, pa.int64()),
                         "cosine": pa.array(sims, pa.float64())})

    ds = _read(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    return ds.map_batches(near_dup, batch_format="pyarrow", batch_size=1024)


def q_embeddings_neardup_lsh(sf_dir: str):
    """Scale-path embedding near-dup: LSH-bucketed, no full-matrix
    broadcast (q_embeddings_neardup is the exact small-scale verifier;
    tests/test_embed.py checks this variant's recall against it)."""
    from .stages.embed import cosine_neardup_lsh

    ds = _read(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    return cosine_neardup_lsh(ds, threshold=0.45, n_planes=4, n_tables=8)


def q_part_filter_pushdown(sf_dir: str):
    """Predicate + projection pushdown at the read (prune-at-read rule)."""
    import pyarrow.dataset as pads

    ds = ray.data.read_parquet(
        os.path.join(sf_dir, "part.parquet"),
        columns=["p_partkey", "p_size", "p_retailprice"],
        filter=pads.field("p_size") > 40,
    )
    return ds


def q_lineitem_minmax(sf_dir: str):
    """Min/Max/Std aggregate family (ddof=1 == SQL stddev_samp)."""
    from ray.data.aggregate import Max, Min, Std

    ds = _read(sf_dir, "lineitem",
               columns=["l_returnflag", "l_extendedprice"])
    return ds.groupby("l_returnflag").aggregate(
        Min("l_extendedprice", alias_name="min_price"),
        Max("l_extendedprice", alias_name="max_price"),
        Std("l_extendedprice", alias_name="std_price"))


def q_page_metadata(sf_dir: str):
    """G6: per-page structural metadata completeness rollup by lang."""
    from ray.data.aggregate import Count, Mean

    from .stages.metadata import page_metadata_batch

    pages = pages_dataset_from_documents(sf_dir)
    meta = pages.map_batches(page_metadata_batch, batch_format="pyarrow",
                             batch_size=256)
    return meta.groupby("lang_attr").aggregate(
        Count(alias_name="n_pages"),
        Mean("completeness", alias_name="avg_completeness"))


def q_data_islands(sf_dir: str):
    """M12 analog: JSON data islands summarized per page."""
    from .stages.metadata import data_island_batch

    pages = pages_dataset_from_documents(sf_dir)
    return pages.map_batches(data_island_batch, batch_format="pyarrow",
                             batch_size=256)


def _doc_id_from_url(batch: pa.Table) -> pa.Array:
    """Generated page urls end in 'doc-<id>' — recover the driver doc_id."""
    return pc.cast(pc.replace_substring_regex(batch["url"], r".*doc-", ""),
                   pa.int64())


def q_chart_series(sf_dir: str):
    """M12 with numeric fidelity: chart JSON islands -> one row per series
    with type/name/points/sum (reference content_extractor.py:368-421).
    Oracled: the generator's chart values are arithmetic in doc_id."""
    from .stages.metadata import chart_series_batch

    pages = pages_dataset_from_documents(sf_dir)
    charts = pages.map_batches(chart_series_batch, batch_format="pyarrow",
                               batch_size=256)

    def project(batch: pa.Table) -> pa.Table:
        return pa.table({
            "doc_id": _doc_id_from_url(batch),
            "chart_type": batch["chart_type"],
            "series_name": batch["series_name"],
            "n_points": pc.cast(batch["n_points"], pa.int64()),
            "values_sum": batch["values_sum"],
        })

    return charts.map_batches(project, batch_format="pyarrow")


def q_page_dates(sf_dir: str):
    """Metadata depth (reference metadata_extractor.py:89-109,185-190
    analog): author + published/modified dates from <meta>/OpenGraph/
    JSON-LD. Oracled: generator metadata is arithmetic in doc_id."""
    from .stages.metadata import page_metadata_batch

    pages = pages_dataset_from_documents(sf_dir)
    meta = pages.map_batches(page_metadata_batch, batch_format="pyarrow",
                             batch_size=256)

    def project(batch: pa.Table) -> pa.Table:
        return pa.table({
            "doc_id": _doc_id_from_url(batch),
            "author": batch["author"],
            "published": batch["published"],
            "modified": batch["modified"],
        })

    return meta.map_batches(project, batch_format="pyarrow")


def q_diagram_scores(sf_dir: str):
    """A6/G3 ladder analog: 7-rule additive diagram-likelihood score +
    probability ladder per page, rolled up by probability bucket
    (diagram_analyzer.py:391-463,697-706; report threshold :80)."""
    from ray.data.aggregate import Count, Mean

    from .stages.diagram import DiagramScoreBatch

    pages = pages_dataset_from_documents(sf_dir)
    scored = pages.map_batches(DiagramScoreBatch(), batch_format="pyarrow",
                               batch_size=256)
    return scored.groupby("diagram_prob").aggregate(
        Count(alias_name="n_pages"),
        Mean("diagram_score", alias_name="avg_score"))


def q_orders_customer_hashjoin(sf_dir: str):
    """Explicit partitioned hash join (both sides shuffled once by key)."""
    from .stages.joins import hash_join

    orders = _read(sf_dir, "orders",
                   columns=["o_orderkey", "o_custkey", "o_totalprice"])
    cust = _read(sf_dir, "customer",
                 columns=["c_custkey", "c_name", "c_mktsegment"])
    joined = hash_join(orders, cust, "o_custkey", "c_custkey")
    return joined.select_columns(["o_orderkey", "o_custkey", "o_totalprice",
                                  "c_name", "c_mktsegment"])


def _revenue_by_customer(li: "ray.data.Dataset", orders: "ray.data.Dataset"
                         ) -> "ray.data.Dataset":
    """(o_custkey, revenue): the sum of ``l_extendedprice * (1 -
    l_discount)`` per customer over the lineitem rows ``li`` joined to
    ``orders`` (o_orderkey, o_custkey), rounded half up to cents.

    Summed exactly, in int64 units of 1e-4 (cents x hundredths of
    discount; ~8e9 lines at TPC-H's top price fit one customer): a float
    sum follows block arrival order, and its last ulp survives the
    rounding, so the bytes would depend on the session.
    Map-side partial sums per order BEFORE the join (the shuffle carries
    (orderkey, rev) partials, not lineitem rows).
    """
    from ray.data.aggregate import Sum

    from .stages.joins import hash_join

    def hundredths(col) -> pa.Array:
        return pc.cast(pc.round(pc.multiply(col, 100.0)), pa.int64())

    def partial_rev(batch: pa.Table) -> pa.Table:
        rev = pc.multiply(hundredths(batch.column("l_extendedprice")),
                          pc.subtract(100, hundredths(batch.column("l_discount"))))
        t = pa.table({"l_orderkey": batch.column("l_orderkey"), "rev": rev})
        df = t.to_pandas().groupby("l_orderkey", sort=False)["rev"].sum()
        return pa.table({"l_orderkey": pa.array(df.index.to_numpy(), pa.int64()),
                         "rev": pa.array(df.to_numpy(), pa.int64())})

    def to_cents(batch: pa.Table) -> pa.Table:
        # revenue >= 0, so integer division truncates like floor
        cents = pc.divide(pc.add(batch.column("revenue"), 50), 100)
        return pa.table({"o_custkey": batch.column("o_custkey"),
                         "revenue": pc.divide(pc.cast(cents, pa.float64()),
                                              100.0)})

    li_partial = li.map_batches(partial_rev, batch_format="pyarrow",
                                batch_size=4096)
    joined = hash_join(li_partial, orders, "l_orderkey", "o_orderkey")
    return (joined.select_columns(["o_custkey", "rev"])
            .groupby("o_custkey")
            .aggregate(Sum("rev", alias_name="revenue"))
            .map_batches(to_cents, batch_format="pyarrow",
                         zero_copy_batch=True))


def q_returned_revenue_topk(sf_dir: str):
    """TPC-H Q10-style composite: filtered lineitem ⋈ orders (partitioned
    hash join) -> per-customer revenue -> broadcast customer/nation
    decorate -> global top-20.

    The full multi-stage composition in one query: predicate pushdown at
    the read, map-side partial aggregation BEFORE the join, one bucketed
    shuffle join, a small groupby (``_revenue_by_customer``), a
    broadcast lookup, and a sort-on-the-already-small result.
    """
    import pyarrow.dataset as pads

    from .stages.joins import broadcast_join

    li = ray.data.read_parquet(
        os.path.join(sf_dir, "lineitem.parquet"),
        columns=["l_orderkey", "l_extendedprice", "l_discount"],
        filter=pads.field("l_returnflag") == "R",
    )
    orders = _read(sf_dir, "orders", columns=["o_orderkey", "o_custkey"])
    named = broadcast_join(_revenue_by_customer(li, orders),
                           _customer_nations(sf_dir, ["c_custkey", "c_name"]),
                           "o_custkey", "c_custkey", how="left")

    def decorate(batch: pa.Table) -> pa.Table:
        # a customer row missing from the table (or its nation) reads ""
        return pa.table({
            "c_custkey": batch.column("o_custkey"),
            "c_name": pc.fill_null(batch.column("c_name"), ""),
            "n_name": pc.fill_null(batch.column("n_name"), ""),
            "revenue": batch.column("revenue")})

    out = named.map_batches(decorate, batch_format="pyarrow",
                            zero_copy_batch=True)
    return out.sort(["revenue", "c_custkey"],
                    descending=[True, False]).limit(20)


def q_events_customer_skewjoin(sf_dir: str):
    """Skew-aware hybrid join: sampled-hot keys broadcast, cold keys
    bucketed — join output identical either path (oracle = plain SQL
    JOIN)."""
    from .stages.joins import skew_hash_join

    events = _read(sf_dir, "events", columns=["event_id", "user_id", "value"])
    cust = _read(sf_dir, "customer",
                 columns=["c_custkey", "c_name", "c_mktsegment"])
    return skew_hash_join(events, cust, "user_id", "c_custkey")


def q_events_orders_asof(sf_dir: str):
    """As-of join: each event matched to the user's latest order at or
    before the event time (right side pre-reduced to one order per
    (custkey, date) for unambiguous matches)."""
    from .stages.dedup import keyed_keep_one
    from .stages.joins import asof_join

    events = _read(sf_dir, "events", columns=["event_id", "ts", "user_id"])
    orders = _read(sf_dir, "orders",
                   columns=["o_orderkey", "o_custkey", "o_orderdate"])

    def add_key(batch: pa.Table) -> pa.Table:
        key = pc.binary_join_element_wise(
            pc.cast(batch["o_custkey"], pa.string()),
            pc.cast(batch["o_orderdate"], pa.string()), "|")
        return batch.append_column("__ck", key)

    orders1 = orders.map_batches(add_key, batch_format="pyarrow")
    orders1 = keyed_keep_one(orders1, "__ck",
                             [("o_orderkey", "descending")]).drop_columns(["__ck"])

    joined = asof_join(events, orders1, "user_id", "o_custkey",
                       "ts", "o_orderdate")
    return joined.select_columns(["event_id", "user_id", "ts", "o_orderkey"])


def q_lineitem_orders_range(sf_dir: str):
    """Range (interval) join — the briefing's named custom operator:
    each lineitem matched to its order when shipped within 60 days of
    the order date (DuckDB inequality-join oracle)."""
    from .stages.joins import range_join

    items = _read(sf_dir, "lineitem",
                  columns=["l_orderkey", "l_linenumber", "l_shipdate"])
    orders = _read(sf_dir, "orders", columns=["o_orderkey", "o_orderdate"])

    def add_end(batch: pa.Table) -> pa.Table:
        end = pc.add(batch["o_orderdate"],
                     pa.scalar(60 * 86400 * 1_000_000, pa.duration("us")))
        return batch.append_column("o_end", end)

    orders1 = orders.map_batches(add_end, batch_format="pyarrow",
                                 zero_copy_batch=True)
    joined = range_join(items, orders1, "l_orderkey", "o_orderkey",
                        "l_shipdate", "o_orderdate", "o_end")
    return joined.select_columns(["l_orderkey", "l_linenumber",
                                  "l_shipdate", "o_orderdate"])


def q_events_user_approx_distinct(sf_dir: str):
    """HLL(p=12) approximate distinct users (mergeable-sketch pattern)."""
    from .stages.sketches import approx_distinct

    ds = _read(sf_dir, "events", columns=["user_id"])
    est = approx_distinct(ds, "user_id")
    return pd.DataFrame({"approx_users": [round(est)]})


def q_events_type_count_salted(sf_dir: str):
    """Skew-safe grouped aggregate: count+sum by type. Each batch
    combines to one (type, n, sum) row per type before the keyed
    exchange, so a hot type moves O(batches) rows, not O(events)."""
    from .stages.dedup import bucketed_group_agg

    ds = _read(sf_dir, "events", columns=["event_type", "value"])

    def partial(batch: pa.Table) -> pa.Table:
        g = batch.group_by("event_type").aggregate(
            [([], "count_all"), ("value", "sum")])
        return g.rename_columns(["event_type", "n_rows", "total"])

    return bucketed_group_agg(
        ds.map_batches(partial, batch_format="pyarrow",
                       zero_copy_batch=True),
        "event_type", [("n_rows", "sum"), ("total", "sum")])


def q_orders_top_per_customer(sf_dir: str):
    """Grouped top-k: each customer's 2 highest-value orders (keyed
    generalization of O1/O3 sort+limit; one bucketed shuffle)."""
    from .stages.topk import grouped_top_k

    ds = _read(sf_dir, "orders",
               columns=["o_orderkey", "o_custkey", "o_totalprice"])
    return grouped_top_k(ds, "o_custkey", "o_totalprice", k=2,
                         descending=True, tie_col="o_orderkey")


def _building_customers(sf_dir: str) -> pa.Table:
    """The BUILDING market segment's ``c_custkey`` column."""
    import pyarrow.parquet as pq

    cust = pq.read_table(os.path.join(sf_dir, "customer.parquet"),
                         columns=["c_custkey", "c_mktsegment"])
    return cust.filter(pc.equal(cust["c_mktsegment"], "BUILDING")) \
        .select(["c_custkey"])


def q_orders_anti_join(sf_dir: str):
    """Broadcast ANTI-join: orders whose customer is NOT in the BUILDING
    market segment — an anti ``broadcast_join`` against the segment's
    customer keys (no shuffle)."""
    from .stages.joins import broadcast_join

    ds = _read(sf_dir, "orders", columns=["o_orderkey", "o_custkey"])
    return broadcast_join(ds, _building_customers(sf_dir), "o_custkey",
                          "c_custkey", how="anti")


def q_orders_latest3_rn(sf_dir: str):
    """Windowed rank: each customer's 3 most recent orders with their
    1-based sequence number (ROW_NUMBER over a bucketed shuffle; one
    vectorized cumcount per bucket)."""
    from .stages.window import grouped_row_number

    ds = _read(sf_dir, "orders",
               columns=["o_orderkey", "o_custkey", "o_orderdate"])
    return grouped_row_number(ds, "o_custkey",
                              ["o_orderdate", "o_orderkey"],
                              ascending=[False, True],
                              out_col="rn", limit=3)


def q_events_running_value(sf_dir: str):
    """Per-user running SUM(value) in (ts, event_id) order — the ROWS
    UNBOUNDED PRECEDING window frame; sequential adds within a key are
    order-pinned so both engines produce bit-identical doubles."""
    from .stages.window import grouped_cumsum

    ds = _read(sf_dir, "events",
               columns=["event_id", "ts", "user_id", "value"])
    return grouped_cumsum(ds, "user_id", ["ts", "event_id"], "value",
                          out_col="running_sum")


def q_orders_price_zscore(sf_dir: str):
    """Per-status z-score of order price (two-pass stable moments,
    broadcast decorate — partition-normalization, the per-group scaling
    every feature pipeline needs)."""
    from .stages.window import grouped_zscore

    ds = _read(sf_dir, "orders",
               columns=["o_orderkey", "o_orderstatus", "o_totalprice"])
    return grouped_zscore(ds, "o_orderstatus", "o_totalprice",
                          out_col="zscore")


def q_orders_status_pivot(sf_dir: str):
    """Wide pivot: per order priority, one count column per order
    status (map-side crosstab partials -> tiny groupby sum; the
    SUM(CASE WHEN ...) shape)."""
    from .stages.window import pivot_counts

    ds = _read(sf_dir, "orders",
               columns=["o_orderpriority", "o_orderstatus"])
    return pivot_counts(ds, "o_orderpriority", "o_orderstatus",
                        ["F", "O", "P"])


def q_orders_price_pctrank(sf_dir: str):
    """PERCENT_RANK of order price within each status (bucketed shuffle,
    vectorized rank/size per bucket; unique (price, orderkey) ordering
    pins rank == row_number)."""
    from .stages.window import grouped_percent_rank

    ds = _read(sf_dir, "orders",
               columns=["o_orderkey", "o_orderstatus", "o_totalprice"])
    return grouped_percent_rank(ds, "o_orderstatus",
                                ["o_totalprice", "o_orderkey"],
                                out_col="pr")


def q_orders_semi_join(sf_dir: str):
    """Broadcast SEMI-join: orders whose customer IS in the BUILDING
    segment (a semi ``broadcast_join``, no shuffle — the dual of
    q_orders_anti_join)."""
    from .stages.joins import broadcast_join

    ds = _read(sf_dir, "orders", columns=["o_orderkey", "o_custkey"])
    return broadcast_join(ds, _building_customers(sf_dir), "o_custkey",
                          "c_custkey", how="semi")


def q_docs_hash_sample(sf_dir: str):
    """Deterministic systematic sample: keep docs whose md5(doc_id) hex
    digest sorts below '28' (fraction 40/256 = 0.15625) — key-hash
    sampling every engine can reproduce exactly (oracle: DuckDB
    md5(doc_id::VARCHAR); digest < '28' == 8-hex prefix < '28000000' ==
    fraction_threshold(0.15625))."""
    from .stages.sampling import md5_hash_sample

    ds = _read(sf_dir, "documents", columns=["doc_id", "lang"])
    return md5_hash_sample(ds, "doc_id", 0.15625)


def q_lineitem_bloom_join(sf_dir: str):
    """Bloom-pre-filtered join: lineitems of high-value orders. The
    small build side folds into a broadcast Bloom bitmap that drops
    non-matching lineitems BEFORE the shuffle; output is byte-identical
    to the plain join (false positives only reach the exact join)."""
    from .stages.joins import bloom_hash_join

    li = _read(sf_dir, "lineitem",
               columns=["l_orderkey", "l_linenumber", "l_extendedprice"])
    orders = _read(sf_dir, "orders",
                   columns=["o_orderkey", "o_totalprice"])

    def high(batch: pa.Table) -> pa.Table:
        v = batch.column("o_totalprice").to_numpy(zero_copy_only=False)
        return batch.filter(pa.array(v > 400_000.0))

    big = orders.map_batches(high, batch_format="pyarrow")
    return bloom_hash_join(li, big, "l_orderkey", "o_orderkey")


def q_customer_order_list(sf_dir: str):
    """STRING_AGG / collect-list: each customer's order keys as one
    ordered comma-joined string (bucketed shuffle, per-bucket
    vectorized join)."""
    from .stages.window import grouped_string_agg

    ds = _read(sf_dir, "orders", columns=["o_custkey", "o_orderkey"])
    return grouped_string_agg(ds, "o_custkey", "o_orderkey",
                              order_cols=["o_orderkey"],
                              out_col="order_keys")


def q_events_type_distinct_users(sf_dir: str):
    """Exact COUNT(DISTINCT user_id) per event type: bucketed distinct
    pairs then a tiny per-key count — the exact companion of the HLL
    approx path (events_user_approx_distinct)."""
    from .stages.window import grouped_exact_distinct

    ds = _read(sf_dir, "events", columns=["event_type", "user_id"])
    return grouped_exact_distinct(ds, "event_type", "user_id",
                                  out_col="n_users")


def q_lineitem_rollup(sf_dir: str):
    """ROLLUP(l_returnflag, l_linestatus): per-pair, per-flag and grand
    totals from ONE finest-granularity shuffle (coarser levels derived
    from the tiny finest table, never a second raw-row pass)."""
    from .stages.cube import rollup_agg

    ds = _read(sf_dir, "lineitem",
               columns=["l_returnflag", "l_linestatus", "l_quantity"])
    return rollup_agg(ds, ["l_returnflag", "l_linestatus"], "l_quantity",
                      sum_alias="sum_qty", count_alias="n")


def q_orders_price_histogram(sf_dir: str):
    """Fixed-width price histogram (bin = floor(price/25000)): per-batch
    vectorized partials, tiny groupby-sum over bin ids."""
    from .stages.cube import fixed_width_histogram

    ds = _read(sf_dir, "orders", columns=["o_totalprice"])
    out = fixed_width_histogram(ds, "o_totalprice", 25_000.0,
                                sum_alias="sum_price", count_alias="n")

    def pin(batch: pa.Table) -> pa.Table:
        i = batch.schema.get_field_index("sum_price")
        v = np.round(batch.column("sum_price").to_numpy(
            zero_copy_only=False), 2)
        return batch.set_column(i, "sum_price", pa.array(v))

    return out.map_batches(pin, batch_format="pyarrow")


def q_lineitem_price_quantiles(sf_dir: str):
    """Grouped exact quantiles per return flag (map_groups; the key
    cardinality is tiny — 3 flags — so one group per task is the right
    shape; high-cardinality keys would use a mergeable sketch instead)."""
    ds = _read(sf_dir, "lineitem",
               columns=["l_returnflag", "l_extendedprice"])

    def qtiles(g: pd.DataFrame) -> pd.DataFrame:
        q = g["l_extendedprice"].quantile([0.25, 0.5, 0.75, 0.9])
        return pd.DataFrame({
            "l_returnflag": [g["l_returnflag"].iloc[0]],
            "q25": [round(q[0.25], 4)], "q50": [round(q[0.5], 4)],
            "q75": [round(q[0.75], 4)], "q90": [round(q[0.9], 4)],
        })

    return ds.groupby("l_returnflag").map_groups(qtiles,
                                                 batch_format="pandas")


def q_docs_sample(sf_dir: str):
    """Seeded random sample (deterministic given seed; rows-only check
    asserts determinism through the test suite, not SQL)."""
    ds = _read(sf_dir, "documents", columns=["doc_id", "lang"])
    return ds.random_sample(0.1, seed=42)


def q_supplier_region_stats(sf_dir: str):
    """Two-hop broadcast join: supplier -> nation -> region rollup (the
    nation -> region hop joins on the driver; a supplier without one
    counts under "")."""
    import pyarrow.parquet as pq

    from ray.data.aggregate import Count, Sum

    from .stages.joins import broadcast_join

    nat = pq.read_table(os.path.join(sf_dir, "nation.parquet"),
                        columns=["n_nationkey", "n_regionkey"])
    reg = pq.read_table(os.path.join(sf_dir, "region.parquet"),
                        columns=["r_regionkey", "r_name"])
    regions = nat.join(reg, "n_regionkey", "r_regionkey",
                       join_type="left outer").select(["n_nationkey",
                                                       "r_name"])
    sup = _read(sf_dir, "supplier", columns=["s_nationkey", "s_acctbal"])
    joined = broadcast_join(sup, regions, "s_nationkey", "n_nationkey",
                            how="left").map_batches(
        lambda b: pa.table({"r_name": pc.fill_null(b.column("r_name"), ""),
                            "s_acctbal": b.column("s_acctbal")}),
        batch_format="pyarrow", zero_copy_batch=True)
    return joined.groupby("r_name").aggregate(
        Count(alias_name="n_suppliers"),
        Sum("s_acctbal", alias_name="total_acctbal"))


def q_part_type_stats(sf_dir: str):
    """Per-type part statistics (brand diversity via groupby)."""
    from ray.data.aggregate import Count, Mean, Max

    ds = _read(sf_dir, "part", columns=["p_type", "p_retailprice", "p_size"])
    return ds.groupby("p_type").aggregate(
        Count(alias_name="n_parts"),
        Mean("p_retailprice", alias_name="avg_price"),
        Max("p_size", alias_name="max_size"))


def q_warc_segment_roundtrip(sf_dir: str):
    """Multi-record WARC segment ingestion end-to-end
    (``sources/warc.py``): documents -> deterministic 64-record
    segments (odd segments gzip-membered Common-Crawl style, every 5th
    record HTTP-response-enveloped) written under /tmp ->
    ``read_warc_dir`` -> one (url, warc_ts, n_bytes) row per content
    record. Oracled: every projected value is pure doc_id/text
    arithmetic DuckDB recomputes straight from the documents table, so
    a green hash pins the whole chain — segment build, member inflate,
    record walk, envelope strip, date parse."""
    import datetime
    import shutil

    from .sources.warc import build_warc_segment, read_warc_dir

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])

    tag = hashlib.md5(sf_dir.encode()).hexdigest()[:8]
    out_dir = f"/tmp/graft_warc_{tag}"
    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir, exist_ok=True)
    epoch = datetime.datetime(2020, 1, 1)

    def add_seg(batch: pa.Table) -> pa.Table:
        seg = np.asarray(batch.column("doc_id").to_numpy(
            zero_copy_only=False)) // 64
        return batch.append_column("seg", pa.array(seg, pa.int64()))

    def write_segment(g: pa.Table) -> pa.Table:
        ids = g.column("doc_id").to_numpy(zero_copy_only=False)
        order = np.argsort(ids)
        texts = g.column("text").to_pylist()
        recs = [(f"https://warc.example/{int(ids[i])}",
                 epoch + datetime.timedelta(seconds=int(ids[i])),
                 (texts[i] or "").encode("utf-8")) for i in order]
        seg = int(ids[0] // 64)
        gz = seg % 2 == 1
        payload = build_warc_segment(recs, gzip_members=gz,
                                     http_envelope_every=5)
        name = f"seg-{seg:06d}.warc" + (".gz" if gz else "")
        tmp = os.path.join(out_dir, name + ".tmp")
        with open(tmp, "wb") as f:
            f.write(payload)
        os.replace(tmp, os.path.join(out_dir, name))
        return pa.table({"seg": pa.array([seg], pa.int64())})

    # barrier: every segment file must exist before the read job starts
    (ds.map_batches(add_seg, batch_format="pyarrow", zero_copy_batch=True)
       .groupby("seg").map_groups(write_segment, batch_format="pyarrow")
       .count())

    def project(batch: pa.Table) -> pa.Table:
        return pa.table({
            "url": batch.column("url"),
            "warc_ts": batch.column("warc_ts"),
            "n_bytes": pc.binary_length(
                batch.column("html")).cast(pa.int64()),
            # CDX-style lineage: both recomputable in SQL because the
            # synthetic segments hold contiguous doc_ids sorted
            "warc_file": batch.column("warc_file"),
            "record_idx": batch.column("record_idx"),
        })

    return read_warc_dir(out_dir, include_provenance=True).map_batches(
        project, batch_format="pyarrow", zero_copy_batch=True)


def q_warc_cdx_index(sf_dir: str):
    """CDX capture index over deterministic WARC segments
    (``sources/warc.build_cdx_index``): segment walk -> SURT url key +
    re-fetch pointer + md5 digest, globally sorted by (url_key, ts).
    The synthetic urls carry mixed-case multi-label hosts and a
    tracking param, so the oracle pins SURT label reversal, host
    lowercasing and canonicalization — all recomputed as doc_id
    arithmetic in SQL (sortedness itself is pinned in pytest; the
    driver compare is order-insensitive)."""
    import datetime
    import shutil

    from .sources.warc import build_cdx_index, build_warc_segment

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])

    tag = hashlib.md5(sf_dir.encode()).hexdigest()[:8]
    out_dir = f"/tmp/graft_cdx_{tag}"
    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir, exist_ok=True)
    epoch = datetime.datetime(2020, 1, 1)

    def add_seg(batch: pa.Table) -> pa.Table:
        seg = np.asarray(batch.column("doc_id").to_numpy(
            zero_copy_only=False)) // 64
        return batch.append_column("seg", pa.array(seg, pa.int64()))

    def write_segment(g: pa.Table) -> pa.Table:
        ids = g.column("doc_id").to_numpy(zero_copy_only=False)
        order = np.argsort(ids)
        texts = g.column("text").to_pylist()
        recs = [(f"https://H{int(ids[i]) % 5}.Site{int(ids[i]) % 7}"
                 f".Example/P/{int(ids[i])}?utm_x=1&n={int(ids[i]) % 3}",
                 epoch + datetime.timedelta(seconds=int(ids[i])),
                 (texts[i] or "").encode("utf-8")) for i in order]
        seg = int(ids[0] // 64)
        gz = seg % 2 == 1
        payload = build_warc_segment(recs, gzip_members=gz,
                                     http_envelope_every=5)
        name = f"seg-{seg:06d}.warc" + (".gz" if gz else "")
        tmp = os.path.join(out_dir, name + ".tmp")
        with open(tmp, "wb") as f:
            f.write(payload)
        os.replace(tmp, os.path.join(out_dir, name))
        return pa.table({"seg": pa.array([seg], pa.int64())})

    # barrier: every segment file must exist before the index build
    (ds.map_batches(add_seg, batch_format="pyarrow", zero_copy_batch=True)
       .groupby("seg").map_groups(write_segment, batch_format="pyarrow")
       .count())

    return build_cdx_index(out_dir)


def q_containers_extract(sf_dir: str):
    """S7/S8 container breadth end-to-end: each document deterministically
    wrapped (by doc_id % 3) as a gzip member, a WARC response record, or
    a docx zip, then routed through sniff->unwrap->extract. Oracled: the
    per-method success counts are pure doc_id arithmetic."""
    import gzip as _gzip
    import html as _html_mod
    import io
    import zipfile

    from ray.data.aggregate import Count

    from .extractor.document import extract_document

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])

    def wrap_and_extract(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_pylist()
        texts = batch.column("text").to_pylist()
        methods = []
        for doc_id, text in zip(ids, texts):
            body = ("<html><body><h1>Doc</h1><p>"
                    + _html_mod.escape(text or "placeholder")
                    + "</p></body></html>").encode()
            k = doc_id % 3
            if k == 0:
                payload = _gzip.compress(body, 6)
            elif k == 1:
                block = (b"HTTP/1.1 200 OK\r\n\r\n" + body)
                payload = (
                    b"WARC/1.0\r\nWARC-Type: response\r\n"
                    b"Content-Type: application/http; msgtype=response"
                    b"\r\nContent-Length: "
                    + str(len(block)).encode() + b"\r\n\r\n" + block)
            else:
                buf = io.BytesIO()
                with zipfile.ZipFile(buf, "w") as zf:
                    zf.writestr("word/document.xml",
                                "<w:document><w:body><w:p><w:r><w:t>"
                                + _html_mod.escape(text or "placeholder")
                                + "</w:t></w:r></w:p>"
                                "</w:body></w:document>")
                payload = buf.getvalue()
            methods.append(extract_document(payload).method)
        return pa.table({"method": pa.array(methods, pa.string())})

    wrapped = ds.map_batches(wrap_and_extract, batch_format="pyarrow",
                             batch_size=256)
    return wrapped.groupby("method").aggregate(Count(alias_name="n_docs"))


def q_ole2_extract(sf_dir: str):
    """S8 legacy-binary-Office breadth end-to-end (extractor/ole2.py):
    each document deterministically written (by doc_id % 3) as a real
    MS-CFB compound file — .doc (FIB + piece table + one HYPERLINK
    field), .xls (BIFF8 SST + LABELSST/NUMBER cells), or .ppt (text
    atoms) — then routed through sniff->extract. Oracled per-document:
    method, extracted char count, and link count are pure doc_id
    arithmetic over the planted content."""
    from .extractor.document import extract_document
    from .extractor.ole2 import build_doc, build_ppt, build_xls

    ds = _read(sf_dir, "documents", columns=["doc_id"])

    def write_and_extract(batch: pa.Table) -> pa.Table:
        ids, methods, n_chars, n_links = [], [], [], []
        for doc_id in batch.column("doc_id").to_pylist():
            k = doc_id % 3
            if k == 0:
                payload = build_doc(
                    [f"Legacy doc {doc_id}.",
                     f"Second paragraph {doc_id * 3}."],
                    pieces_compressed=[True, False],
                    links=[(f"Anchor {doc_id}",
                            f"https://legacy.example/{doc_id}")])
            elif k == 1:
                payload = build_xls([
                    (f"S{doc_id % 4}",
                     [["metric", "value"],
                      [f"m{doc_id}", doc_id * 7]])])
            else:
                payload = build_ppt(
                    [f"Slide {doc_id}",
                     f"Body {doc_id}\rPoint {doc_id * 2}"],
                    as_bytes=[False, True])
            res = extract_document(payload)
            ids.append(doc_id)
            methods.append(res.method)
            n_chars.append(len(res.extracted_text))
            n_links.append(len(res.links))
        return pa.table({
            "doc_id": pa.array(ids, pa.int64()),
            "method": pa.array(methods, pa.string()),
            "n_chars": pa.array(n_chars, pa.int64()),
            "n_links": pa.array(n_links, pa.int64()),
        })

    return ds.map_batches(write_and_extract, batch_format="pyarrow",
                          batch_size=256)


def q_textdata_extract(sf_dir: str):
    """S8 "Others"-category breadth end-to-end (extractor/textdata.py +
    the epub route in ooxml.extract_zip): each document deterministically
    written (by doc_id % 4) as a CSV, JSON, XML, or EPUB payload and
    routed through sniff->extract. Oracled per-document: method, char
    count and link count are pure doc_id arithmetic."""
    import io as _io
    import zipfile as _zipfile

    from .extractor.document import extract_document

    ds = _read(sf_dir, "documents", columns=["doc_id"])

    def _epub(doc_id: int) -> bytes:
        buf = _io.BytesIO()
        with _zipfile.ZipFile(buf, "w") as zf:
            zf.writestr("mimetype", "application/epub+zip")
            zf.writestr("META-INF/container.xml",
                        '<container><rootfiles><rootfile '
                        'full-path="OEBPS/content.opf"/></rootfiles>'
                        "</container>")
            zf.writestr(
                "OEBPS/content.opf",
                '<package><manifest>'
                '<item id="c0" href="ch0.xhtml"/>'
                '<item id="c1" href="ch1.xhtml"/>'
                '</manifest><spine><itemref idref="c0"/>'
                '<itemref idref="c1"/></spine></package>')
            zf.writestr(
                "OEBPS/ch0.xhtml",
                f"<html><body><h1>Book {doc_id}</h1>"
                f"<p>Para {doc_id * 5}.</p></body></html>")
            zf.writestr(
                "OEBPS/ch1.xhtml",
                f'<html><body><p>See <a href="https://b.ex/{doc_id}">'
                f"ref {doc_id}</a> now.</p></body></html>")
        return buf.getvalue()

    def write_and_extract(batch: pa.Table) -> pa.Table:
        ids, methods, n_chars, n_links = [], [], [], []
        for doc_id in batch.column("doc_id").to_pylist():
            k = doc_id % 4
            if k == 0:
                payload = (f"metric,value\nm{doc_id},{doc_id * 7}\n"
                           ).encode()
            elif k == 1:
                payload = (f'{{"doc": {doc_id}, '
                           f'"score": {doc_id * 3}}}').encode()
            elif k == 2:
                payload = (f'<?xml version="1.0"?><r><a>{doc_id}</a>'
                           f"<b>v{doc_id * 2}</b></r>").encode()
            else:
                payload = _epub(doc_id)
            res = extract_document(payload)
            ids.append(doc_id)
            methods.append(res.method)
            n_chars.append(len(res.extracted_text))
            n_links.append(len(res.links))
        return pa.table({
            "doc_id": pa.array(ids, pa.int64()),
            "method": pa.array(methods, pa.string()),
            "n_chars": pa.array(n_chars, pa.int64()),
            "n_links": pa.array(n_links, pa.int64()),
        })

    return ds.map_batches(write_and_extract, batch_format="pyarrow",
                          batch_size=256)


def q_zip_iterate_extract(sf_dir: str):
    """The reference's "ZIP (iterates over contents)" category
    (config.py:55-58) end-to-end: each document becomes a generic
    archive holding a csv member and a txt member; the router iterates
    members in name order under per-member headers. Oracled: the
    joined text is pure doc_id arithmetic."""
    import io as _io
    import zipfile as _zipfile

    from .extractor.document import extract_document

    ds = _read(sf_dir, "documents", columns=["doc_id"])

    def wrap_and_extract(batch: pa.Table) -> pa.Table:
        ids, n_chars = [], []
        for doc_id in batch.column("doc_id").to_pylist():
            buf = _io.BytesIO()
            with _zipfile.ZipFile(buf, "w") as zf:
                zf.writestr("a_data.csv",
                            f"k,v\nrow{doc_id},{doc_id * 7}\n")
                zf.writestr("b_notes.txt",
                            f"note for {doc_id * 3}")
            res = extract_document(buf.getvalue())
            assert res.method == "zip"
            ids.append(doc_id)
            n_chars.append(len(res.extracted_text))
        return pa.table({
            "doc_id": pa.array(ids, pa.int64()),
            "n_chars": pa.array(n_chars, pa.int64()),
        })

    return ds.map_batches(wrap_and_extract, batch_format="pyarrow",
                          batch_size=256)


def q_doc_properties(sf_dir: str):
    """Document-property extraction parity (reference
    metadata_extractor.py:93-180 core_properties walk): even doc_ids
    become OOXML zips with docProps/core.xml+app.xml
    (``ooxml_core_properties``), odd doc_ids become .doc compound files
    with a SummaryInformation property-set stream (MS-OLEPS,
    ``ole2_summary_properties``). Both walks surface the same fields;
    every value is doc_id arithmetic."""
    import datetime as _dt
    import io as _io
    import zipfile as _zipfile

    from .extractor.ole2 import build_doc, ole2_summary_properties
    from .extractor.ooxml import ooxml_core_properties

    ds = _read(sf_dir, "documents", columns=["doc_id"])
    epoch = _dt.datetime(2024, 1, 1)

    def write_and_read(batch: pa.Table) -> pa.Table:
        ids, titles, authors, revs, createds = [], [], [], [], []
        for doc_id in batch.column("doc_id").to_pylist():
            title = f"Title {doc_id}"
            author = f"Author {doc_id % 7}"
            rev = doc_id % 10
            created = epoch + _dt.timedelta(seconds=doc_id)
            if doc_id % 2 == 0:
                buf = _io.BytesIO()
                with _zipfile.ZipFile(buf, "w") as zf:
                    zf.writestr("word/document.xml", "<w:document/>")
                    zf.writestr(
                        "docProps/core.xml",
                        "<cp:coreProperties>"
                        f"<dc:title>{title}</dc:title>"
                        f"<dc:creator>{author}</dc:creator>"
                        f"<cp:revision>{rev}</cp:revision>"
                        '<dcterms:created xsi:type="dcterms:W3CDTF">'
                        f"{created.strftime('%Y-%m-%dT%H:%M:%SZ')}"
                        "</dcterms:created></cp:coreProperties>")
                props = ooxml_core_properties(buf.getvalue())
            else:
                payload = build_doc(
                    ["body"], summary={"title": title,
                                       "author": author,
                                       "revision": rev,
                                       "created": created})
                props = ole2_summary_properties(payload)
            ids.append(doc_id)
            titles.append(props["title"])
            authors.append(props["author"])
            revs.append(props["revision"])
            createds.append(props["created"])
        return pa.table({
            "doc_id": pa.array(ids, pa.int64()),
            "title": pa.array(titles, pa.string()),
            "author": pa.array(authors, pa.string()),
            "revision": pa.array(revs, pa.string()),
            "created": pa.array(createds, pa.string()),
        })

    return ds.map_batches(write_and_read, batch_format="pyarrow",
                          batch_size=256)


def q_docs_gopher_quality(sf_dir: str):
    """Gopher document-quality rule suite (Rae et al. 2021 §A1.1,
    ``stages/text_ops.gopher_quality_flags``): word count, mean word
    length, symbol-to-word ratio, bullet/ellipsis line fractions,
    alphabetic-word fraction, stop-word count, and the composed keep
    decision — all Arrow-kernel vectorized and recomputed exactly in
    SQL (DuckDB list lambdas over the same RE2 ``\\s+`` split)."""
    from .stages.text_ops import gopher_quality_flags

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    return gopher_quality_flags(ds)


def q_docs_c4_quality(sf_dir: str):
    """C4 cleaning rule suite (Raffel et al. 2020 §2.2,
    ``stages/text_ops.c4_quality_flags``): line-level terminal-
    punctuation + min-word filtering, brace/lorem/javascript doc
    kills, and the keep decision — recomputed exactly in SQL."""
    from .stages.text_ops import c4_quality_flags

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    return c4_quality_flags(ds)


def q_docs_line_repetition(sf_dir: str):
    """Gopher line-level repetition signals
    (``stages/text_ops.line_repetition_flags``): duplicate-line
    fraction + duplicated-line character fraction per document,
    recomputed exactly in SQL via unnest + two-level grouping."""
    from .stages.text_ops import line_repetition_flags

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    return line_repetition_flags(ds)


def q_videos_mjpeg_frames(sf_dir: str):
    """Real compressed-video path end-to-end (the FAKEVID upgrade):
    every doc_id % 5 == 0 document becomes an MJPEG AVI
    (``extractor/codecs.avi_mjpeg_encode``) of k = doc_id%3+2
    solid-gray 24x16 frames, routed through the REAL stages —
    ``FrameSampleBatch`` (RIFF walk, stride 2) then
    ``decode_image_batch`` (baseline-JPEG decode). Solid grays roundtrip
    bit-exactly at q90 (DC-only blocks), so frame means are pure
    doc_id arithmetic."""
    from .stages.multimodal import FrameSampleBatch, decode_image_batch

    ds = _read(sf_dir, "documents", columns=["doc_id"])

    def build_avi(batch: pa.Table) -> pa.Table:
        from .extractor.codecs import avi_mjpeg_encode

        ids, media, mtype = [], [], []
        for doc_id in batch.column("doc_id").to_pylist():
            if doc_id % 5 != 0:
                continue
            k = doc_id % 3 + 2
            frames = [np.full((16, 24),
                              (doc_id * 7 + i * 31) % 256, np.uint8)
                      for i in range(k)]
            ids.append(doc_id)
            media.append(avi_mjpeg_encode(frames, fps=doc_id % 4 + 1,
                                          quality=90))
            mtype.append("video/avi")
        return pa.table({
            "id": pa.array(ids, pa.int64()),
            "media": pa.array(media, pa.binary()),
            "media_type": pa.array(mtype, pa.string()),
        })

    vids = ds.map_batches(build_avi, batch_format="pyarrow", batch_size=256)
    frames = vids.map_batches(FrameSampleBatch(stride=2),
                              batch_format="pyarrow", batch_size=64)
    decoded = frames.map_batches(decode_image_batch, batch_format="pyarrow",
                                 batch_size=64)

    def project(batch: pa.Table) -> pa.Table:
        meta = batch.column("media_meta")
        return pa.table({
            "doc_id": batch.column("id"),
            "frame_idx": pc.cast(batch.column("frame_idx"), pa.int64()),
            "width": pc.cast(pc.struct_field(meta, "width"), pa.int64()),
            "height": pc.cast(pc.struct_field(meta, "height"),
                              pa.int64()),
            "mean_intensity": pc.struct_field(meta, "mean_intensity"),
        })

    return decoded.map_batches(project, batch_format="pyarrow",
                               zero_copy_batch=True)


def q_pptx_chart_series(sf_dir: str):
    """M12 parity for BINARY payloads (pptx chart XML parts): every
    doc_id % 5 == 0 document is wrapped as a pptx zip carrying one
    DrawingML chart (barChart, title, one series over 3 categories with
    values derived from doc_id), routed through
    ``extractor.ooxml.pptx_chart_series`` and flattened to one row per
    data point. Cache points are written in SCRAMBLED idx order so the
    parser's idx sort is what the oracle checks, not writer luck.
    Oracled: values are pure doc_id arithmetic."""
    import io as _io
    import zipfile as _zipfile

    from .extractor.ooxml import pptx_chart_series

    ds = _read(sf_dir, "documents", columns=["doc_id"])

    def _pt(i: int, v) -> str:
        return f'<c:pt idx="{i}"><c:v>{v}</c:v></c:pt>'

    def wrap_and_parse(batch: pa.Table) -> pa.Table:
        ids, ct, ti, sn, cat, val = [], [], [], [], [], []
        for doc_id in batch.column("doc_id").to_pylist():
            if doc_id % 5 != 0:
                continue
            base = doc_id + 1
            cats = ["a", "b", "c"]
            vals = [base, 2 * base, 3 * base]
            # scrambled idx order: 1,2,0
            order = [1, 2, 0]
            cat_pts = "".join(_pt(i, cats[i]) for i in order)
            val_pts = "".join(_pt(i, vals[i]) for i in order)
            xml = (
                "<c:chartSpace><c:chart>"
                f"<c:title><a:t>Chart {doc_id}</a:t></c:title>"
                "<c:plotArea><c:barChart><c:ser>"
                '<c:tx><c:strRef><c:pt idx="0"><c:v>S1</c:v></c:pt>'
                "</c:strRef></c:tx>"
                f"<c:cat><c:strRef>{cat_pts}</c:strRef></c:cat>"
                f"<c:val><c:numRef><c:numCache>{val_pts}"
                "</c:numCache></c:numRef></c:val>"
                "</c:ser></c:barChart></c:plotArea>"
                "</c:chart></c:chartSpace>")
            buf = _io.BytesIO()
            with _zipfile.ZipFile(buf, "w") as zf:
                zf.writestr("ppt/presentation.xml", "<p:presentation/>")
                zf.writestr("ppt/charts/chart1.xml", xml)
            for s in pptx_chart_series(buf.getvalue()):
                for c, v in zip(s["categories"], s["values"]):
                    ids.append(doc_id)
                    ct.append(s["chart_type"])
                    ti.append(s["title"])
                    sn.append(s["series_name"])
                    cat.append(c)
                    val.append(v)
        return pa.table({
            "doc_id": pa.array(ids, pa.int64()),
            "chart_type": pa.array(ct, pa.string()),
            "title": pa.array(ti, pa.string()),
            "series_name": pa.array(sn, pa.string()),
            "cat": pa.array(cat, pa.string()),
            "val": pa.array(val, pa.float64()),
        })

    return ds.map_batches(wrap_and_parse, batch_format="pyarrow",
                          batch_size=256)


def q_docs_enhanced(sf_dir: str):
    """Enhancement actor pool (A2-A4 analog) with the graceful-
    degradation contract DuckDB-oracled: the deterministic
    fault-injection transform fails on len(text) % 7 == 3 rows, which
    must FALL BACK to their original text (never crash); all other rows
    carry the enhancement marker."""
    from .stages.enhance import EnhanceConfig, enhance_dataset

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    out = enhance_dataset(ds, EnhanceConfig(transform="flaky_prefix",
                                            pool_size=4))

    def project(batch: pa.Table) -> pa.Table:
        return pa.table({
            "doc_id": batch.column("doc_id").cast(pa.int64()),
            "text": batch.column("text"),
            "fell_back": batch.column("fell_back"),
            "enhance_error": batch.column("enhance_error"),
        })

    return out.map_batches(project, batch_format="pyarrow",
                           zero_copy_batch=True)


def q_media_decode_stats(sf_dir: str):
    """Multimodal plumbing: synth media -> decode task stage -> dim stats."""
    from ray.data.aggregate import Count, Mean

    from .stages.multimodal import (
        decode_image_batch,
        media_dataset_from_documents,
    )

    media = media_dataset_from_documents(sf_dir)
    decoded = media.map_batches(decode_image_batch, batch_format="pyarrow",
                                batch_size=64)

    def flatten(batch: pa.Table) -> pa.Table:
        metas = batch.column("media_meta").to_pylist()
        return pa.table({
            "width": pa.array([m["width"] for m in metas], pa.int32()),
            "height": pa.array([m["height"] for m in metas], pa.int32()),
            "ok": pa.array([e == "" for e in
                            batch.column("decode_error").to_pylist()]),
        })

    flat = decoded.map_batches(flatten, batch_format="pyarrow")
    return flat.groupby("ok").aggregate(Count(alias_name="n_media"),
                                        Mean("width", alias_name="avg_width"),
                                        Mean("height", alias_name="avg_height"))


def q_video_frame_stats(sf_dir: str):
    """Multimodal frame-sample plumbing: synthetic videos -> every-2nd
    frame exploded to rows -> decode -> per-video rollup. Oracled: the
    generator's frame counts/dims are arithmetic in doc_id."""
    from ray.data.aggregate import Count, Max

    from .stages.multimodal import (
        FrameSampleBatch,
        decode_image_batch,
        video_dataset_from_documents,
    )

    vids = video_dataset_from_documents(sf_dir)
    frames = vids.map_batches(FrameSampleBatch(), batch_format="pyarrow",
                              batch_size=32)
    decoded = frames.map_batches(decode_image_batch, batch_format="pyarrow",
                                 batch_size=64)

    def project(batch: pa.Table) -> pa.Table:
        metas = batch.column("media_meta").to_pylist()
        return pa.table({
            "doc_id": batch["id"],
            "width": pa.array([m["width"] for m in metas], pa.int64()),
            "height": pa.array([m["height"] for m in metas], pa.int64()),
        })

    flat = decoded.map_batches(project, batch_format="pyarrow")
    return flat.groupby("doc_id").aggregate(
        Count(alias_name="n_sampled"),
        Max("width", alias_name="frame_w"),
        Max("height", alias_name="frame_h"))


def q_audio_durations(sf_dir: str):
    """Multimodal audio feature plumbing: FAKEAUD -> duration/RMS/ZCR
    features; durations oracled (arithmetic in doc_id), RMS/ZCR covered
    by determinism tests."""
    from .stages.multimodal import (
        audio_dataset_from_documents,
        audio_feature_batch,
    )

    aud = audio_dataset_from_documents(sf_dir)
    feats = aud.map_batches(audio_feature_batch, batch_format="pyarrow",
                            batch_size=64)

    def project(batch: pa.Table) -> pa.Table:
        return pa.table({"doc_id": batch["id"],
                         "duration_s": batch["duration_s"]})

    return feats.map_batches(project, batch_format="pyarrow")


def q_images_real_decode(sf_dir: str):
    """REAL image decode (PNG via zlib inflate+unfilter, BMP row walk,
    GIF LZW — extractor/codecs.py, no PIL): solid-color synthesis keeps
    width / height / channels / mean intensity arithmetic in doc_id, so
    the whole decode path is value-oracled against DuckDB."""
    from .stages.multimodal import (
        decode_image_batch,
        real_media_dataset_from_documents,
    )

    media = real_media_dataset_from_documents(sf_dir)
    decoded = media.map_batches(decode_image_batch, batch_format="pyarrow",
                                batch_size=64)

    def project(batch: pa.Table) -> pa.Table:
        metas = batch.column("media_meta").to_pylist()
        return pa.table({
            "doc_id": batch["id"],
            "container": batch["media_type"],
            "width": pa.array([m["width"] for m in metas], pa.int64()),
            "height": pa.array([m["height"] for m in metas], pa.int64()),
            "channels": pa.array([m["channels"] for m in metas],
                                 pa.int64()),
            "mean_intensity": pa.array(
                [m["mean_intensity"] for m in metas], pa.float64()),
        })

    return decoded.map_batches(project, batch_format="pyarrow")


def q_images_real_resize(sf_dir: str):
    """Resize REAL payloads to 10x10 PNG thumbnails and decode them
    back — oracles the PNG ENCODER (and the nearest-neighbor resample)
    end to end: a solid-color source stays solid through
    resample -> png_encode -> png_decode."""
    from .stages.multimodal import (
        ResizeImageBatch,
        decode_image_batch,
        real_media_dataset_from_documents,
    )

    media = real_media_dataset_from_documents(sf_dir)
    thumbs = media.map_batches(ResizeImageBatch(target_w=10, target_h=10),
                               batch_format="pyarrow", batch_size=64)
    decoded = thumbs.map_batches(decode_image_batch, batch_format="pyarrow",
                                 batch_size=64)

    def project(batch: pa.Table) -> pa.Table:
        metas = batch.column("media_meta").to_pylist()
        return pa.table({
            "doc_id": batch["id"],
            "thumb_w": pa.array([m["width"] for m in metas], pa.int64()),
            "thumb_h": pa.array([m["height"] for m in metas], pa.int64()),
            "mean_intensity": pa.array(
                [m["mean_intensity"] for m in metas], pa.float64()),
        })

    return decoded.map_batches(project, batch_format="pyarrow")


def q_images_jpeg_decode(sf_dir: str):
    """REAL baseline-JPEG decode (extractor/codecs.py: huffman + dequant
    + IDCT + YCbCr, 4:4:4 and 4:2:0): dimensions and channel count are
    exact and oracled; the lossy pixel path is pinned by pytest
    tolerance tests and an in-query intensity sanity column
    (mean_intensity_err = |decoded - synthesized| rounded DOWN to
    integer tolerance bands, 0 for every row when the codec is sane)."""
    from .stages.multimodal import (
        decode_image_batch,
        jpeg_dataset_from_documents,
    )

    media = jpeg_dataset_from_documents(sf_dir)
    decoded = media.map_batches(decode_image_batch, batch_format="pyarrow",
                                batch_size=64)

    def project(batch: pa.Table) -> pa.Table:
        metas = batch.column("media_meta").to_pylist()
        ids = batch.column("id").to_pylist()
        errs = []
        for d, m in zip(ids, metas):
            want = ((d * 11) % 256 + (d * 17) % 256 + (d * 23) % 256) / 3.0
            # integer error band: 0 when within 1.5 intensity levels
            errs.append(int(abs(m["mean_intensity"] - want) // 1.5))
        return pa.table({
            "doc_id": batch["id"],
            "width": pa.array([m["width"] for m in metas], pa.int64()),
            "height": pa.array([m["height"] for m in metas], pa.int64()),
            "channels": pa.array([m["channels"] for m in metas],
                                 pa.int64()),
            "mean_intensity_err": pa.array(errs, pa.int64()),
        })

    return decoded.map_batches(project, batch_format="pyarrow")


def q_images_jpeg_quality(sf_dir: str):
    """JPEG quality-factor estimation (extractor/codecs.py
    jpeg_quality_estimate, header-only marker scan): payloads encoded
    at 35 + (doc_id % 13) * 5 must give back exactly that number from
    the quant-table bytes alone — the web-image curation signal
    (recompression detection / thumbnail filtering) oracled end to end
    through encode → marker walk → IJG-formula inversion."""
    from .stages.multimodal import (
        jpeg_dataset_from_documents,
        jpeg_quality_batch,
    )

    media = jpeg_dataset_from_documents(sf_dir, varied_quality=True)
    return media.map_batches(jpeg_quality_batch, batch_format="pyarrow",
                             batch_size=64)


def q_audio_wav_features(sf_dir: str):
    """REAL RIFF/WAVE decode (extractor/codecs.py): square-wave synthesis
    makes duration, RMS (= amplitude exactly) and zero-crossing rate
    arithmetic in doc_id — full value oracle over the WAV codec."""
    from .stages.multimodal import (
        audio_feature_batch,
        wav_dataset_from_documents,
    )

    aud = wav_dataset_from_documents(sf_dir)
    feats = aud.map_batches(audio_feature_batch, batch_format="pyarrow",
                            batch_size=64)

    def project(batch: pa.Table) -> pa.Table:
        return pa.table({"doc_id": batch["id"],
                         "duration_s": batch["duration_s"],
                         "rms": batch["rms"],
                         "zcr": batch["zcr"]})

    return feats.map_batches(project, batch_format="pyarrow")


def q_lineitem_corr(sf_dir: str):
    """Grouped Pearson correlation (quantity vs price per returnflag):
    map-side sufficient-statistic combiner — six doubles per (block,
    group) through the shuffle, never the raw rows."""
    from .stages.stats import grouped_corr

    ds = _read(sf_dir, "lineitem",
               columns=["l_returnflag", "l_quantity", "l_extendedprice"])
    return grouped_corr(ds, "l_returnflag", "l_quantity",
                        "l_extendedprice", out_col="corr_qty_price")


def q_events_cohort_retention(sf_dir: str):
    """Weekly cohort retention: distinct active users per
    (first-event week, weeks-since-first) cell. One shuffle on the
    user key; per-bucket vectorized pandas; tiny groupby-sum combine."""
    from .stages.stats import cohort_retention

    ds = _read(sf_dir, "events", columns=["user_id", "ts"])
    return cohort_retention(ds, "user_id", "ts")


def q_events_props_stats(sf_dir: str):
    """JSON metadata-column extraction: pull props.k with a vectorized
    Arrow regex (pc.extract_regex — no per-row json.loads), aggregate
    per event type. The webtext shape: crawl sidecar metadata lives in
    JSON string columns; parse stays columnar."""
    from ray.data.aggregate import Count, Mean, Sum

    ds = _read(sf_dir, "events", columns=["event_type", "props"])

    def parse(batch: pa.Table) -> pa.Table:
        m = pc.extract_regex(batch["props"], r'"k":\s*(?P<k>-?\d+)')
        k = pc.cast(pc.struct_field(m, "k"), pa.int64())
        return pa.table({"event_type": batch["event_type"], "k": k})

    agg = (ds.map_batches(parse, batch_format="pyarrow",
                          zero_copy_batch=True)
           .groupby("event_type")
           .aggregate(Count(alias_name="n_events"),
                      Sum("k", alias_name="sum_k"),
                      Mean("k", alias_name="avg_k")))

    def finish(b: pa.Table) -> pa.Table:
        # Ray's Sum over a nullable int column yields double — pin the
        # oracle's BIGINT type.
        i = b.schema.get_field_index("sum_k")
        b = b.set_column(i, "sum_k", pc.cast(b.column("sum_k"), pa.int64()))
        return _round_cols(b, ["avg_k"], 6)

    return agg.map_batches(finish, batch_format="pyarrow")


def q_docs_tfidf_top3(sf_dir: str):
    """Top-3 TF-IDF terms per document: local tf, shuffled df partials,
    bucketed term join (never a vocabulary broadcast), grouped top-k."""
    from .stages.stats import tfidf_top_terms

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    return tfidf_top_terms(ds, k=3)


def q_orders_priority_mode(sf_dir: str):
    """Modal order priority per customer: composite groupby collapse,
    then grouped top-1 over the tiny counts table (ties -> smallest
    value, pinned in both engines)."""
    from .stages.window import grouped_mode

    ds = _read(sf_dir, "orders", columns=["o_custkey", "o_orderpriority"])
    return grouped_mode(ds, "o_custkey", "o_orderpriority")


def q_lineitem_cube(sf_dir: str):
    """GROUP BY CUBE(returnflag, linestatus): all four subset levels
    from ONE finest-granularity shuffle."""
    from .stages.cube import cube_agg

    ds = _read(sf_dir, "lineitem",
               columns=["l_returnflag", "l_linestatus", "l_quantity"])
    return cube_agg(ds, ["l_returnflag", "l_linestatus"], "l_quantity",
                    sum_alias="sum_qty", count_alias="n")


def q_events_hourly_dense(sf_dir: str):
    """Dense hourly event counts per type — missing hours zero-filled
    over the global span (time-series densification)."""
    from .stages.cube import gapfill_hourly

    ds = _read(sf_dir, "events", columns=["event_type", "ts"])
    return gapfill_hourly(ds, "ts", "event_type")


def q_docs_corpus_prep(sf_dir: str):
    """Composed training-corpus preparation capstone: exact dedup ->
    langid -> quality filter -> near-dup removal, one chained Dataset
    pipeline (pipelines/corpus_prep.py). Non-SQL (heuristic scorers +
    MinHash) — consistency-tested against its component stages."""
    from .pipelines.corpus_prep import corpus_prep

    docs = _read(sf_dir, "documents", columns=["doc_id", "text"])
    out = corpus_prep(docs)
    return out.select_columns(["doc_id", "text_hash", "lang_pred",
                               "lang_conf", "n_tokens", "quality"])


def q_events_prev_gap(sf_dir: str):
    """LAG window: microseconds since the user's previous event (null
    for each user's first). One bucketed shuffle, vectorized shift."""
    from .stages.window import grouped_lag_gap

    ds = _read(sf_dir, "events", columns=["event_id", "ts", "user_id"])
    out = grouped_lag_gap(ds, "user_id", "ts", ["event_id"])

    def to_us(batch: pa.Table) -> pa.Table:
        gap_us = pc.cast(pc.round(pc.multiply(batch["gap_s"], 1e6)),
                         pa.int64())
        return pa.table({"event_id": batch["event_id"],
                         "ts": batch["ts"],
                         "user_id": batch["user_id"],
                         "gap_us": gap_us})

    return out.map_batches(to_us, batch_format="pyarrow",
                           zero_copy_batch=True)


def q_orders_price_ntile(sf_dir: str):
    """NTILE(4) price quartile per order status (SQL uneven-tile
    semantics: first size%n tiles one row larger)."""
    from .stages.window import grouped_ntile

    ds = _read(sf_dir, "orders",
               columns=["o_orderkey", "o_orderstatus", "o_totalprice"])
    return grouped_ntile(ds, "o_orderstatus",
                         ["o_totalprice", "o_orderkey"], 4)


def q_orders_monthly_growth(sf_dir: str):
    """Month-over-month revenue growth: one month-truncated groupby
    collapses the raw rows; the growth LAG runs on that tiny table."""
    ds = _read(sf_dir, "orders", columns=["o_orderdate", "o_totalprice"])

    def to_month(batch: pa.Table) -> pa.Table:
        return pa.table({
            "month": pc.floor_temporal(batch["o_orderdate"], unit="month"),
            "price": batch["o_totalprice"],
        })

    from ray.data.aggregate import Sum

    monthly = (ds.map_batches(to_month, batch_format="pyarrow",
                              zero_copy_batch=True)
               .groupby("month").aggregate(Sum("price", alias_name="revenue"))
               .to_pandas().sort_values("month").reset_index(drop=True))
    monthly["revenue"] = monthly["revenue"].round(2)
    monthly["growth"] = (monthly["revenue"]
                         / monthly["revenue"].shift() - 1).round(6)
    return pa.Table.from_pandas(monthly, preserve_index=False)


def q_lineitem_unpivot(sf_dir: str):
    """UNPIVOT (wide -> long): the melt companion of orders_status_pivot.
    Pure per-batch Arrow reshape — column replication + concat, zero
    shuffle, streaming-friendly at any scale."""
    ds = _read(sf_dir, "lineitem",
               columns=["l_orderkey", "l_linenumber", "l_quantity",
                        "l_extendedprice", "l_discount"])

    def melt(batch: pa.Table) -> pa.Table:
        parts = []
        for metric in ("l_quantity", "l_extendedprice", "l_discount"):
            parts.append(pa.table({
                "l_orderkey": batch["l_orderkey"],
                "l_linenumber": batch["l_linenumber"],
                "metric": pa.array([metric] * batch.num_rows, pa.string()),
                "value": pc.cast(batch[metric], pa.float64()),
            }))
        return pa.concat_tables(parts)

    return ds.map_batches(melt, batch_format="pyarrow",
                          zero_copy_batch=True)


def q_customers_no_events(sf_dir: str):
    """SQL EXCEPT (set difference): customers who never generated an
    event — one bucketed anti join shipping only the event keys.
    c_custkey is the customer table's primary key, so the anti join's
    rows are already the EXCEPT's distinct set."""
    from .stages.joins import hash_join

    cust = _read(sf_dir, "customer", columns=["c_custkey"])
    ev = _read(sf_dir, "events", columns=["user_id"])
    return hash_join(cust, ev, "c_custkey", "user_id", how="anti")


def q_events_hopping_15m(sf_dir: str):
    """Generalized hopping-window aggregate (1-hour window, 15-minute
    slide -> each event in k=4 windows). Unlike q_events_sliding's
    k=2 phase-shift (which replicates every ROW twice through the
    shuffle), hopping_window_agg collapses each batch to per-slide-slot
    partials FIRST and replicates only those — the shuffle carries
    O(k x occupied slots), not O(k x rows)."""
    from .stages.cube import hopping_window_agg

    ds = _read(sf_dir, "events", columns=["ts", "value"])
    return hopping_window_agg(ds, "ts", window_s=3600, slide_s=900,
                              value_col="value",
                              count_alias="n", sum_alias="sum_value")


def q_orders_left_join_coverage(sf_dir: str):
    """LEFT OUTER bucketed hash join: every order decorated with the
    (filtered) customer side; unmatched rows keep typed nulls (``take``
    on a null row index). Aggregated to match coverage per order
    status — per-batch partials, tiny groupby-sum."""
    from ray.data.aggregate import Sum

    from .stages.joins import hash_join

    orders = _read(sf_dir, "orders",
                   columns=["o_orderkey", "o_custkey", "o_orderstatus"])
    cust = _read(sf_dir, "customer", columns=["c_custkey", "c_nationkey"])

    def near_nations(batch: pa.Table) -> pa.Table:
        keep = pc.less(batch["c_nationkey"], pa.scalar(5))
        return batch.filter(keep)

    cust = cust.map_batches(near_nations, batch_format="pyarrow",
                            zero_copy_batch=True)
    joined = hash_join(orders, cust, "o_custkey", "c_custkey", how="left")

    def partial(batch: pa.Table) -> pa.Table:
        df = pd.DataFrame({
            "o_orderstatus": batch["o_orderstatus"].to_pandas(),
            "m": pc.is_valid(batch["c_nationkey"]).to_pandas().astype(
                "int64"),
        })
        g = df.groupby("o_orderstatus")["m"]
        out = pd.DataFrame({"__n": g.count(), "__m": g.sum()})
        return pa.Table.from_pandas(out.reset_index(),
                                    preserve_index=False)

    return (joined.map_batches(partial, batch_format="pyarrow")
            .groupby("o_orderstatus")
            .aggregate(Sum("__n", alias_name="n_orders"),
                       Sum("__m", alias_name="n_matched")))


def q_lineitem_price_quantiles_approx(sf_dir: str):
    """Scale path for quantiles: mergeable per-block order-statistic
    sketch (stages/sketches.py) — O(256 x blocks) bytes through the
    driver, never a per-group full sort. Rows-only (approximation has
    no exact SQL twin); accuracy vs the exact quantiles is pinned by
    tests/test_sketches.py."""
    from .stages.sketches import approx_quantiles

    ds = _read(sf_dir, "lineitem", columns=["l_extendedprice"])
    q25, q50, q75, q90 = approx_quantiles(
        ds, "l_extendedprice", [0.25, 0.5, 0.75, 0.9])
    return pd.DataFrame({
        "q25": [round(q25, 1)], "q50": [round(q50, 1)],
        "q75": [round(q75, 1)], "q90": [round(q90, 1)],
    })


def q_order_keys_intersect(sf_dir: str):
    """SQL INTERSECT: order keys that appear in BOTH orders and
    lineitem — completes the set-ops family (union/EXCEPT already
    covered). One bucketed semi join whose right side ships only its
    per-batch distinct keys; o_orderkey is the orders table's primary
    key, so the semi join's rows are already the INTERSECT's distinct
    set."""
    from .stages.joins import hash_join

    orders = _read(sf_dir, "orders", columns=["o_orderkey"])
    items = _read(sf_dir, "lineitem", columns=["l_orderkey"])
    return hash_join(orders, items, "o_orderkey", "l_orderkey", how="semi")


def q_orders_date_dense_rank(sf_dir: str):
    """DENSE_RANK over a heavily tied column (order dates per
    priority): ties share a rank with no gaps, so no tiebreak column is
    needed for determinism — the window-function case row_number can't
    express."""
    from .stages.window import grouped_dense_rank

    ds = _read(sf_dir, "orders",
               columns=["o_orderkey", "o_orderpriority", "o_orderdate"])
    return grouped_dense_rank(ds, "o_orderpriority", "o_orderdate",
                              out_col="date_rank")


def q_events_rolling_mean(sf_dir: str):
    """Frame-bounded moving average (ROWS BETWEEN 3 PRECEDING AND
    CURRENT ROW) of event value per user in time order — left-
    associated frame summation so the floats cross-check against the
    SQL window oracle after rounding."""
    from .stages.window import grouped_rolling_mean

    ds = _read(sf_dir, "events", columns=["user_id", "ts", "value"])
    return grouped_rolling_mean(ds, "user_id", ["ts"], "value",
                                window=4, out_col="rm4")


def q_events_type_approx_distinct(sf_dir: str):
    """Grouped HLL: approximate distinct users per event type — the
    scale twin of the exact events_type_distinct_users (which shuffles
    every (type, user) pair; this ships one 4 KiB register row per
    (type, batch)). Rows-only: approximate by construction; accuracy
    pinned by tests."""
    from .stages.sketches import grouped_approx_distinct

    ds = _read(sf_dir, "events", columns=["event_type", "user_id"])
    return grouped_approx_distinct(ds, "event_type", "user_id")


def q_events_top_users(sf_dir: str):
    """Approximate heavy hitters (Misra-Gries summary): top-10 users by
    event count WITHOUT a full distinct-key shuffle — each batch emits
    <= k_cap bounded counters. With k_cap (500) >= the table's distinct
    user count the summary is provably exact, so the oracle is the
    exact SQL top-10 (ties broken by user_id, same rule both sides);
    the compression path is exercised by tests/test_hopping_sampling.py."""
    from .stages.sketches import heavy_hitters

    ds = _read(sf_dir, "events", columns=["user_id"])
    return heavy_hitters(ds, "user_id", top=10)


def q_orders_priority_revenue_share(sf_dir: str):
    """Ratio-to-report: each priority's share of total revenue (a
    window-over-aggregate — SUM(SUM(x)) OVER ()). One shuffle produces
    the tiny per-priority table; the share is computed on that result,
    never a second raw pass."""
    from ray.data.aggregate import Sum

    ds = _read(sf_dir, "orders",
               columns=["o_orderpriority", "o_totalprice"])
    per = (ds.groupby("o_orderpriority")
           .aggregate(Sum("o_totalprice", alias_name="revenue"))
           .to_pandas())
    total = per["revenue"].sum()
    # share from UNROUNDED sums (the ratio of two ~equal-magnitude
    # doubles is stable to ~1e-15 across engines; rounding first would
    # amplify banker's-vs-half-away rounding differences)
    per["share"] = (per["revenue"] / total).round(6)
    per["revenue"] = per["revenue"].round(2)
    return per


def q_orders_customer_full_join(sf_dir: str):
    """FULL OUTER bucketed hash join: per-customer order counts joined
    both ways against a filtered customer dim — left-only rows are
    customers with orders outside the filter, right-only rows are
    filtered customers with no orders. Result reduced to the three
    coverage counts (single row, oracle-exact)."""
    from ray.data.aggregate import Count, Sum

    from .stages.joins import hash_join

    orders = _read(sf_dir, "orders", columns=["o_custkey"])
    per_cust = (orders.groupby("o_custkey")
                .aggregate(Count(alias_name="n_orders")))
    cust = _read(sf_dir, "customer", columns=["c_custkey", "c_nationkey"])

    def low_nations(batch: pa.Table) -> pa.Table:
        return batch.filter(pc.less(batch["c_nationkey"], pa.scalar(10)))

    cust = cust.map_batches(low_nations, batch_format="pyarrow",
                            zero_copy_batch=True)
    joined = hash_join(per_cust, cust, "o_custkey", "c_custkey", how="outer")

    def partial(batch: pa.Table) -> pa.Table:
        lo = pc.is_null(batch["c_nationkey"]).to_numpy(
            zero_copy_only=False)
        ro = pc.is_null(batch["n_orders"]).to_numpy(zero_copy_only=False)
        return pa.table({
            "__n": pa.array([batch.num_rows], pa.int64()),
            "__lo": pa.array([int(lo.sum())], pa.int64()),
            "__ro": pa.array([int(ro.sum())], pa.int64()),
        })

    parts = (joined.map_batches(partial, batch_format="pyarrow")
             .to_pandas())
    return pd.DataFrame({
        "n_rows": [int(parts["__n"].sum())],
        "n_left_only": [int(parts["__lo"].sum())],
        "n_right_only": [int(parts["__ro"].sum())],
    })


def q_lineitem_self_composite(sf_dir: str):
    """Composite-key (multi-column ON clause) bucketed join: lineitem
    decorated with the price of its own expensive twin on the
    (l_orderkey, l_linenumber) primary key — the bucket is a
    splitmix-combined stable hash of BOTH key columns."""
    from .stages.joins import hash_join

    left = _read(sf_dir, "lineitem",
                 columns=["l_orderkey", "l_linenumber", "l_quantity"])
    right = _read(sf_dir, "lineitem",
                  columns=["l_orderkey", "l_linenumber",
                           "l_extendedprice"])

    def expensive(batch: pa.Table) -> pa.Table:
        return batch.filter(pc.greater(batch["l_extendedprice"],
                                       pa.scalar(50_000.0)))

    right = right.map_batches(expensive, batch_format="pyarrow",
                              zero_copy_batch=True)
    return hash_join(left, right, ["l_orderkey", "l_linenumber"])


def q_events_user_value_quantiles(sf_dir: str):
    """Per-user approximate value quantiles via the mergeable sketch —
    the high-cardinality grouped-quantile path (per-key sketch rows
    through the shuffle, never a per-key full sort). Rows-only:
    approximate by construction; rank-error pinned by tests."""
    from .stages.sketches import grouped_approx_quantiles

    ds = _read(sf_dir, "events", columns=["user_id", "value"])
    return grouped_approx_quantiles(ds, "user_id", "value", [0.5, 0.9])


def q_lineitem_regression(sf_dir: str):
    """Grouped least-squares fit (price on quantity per returnflag):
    REGR_SLOPE / REGR_INTERCEPT via the sufficient-statistic combiner —
    five doubles per (block, group) through the shuffle."""
    from .stages.stats import grouped_regression

    ds = _read(sf_dir, "lineitem",
               columns=["l_returnflag", "l_quantity", "l_extendedprice"])
    return grouped_regression(ds, "l_returnflag", "l_quantity",
                              "l_extendedprice")


def q_lineitem_skew_kurt(sf_dir: str):
    """Grouped sample skewness + excess kurtosis (quantity per
    returnflag): power-sum combiner (n, Σx..Σx⁴) — five doubles per
    (block, group) through the shuffle; G1/G2 bias corrections on the
    tiny combined table (matches DuckDB skewness()/kurtosis())."""
    from .stages.stats import grouped_skew_kurt

    ds = _read(sf_dir, "lineitem",
               columns=["l_returnflag", "l_quantity"])
    return grouped_skew_kurt(ds, "l_returnflag", "l_quantity")


def q_lineitem_mad(sf_dir: str):
    """Grouped exact median + median-absolute-deviation per returnflag:
    ONE bucketed key shuffle, cython groupby.median per bucket (the
    exact path; grouped_approx_quantiles is the 10^12-row sketch twin)."""
    from .stages.stats import grouped_mad

    ds = _read(sf_dir, "lineitem",
               columns=["l_returnflag", "l_extendedprice"])
    return grouped_mad(ds, "l_returnflag", "l_extendedprice")


def q_events_first_last_value(sf_dir: str):
    """Per-user first and last event value in time order (SQL
    arg_min/arg_max): map-side combiner reduces each batch to one row
    per (user, batch) — O(users x blocks) rows through the shuffle."""
    from .stages.stats import grouped_first_last

    ds = _read(sf_dir, "events", columns=["user_id", "ts", "value"])
    return grouped_first_last(ds, "user_id", "ts", "value")


def q_orders_price_cumedist(sf_dir: str):
    """CUME_DIST of order price within each priority (bucketed shuffle,
    vectorized max-rank/size per bucket; ties allowed — max-rank makes
    the output deterministic without a tiebreak column)."""
    from .stages.window import grouped_cume_dist

    ds = _read(sf_dir, "orders",
               columns=["o_orderkey", "o_orderpriority", "o_totalprice"])
    return grouped_cume_dist(ds, "o_orderpriority", "o_totalprice",
                             out_col="cd")


def q_orders_date_rank(sf_dir: str):
    """SQL RANK (ties share the min rank, gaps allowed) over heavily
    tied order dates per priority — completes the rank-family surface
    (row_number / rank / dense_rank / percent_rank / cume_dist /
    ntile)."""
    from .stages.window import grouped_rank

    ds = _read(sf_dir, "orders",
               columns=["o_orderkey", "o_orderpriority", "o_orderdate"])
    return grouped_rank(ds, "o_orderpriority", "o_orderdate",
                        out_col="date_rank")


def q_events_value_ewma(sf_dir: str):
    """Per-user exponentially weighted moving average of event values
    in time order (α=0.3, recursive/adjust=False form). Rows-only: the
    recurrence isn't SQL-expressible without recursive CTEs; exactness
    pinned by an explicit-loop unit test. ONE bucketed shuffle, cython
    grouped-EWM kernel per bucket."""
    from .stages.window import grouped_ewma

    ds = _read(sf_dir, "events", columns=["user_id", "ts", "value"])
    return grouped_ewma(ds, "user_id", ["ts"], "value", alpha=0.3)


def q_embeddings_kmeans(sf_dir: str):
    """Distributed Lloyd's k-means over the full embedding table
    (k=8): per-iteration broadcast centroids + map-side (cluster,
    vec_sum, n) partials — driver holds only k x d floats. Rows-only:
    iterative clustering isn't SQL-expressible; determinism and
    planted-blob recovery pinned by unit tests. Output = the final
    (vec_id, cluster) assignment."""
    from .stages.embed import kmeans_fit_ds, kmeans_assign

    ds = _read(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    cent = kmeans_fit_ds(ds, k=8, n_iter=15)
    return kmeans_assign(ds, cent)


def q_embeddings_semdedup(sf_dir: str):
    """SemDeDup (Abbas et al. 2023): k-means-bucketed semantic dedup —
    within-cluster cosine >= 0.92 pairs form components, min-id member
    survives. Rows-only: k-means bucketing isn't SQL-expressible;
    planted-twin recovery pinned by unit test. Output = surviving
    (vec_id) rows, sorted."""
    from .stages.embed import semdedup

    ds = _read(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    return semdedup(ds, k=8, threshold=0.92, n_iter=10).select_columns(
        ["vec_id"])


def q_docs_decontaminated(sf_dir: str):
    """Benchmark decontamination: drop every document whose text
    contains the 40-char prefix of any 'benchmark' doc (deterministic
    stand-in set: doc_id % 97 == 0 with >= 40 chars). Needle set is
    broadcast once; the filter is a pure per-batch match_substring —
    no shuffle."""
    import pyarrow.parquet as pq

    from .stages.text_ops import decontaminate

    bench = pq.read_table(os.path.join(sf_dir, "documents.parquet"),
                          columns=["doc_id", "text"])
    needles = [t[:40] for i, t in zip(bench.column("doc_id").to_pylist(),
                                      bench.column("text").to_pylist())
               if i % 97 == 0 and t is not None and len(t) >= 40]
    ds = _read(sf_dir, "documents", columns=["doc_id", "lang", "text"])
    return decontaminate(ds, needles).select_columns(["doc_id", "lang"])


def q_docs_bpe_token_count(sf_dir: str):
    """Per-doc LM-token-budget estimate: whitespace tokens vs BPE-ish
    pre-tokenizer pieces (letter/digit/punct runs, RE2 pattern shared
    verbatim with the DuckDB oracle). One streaming pass, all-Arrow."""
    from .functions.text_stats import (bpe_token_count_arrays,
                                       token_count_arrays)

    def stats(batch: pa.Table) -> pa.Table:
        texts = batch.column("text")
        return pa.table({
            "doc_id": batch.column("doc_id"),
            "n_ws_tokens": pc.cast(token_count_arrays(texts), pa.int64()),
            "n_bpe_tokens": bpe_token_count_arrays(texts),
        })

    return _read(sf_dir, "documents", columns=["doc_id", "text"]) \
        .map_batches(stats, batch_format="pyarrow", zero_copy_batch=True)


def q_docs_exact_substring_dedup(sf_dir: str):
    """ExactSubstr rewrite (Lee et al. 2022): every duplicated word
    8-gram span is removed from every document (all occurrences,
    overlaps merged into maximal spans via interval cover); output one
    row per doc with the cleaned text and the removed-token count.
    Token-scale slim explode + two 16/24-byte-row shuffles; the text
    payload moves exactly once (the final lookup decorate join)."""
    from .stages.fuzzy_dedup import exact_substring_dedup

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    return exact_substring_dedup(ds, "text", "doc_id", n=8)


def q_docs_exact_substring_keepfirst(sf_dir: str):
    """ExactSubstr keep-one rewrite: like docs_exact_substring_dedup
    but the lexicographically first (doc_id, pos) occurrence of each
    duplicated 8-gram survives — exactly one copy of a repeated span
    stays in the corpus (the paper's remove-all-but-one semantic)."""
    from .stages.fuzzy_dedup import exact_substring_dedup

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    return exact_substring_dedup(ds, "text", "doc_id", n=8,
                                 keep_first=True)


def q_docs_dup_ngrams(sf_dir: str):
    """Exact duplicate word-8-gram spans across documents (the n-gram
    approximation of suffix-array substring dedup): slim (ghash,
    doc_id) explode, bucketed >= 2-docs filter, doc_id count — both
    shuffles move 16-byte rows. Output: (doc_id, n_dup_ngrams) for
    docs sharing at least one 8-gram with another doc."""
    from .stages.fuzzy_dedup import dup_ngram_counts

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    return dup_ngram_counts(ds, n=8)


def q_docs_decontaminate(sf_dir: str):
    """GPT-3-style 13-gram benchmark decontamination (Brown et al. 2020
    appendix C): flag train docs sharing any word-13-gram with an eval
    set. The eval set is planted deterministically so the overlap is
    non-trivial and DuckDB can mirror it: docs with doc_id % 7 == 0
    contribute tokens 4..40 (1-based, single-space split with empties
    dropped) as an eval snippet. Output: (doc_id, n_contaminated) —
    per train doc, its count of distinct 13-grams found in the eval
    set. Scale shape: the eval side broadcasts (benchmarks are MBs vs
    a 100 TB corpus); the train corpus is never shuffled."""
    from .stages.fuzzy_dedup import contamination_counts

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])

    def make_eval(batch: "pa.Table") -> "pa.Table":
        ids = batch.column("doc_id").to_numpy(zero_copy_only=False)
        keep = ids % 7 == 0
        texts = batch.column("text").to_pylist()
        out_t = [" ".join([x for x in (texts[i] or "").split(" ")
                           if x][3:40])
                 for i in np.flatnonzero(keep)]
        return pa.table({"doc_id": pa.array(ids[keep].astype(np.int64)),
                         "text": pa.array(out_t, pa.string())})

    eval_ds = ds.map_batches(make_eval, batch_format="pyarrow",
                             zero_copy_batch=True)
    return contamination_counts(ds, eval_ds, n=13)


_STRAT_RATES = {"click": 0.5, "view": 0.25, "purchase": 1.0,
                "signup": 0.125, "error": 0.0625}


def q_events_stratified_sample(sf_dir: str):
    """Per-stratum deterministic hash sample: keep an event iff
    md5(event_id) prefix clears its event_type's rate threshold
    (floor convention — bit-identical to the SQL CASE oracle). Pure
    per-batch filter, stable under repartitioning."""
    from .stages.sampling import stratified_hash_sample

    ds = _read(sf_dir, "events",
               columns=["event_id", "event_type", "user_id"])
    return stratified_hash_sample(ds, "event_id", "event_type",
                                  _STRAT_RATES)


def q_docs_mixture_resample(sf_dir: str):
    """Domain-mixture resampling toward a UNIFORM language mix:
    stage 1 is a metadata-sized lang count (groupby on a dimension
    key), stage 2 derives per-lang keep rates (total/|langs|/count,
    floor-threshold convention) and hash-filters — counts shuffle is
    O(langs), the filter is per-batch. The training-data 'rebalance
    the corpus composition' primitive."""
    from .stages.sampling import (stratified_hash_sample,
                                  uniform_mixture_rates)

    counts_ds = (_read(sf_dir, "documents", columns=["lang"])
                 .groupby("lang").count())
    counts = {r["lang"]: int(r["count()"]) for r in counts_ds.take_all()}
    rates = uniform_mixture_rates(counts)
    ds = _read(sf_dir, "documents", columns=["doc_id", "lang"])
    return stratified_hash_sample(ds, "doc_id", "lang", rates)


def q_docs_mixture_quota(sf_dir: str):
    """Token-budget mixture assembly: per source, take documents in
    md5(doc_id) order until the source's token quota fills (even
    sources get 600 tokens, odd 300 — arithmetic in the source name so
    the oracle reproduces it). One bucketed exchange over the uniform
    hash range (``grouped_prefix_sum``) + a stateless quota filter;
    text never moves past the token count."""
    from .functions.text_stats import token_count_arrays
    from .stages.sampling import mixture_quota_sample

    ds = _read(sf_dir, "documents", columns=["doc_id", "text", "source"])

    def toks(batch: pa.Table) -> pa.Table:
        return pa.table({
            "doc_id": batch.column("doc_id"),
            "source": batch.column("source"),
            "n_tok": pc.cast(token_count_arrays(batch.column("text")),
                             pa.int64()),
        })

    slim = ds.map_batches(toks, batch_format="pyarrow",
                          zero_copy_batch=True)
    srcs = [r["source"] for r in
            slim.groupby("source").count().take_all()]
    quotas = {s: (600.0 if int(s[3:]) % 2 == 0 else 300.0) for s in srcs}
    out = mixture_quota_sample(slim, "source", quotas)

    def project(batch: pa.Table) -> pa.Table:
        return pa.table({
            "doc_id": batch.column("doc_id"),
            "source": batch.column("source"),
            "n_tok": batch.column("n_tok"),
            "running_tok": pc.cast(batch.column("running_tok"),
                                   pa.int64()),
        })

    return out.map_batches(project, batch_format="pyarrow")


def q_events_funnel(sf_dir: str):
    """Ordered conversion funnel view -> click -> purchase: map-side
    type prefilter, ONE bucketed user shuffle, vectorized per-bucket
    step chain (strict '>' between consecutive step times), O(buckets)
    final fold. Single-row (n_step1, n_step2, n_step3) output."""
    from .stages.window import funnel_counts

    ds = _read(sf_dir, "events", columns=["user_id", "ts", "event_type"])
    return funnel_counts(ds, "user_id", "ts", "event_type",
                         ["view", "click", "purchase"])


def q_events_type_cms(sf_dir: str):
    """Count-Min point-frequency estimates for a known candidate set:
    one streaming pass, per-block grids tree-merged (no shuffle at
    all). At |keys|=5 << width=1024 the estimate is collision-free, so
    the DuckDB exact-count oracle pins it; at high cardinality the
    same code gives the usual (eps, delta) overcount bound (tested)."""
    from .stages.sketches import cms_counts

    cands = ["click", "error", "purchase", "signup", "view"]
    ds = _read(sf_dir, "events", columns=["event_type"])
    return cms_counts(ds, "event_type", cands)


def q_links_pagerank(sf_dir: str):
    """PageRank over the extracted hyperlink graph (url -> href edges
    from the extraction pipeline's links column): 8 damped power
    iterations, each two bucketed shuffles over slim rows with
    per-round lineage rebasing; dangling mass redistributed. The
    link-authority signal a crawl/quality pipeline weights by.
    Rows-only: iterative fixpoint, not SQL-expressible."""
    import pyarrow.compute as pc

    from .stages.links import explode_links_column
    from .stages.pagerank import pagerank

    pages = pages_dataset_from_documents(sf_dir)
    links = explode_links_column(extract_pages(pages))
    edges = links.map_batches(
        lambda b: pa.table({"src": b.column("url"),
                            "dst": b.column("link_url")}),
        batch_format="pyarrow", zero_copy_batch=True)
    ranks = pagerank(edges, n_iter=8)
    return ranks.map_batches(
        lambda b: b.set_column(b.schema.get_field_index("rank"), "rank",
                               pc.round(b.column("rank"), ndigits=9)),
        batch_format="pyarrow", zero_copy_batch=True)


QUERIES = {
    # extraction family (golden-fixture verified; driver rows-only check)
    "extract": q_extract,
    "extract_dedup": q_extract_dedup,
    "links_flat": q_links_flat,
    "extract_quality_by_lang": q_extract_quality_by_lang,
    # SQL-expressible operators with oracles
    "docs_token_stats": q_docs_token_stats,
    "docs_lang_stats": q_docs_lang_stats,
    "docs_exact_dedup": q_docs_exact_dedup,
    "events_first_by_ts": q_events_first_by_ts,
    "events_hourly": q_events_hourly,
    "top_users_by_value": q_top_users_by_value,
    "lineitem_pricing_summary": q_lineitem_pricing_summary,
    "orders_by_status": q_orders_by_status,
    "customer_nation_revenue": q_customer_nation_revenue,
    "embeddings_label_stats": q_embeddings_label_stats,
    # training-data operators
    "docs_langid": q_docs_langid,
    "docs_quality": q_docs_quality,
    "docs_fingerprint": q_docs_fingerprint,
    "docs_minhash_pairs": q_docs_minhash_pairs,
    "docs_simhash_pairs": q_docs_simhash_pairs,
    "docs_dup_components": q_docs_dup_components,
    "docs_dup_components_star": q_docs_dup_components_star,
    "docs_jaccard_pairs": q_docs_jaccard_pairs,
    "docs_vocab_stats": q_docs_vocab_stats,
    "docs_pii_scrub": q_docs_pii_scrub,
    "embeddings_centroids": q_embeddings_centroids,
    "embeddings_quantized": q_embeddings_quantized,
    "docs_neardup_dedup": q_docs_neardup_dedup,
    "knn_cosine_top10": q_knn_cosine_top10,
    "knn_cosine_lsh_top10": q_knn_cosine_lsh_top10,
    "knn_cosine_ivf_top10": q_knn_cosine_ivf_top10,
    "embeddings_norms": q_embeddings_norms,
    "containers_extract": q_containers_extract,
    "ole2_extract": q_ole2_extract,
    "textdata_extract": q_textdata_extract,
    "zip_iterate_extract": q_zip_iterate_extract,
    "doc_properties": q_doc_properties,
    "docs_gopher_quality": q_docs_gopher_quality,
    "docs_c4_quality": q_docs_c4_quality,
    "docs_line_repetition": q_docs_line_repetition,
    "videos_mjpeg_frames": q_videos_mjpeg_frames,
    "warc_segment_roundtrip": q_warc_segment_roundtrip,
    "warc_cdx_index": q_warc_cdx_index,
    "pptx_chart_series": q_pptx_chart_series,
    "docs_enhanced": q_docs_enhanced,
    "media_decode_stats": q_media_decode_stats,
    "video_frame_stats": q_video_frame_stats,
    "audio_durations": q_audio_durations,
    "images_real_decode": q_images_real_decode,
    "images_real_resize": q_images_real_resize,
    "images_jpeg_decode": q_images_jpeg_decode,
    "images_jpeg_quality": q_images_jpeg_quality,
    "audio_wav_features": q_audio_wav_features,
    # links / windows / set ops
    "links_reparsed": q_links_reparsed,
    "links_dedup_longest": q_links_dedup_longest,
    "extract_error_summary": q_extract_error_summary,
    "extract_top_by_chars": q_extract_top_by_chars,
    "events_sessions": q_events_sessions,
    "events_sliding": q_events_sliding,
    "order_keys_union": q_order_keys_union,
    "embeddings_neardup": q_embeddings_neardup,
    "embeddings_neardup_lsh": q_embeddings_neardup_lsh,
    "part_filter_pushdown": q_part_filter_pushdown,
    "lineitem_minmax": q_lineitem_minmax,
    "page_metadata": q_page_metadata,
    "data_islands": q_data_islands,
    "chart_series": q_chart_series,
    "page_dates": q_page_dates,
    "diagram_scores": q_diagram_scores,
    "orders_customer_hashjoin": q_orders_customer_hashjoin,
    "returned_revenue_topk": q_returned_revenue_topk,
    "events_customer_skewjoin": q_events_customer_skewjoin,
    "orders_latest3_rn": q_orders_latest3_rn,
    "events_running_value": q_events_running_value,
    "orders_price_zscore": q_orders_price_zscore,
    "orders_status_pivot": q_orders_status_pivot,
    "lineitem_rollup": q_lineitem_rollup,
    "orders_price_histogram": q_orders_price_histogram,
    "docs_repetition": q_docs_repetition,
    "orders_price_pctrank": q_orders_price_pctrank,
    "orders_semi_join": q_orders_semi_join,
    "docs_hash_sample": q_docs_hash_sample,
    "customer_order_list": q_customer_order_list,
    "lineitem_bloom_join": q_lineitem_bloom_join,
    "events_type_distinct_users": q_events_type_distinct_users,
    "events_orders_asof": q_events_orders_asof,
    "lineitem_orders_range": q_lineitem_orders_range,
    "events_user_approx_distinct": q_events_user_approx_distinct,
    "events_type_count_salted": q_events_type_count_salted,
    "orders_top_per_customer": q_orders_top_per_customer,
    "orders_anti_join": q_orders_anti_join,
    "lineitem_price_quantiles": q_lineitem_price_quantiles,
    "docs_sample": q_docs_sample,
    "supplier_region_stats": q_supplier_region_stats,
    "part_type_stats": q_part_type_stats,
    "lineitem_corr": q_lineitem_corr,
    "lineitem_regression": q_lineitem_regression,
    "lineitem_skew_kurt": q_lineitem_skew_kurt,
    "events_value_ewma": q_events_value_ewma,
    "lineitem_mad": q_lineitem_mad,
    "events_first_last_value": q_events_first_last_value,
    "orders_price_cumedist": q_orders_price_cumedist,
    "orders_date_rank": q_orders_date_rank,
    "events_cohort_retention": q_events_cohort_retention,
    "events_props_stats": q_events_props_stats,
    "docs_tfidf_top3": q_docs_tfidf_top3,
    "orders_priority_mode": q_orders_priority_mode,
    "lineitem_cube": q_lineitem_cube,
    "events_hourly_dense": q_events_hourly_dense,
    "docs_corpus_prep": q_docs_corpus_prep,
    "events_prev_gap": q_events_prev_gap,
    "orders_price_ntile": q_orders_price_ntile,
    "orders_monthly_growth": q_orders_monthly_growth,
    "lineitem_unpivot": q_lineitem_unpivot,
    "customers_no_events": q_customers_no_events,
    "events_hopping_15m": q_events_hopping_15m,
    "orders_left_join_coverage": q_orders_left_join_coverage,
    "lineitem_price_quantiles_approx": q_lineitem_price_quantiles_approx,
    "order_keys_intersect": q_order_keys_intersect,
    "orders_date_dense_rank": q_orders_date_dense_rank,
    "events_rolling_mean": q_events_rolling_mean,
    "events_top_users": q_events_top_users,
    "orders_priority_revenue_share": q_orders_priority_revenue_share,
    "events_type_approx_distinct": q_events_type_approx_distinct,
    "orders_customer_full_join": q_orders_customer_full_join,
    "lineitem_self_composite": q_lineitem_self_composite,
    "events_user_value_quantiles": q_events_user_value_quantiles,
    "embeddings_kmeans": q_embeddings_kmeans,
    "embeddings_semdedup": q_embeddings_semdedup,
    "docs_decontaminated": q_docs_decontaminated,
    "docs_dup_ngrams": q_docs_dup_ngrams,
    "docs_decontaminate": q_docs_decontaminate,
    "docs_exact_substring_dedup": q_docs_exact_substring_dedup,
    "docs_exact_substring_keepfirst": q_docs_exact_substring_keepfirst,
    "docs_bpe_token_count": q_docs_bpe_token_count,
    "events_stratified_sample": q_events_stratified_sample,
    "docs_mixture_resample": q_docs_mixture_resample,
    "docs_mixture_quota": q_docs_mixture_quota,
    "events_funnel": q_events_funnel,
    "events_type_cms": q_events_type_cms,
    "links_pagerank": q_links_pagerank,
}


ORACLES = {
    "docs_enhanced": """
        -- mirrors stages/enhance.py flaky_prefix + per-row fallback:
        -- len % 7 == 3 rows fail upstream and degrade to the original
        SELECT CAST(doc_id AS BIGINT) AS doc_id,
               CASE WHEN length(text) % 7 = 3 THEN text
                    ELSE 'ENHANCED: ' || text END AS text,
               (length(text) % 7 = 3) AS fell_back,
               CASE WHEN length(text) % 7 = 3 THEN 'ValueError'
                    ELSE '' END AS enhance_error
        FROM documents
    """,
    "pptx_chart_series": """
        -- mirrors q_pptx_chart_series' planted pptx chart fixtures:
        -- every doc_id % 5 == 0 doc carries one barChart, series S1,
        -- categories a/b/c with values (doc_id+1) * {1,2,3}
        SELECT CAST(d.doc_id AS BIGINT) AS doc_id,
               'barChart' AS chart_type,
               'Chart ' || CAST(d.doc_id AS VARCHAR) AS title,
               'S1' AS series_name,
               m.cat AS cat,
               CAST((d.doc_id + 1) * m.mult AS DOUBLE) AS val
        FROM documents d,
             (VALUES ('a', 1), ('b', 2), ('c', 3)) AS m(cat, mult)
        WHERE d.doc_id % 5 = 0
    """,
    "customers_no_events": """
        SELECT CAST(c_custkey AS BIGINT) AS c_custkey FROM customer
        EXCEPT
        SELECT user_id FROM events
    """,
    "lineitem_unpivot": """
        SELECT l_orderkey, l_linenumber, metric, value FROM (
            SELECT l_orderkey, l_linenumber,
                   'l_quantity' AS metric, l_quantity AS value
            FROM lineitem
            UNION ALL
            SELECT l_orderkey, l_linenumber,
                   'l_extendedprice', l_extendedprice FROM lineitem
            UNION ALL
            SELECT l_orderkey, l_linenumber,
                   'l_discount', l_discount FROM lineitem
        )
    """,
    "events_prev_gap": """
        SELECT event_id, ts, user_id,
               date_diff('microsecond',
                         LAG(ts) OVER (PARTITION BY user_id
                                       ORDER BY ts, event_id),
                         ts) AS gap_us
        FROM events
    """,
    "orders_price_ntile": """
        SELECT o_orderkey, o_orderstatus, o_totalprice,
               CAST(NTILE(4) OVER (PARTITION BY o_orderstatus
                   ORDER BY o_totalprice, o_orderkey) AS BIGINT) AS tile
        FROM orders
    """,
    "orders_monthly_growth": """
        WITH m AS (
            SELECT CAST(date_trunc('month', o_orderdate) AS TIMESTAMP)
                       AS month,
                   ROUND(SUM(o_totalprice), 2) AS revenue
            FROM orders GROUP BY 1
        )
        SELECT month, revenue,
               ROUND(revenue / LAG(revenue) OVER (ORDER BY month) - 1, 6)
                   AS growth
        FROM m
    """,
    "orders_priority_mode": """
        SELECT o_custkey, o_orderpriority, n FROM (
            SELECT o_custkey, o_orderpriority, n,
                   ROW_NUMBER() OVER (PARTITION BY o_custkey
                       ORDER BY n DESC, o_orderpriority) AS rn
            FROM (SELECT o_custkey, o_orderpriority, COUNT(*) AS n
                  FROM orders GROUP BY 1, 2)
        ) WHERE rn = 1
    """,
    "lineitem_cube": """
        SELECT COALESCE(l_returnflag, 'ALL') AS l_returnflag,
               COALESCE(l_linestatus, 'ALL') AS l_linestatus,
               SUM(l_quantity) AS sum_qty, COUNT(*) AS n
        FROM lineitem GROUP BY CUBE(l_returnflag, l_linestatus)
    """,
    "events_hourly_dense": """
        WITH c AS (
            SELECT event_type, date_trunc('hour', ts) AS hour,
                   COUNT(*) AS n
            FROM events GROUP BY 1, 2
        ), b AS (SELECT MIN(hour) AS lo, MAX(hour) AS hi FROM c),
        hours AS (
            SELECT unnest(generate_series(lo, hi, INTERVAL 1 HOUR))
                AS hour FROM b
        ), types AS (SELECT DISTINCT event_type FROM events)
        SELECT t.event_type, h.hour,
               CAST(COALESCE(c.n, 0) AS BIGINT) AS n
        FROM types t CROSS JOIN hours h
        LEFT JOIN c ON c.event_type = t.event_type AND c.hour = h.hour
    """,
    "docs_tfidf_top3": """
        WITH flat AS (
            SELECT doc_id,
                   unnest(regexp_split_to_array(text, '\\s+')) AS term
            FROM documents
        ), tf AS (
            SELECT doc_id, term, COUNT(*) AS tf
            FROM flat WHERE term <> '' GROUP BY 1, 2
        ), dfreq AS (
            SELECT term, COUNT(DISTINCT doc_id) AS df
            FROM flat WHERE term <> '' GROUP BY 1
        ), n AS (SELECT COUNT(*) AS n_docs FROM documents),
        scored AS (
            SELECT tf.doc_id, tf.term, tf.tf, dfreq.df,
                   ROUND(tf.tf * ln(CAST(n.n_docs AS DOUBLE) / dfreq.df),
                         6) AS tfidf
            FROM tf JOIN dfreq USING (term) CROSS JOIN n
        )
        SELECT doc_id, term, tf, df, tfidf, rn FROM (
            SELECT *, ROW_NUMBER() OVER (PARTITION BY doc_id
                ORDER BY tfidf DESC, term) AS rn
            FROM scored) WHERE rn <= 3
    """,
    "lineitem_corr": """
        SELECT l_returnflag,
               CAST(REGR_COUNT(l_quantity, l_extendedprice) AS BIGINT)
                   AS n,
               ROUND(CORR(l_quantity, l_extendedprice), 6)
                   AS corr_qty_price
        FROM lineitem GROUP BY l_returnflag
    """,
    "lineitem_regression": """
        SELECT l_returnflag,
               CAST(REGR_COUNT(l_extendedprice, l_quantity) AS BIGINT)
                   AS n,
               ROUND(REGR_SLOPE(l_extendedprice, l_quantity), 6)
                   AS slope,
               ROUND(REGR_INTERCEPT(l_extendedprice, l_quantity), 6)
                   AS intercept
        FROM lineitem GROUP BY l_returnflag
    """,
    "lineitem_skew_kurt": """
        SELECT l_returnflag,
               CAST(COUNT(l_quantity) AS BIGINT) AS n,
               ROUND(skewness(l_quantity), 6) AS skew,
               ROUND(kurtosis(l_quantity), 6) AS kurt
        FROM lineitem GROUP BY l_returnflag
    """,
    "lineitem_mad": """
        SELECT l_returnflag,
               CAST(COUNT(l_extendedprice) AS BIGINT) AS n,
               ROUND(MEDIAN(l_extendedprice), 6) AS median,
               ROUND(MAD(l_extendedprice), 6) AS mad
        FROM lineitem GROUP BY l_returnflag
    """,
    "events_first_last_value": """
        SELECT user_id,
               ARG_MIN(value, ts) AS first_v,
               ARG_MAX(value, ts) AS last_v
        FROM events GROUP BY user_id
    """,
    "orders_price_cumedist": """
        SELECT o_orderkey, o_orderpriority, o_totalprice,
               CUME_DIST() OVER (PARTITION BY o_orderpriority
                                 ORDER BY o_totalprice) AS cd
        FROM orders
    """,
    "events_cohort_retention": """
        WITH e AS (
            SELECT user_id,
                   CAST(date_trunc('week', ts) AS TIMESTAMP) AS week
            FROM events
        ), f AS (
            SELECT user_id, MIN(week) AS cohort_week FROM e GROUP BY 1
        )
        SELECT f.cohort_week,
               date_diff('day', f.cohort_week, e.week) // 7
                   AS weeks_since,
               COUNT(DISTINCT e.user_id) AS n_users
        FROM e JOIN f USING (user_id)
        GROUP BY 1, 2
    """,
    "events_props_stats": """
        SELECT event_type,
               COUNT(*) AS n_events,
               CAST(SUM(CAST(json_extract_string(props, '$.k') AS BIGINT))
                    AS BIGINT) AS sum_k,
               ROUND(AVG(CAST(json_extract_string(props, '$.k')
                              AS BIGINT)), 6) AS avg_k
        FROM events GROUP BY event_type
    """,
    "events_customer_skewjoin": """
        SELECT e.event_id, e.user_id, e.value, c.c_name, c.c_mktsegment
        FROM events e JOIN customer c ON e.user_id = c.c_custkey
    """,
    "orders_latest3_rn": """
        SELECT o_orderkey, o_custkey, o_orderdate, rn FROM (
            SELECT o_orderkey, o_custkey, o_orderdate,
                   ROW_NUMBER() OVER (PARTITION BY o_custkey
                       ORDER BY o_orderdate DESC, o_orderkey) AS rn
            FROM orders) WHERE rn <= 3
    """,
    "events_running_value": """
        SELECT event_id, ts, user_id, value,
               SUM(value) OVER (PARTITION BY user_id
                   ORDER BY ts, event_id
                   ROWS UNBOUNDED PRECEDING) AS running_sum
        FROM events
    """,
    "orders_price_zscore": """
        SELECT o_orderkey, o_orderstatus, o_totalprice,
               ROUND(CASE WHEN STDDEV_SAMP(o_totalprice) OVER w > 0
                     THEN (o_totalprice - AVG(o_totalprice) OVER w)
                          / STDDEV_SAMP(o_totalprice) OVER w
                     ELSE 0 END, 6) AS zscore
        FROM orders WINDOW w AS (PARTITION BY o_orderstatus)
    """,
    "orders_status_pivot": """
        SELECT o_orderpriority,
               COUNT(*) FILTER (WHERE o_orderstatus = 'F') AS n_F,
               COUNT(*) FILTER (WHERE o_orderstatus = 'O') AS n_O,
               COUNT(*) FILTER (WHERE o_orderstatus = 'P') AS n_P
        FROM orders GROUP BY o_orderpriority
    """,
    "orders_price_pctrank": """
        SELECT o_orderkey, o_orderstatus, o_totalprice,
               PERCENT_RANK() OVER (PARTITION BY o_orderstatus
                   ORDER BY o_totalprice, o_orderkey) AS pr
        FROM orders
    """,
    "orders_semi_join": """
        SELECT o_orderkey, o_custkey FROM orders
        WHERE o_custkey IN (SELECT c_custkey FROM customer
                            WHERE c_mktsegment = 'BUILDING')
    """,
    "docs_hash_sample": """
        SELECT doc_id, lang FROM documents
        WHERE md5(CAST(doc_id AS VARCHAR)) < '28'
    """,
    "lineitem_bloom_join": """
        SELECT l.l_orderkey, l.l_linenumber, l.l_extendedprice,
               o.o_totalprice
        FROM lineitem l JOIN orders o ON l.l_orderkey = o.o_orderkey
        WHERE o.o_totalprice > 400000
    """,
    "customer_order_list": """
        SELECT o_custkey,
               STRING_AGG(CAST(o_orderkey AS VARCHAR), ','
                          ORDER BY o_orderkey) AS order_keys
        FROM orders GROUP BY o_custkey
    """,
    "events_type_distinct_users": """
        SELECT event_type, COUNT(DISTINCT user_id) AS n_users
        FROM events GROUP BY event_type
    """,
    "docs_repetition": """
        WITH flat AS (
            SELECT doc_id, unnest(string_split(text, ' ')) AS tok
            FROM documents
        ), counts AS (
            SELECT doc_id, tok, COUNT(*) AS c
            FROM flat GROUP BY doc_id, tok
        )
        SELECT doc_id,
               CAST(SUM(c) AS BIGINT) AS n_tok,
               1.0 - (COUNT(*)::DOUBLE / SUM(c)::DOUBLE) AS dup_tok_frac,
               MAX(c)::DOUBLE / SUM(c)::DOUBLE AS top_tok_frac
        FROM counts GROUP BY doc_id
    """,
    "lineitem_rollup": """
        SELECT COALESCE(l_returnflag, 'ALL') AS l_returnflag,
               COALESCE(l_linestatus, 'ALL') AS l_linestatus,
               SUM(l_quantity) AS sum_qty, COUNT(*) AS n
        FROM lineitem GROUP BY ROLLUP(l_returnflag, l_linestatus)
    """,
    "orders_price_histogram": """
        SELECT CAST(FLOOR(o_totalprice / 25000) AS BIGINT) AS bin,
               ROUND(SUM(o_totalprice), 2) AS sum_price, COUNT(*) AS n
        FROM orders GROUP BY 1
    """,
    "returned_revenue_topk": """
        SELECT c.c_custkey, c.c_name, n.n_name,
               CAST(ROUND(SUM(CAST(l.l_extendedprice AS DECIMAL(15, 2))
                              * (1 - CAST(l.l_discount AS DECIMAL(15, 2)))),
                          2) AS DOUBLE) AS revenue
        FROM lineitem l
        JOIN orders o ON l.l_orderkey = o.o_orderkey
        JOIN customer c ON o.o_custkey = c.c_custkey
        JOIN nation n ON c.c_nationkey = n.n_nationkey
        WHERE l.l_returnflag = 'R'
        GROUP BY c.c_custkey, c.c_name, n.n_name
        ORDER BY revenue DESC, c.c_custkey
        LIMIT 20
    """,
    "embeddings_quantized": """
        WITH s AS (
            SELECT vec_id, embedding,
                   list_max(list_transform(embedding, x -> abs(x))) / 127.0
                       AS scale
            FROM embeddings)
        SELECT vec_id, scale, i - 1 AS dim,
               CASE WHEN scale = 0 THEN 0
                    ELSE least(127, greatest(-127,
                        CAST(floor(abs(embedding[i] / scale) + 0.5)
                             AS BIGINT)
                        * CAST(sign(embedding[i]) AS BIGINT)))
               END AS qval
        FROM s CROSS JOIN (
            SELECT unnest(generate_series(1,
                (SELECT max(len(embedding)) FROM embeddings))) AS i) g
    """,
    "embeddings_centroids": """
        SELECT label, i - 1 AS dim, ROUND(avg(embedding[i]), 6) AS mean_val
        FROM embeddings CROSS JOIN (
            SELECT unnest(generate_series(1,
                (SELECT max(len(embedding)) FROM embeddings))) AS i) g
        GROUP BY label, i
    """,
    "docs_pii_scrub": """
        SELECT doc_id,
               regexp_replace(regexp_replace(regexp_replace(text,
                   '[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\\.[A-Za-z]{2,}',
                   '[EMAIL]', 'g'),
                   '\\+?\\d[\\d\\- ]{7,14}\\d', '[PHONE]', 'g'),
                   '\\b(?:\\d{1,3}\\.){3}\\d{1,3}\\b', '[IP]', 'g')
                   AS text_scrubbed,
               len(regexp_extract_all(text,
                   '[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\\.[A-Za-z]{2,}'))
                   AS n_email,
               len(regexp_extract_all(regexp_replace(text,
                   '[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\\.[A-Za-z]{2,}',
                   '[EMAIL]', 'g'),
                   '\\+?\\d[\\d\\- ]{7,14}\\d')) AS n_phone,
               len(regexp_extract_all(regexp_replace(regexp_replace(text,
                   '[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\\.[A-Za-z]{2,}',
                   '[EMAIL]', 'g'),
                   '\\+?\\d[\\d\\- ]{7,14}\\d', '[PHONE]', 'g'),
                   '\\b(?:\\d{1,3}\\.){3}\\d{1,3}\\b')) AS n_ip
        FROM documents
    """,
    "docs_vocab_stats": """
        SELECT tok AS token, count(*) AS tf, count(DISTINCT doc_id) AS df
        FROM (
            SELECT doc_id,
                   unnest(regexp_split_to_array(text, '\\s+')) AS tok
            FROM documents
        )
        WHERE tok <> ''
        GROUP BY tok
    """,
    "docs_token_stats": """
        -- RE2 \\S+ runs, the repo-wide tokenizer dialect (no trim():
        -- DuckDB trim strips spaces only while Arrow trims Unicode —
        -- counting \\S+ matches pc.count_substring_regex exactly)
        SELECT doc_id,
               len(regexp_extract_all(text, '\\S+')) AS n_tokens,
               length(text) AS n_chars
        FROM documents
    """,
    "docs_lang_stats": """
        SELECT lang, count(*) AS n_docs, avg(n_chars) AS avg_chars
        FROM documents GROUP BY lang
    """,
    "docs_exact_dedup": """
        SELECT md5(text) AS text_hash, min(doc_id) AS doc_id,
               count(*) AS n_dups
        FROM documents GROUP BY md5(text)
    """,
    "events_first_by_ts": """
        SELECT event_id, ts, user_id, event_type, value
        FROM (SELECT *, row_number() OVER
                  (PARTITION BY user_id ORDER BY ts, event_id) AS rn
              FROM events)
        WHERE rn = 1
    """,
    "events_hourly": """
        SELECT event_type, date_trunc('hour', ts) AS hour,
               count(*) AS n_events, sum(value) AS total_value
        FROM events GROUP BY event_type, date_trunc('hour', ts)
    """,
    "top_users_by_value": """
        SELECT user_id, sum(value) AS total_value, count(*) AS n_events
        FROM events GROUP BY user_id
        ORDER BY total_value DESC, user_id ASC LIMIT 10
    """,
    "lineitem_pricing_summary": """
        SELECT l_returnflag, l_linestatus,
               round(sum(l_quantity), 4) AS sum_qty,
               round(sum(l_extendedprice), 4) AS sum_base_price,
               round(sum(l_extendedprice * (1 - l_discount)), 4)
                   AS sum_disc_price,
               round(avg(l_quantity), 4) AS avg_qty,
               count(*) AS count_order
        FROM lineitem GROUP BY l_returnflag, l_linestatus
    """,
    "orders_by_status": """
        SELECT o_orderstatus, count(*) AS n_orders,
               round(sum(o_totalprice), 4) AS total_price
        FROM orders GROUP BY o_orderstatus
    """,
    "customer_nation_revenue": """
        SELECT coalesce(n.n_name, '') AS n_name,
               count(*) AS n_orders, sum(o.o_totalprice) AS revenue
        FROM orders o
        LEFT JOIN customer c ON o.o_custkey = c.c_custkey
        LEFT JOIN nation n ON c.c_nationkey = n.n_nationkey
        GROUP BY coalesce(n.n_name, '')
    """,
    "embeddings_label_stats": """
        SELECT label, count(*) AS n_vecs FROM embeddings GROUP BY label
    """,
    "docs_fingerprint": """
        SELECT doc_id, md5(text) AS content_md5 FROM documents
    """,
    "knn_cosine_top10": """
        -- cast to DOUBLE: duckdb computes float32 cosine on the raw column,
        -- which diverges from the engine's float64 math at round-6 (same
        -- fix as embeddings_neardup below)
        WITH d AS (SELECT vec_id,
                          list_transform(embedding, x -> CAST(x AS DOUBLE))
                              AS emb
                   FROM embeddings),
             q AS (SELECT vec_id AS query_id, emb AS qv
                   FROM d ORDER BY vec_id LIMIT 5),
             s AS (SELECT q.query_id, e.vec_id,
                          list_cosine_similarity(e.emb, q.qv) AS raw
                   FROM d e CROSS JOIN q)
        SELECT query_id, vec_id, round(raw, 6) AS score
        FROM (SELECT *, row_number() OVER
                  (PARTITION BY query_id
                   ORDER BY round(raw, 9) DESC, vec_id ASC) AS rn
              FROM s)
        WHERE rn <= 10
    """,
    "events_sessions": """
        WITH o AS (
            SELECT user_id, ts, event_id, value,
                   CASE WHEN lag(ts) OVER w IS NULL
                             OR ts - lag(ts) OVER w > INTERVAL 30 MINUTE
                        THEN 1 ELSE 0 END AS new_s
            FROM events
            WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id)
        ),
        s AS (
            SELECT *, sum(new_s) OVER
                (PARTITION BY user_id ORDER BY ts, event_id
                 ROWS UNBOUNDED PRECEDING) AS session_n
            FROM o
        )
        SELECT user_id, min(ts) AS session_start,
               count(*) AS n_events, sum(value) AS total_value
        FROM s GROUP BY user_id, session_n
    """,
    "events_sliding": """
        -- sliding(1h, 30m) == two phase-shifted tumbling windows
        WITH phased AS (
            SELECT event_type, date_trunc('hour', ts) AS win_start, value
            FROM events
            UNION ALL
            SELECT event_type,
                   date_trunc('hour', ts - INTERVAL 30 MINUTE)
                       + INTERVAL 30 MINUTE AS win_start, value
            FROM events
        )
        SELECT event_type, win_start, count(*) AS n_events,
               sum(value) AS total_value
        FROM phased GROUP BY event_type, win_start
    """,
    "order_keys_union": """
        SELECT o_orderkey AS okey FROM orders
        UNION
        SELECT l_orderkey AS okey FROM lineitem
    """,
    "embeddings_neardup": """
        -- cast to DOUBLE: duckdb computes float32 cosine otherwise, which
        -- diverges from the engine's float64 math at the 1e-6 tolerance
        WITH d AS (SELECT vec_id,
                          list_transform(embedding, x -> CAST(x AS DOUBLE))
                              AS emb
                   FROM embeddings)
        SELECT a.vec_id AS vec_a, b.vec_id AS vec_b,
               round(list_cosine_similarity(a.emb, b.emb), 6) AS cosine
        FROM d a JOIN d b ON a.vec_id < b.vec_id
        WHERE list_cosine_similarity(a.emb, b.emb) >= 0.45
    """,
    "chart_series": """
        -- mirrors sources/pages_gen.py chart-island arithmetic:
        -- charts on doc_id % 10 = 2 (always html rows), 1 + doc_id % 3
        -- series, values[q] = (doc_id + s*7 + q*3) % 100 over 4 points,
        -- page rows tripled when doc_id % 17 = 0 (re-crawls)
        WITH d AS (SELECT doc_id FROM documents WHERE doc_id % 10 = 2),
             s AS (SELECT doc_id, sn FROM d
                   CROSS JOIN (VALUES (0), (1), (2)) t(sn)
                   WHERE sn <= doc_id % 3),
             r AS (SELECT doc_id, sn FROM s
                   CROSS JOIN (VALUES (0), (1), (2)) u(copy)
                   WHERE copy = 0 OR doc_id % 17 = 0)
        SELECT doc_id,
               (['bar', 'line', 'pie'])[(doc_id % 3) + 1] AS chart_type,
               'series_' || sn AS series_name,
               CAST(4 AS BIGINT) AS n_points,
               CAST((doc_id + sn * 7) % 100 + (doc_id + sn * 7 + 3) % 100
                    + (doc_id + sn * 7 + 6) % 100
                    + (doc_id + sn * 7 + 9) % 100 AS DOUBLE) AS values_sum
        FROM r
    """,
    "page_dates": """
        -- mirrors sources/pages_gen.py head-metadata arithmetic: author
        -- on %5!=1 (meta) or %2=0 (JSON-LD, same value); published on
        -- %4!=2 (OpenGraph) or %2=0 (JSON-LD); modified on %3=0; pdf
        -- (%50=3) and garbage (%100=7) rows carry no metadata; re-crawl
        -- rows tripled on %17=0
        WITH base AS (
            SELECT doc_id,
                   (doc_id % 50 <> 3 AND doc_id % 100 <> 7) AS is_html,
                   TIMESTAMP '2025-01-01'
                       + INTERVAL 1 SECOND * (doc_id * 7) AS ts0
            FROM documents
        ), rep AS (
            SELECT base.* FROM base
            CROSS JOIN (VALUES (0), (1), (2)) t(c)
            WHERE c = 0 OR doc_id % 17 = 0
        )
        SELECT doc_id,
               CASE WHEN is_html AND (doc_id % 5 <> 1 OR doc_id % 2 = 0)
                    THEN 'Author ' ||
                         lpad(CAST(doc_id % 37 AS VARCHAR), 2, '0')
                    ELSE '' END AS author,
               CASE WHEN is_html AND (doc_id % 4 <> 2 OR doc_id % 2 = 0)
                    THEN strftime(ts0 - INTERVAL 1 DAY * (doc_id % 365),
                                  '%Y-%m-%dT%H:%M:%S')
                    ELSE '' END AS published,
               CASE WHEN is_html AND doc_id % 3 = 0
                    THEN strftime(ts0 - INTERVAL 1 DAY * (doc_id % 30),
                                  '%Y-%m-%dT%H:%M:%S')
                    ELSE '' END AS modified
        FROM rep
    """,
    "video_frame_stats": """
        -- mirrors stages/multimodal.py video synthesis: videos on
        -- doc_id % 10 = 0 with 4 + doc_id % 5 frames of
        -- (16 + doc_id % 16) x (16 + doc_id*3 % 16); stride-2 sampling
        -- keeps ceil(n/2) frames
        SELECT doc_id,
               CAST(((4 + doc_id % 5) + 1) // 2 AS BIGINT) AS n_sampled,
               16 + doc_id % 16 AS frame_w,
               16 + (doc_id * 3) % 16 AS frame_h
        FROM documents WHERE doc_id % 10 = 0
    """,
    "audio_durations": """
        -- FAKEAUD on doc_id % 5 = 0: 4000 + (doc_id % 7) * 1000 samples
        -- at 8000 Hz
        SELECT doc_id,
               round((4000 + (doc_id % 7) * 1000) / 8000.0, 6)
                   AS duration_s
        FROM documents WHERE doc_id % 5 = 0
    """,
    "images_real_decode": """
        -- mirrors stages/multimodal.py real_media_dataset_from_documents:
        -- every 3rd doc carries a REAL solid-color image, container
        -- cycling PNG / 24-bit BMP / GIF by (d//3)%3, sized
        -- (8 + d%24) x (8 + d*5%24); the Ray side decodes actual
        -- PNG/BMP/GIF bytes, so matching values here oracles the
        -- inflate/unfilter, BMP row-walk and GIF LZW paths end to end
        SELECT doc_id,
               CASE (doc_id // 3) % 3
                    WHEN 0 THEN 'image/png'
                    WHEN 1 THEN 'image/bmp'
                    ELSE 'image/gif' END AS container,
               CAST(8 + doc_id % 24 AS BIGINT) AS width,
               CAST(8 + (doc_id * 5) % 24 AS BIGINT) AS height,
               CAST(3 AS BIGINT) AS channels,
               round(((doc_id * 7) % 256 + (doc_id * 13) % 256
                      + (doc_id * 29) % 256) / 3.0, 6) AS mean_intensity
        FROM documents WHERE doc_id % 3 = 0
    """,
    "images_real_resize": """
        -- solid-color sources stay solid through nearest-resample ->
        -- png_encode -> png_decode; dims pinned by the resize target
        SELECT doc_id,
               CAST(10 AS BIGINT) AS thumb_w,
               CAST(10 AS BIGINT) AS thumb_h,
               round(((doc_id * 7) % 256 + (doc_id * 13) % 256
                      + (doc_id * 29) % 256) / 3.0, 6) AS mean_intensity
        FROM documents WHERE doc_id % 3 = 0
    """,
    "images_jpeg_decode": """
        -- mirrors stages/multimodal.py jpeg_dataset_from_documents:
        -- every 9th doc carries a REAL solid-color baseline JPEG of
        -- (16 + d%17) x (16 + d*3%17); dims/channels decode exactly;
        -- the lossy mean-intensity is folded into an integer error
        -- band that is 0 whenever the decoded mean is within 1.5
        -- levels of the synthesized color (pytest pins tighter bounds)
        SELECT doc_id,
               CAST(16 + doc_id % 17 AS BIGINT) AS width,
               CAST(16 + (doc_id * 3) % 17 AS BIGINT) AS height,
               CAST(3 AS BIGINT) AS channels,
               CAST(0 AS BIGINT) AS mean_intensity_err
        FROM documents WHERE doc_id % 9 = 0
    """,
    "images_jpeg_quality": """
        -- the encoder wrote quality 35 + (doc_id % 13) * 5 into the
        -- quant tables; jpeg_quality_estimate must recover it exactly
        -- from the bytes (std_tables TRUE: Annex K scaling matched)
        SELECT doc_id,
               CAST(35 + (doc_id % 13) * 5 AS BIGINT) AS quality,
               TRUE AS std_tables
        FROM documents WHERE doc_id % 9 = 0
    """,
    "audio_wav_features": """
        -- mirrors stages/multimodal.py wav_dataset_from_documents:
        -- square wave (period 8) of n = 4096 + (d%5)*512 samples at
        -- 8 kHz, amplitude A = 1000 + (d%9)*500: RMS = A exactly, sign
        -- changes land every 4th sample -> zcr = ((n-1)//4)/(n-1)
        WITH p AS (
            SELECT doc_id,
                   4096 + (doc_id % 5) * 512 AS n,
                   1000 + (doc_id % 9) * 500 AS amp
            FROM documents WHERE doc_id % 4 = 0
        )
        SELECT doc_id,
               round(n / 8000.0, 6) AS duration_s,
               CAST(amp AS DOUBLE) AS rms,
               round(((n - 1) // 4) / (n - 1.0), 6) AS zcr
        FROM p
    """,
    "extract_error_summary": """
        -- the synthetic corpus routes by doc_id arithmetic (pages_gen):
        -- %50=3 -> pdf, %100=7 -> garbage (plain-text fallback), else
        -- html; re-crawl rows tripled on %17=0; every payload extracts
        -- cleanly -> error ''
        WITH rep AS (
            SELECT doc_id FROM documents
            CROSS JOIN (VALUES (0), (1), (2)) t(c)
            WHERE c = 0 OR doc_id % 17 = 0
        )
        SELECT CASE WHEN doc_id % 50 = 3 THEN 'pdf'
                    WHEN doc_id % 100 = 7 THEN 'fallback_text'
                    ELSE 'html' END AS method,
               '' AS error, count(*) AS n_pages
        FROM rep GROUP BY 1, 2
    """,
    "containers_extract": """
        -- mirrors q_containers_extract's deterministic wrapping: every
        -- document extracts successfully through its container route
        SELECT CASE doc_id % 3 WHEN 0 THEN 'gzip>html'
                               WHEN 1 THEN 'warc>html'
                               ELSE 'docx' END AS method,
               count(*) AS n_docs
        FROM documents GROUP BY 1
    """,
    "ole2_extract": """
        -- mirrors q_ole2_extract's planted compound files: the
        -- extracted text of each .doc/.xls/.ppt payload is pure doc_id
        -- arithmetic, so method / char count / link count recompute
        -- exactly
        SELECT doc_id,
               CASE doc_id % 3 WHEN 0 THEN 'doc'
                               WHEN 1 THEN 'xls'
                               ELSE 'ppt' END AS method,
               CASE doc_id % 3
                 WHEN 0 THEN length(
                   'Legacy doc ' || CAST(doc_id AS VARCHAR) || '.'
                   || chr(10) || chr(10)
                   || 'Second paragraph ' || CAST(doc_id * 3 AS VARCHAR)
                   || '.' || chr(10) || chr(10)
                   || 'Anchor ' || CAST(doc_id AS VARCHAR))
                 WHEN 1 THEN length(
                   '## S' || CAST(doc_id % 4 AS VARCHAR)
                   || chr(10) || chr(10) || '| metric | value |'
                   || chr(10) || chr(10)
                   || '| m' || CAST(doc_id AS VARCHAR) || ' | '
                   || CAST(doc_id * 7 AS VARCHAR) || ' |')
                 ELSE length(
                   'Slide ' || CAST(doc_id AS VARCHAR)
                   || chr(10) || chr(10)
                   || 'Body ' || CAST(doc_id AS VARCHAR)
                   || chr(10) || chr(10)
                   || 'Point ' || CAST(doc_id * 2 AS VARCHAR))
               END AS n_chars,
               CASE doc_id % 3 WHEN 0 THEN 1 ELSE 0 END AS n_links
        FROM documents
    """,
    "textdata_extract": """
        -- mirrors q_textdata_extract's planted csv/json/xml/epub
        -- payloads: every conversion's output is pure doc_id arithmetic
        SELECT doc_id,
               CASE doc_id % 4 WHEN 0 THEN 'csv'
                               WHEN 1 THEN 'json'
                               WHEN 2 THEN 'xml'
                               ELSE 'epub' END AS method,
               CASE doc_id % 4
                 WHEN 0 THEN length(
                   '| metric | value |' || chr(10) || chr(10)
                   || '| m' || CAST(doc_id AS VARCHAR) || ' | '
                   || CAST(doc_id * 7 AS VARCHAR) || ' |')
                 WHEN 1 THEN length(
                   'doc: ' || CAST(doc_id AS VARCHAR) || chr(10)
                   || 'score: ' || CAST(doc_id * 3 AS VARCHAR))
                 WHEN 2 THEN length(
                   'r.a: ' || CAST(doc_id AS VARCHAR) || chr(10)
                   || 'r.b: v' || CAST(doc_id * 2 AS VARCHAR))
                 ELSE length(
                   '# Book ' || CAST(doc_id AS VARCHAR)
                   || chr(10) || chr(10)
                   || 'Para ' || CAST(doc_id * 5 AS VARCHAR) || '.'
                   || chr(10) || chr(10)
                   || 'See [ref ' || CAST(doc_id AS VARCHAR)
                   || '](https://b.ex/' || CAST(doc_id AS VARCHAR)
                   || ') now.')
               END AS n_chars,
               CASE doc_id % 4 WHEN 3 THEN 1 ELSE 0 END AS n_links
        FROM documents
    """,
    "zip_iterate_extract": """
        -- mirrors q_zip_iterate_extract: generic-archive iteration
        -- joins per-member extractions under '## <name>' headers
        SELECT doc_id,
               length('## a_data.csv' || chr(10) || chr(10)
                 || '| k | v |' || chr(10) || chr(10)
                 || '| row' || CAST(doc_id AS VARCHAR) || ' | '
                 || CAST(doc_id * 7 AS VARCHAR) || ' |'
                 || chr(10) || chr(10) || '## b_notes.txt'
                 || chr(10) || chr(10)
                 || 'note for ' || CAST(doc_id * 3 AS VARCHAR)
               ) AS n_chars
        FROM documents
    """,
    "videos_mjpeg_frames": """
        -- mirrors q_videos_mjpeg_frames: k = doc_id%3+2 frames, stride
        -- 2 samples idx 0 (and 2 when k>=3); solid grays roundtrip the
        -- baseline JPEG bit-exactly at q90 so the mean is arithmetic
        WITH v AS (
            SELECT doc_id, doc_id % 3 + 2 AS k
            FROM documents WHERE doc_id % 5 = 0
        ), f AS (
            SELECT doc_id,
                   unnest(CASE WHEN k >= 3 THEN [0, 2] ELSE [0] END)
                       AS frame_idx
            FROM v
        )
        SELECT doc_id,
               CAST(frame_idx AS BIGINT) AS frame_idx,
               CAST(24 AS BIGINT) AS width,
               CAST(16 AS BIGINT) AS height,
               CAST((doc_id * 7 + frame_idx * 31) % 256 AS DOUBLE)
                   AS mean_intensity
        FROM f
    """,
    "docs_line_repetition": r"""
        -- line repetition recomputed via unnest + (doc, line) grouping
        -- over the identical line split / trim set; docs with zero
        -- non-empty lines re-enter with zero signals via the left join
        WITH base AS (
            SELECT doc_id, COALESCE(text, '') AS t FROM documents
        ), tok AS (
            SELECT doc_id,
                list_filter(list_transform(str_split(t, chr(10)),
                            ln -> trim(ln, ' ' || chr(9) || chr(13))),
                            x -> x <> '') AS lines
            FROM base
        ), ex AS (
            SELECT doc_id, unnest(lines) AS ln FROM tok
        ), g AS (
            SELECT doc_id, ln, COUNT(*) AS c, length(ln) AS lc
            FROM ex GROUP BY doc_id, ln
        ), agg AS (
            SELECT doc_id,
                SUM(c) AS n_lines,
                COUNT(*) AS n_distinct,
                SUM(c * lc) AS total_chars,
                SUM(CASE WHEN c > 1 THEN c * lc ELSE 0 END) AS dup_chars
            FROM g GROUP BY doc_id
        )
        SELECT b.doc_id,
            CAST(COALESCE(a.n_lines, 0) AS BIGINT) AS n_lines,
            CASE WHEN COALESCE(a.n_lines, 0) > 0
                 THEN 1.0 - CAST(a.n_distinct AS DOUBLE) / a.n_lines
                 ELSE 0.0 END AS dup_line_frac,
            CASE WHEN COALESCE(a.total_chars, 0) > 0
                 THEN CAST(a.dup_chars AS DOUBLE) / a.total_chars
                 ELSE 0.0 END AS dup_line_char_frac
        FROM base b LEFT JOIN agg a USING (doc_id)
    """,
    "docs_c4_quality": r"""
        -- C4 rules recomputed with DuckDB list lambdas over the same
        -- line split / trim set; word counts use the identical
        -- unfiltered \s+ split length
        WITH base AS (
            SELECT doc_id, COALESCE(text, '') AS t FROM documents
        ), tok AS (
            SELECT doc_id, t,
                list_filter(list_transform(str_split(t, chr(10)),
                            ln -> trim(ln, ' ' || chr(9) || chr(13))),
                            x -> x <> '') AS lines
            FROM base
        ), m AS (
            SELECT doc_id, t, len(lines) AS n_lines,
                list_filter(lines, x ->
                    (x LIKE '%.' OR x LIKE '%!' OR x LIKE '%?'
                     OR x LIKE '%"' OR x LIKE '%”')
                    AND len(regexp_split_to_array(x, '\s+')) >= 3
                ) AS kept
            FROM tok
        )
        SELECT doc_id,
            CAST(n_lines AS BIGINT) AS n_lines,
            CAST(len(kept) AS BIGINT) AS n_kept_lines,
            CAST(COALESCE(list_sum(list_transform(kept,
                 x -> length(x))), 0) AS BIGINT) AS kept_chars,
            contains(t, '{') AS has_brace,
            contains(lower(t), 'lorem ipsum') AS has_lorem,
            contains(lower(t), 'javascript') AS has_javascript,
            (len(kept) >= 3 AND NOT contains(t, '{')
             AND NOT contains(lower(t), 'lorem ipsum')
             AND NOT contains(lower(t), 'javascript')) AS keep
        FROM m
    """,
    "docs_gopher_quality": r"""
        -- Gopher rule suite recomputed with DuckDB list lambdas over
        -- the identical RE2 \s+ split (empty tokens filtered, per-line
        -- trim set ' \t\r')
        WITH base AS (
            SELECT doc_id, COALESCE(text, '') AS t FROM documents
        ), tok AS (
            SELECT doc_id, t,
                list_filter(regexp_split_to_array(t, '\s+'),
                            w -> w <> '') AS words,
                list_filter(list_transform(str_split(t, chr(10)),
                            ln -> trim(ln, ' ' || chr(9) || chr(13))),
                            x -> x <> '') AS lines
            FROM base
        ), m AS (
            SELECT doc_id,
                len(words) AS n_words,
                len(lines) AS n_lines,
                length(regexp_replace(t, '\s+', '', 'g')) AS nonws,
                (length(t) - length(replace(t, '#', '')))
                  + CAST((length(t) - length(replace(t, '...', ''))) / 3
                         AS BIGINT) AS n_sym,
                len(list_filter(words,
                    w -> regexp_matches(w, '[A-Za-z]'))) AS n_alpha,
                len(list_filter(words, w -> lower(w) IN
                    ('the','be','to','of','and','that','have','with')
                    )) AS n_stop,
                len(list_filter(lines, x -> x LIKE '•%'
                    OR x LIKE '-%' OR x LIKE '*%')) AS n_bullet,
                len(list_filter(lines, x -> x LIKE '%...'
                    OR x LIKE '%…')) AS n_ell
            FROM tok
        )
        SELECT doc_id,
            CAST(n_words AS BIGINT) AS n_words,
            CASE WHEN n_words > 0
                 THEN CAST(nonws AS DOUBLE) / n_words
                 ELSE 0.0 END AS mean_word_len,
            CASE WHEN n_words > 0
                 THEN CAST(n_sym AS DOUBLE) / n_words
                 ELSE 0.0 END AS symbol_ratio,
            CASE WHEN n_lines > 0
                 THEN CAST(n_bullet AS DOUBLE) / n_lines
                 ELSE 0.0 END AS bullet_frac,
            CASE WHEN n_lines > 0
                 THEN CAST(n_ell AS DOUBLE) / n_lines
                 ELSE 0.0 END AS ellipsis_frac,
            CASE WHEN n_words > 0
                 THEN CAST(n_alpha AS DOUBLE) / n_words
                 ELSE 0.0 END AS alpha_frac,
            CAST(n_stop AS BIGINT) AS n_stop_words,
            (n_words BETWEEN 50 AND 100000
             AND (CASE WHEN n_words > 0
                       THEN CAST(nonws AS DOUBLE) / n_words
                       ELSE 0.0 END) BETWEEN 3.0 AND 10.0
             AND (CASE WHEN n_words > 0
                       THEN CAST(n_sym AS DOUBLE) / n_words
                       ELSE 0.0 END) <= 0.1
             AND (CASE WHEN n_lines > 0
                       THEN CAST(n_bullet AS DOUBLE) / n_lines
                       ELSE 0.0 END) <= 0.9
             AND (CASE WHEN n_lines > 0
                       THEN CAST(n_ell AS DOUBLE) / n_lines
                       ELSE 0.0 END) <= 0.3
             AND (CASE WHEN n_words > 0
                       THEN CAST(n_alpha AS DOUBLE) / n_words
                       ELSE 0.0 END) >= 0.8
             AND n_stop >= 2) AS keep
        FROM m
    """,
    "doc_properties": """
        -- mirrors q_doc_properties' planted property sets (OOXML
        -- core.xml for even ids, OLE2 SummaryInformation for odd):
        -- every surfaced field is doc_id arithmetic
        SELECT doc_id,
               'Title ' || CAST(doc_id AS VARCHAR) AS title,
               'Author ' || CAST(doc_id % 7 AS VARCHAR) AS author,
               CAST(doc_id % 10 AS VARCHAR) AS revision,
               strftime(TIMESTAMP '2024-01-01 00:00:00'
                        + doc_id * INTERVAL 1 SECOND,
                        '%Y-%m-%dT%H:%M:%SZ') AS created
        FROM documents
    """,
    "warc_segment_roundtrip": """
        -- mirrors q_warc_segment_roundtrip's deterministic segment
        -- synthesis: one content record per document, url/ts/body all
        -- pure doc_id/text arithmetic (envelope strip + member gunzip
        -- are identity on the projected values)
        SELECT 'https://warc.example/' || CAST(doc_id AS VARCHAR) AS url,
               TIMESTAMP '2020-01-01 00:00:00'
                 + doc_id * INTERVAL 1 SECOND AS warc_ts,
               octet_length(encode(COALESCE(text, ''))) AS n_bytes,
               'seg-' || lpad(CAST(doc_id // 64 AS VARCHAR), 6, '0')
                 || '.warc'
                 || CASE WHEN (doc_id // 64) % 2 = 1
                         THEN '.gz' ELSE '' END AS warc_file,
               doc_id % 64 AS record_idx
        FROM documents
    """,
    "warc_cdx_index": """
        -- mirrors q_warc_cdx_index's synthesis: url
        -- https://H{d%5}.Site{d%7}.Example/P/{d}?utm_x=1&n={d%3} ->
        -- canonicalize (lowercase host, drop utm_*) -> SURT key
        -- example,site{d%7},h{d%5})/p/{d}?n={d%3}; digest/md5 and the
        -- re-fetch pointer recomputed straight from documents
        SELECT 'example,site' || CAST(doc_id % 7 AS VARCHAR)
                 || ',h' || CAST(doc_id % 5 AS VARCHAR)
                 || ')/p/' || CAST(doc_id AS VARCHAR)
                 || '?n=' || CAST(doc_id % 3 AS VARCHAR) AS url_key,
               'https://H' || CAST(doc_id % 5 AS VARCHAR)
                 || '.Site' || CAST(doc_id % 7 AS VARCHAR)
                 || '.Example/P/' || CAST(doc_id AS VARCHAR)
                 || '?utm_x=1&n=' || CAST(doc_id % 3 AS VARCHAR) AS url,
               TIMESTAMP '2020-01-01 00:00:00'
                 + doc_id * INTERVAL 1 SECOND AS warc_ts,
               'seg-' || lpad(CAST(doc_id // 64 AS VARCHAR), 6, '0')
                 || '.warc'
                 || CASE WHEN (doc_id // 64) % 2 = 1
                         THEN '.gz' ELSE '' END AS warc_file,
               doc_id % 64 AS record_idx,
               octet_length(encode(COALESCE(text, ''))) AS n_bytes,
               md5(COALESCE(text, '')) AS digest
        FROM documents
    """,
    "orders_customer_hashjoin": """
        SELECT o.o_orderkey, o.o_custkey, o.o_totalprice,
               c.c_name, c.c_mktsegment
        FROM orders o JOIN customer c ON o.o_custkey = c.c_custkey
    """,
    "lineitem_orders_range": """
        SELECT l.l_orderkey, l.l_linenumber, l.l_shipdate, o.o_orderdate
        FROM lineitem l JOIN orders o
          ON l.l_orderkey = o.o_orderkey
         AND l.l_shipdate >= o.o_orderdate
         AND l.l_shipdate < o.o_orderdate + INTERVAL 60 DAY
    """,
    "events_orders_asof": """
        WITH o1 AS (
            SELECT o_custkey, o_orderdate, max(o_orderkey) AS o_orderkey
            FROM orders GROUP BY o_custkey, o_orderdate
        )
        SELECT e.event_id, e.user_id, e.ts, o1.o_orderkey
        FROM events e
        ASOF LEFT JOIN o1
            ON e.user_id = o1.o_custkey AND e.ts >= o1.o_orderdate
    """,
    "events_type_count_salted": """
        SELECT event_type, count(*) AS n_rows, sum(value) AS total
        FROM events GROUP BY event_type
    """,
    "orders_top_per_customer": """
        SELECT o_orderkey, o_custkey, o_totalprice
        FROM (SELECT *, row_number() OVER
                  (PARTITION BY o_custkey
                   ORDER BY o_totalprice DESC, o_orderkey ASC) AS rn
              FROM orders)
        WHERE rn <= 2
    """,
    "orders_anti_join": """
        SELECT o_orderkey, o_custkey FROM orders
        WHERE o_custkey NOT IN
            (SELECT c_custkey FROM customer
             WHERE c_mktsegment = 'BUILDING')
    """,
    "lineitem_price_quantiles": """
        SELECT l_returnflag,
               round(quantile_cont(l_extendedprice, 0.25), 4) AS q25,
               round(quantile_cont(l_extendedprice, 0.50), 4) AS q50,
               round(quantile_cont(l_extendedprice, 0.75), 4) AS q75,
               round(quantile_cont(l_extendedprice, 0.90), 4) AS q90
        FROM lineitem GROUP BY l_returnflag
    """,
    "supplier_region_stats": """
        SELECT coalesce(r.r_name, '') AS r_name,
               count(*) AS n_suppliers, sum(s.s_acctbal) AS total_acctbal
        FROM supplier s
        LEFT JOIN nation n ON s.s_nationkey = n.n_nationkey
        LEFT JOIN region r ON n.n_regionkey = r.r_regionkey
        GROUP BY coalesce(r.r_name, '')
    """,
    "part_type_stats": """
        SELECT p_type, count(*) AS n_parts,
               avg(p_retailprice) AS avg_price, max(p_size) AS max_size
        FROM part GROUP BY p_type
    """,
    "part_filter_pushdown": """
        SELECT p_partkey, p_size, p_retailprice FROM part WHERE p_size > 40
    """,
    "lineitem_minmax": """
        SELECT l_returnflag,
               min(l_extendedprice) AS min_price,
               max(l_extendedprice) AS max_price,
               stddev_samp(l_extendedprice) AS std_price
        FROM lineitem GROUP BY l_returnflag
    """,
    "embeddings_norms": """
        SELECT vec_id,
               round(sqrt(list_sum(list_transform(embedding,
                                                  x -> CAST(x AS DOUBLE) *
                                                       CAST(x AS DOUBLE)))),
                     6) AS l2_norm
        FROM embeddings
    """,
    "events_hopping_15m": """
        -- hopping window: 1 h window, 15 min slide -> each event in
        -- k=4 windows whose starts are (floor(t/slide) - i) * slide
        SELECT make_timestamp(ws_us) AS ws,
               COUNT(*) AS n,
               ROUND(SUM(value), 2) AS sum_value
        FROM (
            SELECT ((epoch_us(ts) // 900000000) - i) * 900000000
                       AS ws_us,
                   value
            FROM events CROSS JOIN generate_series(0, 3) AS t(i)
        )
        GROUP BY ws_us ORDER BY ws
    """,
    "orders_left_join_coverage": """
        SELECT o.o_orderstatus,
               COUNT(*) AS n_orders,
               COUNT(c.c_nationkey) AS n_matched
        FROM orders o
        LEFT JOIN (SELECT c_custkey, c_nationkey FROM customer
                   WHERE c_nationkey < 5) c
          ON o.o_custkey = c.c_custkey
        GROUP BY o.o_orderstatus
    """,
    "order_keys_intersect": """
        SELECT o_orderkey FROM orders
        INTERSECT
        SELECT l_orderkey FROM lineitem
    """,
    "orders_date_dense_rank": """
        SELECT o_orderkey, o_orderpriority, o_orderdate,
               DENSE_RANK() OVER (PARTITION BY o_orderpriority
                                  ORDER BY o_orderdate) AS date_rank
        FROM orders
    """,
    "orders_date_rank": """
        SELECT o_orderkey, o_orderpriority, o_orderdate,
               RANK() OVER (PARTITION BY o_orderpriority
                            ORDER BY o_orderdate) AS date_rank
        FROM orders
    """,
    "events_rolling_mean": """
        SELECT user_id, ts, value,
               ROUND(AVG(value) OVER (PARTITION BY user_id ORDER BY ts
                                      ROWS BETWEEN 3 PRECEDING
                                      AND CURRENT ROW), 6) AS rm4
        FROM events
    """,
    "events_top_users": """
        -- exact twin: the MG summary is provably exact when k_cap >=
        -- distinct users (sketches.py heavy_hitters docstring)
        SELECT user_id, COUNT(*) AS approx_count
        FROM events GROUP BY user_id
        ORDER BY approx_count DESC, user_id LIMIT 10
    """,
    "orders_priority_revenue_share": """
        SELECT o_orderpriority,
               ROUND(SUM(o_totalprice), 2) AS revenue,
               ROUND(SUM(o_totalprice)
                     / SUM(SUM(o_totalprice)) OVER (), 6) AS share
        FROM orders GROUP BY o_orderpriority
    """,
    "orders_customer_full_join": """
        WITH per_cust AS (
            SELECT o_custkey, COUNT(*) AS n_orders
            FROM orders GROUP BY o_custkey
        ), dim AS (
            SELECT c_custkey, c_nationkey FROM customer
            WHERE c_nationkey < 10
        )
        SELECT COUNT(*) AS n_rows,
               COUNT(*) FILTER (WHERE d.c_nationkey IS NULL)
                   AS n_left_only,
               COUNT(*) FILTER (WHERE p.n_orders IS NULL)
                   AS n_right_only
        FROM per_cust p FULL JOIN dim d ON p.o_custkey = d.c_custkey
    """,
    "lineitem_self_composite": """
        SELECT l.l_orderkey, l.l_linenumber, l.l_quantity,
               r.l_extendedprice
        FROM lineitem l
        JOIN (SELECT l_orderkey, l_linenumber, l_extendedprice
              FROM lineitem WHERE l_extendedprice > 50000) r
          ON l.l_orderkey = r.l_orderkey
         AND l.l_linenumber = r.l_linenumber
    """,
    "docs_decontaminated": """
        -- benchmark set = doc_id % 97 == 0 with >= 40 chars; a doc is
        -- contaminated iff it contains any benchmark doc's 40-char prefix
        SELECT d.doc_id, d.lang FROM documents d
        WHERE NOT EXISTS (
            SELECT 1 FROM documents b
            WHERE b.doc_id % 97 = 0 AND length(b.text) >= 40
              AND contains(d.text, substr(b.text, 1, 40)))
    """,
    "docs_bpe_token_count": """
        -- same RE2 piece pattern as BPE_PIECE_PATTERN, verbatim;
        -- n_ws_tokens counts RE2 \\S+ runs = token_count_arrays
        SELECT doc_id,
               len(regexp_extract_all(text, '\\S+')) AS n_ws_tokens,
               len(regexp_extract_all(text,
                   ' ?\\p{L}+| ?\\p{N}+| ?[^\\s\\p{L}\\p{N}]+'))
                   AS n_bpe_tokens
        FROM documents
    """,
    "docs_exact_substring_keepfirst": """
        -- keep-one ExactSubstr: the first (doc_id, p) occurrence of
        -- each duplicated 8-gram is NOT a removal position
        WITH tok AS (
            SELECT doc_id,
                   list_filter(string_split(COALESCE(text, ''), ' '),
                               x -> x <> '') AS ws
            FROM documents
        ), grams AS (
            SELECT doc_id, i AS p,
                   array_to_string(list_slice(ws, i, i + 7), ' ') AS g
            FROM (SELECT doc_id, ws, unnest(range(1, len(ws) - 6)) AS i
                  FROM tok WHERE len(ws) >= 8)
        ), ranked AS (
            SELECT doc_id, p, g,
                   COUNT(*) OVER (PARTITION BY g) AS cnt,
                   ROW_NUMBER() OVER (PARTITION BY g
                                      ORDER BY doc_id, p) AS rn
            FROM grams
        ), dpos AS (
            SELECT doc_id, p FROM ranked WHERE cnt >= 2 AND rn > 1
        ), toki AS (
            SELECT doc_id, unnest(ws) AS w,
                   unnest(range(1, len(ws) + 1)) AS i
            FROM tok
        ), kept AS (
            SELECT t.doc_id, t.w, t.i FROM toki t
            WHERE NOT EXISTS (SELECT 1 FROM dpos d
                              WHERE d.doc_id = t.doc_id
                                AND d.p <= t.i AND t.i < d.p + 8)
        ), agg AS (
            SELECT doc_id, string_agg(w, ' ' ORDER BY i) AS clean_text,
                   COUNT(*) AS n_kept
            FROM kept GROUP BY doc_id
        )
        SELECT d.doc_id, COALESCE(a.clean_text, '') AS clean_text,
               CAST(len(t.ws) - COALESCE(a.n_kept, 0) AS BIGINT)
                   AS n_removed
        FROM documents d
        JOIN tok t USING (doc_id)
        LEFT JOIN agg a USING (doc_id)
    """,
    "docs_exact_substring_dedup": """
        -- ExactSubstr rewrite: a token (1-based index i) is removed
        -- when some word-8-gram occurrence at p (same doc) with
        -- corpus-wide occurrence count >= 2 covers it (p <= i < p+8);
        -- kept tokens rejoin with single spaces. Mirrors
        -- exact_substring_dedup tokenization (single-space split,
        -- empties dropped) and all-occurrence removal semantics.
        WITH tok AS (
            SELECT doc_id,
                   list_filter(string_split(COALESCE(text, ''), ' '),
                               x -> x <> '') AS ws
            FROM documents
        ), grams AS (
            SELECT doc_id, i AS p,
                   array_to_string(list_slice(ws, i, i + 7), ' ') AS g
            FROM (SELECT doc_id, ws, unnest(range(1, len(ws) - 6)) AS i
                  FROM tok WHERE len(ws) >= 8)
        ), dup AS (
            SELECT g FROM grams GROUP BY g HAVING COUNT(*) >= 2
        ), dpos AS (
            SELECT doc_id, p FROM grams WHERE g IN (SELECT g FROM dup)
        ), toki AS (
            SELECT doc_id, unnest(ws) AS w,
                   unnest(range(1, len(ws) + 1)) AS i
            FROM tok
        ), kept AS (
            SELECT t.doc_id, t.w, t.i FROM toki t
            WHERE NOT EXISTS (SELECT 1 FROM dpos d
                              WHERE d.doc_id = t.doc_id
                                AND d.p <= t.i AND t.i < d.p + 8)
        ), agg AS (
            SELECT doc_id, string_agg(w, ' ' ORDER BY i) AS clean_text,
                   COUNT(*) AS n_kept
            FROM kept GROUP BY doc_id
        )
        SELECT d.doc_id, COALESCE(a.clean_text, '') AS clean_text,
               CAST(len(t.ws) - COALESCE(a.n_kept, 0) AS BIGINT)
                   AS n_removed
        FROM documents d
        JOIN tok t USING (doc_id)
        LEFT JOIN agg a USING (doc_id)
    """,
    "docs_dup_ngrams": """
        -- distinct word-8-grams per doc (single-space split, empties
        -- dropped — mirrors ngram_doc_rows tokenization exactly); count
        -- grams appearing in >= 2 distinct docs, per doc
        WITH toks AS (
            SELECT doc_id,
                   list_filter(string_split(text, ' '), x -> x <> '') AS t
            FROM documents
        ), grams AS (
            SELECT DISTINCT doc_id, g FROM (
                SELECT doc_id,
                       unnest([array_to_string(list_slice(t, i, i + 7), ' ')
                               for i in range(1, len(t) - 6)]) AS g
                FROM toks WHERE len(t) >= 8)
        ), dup AS (
            SELECT g FROM grams GROUP BY g HAVING COUNT(*) >= 2
        )
        SELECT doc_id, COUNT(*) AS n_dup_ngrams
        FROM grams JOIN dup USING (g) GROUP BY doc_id
    """,
    "docs_decontaminate": """
        -- GPT-3-style 13-gram decontamination against a planted eval
        -- set: docs with doc_id % 7 = 0 contribute tokens 4..40
        -- (1-based, single-space split, empties dropped) as snippets;
        -- count each train doc's distinct 13-grams that appear in any
        -- snippet (tokenization mirrors ngram_doc_rows exactly)
        WITH tok AS (
            SELECT doc_id,
                   list_filter(string_split(text, ' '), x -> x <> '') AS t
            FROM documents
        ), train_grams AS (
            SELECT DISTINCT doc_id, g FROM (
                SELECT doc_id,
                       unnest([array_to_string(list_slice(t, i, i + 12), ' ')
                               for i in range(1, len(t) - 11)]) AS g
                FROM tok WHERE len(t) >= 13)
        ), eval_tok AS (
            SELECT list_slice(t, 4, 40) AS t FROM tok WHERE doc_id % 7 = 0
        ), eval_grams AS (
            SELECT DISTINCT g FROM (
                SELECT unnest([array_to_string(list_slice(t, i, i + 12), ' ')
                               for i in range(1, len(t) - 11)]) AS g
                FROM eval_tok WHERE len(t) >= 13)
        )
        SELECT doc_id, COUNT(*) AS n_contaminated
        FROM train_grams JOIN eval_grams USING (g) GROUP BY doc_id
    """,
    "events_stratified_sample": """
        -- floor-threshold hash sample per event_type; thresholds are
        -- floor(rate * 16^8) in 8 lowercase hex chars (md5 < '<8hex>'
        -- compares identically to the 8-char-prefix comparison)
        SELECT event_id, event_type, user_id FROM events
        WHERE md5(CAST(event_id AS VARCHAR)) <
              CASE event_type
                  WHEN 'click'    THEN '80000000'
                  WHEN 'view'     THEN '40000000'
                  WHEN 'purchase' THEN '~'
                  WHEN 'signup'   THEN '20000000'
                  WHEN 'error'    THEN '10000000'
                  ELSE '' END
    """,
    "docs_mixture_quota": """
        -- token-budget mixture: per source, keep docs in
        -- (md5 16-hex prefix, doc_id) order while the running token
        -- total INCLUDING the doc stays within the source quota
        -- (600 tokens for even-numbered sources, 300 for odd)
        WITH t AS (
            SELECT doc_id, source,
                   len(regexp_extract_all(text, '\\S+')) AS n_tok,
                   substr(md5(CAST(doc_id AS VARCHAR)), 1, 16) AS h
            FROM documents
        ), r AS (
            SELECT doc_id, source, n_tok,
                   SUM(n_tok) OVER (PARTITION BY source
                                    ORDER BY h, doc_id
                                    ROWS UNBOUNDED PRECEDING) AS running
            FROM t
        )
        SELECT doc_id, source, CAST(n_tok AS BIGINT) AS n_tok,
               CAST(running AS BIGINT) AS running_tok
        FROM r
        WHERE running <= CASE WHEN CAST(substr(source, 4, 10) AS INT)
                                   % 2 = 0
                              THEN 600 ELSE 300 END
    """,
    "docs_mixture_resample": """
        -- uniform-mixture resample: rate_lang = min(1, (total/|langs|)
        -- / count_lang), threshold = floor(rate * 2^32) as 8 hex chars;
        -- division order pinned to match uniform_mixture_rates()
        WITH c AS (
            SELECT lang, COUNT(*) AS n FROM documents GROUP BY lang
        ), p AS (
            SELECT CAST(COUNT(*) AS DOUBLE) AS nl,
                   CAST(SUM(n) AS DOUBLE) AS total FROM c
        ), r AS (
            SELECT lang,
                   CASE WHEN (total / nl) / n >= 1.0 THEN '~'
                        ELSE lower(lpad(to_hex(CAST(floor(
                            ((total / nl) / n) * 4294967296.0)
                            AS BIGINT)), 8, '0')) END AS th
            FROM c, p
        )
        SELECT d.doc_id, d.lang
        FROM documents d JOIN r USING (lang)
        WHERE md5(CAST(d.doc_id AS VARCHAR)) < r.th
    """,
    "events_funnel": """
        -- correlated MIN chain: first view, first click strictly after
        -- it, first purchase strictly after that — per user, counted
        WITH s1 AS (
            SELECT user_id, MIN(ts) AS t1 FROM events
            WHERE event_type = 'view' GROUP BY user_id
        ), s2 AS (
            SELECT e.user_id, MIN(e.ts) AS t2
            FROM events e JOIN s1 USING (user_id)
            WHERE e.event_type = 'click' AND e.ts > s1.t1
            GROUP BY e.user_id
        ), s3 AS (
            SELECT e.user_id, MIN(e.ts) AS t3
            FROM events e JOIN s2 USING (user_id)
            WHERE e.event_type = 'purchase' AND e.ts > s2.t2
            GROUP BY e.user_id
        )
        SELECT (SELECT COUNT(*) FROM s1) AS n_step1,
               (SELECT COUNT(*) FROM s2) AS n_step2,
               (SELECT COUNT(*) FROM s3) AS n_step3
    """,
    "events_type_cms": """
        -- exact counts: the CMS estimate is collision-free at 5 keys
        -- vs width 1024 (any error needs a full-depth hash collision)
        SELECT event_type, COUNT(*) AS est_count FROM events
        WHERE event_type IN
              ('click', 'error', 'purchase', 'signup', 'view')
        GROUP BY event_type
    """,
}


def q_events_user_entropy(sf_dir: str):
    """Shannon entropy (log2) of each user's event-type mix — the
    behavioral-diversity signal (two combiner-compressed shuffles:
    (user, type) counts, then per-user Σ c·log2 c partials; raw rows
    never cross the wire). SQL entropy() aggregate."""
    from .stages.stats import grouped_entropy

    ds = _read(sf_dir, "events", columns=["user_id", "event_type"])
    return grouped_entropy(ds, "user_id", "event_type",
                           out_col="etype_entropy")


def q_lineitem_covar(sf_dir: str):
    """COVAR_SAMP / COVAR_POP per return flag of extended price vs
    discounted revenue (sufficient-stats combiner — one tiny row per
    key per block through the shuffle). Rounded to 2 digits: the
    covariance magnitude (~1e8) leaves < 8 float64 decimals, so a
    6-digit contract would sit at the ulp boundary across engines."""
    from .stages.stats import grouped_covar

    ds = _read(sf_dir, "lineitem",
               columns=["l_returnflag", "l_extendedprice", "l_discount"])

    def add_rev(batch: pa.Table) -> pa.Table:
        rev = pc.multiply(batch.column("l_extendedprice"),
                          pc.subtract(pa.scalar(1.0),
                                      batch.column("l_discount")))
        return batch.append_column("rev", rev)

    ds = ds.map_batches(add_rev, batch_format="pyarrow",
                        zero_copy_batch=True)
    return grouped_covar(ds, "l_returnflag", "l_extendedprice", "rev",
                         ndigits=2)


def q_lineitem_geomean(sf_dir: str):
    """Geometric mean of extended price per return flag, computed in
    log space (Σ ln x partials — overflow-free where a product()
    aggregate would saturate float64 within one block at corpus
    scale)."""
    from .stages.stats import grouped_geomean

    ds = _read(sf_dir, "lineitem",
               columns=["l_returnflag", "l_extendedprice"])
    return grouped_geomean(ds, "l_returnflag", "l_extendedprice",
                           out_col="geomean_price")


def q_orders_price_median_disc(sf_dir: str):
    """Exact PERCENTILE_DISC(0.5) of order price per status — the
    smallest actual price with CDF ≥ 0.5 (inverted-CDF pick inside one
    bucketed shuffle; returns a real data value, so the contract is
    exact equality, no float rounding)."""
    from .stages.stats import grouped_quantile_disc

    ds = _read(sf_dir, "orders",
               columns=["o_orderstatus", "o_totalprice"])
    return grouped_quantile_disc(ds, "o_orderstatus", "o_totalprice",
                                 0.5, out_col="median_price")


def q_events_range_1h_sum(sf_dir: str):
    """Time-based window frame: per user, SUM(value) over RANGE
    INTERVAL 1 HOUR PRECEDING — value-bounded, peer-inclusive frames
    (vs the row-offset frames of events_rolling_mean). One bucketed
    shuffle; cython time-rolling over per-(user, ts) collapsed sums."""
    from .stages.window import grouped_time_range_sum

    ds = _read(sf_dir, "events",
               columns=["event_id", "user_id", "ts", "value"])
    out = grouped_time_range_sum(ds, "user_id", "ts", "value",
                                 window="1h", out_col="range_sum")

    def finish(batch: pa.Table) -> pa.Table:
        return pa.table({
            "event_id": batch.column("event_id"),
            "user_id": batch.column("user_id"),
            "ts": batch.column("ts"),
            "range_sum": pc.round(batch.column("range_sum"), ndigits=6),
        })

    return out.map_batches(finish, batch_format="pyarrow",
                           zero_copy_batch=True)


def q_lineitem_grouping_sets(sf_dir: str):
    """GROUP BY GROUPING SETS ((flag), (status), ()) — arbitrary
    subtotal sets from ONE finest shuffle (the general form of the
    cube/rollup queries; each set re-aggregates the dimension-sized
    finest table, never the raw rows)."""
    from .stages.cube import grouping_sets_agg

    ds = _read(sf_dir, "lineitem",
               columns=["l_returnflag", "l_linestatus", "l_quantity"])
    return grouping_sets_agg(
        ds, ["l_returnflag", "l_linestatus"],
        [["l_returnflag"], ["l_linestatus"], []],
        "l_quantity", sum_alias="sum_qty", count_alias="n")


def q4_late_shipment_priority(sf_dir: str):
    """TPC-H Q4 shape (adapted to the testdata columns): count orders
    per priority having EXISTS a lineitem shipped after the order
    date. Scale plan: the EXISTS collapses map-side to per-order MAX
    shipdate (keyed_keep_one — in-batch combine, one bucketed
    shuffle), THEN one unique-key lookup join against orders; the
    count groupby runs on priority-cardinality rows."""
    from ray.data.aggregate import Count

    from .stages.dedup import keyed_keep_one
    from .stages.joins import hash_join

    items = _read(sf_dir, "lineitem", columns=["l_orderkey", "l_shipdate"])
    maxship = keyed_keep_one(items, "l_orderkey",
                             [("l_shipdate", "descending")])
    orders = _read(sf_dir, "orders",
                   columns=["o_orderkey", "o_orderdate", "o_orderpriority"])
    joined = hash_join(orders, maxship, "o_orderkey", "l_orderkey")

    def late_only(batch: pa.Table) -> pa.Table:
        keep = pc.greater(batch.column("l_shipdate"),
                          batch.column("o_orderdate"))
        return batch.filter(keep).select(["o_orderpriority"])

    return (joined.map_batches(late_only, batch_format="pyarrow",
                               zero_copy_batch=True)
            .groupby("o_orderpriority")
            .aggregate(Count(alias_name="n_orders")))


def q3_shipping_priority(sf_dir: str):
    """TPC-H Q3 shape: 3-table join (customer ⋈ orders ⋈ lineitem)
    with selective date/segment predicates, revenue aggregation, top
    10. Scale plan: date filters pushed into both parquet reads;
    orders take a semi ``broadcast_join`` with the BUILDING customer
    keys (the small side never shuffles); lineitem revenue
    partial-aggregated per orderkey map-side BEFORE the one bucketed
    join; final groupby is per-orderkey-sized; sort+limit on the
    aggregated (small) table."""
    import datetime

    import pyarrow.dataset as pads
    from ray.data.aggregate import Sum

    from .stages.joins import broadcast_join, hash_join

    cutoff = datetime.datetime(1998, 6, 30)
    orders = _read(sf_dir, "orders",
                   columns=["o_orderkey", "o_custkey", "o_orderdate",
                            "o_orderpriority"],
                   filter=pads.field("o_orderdate") < cutoff)
    orders = broadcast_join(orders, _building_customers(sf_dir), "o_custkey",
                            "c_custkey", how="semi").map_batches(
        lambda b: b.drop_columns(["o_custkey"]), batch_format="pyarrow",
        zero_copy_batch=True)

    li = ray.data.read_parquet(
        os.path.join(sf_dir, "lineitem.parquet"),
        columns=["l_orderkey", "l_extendedprice", "l_discount"],
        filter=pads.field("l_shipdate") > cutoff)

    def partial_rev(batch: pa.Table) -> pa.Table:
        rev = pc.multiply(batch.column("l_extendedprice"),
                          pc.subtract(pa.scalar(1.0),
                                      batch.column("l_discount")))
        t = pa.table({"l_orderkey": batch.column("l_orderkey"),
                      "rev": rev})
        df = t.to_pandas().groupby("l_orderkey", sort=False)["rev"].sum()
        return pa.table({
            "l_orderkey": pa.array(df.index.to_numpy(), pa.int64()),
            "rev": pa.array(df.to_numpy(), pa.float64())})

    li_partial = li.map_batches(partial_rev, batch_format="pyarrow",
                                batch_size=4096)
    joined = hash_join(li_partial, orders, "l_orderkey", "o_orderkey")
    agg = (joined.groupby(["l_orderkey", "o_orderdate", "o_orderpriority"])
           .aggregate(Sum("rev", alias_name="revenue")))

    def round_rev(batch: pa.Table) -> pa.Table:
        i = batch.schema.get_field_index("revenue")
        return batch.set_column(i, "revenue",
                                pc.round(batch.column("revenue"),
                                         ndigits=2))

    return (agg.map_batches(round_rev, batch_format="pyarrow",
                            zero_copy_batch=True)
            .sort(["revenue", "o_orderdate", "l_orderkey"],
                  descending=[True, False, False])
            .limit(10))


QUERIES.update({
    "events_user_entropy": q_events_user_entropy,
    "lineitem_covar": q_lineitem_covar,
    "lineitem_geomean": q_lineitem_geomean,
    "orders_price_median_disc": q_orders_price_median_disc,
    "events_range_1h_sum": q_events_range_1h_sum,
    "lineitem_grouping_sets": q_lineitem_grouping_sets,
    "q3_shipping_priority": q3_shipping_priority,
    "q4_late_shipment_priority": q4_late_shipment_priority,
})

ORACLES.update({
    "events_user_entropy": """
        SELECT user_id, CAST(COUNT(event_type) AS BIGINT) AS n,
               ROUND(entropy(event_type), 6) AS etype_entropy
        FROM events GROUP BY user_id
    """,
    "lineitem_covar": """
        SELECT l_returnflag, CAST(COUNT(*) AS BIGINT) AS n,
               ROUND(COVAR_SAMP(l_extendedprice,
                                l_extendedprice * (1 - l_discount)), 2)
                   AS covar_samp,
               ROUND(COVAR_POP(l_extendedprice,
                               l_extendedprice * (1 - l_discount)), 2)
                   AS covar_pop
        FROM lineitem GROUP BY l_returnflag
    """,
    "lineitem_geomean": """
        SELECT l_returnflag, CAST(COUNT(*) AS BIGINT) AS n,
               ROUND(EXP(AVG(LN(l_extendedprice))), 6) AS geomean_price
        FROM lineitem
        WHERE l_extendedprice > 0 GROUP BY l_returnflag
    """,
    "orders_price_median_disc": """
        SELECT o_orderstatus,
               quantile_disc(o_totalprice, 0.5) AS median_price,
               CAST(COUNT(o_totalprice) AS BIGINT) AS n
        FROM orders GROUP BY o_orderstatus
    """,
    "events_range_1h_sum": """
        SELECT event_id, user_id, ts,
               ROUND(SUM(value) OVER (
                   PARTITION BY user_id ORDER BY ts
                   RANGE BETWEEN INTERVAL 1 HOUR PRECEDING
                         AND CURRENT ROW), 6) AS range_sum
        FROM events
    """,
    "lineitem_grouping_sets": """
        SELECT COALESCE(l_returnflag, 'ALL') AS l_returnflag,
               COALESCE(l_linestatus, 'ALL') AS l_linestatus,
               SUM(l_quantity) AS sum_qty, COUNT(*) AS n
        FROM lineitem
        GROUP BY GROUPING SETS ((l_returnflag), (l_linestatus), ())
    """,
    "q4_late_shipment_priority": """
        SELECT o_orderpriority, COUNT(*) AS n_orders
        FROM orders o
        WHERE EXISTS (SELECT 1 FROM lineitem l
                      WHERE l.l_orderkey = o.o_orderkey
                        AND l.l_shipdate > o.o_orderdate)
        GROUP BY o_orderpriority
    """,
    "q3_shipping_priority": """
        SELECT l_orderkey,
               o_orderdate, o_orderpriority,
               ROUND(SUM(l_extendedprice * (1 - l_discount)), 2)
                   AS revenue
        FROM customer
        JOIN orders ON c_custkey = o_custkey
        JOIN lineitem ON l_orderkey = o_orderkey
        WHERE c_mktsegment = 'BUILDING'
          AND o_orderdate < TIMESTAMP '1998-06-30'
          AND l_shipdate > TIMESTAMP '1998-06-30'
        GROUP BY l_orderkey, o_orderdate, o_orderpriority
        ORDER BY revenue DESC, o_orderdate, l_orderkey LIMIT 10
    """,
})


def q_docs_paragraph_dedup(sf_dir: str):
    """CCNet-style corpus-wide paragraph dedup (keep globally-first
    occurrence, reassemble survivors in order). The synthetic docs
    carry no paragraph breaks, so paragraphs are deterministic 10-word
    chunks — a real web corpus passes sep="\\n\\n" instead. md5-keyed
    keeper election + bucketed join + per-doc ordered reassembly."""
    from .stages.text_ops import paragraph_dedup

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    return paragraph_dedup(ds, "doc_id", "text", chunk_words=10)


def q_docs_top_bigrams(sf_dir: str):
    """Corpus-wide top-20 adjacent word pairs (map-side bigram
    combiner; the shuffle carries one row per distinct bigram per
    batch, the sort+limit runs on the vocab²-bounded aggregate)."""
    from .stages.text_ops import top_bigrams

    ds = _read(sf_dir, "documents", columns=["text"])
    return top_bigrams(ds, "text", k=20)


QUERIES.update({
    "docs_paragraph_dedup": q_docs_paragraph_dedup,
    "docs_top_bigrams": q_docs_top_bigrams,
})

ORACLES.update({
    "docs_paragraph_dedup": """
        -- extract_all('\\S+') = the Ray explode's RE2 split with ''
        -- dropped (word indices must align post-filter)
        WITH words AS (
            SELECT doc_id, generate_subscripts(w, 1) - 1 AS wi,
                   unnest(w) AS word
            FROM (SELECT doc_id,
                         regexp_extract_all(text, '\\S+') AS w
                  FROM documents)
        ), chunks AS (
            SELECT doc_id, wi // 10 AS idx,
                   string_agg(word, ' ' ORDER BY wi) AS para
            FROM words GROUP BY doc_id, wi // 10
        ), ranked AS (
            SELECT doc_id, idx, para,
                   ROW_NUMBER() OVER (PARTITION BY para
                                      ORDER BY doc_id, idx) AS rn
            FROM chunks
        )
        SELECT doc_id, string_agg(para, ' ' ORDER BY idx) AS text
        FROM ranked WHERE rn = 1 GROUP BY doc_id
    """,
    "docs_top_bigrams": """
        -- regexp_extract_all('\\S+'): no empty tokens on leading/
        -- trailing whitespace (split_to_array keeps them), matching
        -- the Ray side's re2_tokens
        WITH words AS (
            SELECT doc_id, generate_subscripts(w, 1) AS wi,
                   unnest(w) AS word
            FROM (SELECT doc_id,
                         regexp_extract_all(text, '\\S+') AS w
                  FROM documents)
        ), big AS (
            SELECT word || ' ' ||
                   LEAD(word) OVER (PARTITION BY doc_id ORDER BY wi)
                       AS bigram
            FROM words
        )
        SELECT bigram, CAST(COUNT(*) AS BIGINT) AS n
        FROM big WHERE bigram IS NOT NULL
        GROUP BY bigram ORDER BY n DESC, bigram LIMIT 20
    """,
})


def q_events_weighted_sample(sf_dir: str):
    """Weighted sample w/o replacement, k=50, weight = event value —
    A-ES order sampling with the md5-uniform (engine-portable, so the
    EXACT row set is oracle-checkable; seeded-RNG samples are not).
    Per-batch scoring + local top-k prune; global sort sees k rows per
    batch."""
    from .stages.sampling import weighted_hash_topk

    ds = _read(sf_dir, "events", columns=["event_id", "value"])
    out = weighted_hash_topk(ds, "event_id", "value", k=50)

    def finish(batch: pa.Table) -> pa.Table:
        i = batch.schema.get_field_index("score")
        return batch.set_column(i, "score",
                                pc.round(batch.column("score"),
                                         ndigits=6))

    return out.map_batches(finish, batch_format="pyarrow",
                           zero_copy_batch=True)


QUERIES.update({"events_weighted_sample": q_events_weighted_sample})

ORACLES.update({
    "events_weighted_sample": """
        WITH s AS (
            SELECT event_id, value,
                   POW((CAST(CONCAT('0x',
                            substr(md5(CAST(event_id AS VARCHAR)), 1, 8))
                        AS BIGINT) + 0.5) / 4294967296.0,
                       1.0 / value) AS score
            FROM events WHERE value > 0
        )
        SELECT event_id, value, ROUND(score, 6) AS score
        FROM s ORDER BY score DESC, event_id LIMIT 50
    """,
})


def q_extract_host_cap(sf_dir: str):
    """Per-host page budget over the deduped extraction output: at most
    3 pages per hostname, highest quality_score first (FineWeb-style
    domain cap — keeps one crawl-heavy host from dominating the
    corpus). Extraction family: rows-only check (the extracted
    quality signal is not SQL-expressible)."""
    from .stages.topk import per_host_cap

    ds = extraction_pipeline(sf_dir, dedup=True)
    capped = per_host_cap(ds, "url", "quality_score", cap=3)
    return capped.select_columns(["host", "url", "warc_ts",
                                  "quality_score", "rn"])


QUERIES.update({"extract_host_cap": q_extract_host_cap})


def q_docs_perplexity_buckets(sf_dir: str):
    """CCNet head/middle/tail LM split: self-trained unigram LM
    (vocab_stats combiner shuffle) broadcast once; per-doc mean token
    logprob; exact PERCENTILE_DISC tertile cutoffs; bucket assignment
    per batch. Scores rounded to 6 before the cutoff election so the
    assignment is engine-portable."""
    from .stages.text_ops import perplexity_buckets

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    return perplexity_buckets(ds, "doc_id", "text", n_buckets=3)


QUERIES.update({"docs_perplexity_buckets": q_docs_perplexity_buckets})

ORACLES.update({
    "docs_perplexity_buckets": """
        -- extract_all('\\S+') = the Ray side's re2_tokens: no empty
        -- tokens from leading/trailing whitespace
        WITH words AS (
            SELECT doc_id,
                   unnest(regexp_extract_all(text, '\\S+')) AS w
            FROM documents
        ), tf AS (SELECT w, COUNT(*) AS c FROM words GROUP BY w),
        tot AS (SELECT SUM(c) AS t FROM tf),
        lp AS (SELECT w, LN(c / t) AS lp FROM tf, tot),
        doc AS (
            SELECT doc_id, CAST(COUNT(*) AS BIGINT) AS n_tokens,
                   ROUND(AVG(lp), 6) AS avg_logprob
            FROM words JOIN lp USING (w) GROUP BY doc_id
        ), cuts AS (
            SELECT quantile_disc(avg_logprob, 1.0/3) AS c1,
                   quantile_disc(avg_logprob, 2.0/3) AS c2
            FROM doc
        )
        SELECT doc_id, n_tokens, avg_logprob,
               CAST(3 - CAST(avg_logprob > c1 AS INT)
                      - CAST(avg_logprob > c2 AS INT) AS BIGINT)
                   AS bucket
        FROM doc, cuts
    """,
})


def q_docs_bm25_top10(sf_dir: str):
    """Okapi BM25 top-10 docs for query {hash, join, scan}: query-term
    df + corpus stats combine map-side into a ≤|query|+1-row broadcast;
    scoring is one streaming pass with a batch-local top-k prune, so
    the global sort sees O(k x batches) rows."""
    from .stages.retrieval import bm25_topk

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    return bm25_topk(ds, ["hash", "join", "scan"], k=10)


def q_docs_inverted_index(sf_dir: str):
    """Inverted index (term -> sorted doc-id postings + tfs): tf rows
    through ONE term-key bucketed shuffle; posting lists assemble
    zero-copy from run offsets (no Python loop over terms). Postings
    project to CSV strings here only for the hash compare — the real
    sink keeps the list<int64> columns."""
    from .stages.retrieval import inverted_index

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    idx = inverted_index(ds, "doc_id", "text")

    def to_csv(batch: pa.Table) -> pa.Table:
        post = pc.binary_join(
            pc.cast(batch.column("postings"), pa.list_(pa.string())), ",")
        tfs = pc.binary_join(
            pc.cast(batch.column("tfs"), pa.list_(pa.string())), ",")
        return pa.table({"term": batch.column("term"),
                         "df": batch.column("df"),
                         "postings": post, "tfs": tfs})

    return idx.map_batches(to_csv, batch_format="pyarrow",
                           zero_copy_batch=True)


def q_docs_chunk_assignment(sf_dir: str):
    """GPT-style concat-and-chunk packing into 128-token context
    windows: distributed prefix sum over doc_id order (range partials
    -> driver cumsum of O(ranges) offsets -> one bucketed shuffle),
    then pure arithmetic per doc."""
    from .stages.packing import chunk_assignment

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    return chunk_assignment(ds, "doc_id", "text", ctx=128)


def q_docs_dsir_weights(sf_dir: str):
    """DSIR-style importance weights toward the English subcorpus:
    unigram log-ratio of add-one-smoothed target vs raw LMs (both from
    the vocab_stats map-side combiner), token->ratio table broadcast
    once, one streaming scoring pass."""
    from .stages.text_ops import dsir_log_ratio

    ds = _read(sf_dir, "documents", columns=["doc_id", "text", "lang"])

    def mark(batch: pa.Table) -> pa.Table:
        return pa.table({
            "doc_id": batch.column("doc_id"),
            "text": batch.column("text"),
            "is_target": pc.equal(batch.column("lang"), "en"),
        })

    marked = ds.map_batches(mark, batch_format="pyarrow",
                            zero_copy_batch=True)
    return dsir_log_ratio(marked, "doc_id", "text", "is_target")


QUERIES.update({
    "docs_bm25_top10": q_docs_bm25_top10,
    "docs_inverted_index": q_docs_inverted_index,
    "docs_chunk_assignment": q_docs_chunk_assignment,
    "docs_dsir_weights": q_docs_dsir_weights,
})

ORACLES.update({
    "docs_bm25_top10": """
        WITH tok AS (
            SELECT doc_id,
                   unnest(regexp_split_to_array(text, '\\s+')) AS term
            FROM documents
        ), tok2 AS (SELECT * FROM tok WHERE term <> ''),
        dl AS (SELECT doc_id, COUNT(*) AS dl FROM tok2 GROUP BY doc_id),
        consts AS (SELECT (SELECT COUNT(*) FROM documents) AS n,
                          (SELECT COUNT(*) FROM tok2) AS toks),
        tf AS (SELECT doc_id, term, COUNT(*) AS tf FROM tok2
               WHERE term IN ('hash', 'join', 'scan')
               GROUP BY doc_id, term),
        df AS (SELECT term, COUNT(DISTINCT doc_id) AS df FROM tok2
               WHERE term IN ('hash', 'join', 'scan') GROUP BY term),
        scored AS (
            SELECT tf.doc_id,
                   SUM(LN(1 + (c.n - df.df + 0.5) / (df.df + 0.5))
                       * tf.tf * 2.2
                       / (tf.tf + 1.2 * (0.25 + 0.75 * dl.dl
                              / (CAST(c.toks AS DOUBLE) / c.n))))
                       AS score
            FROM tf JOIN df USING (term) JOIN dl USING (doc_id)
            CROSS JOIN consts c
            GROUP BY tf.doc_id
        )
        SELECT doc_id, ROUND(score, 6) AS score FROM scored
        ORDER BY ROUND(score, 6) DESC, doc_id LIMIT 10
    """,
    "docs_inverted_index": """
        WITH tok AS (
            SELECT doc_id,
                   unnest(regexp_split_to_array(text, '\\s+')) AS term
            FROM documents
        ), tf AS (
            SELECT term, doc_id, COUNT(*) AS tf FROM tok
            WHERE term <> '' GROUP BY term, doc_id
        )
        SELECT term, CAST(COUNT(*) AS BIGINT) AS df,
               string_agg(CAST(doc_id AS VARCHAR), ','
                          ORDER BY doc_id) AS postings,
               string_agg(CAST(tf AS VARCHAR), ','
                          ORDER BY doc_id) AS tfs
        FROM tf GROUP BY term
    """,
    "docs_chunk_assignment": """
        WITH t AS (
            SELECT doc_id,
                   len(regexp_extract_all(text, '\\S+')) AS n_tok
            FROM documents
        ), c AS (
            SELECT doc_id, n_tok,
                   COALESCE(SUM(n_tok) OVER (
                       ORDER BY doc_id ROWS BETWEEN UNBOUNDED PRECEDING
                       AND 1 PRECEDING), 0) AS start_tok
            FROM t
        )
        SELECT doc_id, CAST(n_tok AS BIGINT) AS n_tok,
               CAST(start_tok AS BIGINT) AS start_tok,
               CAST(start_tok // 128 AS BIGINT) AS chunk_id,
               CAST(CASE WHEN n_tok = 0 THEN 0
                    ELSE ((start_tok + n_tok - 1) // 128)
                         - (start_tok // 128) + 1 END AS BIGINT)
                   AS n_chunks
        FROM c
    """,
    "docs_dsir_weights": """
        WITH tok AS (
            SELECT doc_id, lang,
                   unnest(regexp_split_to_array(text, '\\s+')) AS t
            FROM documents
        ), tok2 AS (SELECT * FROM tok WHERE t <> ''),
        raw AS (SELECT t, COUNT(*) AS c FROM tok2 GROUP BY t),
        tgt AS (SELECT t, COUNT(*) AS c FROM tok2
                WHERE lang = 'en' GROUP BY t),
        consts AS (SELECT (SELECT COUNT(*) FROM raw) AS v,
                          (SELECT SUM(c) FROM raw) AS t_raw,
                          (SELECT COALESCE(SUM(c), 0) FROM tgt) AS t_tgt),
        ratio AS (
            SELECT raw.t,
                   LN(COALESCE(tgt.c, 0) + 1) - LN(c.t_tgt + c.v)
                   - LN(raw.c + 1) + LN(c.t_raw + c.v) AS lr
            FROM raw LEFT JOIN tgt ON raw.t = tgt.t CROSS JOIN consts c
        )
        SELECT d.doc_id, ROUND(COALESCE(s.w, 0), 6) AS log_ratio
        FROM documents d LEFT JOIN (
            SELECT doc_id, SUM(lr) AS w FROM tok2
            JOIN ratio ON tok2.t = ratio.t GROUP BY doc_id
        ) s USING (doc_id)
    """,
})


def q_docs_chunk_slices(sf_dir: str):
    """Training-loader packing manifest: one row per (context window,
    doc slice) at ctx=128, exploded vectorized from chunk_assignment
    (O(total_tokens/ctx) rows)."""
    from .stages.packing import chunk_slices

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    return chunk_slices(ds, "doc_id", "text", ctx=128)


def q_docs_packed_chunks(sf_dir: str):
    """Materialized training chunks at ctx=128: the chunk_slices
    manifest lookup-joined to the corpus (text crosses the exchange
    once), each slice cut to its token range in-task, windows
    assembled by one chunk-bucket groupby (vectorized per bucket)."""
    from .stages.packing import packed_chunk_text

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    return packed_chunk_text(ds, "doc_id", "text", ctx=128)


def q_docs_first_fit_pack(sf_dir: str):
    """First-fit-decreasing whole-document bin packing at ctx=128,
    bins scoped per hash partition (FFD is sequential; partitioning
    bounds the loop to a bucket). Rows-only: capacity-state greedy
    assignment is not SQL-expressible; invariants are test-pinned
    (every doc exactly once, bin loads <= ctx, oversize isolation,
    determinism)."""
    from .stages.packing import first_fit_pack

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    return first_fit_pack(ds, "doc_id", "text", ctx=128)


QUERIES.update({
    "docs_chunk_slices": q_docs_chunk_slices,
    "docs_packed_chunks": q_docs_packed_chunks,
    "docs_first_fit_pack": q_docs_first_fit_pack,
})

ORACLES.update({
    "docs_packed_chunks": """
        -- chunk_slices manifest (same CTE as docs_chunk_slices) joined
        -- to per-doc token lists; window text = doc token slices
        -- concatenated in off_in_chunk order, single-space joined
        WITH t AS (
            SELECT doc_id, regexp_extract_all(text, '\\S+') AS ws,
                   len(regexp_extract_all(text, '\\S+')) AS n_tok
            FROM documents
        ), c AS (
            SELECT doc_id, ws, n_tok,
                   COALESCE(SUM(n_tok) OVER (
                       ORDER BY doc_id ROWS BETWEEN UNBOUNDED PRECEDING
                       AND 1 PRECEDING), 0) AS start_tok
            FROM t
        ), s AS (
            SELECT doc_id, ws, n_tok, start_tok,
                   unnest(generate_series(
                          CAST(start_tok // 128 AS BIGINT),
                          CAST((start_tok + n_tok - 1) // 128 AS BIGINT)))
                       AS chunk_id
            FROM c WHERE n_tok > 0
        ), sl AS (
            SELECT CAST(chunk_id AS BIGINT) AS chunk_id, doc_id, ws,
                   CAST(GREATEST(start_tok, chunk_id * 128)
                        - start_tok AS BIGINT) AS doc_from,
                   CAST(LEAST(start_tok + n_tok, (chunk_id + 1) * 128)
                        - start_tok AS BIGINT) AS doc_to,
                   CAST(GREATEST(start_tok, chunk_id * 128)
                        - chunk_id * 128 AS BIGINT) AS off_in_chunk
            FROM s
        )
        SELECT chunk_id,
               string_agg(array_to_string(
                   list_slice(ws, doc_from + 1, doc_to), ' '),
                   ' ' ORDER BY off_in_chunk) AS text,
               CAST(SUM(doc_to - doc_from) AS BIGINT) AS n_tok
        FROM sl GROUP BY chunk_id
    """,
    "docs_chunk_slices": """
        WITH t AS (
            SELECT doc_id,
                   len(regexp_extract_all(text, '\\S+')) AS n_tok
            FROM documents
        ), c AS (
            SELECT doc_id, n_tok,
                   COALESCE(SUM(n_tok) OVER (
                       ORDER BY doc_id ROWS BETWEEN UNBOUNDED PRECEDING
                       AND 1 PRECEDING), 0) AS start_tok
            FROM t
        ), s AS (
            SELECT doc_id, n_tok, start_tok,
                   unnest(generate_series(
                          CAST(start_tok // 128 AS BIGINT),
                          CAST((start_tok + n_tok - 1) // 128 AS BIGINT)))
                       AS chunk_id
            FROM c WHERE n_tok > 0
        )
        SELECT CAST(chunk_id AS BIGINT) AS chunk_id, doc_id,
               CAST(GREATEST(start_tok, chunk_id * 128)
                    - start_tok AS BIGINT) AS doc_from,
               CAST(LEAST(start_tok + n_tok, (chunk_id + 1) * 128)
                    - start_tok AS BIGINT) AS doc_to,
               CAST(GREATEST(start_tok, chunk_id * 128)
                    - chunk_id * 128 AS BIGINT) AS off_in_chunk,
               CAST(LEAST(start_tok + n_tok, (chunk_id + 1) * 128)
                    - chunk_id * 128 AS BIGINT) AS end_in_chunk
        FROM s
    """,
})


def q_docs_normalized_dedup(sf_dir: str):
    """Exact dedup on CCNet-normalized text (lowercase, digits->0,
    punctuation stripped, whitespace collapsed): case/format variants
    collapse to the lowest-doc_id survivor. keyed_keep_one on the
    normalized key — map-side combine, one bucketed shuffle."""
    from .stages.text_ops import normalized_keep_first

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    return normalized_keep_first(ds, "doc_id", "text")


def q6_forecast_revenue(sf_dir: str):
    """TPC-H Q6: pushdown-pruned scan, per-batch vectorized filter +
    partial sum (one float per batch through the shuffle)."""
    from datetime import datetime

    from ray.data.aggregate import Sum

    ds = _read(sf_dir, "lineitem",
               columns=["l_shipdate", "l_discount", "l_quantity",
                        "l_extendedprice"])

    def partial(batch: pa.Table) -> pa.Table:
        m = pc.and_(
            pc.and_(
                pc.greater_equal(batch.column("l_shipdate"),
                                 pa.scalar(datetime(1997, 1, 1))),
                pc.less(batch.column("l_shipdate"),
                        pa.scalar(datetime(1998, 1, 1)))),
            pc.and_(
                pc.and_(
                    pc.greater_equal(batch.column("l_discount"), 0.05),
                    pc.less_equal(batch.column("l_discount"), 0.07)),
                pc.less(batch.column("l_quantity"), 24.0)))
        t = batch.filter(m)
        rev = pc.sum(pc.multiply(t.column("l_extendedprice"),
                                 t.column("l_discount"))).as_py()
        return pa.table({"_one": pa.array([0], pa.int64()),
                         "_rev": pa.array([rev or 0.0], pa.float64())})

    agg = (ds.map_batches(partial, batch_format="pyarrow",
                          zero_copy_batch=True)
           .groupby("_one").aggregate(Sum("_rev", alias_name="_rev")))

    def finish(batch: pa.Table) -> pa.Table:
        return pa.table({"revenue": pc.round(batch.column("_rev"),
                                             ndigits=2)})

    return agg.map_batches(finish, batch_format="pyarrow",
                           zero_copy_batch=True)


QUERIES.update({
    "docs_normalized_dedup": q_docs_normalized_dedup,
    "q6_forecast_revenue": q6_forecast_revenue,
})

ORACLES.update({
    "docs_normalized_dedup": """
        WITH n AS (
            SELECT doc_id, text,
                   trim(regexp_replace(regexp_replace(regexp_replace(
                       lower(COALESCE(text, '')),
                       '\\d', '0', 'g'), '[^\\w\\s]', '', 'g'),
                       '\\s+', ' ', 'g')) AS norm
            FROM documents
        ), r AS (
            SELECT doc_id, text,
                   ROW_NUMBER() OVER (PARTITION BY norm
                                      ORDER BY doc_id) AS rn
            FROM n
        )
        SELECT doc_id, text FROM r WHERE rn = 1
    """,
    "q6_forecast_revenue": """
        SELECT ROUND(SUM(l_extendedprice * l_discount), 2) AS revenue
        FROM lineitem
        WHERE l_shipdate >= TIMESTAMP '1997-01-01'
          AND l_shipdate < TIMESTAMP '1998-01-01'
          AND l_discount BETWEEN 0.05 AND 0.07
          AND l_quantity < 24
    """,
})


def q_docs_bigram_logprob(sf_dir: str):
    """Interpolated bigram-LM doc scoring with a DISTRIBUTED LM: the
    vocab²-scale bigram table is never broadcast — conditional
    probabilities decorate via unique-key lookup joins and document
    pairs meet them through one token-scale lookup join (the honest
    KenLM-at-100GB path). λ=0.7 bigram / 0.3 unigram."""
    from .stages.lm import bigram_logprob

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    return bigram_logprob(ds, "doc_id", "text", lam=0.7)


QUERIES.update({"docs_bigram_logprob": q_docs_bigram_logprob})

ORACLES.update({
    "docs_bigram_logprob": """
        -- extract_all('\\S+') = _doc_pairs' RE2 split with '' dropped:
        -- leading/trailing whitespace must not mint empty-token pairs
        WITH tok AS (
            SELECT doc_id, generate_subscripts(w, 1) AS wi,
                   unnest(w) AS word
            FROM (SELECT doc_id,
                         regexp_extract_all(text, '\\S+') AS w
                  FROM documents)
        ), pairs AS (
            SELECT doc_id, word AS w1,
                   LEAD(word) OVER (PARTITION BY doc_id
                                    ORDER BY wi) AS w2
            FROM tok
        ), p2 AS (SELECT * FROM pairs WHERE w2 IS NOT NULL),
        bi AS (SELECT w1, w2, COUNT(*) AS c12 FROM p2 GROUP BY w1, w2),
        uni AS (SELECT word, COUNT(*) AS c FROM tok GROUP BY word),
        tot AS (SELECT SUM(c) AS t FROM uni),
        s AS (
            SELECT p.doc_id,
                   LN(0.7 * bi.c12 / u1.c
                      + 0.3 * u2.c / tot.t) AS lp
            FROM p2 p
            JOIN bi ON bi.w1 = p.w1 AND bi.w2 = p.w2
            JOIN uni u1 ON u1.word = p.w1
            JOIN uni u2 ON u2.word = p.w2
            CROSS JOIN tot
        )
        SELECT doc_id, CAST(COUNT(*) AS BIGINT) AS n_pairs,
               ROUND(SUM(lp) / COUNT(*), 6) AS avg_logprob
        FROM s GROUP BY doc_id
    """,
})


def q_docs_neardup_dedup_quality(sf_dir: str):
    """Quality-aware near-dup removal: per dup component keep the
    HIGHEST-quality member (here: n_chars, i.e. keep-longest; tie ->
    min id) instead of the min-id root. Label map + score table stay
    thin; keeper election is one keyed_keep_one shuffle; the payload
    leaves via the size-dispatched remove_keys tail. Near-dup family:
    rows-only."""
    from .stages.fuzzy_dedup import (
        dup_components_ds,
        minhash_dup_pairs,
        remove_neardup_members_by_quality,
    )

    docs = _read(sf_dir, "documents", columns=["doc_id", "text"])
    comp = dup_components_ds(minhash_dup_pairs(docs, threshold=0.7))
    kept = _read(sf_dir, "documents",
                 columns=["doc_id", "lang", "n_chars"])
    # kept already carries (doc_id, n_chars) — reuse it as the score
    # table instead of a third documents scan (the stage only selects
    # key/score columns from it)
    return remove_neardup_members_by_quality(
        kept, comp, kept, key="doc_id", score_col="n_chars")


QUERIES.update({
    "docs_neardup_dedup_quality": q_docs_neardup_dedup_quality,
})


# TPC-H breadth batch (Q5/Q7/Q8/Q9/Q11-Q22 analogs; with the Q1/Q3/
# Q4/Q6/Q10 shapes above this completes the family minus partsupp-only
# Q2)
from .driver_queries_tpch import ORACLES as _TPCH_ORACLES  # noqa: E402
from .driver_queries_tpch import QUERIES as _TPCH_QUERIES  # noqa: E402

QUERIES.update(_TPCH_QUERIES)
ORACLES.update(_TPCH_ORACLES)

# Crawl-layer batch (stages/crawl.py): snapshot diff, anchor/link-graph
# aggregates, frontier politeness waves, robots application
from .driver_queries_crawl import ORACLES as _CRAWL_ORACLES  # noqa: E402
from .driver_queries_crawl import QUERIES as _CRAWL_QUERIES  # noqa: E402

QUERIES.update(_CRAWL_QUERIES)
ORACLES.update(_CRAWL_ORACLES)


def q_docs_train_order(sf_dir: str):
    """Deterministic global training-order shuffle: every doc gets a
    (shard, pos) coordinate from md5(doc_id:seed) alone — the order a
    training loader consumes (engine-portable, resumable mid-epoch,
    stable under repartitioning; see stages/sampling.py
    deterministic_shuffle). ONE bucketed groupby on 16 uniform
    hex-shards; within-shard rank vectorized per group."""
    from .stages.sampling import deterministic_shuffle

    ds = _read(sf_dir, "documents", columns=["doc_id"])
    return deterministic_shuffle(ds, "doc_id", seed=42, num_shards=16)


def q_docs_shard_manifest(sf_dir: str):
    """Output-shard manifest for resumable writes: docs hash-route to
    16 md5 shards; the manifest rows (shard, n_docs, total_chars) are
    what a restarting 100 TB run diffs against finished partitions to
    skip them. Map-side combine (one row per shard per batch) before a
    16-key groupby."""
    from ray.data.aggregate import Sum

    from .stages.sampling import md5_head

    ds = _read(sf_dir, "documents", columns=["doc_id", "n_chars"])

    def partials(batch: pa.Table) -> pa.Table:
        # first md5 hex char of the (never null) doc_id
        first = md5_head(batch.column("doc_id")) >> np.uint64(28)
        df = pd.DataFrame({
            "shard": np.array(list("0123456789abcdef"),
                              dtype=object)[first],
            "n": np.ones(batch.num_rows, np.int64),
            "chars": batch.column("n_chars").to_numpy(
                zero_copy_only=False).astype(np.int64)})
        g = df.groupby("shard", sort=False).sum()
        return pa.table({"shard": pa.array(g.index.to_numpy(), pa.string()),
                         "n": pa.array(g["n"].to_numpy(), pa.int64()),
                         "chars": pa.array(g["chars"].to_numpy(),
                                           pa.int64())})

    return (ds.map_batches(partials, batch_format="pyarrow",
                           zero_copy_batch=True)
            .groupby("shard")
            .aggregate(Sum("n", alias_name="n_docs"),
                       Sum("chars", alias_name="total_chars")))


QUERIES.update({
    "docs_train_order": q_docs_train_order,
    "docs_shard_manifest": q_docs_shard_manifest,
})

ORACLES.update({
    "docs_train_order": """
        SELECT doc_id,
               substr(md5(CAST(doc_id AS VARCHAR) || ':42'), 1, 1)
                   AS shard,
               ROW_NUMBER() OVER (
                   PARTITION BY substr(md5(CAST(doc_id AS VARCHAR)
                                            || ':42'), 1, 1)
                   ORDER BY md5(CAST(doc_id AS VARCHAR) || ':42'),
                            doc_id) - 1 AS pos
        FROM documents
    """,
    "docs_shard_manifest": """
        SELECT substr(md5(CAST(doc_id AS VARCHAR)), 1, 1) AS shard,
               CAST(COUNT(*) AS BIGINT) AS n_docs,
               CAST(SUM(n_chars) AS BIGINT) AS total_chars
        FROM documents
        GROUP BY shard
    """,
})


def q_docs_compression_ratio(sf_dir: str):
    """Per-doc zlib compression ratio (repetitiveness / entropy
    quality signal; stages/text_ops.py CompressionRatioBatch) plus
    the doc length. Stateless task stage; rows-only at the
    oracle gate (no SQL zlib), pinned by unit tests."""
    from .stages.text_ops import CompressionRatioBatch

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    out = ds.map_batches(CompressionRatioBatch(), batch_format="pyarrow")
    return out.map_batches(
        lambda b: b.select(["doc_id", "compression_ratio"]),
        batch_format="pyarrow", zero_copy_batch=True)


QUERIES.update({"docs_compression_ratio": q_docs_compression_ratio})


def q_consistent_sample_revenue(sf_dir: str):
    """Referentially consistent cross-table sampling — the hash-sample
    property that seeded RNG samples do NOT have: sampling CUSTOMERS
    by md5(c_custkey) and ORDERS by the SAME hash on the foreign key
    keeps exactly the kept customers' orders, with NO coordination
    between the two filters (each side is a pure per-batch predicate;
    a seeded random sample of each table independently would orphan
    most rows). Both tables ARE sampled here, and the INNER decorate
    join proves consistency: every surviving order group finds its
    customer row — n_rows equals the orders-side-only count. Oracle
    applies the identical md5 predicate to both tables in SQL."""
    from ray.data.aggregate import Count, Sum

    from .stages.joins import hash_join
    from .stages.sampling import md5_hash_sample

    orders = _read(sf_dir, "orders",
                   columns=["o_custkey", "o_totalprice"])
    kept = md5_hash_sample(orders, "o_custkey", 0.25)
    kept_cust = md5_hash_sample(
        _read(sf_dir, "customer", columns=["c_custkey", "c_name"]),
        "c_custkey", 0.25)

    def partials(batch: pa.Table) -> pa.Table:
        df = pd.DataFrame({
            "k": batch.column("o_custkey").to_numpy(
                zero_copy_only=False).astype(np.int64),
            "rev": batch.column("o_totalprice").to_numpy(
                zero_copy_only=False),
            "n": np.ones(batch.num_rows, np.int64)})
        g = df.groupby("k", sort=False).sum()
        return pa.table({
            "o_custkey": pa.array(g.index.to_numpy(), pa.int64()),
            "rev": pa.array(g["rev"].to_numpy(), pa.float64()),
            "n": pa.array(g["n"].to_numpy(), pa.int64())})

    agg = (kept.map_batches(partials, batch_format="pyarrow",
                            zero_copy_batch=True)
           .groupby("o_custkey")
           .aggregate(Sum("rev", alias_name="revenue"),
                      Sum("n", alias_name="n_orders")))
    agg = agg.map_batches(
        lambda b: b.set_column(
            b.schema.get_field_index("revenue"), "revenue",
            pc.round(b.column("revenue"), ndigits=2)),
        batch_format="pyarrow")
    joined = hash_join(agg, kept_cust, "o_custkey", "c_custkey")
    return joined.map_batches(
        lambda b: b.select(["o_custkey", "c_name", "revenue", "n_orders"]),
        batch_format="pyarrow", zero_copy_batch=True)


QUERIES.update({
    "consistent_sample_revenue": q_consistent_sample_revenue,
})

ORACLES.update({
    "consistent_sample_revenue": """
        SELECT o_custkey, c_name,
               ROUND(SUM(o_totalprice), 2) AS revenue,
               CAST(COUNT(*) AS BIGINT) AS n_orders
        FROM orders
        JOIN customer ON c_custkey = o_custkey
        WHERE substr(md5(CAST(o_custkey AS VARCHAR)), 1, 8)
              < '40000000'
          AND substr(md5(CAST(c_custkey AS VARCHAR)), 1, 8)
              < '40000000'
        GROUP BY o_custkey, c_name
    """,
})


def q_cosupplier_triangles(sf_dir: str):
    """Graph analytics beyond PageRank/components: triangle count of
    the co-supplier graph (suppliers sharing a part; stages/pagerank.py
    co_occurrence_edges + triangle_count). Three bucketed exchanges
    total (group explode, wedge join on the middle vertex,
    composite-key closing join), all over slim int64 rows; the a<b<c
    orientation counts each triangle exactly once."""
    from .stages.pagerank import co_occurrence_edges, triangle_count

    li = _read(sf_dir, "lineitem", columns=["l_partkey", "l_suppkey"])
    edges = co_occurrence_edges(li, "l_partkey", "l_suppkey")
    edges = edges.materialize()  # used twice: wedge join + closing join
    n_edges = int(edges.count())
    n_tri = triangle_count(edges)
    return pa.table({"n_edges": pa.array([n_edges], pa.int64()),
                     "n_triangles": pa.array([n_tri], pa.int64())})


QUERIES.update({"cosupplier_triangles": q_cosupplier_triangles})

ORACLES.update({
    "cosupplier_triangles": """
        WITH ps AS (SELECT DISTINCT l_partkey AS pk, l_suppkey AS sk
                    FROM lineitem),
        e AS (SELECT DISTINCT a.sk AS s1, b.sk AS s2
              FROM ps a JOIN ps b ON a.pk = b.pk AND a.sk < b.sk)
        SELECT (SELECT CAST(COUNT(*) AS BIGINT) FROM e) AS n_edges,
               (SELECT CAST(COUNT(*) AS BIGINT)
                FROM e e1
                JOIN e e2 ON e1.s2 = e2.s1
                JOIN e e3 ON e3.s1 = e1.s1 AND e3.s2 = e2.s2)
                   AS n_triangles
    """,
})


def q_lineitem_profile(sf_dir: str):
    """Column profile of the biggest fact table (stages/stats.py
    profile_table): per column — rows, nulls, EXACT distinct count,
    numeric min/max/sum. One scan, metadata-sized count reduce +
    one bucketed distinct exchange with in-batch dedup combiners for
    all columns together."""
    from .stages.stats import profile_table

    ds = _read(sf_dir, "lineitem")
    return profile_table(ds)


QUERIES.update({"lineitem_profile": q_lineitem_profile})

_PROFILE_NUM = ["l_orderkey", "l_partkey", "l_suppkey", "l_linenumber",
                "l_quantity", "l_extendedprice", "l_discount", "l_tax"]
_PROFILE_OTHER = ["l_returnflag", "l_linestatus", "l_shipdate"]

ORACLES.update({
    "lineitem_profile": " UNION ALL ".join(
        [f"""
         SELECT '{c}' AS col_name, CAST(COUNT(*) AS BIGINT) AS n_rows,
                CAST(COUNT(*) - COUNT({c}) AS BIGINT) AS n_null,
                CAST(COUNT(DISTINCT {c}) AS BIGINT) AS n_distinct,
                CAST(MIN({c}) AS DOUBLE) AS min_val,
                CAST(MAX({c}) AS DOUBLE) AS max_val,
                ROUND(CAST(SUM({c}) AS DOUBLE), 2) AS sum_val
         FROM lineitem
         """ for c in _PROFILE_NUM] +
        [f"""
         SELECT '{c}' AS col_name, CAST(COUNT(*) AS BIGINT) AS n_rows,
                CAST(COUNT(*) - COUNT({c}) AS BIGINT) AS n_null,
                CAST(COUNT(DISTINCT {c}) AS BIGINT) AS n_distinct,
                CAST(NULL AS DOUBLE) AS min_val,
                CAST(NULL AS DOUBLE) AS max_val,
                CAST(NULL AS DOUBLE) AS sum_val
         FROM lineitem
         """ for c in _PROFILE_OTHER]),
})


def q_docs_union_evolved(sf_dir: str):
    """Schema-evolution ingestion (stages/schema_evo.py
    union_by_name): an old corpus shard (doc_id, lang — no quality
    column) unions with a new-round shard that added quality_score
    and widened nothing else; missing columns surface as typed nulls,
    exactly SQL's UNION ALL BY NAME. Shards here are the even/odd
    doc_id halves of the documents table so the oracle can rebuild
    both sides. Zero shuffles — per-batch casts + block-list union."""
    from .stages.schema_evo import union_by_name

    docs = _read(sf_dir, "documents",
                 columns=["doc_id", "lang", "n_chars"])
    old = docs.map_batches(
        lambda b: b.filter(
            pc.equal(pc.bit_wise_and(b.column("doc_id"), 1), 0))
        .select(["doc_id", "lang"]),
        batch_format="pyarrow", zero_copy_batch=True)
    new = docs.map_batches(
        lambda b: (lambda t: pa.table({
            "doc_id": t.column("doc_id"),
            "lang": t.column("lang"),
            "quality_score": pc.divide(
                pc.cast(t.column("n_chars"), pa.float64()), 1000.0)}))
        (b.filter(pc.equal(pc.bit_wise_and(b.column("doc_id"), 1), 1))),
        batch_format="pyarrow", zero_copy_batch=True)
    return union_by_name([old, new])


QUERIES.update({"docs_union_evolved": q_docs_union_evolved})

ORACLES.update({
    "docs_union_evolved": """
        SELECT doc_id, lang, CAST(NULL AS DOUBLE) AS quality_score
        FROM documents WHERE doc_id % 2 = 0
        UNION ALL
        SELECT doc_id, lang, CAST(n_chars AS DOUBLE) / 1000.0
                   AS quality_score
        FROM documents WHERE doc_id % 2 = 1
    """,
})


_PSI_EDGES = [0.0, 50000.0, 100000.0, 150000.0, 200000.0, 300000.0,
              500000.0]
_PSI_CUT = "TIMESTAMP '1998-01-01'"


def q_orders_price_drift(sf_dir: str):
    """Distribution-drift monitor (stages/stats.py psi_drift): PSI of
    the order-price histogram, pre-1998 reference vs 1998+ current —
    the corpus-round drift check (quality-score / doc-length drift at
    crawl scale). Each side collapses map-side to one histogram row
    per batch; the PSI formula runs on ~a dozen numbers."""
    import datetime

    import pyarrow.dataset as pads

    from .stages.stats import psi_drift

    cut = datetime.datetime(1998, 1, 1)
    path = os.path.join(sf_dir, "orders.parquet")
    ref = ray.data.read_parquet(path, columns=["o_totalprice"],
                                filter=(pads.field("o_orderdate") < cut))
    cur = ray.data.read_parquet(path, columns=["o_totalprice"],
                                filter=(pads.field("o_orderdate") >= cut))
    psi = psi_drift(ref, cur, "o_totalprice", _PSI_EDGES)
    return pa.table({"psi": pa.array([round(psi, 6)], pa.float64())})


def _psi_oracle() -> str:
    nb = len(_PSI_EDGES) - 1

    def side(cond: str, alias: str) -> str:
        cells = []
        for i in range(nb):
            if i < nb - 1:
                case = (f"CASE WHEN o_totalprice < {_PSI_EDGES[i + 1]} "
                        f"THEN 1 ELSE 0 END")
                if i > 0:
                    case = (f"CASE WHEN o_totalprice >= {_PSI_EDGES[i]} "
                            f"AND o_totalprice < {_PSI_EDGES[i + 1]} "
                            f"THEN 1 ELSE 0 END")
            else:
                case = (f"CASE WHEN o_totalprice >= {_PSI_EDGES[i]} "
                        f"THEN 1 ELSE 0 END")
            cells.append(
                f"GREATEST(CAST(SUM({case}) AS DOUBLE) / COUNT(*), 1e-9)"
                f" AS p{i}")
        return (f"{alias} AS (SELECT " + ", ".join(cells)
                + f" FROM orders WHERE o_orderdate {cond})")

    terms = " + ".join(
        f"(r.p{i} - c.p{i}) * LN(r.p{i} / c.p{i})" for i in range(nb))
    return ("WITH " + side(f"< {_PSI_CUT}", "r") + ", "
            + side(f">= {_PSI_CUT}", "c")
            + f" SELECT ROUND({terms}, 6) AS psi FROM r, c")


QUERIES.update({"orders_price_drift": q_orders_price_drift})
ORACLES.update({"orders_price_drift": _psi_oracle()})


def q_customer_name_fuzzy_pairs(sf_dir: str):
    """Short-string record linkage (stages/fuzzy_dedup.py
    symspell_match_pairs): customer-name pairs within Levenshtein
    distance 1 — symmetric-delete blocking makes candidates ONE
    variant-hash groupby (never all-pairs); exact banded-DP verify
    once per distinct pair."""
    from .stages.fuzzy_dedup import symspell_match_pairs

    ds = _read(sf_dir, "customer", columns=["c_custkey", "c_name"])
    return symspell_match_pairs(ds, "c_custkey", "c_name", max_dist=1)


QUERIES.update({"customer_name_fuzzy_pairs": q_customer_name_fuzzy_pairs})

ORACLES.update({
    "customer_name_fuzzy_pairs": """
        SELECT a.c_custkey AS id_a, b.c_custkey AS id_b
        FROM customer a
        JOIN customer b
          ON a.c_custkey < b.c_custkey
         AND levenshtein(a.c_name, b.c_name) <= 1
    """,
})


def q_docs_canonical_url_dedup(sf_dir: str):
    """CDX-style canonical-URL dedup (stages/urlnorm.py): crawl-log URL
    variants — uppercase scheme/host, default :443 port, #fragments,
    utm_*/fbclid tracking params — collapse to one canonical key, then
    ONE bucketed (min id, count) reduce per canonical URL.

    Input synthesis (not the operator under test; arithmetic in doc_id
    so DuckDB rebuilds the identical crawl log): every 3 consecutive
    docs are the same logical page seen as 3 dirty variants —
    clean / SHOUTING host + fragment / :443 + tracking params."""
    from .stages.urlnorm import canonical_url_dedup

    ds = _read(sf_dir, "documents", columns=["doc_id"])

    def synth_urls(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_numpy(zero_copy_only=False)
        urls = []
        for d in ids:
            page, v = divmod(int(d), 3)
            h, xk = page % 50, page % 7
            if v == 0:
                u = f"https://site{h}.example.com/p{page}?x={xk}"
            elif v == 1:
                u = (f"HTTPS://SITE{h}.EXAMPLE.COM/p{page}?x={xk}"
                     f"#sec{page % 4}")
            else:
                u = (f"https://site{h}.example.com:443/p{page}"
                     f"?utm_source=feed&x={xk}&UTM_Campaign=c{page % 5}"
                     f"&fbclid=f{page}")
            urls.append(u)
        return pa.table({"doc_id": batch.column("doc_id"),
                         "url": pa.array(urls, pa.string())})

    pages = ds.map_batches(synth_urls, batch_format="pyarrow",
                           zero_copy_batch=True)
    return canonical_url_dedup(pages, "url", "doc_id")


def q_docs_template_ratio(sf_dir: str):
    """Template-farm detection: per source (the host proxy), the share
    of pages that are byte-duplicates of another page from the same
    source — template_ratio = 1 - distinct_texts/pages. The FineWeb-
    style signal for boilerplate-heavy hosts worth down-weighting.

    Shape: map-side (source|md5, source, n) combine, ONE bucketed
    reduce on the composite key (the shuffle moves 32-char digests,
    never text), then a tiny per-source aggregate."""
    from ray.data.aggregate import Count, Sum

    from .stages.dedup import bucketed_group_agg
    from .stages.hashing import md5_hex

    ds = _read(sf_dir, "documents", columns=["source", "text"])

    def partial(batch: pa.Table) -> pa.Table:
        t = pa.table({
            "source": batch.column("source"),
            "_h": md5_hex(batch.column("text")),
        })
        t = t.append_column(
            "_skey", pc.binary_join_element_wise(
                t.column("source"), t.column("_h"), "|"))
        g = t.group_by(["_skey", "source"]).aggregate([([], "count_all")])
        return g.rename_columns(["_skey", "source", "n"])

    pairs = bucketed_group_agg(
        ds.map_batches(partial, batch_format="pyarrow",
                       zero_copy_batch=True),
        "_skey", [("source", "min"), ("n", "sum")])
    per_source = pairs.groupby("source").aggregate(
        Sum("n", alias_name="n_docs"),
        Count(alias_name="n_unique"))

    def finish(batch: pa.Table) -> pa.Table:
        nd = pc.cast(batch.column("n_docs"), pa.float64())
        nu = pc.cast(batch.column("n_unique"), pa.float64())
        return pa.table({
            "source": batch.column("source"),
            "n_docs": pc.cast(batch.column("n_docs"), pa.int64()),
            "n_unique": pc.cast(batch.column("n_unique"), pa.int64()),
            "template_ratio": pc.round(
                pc.subtract(pa.scalar(1.0), pc.divide(nu, nd)), ndigits=6),
        })

    return per_source.map_batches(finish, batch_format="pyarrow",
                                  zero_copy_batch=True)


QUERIES.update({
    "docs_canonical_url_dedup": q_docs_canonical_url_dedup,
    "docs_template_ratio": q_docs_template_ratio,
})

ORACLES.update({
    "docs_canonical_url_dedup": """
        -- same synthesis arithmetic + the same RE2 rewrites as
        -- stages/urlnorm.py canonicalize_urls (cross-engine parity
        -- pinned in tests/test_urlnorm.py)
        WITH pagev AS (
            SELECT doc_id, doc_id // 3 AS page, doc_id % 3 AS v,
                   (doc_id // 3) % 50 AS h, (doc_id // 3) % 7 AS xk
            FROM documents
        ), raw AS (
            SELECT doc_id,
                CASE v
                  WHEN 0 THEN 'https://site' || h || '.example.com/p'
                              || page || '?x=' || xk
                  WHEN 1 THEN 'HTTPS://SITE' || h || '.EXAMPLE.COM/p'
                              || page || '?x=' || xk || '#sec' || (page % 4)
                  ELSE 'https://site' || h || '.example.com:443/p' || page
                       || '?utm_source=feed&x=' || xk || '&UTM_Campaign=c'
                       || (page % 5) || '&fbclid=f' || page
                END AS url
            FROM pagev
        ), cleaned AS (
            SELECT doc_id,
                   regexp_replace(regexp_replace(regexp_replace(
                       regexp_replace(url, '#.*$', ''),
                       '(?i)(utm_[a-z0-9_]+|gclid|fbclid)=[^&]*(&|$)',
                       '', 'g'),
                       '[?&]+$', ''),
                       '\\?&', '?') AS s3
            FROM raw
        ), canon AS (
            SELECT doc_id,
                CASE WHEN regexp_matches(s3, '^[A-Za-z][A-Za-z0-9+.-]*://')
                  THEN lower(regexp_extract(s3,
                           '^([A-Za-z][A-Za-z0-9+.-]*)://', 1)) || '://'
                       || regexp_replace(lower(regexp_extract(s3,
                           '^[A-Za-z][A-Za-z0-9+.-]*://([^/?#]*)', 1)),
                           ':(80|443)$', '')
                       || regexp_extract(s3,
                           '^[A-Za-z][A-Za-z0-9+.-]*://[^/?#]*(.*)$', 1)
                  ELSE s3 END AS canonical_url
            FROM cleaned
        )
        SELECT canonical_url, MIN(doc_id) AS doc_id,
               CAST(COUNT(*) AS BIGINT) AS n_dups
        FROM canon GROUP BY canonical_url
    """,
    "docs_template_ratio": """
        SELECT source, CAST(COUNT(*) AS BIGINT) AS n_docs,
               CAST(COUNT(DISTINCT md5(text)) AS BIGINT) AS n_unique,
               ROUND(1.0 - COUNT(DISTINCT md5(text))
                         / CAST(COUNT(*) AS DOUBLE), 6) AS template_ratio
        FROM documents GROUP BY source
    """,
})


# ---------------------------------------------------------------------------
# Driver-sample rotation (round-4 verdict item 5): the driver's
# correctness gate samples the FIRST ~50 registered queries each round,
# so registration order decides which queries earn a driver-verified
# row. Rounds 1-4 sampled the same leading block; the flagship
# crawl/CDC/training-data/TPC-H queries (all green in the committed
# full sweeps) never got one. Promote oracled-but-never-driver-sampled
# queries to the front; everything else keeps its relative order (keys
# and semantics unchanged — this is ordering only).
# ---------------------------------------------------------------------------

_DRIVER_PRIORITY = [
    # round-5 additions
    "ole2_extract", "textdata_extract", "zip_iterate_extract",
    "doc_properties",
    # incremental CDC + crawl layer
    "crawl_round_e2e", "incremental_delta_urls",
    "crawl_snapshot_diff", "host_link_degree",
    "host_reciprocity", "links_anchor_stats", "frontier_politeness_waves",
    "frontier_robots_filter", "frontier_schedule", "robots_parse",
    "sitemap_roundtrip",
    # training-data pipeline family
    "docs_mixture_quota", "docs_mixture_resample", "docs_train_order",
    "docs_shard_manifest", "docs_paragraph_dedup",
    "docs_exact_substring_dedup", "docs_exact_substring_keepfirst",
    "docs_decontaminate", "docs_decontaminated", "docs_dup_ngrams",
    "docs_bigram_logprob", "docs_perplexity_buckets", "docs_tfidf_top3",
    "docs_top_bigrams", "docs_bm25_top10", "docs_inverted_index",
    "docs_packed_chunks", "docs_chunk_assignment", "docs_dsir_weights",
    "docs_bpe_token_count", "docs_normalized_dedup",
    "docs_canonical_url_dedup", "docs_template_ratio", "docs_repetition",
    "docs_gopher_quality", "docs_c4_quality", "docs_line_repetition",
    "videos_mjpeg_frames",
    # TPC-H flagships
    "q3_shipping_priority", "q5_local_supplier_volume", "q8_market_share",
    "q9_product_profit", "q14_promo_revenue", "q17_small_qty_revenue",
    "q18_large_volume_customers", "q21_waiting_suppliers",
    # analytics breadth
    "lineitem_mad", "events_user_entropy", "cosupplier_triangles",
    "customer_name_fuzzy_pairs", "events_funnel",
    "events_cohort_retention", "lineitem_profile", "docs_union_evolved",
]

_reordered = {n: QUERIES[n] for n in _DRIVER_PRIORITY if n in QUERIES}
for _n, _fn in QUERIES.items():
    _reordered.setdefault(_n, _fn)
QUERIES = _reordered
del _reordered
