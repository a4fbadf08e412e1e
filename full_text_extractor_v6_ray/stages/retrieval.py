"""Text-retrieval operators over the documents table: BM25 ranking and
inverted-index construction — the search-side complement of the TF-IDF
/ vocab machinery in ``stages/stats.py``.

``bm25_topk``: Okapi BM25 (Robertson/Lucene idf,
``ln(1 + (N−df+0.5)/(df+0.5))``) of every document against a FIXED
query-term set. The query is tiny by definition, so the per-term df
and the corpus stats (N, Σdl) combine map-side into a ≤|query|+1-row
aggregate and broadcast via ``ray.put`` — never a vocabulary-scale
join. Scoring is a single streaming pass: tokens match the query set
via ``pc.index_in`` (vectorized), tf accumulates per (doc, term) with
one Arrow group_by per batch, and a batch-local top-k prune under the
final (score desc, id asc) comparator means the global sort sees
O(k × batches) rows, never corpus-scale.

``inverted_index``: (term → sorted postings) with per-posting tf —
the classic index build. tf rows (one per distinct (doc, term)) take
ONE bucketed shuffle on the term key; inside a bucket the posting
lists materialize zero-copy from run offsets
(``pa.ListArray.from_arrays`` over the sorted flat ids — no Python
loop over terms). ``min_df`` drops hapax terms (at crawl scale ~half
the vocabulary) after assembly, before any downstream consumer.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from .exchange import by_bucket

_STATS = ""  # impossible token for \S+ tokenization — marks stats rows


def _flat_query_matches(batch: pa.Table, text_col: str,
                        qset: pa.Array) -> tuple[pa.Table, "np.ndarray"]:
    """(parent_row, query_index) pairs for every token of ``batch``
    that is one of the query terms, plus per-row token counts."""
    text = pc.cast(batch.column(text_col), pa.string())
    toks = pc.split_pattern_regex(text, pattern=r"\s+")
    parents = pc.list_parent_indices(toks)
    flat = pc.list_flatten(toks)
    qidx = pc.index_in(flat, value_set=qset)
    keep = pc.and_(pc.is_valid(qidx), pc.not_equal(flat, ""))
    pairs = pa.table({"_p": parents, "_q": qidx}).filter(keep)
    dl = pc.count_substring_regex(text, pattern=r"\S+").to_numpy(
        zero_copy_only=False).astype(np.int64)
    return pairs, dl


def bm25_topk(docs: "ray.data.Dataset", query_terms: list[str],
              id_col: str = "doc_id", text_col: str = "text",
              k: int = 10, k1: float = 1.2, b: float = 0.75,
              ndigits: int = 6) -> "ray.data.Dataset":
    """Top-``k`` documents by BM25 against ``query_terms``
    (whitespace-run tokens, exact match). Ties break on ``id_col``
    ascending. Documents matching no query term never leave their
    batch."""
    import ray as _ray

    qset = pa.array(list(dict.fromkeys(query_terms)), pa.string())

    def stats_partial(batch: pa.Table) -> pa.Table:
        pairs, dl = _flat_query_matches(batch, text_col, qset)
        # df partial: distinct (doc, term) pairs per query term
        dd = pairs.group_by(["_p", "_q"]).aggregate([])
        per_q = dd.group_by("_q").aggregate([([], "count_all")])
        terms = pc.take(qset, per_q.column("_q")).to_pylist()
        dfs = per_q.column("count_all").to_pylist()
        return pa.table({
            "term": pa.array(terms + [_STATS], pa.string()),
            "df": pa.array(dfs + [0], pa.int64()),
            "n_docs": pa.array([0] * len(terms) + [batch.num_rows],
                               pa.int64()),
            "sum_dl": pa.array([0] * len(terms) + [int(dl.sum())],
                               pa.int64()),
        })

    from ray.data.aggregate import Sum

    stats = (docs.select_columns([text_col])
             .map_batches(stats_partial, batch_format="pyarrow",
                          zero_copy_batch=True)
             .groupby("term")
             .aggregate(Sum("df", alias_name="df"),
                        Sum("n_docs", alias_name="n_docs"),
                        Sum("sum_dl", alias_name="sum_dl"))
             .take_all())  # ≤ |query|+1 rows by construction
    n_total = sum(r["n_docs"] for r in stats)
    sum_dl = sum(r["sum_dl"] for r in stats)
    if n_total == 0:
        return docs.limit(0).map_batches(
            lambda t: pa.table({id_col: pa.array([], pa.int64()),
                                "score": pa.array([], pa.float64())}),
            batch_format="pyarrow")
    avgdl = sum_dl / n_total
    df_by_term = {r["term"]: r["df"] for r in stats if r["term"] != _STATS}
    idf = np.array(
        [np.log1p((n_total - df_by_term.get(t, 0) + 0.5)
                  / (df_by_term.get(t, 0) + 0.5))
         for t in qset.to_pylist()], dtype=np.float64)
    idf_ref = _ray.put(idf)

    def score_batch(batch: pa.Table) -> pa.Table:
        pairs, dl = _flat_query_matches(batch, text_col, qset)
        if pairs.num_rows == 0:
            return pa.table({id_col: pa.array([], pa.int64()),
                             "score": pa.array([], pa.float64())})
        tf_t = (pairs.group_by(["_p", "_q"])
                .aggregate([([], "count_all")]))
        # fixed (_p, _q) order so per-doc summation is deterministic
        tf_t = tf_t.take(pc.sort_indices(
            tf_t, sort_keys=[("_p", "ascending"), ("_q", "ascending")]))
        p = tf_t.column("_p").to_numpy(zero_copy_only=False)
        q = tf_t.column("_q").to_numpy(zero_copy_only=False)
        tf = tf_t.column("count_all").to_numpy(
            zero_copy_only=False).astype(np.float64)
        w = _ray.get(idf_ref)
        denom = tf + k1 * (1.0 - b + b * dl[p] / avgdl)
        contrib = w[q] * tf * (k1 + 1.0) / denom
        score = np.zeros(batch.num_rows, dtype=np.float64)
        np.add.at(score, p, contrib)
        hit = np.unique(p)
        out = pa.table({
            id_col: pc.take(batch.column(id_col), pa.array(hit)),
            "score": pa.array(np.round(score[hit], ndigits)),
        })
        # batch-local top-k under the final comparator
        idx = pc.sort_indices(out, sort_keys=[
            ("score", "descending"), (id_col, "ascending")])
        return out.take(idx.slice(0, k))

    return (docs.select_columns([id_col, text_col])
            .map_batches(score_batch, batch_format="pyarrow",
                         zero_copy_batch=True)
            .sort(["score", id_col], descending=[True, False])
            .limit(k))


def inverted_index(docs: "ray.data.Dataset", id_col: str = "doc_id",
                   text_col: str = "text", min_df: int = 1
                   ) -> "ray.data.Dataset":
    """(term, df, postings, tfs): sorted doc-id posting list and
    matching term frequencies per corpus term. One term-key shuffle;
    posting lists assemble zero-copy from run offsets per bucket."""
    def tf_partial(batch: pa.Table) -> pa.Table:
        text = pc.cast(batch.column(text_col), pa.string())
        toks = pc.split_pattern_regex(text, pattern=r"\s+")
        parents = pc.list_parent_indices(toks)
        flat = pc.list_flatten(toks)
        t = pa.table({id_col: pc.take(batch.column(id_col), parents),
                      "term": flat})
        t = t.filter(pc.not_equal(t["term"], ""))
        g = t.group_by([id_col, "term"]).aggregate([([], "count_all")])
        return g.rename_columns([id_col, "term", "tf"])

    def assemble(t: pa.Table) -> pa.Table:
        t = t.take(pc.sort_indices(t, sort_keys=[
            ("term", "ascending"), (id_col, "ascending")]))
        terms = t.column("term").combine_chunks()
        n = len(terms)
        if n == 0:
            return pa.table({
                "term": pa.array([], pa.string()),
                "df": pa.array([], pa.int64()),
                "postings": pa.array([], pa.list_(pa.int64())),
                "tfs": pa.array([], pa.list_(pa.int64())),
            })
        first = np.concatenate(([True], pc.not_equal(
            terms.slice(1), terms.slice(0, n - 1))
            .to_numpy(zero_copy_only=False))) if n > 1 else \
            np.array([True])
        starts = np.flatnonzero(first)
        offsets = pa.array(np.concatenate((starts, [n])), pa.int32())
        ids = pc.cast(t.column(id_col), pa.int64()).combine_chunks()
        tfs = pc.cast(t.column("tf"), pa.int64()).combine_chunks()
        out = pa.table({
            "term": terms.take(pa.array(starts)),
            "df": pa.array(np.diff(np.concatenate((starts, [n]))),
                           pa.int64()),
            "postings": pa.ListArray.from_arrays(offsets, ids),
            "tfs": pa.ListArray.from_arrays(offsets, tfs),
        })
        if min_df > 1:
            out = out.filter(pc.greater_equal(out["df"], min_df))
        return out

    return by_bucket(docs.select_columns([id_col, text_col])
                     .map_batches(tf_partial, batch_format="pyarrow",
                                  zero_copy_batch=True),
                     "term", assemble)
