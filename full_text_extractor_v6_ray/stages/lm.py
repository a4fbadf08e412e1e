"""Distributed n-gram language-model scoring.

``bigram_logprob``: score every document by its mean interpolated
bigram log-probability under the corpus's OWN bigram/unigram LM —
the CCNet quality-scoring shape at the next model order up from
``text_ops.perplexity_buckets``. The deliberate difference from the
unigram path: the bigram table is VOCAB²-scale (a real web corpus's
KenLM is 100s of GB), so it is NEVER broadcast — the conditional
probabilities stay a distributed table and document bigrams meet it
through ONE bucketed unique-key lookup join on the bigram string
("w1 w2" — tokens cannot contain spaces, so the key is injective).

    p(w2 | w1) = λ · c(w1 w2)/c(w1)  +  (1−λ) · c(w2)/T

Pipeline (every stage a map-side combiner or a lookup join):
  1. corpus bigram counts: per-batch (w1 w2, n) partials → groupby;
  2. corpus unigram counts + total T: ``vocab_stats`` combiner;
  3. score table: bigram rows decorate with c(w1) and c(w2) via two
     unique-key lookup joins against the unigram table → one
     ln-probability per DISTINCT bigram (bigram-table-scale, not
     token-scale);
  4. document pairs (doc_id, "w1 w2") explode vectorized (Arrow
     adjacency over flattened tokens) → lookup join against the score
     table → per-doc (Σ lp, n) partials → tiny per-doc combine.

Every document bigram is in-vocab by construction (the same corpus
trains and scores, and ``vocab_stats`` tokenizes with the SAME RE2
``\\s+`` split as ``_doc_pairs`` — one tokenizer dialect, see
``functions.text_stats``); the inner lookup join therefore loses no
rows.
Docs with fewer than 2 tokens have no bigrams and are absent from the
output (SQL-equivalent: the pairs CTE is empty for them).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc


def _doc_pairs(batch: pa.Table, id_col: str, text_col: str) -> pa.Table:
    """(doc_id, 'w1 w2') rows for every adjacent in-doc token pair."""
    text = pc.cast(batch.column(text_col), pa.string())
    toks = pc.split_pattern_regex(text, pattern=r"\s+")
    flat = pc.list_flatten(toks).combine_chunks()
    par = pc.list_parent_indices(toks).combine_chunks()
    keep = pc.not_equal(flat, "")
    flat = flat.filter(keep)
    par = par.filter(keep).to_numpy(zero_copy_only=False)
    n = len(par)
    if n < 2:
        return pa.table({id_col: pa.array([], pa.int64()),
                         "bigram": pa.array([], pa.string())})
    adj = np.flatnonzero(par[1:] == par[:-1])
    w1 = flat.take(pa.array(adj))
    w2 = flat.take(pa.array(adj + 1))
    ids = batch.column(id_col).to_numpy(zero_copy_only=False)
    return pa.table({
        id_col: pa.array(ids[par[adj]].astype(np.int64), pa.int64()),
        "bigram": pc.binary_join_element_wise(w1, w2, " "),
    })


def bigram_logprob(docs: "ray.data.Dataset", id_col: str = "doc_id",
                   text_col: str = "text", lam: float = 0.7,
                   ndigits: int = 6,
                   broadcast_scores_max: int = 4_000_000
                   ) -> "ray.data.Dataset":
    """(doc_id, n_pairs, avg_logprob): mean interpolated bigram
    log-probability per document. See module docstring for the scale
    shape (distributed LM — the bigram table is never broadcast
    UNCONDITIONALLY; when the scored table measures under
    ``broadcast_scores_max`` rows it ships once as two sorted numpy
    arrays (16 B/row) and the token-scale exchange disappears, else
    the bucketed lookup join runs)."""
    from .dedup import bucketed_group_sum
    from .joins import broadcast_join, hash_join
    from .text_ops import vocab_stats

    slim = docs.select_columns([id_col, text_col])

    # 1. corpus bigram counts: map-side combiner, then the bucketed
    # reduce (NOT Ray's groupby("bigram") — the sort-based aggregate
    # on string keys was 65% of pipeline CPU at 2M docs)
    def bi_partial(batch: pa.Table) -> pa.Table:
        p = _doc_pairs(batch, id_col, text_col)
        g = p.select(["bigram"]).group_by("bigram").aggregate(
            [([], "count_all")])
        return g.rename_columns(["bigram", "c12"])

    bi = bucketed_group_sum(
        slim.map_batches(bi_partial, batch_format="pyarrow",
                         zero_copy_batch=True),
        "bigram", ["c12"])

    # 2. unigram counts; T is a tiny driver-side reduction. The table
    # is vocab-scale and feeds THREE consumers (total, c1 side, c2
    # side) — materialize once so the token-scale combiner shuffle
    # doesn't re-run per consumer
    uni = vocab_stats(slim, text_col=text_col).select_columns(
        ["token", "tf"]).materialize()
    total = uni.sum("tf")

    # 3. decorate bigrams with c(w1), c(w2) — two unique-key lookups
    def split_key(batch: pa.Table) -> pa.Table:
        parts = pc.split_pattern(batch.column("bigram"), pattern=" ",
                                 max_splits=1)
        return pa.table({
            "bigram": batch.column("bigram"),
            "c12": batch.column("c12"),
            "w1": pc.list_element(parts, 0),
            "w2": pc.list_element(parts, 1),
        })

    uni1 = uni.map_batches(
        lambda b: b.rename_columns(["tok1", "c1"]),
        batch_format="pyarrow", zero_copy_batch=True)
    uni2 = uni.map_batches(
        lambda b: b.rename_columns(["tok2", "c2"]),
        batch_format="pyarrow", zero_copy_batch=True)
    bi_keyed = bi.map_batches(split_key, batch_format="pyarrow",
                              zero_copy_batch=True)
    j1 = hash_join(bi_keyed, uni1, "w1", "tok1")
    j2 = hash_join(j1, uni2, "w2", "tok2")

    def score_bigram(batch: pa.Table) -> pa.Table:
        from .hashing import hash64

        c12 = batch.column("c12").to_numpy(zero_copy_only=False)
        c1 = batch.column("c1").to_numpy(zero_copy_only=False)
        c2 = batch.column("c2").to_numpy(zero_copy_only=False)
        p = lam * (c12 / c1) + (1.0 - lam) * (c2 / float(total))
        return pa.table({
            "kbhash": pa.array(hash64(batch.column("bigram"))),
            "lp": pa.array(np.log(p)),
        })

    scores = j2.map_batches(score_bigram, batch_format="pyarrow",
                            zero_copy_batch=True)
    score_schema = pa.schema([("kbhash", pa.uint64()),
                              ("lp", pa.float64())])

    # 4. token-scale lookup of doc pairs against the score table. Two
    # measured shuffle cuts vs the naive (doc_id, bigram-string) rows
    # (840 s -> see BASELINE.md, R=400): (a) the join key is the
    # 64-bit stable hash of the bigram, so 16 B/row moves instead of a
    # ~20 B string + offsets and the in-bucket probe compares uint64,
    # not strings (same collision acceptance as the ngram-dedup
    # family); (b) repeated in-doc bigrams combine map-side into
    # (doc, bhash, n) — the join then carries one row per DISTINCT
    # doc-bigram and the mean weights by n.
    def pairs_combined(batch: pa.Table) -> pa.Table:
        from .hashing import hash64

        p = _doc_pairs(batch, id_col, text_col)
        t = pa.table({id_col: p.column(id_col),
                      "bhash": pa.array(hash64(p.column("bigram")))})
        g = t.group_by([id_col, "bhash"]).aggregate([([], "count_all")])
        return g.rename_columns([id_col, "bhash", "n"])

    pairs = slim.map_batches(pairs_combined, batch_format="pyarrow",
                             zero_copy_batch=True)

    # Size dispatch: the scored table is |distinct bigrams| rows —
    # vocab²-bounded in theory, usually far smaller. Under the
    # threshold it is collected once and the scoring is an inner
    # ``broadcast_join`` (the token-scale all-to-all disappears); over
    # it, the bucketed lookup join is the scale path. Both drop a pair
    # whose bigram has no score.
    import ray as _ray

    scores_mat = scores.materialize()
    if scores_mat.count() <= broadcast_scores_max:
        blocks = [t for t in _ray.get(scores_mat.to_arrow_refs())
                  if t.num_rows > 0]  # empty blocks carry a null schema
        st = (pa.concat_tables(blocks).select(score_schema.names)
              if blocks else score_schema.empty_table())
        scored = broadcast_join(pairs, st, "bhash", "kbhash")
    else:
        scored = hash_join(pairs, scores_mat, "bhash", "kbhash")

    def doc_partial(batch: pa.Table) -> pa.Table:
        nf = pc.cast(batch.column("n"), pa.float64())
        t = pa.table({
            id_col: batch.column(id_col),
            "_wlp": pc.multiply(batch.column("lp"), nf),
            "_n": batch.column("n"),
        })
        g = t.group_by(id_col).aggregate([("_wlp", "sum"),
                                          ("_n", "sum")])
        return g.rename_columns([id_col, "_slp", "_n"])

    def finish(batch: pa.Table) -> pa.Table:
        avg = pc.divide(batch.column("_slp"),
                        pc.cast(batch.column("_n"), pa.float64()))
        return pa.table({
            id_col: batch.column(id_col),
            "n_pairs": batch.column("_n"),
            "avg_logprob": pc.round(avg, ndigits=ndigits),
        })

    return (bucketed_group_sum(
                scored.map_batches(doc_partial, batch_format="pyarrow",
                                   zero_copy_batch=True),
                id_col, ["_slp", "_n"])
            .map_batches(finish, batch_format="pyarrow",
                         zero_copy_batch=True))
