"""Similarity search over an embedding column (list<float>).

Two paths, per the training-data-pipeline requirement:

  - brute-force cosine top-k (the exact baseline): the query matrix rides
    inside the stage's callable, which Ray ships ONCE per execution (never
    re-shipped per batch); each batch does one numpy matmul and emits only
    its local top-k per query — the driver-side final reduce sees
    (#blocks x k x #queries) tiny rows, never the full score matrix.

  - LSH-bucketed ANN (the scale path): random-hyperplane signatures bucket
    vectors; queries probe only their own bucket (+ optional multi-probe),
    turning the all-pairs matmul into per-bucket matmuls. Approximate by
    construction — verified in tests by recall against brute force, not by
    a SQL oracle.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

import ray
import ray.data


def _to_matrix(col: pa.ChunkedArray) -> np.ndarray:
    """list<float> column -> (n, d) float64 matrix (zero-copy-ish)."""
    arr = col.combine_chunks()
    flat = arr.flatten().to_numpy(zero_copy_only=False).astype(np.float64)
    n = len(arr)
    return flat.reshape(n, -1) if n else flat.reshape(0, 0)


def _normalize(m: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(m, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    return m / norms


class CosineTopKBatch:
    """map_batches task: local top-k cosine scores vs the query matrix."""

    def __init__(self, query_ids: list[int], query_vecs: np.ndarray,
                 k: int = 10):
        self.query_ids = list(query_ids)
        self.qmat = _normalize(np.asarray(query_vecs, dtype=np.float64))
        self.k = k

    def __call__(self, batch: pa.Table) -> pa.Table:
        vecs = _normalize(_to_matrix(batch.column("embedding")))
        vec_ids = batch.column("vec_id").to_numpy(zero_copy_only=False)
        scores = vecs @ self.qmat.T                       # (n, nq)
        k = min(self.k, scores.shape[0])
        out_q, out_v, out_s = [], [], []
        for qi, qid in enumerate(self.query_ids):
            col = scores[:, qi]
            top = np.argpartition(-col, k - 1)[:k] if k else []
            for i in top:
                out_q.append(int(qid))
                out_v.append(int(vec_ids[i]))
                out_s.append(float(col[i]))
        return pa.table({
            "query_id": pa.array(out_q, pa.int64()),
            "vec_id": pa.array(out_v, pa.int64()),
            "score": pa.array(out_s, pa.float64()),
        })


def knn_cosine(embeddings: "ray.data.Dataset", query_ids: list[int],
               query_vecs: np.ndarray, k: int = 10) -> pd.DataFrame:
    """Exact cosine top-k of each query vs the dataset. Returns a small
    (len(queries) x k) pandas frame, deterministically ordered
    (query_id asc, score desc round 9, vec_id asc)."""
    partials = embeddings.map_batches(
        CosineTopKBatch(query_ids, query_vecs, k),
        batch_format="pyarrow", batch_size=4096).to_pandas()
    partials["score_r"] = partials["score"].round(9)
    partials = partials.sort_values(
        ["query_id", "score_r", "vec_id"], ascending=[True, False, True],
        kind="mergesort")
    out = partials.groupby("query_id", sort=True).head(k)
    return out[["query_id", "vec_id", "score"]].reset_index(drop=True)


# ---------------------------------------------------------------------------
# LSH-bucketed ANN (scale path)
# ---------------------------------------------------------------------------

class LshSignBatch:
    """Random-hyperplane LSH: n_planes-bit bucket id per vector."""

    def __init__(self, dim: int, n_planes: int = 8, seed: int = 42):
        rng = np.random.RandomState(seed)
        self.planes = rng.standard_normal((dim, n_planes))

    def bucket_of(self, vecs: np.ndarray) -> np.ndarray:
        signs = (vecs @ self.planes) > 0
        return (signs * (1 << np.arange(signs.shape[1]))).sum(axis=1)

    def __call__(self, batch: pa.Table) -> pa.Table:
        vecs = _to_matrix(batch.column("embedding"))
        return batch.append_column(
            "lsh_bucket", pa.array(self.bucket_of(vecs).astype(np.int64)))


def knn_cosine_lsh(embeddings: "ray.data.Dataset", query_ids: list[int],
                   query_vecs: np.ndarray, k: int = 10, n_planes: int = 8,
                   n_tables: int = 4, seed: int = 42,
                   dim: int | None = None) -> pd.DataFrame:
    """Approximate top-k via MULTI-TABLE random-hyperplane LSH.

    Each of ``n_tables`` independent plane sets buckets every vector once
    (explode x L rows — ints only, vectors ship once per row via the
    embedding column); a query probes its own bucket in every table and the
    candidates are deduped. One groupby shuffle on (table, bucket);
    per-bucket numpy matmuls inside map_groups. Recall grows ~L-fold over
    a single table at L x shuffle cost — the standard ANN trade."""
    qv = np.asarray(query_vecs, dtype=np.float64)
    d = dim or qv.shape[1]
    signers = [LshSignBatch(d, n_planes, seed + 1000 * t)
               for t in range(n_tables)]

    def multi_lsh(batch: pa.Table) -> pa.Table:
        vecs = _to_matrix(batch.column("embedding"))
        tables = []
        for t, s in enumerate(signers):
            b = s.bucket_of(vecs).astype(np.int64)
            tbl = batch.append_column("lsh_table",
                                      pa.array([t] * len(b), pa.int32()))
            tables.append(tbl.append_column("lsh_bucket", pa.array(b)))
        return pa.concat_tables(tables)

    bucketed = embeddings.map_batches(multi_lsh, batch_format="pyarrow",
                                      batch_size=4096)

    by_bucket: dict[tuple[int, int], list[int]] = {}
    for t, s in enumerate(signers):
        for qi, b in enumerate(s.bucket_of(qv)):
            by_bucket.setdefault((t, int(b)), []).append(qi)
    ref = ray.put({"by_bucket": by_bucket, "qmat": _normalize(qv),
                   "ids": list(query_ids)})

    def per_bucket(g: pa.Table, _cache: dict = {}) -> pa.Table:
        # one plasma get per TASK (the deserialized fn persists across the
        # groups a task processes), not one per group invocation
        q = _cache.get("q")
        if q is None:
            q = _cache["q"] = ray.get(ref)
        key = (int(g.column("lsh_table")[0].as_py()),
               int(g.column("lsh_bucket")[0].as_py()))
        qidx = q["by_bucket"].get(key, [])
        if not qidx:
            return pa.table({"query_id": pa.array([], pa.int64()),
                             "vec_id": pa.array([], pa.int64()),
                             "score": pa.array([], pa.float64())})
        vecs = _normalize(_to_matrix(g.column("embedding")))
        vec_ids = g.column("vec_id").to_numpy(zero_copy_only=False)
        scores = vecs @ q["qmat"][qidx].T
        kk = min(k, scores.shape[0])
        oq, ov, os_ = [], [], []
        for ci, qi in enumerate(qidx):
            col = scores[:, ci]
            top = np.argpartition(-col, kk - 1)[:kk]
            for i in top:
                oq.append(int(q["ids"][qi]))
                ov.append(int(vec_ids[i]))
                os_.append(float(col[i]))
        return pa.table({"query_id": pa.array(oq, pa.int64()),
                         "vec_id": pa.array(ov, pa.int64()),
                         "score": pa.array(os_, pa.float64())})

    partials = bucketed.groupby(["lsh_table", "lsh_bucket"]).map_groups(
        per_bucket, batch_format="pyarrow").to_pandas()
    if partials.empty:
        return pd.DataFrame({"query_id": pd.Series([], dtype="int64"),
                             "vec_id": pd.Series([], dtype="int64"),
                             "score": pd.Series([], dtype="float64")})
    partials = partials.drop_duplicates(["query_id", "vec_id"])
    partials["score_r"] = partials["score"].round(9)
    partials = partials.sort_values(
        ["query_id", "score_r", "vec_id"], ascending=[True, False, True],
        kind="mergesort")
    out = partials.groupby("query_id", sort=True).head(k)
    return out[["query_id", "vec_id", "score"]].reset_index(drop=True)


def cosine_neardup_lsh(embeddings: "ray.data.Dataset",
                       threshold: float = 0.45, n_planes: int = 8,
                       n_tables: int = 4, seed: int = 42
                       ) -> "ray.data.Dataset":
    """Embedding-cosine near-dup pairs WITHOUT a full-matrix broadcast —
    the 10^12-scale path (the exact all-pairs variant is O(N^2) compute
    with O(N*d) per-task memory and exists only as the small-scale
    oracle verifier, driver_queries.q_embeddings_neardup).

    Shape: multi-table random-hyperplane LSH buckets each vector L times
    (ints + the vector itself, shipped L x once — not N times); ONE
    groupby shuffle on (table, bucket); per-bucket all-pairs matmul emits
    (vec_a < vec_b, cosine >= threshold); vectorized hash-bucketed global
    distinct. Recall is probabilistic (grows with L) — verified in tests
    against the exact pairs, not by a SQL oracle.

    Partitioning assumption: one (table, bucket) group fits a task —
    bucket population ~ N/2^n_planes per table; raise n_planes with N.
    """
    from .dedup import hash_bucketed_distinct

    def multi_lsh(batch: pa.Table) -> pa.Table:
        # plane sets from the batch's own dim (seeded, so every batch of
        # one dim draws the same planes)
        vecs = _to_matrix(batch.column("embedding"))
        tables = []
        for t in range(n_tables):
            s = LshSignBatch(vecs.shape[1], n_planes, seed + 1000 * t)
            b = s.bucket_of(vecs).astype(np.int64)
            tbl = batch.append_column(
                "lsh_table", pa.array(np.full(len(b), t, dtype=np.int32)))
            tables.append(tbl.append_column("lsh_bucket", pa.array(b)))
        return pa.concat_tables(tables)

    bucketed = embeddings.map_batches(multi_lsh, batch_format="pyarrow",
                                      batch_size=4096)

    def per_bucket(g: pa.Table) -> pa.Table:
        vecs = _normalize(_to_matrix(g.column("embedding")))
        ids = g.column("vec_id").to_numpy(zero_copy_only=False).astype(np.int64)
        m = len(ids)
        if m < 2:
            return pa.table({"vec_a": pa.array([], pa.int64()),
                             "vec_b": pa.array([], pa.int64()),
                             "cosine": pa.array([], pa.float64())})
        scores = vecs @ vecs.T
        ia, ib = np.nonzero(np.triu(scores >= threshold, k=1))
        a, b = ids[ia], ids[ib]
        lo, hi = np.minimum(a, b), np.maximum(a, b)
        keep = lo != hi  # same vec_id bucketed twice (shouldn't happen)
        return pa.table({"vec_a": pa.array(lo[keep]),
                         "vec_b": pa.array(hi[keep]),
                         "cosine": pa.array(
                             np.round(scores[ia, ib][keep], 6))})

    pairs = bucketed.groupby(["lsh_table", "lsh_bucket"]).map_groups(
        per_bucket, batch_format="pyarrow")
    return hash_bucketed_distinct(pairs, ["vec_a", "vec_b"])


# ---------------------------------------------------------------------------
# IVF (inverted-file) ANN — the coarse-quantizer scale path
# ---------------------------------------------------------------------------

def kmeans_fit(sample: np.ndarray, n_clusters: int, seed: int = 42,
               iters: int = 10) -> np.ndarray:
    """Seeded Lloyd's k-means on a normalized sample -> (k, d) centroids.

    Deterministic: init = first k rows of a seeded permutation; fixed
    iteration count; ties broken by argmax order.
    """
    x = _normalize(np.asarray(sample, dtype=np.float64))
    rng = np.random.RandomState(seed)
    idx = rng.permutation(len(x))[:n_clusters]
    cent = x[idx].copy()
    for _ in range(iters):
        assign = (x @ cent.T).argmax(axis=1)
        for c in range(n_clusters):
            members = x[assign == c]
            if len(members):
                cent[c] = members.mean(axis=0)
        cent = _normalize(cent)
    return cent


class IvfAssignBatch:
    """Assign each vector to its nearest centroid's list."""

    def __init__(self, centroids: np.ndarray):
        self.cent = centroids

    def __call__(self, batch: pa.Table) -> pa.Table:
        vecs = _normalize(_to_matrix(batch.column("embedding")))
        assign = (vecs @ self.cent.T).argmax(axis=1).astype(np.int64)
        return batch.append_column("ivf_list", pa.array(assign))


def knn_cosine_ivf(embeddings: "ray.data.Dataset", query_ids: list[int],
                   query_vecs: np.ndarray, k: int = 10,
                   n_clusters: int = 16, nprobe: int = 4,
                   seed: int = 42, train_sample: int = 4096) -> pd.DataFrame:
    """IVF ANN: coarse k-means partitions the corpus into inverted lists;
    each query scans only its ``nprobe`` nearest lists.

    Train on a driver-side sample (bounded by ``train_sample`` rows — at
    10^12 scale a seeded random_sample feeds this), ship the centroids
    inside the assign stage's callable, assign lists in map_batches, ONE
    groupby shuffle on the list id, per-list numpy matmuls in map_groups.
    """
    qv = _normalize(np.asarray(query_vecs, dtype=np.float64))
    sample_tbl = pa.concat_tables(
        b for b in embeddings.limit(train_sample)
        .iter_batches(batch_size=1024, batch_format="pyarrow"))
    cent = kmeans_fit(_to_matrix(sample_tbl.column("embedding")),
                      n_clusters, seed)
    assigned = embeddings.map_batches(IvfAssignBatch(cent),
                                      batch_format="pyarrow", batch_size=4096)

    probes: dict[int, list[int]] = {}
    order = np.argsort(-(qv @ cent.T), axis=1, kind="stable")[:, :nprobe]
    for qi, lists in enumerate(order):
        for li in lists:
            probes.setdefault(int(li), []).append(qi)
    ref = ray.put({"probes": probes, "qmat": qv, "ids": list(query_ids)})

    def per_list(g: pa.Table, _cache: dict = {}) -> pa.Table:
        q = _cache.get("q")
        if q is None:
            q = _cache["q"] = ray.get(ref)   # once per task, not per group
        li = int(g.column("ivf_list")[0].as_py())
        qidx = q["probes"].get(li, [])
        if not qidx:
            return pa.table({"query_id": pa.array([], pa.int64()),
                             "vec_id": pa.array([], pa.int64()),
                             "score": pa.array([], pa.float64())})
        vecs = _normalize(_to_matrix(g.column("embedding")))
        vec_ids = g.column("vec_id").to_numpy(zero_copy_only=False)
        scores = vecs @ q["qmat"][qidx].T
        kk = min(k, scores.shape[0])
        oq, ov, osc = [], [], []
        for ci, qi in enumerate(qidx):
            col = scores[:, ci]
            for i in np.argpartition(-col, kk - 1)[:kk]:
                oq.append(int(q["ids"][qi]))
                ov.append(int(vec_ids[i]))
                osc.append(float(col[i]))
        return pa.table({"query_id": pa.array(oq, pa.int64()),
                         "vec_id": pa.array(ov, pa.int64()),
                         "score": pa.array(osc, pa.float64())})

    partials = assigned.groupby("ivf_list").map_groups(
        per_list, batch_format="pyarrow").to_pandas()
    if partials.empty:
        return pd.DataFrame({"query_id": pd.Series([], dtype="int64"),
                             "vec_id": pd.Series([], dtype="int64"),
                             "score": pd.Series([], dtype="float64")})
    partials = partials.drop_duplicates(["query_id", "vec_id"])
    partials["score_r"] = partials["score"].round(9)
    partials = partials.sort_values(
        ["query_id", "score_r", "vec_id"], ascending=[True, False, True],
        kind="mergesort")
    out = partials.groupby("query_id", sort=True).head(k)
    return out[["query_id", "vec_id", "score"]].reset_index(drop=True)


# ---------------------------------------------------------------------------
# Per-label centroids: the combiner pattern over vector columns
# ---------------------------------------------------------------------------

def label_centroids(embeddings: "ray.data.Dataset",
                    emb_col: str = "embedding",
                    label_col: str = "label") -> "ray.data.Dataset":
    """(label, dim, mean_val): per-label centroid in long format.

    Map-side combiner: each batch reduces to ONE (sum_vec, n) partial per
    label present in the batch (float64 accumulate, vectorized matmul-free
    masked sums), so the label shuffle moves |labels| x n_batches rows of
    dim x 8 bytes — never the raw vectors. The reduce merges partials and
    explodes to long rows; mean rounded to 6 dp to pin the oracle hash.
    """
    import pandas as pd

    label_type = None

    def partial(batch: pa.Table) -> pa.Table:
        labels = batch.column(label_col).to_numpy(zero_copy_only=False)
        M = _to_matrix(batch.column(emb_col)).astype(np.float64)
        uniq = np.unique(labels)
        sums = np.empty((len(uniq), M.shape[1]), dtype=np.float64)
        ns = np.empty(len(uniq), dtype=np.int64)
        for j, lab in enumerate(uniq):
            mask = labels == lab
            sums[j] = M[mask].sum(axis=0)
            ns[j] = int(mask.sum())
        return pa.table({
            "label": pa.array(uniq).cast(batch.schema.field(label_col).type),
            "vsum": pa.array([s.tobytes() for s in sums], pa.binary()),
            "n": pa.array(ns, pa.int64()),
        })

    def reduce_group(g: pd.DataFrame) -> pd.DataFrame:
        vs = np.stack([np.frombuffer(b, dtype=np.float64)
                       for b in g["vsum"]]).sum(axis=0)
        mean = np.round(vs / int(g["n"].sum()), 6)
        return pd.DataFrame({
            "label": np.repeat(g["label"].iloc[0], len(mean)),
            "dim": np.arange(len(mean), dtype=np.int64),
            "mean_val": mean,
        })

    return (embeddings.map_batches(partial, batch_format="pyarrow",
                                   batch_size=512)
            .groupby("label")
            .map_groups(reduce_group, batch_format="pandas"))


# ---------------------------------------------------------------------------
# int8 vector quantization (storage scale path)
# ---------------------------------------------------------------------------

def quantize_int8(embeddings: "ray.data.Dataset",
                  emb_col: str = "embedding",
                  id_col: str = "vec_id") -> "ray.data.Dataset":
    """Symmetric per-vector int8 quantization in long format
    (vec_id, scale, dim, qval): scale = max|x|/127, qval =
    clip(round_half_away(x/scale), -127, 127).

    Rounding is pinned to floor(|x/s| + 0.5) * sign(x) — identical
    semantics in numpy and SQL (numpy's np.round would round half to
    even; DuckDB's round() rounds half away — neither matches the other,
    floor(+0.5) matches both engines exactly). Fully vectorized per
    batch; embarrassingly parallel, no shuffle at all.
    """
    def q(batch: pa.Table) -> pa.Table:
        ids = batch.column(id_col).to_numpy(zero_copy_only=False)
        M = _to_matrix(batch.column(emb_col))
        n, d = M.shape
        scale = (np.abs(M).max(axis=1).astype(np.float64) / 127.0)
        safe = np.where(scale == 0.0, 1.0, scale)
        X = M.astype(np.float64) / safe[:, None]
        Q = np.floor(np.abs(X) + 0.5) * np.sign(X)
        Q = np.clip(Q, -127, 127).astype(np.int64)
        Q[scale == 0.0, :] = 0
        return pa.table({
            id_col: pa.array(np.repeat(ids, d).astype(np.int64)),
            "scale": pa.array(np.repeat(scale, d)),
            "dim": pa.array(np.tile(np.arange(d, dtype=np.int64), n)),
            "qval": pa.array(Q.reshape(-1)),
        })

    return embeddings.map_batches(q, batch_format="pyarrow", batch_size=1024)


# ---------------------------------------------------------------------------
# Distributed k-means (Lloyd's iterations over a streaming Dataset)
# ---------------------------------------------------------------------------

def _seed_centroids(embeddings: "ray.data.Dataset", k: int,
                    emb_col: str, id_col: str,
                    sample_per_seed: int = 64) -> np.ndarray:
    """Deterministic farthest-point init over a bounded min-id sample.

    Two steps, both scale-safe: (1) a slim two-level min-(k*64): each
    batch keeps only its k*64 lowest-id rows (id + raw vector bytes),
    the driver merges the O(k*64 x n_batches) partials — no sort
    shuffle, no full materialization; (2) greedy farthest-point
    selection on that sample (start at the smallest id, repeatedly add
    the sample row farthest from the chosen set, ties to the lowest
    id) — the k-means++ shape without RNG, so two runs seed
    identically. Min-id seeding alone converges to split-one-blob
    local optima whenever the low ids cluster together.
    """
    cap = k * sample_per_seed

    def local_mink(batch: pa.Table) -> pa.Table:
        ids = batch.column(id_col).to_numpy(zero_copy_only=False)
        M = _to_matrix(batch.column(emb_col)).astype(np.float64)
        kk = min(cap, len(ids))
        top = np.argsort(ids, kind="stable")[:kk]
        return pa.table({
            "_id": pa.array(ids[top].astype(np.int64)),
            "_vec": pa.array([M[i].tobytes() for i in top], pa.binary()),
        })

    parts = embeddings.map_batches(local_mink, batch_format="pyarrow",
                                   zero_copy_batch=True).take_all()
    parts.sort(key=lambda r: r["_id"])
    parts = parts[:cap]
    if not parts:
        raise ValueError("kmeans: empty embeddings dataset")
    S = np.stack([np.frombuffer(r["_vec"], dtype=np.float64)
                  for r in parts])
    chosen = [0]
    mind = ((S - S[0]) ** 2).sum(axis=1)
    while len(chosen) < min(k, len(S)):
        nxt = int(np.argmax(mind))          # first max -> lowest id wins
        chosen.append(nxt)
        mind = np.minimum(mind, ((S - S[nxt]) ** 2).sum(axis=1))
    return S[chosen]


def _assign(M: np.ndarray, C: np.ndarray) -> np.ndarray:
    """Nearest-centroid index per row; ties break to the lowest index
    (np.argmin contract) so assignment is deterministic."""
    # ||x-c||^2 = ||x||^2 - 2 x.c + ||c||^2 ; ||x||^2 constant per row.
    d = -2.0 * (M @ C.T) + (C * C).sum(axis=1)[None, :]
    return np.argmin(d, axis=1)


def kmeans_fit_ds(embeddings: "ray.data.Dataset", k: int = 8,
                  n_iter: int = 20, emb_col: str = "embedding",
                  id_col: str = "vec_id") -> np.ndarray:
    """Lloyd's k-means over a full Dataset; returns the (k, d) centroids.

    Distinct from ``kmeans_fit`` above (the IVF coarse quantizer, which
    trains on a bounded driver-side SAMPLE): this one streams every
    vector through map-side partial sums each iteration — the variant
    you want when the clustering itself is the product (corpus
    curation / domain discovery), not just an index.

    Scale shape (the only one that works at 10^12 vectors): centroids are
    driver state of size k x d (KBs); each iteration broadcasts them via
    ``ray.put`` and streams ONE ``map_batches`` pass that reduces every
    batch to at most k (cluster, vec_sum, n) partials — the driver pulls
    O(k x n_batches) metadata-sized rows, never a vector. The input
    Dataset is re-executed per iteration (lazy re-read; at cluster scale
    pin it with ``materialize()``/checkpoint first if the read dominates).

    Determinism: partials carry their batch's min id and are summed in
    sorted (cluster, min_id) order; centroids round to 9 dp per
    iteration; empty clusters keep their previous centroid; early-stop on
    exact (rounded) fixpoint. Two runs over the same blocks produce
    byte-identical centroids.
    """
    C = np.round(_seed_centroids(embeddings, k, emb_col, id_col), 9)
    k = C.shape[0]

    for _ in range(n_iter):
        cref = ray.put(C)

        def partial(batch: pa.Table) -> pa.Table:
            cent = ray.get(cref)
            ids = batch.column(id_col).to_numpy(zero_copy_only=False)
            M = _to_matrix(batch.column(emb_col)).astype(np.float64)
            lab = _assign(M, cent)
            uniq = np.unique(lab)
            sums = np.empty((len(uniq), M.shape[1]), dtype=np.float64)
            ns = np.empty(len(uniq), dtype=np.int64)
            for j, c in enumerate(uniq):
                m = lab == c
                sums[j] = M[m].sum(axis=0)
                ns[j] = int(m.sum())
            mn = int(ids.min()) if len(ids) else 0
            return pa.table({
                "cluster": pa.array(uniq.astype(np.int64)),
                "vsum": pa.array([s.tobytes() for s in sums], pa.binary()),
                "n": pa.array(ns, pa.int64()),
                "min_id": pa.array(np.full(len(uniq), mn, dtype=np.int64)),
            })

        parts = embeddings.map_batches(
            partial, batch_format="pyarrow", zero_copy_batch=True,
            batch_size=1024).take_all()
        parts.sort(key=lambda r: (r["cluster"], r["min_id"]))
        newC = C.copy()
        acc: dict[int, tuple[np.ndarray, int]] = {}
        for r in parts:
            v = np.frombuffer(r["vsum"], dtype=np.float64)
            s, n = acc.get(r["cluster"], (np.zeros_like(v), 0))
            acc[r["cluster"]] = (s + v, n + int(r["n"]))
        for c, (s, n) in acc.items():
            if n:
                newC[c] = s / n
        newC = np.round(newC, 9)
        if np.array_equal(newC, C):
            break
        C = newC
    return C


def kmeans_assign(embeddings: "ray.data.Dataset", centroids: np.ndarray,
                  emb_col: str = "embedding",
                  id_col: str = "vec_id") -> "ray.data.Dataset":
    """(id, cluster) assignment under fixed broadcast centroids —
    embarrassingly parallel, one streaming pass, no shuffle."""
    cref = ray.put(np.asarray(centroids, dtype=np.float64))

    def fn(batch: pa.Table) -> pa.Table:
        cent = ray.get(cref)
        ids = batch.column(id_col).to_numpy(zero_copy_only=False)
        M = _to_matrix(batch.column(emb_col)).astype(np.float64)
        return pa.table({
            id_col: pa.array(ids.astype(np.int64)),
            "cluster": pa.array(_assign(M, cent).astype(np.int64)),
        })

    return embeddings.map_batches(fn, batch_format="pyarrow",
                                  zero_copy_batch=True, batch_size=1024)


# ---------------------------------------------------------------------------
# SemDeDup (Abbas et al. 2023, "SemDeDup: Data-efficient learning at
# web-scale through semantic deduplication")
# ---------------------------------------------------------------------------

def semdedup(embeddings: "ray.data.Dataset", k: int = 8,
             threshold: float = 0.95, emb_col: str = "embedding",
             id_col: str = "vec_id", n_iter: int = 10) -> "ray.data.Dataset":
    """Semantic dedup: k-means clusters bound the pairwise cosine
    search (the paper's core trick — within-cluster comparisons only,
    never corpus all-pairs), pairs >= ``threshold`` form components,
    the min-id member of each component survives. Returns the
    surviving (id, embedding) rows.

    Scale shape: the Dataset-scale k-means (``kmeans_fit_ds`` — k x d
    driver state, per-batch partial sums), a no-shuffle assignment
    pass, ONE cluster-key shuffle for the exact pair mining, then the
    shared component/removal machinery (iterative label propagation,
    size-dispatched drop). Partitioning assumption: one cluster's rows
    fit a task — raise ``k`` with the corpus (the paper uses 50k
    clusters at LAION scale); in-cluster work is O(m²) vectorized
    matmul, the accepted SemDeDup cost."""
    from .fuzzy_dedup import dup_components_ds, remove_neardup_members

    slim = embeddings.select_columns([id_col, emb_col])
    C = kmeans_fit_ds(slim, k=k, n_iter=n_iter, emb_col=emb_col,
                      id_col=id_col)
    cref = ray.put(np.asarray(C, dtype=np.float64))

    def attach_cluster(batch: pa.Table) -> pa.Table:
        cent = ray.get(cref)
        M = _to_matrix(batch.column(emb_col)).astype(np.float64)
        return batch.append_column(
            "cluster", pa.array(_assign(M, cent).astype(np.int64)))

    # Assignment rides the same pass that feeds the groupby — no join,
    # the embedding payload crosses exactly ONE shuffle.
    joined = slim.map_batches(attach_cluster, batch_format="pyarrow",
                              zero_copy_batch=True, batch_size=1024)

    def per_cluster(g: pa.Table) -> pa.Table:
        vecs = _normalize(_to_matrix(g.column(emb_col)))
        ids = g.column(id_col).to_numpy(
            zero_copy_only=False).astype(np.int64)
        m = len(ids)
        if m < 2:
            return pa.table({"doc_a": pa.array([], pa.int64()),
                             "doc_b": pa.array([], pa.int64())})
        scores = vecs @ vecs.T
        ia, ib = np.nonzero(np.triu(scores >= threshold, k=1))
        a, b = ids[ia], ids[ib]
        return pa.table({"doc_a": pa.array(np.minimum(a, b)),
                         "doc_b": pa.array(np.maximum(a, b))})

    pairs = joined.groupby("cluster").map_groups(per_cluster,
                                                 batch_format="pyarrow")
    comp = dup_components_ds(pairs)
    return remove_neardup_members(embeddings, comp, key=id_col)
