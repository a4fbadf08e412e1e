"""Similarity search: brute-force exactness vs numpy oracle; LSH recall."""

import os

import numpy as np
import pyarrow.parquet as pq
import pytest

SF_DIR = "/root/testdata/sf0.001"


@pytest.fixture(scope="module")
def emb_table():
    return pq.read_table(os.path.join(SF_DIR, "embeddings.parquet"))


def _numpy_oracle(tbl, qids, qvecs, k):
    mat = np.array(tbl["embedding"].to_pylist(), dtype=np.float64)
    ids = np.array(tbl["vec_id"].to_pylist())
    matn = mat / np.linalg.norm(mat, axis=1, keepdims=True)
    qn = qvecs / np.linalg.norm(qvecs, axis=1, keepdims=True)
    rows = []
    for qi, qid in enumerate(qids):
        scores = matn @ qn[qi]
        order = np.lexsort((ids, -scores.round(9)))[:k]
        for i in order:
            rows.append((qid, int(ids[i]), float(scores[i])))
    return rows


def test_knn_cosine_matches_numpy_oracle(ray_session, emb_table):
    import ray.data
    from full_text_extractor_v6_ray.stages.embed import knn_cosine

    qvecs = np.array(emb_table["embedding"].to_pylist()[:5], dtype=np.float64)
    qids = emb_table["vec_id"].to_pylist()[:5]
    ds = ray.data.from_arrow(emb_table)
    got = knn_cosine(ds, qids, qvecs, k=10)
    expect = _numpy_oracle(emb_table, qids, qvecs, 10)
    got_rows = list(zip(got["query_id"], got["vec_id"]))
    assert got_rows == [(q, v) for q, v, _ in expect]
    # each query's own vector must be its top hit (score ~1)
    top = got.groupby("query_id").first()
    assert list(top.index) == sorted(qids)
    assert all(abs(s - 1.0) < 1e-9
               for s in got.groupby("query_id")["score"].max())


def test_knn_lsh_recall(ray_session, emb_table):
    import ray.data
    from full_text_extractor_v6_ray.stages.embed import knn_cosine, knn_cosine_lsh

    qvecs = np.array(emb_table["embedding"].to_pylist()[:5], dtype=np.float64)
    qids = emb_table["vec_id"].to_pylist()[:5]
    ds = ray.data.from_arrow(emb_table)

    exact = knn_cosine(ds, qids, qvecs, k=10)
    approx = knn_cosine_lsh(ds, qids, qvecs, k=10, n_planes=4)

    # self-match must survive bucketing (query vec is in its own bucket)
    for qid in qids:
        hits = approx[approx["query_id"] == qid]
        assert len(hits) > 0
        assert hits.iloc[0]["vec_id"] == qid

    # overall recall vs exact: modest bar — it is approximate by design
    exact_set = set(zip(exact["query_id"], exact["vec_id"]))
    approx_set = set(zip(approx["query_id"], approx["vec_id"]))
    recall = len(exact_set & approx_set) / len(exact_set)
    assert recall >= 0.3


def test_cosine_neardup_lsh_recall(ray_session, emb_table):
    """LSH-bucketed near-dup (the scale path, no full-matrix broadcast)
    vs the exact all-pairs verifier on the sf0.001 embeddings."""
    import ray.data
    from full_text_extractor_v6_ray.driver_queries import q_embeddings_neardup
    from full_text_extractor_v6_ray.stages.embed import cosine_neardup_lsh

    exact = q_embeddings_neardup(SF_DIR, threshold=0.45).to_pandas()
    exact_pairs = set(zip(exact["vec_a"], exact["vec_b"]))

    ds = ray.data.from_arrow(emb_table)
    approx = cosine_neardup_lsh(ds, threshold=0.45, n_planes=4,
                                n_tables=8).to_pandas()
    approx_pairs = set(zip(approx["vec_a"], approx["vec_b"]))

    # no false positives: every emitted pair is genuinely >= threshold
    assert approx_pairs <= exact_pairs
    # recall: probabilistic by design; 8 tables x 4 planes on d=64
    if exact_pairs:
        recall = len(approx_pairs & exact_pairs) / len(exact_pairs)
        assert recall >= 0.5
    # deterministic: same seed -> identical pair set
    again = cosine_neardup_lsh(ds, threshold=0.45, n_planes=4,
                               n_tables=8).to_pandas()
    assert set(zip(again["vec_a"], again["vec_b"])) == approx_pairs


def test_multimodal_decode_roundtrip(ray_session):
    from full_text_extractor_v6_ray.stages.multimodal import (
        ResizeImageBatch,
        decode_image_batch,
        media_dataset_from_documents,
    )

    media = media_dataset_from_documents(SF_DIR)
    decoded = media.map_batches(decode_image_batch, batch_format="pyarrow",
                                batch_size=64)
    df = decoded.to_pandas()
    assert len(df) == 500
    assert (df["decode_error"] == "").all()
    metas = df["media_meta"]
    assert all(m["width"] >= 16 and m["height"] >= 16 for m in metas)

    resized = media.map_batches(ResizeImageBatch(), batch_format="pyarrow",
                                batch_size=64)
    rdf = resized.map_batches(decode_image_batch, batch_format="pyarrow",
                              batch_size=64).to_pandas()
    assert all(m["width"] == 64 and m["height"] == 64
               for m in rdf["media_meta"])


def test_multimodal_video_frame_sample():
    """Frame-sample explodes stride-2 frames as decodable FAKEIMG rows."""
    import pyarrow as pa

    from full_text_extractor_v6_ray.stages.multimodal import (
        FrameSampleBatch,
        decode_image_batch,
        make_fake_video,
    )

    vid = make_fake_video(5, 20, 10, seed=7)
    batch = pa.table({"id": pa.array([42], pa.int64()),
                      "media": pa.array([vid], pa.binary()),
                      "media_type": pa.array(["video/fake"], pa.string())})
    frames = FrameSampleBatch(stride=2)(batch)
    assert frames.num_rows == 3                      # ceil(5/2)
    assert frames["frame_idx"].to_pylist() == [0, 2, 4]
    decoded = decode_image_batch(frames)
    assert all(e == "" for e in decoded["decode_error"].to_pylist())
    metas = decoded["media_meta"].to_pylist()
    assert all(m["width"] == 20 and m["height"] == 10 for m in metas)


def test_multimodal_audio_features():
    import pyarrow as pa

    from full_text_extractor_v6_ray.stages.multimodal import (
        audio_feature_batch,
        make_fake_audio,
    )

    batch = pa.table({
        "id": pa.array([1, 2], pa.int64()),
        "media": pa.array([make_fake_audio(8000, 16000, seed=3),
                           b"not audio"], pa.binary()),
        "media_type": pa.array(["audio/fake", "audio/fake"], pa.string())})
    out = audio_feature_batch(batch)
    assert out["duration_s"].to_pylist()[0] == 2.0
    assert out["rms"].to_pylist()[0] > 0
    assert 0 < out["zcr"].to_pylist()[0] < 1
    assert out["audio_error"].to_pylist()[1].startswith("audio_error:")


def test_multimodal_garbage_payload_errors_cleanly():
    import pyarrow as pa

    from full_text_extractor_v6_ray.stages.multimodal import decode_image_batch

    batch = pa.table({"id": pa.array([1], pa.int64()),
                      "media": pa.array([b"not an image"], pa.binary()),
                      "media_type": pa.array(["image/jpeg"], pa.string())})
    out = decode_image_batch(batch)
    assert out["decode_error"].to_pylist()[0].startswith("decode_error:")


def test_knn_ivf_recall(ray_session, emb_table):
    import ray.data
    from full_text_extractor_v6_ray.stages.embed import knn_cosine, knn_cosine_ivf

    qvecs = np.array(emb_table["embedding"].to_pylist()[:5], dtype=np.float64)
    qids = emb_table["vec_id"].to_pylist()[:5]
    ds = ray.data.from_arrow(emb_table)

    exact = knn_cosine(ds, qids, qvecs, k=10)
    approx = knn_cosine_ivf(ds, qids, qvecs, k=10, n_clusters=8, nprobe=3)

    # every query's own vector lives in its top-probed list -> self-match
    for qid in qids:
        hits = approx[approx["query_id"] == qid]
        assert len(hits) > 0
        assert hits.iloc[0]["vec_id"] == qid

    exact_set = set(zip(exact["query_id"], exact["vec_id"]))
    approx_set = set(zip(approx["query_id"], approx["vec_id"]))
    recall = len(exact_set & approx_set) / len(exact_set)
    assert recall >= 0.5   # nprobe=3/8 lists scanned


def test_kmeans_deterministic():
    from full_text_extractor_v6_ray.stages.embed import kmeans_fit

    rng = np.random.RandomState(0)
    x = rng.standard_normal((500, 16))
    a = kmeans_fit(x, 8, seed=42)
    b = kmeans_fit(x, 8, seed=42)
    assert np.array_equal(a, b)


def test_label_centroids_combiner(ray_session):
    """Centroids across multiple batches == direct numpy mean per label
    (the partial-merge path is exercised by tiny batch_size)."""
    import numpy as np
    import pyarrow as pa
    import ray.data
    from full_text_extractor_v6_ray.stages.embed import label_centroids

    rng = np.random.RandomState(5)
    n, d = 300, 8
    M = rng.randn(n, d).astype(np.float32)
    labels = rng.randint(0, 3, size=n).astype(np.int32)
    tbl = pa.table({
        "embedding": pa.array([list(map(float, r)) for r in M],
                              pa.list_(pa.float32())),
        "label": pa.array(labels, pa.int32()),
    })
    out = (label_centroids(ray.data.from_arrow(tbl).repartition(7))
           .to_pandas())
    for lab in (0, 1, 2):
        exp = np.round(M[labels == lab].astype(np.float64).mean(axis=0), 6)
        got = (out[out["label"] == lab].sort_values("dim")["mean_val"]
               .to_numpy())
        assert np.allclose(got, exp, atol=1e-9), lab


def test_quantize_int8_roundtrip_error(ray_session):
    """Quantization invariants: |q| <= 127, max-|x| element hits ±127,
    dequantized reconstruction error bounded by scale/2 per element,
    zero vectors quantize to zeros with scale 0."""
    import numpy as np
    import pyarrow as pa
    import ray.data
    from full_text_extractor_v6_ray.stages.embed import quantize_int8

    rng = np.random.RandomState(9)
    M = rng.randn(50, 16).astype(np.float32)
    M[7] = 0.0
    tbl = pa.table({
        "vec_id": pa.array(range(50), pa.int64()),
        "embedding": pa.array([list(map(float, r)) for r in M],
                              pa.list_(pa.float32())),
    })
    out = quantize_int8(ray.data.from_arrow(tbl)).to_pandas()
    assert len(out) == 50 * 16
    assert out["qval"].abs().max() <= 127
    for vid in (0, 3, 7):
        sub = out[out["vec_id"] == vid].sort_values("dim")
        q = sub["qval"].to_numpy()
        s = sub["scale"].iloc[0]
        if vid == 7:
            assert s == 0.0 and (q == 0).all()
            continue
        assert np.abs(q).max() == 127
        recon = q * s
        assert np.abs(recon - M[vid].astype(np.float64)).max() <= s / 2 + 1e-12
