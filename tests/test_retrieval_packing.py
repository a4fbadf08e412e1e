"""BM25 top-k, inverted index, distributed prefix-sum / chunk packing,
and DSIR importance weights."""

import math

import numpy as np
import pandas as pd
import pyarrow as pa


def test_bm25_topk_matches_reference_formula(ray_session):
    import ray.data
    from full_text_extractor_v6_ray.stages.retrieval import bm25_topk

    docs = pd.DataFrame({
        "doc_id": [1, 2, 3, 4],
        "text": [
            "apple banana apple",          # tf(apple)=2, dl=3
            "apple cherry",                # tf(apple)=1, dl=2
            "banana banana banana banana", # no query term
            "apple apple apple apple apple apple",  # tf=6, dl=6
        ],
    })
    got = bm25_topk(ray.data.from_pandas(docs), ["apple"], k=3,
                    k1=1.2, b=0.75).to_pandas()

    n, df = 4, 3
    avgdl = (3 + 2 + 4 + 6) / 4
    idf = math.log(1 + (n - df + 0.5) / (df + 0.5))

    def s(tf, dl):
        return round(idf * tf * 2.2 / (tf + 1.2 * (1 - 0.75
                                                   + 0.75 * dl / avgdl)), 6)

    expect = sorted([(1, s(2, 3)), (2, s(1, 2)), (4, s(6, 6))],
                    key=lambda r: (-r[1], r[0]))
    assert [(int(d), round(float(v), 6)) for d, v in
            got[["doc_id", "score"]].to_numpy()] == expect


def test_bm25_no_match_docs_never_surface(ray_session):
    import ray.data
    from full_text_extractor_v6_ray.stages.retrieval import bm25_topk

    docs = pd.DataFrame({"doc_id": [1, 2],
                         "text": ["only noise here", "zebra yak"]})
    got = bm25_topk(ray.data.from_pandas(docs), ["apple"],
                    k=5).to_pandas()
    assert len(got) == 0


def test_inverted_index_postings_sorted_and_df(ray_session):
    import ray.data
    from full_text_extractor_v6_ray.stages.retrieval import inverted_index

    docs = pd.DataFrame({
        "doc_id": [10, 3, 7],
        "text": ["a b a", "b c", "a c c"],
    })
    got = (inverted_index(ray.data.from_pandas(docs))
           .to_pandas().set_index("term").sort_index())
    assert got.loc["a", "df"] == 2
    # postings sorted by doc_id, tfs aligned
    assert list(got.loc["a", "postings"]) == [7, 10]
    assert list(got.loc["a", "tfs"]) == [1, 2]
    assert list(got.loc["b", "postings"]) == [3, 10]
    assert list(got.loc["c", "postings"]) == [3, 7]
    assert list(got.loc["c", "tfs"]) == [1, 2]


def test_inverted_index_min_df_prunes_hapax(ray_session):
    import ray.data
    from full_text_extractor_v6_ray.stages.retrieval import inverted_index

    docs = pd.DataFrame({"doc_id": [1, 2],
                         "text": ["shared rare1", "shared rare2"]})
    got = inverted_index(ray.data.from_pandas(docs),
                         min_df=2).to_pandas()
    assert got["term"].tolist() == ["shared"]


def test_ordered_prefix_sum_inclusive_exclusive(ray_session):
    import ray.data
    from full_text_extractor_v6_ray.stages.packing import (
        ordered_prefix_sum)

    # ids deliberately unsorted across blocks, sparse, many ranges
    ids = [50, 3, 99, 7, 20, 41]
    vals = [5.0, 1.0, 2.0, 3.0, 4.0, 6.0]
    ds = ray.data.from_pandas(
        pd.DataFrame({"k": ids, "v": vals})).repartition(3)
    got = (ordered_prefix_sum(ds, "k", "v", out_col="run",
                              num_ranges=4)
           .to_pandas().sort_values("k"))
    order = np.argsort(ids)
    expect = np.cumsum(np.array(vals)[order])
    assert np.allclose(got["run"].to_numpy(), expect)

    got_ex = (ordered_prefix_sum(ds, "k", "v", out_col="run",
                                 exclusive=True, num_ranges=4)
              .to_pandas().sort_values("k"))
    assert np.allclose(got_ex["run"].to_numpy(),
                       expect - np.array(vals)[order])


def test_chunk_assignment_spans_windows(ray_session):
    import ray.data
    from full_text_extractor_v6_ray.stages.packing import chunk_assignment

    docs = pd.DataFrame({
        "doc_id": [1, 2, 3, 4],
        "text": ["w " * 5, "w " * 3, "", "w " * 10],
    })
    got = (chunk_assignment(ray.data.from_pandas(docs), ctx=4)
           .to_pandas().sort_values("doc_id").reset_index(drop=True))
    # stream: doc1 tokens [0,5) -> chunks 0-1; doc2 [5,8) -> chunk 1;
    # doc3 empty at 8; doc4 [8,18) -> chunks 2-4
    assert got["start_tok"].tolist() == [0, 5, 8, 8]
    assert got["chunk_id"].tolist() == [0, 1, 2, 2]
    assert got["n_chunks"].tolist() == [2, 1, 0, 3]


def test_chunk_slices_cover_every_token_once(ray_session):
    import ray.data
    from full_text_extractor_v6_ray.stages.packing import chunk_slices

    docs = pd.DataFrame({
        "doc_id": [1, 2, 3, 4],
        "text": ["w " * 5, "w " * 3, "", "w " * 10],
    })
    got = (chunk_slices(ray.data.from_pandas(docs), ctx=4)
           .to_pandas().sort_values(["chunk_id", "doc_id"])
           .reset_index(drop=True))
    # stream: doc1 [0,5) doc2 [5,8) doc4 [8,18); windows of 4
    expect = [
        # (chunk, doc, doc_from, doc_to, off_in_chunk, end_in_chunk)
        (0, 1, 0, 4, 0, 4),
        (1, 1, 4, 5, 0, 1),
        (1, 2, 0, 3, 1, 4),
        (2, 4, 0, 4, 0, 4),
        (3, 4, 4, 8, 0, 4),
        (4, 4, 8, 10, 0, 2),
    ]
    assert [tuple(r) for r in got.to_numpy()] == expect
    # every document token lands in exactly one slice
    per_doc = got.groupby("doc_id").apply(
        lambda g: (g["doc_to"] - g["doc_from"]).sum())
    assert per_doc.to_dict() == {1: 5, 2: 3, 4: 10}
    # slices tile each window without overlap
    for _, g in got.groupby("chunk_id"):
        g = g.sort_values("off_in_chunk")
        assert (g["end_in_chunk"].to_numpy()[:-1]
                == g["off_in_chunk"].to_numpy()[1:]).all()


def test_first_fit_pack_invariants(ray_session, bucket_count):
    import ray.data
    from full_text_extractor_v6_ray.stages.packing import first_fit_pack

    rng = np.random.RandomState(7)
    sizes = rng.randint(1, 120, size=60).tolist() + [300, 250]  # oversize
    docs = pd.DataFrame({
        "doc_id": range(len(sizes)),
        "text": ["t " * s for s in sizes],
    })
    bucket_count(4)
    got = first_fit_pack(ray.data.from_pandas(docs), ctx=128).to_pandas()
    assert len(got) == len(sizes)                    # every doc once
    assert got["doc_id"].is_unique
    assert (got.loc[got["oversize"], "n_tok"] > 128).all()
    assert (got.loc[~got["oversize"], "n_tok"] <= 128).all()
    loads = got[~got["oversize"]].groupby("bin_id")["n_tok"].sum()
    assert (loads <= 128).all()                      # capacity respected
    over_bins = got.loc[got["oversize"], "bin_id"]
    assert not set(over_bins) & set(loads.index)     # dedicated bins
    # deterministic
    again = first_fit_pack(ray.data.from_pandas(docs), ctx=128).to_pandas()
    pd.testing.assert_frame_equal(
        got.sort_values("doc_id").reset_index(drop=True),
        again.sort_values("doc_id").reset_index(drop=True))


def test_first_fit_pack_independent_of_cluster_size(ray_session,
                                                    bucket_count):
    """The bins are scoped per FIXED hash partition of the doc id, so the
    packing (bin ids included) is the same at any exchange bucket count,
    i.e. on any cluster size."""
    import ray.data
    from full_text_extractor_v6_ray.stages.packing import first_fit_pack

    rng = np.random.RandomState(11)
    sizes = rng.randint(1, 120, size=200).tolist()
    docs = pd.DataFrame({
        "doc_id": range(len(sizes)),
        "text": ["t " * s for s in sizes],
    })
    outs = []
    for n in (7, 128):
        bucket_count(n)
        outs.append(first_fit_pack(ray.data.from_pandas(docs), ctx=128)
                    .to_pandas().sort_values("doc_id")
                    .reset_index(drop=True))
    pd.testing.assert_frame_equal(outs[0], outs[1])


def test_hash_join_matches_duckdb_reference(ray_session, bucket_count):
    """Unique-build-key decorate join == DuckDB's inner join on the same
    inputs (string keys, int payloads, exact dtypes)."""
    import duckdb
    import ray.data
    from full_text_extractor_v6_ray.stages.joins import hash_join

    rng = np.random.RandomState(3)
    left = pd.DataFrame({
        "k": [f"key{int(i)}" for i in rng.randint(0, 40, 200)],
        "payload": rng.randint(0, 10**9, 200),
    })
    right = pd.DataFrame({
        "rk": [f"key{i}" for i in range(0, 50, 2)],   # unique, partial
        "val": np.arange(25) * 7,
    })
    bucket_count(8)
    a = (hash_join(ray.data.from_pandas(left),
                   ray.data.from_pandas(right), "k", "rk")
         .to_pandas().sort_values(["k", "payload"])
         .reset_index(drop=True))
    con = duckdb.connect()
    con.register("l", left)
    con.register("r", right)
    b = (con.execute("SELECT k, payload, val FROM l JOIN r ON k = rk").df()
         .sort_values(["k", "payload"]).reset_index(drop=True))
    pd.testing.assert_frame_equal(a, b[a.columns])


def test_lookup_hash_join_preserves_int64_extremes(ray_session, bucket_count):
    """Values near ±2^63 survive exactly (the pandas-merge float64
    round-trip caveat cannot occur on the Arrow path)."""
    import ray.data
    from full_text_extractor_v6_ray.stages.joins import hash_join

    big = [(1 << 62) + 1, (1 << 62) + 2, -(1 << 62) - 3]
    left = pd.DataFrame({"k": ["a", "b", "c"], "payload": big})
    right = pd.DataFrame({"rk": ["a", "b", "c"],
                          "val": [b + 1 for b in big]})
    bucket_count(4)
    got = (hash_join(ray.data.from_pandas(left),
                     ray.data.from_pandas(right), "k", "rk")
           .to_pandas().sort_values("k").reset_index(drop=True))
    assert got["payload"].tolist() == big
    assert got["val"].tolist() == [b + 1 for b in big]


def test_normalized_keep_first_collapses_variants(ray_session):
    import ray.data
    from full_text_extractor_v6_ray.stages.text_ops import (
        normalized_keep_first)

    docs = pd.DataFrame({
        "doc_id": [5, 2, 9, 1],
        "text": [
            "Hello,  World! 42",
            "hello world 99",      # same after digits->0 + punct strip
            "HELLO WORLD 00",      # same again
            "different entirely",
        ],
    })
    got = (normalized_keep_first(ray.data.from_pandas(docs))
           .to_pandas().sort_values("doc_id").reset_index(drop=True))
    assert got["doc_id"].tolist() == [1, 2]
    assert got.loc[1, "text"] == "hello world 99"  # lowest id wins


def test_dsir_log_ratio_prefers_target_like_docs(ray_session):
    import ray.data
    from full_text_extractor_v6_ray.stages.text_ops import dsir_log_ratio

    docs = pd.DataFrame({
        "doc_id": [1, 2, 3, 4],
        "text": ["code code function", "code function",
                 "weather rain sun", "rain sun cloud"],
        "is_target": [True, True, False, False],
    })
    got = (dsir_log_ratio(ray.data.from_pandas(docs))
           .to_pandas().set_index("doc_id"))
    # target-vocab docs weigh higher than off-target docs
    assert got.loc[1, "log_ratio"] > got.loc[3, "log_ratio"]
    assert got.loc[2, "log_ratio"] > got.loc[4, "log_ratio"]

    # exact value check for doc 3 under add-one smoothing
    raw = {"code": 3, "function": 2, "weather": 1, "rain": 2,
           "sun": 2, "cloud": 1}
    tgt = {"code": 3, "function": 2}
    v, t_raw, t_tgt = len(raw), sum(raw.values()), sum(tgt.values())
    lr = {t: (math.log(tgt.get(t, 0) + 1) - math.log(t_tgt + v)
              - math.log(c + 1) + math.log(t_raw + v))
          for t, c in raw.items()}
    expect3 = round(lr["weather"] + lr["rain"] + lr["sun"], 6)
    assert abs(got.loc[3, "log_ratio"] - expect3) < 1e-6


def test_quality_aware_neardup_keeper(ray_session, bucket_count):
    """Per dup component the highest-score member survives (tie -> min
    id); non-members pass through; equal scores reduce to the min-id
    canonical behavior."""
    import ray.data
    from full_text_extractor_v6_ray.stages.fuzzy_dedup import (
        remove_neardup_members, remove_neardup_members_by_quality)

    comp = pd.DataFrame({          # cluster A {1,2,3}, cluster B {7,9}
        "doc_id": [1, 2, 3, 7, 9],
        "component": [1, 1, 1, 7, 7],
    })
    docs = pd.DataFrame({"doc_id": [1, 2, 3, 4, 5, 7, 9],
                         "payload": list("abcdefg")})
    scores = pd.DataFrame({
        "doc_id": [1, 2, 3, 4, 5, 7, 9],
        "score": [0.1, 0.9, 0.5, 0.0, 0.0, 0.3, 0.3],  # B ties
    })
    bucket_count(4)
    got = (remove_neardup_members_by_quality(
        ray.data.from_pandas(docs), ray.data.from_pandas(comp),
        ray.data.from_pandas(scores))
        .to_pandas().sort_values("doc_id"))
    # A keeps 2 (best score); B keeps 7 (tie -> min id); 4,5 untouched
    assert got["doc_id"].tolist() == [2, 4, 5, 7]

    # equal scores everywhere == min-id canonical removal
    eq = scores.assign(score=1.0)
    a = (remove_neardup_members_by_quality(
        ray.data.from_pandas(docs), ray.data.from_pandas(comp),
        ray.data.from_pandas(eq))
        .to_pandas().sort_values("doc_id").reset_index(drop=True))
    b = (remove_neardup_members(
        ray.data.from_pandas(docs), ray.data.from_pandas(comp))
        .to_pandas().sort_values("doc_id").reset_index(drop=True))
    pd.testing.assert_frame_equal(a, b)


def test_semdedup_within_cluster_pruning(ray_session, bucket_count):
    """Planted semantic twins collapse to the min id; distinct
    directions and singleton clusters survive untouched."""
    import ray.data
    from full_text_extractor_v6_ray.stages.embed import semdedup

    rng = np.random.RandomState(11)
    base1 = rng.standard_normal(16)
    base2 = rng.standard_normal(16)
    base3 = rng.standard_normal(16)
    rows = []
    for i, v in [(1, base1), (2, base1 * 1.001 + 1e-4),  # twins
                 (5, base1 * 0.999 - 1e-4),
                 (3, base2), (9, base2 * 1.002),          # twins
                 (7, base3)]:                             # singleton
        rows.append({"vec_id": i, "embedding": list(map(float, v))})
    ds = ray.data.from_pandas(pd.DataFrame(rows))
    bucket_count(4)
    got = (semdedup(ds, k=3, threshold=0.95, n_iter=5)
           .to_pandas().sort_values("vec_id"))
    assert got["vec_id"].tolist() == [1, 3, 7]


def test_packed_chunk_text_materialization(ray_session, bucket_count):
    """Windows are exactly ctx tokens except the last; the
    concatenated stream equals the docs laid end-to-end in id order."""
    import ray.data
    from full_text_extractor_v6_ray.stages.packing import packed_chunk_text

    docs = [{"doc_id": i, "text": " ".join(
        f"d{i}t{j}" for j in range(7 + (i % 5)))} for i in range(20)]
    bucket_count(4)
    got = (packed_chunk_text(ray.data.from_items(docs), "doc_id",
                             "text", ctx=16)
           .to_pandas().sort_values("chunk_id").reset_index(drop=True))
    stream = " ".join(d["text"] for d in docs).split(" ")
    assert got["chunk_id"].tolist() == list(range(len(got)))
    assert got["n_tok"].iloc[:-1].eq(16).all()
    assert got["n_tok"].sum() == len(stream)
    rebuilt = " ".join(got["text"]).split(" ")
    assert rebuilt == stream


def test_grouped_prefix_sum_matches_pandas_window(ray_session):
    import ray.data
    from full_text_extractor_v6_ray.stages.packing import (
        grouped_prefix_sum)

    rng = np.random.RandomState(7)
    n = 500
    df = pd.DataFrame({
        "p": rng.choice(["a", "b", "c"], size=n),
        "k": rng.permutation(np.arange(n)).astype(np.int64),
        "v": rng.randint(1, 50, size=n).astype(np.int64),
    })
    ds = ray.data.from_pandas(df).repartition(7)
    got = (grouped_prefix_sum(ds, "p", "k", "v", out_col="run",
                              num_ranges=5)
           .to_pandas().sort_values(["p", "k"]).reset_index(drop=True))
    want = df.sort_values(["p", "k"]).reset_index(drop=True)
    want["run"] = want.groupby("p")["v"].cumsum().astype(float)
    pd.testing.assert_frame_equal(
        got[["p", "k", "v", "run"]], want[["p", "k", "v", "run"]])


def test_grouped_prefix_sum_empty(ray_session):
    import ray.data
    from full_text_extractor_v6_ray.stages.packing import (
        grouped_prefix_sum)

    empty = ray.data.from_arrow(pa.table({
        "p": pa.array([], pa.string()),
        "k": pa.array([], pa.int64()),
        "v": pa.array([], pa.int64())}))
    assert grouped_prefix_sum(empty, "p", "k", "v").count() == 0


def test_mixture_quota_sample_properties(ray_session):
    import hashlib

    import ray.data
    from full_text_extractor_v6_ray.stages.sampling import (
        mixture_quota_sample)

    rng = np.random.RandomState(11)
    n = 400
    df = pd.DataFrame({
        "doc_id": np.arange(n, dtype=np.int64),
        "src": rng.choice(["web", "code", "books"], size=n),
        "n_tok": rng.randint(10, 100, size=n).astype(np.int64),
    })
    quotas = {"web": 900.0, "code": 450.0}  # books absent -> dropped
    ds = ray.data.from_pandas(df).repartition(5)
    got = mixture_quota_sample(ds, "src", quotas, key_col="doc_id",
                               token_col="n_tok").to_pandas()

    # reference: per-source md5-order greedy fill
    df["h"] = [hashlib.md5(str(d).encode()).hexdigest()[:16]
               for d in df["doc_id"]]
    want_ids = set()
    for s, q in quotas.items():
        g = df[df["src"] == s].sort_values(["h", "doc_id"])
        run = g["n_tok"].cumsum()
        want_ids |= set(g.loc[run <= q, "doc_id"])
    assert set(got["doc_id"]) == want_ids
    assert "books" not in set(got["src"])
    # budget never exceeded; order is deterministic across reruns
    sums = got.groupby("src")["n_tok"].sum()
    assert sums["web"] <= 900 and sums["code"] <= 450
    again = mixture_quota_sample(
        ray.data.from_pandas(df.drop(columns=["h"])).repartition(3),
        "src", quotas, key_col="doc_id",
        token_col="n_tok").to_pandas()
    assert set(again["doc_id"]) == want_ids
