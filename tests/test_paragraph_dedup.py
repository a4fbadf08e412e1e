"""CCNet-style paragraph dedup: keep-first election, order-preserving
reassembly, full-doc disappearance, and the bigram combiner."""

import pandas as pd


def test_paragraph_dedup_keep_first_and_reassembly(ray_session, bucket_count):
    import ray.data
    from full_text_extractor_v6_ray.stages.text_ops import paragraph_dedup

    boiler = "subscribe to our newsletter"
    docs = pd.DataFrame({
        "doc_id": [0, 1, 2, 3],
        "text": [
            f"alpha beta\n\n{boiler}\n\ngamma delta",
            f"{boiler}\n\nunique one",      # boiler is a LATER dup here
            f"{boiler}",                    # only-dup doc: disappears
            "standalone text",
        ],
    })
    bucket_count(4)
    got = (paragraph_dedup(ray.data.from_pandas(docs), "doc_id", "text",
                           sep="\n\n", join_sep="\n\n")
           .to_pandas().sort_values("doc_id").reset_index(drop=True))
    assert got["doc_id"].tolist() == [0, 1, 3]
    # doc 0 holds the first occurrence -> keeps boiler, order preserved
    assert got.loc[0, "text"] == f"alpha beta\n\n{boiler}\n\ngamma delta"
    assert got.loc[1, "text"] == "unique one"
    assert got.loc[2, "text"] == "standalone text"


def test_paragraph_dedup_dup_within_one_doc(ray_session, bucket_count):
    import ray.data
    from full_text_extractor_v6_ray.stages.text_ops import paragraph_dedup

    docs = pd.DataFrame({
        "doc_id": [7],
        "text": ["same para\n\nsame para\n\nother"],
    })
    bucket_count(4)
    got = paragraph_dedup(ray.data.from_pandas(docs), "doc_id", "text",
                          sep="\n\n", join_sep="\n\n").to_pandas()
    assert got.loc[0, "text"] == "same para\n\nother"


def test_chunk_words_explode_positions(ray_session):
    import ray.data
    from full_text_extractor_v6_ray.stages.text_ops import (
        explode_paragraphs)

    docs = pd.DataFrame({"doc_id": [5],
                         "text": ["a b c d e f g"]})
    got = (explode_paragraphs(ray.data.from_pandas(docs), "doc_id",
                              "text", chunk_words=3)
           .to_pandas().sort_values("idx").reset_index(drop=True))
    assert got["para"].tolist() == ["a b c", "d e f", "g"]
    assert got["idx"].tolist() == [0, 1, 2]


def test_paragraph_dedup_doc_ids_above_2_31(ray_session, bucket_count):
    """Packed election keys beyond int64<<32 territory: doc_id ≥ 2^31
    makes the uint64 pack ≥ 2^63, which must survive Ray's Min reduce
    exactly (sign-bit-flip bijection into int64 — a raw uint64 would
    overflow pa.array's int64 inference, a float64 round-trip would
    merge adjacent ids above 2^53)."""
    import ray.data
    from full_text_extractor_v6_ray.stages.text_ops import paragraph_dedup

    lo, hi = (1 << 31) + 5, (1 << 32) - 2  # both past the old bound
    docs = pd.DataFrame({
        "doc_id": [hi, lo],
        "text": ["shared para\n\nonly in hi", "shared para\n\nonly in lo"],
    })
    bucket_count(4)
    got = (paragraph_dedup(ray.data.from_pandas(docs), "doc_id", "text",
                           sep="\n\n", join_sep="\n\n")
           .to_pandas().sort_values("doc_id").reset_index(drop=True))
    assert got["doc_id"].tolist() == [lo, hi]
    # keep-FIRST = smaller (doc_id, idx): lo wins the shared paragraph
    assert got.loc[0, "text"] == "shared para\n\nonly in lo"
    assert got.loc[1, "text"] == "only in hi"


def test_top_bigrams_counts_and_tiebreak(ray_session):
    import ray.data
    from full_text_extractor_v6_ray.stages.text_ops import top_bigrams

    docs = pd.DataFrame({
        "text": ["x y x y z", "x y q", "a a a"],
    })
    got = top_bigrams(ray.data.from_pandas(docs), "text", k=3).to_pandas()
    # "x y" appears 3x (twice in doc0 via overlap, once in doc1);
    # "a a" twice; ties broken by bigram asc
    assert got.iloc[0].tolist() == ["x y", 3]
    assert got.iloc[1].tolist() == ["a a", 2]
