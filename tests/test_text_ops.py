import numpy as np
import pyarrow as pa

from full_text_extractor_v6_ray.stages.text_ops import (
    FingerprintBatch,
    LangIdBatch,
    QualityScoreBatch,
    fnv1a_64,
    shingle_hashes,
)


def tbl(texts, ids=None):
    ids = ids or list(range(len(texts)))
    return pa.table({"doc_id": pa.array(ids, pa.int64()),
                     "text": pa.array(texts, pa.string())})


def test_langid_basic():
    out = LangIdBatch()(tbl([
        "the cat sat on the mat and it was happy with the dog",
        "der Hund und die Katze sind mit dem Ball im Garten",
        "le chat est dans la maison et il ne veut pas sortir",
        "el perro y el gato están en la casa con los niños",
        "",
    ]))
    assert out["lang_pred"].to_pylist() == ["en", "de", "fr", "es", "und"]
    assert all(0 <= c <= 1 for c in out["lang_conf"].to_pylist())


def test_langid_cjk():
    out = LangIdBatch()(tbl(["这是一个中文句子，用来测试语言识别功能。"]))
    assert out["lang_pred"].to_pylist() == ["zh"]


def test_quality_score_ranges_and_penalties():
    good = ("the quick brown fox jumps over the lazy dog and keeps running "
            "through the green fields for a while longer today")
    spam = "buy buy buy buy buy buy buy buy buy buy buy buy"
    out = QualityScoreBatch()(tbl([good, spam, ""]))
    q = out["quality"].to_pylist()
    assert q[0] > q[1]            # repetition penalty
    assert q[2] == 0.0
    assert out["n_tokens"].to_pylist()[0] == len(good.split())
    assert out["max_repeat_ratio"].to_pylist()[1] > 0.9


def test_fingerprint_stability_and_dedup_key():
    t1 = "alpha beta gamma delta epsilon zeta"
    out1 = FingerprintBatch()(tbl([t1, t1, t1 + " extra"]))
    md5s = out1["content_md5"].to_pylist()
    assert md5s[0] == md5s[1] != md5s[2]
    fp = out1["fp64"].to_pylist()
    assert fp[0] == fp[1]
    # recompute in a fresh instance -> identical (cross-process stability)
    out2 = FingerprintBatch()(tbl([t1]))
    assert out2["fp64"].to_pylist()[0] == fp[0]


def test_fnv1a_known_vector():
    # FNV-1a 64 published test vector: empty string -> offset basis
    assert fnv1a_64(b"") == 0xCBF29CE484222325
    assert fnv1a_64(b"a") == 0xAF63DC4C8601EC8C


def test_shingle_hashes_deterministic_and_set_semantics():
    a = shingle_hashes("one two three four five", 3)
    b = shingle_hashes("one two three four five", 3)
    assert np.array_equal(a, b)
    assert len(a) == 3  # 5 tokens, k=3 -> 3 shingles
    short = shingle_hashes("one", 3)
    assert len(short) >= 1


def test_vocab_stats_tf_df(ray_session):
    import pyarrow as pa
    import ray.data
    from full_text_extractor_v6_ray.stages.text_ops import vocab_stats

    docs = ray.data.from_arrow(pa.table({
        "doc_id": pa.array([1, 2, 3, 4], pa.int64()),
        "text": pa.array(["a b a", "b  c", "", "   "], pa.string()),
    }))
    got = {r["token"]: (r["tf"], r["df"])
           for r in vocab_stats(docs).take_all()}
    assert got == {"a": (2, 1), "b": (2, 2), "c": (1, 1)}


def test_pii_scrub_planted_cross_engine(ray_session):
    """Planted PII: Ray scrub output == DuckDB regexp_replace chain,
    byte-for-byte, including sequential-count semantics."""
    import duckdb
    import pyarrow as pa
    import ray.data
    from full_text_extractor_v6_ray.stages.text_ops import PiiScrubBatch

    texts = [
        "contact me at jane.doe+x@mail-host.co.uk or on +44 1234 567890.",
        "server 10.0.255.7 and 192.168.1.1; fallback bob@x.io",
        "no pii here at all",
        "",
        "edge 999.999.999.999 and 1-800-555-0199 end",
        "a@b.co c@d.org overlapping 12345678901 done",
    ]
    tbl = pa.table({"doc_id": pa.array(range(len(texts)), pa.int64()),
                    "text": pa.array(texts, pa.string())})
    got = (ray.data.from_arrow(tbl)
           .map_batches(PiiScrubBatch(), batch_format="pyarrow")
           .to_pandas().sort_values("doc_id").reset_index(drop=True))

    con = duckdb.connect()
    con.register("documents", tbl)
    from full_text_extractor_v6_ray.driver_queries import ORACLES
    exp = con.execute(ORACLES["docs_pii_scrub"]).fetchdf() \
        .sort_values("doc_id").reset_index(drop=True)
    assert got["text_scrubbed"].tolist() == exp["text_scrubbed"].tolist()
    for c in ("n_email", "n_phone", "n_ip"):
        assert got[c].tolist() == exp[c].astype(int).tolist(), c
    assert got.loc[0, "n_email"] == 1 and got.loc[0, "n_phone"] == 1
    assert got.loc[1, "n_ip"] == 2
    assert "[EMAIL]" in got.loc[0, "text_scrubbed"]


def test_repetition_signals(ray_session):
    import ray.data
    import pandas as pd
    from full_text_extractor_v6_ray.stages.text_ops import RepetitionBatch

    docs = pd.DataFrame({
        "doc_id": [1, 2, 3],
        "text": ["a b c d",                 # all distinct
                 "x x x x",                 # one token repeated
                 "p q p q p q"],            # dominant bigram chain
    })
    out = (ray.data.from_pandas(docs)
           .map_batches(RepetitionBatch(), batch_format="pyarrow")
           .to_pandas().sort_values("doc_id").reset_index(drop=True))
    assert list(out["n_tok"]) == [4, 4, 6]
    assert out.loc[0, "dup_tok_frac"] == 0.0
    assert out.loc[1, "dup_tok_frac"] == 0.75
    assert out.loc[1, "top_tok_frac"] == 1.0
    # "p q" appears 3 times of 5 bigrams
    assert abs(out.loc[2, "top_bigram_frac"] - 3 / 5) < 1e-12
    assert abs(out.loc[0, "top_bigram_frac"] - 1 / 3) < 1e-12


def test_bpe_token_count_pieces():
    """Piece semantics: optional leading space + letter/digit/punct
    run; empty and null behave like the SQL oracle."""
    import pyarrow as pa
    from full_text_extractor_v6_ray.functions.text_stats import (
        bpe_token_count_arrays)

    got = bpe_token_count_arrays(pa.array(
        ["Hello world, 42 times!",   # Hello/ world/,/ 42/ times/!
         "a-b c_d",                  # a/-/b/ c/_/d
         "  ", "", None])).to_pylist()
    assert got == [6, 6, 0, 0, None]
