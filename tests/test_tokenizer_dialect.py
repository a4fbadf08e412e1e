"""ONE tokenizer dialect repo-wide: RE2 (pyarrow's and DuckDB's regex
engine, where \\s = [\\t\\n\\f\\r ] ASCII-only).

Python's str.split()/re \\s additionally treat \\x0b, \\xa0, \\u2028 …
as whitespace, so any stage mixing the dialects silently shifts token
counts/indices on such bytes. These tests plant exactly those bytes and
assert byte-level agreement between the Python helper, the Arrow
kernels, DuckDB, and the operators whose invariants depend on a single
dialect (bigram LM in-vocab join, packed-chunk slicing vs the manifest's
token counts, perplexity scoring vs its vocab table).
"""

import math

import duckdb
import pandas as pd
import pyarrow as pa

from full_text_extractor_v6_ray.functions.text_stats import (
    RE2_TOKEN_RE,
    re2_tokens,
    token_count_arrays,
)

# Every class of byte where the dialects disagree, plus edge whitespace
# (leading/trailing RE2 whitespace would mint empty split tokens).
DIRTY = [
    "a\x0bb c d",            # \v: Python ws, NOT RE2 ws
    "x\xa0y z",              # nbsp: Python ws, NOT RE2 ws
    "p\u2028q r s t",        # line sep: Python ws, NOT RE2 ws
    "  lead and trail  ",    # edge ASCII ws -> empty split tokens
    "tab\tsep\nlines\r\fmix",
    "",                      # empty doc
    "one",                   # single token
    "a\x0bb c a\x0bb c",     # repeated dirty bigram
]


def test_re2_tokens_matches_arrow_and_duckdb():
    arr = pa.array(DIRTY, pa.string())
    arrow_counts = token_count_arrays(arr).to_pylist()
    py_tokens = [re2_tokens(s) for s in DIRTY]
    con = duckdb.connect()
    duck_tokens = [
        con.execute("select regexp_extract_all(?, '\\S+')", [s]).fetchone()[0]
        for s in DIRTY
    ]
    assert [len(t) for t in py_tokens] == arrow_counts
    assert py_tokens == duck_tokens
    # and the deliberate divergence from Python's Unicode whitespace:
    assert re2_tokens("a\x0bb") == ["a\x0bb"] != "a\x0bb".split()


def test_vocab_stats_re2_dialect_vs_duckdb(ray_session):
    import ray.data
    from full_text_extractor_v6_ray.stages.text_ops import vocab_stats

    docs = pd.DataFrame({"doc_id": range(len(DIRTY)), "text": DIRTY})
    got = (vocab_stats(ray.data.from_pandas(docs))
           .to_pandas().sort_values("token").reset_index(drop=True))
    con = duckdb.connect()
    con.register("documents", docs)
    want = con.execute("""
        WITH tok AS (
            SELECT doc_id, unnest(regexp_extract_all(text, '\\S+')) AS t
            FROM documents)
        SELECT t AS token, CAST(COUNT(*) AS BIGINT) AS tf,
               CAST(COUNT(DISTINCT doc_id) AS BIGINT) AS df
        FROM tok GROUP BY t ORDER BY t
    """).df()
    pd.testing.assert_frame_equal(
        got[["token", "tf", "df"]], want[["token", "tf", "df"]])


def test_bigram_logprob_dirty_whitespace_both_paths(ray_session, bucket_count):
    """The exact scenario the old code broke on: _doc_pairs (RE2) used
    to meet a Python-split unigram table, dropping every bigram whose
    token contains \\x0b/\\xa0 from the score join. Now one dialect
    trains and scores: n_pairs equals the RE2 pair count, no doc
    vanishes, and the broadcast and bucketed-join paths agree."""
    import ray.data
    from collections import Counter

    from full_text_extractor_v6_ray.stages.lm import bigram_logprob

    docs = pd.DataFrame({"doc_id": range(len(DIRTY)), "text": DIRTY})
    bucket_count(8)
    a = (bigram_logprob(ray.data.from_pandas(docs),
                        broadcast_scores_max=10**6)
         .to_pandas().sort_values("doc_id").reset_index(drop=True))
    b = (bigram_logprob(ray.data.from_pandas(docs),
                        broadcast_scores_max=0)
         .to_pandas().sort_values("doc_id").reset_index(drop=True))
    pd.testing.assert_frame_equal(a, b)

    toks = {i: re2_tokens(t) for i, t in enumerate(DIRTY)}
    uni = Counter(w for ws in toks.values() for w in ws)
    total = sum(uni.values())
    bi = Counter(p for ws in toks.values() for p in zip(ws, ws[1:]))
    expect = {}
    for i, ws in toks.items():
        lps = [math.log(0.7 * bi[p] / uni[p[0]]
                        + 0.3 * uni[p[1]] / total)
               for p in zip(ws, ws[1:])]
        if lps:
            expect[i] = (len(lps), round(sum(lps) / len(lps), 6))
    got = a.set_index("doc_id")
    assert sorted(got.index) == sorted(expect)
    for i, (n, lp) in expect.items():
        assert got.loc[i, "n_pairs"] == n
        assert abs(got.loc[i, "avg_logprob"] - lp) < 1e-6


def test_packed_chunks_dirty_whitespace_consistent(ray_session, bucket_count):
    """The manifest counts tokens with Arrow RE2 \\S+; the cutter must
    slice the IDENTICAL token list (the old Python-\\S+ cut dropped
    tokens after a \\x0b and shifted every later window boundary).
    Reconstructing the windows must reproduce the full RE2 token
    stream in doc order, with every window's n_tok honest."""
    import ray.data
    from full_text_extractor_v6_ray.stages.packing import packed_chunk_text

    texts = ["a\x0bb c d e", "x\xa0y z w", "p q r", "lone"]
    docs = pd.DataFrame({"doc_id": range(len(texts)), "text": texts})
    bucket_count(4)
    chunks = (packed_chunk_text(ray.data.from_pandas(docs), ctx=3,
                                num_ranges=4)
              .to_pandas().sort_values("chunk_id"))
    stream = [t for s in texts for t in re2_tokens(s)]
    rebuilt = [t for c in chunks["text"] for t in c.split(" ")]
    assert rebuilt == stream
    for _, row in chunks.iterrows():
        assert len(RE2_TOKEN_RE.findall(row["text"])) == row["n_tok"]
    # every window but the last is exactly ctx tokens
    assert (chunks["n_tok"].iloc[:-1] == 3).all()


def test_perplexity_dirty_whitespace_in_vocab(ray_session):
    """Scoring tokenizer == vocab tokenizer: a dirty-byte token must
    hit the lp table (not the floor fallback) and n_tokens must be the
    RE2 count."""
    import ray.data
    from full_text_extractor_v6_ray.stages.text_ops import perplexity_buckets

    texts = ["a\x0bb a\x0bb c", "c c c d", "d d c c"]
    docs = pd.DataFrame({"doc_id": range(len(texts)), "text": texts})
    got = (perplexity_buckets(ray.data.from_pandas(docs))
           .to_pandas().set_index("doc_id"))
    toks = {i: re2_tokens(t) for i, t in enumerate(texts)}
    uni = {}
    for ws in toks.values():
        for w in ws:
            uni[w] = uni.get(w, 0) + 1
    total = sum(uni.values())
    for i, ws in toks.items():
        assert got.loc[i, "n_tokens"] == len(ws)
        want = round(sum(math.log(uni[w] / total) for w in ws) / len(ws), 6)
        assert abs(got.loc[i, "avg_logprob"] - want) < 1e-6
