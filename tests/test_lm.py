"""Interpolated bigram-LM scoring (distributed LM, no broadcast)."""

import math
from collections import Counter

import numpy as np
import pandas as pd


def _expected(texts, lam=0.7):
    toks = {i: t.split() for i, t in enumerate(texts)}
    uni = Counter(w for ws in toks.values() for w in ws)
    total = sum(uni.values())
    bi = Counter((ws[i], ws[i + 1]) for ws in toks.values()
                 for i in range(len(ws) - 1))
    out = {}
    for i, ws in toks.items():
        lps = []
        for a, b in zip(ws, ws[1:]):
            p = lam * bi[(a, b)] / uni[a] + (1 - lam) * uni[b] / total
            lps.append(math.log(p))
        if lps:
            out[i] = (len(lps), round(sum(lps) / len(lps), 6))
    return out


def test_bigram_logprob_matches_reference(ray_session, bucket_count):
    import ray.data
    from full_text_extractor_v6_ray.stages.lm import bigram_logprob

    texts = [
        "the cat sat on the mat",
        "the cat ran",
        "dogs ran fast and far away",
        "one",                       # single token: no pairs, absent
        "the mat sat",
    ]
    docs = pd.DataFrame({"doc_id": range(len(texts)), "text": texts})
    bucket_count(8)
    got = (bigram_logprob(ray.data.from_pandas(docs))
           .to_pandas().set_index("doc_id").sort_index())
    expect = _expected(texts)
    assert sorted(got.index) == sorted(expect)
    for i, (n, lp) in expect.items():
        assert got.loc[i, "n_pairs"] == n
        assert abs(got.loc[i, "avg_logprob"] - lp) < 1e-6


def test_bigram_logprob_dominant_transition_scores_higher(ray_session,
                                                          bucket_count):
    """A doc riding the dominant continuation of a contested bigram
    scores above the doc taking the minority branch: p(b|a)=3/4 beats
    p(c|a)=1/4 — the quality-signal direction CCNet relies on.
    (Deterministic rare transitions score HIGH by design: c12/c1 = 1.)
    """
    import ray.data
    from full_text_extractor_v6_ray.stages.lm import bigram_logprob

    docs = pd.DataFrame({
        "doc_id": [0, 1],
        "text": ["a b a b a b", "a c"],
    })
    bucket_count(8)
    got = (bigram_logprob(ray.data.from_pandas(docs))
           .to_pandas().set_index("doc_id"))
    assert got.loc[0, "avg_logprob"] > got.loc[1, "avg_logprob"]


def test_bigram_logprob_dispatch_paths_agree(ray_session, bucket_count):
    """The broadcast fast path and the bucketed-join scale path are
    the same function: identical output either side of the
    broadcast_scores_max dispatch."""
    import pandas as pd
    import ray.data
    from full_text_extractor_v6_ray.stages.lm import bigram_logprob

    docs = pd.DataFrame({
        "doc_id": [1, 2, 3],
        "text": ["the cat sat on the mat",
                 "the cat ran", "a dog sat on a log the cat"],
    })
    bucket_count(8)
    a = (bigram_logprob(ray.data.from_pandas(docs),
                        broadcast_scores_max=10**6)
         .to_pandas().sort_values("doc_id").reset_index(drop=True))
    b = (bigram_logprob(ray.data.from_pandas(docs),
                        broadcast_scores_max=0)
         .to_pandas().sort_values("doc_id").reset_index(drop=True))
    pd.testing.assert_frame_equal(a, b)
