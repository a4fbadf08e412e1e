"""Weighted A-ES md5 sampling + FineWeb-style per-host cap."""

import hashlib

import numpy as np
import pandas as pd


def test_weighted_hash_topk_matches_closed_form(ray_session):
    import ray.data
    from full_text_extractor_v6_ray.stages.sampling import (
        weighted_hash_topk)

    rng = np.random.RandomState(31)
    df = pd.DataFrame({"k": np.arange(300, dtype=np.int64),
                       "w": rng.rand(300) * 10})
    df.loc[5, "w"] = 0.0    # non-positive weight never selected
    df.loc[6, "w"] = -2.0
    got = (weighted_hash_topk(ray.data.from_pandas(df), "k", "w", k=25)
           .to_pandas())

    def score(row):
        u = (int(hashlib.md5(str(int(row.k)).encode()).hexdigest()[:8],
                 16) + 0.5) / 16 ** 8
        return u ** (1.0 / row.w)

    elig = df[df["w"] > 0].copy()
    elig["score"] = elig.apply(score, axis=1)
    exp = elig.sort_values(["score", "k"],
                           ascending=[False, True]).head(25)
    assert got["k"].tolist() == exp["k"].tolist()
    assert np.allclose(got["score"], exp["score"])
    assert not {5, 6} & set(got["k"])


def test_weighted_topk_heavier_weights_win_on_average(ray_session):
    import ray.data
    from full_text_extractor_v6_ray.stages.sampling import (
        weighted_hash_topk)

    # weight 100 vs 0.1: the heavy half should dominate the sample
    df = pd.DataFrame({"k": np.arange(400, dtype=np.int64)})
    df["w"] = np.where(df["k"] < 200, 100.0, 0.1)
    got = (weighted_hash_topk(ray.data.from_pandas(df), "k", "w", k=40)
           .to_pandas())
    assert (got["k"] < 200).sum() >= 35


def test_per_host_cap(ray_session, bucket_count):
    import ray.data
    from full_text_extractor_v6_ray.stages.topk import per_host_cap

    rows = []
    for h, n in (("a.com", 5), ("b.org", 2)):
        for i in range(n):
            rows.append({"url": f"https://{h}/p{i}",
                         "quality_score": float(i)})
    rows.append({"url": "not-a-url", "quality_score": 9.0})  # dropped
    df = pd.DataFrame(rows)
    bucket_count(4)
    got = (per_host_cap(ray.data.from_pandas(df), "url",
                        "quality_score", cap=3)
           .to_pandas().sort_values(["host", "rn"]).reset_index(drop=True))
    assert got.groupby("host").size().to_dict() == {"a.com": 3, "b.org": 2}
    # best-quality pages kept, rn follows quality desc
    a = got[got["host"] == "a.com"]
    assert a["url"].tolist() == ["https://a.com/p4", "https://a.com/p3",
                                 "https://a.com/p2"]
    assert a["rn"].tolist() == [1, 2, 3]
    assert "not-a-url" not in set(got["url"])
