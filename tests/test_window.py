"""Keyed window analytics: row_number, cumsum, z-score, pivot."""

import numpy as np
import pandas as pd
import pyarrow as pa


def test_grouped_row_number_matches_pandas(ray_session, bucket_count):
    import ray.data
    from full_text_extractor_v6_ray.stages.window import grouped_row_number

    rng = np.random.RandomState(7)
    df = pd.DataFrame({"k": rng.randint(0, 20, 300),
                       "o": rng.permutation(300),
                       "v": np.arange(300)})
    bucket_count(8)
    got = grouped_row_number(ray.data.from_pandas(df), "k", ["o"],
                             out_col="rn").to_pandas()
    exp = df.sort_values(["k", "o"], kind="mergesort").copy()
    exp["rn"] = exp.groupby("k", sort=False).cumcount() + 1
    key = ["k", "o"]
    got = got.sort_values(key).reset_index(drop=True)
    exp = exp.sort_values(key).reset_index(drop=True)
    assert list(got["rn"]) == list(exp["rn"])


def test_grouped_row_number_limit(ray_session, bucket_count):
    import ray.data
    from full_text_extractor_v6_ray.stages.window import grouped_row_number

    df = pd.DataFrame({"k": [1] * 10 + [2] * 2, "o": list(range(10)) + [0, 1]})
    bucket_count(4)
    got = grouped_row_number(ray.data.from_pandas(df), "k", ["o"],
                             limit=3).to_pandas()
    assert len(got) == 5
    assert got["rn"].max() == 3


def test_grouped_cumsum_matches_pandas(ray_session, bucket_count):
    import ray.data
    from full_text_extractor_v6_ray.stages.window import grouped_cumsum

    rng = np.random.RandomState(9)
    df = pd.DataFrame({"k": rng.randint(0, 15, 400),
                       "o": np.arange(400),
                       "v": rng.rand(400)})
    bucket_count(8)
    got = grouped_cumsum(ray.data.from_pandas(df), "k", ["o"], "v",
                         out_col="rs").to_pandas()
    exp = df.sort_values(["k", "o"], kind="mergesort").copy()
    exp["rs"] = exp.groupby("k", sort=False)["v"].cumsum()
    got = got.sort_values(["k", "o"]).reset_index(drop=True)
    exp = exp.sort_values(["k", "o"]).reset_index(drop=True)
    np.testing.assert_allclose(got["rs"], exp["rs"], rtol=0, atol=0)


def test_grouped_zscore_matches_pandas(ray_session):
    import ray.data
    from full_text_extractor_v6_ray.stages.window import grouped_zscore

    rng = np.random.RandomState(13)
    df = pd.DataFrame({"k": rng.choice(["a", "b", "c"], 500),
                       "id": np.arange(500),
                       "v": rng.rand(500) * 1000 + 5000})
    got = grouped_zscore(ray.data.from_pandas(df), "k", "v").to_pandas()
    stats = df.groupby("k")["v"].agg(["mean", "std"])
    exp_z = ((df["v"] - df["k"].map(stats["mean"]))
             / df["k"].map(stats["std"])).round(6)
    got = got.sort_values("id").reset_index(drop=True)
    np.testing.assert_allclose(got["zscore"], exp_z, atol=1e-6)


def test_grouped_zscore_constant_group_is_zero(ray_session):
    import ray.data
    from full_text_extractor_v6_ray.stages.window import grouped_zscore

    df = pd.DataFrame({"k": ["a"] * 5 + ["b"], "id": range(6),
                       "v": [7.0] * 5 + [3.0]})
    got = grouped_zscore(ray.data.from_pandas(df), "k", "v").to_pandas()
    assert (got["zscore"] == 0).all()


def test_pivot_counts_matches_crosstab(ray_session):
    import ray.data
    from full_text_extractor_v6_ray.stages.window import pivot_counts

    rng = np.random.RandomState(21)
    df = pd.DataFrame({"g": rng.choice(["x", "y", "z"], 600),
                       "p": rng.choice(["A", "B", "C", "D"], 600)})
    got = (pivot_counts(ray.data.from_pandas(df), "g", "p",
                        ["A", "B", "C"]).to_pandas()
           .sort_values("g").reset_index(drop=True))
    ct = pd.crosstab(df["g"], df["p"])
    for v in ["A", "B", "C"]:
        assert list(got["n_" + v]) == list(ct[v])
    assert "n_D" not in got.columns


def test_grouped_percent_rank_matches_pandas(ray_session, bucket_count):
    import ray.data
    from full_text_extractor_v6_ray.stages.window import grouped_percent_rank

    rng = np.random.RandomState(31)
    df = pd.DataFrame({"k": rng.choice(["a", "b", "c"], 200),
                       "o": rng.permutation(200)})
    bucket_count(4)
    got = grouped_percent_rank(ray.data.from_pandas(df), "k", ["o"],
                               out_col="pr").to_pandas()
    exp = df.copy()
    exp["pr"] = exp.groupby("k")["o"].rank(method="first").sub(1) / \
        exp.groupby("k")["o"].transform("size").sub(1)
    got = got.sort_values(["k", "o"]).reset_index(drop=True)
    exp = exp.sort_values(["k", "o"]).reset_index(drop=True)
    np.testing.assert_allclose(got["pr"], exp["pr"], rtol=0, atol=0)


def test_grouped_percent_rank_singleton_zero(ray_session, bucket_count):
    import ray.data
    from full_text_extractor_v6_ray.stages.window import grouped_percent_rank

    df = pd.DataFrame({"k": ["solo", "d", "d"], "o": [1, 2, 3]})
    bucket_count(2)
    got = grouped_percent_rank(ray.data.from_pandas(df), "k",
                               ["o"]).to_pandas()
    assert got.loc[got["k"] == "solo", "pr"].iloc[0] == 0.0
    assert set(got.loc[got["k"] == "d", "pr"]) == {0.0, 1.0}


def test_grouped_string_agg_matches_pandas(ray_session, bucket_count):
    import ray.data
    from full_text_extractor_v6_ray.stages.window import grouped_string_agg

    rng = np.random.RandomState(41)
    df = pd.DataFrame({"k": rng.choice(["a", "b", "c"], 120),
                       "v": rng.permutation(120)})
    bucket_count(4)
    got = (grouped_string_agg(ray.data.from_pandas(df), "k", "v",
                              order_cols=["v"], out_col="vals").to_pandas()
           .sort_values("k").reset_index(drop=True))
    exp = (df.sort_values(["k", "v"]).groupby("k")["v"]
           .agg(lambda s: ",".join(str(x) for x in s))
           .reset_index(name="vals"))
    pd.testing.assert_frame_equal(got[["k", "vals"]], exp)


def test_grouped_exact_distinct_matches_pandas(ray_session, bucket_count):
    import ray.data
    from full_text_extractor_v6_ray.stages.window import grouped_exact_distinct

    rng = np.random.RandomState(43)
    df = pd.DataFrame({"k": rng.choice(["x", "y", "z"], 500),
                       "u": rng.randint(0, 40, 500)})
    bucket_count(4)
    got = (grouped_exact_distinct(ray.data.from_pandas(df), "k", "u",
                                  out_col="n").to_pandas()
           .sort_values("k").reset_index(drop=True))
    exp = df.groupby("k")["u"].nunique().reset_index(name="n")
    assert list(got["k"]) == list(exp["k"])
    assert list(got["n"].astype(int)) == list(exp["n"])


def test_grouped_lag_gap(ray_session, bucket_count):
    import ray.data
    from full_text_extractor_v6_ray.stages.window import grouped_lag_gap

    df = pd.DataFrame({
        "k": [1, 1, 1, 2],
        "id": [1, 2, 3, 4],
        "ts": pd.to_datetime(["2024-01-01 00:00:00", "2024-01-01 00:00:10",
                              "2024-01-01 00:01:00", "2024-01-01 05:00:00"]),
    })
    bucket_count(4)
    got = (grouped_lag_gap(ray.data.from_pandas(df), "k", "ts", ["id"])
           .to_pandas().sort_values("id").reset_index(drop=True))
    assert pd.isna(got.loc[0, "gap_s"]) and pd.isna(got.loc[3, "gap_s"])
    assert got.loc[1, "gap_s"] == 10.0
    assert got.loc[2, "gap_s"] == 50.0


def test_grouped_ntile_uneven_semantics(ray_session, bucket_count):
    import ray.data
    from full_text_extractor_v6_ray.stages.window import grouped_ntile

    # 10 rows, 4 tiles -> sizes 3,3,2,2 (first size%n tiles larger);
    # plus a group smaller than n (2 rows -> tiles 1,2)
    df = pd.DataFrame({"k": ["a"] * 10 + ["b"] * 2,
                       "o": list(range(10)) + [0, 1]})
    bucket_count(4)
    got = (grouped_ntile(ray.data.from_pandas(df), "k", ["o"], 4)
           .to_pandas().sort_values(["k", "o"]).reset_index(drop=True))
    a = got[got["k"] == "a"]["tile"].tolist()
    assert a == [1, 1, 1, 2, 2, 2, 3, 3, 4, 4]
    assert got[got["k"] == "b"]["tile"].tolist() == [1, 2]


def test_grouped_dense_rank_matches_pandas(ray_session, bucket_count):
    import ray.data
    from full_text_extractor_v6_ray.stages.window import grouped_dense_rank

    rng = np.random.RandomState(13)
    df = pd.DataFrame({"k": rng.randint(0, 6, 400),
                       "d": rng.randint(0, 15, 400),   # heavy ties
                       "id": np.arange(400)})
    bucket_count(4)
    got = (grouped_dense_rank(ray.data.from_pandas(df), "k", "d",
                              out_col="dr")
           .to_pandas().sort_values("id").reset_index(drop=True))
    exp = df.copy()
    exp["dr"] = exp.groupby("k")["d"].rank(method="dense").astype("int64")
    assert got["dr"].tolist() == exp["dr"].tolist()
    # ties share ranks, no gaps: per key the rank set is 1..n_distinct
    for k, g in got.groupby("k"):
        assert sorted(g["dr"].unique()) == list(
            range(1, g["d"].nunique() + 1))


def test_grouped_rolling_mean_matches_duckdb(ray_session, bucket_count):
    import duckdb
    import ray.data
    from full_text_extractor_v6_ray.stages.window import (
        grouped_rolling_mean)

    rng = np.random.RandomState(29)
    df = pd.DataFrame({"k": rng.randint(0, 8, 500),
                       "o": rng.permutation(500),
                       "v": (rng.rand(500) * 100).round(3)})
    bucket_count(4)
    got = (grouped_rolling_mean(ray.data.from_pandas(df), "k", ["o"],
                                "v", window=4, out_col="rm")
           .to_pandas().sort_values(["k", "o"]).reset_index(drop=True))
    exp = duckdb.sql("""
        SELECT k, o, ROUND(AVG(v) OVER (PARTITION BY k ORDER BY o
                     ROWS BETWEEN 3 PRECEDING AND CURRENT ROW), 6) rm
        FROM df ORDER BY k, o
    """).df()
    np.testing.assert_allclose(got["rm"], exp["rm"], atol=1e-9)


def test_bucketed_intersect_matches_set(ray_session, bucket_count):
    import ray.data
    from full_text_extractor_v6_ray.stages.dedup import (
        hash_bucketed_distinct)
    from full_text_extractor_v6_ray.stages.joins import hash_join

    left = pd.DataFrame({"a": np.r_[np.arange(0, 80),
                                    np.arange(0, 80)]})  # dups in input
    right = pd.DataFrame({"b": np.arange(50, 200)})
    # INTERSECT = distinct, then semi join
    bucket_count(4)
    distinct = hash_bucketed_distinct(ray.data.from_pandas(left), ["a"])
    got = sorted(hash_join(
        distinct, ray.data.from_pandas(right),
        "a", "b", how="semi").to_pandas()["a"])
    assert got == list(range(50, 80))   # distinct, both sides only


def test_grouped_ewma_matches_explicit_loop(ray_session):
    import ray.data
    from full_text_extractor_v6_ray.stages.window import grouped_ewma

    rng = np.random.RandomState(21)
    n = 300
    df = pd.DataFrame({
        "k": rng.choice(["u1", "u2", "u3"], n),
        "ts": rng.permutation(n),   # unique order col, shuffled
        "v": rng.rand(n) * 10,
    })
    alpha = 0.3
    got = (grouped_ewma(ray.data.from_pandas(df), "k", ["ts"], "v",
                        alpha=alpha)
           .to_pandas().sort_values(["k", "ts"]).reset_index(drop=True))
    for k, g in df.sort_values("ts").groupby("k"):
        state = None
        exp = []
        for v in g["v"]:
            state = v if state is None else alpha * v + (1 - alpha) * state
            exp.append(round(state, 6))
        sub = got[got["k"] == k]
        assert np.allclose(sub["ewma"].to_numpy(), exp, atol=1e-9), k


def test_grouped_ewma_first_row_is_value(ray_session):
    import ray.data
    from full_text_extractor_v6_ray.stages.window import grouped_ewma

    df = pd.DataFrame({"k": ["a", "a", "b"], "ts": [1, 2, 1],
                       "v": [4.0, 8.0, 5.0]})
    got = (grouped_ewma(ray.data.from_pandas(df), "k", ["ts"], "v",
                        alpha=0.5)
           .to_pandas().sort_values(["k", "ts"]))
    assert got["ewma"].tolist() == [4.0, 6.0, 5.0]


def test_grouped_cume_dist_ties(ray_session):
    import ray.data
    from full_text_extractor_v6_ray.stages.window import grouped_cume_dist

    df = pd.DataFrame({"k": ["a"] * 5 + ["b"] * 2,
                       "v": [1, 2, 2, 3, 3, 10, 20]})
    got = (grouped_cume_dist(ray.data.from_pandas(df), "k", "v")
           .to_pandas().sort_values(["k", "v"]))
    assert got[got["k"] == "a"]["cd"].tolist() == [0.2, 0.6, 0.6, 1.0, 1.0]
    assert got[got["k"] == "b"]["cd"].tolist() == [0.5, 1.0]


def test_grouped_rank_gaps(ray_session):
    import ray.data
    from full_text_extractor_v6_ray.stages.window import grouped_rank

    df = pd.DataFrame({"k": ["a"] * 5, "v": [1, 2, 2, 3, 2]})
    got = (grouped_rank(ray.data.from_pandas(df), "k", "v")
           .to_pandas().sort_values("v"))
    assert got["rk"].tolist() == [1, 2, 2, 2, 5]  # gap after the tie
