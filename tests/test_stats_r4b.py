"""Round-4 batch-2 distributed stats/window/cube operators:
entropy, covariance, geometric mean, PERCENTILE_DISC, time-RANGE
window frames, GROUPING SETS — each checked against DuckDB (the same
engine the driver's oracle gate uses) or closed-form numpy on
synthetic data with planted nulls/ties."""

import math

import numpy as np
import pandas as pd


def _dsql(df, sql, name="t"):
    """One SQL statement over ``df`` registered as view ``name``
    (materialized before the connection closes — a duckdb relation
    must not outlive its connection)."""
    import duckdb

    con = duckdb.connect()
    con.register(name, df)
    out = con.sql(sql).df()
    con.close()
    return out


def test_grouped_entropy_matches_duckdb(ray_session):
    import ray.data
    from full_text_extractor_v6_ray.stages.stats import grouped_entropy

    rng = np.random.RandomState(7)
    df = pd.DataFrame({
        "k": rng.choice(["a", "b", "c", "d"], 900),
        "v": rng.choice(list("xyzw"), 900, p=[0.5, 0.3, 0.15, 0.05]),
    })
    # planted nulls must be dropped (SQL aggregate semantics)
    df.loc[df.index[:20], "v"] = None
    got = (grouped_entropy(ray.data.from_pandas(df), "k", "v",
                           out_col="h")
           .to_pandas().sort_values("k").reset_index(drop=True))
    exp = _dsql(df, "SELECT k, CAST(COUNT(v) AS BIGINT) AS n, "
                    "ROUND(entropy(v), 6) AS h FROM t "
                    "GROUP BY k ORDER BY k")
    pd.testing.assert_frame_equal(got, exp)


def test_grouped_entropy_single_value_is_zero(ray_session):
    import ray.data
    from full_text_extractor_v6_ray.stages.stats import grouped_entropy

    df = pd.DataFrame({"k": ["a"] * 8, "v": ["only"] * 8})
    got = grouped_entropy(ray.data.from_pandas(df), "k", "v").to_pandas()
    assert got.loc[0, "entropy"] == 0.0
    assert got.loc[0, "n"] == 8


def test_grouped_covar_matches_duckdb(ray_session):
    import ray.data
    from full_text_extractor_v6_ray.stages.stats import grouped_covar

    rng = np.random.RandomState(13)
    df = pd.DataFrame({"k": rng.choice(["a", "b"], 500),
                       "x": rng.rand(500) * 10,
                       "y": rng.rand(500) * 5})
    df["y"] += 0.7 * df["x"]
    df.loc[df.index[:10], "x"] = None  # pairwise-drop semantics
    got = (grouped_covar(ray.data.from_pandas(df), "k", "x", "y",
                         ndigits=6)
           .to_pandas().sort_values("k").reset_index(drop=True))
    exp = _dsql(df, "SELECT k, CAST(REGR_COUNT(x, y) AS BIGINT) AS n, "
                    "ROUND(COVAR_SAMP(x, y), 6) AS covar_samp, "
                    "ROUND(COVAR_POP(x, y), 6) AS covar_pop "
                    "FROM t GROUP BY k ORDER BY k")
    for c in ("covar_samp", "covar_pop"):
        assert np.allclose(got[c], exp[c], atol=2e-6)
    assert got["n"].tolist() == exp["n"].tolist()


def test_grouped_covar_singleton_samp_null(ray_session):
    import ray.data
    from full_text_extractor_v6_ray.stages.stats import grouped_covar

    df = pd.DataFrame({"k": ["a"], "x": [2.0], "y": [3.0]})
    got = grouped_covar(ray.data.from_pandas(df), "k", "x", "y").to_pandas()
    assert pd.isna(got.loc[0, "covar_samp"])
    assert got.loc[0, "covar_pop"] == 0.0


def test_grouped_geomean_closed_form(ray_session):
    import ray.data
    from full_text_extractor_v6_ray.stages.stats import grouped_geomean

    rng = np.random.RandomState(3)
    df = pd.DataFrame({"k": rng.choice(["a", "b"], 400),
                       "v": rng.rand(400) * 100 + 1})
    # non-positive values are out of ln-domain and must be dropped
    df.loc[df.index[:5], "v"] = 0.0
    got = (grouped_geomean(ray.data.from_pandas(df), "k", "v")
           .to_pandas().set_index("k"))
    for k, g in df[df["v"] > 0].groupby("k"):
        exp = math.exp(np.log(g["v"].to_numpy()).mean())
        assert abs(got.loc[k, "geomean"] - exp) < 1e-5
        assert got.loc[k, "n"] == len(g)


def test_grouped_quantile_disc_matches_duckdb(ray_session):
    import ray.data
    from full_text_extractor_v6_ray.stages.stats import (
        grouped_quantile_disc)

    rng = np.random.RandomState(17)
    # integer values force heavy ties — the disc-vs-cont divergence case
    df = pd.DataFrame({"k": rng.choice(["a", "b", "c"], 700),
                       "v": rng.randint(0, 20, 700).astype(float)})
    for q in (0.25, 0.5, 0.9):
        got = (grouped_quantile_disc(ray.data.from_pandas(df), "k", "v",
                                     q, out_col="qv")
               .to_pandas().sort_values("k").reset_index(drop=True))
        exp = _dsql(df, f"SELECT k, quantile_disc(v, {q}) AS qv, "
                        "CAST(COUNT(v) AS BIGINT) AS n "
                        "FROM t GROUP BY k ORDER BY k")
        pd.testing.assert_frame_equal(got[["k", "qv", "n"]], exp)


def test_time_range_sum_matches_duckdb_with_peer_ties(ray_session,
                                                      bucket_count):
    import ray.data
    from full_text_extractor_v6_ray.stages.window import (
        grouped_time_range_sum)

    rng = np.random.RandomState(23)
    n = 600
    # coarse second-granularity offsets force duplicate timestamps:
    # SQL RANGE frames include ALL peer rows (even "later" ones)
    ts = (pd.Timestamp("2024-03-01")
          + pd.to_timedelta(rng.randint(0, 7200, n), unit="s"))
    df = pd.DataFrame({
        "eid": np.arange(n, dtype=np.int64),
        "k": rng.randint(0, 12, n),
        "ts": ts,
        "v": rng.rand(n).round(3),
    })
    assert df.duplicated(["k", "ts"]).any()  # ties actually planted
    bucket_count(4)
    got = (grouped_time_range_sum(
        ray.data.from_pandas(df), "k", "ts", "v", window="15min",
        out_col="rs")
        .to_pandas().sort_values("eid").reset_index(drop=True))
    exp = _dsql(df, """
        SELECT eid, SUM(v) OVER (
            PARTITION BY k ORDER BY ts
            RANGE BETWEEN INTERVAL 15 MINUTE PRECEDING AND CURRENT ROW
        ) AS rs FROM t ORDER BY eid""")
    assert np.allclose(got["rs"], exp["rs"], atol=1e-9)


def test_grouping_sets_matches_duckdb(ray_session):
    import ray.data
    from full_text_extractor_v6_ray.stages.cube import grouping_sets_agg

    rng = np.random.RandomState(29)
    df = pd.DataFrame({"a": rng.choice(["p", "q"], 300),
                       "b": rng.choice(["x", "y", "z"], 300),
                       "v": rng.randint(1, 9, 300).astype(float)})
    got = (grouping_sets_agg(
        ray.data.from_pandas(df), ["a", "b"], [["a"], ["b"], []], "v",
        sum_alias="sv", count_alias="n")
        .to_pandas().sort_values(["a", "b"]).reset_index(drop=True))
    exp = _dsql(df, """
        SELECT COALESCE(a, 'ALL') AS a, COALESCE(b, 'ALL') AS b,
               SUM(v) AS sv, COUNT(*) AS n
        FROM t GROUP BY GROUPING SETS ((a), (b), ())
        ORDER BY a, b""")
    pd.testing.assert_frame_equal(got, exp)


def test_grouping_sets_rejects_unknown_key(ray_session):
    import pytest
    import ray.data
    from full_text_extractor_v6_ray.stages.cube import grouping_sets_agg

    df = pd.DataFrame({"a": ["p"], "v": [1.0]})
    with pytest.raises(ValueError):
        grouping_sets_agg(ray.data.from_pandas(df), ["a"], [["zz"]], "v")


def test_time_range_sum_drops_null_ts_and_key(ray_session, bucket_count):
    import ray.data
    from full_text_extractor_v6_ray.stages.window import (
        grouped_time_range_sum)

    df = pd.DataFrame({
        "k": [1, 1, None, 1],
        "ts": pd.to_datetime(["2024-01-01 00:00", "2024-01-01 00:30",
                              "2024-01-01 01:00", None]),
        "v": [1.0, 2.0, 4.0, 8.0],
    })
    bucket_count(2)
    got = (grouped_time_range_sum(ray.data.from_pandas(df), "k", "ts",
                                  "v", window="1h", out_col="rs")
           .to_pandas().sort_values("ts").reset_index(drop=True))
    # null-key and null-ts rows dropped; the two valid rows window over
    # each other only
    assert len(got) == 2
    assert got["rs"].tolist() == [1.0, 3.0]


def test_paragraph_explode_skips_null_ids(ray_session):
    import ray.data
    from full_text_extractor_v6_ray.stages.text_ops import (
        explode_paragraphs)

    df = pd.DataFrame({"doc_id": pd.array([1, None], dtype="Int64"),
                       "text": ["a b", "c d"]})
    got = explode_paragraphs(ray.data.from_pandas(df), "doc_id", "text",
                             chunk_words=1).to_pandas()
    assert set(got["doc_id"]) == {1}
    assert len(got) == 2
