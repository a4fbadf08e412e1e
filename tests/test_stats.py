"""Distributed statistics stage: grouped correlation + cohort retention."""

import numpy as np
import pandas as pd
import pyarrow as pa

SF = "/root/testdata/sf0.001"


def _duck(sf_dir):
    import duckdb

    con = duckdb.connect()
    for t in ("events", "lineitem", "documents", "orders"):
        con.execute(f"CREATE VIEW {t} AS SELECT * FROM "
                    f"read_parquet('{sf_dir}/{t}.parquet')")
    return con


def test_grouped_corr_matches_numpy(ray_session):
    import ray.data
    from full_text_extractor_v6_ray.stages.stats import grouped_corr

    rng = np.random.RandomState(11)
    df = pd.DataFrame({"k": rng.choice(["a", "b", "c"], 600),
                       "x": rng.rand(600) * 100,
                       "y": rng.rand(600) * 50})
    df["y"] += df["x"] * 0.3  # induce real correlation
    got = (grouped_corr(ray.data.from_pandas(df), "k", "x", "y")
           .to_pandas().set_index("k").sort_index())
    for k, g in df.groupby("k"):
        exp = np.corrcoef(g["x"], g["y"])[0, 1]
        assert abs(got.loc[k, "corr"] - round(exp, 6)) < 2e-6
        assert got.loc[k, "n"] == len(g)


def test_grouped_corr_constant_column_is_null(ray_session):
    import ray.data
    from full_text_extractor_v6_ray.stages.stats import grouped_corr

    df = pd.DataFrame({"k": ["a"] * 5, "x": [1.0] * 5,
                       "y": [1, 2, 3, 4, 5.0]})
    got = grouped_corr(ray.data.from_pandas(df), "k", "x", "y").to_pandas()
    assert pd.isna(got.loc[0, "corr"])


def test_cohort_retention_matches_pandas(ray_session, bucket_count):
    import ray.data
    from full_text_extractor_v6_ray.stages.stats import cohort_retention

    rng = np.random.RandomState(5)
    n = 800
    ts = (pd.Timestamp("2024-01-01")
          + pd.to_timedelta(rng.randint(0, 60 * 86400, n), unit="s"))
    df = pd.DataFrame({"user_id": rng.randint(0, 40, n), "ts": ts})
    bucket_count(8)
    got = (cohort_retention(ray.data.from_pandas(df), "user_id", "ts")
           .to_pandas()
           .sort_values(["cohort_week", "weeks_since"])
           .reset_index(drop=True))

    ref = df.copy()
    ref["week"] = ref["ts"].dt.to_period("W-SUN").dt.start_time  # Monday
    ref["cohort_week"] = ref.groupby("user_id")["week"].transform("min")
    ref["weeks_since"] = ((ref["week"] - ref["cohort_week"]).dt.days // 7)
    exp = (ref.drop_duplicates(["cohort_week", "weeks_since", "user_id"])
           .groupby(["cohort_week", "weeks_since"]).size()
           .rename("n_users").reset_index()
           .sort_values(["cohort_week", "weeks_since"])
           .reset_index(drop=True))
    assert len(got) == len(exp)
    assert (got["n_users"].astype(int).tolist()
            == exp["n_users"].astype(int).tolist())
    assert got["weeks_since"].tolist() == exp["weeks_since"].tolist()
    assert (pd.to_datetime(got["cohort_week"]).tolist()
            == exp["cohort_week"].tolist())


def _vs_oracle(name, sort_keys, ray_session):
    from full_text_extractor_v6_ray.driver_queries import ORACLES, QUERIES

    got = QUERIES[name](SF)
    if hasattr(got, "to_pandas"):
        got = got.to_pandas()
    got = (got.reindex(sorted(got.columns), axis=1)
           .sort_values(sort_keys).reset_index(drop=True))
    exp = _duck(SF).execute(ORACLES[name]).fetchdf()
    exp = (exp.reindex(sorted(exp.columns), axis=1)
           .sort_values(sort_keys).reset_index(drop=True))
    assert list(got.columns) == list(exp.columns), name
    assert len(got) == len(exp), name
    for c in got.columns:
        g, e = got[c], exp[c]
        if g.dtype.kind == "f" or e.dtype.kind == "f":
            np.testing.assert_allclose(g.astype(float), e.astype(float),
                                       rtol=0, atol=1.1e-6, err_msg=c)
        elif g.dtype.kind == "M" or e.dtype.kind == "M":
            assert (pd.to_datetime(g).tolist()
                    == pd.to_datetime(e).tolist()), c
        else:
            assert g.astype(str).tolist() == e.astype(str).tolist(), c


def test_lineitem_corr_oracle(ray_session):
    _vs_oracle("lineitem_corr", ["l_returnflag"], ray_session)


def test_events_cohort_retention_oracle(ray_session):
    _vs_oracle("events_cohort_retention",
               ["cohort_week", "weeks_since"], ray_session)


def test_events_props_stats_oracle(ray_session):
    _vs_oracle("events_props_stats", ["event_type"], ray_session)


def test_tfidf_top_terms_small(ray_session):
    import ray.data
    from full_text_extractor_v6_ray.stages.stats import tfidf_top_terms

    docs = pd.DataFrame({
        "doc_id": [1, 2, 3],
        "text": ["apple banana apple", "banana cherry", "cherry date date"],
    })
    got = (tfidf_top_terms(ray.data.from_pandas(docs), k=2)
           .to_pandas().sort_values(["doc_id", "rn"]).reset_index(drop=True))
    # doc 1: apple tf=2 df=1 -> 2*ln(3); banana tf=1 df=2 -> ln(1.5)
    assert got.loc[0, "term"] == "apple"
    assert abs(got.loc[0, "tfidf"] - round(2 * np.log(3.0), 6)) < 1e-9
    assert got.loc[1, "term"] == "banana"
    # every doc contributes <= 2 rows, rn within [1,2]
    assert got.groupby("doc_id")["rn"].max().max() <= 2
    assert set(got["doc_id"]) == {1, 2, 3}


def test_tfidf_oracle(ray_session):
    _vs_oracle("docs_tfidf_top3", ["doc_id", "rn"], ray_session)


def test_grouped_mode_tiebreak(ray_session, bucket_count):
    import ray.data
    from full_text_extractor_v6_ray.stages.window import grouped_mode

    df = pd.DataFrame({"k": [1, 1, 1, 1, 2, 2],
                       "v": ["b", "b", "a", "a", "z", "y"]})
    bucket_count(4)
    got = (grouped_mode(ray.data.from_pandas(df), "k", "v")
           .to_pandas().sort_values("k").reset_index(drop=True))
    assert got.loc[0, "v"] == "a"  # tie 2-2 -> lexicographically smallest
    assert got.loc[0, "n"] == 2
    assert got.loc[1, "v"] == "y"  # tie 1-1 -> smallest
    assert len(got) == 2


def test_gapfill_hourly_zero_rows(ray_session):
    import ray.data
    from full_text_extractor_v6_ray.stages.cube import gapfill_hourly

    df = pd.DataFrame({
        "k": ["a", "a", "b"],
        "ts": pd.to_datetime(["2024-01-01 00:10", "2024-01-01 03:20",
                              "2024-01-01 01:05"]),
    })
    got = (gapfill_hourly(ray.data.from_pandas(df), "ts", "k")
           .to_pandas().sort_values(["k", "hour"]).reset_index(drop=True))
    # 2 keys x 4 hours (00..03) = 8 dense rows
    assert len(got) == 8
    assert got["n"].sum() == 3
    a = got[got["k"] == "a"]["n"].tolist()
    assert a == [1, 0, 0, 1]


def test_mode_cube_dense_oracles(ray_session):
    _vs_oracle("orders_priority_mode", ["o_custkey"], ray_session)
    _vs_oracle("lineitem_cube", ["l_returnflag", "l_linestatus"],
               ray_session)
    _vs_oracle("events_hourly_dense", ["event_type", "hour"], ray_session)


def test_bucketed_except(ray_session, bucket_count):
    import ray.data
    from full_text_extractor_v6_ray.stages.dedup import (
        hash_bucketed_distinct)
    from full_text_extractor_v6_ray.stages.joins import hash_join

    left = pd.DataFrame({"k": [1, 2, 2, 3, 4, 5]})
    right = pd.DataFrame({"j": [2, 4, 4, 9]})
    # EXCEPT = distinct, then anti join
    bucket_count(4)
    distinct = hash_bucketed_distinct(ray.data.from_pandas(left), ["k"])
    got = sorted(hash_join(distinct, ray.data.from_pandas(right),
                           "k", "j", how="anti")
                 .to_pandas()["k"].tolist())
    assert got == [1, 3, 5]  # distinct left minus right


def test_unpivot_oracle(ray_session):
    _vs_oracle("lineitem_unpivot",
               ["l_orderkey", "l_linenumber", "metric"], ray_session)


def test_customers_no_events_oracle(ray_session):
    from full_text_extractor_v6_ray.driver_queries import ORACLES, QUERIES
    import duckdb

    got = sorted(QUERIES["customers_no_events"](SF)
                 .to_pandas()["c_custkey"].tolist())
    con = duckdb.connect()
    for t in ("customer", "events"):
        con.execute(f"CREATE VIEW {t} AS SELECT * FROM "
                    f"read_parquet('{SF}/{t}.parquet')")
    exp = sorted(x[0] for x in
                 con.execute(ORACLES["customers_no_events"]).fetchall())
    assert got == exp


def test_tfidf_spill_and_min_df(ray_session, tmp_path):
    """The parquet-spill flavor (no object-store pinning) gives the
    identical result; min_df=2 drops exactly the hapax terms and leaves
    recurring-term scores untouched."""
    import ray.data
    from full_text_extractor_v6_ray.stages.stats import tfidf_top_terms

    docs = pd.DataFrame({
        "doc_id": [1, 2, 3],
        "text": ["apple banana apple", "banana cherry", "cherry date date"],
    })

    def run(**kw):
        return (tfidf_top_terms(ray.data.from_pandas(docs), k=2, **kw)
                .to_pandas().sort_values(["doc_id", "rn"])
                .reset_index(drop=True))

    base = run()
    spilled = run(spill_dir=str(tmp_path), num_blocks=4)
    pd.testing.assert_frame_equal(
        base[["doc_id", "term", "tfidf", "rn"]],
        spilled[["doc_id", "term", "tfidf", "rn"]])

    pruned = run(min_df=2)
    assert set(pruned["term"]) == {"banana", "cherry"}  # hapax gone
    merged = pruned.merge(base, on=["doc_id", "term"], suffixes=("", "_b"))
    assert (merged["tfidf"] == merged["tfidf_b"]).all()


def test_tfidf_hot_routing_equivalence(ray_session):
    """All-hot, all-cold and mixed routing give byte-identical results —
    which side of the hot cut a term lands on is a pure routing choice."""
    import ray.data
    from full_text_extractor_v6_ray.stages.stats import tfidf_top_terms

    rng = np.random.RandomState(11)
    vocab = [f"w{i}" for i in range(40)]
    docs = pd.DataFrame({
        "doc_id": range(60),
        "text": [" ".join(rng.choice(vocab, 30)) for _ in range(60)],
    })

    def run(hot):
        return (tfidf_top_terms(ray.data.from_pandas(docs), k=3,
                                hot_terms=hot)
                .to_pandas().sort_values(["doc_id", "rn"])
                .reset_index(drop=True))

    all_cold = run(0)
    mixed = run(10)
    all_hot = run(10_000)
    for other in (mixed, all_hot):
        pd.testing.assert_frame_equal(
            all_cold[["doc_id", "term", "tf", "df", "tfidf", "rn"]],
            other[["doc_id", "term", "tf", "df", "tfidf", "rn"]])


def test_grouped_regression_matches_numpy(ray_session):
    import ray.data
    from full_text_extractor_v6_ray.stages.stats import grouped_regression

    rng = np.random.RandomState(5)
    df = pd.DataFrame({"k": rng.choice(["a", "b"], 400),
                       "x": rng.rand(400) * 20,
                       "y": rng.rand(400) * 5})
    df["y"] += df["x"] * 2.5 + 7.0
    got = (grouped_regression(ray.data.from_pandas(df), "k", "x", "y")
           .to_pandas().set_index("k").sort_index())
    for k, g in df.groupby("k"):
        slope, inter = np.polyfit(g["x"], g["y"], 1)
        assert abs(got.loc[k, "slope"] - slope) < 2e-6
        assert abs(got.loc[k, "intercept"] - inter) < 2e-6
        assert got.loc[k, "n"] == len(g)


def test_grouped_regression_null_pairs_and_zero_variance(ray_session):
    import ray.data
    from full_text_extractor_v6_ray.stages.stats import grouped_regression

    df = pd.DataFrame({"k": ["a"] * 4 + ["c"] * 3,
                       "x": [1.0, 2.0, None, 3.0, 5.0, 5.0, 5.0],
                       "y": [2.0, 4.0, 9.0, None, 1.0, 2.0, 3.0]})
    got = (grouped_regression(ray.data.from_pandas(df), "k", "x", "y")
           .to_pandas().set_index("k"))
    # group a: only (1,2),(2,4) survive -> slope 2, intercept 0
    assert got.loc["a", "n"] == 2
    assert got.loc["a", "slope"] == 2.0
    assert got.loc["a", "intercept"] == 0.0
    # group c: x constant -> null slope/intercept (SQL)
    assert got.loc["c", "n"] == 3
    assert pd.isna(got.loc["c", "slope"])
    assert pd.isna(got.loc["c", "intercept"])


def test_grouped_skew_kurt_matches_pandas(ray_session):
    import ray.data
    from full_text_extractor_v6_ray.stages.stats import grouped_skew_kurt

    rng = np.random.RandomState(9)
    df = pd.DataFrame({"k": rng.choice(["a", "b", "c"], 900),
                       "v": rng.gamma(2.0, 3.0, 900)})
    got = (grouped_skew_kurt(ray.data.from_pandas(df), "k", "v")
           .to_pandas().set_index("k").sort_index())
    for k, g in df.groupby("k"):
        assert abs(got.loc[k, "skew"] - g["v"].skew()) < 2e-6, k
        assert abs(got.loc[k, "kurt"] - g["v"].kurt()) < 2e-6, k
        assert got.loc[k, "n"] == len(g)


def test_grouped_skew_kurt_degenerate_groups(ray_session):
    import ray.data
    from full_text_extractor_v6_ray.stages.stats import grouped_skew_kurt

    df = pd.DataFrame({"k": ["two"] * 2 + ["three"] * 3 + ["flat"] * 5,
                       "v": [1.0, 2.0, 1.0, 2.0, 4.0, 3.0, 3.0, 3.0,
                             3.0, 3.0]})
    got = (grouped_skew_kurt(ray.data.from_pandas(df), "k", "v")
           .to_pandas().set_index("k"))
    assert pd.isna(got.loc["two", "skew"])       # n < 3
    assert pd.isna(got.loc["three", "kurt"])     # n < 4
    assert abs(got.loc["three", "skew"]
               - pd.Series([1.0, 2.0, 4.0]).skew()) < 2e-6
    assert pd.isna(got.loc["flat", "skew"])      # zero variance
    assert pd.isna(got.loc["flat", "kurt"])


def test_lineitem_regression_oracle(ray_session):
    _vs_oracle("lineitem_regression", ["l_returnflag"], ray_session)


def test_lineitem_skew_kurt_oracle(ray_session):
    _vs_oracle("lineitem_skew_kurt", ["l_returnflag"], ray_session)


def test_grouped_mad_matches_pandas(ray_session):
    import ray.data
    from full_text_extractor_v6_ray.stages.stats import grouped_mad

    rng = np.random.RandomState(13)
    df = pd.DataFrame({"k": rng.choice(["a", "b", "c"], 701),
                       "v": rng.lognormal(3.0, 1.0, 701)})
    got = (grouped_mad(ray.data.from_pandas(df), "k", "v")
           .to_pandas().set_index("k").sort_index())
    for k, g in df.groupby("k"):
        med = g["v"].median()
        mad = (g["v"] - med).abs().median()
        assert abs(got.loc[k, "median"] - round(med, 6)) < 1e-9, k
        assert abs(got.loc[k, "mad"] - round(mad, 6)) < 1e-9, k
        assert got.loc[k, "n"] == len(g)


def test_grouped_first_last_combiner(ray_session):
    """Partials must combine correctly across many small blocks."""
    import ray.data
    from full_text_extractor_v6_ray.stages.stats import grouped_first_last

    rng = np.random.RandomState(17)
    n = 500
    df = pd.DataFrame({"k": rng.choice(["x", "y", "z"], n),
                       "ts": rng.permutation(n),
                       "v": rng.rand(n)})
    ds = ray.data.from_pandas(df).repartition(23)
    got = (grouped_first_last(ds, "k", "ts", "v")
           .to_pandas().set_index("k").sort_index())
    for k, g in df.sort_values("ts").groupby("k"):
        assert got.loc[k, "first_v"] == g["v"].iloc[0], k
        assert got.loc[k, "last_v"] == g["v"].iloc[-1], k


def test_lineitem_mad_oracle(ray_session):
    _vs_oracle("lineitem_mad", ["l_returnflag"], ray_session)


def test_events_first_last_oracle(ray_session):
    _vs_oracle("events_first_last_value", ["user_id"], ray_session)
