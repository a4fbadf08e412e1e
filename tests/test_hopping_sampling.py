"""Hopping windows, md5 hash sampling, mergeable quantile sketch,
LEFT OUTER bucketed join."""

import hashlib

import numpy as np
import pandas as pd
import pyarrow as pa


def _events(n=400, seed=5):
    rng = np.random.RandomState(seed)
    base = pd.Timestamp("2024-03-01")
    ts = base + pd.to_timedelta(
        np.sort(rng.randint(0, 48 * 3600, n)), unit="s")
    return pd.DataFrame({"ts": ts, "value": rng.rand(n).round(3) * 10})


def test_hopping_window_matches_bruteforce(ray_session):
    import ray.data
    from full_text_extractor_v6_ray.stages.cube import hopping_window_agg

    df = _events()
    got = (hopping_window_agg(ray.data.from_pandas(df), "ts",
                              window_s=3600, slide_s=900,
                              value_col="value", count_alias="n",
                              sum_alias="sum_v")
           .to_pandas().reset_index(drop=True))

    # brute force: explode every event into its k=4 windows
    rows = []
    for _, r in df.iterrows():
        slot = int(r["ts"].value // (900 * 1_000_000_000))
        for i in range(4):
            rows.append(((slot - i) * 900, r["value"]))
    exp = (pd.DataFrame(rows, columns=["ws_s", "value"])
           .groupby("ws_s")
           .agg(n=("value", "count"), sum_v=("value", "sum"))
           .reset_index())
    exp["ws"] = pd.to_datetime(exp["ws_s"], unit="s")
    exp["sum_v"] = exp["sum_v"].round(2)

    assert list(got["ws"]) == list(exp["ws"])
    assert list(got["n"]) == list(exp["n"])
    np.testing.assert_allclose(got["sum_v"], exp["sum_v"], atol=1e-9)
    # every event lands in exactly k windows
    assert got["n"].sum() == 4 * len(df)


def test_hopping_window_rejects_non_multiple(ray_session):
    import pytest
    import ray.data
    from full_text_extractor_v6_ray.stages.cube import hopping_window_agg

    with pytest.raises(ValueError):
        hopping_window_agg(ray.data.from_pandas(_events(10)), "ts",
                           window_s=3600, slide_s=1000)


def test_md5_sample_matches_duckdb(ray_session):
    import duckdb
    import ray.data
    from full_text_extractor_v6_ray.stages.sampling import (
        fraction_threshold, md5_hash_sample)

    df = pd.DataFrame({"k": np.arange(5000, dtype=np.int64),
                       "v": np.arange(5000) * 2.0})
    frac = 0.2
    got = sorted(md5_hash_sample(ray.data.from_pandas(df), "k", frac)
                 .to_pandas()["k"])
    thresh = fraction_threshold(frac)
    exp = sorted(duckdb.sql(
        f"SELECT k FROM df WHERE substr(md5(CAST(k AS VARCHAR)), 1, 8)"
        f" < '{thresh}'").df()["k"])
    assert got == exp
    # fraction is approximately honored
    assert abs(len(got) / len(df) - frac) < 0.02


def test_md5_sample_stable_under_repartition(ray_session):
    import ray.data
    from full_text_extractor_v6_ray.stages.sampling import md5_hash_sample

    df = pd.DataFrame({"k": [f"url-{i}" for i in range(2000)]})
    a = sorted(md5_hash_sample(
        ray.data.from_pandas(df), "k", 0.3).to_pandas()["k"])
    b = sorted(md5_hash_sample(
        ray.data.from_pandas(df).repartition(7), "k", 0.3).to_pandas()["k"])
    assert a == b and 400 < len(a) < 800


def test_fraction_threshold_legacy_equivalence():
    """digest < '28' (q_docs_hash_sample's original form) must equal
    prefix8 < fraction_threshold(40/256)."""
    from full_text_extractor_v6_ray.stages.sampling import (
        fraction_threshold)

    assert fraction_threshold(0.15625) == "28000000"
    for i in range(3000):
        d = hashlib.md5(str(i).encode()).hexdigest()
        assert (d < "28") == (d[:8] < "28000000")


def test_quantile_sketch_accuracy_and_merge_order():
    from full_text_extractor_v6_ray.stages.sketches import (
        quantile_sketch_merge, quantile_sketch_partial,
        quantile_sketch_query)

    rng = np.random.RandomState(11)
    data = rng.lognormal(3.0, 1.0, 60_000)
    blocks = np.array_split(data, 37)
    parts = [quantile_sketch_partial(b) for b in blocks]
    qs = [0.1, 0.25, 0.5, 0.75, 0.9, 0.99]
    est = quantile_sketch_query(quantile_sketch_merge(parts), qs)
    exact = np.quantile(data, qs)
    # rank error <= ~1/(2*256) per block: value error small in rank
    # space; check rank of estimate is within 1% of target
    sorted_d = np.sort(data)
    for q, e in zip(qs, est):
        rank = np.searchsorted(sorted_d, e) / len(data)
        assert abs(rank - q) < 0.01, (q, rank)
    # merge order never matters
    est2 = quantile_sketch_query(
        quantile_sketch_merge(list(reversed(parts))), qs)
    np.testing.assert_allclose(est, est2, rtol=1e-12)


def test_quantile_sketch_small_and_empty():
    from full_text_extractor_v6_ray.stages.sketches import (
        quantile_sketch_merge, quantile_sketch_partial,
        quantile_sketch_query)

    # fewer rows than m: sketch is exact
    v = np.array([1.0, 2.0, 3.0, 4.0])
    sk = quantile_sketch_merge([quantile_sketch_partial(v)])
    assert quantile_sketch_query(sk, [0.5])[0] == 2.5
    empty = quantile_sketch_merge([quantile_sketch_partial(np.array([]))])
    assert np.isnan(quantile_sketch_query(empty, [0.5])[0])


def test_approx_quantiles_dataset(ray_session):
    import ray.data
    from full_text_extractor_v6_ray.stages.sketches import approx_quantiles

    rng = np.random.RandomState(3)
    df = pd.DataFrame({"v": rng.rand(20_000) * 100})
    est = approx_quantiles(ray.data.from_pandas(df).repartition(8),
                           "v", [0.5, 0.9])
    assert abs(est[0] - 50) < 2 and abs(est[1] - 90) < 2


def test_grouped_approx_quantiles(ray_session):
    """High-cardinality per-key sketch path agrees with exact per-key
    quantiles to ~1% rank error."""
    import ray.data
    from full_text_extractor_v6_ray.stages.sketches import (
        grouped_approx_quantiles)

    rng = np.random.RandomState(7)
    df = pd.DataFrame({
        "k": rng.randint(0, 40, 30_000).astype(np.int64),
        "v": rng.lognormal(2.0, 0.8, 30_000),
    })
    got = (grouped_approx_quantiles(
        ray.data.from_pandas(df).repartition(6), "k", "v", [0.5, 0.9])
        .to_pandas().sort_values("k").reset_index(drop=True))
    assert len(got) == 40
    for _, row in got.iterrows():
        g = np.sort(df.loc[df["k"] == row["k"], "v"].to_numpy())
        for qc, q in (("q50", 0.5), ("q90", 0.9)):
            rank = np.searchsorted(g, row[qc]) / len(g)
            assert abs(rank - q) < 0.02, (row["k"], qc, rank)


def test_left_join_unmatched_typed_nulls(ray_session):
    import ray.data
    from full_text_extractor_v6_ray.stages.joins import hash_join

    left = pd.DataFrame({"k": np.arange(50, dtype=np.int64),
                         "lv": np.arange(50) * 1.0})
    right = pd.DataFrame({"rk": np.arange(0, 50, 5, dtype=np.int64),
                          "rv": np.arange(10, dtype=np.int64) * 100,
                          "rs": [f"s{i}" for i in range(10)]})
    got = hash_join(ray.data.from_pandas(left),
                    ray.data.from_pandas(right),
                    "k", "rk", how="left").to_pandas()
    exp = left.merge(right, left_on="k", right_on="rk",
                     how="left").drop(columns=["rk"])
    got = got.sort_values("k").reset_index(drop=True)
    exp = exp.sort_values("k").reset_index(drop=True)
    assert len(got) == 50
    assert list(got["k"]) == list(exp["k"])
    matched = got["rv"].notna()
    assert matched.sum() == 10
    # unmatched right ints stay integral (nullable), not float-corrupted
    assert got.loc[matched, "rv"].astype("int64").tolist() == \
        exp.loc[exp["rv"].notna(), "rv"].astype("int64").tolist()
    assert got.loc[~matched, "rs"].isna().all()


def test_mg_heavy_hitters_guarantee():
    """Misra-Gries bound: every key with true count > n/k_cap survives,
    and estimates underestimate by at most n/k_cap — exercised with
    k_cap << cardinality (the compression path the oracled query's
    exact regime doesn't hit)."""
    from full_text_extractor_v6_ray.stages.sketches import (
        mg_merge, mg_partial)

    rng = np.random.RandomState(41)
    # zipf-ish: few hot keys over a large uniform tail
    hot = np.repeat(np.arange(5), [4000, 3000, 2000, 1500, 1000])
    tail = rng.randint(100, 5000, 8000)
    data = np.concatenate([hot, tail])
    rng.shuffle(data)
    n, k_cap = len(data), 50

    parts = [mg_partial(b, k_cap) for b in np.array_split(data, 13)]
    keys, counts = mg_merge(parts, k_cap)
    assert len(keys) <= k_cap
    true = {k: c for k, c in zip(*np.unique(data, return_counts=True))}
    est = dict(zip(keys, counts))
    bound = n / k_cap
    for k, tc in true.items():
        if tc > bound:
            assert k in est, f"guaranteed heavy hitter {k} missing"
        if k in est:
            assert 0 < est[k] <= tc
            assert tc - est[k] <= bound


def test_mg_exact_when_cardinality_below_cap():
    from full_text_extractor_v6_ray.stages.sketches import (
        mg_merge, mg_partial)

    rng = np.random.RandomState(6)
    data = rng.randint(0, 40, 10_000)
    parts = [mg_partial(b, 500) for b in np.array_split(data, 7)]
    keys, counts = mg_merge(parts, 500)
    tk, tc = np.unique(data, return_counts=True)
    assert list(keys) == list(tk) and list(counts) == list(tc)


def test_heavy_hitters_dataset_exact_regime(ray_session):
    import ray.data
    from full_text_extractor_v6_ray.stages.sketches import heavy_hitters

    rng = np.random.RandomState(9)
    df = pd.DataFrame({"u": rng.randint(0, 30, 5000)})
    got = heavy_hitters(ray.data.from_pandas(df).repartition(5), "u",
                        top=5)
    exp = (df["u"].value_counts().rename_axis("u")
           .reset_index(name="c")
           .sort_values(["c", "u"], ascending=[False, True])
           .head(5).reset_index(drop=True))
    assert got["u"].tolist() == exp["u"].tolist()
    assert got["approx_count"].tolist() == exp["c"].tolist()


def test_grouped_approx_distinct(ray_session):
    import ray.data
    from full_text_extractor_v6_ray.stages.sketches import (
        grouped_approx_distinct)

    rng = np.random.RandomState(17)
    df = pd.DataFrame({
        "k": rng.randint(0, 4, 40_000),
        "v": rng.randint(0, 5000, 40_000),
    })
    got = (grouped_approx_distinct(
        ray.data.from_pandas(df).repartition(6), "k", "v")
        .to_pandas().sort_values("k").reset_index(drop=True))
    assert len(got) == 4
    for _, row in got.iterrows():
        true = df.loc[df["k"] == row["k"], "v"].nunique()
        assert abs(row["approx_distinct"] - true) / true < 0.05


def test_full_outer_join_matches_pandas(ray_session):
    import ray.data
    from full_text_extractor_v6_ray.stages.joins import hash_join

    left = pd.DataFrame({"k": np.arange(0, 40, 2, dtype=np.int64),
                         "lv": np.arange(20, dtype=np.int64)})
    right = pd.DataFrame({"rk": np.arange(0, 60, 3, dtype=np.int64),
                          "rv": [f"r{i}" for i in range(20)]})
    joined = hash_join(ray.data.from_pandas(left),
                       ray.data.from_pandas(right),
                       "k", "rk", how="outer").materialize()
    got = joined.to_pandas().sort_values("k").reset_index(drop=True)
    exp = left.merge(right, left_on="k", right_on="rk", how="outer")
    exp["k"] = exp["k"].fillna(exp["rk"]).astype("int64")
    exp = (exp.drop(columns=["rk"])
           .sort_values("k").reset_index(drop=True))
    assert got["k"].tolist() == exp["k"].tolist()
    # matched / left-only / right-only all present
    assert got["lv"].isna().sum() == exp["lv"].isna().sum() > 0
    assert got["rv"].isna().sum() == exp["rv"].isna().sum() > 0
    both = got["lv"].notna() & got["rv"].notna()
    assert both.sum() == len(set(left["k"]) & set(right["rk"]))
    # int columns survive as integers (nullable), never floats: the
    # join emits Arrow int64 (to_pandas turns any null int64 to float64)
    assert joined.schema().base_schema.field("lv").type == pa.int64()


def test_composite_key_join_matches_pandas(ray_session, bucket_count):
    import ray.data
    from full_text_extractor_v6_ray.stages.joins import hash_join

    rng = np.random.RandomState(3)
    left = pd.DataFrame({
        "a": rng.randint(0, 10, 300).astype(np.int64),
        "b": rng.randint(0, 10, 300).astype(np.int64),
        "lv": np.arange(300, dtype=np.int64),
    })
    right = pd.DataFrame({
        "a": np.repeat(np.arange(10, dtype=np.int64), 10),
        "b": np.tile(np.arange(10, dtype=np.int64), 10),
        "rv": np.arange(100, dtype=np.int64) * 7,
    })
    bucket_count(8)
    got = (hash_join(
        ray.data.from_pandas(left), ray.data.from_pandas(right),
        ["a", "b"], ["a", "b"])
        .to_pandas().sort_values(["a", "b", "lv"]).reset_index(drop=True))
    exp = (left.merge(right, on=["a", "b"], how="inner")
           .sort_values(["a", "b", "lv"]).reset_index(drop=True))
    assert len(got) == len(exp) == 300   # right covers every (a,b) pair
    for c in ("a", "b", "lv", "rv"):
        assert got[c].tolist() == exp[c].tolist()


def test_composite_key_join_distinguishes_swapped_keys(ray_session,
                                                       bucket_count):
    """(a=1,b=2) must NOT match (a=2,b=1) — the pairwise splitmix remix
    plus the equality merge keep swapped composites apart."""
    import ray.data
    from full_text_extractor_v6_ray.stages.joins import hash_join

    left = pd.DataFrame({"a": [1, 2], "b": [2, 1], "lv": [10, 20]})
    right = pd.DataFrame({"a": [1], "b": [2], "rv": [99]})
    bucket_count(4)
    got = hash_join(
        ray.data.from_pandas(left), ray.data.from_pandas(right),
        ["a", "b"], ["a", "b"]).to_pandas()
    assert len(got) == 1 and got["lv"].iloc[0] == 10


def test_empty_block_guards(ray_session):
    """Empty partitions must not poison schema unification (empty
    numpy -> arrow inference would yield null-typed key columns), and
    null timestamps drop explicitly from hopping windows."""
    import ray.data
    from full_text_extractor_v6_ray.stages.cube import hopping_window_agg
    from full_text_extractor_v6_ray.stages.sketches import (
        grouped_approx_distinct, grouped_approx_quantiles, heavy_hitters)

    small = pd.DataFrame({"k": ["a", "b", "a", "c", "a"],
                          "v": [1.0, 2.0, 3.0, 4.0, 5.0]})
    sparse = ray.data.from_pandas(small).repartition(10)  # empty blocks
    hh = heavy_hitters(sparse, "k", top=2)
    assert hh["k"].tolist() == ["a", "b"] or hh["k"].tolist() == ["a", "c"]
    assert hh["approx_count"].iloc[0] == 3
    ad = grouped_approx_distinct(sparse, "k", "v").to_pandas()
    assert len(ad) == 3
    aq = grouped_approx_quantiles(sparse, "k", "v", [0.5]).to_pandas()
    assert len(aq) == 3

    ev = pd.DataFrame({
        "ts": pd.to_datetime(["2024-01-01 00:00:10", None,
                              "2024-01-01 00:20:00"]),
        "value": [1.0, 2.0, 4.0],
    })
    got = (hopping_window_agg(ray.data.from_pandas(ev), "ts",
                              window_s=1800, slide_s=900,
                              value_col="value")
           .to_pandas())
    # the null-ts row contributes nothing; 2 events x 2 windows each
    assert got["n"].sum() == 4
    assert got["sum_v"].sum() == 2 * (1.0 + 4.0)
