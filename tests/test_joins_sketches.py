"""Partitioned hash join, as-of join, HLL sketch."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest


def test_bucket_hash_join_matches_pandas(ray_session, bucket_count):
    import ray.data
    from full_text_extractor_v6_ray.stages.joins import hash_join

    rng = np.random.RandomState(3)
    left = pd.DataFrame({"k": rng.randint(0, 50, 300),
                         "lv": np.arange(300)})
    right = pd.DataFrame({"rk": np.arange(50), "rv": np.arange(50) * 10})
    bucket_count(8)
    got = hash_join(ray.data.from_pandas(left),
                    ray.data.from_pandas(right),
                    "k", "rk").to_pandas()
    exp = left.merge(right, left_on="k", right_on="rk").drop(columns=["rk"])
    key = ["k", "lv", "rv"]
    got = got[key].sort_values(key).reset_index(drop=True)
    exp = exp[key].sort_values(key).reset_index(drop=True)
    pd.testing.assert_frame_equal(got.astype("int64"), exp.astype("int64"))


def test_asof_join_matches_merge_asof(ray_session, bucket_count):
    import ray.data
    from full_text_extractor_v6_ray.stages.joins import asof_join

    rng = np.random.RandomState(5)
    left = pd.DataFrame({
        "k": rng.randint(0, 10, 200),
        "lts": pd.to_datetime("2025-01-01")
               + pd.to_timedelta(rng.randint(0, 10_000, 200), unit="m"),
        "lv": np.arange(200),
    })
    right = pd.DataFrame({
        "rk": rng.randint(0, 10, 80),
        "rts": pd.to_datetime("2025-01-01")
               + pd.to_timedelta(rng.randint(0, 10_000, 80), unit="m"),
        "rv": np.arange(80) * 3,
    })
    # dedupe right per (rk, rts) so the as-of match is unambiguous
    right = (right.sort_values("rv").groupby(["rk", "rts"], as_index=False)
             .last())

    bucket_count(4)
    got = asof_join(ray.data.from_pandas(left), ray.data.from_pandas(right),
                    "k", "rk", "lts", "rts").to_pandas()

    exp = pd.merge_asof(left.sort_values(["lts", "k"], kind="mergesort"),
                        right.sort_values(["rts", "rk"], kind="mergesort"),
                        left_on="lts", right_on="rts",
                        left_by="k", right_by="rk",
                        direction="backward").drop(columns=["rts"])
    key = ["k", "lts", "lv"]
    got = got.sort_values(key).reset_index(drop=True)
    exp = exp.sort_values(key).reset_index(drop=True)
    assert list(got["lv"]) == list(exp["lv"])
    pd.testing.assert_series_equal(
        got["rv"].astype("float64"), exp["rv"].astype("float64"),
        check_names=False)


def test_hll_accuracy(ray_session):
    import ray.data
    from full_text_extractor_v6_ray.stages.sketches import approx_distinct

    n_distinct = 5000
    vals = np.arange(n_distinct).repeat(3)
    ds = ray.data.from_pandas(pd.DataFrame({"v": vals}))
    est = approx_distinct(ds, "v")
    assert abs(est - n_distinct) / n_distinct < 0.05


def test_hll_merge_order_invariant():
    from full_text_extractor_v6_ray.stages.sketches import (
        hll_estimate,
        hll_merge,
        hll_partial,
    )

    a = hll_partial(list(range(0, 1000)))
    b = hll_partial(list(range(500, 1500)))
    ab = hll_estimate(hll_merge([a, b]))
    ba = hll_estimate(hll_merge([b, a]))
    assert ab == ba
    assert abs(ab - 1500) / 1500 < 0.08


def test_stable_bucket_cross_process_determinism():
    """The bucketed join/dedup correctness contract: equal keys must land
    in equal buckets in EVERY process (both join sides hash separately).
    Verified against a fresh subprocess."""
    import os
    import subprocess
    import sys

    import pyarrow as pa

    from full_text_extractor_v6_ray.stages.exchange import bucket_ids

    # the subprocess imports the package from this checkout
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

    vals = ["https://a.example/x", "https://b.example/y", "k" * 500, ""]
    here = bucket_ids(pa.table({"k": vals}), ["k"], 1024).to_pylist()
    code = (
        "import pyarrow as pa\n"
        "from full_text_extractor_v6_ray.stages.exchange import bucket_ids\n"
        f"vals = {vals!r}\n"
        "print(bucket_ids(pa.table({'k': vals}), ['k'], 1024)"
        ".to_pylist())\n"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, cwd=root).stdout
    assert eval(out.strip()) == here


def test_keyed_keep_one_matches_pandas_oracle(ray_session, bucket_count):
    """Random keyed frame: keyed_keep_one == pandas sort+drop_duplicates,
    at any bucket count and with/without the local combine; hash_join
    and grouped_row_number over the same frame match pandas at both
    bucket counts too."""
    import numpy as np
    import pandas as pd
    import ray.data

    from full_text_extractor_v6_ray.stages.dedup import keyed_keep_one
    from full_text_extractor_v6_ray.stages.joins import hash_join
    from full_text_extractor_v6_ray.stages.window import grouped_row_number

    rng = np.random.RandomState(5)
    n = 3000
    df = pd.DataFrame({
        "k": rng.randint(0, 200, n).astype(str),
        "ts": rng.randint(0, 1000, n),
        "v": rng.standard_normal(n).round(6),
    })
    expect = (df.sort_values(["k", "ts", "v"], kind="mergesort")
              .drop_duplicates("k").sort_values("k").reset_index(drop=True))
    right = pd.DataFrame({"rk": [str(i) for i in range(0, 200, 3)],
                          "rv": np.arange(0, 200, 3)})
    order = ["k", "ts", "v"]
    join_expect = (df.merge(right, left_on="k", right_on="rk")
                   .drop(columns=["rk"]).sort_values(order)
                   .reset_index(drop=True))
    rn_expect = df.sort_values(order, kind="mergesort")
    rn_expect = (rn_expect.assign(rn=rn_expect.groupby("k").cumcount() + 1)
                 .sort_values(order).reset_index(drop=True))

    for buckets, combine in ((7, True), (64, False)):
        bucket_count(buckets)
        got = keyed_keep_one(
            ray.data.from_pandas(df), "k",
            [("ts", "ascending"), ("v", "ascending")],
            local_combine=combine,
        ).to_pandas().sort_values("k").reset_index(drop=True)
        pd.testing.assert_frame_equal(got, expect)
        joined = (hash_join(ray.data.from_pandas(df),
                            ray.data.from_pandas(right), "k", "rk")
                  .to_pandas().sort_values(order).reset_index(drop=True))
        pd.testing.assert_frame_equal(joined, join_expect)
        numbered = (grouped_row_number(ray.data.from_pandas(df), "k",
                                       ["ts", "v"], out_col="rn")
                    .to_pandas().sort_values(order).reset_index(drop=True))
        pd.testing.assert_frame_equal(numbered, rn_expect)


def test_hash_bucketed_distinct_matches_pandas(ray_session, bucket_count):
    import numpy as np
    import pandas as pd
    import ray.data

    from full_text_extractor_v6_ray.stages.dedup import hash_bucketed_distinct

    rng = np.random.RandomState(9)
    df = pd.DataFrame({"a": rng.randint(0, 40, 2000),
                       "b": rng.randint(0, 40, 2000)})
    bucket_count(16)
    got = (hash_bucketed_distinct(ray.data.from_pandas(df), ["a", "b"])
           .to_pandas().sort_values(["a", "b"]).reset_index(drop=True))
    expect = (df.drop_duplicates(["a", "b"]).sort_values(["a", "b"])
              .reset_index(drop=True))
    pd.testing.assert_frame_equal(got, expect)


def test_range_join_matches_pandas(ray_session, bucket_count):
    """Random intervals: range_join == pandas merge + interval filter."""
    import numpy as np
    import pandas as pd
    import ray.data

    from full_text_extractor_v6_ray.stages.joins import range_join

    rng = np.random.RandomState(3)
    left = pd.DataFrame({
        "k": rng.randint(0, 30, 500),
        "ts": pd.to_datetime("2024-01-01")
              + pd.to_timedelta(rng.randint(0, 10_000, 500), unit="m"),
        "lv": np.arange(500),
    })
    right = pd.DataFrame({
        "rk": rng.randint(0, 30, 100),
        "start": pd.to_datetime("2024-01-01")
                 + pd.to_timedelta(rng.randint(0, 9_000, 100), unit="m"),
        "rv": np.arange(100),
    })
    right["end"] = right["start"] + pd.to_timedelta(
        rng.randint(10, 2_000, 100), unit="m")

    bucket_count(8)
    got = range_join(ray.data.from_pandas(left),
                     ray.data.from_pandas(right),
                     "k", "rk", "ts", "start", "end").to_pandas()
    exp = left.merge(right, left_on="k", right_on="rk")
    exp = exp.loc[(exp["ts"] >= exp["start"]) & (exp["ts"] < exp["end"])]
    exp = exp.drop(columns=["rk"])

    key = ["lv", "rv"]
    got = got.sort_values(key).reset_index(drop=True)
    exp = exp.sort_values(key).reset_index(drop=True)[got.columns]
    pd.testing.assert_frame_equal(got, exp, check_dtype=False)
    assert len(got) > 0


def test_skew_hash_join_matches_pandas(ray_session, bucket_count):
    import ray.data
    from full_text_extractor_v6_ray.stages.joins import skew_hash_join

    rng = np.random.RandomState(11)
    # one pathologically hot key (0) plus a cold tail
    hot = np.zeros(2_000, dtype=np.int64)
    cold = rng.randint(1, 200, 1_000)
    keys = np.concatenate([hot, cold])
    rng.shuffle(keys)
    bucket_count(8)
    # int64 keys, then string keys that do not parse as numbers
    for typed in (pa.array, lambda a: pa.array([f"u{v}" for v in a])):
        left = pa.table({"k": typed(keys), "lv": np.arange(keys.size)})
        right = pa.table({"rk": typed(np.arange(200)),
                          "rv": np.arange(200) * 7})
        got = skew_hash_join(ray.data.from_arrow(left),
                             ray.data.from_arrow(right),
                             "k", "rk",
                             sample_frac=0.2, hot_min_samples=8).to_pandas()
        exp = left.to_pandas().merge(right.to_pandas(), left_on="k",
                                     right_on="rk").drop(columns=["rk"])
        key = ["k", "lv", "rv"]
        got = got[key].sort_values(key).reset_index(drop=True)
        exp = exp[key].sort_values(key).reset_index(drop=True)
        pd.testing.assert_frame_equal(got, exp, check_dtype=False)


def test_skew_hash_join_no_hot_keys_falls_back(ray_session, bucket_count):
    import ray.data
    from full_text_extractor_v6_ray.stages.joins import skew_hash_join

    left = pd.DataFrame({"k": np.arange(100), "lv": np.arange(100)})
    right = pd.DataFrame({"rk": np.arange(100), "rv": np.arange(100) * 2})
    bucket_count(4)
    got = skew_hash_join(ray.data.from_pandas(left),
                         ray.data.from_pandas(right),
                         "k", "rk",
                         sample_frac=0.3, hot_min_samples=5).to_pandas()
    assert len(got) == 100
    assert sorted(got.columns) == ["k", "lv", "rv"]


def test_skew_hash_join_hot_key_without_match(ray_session, bucket_count):
    """A hot left key that no right row has: the hot stream is skipped
    (the join is inner) and the cold join alone gives pandas' rows."""
    import ray.data
    from full_text_extractor_v6_ray.stages.joins import skew_hash_join

    keys = np.concatenate([np.zeros(500, np.int64), np.arange(1, 100)])
    left = pa.table({"k": keys, "lv": np.arange(keys.size)})
    right = pa.table({"rk": np.arange(1, 200), "rv": np.arange(1, 200) * 7})
    bucket_count(4)
    got = skew_hash_join(ray.data.from_arrow(left), ray.data.from_arrow(right),
                         "k", "rk", sample_frac=0.5,
                         hot_min_samples=8).to_pandas()
    exp = left.to_pandas().merge(right.to_pandas(), left_on="k",
                                 right_on="rk").drop(columns=["rk"])
    key = ["k", "lv", "rv"]
    pd.testing.assert_frame_equal(
        got[key].sort_values(key).reset_index(drop=True),
        exp[key].sort_values(key).reset_index(drop=True), check_dtype=False)


def test_bloom_filter_no_false_negatives_and_low_fp():
    from full_text_extractor_v6_ray.stages.joins import BloomFilter

    rng = np.random.RandomState(7)
    members = rng.randint(-2**62, 2**62, 5_000).astype(np.int64)
    bf = BloomFilter(1 << 16)
    bf.add(members)
    assert bf.might_contain(members).all()

    probe = rng.randint(-2**62, 2**62, 20_000).astype(np.int64)
    probe = probe[~np.isin(probe, members)]
    fp = bf.might_contain(probe).mean()
    assert fp < 0.05  # 64Kb / 5k keys ~ 13 bits/key -> well under 5%


def test_bloom_filter_merge_is_union():
    from full_text_extractor_v6_ray.stages.joins import BloomFilter

    a, b = BloomFilter(1 << 12), BloomFilter(1 << 12)
    a.add(np.arange(0, 50, dtype=np.int64))
    b.add(np.arange(50, 100, dtype=np.int64))
    a.merge(b)
    assert a.might_contain(np.arange(100, dtype=np.int64)).all()


def test_bloom_hash_join_matches_pandas(ray_session, bucket_count):
    import ray.data
    from full_text_extractor_v6_ray.stages.joins import bloom_hash_join

    rng = np.random.RandomState(13)
    left = pd.DataFrame({"k": rng.randint(0, 500, 3_000).astype(np.int64),
                         "lv": np.arange(3_000)})
    # selective build side: only 40 of 500 key values survive
    right = pd.DataFrame({"rk": np.arange(0, 500, 13).astype(np.int64),
                          "rv": np.arange(0, 500, 13) * 3})
    bucket_count(4)
    got = bloom_hash_join(ray.data.from_pandas(left),
                          ray.data.from_pandas(right),
                          "k", "rk", n_bits=1 << 12).to_pandas()
    exp = left.merge(right, left_on="k", right_on="rk").drop(columns=["rk"])
    key = ["k", "lv", "rv"]
    got = got[key].sort_values(key).reset_index(drop=True)
    exp = exp[key].sort_values(key).reset_index(drop=True)
    pd.testing.assert_frame_equal(got.astype("int64"), exp.astype("int64"))


def test_bucket_anti_join_matches_duckdb(ray_session, bucket_count):
    """Payload-preserving ANTI join == DuckDB NOT IN, including dtypes
    and an empty-result bucket."""
    import duckdb
    import numpy as np
    import pandas as pd
    import ray.data
    from full_text_extractor_v6_ray.stages.joins import hash_join

    rng = np.random.RandomState(7)
    left = pd.DataFrame({
        "k": rng.randint(0, 200, 500).astype(np.int64),
        "payload": [f"row-{i}" for i in range(500)],
        "v": rng.rand(500),
    })
    right = pd.DataFrame({"rk": np.repeat(
        rng.choice(200, 60, replace=False).astype(np.int64), 3)})

    bucket_count(8)
    got = (hash_join(ray.data.from_pandas(left),
                     ray.data.from_pandas(right), "k", "rk", how="anti")
           .to_pandas().sort_values("payload").reset_index(drop=True))
    con = duckdb.connect()
    con.register("l", left)
    con.register("r", right)
    exp = con.execute("""
        SELECT * FROM l WHERE k NOT IN (SELECT rk FROM r)
        ORDER BY payload
    """).df().reset_index(drop=True)
    pd.testing.assert_frame_equal(got[["k", "payload", "v"]], exp,
                                  check_dtype=False)
    assert str(got["k"].dtype) == "int64"


_BIG = 2 ** 53
_SQL_JOINS = {
    "inner": "SELECT k, lv, rv FROM l JOIN r ON k = rk",
    "left": "SELECT k, lv, rv FROM l LEFT JOIN r ON k = rk",
    "outer": "SELECT COALESCE(k, rk) AS k, lv, rv FROM l FULL JOIN r "
             "ON k = rk",
    "semi": "SELECT k, lv FROM l WHERE EXISTS "
            "(SELECT 1 FROM r WHERE rk = k)",
    "anti": "SELECT k, lv FROM l WHERE NOT EXISTS "
            "(SELECT 1 FROM r WHERE rk = k)",
}


@pytest.mark.parametrize("key_type", [pa.int64(), pa.string()])
@pytest.mark.parametrize("how", list(_SQL_JOINS))
def test_hash_join_matches_duckdb_exactly(ray_session, how, key_type,
                                          bucket_count):
    """Every join type == DuckDB row for row: int64 payloads above 2^53
    on both sides survive exactly (a float64 round trip turns 2^53+1
    into 2^53), null keys match nothing, a left row with a null key is
    kept by the anti join (NOT EXISTS) and by left/outer joins, and a
    right key with two rows yields two inner rows but one semi row.
    ``broadcast_join`` (every type but outer) gives the same rows, in
    left order with each left row's matches in right order."""
    import duckdb
    import ray.data
    from full_text_extractor_v6_ray.stages.joins import (broadcast_join,
                                                         hash_join)

    def keys(vals):
        return pa.array([None if v is None else v for v in vals],
                        pa.int64()).cast(key_type)

    left = pa.table({"k": keys([1, 2, None, 3, None, 5]),
                     "lv": pa.array([_BIG + 1, _BIG + 3, _BIG + 5,
                                     -_BIG - 7, _BIG + 9, _BIG + 11])})
    right = pa.table({"rk": keys([1, None, 4, 2, None, 2]),
                      "rv": pa.array([_BIG + 13, _BIG + 15, -_BIG - 17,
                                      _BIG + 19, _BIG + 21, _BIG + 23])})
    bucket_count(4)
    got = hash_join(ray.data.from_arrow(left), ray.data.from_arrow(right),
                    "k", "rk", how=how)
    con = duckdb.connect()
    con.register("l", left)
    con.register("r", right)
    exp = con.execute(_SQL_JOINS[how]).arrow()

    def rows(records):
        return sorted((tuple(r.values()) for r in records),
                      key=lambda t: [(v is None, v) for v in t])

    assert rows(got.take_all()) == rows(exp.to_pylist())
    assert got.schema().names == exp.column_names

    if how == "outer":
        return
    mapped = broadcast_join(ray.data.from_arrow(left), right, "k", "rk",
                            how=how)
    in_order = []
    for lrow in left.to_pylist():
        rvs = [r["rv"] for r in right.to_pylist()
               if lrow["k"] is not None and r["rk"] == lrow["k"]]
        if how in ("semi", "anti"):
            keep = bool(rvs) == (how == "semi")
            in_order += [(lrow["k"], lrow["lv"])] * keep
        else:
            in_order += [(lrow["k"], lrow["lv"], v) for v in (
                rvs or ([None] if how == "left" else []))]
    records = mapped.take_all()
    assert [tuple(r.values()) for r in records] == in_order
    assert rows(records) == rows(exp.to_pylist())
    assert mapped.schema().names == exp.column_names


def test_hash_join_of_shuffled_sides_is_one_execution(ray_session,
                                                      count_executions):
    """Shuffle-derived inputs, no schema given anywhere: consuming the
    join is ONE Ray execution (no schema probe re-runs an upstream
    shuffle)."""
    import ray.data
    from full_text_extractor_v6_ray.stages.dedup import keyed_keep_one
    from full_text_extractor_v6_ray.stages.joins import hash_join

    left = keyed_keep_one(ray.data.from_items(
        [{"k": f"u{i % 40}", "v": i} for i in range(120)]), "k",
        [("v", "descending")])
    right = keyed_keep_one(ray.data.from_items(
        [{"rk": f"u{i}", "w": i} for i in range(0, 40, 3)]), "rk",
        [("w", "ascending")])
    count_executions.clear()
    out = hash_join(left, right, "k", "rk")
    got = sorted((r["k"], r["v"], r["w"]) for r in out.take_all())
    assert got == sorted((f"u{i}", 80 + i, i) for i in range(0, 40, 3))
    assert len(count_executions) == 1, count_executions


def _duckdb_rows(left: pa.Table, right: pa.Table, how: str) -> pa.Table:
    import duckdb

    con = duckdb.connect()
    con.register("l", left)
    con.register("r", right)
    return con.execute(_SQL_JOINS[how]).arrow()


def _rows(records):
    return sorted((tuple(r.values()) for r in records),
                  key=lambda t: [(v is None, v) for v in t])


@pytest.mark.parametrize("ltype,rtype", [(pa.int32(), pa.int64()),
                                         (pa.string(), pa.large_string())])
@pytest.mark.parametrize("how", list(_SQL_JOINS))
def test_hash_join_across_key_widths_matches_duckdb(ray_session, how, ltype,
                                                    rtype, bucket_count):
    """Keys of one hash family but different types (int32 against int64,
    string against large_string) meet in the same bucket: every join
    type == DuckDB row for row, the key typed as on the left."""
    import ray.data
    from full_text_extractor_v6_ray.stages.joins import hash_join

    def keys(vals, typ):
        return pa.array(vals, pa.int64()).cast(typ)

    left = pa.table({"k": keys([1, 2, None, 3, 2 ** 30], ltype),
                     "lv": pa.array([_BIG + 1, _BIG + 3, 5, 7, 9])})
    right = pa.table({"rk": keys([1, None, 4, 2, 2 ** 30, 2], rtype),
                      "rv": pa.array([11, 13, 15, _BIG + 17, 19, 21])})
    bucket_count(4)
    got = hash_join(ray.data.from_arrow(left), ray.data.from_arrow(right),
                    "k", "rk", how=how)
    exp = _duckdb_rows(left, right, how)
    assert _rows(got.take_all()) == _rows(exp.to_pylist())
    assert got.schema().base_schema.field("k").type == ltype


@pytest.mark.parametrize("empty", ["left", "right"])
@pytest.mark.parametrize("how", list(_SQL_JOINS))
def test_hash_join_with_one_side_empty_matches_duckdb(ray_session, how,
                                                      empty, bucket_count):
    """One side has no rows but a schema its plan knows (a materialized
    empty table): every join type == DuckDB row for row, and the
    output has the full column set (a left join pads the right columns
    with typed nulls)."""
    import ray.data
    from full_text_extractor_v6_ray.stages.joins import hash_join

    left = pa.table({"k": pa.array([1, 2, None], pa.int64()),
                     "lv": pa.array([_BIG + 1, _BIG + 3, 5])})
    right = pa.table({"rk": pa.array([1, None, 4], pa.int64()),
                      "rv": pa.array([_BIG + 13, 15, -_BIG - 17])})
    if empty == "left":
        left = left.slice(0, 0)
    else:
        right = right.slice(0, 0)
    bucket_count(4)
    got = hash_join(ray.data.from_arrow(left).materialize(),
                    ray.data.from_arrow(right).materialize(),
                    "k", "rk", how=how)
    exp = _duckdb_rows(left, right, how)
    assert _rows(got.take_all()) == _rows(exp.to_pylist())
    if exp.num_rows:
        assert got.schema().names == exp.column_names
        assert got.schema().base_schema.types == exp.schema.types


def test_hash_join_with_a_rowless_lazy_side(ray_session, bucket_count):
    """A side with no rows whose plan does not know its schema (a
    ``map_batches`` that yields nothing): a left join keeps the left
    rows with the left columns only, an outer join with no left rows
    gives the right rows with the key in the left key column, and an
    anti join keeps every left row."""
    import ray.data
    from full_text_extractor_v6_ray.stages.joins import hash_join

    def none(ds):
        return ds.map_batches(lambda b: b.slice(0, 0),
                              batch_format="pyarrow")

    left = pa.table({"k": pa.array([1, 2, None], pa.int64()),
                     "lv": pa.array([10, 20, 30])})
    right = pa.table({"rk": pa.array([1, 4], pa.int64()),
                      "rv": pa.array([7, 8])})
    bucket_count(4)
    lds, rds = ray.data.from_arrow(left), ray.data.from_arrow(right)
    got = hash_join(lds, none(rds), "k", "rk", how="left")
    assert _rows(got.take_all()) == _rows(left.to_pylist())
    assert got.schema().names == ["k", "lv"]
    got = hash_join(lds, none(rds), "k", "rk", how="anti")
    assert _rows(got.take_all()) == _rows(left.to_pylist())
    got = hash_join(none(lds), rds, "k", "rk", how="outer")
    assert _rows(got.take_all()) == [(1, 7), (4, 8)]
    assert got.schema().names == ["k", "rv"]
    assert hash_join(none(lds), rds, "k", "rk").take_all() == []


def test_asof_join_with_a_rowless_lazy_side(ray_session, bucket_count):
    """A side with no rows and no schema in its plan reaches the as-of
    kernel as its key column alone: no left rows give no rows, no right
    rows keep every left row (its columns only)."""
    import ray.data
    from full_text_extractor_v6_ray.stages.joins import asof_join

    left = pa.table({"k": pa.array([1, 2], pa.int64()),
                     "lts": pa.array([5, 6], pa.int64()),
                     "lv": pa.array([7, 8], pa.int64())})
    right = pa.table({"rk": pa.array([1], pa.int64()),
                      "rts": pa.array([4], pa.int64()),
                      "rv": pa.array([9], pa.int64())})
    bucket_count(4)
    def none(t: pa.Table):
        return ray.data.from_arrow(t).map_batches(lambda b: b.slice(0, 0),
                                                  batch_format="pyarrow")

    got = asof_join(none(left), ray.data.from_arrow(right),
                    "k", "rk", "lts", "rts")
    assert got.take_all() == []
    got = asof_join(ray.data.from_arrow(left), none(right),
                    "k", "rk", "lts", "rts")
    assert _rows(got.take_all()) == _rows(left.to_pylist())


def test_hash_join_rejects_keys_that_hash_differently(ray_session,
                                                      bucket_count):
    """A float key against an int key could put equal keys in different
    buckets: the exchange raises, naming both columns, inside a Ray
    task."""
    import ray
    import ray.data
    from full_text_extractor_v6_ray.stages.joins import hash_join

    left = ray.data.from_arrow(pa.table({"k": pa.array([1.0, 2.0])}))
    right = ray.data.from_arrow(pa.table({"rk": pa.array([1, 2]),
                                          "w": pa.array([3, 4])}))
    bucket_count(4)
    with pytest.raises(ray.exceptions.RayTaskError,
                       match="'k' \\(double\\) and 'rk' \\(int64\\)"):
        hash_join(left, right, "k", "rk").take_all()


def test_column_clash_raises_where_documented(ray_session, bucket_count):
    """A name on both sides raises ``ValueError`` when the plan is built
    if both plans know their schema. A lazy side defers it into a Ray
    task: ``hash_join``'s first bucket raises a ``RayTaskError`` that is
    also a ``ValueError``; ``broadcast_join``'s first batch raises one
    wrapping Ray's ``UserCodeException``, which is not a
    ``ValueError``."""
    import ray
    import ray.data
    from full_text_extractor_v6_ray.stages.joins import (broadcast_join,
                                                         hash_join)

    left = pa.table({"k": pa.array([1, 2]), "v": pa.array([3, 4])})
    right = pa.table({"rk": pa.array([1, 2]), "v": pa.array([5, 6])})
    bucket_count(4)
    known = ray.data.from_arrow(left)
    lazy = known.map_batches(lambda b: b, batch_format="pyarrow")
    with pytest.raises(ValueError, match="columns on both sides"):
        hash_join(known, ray.data.from_arrow(right), "k", "rk")
    with pytest.raises(ValueError, match="columns on both sides"):
        broadcast_join(known, right, "k", "rk")
    with pytest.raises(ValueError, match="columns on both sides") as err:
        hash_join(lazy, ray.data.from_arrow(right), "k", "rk").take_all()
    assert isinstance(err.value, ray.exceptions.RayTaskError)
    with pytest.raises(ray.exceptions.RayTaskError,
                       match="columns on both sides") as err:
        broadcast_join(lazy, right, "k", "rk").take_all()
    assert not isinstance(err.value, ValueError)


@pytest.mark.parametrize("buckets", [None, 4, 1])
def test_sorted_key_index_matches_arrow_membership(monkeypatch, buckets):
    # positions == pc.index_in and contains == pc.is_in, also when
    # hash64 is forced to collide (4 distinct values, or one for all)
    import pyarrow.compute as pc

    import full_text_extractor_v6_ray.stages.hashing as hashing
    from full_text_extractor_v6_ray.stages.joins import SortedKeyIndex

    if buckets is not None:
        real = hashing.hash64
        monkeypatch.setattr(hashing, "hash64",
                            lambda v: real(v) % np.uint64(buckets))
    keys = pa.array([f"https://k{i}.ex/{i * 7}" for i in range(300)]
                    + ["", "a\x00b"], pa.string())
    probe = pa.chunked_array([
        pa.array([f"https://k{i}.ex/{i * 7}" for i in range(250, 350)]
                 + ["", "a", "a\x00b", None, "https://k3.ex/21"]),
        pa.array(["https://k3.ex/21", "https://k3.ex/2"])])
    index = SortedKeyIndex(pa.chunked_array([keys[:100], keys[100:]]))
    assert len(index) == len(keys)
    want = pc.index_in(probe, value_set=keys).to_numpy(zero_copy_only=False)
    got = index.positions(probe)
    np.testing.assert_array_equal(
        got, np.where(np.isnan(want.astype(float)), -1, want))
    assert index.contains(probe).equals(
        pc.is_in(probe, value_set=keys).combine_chunks())
    assert len(index.positions(pa.array([], pa.string()))) == 0
    empty = SortedKeyIndex(pa.array([], pa.string()))
    assert not empty.contains(probe).to_numpy(zero_copy_only=False).any()

    # matches == the (probe row, key row) pairs of an Arrow inner join,
    # a probe row's key rows ascending: int64 keys (beyond 2^53, negative,
    # null) and duplicate keys
    big = 2 ** 53
    ints = pa.array([big + 1, -5, None, 7, big + 1, 7, 0, big], pa.int64())
    int_probe = pa.array([7, big + 1, None, big, -5, 3, big + 2, 7])
    dups = pa.concat_arrays([keys[:50], keys[20:30], keys[25:35]])
    for k, p in ((ints, int_probe), (dups, probe)):
        rows, at = SortedKeyIndex(k).matches(p)
        j = pa.table({"v": p, "p": np.arange(len(p))}).join(
            pa.table({"v": k, "k": np.arange(len(k))}), "v",
            join_type="inner")
        assert sorted(zip(rows.tolist(), at.tolist())) == sorted(
            zip(j["p"].to_pylist(), j["k"].to_pylist()))
        for r in set(rows.tolist()):
            assert np.all(np.diff(at[rows == r]) > 0)
