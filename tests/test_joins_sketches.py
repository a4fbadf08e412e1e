"""Partitioned hash join, as-of join, HLL sketch."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest


def test_bucket_hash_join_matches_pandas(ray_session):
    import ray.data
    from full_text_extractor_v6_ray.stages.joins import bucket_hash_join

    rng = np.random.RandomState(3)
    left = pd.DataFrame({"k": rng.randint(0, 50, 300),
                         "lv": np.arange(300)})
    right = pd.DataFrame({"rk": np.arange(50), "rv": np.arange(50) * 10})
    got = bucket_hash_join(ray.data.from_pandas(left),
                           ray.data.from_pandas(right),
                           "k", "rk", num_buckets=8).to_pandas()
    exp = left.merge(right, left_on="k", right_on="rk").drop(columns=["rk"])
    key = ["k", "lv", "rv"]
    got = got[key].sort_values(key).reset_index(drop=True)
    exp = exp[key].sort_values(key).reset_index(drop=True)
    pd.testing.assert_frame_equal(got.astype("int64"), exp.astype("int64"))


def test_asof_join_matches_merge_asof(ray_session):
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

    got = asof_join(ray.data.from_pandas(left), ray.data.from_pandas(right),
                    "k", "rk", "lts", "rts", num_buckets=4).to_pandas()

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
    import subprocess
    import sys

    import pyarrow as pa

    from full_text_extractor_v6_ray.stages.dedup import _stable_bucket

    vals = ["https://a.example/x", "https://b.example/y", "k" * 500, ""]
    here = _stable_bucket(pa.chunked_array([pa.array(vals)]), 1024).to_pylist()
    code = (
        "import pyarrow as pa\n"
        "from full_text_extractor_v6_ray.stages.dedup import _stable_bucket\n"
        f"vals = {vals!r}\n"
        "print(_stable_bucket(pa.chunked_array([pa.array(vals)]), 1024)"
        ".to_pylist())\n"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, cwd="/root/repo").stdout
    assert eval(out.strip()) == here


def test_keyed_keep_one_matches_pandas_oracle(ray_session):
    """Random keyed frame: keyed_keep_one == pandas sort+drop_duplicates,
    at any bucket count and with/without the local combine."""
    import numpy as np
    import pandas as pd
    import ray.data

    from full_text_extractor_v6_ray.stages.dedup import keyed_keep_one

    rng = np.random.RandomState(5)
    n = 3000
    df = pd.DataFrame({
        "k": rng.randint(0, 200, n).astype(str),
        "ts": rng.randint(0, 1000, n),
        "v": rng.standard_normal(n).round(6),
    })
    expect = (df.sort_values(["k", "ts", "v"], kind="mergesort")
              .drop_duplicates("k").sort_values("k").reset_index(drop=True))

    for buckets, combine in ((7, True), (64, False)):
        got = keyed_keep_one(
            ray.data.from_pandas(df), "k",
            [("ts", "ascending"), ("v", "ascending")],
            local_combine=combine, num_buckets=buckets,
        ).to_pandas().sort_values("k").reset_index(drop=True)
        pd.testing.assert_frame_equal(got, expect)


def test_hash_bucketed_distinct_matches_pandas(ray_session):
    import numpy as np
    import pandas as pd
    import ray.data

    from full_text_extractor_v6_ray.stages.dedup import hash_bucketed_distinct

    rng = np.random.RandomState(9)
    df = pd.DataFrame({"a": rng.randint(0, 40, 2000),
                       "b": rng.randint(0, 40, 2000)})
    got = (hash_bucketed_distinct(ray.data.from_pandas(df), ["a", "b"],
                                  num_buckets=16)
           .to_pandas().sort_values(["a", "b"]).reset_index(drop=True))
    expect = (df.drop_duplicates(["a", "b"]).sort_values(["a", "b"])
              .reset_index(drop=True))
    pd.testing.assert_frame_equal(got, expect)


def test_range_join_matches_pandas(ray_session):
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

    got = range_join(ray.data.from_pandas(left),
                     ray.data.from_pandas(right),
                     "k", "rk", "ts", "start", "end",
                     num_buckets=8).to_pandas()
    exp = left.merge(right, left_on="k", right_on="rk")
    exp = exp.loc[(exp["ts"] >= exp["start"]) & (exp["ts"] < exp["end"])]
    exp = exp.drop(columns=["rk"])

    key = ["lv", "rv"]
    got = got.sort_values(key).reset_index(drop=True)
    exp = exp.sort_values(key).reset_index(drop=True)[got.columns]
    pd.testing.assert_frame_equal(got, exp, check_dtype=False)
    assert len(got) > 0


def test_skew_hash_join_matches_pandas(ray_session):
    import ray.data
    from full_text_extractor_v6_ray.stages.joins import skew_hash_join

    rng = np.random.RandomState(11)
    # one pathologically hot key (0) plus a cold tail
    hot = np.zeros(2_000, dtype=np.int64)
    cold = rng.randint(1, 200, 1_000)
    keys = np.concatenate([hot, cold])
    rng.shuffle(keys)
    left = pd.DataFrame({"k": keys, "lv": np.arange(keys.size)})
    right = pd.DataFrame({"rk": np.arange(200), "rv": np.arange(200) * 7})

    got = skew_hash_join(ray.data.from_pandas(left),
                         ray.data.from_pandas(right),
                         "k", "rk", num_buckets=8,
                         sample_frac=0.2, hot_min_samples=8).to_pandas()
    exp = left.merge(right, left_on="k", right_on="rk").drop(columns=["rk"])
    key = ["k", "lv", "rv"]
    got = got[key].sort_values(key).reset_index(drop=True)
    exp = exp[key].sort_values(key).reset_index(drop=True)
    pd.testing.assert_frame_equal(got.astype("int64"), exp.astype("int64"))


def test_skew_hash_join_no_hot_keys_falls_back(ray_session):
    import ray.data
    from full_text_extractor_v6_ray.stages.joins import skew_hash_join

    left = pd.DataFrame({"k": np.arange(100), "lv": np.arange(100)})
    right = pd.DataFrame({"rk": np.arange(100), "rv": np.arange(100) * 2})
    got = skew_hash_join(ray.data.from_pandas(left),
                         ray.data.from_pandas(right),
                         "k", "rk", num_buckets=4,
                         sample_frac=0.3, hot_min_samples=5).to_pandas()
    assert len(got) == 100
    assert sorted(got.columns) == ["k", "lv", "rv"]


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


def test_bloom_hash_join_matches_pandas(ray_session):
    import ray.data
    from full_text_extractor_v6_ray.stages.joins import bloom_hash_join

    rng = np.random.RandomState(13)
    left = pd.DataFrame({"k": rng.randint(0, 500, 3_000).astype(np.int64),
                         "lv": np.arange(3_000)})
    # selective build side: only 40 of 500 key values survive
    right = pd.DataFrame({"rk": np.arange(0, 500, 13).astype(np.int64),
                          "rv": np.arange(0, 500, 13) * 3})
    got = bloom_hash_join(ray.data.from_pandas(left),
                          ray.data.from_pandas(right),
                          "k", "rk", n_bits=1 << 12,
                          num_buckets=4).to_pandas()
    exp = left.merge(right, left_on="k", right_on="rk").drop(columns=["rk"])
    key = ["k", "lv", "rv"]
    got = got[key].sort_values(key).reset_index(drop=True)
    exp = exp[key].sort_values(key).reset_index(drop=True)
    pd.testing.assert_frame_equal(got.astype("int64"), exp.astype("int64"))


def test_bucket_anti_join_matches_duckdb(ray_session):
    """Payload-preserving ANTI join == DuckDB NOT IN, including dtypes
    and an empty-result bucket."""
    import duckdb
    import numpy as np
    import pandas as pd
    import ray.data
    from full_text_extractor_v6_ray.stages.joins import bucket_anti_join

    rng = np.random.RandomState(7)
    left = pd.DataFrame({
        "k": rng.randint(0, 200, 500).astype(np.int64),
        "payload": [f"row-{i}" for i in range(500)],
        "v": rng.rand(500),
    })
    right = pd.DataFrame({"rk": np.repeat(
        rng.choice(200, 60, replace=False).astype(np.int64), 3)})

    got = (bucket_anti_join(ray.data.from_pandas(left),
                            ray.data.from_pandas(right), "k", "rk",
                            num_buckets=8)
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
