"""PageRank: dense numpy power-iteration oracle on a planted graph."""

import numpy as np
import pandas as pd
import pyarrow as pa


def _numpy_pagerank(nodes, edges, d=0.85, n_iter=10):
    idx = {n: i for i, n in enumerate(nodes)}
    N = len(nodes)
    out = np.zeros(N)
    for s, _ in edges:
        out[idx[s]] += 1
    r = np.full(N, 1.0 / N)
    for _ in range(n_iter):
        dang = r[out == 0].sum()
        new = np.full(N, (1 - d) / N + d * dang / N)
        for s, t in edges:
            new[idx[t]] += d * r[idx[s]] / out[idx[s]]
        r = new
    return {n: r[idx[n]] for n in nodes}


def test_pagerank_matches_numpy_oracle(ray_session, bucket_count):
    import ray.data
    from full_text_extractor_v6_ray.stages.pagerank import pagerank

    edges = [("a", "b"), ("a", "c"), ("b", "c"), ("c", "a"), ("c", "d")]
    nodes = ["a", "b", "c", "d"]          # d is a dangling sink
    tbl = pa.table({"src": pa.array([e[0] for e in edges]),
                    "dst": pa.array([e[1] for e in edges])})
    bucket_count(4)
    got = pagerank(ray.data.from_arrow(tbl), n_iter=10).to_pandas()
    expect = _numpy_pagerank(nodes, edges, n_iter=10)
    assert sorted(got["node"]) == nodes
    for _, row in got.iterrows():
        assert abs(row["rank"] - expect[row["node"]]) < 1e-9, row["node"]
    assert abs(got["rank"].sum() - 1.0) < 1e-9   # mass conserved


def test_pagerank_deterministic_and_ranks_authority(ray_session, bucket_count):
    import ray.data
    from full_text_extractor_v6_ray.stages.pagerank import pagerank

    # star: everyone links to 'hub'
    spokes = [f"s{i}" for i in range(20)]
    tbl = pa.table({"src": pa.array(spokes),
                    "dst": pa.array(["hub"] * 20)})
    ds = ray.data.from_arrow(tbl)
    bucket_count(4)
    r1 = pagerank(ds, n_iter=6).to_pandas().sort_values("node")
    r2 = pagerank(ds, n_iter=6).to_pandas().sort_values("node")
    assert np.array_equal(r1["rank"].to_numpy(), r2["rank"].to_numpy())
    hub = float(r1.loc[r1["node"] == "hub", "rank"].iloc[0])
    assert hub > r1.loc[r1["node"] != "hub", "rank"].max() * 5


def test_pagerank_empty_edges(ray_session, bucket_count):
    import ray.data
    from full_text_extractor_v6_ray.stages.pagerank import pagerank

    tbl = pa.table({"src": pa.array([], pa.string()),
                    "dst": pa.array([], pa.string())})
    bucket_count(4)
    out = pagerank(ray.data.from_arrow(tbl), n_iter=3).to_pandas()
    assert len(out) == 0
