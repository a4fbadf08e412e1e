"""Distributed PageRank over an edge-list Dataset.

The web-graph companion of the extraction pipeline: pages link to
pages (``links_flat`` emits one (url, href) row per hyperlink), and a
corpus-curation pipeline wants link-authority scores for quality
weighting / crawl prioritization.

Scale shape (the only viable one at 10^10 edges):

  - node/rank state is a DATASET, never a driver structure — each
    iteration is two bucketed shuffles (rank-to-edge join on src, then
    a dst groupby-sum of contributions) over slim rows;
  - static per-node out-degree is attached to the rank rows ONCE, so
    per-iteration work touches only (node, rank, outdeg) and the
    pre-joined edge list;
  - the two driver-side scalars PageRank genuinely needs — N and the
    per-iteration dangling-mass sum — are metadata-sized aggregates;
  - iterative lineage is cut per round with ``materialize_rebased``
    (the dup_components lesson: without the rebase, round t re-executes
    rounds 0..t-1 and block counts multiply).

Determinism: contribution sums ride through pandas groupby over
bucketed floats; ranks are rounded to 12 dp per iteration so repeated
runs converge to identical tables (same convention as kmeans_fit_ds).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

import ray.data

from . import exchange
from .dedup import hash_bucketed_distinct, materialize_rebased


def _distinct_nodes(edges: "ray.data.Dataset", src_col: str,
                    dst_col: str) -> "ray.data.Dataset":
    """(node,) distinct union of both edge endpoints — map-side local
    distinct, then ``hash_bucketed_distinct``."""

    def endpoints(batch: pa.Table) -> pa.Table:
        col = pa.concat_arrays([
            batch.column(src_col).combine_chunks().cast(pa.large_string()),
            batch.column(dst_col).combine_chunks().cast(pa.large_string()),
        ])
        return pa.table({"node": col.unique()})

    return hash_bucketed_distinct(
        edges.map_batches(endpoints, batch_format="pyarrow",
                          zero_copy_batch=True), ["node"])


def pagerank(edges: "ray.data.Dataset", src_col: str = "src",
             dst_col: str = "dst", damping: float = 0.85,
             n_iter: int = 10, spill_dir: str | None = None
             ) -> "ray.data.Dataset":
    """(node, rank) after ``n_iter`` damped power iterations.

    Handles dangling nodes (no out-links) by redistributing their mass
    uniformly — ranks sum to 1 every iteration (tested). Duplicate
    edges count once each (multigraph semantics, like repeated anchors
    on a page).
    """
    from .joins import hash_join

    blocks = exchange.bucket_count()

    def norm_edges(batch: pa.Table) -> pa.Table:
        return pa.table({
            "src": batch.column(src_col).cast(pa.large_string()),
            "dst": batch.column(dst_col).cast(pa.large_string()),
        })

    e = edges.map_batches(norm_edges, batch_format="pyarrow",
                          zero_copy_batch=True)
    e = materialize_rebased(e, num_blocks=blocks, spill_dir=spill_dir)

    nodes = _distinct_nodes(e, "src", "dst")

    def outdeg_partial(batch: pa.Table) -> pa.Table:
        src = batch.column("src")
        counts = src.value_counts()
        return pa.table({"node2": counts.field("values"),
                         "outdeg": counts.field("counts").cast(pa.int64())})

    def odeg_reduce(g: pd.DataFrame) -> pd.DataFrame:
        return (g.groupby("node2", sort=False, as_index=False)["outdeg"]
                .sum())

    outdeg = exchange.by_bucket(
        e.map_batches(outdeg_partial, batch_format="pyarrow",
                      zero_copy_batch=True),
        "node2", odeg_reduce, batch_format="pandas")

    n_nodes = nodes.count()
    if n_nodes == 0:
        return ray.data.from_arrow(pa.table(
            {"node": pa.array([], pa.large_string()),
             "rank": pa.array([], pa.float64())}))
    r0 = round(1.0 / n_nodes, 12)

    # rank state: (node, rank, outdeg); outdeg 0 for sink-only nodes
    ranks = hash_join(nodes, outdeg, "node", "node2", how="left")

    def init_rank(batch: pa.Table) -> pa.Table:
        deg = batch.column("outdeg").to_numpy(zero_copy_only=False)
        deg = np.nan_to_num(deg.astype(np.float64), nan=0.0).astype(np.int64)
        return pa.table({
            "node": batch.column("node").cast(pa.large_string()),
            "rank": pa.array(np.full(len(batch), r0)),
            "outdeg": pa.array(deg),
        })

    ranks = ranks.map_batches(init_rank, batch_format="pyarrow")
    ranks = materialize_rebased(ranks, num_blocks=blocks,
                                spill_dir=spill_dir)

    base = (1.0 - damping) / n_nodes
    for _ in range(n_iter):
        dang = ranks.map_batches(
            lambda b: pa.table({"d": pa.array([float(
                np.where(b.column("outdeg").to_numpy(zero_copy_only=False)
                         == 0,
                         b.column("rank").to_numpy(zero_copy_only=False),
                         0.0).sum())])}),
            batch_format="pyarrow").sum("d") or 0.0
        spread = damping * dang / n_nodes

        contribs = hash_join(e, ranks, "src", "node")

        def contrib_partial(batch: pa.Table) -> pa.Table:
            r = batch.column("rank").to_numpy(zero_copy_only=False)
            d = batch.column("outdeg").to_numpy(zero_copy_only=False)
            per = r / np.maximum(d, 1)
            t = pa.table({"dst": batch.column("dst"), "c": pa.array(per)})
            df = t.to_pandas().groupby("dst", sort=False, as_index=False,
                                       observed=True)["c"].sum()
            return pa.Table.from_pandas(df, preserve_index=False)

        def in_reduce(g: pd.DataFrame) -> pd.DataFrame:
            return g.groupby("dst", sort=False, as_index=False)["c"].sum()

        insum = exchange.by_bucket(
            contribs.map_batches(contrib_partial, batch_format="pyarrow"),
            "dst", in_reduce, batch_format="pandas")

        joined = hash_join(ranks, insum, "node", "dst", how="left")

        def update(batch: pa.Table) -> pa.Table:
            c = batch.column("c").to_numpy(zero_copy_only=False)
            c = np.nan_to_num(c.astype(np.float64), nan=0.0)
            new = np.round(base + damping * c + spread, 12)
            return pa.table({
                "node": batch.column("node"),
                "rank": pa.array(new),
                "outdeg": batch.column("outdeg"),
            })

        ranks = joined.map_batches(update, batch_format="pyarrow")
        ranks = materialize_rebased(ranks, num_blocks=blocks,
                                    spill_dir=spill_dir)

    def final(batch: pa.Table) -> pa.Table:
        return pa.table({"node": batch.column("node"),
                         "rank": batch.column("rank")})

    return ranks.map_batches(final, batch_format="pyarrow",
                             zero_copy_batch=True)


# ---------------------------------------------------------------------------
# Co-occurrence graphs and triangle counting
# ---------------------------------------------------------------------------

def co_occurrence_edges(pairs: "ray.data.Dataset", group_col: str,
                        node_col: str) -> "ray.data.Dataset":
    """Undirected co-occurrence edges: (s1 < s2) iff both nodes share
    at least one group — e.g. the co-supplier graph (suppliers of the
    same part) or co-citation / co-click graphs. Output edges are
    DISTINCT.

    Scale shape: (group, node) incidences dedup IN-BATCH before the
    ONE groupby on group; each group emits C(k, 2) pairs via a
    vectorized triu explode. Partitioning assumption (documented per
    the briefing): group fan-out k is bounded (co-supply/co-citation
    groups are catalog-shaped, tens not millions) — a hot group is
    quadratic, cap or pre-split upstream if the domain allows
    unbounded groups. The final edge dedup is one more groupby on
    (s1, s2)."""
    import pandas as pd
    from ray.data.aggregate import Count

    def dedup_batch(batch: pa.Table) -> pa.Table:
        t = pa.table({group_col: batch.column(group_col),
                      node_col: batch.column(node_col)})
        return t.group_by([group_col, node_col]).aggregate([])

    def pairs_of_group(g: pd.DataFrame) -> pd.DataFrame:
        nodes = np.unique(g[node_col].to_numpy().astype(np.int64))
        if len(nodes) < 2:
            return pd.DataFrame({"s1": np.array([], np.int64),
                                 "s2": np.array([], np.int64)})
        i, j = np.triu_indices(len(nodes), k=1)
        return pd.DataFrame({"s1": nodes[i], "s2": nodes[j]})

    edges = (pairs.map_batches(dedup_batch, batch_format="pyarrow",
                               zero_copy_batch=True)
             .groupby(group_col)
             .map_groups(pairs_of_group, batch_format="pandas")
             .groupby(["s1", "s2"])
             .aggregate(Count(alias_name="_n")))
    return edges.map_batches(lambda b: b.select(["s1", "s2"]),
                             batch_format="pyarrow", zero_copy_batch=True)


def triangle_count(edges: "ray.data.Dataset") -> int:
    """Distributed triangle count over DISTINCT undirected edges with
    the (s1 < s2) orientation — each triangle a < b < c is counted
    exactly once: wedges (a<b, b<c) form by joining the edge list with
    itself on the middle vertex, and close iff (a, c) is an edge.

    Scale shape: two bucketed exchanges (the wedge join on b, the
    closing composite-key join on (a, c)) over slim int64 rows; the
    orientation bounds wedge fan-out by the ordered degree (the
    classic compact-forward argument), and the final count aggregates
    without materializing the wedge set anywhere."""
    from .joins import hash_join

    e1 = edges.map_batches(
        lambda b: pa.table({"w_a": b.column("s1"), "w_b": b.column("s2")}),
        batch_format="pyarrow", zero_copy_batch=True)
    e2 = edges.map_batches(
        lambda b: pa.table({"w_b2": b.column("s1"), "w_c": b.column("s2")}),
        batch_format="pyarrow", zero_copy_batch=True)
    wedges = hash_join(e1, e2, "w_b", "w_b2")
    closed = hash_join(wedges, edges, ["w_a", "w_c"], ["s1", "s2"])
    return int(closed.count())
