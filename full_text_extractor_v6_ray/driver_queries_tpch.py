"""TPC-H breadth batch: Q5/Q7/Q8/Q9/Q11-Q22 analogs.

With Q1/Q3/Q4/Q6/Q10 shapes already in driver_queries.py
(lineitem_pricing_summary, q3_shipping_priority,
q4_late_shipment_priority, q6_forecast_revenue,
returned_revenue_topk), this completes the 22-query family minus Q2,
which is meaningless without a partsupp table: its entire body is a
min-supplycost-per-partsupp correlated lookup.

Each query is adapted to the testdata columns (no partsupp table, no
l_commitdate / l_shipmode / c_phone / p_container — predicates that
need them are replaced by equivalents over existing columns) and keeps
the canonical TPC-H *shape*: the join graph, the correlated-subquery
collapse, and the aggregation are the same, so each one exercises a
distinct distributed plan.

Scale conventions (same as driver_queries.py):

- Big⋈big equality joins go through ``joins.hash_join`` (ONE bucketed
  exchange, payload moves once).
- Dimension-sized sides (nation, region, supplier, a brand-filtered
  slice of part) are read on the driver and joined map-side with
  ``joins.broadcast_join`` (inner/left lookups, semi/anti gates) —
  put once, never re-shipped per batch, never a shuffle; per-batch
  arithmetic on the joined columns fuses into the same tasks.
- Correlated EXISTS / scalar subqueries collapse map-side to a
  per-key partial (MAX / (sum, n)) before their single shuffle —
  the Q4 pattern (driver_queries.py:3313).
- Aggregates over floats are rounded to a fixed precision matched in
  the oracle (accumulation order across partitions is not fixed).
- ``.to_pandas()`` only ever touches post-aggregation tables bounded
  by dimension cardinality (suppliers, brands), never fact rows.

Reference scope note: the reference app has no SQL surface at all
(it is a document extractor); this family exists for the
training-data/engine side of the rebuild and is DuckDB-oracled.
"""

from __future__ import annotations

import datetime
import os

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.dataset as pads
import pyarrow.parquet as pq

import ray.data


def _read(sf_dir: str, table: str, columns=None,
          filter=None) -> "ray.data.Dataset":
    """One table of ``sf_dir`` (shared by the three query modules)."""
    return ray.data.read_parquet(os.path.join(sf_dir, f"{table}.parquet"),
                                 columns=columns, filter=filter)


def _round_cols(batch: pa.Table, cols, ndigits: int) -> pa.Table:
    """Round float columns to a fixed precision (oracle hash stability)."""
    for c in cols:
        i = batch.schema.get_field_index(c)
        batch = batch.set_column(i, c,
                                 pc.round(batch.column(c), ndigits=ndigits))
    return batch


def _np(col: pa.ChunkedArray, dtype=None) -> np.ndarray:
    a = col.to_numpy(zero_copy_only=False)
    return a.astype(dtype) if dtype is not None else a


def _revenue(batch: pa.Table) -> pa.ChunkedArray:
    """``l_extendedprice * (1 - l_discount)``."""
    return pc.multiply(batch.column("l_extendedprice"),
                       pc.subtract(1.0, batch.column("l_discount")))


def _table(sf_dir: str, table: str, columns: list[str]) -> pa.Table:
    """A dimension table, read on the driver."""
    return pq.read_table(os.path.join(sf_dir, f"{table}.parquet"),
                         columns=columns)


def _asia_nations(sf_dir: str) -> pa.Table:
    """``n_nationkey`` of the nations in region ASIA."""
    nat = _table(sf_dir, "nation", ["n_nationkey", "n_regionkey"])
    reg = _table(sf_dir, "region", ["r_regionkey", "r_name"])
    asia = reg.filter(pc.equal(reg["r_name"], "ASIA"))["r_regionkey"]
    return nat.filter(pc.is_in(nat["n_regionkey"], value_set=asia)) \
        .select(["n_nationkey"])


def _name_nations(ds: "ray.data.Dataset", sf_dir: str, key: str,
                  name: str) -> "ray.data.Dataset":
    """``ds`` with the nation name of its ``key`` column as ``name``."""
    from .stages.joins import broadcast_join

    nat = _table(sf_dir, "nation", ["n_nationkey", "n_name"])
    return broadcast_join(ds, nat.rename_columns(["n_nationkey", name]),
                          key, "n_nationkey")


# ---------------------------------------------------------------------------
# Q5: local supplier volume — 6-table join, revenue per nation
# ---------------------------------------------------------------------------

def q5_local_supplier_volume(sf_dir: str):
    """TPC-H Q5 shape: customer ⋈ orders ⋈ lineitem ⋈ supplier ⋈
    nation ⋈ region with the s_nationkey = c_nationkey locality
    predicate. Plan: date filter pushed into the orders read; region
    gate applied to the CUSTOMER side before its one bucketed join
    with orders (customers outside ASIA never enter the exchange);
    lineitem joins the order->nation map via a unique-key lookup join
    (payload moves once); supplier nation + nation names are
    dimension broadcasts probed map-side; final groupby runs on
    nation-cardinality rows."""
    from ray.data.aggregate import Sum

    from .stages.joins import broadcast_join, hash_join

    lo = datetime.datetime(1996, 1, 1)
    hi = datetime.datetime(1997, 1, 1)

    orders = _read(sf_dir, "orders", columns=["o_orderkey", "o_custkey"],
                   filter=((pads.field("o_orderdate") >= lo)
                           & (pads.field("o_orderdate") < hi)))
    cust = broadcast_join(
        _read(sf_dir, "customer", columns=["c_custkey", "c_nationkey"]),
        _asia_nations(sf_dir), "c_nationkey", "n_nationkey", how="semi")

    # big ⋈ big on custkey: one bucketed exchange
    oc = hash_join(orders, cust, "o_custkey", "c_custkey")
    oc = oc.map_batches(
        lambda b: b.select(["o_orderkey", "c_nationkey"]),
        batch_format="pyarrow", zero_copy_batch=True)

    li = _read(sf_dir, "lineitem",
               columns=["l_orderkey", "l_suppkey", "l_extendedprice",
                        "l_discount"])
    joined = hash_join(li, oc, "l_orderkey", "o_orderkey")
    local = broadcast_join(
        joined, _table(sf_dir, "supplier", ["s_suppkey", "s_nationkey"]),
        "l_suppkey", "s_suppkey").map_batches(
        lambda b: b.filter(pc.equal(b.column("s_nationkey"),
                                    b.column("c_nationkey"))),
        batch_format="pyarrow", zero_copy_batch=True)
    rev = _name_nations(local, sf_dir, "c_nationkey", "n_name").map_batches(
        lambda b: pa.table({"n_name": b.column("n_name"),
                            "rev": _revenue(b)}),
        batch_format="pyarrow", zero_copy_batch=True)
    agg = rev.groupby("n_name").aggregate(Sum("rev", alias_name="revenue"))
    return agg.map_batches(lambda b: _round_cols(b, ["revenue"], 2),
                           batch_format="pyarrow")


# ---------------------------------------------------------------------------
# Q7: volume shipping between two nations, by year
# ---------------------------------------------------------------------------

_Q7_A, _Q7_B = "NATION_3", "NATION_8"


def q7_volume_shipping(sf_dir: str):
    """TPC-H Q7 shape: revenue flowing supplier-nation -> customer-
    nation per ship year, for the (A,B)/(B,A) nation pair. Plan: the
    nation gate prunes BOTH fact sides before any exchange (customers
    of A/B only into the orders join; lineitems of A/B suppliers only
    into the lookup join); supplier/nation maps broadcast; groupby on
    (2 x 2 x years) rows."""
    from ray.data.aggregate import Count, Sum

    from .stages.joins import broadcast_join, hash_join

    lo = datetime.datetime(1995, 1, 1)
    hi = datetime.datetime(1997, 1, 1)

    nat = _table(sf_dir, "nation", ["n_nationkey", "n_name"])
    pair = nat.filter(pc.is_in(nat["n_name"],
                               value_set=pa.array([_Q7_A, _Q7_B]))) \
        .select(["n_nationkey"])

    cust = broadcast_join(
        _read(sf_dir, "customer", columns=["c_custkey", "c_nationkey"]),
        pair, "c_nationkey", "n_nationkey", how="semi")
    orders = _read(sf_dir, "orders", columns=["o_orderkey", "o_custkey"])
    oc = hash_join(orders, cust, "o_custkey", "c_custkey")
    oc = oc.map_batches(lambda b: b.select(["o_orderkey", "c_nationkey"]),
                        batch_format="pyarrow", zero_copy_batch=True)

    def volume(batch: pa.Table) -> pa.Table:
        """Lineitems of pair suppliers: volume + ship year."""
        return pa.table({
            "l_orderkey": batch.column("l_orderkey"),
            "s_nationkey": pc.cast(batch.column("s_nationkey"), pa.int64()),
            "l_year": pc.cast(pc.year(batch.column("l_shipdate")),
                              pa.int64()),
            "volume": _revenue(batch)})

    li = _read(sf_dir, "lineitem",
               columns=["l_orderkey", "l_suppkey", "l_shipdate",
                        "l_extendedprice", "l_discount"],
               filter=((pads.field("l_shipdate") >= lo)
                       & (pads.field("l_shipdate") < hi)))
    li = broadcast_join(
        li, _table(sf_dir, "supplier", ["s_suppkey", "s_nationkey"]),
        "l_suppkey", "s_suppkey")
    li = broadcast_join(li, pair, "s_nationkey", "n_nationkey",
                        how="semi").map_batches(
        volume, batch_format="pyarrow", zero_copy_batch=True)

    joined = hash_join(li, oc, "l_orderkey", "o_orderkey")
    # both nations are already in {A, B}
    flows = joined.map_batches(
        lambda b: b.filter(pc.not_equal(b.column("s_nationkey"),
                                        b.column("c_nationkey"))),
        batch_format="pyarrow", zero_copy_batch=True)
    flows = _name_nations(flows, sf_dir, "s_nationkey", "supp_nation")
    flows = _name_nations(flows, sf_dir, "c_nationkey", "cust_nation") \
        .map_batches(lambda b: b.select(["supp_nation", "cust_nation",
                                         "l_year", "volume"]),
                     batch_format="pyarrow", zero_copy_batch=True)
    agg = flows.groupby(["supp_nation", "cust_nation", "l_year"]).aggregate(
        Count(alias_name="n"), Sum("volume", alias_name="revenue"))
    return agg.map_batches(lambda b: _round_cols(b, ["revenue"], 2),
                           batch_format="pyarrow")


# ---------------------------------------------------------------------------
# Q13: customer order-count distribution (left join, zeros included)
# ---------------------------------------------------------------------------

def q13_customer_distribution(sf_dir: str):
    """TPC-H Q13 shape: orders-per-customer histogram INCLUDING
    zero-order customers (the comment-filter predicate is replaced by
    o_orderpriority <> '1-URGENT'). Plan: per-custkey counts combine
    map-side (one row per custkey per batch) before the count
    shuffle; zero customers come from a LEFT unique-key lookup join
    of the full customer key list against the count table; the final
    histogram groupby runs on distinct-count-cardinality rows."""
    from ray.data.aggregate import Count, Sum

    from .stages.joins import hash_join

    orders = _read(sf_dir, "orders", columns=["o_custkey"],
                   filter=(pads.field("o_orderpriority") != "1-URGENT"))

    def partial_counts(batch: pa.Table) -> pa.Table:
        g = batch.group_by(["o_custkey"]).aggregate([("o_custkey", "count")])
        return pa.table({"o_custkey": g.column("o_custkey"),
                         "n_part": pc.cast(g.column("o_custkey_count"),
                                           pa.int64())})

    counts = (orders.map_batches(partial_counts, batch_format="pyarrow",
                                 zero_copy_batch=True)
              .groupby("o_custkey")
              .aggregate(Sum("n_part", alias_name="c_count")))

    cust = _read(sf_dir, "customer", columns=["c_custkey"])
    withc = hash_join(cust, counts, "c_custkey", "o_custkey", how="left")

    def fill_zero(batch: pa.Table) -> pa.Table:
        c = pc.fill_null(batch.column("c_count"), 0)
        return pa.table({"c_count": c})

    filled = withc.map_batches(fill_zero, batch_format="pyarrow",
                               zero_copy_batch=True)
    return filled.groupby("c_count").aggregate(
        Count(alias_name="custdist"))


# ---------------------------------------------------------------------------
# Q14: promo revenue percentage (join + conditional aggregate -> scalar)
# ---------------------------------------------------------------------------

def q14_promo_revenue(sf_dir: str):
    """TPC-H Q14 shape: share of September-1996 revenue from PROMO
    parts. Plan: month filter pushed into the read; part(type)
    decorates via a unique-key lookup join (part is a fact-sized
    table at catalog scale — no broadcast); both conditional sums
    combine map-side to one partial row per batch, so the global
    aggregate is metadata-sized."""
    from ray.data.aggregate import Sum

    from .stages.joins import hash_join

    lo = datetime.datetime(1996, 9, 1)
    hi = datetime.datetime(1996, 10, 1)
    li = _read(sf_dir, "lineitem",
               columns=["l_partkey", "l_extendedprice", "l_discount"],
               filter=((pads.field("l_shipdate") >= lo)
                       & (pads.field("l_shipdate") < hi)))
    part = _read(sf_dir, "part", columns=["p_partkey", "p_type"])
    joined = hash_join(li, part, "l_partkey", "p_partkey")

    def partials(batch: pa.Table) -> pa.Table:
        rev = _np(batch.column("l_extendedprice")) \
            * (1.0 - _np(batch.column("l_discount")))
        promo = pc.equal(batch.column("p_type"), "PROMO") \
            .to_numpy(zero_copy_only=False).astype(bool)
        return pa.table({"promo_rev": pa.array([float(rev[promo].sum())]),
                         "total_rev": pa.array([float(rev.sum())])})

    sums = (joined.map_batches(partials, batch_format="pyarrow",
                               zero_copy_batch=True)
            .aggregate(Sum("promo_rev", alias_name="p"),
                       Sum("total_rev", alias_name="t")))
    pct = 100.0 * (sums["p"] or 0.0) / (sums["t"] or float("nan"))
    return pa.table({"promo_pct": pa.array([round(pct, 4)], pa.float64())})


# ---------------------------------------------------------------------------
# Q15: top supplier by revenue in a quarter
# ---------------------------------------------------------------------------

def q15_top_supplier(sf_dir: str):
    """TPC-H Q15 shape: revenue per supplier over a quarter, keep the
    max-revenue supplier(s). Plan: per-suppkey revenue combines
    map-side before ONE groupby; the aggregate is supplier-cardinality
    (dimension-sized) so the max+filter+name decorate run on the
    driver over a small table — the documented small-aggregate
    convention. Revenue rounds to 2dp BEFORE the max so ties are
    exact (matched in the oracle)."""
    from ray.data.aggregate import Sum

    lo = datetime.datetime(1996, 1, 1)
    hi = datetime.datetime(1996, 4, 1)
    li = _read(sf_dir, "lineitem",
               columns=["l_suppkey", "l_extendedprice", "l_discount"],
               filter=((pads.field("l_shipdate") >= lo)
                       & (pads.field("l_shipdate") < hi)))

    def partial_rev(batch: pa.Table) -> pa.Table:
        sk = _np(batch.column("l_suppkey"), np.int64)
        rev = _np(batch.column("l_extendedprice")) \
            * (1.0 - _np(batch.column("l_discount")))
        df = pd.DataFrame({"k": sk, "r": rev}).groupby("k", sort=False)["r"] \
            .sum()
        return pa.table({"l_suppkey": pa.array(df.index.to_numpy(),
                                               pa.int64()),
                         "rev": pa.array(df.to_numpy(), pa.float64())})

    agg = (li.map_batches(partial_rev, batch_format="pyarrow",
                          zero_copy_batch=True)
           .groupby("l_suppkey")
           .aggregate(Sum("rev", alias_name="total_revenue"))
           .map_batches(lambda b: _round_cols(b, ["total_revenue"], 2),
                        batch_format="pyarrow"))
    # supplier-cardinality table: small by construction
    df = agg.to_pandas()
    if df.empty:
        return pa.table({"s_suppkey": pa.array([], pa.int64()),
                         "s_name": pa.array([], pa.string()),
                         "total_revenue": pa.array([], pa.float64())})
    top = df[df["total_revenue"] == df["total_revenue"].max()]
    supp = pq.read_table(os.path.join(sf_dir, "supplier.parquet"),
                         columns=["s_suppkey", "s_name"]).to_pandas()
    out = top.merge(supp, left_on="l_suppkey", right_on="s_suppkey")
    return pa.table({
        "s_suppkey": pa.array(out["s_suppkey"].to_numpy(), pa.int64()),
        "s_name": pa.array(out["s_name"], pa.string()),
        "total_revenue": pa.array(out["total_revenue"].to_numpy(),
                                  pa.float64())})


# ---------------------------------------------------------------------------
# Q16: supplier count per part attribute (distinct agg with exclusion)
# ---------------------------------------------------------------------------

def q16_parts_supplier_count(sf_dir: str):
    """TPC-H Q16 shape: COUNT(DISTINCT suppliers) per (brand, type,
    size) for selected sizes, excluding one brand and "complaint"
    suppliers (analog: negative account balance — no comment column).
    Plan: the size/brand-filtered part slice and the excluded-supplier
    set broadcast (both dimension-sized after filtering); lineitem
    rows dedup (brand,type,size,suppkey) IN-BATCH before the distinct
    shuffle (the combiner bounding hot-key traffic), then one groupby
    pair: 4-key dedup, 3-key count."""
    from ray.data.aggregate import Count

    from .stages.joins import broadcast_join

    part = pq.read_table(os.path.join(sf_dir, "part.parquet"),
                         columns=["p_partkey", "p_brand", "p_type",
                                  "p_size"])
    szmask = pc.is_in(pc.cast(part["p_size"], pa.int64()),
                      value_set=pa.array([1, 4, 7, 10, 13], pa.int64()))
    brmask = pc.invert(pc.equal(part["p_brand"], "Brand#21"))
    part = part.filter(pc.and_(szmask, brmask))
    supp = _table(sf_dir, "supplier", ["s_suppkey", "s_acctbal"])
    bad = supp.filter(pc.less(supp["s_acctbal"], 0.0)).select(["s_suppkey"])

    def distinct_attrs(batch: pa.Table) -> pa.Table:
        t = pa.table({"p_brand": batch.column("p_brand"),
                      "p_type": batch.column("p_type"),
                      "p_size": pc.cast(batch.column("p_size"), pa.int64()),
                      "l_suppkey": batch.column("l_suppkey")})
        # in-batch distinct: the combiner before the dedup shuffle
        return t.group_by(["p_brand", "p_type", "p_size",
                           "l_suppkey"]).aggregate([])

    li = _read(sf_dir, "lineitem", columns=["l_partkey", "l_suppkey"])
    li = broadcast_join(li, part, "l_partkey", "p_partkey")
    quads = broadcast_join(li, bad, "l_suppkey", "s_suppkey",
                           how="anti").map_batches(
        distinct_attrs, batch_format="pyarrow", zero_copy_batch=True)
    distinct = quads.groupby(["p_brand", "p_type", "p_size", "l_suppkey"]) \
        .aggregate(Count(alias_name="_n"))
    distinct = distinct.map_batches(
        lambda b: b.select(["p_brand", "p_type", "p_size"]),
        batch_format="pyarrow", zero_copy_batch=True)
    return distinct.groupby(["p_brand", "p_type", "p_size"]).aggregate(
        Count(alias_name="supplier_cnt"))


# ---------------------------------------------------------------------------
# Q17: small-quantity revenue (correlated scalar subquery)
# ---------------------------------------------------------------------------

def q17_small_qty_revenue(sf_dir: str):
    """TPC-H Q17 shape: revenue from orders below half the part's
    average quantity, one brand. Plan: the brand's partkey set
    broadcasts (brand slice is dimension-sized); the correlated
    AVG collapses map-side to (sum, n) partials per partkey — ONE
    groupby on brand-part-cardinality keys; thresholds rejoin the
    filtered fact rows via a unique-key lookup join; final sum is a
    scalar."""
    from ray.data.aggregate import Sum

    from .stages.joins import broadcast_join, hash_join

    part = pq.read_table(os.path.join(sf_dir, "part.parquet"),
                         columns=["p_partkey", "p_brand"])
    brand = part.filter(pc.equal(part["p_brand"], "Brand#23")) \
        .select(["p_partkey"])
    li = broadcast_join(
        _read(sf_dir, "lineitem",
              columns=["l_partkey", "l_quantity", "l_extendedprice"]),
        brand, "l_partkey", "p_partkey", how="semi")

    def qty_partials(batch: pa.Table) -> pa.Table:
        df = pd.DataFrame({
            "k": _np(batch.column("l_partkey"), np.int64),
            "q": _np(batch.column("l_quantity"))})
        g = df.groupby("k", sort=False)["q"].agg(["sum", "count"])
        return pa.table({"l_partkey": pa.array(g.index.to_numpy(),
                                               pa.int64()),
                         "qsum": pa.array(g["sum"].to_numpy(), pa.float64()),
                         "qn": pa.array(g["count"].to_numpy(), pa.int64())})

    avg = (li.map_batches(qty_partials, batch_format="pyarrow",
                          zero_copy_batch=True)
           .groupby("l_partkey")
           .aggregate(Sum("qsum", alias_name="s"),
                      Sum("qn", alias_name="n")))

    def to_threshold(batch: pa.Table) -> pa.Table:
        # round-before-compare (module convention): partial-sum order
        # differs from the oracle's accumulation, so the threshold is
        # fixed to 6 digits on BOTH engines before the < compare
        thr = np.round(0.5 * _np(batch.column("s")) / _np(batch.column("n")),
                       6)
        return pa.table({"t_partkey": batch.column("l_partkey"),
                         "qty_thr": pa.array(thr, pa.float64())})

    thr = avg.map_batches(to_threshold, batch_format="pyarrow",
                          zero_copy_batch=True)
    joined = hash_join(li, thr, "l_partkey", "t_partkey")

    def below(batch: pa.Table) -> pa.Table:
        keep = pc.less(batch.column("l_quantity"), batch.column("qty_thr"))
        price = batch.filter(keep).column("l_extendedprice")
        s = pc.sum(price)
        return pa.table({"p": pa.array(
            [s.as_py() if s.is_valid else 0.0], pa.float64())})

    total = (joined.map_batches(below, batch_format="pyarrow",
                                zero_copy_batch=True)
             .aggregate(Sum("p", alias_name="s")))
    val = (total["s"] or 0.0) / 7.0
    return pa.table({"avg_yearly": pa.array([round(val, 2)], pa.float64())})


# ---------------------------------------------------------------------------
# Q18: large-volume customers (HAVING subquery -> semi join)
# ---------------------------------------------------------------------------

def q18_large_volume_customers(sf_dir: str):
    """TPC-H Q18 shape: orders whose total quantity exceeds 250, with
    customer names, top 100 by price. Plan: per-orderkey quantity
    combines map-side then ONE groupby; the >250 survivors
    (fraction of a percent) drive two unique-key lookup joins
    (orders, then customer — both right sides keyed uniquely, payload
    moves once); sort+limit on the surviving rows only."""
    from ray.data.aggregate import Sum

    from .stages.joins import hash_join

    li = _read(sf_dir, "lineitem", columns=["l_orderkey", "l_quantity"])

    def qty_partial(batch: pa.Table) -> pa.Table:
        df = pd.DataFrame({
            "k": _np(batch.column("l_orderkey"), np.int64),
            "q": _np(batch.column("l_quantity"))})
        g = df.groupby("k", sort=False)["q"].sum()
        return pa.table({"l_orderkey": pa.array(g.index.to_numpy(),
                                                pa.int64()),
                         "qp": pa.array(g.to_numpy(), pa.float64())})

    sums = (li.map_batches(qty_partial, batch_format="pyarrow",
                           zero_copy_batch=True)
            .groupby("l_orderkey")
            .aggregate(Sum("qp", alias_name="sum_qty")))
    big = sums.map_batches(
        lambda b: b.filter(pc.greater(b.column("sum_qty"), 250.0)),
        batch_format="pyarrow", zero_copy_batch=True)

    orders = _read(sf_dir, "orders",
                   columns=["o_orderkey", "o_custkey", "o_orderdate",
                            "o_totalprice"])
    withq = hash_join(orders, big, "o_orderkey", "l_orderkey")
    cust = _read(sf_dir, "customer", columns=["c_custkey", "c_name"])
    named = hash_join(withq, cust, "o_custkey", "c_custkey")
    return (named
            .sort(["o_totalprice", "o_orderdate", "o_orderkey"],
                  descending=[True, False, False])
            .limit(100))


# ---------------------------------------------------------------------------
# Q19: OR-of-conjunctions discounted revenue
# ---------------------------------------------------------------------------

_Q19_ARMS = [("Brand#12", 1, 15, 1.0, 11.0),
             ("Brand#23", 1, 25, 10.0, 20.0),
             ("Brand#34", 1, 35, 20.0, 30.0)]


def q19_discounted_revenue(sf_dir: str):
    """TPC-H Q19 shape: revenue under an OR of three (brand, size
    range, quantity range) conjunctions (container/shipmode predicates
    replaced by size — column not in testdata). Plan: the three-brand
    part slice broadcasts; each arm is one vectorized mask; single
    scalar aggregate out."""
    from ray.data.aggregate import Sum

    from .stages.joins import broadcast_join

    part = pq.read_table(os.path.join(sf_dir, "part.parquet"),
                         columns=["p_partkey", "p_brand", "p_size"])
    brands = [a[0] for a in _Q19_ARMS]
    sel = part.filter(pc.is_in(part["p_brand"],
                               value_set=pa.array(brands)))
    sel = sel.select(["p_partkey", "p_brand", "p_size"])

    def arm_revenue(batch: pa.Table) -> pa.Table:
        brand = batch.column("p_brand").to_numpy(zero_copy_only=False)
        size = _np(batch.column("p_size"), np.int64)
        qty = _np(batch.column("l_quantity"))
        keep = np.zeros(batch.num_rows, dtype=bool)
        for b, s_lo, s_hi, q_lo, q_hi in _Q19_ARMS:
            keep |= ((brand == b) & (size >= s_lo) & (size <= s_hi)
                     & (qty >= q_lo) & (qty <= q_hi))
        rev = (_np(batch.column("l_extendedprice"))[keep]
               * (1.0 - _np(batch.column("l_discount"))[keep]))
        return pa.table({"p": pa.array([float(rev.sum())], pa.float64())})

    li = _read(sf_dir, "lineitem",
               columns=["l_partkey", "l_quantity", "l_extendedprice",
                        "l_discount"])
    total = (broadcast_join(li, sel, "l_partkey", "p_partkey")
             .map_batches(arm_revenue, batch_format="pyarrow",
                          zero_copy_batch=True)
             .aggregate(Sum("p", alias_name="s")))
    return pa.table({"revenue": pa.array([round(total["s"] or 0.0, 2)],
                                         pa.float64())})


# ---------------------------------------------------------------------------
# Q22: dormant high-balance customers (NOT EXISTS anti join)
# ---------------------------------------------------------------------------

_Q22_CUTOFF = datetime.datetime(2000, 1, 1)


def q22_sales_opportunity(sf_dir: str):
    """TPC-H Q22 shape: customers with above-average positive balance
    and NO recent orders, counted per nation (phone-prefix country
    code replaced by c_nationkey; "no orders" tightened to "no orders
    since 2000" — every synthetic customer has some order). Plan: the
    global average is a metadata-sized aggregate; the NOT EXISTS is
    the repo's bucketed ANTI join (recent-order custkeys are
    fact-scale and cannot broadcast: keys-only right side, per-batch
    dedup combiner, ONE shuffle); final groupby on nation keys."""
    from ray.data.aggregate import Count, Mean, Sum

    from .stages.joins import hash_join

    cust = _read(sf_dir, "customer",
                 columns=["c_custkey", "c_nationkey", "c_acctbal"])
    pos = cust.map_batches(
        lambda b: b.filter(pc.greater(b.column("c_acctbal"), 0.0)),
        batch_format="pyarrow", zero_copy_batch=True)
    # round-before-compare (module convention): accumulation order is
    # not fixed across partitions, so the raw mean can differ from the
    # oracle's by ulps — a balance AT the threshold must not flip
    avg_bal = round(
        float(pos.aggregate(Mean("c_acctbal", alias_name="m"))["m"]), 6)

    rich = cust.map_batches(
        lambda b, _t=avg_bal: b.filter(pc.greater(b.column("c_acctbal"),
                                                  _t)),
        batch_format="pyarrow", zero_copy_batch=True)
    recent = _read(sf_dir, "orders", columns=["o_custkey"],
                   filter=(pads.field("o_orderdate") >= _Q22_CUTOFF))
    dormant = hash_join(rich, recent, "c_custkey", "o_custkey", how="anti")

    def key_only(batch: pa.Table) -> pa.Table:
        return pa.table({
            "cntrycode": pc.cast(batch.column("c_nationkey"), pa.int64()),
            "c_acctbal": batch.column("c_acctbal")})

    agg = (dormant.map_batches(key_only, batch_format="pyarrow",
                               zero_copy_batch=True)
           .groupby("cntrycode")
           .aggregate(Count(alias_name="numcust"),
                      Sum("c_acctbal", alias_name="totacctbal")))
    return agg.map_batches(lambda b: _round_cols(b, ["totacctbal"], 2),
                           batch_format="pyarrow")


# ---------------------------------------------------------------------------
# Q8: national market share (8-table join, conditional share by year)
# ---------------------------------------------------------------------------

_Q8_NATION = "NATION_8"


def q8_market_share(sf_dir: str):
    """TPC-H Q8 shape: NATION_8's share of ASIA's STANDARD-part import
    volume per order year. Plan: the STANDARD partkey set and the
    supplier-nation map broadcast (both probed map-side — lineitem
    rows for other part types never leave the scan); the
    region-gated customer slice takes ONE bucketed join with
    date-filtered orders; lineitem lookup-joins the surviving
    (orderkey -> year) map; both conditional sums combine map-side so
    the final exchange carries (years x 2) cells."""
    from ray.data.aggregate import Sum

    from .stages.joins import broadcast_join, hash_join

    lo = datetime.datetime(1995, 1, 1)
    hi = datetime.datetime(1997, 1, 1)

    part = _table(sf_dir, "part", ["p_partkey", "p_type"])
    std = part.filter(pc.equal(part["p_type"], "STANDARD")) \
        .select(["p_partkey"])
    nat = _table(sf_dir, "nation", ["n_nationkey", "n_name"])
    target = nat.filter(pc.equal(nat["n_name"], _Q8_NATION))["n_nationkey"][0]

    cust = broadcast_join(
        _read(sf_dir, "customer", columns=["c_custkey", "c_nationkey"]),
        _asia_nations(sf_dir), "c_nationkey", "n_nationkey", how="semi")
    orders = _read(sf_dir, "orders",
                   columns=["o_orderkey", "o_custkey", "o_orderdate"],
                   filter=((pads.field("o_orderdate") >= lo)
                           & (pads.field("o_orderdate") < hi)))
    oc = hash_join(orders, cust, "o_custkey", "c_custkey")
    oc = oc.map_batches(
        lambda b: pa.table({
            "o_orderkey": b.column("o_orderkey"),
            "o_year": pc.cast(pc.year(b.column("o_orderdate")),
                              pa.int64())}),
        batch_format="pyarrow", zero_copy_batch=True)

    def std_volume(batch: pa.Table) -> pa.Table:
        """(orderkey, volume, is_target_supplier) of a STANDARD-part
        lineitem."""
        return pa.table({
            "l_orderkey": batch.column("l_orderkey"),
            "volume": _revenue(batch),
            "is_target": pc.fill_null(
                pc.equal(batch.column("s_nationkey"), target), False)})

    li = _read(sf_dir, "lineitem",
               columns=["l_orderkey", "l_partkey", "l_suppkey",
                        "l_extendedprice", "l_discount"])
    li = broadcast_join(li, std, "l_partkey", "p_partkey", how="semi")
    li = broadcast_join(
        li, _table(sf_dir, "supplier", ["s_suppkey", "s_nationkey"]),
        "l_suppkey", "s_suppkey", how="left").map_batches(
        std_volume, batch_format="pyarrow", zero_copy_batch=True)
    joined = hash_join(li, oc, "l_orderkey", "o_orderkey")

    def partials(batch: pa.Table) -> pa.Table:
        df = pd.DataFrame({
            "o_year": _np(batch.column("o_year"), np.int64),
            "vol": _np(batch.column("volume")),
            "tgt": _np(batch.column("volume"))
            * _np(batch.column("is_target")).astype(np.float64)})
        g = df.groupby("o_year", sort=False).sum()
        return pa.table({"o_year": pa.array(g.index.to_numpy(), pa.int64()),
                         "vol": pa.array(g["vol"].to_numpy(), pa.float64()),
                         "tgt": pa.array(g["tgt"].to_numpy(), pa.float64())})

    agg = (joined.map_batches(partials, batch_format="pyarrow",
                              zero_copy_batch=True)
           .groupby("o_year")
           .aggregate(Sum("tgt", alias_name="t"), Sum("vol", alias_name="v")))

    def share(batch: pa.Table) -> pa.Table:
        t, v = _np(batch.column("t")), _np(batch.column("v"))
        return pa.table({"o_year": batch.column("o_year"),
                         "mkt_share": pa.array(np.round(t / v, 6),
                                               pa.float64())})

    return agg.map_batches(share, batch_format="pyarrow",
                           zero_copy_batch=True)


# ---------------------------------------------------------------------------
# Q9: product-type profit by nation and year
# ---------------------------------------------------------------------------

def q9_product_profit(sf_dir: str):
    """TPC-H Q9 shape: per (supplier nation, order year) profit over
    name-matched parts. No partsupp table -> ps_supplycost is replaced
    by a 60%-of-retail cost model (matched in the oracle), keeping the
    join graph and the amount expression shape. Plan: the widget
    partkey->retailprice slice and supplier-nation map broadcast;
    lineitem decorates map-side (no part/supplier exchange at all);
    the only shuffles are the unique-key orders lookup join (year) and
    the final (nation x year) groupby fed by map-side partials."""
    from ray.data.aggregate import Sum

    from .stages.joins import broadcast_join, hash_join

    part = pq.read_table(os.path.join(sf_dir, "part.parquet"),
                         columns=["p_partkey", "p_name", "p_retailprice"])
    sel = part.filter(pc.match_substring(part["p_name"], "widget"))
    sel = sel.select(["p_partkey", "p_retailprice"])

    def widget_amount(batch: pa.Table) -> pa.Table:
        amount = (_np(batch.column("l_extendedprice"))
                  * (1.0 - _np(batch.column("l_discount")))
                  - 0.6 * _np(batch.column("p_retailprice"))
                  * _np(batch.column("l_quantity")))
        # exact integer cents: floor(100x + 0.5) is bit-identical
        # in numpy and DuckDB (same IEEE expression tree), and the
        # int64 sum is order-independent — a float SUM rounded to
        # 2 digits flipped a .xx5 boundary row between engines once
        # (accumulation order), observed in a full-sweep run
        cents = np.floor(100.0 * amount + 0.5).astype(np.int64)
        return pa.table({
            "l_orderkey": batch.column("l_orderkey"),
            "s_nationkey": pc.cast(batch.column("s_nationkey"), pa.int64()),
            "amount_cents": pa.array(cents, pa.int64())})

    li = _read(sf_dir, "lineitem",
               columns=["l_orderkey", "l_partkey", "l_suppkey",
                        "l_quantity", "l_extendedprice", "l_discount"])
    li = broadcast_join(li, sel, "l_partkey", "p_partkey")
    li = broadcast_join(
        li, _table(sf_dir, "supplier", ["s_suppkey", "s_nationkey"]),
        "l_suppkey", "s_suppkey").map_batches(
        widget_amount, batch_format="pyarrow", zero_copy_batch=True)

    orders = _read(sf_dir, "orders", columns=["o_orderkey", "o_orderdate"])
    orders = orders.map_batches(
        lambda b: pa.table({
            "o_orderkey": b.column("o_orderkey"),
            "o_year": pc.cast(pc.year(b.column("o_orderdate")),
                              pa.int64())}),
        batch_format="pyarrow", zero_copy_batch=True)
    joined = hash_join(li, orders, "l_orderkey", "o_orderkey")

    def nation_year_partials(batch: pa.Table) -> pa.Table:
        df = pd.DataFrame({
            "nk": _np(batch.column("s_nationkey"), np.int64),
            "o_year": _np(batch.column("o_year"), np.int64),
            "amount_cents": _np(batch.column("amount_cents"), np.int64)})
        g = df.groupby(["nk", "o_year"], sort=False)["amount_cents"] \
            .sum().reset_index()
        return pa.Table.from_pandas(g, preserve_index=False)

    partials = joined.map_batches(nation_year_partials,
                                  batch_format="pyarrow",
                                  zero_copy_batch=True)
    agg = (_name_nations(partials, sf_dir, "nk", "nation")
           .map_batches(lambda b: b.select(["nation", "o_year",
                                            "amount_cents"]),
                        batch_format="pyarrow", zero_copy_batch=True)
           .groupby(["nation", "o_year"])
           .aggregate(Sum("amount_cents", alias_name="cents")))

    def finish(batch: pa.Table) -> pa.Table:
        profit = pc.round(pc.divide(
            pc.cast(batch.column("cents"), pa.float64()),
            pa.scalar(100.0)), ndigits=2)
        return pa.table({"nation": batch.column("nation"),
                         "o_year": batch.column("o_year"),
                         "sum_profit": profit})

    return agg.map_batches(finish, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# Q11: important parts (HAVING against a global-scalar subquery)
# ---------------------------------------------------------------------------

_Q11_NATION = "NATION_8"
_Q11_FRACTION = 0.002


def q11_important_parts(sf_dir: str):
    """TPC-H Q11 shape: per-part value held by one nation's suppliers,
    keeping parts whose value exceeds FRACTION of the nation's total
    (no partsupp -> value is lineitem revenue instead of
    availqty*supplycost; the GROUP BY + HAVING-vs-global-scalar plan
    is the point). Plan: nation's suppkey set broadcasts; per-partkey
    revenue combines map-side before ONE groupby; the aggregate is
    part-cardinality, so it materializes once (catalog-scale, not
    fact-scale) to serve both the global total and the filter —
    values round to 2dp BEFORE the threshold compare on both sides so
    accumulation order can't flip a boundary row."""
    from ray.data.aggregate import Sum

    from .stages.joins import broadcast_join

    nat = _table(sf_dir, "nation", ["n_nationkey", "n_name"])
    nkey = nat.filter(pc.equal(nat["n_name"], _Q11_NATION))["n_nationkey"][0]
    supp = _table(sf_dir, "supplier", ["s_suppkey", "s_nationkey"])
    nation_supp = supp.filter(pc.equal(supp["s_nationkey"], nkey)) \
        .select(["s_suppkey"])

    def part_values(batch: pa.Table) -> pa.Table:
        df = pd.DataFrame({
            "k": _np(batch.column("l_partkey"), np.int64),
            "v": _np(batch.column("l_extendedprice"))
            * (1.0 - _np(batch.column("l_discount")))})
        g = df.groupby("k", sort=False)["v"].sum()
        return pa.table({
            "l_partkey": pa.array(g.index.to_numpy(), pa.int64()),
            "v": pa.array(g.to_numpy(), pa.float64())})

    li = _read(sf_dir, "lineitem",
               columns=["l_partkey", "l_suppkey", "l_extendedprice",
                        "l_discount"])
    per_part = (broadcast_join(li, nation_supp, "l_suppkey", "s_suppkey",
                               how="semi")
                .map_batches(part_values, batch_format="pyarrow",
                             zero_copy_batch=True)
                .groupby("l_partkey")
                .aggregate(Sum("v", alias_name="value"))
                .map_batches(lambda b: _round_cols(b, ["value"], 2),
                             batch_format="pyarrow"))
    per_part = per_part.materialize()  # part-cardinality (catalog scale)
    total = per_part.sum("value") or 0.0
    thr = round(_Q11_FRACTION * total, 2)
    return per_part.map_batches(
        lambda b, _t=thr: b.filter(pc.greater(b.column("value"), _t)),
        batch_format="pyarrow", zero_copy_batch=True)


# ---------------------------------------------------------------------------
# Q12: shipping classes vs order priority (conditional counts)
# ---------------------------------------------------------------------------

def q12_shipping_priority_classes(sf_dir: str):
    """TPC-H Q12 shape: per shipping class, how many high- vs
    low-priority orders shipped in 1996 (l_shipmode is not in
    testdata -> class is l_returnflag in (R, A); the receiptdate
    window predicate becomes the shipdate year). Plan: filters push
    into the lineitem read; orders decorate via the unique-key lookup
    join; both conditional counts combine map-side to one row per
    class per batch."""
    from ray.data.aggregate import Sum

    from .stages.joins import hash_join

    lo = datetime.datetime(1996, 1, 1)
    hi = datetime.datetime(1997, 1, 1)
    li = _read(sf_dir, "lineitem", columns=["l_orderkey", "l_returnflag"],
               filter=((pads.field("l_shipdate") >= lo)
                       & (pads.field("l_shipdate") < hi)
                       & (pads.field("l_returnflag").isin(["R", "A"]))))
    orders = _read(sf_dir, "orders",
                   columns=["o_orderkey", "o_orderpriority"])
    joined = hash_join(li, orders, "l_orderkey", "o_orderkey")

    def partials(batch: pa.Table) -> pa.Table:
        high = pc.is_in(batch.column("o_orderpriority"),
                        value_set=pa.array(["1-URGENT", "2-HIGH"])) \
            .to_numpy(zero_copy_only=False).astype(np.int64)
        df = pd.DataFrame({
            "flag": _np(batch.column("l_returnflag")).astype(object),
            "high": high, "low": 1 - high})
        g = df.groupby("flag", sort=False).sum()
        return pa.table({
            "l_returnflag": pa.array(g.index.to_numpy(), pa.string()),
            "high": pa.array(g["high"].to_numpy(), pa.int64()),
            "low": pa.array(g["low"].to_numpy(), pa.int64())})

    return (joined.map_batches(partials, batch_format="pyarrow",
                               zero_copy_batch=True)
            .groupby("l_returnflag")
            .aggregate(Sum("high", alias_name="high_line_count"),
                       Sum("low", alias_name="low_line_count")))


# ---------------------------------------------------------------------------
# Q20: suppliers with heavy volume in a part family (nested semi joins)
# ---------------------------------------------------------------------------

_Q20_QTY = 50.0


def q20_heavy_part_suppliers(sf_dir: str):
    """TPC-H Q20 shape: suppliers who shipped more than a threshold
    quantity of some 'large %' part in 1996, decorated with their
    nation (no partsupp -> the availqty half-sum predicate becomes a
    per-(supplier, part) shipped-quantity HAVING; the one-nation
    equality gate is relaxed to a nation decorate because the
    synthetic data has ~1 supplier per nation at small sf — the
    nested IN-chain collapse is the point and is unchanged). Plan:
    the name-filtered partkey set broadcasts; per (suppkey, partkey)
    quantity combines map-side before ONE groupby; survivors project
    to distinct suppkeys (supplier-cardinality) and decorate with
    supplier/nation driver-side — the documented small-aggregate
    convention."""
    from ray.data.aggregate import Sum

    from .stages.joins import broadcast_join

    part = pq.read_table(os.path.join(sf_dir, "part.parquet"),
                         columns=["p_partkey", "p_name"])
    large = part.filter(pc.starts_with(part["p_name"], "large ")) \
        .select(["p_partkey"])
    lo = datetime.datetime(1996, 1, 1)
    hi = datetime.datetime(1997, 1, 1)

    def supp_part_qty(batch: pa.Table) -> pa.Table:
        df = pd.DataFrame({
            "s": _np(batch.column("l_suppkey"), np.int64),
            "p": _np(batch.column("l_partkey"), np.int64),
            "q": _np(batch.column("l_quantity"))})
        g = df.groupby(["s", "p"], sort=False)["q"].sum().reset_index()
        return pa.table({"l_suppkey": pa.array(g["s"].to_numpy(),
                                               pa.int64()),
                         "l_partkey": pa.array(g["p"].to_numpy(),
                                               pa.int64()),
                         "q": pa.array(g["q"].to_numpy(), pa.float64())})

    li = _read(sf_dir, "lineitem",
               columns=["l_partkey", "l_suppkey", "l_quantity"],
               filter=((pads.field("l_shipdate") >= lo)
                       & (pads.field("l_shipdate") < hi)))
    sums = (broadcast_join(li, large, "l_partkey", "p_partkey", how="semi")
            .map_batches(supp_part_qty, batch_format="pyarrow",
                         zero_copy_batch=True)
            .groupby(["l_suppkey", "l_partkey"])
            .aggregate(Sum("q", alias_name="qty")))
    heavy = sums.map_batches(
        lambda b: pa.table({"l_suppkey": b.filter(
            pc.greater(b.column("qty"), _Q20_QTY)).column("l_suppkey")}),
        batch_format="pyarrow", zero_copy_batch=True)
    supp_ids = heavy.unique("l_suppkey")  # supplier-cardinality

    supp = _table(sf_dir, "supplier", ["s_suppkey", "s_name", "s_nationkey"])
    out = supp.filter(pc.is_in(supp["s_suppkey"],
                               value_set=pa.array(supp_ids, pa.int64())))
    out = out.join(_table(sf_dir, "nation", ["n_nationkey", "n_name"]),
                   "s_nationkey", "n_nationkey")
    return pa.table({"s_suppkey": pc.cast(out["s_suppkey"], pa.int64()),
                     "s_name": out["s_name"], "n_name": out["n_name"]})


# ---------------------------------------------------------------------------
# Q21: suppliers who kept orders waiting (multi-EXISTS per-order logic)
# ---------------------------------------------------------------------------

_Q21_LATE_DAYS = 60


def q21_waiting_suppliers(sf_dir: str):
    """TPC-H Q21 shape: for finished multi-supplier orders where
    EXACTLY ONE supplier shipped late, count such orders per guilty
    supplier (no commit/receipt dates -> late means shipped more than
    60 days after the order date; counting distinct orders, not
    lineitems, keeps the EXISTS/NOT-EXISTS pair's semantics). Plan:
    the order date/status decorate via the unique-key lookup join;
    (orderkey, suppkey, any_late) dedups in-batch before its groupby;
    the per-order collapse is one more groupby emitting (n_supp,
    n_late, sum(late*suppkey)) — when n_late == 1 that sum IS the
    guilty suppkey, so no re-join with the lineitems is needed; the
    final count is supplier-cardinality and decorates driver-side."""
    from ray.data.aggregate import Count, Max, Sum

    from .stages.joins import hash_join

    orders = _read(sf_dir, "orders",
                   columns=["o_orderkey", "o_orderdate"],
                   filter=(pads.field("o_orderstatus") == "F"))
    li = _read(sf_dir, "lineitem",
               columns=["l_orderkey", "l_suppkey", "l_shipdate"])
    joined = hash_join(li, orders, "l_orderkey", "o_orderkey")

    def pair_partials(batch: pa.Table) -> pa.Table:
        late_cut = pc.add(batch.column("o_orderdate"),
                          pa.scalar(datetime.timedelta(
                              days=_Q21_LATE_DAYS)))
        late = pc.greater(batch.column("l_shipdate"), late_cut) \
            .to_numpy(zero_copy_only=False).astype(np.int64)
        df = pd.DataFrame({
            "o": _np(batch.column("l_orderkey"), np.int64),
            "s": _np(batch.column("l_suppkey"), np.int64),
            "late": late})
        g = df.groupby(["o", "s"], sort=False)["late"].max().reset_index()
        return pa.table({"l_orderkey": pa.array(g["o"].to_numpy(),
                                                pa.int64()),
                         "l_suppkey": pa.array(g["s"].to_numpy(),
                                               pa.int64()),
                         "late": pa.array(g["late"].to_numpy(), pa.int64())})

    pairs = (joined.map_batches(pair_partials, batch_format="pyarrow",
                                zero_copy_batch=True)
             .groupby(["l_orderkey", "l_suppkey"])
             .aggregate(Max("late", alias_name="late")))

    def order_partials(batch: pa.Table) -> pa.Table:
        late = _np(batch.column("late"), np.int64)
        sk = _np(batch.column("l_suppkey"), np.int64)
        df = pd.DataFrame({
            "o": _np(batch.column("l_orderkey"), np.int64),
            "n_supp": np.ones(len(sk), np.int64),
            "n_late": late, "late_supp": late * sk})
        g = df.groupby("o", sort=False).sum()
        return pa.table({
            "l_orderkey": pa.array(g.index.to_numpy(), pa.int64()),
            "n_supp": pa.array(g["n_supp"].to_numpy(), pa.int64()),
            "n_late": pa.array(g["n_late"].to_numpy(), pa.int64()),
            "late_supp": pa.array(g["late_supp"].to_numpy(), pa.int64())})

    per_order = (pairs.map_batches(order_partials, batch_format="pyarrow",
                                   zero_copy_batch=True)
                 .groupby("l_orderkey")
                 .aggregate(Sum("n_supp", alias_name="n_supp"),
                            Sum("n_late", alias_name="n_late"),
                            Sum("late_supp", alias_name="late_supp")))

    def guilty(batch: pa.Table) -> pa.Table:
        keep = pc.and_(pc.greater(batch.column("n_supp"), 1),
                       pc.equal(batch.column("n_late"), 1))
        return pa.table({"s_suppkey": batch.filter(keep)
                         .column("late_supp")})

    counts = (per_order.map_batches(guilty, batch_format="pyarrow",
                                    zero_copy_batch=True)
              .groupby("s_suppkey")
              .aggregate(Count(alias_name="numwait")))
    df = counts.to_pandas()  # supplier-cardinality
    supp = pq.read_table(os.path.join(sf_dir, "supplier.parquet"),
                         columns=["s_suppkey", "s_name"]).to_pandas()
    out = df.merge(supp, on="s_suppkey")
    g = out.groupby("s_name", sort=False)["numwait"].sum().reset_index()
    return pa.table({"s_name": pa.array(g["s_name"], pa.string()),
                     "numwait": pa.array(g["numwait"].to_numpy(),
                                         pa.int64())})


QUERIES = {
    "q5_local_supplier_volume": q5_local_supplier_volume,
    "q7_volume_shipping": q7_volume_shipping,
    "q13_customer_distribution": q13_customer_distribution,
    "q14_promo_revenue": q14_promo_revenue,
    "q15_top_supplier": q15_top_supplier,
    "q16_parts_supplier_count": q16_parts_supplier_count,
    "q17_small_qty_revenue": q17_small_qty_revenue,
    "q18_large_volume_customers": q18_large_volume_customers,
    "q19_discounted_revenue": q19_discounted_revenue,
    "q22_sales_opportunity": q22_sales_opportunity,
    "q8_market_share": q8_market_share,
    "q9_product_profit": q9_product_profit,
    "q11_important_parts": q11_important_parts,
    "q12_shipping_priority_classes": q12_shipping_priority_classes,
    "q20_heavy_part_suppliers": q20_heavy_part_suppliers,
    "q21_waiting_suppliers": q21_waiting_suppliers,
}

ORACLES = {
    "q5_local_supplier_volume": """
        SELECT n_name, ROUND(SUM(l_extendedprice * (1 - l_discount)), 2)
                   AS revenue
        FROM customer
        JOIN orders ON c_custkey = o_custkey
        JOIN lineitem ON l_orderkey = o_orderkey
        JOIN supplier ON l_suppkey = s_suppkey
                     AND s_nationkey = c_nationkey
        JOIN nation ON c_nationkey = n_nationkey
        JOIN region ON n_regionkey = r_regionkey
        WHERE r_name = 'ASIA'
          AND o_orderdate >= TIMESTAMP '1996-01-01'
          AND o_orderdate < TIMESTAMP '1997-01-01'
        GROUP BY n_name
    """,
    "q7_volume_shipping": """
        SELECT supp_nation, cust_nation, l_year,
               CAST(COUNT(*) AS BIGINT) AS n,
               ROUND(SUM(volume), 2) AS revenue
        FROM (SELECT n1.n_name AS supp_nation, n2.n_name AS cust_nation,
                     CAST(EXTRACT(year FROM l_shipdate) AS BIGINT)
                         AS l_year,
                     l_extendedprice * (1 - l_discount) AS volume
              FROM supplier
              JOIN lineitem ON s_suppkey = l_suppkey
              JOIN orders ON o_orderkey = l_orderkey
              JOIN customer ON c_custkey = o_custkey
              JOIN nation n1 ON s_nationkey = n1.n_nationkey
              JOIN nation n2 ON c_nationkey = n2.n_nationkey
              WHERE ((n1.n_name = 'NATION_3' AND n2.n_name = 'NATION_8')
                  OR (n1.n_name = 'NATION_8' AND n2.n_name = 'NATION_3'))
                AND l_shipdate >= TIMESTAMP '1995-01-01'
                AND l_shipdate < TIMESTAMP '1997-01-01') shipping
        GROUP BY supp_nation, cust_nation, l_year
    """,
    "q13_customer_distribution": """
        SELECT c_count, CAST(COUNT(*) AS BIGINT) AS custdist
        FROM (SELECT c_custkey,
                     CAST(COUNT(o_orderkey) AS BIGINT) AS c_count
              FROM customer
              LEFT JOIN orders ON c_custkey = o_custkey
                              AND o_orderpriority <> '1-URGENT'
              GROUP BY c_custkey) c_orders
        GROUP BY c_count
    """,
    "q14_promo_revenue": """
        SELECT ROUND(100.0 * SUM(CASE WHEN p_type = 'PROMO'
                     THEN l_extendedprice * (1 - l_discount)
                     ELSE 0 END)
               / SUM(l_extendedprice * (1 - l_discount)), 4) AS promo_pct
        FROM lineitem
        JOIN part ON l_partkey = p_partkey
        WHERE l_shipdate >= TIMESTAMP '1996-09-01'
          AND l_shipdate < TIMESTAMP '1996-10-01'
    """,
    "q15_top_supplier": """
        WITH rev AS (
            SELECT l_suppkey,
                   ROUND(SUM(l_extendedprice * (1 - l_discount)), 2)
                       AS total_revenue
            FROM lineitem
            WHERE l_shipdate >= TIMESTAMP '1996-01-01'
              AND l_shipdate < TIMESTAMP '1996-04-01'
            GROUP BY l_suppkey)
        SELECT s_suppkey, s_name, total_revenue
        FROM supplier JOIN rev ON s_suppkey = l_suppkey
        WHERE total_revenue = (SELECT MAX(total_revenue) FROM rev)
    """,
    "q16_parts_supplier_count": """
        SELECT p_brand, p_type, p_size,
               CAST(COUNT(DISTINCT l_suppkey) AS BIGINT) AS supplier_cnt
        FROM lineitem
        JOIN part ON p_partkey = l_partkey
        WHERE p_brand <> 'Brand#21'
          AND p_size IN (1, 4, 7, 10, 13)
          AND l_suppkey NOT IN (SELECT s_suppkey FROM supplier
                                WHERE s_acctbal < 0)
        GROUP BY p_brand, p_type, p_size
    """,
    "q17_small_qty_revenue": """
        SELECT ROUND(SUM(l_extendedprice) / 7.0, 2) AS avg_yearly
        FROM lineitem
        JOIN part ON p_partkey = l_partkey
        WHERE p_brand = 'Brand#23'
          AND l_quantity < (SELECT ROUND(0.5 * AVG(l2.l_quantity), 6)
                            FROM lineitem l2
                            WHERE l2.l_partkey = lineitem.l_partkey)
    """,
    "q18_large_volume_customers": """
        SELECT o_orderkey, o_custkey, o_orderdate, o_totalprice,
               sum_qty, c_name
        FROM (SELECT l_orderkey, SUM(l_quantity) AS sum_qty
              FROM lineitem GROUP BY l_orderkey
              HAVING SUM(l_quantity) > 250) big
        JOIN orders ON o_orderkey = l_orderkey
        JOIN customer ON c_custkey = o_custkey
        ORDER BY o_totalprice DESC, o_orderdate, o_orderkey
        LIMIT 100
    """,
    "q19_discounted_revenue": """
        SELECT ROUND(SUM(l_extendedprice * (1 - l_discount)), 2)
                   AS revenue
        FROM lineitem
        JOIN part ON p_partkey = l_partkey
        WHERE (p_brand = 'Brand#12' AND p_size BETWEEN 1 AND 15
               AND l_quantity BETWEEN 1 AND 11)
           OR (p_brand = 'Brand#23' AND p_size BETWEEN 1 AND 25
               AND l_quantity BETWEEN 10 AND 20)
           OR (p_brand = 'Brand#34' AND p_size BETWEEN 1 AND 35
               AND l_quantity BETWEEN 20 AND 30)
    """,
    "q22_sales_opportunity": """
        SELECT CAST(c_nationkey AS BIGINT) AS cntrycode,
               CAST(COUNT(*) AS BIGINT) AS numcust,
               ROUND(SUM(c_acctbal), 2) AS totacctbal
        FROM customer
        WHERE c_acctbal > (SELECT ROUND(AVG(c_acctbal), 6) FROM customer
                           WHERE c_acctbal > 0)
          AND NOT EXISTS (SELECT 1 FROM orders
                          WHERE o_custkey = c_custkey
                            AND o_orderdate >= TIMESTAMP '2000-01-01')
        GROUP BY c_nationkey
    """,
    "q8_market_share": """
        SELECT o_year,
               ROUND(SUM(CASE WHEN nation = 'NATION_8' THEN volume
                              ELSE 0 END) / SUM(volume), 6) AS mkt_share
        FROM (SELECT CAST(EXTRACT(year FROM o_orderdate) AS BIGINT)
                         AS o_year,
                     l_extendedprice * (1 - l_discount) AS volume,
                     n2.n_name AS nation
              FROM part
              JOIN lineitem ON p_partkey = l_partkey
              JOIN supplier ON s_suppkey = l_suppkey
              JOIN orders ON l_orderkey = o_orderkey
              JOIN customer ON o_custkey = c_custkey
              JOIN nation n1 ON c_nationkey = n1.n_nationkey
              JOIN region ON n1.n_regionkey = r_regionkey
              JOIN nation n2 ON s_nationkey = n2.n_nationkey
              WHERE r_name = 'ASIA'
                AND o_orderdate >= TIMESTAMP '1995-01-01'
                AND o_orderdate < TIMESTAMP '1997-01-01'
                AND p_type = 'STANDARD') all_nations
        GROUP BY o_year
    """,
    "q9_product_profit": """
        -- per-row exact cents (FLOOR(100x+0.5) matches numpy bit for
        -- bit) summed as BIGINT: order-independent, no .xx5 boundary
        SELECT nation, o_year,
               ROUND(SUM(cents) / 100.0, 2) AS sum_profit
        FROM (SELECT n_name AS nation,
                     CAST(EXTRACT(year FROM o_orderdate) AS BIGINT)
                         AS o_year,
                     CAST(FLOOR(100 * (l_extendedprice * (1 - l_discount)
                         - 0.6 * p_retailprice * l_quantity) + 0.5)
                         AS BIGINT) AS cents
              FROM part
              JOIN lineitem ON p_partkey = l_partkey
              JOIN supplier ON s_suppkey = l_suppkey
              JOIN orders ON o_orderkey = l_orderkey
              JOIN nation ON s_nationkey = n_nationkey
              WHERE p_name LIKE '%widget%') profit
        GROUP BY nation, o_year
    """,
    "q11_important_parts": """
        WITH pv AS (
            SELECT l_partkey,
                   ROUND(SUM(l_extendedprice * (1 - l_discount)), 2)
                       AS value
            FROM lineitem
            JOIN supplier ON l_suppkey = s_suppkey
            JOIN nation ON s_nationkey = n_nationkey
            WHERE n_name = 'NATION_8'
            GROUP BY l_partkey)
        SELECT l_partkey, value FROM pv
        WHERE value > (SELECT ROUND(0.002 * SUM(value), 2) FROM pv)
    """,
    "q12_shipping_priority_classes": """
        SELECT l_returnflag,
               CAST(SUM(CASE WHEN o_orderpriority IN
                                  ('1-URGENT', '2-HIGH')
                             THEN 1 ELSE 0 END) AS BIGINT)
                   AS high_line_count,
               CAST(SUM(CASE WHEN o_orderpriority NOT IN
                                  ('1-URGENT', '2-HIGH')
                             THEN 1 ELSE 0 END) AS BIGINT)
                   AS low_line_count
        FROM lineitem
        JOIN orders ON l_orderkey = o_orderkey
        WHERE l_shipdate >= TIMESTAMP '1996-01-01'
          AND l_shipdate < TIMESTAMP '1997-01-01'
          AND l_returnflag IN ('R', 'A')
        GROUP BY l_returnflag
    """,
    "q20_heavy_part_suppliers": """
        SELECT CAST(s_suppkey AS BIGINT) AS s_suppkey, s_name, n_name
        FROM supplier
        JOIN nation ON s_nationkey = n_nationkey
        WHERE s_suppkey IN (
              SELECT l_suppkey FROM lineitem
              WHERE l_partkey IN (SELECT p_partkey FROM part
                                  WHERE p_name LIKE 'large %')
                AND l_shipdate >= TIMESTAMP '1996-01-01'
                AND l_shipdate < TIMESTAMP '1997-01-01'
              GROUP BY l_suppkey, l_partkey
              HAVING SUM(l_quantity) > 50)
    """,
    "q21_waiting_suppliers": """
        WITH per AS (
            SELECT l_orderkey, l_suppkey,
                   MAX(CASE WHEN l_shipdate >
                                 o_orderdate + INTERVAL 60 DAY
                            THEN 1 ELSE 0 END) AS late
            FROM lineitem
            JOIN orders ON o_orderkey = l_orderkey
            WHERE o_orderstatus = 'F'
            GROUP BY l_orderkey, l_suppkey),
        ord AS (
            SELECT l_orderkey,
                   COUNT(*) AS n_supp,
                   SUM(late) AS n_late,
                   SUM(late * l_suppkey) AS late_supp
            FROM per GROUP BY l_orderkey)
        SELECT s_name, CAST(COUNT(*) AS BIGINT) AS numwait
        FROM ord
        JOIN supplier ON s_suppkey = late_supp
        WHERE n_supp > 1 AND n_late = 1
        GROUP BY s_name
    """,
}
