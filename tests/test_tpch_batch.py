"""TPC-H breadth batch (Q5/Q7/Q13/Q14/Q15/Q16/Q17/Q18/Q19/Q22
analogs): every query checked against its own DuckDB oracle at
sf0.001 — the same comparison the driver's correctness gate runs
(row count + column names + order-insensitive values)."""

import os

import duckdb
import pandas as pd
import pytest

SF_DIR = "/root/testdata/sf0.001"
TABLES = ("region nation customer supplier part orders lineitem "
          "events documents embeddings").split()


def _oracle(sql: str) -> pd.DataFrame:
    con = duckdb.connect()
    for t in TABLES:
        p = os.path.join(SF_DIR, f"{t}.parquet")
        if os.path.exists(p):
            con.execute(
                f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{p}')")
    out = con.sql(sql).df()
    con.close()
    return out


def _canon(df: pd.DataFrame) -> pd.DataFrame:
    df = df.reindex(sorted(df.columns), axis=1)
    for c in df.columns:
        if df[c].dtype == object:
            df[c] = df[c].astype(str)
        elif str(df[c].dtype).startswith("float"):
            df[c] = df[c].round(6)
    return df.sort_values(list(df.columns),
                          kind="mergesort").reset_index(drop=True)


NAMES = ["q5_local_supplier_volume", "q7_volume_shipping",
         "q13_customer_distribution", "q14_promo_revenue",
         "q15_top_supplier", "q16_parts_supplier_count",
         "q17_small_qty_revenue", "q18_large_volume_customers",
         "q19_discounted_revenue", "q22_sales_opportunity",
         "q8_market_share", "q9_product_profit", "q11_important_parts",
         "q12_shipping_priority_classes", "q20_heavy_part_suppliers",
         "q21_waiting_suppliers"]


@pytest.mark.parametrize("name", NAMES)
def test_tpch_query_matches_duckdb(ray_session, name):
    import pyarrow as pa

    import ray.data
    from full_text_extractor_v6_ray import driver_queries_tpch as t

    got = t.QUERIES[name](SF_DIR)
    if isinstance(got, ray.data.Dataset):
        got = got.to_pandas()
    elif isinstance(got, pa.Table):
        got = got.to_pandas()
    exp = _oracle(t.ORACLES[name])
    a, b = _canon(got.copy()), _canon(exp.copy())
    assert list(a.columns) == list(b.columns)
    assert len(a) == len(b), f"{name}: rows {len(a)} != {len(b)}"
    pd.testing.assert_frame_equal(a, b, check_dtype=False)


def test_sorted_lookup_empty_keys(ray_session):
    # a dimension filter matching zero rows must mean "every probe
    # misses" (inner: no row, left: typed nulls), not an error inside
    # worker tasks
    import pyarrow as pa

    import ray.data
    from full_text_extractor_v6_ray.stages.joins import broadcast_join

    left = ray.data.from_arrow(pa.table({"k": pa.array([1, 2, 3])}))
    dim = pa.table({"dk": pa.array([], pa.int64()),
                    "n": pa.array([], pa.int64()),
                    "s": pa.array([], pa.string())})
    assert broadcast_join(left, dim, "k", "dk").count() == 0
    got = broadcast_join(left, dim, "k", "dk", how="left")
    assert got.take_all() == [{"k": k, "n": None, "s": None}
                              for k in (1, 2, 3)]
    assert got.schema().types == [pa.int64(), pa.int64(), pa.string()]


def test_q3_shipping_priority_is_one_execution(ray_session,
                                               count_executions):
    """Both join sides' schemas are known from the plan: consuming the
    query is ONE Ray execution (no one-row schema probe re-runs a
    side), and it still matches its oracle."""
    from full_text_extractor_v6_ray import driver_queries as dq

    count_executions.clear()
    got = dq.QUERIES["q3_shipping_priority"](SF_DIR).to_pandas()
    assert len(count_executions) == 1, count_executions
    exp = _oracle(dq.ORACLES["q3_shipping_priority"])
    a, b = _canon(got), _canon(exp)
    assert list(a.columns) == list(b.columns)
    pd.testing.assert_frame_equal(a, b, check_dtype=False)


def test_returned_revenue_bytes_do_not_depend_on_block_order(ray_session):
    """The per-customer revenue of ``returned_revenue_topk`` is summed
    exactly: the same lineitem rows, in two block orders, give the same
    bytes, and the exact cents. Summed in float in any order, these four
    rows round to 1428183.3599999999."""
    import pyarrow as pa
    import ray
    import ray.data

    from full_text_extractor_v6_ray import driver_queries as dq

    prices = [145055.86, 393795.14, 524888.24, 465558.24]
    discounts = [0.02, 0.1, 0.05, 0.07]
    blocks = [pa.table({"l_orderkey": pa.array([k], pa.int64()),
                        "l_extendedprice": [p], "l_discount": [d]})
              for k, (p, d) in enumerate(zip(prices, discounts))]
    orders = ray.data.from_arrow(pa.table({
        "o_orderkey": pa.array(range(4), pa.int64()),
        "o_custkey": pa.array([7] * 4, pa.int64())}))

    def revenue(bs):
        refs = dq._revenue_by_customer(ray.data.from_arrow(bs),
                                       orders).to_arrow_refs()
        return pa.concat_tables(t for t in ray.get(refs) if t.num_rows)

    got = [revenue(bs) for bs in (blocks, blocks[::-1])]
    assert got[0].to_pylist() == [{"o_custkey": 7, "revenue": 1428183.36}]
    assert got[1].equals(got[0])
