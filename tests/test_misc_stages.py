"""Remaining stage coverage: hot-key combined aggregate, links CSV
sink, generation invariance to batch splits."""

import os

import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq


def test_combined_count_sum_equals_plain_groupby(ray_session):
    """A hot key's count/sum combined per batch, then one keyed
    exchange (the events_type_count_salted shape) == pandas groupby."""
    import ray.data
    from full_text_extractor_v6_ray.stages.dedup import bucketed_group_agg

    df = pd.DataFrame({
        "k": ["hot"] * 500 + ["a"] * 20 + ["b"] * 3,
        "v": range(523),
    })

    def partial(batch: pa.Table) -> pa.Table:
        g = batch.group_by("k").aggregate([([], "count_all"), ("v", "sum")])
        return g.rename_columns(["k", "n_rows", "total"])

    got = bucketed_group_agg(
        ray.data.from_pandas(df).repartition(8).map_batches(
            partial, batch_format="pyarrow"),
        "k", [("n_rows", "sum"), ("total", "sum")]).to_pandas()
    exp = df.groupby("k").agg(n_rows=("v", "count"),
                              total=("v", "sum")).reset_index()
    got = got.sort_values("k").reset_index(drop=True)
    exp = exp.sort_values("k").reset_index(drop=True)
    pd.testing.assert_frame_equal(
        got[["k", "n_rows", "total"]].astype({"n_rows": "int64"}),
        exp.astype({"n_rows": "int64"}), check_dtype=False)


def test_write_links_csv(ray_session, tmp_path):
    import ray.data
    from full_text_extractor_v6_ray.stages.links import write_links_csv

    links = ray.data.from_arrow(pa.table({
        "url": pa.array(["u1", "u2"], pa.string()),
        "link_text": pa.array(["a", "b"], pa.string()),
        "link_url": pa.array(["https://x", "https://y"], pa.string()),
    }))
    out = str(tmp_path / "links_csv")
    write_links_csv(links, out)
    files = [f for f in os.listdir(out) if f.endswith(".csv")]
    assert files
    back = pd.concat([pd.read_csv(os.path.join(out, f)) for f in files])
    assert sorted(back["url"]) == ["u1", "u2"]


def test_page_generation_invariant_to_batch_split():
    """Per-row purity: generating doc-by-doc equals generating all at once
    — the property that makes synthesis safe to parallelize arbitrarily."""
    from full_text_extractor_v6_ray.sources.pages_gen import PageGenBatch

    docs = pq.read_table("/root/testdata/sf0.001/documents.parquet",
                         columns=["doc_id", "text", "lang", "source"]
                         ).slice(0, 40)
    whole = PageGenBatch(42)(docs)
    parts = [PageGenBatch(42)(docs.slice(i, 1)) for i in range(40)]
    joined = pa.concat_tables(parts)
    assert whole.equals(joined)


def test_gopher_quality_flags_rules(ray_session):
    import ray.data

    from full_text_extractor_v6_ray.stages.text_ops import (
        gopher_quality_flags,
    )

    good = ("The quick brown fox jumps over the lazy dog and runs far "
            "away with great speed today. " * 8)
    short = "The cat sat with joy."                      # < 50 words
    bullets = "\n".join(f"• item {i} of the list" for i in range(20))
    symbols = ("the " * 60) + "# " * 30                   # symbol-heavy
    elliptical = "\n".join(
        f"the line {i} trails off..." for i in range(10))
    nonalpha = ("the be to of and that have with " +
                " ".join("123" for _ in range(100)))
    empty = ""

    docs = ray.data.from_arrow(pa.table({
        "doc_id": pa.array(range(7), pa.int64()),
        "text": pa.array([good, short, bullets, symbols, elliptical,
                          nonalpha, empty], pa.string()),
    }))
    rows = {r["doc_id"]: r
            for r in gopher_quality_flags(docs).take_all()}

    assert rows[0]["keep"] is True
    assert rows[0]["n_words"] == 136 and rows[0]["n_stop_words"] > 2

    assert rows[1]["keep"] is False            # too short
    assert rows[1]["n_words"] == 5

    assert rows[2]["keep"] is False            # all bullet lines
    assert rows[2]["bullet_frac"] == 1.0

    assert rows[3]["keep"] is False            # symbol ratio too high
    assert rows[3]["symbol_ratio"] > 0.1

    assert rows[4]["keep"] is False            # every line ends ...
    assert rows[4]["ellipsis_frac"] == 1.0

    assert rows[5]["keep"] is False            # alpha fraction too low
    assert rows[5]["alpha_frac"] < 0.8

    assert rows[6]["keep"] is False and rows[6]["n_words"] == 0
    assert rows[6]["mean_word_len"] == 0.0


def test_c4_quality_flags_rules(ray_session):
    import ray.data

    from full_text_extractor_v6_ray.stages.text_ops import (
        c4_quality_flags,
    )

    good = ("This is the first proper sentence.\n"
            "Here is another complete line of text!\n"
            "And a third one ends with a question mark?\n"
            "short.\n"                       # < 3 words -> dropped
            "no terminal punctuation here\n")
    braces = "A fine sentence here. { code }\nMore text follows now.\n"
    lorem = ("Lorem ipsum dolor sit amet.\nThe second line is real.\n"
             "A third sentence sits here.\n")
    js = ("Please enable JavaScript to view this page.\n"
          "Second real sentence here.\nThird real sentence too.\n")

    docs = ray.data.from_arrow(pa.table({
        "doc_id": pa.array(range(4), pa.int64()),
        "text": pa.array([good, braces, lorem, js], pa.string()),
    }))
    rows = {r["doc_id"]: r for r in c4_quality_flags(docs).take_all()}

    assert rows[0]["keep"] is True
    assert rows[0]["n_lines"] == 5 and rows[0]["n_kept_lines"] == 3
    assert rows[0]["kept_chars"] == (
        len("This is the first proper sentence.")
        + len("Here is another complete line of text!")
        + len("And a third one ends with a question mark?"))

    assert rows[1]["keep"] is False and rows[1]["has_brace"] is True
    assert rows[2]["keep"] is False and rows[2]["has_lorem"] is True
    assert rows[3]["keep"] is False and rows[3]["has_javascript"] is True


def test_line_repetition_flags(ray_session):
    import ray.data

    from full_text_extractor_v6_ray.stages.text_ops import (
        line_repetition_flags,
    )

    uniq = "alpha one\nbeta two\ngamma three"
    half_dup = "same line here\nsame line here\nother line"
    all_dup = "x y\nx y\nx y\nx y"
    empty = "\n\n  \n"

    docs = ray.data.from_arrow(pa.table({
        "doc_id": pa.array(range(4), pa.int64()),
        "text": pa.array([uniq, half_dup, all_dup, empty], pa.string()),
    }))
    rows = {r["doc_id"]: r
            for r in line_repetition_flags(docs).take_all()}

    assert rows[0]["n_lines"] == 3 and rows[0]["dup_line_frac"] == 0.0
    assert rows[0]["dup_line_char_frac"] == 0.0

    r1 = rows[1]
    assert r1["n_lines"] == 3
    assert abs(r1["dup_line_frac"] - (1 - 2 / 3)) < 1e-12
    dup_chars = 2 * len("same line here")
    total = dup_chars + len("other line")
    assert abs(r1["dup_line_char_frac"] - dup_chars / total) < 1e-12

    assert rows[2]["dup_line_frac"] == 0.75
    assert rows[2]["dup_line_char_frac"] == 1.0

    assert rows[3]["n_lines"] == 0
    assert rows[3]["dup_line_frac"] == 0.0
    assert rows[3]["dup_line_char_frac"] == 0.0
