"""End-to-end Ray Data pipeline tests on /root/testdata/sf0.001."""

import os

import pandas as pd
import pyarrow.parquet as pq
import pytest

SF_DIR = "/root/testdata/sf0.001"


@pytest.fixture(scope="module")
def extracted_df(ray_session):
    from full_text_extractor_v6_ray.pipelines import extraction_pipeline

    ds = extraction_pipeline(SF_DIR, dedup=False)
    return ds.to_pandas()


def test_row_count_matches_generator(extracted_df):
    docs = pq.read_metadata(os.path.join(SF_DIR, "documents.parquet")).num_rows
    dups = sum(1 for d in range(docs) if d % 17 == 0)
    assert len(extracted_df) == docs + 2 * dups


def test_html_column_dropped(extracted_df):
    assert "html" not in extracted_df.columns


def test_no_errors_on_synthetic_corpus(extracted_df):
    assert (extracted_df["method"] != "error").all()
    assert (extracted_df["extracted_text"].str.len() > 0).all()


def test_pipeline_matches_driver_side_extraction(extracted_df):
    """Distributed result == single-process pure-library result, byte-for-byte."""
    from full_text_extractor_v6_ray.sources.pages_gen import pages_table_from_documents
    from full_text_extractor_v6_ray.stages.extract import ExtractBatch

    docs = pq.read_table(os.path.join(SF_DIR, "documents.parquet"))
    local = ExtractBatch()(pages_table_from_documents(docs)).to_pandas()

    left = extracted_df.sort_values(["url", "warc_ts"]).reset_index(drop=True)
    right = local.sort_values(["url", "warc_ts"]).reset_index(drop=True)
    assert list(left["extracted_text"]) == list(right["extracted_text"])


def test_dedup_keeps_latest(ray_session):
    from full_text_extractor_v6_ray.pipelines import extraction_pipeline

    ds = extraction_pipeline(SF_DIR, dedup=True)
    df = ds.to_pandas()
    docs = pq.read_metadata(os.path.join(SF_DIR, "documents.parquet")).num_rows
    assert len(df) == docs                      # one row per unique url
    assert df["url"].is_unique

    # duplicated urls must keep the LATEST warc_ts version
    nodedup = extraction_pipeline(SF_DIR, dedup=False).to_pandas()
    expect = (nodedup.sort_values("warc_ts").groupby("url", as_index=False)
              .last()[["url", "warc_ts"]])
    got = df[["url", "warc_ts"]].sort_values("url").reset_index(drop=True)
    expect = expect.sort_values("url").reset_index(drop=True)
    pd.testing.assert_frame_equal(got, expect)


def test_write_parquet_roundtrip(ray_session, tmp_path):
    from full_text_extractor_v6_ray.pipelines import extraction_pipeline

    out = str(tmp_path / "out")
    extraction_pipeline(SF_DIR, dedup=True, out_dir=out)
    back = pq.read_table(out)
    assert back.num_rows == pq.read_metadata(
        os.path.join(SF_DIR, "documents.parquet")).num_rows
    assert "extracted_text" in back.column_names


def _mixed_pages(n: int):
    """n pages cycling through html, gzip>html, pdf, .doc, .xls, .docx and
    an undecodable payload, over the sf0.001 documents' text."""
    import gzip
    import io
    import zipfile

    import pyarrow as pa

    from full_text_extractor_v6_ray.extractor.ole2 import build_doc, build_xls
    from full_text_extractor_v6_ray.sources.pages_gen import (
        PAGES_SCHEMA,
        build_page_row,
    )

    docs = pq.read_table(os.path.join(SF_DIR, "documents.parquet"),
                         columns=["doc_id", "text", "lang", "source"]
                         ).to_pylist()

    def docx(paras):
        buf = io.BytesIO()
        with zipfile.ZipFile(buf, "w") as zf:
            zf.writestr("word/document.xml", "<w:document><w:body>" + "".join(
                f"<w:p><w:r><w:t>{p}</w:t></w:r></w:p>" for p in paras)
                + "</w:body></w:document>")
        return buf.getvalue()

    rows = []
    for i in range(n):
        d = docs[i % len(docs)]
        doc_id = 1 + 50 * i                # never a PDF page id (3 mod 50)
        page = build_page_row(doc_id, d["text"], d["lang"], d["source"])[0]
        words = d["text"].split()
        paras = [" ".join(words[j:j + 12]) for j in range(0, len(words), 12)]
        body = [
            page["html"],
            gzip.compress(page["html"], 6, mtime=0),
            build_page_row(doc_id + 2, d["text"], d["lang"],
                           d["source"])[0]["html"],
            build_doc(paras),
            build_xls([("S", [["word", "len"]]
                        + [[w, len(w)] for w in words[:8]])]),
            docx(paras),
            b"\x00\x01garbage" * 8,
        ][i % 7]
        rows.append({**page, "url": f"https://mix.ex/{i}", "html": body,
                     "text": ""})
    return pa.Table.from_pylist(rows, schema=PAGES_SCHEMA)


def test_extract_batch_bytes_do_not_depend_on_the_batch():
    """ExtractBatch walks any batch in BATCH_SIZE-row slices: one call over
    3 x BATCH_SIZE + 1 mixed-kind pages gives exactly the schema and bytes
    of the per-slice calls concatenated, and of the per-row calls."""
    import pyarrow as pa

    from full_text_extractor_v6_ray.stages.extract import (
        BATCH_SIZE,
        EXTRACTED_SCHEMA,
        ExtractBatch,
    )

    def ipc(t: pa.Table) -> bytes:
        sink = pa.BufferOutputStream()
        with pa.ipc.new_stream(sink, t.schema) as w:
            w.write_table(t.combine_chunks())
        return sink.getvalue().to_pybytes()

    n = 3 * BATCH_SIZE + 1
    pages = _mixed_pages(n)
    eb = ExtractBatch()
    whole = eb(pages)
    assert whole.schema == EXTRACTED_SCHEMA
    assert {"html", "gzip>html", "pdf", "doc", "xls", "docx", "error"} <= set(
        whole.column("method").to_pylist())
    for step in (BATCH_SIZE, 1):
        parts = pa.concat_tables([eb(pages.slice(i, step))
                                  for i in range(0, n, step)])
        assert parts.schema == whole.schema
        assert ipc(parts) == ipc(whole)


def test_extract_pages_fuses_into_the_parquet_read(ray_session, tmp_path):
    """extract_pages over k parquet files is ONE operator, the read fused
    with the extraction, one task per file. Two files per cluster CPU keep
    Ray from splitting the read blocks (a split read never fuses)."""
    import ray
    import ray.data

    from full_text_extractor_v6_ray.pipelines import extract_pages
    from full_text_extractor_v6_ray.testing import count_executions

    k = 2 * int(ray.cluster_resources()["CPU"])
    pages = _mixed_pages(3 * k)
    files = [str(tmp_path / f"pages-{f}.parquet") for f in range(k)]
    for f, path in enumerate(files):
        pq.write_table(pages.slice(3 * f, 3), path)
    with count_executions() as runs:
        out = extract_pages(ray.data.read_parquet(files)).materialize()
    assert out.count() == 3 * k
    [run] = runs
    assert run.tasks() == [("Input", 0),
                           ("ReadParquet->MapBatches(ExtractBatch)", k)
                           ], run.tasks()
