import pyarrow as pa

from full_text_extractor_v6_ray.stages.metadata import (
    data_island_batch,
    page_metadata_batch,
)


def _pages(htmls):
    return pa.table({
        "url": pa.array([f"u{i}" for i in range(len(htmls))], pa.string()),
        "html": pa.array([h.encode() for h in htmls], pa.binary()),
    })


def test_page_metadata_completeness():
    out = page_metadata_batch(_pages([
        "<html lang='en'><head><title>T</title>"
        "<meta name='description' content='d'>"
        "<meta name='author' content='Jo Writer'>"
        "<meta property='article:published_time' content='2025-03-01T00:00:00'>"
        "</head><h1>H</h1></html>",
        "<html lang='en'><head><title>T</title>"
        "<meta name='description' content='d'></head><h1>H</h1></html>",
        "<html><body><p>bare</p></body></html>",
    ]))
    assert out["completeness"].to_pylist() == [1.0, round(4 / 6, 6), 0.0]
    assert out["lang_attr"].to_pylist() == ["en", "en", ""]
    assert out["author"].to_pylist() == ["Jo Writer", "", ""]
    assert out["published"].to_pylist() == ["2025-03-01T00:00:00", "", ""]


def test_page_metadata_jsonld_fallback():
    """JSON-LD supplies author/dates when meta/OpenGraph tags are absent;
    meta tags win when both exist."""
    ld = ('<script type="application/ld+json">{"@type": "Article", '
          '"datePublished": "2024-01-02T03:04:05", '
          '"dateModified": "2024-02-02T03:04:05", '
          '"author": {"@type": "Person", "name": "Ld Author"}}</script>')
    out = page_metadata_batch(_pages([
        f"<html><head>{ld}</head><body><p>x</p></body></html>",
        f"<html><head><meta name='author' content='Meta Author'>{ld}"
        f"</head><body><p>x</p></body></html>",
    ]))
    assert out["author"].to_pylist() == ["Ld Author", "Meta Author"]
    assert out["published"].to_pylist()[0] == "2024-01-02T03:04:05"
    assert out["modified"].to_pylist()[0] == "2024-02-02T03:04:05"


def test_chart_series_extraction():
    from full_text_extractor_v6_ray.stages.metadata import chart_series_batch

    chart = ('<script type="application/json">{"chart": {"type": "bar", '
             '"title": "T metrics", "categories": ["Q1", "Q2"], '
             '"series": [{"name": "s0", "values": [1.5, 2.5]}, '
             '{"name": "s1", "values": [3, 4]}]}}</script>')
    plain = '<script type="application/json">{"a": 1}</script>'
    out = chart_series_batch(_pages([chart + plain, "<p>none</p>"]))
    assert out["series_name"].to_pylist() == ["s0", "s1"]
    assert out["chart_type"].to_pylist() == ["bar", "bar"]
    assert out["categories"].to_pylist() == ["Q1,Q2", "Q1,Q2"]
    assert out["series_values"].to_pylist() == [[1.5, 2.5], [3.0, 4.0]]
    assert out["values_sum"].to_pylist() == [4.0, 7.0]


def test_data_islands_parse_and_skip_invalid():
    out = data_island_batch(_pages([
        '<script type="application/json">{"a": 1, "b": [1,2]}</script>'
        '<script type="application/ld+json">[1,2,3]</script>'
        '<script type="application/json">{invalid</script>',
        "<p>none</p>",
    ]))
    assert out["url"].to_pylist() == ["u0", "u0"]
    assert out["kind"].to_pylist() == ["object", "array"]
    assert out["top_keys"].to_pylist()[0] == "a,b"
    assert out["n_items"].to_pylist() == [2, 3]


def test_diagram_score_ladder():
    """Reference diagram_analyzer 7-rule + ladder analog: a page built of
    svg/images/short labels/flow words scores high; prose scores low."""
    from full_text_extractor_v6_ray.stages.diagram import DiagramScoreBatch

    diagrammy = (
        "<h1>Process Flow Diagram</h1>"
        "<svg><rect/></svg>"
        "<img src='a.png' alt='Flowchart of the approval workflow steps'>"
        "<figure><img src='b.png' alt='Pipeline architecture sequence'>"
        "</figure><img src='c.png' alt='Create and send then receive'>"
        "<p>Start here</p><p>Validate input</p><p>Approve or end</p>"
        "<ul><li>Step one</li><li>Step two</li></ul>"
    )
    prose = "".join(
        f"<p>{'word ' * 80}sentence number {i} of a long article.</p>"
        for i in range(6))
    out = DiagramScoreBatch()(_pages([diagrammy, prose]))
    scores = out["diagram_score"].to_pylist()
    probs = out["diagram_prob"].to_pylist()
    assert scores[0] >= 60 and probs[0] == 0.95
    assert scores[1] < 20 and probs[1] == 0.10
    assert "svg" in out["reasons"].to_pylist()[0]


def test_diagram_score_deterministic_and_never_raises():
    from full_text_extractor_v6_ray.stages.diagram import DiagramScoreBatch

    batch = pa.table({
        "url": pa.array(["u0"], pa.string()),
        "html": pa.array([b"\x00\xffnot html"], pa.binary()),
    })
    a = DiagramScoreBatch()(batch)
    b = DiagramScoreBatch()(batch)
    assert a["diagram_score"].to_pylist() == b["diagram_score"].to_pylist()
    assert a["diagram_prob"].to_pylist()[0] in (0.10, 0.40, 0.75, 0.95)


def test_generated_pages_carry_islands():
    import pyarrow.parquet as pq

    from full_text_extractor_v6_ray.sources.pages_gen import (
        pages_table_from_documents,
    )

    docs = pq.read_table("/root/testdata/sf0.001/documents.parquet").slice(0, 20)
    pages = pages_table_from_documents(docs)
    out = data_island_batch(pages)
    # every html page has a parseable island with doc_id/lang/n_words;
    # even doc_ids add a JSON-LD Article island, %10==2 adds a chart island
    assert out.num_rows >= 18
    keys = set(out["top_keys"].to_pylist())
    assert "doc_id,lang,n_words" in keys
    assert any("@context" in k for k in keys)    # JSON-LD present
    assert "chart" in keys                        # chart island present


def test_page_metadata_canonical_and_robots():
    from full_text_extractor_v6_ray.stages.metadata import page_metadata_batch

    out = page_metadata_batch(_pages([
        "<html><head><link rel='canonical' href='https://x.io/a'>"
        "<meta name='robots' content='noindex, nofollow'></head></html>",
        "<html><head><link href='https://y.io/b' rel='canonical'>"
        "<meta name='robots' content='index, follow'></head></html>",
        "<html><body>none</body></html>",
    ]))
    assert out["canonical"].to_pylist() == ["https://x.io/a",
                                            "https://y.io/b", ""]
    assert out["noindex"].to_pylist() == [True, False, False]


def test_robots_meta_attribute_order_robust():
    """content-before-name attribute order must still detect noindex
    (mirrors the canonical-link order robustness)."""
    from full_text_extractor_v6_ray.stages.metadata import page_metadata_batch

    out = page_metadata_batch(_pages([
        "<html><head><meta content='noindex' name='robots'></head></html>",
        "<html><head><meta content='index, follow' name='robots'>"
        "</head></html>",
    ]))
    assert out["noindex"].to_pylist() == [True, False]
