"""Fast tokenizer parity: byte-identical output vs the stdlib path."""

import pyarrow.parquet as pq
import pytest

from full_text_extractor_v6_ray.extractor.html_blocks import (
    parse_html_blocks,
    score_and_filter,
)
from full_text_extractor_v6_ray.extractor.html_fast import parse_html_blocks_fast
from full_text_extractor_v6_ray.extractor.render import render_blocks

EDGE_CASES = [
    "<p>plain</p>",
    "<!DOCTYPE html><html><head><title>T &amp; U</title></head><body><p>x</p></body>",
    "<p>a < b and a > b</p>",                        # stray angle brackets
    "<p>unclosed <b>bold<p>next</i>",                # malformed nesting
    "<script>if (a<b) { x(); }</script><p>vis</p>",  # tags inside script
    "<style>.a{content:'<p>'}</style><p>y</p>",
    "<!-- comment with <p>tag</p> inside --><p>z</p>",
    "<p>self close<br/>line</p>",
    "<a href='x.com?a=1&amp;b=2'>q</a>",             # entity in attr
    "<p title=\"a&quot;b\">attr quotes</p>",
    "<ul><li>one<li>two</ul>",                       # unclosed li
    "<P>UPPER TAGS</P><B>BOLD</B>",
    "<div class='ad-box'><p>x</p></div><p>keep</p>",
    "<table><tr><td>a<td>b</table>",
    "<p></p><p>  </p><p>real</p>",
    "<img alt='Chart of things' src=x.png><img alt=''>",
    "text before any tag <p>then para</p> text after",
    "<p>entity zoo &amp; &#163; &nbsp; &#8212; &unknown; end</p>",
    "<p>trunca",                                     # truncated
    "<p>bad attr <span class=>x</span></p>",
    "<<<not html at all>>>",
    "",
    # rawtext whose content opens a comment / CDATA that its close tag cuts
    "<script>a<!--</script><p>hello world</p>-->",
    "<style>a<!--</style><p>x</p><p>two</p>",
    "<script>x=\"<!--\"</script><p>hello</p><!-- c --><p>after</p>",
    "<script>s=\"<![CDATA[\"</script><p>cdata</p>",
]


def _both(html: str):
    b1, t1, d1 = parse_html_blocks(html)
    b2, t2, d2 = parse_html_blocks_fast(html)
    k1, s1 = score_and_filter(b1)
    k2, s2 = score_and_filter(b2)
    return (render_blocks(k1, t1), d1, s1), (render_blocks(k2, t2), d2, s2)


@pytest.mark.parametrize("html", EDGE_CASES)
def test_edge_case_parity(html):
    slow, fast = _both(html)
    assert slow == fast


def test_full_corpus_parity():
    docs = pq.read_table("/root/testdata/sf0.001/documents.parquet")
    from full_text_extractor_v6_ray.sources.pages_gen import (
        pages_table_from_documents,
    )

    pages = pages_table_from_documents(docs)
    checked = 0
    for payload in pages["html"].to_pylist():
        if payload.startswith(b"%PDF") or payload.startswith(b"\x00"):
            continue
        html = payload.decode("utf-8", errors="replace")
        slow, fast = _both(html)
        assert slow == fast
        checked += 1
    assert checked > 500
