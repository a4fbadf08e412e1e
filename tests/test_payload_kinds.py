"""Standalone CSV / JSON / XML / EPUB payload kinds (the reference's
"Others" MarkItDown category, config.py:55-58): sniff strictness,
conversion shapes, and router integration."""

from __future__ import annotations

import io
import zipfile

from full_text_extractor_v6_ray.extractor.document import extract_document
from full_text_extractor_v6_ray.extractor.sniff import sniff_payload
from full_text_extractor_v6_ray.extractor.textdata import (
    csv_to_text,
    json_to_text,
    xml_to_text,
)


# ---------------------------------------------------------------------------
# sniffing
# ---------------------------------------------------------------------------

def test_sniff_csv_requires_consistent_delimiters():
    assert sniff_payload(b"a,b,c\n1,2,3\n4,5,6\n") == "csv"
    assert sniff_payload(b"a;b\n1;2\n") == "csv"
    assert sniff_payload(b"a\tb\n1\t2\n") == "csv"
    # prose with inconsistent commas is NOT csv
    assert sniff_payload(
        b"Hello, world, how are you?\nFine thanks.\n") == "unknown"
    # single line is not csv
    assert sniff_payload(b"a,b,c\n") == "unknown"
    # binary garbage is not csv
    assert sniff_payload(b"\x00\xff,\x01\n\x02,\x03\n") == "unknown"


def test_sniff_json_must_parse():
    assert sniff_payload(b'{"a": 1}') == "json"
    assert sniff_payload(b"[1, 2, 3]") == "json"
    assert sniff_payload(b'{"a": broken') == "unknown"
    assert sniff_payload(b"{not json at all}") == "unknown"


def test_sniff_xml_vs_xhtml():
    assert sniff_payload(b'<?xml version="1.0"?><r><a>x</a></r>') == "xml"
    # XHTML (xml declaration + <html>) keeps routing through the DOM path
    assert sniff_payload(
        b'<?xml version="1.0"?><html><body><p>x</p></body></html>') == "html"


def test_sniff_xhtml_past_long_prolog():
    # the <html root sits past the 1 KB head behind a long comment and
    # DOCTYPE: still html; the same prolog before a non-html root: xml
    prolog = (b'<?xml version="1.0" encoding="utf-8"?>\n<!-- '
              + b"licence text " * 100 + b'-->\n<?xml-stylesheet href="s"?>'
              b'\n<!DOCTYPE html PUBLIC "-//W3C//DTD XHTML 1.1//EN" '
              b'"http://www.w3.org/TR/xhtml11/DTD/xhtml11.dtd" '
              b'[<!ENTITY e "x">]>\n')
    assert len(prolog) > 1024
    xhtml = prolog + (b'<html xmlns="http://www.w3.org/1999/xhtml"><body>'
                      b"<p>Hello prolog</p></body></html>")
    assert sniff_payload(xhtml) == "html"
    assert sniff_payload(b"\xef\xbb\xbf" + xhtml) == "html"
    assert extract_document(xhtml).method != "xml"
    assert sniff_payload(prolog + b"<htmlx><a>x</a></htmlx>") == "xml"
    assert sniff_payload(prolog + b"<feed><a>x</a></feed>") == "xml"
    assert sniff_payload(b'<?xml version="1.0"?><!-- open') == "xml"


def test_json_page_parses_once(monkeypatch):
    # the sniff's parse feeds the converter: one json.loads per page,
    # and the text is what json_to_text gives
    import json

    payload = b'{"title": "T", "tags": ["a", "b"], "n": {"x": 1}}'
    want = json_to_text(payload)[0]
    calls = []
    real = json.loads
    monkeypatch.setattr(json, "loads",
                        lambda *a, **kw: calls.append(1) or real(*a, **kw))
    r = extract_document(payload)
    assert (r.method, r.extracted_text) == ("json", want)
    assert len(calls) == 1


# ---------------------------------------------------------------------------
# conversions
# ---------------------------------------------------------------------------

def test_csv_to_pipe_table():
    text, err = csv_to_text(b'name,qty\n"quoted, cell",3\nplain,7\n')
    assert err == ""
    assert text.split("\n\n") == ["| name | qty |",
                                  "| quoted, cell | 3 |",
                                  "| plain | 7 |"]


def test_json_flatten_paths():
    text, err = json_to_text(
        b'{"title": "T", "tags": ["a", "b"],'
        b' "meta": {"n": 5, "ok": true, "x": null}}')
    assert err == ""
    assert text.splitlines() == [
        "title: T", "tags[0]: a", "tags[1]: b",
        "meta.n: 5", "meta.ok: true", "meta.x:"]


def test_xml_element_paths_and_namespaces():
    text, err = xml_to_text(
        b'<?xml version="1.0"?>'
        b'<r xmlns:n="urn:x"><n:a>A</n:a><b at="1">B<c>C</c>tail</b></r>')
    assert err == ""
    assert text.splitlines() == ["r.a: A", "r.b: B", "r.b.c: C", "r.b: tail"]


def test_malformed_degrade():
    assert csv_to_text(b"")[1] == "csv_empty"
    assert json_to_text(b"{bad")[1].startswith("json_error")
    assert xml_to_text(b"<unclosed>")[1].startswith("xml_error")


# ---------------------------------------------------------------------------
# epub
# ---------------------------------------------------------------------------

def _epub(chapters: list[str], spine_order: list[int] | None = None,
          with_container: bool = True) -> bytes:
    buf = io.BytesIO()
    order = spine_order or list(range(len(chapters)))
    with zipfile.ZipFile(buf, "w") as zf:
        zf.writestr("mimetype", "application/epub+zip")
        if with_container:
            zf.writestr(
                "META-INF/container.xml",
                '<container><rootfiles><rootfile '
                'full-path="OEBPS/content.opf"/></rootfiles></container>')
        items = "".join(
            f'<item id="c{i}" href="ch{i}.xhtml" '
            f'media-type="application/xhtml+xml"/>'
            for i in range(len(chapters)))
        refs = "".join(f'<itemref idref="c{i}"/>' for i in order)
        zf.writestr("OEBPS/content.opf",
                    f"<package><manifest>{items}</manifest>"
                    f"<spine>{refs}</spine></package>")
        for i, body in enumerate(chapters):
            zf.writestr(f"OEBPS/ch{i}.xhtml",
                        f"<html><body>{body}</body></html>")
    return buf.getvalue()


def test_epub_spine_order_and_links():
    ep = _epub(["<p>Chapter A text.</p>",
                '<p>B with <a href="https://e.x/1">anchor</a>.</p>'],
               spine_order=[1, 0])
    res = extract_document(ep)
    assert res.method == "epub" and res.error == ""
    # spine order 1,0: chapter B renders first
    assert res.extracted_text == (
        "B with [anchor](https://e.x/1).\n\nChapter A text.")
    assert res.links == [("anchor", "https://e.x/1")]


def test_epub_without_container_reports_empty():
    ep = _epub(["<p>x</p>"], with_container=False)
    res = extract_document(ep)
    assert res.method == "error" and res.error == "epub_empty"


_CONTAINER = ('<container><rootfiles><rootfile full-path="content.opf"/>'
              '</rootfiles></container>')


def test_nested_epub_stops_at_container_depth(monkeypatch):
    """Each chapter is the next epub: the walk spends one container
    level per epub and stops at the depth bound, it never restarts it."""
    from full_text_extractor_v6_ray.extractor import document

    payload = b"<html><body><p>deepest chapter</p></body></html>"
    for _ in range(8):
        buf = io.BytesIO()
        with zipfile.ZipFile(buf, "w") as zf:
            zf.writestr("META-INF/container.xml", _CONTAINER)
            zf.writestr("content.opf",
                        '<package><manifest><item id="c" href="ch.xhtml"/>'
                        '</manifest><spine><itemref idref="c"/></spine>'
                        '</package>')
            zf.writestr("ch.xhtml", payload)
        payload = buf.getvalue()

    calls = []
    real = document.extract_document

    def spy(data, *args, _depth=0, **kwargs):
        res = real(data, *args, _depth=_depth, **kwargs)
        calls.append((_depth, res.error))
        return res

    monkeypatch.setattr(document, "extract_document", spy)
    res = document.extract_document(payload)
    limit = document._MAX_CONTAINER_DEPTH
    assert sorted(calls) == [(d, "epub_empty") for d in range(limit)] + [
        (limit, "container_depth")]
    assert "deepest chapter" not in res.extracted_text


def test_epub_with_unreadable_opf_iterates_members():
    """container.xml present but its OPF missing, or an OPF whose spine
    names no member: the archive's members are still extracted."""
    for opf in (None, '<package><spine><itemref idref="x"/></spine>'
                      '</package>'):
        buf = io.BytesIO()
        with zipfile.ZipFile(buf, "w") as zf:
            zf.writestr("META-INF/container.xml", _CONTAINER)
            if opf is not None:
                zf.writestr("content.opf", opf)
            zf.writestr("notes.html",
                        "<html><body><p>Recovered notes.</p></body></html>")
        res = extract_document(buf.getvalue())
        assert res.method == "zip" and res.error == ""
        assert "## notes.html\n\nRecovered notes." in res.extracted_text


def test_generic_zip_iterates_members():
    # the reference's "ZIP (iterates over contents)" category: members
    # route back through the extractor under per-member headers, in
    # name order
    buf = io.BytesIO()
    with zipfile.ZipFile(buf, "w") as zf:
        zf.writestr("b_table.csv", "x,y\n1,2\n")
        zf.writestr("a_page.html",
                    "<html><body><p>Inner page text.</p></body></html>")
        zf.writestr("c_notes.txt", "plain member notes")
    res = extract_document(buf.getvalue())
    assert res.method == "zip" and res.error == ""
    assert res.extracted_text.split("\n\n") == [
        "## a_page.html", "Inner page text.",
        "## b_table.csv", "| x | y |", "| 1 | 2 |",
        "## c_notes.txt", "plain member notes"]


def test_generic_zip_nested_depth_bounded():
    def wrap(inner: bytes, name: str) -> bytes:
        buf = io.BytesIO()
        with zipfile.ZipFile(buf, "w") as zf:
            zf.writestr(name, inner)
        return buf.getvalue()

    payload = b"deep text payload"
    z = wrap(payload, "leaf.txt")
    for i in range(4):
        z = wrap(z, f"level{i}.zip")
    res = extract_document(z)
    # the innermost levels exceed the container depth bound and
    # contribute nothing, but the walk terminates cleanly
    assert res.method in ("zip", "error")
    assert "deep text payload" not in res.extracted_text


def test_memberless_zip_reports_empty():
    # a zip with only a directory entry has the PK\x03\x04 magic but
    # nothing extractable (a fully empty zip is just an end-of-central-
    # directory record and correctly sniffs unknown)
    buf = io.BytesIO()
    with zipfile.ZipFile(buf, "w") as zf:
        zf.writestr(zipfile.ZipInfo("dir/"), b"")
    res = extract_document(buf.getvalue())
    assert res.method == "error" and res.error == "zip_empty"


# ---------------------------------------------------------------------------
# router integration
# ---------------------------------------------------------------------------

def test_router_csv_json_xml():
    for payload, method, needle in [
        (b"h1,h2\nv1,v2\n", "csv", "| v1 | v2 |"),
        (b'{"k": "routed"}', "json", "k: routed"),
        (b"<?xml version='1.0'?><r><t>routed</t></r>", "xml", "r.t: routed"),
    ]:
        res = extract_document(payload)
        assert res.method == method and needle in res.extracted_text
        assert res.error == ""


def test_router_fallback_when_structured_parse_empty():
    # an empty JSON object converts to nothing -> text fallback wins
    res = extract_document(b"{}", text_fallback="plain text instead")
    assert res.method == "fallback_text"
    assert "plain text instead" in res.extracted_text
