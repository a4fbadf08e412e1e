"""Document-level extraction: sniff -> route -> extract -> normalize -> score.

The per-row pure function the Ray batch stage calls once per page. Mirrors
the reference's dual-strategy router (`_has_xml_access` sophisticated-vs-
fallback predicate, /root/reference/src/processors/powerpoint/
powerpoint_processor.py:46-55, and the extension router
file_converter.py:64-100) with web semantics:

  sniff(payload):  html  -> DOM walk -> block score/strip -> render
                   gzip/warc -> unwrap, re-enter the router one level deeper
                   zip/csv/json/xml/ole2/pdf -> one builtin converter table
                   empty/unknown or failed parse, with a non-empty upstream
                   ``text`` column -> normalized plain-text fallback
                   (the MarkItDown-fallback analog, S8)

Per-row errors are captured, never raised (reference degradation principle,
content_extractor.py:74-76): the row comes back with ``error`` set and empty
text, so one poisoned page cannot kill a 10^12-row job.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..config import DEFAULT_CONFIG, ExtractConfig
from .charset import decode_html_payload
from .containers import gzip_inner, warc_inner
from .html_blocks import score_and_filter
from .html_fast import parse_html_blocks_fast
from .normalize import normalize_text
from .ole2 import extract_ole2
from .ooxml import extract_zip
from .pdf import extract_pdf
from .render import render_blocks
from .sniff import sniff_parsed
from .textdata import csv_to_text, json_doc_to_text, xml_to_text


@dataclass
class ExtractResult:
    extracted_text: str = ""
    spans: list = field(default_factory=list)       # [{kind,start,end,href}]
    links: list = field(default_factory=list)       # [(text, url)]
    method: str = ""          # html | pdf | fallback_text | error
    error: str = ""
    n_blocks_kept: int = 0
    n_blocks_dropped: int = 0
    quality_score: float = 0.0   # kept-content share, 0..1


# ---------------------------------------------------------------------------
# Extension surface (SURVEY.md §2.9): pluggable payload-kind handlers.
# The reference exposes component injection / pluggable enhancement
# providers (powerpoint_processor.py:27-33, file_converter.py:14-36);
# here a user registers a handler for a sniffed kind — including new
# kinds their own sniffer variant emits, or overrides of the builtins —
# without touching the router below.
#
# A handler is ``fn(payload: bytes, text_fallback: str, cfg) ->
# ExtractResult``; it runs inside the same per-row try/except (the
# degradation principle applies to plug-ins too).
# ---------------------------------------------------------------------------

EXTRACTOR_REGISTRY: dict = {}


def register_extractor(kind: str, fn) -> None:
    """Register (or override) the handler for a sniffed payload kind."""
    EXTRACTOR_REGISTRY[kind] = fn


def unregister_extractor(kind: str) -> None:
    EXTRACTOR_REGISTRY.pop(kind, None)


def _fallback_text(text: str) -> ExtractResult:
    """Plain-text fallback: normalize upstream naive text into paragraphs."""
    paragraphs = [normalize_text(p) for p in text.split("\n\n")]
    paragraphs = [p for p in paragraphs if p]
    return ExtractResult(
        extracted_text="\n\n".join(paragraphs),
        method="fallback_text",
        n_blocks_kept=len(paragraphs),
        quality_score=1.0 if paragraphs else 0.0,
    )


def _fallback_or_error(text_fallback: str, err: str) -> ExtractResult:
    if text_fallback:
        return _fallback_text(text_fallback)
    return ExtractResult(method="error", error=err)


def _textdata(kind: str, conv):
    def convert(body, _depth: int):
        text, err = conv(body)
        return text, [], kind, err
    return convert


def _pdf(payload: bytes, _depth: int):
    text, links, err = extract_pdf(payload)
    # an unreadable pdf keeps none of its links
    return text, links if text or not err else [], "pdf", err


# Builtin payload kinds (S8 breadth; the reference's extension router,
# file_converter.py:64-100): kind -> (converter, fallback). A converter
# is ``fn(body, depth) -> (text, links, method, error)``, ``body`` as
# ``sniff_parsed`` returns it (json: the document the sniff already
# parsed; every other kind: the payload); an error with neither text
# nor links yields to ``text_fallback`` when ``fallback`` is set, else
# becomes the error row. Kept apart from
# EXTRACTOR_REGISTRY so unregistering an override restores the builtin.
#   zip       OOXML docx/xlsx/pptx, epub; other archives iterate their
#             members back through the router (depth-bounded)
#   csv/json/xml  standalone structured text (the reference's "Others"
#             MarkItDown category, config.py:55-58)
#   ole2      legacy binary Office .doc/.xls/.ppt via the in-process
#             MS-CFB walker (config.py:78-92 / file_converter.py:90-97)
#   pdf       in-process PDF parse; never falls back to upstream text
_BUILTIN_EXTRACTORS = {
    "zip": (lambda payload, depth: extract_zip(payload, depth=depth), True),
    "csv": (_textdata("csv", csv_to_text), True),
    "json": (_textdata("json", json_doc_to_text), True),
    "xml": (_textdata("xml", xml_to_text), True),
    "ole2": (lambda payload, _depth: extract_ole2(payload), True),
    "pdf": (_pdf, False),
}

# kinds whose members re-enter the router
_CONTAINERS = ("gzip", "warc", "zip")
_MAX_CONTAINER_DEPTH = 3


def extract_document(
    payload: bytes,
    text_fallback: str = "",
    cfg: ExtractConfig = DEFAULT_CONFIG,
    _depth: int = 0,
) -> ExtractResult:
    """Extract main content from one page payload. Pure; never raises."""
    try:
        if payload is not None and len(payload) > cfg.max_html_bytes:
            return ExtractResult(method="error", error="payload_too_large")

        kind, body = sniff_parsed(payload or b"")

        handler = EXTRACTOR_REGISTRY.get(kind)
        if handler is not None:
            return handler(payload, text_fallback, cfg)

        if kind in _CONTAINERS and _depth >= _MAX_CONTAINER_DEPTH:
            return ExtractResult(method="error", error="container_depth")

        builtin = _BUILTIN_EXTRACTORS.get(kind)
        if builtin is not None:
            convert, fallback = builtin
            text, links, method, err = convert(body, _depth)
            if err and not text and not links:
                return _fallback_or_error(text_fallback if fallback else "",
                                          err)
            return ExtractResult(   # one block per paragraph
                extracted_text=text,
                links=list(links),
                method=method,
                n_blocks_kept=text.count("\n\n") + 1 if text else 0,
                quality_score=1.0 if text else 0.0,
                error=err,
            )

        if kind in ("gzip", "warc"):
            # container unwrap (S7 breadth): gzip members and WARC
            # records re-enter the router one level deeper
            if kind == "gzip":
                try:
                    inner = gzip_inner(payload, cfg.max_html_bytes)
                except ValueError:
                    return ExtractResult(method="error",
                                         error="payload_too_large")
            else:
                inner = warc_inner(payload)
            if inner is None:
                return _fallback_or_error(text_fallback, f"{kind}_empty")
            res = extract_document(inner, text_fallback, cfg,
                                   _depth=_depth + 1)
            res.method = f"{kind}>{res.method}"   # container lineage
            return res

        if kind == "html":
            # charset sniff (BOM > strict UTF-8 > declared > cp1252):
            # Common-Crawl HTML has a long legacy-encoding tail that a
            # bare utf-8 decode would mojibake (extractor/charset.py)
            html_text, _enc = decode_html_payload(payload)
            blocks, title, boiler_chars = parse_html_blocks_fast(html_text,
                                                                 cfg)
            kept, dropped_score = score_and_filter(blocks, cfg)
            text, spans, links = render_blocks(kept, title, cfg)
            if text:
                kept_chars = sum(b.char_count() for b in kept) or len(text)
                total = kept_chars + boiler_chars
                return ExtractResult(
                    extracted_text=text,
                    spans=spans,
                    links=links,
                    method="html",
                    n_blocks_kept=len(kept),
                    n_blocks_dropped=dropped_score,
                    quality_score=round(kept_chars / total, 6) if total else 0.0,
                )
            # parse produced nothing -> fallback
        return _fallback_or_error(
            text_fallback, "empty_payload" if kind == "empty" else "no_content")
    except Exception as exc:  # absolute backstop: degradation principle
        return ExtractResult(method="error", error=f"extract_error:{type(exc).__name__}")
