"""Payload content-type sniffing (S7 format router analog).

The reference routes by file extension
(/root/reference/src/converters/file_converter.py:64-100); web payloads have
no trustworthy extension, so we sniff magic bytes per row inside the batch
UDF and branch HTML vs PDF vs unknown. The reference's "Others" category
(config.py:55-58: csv/json/xml via MarkItDown) is covered by content
sniffs: JSON must actually parse, XML needs a declaration without any
<html, CSV needs a consistent nonzero delimiter count across lines —
all strict enough that prose/text payloads keep falling through to the
plain-text fallback.
"""

from __future__ import annotations

PDF_MAGIC = b"%PDF-"
GZIP_MAGIC = b"\x1f\x8b"
ZIP_MAGIC = b"PK\x03\x04"
WARC_MAGIC = b"WARC/"
OLE2_MAGIC = b"\xd0\xcf\x11\xe0\xa1\xb1\x1a\xe1"

# Extension surface (SURVEY.md §2.9, completing the extractor-handler
# registry in document.py): custom sniffers run BEFORE the builtin
# rules, in registration order; the first non-empty kind wins. A sniffer
# is ``fn(payload: bytes) -> str`` returning '' to pass. Pair a custom
# kind with ``register_extractor(kind, handler)`` to route a payload
# family the builtin kinds below do not cover end-to-end.
_SNIFFERS: list = []


def register_sniffer(fn) -> None:
    _SNIFFERS.append(fn)


def unregister_sniffer(fn) -> None:
    if fn in _SNIFFERS:
        _SNIFFERS.remove(fn)


def _looks_json(payload: bytes) -> bool:
    # probe a bounded slice first — lstrip on the full payload would
    # copy megabytes per page on the hot sniff path
    head = payload[:64].lstrip()[:1]
    if head not in (b"{", b"["):
        return False
    import json as _json
    try:
        _json.loads(payload.decode("utf-8-sig"))
    except Exception:
        return False
    return True


_CSV_DELIMS = (b",", b";", b"\t", b"|")


def _looks_csv(payload: bytes) -> bool:
    """Strict: every one of the first (up to 20) non-empty lines carries
    the SAME nonzero count of one delimiter, ≥2 lines, decodes as text,
    no markup lead. Prose with stray commas fails the consistency bar."""
    if payload[:1] in (b"<", b"{", b"[", b"%"):
        return False
    sample = payload[:65536]
    try:
        sample.decode("utf-8")
    except UnicodeDecodeError:
        return False
    lines = [ln for ln in sample.splitlines()[:20] if ln.strip()]
    if len(sample) > 65536 - 2 and lines:
        lines = lines[:-1]          # last line may be truncated
    if len(lines) < 2 or any(len(ln) > 8192 for ln in lines):
        return False
    for d in _CSV_DELIMS:
        counts = {ln.count(d) for ln in lines}
        if len(counts) == 1 and counts.pop() >= 1:
            return True
    return False


def sniff_payload(payload: bytes) -> str:
    """Return 'pdf' | 'html' | 'empty' | 'unknown' (or a custom kind)."""
    if not payload:
        return "empty"
    for fn in _SNIFFERS:
        try:
            kind = fn(payload)
        except Exception:
            kind = ""
        if kind:
            return kind
    head = payload[:1024]
    if head.startswith(PDF_MAGIC):
        return "pdf"
    if head.startswith(WARC_MAGIC):
        return "warc"
    if head.startswith(GZIP_MAGIC):
        return "gzip"
    if head.startswith(ZIP_MAGIC):
        return "zip"
    if head.startswith(OLE2_MAGIC):
        return "ole2"   # legacy binary Office compound file
    # see through byte-order marks (UTF-16 HTML interleaves NULs that
    # would otherwise hide the markup from the ASCII probes below;
    # decoding happens later in extractor/charset.py)
    if head[:3] == b"\xef\xbb\xbf":
        head = head[3:]
    elif head[:2] in (b"\xff\xfe", b"\xfe\xff"):
        head = head[2:].replace(b"\x00", b"")
    lowered = head.lstrip()[:256].lower()
    if lowered.startswith(b"<?xml") and b"<html" not in head.lower():
        return "xml"    # standalone XML (XHTML keeps routing as html)
    if _looks_json(payload):
        return "json"
    if _looks_csv(payload):
        return "csv"
    if (
        lowered.startswith(b"<!doctype")
        or lowered.startswith(b"<html")
        or b"<html" in lowered
        or lowered.startswith(b"<head")
        or lowered.startswith(b"<body")
        or lowered.startswith(b"<")
    ):
        return "html"
    return "unknown"
