"""Standalone structured-text payloads: CSV, JSON, XML — S8 breadth.

The reference's "Others" category routes csv/json/xml files through
MarkItDown (/root/reference/config.py:55-58 via
file_converter.py:143-222); this engine converts them in-process and
deterministically:

  - CSV: delimiter re-detected (same candidates as the sniffer), rows
    rendered as markdown pipe rows (the reference's table shape);
  - JSON: flattened to ``key.path[i]: value`` lines in document order;
  - XML: element tree walked in document order, non-empty text emitted
    as ``path.to.element: text`` lines (namespaces stripped), with
    ``<![CDATA[...]]>`` and entities resolved by the stdlib parser.

All guarded: malformed payloads degrade to an error string, the
caller's never-raise contract holds.
"""

from __future__ import annotations

import csv as _csv
import io
import json as _json

from .normalize import normalize_text

_DELIMS = (",", ";", "\t", "|")


def _pipe_row(cells: list[str]) -> str:
    return "| " + " | ".join(c.replace("|", "\\|") for c in cells) + " |"


def csv_to_text(payload: bytes) -> tuple[str, str]:
    """CSV bytes -> (pipe-table text, error)."""
    try:
        text = payload.decode("utf-8-sig", errors="replace")
        lines = [ln for ln in text.splitlines() if ln.strip()][:20]
        delim = ","
        for d in _DELIMS:
            counts = {ln.count(d) for ln in lines}
            if len(counts) == 1 and counts.pop() >= 1:
                delim = d
                break
        rows = []
        for rec in _csv.reader(io.StringIO(text), delimiter=delim):
            cells = [normalize_text(c) for c in rec]
            if any(cells):
                rows.append(_pipe_row(cells))
        return "\n\n".join(rows), "" if rows else "csv_empty"
    except Exception as exc:
        return "", f"csv_error:{type(exc).__name__}"


_MAX_JSON_NODES = 100_000


def _flatten_json(obj, path: str, out: list[str]) -> None:
    if len(out) >= _MAX_JSON_NODES:
        return
    if isinstance(obj, dict):
        for k, v in obj.items():
            _flatten_json(v, f"{path}.{k}" if path else str(k), out)
    elif isinstance(obj, list):
        for i, v in enumerate(obj):
            _flatten_json(v, f"{path}[{i}]", out)
    else:
        val = ("" if obj is None
               else "true" if obj is True
               else "false" if obj is False
               else str(obj))
        line = f"{path}: {normalize_text(val)}" if path else normalize_text(val)
        out.append(line.rstrip())


def json_to_text(payload: bytes) -> tuple[str, str]:
    """JSON bytes -> (key-path lines, error)."""
    try:
        obj = _json.loads(payload.decode("utf-8-sig"))
    except Exception as exc:
        return "", f"json_error:{type(exc).__name__}"
    return json_doc_to_text(obj)


def json_doc_to_text(obj) -> tuple[str, str]:
    """Parsed JSON document -> (key-path lines, error)."""
    out: list[str] = []
    try:
        _flatten_json(obj, "", out)   # RecursionError on hostile depth
    except Exception as exc:
        return "", f"json_error:{type(exc).__name__}"
    return "\n".join(out), "" if out else "json_empty"


def _strip_ns(tag: str) -> str:
    return tag.rsplit("}", 1)[-1]


def xml_to_text(payload: bytes) -> tuple[str, str]:
    """XML bytes -> (element-path text lines, error)."""
    import xml.etree.ElementTree as ET

    out: list[str] = []

    def walk(el, path: str) -> None:
        if len(out) >= _MAX_JSON_NODES:
            return
        tag = _strip_ns(el.tag)
        p = f"{path}.{tag}" if path else tag
        txt = normalize_text(el.text or "")
        if txt:
            out.append(f"{p}: {txt}")
        for child in el:
            walk(child, p)
            tail = normalize_text(child.tail or "")
            if tail:
                out.append(f"{p}: {tail}")

    try:
        root = ET.fromstring(payload)
        walk(root, "")                # RecursionError on hostile depth
    except Exception as exc:
        return "", f"xml_error:{type(exc).__name__}"
    return "\n".join(out), "" if out else "xml_empty"
