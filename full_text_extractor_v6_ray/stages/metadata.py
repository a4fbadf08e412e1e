"""Page metadata extraction + completeness scoring (G6 / M12 analogs).

Separate stage from the main extractor so the golden byte-contract of
``extracted_text`` is untouched:

  - ``PageMetadataBatch``: per-page structural metadata (title present,
    h1 present, lang attr, meta description, counts) + completeness score —
    the analog of the reference's metadata completeness
    (/root/reference/src/processors/powerpoint/metadata_extractor.py:601-658:
    % of {title, author, slide_count} present + issue list).

  - ``DataIslandBatch``: structured data islands
    (``<script type="application/json">`` / ``application/ld+json``) —
    the nearest web analog of the chart extractor (M12,
    content_extractor.py:368-421): typed series data embedded in the page,
    surfaced as summarized rows instead of rendered text.
"""

from __future__ import annotations

import json
import re

import pyarrow as pa

_TITLE = re.compile(r"<title[^>]*>(.*?)</title>", re.IGNORECASE | re.DOTALL)
_H1 = re.compile(r"<h1[^>]*>", re.IGNORECASE)
_LANG = re.compile(r"<html[^>]*\blang=['\"]?([a-zA-Z-]+)", re.IGNORECASE)
_META_DESC = re.compile(
    r"<meta[^>]*name=['\"]description['\"][^>]*>", re.IGNORECASE)
_META_AUTHOR = re.compile(
    r"<meta[^>]*name=['\"]author['\"][^>]*content=['\"]([^'\"]*)['\"]",
    re.IGNORECASE)
_OG_PUBLISHED = re.compile(
    r"<meta[^>]*property=['\"](?:article|og):published_time['\"]"
    r"[^>]*content=['\"]([^'\"]*)['\"]", re.IGNORECASE)
_OG_MODIFIED = re.compile(
    r"<meta[^>]*property=['\"](?:article|og):modified_time['\"]"
    r"[^>]*content=['\"]([^'\"]*)['\"]", re.IGNORECASE)
_ISLAND = re.compile(
    r"<script[^>]*type=['\"]application/(?:ld\+)?json['\"][^>]*>(.*?)</script>",
    re.IGNORECASE | re.DOTALL)
# attribute order varies in the wild: match rel-then-href and href-then-rel
_CANONICAL = re.compile(
    r"<link[^>]*rel=['\"]canonical['\"][^>]*href=['\"]([^'\"]+)['\"]"
    r"|<link[^>]*href=['\"]([^'\"]+)['\"][^>]*rel=['\"]canonical['\"]",
    re.IGNORECASE)
_ROBOTS = re.compile(
    r"<meta[^>]*name=['\"]robots['\"][^>]*content=['\"]([^'\"]*)['\"]"
    r"|<meta[^>]*content=['\"]([^'\"]*)['\"][^>]*name=['\"]robots['\"]",
    re.IGNORECASE)


def _ldjson_fields(text: str) -> tuple[str, str, str]:
    """(author, published, modified) from the first JSON-LD island that
    carries them (schema.org Article-style); '' when absent."""
    author = published = modified = ""
    for m in _ISLAND.finditer(text):
        try:
            obj = json.loads(m.group(1).strip())
        except Exception:
            continue
        if not isinstance(obj, dict) or "@type" not in obj:
            continue
        a = obj.get("author")
        if isinstance(a, dict):
            author = author or str(a.get("name", ""))
        elif isinstance(a, str):
            author = author or a
        published = published or str(obj.get("datePublished", ""))
        modified = modified or str(obj.get("dateModified", ""))
        if author and published and modified:
            break
    return author, published, modified


def page_metadata_batch(batch: pa.Table) -> pa.Table:
    """(url, html) -> structural metadata + completeness (0..1).

    Depth parity with the reference's document-properties extraction
    (/root/reference/src/processors/powerpoint/metadata_extractor.py:89-109,
    185-190: title/author/created/modified/revision): the web analogs are
    <meta name=author>, OpenGraph article:published_time /
    article:modified_time, and schema.org JSON-LD datePublished /
    dateModified / author.name (meta tags win over JSON-LD).
    """
    urls = batch.column("url")
    has_title, has_h1, lang_attr, has_desc = [], [], [], []
    authors, published, modified, completeness = [], [], [], []
    canonicals, noindex = [], []
    for payload in batch.column("html").to_pylist():
        try:
            text = (payload or b"").decode("utf-8", errors="replace")
        except Exception:
            text = ""
        t = bool(_TITLE.search(text))
        h = bool(_H1.search(text))
        lm = _LANG.search(text)
        d = bool(_META_DESC.search(text))
        am = _META_AUTHOR.search(text)
        pm = _OG_PUBLISHED.search(text)
        mm = _OG_MODIFIED.search(text)
        ld_author, ld_pub, ld_mod = (
            _ldjson_fields(text) if "json" in text else ("", "", ""))
        author = am.group(1) if am else ld_author
        pub = pm.group(1) if pm else ld_pub
        mod = mm.group(1) if mm else ld_mod
        cm = _CANONICAL.search(text)
        rm = _ROBOTS.search(text)
        canonicals.append((cm.group(1) or cm.group(2)) if cm else "")
        noindex.append(bool(rm) and "noindex" in
                       (rm.group(1) or rm.group(2)).lower())
        has_title.append(t)
        has_h1.append(h)
        lang_attr.append(lm.group(1) if lm else "")
        has_desc.append(d)
        authors.append(author)
        published.append(pub)
        modified.append(mod)
        completeness.append(round(
            (int(t) + int(h) + int(bool(lm)) + int(d)
             + int(bool(author)) + int(bool(pub))) / 6.0, 6))
    return pa.table({
        "url": urls,
        "has_title": pa.array(has_title),
        "has_h1": pa.array(has_h1),
        "lang_attr": pa.array(lang_attr, pa.string()),
        "has_meta_description": pa.array(has_desc),
        "author": pa.array(authors, pa.string()),
        "published": pa.array(published, pa.string()),
        "modified": pa.array(modified, pa.string()),
        "canonical": pa.array(canonicals, pa.string()),
        "noindex": pa.array(noindex, pa.bool_()),
        "completeness": pa.array(completeness, pa.float64()),
    })


def data_island_batch(batch: pa.Table) -> pa.Table:
    """(url, html) -> one row per parseable JSON data island."""
    urls, idxs, kinds, keys, sizes = [], [], [], [], []
    for url, payload in zip(batch.column("url").to_pylist(),
                            batch.column("html").to_pylist()):
        try:
            text = (payload or b"").decode("utf-8", errors="replace")
        except Exception:
            continue
        for i, m in enumerate(_ISLAND.finditer(text)):
            raw = m.group(1).strip()
            try:
                obj = json.loads(raw)
            except Exception:
                continue
            urls.append(url)
            idxs.append(i)
            if isinstance(obj, dict):
                kinds.append("object")
                keys.append(",".join(sorted(obj.keys())[:8]))
                sizes.append(len(obj))
            elif isinstance(obj, list):
                kinds.append("array")
                keys.append("")
                sizes.append(len(obj))
            else:
                kinds.append(type(obj).__name__)
                keys.append("")
                sizes.append(1)
    return pa.table({
        "url": pa.array(urls, pa.string()),
        "island_idx": pa.array(idxs, pa.int32()),
        "kind": pa.array(kinds, pa.string()),
        "top_keys": pa.array(keys, pa.string()),
        "n_items": pa.array(sizes, pa.int32()),
    })


def chart_series_batch(batch: pa.Table) -> pa.Table:
    """(url, html) -> one row per chart series found in JSON data islands.

    The fidelity analog of the reference chart extractor
    (/root/reference/src/processors/powerpoint/content_extractor.py:368-421:
    chart_type, title, categories, per-series names AND numeric values) —
    round 1 surfaced only island kind/keys/size; this surfaces the numbers.
    """
    urls, idxs, ctypes, titles, cats = [], [], [], [], []
    snames, values, npts, sums = [], [], [], []
    for url, payload in zip(batch.column("url").to_pylist(),
                            batch.column("html").to_pylist()):
        try:
            text = (payload or b"").decode("utf-8", errors="replace")
        except Exception:
            continue
        for i, m in enumerate(_ISLAND.finditer(text)):
            try:
                obj = json.loads(m.group(1).strip())
            except Exception:
                continue
            chart = obj.get("chart") if isinstance(obj, dict) else None
            if not isinstance(chart, dict):
                continue
            series = chart.get("series")
            if not isinstance(series, list):
                continue
            cat_str = ",".join(str(c) for c in
                               chart.get("categories", []) or [])
            for s in series:
                if not isinstance(s, dict):
                    continue
                vals = [float(v) for v in s.get("values", []) or []
                        if isinstance(v, (int, float))]
                urls.append(url)
                idxs.append(i)
                ctypes.append(str(chart.get("type", "")))
                titles.append(str(chart.get("title", "")))
                cats.append(cat_str)
                snames.append(str(s.get("name", "")))
                values.append(vals)
                npts.append(len(vals))
                sums.append(round(sum(vals), 6))
    return pa.table({
        "url": pa.array(urls, pa.string()),
        "island_idx": pa.array(idxs, pa.int32()),
        "chart_type": pa.array(ctypes, pa.string()),
        "chart_title": pa.array(titles, pa.string()),
        "categories": pa.array(cats, pa.string()),
        "series_name": pa.array(snames, pa.string()),
        "series_values": pa.array(values, pa.list_(pa.float64())),
        "n_points": pa.array(npts, pa.int32()),
        "values_sum": pa.array(sums, pa.float64()),
    })
