"""OOXML (docx / xlsx / pptx) fallback extraction — S8 breadth.

The reference hands every non-PPTX document to MarkItDown
(/root/reference/src/converters/file_converter.py:143-222) and runs its
own deep path for PPTX; this engine's fallback converter covers the same
document families in-process with stdlib ``zipfile`` + regex over the
OOXML part XML — no temp files, no subprocess, deterministic:

  - docx:  ``word/document.xml`` paragraphs (``w:p``/``w:t`` runs),
           tables (``w:tbl``/``w:tr``/``w:tc``) rendered as pipe rows
           (the reference's table shape, markdown_converter.py:280), and
           hyperlinks via ``w:hyperlink r:id`` resolved through
           ``word/_rels/document.xml.rels`` (External targets);
  - xlsx:  ``xl/sharedStrings.xml`` + each ``xl/worksheets/sheet*.xml``,
           rows as pipe lines, shared-string and inline values resolved;
  - pptx:  ``ppt/slides/slideN.xml`` in slide-number order, one paragraph
           per ``a:p`` (runs joined), hyperlinks via each slide's rels
           (the reference's own core domain, hyperlink_extractor.py:38-170).

All guarded: bad zip / oversized members degrade to an error string, the
caller's never-raise contract holds.
"""

from __future__ import annotations

import html as _html
import io
import re
import zipfile

from .normalize import normalize_text

_MAX_MEMBER_BYTES = 50 * 1024 * 1024   # decompression-bomb guard

_WT = re.compile(r"<w:t(?:\s[^>]*)?>(.*?)</w:t>", re.DOTALL)
_WP_SPLIT = re.compile(r"</w:p>")
_WTBL = re.compile(r"<w:tbl(?:\s[^>]*)?>(.*?)</w:tbl>", re.DOTALL)
_WTR = re.compile(r"<w:tr(?:\s[^>]*)?>(.*?)</w:tr>", re.DOTALL)
_WTC = re.compile(r"<w:tc(?:\s[^>]*)?>(.*?)</w:tc>", re.DOTALL)
_WHYPER = re.compile(
    r"<w:hyperlink(?:\s[^>]*?)?r:id=\"([^\"]+)\"[^>]*>(.*?)</w:hyperlink>",
    re.DOTALL)
_REL = re.compile(
    r"<Relationship\b[^>]*?Id=\"([^\"]+)\"[^>]*?Target=\"([^\"]+)\"[^>]*?/?>")
_REL_EXTERNAL = re.compile(r"TargetMode=\"External\"")

_AT = re.compile(r"<a:t(?:\s[^>]*)?>(.*?)</a:t>", re.DOTALL)
_AP_SPLIT = re.compile(r"</a:p>")
_HLINK = re.compile(r"<a:hlinkClick\b[^>]*?r:id=\"([^\"]+)\"")
_SLIDE_NAME = re.compile(r"^ppt/slides/slide(\d+)\.xml$")

_SI = re.compile(r"<si>(.*?)</si>", re.DOTALL)
_T_XL = re.compile(r"<t(?:\s[^>]*)?>(.*?)</t>", re.DOTALL)
_ROW = re.compile(r"<row(?:\s[^>]*)?>(.*?)</row>", re.DOTALL)
_CELL = re.compile(r"<c(\s[^>]*?)?(?:/>|>(.*?)</c>)", re.DOTALL)
_V = re.compile(r"<v>(.*?)</v>", re.DOTALL)
_IS = re.compile(r"<is>(.*?)</is>", re.DOTALL)
_SHEET_NAME = re.compile(r"^xl/worksheets/sheet(\d+)\.xml$")
_TAG = re.compile(r"<[^>]+>")


def _unescape(s: str) -> str:
    return _html.unescape(s)


def _read_member(zf: zipfile.ZipFile, name: str) -> str | None:
    try:
        info = zf.getinfo(name)
    except KeyError:
        return None
    if info.file_size > _MAX_MEMBER_BYTES:
        raise ValueError("zip_member_too_large")
    return zf.read(name).decode("utf-8", errors="replace")


def _rels_targets(zf: zipfile.ZipFile, rels_name: str) -> dict[str, str]:
    """Relationship Id -> Target url, External targets only."""
    xml = _read_member(zf, rels_name)
    if xml is None:
        return {}
    out: dict[str, str] = {}
    for m in _REL.finditer(xml):
        if _REL_EXTERNAL.search(m.group(0)):
            out[m.group(1)] = _unescape(m.group(2))
    return out


def _runs_text(fragment: str, run_re: re.Pattern) -> str:
    return normalize_text(_unescape("".join(run_re.findall(fragment))))


def _pipe_row(cells: list[str]) -> str:
    """One markdown pipe row, cells pipe-escaped (reference
    markdown_converter.py:280)."""
    return "| " + " | ".join(c.replace("|", "\\|") for c in cells) + " |"


# ---------------------------------------------------------------------------
# docx
# ---------------------------------------------------------------------------

def _extract_docx(zf: zipfile.ZipFile) -> tuple[str, list[tuple[str, str]]]:
    body = _read_member(zf, "word/document.xml") or ""
    rels = _rels_targets(zf, "word/_rels/document.xml.rels")

    links: list[tuple[str, str]] = []
    for m in _WHYPER.finditer(body):
        url = rels.get(m.group(1), "")
        text = _runs_text(m.group(2), _WT)
        if url:
            links.append((text or url, url))

    paragraphs: list[str] = []
    # tables first (their w:p runs must not double as body paragraphs)
    pos = 0
    for tm in _WTBL.finditer(body):
        for chunk in _WP_SPLIT.split(body[pos:tm.start()]):
            p = _runs_text(chunk, _WT)
            if p:
                paragraphs.append(p)
        for row in _WTR.finditer(tm.group(1)):
            cells = [_runs_text(c.group(1), _WT)
                     for c in _WTC.finditer(row.group(1))]
            if any(cells):
                paragraphs.append(_pipe_row(cells))
        pos = tm.end()
    for chunk in _WP_SPLIT.split(body[pos:]):
        p = _runs_text(chunk, _WT)
        if p:
            paragraphs.append(p)
    return "\n\n".join(paragraphs), links


# ---------------------------------------------------------------------------
# xlsx
# ---------------------------------------------------------------------------

def _extract_xlsx(zf: zipfile.ZipFile) -> tuple[str, list[tuple[str, str]]]:
    shared: list[str] = []
    ss = _read_member(zf, "xl/sharedStrings.xml")
    if ss:
        shared = [normalize_text(_unescape("".join(_T_XL.findall(si))))
                  for si in _SI.findall(ss)]

    sheets = sorted(
        (int(m.group(1)), n) for n in zf.namelist()
        if (m := _SHEET_NAME.match(n)))
    lines: list[str] = []
    for _, name in sheets:
        xml = _read_member(zf, name) or ""
        for row in _ROW.finditer(xml):
            cells: list[str] = []
            for cm in _CELL.finditer(row.group(0)):
                attrs, inner = cm.group(1) or "", cm.group(2)
                if inner is None:        # self-closing <c/> = empty cell
                    cells.append("")
                    continue
                im = _IS.search(inner)
                if im:                              # inline string
                    cells.append(normalize_text(_unescape(
                        "".join(_T_XL.findall(im.group(1))))))
                    continue
                vm = _V.search(inner)
                if vm is None:
                    cells.append("")
                    continue
                v = _unescape(vm.group(1))
                if re.search(r"t=\"s\"", attrs):    # shared-string index
                    try:
                        cells.append(shared[int(v)])
                    except (ValueError, IndexError):
                        cells.append(v)
                else:
                    cells.append(normalize_text(v))
            if any(cells):
                lines.append(_pipe_row(cells))
    return "\n\n".join(lines), []


# ---------------------------------------------------------------------------
# pptx
# ---------------------------------------------------------------------------

def _extract_pptx(zf: zipfile.ZipFile) -> tuple[str, list[tuple[str, str]]]:
    slides = sorted(
        (int(m.group(1)), n) for n in zf.namelist()
        if (m := _SLIDE_NAME.match(n)))
    paragraphs: list[str] = []
    links: list[tuple[str, str]] = []
    for num, name in slides:
        xml = _read_member(zf, name) or ""
        rels = _rels_targets(
            zf, f"ppt/slides/_rels/slide{num}.xml.rels")
        for chunk in _AP_SPLIT.split(xml):
            p = _runs_text(chunk, _AT)
            if p:
                paragraphs.append(p)
        for hm in _HLINK.finditer(xml):
            url = rels.get(hm.group(1), "")
            if url:
                # hlinkClick lives in the run properties BEFORE the run's
                # text: the next a:t is the anchor (the reference merges
                # per-paragraph per-URL, hyperlink_extractor.py:77-91)
                nm = _AT.search(xml, hm.end())
                anchor = normalize_text(_unescape(nm.group(1))) if nm else ""
                links.append((anchor or f"Link on slide {num}", url))
    return "\n\n".join(paragraphs), links


# ---------------------------------------------------------------------------
# epub (zip + OPF spine + xhtml chapters)
# ---------------------------------------------------------------------------

_EPUB_ROOTFILE = re.compile(r"<rootfile\b[^>]*?full-path=\"([^\"]+)\"")
_OPF_ITEM = re.compile(r"<item\b[^>]*?/?>")
_OPF_ATTR_ID = re.compile(r"\bid=\"([^\"]+)\"")
_OPF_ATTR_HREF = re.compile(r"\bhref=\"([^\"]+)\"")
_OPF_ITEMREF = re.compile(r"<itemref\b[^>]*?idref=\"([^\"]+)\"")


def _extract_epub(zf: zipfile.ZipFile, depth: int
                  ) -> tuple[str, list[tuple[str, str]]] | None:
    """EPUB: META-INF/container.xml -> OPF -> spine order; each xhtml
    chapter re-enters the HTML extractor one container level deeper
    (epub is zip+xhtml — the OCF/OPF spec shape); chapter texts joined
    in reading order. None when container.xml exists but names no
    readable OPF, or the OPF spine resolves to no member: the caller
    then iterates the archive like any other zip."""
    import posixpath

    from .document import extract_document

    container = _read_member(zf, "META-INF/container.xml")
    if container is None:
        return "", []
    rm = _EPUB_ROOTFILE.search(container)
    opf = _read_member(zf, rm.group(1)) if rm else None
    if opf is None:
        return None
    opf_path = rm.group(1)
    hrefs: dict[str, str] = {}
    for item in _OPF_ITEM.finditer(opf):
        im = _OPF_ATTR_ID.search(item.group(0))
        hm = _OPF_ATTR_HREF.search(item.group(0))
        if im and hm:
            hrefs[im.group(1)] = _unescape(hm.group(1))
    base = posixpath.dirname(opf_path)
    texts: list[str] = []
    links: list[tuple[str, str]] = []
    resolved = 0
    for sm in _OPF_ITEMREF.finditer(opf):
        href = hrefs.get(sm.group(1))
        if not href:
            continue
        path = posixpath.normpath(posixpath.join(base, href) if base
                                  else href)
        try:
            info = zf.getinfo(path)
        except KeyError:
            continue
        resolved += 1
        if info.file_size > _MAX_MEMBER_BYTES:
            raise ValueError("zip_member_too_large")
        res = extract_document(zf.read(path), _depth=depth + 1)
        if res.extracted_text:
            texts.append(res.extracted_text)
        links.extend(res.links)
    if not resolved:
        return None
    return "\n\n".join(texts), links


_MAX_ZIP_MEMBERS = 64


def _extract_zip_generic(zf: zipfile.ZipFile, depth: int
                         ) -> tuple[str, list[tuple[str, str]]]:
    """Generic archive: iterate members in name order (bounded), route
    each payload back through the extractor, join under per-member
    headers — the reference's "ZIP (iterates over contents)" category
    (config.py:55-58). Text-like members that sniff unknown degrade to
    their own decoded text."""
    from .document import extract_document

    texts: list[str] = []
    links: list[tuple[str, str]] = []
    infos = sorted((i for i in zf.infolist() if not i.is_dir()),
                   key=lambda i: i.filename)[:_MAX_ZIP_MEMBERS]
    for info in infos:
        if info.file_size > _MAX_MEMBER_BYTES:
            raise ValueError("zip_member_too_large")
        data = zf.read(info.filename)
        try:
            fallback = data.decode("utf-8")
        except UnicodeDecodeError:
            fallback = ""
        res = extract_document(data, text_fallback=fallback,
                               _depth=depth + 1)
        if res.extracted_text:
            texts.append(f"## {info.filename}")
            texts.append(res.extracted_text)
        links.extend(res.links)
    return "\n\n".join(texts), links


def extract_zip(payload: bytes, depth: int = 0
                ) -> tuple[str, list[tuple[str, str]], str, str]:
    """ZIP payload -> (text, links, method, error). Routes by OOXML part
    names / the EPUB OCF layout; any other zip iterates its members
    through the router (``zip`` method)."""
    try:
        zf = zipfile.ZipFile(io.BytesIO(payload))
    except Exception:
        return "", [], "zip", "zip_error"
    try:
        names = set(zf.namelist())
        if "word/document.xml" in names:
            text, links = _extract_docx(zf)
            return text, links, "docx", "" if text or links else "docx_empty"
        if "xl/workbook.xml" in names:
            text, links = _extract_xlsx(zf)
            return text, links, "xlsx", "" if text or links else "xlsx_empty"
        if "ppt/presentation.xml" in names:
            text, links = _extract_pptx(zf)
            return text, links, "pptx", "" if text or links else "pptx_empty"
        is_epub = "META-INF/container.xml" in names or (
            "mimetype" in names
            and zf.read("mimetype").strip() == b"application/epub+zip")
        epub = _extract_epub(zf, depth) if is_epub else None
        if epub is not None:
            text, links = epub
            return text, links, "epub", "" if text or links else "epub_empty"
        text, links = _extract_zip_generic(zf, depth)
        return text, links, "zip", "" if text or links else "zip_empty"
    except Exception as exc:
        return "", [], "zip", f"zip_error:{type(exc).__name__}"


# ---------------------------------------------------------------------------
# core/app properties (reference metadata_extractor.py parity: the
# python-pptx core_properties walk reads docProps/core.xml; the
# application properties read docProps/app.xml)
# ---------------------------------------------------------------------------

_CORE_FIELDS = {
    "title": r"<dc:title[^>]*>(.*?)</dc:title>",
    "subject": r"<dc:subject[^>]*>(.*?)</dc:subject>",
    "author": r"<dc:creator[^>]*>(.*?)</dc:creator>",
    "keywords": r"<cp:keywords[^>]*>(.*?)</cp:keywords>",
    "comments": r"<dc:description[^>]*>(.*?)</dc:description>",
    "category": r"<cp:category[^>]*>(.*?)</cp:category>",
    "last_modified_by": r"<cp:lastModifiedBy[^>]*>(.*?)</cp:lastModifiedBy>",
    "revision": r"<cp:revision[^>]*>(.*?)</cp:revision>",
    "created": r"<dcterms:created[^>]*>(.*?)</dcterms:created>",
    "modified": r"<dcterms:modified[^>]*>(.*?)</dcterms:modified>",
}
_APP_FIELDS = {
    "application": r"<Application[^>]*>(.*?)</Application>",
    "app_version": r"<AppVersion[^>]*>(.*?)</AppVersion>",
    "company": r"<Company[^>]*>(.*?)</Company>",
    "n_slides": r"<Slides[^>]*>(.*?)</Slides>",
    "n_words": r"<Words[^>]*>(.*?)</Words>",
    "n_pages": r"<Pages[^>]*>(.*?)</Pages>",
}


def ooxml_core_properties(payload: bytes) -> dict[str, str]:
    """Core + application document properties from an OOXML zip's
    ``docProps/core.xml`` / ``docProps/app.xml`` — the reference's
    defensive-getattr core_properties walk
    (/root/reference/src/processors/powerpoint/metadata_extractor.py:
    93-135, 111-180): every field normalized to a string, missing
    properties become "" rather than errors. Never raises."""
    out = {k: "" for k in (*_CORE_FIELDS, *_APP_FIELDS)}
    try:
        zf = zipfile.ZipFile(io.BytesIO(payload))
    except Exception:
        return out
    try:
        core = _read_member(zf, "docProps/core.xml") or ""
        for k, pat in _CORE_FIELDS.items():
            m = re.search(pat, core, re.DOTALL)
            if m:
                out[k] = normalize_text(_unescape(m.group(1)))
        app = _read_member(zf, "docProps/app.xml") or ""
        for k, pat in _APP_FIELDS.items():
            m = re.search(pat, app, re.DOTALL)
            if m:
                out[k] = normalize_text(_unescape(m.group(1)))
    except Exception:
        pass
    return out


# ---------------------------------------------------------------------------
# pptx chart parts (M12 parity for binary payloads)
# ---------------------------------------------------------------------------

_CHART_NAME = re.compile(r"^ppt/charts/chart(\d+)\.xml$")
_C_PLOT_TYPE = re.compile(r"<c:plotArea>.*?<c:(\w+Chart)\b", re.DOTALL)
_C_TITLE = re.compile(r"<c:title>(.*?)</c:title>", re.DOTALL)
_C_SER = re.compile(r"<c:ser>(.*?)</c:ser>", re.DOTALL)
_C_TX = re.compile(r"<c:tx>(.*?)</c:tx>", re.DOTALL)
_C_CAT = re.compile(r"<c:cat>(.*?)</c:cat>", re.DOTALL)
_C_VAL = re.compile(r"<c:val>(.*?)</c:val>", re.DOTALL)
_C_PT = re.compile(r"<c:pt\s[^>]*?idx=\"(\d+)\"[^>]*>\s*<c:v>(.*?)</c:v>",
                   re.DOTALL)
_C_V = re.compile(r"<c:v>(.*?)</c:v>", re.DOTALL)


def _pts_in_order(fragment: str) -> list[str]:
    """<c:pt idx=..><c:v>..</c:v> values sorted by idx (cache order is
    not guaranteed to be index order in the wild)."""
    pts = [(int(m.group(1)), _unescape(m.group(2)))
           for m in _C_PT.finditer(fragment)]
    return [v for _, v in sorted(pts, key=lambda p: p[0])]


def pptx_chart_series(payload: bytes) -> list[dict]:
    """Chart series from a pptx zip's ``ppt/charts/chart*.xml`` parts —
    the DrawingML analog of the reference's python-pptx chart walk
    (/root/reference/src/processors/powerpoint/content_extractor.py:368-421:
    chart_type, title, plot categories, per-series name + non-null
    values). One dict per series:

      {chart_idx, chart_type, title, series_name,
       categories: [str], values: [float]}

    Never raises: a malformed chart part contributes nothing (the
    reference's try/except-per-chart contract); non-numeric cached
    values are skipped exactly like its ``val is not None`` filter.
    """
    try:
        zf = zipfile.ZipFile(io.BytesIO(payload))
    except Exception:
        return []
    out: list[dict] = []
    charts = sorted(
        (int(m.group(1)), n) for n in zf.namelist()
        if (m := _CHART_NAME.match(n)))
    for idx, name in charts:
        try:
            xml = _read_member(zf, name) or ""
            tm = _C_PLOT_TYPE.search(xml)
            chart_type = tm.group(1) if tm else "unknown"
            ttl = _C_TITLE.search(xml)
            title = _runs_text(ttl.group(1), _AT) if ttl else ""
            for ser in _C_SER.finditer(xml):
                frag = ser.group(1)
                txm = _C_TX.search(frag)
                sname = ""
                if txm:
                    pts = _pts_in_order(txm.group(1))
                    if pts:
                        sname = normalize_text(pts[0])
                    else:
                        vm = _C_V.search(txm.group(1))
                        sname = normalize_text(
                            _unescape(vm.group(1))) if vm else ""
                cm = _C_CAT.search(frag)
                cats = ([normalize_text(v) for v in
                         _pts_in_order(cm.group(1))] if cm else [])
                vm = _C_VAL.search(frag)
                vals: list[float] = []
                if vm:
                    for v in _pts_in_order(vm.group(1)):
                        try:
                            vals.append(float(v))
                        except ValueError:
                            continue
                out.append({"chart_idx": idx, "chart_type": chart_type,
                            "title": title, "series_name": sname,
                            "categories": cats, "values": vals})
        except Exception:
            continue
    return out
