"""PDF branch (M22 analog): in-process text + link extraction from PDF bytes.

The reference extracts PDF text/links via PyMuPDF
(/root/reference/src/converters/hyperlink_extractor.py:201-307) and renders
decks through a LibreOffice *subprocess* (app_v5.py:377-390) — the rebuild
replaces both with pure in-process parsing (north_star requirement).

PyMuPDF is not a dependency: this module implements a minimal,
deterministic parser covering the PDF shapes our synthetic corpus generates
(FIXTURES.md) plus the structural features a real crawl hits first:

  - object scan: stream-aware (``/Length`` jumps past binary stream data,
    so payload bytes that happen to spell ``endobj`` cannot truncate an
    object) + cross-reference recovery: classic ``xref`` tables AND
    PDF 1.5 xref STREAMS (``/Type /XRef``, /W field widths, /Index
    ranges, PNG predictors), following the /Prev chain;
  - page tree: ``/Type /Pages`` ``/Kids`` order -> per-page segmentation;
    each page's ``/Contents`` (single ref or array) and ``/Annots``;
  - content streams: ``BT..ET`` blocks with ``Tj``/``'``/``TJ`` showing
    literal AND hex strings; text position tracked via ``Td/TD/Tm`` so
    link rects can be anchored to nearby text;
  - filters: FlateDecode, LZWDecode (variable-width, EarlyChange),
    ASCIIHexDecode, ASCII85Decode, filter arrays, and /DecodeParms PNG
    predictors (None/Sub/Up/Average/Paeth);
  - fonts: per-page /Resources /Font dicts; ``/ToUnicode`` CMap streams
    (``bfchar`` + ``bfrange``) map single- or double-byte (CID/Type0)
    codes to text — hex-string CID text decodes to real characters;
  - links (reference hyperlink_extractor.py:224-307 parity):
      * ``/URI`` actions: anchor text = words within +/-10pt of the
        annotation /Rect, else the ``Link on page N`` placeholder;
      * ``/GoTo`` actions (and direct /Dest): internal links emitted as
        ``#page=N`` with rect-anchored text, else ``Go to page N``;
        NAMED destinations (``/D (name)`` / ``/Dest /name``) resolve
        through the catalog's ``/Names`` -> ``/Dests`` name tree
        (``/Kids`` recursion bounded) or the old-style ``/Dests`` dict;
      * regex URL scan of the page text with a +/-50-char context window
        (hyperlink_extractor.py:283-296), deduped per (url, page) (J2).

Payloads with no recognizable structure take the error path with
``error='pdf_unsupported'`` rather than wrong output. The parser is the
only PDF path, so the extracted bytes never depend on which packages the
host has installed.
"""

from __future__ import annotations

import base64
import binascii
import re
import zlib

from .normalize import normalize_text

# BT..ET block scan. The block body consumes literal strings ATOMICALLY
# (same escape grammar as _LIT_RE) so an 'ET' INSIDE shown text — e.g. a
# paragraph that is literally "(ET) Tj" — cannot terminate the block
# early (hypothesis-found); the lookarounds keep ET/BT from matching
# inside longer names. Hex strings can't contain 'T', so only literals
# need the atomic skip.
_BT_ET = re.compile(
    rb"(?<![A-Za-z])BT((?:\((?:[^()\\]|\\.)*\)|[^(])*?)"
    rb"(?<![A-Za-z])ET(?![A-Za-z])", re.DOTALL)
_URI = re.compile(rb"/URI\s*\(((?:[^()\\]|\\.)*)\)")
_STREAM = re.compile(rb"stream\r?\n(.*?)\r?\nendstream", re.DOTALL)
_TEXT_URL = re.compile(r"https?://[^\s<>()\"']+")

_OBJ_START = re.compile(rb"(\d+)\s+\d+\s+obj\b")
_ENDOBJ = re.compile(rb"endobj")
_TYPE_PAGES = re.compile(rb"/Type\s*/Pages\b")
_TYPE_PAGE = re.compile(rb"/Type\s*/Page(?!s)\b")
_TYPE_OBJSTM = re.compile(rb"/Type\s*/ObjStm\b")
_TYPE_XREF = re.compile(rb"/Type\s*/XRef\b")
_KIDS = re.compile(rb"/Kids\s*\[(.*?)\]", re.DOTALL)
_REF = re.compile(rb"(\d+)\s+\d+\s+R\b")
_CONTENTS_REF = re.compile(rb"/Contents\s+(\d+)\s+\d+\s+R\b")
_CONTENTS_ARR = re.compile(rb"/Contents\s*\[(.*?)\]", re.DOTALL)
_ANNOTS = re.compile(rb"/Annots\s*\[(.*?)\]", re.DOTALL)
_FIRST = re.compile(rb"/First\s+(\d+)\b")
_LENGTH = re.compile(rb"/Length\s+(\d+)\b")
_STREAM_START = re.compile(rb"stream\r?\n")
_FILTER = re.compile(rb"/Filter\s*(?:\[((?:\s*/\w+)*)\s*\]|/(\w+))")
_NAME_TOK = re.compile(rb"/(\w+)")
_DECODE_PARMS = re.compile(rb"/DecodeParms\s*<<(.*?)>>", re.DOTALL)
_STARTXREF = re.compile(rb"startxref\s+(\d+)")
_PREV = re.compile(rb"/Prev\s+(\d+)\b")
_XREFSTM = re.compile(rb"/XRefStm\s+(\d+)\b")
_W_ARR = re.compile(rb"/W\s*\[([\d\s]+)\]")
_SIZE = re.compile(rb"/Size\s+(\d+)\b")
_INDEX = re.compile(rb"/Index\s*\[([\d\s]+)\]")
_RECT = re.compile(rb"/Rect\s*\[\s*([-\d.]+)\s+([-\d.]+)\s+([-\d.]+)"
                   rb"\s+([-\d.]+)\s*\]")
_GOTO_D = re.compile(rb"/S\s*/GoTo\b.*?/D\s*\[\s*(\d+)\s+\d+\s+R",
                    re.DOTALL)
_DEST_DIRECT = re.compile(rb"/Dest\s*\[\s*(\d+)\s+\d+\s+R")
# named destinations: /D or /Dest carrying a string or name object instead
# of an explicit [page ...] array; resolved through the catalog's
# /Names -> /Dests name tree or the old-style /Dests dictionary
_NAMED_VAL = (rb"(?:\(((?:[^()\\]|\\.)*)\)|<([0-9A-Fa-f\s]+)>"
              rb"|/([^\s/<>()\[\]]+))")
_GOTO_NAMED = re.compile(rb"/S\s*/GoTo\b.*?/D\s*" + _NAMED_VAL, re.DOTALL)
_DEST_NAMED = re.compile(rb"/Dest\s*" + _NAMED_VAL)
_DESTS_REF = re.compile(rb"/Dests\s+(\d+)\s+\d+\s+R")
_NAMES_REF = re.compile(rb"/Names\s+(\d+)\s+\d+\s+R")
_NAMES_ARR = re.compile(rb"/Names\s*\[(.*)\]", re.DOTALL)
_TYPE_CATALOG = re.compile(rb"/Type\s*/Catalog\b")
# one (name, dest) pair inside a name-tree /Names array: literal or hex
# string name, then an inline dest array or an indirect reference
_NAME_PAIR = re.compile(
    rb"(?:\(((?:[^()\\]|\\.)*)\)|<([0-9A-Fa-f\s]+)>)\s*"
    rb"(?:(\[[^\]]*\])|(\d+)\s+\d+\s+R)", re.DOTALL)
# one /name -> dest entry of an old-style /Dests dictionary
_DICT_DEST = re.compile(
    rb"/([^\s/<>()\[\]]+)\s*(?:(\[[^\]]*\])|(\d+)\s+\d+\s+R)")
_NAME_HEX_ESC = re.compile(rb"#([0-9A-Fa-f]{2})")
_TOUNICODE = re.compile(rb"/ToUnicode\s+(\d+)\s+\d+\s+R\b")
_TYPE0 = re.compile(rb"/Subtype\s*/Type0\b")
_BFCHAR = re.compile(rb"beginbfchar(.*?)endbfchar", re.DOTALL)
_BFRANGE = re.compile(rb"beginbfrange(.*?)endbfrange", re.DOTALL)
_HEXTOK = re.compile(rb"<([0-9A-Fa-f]+)>")
_BFRANGE_ENTRY = re.compile(
    rb"<([0-9A-Fa-f]+)>\s*<([0-9A-Fa-f]+)>\s*"
    rb"(?:<([0-9A-Fa-f]+)>|\[((?:\s*<[0-9A-Fa-f]+>)*)\s*\])")

# content-stream operators (document order); literal/hex/array strings +
# the text-state ops needed for position tracking
_LIT_RE = rb"\((?:[^()\\]|\\.)*\)"
_HEX_RE = rb"<[0-9A-Fa-f\s]*>"
_NUM_RE = rb"[-+]?[0-9]*\.?[0-9]+"
_OPS = re.compile(
    rb"(?P<lit>" + _LIT_RE + rb")\s*(?:Tj|')"
    rb"|(?P<hex>" + _HEX_RE + rb")\s*(?:Tj|')"
    rb"|(?P<arr>\[(?:" + _LIT_RE + rb"|" + _HEX_RE + rb"|" + _NUM_RE +
    rb"|\s)*\])\s*TJ"
    rb"|/(?P<fname>[^\s/<>()\[\]]+)\s+" + _NUM_RE + rb"\s+Tf"
    rb"|(?P<tdx>" + _NUM_RE + rb")\s+(?P<tdy>" + _NUM_RE +
    rb")\s+(?:Td|TD)"
    rb"|(?P<tm>(?:" + _NUM_RE + rb"\s+){5}" + _NUM_RE + rb")\s+Tm",
    re.DOTALL)
_ARR_STR = re.compile(_LIT_RE + rb"|" + _HEX_RE, re.DOTALL)

_CONTEXT_CHARS = 50   # reference hyperlink_extractor.py:283-296 window
_RECT_PAD = 10.0      # reference rect expansion (x0-10 .. x1+10)

_ESCAPES = {
    b"n": b"\n", b"r": b"\r", b"t": b"\t", b"b": b"\b", b"f": b"\f",
    b"(": b"(", b")": b")", b"\\": b"\\",
}


def _decode_literal_bytes(raw: bytes) -> bytes:
    """Decode a PDF literal string body (between parens), incl. escapes."""
    out = bytearray()
    i = 0
    n = len(raw)
    while i < n:
        ch = raw[i:i + 1]
        if ch == b"\\" and i + 1 < n:
            nxt = raw[i + 1:i + 2]
            if nxt in _ESCAPES:
                out += _ESCAPES[nxt]
                i += 2
                continue
            if nxt.isdigit():  # octal \ddd
                j = i + 1
                digits = b""
                while j < n and len(digits) < 3 and raw[j:j + 1].isdigit():
                    digits += raw[j:j + 1]
                    j += 1
                out.append(int(digits, 8) & 0xFF)
                i = j
                continue
            i += 1  # line continuation / unknown escape: drop backslash
            continue
        out += ch
        i += 1
    return bytes(out)


def _decode_pdf_string(raw: bytes) -> str:
    return _decode_literal_bytes(raw).decode("latin-1")


def _decode_hex_bytes(raw: bytes) -> bytes:
    """Hex-string body (between <>) -> bytes; odd length pads with 0."""
    h = re.sub(rb"\s+", b"", raw)
    if len(h) % 2:
        h += b"0"
    try:
        return binascii.unhexlify(h)
    except Exception:
        return b""


# ---------------------------------------------------------------------------
# stream filters
# ---------------------------------------------------------------------------

def _lzw_decode(data: bytes) -> bytes:
    """PDF LZWDecode: 8-bit data, variable 9..12-bit codes, EarlyChange=1."""
    out = bytearray()
    table: list[bytes] = [bytes([i]) for i in range(256)] + [b"", b""]
    width = 9
    prev: bytes | None = None
    bitbuf = 0
    nbits = 0
    for byte in data:
        bitbuf = (bitbuf << 8) | byte
        nbits += 8
        while nbits >= width:
            code = (bitbuf >> (nbits - width)) & ((1 << width) - 1)
            nbits -= width
            if code == 256:  # clear table
                table = [bytes([i]) for i in range(256)] + [b"", b""]
                width = 9
                prev = None
                continue
            if code == 257:  # EOD
                return bytes(out)
            if prev is None:
                entry = table[code]
            elif code < len(table):
                entry = table[code]
                table.append(prev + entry[:1])
            else:  # the KwKwK case
                entry = prev + prev[:1]
                table.append(entry)
            out += entry
            prev = entry
            # EarlyChange=1: widen one code early
            if len(table) + 1 >= (1 << width) and width < 12:
                width += 1
    return bytes(out)


def _asciihex_decode(data: bytes) -> bytes:
    body = data.split(b">", 1)[0]
    return _decode_hex_bytes(body)


def _ascii85_decode(data: bytes) -> bytes:
    body = re.sub(rb"\s+", b"", data)
    if body.startswith(b"<~"):
        body = body[2:]
    if body.endswith(b"~>"):
        body = body[:-2]
    return base64.a85decode(body, adobe=False)


def _png_predictor(data: bytes, columns: int, colors: int = 1,
                   bpc: int = 8) -> bytes:
    """Reverse PNG predictors (filter types 0-4) row by row."""
    bpp = max(1, colors * bpc // 8)
    rowlen = max(1, (columns * colors * bpc + 7) // 8)
    out = bytearray()
    prev = bytearray(rowlen)
    i = 0
    while i < len(data):
        ft = data[i]
        row = bytearray(data[i + 1:i + 1 + rowlen])
        i += 1 + rowlen
        if ft == 1:      # Sub
            for j in range(bpp, len(row)):
                row[j] = (row[j] + row[j - bpp]) & 0xFF
        elif ft == 2:    # Up
            for j in range(len(row)):
                row[j] = (row[j] + prev[j]) & 0xFF
        elif ft == 3:    # Average
            for j in range(len(row)):
                left = row[j - bpp] if j >= bpp else 0
                row[j] = (row[j] + ((left + prev[j]) >> 1)) & 0xFF
        elif ft == 4:    # Paeth
            for j in range(len(row)):
                a = row[j - bpp] if j >= bpp else 0
                b = prev[j]
                c = prev[j - bpp] if j >= bpp else 0
                p = a + b - c
                pa, pb, pc = abs(p - a), abs(p - b), abs(p - c)
                pred = a if (pa <= pb and pa <= pc) else (b if pb <= pc
                                                          else c)
                row[j] = (row[j] + pred) & 0xFF
        out += row
        prev = row
    return bytes(out)


def _apply_filters(data: bytes, header: bytes) -> bytes | None:
    """Run the /Filter chain + /DecodeParms predictor; None on failure."""
    fm = _FILTER.search(header)
    names: list[bytes] = []
    if fm:
        if fm.group(1) is not None:
            names = [n.group(1) for n in _NAME_TOK.finditer(fm.group(1))]
        else:
            names = [fm.group(2)]
    try:
        for name in names:
            if name == b"FlateDecode" or name == b"Fl":
                data = zlib.decompress(data)
            elif name == b"LZWDecode" or name == b"LZW":
                data = _lzw_decode(data)
            elif name == b"ASCIIHexDecode" or name == b"AHx":
                data = _asciihex_decode(data)
            elif name == b"ASCII85Decode" or name == b"A85":
                data = _ascii85_decode(data)
            elif name in (b"Crypt",):
                return None
            else:  # image filters (DCT/JPX/CCITT/RunLength): not text
                return None
        pm = _DECODE_PARMS.search(header)
        if pm:
            parms = pm.group(1)
            pred = re.search(rb"/Predictor\s+(\d+)", parms)
            if pred and int(pred.group(1)) >= 10:
                cols = re.search(rb"/Columns\s+(\d+)", parms)
                colors = re.search(rb"/Colors\s+(\d+)", parms)
                bpc = re.search(rb"/BitsPerComponent\s+(\d+)", parms)
                data = _png_predictor(
                    data, int(cols.group(1)) if cols else 1,
                    int(colors.group(1)) if colors else 1,
                    int(bpc.group(1)) if bpc else 8)
    except Exception:
        return None
    return data


def _stream_bytes(body: bytes) -> bytes | None:
    """The (decoded) stream payload of one object body, or None.

    Uses the dict's /Length when present (spec-correct — binary stream
    data may itself end in \\r/\\n bytes, which the delimiter regex would
    otherwise eat, truncating e.g. Flate data); regex fallback for
    streams without a literal Length.
    """
    sm = _STREAM_START.search(body)
    if not sm:
        return None
    header = body[:sm.start()]
    lm = _LENGTH.search(header)
    if lm:
        data = body[sm.end():sm.end() + int(lm.group(1))]
    else:
        m = _STREAM.search(body)
        if not m:
            return None
        data = m.group(1)
    return _apply_filters(data, header)


# ---------------------------------------------------------------------------
# object scan + cross-reference recovery
# ---------------------------------------------------------------------------

def _object_end(payload: bytes, start: int) -> int | None:
    """Index of the ``endobj`` closing the object whose body starts at
    ``start`` — jumping past /Length-delimited binary stream data so
    stream bytes spelling ``endobj`` can't truncate the object (advisor
    finding, round 2)."""
    em = _ENDOBJ.search(payload, start)
    sm = _STREAM_START.search(payload, start)
    if sm and (em is None or sm.start() < em.start()):
        lm = _LENGTH.search(payload, start, sm.start())
        if lm:
            em = _ENDOBJ.search(payload, sm.end() + int(lm.group(1)))
    return em.start() if em else None


def _scan_objects(payload: bytes) -> dict[int, bytes]:
    """objnum -> object body via a stream-aware forward scan."""
    objs: dict[int, bytes] = {}
    pos = 0
    n = len(payload)
    while pos < n:
        m = _OBJ_START.search(payload, pos)
        if not m:
            break
        start = m.end()
        end = _object_end(payload, start)
        if end is None:
            objs[int(m.group(1))] = payload[start:]
            break
        objs[int(m.group(1))] = payload[start:end]
        pos = _ENDOBJ.search(payload, end).end()
    return objs


def _object_at(payload: bytes, off: int) -> tuple[int, bytes] | None:
    """(objnum, body) for the object starting at byte ``off``."""
    m = _OBJ_START.match(payload, off)
    if not m:  # tolerate leading whitespace
        m = _OBJ_START.search(payload, off, min(len(payload), off + 32))
        if not m or m.start() != off and payload[off:m.start()].strip():
            return None
    start = m.end()
    end = _object_end(payload, start)
    return int(m.group(1)), payload[start:end if end is not None else None]


def _parse_xref_table(payload: bytes, off: int, offsets: dict[int, int],
                      dead: set[int]) -> list[int]:
    """Classic ``xref`` table at ``off`` -> offsets; returns the offsets
    to visit next, newest-first: the trailer's hybrid-reference
    ``/XRefStm`` stream (same revision, takes precedence over older
    sections — PDF 1.5 §7.5.8.4) before its ``/Prev``.

    Free (``f``) entries shadow: an object deleted in a newer revision
    must not resurrect from an older section's stale ``n`` offset.
    """
    m = re.compile(rb"xref\s*").match(payload, off)
    pos = m.end()
    sub = re.compile(rb"(\d+)\s+(\d+)\s*")
    ent = re.compile(rb"(\d{10})\s(\d{5})\s([nf])\s?\s?")
    nxt: list[int] = []
    while True:
        sm = sub.match(payload, pos)
        if not sm:
            break
        start, count = int(sm.group(1)), int(sm.group(2))
        pos = sm.end()
        for i in range(count):
            em = ent.match(payload, pos)
            if not em:
                return nxt
            num = start + i
            if em.group(3) == b"n":
                if num not in dead:
                    offsets.setdefault(num, int(em.group(1)))
            elif num not in offsets:
                dead.add(num)
            pos = em.end()
    tm = re.compile(rb"trailer\s*").match(payload, pos)
    if tm:
        xm = _XREFSTM.search(payload, tm.end(), tm.end() + 512)
        if xm:
            nxt.append(int(xm.group(1)))
        pm = _PREV.search(payload, tm.end(), tm.end() + 512)
        if pm:
            nxt.append(int(pm.group(1)))
    return nxt


def _parse_xref_stream(body: bytes, offsets: dict[int, int],
                       dead: set[int]) -> None:
    """PDF 1.5 xref stream: /W field widths, /Index ranges, type-1 rows
    give object byte offsets (type-2 ObjStm members are unpacked by the
    ObjStm expansion pass)."""
    data = _stream_bytes(body)
    wm = _W_ARR.search(body)
    if data is None or not wm:
        return
    w = [int(x) for x in wm.group(1).split()]
    if len(w) < 3:
        return
    rowlen = sum(w)
    if rowlen <= 0:
        return
    sm = _SIZE.search(body)
    im = _INDEX.search(body)
    if im:
        nums = [int(x) for x in im.group(1).split()]
        pairs = list(zip(nums[::2], nums[1::2]))
    elif sm:
        pairs = [(0, int(sm.group(1)))]
    else:
        pairs = [(0, len(data) // rowlen)]
    pos = 0
    for start, count in pairs:
        for i in range(count):
            row = data[pos:pos + rowlen]
            pos += rowlen
            if len(row) < rowlen:
                return
            j = 0
            f = []
            for width in w:
                f.append(int.from_bytes(row[j:j + width], "big")
                         if width else 1)  # width 0 -> default type 1
                j += width
            num = start + i
            if f[0] == 1:
                if num not in dead:
                    offsets.setdefault(num, f[1])
            elif f[0] == 0 and num not in offsets:
                dead.add(num)


def _xref_object_offsets(payload: bytes) -> dict[int, int]:
    """objnum -> byte offset from the startxref chain: classic tables,
    1.5 xref streams, and hybrid-reference files whose table trailers
    point at a companion stream via /XRefStm — visited newest-first so
    ``setdefault``/free-shadowing give each object its latest state."""
    ms = list(_STARTXREF.finditer(payload))
    if not ms:
        return {}
    offsets: dict[int, int] = {}
    dead: set[int] = set()
    work = [int(ms[-1].group(1))]
    seen: set[int] = set()
    for _ in range(16):  # bounded chain (tables + streams + hybrids)
        if not work:
            break
        off = work.pop(0)
        if off < 0 or off >= len(payload) or off in seen:
            continue
        seen.add(off)
        try:
            if payload.startswith(b"xref", off):
                work = _parse_xref_table(payload, off, offsets,
                                         dead) + work
                continue
            at = _object_at(payload, off)
            if at is None or not _TYPE_XREF.search(at[1]):
                continue
            _parse_xref_stream(at[1], offsets, dead)
            pm = _PREV.search(at[1])
            if pm:
                work.append(int(pm.group(1)))
        except Exception:
            continue
    return offsets


def _parse_objects(payload: bytes) -> dict[int, bytes]:
    """objnum -> object body: stream-aware scan, xref-located objects the
    scan missed, and objects unpacked from /Type /ObjStm streams."""
    objs = _scan_objects(payload)
    for num, off in _xref_object_offsets(payload).items():
        if num in objs or off <= 0 or off >= len(payload):
            continue
        at = _object_at(payload, off)
        if at is not None:
            objs[num] = at[1]
    # expand object streams (compressed containers of non-stream objects)
    for num, body in list(objs.items()):
        if not _TYPE_OBJSTM.search(body):
            continue
        data = _stream_bytes(body)
        fm = _FIRST.search(body)
        if data is None or not fm:
            continue
        first = int(fm.group(1))
        try:
            header = data[:first].split()
            for k in range(0, len(header) - 1, 2):
                onum = int(header[k])
                off = int(header[k + 1])
                if k + 3 < len(header):
                    end = first + int(header[k + 3])
                else:
                    end = len(data)
                objs.setdefault(onum, data[first + off:end])
        except Exception:
            continue
    return objs


# ---------------------------------------------------------------------------
# fonts / ToUnicode CMaps (CID text)
# ---------------------------------------------------------------------------

class _Font:
    __slots__ = ("two_byte", "cmap")

    def __init__(self, two_byte: bool, cmap: dict[int, str] | None):
        self.two_byte = two_byte
        self.cmap = cmap


def _balanced_dict(data: bytes, start: int) -> bytes | None:
    """The balanced ``<< ... >>`` starting at ``start`` (incl. markers)."""
    depth = 0
    i = start
    n = len(data)
    while i < n - 1:
        two = data[i:i + 2]
        if two == b"<<":
            depth += 1
            i += 2
        elif two == b">>":
            depth -= 1
            i += 2
            if depth == 0:
                return data[start:i]
        else:
            i += 1
    return None


def _resolve_dict(body: bytes, key: bytes,
                  objs: dict[int, bytes]) -> bytes | None:
    """Value of ``/key`` in ``body``: inline dict or resolved reference."""
    m = re.search(rb"/" + key + rb"\b\s*", body)
    if not m:
        return None
    rest = body[m.end():]
    rm = re.match(rb"(\d+)\s+\d+\s+R\b", rest)
    if rm:
        return objs.get(int(rm.group(1)))
    if rest[:2] == b"<<":
        return _balanced_dict(rest, 0)
    return None


def _utf16be(hexstr: bytes) -> str:
    try:
        return bytes.fromhex(hexstr.decode("ascii")).decode(
            "utf-16-be", errors="ignore")
    except Exception:
        return ""


def _parse_tounicode(data: bytes) -> tuple[dict[int, str], bool]:
    """ToUnicode CMap -> (code -> text, two_byte codes?)."""
    cmap: dict[int, str] = {}
    two = False
    for m in _BFCHAR.finditer(data):
        toks = _HEXTOK.findall(m.group(1))
        for i in range(0, len(toks) - 1, 2):
            src, dst = toks[i], toks[i + 1]
            if len(src) >= 4:
                two = True
            cmap[int(src, 16)] = _utf16be(dst)
    for m in _BFRANGE.finditer(data):
        for e in _BFRANGE_ENTRY.finditer(m.group(1)):
            lo, hi = int(e.group(1), 16), int(e.group(2), 16)
            if len(e.group(1)) >= 4:
                two = True
            if hi < lo or hi - lo > 0xFFFF or len(cmap) > 0x20000:
                continue
            if e.group(3) is not None:
                base = _utf16be(e.group(3))
                if base:
                    head, last = base[:-1], ord(base[-1])
                    for c in range(lo, hi + 1):
                        cmap[c] = head + chr(last + (c - lo))
            else:
                dsts = _HEXTOK.findall(e.group(4))
                for c, d in zip(range(lo, hi + 1), dsts):
                    cmap[c] = _utf16be(d)
    return cmap, two


def _page_fonts(objs: dict[int, bytes],
                page_body: bytes) -> dict[bytes, _Font]:
    """Font name -> _Font for one page's /Resources /Font dict."""
    fonts: dict[bytes, _Font] = {}
    res = _resolve_dict(page_body, b"Resources", objs)
    if res is None:
        return fonts
    fdict = _resolve_dict(res, b"Font", objs)
    if fdict is None:
        return fonts
    for m in re.finditer(rb"/([^\s/<>()\[\]]+)\s+(\d+)\s+\d+\s+R", fdict):
        fbody = objs.get(int(m.group(2)))
        if fbody is None:
            continue
        two = bool(_TYPE0.search(fbody))
        cmap = None
        tm = _TOUNICODE.search(fbody)
        if tm:
            cdata = _stream_bytes(objs.get(int(tm.group(1)), b""))
            if cdata is not None:
                cmap, cmap_two = _parse_tounicode(cdata)
                two = two or cmap_two
        fonts[m.group(1)] = _Font(two, cmap)
    return fonts


def _show_text(raw: bytes, font: _Font | None) -> str:
    """Decode shown-string bytes under the current font."""
    if font is not None and font.cmap is not None:
        if font.two_byte:
            return "".join(
                font.cmap.get((raw[i] << 8) | raw[i + 1], "")
                for i in range(0, len(raw) - 1, 2))
        return "".join(font.cmap.get(b, chr(b)) for b in raw)
    return raw.decode("latin-1")


# ---------------------------------------------------------------------------
# content streams: text + positions
# ---------------------------------------------------------------------------

def _content_text(data: bytes, fonts: dict[bytes, _Font]
                  ) -> tuple[list[str], list[tuple[float, float, str]]]:
    """Content-stream bytes -> (paragraphs, positioned pieces).

    One paragraph per BT..ET block (pieces joined by spaces, normalized);
    each piece carries the text-line origin from Td/TD/Tm for rect
    anchoring. Literal AND hex strings; current font tracked via Tf.
    """
    paragraphs: list[str] = []
    pieces: list[tuple[float, float, str]] = []
    font: _Font | None = None
    for bt in _BT_ET.finditer(data):
        x = y = 0.0
        block: list[str] = []
        for op in _OPS.finditer(bt.group(1)):
            if op.group("lit") is not None or op.group("hex") is not None \
                    or op.group("arr") is not None:
                if op.group("arr") is not None:
                    # document order preserved (literal and hex strings
                    # may interleave in one TJ array)
                    strs = [s.group(0) for s in
                            _ARR_STR.finditer(op.group("arr"))]
                else:
                    strs = [op.group("lit") if op.group("lit") is not None
                            else op.group("hex")]
                for s in strs:
                    if s[:1] == b"(":
                        raw = _decode_literal_bytes(s[1:-1])
                    else:
                        raw = _decode_hex_bytes(s[1:-1])
                    txt = _show_text(raw, font)
                    if txt:
                        block.append(txt)
                        pieces.append((x, y, txt))
            elif op.group("fname") is not None:
                font = fonts.get(op.group("fname"), font)
            elif op.group("tdx") is not None:
                x += float(op.group("tdx"))
                y += float(op.group("tdy"))
            elif op.group("tm") is not None:
                nums = op.group("tm").split()
                x, y = float(nums[4]), float(nums[5])
        para = normalize_text(" ".join(block))
        if para:
            paragraphs.append(para)
    return paragraphs, pieces


def _page_order(objs: dict[int, bytes]) -> list[int]:
    """Page object numbers in /Kids order (appearance order fallback)."""
    for body in objs.values():
        if _TYPE_PAGES.search(body):
            km = _KIDS.search(body)
            if km:
                kids = [int(r.group(1)) for r in _REF.finditer(km.group(1))]
                pages = [k for k in kids
                         if k in objs and _TYPE_PAGE.search(objs[k])]
                if pages:
                    return pages
    return [n for n, b in objs.items() if _TYPE_PAGE.search(b)]


def _page_content(objs: dict[int, bytes], page_body: bytes
                  ) -> tuple[list[str], list[tuple[float, float, str]]]:
    refs: list[int] = []
    cm = _CONTENTS_REF.search(page_body)
    if cm:
        refs.append(int(cm.group(1)))
    else:
        am = _CONTENTS_ARR.search(page_body)
        if am:
            refs.extend(int(r.group(1)) for r in _REF.finditer(am.group(1)))
    fonts = _page_fonts(objs, page_body)
    # the page's content streams form ONE logical stream
    datas = [d for d in (_stream_bytes(objs.get(r, b"")) for r in refs)
             if d is not None]
    if not datas:
        return [], []
    return _content_text(b"\n".join(datas), fonts)


def _rect_anchor(pieces: list[tuple[float, float, str]],
                 rect: tuple[float, float, float, float]) -> str:
    """Words whose text-line origin falls inside the /Rect expanded by
    +/-10pt (reference hyperlink_extractor.py:228-236 semantics)."""
    x0, y0, x1, y1 = rect
    x0, y0, x1, y1 = (min(x0, x1) - _RECT_PAD, min(y0, y1) - _RECT_PAD,
                      max(x0, x1) + _RECT_PAD, max(y0, y1) + _RECT_PAD)
    hits = [t for (x, y, t) in pieces if x0 <= x <= x1 and y0 <= y <= y1]
    return normalize_text(" ".join(hits))


def _context_window(text: str, start: int, end: int) -> str:
    """+/-50-char text window around a match, whitespace-collapsed."""
    lo = max(0, start - _CONTEXT_CHARS)
    hi = min(len(text), end + _CONTEXT_CHARS)
    return normalize_text(text[lo:hi])


def _scan_text_urls(page_no: int, paragraphs: list[str], seen: set,
                    links: list) -> None:
    """Regex URL scan with context windows + (url, page) membership dedup."""
    for para in paragraphs:
        for m in _TEXT_URL.finditer(para):
            url = m.group(0).rstrip(".,;:)")
            if (url, page_no) in seen:
                continue
            seen.add((url, page_no))
            links.append((_context_window(para, m.start(),
                                          m.start() + len(url)), url))


def _decode_name_obj(raw: bytes) -> str:
    """PDF name object -> text (#xx hex escapes expanded)."""
    return _NAME_HEX_ESC.sub(
        lambda m: bytes([int(m.group(1), 16)]), raw
    ).decode("utf-8", errors="replace")


def _named_match_text(groups: tuple) -> str:
    """Name text from a (_NAMED_VAL / _NAME_PAIR) match's string groups:
    literal string, hex string (UTF-16BE when BOM'd, else latin-1), or
    name object."""
    lit, hx = groups[0], groups[1]
    if lit is not None:
        return _decode_pdf_string(lit)
    if hx is not None:
        data = _decode_hex_bytes(hx)
        if data[:2] == b"\xfe\xff":
            return data[2:].decode("utf-16-be", errors="replace")
        return data.decode("latin-1")
    return _decode_name_obj(groups[2]) if len(groups) > 2 else ""


def _dest_first_page(objs: dict[int, bytes], arr: bytes | None,
                     refnum: bytes | None) -> int | None:
    """Destination value -> target PAGE object number: first reference of
    an inline ``[page ...]`` array, or of the referenced object (a bare
    dest array or a ``<< /D [...] >>`` wrapper)."""
    src = arr
    if src is None and refnum is not None:
        body = objs.get(int(refnum), b"")
        dm = re.search(rb"/D\s*\[([^\]]*)\]", body)
        src = dm.group(1) if dm else body
    if src is None:
        return None
    m = _REF.search(src)
    return int(m.group(1)) if m else None


def _collect_named_dests(objs: dict[int, bytes], num: int,
                         out: dict[str, int], depth: int = 0) -> None:
    """One /Dests node -> ``out``: name-tree leaves (``/Names`` pairs),
    intermediate nodes (``/Kids`` recursion, bounded), or the old-style
    ``/Dests`` dictionary (``/name [dest]`` entries)."""
    body = objs.get(num)
    if body is None or depth > 8:
        return
    nm = _NAMES_ARR.search(body)
    km = _KIDS.search(body)
    if nm:
        for pm in _NAME_PAIR.finditer(nm.group(1)):
            name = _named_match_text((pm.group(1), pm.group(2)))
            page = _dest_first_page(objs, pm.group(3), pm.group(4))
            if name and page is not None:
                out.setdefault(name, page)
    if km:
        for r in _REF.finditer(km.group(1)):
            _collect_named_dests(objs, int(r.group(1)), out, depth + 1)
    if not nm and not km:
        for dm in _DICT_DEST.finditer(body):
            key = dm.group(1)
            if key in (b"Type", b"Limits", b"Kids", b"Names", b"D"):
                continue
            page = _dest_first_page(objs, dm.group(2), dm.group(3))
            if page is not None:
                out.setdefault(_decode_name_obj(key), page)


def _named_destinations(objs: dict[int, bytes]) -> dict[str, int]:
    """name -> destination page object number, from the document catalog:
    PDF 1.1 old-style ``/Dests`` dictionary and/or the PDF 1.2+
    ``/Names`` -> ``/Dests`` name tree (both may coexist)."""
    out: dict[str, int] = {}
    for body in objs.values():
        if not _TYPE_CATALOG.search(body):
            continue
        roots = {int(m.group(1)) for m in _DESTS_REF.finditer(body)}
        im = _NAMES_REF.search(body)   # /Names as an indirect dict
        if im:
            roots.update(int(m.group(1)) for m in
                         _DESTS_REF.finditer(objs.get(int(im.group(1)),
                                                      b"")))
        for root in roots:
            _collect_named_dests(objs, root, out)
        break
    return out


def _page_annots(objs: dict[int, bytes], page_body: bytes, pno: int,
                 page_index: dict[int, int],
                 pieces: list[tuple[float, float, str]],
                 seen: set, links: list,
                 named: dict[str, int] | None = None) -> None:
    """Link annotations of one page: /URI actions + /GoTo internal links
    (explicit ``[page ...]`` dests and NAMED dests via ``named``), anchor
    text from the /Rect neighborhood when any text sits there
    (reference hyperlink_extractor.py:224-271), else the placeholder."""
    am = _ANNOTS.search(page_body)
    if not am:
        return
    for r in _REF.finditer(am.group(1)):
        ab = objs.get(int(r.group(1)), b"")
        rm = _RECT.search(ab)
        rect_text = ""
        if rm:
            try:
                rect = tuple(float(rm.group(i)) for i in range(1, 5))
                rect_text = _rect_anchor(pieces, rect)
            except Exception:
                rect_text = ""
        for um in _URI.finditer(ab):
            url = _decode_pdf_string(um.group(1)).strip()
            if url and (url, pno) not in seen:
                seen.add((url, pno))
                links.append((rect_text or f"Link on page {pno}", url))
        gm = _GOTO_D.search(ab) or _DEST_DIRECT.search(ab)
        pagenum: int | None = int(gm.group(1)) if gm else None
        if pagenum is None and named:
            nm = _GOTO_NAMED.search(ab) or _DEST_NAMED.search(ab)
            if nm:
                pagenum = named.get(_named_match_text(nm.groups()))
        if pagenum is not None:
            dest = page_index.get(pagenum)
            if dest is not None:
                url = f"#page={dest}"
                if (url, pno) not in seen:
                    seen.add((url, pno))
                    links.append((rect_text or f"Go to page {dest}", url))


def extract_pdf(payload: bytes) -> tuple[str, list[tuple[str, str]], str]:
    """PDF bytes -> (extracted_text, [(link_text, url)], error).

    Page-segmented: paragraph per BT..ET block, pages joined in /Kids
    order with blank lines. Links carry rect-anchored text when the
    annotation /Rect neighborhood holds text, the reference's
    placeholders otherwise, or the +/-50-char context of a regex match.
    """
    paragraphs: list[str] = []
    links: list[tuple[str, str]] = []
    seen: set[tuple[str, int]] = set()
    try:
        objs = _parse_objects(payload)
        pages = _page_order(objs)
        page_index = {pnum: i + 1 for i, pnum in enumerate(pages)}
        named = _named_destinations(objs)
        if pages:
            for pno, pnum in enumerate(pages, start=1):
                body = objs[pnum]
                page_paras, pieces = _page_content(objs, body)
                paragraphs.extend(page_paras)
                _page_annots(objs, body, pno, page_index, pieces,
                             seen, links, named)
                _scan_text_urls(pno, page_paras, seen, links)
        else:
            # no page tree (fragmentary payload): flat stream scan
            bodies = [b for b in
                      (_stream_bytes(o) for o in objs.values())
                      if b is not None] or [payload]
            for body in bodies:
                ps, _ = _content_text(body, {})
                paragraphs.extend(ps)
            for m in _URI.finditer(payload):
                url = _decode_pdf_string(m.group(1)).strip()
                if url and (url, 1) not in seen:
                    seen.add((url, 1))
                    links.append(("Link on page 1", url))
            _scan_text_urls(1, paragraphs, seen, links)
    except Exception as exc:  # degradation principle: never raise
        return "", [], f"pdf_parse_error:{type(exc).__name__}"

    if not paragraphs and not links:
        return "", [], "pdf_unsupported"
    return "\n\n".join(paragraphs), links, ""

