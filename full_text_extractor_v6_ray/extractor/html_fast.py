"""Fast HTML tokenizer front-end for BlockParser.

stdlib ``html.parser`` spends ~half of extraction wall time in its
char-by-char ``goahead`` loop and per-element bookkeeping (profiled: 49% of
0.86 s over the golden corpus). This front-end drives the SAME event
handlers (``BlockParser.handle_starttag/handle_endtag/handle_data``) from a
single compiled-regex scan, preserving the semantics the handlers rely on:

  - entity decoding on text AND attribute values (convert_charrefs parity)
  - rawtext content models: script/style/textarea (no tag parsing inside;
    content skipped by the kill filter) and RCDATA title (text surfaced)
  - comments / doctype / processing instructions skipped
  - ``<br/>`` self-closing -> startendtag path
  - stray ``<`` without a valid tag -> literal text

It is used ONLY when its output is byte-identical to the stdlib path —
``tests/test_fast_parser.py`` asserts equality over the full synthetic
corpus; the golden fixtures pin the bytes themselves.
"""

from __future__ import annotations

import html as _htmlmod
import re

from ..config import DEFAULT_CONFIG, ExtractConfig
from .blocks import Segment
from .html_blocks import BlockParser
from .normalize import normalize_text

_TAG = re.compile(
    r"<(?:"
    r"!--(?P<comment>.*?)(?:-->|$)"            # comment
    r"|!\[CDATA\[(?P<cdata>.*?)(?:\]\]>|$)"    # CDATA
    r"|(?P<decl>![^>]*)>?"                     # doctype / decl
    r"|(?P<pi>\?[^>]*)>?"                      # processing instruction
    r"|(?P<close>/\s*)?(?P<name>[a-zA-Z][a-zA-Z0-9:-]*)"
    r"(?P<attrs>(?:[^<>\"']|\"[^\"]*\"|'[^']*')*?)"
    r"(?P<selfclose>/)?>"
    r")",
    re.DOTALL,
)

_ATTR = re.compile(
    r"([a-zA-Z_:][-a-zA-Z0-9_:.]*)"
    r"(?:\s*=\s*(\"[^\"]*\"|'[^']*'|[^\s>]*))?"
)

# stdlib html.parser rawtext (CDATA) elements are script/style ONLY —
# title/textarea flow through normal data events (byte-parity requirement)
_RAWTEXT = {"script", "style"}
_AMP = "&"


def _unescape(s: str) -> str:
    # fast path: no entity, no decode
    return _htmlmod.unescape(s) if _AMP in s else s


def _parse_attrs_uncached(raw: str) -> tuple:
    out = []
    for m in _ATTR.finditer(raw):
        name = m.group(1).lower()
        val = m.group(2)
        if val is None:
            out.append((name, None))
            continue
        if val[:1] in "\"'" and val[:1] == val[-1:] and len(val) >= 2:
            val = val[1:-1]
        out.append((name, _unescape(val)))
    return tuple(out)


# attr strings repeat heavily (class/id boilerplate on real pages, fixed
# templates here) — memoize the parse; bounded so adversarial pages with
# all-unique attrs can't grow it without limit
_ATTR_CACHE: dict[str, tuple] = {}
_ATTR_CACHE_MAX = 20_000


def _parse_attrs(raw: str) -> tuple:
    if not raw or raw.isspace():
        return ()
    cached = _ATTR_CACHE.get(raw)
    if cached is None:
        cached = _parse_attrs_uncached(raw)
        if len(_ATTR_CACHE) >= _ATTR_CACHE_MAX:
            _ATTR_CACHE.clear()
        _ATTR_CACHE[raw] = cached
    return cached


_RAWTEXT_CLOSE = {
    name: re.compile(rf"</{name}(?:\s[^>]*)?>", re.IGNORECASE)
    for name in _RAWTEXT
}

_G = tuple(_TAG.groupindex[n] for n in ("close", "name", "attrs",
                                        "selfclose"))


def _gap_text(parser: BlockParser, html_text: str, pos: int,
              gap_end: int) -> int:
    """Inter-tag text that contains stray ``<`` — the rare path, with
    stdlib-parity semantics. Returns the resume position: ``gap_end``
    normally, or past ``gap_end`` when a bogus ``</`` comment consumes to
    a ``>`` beyond the gap (stdlib skips to the next '>', full stop)."""
    handle_data = parser.handle_data
    gap = html_text[pos:gap_end]
    i = 0
    while True:
        lt = gap.find("<", i)
        if lt < 0:
            handle_data(_unescape(gap[i:]))
            return gap_end
        if lt > i:
            handle_data(_unescape(gap[i:lt]))
        if gap[lt + 1:lt + 2] == "/":
            # '</' + non-name: bogus comment per stdlib/HTML5 — skipped
            # to the first '>' (which may lie beyond this gap). Without
            # one, stdlib flushes the rest as text at EOF.
            gt = html_text.find(">", pos + lt + 2)
            if gt >= 0:
                return gt + 1
            handle_data("<")
            i = lt + 1
            continue
        # stray '<' — literal text (stdlib treats invalid tags as text)
        handle_data("<")
        i = lt + 1


def fast_feed(parser: BlockParser, html_text: str) -> None:
    """Drive a BlockParser's handlers from ONE compiled-regex sweep.

    ``finditer`` yields every well-formed tag in document order — no
    per-tag ``match`` call, no Python ``find('<')`` loop. Gaps between
    matches are data; a gap carrying a stray ``<`` takes the slow
    stdlib-parity path (``_gap_text``), whose resume position may skip
    matches (bogus-comment consumption) — skipped via ``start < pos``.
    After a script/style's rawtext the sweep restarts at its close tag.
    """
    n = len(html_text)
    handle_data = parser.handle_data
    handle_starttag = parser.handle_starttag
    handle_endtag = parser.handle_endtag
    pos = 0
    while True:
        for m in _TAG.finditer(html_text, pos):
            start = m.start()
            if start < pos:
                continue  # inside consumed rawtext / bogus-comment skip
            if start > pos:
                gap = html_text[pos:start]
                if "<" in gap:
                    pos = _gap_text(parser, html_text, pos, start)
                    if pos != start:
                        break  # bogus comment consumed past this match
                else:
                    if _AMP in gap:
                        gap = _htmlmod.unescape(gap)
                    # fused segment construction (ROADMAP 2): when no
                    # special region is active (title/kill/boiler/pre/
                    # table), handle_data can only append a Segment —
                    # build it here and skip the dispatch. Falls back
                    # to handle_data for every special state, so the
                    # two paths stay behavior-identical (parity-fuzzed
                    # vs the stdlib front-end, goldens pin the bytes).
                    if (parser._kill_n or parser._boiler_n
                            or parser._pre_n or parser._table_depth
                            or parser._in_title):
                        handle_data(gap)
                    else:
                        parser._segments.append(Segment(
                            gap, parser._bold_n > 0,
                            parser._italic_n > 0, parser._code_n > 0,
                            parser._href[-1] if parser._href else ""))
            pos = m.end()
            # one C call, POSITIONAL group ids (named lookup pays a dict
            # hit per name per tag)
            close, name, rawattrs, selfclose = m.group(*_G)
            if name is None:
                continue  # comment / cdata / decl / pi — skipped
            if not name.islower():   # skip the allocation when already lower
                name = name.lower()
            if close:
                handle_endtag(name)
                continue
            attrs = _parse_attrs(rawattrs) if rawattrs else ()
            if selfclose:
                parser.handle_startendtag(name, attrs)
                continue
            handle_starttag(name, attrs)
            if name in _RAWTEXT:
                # rawtext: consume to the matching close tag verbatim
                cm = _RAWTEXT_CLOSE[name].search(html_text, pos)
                if cm is None:
                    # unterminated rawtext: stdlib DISCARDS the content
                    # at EOF and leaves the element open (popped later)
                    pos = n
                    continue
                handle_data(html_text[pos:cm.start()])  # killed anyway
                handle_endtag(name)
                pos = cm.end()
                # rescan: a match that began inside the content (an
                # opened comment or CDATA) may run past the close tag
                break
        else:
            break  # finditer exhausted: no restart needed
    if pos < n:
        _gap_text(parser, html_text, pos, n)


def parse_html_blocks_fast(
    html_text: str, cfg: ExtractConfig = DEFAULT_CONFIG
) -> tuple[list, str, int]:
    """Drop-in replacement for html_blocks.parse_html_blocks."""
    p = BlockParser(cfg)
    fast_feed(p, html_text)
    # replicate BlockParser.close() minus HTMLParser.close()
    while p._stack:
        p._pop(p._stack.pop())
    p._flush()
    return p.blocks, normalize_text(p.title), p.dropped_boiler_chars
