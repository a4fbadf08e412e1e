"""Diagram-likelihood scoring: the web analog of the reference's 7-rule
additive score + probability ladder
(/root/reference/src/processors/powerpoint/diagram_analyzer.py:391-463
rules, :697-706 ladder, threshold :80).

The reference scores a slide on shape structure (arrows, lines,
line/shape ratio, spatial layout, shape variety, short-text ratio, flow
keywords, long-paragraph negatives). An HTML page's counterparts are its
visual-structure elements (svg/canvas/figure/img density) and its block
mix (kind variety, short-text blocks, bullets, long prose paragraphs).
Same additive-rules + ladder shape; per-rule reasons reported like the
reference's ``reasons`` list.

Deterministic, per-row pure; task ``map_batches`` stage.
"""

from __future__ import annotations

import re

import pyarrow as pa

from ..config import DEFAULT_CONFIG, ExtractConfig

# visual-structure elements are inside kill subtrees (svg) or void tags —
# counted on the raw markup, not the block list
_SVG = re.compile(r"<(?:svg|canvas)\b", re.IGNORECASE)
_IMG = re.compile(r"<(?:img|figure)\b", re.IGNORECASE)

# flow keywords (diagram_analyzer.py:624-626 analog) and action verbs
_FLOW_WORDS = ("flow", "process", "step", "diagram", "workflow", "chart",
               "architecture", "pipeline", "sequence", "lifecycle")
_ACTION_WORDS = ("create", "send", "receive", "start", "end", "validate",
                 "approve", "submit", "review", "transform")

_SHORT_WORDS = 6       # a block this short reads like a label, not prose
_LONG_CHARS = 300      # a paragraph this long reads like an article


class DiagramScoreBatch:
    """(url, html) -> additive diagram score + probability + reasons."""

    def __init__(self, cfg: ExtractConfig = DEFAULT_CONFIG):
        self.cfg = cfg

    def score_page(self, html_text: str) -> tuple[int, float, str]:
        from ..extractor.html_fast import parse_html_blocks_fast

        blocks, _title, _boiler = parse_html_blocks_fast(html_text, self.cfg)
        score = 0
        reasons = []

        n_svg = len(_SVG.findall(html_text))
        n_img = len(_IMG.findall(html_text))
        text_blocks = [b for b in blocks if b.kind in ("para", "li",
                                                       "heading")]
        n_text = len(text_blocks)

        # rule 1: vector graphics present (arrows analog, :407-412)
        if n_svg >= 1:
            score += 20
            reasons.append("svg")
        # rule 2: several images/figures (lines analog, :413-418)
        if n_img >= 3:
            score += 20
            reasons.append("many_img")
        # rule 3: image-to-text ratio (line/shape ratio analog, :419-424)
        if n_text and n_img / n_text >= 0.5:
            score += 15
            reasons.append("img_ratio")
        # rule 4: block-kind variety (shape variety analog, :584-618)
        kinds = {b.kind for b in blocks}
        if len(kinds) >= 3:
            score += 15
            reasons.append("variety3")
        elif len(kinds) >= 2:
            score += 10
            reasons.append("variety2")
        # rule 5: short-text ratio (label-like blocks, :653-695)
        if n_text:
            short = sum(1 for b in text_blocks
                        if len(b.visible_text().split()) <= _SHORT_WORDS)
            ratio = short / n_text
            if ratio >= 0.7:
                score += 10
                reasons.append("short70")
            elif ratio >= 0.5:
                score += 5
                reasons.append("short50")
        # rule 6: flow keywords (:620-651)
        lower = " ".join(b.visible_text() for b in text_blocks).lower()
        n_flow = sum(1 for w in _FLOW_WORDS if w in lower)
        n_act = sum(1 for w in _ACTION_WORDS if w in lower)
        if n_flow >= 2:
            score += 20
            reasons.append("flow_words")
        if n_act >= 3:
            score += 10
            reasons.append("action_words")
        # rule 7: negatives (:441-449) — prose-heavy pages are not diagrams
        n_long = sum(1 for b in text_blocks
                     if len(b.visible_text()) >= _LONG_CHARS)
        if n_long >= 2:
            score -= 15
            reasons.append("-long_paras")
        n_li = sum(1 for b in blocks if b.kind == "li")
        if blocks and n_li / len(blocks) > 0.8:
            score -= 10
            reasons.append("-all_bullets")

        # probability ladder (:697-706)
        if score >= 60:
            prob = 0.95
        elif score >= 40:
            prob = 0.75
        elif score >= 20:
            prob = 0.40
        else:
            prob = 0.10
        return score, prob, ",".join(reasons)

    def __call__(self, batch: pa.Table) -> pa.Table:
        scores, probs, reasons = [], [], []
        for payload in batch.column("html").to_pylist():
            try:
                text = (payload or b"").decode("utf-8", errors="replace")
                s, p, r = self.score_page(text)
            except Exception:
                s, p, r = 0, 0.10, "error"
            scores.append(s)
            probs.append(p)
            reasons.append(r)
        return pa.table({
            "url": batch.column("url"),
            "diagram_score": pa.array(scores, pa.int32()),
            "diagram_prob": pa.array(probs, pa.float64()),
            "reasons": pa.array(reasons, pa.string()),
        })
