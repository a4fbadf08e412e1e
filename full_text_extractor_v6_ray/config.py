"""Extraction engine configuration.

The knob surface (analog of the reference's ``config.py:19-92``), as a frozen
dataclass so every stage sees identical, hashable settings — determinism of
the extracted bytes depends on it.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class ExtractConfig:
    """Knobs for the HTML/PDF main-content extractor.

    Defaults are the frozen-golden-fixture settings: changing any value
    changes extracted bytes and therefore requires regenerating goldens.
    """

    # --- boilerplate strip (block scoring, Readability/jusText-style) ---
    # A text block whose link-char density exceeds this AND whose word count
    # is below `min_words_linky` is considered navigation chrome and dropped.
    # (analog of reference meaningless-shape filter, content_extractor.py:255-300)
    max_link_density: float = 0.5
    min_words_linky: int = 15
    # Containers whose subtree is dropped outright.
    kill_tags: frozenset = frozenset(
        {"script", "style", "noscript", "template", "svg", "iframe",
         "form", "button", "select", "option", "head", "object", "embed"}
    )
    # Containers treated as boilerplate chrome (dropped with their subtree).
    boilerplate_tags: frozenset = frozenset({"nav", "footer", "aside", "header"})
    # class/id substrings marking ad/chrome containers.
    boilerplate_markers: tuple = (
        "nav", "menu", "sidebar", "footer", "banner", "advert", "promo",
        "cookie", "share", "social", "breadcrumb", "comment", "-ad-", "ad-box",
    )

    # --- alt-text quality (reference content_extractor.py:158-213 analog) ---
    min_alt_len: int = 3

    # --- inline formatting / markdown rendering ---
    bullet_indent: str = "  "
    heading_max_level: int = 6

    # --- payload guards ---
    max_html_bytes: int = 8 * 1024 * 1024   # parse cap; larger rows -> error path
    # in-process replacement for the reference's 60 s subprocess timeout
    # (app_v5.py:389): size guard instead of wall-clock guard.


DEFAULT_CONFIG = ExtractConfig()

