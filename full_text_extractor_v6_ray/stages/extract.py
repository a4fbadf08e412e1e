"""The extraction stage: pages batch -> (url, warc_ts, extracted_text, spans, …).

Task-pool ``map_batches`` UDF (SURVEY.md §2.3 A1): the reference builds a
new ``PowerPointProcessor`` (and a new MarkItDown instance) PER FILE
(/root/reference/src/processors/powerpoint/powerpoint_processor.py:359-365)
— the central architectural fix here is that all compiled state (regex
tables, tag whitelists) is module-level, created once per worker process
at import and reused for every batch.

Arrow in / Arrow out (``batch_format="pyarrow"``, zero-copy from the object
store). The wide ``html`` binary column is DROPPED on output so the dedup
shuffle moves only the extracted columns (SURVEY.md §4.2 "wide rows").

The stage asks Ray for no batch size, so it fuses into its read
(``pipelines.extract_pipeline.extract_pages``); the UDF bounds its own
working set, walking whatever batch it gets in ``BATCH_SIZE``-row slices.
"""

from __future__ import annotations

import pyarrow as pa

from ..config import DEFAULT_CONFIG, ExtractConfig
from ..extractor.document import extract_document

# pages per extraction slice: html rows are wide (~100 KB avg), and only
# one slice of payloads is held as Python objects at a time
BATCH_SIZE = 128

SPANS_TYPE = pa.list_(pa.struct([
    ("kind", pa.string()),
    ("start", pa.int64()),
    ("end", pa.int64()),
    ("href", pa.string()),
]))

LINKS_TYPE = pa.list_(pa.struct([
    ("text", pa.string()),
    ("href", pa.string()),
]))

EXTRACTED_SCHEMA = pa.schema([
    ("url", pa.string()),
    ("warc_ts", pa.timestamp("us")),
    ("lang", pa.string()),
    ("extracted_text", pa.string()),
    ("spans", SPANS_TYPE),
    ("links", LINKS_TYPE),
    ("method", pa.string()),
    ("error", pa.string()),
    ("n_blocks_kept", pa.int32()),
    ("n_blocks_dropped", pa.int32()),
    ("n_links", pa.int32()),
    ("n_chars", pa.int64()),
    ("n_words", pa.int64()),
    ("quality_score", pa.float64()),
])


class ExtractBatch:
    """Callable for ``map_batches(ExtractBatch(cfg), ...)``, once per batch.

    The per-row DOM walk is inherently a Python loop over payloads — each
    iteration is a full HTML parse (the vectorizable work: the parse itself),
    not a row-wise arithmetic op, so this is the correct grain.
    """

    def __init__(self, cfg: ExtractConfig = DEFAULT_CONFIG):
        self.cfg = cfg

    def __call__(self, batch: pa.Table) -> pa.Table:
        # the same rows for any batch size: each slice is extracted alone
        return pa.concat_tables(
            [self._extract(batch.slice(i, BATCH_SIZE))
             for i in range(0, max(batch.num_rows, 1), BATCH_SIZE)])

    def _extract(self, batch: pa.Table) -> pa.Table:
        cfg = self.cfg
        urls = batch.column("url")
        ts = batch.column("warc_ts")
        langs = (batch.column("lang") if "lang" in batch.column_names
                 else pa.nulls(batch.num_rows, pa.string()))
        payloads = batch.column("html").to_pylist()
        fallbacks = (batch.column("text").to_pylist()
                     if "text" in batch.column_names
                     else [""] * batch.num_rows)

        texts: list[str] = []
        methods: list[str] = []
        errors: list[str] = []
        kept: list[int] = []
        dropped: list[int] = []
        n_links: list[int] = []
        n_chars: list[int] = []
        n_words: list[int] = []
        quality: list[float] = []
        # spans/links assembled Arrow-native from flat arrays + offsets
        # (list-of-dict conversion measured at ~13% of batch time)
        sp_kind: list[str] = []
        sp_start: list[int] = []
        sp_end: list[int] = []
        sp_href: list[str] = []
        sp_offs: list[int] = [0]
        lk_text: list[str] = []
        lk_href: list[str] = []
        lk_offs: list[int] = [0]

        for payload, fb in zip(payloads, fallbacks):
            r = extract_document(payload, fb or "", cfg)
            texts.append(r.extracted_text)
            for s in r.spans:
                sp_kind.append(s["kind"])
                sp_start.append(s["start"])
                sp_end.append(s["end"])
                sp_href.append(s["href"])
            sp_offs.append(len(sp_kind))
            for t, h in r.links:
                lk_text.append(t)
                lk_href.append(h)
            lk_offs.append(len(lk_text))
            methods.append(r.method)
            errors.append(r.error)
            kept.append(r.n_blocks_kept)
            dropped.append(r.n_blocks_dropped)
            n_links.append(len(r.links))
            n_chars.append(len(r.extracted_text))
            n_words.append(len(r.extracted_text.split()))
            quality.append(r.quality_score)

        spans_arr = pa.ListArray.from_arrays(
            pa.array(sp_offs, pa.int32()),
            pa.StructArray.from_arrays(
                [pa.array(sp_kind, pa.string()),
                 pa.array(sp_start, pa.int64()),
                 pa.array(sp_end, pa.int64()),
                 pa.array(sp_href, pa.string())],
                names=["kind", "start", "end", "href"])).cast(SPANS_TYPE)
        links_arr = pa.ListArray.from_arrays(
            pa.array(lk_offs, pa.int32()),
            pa.StructArray.from_arrays(
                [pa.array(lk_text, pa.string()),
                 pa.array(lk_href, pa.string())],
                names=["text", "href"])).cast(LINKS_TYPE)

        return pa.table({
            "url": urls,
            "warc_ts": ts,
            "lang": langs,
            "extracted_text": pa.array(texts, pa.string()),
            "spans": spans_arr,
            "links": links_arr,
            "method": pa.array(methods, pa.string()),
            "error": pa.array(errors, pa.string()),
            "n_blocks_kept": pa.array(kept, pa.int32()),
            "n_blocks_dropped": pa.array(dropped, pa.int32()),
            "n_links": pa.array(n_links, pa.int32()),
            "n_chars": pa.array(n_chars, pa.int64()),
            "n_words": pa.array(n_words, pa.int64()),
            "quality_score": pa.array(quality, pa.float64()),
        })
