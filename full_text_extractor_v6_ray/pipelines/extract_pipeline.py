"""Flagship pipeline: pages -> extract -> dedup -> (write | return).

Engine lifecycle (SURVEY.md §3.4):

    read_parquet (column-pruned)
      -> [synthesize pages from documents, streaming, when no pages table]
      -> map_batches(ExtractBatch, task pool, pyarrow, zero-copy)
      -> dedup_latest_by_ts (local combine + one groupby shuffle)
      -> write_parquet (partitioned) / Dataset back to caller

No stage materializes the full dataset; the streaming executor pipelines
read → synth → extract → shuffle with backpressure.

WARC front-end (``warc_extraction_pipeline``, dedup on) elects before
it extracts, walking each segment once:

    walk segments (one plain Ray task each, raw bytes; no Ray Data
    execution)
      -> (url, warc_ts, seg, byte span) locator tables in the object
         store; the driver fetches their row counts
      -> keep-latest election: driver Arrow (<= BROADCAST_MAX rows)
         or per bucket of one keyed exchange (above)
    winners sorted by (seg, start): one block per segment holding any
    (driver election) or per bucket
      -> map_batches(FetchRecords): seek + read + inflate only the
         winners' spans, HTTP envelope stripped
      -> map_batches(ExtractBatch)
      -> dedup_latest_by_ts, only if captures tied at a url's max warc_ts
         or the bucketed branch ran
      -> write_parquet / Dataset back to caller

The synthesized-pages path keeps extract-then-dedup: its (url, warc_ts)
come out of the same page render as the html, so a slim pass would cost
what it saves.
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray.data

from ..config import DEFAULT_CONFIG, ExtractConfig
from ..sources.pages_gen import PageGenBatch
from ..stages.dedup import dedup_latest_by_ts
from ..stages.exchange import by_bucket
from ..stages.extract import BATCH_SIZE, EXTRACTED_SCHEMA, ExtractBatch
from ..stages.joins import BROADCAST_MAX


def pages_dataset_from_documents(sf_dir: str, seed: int = 42,
                                 replicate: int = 1,
                                 ) -> "ray.data.Dataset":
    """Streaming synthetic pages over the driver's documents table.

    Column-pruned read (only the four columns the generator needs) — the
    'prune at the read' rule; generation is a stateless per-row pure
    function, so a plain-function map_batches stage (cheap elastic tasks).
    Its ``BATCH_SIZE`` documents per batch set the task grain of the
    fused synth -> extract operator; with ``replicate=R`` one batch
    carries ~``BATCH_SIZE`` * R pages.
    """
    docs = ray.data.read_parquet(
        os.path.join(sf_dir, "documents.parquet"),
        columns=["doc_id", "text", "lang", "source"],
    )
    return docs.map_batches(PageGenBatch(seed, replicate),
                            batch_format="pyarrow",
                            batch_size=BATCH_SIZE,
                            zero_copy_batch=True)


def extract_pages(pages: "ray.data.Dataset",
                  cfg: ExtractConfig = DEFAULT_CONFIG) -> "ray.data.Dataset":
    """Extraction stage: Arrow zero-copy, html column dropped.

    A TASK pool: extractor state is module-level compiled regexes, paid
    once per worker process at import, and tasks reuse Ray's prestarted
    workers — an actor pool's 5-14 s per-execution spawn (measured, 30
    actors at 32 cpus: tasks 11.6 s vs actors 16-26 s on the 223k-page
    bench) buys nothing here.

    No ``batch_size``: Ray fuses a read into this stage only when the
    stage asks for no minimum bundle, so each read task (a parquet file,
    a WARC segment) extracts its own pages and no html block crosses the
    object store; ``ExtractBatch`` bounds its working set in
    ``BATCH_SIZE``-row slices.
    """
    return pages.map_batches(
        ExtractBatch(cfg),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )


def extraction_pipeline(sf_dir: str,
                        dedup: bool = True,
                        out_dir: str | None = None,
                        cfg: ExtractConfig = DEFAULT_CONFIG
                        ) -> "ray.data.Dataset":
    """documents.parquet -> pages -> extracted (optionally deduped/written)."""
    pages = pages_dataset_from_documents(sf_dir)
    extracted = extract_pages(pages, cfg=cfg)
    if dedup:
        extracted = dedup_latest_by_ts(extracted)
    if out_dir:
        extracted.write_parquet(out_dir)
    return extracted


def _at_latest(t: pa.Table) -> pa.Table:
    """The keep-latest election over locator rows: every row at its
    url's max ``warc_ts`` (tied rows all kept), in ``(seg, start,
    rec_start)`` order — the order ``FetchRecords`` reads in. The same
    function runs on the driver and per bucket."""
    latest = t.group_by("url").aggregate([("warc_ts", "max")])
    at = pc.index_in(t.column("url"), value_set=latest.column("url"))
    win = t.filter(pc.equal(t.column("warc_ts"),
                            pc.take(latest.column("warc_ts_max"), at)))
    return win.sort_by([("seg", "ascending"), ("start", "ascending"),
                        ("rec_start", "ascending")])


def latest_captures(warc_dir: str, broadcast_max: int = BROADCAST_MAX
                    ) -> tuple["ray.data.Dataset | None", bool]:
    """Keep-latest election on record locators: the WARC pages of
    ``warc_dir`` cut to every capture at its url's max ``warc_ts``
    (None when the segments hold no content record), plus whether
    ``dedup_latest_by_ts`` must still run after extraction.

    Each segment is walked once, in a plain Ray task
    (``sources/warc.walk_segments``) that reads the raw file and keeps
    one slim ``LOCATOR_SCHEMA`` row per content record (url, warc_ts,
    segment index, byte span): the walk runs eagerly, here, and its
    output feeds only the election, so it pays no Ray Data execution.
    The driver fetches the row counts; the returned pages Dataset is lazy:
    ``FetchRecords`` reads only the winners' spans, so a losing
    capture's body is never read past the first walk, and no page body
    enters a shuffle.

    At or below ``broadcast_max`` locator rows the driver fetches the
    locator tables, elects, and sends the winners out as one block per
    segment that holds any (one fetch-and-extract task each). Rows tied
    at the max ``warc_ts`` all survive: their tie-break (``n_chars``) is
    an extraction output, so the post-extract dedup is needed only when
    some url keeps more than one capture. Above the threshold the
    election runs per bucket of one keyed exchange of the locator rows
    and the post-extract dedup always runs; the locator tables go into
    it by reference and never reach the driver.
    """
    from ..sources.warc import (
        FetchRecords,
        locate_records,
        walk_segments,
        warc_paths,
    )

    paths = warc_paths(warc_dir)
    counts, slim = walk_segments(paths, locate_records)
    n_rows = sum(counts)
    if n_rows == 0:
        return None, False
    if n_rows <= broadcast_max:
        win = _at_latest(pa.concat_tables(ray.get(slim)))
        ties = win.num_rows > pc.count_distinct(win.column("url")).as_py()
        segs = win.column("seg").to_numpy()
        cuts = [0, *(np.flatnonzero(np.diff(segs)) + 1), len(segs)]
        winners = ray.data.from_arrow(
            [win.slice(a, b - a) for a, b in zip(cuts, cuts[1:])])
    else:
        winners = by_bucket(ray.data.from_arrow_refs(
            [t for n, t in zip(counts, slim) if n]), "url", _at_latest)
        ties = True
    return winners.map_batches(FetchRecords(paths), batch_format="pyarrow",
                               zero_copy_batch=True), ties


def warc_extraction_pipeline(warc_dir: str,
                             dedup: bool = True,
                             out_dir: str | None = None,
                             cfg: ExtractConfig = DEFAULT_CONFIG
                             ) -> "ray.data.Dataset":
    """Raw crawl segments -> corpus: the Common-Crawl front-end of the
    flagship pipeline.

    .warc/.warc.gz segments -> one pages-schema row per content record
    (``sources/warc.py``: segment-sharded reads, Content-Length record
    walk, member gunzip, HTTP-envelope strip) -> the SAME extract /
    url-dedup / write stages as the parquet path. The unit of
    parallelism and of retry is the segment file.

    With ``dedup`` the keep-latest election runs BEFORE extraction, on
    slim record-locator rows (``latest_captures``): the segment walk
    (plain Ray tasks, one per segment) and the election run eagerly
    when this function is called, and only the winners' bytes are read
    again, at their locators, and extracted — one Ray Data execution
    with ``out_dir``.
    ``dedup_latest_by_ts`` then runs after extraction only when the
    election left equal-max-``warc_ts`` ties (or took its bucketed
    branch); otherwise it would keep every row. Without ``dedup`` the
    segments are read once and streamed end to end.
    """
    from ..sources.warc import read_warc_dir

    pages, ties = (latest_captures(warc_dir) if dedup
                   else (read_warc_dir(warc_dir), False))
    if pages is None:
        # Ray runs no UDF over an input without rows, so an extracted
        # empty would carry no schema
        extracted = ray.data.from_arrow(EXTRACTED_SCHEMA.empty_table())
    else:
        extracted = extract_pages(pages, cfg=cfg)
    if ties:
        extracted = dedup_latest_by_ts(extracted)
    if out_dir:
        extracted.write_parquet(out_dir)
    return extracted
