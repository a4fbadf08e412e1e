"""Flagship pipeline: pages -> extract -> dedup -> (write | return).

Engine lifecycle (SURVEY.md §3.4):

    read_parquet (column-pruned)
      -> [synthesize pages from documents, streaming, when no pages table]
      -> map_batches(ExtractBatch, actor pool, pyarrow, zero-copy)
      -> dedup_latest_by_ts (local combine + one groupby shuffle)
      -> write_parquet (partitioned) / Dataset back to caller

No stage materializes the full dataset; the streaming executor pipelines
read → synth → extract → shuffle with backpressure.

WARC front-end (``warc_extraction_pipeline``, dedup on) elects before
it extracts:

    read segments #1 -> (url, warc_ts, n) partial counts   [materialized]
      -> keep-latest election: driver Arrow (<= BROADCAST_MAX rows)
         or bucketed aggregate (above)                     [eager, at build]
    read segments #2 -> filter to the winning captures (broadcast
                        is_in, or bucketed semi-join above the threshold)
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

import pyarrow as pa
import pyarrow.compute as pc

import ray.data

from ..config import DEFAULT_CONFIG, DEFAULT_PIPELINE_CONFIG, ExtractConfig, PipelineConfig
from ..sources.pages_gen import PAGES_SCHEMA, PageGenBatch
from ..stages.dedup import bucketed_group_agg, dedup_latest_by_ts
from ..stages.extract import EXTRACTED_SCHEMA, ExtractBatch
from ..stages.joins import BROADCAST_MAX, filter_to_keys


def pages_dataset_from_documents(sf_dir: str, seed: int = 42,
                                 pcfg: PipelineConfig = DEFAULT_PIPELINE_CONFIG,
                                 replicate: int = 1,
                                 ) -> "ray.data.Dataset":
    """Streaming synthetic pages over the driver's documents table.

    Column-pruned read (only the four columns the generator needs) — the
    'prune at the read' rule; generation is a stateless per-row pure
    function, so a plain-function map_batches stage (cheap elastic tasks).
    """
    docs = ray.data.read_parquet(
        os.path.join(sf_dir, "documents.parquet"),
        columns=["doc_id", "text", "lang", "source"],
    )
    return docs.map_batches(PageGenBatch(seed, replicate),
                            batch_format="pyarrow",
                            batch_size=pcfg.doc_batch_size,
                            zero_copy_batch=True)


def _pool_size(pcfg: PipelineConfig) -> tuple[int, int]:
    """Actor-pool bounds: autoscale (1, cluster_cpus - 2).

    Leaving >=2 CPUs free keeps the read and shuffle stages schedulable —
    a pool reserving every CPU deadlocks the streaming executor (the read
    task gets backpressured behind pending actors forever).
    """
    if pcfg.concurrency is not None:
        return (1, pcfg.concurrency)
    import ray
    try:
        total = int(ray.cluster_resources().get("CPU", 8))
    except Exception:
        total = 8
    cap = max(1, total - 2)
    # FIXED pool at cap: the autoscaler is too conservative (observed
    # plateau at ~half the cap on a 220k-page run), and autoscaling from a
    # low floor pays actor-startup latency serially. cap = cpus-2 keeps the
    # read/shuffle stages schedulable (full-width pool deadlocks the read).
    return (cap, cap)


def extract_pages(pages: "ray.data.Dataset",
                  cfg: ExtractConfig = DEFAULT_CONFIG,
                  pcfg: PipelineConfig = DEFAULT_PIPELINE_CONFIG
                  ) -> "ray.data.Dataset":
    """Extraction stage: Arrow zero-copy, html column dropped.

    Default is a TASK pool: extractor state is module-level compiled
    regexes, paid once per worker process at import under either mode,
    and tasks reuse Ray's prestarted workers — the actor pool's 5-14 s
    per-execution spawn (measured, 30 actors at 32 cpus) buys nothing
    here. ``pcfg.use_actor_pool`` keeps the A1 actor shape available for
    variants with genuinely expensive per-actor state (model loads).
    """
    if pcfg.use_actor_pool:
        return pages.map_batches(
            ExtractBatch,
            fn_constructor_kwargs={"cfg": cfg},
            batch_format="pyarrow",
            zero_copy_batch=True,
            batch_size=pcfg.batch_size,
            concurrency=_pool_size(pcfg),
            num_cpus=pcfg.num_cpus_per_actor,
        )
    return pages.map_batches(
        ExtractBatch(cfg),
        batch_format="pyarrow",
        zero_copy_batch=True,
        batch_size=pcfg.batch_size,
    )


def extraction_pipeline(sf_dir: str,
                        dedup: bool = True,
                        out_dir: str | None = None,
                        cfg: ExtractConfig = DEFAULT_CONFIG,
                        pcfg: PipelineConfig = DEFAULT_PIPELINE_CONFIG
                        ) -> "ray.data.Dataset":
    """documents.parquet -> pages -> extracted (optionally deduped/written)."""
    pages = pages_dataset_from_documents(sf_dir, pcfg=pcfg)
    extracted = extract_pages(pages, cfg=cfg, pcfg=pcfg)
    if dedup:
        extracted = dedup_latest_by_ts(extracted)
    if out_dir:
        extracted.write_parquet(out_dir)
    return extracted


_CAPTURE = "__capture"


def _capture_key(batch: pa.Table) -> pa.ChunkedArray:
    """``url\\x00ts_us``: the (url, warc_ts) pair as one string key. The
    timestamp digits never hold a NUL, so the key is injective."""
    ts_us = pc.cast(pc.cast(batch.column("warc_ts"), pa.int64()),
                    pa.string())
    return pc.binary_join_element_wise(batch.column("url"), ts_us, "\x00")


def _capture_counts(batch: pa.Table) -> pa.Table:
    """Slim map-side partial: (url, warc_ts, n) captures per batch."""
    return (batch.select(["url", "warc_ts"])
            .group_by(["url", "warc_ts"]).aggregate([("url", "count")])
            .rename_columns(["url", "warc_ts", "n"]))


def latest_captures(warc_dir: str, broadcast_max: int = BROADCAST_MAX
                    ) -> tuple["ray.data.Dataset | None", bool]:
    """Keep-latest election on slim rows: the WARC pages of
    ``warc_dir`` filtered to every capture at its url's max
    ``warc_ts`` (None when the segments hold no content record), plus
    whether ``dedup_latest_by_ts`` must still run after extraction.

    The segments are read twice. The first read keeps only
    ``(url, warc_ts, n)`` partial counts (projected in the same fused
    task as the record walk, so no html reaches the object store) and
    materializes them — the election runs eagerly, here. The second
    read is the lazy pages Dataset, filtered map-side before extraction.

    At or below ``broadcast_max`` partial rows the election finishes on
    the driver in Arrow (no shuffle) and the winning keys broadcast to
    the filter. Rows tied at the max ``warc_ts`` all survive: their
    tie-break (``n_chars``) is an extraction output, so the post-extract
    dedup is needed only when some winning (url, warc_ts) has more than
    one capture. Above the threshold the election is one bucketed
    aggregate, pages meet the winners in a bucketed semi-join, and the
    post-extract dedup always runs.
    """
    from ..sources.warc import read_warc_dir

    slim = read_warc_dir(warc_dir).map_batches(
        _capture_counts, batch_format="pyarrow",
        zero_copy_batch=True).materialize()
    n_partial = slim.count()
    if n_partial == 0:
        return None, False
    if n_partial <= broadcast_max:
        t = pa.concat_tables(
            [b for b in ray.get(slim.to_arrow_refs()) if b.num_rows])
        latest = t.group_by("url").aggregate([("warc_ts", "max")])
        at = pc.index_in(t.column("url"),
                         value_set=latest.column("url").combine_chunks())
        win = t.filter(pc.equal(t.column("warc_ts"),
                                pc.take(latest.column("warc_ts_max"), at)))
        keys = pc.unique(_capture_key(win))
        ties = pc.sum(win.column("n")).as_py() > len(keys)
    else:
        keys = bucketed_group_agg(slim, "url", [("warc_ts", "max")]) \
            .map_batches(lambda b: pa.table({_CAPTURE: _capture_key(b)}),
                         batch_format="pyarrow", zero_copy_batch=True)
        ties = True
    pages = read_warc_dir(warc_dir).map_batches(
        lambda b: b.append_column(_CAPTURE, _capture_key(b)),
        batch_format="pyarrow", zero_copy_batch=True)
    pages = filter_to_keys(
        pages, keys, _CAPTURE, n_partial, broadcast_max=broadcast_max,
        left_schema=PAGES_SCHEMA.append(pa.field(_CAPTURE, pa.string())))
    return pages.drop_columns([_CAPTURE]), ties


def warc_extraction_pipeline(warc_dir: str,
                             dedup: bool = True,
                             out_dir: str | None = None,
                             cfg: ExtractConfig = DEFAULT_CONFIG,
                             pcfg: PipelineConfig = DEFAULT_PIPELINE_CONFIG
                             ) -> "ray.data.Dataset":
    """Raw crawl segments -> corpus: the Common-Crawl front-end of the
    flagship pipeline.

    .warc/.warc.gz segments -> one pages-schema row per content record
    (``sources/warc.py``: segment-sharded reads, Content-Length record
    walk, member gunzip, HTTP-envelope strip) -> the SAME extract /
    url-dedup / write stages as the parquet path. The unit of
    parallelism and of retry is the segment file.

    With ``dedup`` the keep-latest election runs BEFORE extraction, on
    slim (url, warc_ts) rows (``latest_captures``): the segments are
    read twice, the first read and the election run eagerly when this
    function is called, and only the surviving captures are extracted.
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
        extracted = extract_pages(pages, cfg=cfg, pcfg=pcfg)
    if ties:
        extracted = dedup_latest_by_ts(extracted)
    if out_dir:
        extracted.write_parquet(out_dir)
    return extracted
