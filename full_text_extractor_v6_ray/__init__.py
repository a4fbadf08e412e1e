"""Ray-Data-native main-content extraction engine.

A from-scratch rebuild (NOT a port) of the data-processing capabilities of
``scottish-james/full-text-extractor-v6``: per-document structure-aware text
extraction over Parquet-backed Common-Crawl-style pages
``(url, warc_ts, html, text, lang)``, expressed as a streaming
``ray.data.Dataset`` pipeline:

    read_parquet -> map_batches(ExtractBatch task pool, pyarrow, zero-copy)
                 -> url dedup, latest warc_ts wins (batch-local combine,
                    then one bucketed exchange; hot urls cost O(batches))
                 -> write_parquet (partitioned, manifest-checkpointed)

Layout:
    extractor/  pure Python extraction library (no Ray): DOM walk, block
                scoring/boilerplate strip, markdown-ish rendering with byte
                spans, URL fixing, normalization, PDF branch.
    stages/     Ray Data map_batches stages (actor classes + batch fns).
    sources/    readers + the deterministic synthetic pages generator.
    functions/  vectorized scalar/column functions (pyarrow.compute based).
    pipelines/  end-to-end Dataset -> Dataset compositions + checkpointing.
    state/      broadcast state helpers (ray.put once, read per actor).
"""

__version__ = "0.1.0"
