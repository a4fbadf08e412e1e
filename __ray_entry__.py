"""Driver contract for the graft builder (Ray Data target).

The driver's verify calls ``entry()`` as a smoke check (Ray is already
initialised, local mode), runs each ``queries()[name](sf_dir)`` at
sf=0.01 and compares it against the matching ``oracle_sql()[name]`` via
DuckDB (row-count + schema + order-insensitive value-hash).

No ``ray.init()`` / ``ray.shutdown()`` anywhere in this module or the
library code it calls (driver owns the session).
"""

from __future__ import annotations

import os
from collections.abc import Callable
from typing import Any


def entry() -> Any:
    """Flagship pipeline on /root/testdata/sf0.001.

    documents -> synthetic pages (streaming) -> extract (task pool) ->
    url dedup (keep latest crawl) -> Dataset of
    (url, warc_ts, lang, extracted_text, spans, links, metrics...).
    """
    from full_text_extractor_v6_ray.pipelines import extraction_pipeline

    return extraction_pipeline("/root/testdata/sf0.001", dedup=True)


# ---------------------------------------------------------------------------
# queries: one entry per implemented operator/pipeline (SURVEY.md §2)
# Each callable takes sf_dir and returns Dataset | DataFrame | pa.Table.
# Column names MUST match oracle_sql aliases exactly.
# ---------------------------------------------------------------------------

def queries() -> dict[str, Callable[[str], Any]]:
    from full_text_extractor_v6_ray import driver_queries as dq

    return dq.QUERIES


def oracle_sql() -> dict[str, str]:
    from full_text_extractor_v6_ray import driver_queries as dq

    return dq.ORACLES
