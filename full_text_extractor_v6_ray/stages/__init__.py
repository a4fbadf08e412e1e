"""Ray Data stages: batch UDFs (plain fns and callable instances, run as
tasks); ``enhance`` keeps the one bounded actor pool."""

from .extract import ExtractBatch, SPANS_TYPE, EXTRACTED_SCHEMA
from .dedup import dedup_latest_by_ts

__all__ = ["ExtractBatch", "SPANS_TYPE", "EXTRACTED_SCHEMA", "dedup_latest_by_ts"]
