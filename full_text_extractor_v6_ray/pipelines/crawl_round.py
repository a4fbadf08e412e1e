"""One composed crawl round over a WARC snapshot (round-4 verdict
item 8): the crawl-layer operators — robots parse/apply, sitemap
parse, politeness waves, incremental CDC extraction — wired into a
single pipeline a scheduler would run per recrawl cycle.

    warc_dir snapshot
      ├── /robots.txt records ──▶ RobotsParseBatch ──▶ rule table
      │                                          (dimension-sized,
      │                                           broadcast_join)
      ├── sitemap .xml records ─▶ SitemapParseBatch ─▶ discovered urls
      └── content records ──▶ apply_robots_rules ──▶ allowed pages
                                   │                      │
             frontier = allowed ∪ discovered       incremental CDC
                    │ (url-dedup, priority)        round (digest trust
             frontier_waves per host               path, delta parquet)
                    │
             schedule (url, host, wave, delay_s, fetch_at_s)

Scale shape: THREE streaming full-snapshot passes total — one fused
meta pass (robots AND sitemaps parsed together), then the CDC round's
slim-hash scan and work-filter pass over the robots-filtered content
lineage. The frontier's recrawl urls come from the round's committed
manifest (slim parquet), never a fourth snapshot pass. No pass
materializes the wide html rows; at 100 TB a handful of streaming IO
passes beat pinning the snapshot in the object store. Robots/sitemap records are a per-host trickle (the
dimension-table contract `apply_robots_rules` already documents); the
only corpus-wide exchanges are the frontier wave ranking (slim url
rows) and the CDC hash diff, both bucketed. Host keys are int64
``hash64`` of the hostname so skewed string hosts never ride a shuffle
key raw.
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray
import ray.data

from ..config import DEFAULT_CONFIG, ExtractConfig
from ..sources.warc import read_warc_dir
from ..stages.crawl import (
    RobotsParseBatch,
    SitemapParseBatch,
    apply_robots_rules,
    frontier_waves,
)
from ..stages.hashing import hash64
from ..stages.joins import broadcast_join
from .incremental import incremental_extraction_round

_URL_PARTS = (r"^[A-Za-z][A-Za-z0-9+.-]*://"
              r"(?P<host>[^/?#]*)(?P<path>[^?#]*)")


def _decorate_host_path(batch: pa.Table, url_col: str = "url") -> pa.Table:
    """Append host (string), host_id (int64 hash) and path columns.
    Schemeless/unparseable urls get host "" / path "/" (never null —
    downstream kernels and the wave shuffle need total keys)."""
    ex = pc.extract_regex(batch.column(url_col), pattern=_URL_PARTS)
    host = pc.fill_null(pc.utf8_lower(pc.struct_field(ex, "host")), "")
    path = pc.fill_null(pc.struct_field(ex, "path"), "/")
    path = pc.if_else(pc.equal(path, ""), pa.scalar("/"), path)
    harr = host.combine_chunks() if isinstance(host, pa.ChunkedArray) \
        else host
    hid = pa.array(hash64(harr).astype(np.int64))
    return (batch.append_column("host", host)
                 .append_column("host_id", hid)
                 .append_column("path", path))


def _is_robots(path: pa.ChunkedArray | pa.Array):
    return pc.equal(path, "/robots.txt")


def _is_sitemap(path: pa.ChunkedArray | pa.Array):
    return pc.and_(pc.match_substring(path, pattern="sitemap"),
                   pc.ends_with(path, pattern=".xml"))


def _filter_class(pages: "ray.data.Dataset", which: str
                  ) -> "ray.data.Dataset":
    def filt(batch: pa.Table) -> pa.Table:
        b = _decorate_host_path(batch)
        p = b.column("path")
        robots = pc.fill_null(_is_robots(p), False)
        sitemap = pc.fill_null(_is_sitemap(p), False)
        if which == "robots":
            mask = robots
        elif which == "sitemap":
            mask = pc.and_(sitemap, pc.invert(robots))
        else:
            mask = pc.invert(pc.or_(robots, sitemap))
        return b.filter(mask)

    return pages.map_batches(filt, batch_format="pyarrow",
                             zero_copy_batch=True)


def crawl_round(warc_dir: str, state_dir: str, agent: str = "*",
                default_priority: float = 0.5,
                default_delay: int = 1,
                cfg: ExtractConfig = DEFAULT_CONFIG) -> dict:
    """Run one crawl round; returns ``{summary, schedule, rules}``.

    ``summary`` is the CDC round record plus crawl counts; ``schedule``
    is a Dataset of (url, host, host_id, priority, wave, delay_s,
    fetch_at_s) — the politeness-feasible fetch plan for the NEXT
    round; ``rules`` is the compiled robots rule table (host_id,
    prefix, allow, crawl_delay).
    """
    pages = read_warc_dir(warc_dir, include_digest=True)

    # ONE meta pass over the snapshot yields BOTH robots rules and
    # sitemap-discovered urls (meta records are a per-host trickle, so
    # the two parses ride the same filtered read instead of costing a
    # full snapshot pass each — at 100 TB that's one less IO sweep)
    def parse_meta(batch: pa.Table) -> pa.Table:
        b = _decorate_host_path(batch)
        p = b.column("path")
        robots_mask = pc.fill_null(_is_robots(p), False)
        sitemap_mask = pc.and_(pc.fill_null(_is_sitemap(p), False),
                               pc.invert(robots_mask))
        rb = b.filter(robots_mask)
        rules_t = RobotsParseBatch(agent=agent)(pa.table({
            "host": rb.column("host_id"),
            "robots_txt": pc.cast(rb.column("html"), pa.string())}))
        sm = b.filter(sitemap_mask)
        disc_t = SitemapParseBatch(xml_col="xml", id_col="site_id")(
            pa.table({"site_id": sm.column("host_id"),
                      "xml": pc.cast(sm.column("html"), pa.string())}))
        # union the two row kinds under a tag; absent columns null
        n_r, n_d = rules_t.num_rows, disc_t.num_rows
        return pa.table({
            "kind": pa.array(["rule"] * n_r + ["disc"] * n_d),
            "host": pa.concat_arrays(
                [rules_t.column("host").combine_chunks(),
                 disc_t.column("site_id").combine_chunks()]),
            "prefix": pa.concat_arrays(
                [rules_t.column("prefix").combine_chunks(),
                 pa.nulls(n_d, pa.string())]),
            "allow": pa.concat_arrays(
                [rules_t.column("allow").combine_chunks(),
                 pa.nulls(n_d, pa.bool_())]),
            "crawl_delay": pa.concat_arrays(
                [rules_t.column("crawl_delay").combine_chunks(),
                 pa.nulls(n_d, pa.int64())]),
            "url": pa.concat_arrays(
                [pa.nulls(n_r, pa.string()),
                 disc_t.column("url").combine_chunks()]),
            "priority": pa.concat_arrays(
                [pa.nulls(n_r, pa.float64()),
                 disc_t.column("priority").combine_chunks()]),
        })

    meta = pa.concat_tables(
        list(pages.map_batches(parse_meta, batch_format="pyarrow",
                               zero_copy_batch=True)
             .iter_batches(batch_format="pyarrow"))
        or [pa.schema([("kind", pa.string()), ("host", pa.int64()),
                       ("prefix", pa.string()), ("allow", pa.bool_()),
                       ("crawl_delay", pa.int64()), ("url", pa.string()),
                       ("priority", pa.float64())]).empty_table()]
    ).combine_chunks()
    is_rule = pc.equal(meta.column("kind"), "rule")
    rules = (meta.filter(is_rule)
             .select(["host", "prefix", "allow", "crawl_delay"]))
    disc_tbl = (meta.filter(pc.invert(is_rule))
                .select(["url", "priority"]))
    discovered = ray.data.from_arrow(disc_tbl)

    # content records -> robots-filtered pages
    content = _filter_class(pages, "content")
    allowed = apply_robots_rules(content, rules,
                                 host_col="host_id", path_col="path")

    # CDC extraction over the allowed pages (digest trust path)
    allowed_pages = allowed.map_batches(
        lambda b: b.select(["url", "warc_ts", "html", "text", "lang",
                            "payload_digest"]),
        batch_format="pyarrow", zero_copy_batch=True)
    summary = incremental_extraction_round(
        allowed_pages, state_dir, cfg=cfg,
        hash_col="payload_digest")

    # frontier = allowed content urls (recrawl) ∪ sitemap-discovered
    # urls, robots-filtered, url-dedup (max priority wins), then
    # politeness waves + per-host delay decorate. The recrawl urls come
    # from the round's just-committed manifest (slim url->hash parquet
    # = exactly the allowed pages) — re-deriving them from ``allowed``
    # would re-execute the content+robots lineage, a FOURTH full
    # snapshot pass for rows the CDC round already persisted.
    manifest_dir = os.path.join(state_dir, "manifest",
                                f"round-{summary['round']}")
    recrawl = ray.data.read_parquet(manifest_dir).map_batches(
        lambda b, _p=default_priority: pa.table({
            "url": b.column("url"),
            "priority": pa.array([_p] * b.num_rows, pa.float64()),
        }),
        batch_format="pyarrow", zero_copy_batch=True)
    disc_urls = discovered.map_batches(
        lambda b, _p=default_priority: pa.table({
            "url": b.column("url"),
            "priority": pc.fill_null(b.column("priority"), _p),
        }),
        batch_format="pyarrow", zero_copy_batch=True)
    frontier = recrawl.union(disc_urls)

    def decorate(batch: pa.Table) -> pa.Table:
        b = _decorate_host_path(batch)
        uid = pa.array(hash64(b.column("url").combine_chunks())
                       .astype(np.int64))
        return b.append_column("url_id", uid)

    frontier = frontier.map_batches(decorate, batch_format="pyarrow",
                                    zero_copy_batch=True)
    frontier = apply_robots_rules(frontier, rules,
                                  host_col="host_id", path_col="path")
    # url-dedup: keep the highest-priority row per url
    from ..stages.dedup import keyed_keep_one
    frontier = keyed_keep_one(frontier, "url", [("priority", "descending")])
    waves = frontier_waves(
        frontier.map_batches(
            lambda b: b.select(["url", "host", "host_id", "priority",
                                "url_id"]),
            batch_format="pyarrow", zero_copy_batch=True),
        "host_id", "priority", "url_id")

    # per-host crawl delay: a left broadcast_join against the rule
    # table's (host, delay) rows, one per host; a host without rules
    # waits ``default_delay``
    delays = rules.group_by("host").aggregate([("crawl_delay", "max")])
    delays = pa.table({"host_id": delays["host"],
                       "delay_s": pc.max_element_wise(
                           delays["crawl_delay_max"], default_delay)})

    def schedule(batch: pa.Table) -> pa.Table:
        delay = pc.fill_null(batch.column("delay_s"), default_delay)
        return pa.table({
            "url": batch.column("url"),
            "host": batch.column("host"),
            "host_id": batch.column("host_id"),
            "priority": batch.column("priority"),
            "wave": batch.column("wave"),
            "delay_s": delay,
            "fetch_at_s": pc.multiply(
                pc.subtract(batch.column("wave"), 1), delay),
        })

    sched = broadcast_join(waves, delays, "host_id", how="left").map_batches(
        schedule, batch_format="pyarrow", zero_copy_batch=True)
    return {"summary": summary, "schedule": sched, "rules": rules}
