"""Crawl-layer query batch: snapshot diff, link graph, frontier ops.

Inputs are synthesised DETERMINISTICALLY from doc_id arithmetic so
DuckDB can rebuild the identical crawl from the same parquet (the
``docs_canonical_url_dedup`` convention, driver_queries.py). Synthesis
constants:

- ``url(p) = https://host{p % 97}.example.com/p{p}`` — 97 hosts.
- each page emits 3 outlinks: target ``t_j = (p*31 + j*17 + 7) % N``
  (N = corpus row count), anchor ``p{t}-a{(p+j) % 13}``.
- frontier priority ``(p * 7919) % 1000``.

The operators under test live in ``stages/crawl.py``; every query here
has an exact DuckDB oracle.
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray.data

from .driver_queries_tpch import _read

_NH = 97  # synthetic host cardinality


def _url_expr_sql(page: str) -> str:
    return ("'https://host' || ((" + page + ") % 97) || '.example.com/p' || ("
            + page + ")")


def _synth_url(pages: np.ndarray) -> pa.Array:
    hosts = pages % _NH
    return pa.array([f"https://host{h}.example.com/p{p}"
                     for h, p in zip(hosts, pages)], pa.string())


def _edges_ds(sf_dir: str) -> "ray.data.Dataset":
    """Exploded synthetic link table: (src_page, src_host, target_page,
    dst_host, anchor) — 3 rows per document."""
    ds = _read(sf_dir, "documents", columns=["doc_id"])
    n = ds.count()  # parquet metadata count, no scan

    def explode(batch: pa.Table) -> pa.Table:
        p = batch.column("doc_id").to_numpy(zero_copy_only=False)
        parts = []
        for j in range(3):
            t = (p * 31 + j * 17 + 7) % n
            anchors = pa.array(
                [f"p{tt}-a{aa}" for tt, aa in zip(t, (p + j) % 13)],
                pa.string())
            parts.append(pa.table({
                "src_page": pa.array(p),
                "src_host": pa.array(p % _NH),
                "target_page": pa.array(t),
                "dst_host": pa.array(t % _NH),
                "anchor": anchors,
            }))
        return pa.concat_tables(parts)

    return ds.map_batches(explode, batch_format="pyarrow",
                          zero_copy_batch=True)


_EDGES_SQL = """
        edges AS (
            SELECT doc_id AS src_page,
                   doc_id % 97 AS src_host,
                   (doc_id * 31 + l.j * 17 + 7)
                       % (SELECT COUNT(*) FROM documents) AS target_page,
                   (doc_id * 31 + l.j * 17 + 7)
                       % (SELECT COUNT(*) FROM documents) % 97 AS dst_host,
                   'p' || ((doc_id * 31 + l.j * 17 + 7)
                       % (SELECT COUNT(*) FROM documents))
                       || '-a' || ((doc_id + l.j) % 13) AS anchor
            FROM documents
            CROSS JOIN (VALUES (0), (1), (2)) AS l(j)
        )
"""


# ---------------------------------------------------------------------------
# crawl_snapshot_diff
# ---------------------------------------------------------------------------

def q_crawl_snapshot_diff(sf_dir: str):
    """Incremental recrawl delta (stages/crawl.py snapshot_diff): urls
    classified new/gone/changed/unchanged across two crawl snapshots
    via ONE bucketed FULL OUTER join on url.

    Synthesis: snapshot A = every document's page with md5(text);
    snapshot B drops doc_id%10==0 pages ('gone'), rewrites the body of
    doc_id%10==1 pages (md5(text||'v2') → 'changed'), and adds a brand
    new page at id doc_id+N for doc_id%10==2 ('new')."""
    from .stages.crawl import snapshot_diff
    from .stages.hashing import md5_hex

    docs = _read(sf_dir, "documents", columns=["doc_id", "text"])
    n = docs.count()

    def side_a(batch: pa.Table) -> pa.Table:
        p = batch.column("doc_id").to_numpy(zero_copy_only=False)
        return pa.table({"url": _synth_url(p),
                         "hash_a": md5_hex(batch.column("text"))})

    def side_b(batch: pa.Table) -> pa.Table:
        p = batch.column("doc_id").to_numpy(zero_copy_only=False)
        text = batch.column("text")
        mod = p % 10
        keep = mod != 0
        kept_p = p[keep]
        kept_text = text.filter(pa.array(keep)).combine_chunks()
        suffix = pa.array(np.where((kept_p % 10) == 1, "v2", ""),
                          pa.string())
        h_keep = md5_hex(pc.binary_join_element_wise(kept_text, suffix, ""))
        new_mask = mod == 2
        new_p = p[new_mask] + n
        h_new = md5_hex(pc.binary_join_element_wise(
            text.filter(pa.array(new_mask)).combine_chunks(), "new", ""))
        return pa.table({
            "url": pa.concat_arrays([_synth_url(kept_p), _synth_url(new_p)]),
            "hash_b": pa.concat_arrays([h_keep, h_new]),
        })

    a = docs.map_batches(side_a, batch_format="pyarrow",
                         zero_copy_batch=True)
    b = docs.map_batches(side_b, batch_format="pyarrow",
                         zero_copy_batch=True)
    return snapshot_diff(a, b, key="url",
                         prev_hash="hash_a", cur_hash="hash_b")


_SNAPSHOT_DIFF_SQL = f"""
        WITH a AS (
            SELECT {_url_expr_sql('doc_id')} AS url, md5(text) AS hash_a
            FROM documents
        ), b AS (
            SELECT {_url_expr_sql('doc_id')} AS url,
                   CASE WHEN doc_id % 10 = 1 THEN md5(text || 'v2')
                        ELSE md5(text) END AS hash_b
            FROM documents WHERE doc_id % 10 <> 0
            UNION ALL
            SELECT {_url_expr_sql(
                'doc_id + (SELECT COUNT(*) FROM documents)')} AS url,
                   md5(text || 'new') AS hash_b
            FROM documents WHERE doc_id % 10 = 2
        )
        SELECT COALESCE(a.url, b.url) AS url,
               CASE WHEN b.url IS NULL THEN 'gone'
                    WHEN a.url IS NULL THEN 'new'
                    WHEN a.hash_a = b.hash_b THEN 'unchanged'
                    ELSE 'changed' END AS status
        FROM a FULL OUTER JOIN b ON a.url = b.url
"""


# ---------------------------------------------------------------------------
# links_anchor_stats / host_link_degree / host_reciprocity
# ---------------------------------------------------------------------------

def q_links_anchor_stats(sf_dir: str):
    """Anchor-text aggregation per link target (stages/crawl.py
    anchor_target_agg): inbound link count, distinct referring hosts,
    lexicographically-first anchor — map-side combine to
    (target, host) granularity, ONE bucketed exchange."""
    from .stages.crawl import anchor_target_agg

    return anchor_target_agg(_edges_ds(sf_dir))


def q_host_link_degree(sf_dir: str):
    """Host-level out-/in-degree over the synthetic link graph
    (stages/crawl.py host_degree): both degrees from ONE bucketed sum
    exchange of per-batch partials, no join."""
    from .stages.crawl import host_degree

    return host_degree(_edges_ds(sf_dir))


def q_host_reciprocity(sf_dir: str):
    """Host-graph reciprocity (stages/crawl.py reciprocity_stats):
    distinct undirected host pairs and how many link both ways —
    in-batch pair dedup, one unordered-pair exchange, scalar result."""
    from .stages.crawl import reciprocity_stats

    return reciprocity_stats(_edges_ds(sf_dir))


# ---------------------------------------------------------------------------
# frontier_politeness_waves / frontier_robots_filter
# ---------------------------------------------------------------------------

def q_frontier_politeness_waves(sf_dir: str):
    """Per-host politeness-wave assignment for the crawl frontier
    (stages/crawl.py frontier_waves): wave k = each host's k-th url by
    (priority desc, id asc) — one bucketed host shuffle, no global
    sort. Priority is the deterministic (doc_id*7919)%1000 score."""
    from .stages.crawl import frontier_waves

    ds = _read(sf_dir, "documents", columns=["doc_id"])

    def synth(batch: pa.Table) -> pa.Table:
        p = batch.column("doc_id").to_numpy(zero_copy_only=False)
        return pa.table({
            "doc_id": pa.array(p),
            "host": pa.array(p % _NH),
            "priority": pa.array((p * 7919) % 1000),
        })

    frontier = ds.map_batches(synth, batch_format="pyarrow",
                              zero_copy_batch=True)
    return frontier_waves(frontier, "host", "priority", "doc_id")


def q_frontier_robots_filter(sf_dir: str):
    """Robots Disallow application (stages/crawl.py apply_robots_rules):
    hosts h%7==0 disallow the path prefix '/p{h%10}'; the rule table is
    dimension-sized, broadcast once via ray.put, probed vectorized per
    batch. Output = the allowed frontier."""
    from .stages.crawl import apply_robots_rules

    ds = _read(sf_dir, "documents", columns=["doc_id"])

    def synth(batch: pa.Table) -> pa.Table:
        p = batch.column("doc_id").to_numpy(zero_copy_only=False)
        return pa.table({
            "doc_id": pa.array(p),
            "host": pa.array(p % _NH),
            "path": pa.array([f"/p{pp}" for pp in p], pa.string()),
        })

    hosts = np.arange(_NH, dtype=np.int64)
    ruled = hosts[hosts % 7 == 0]
    rules = pa.table({
        "host": pa.array(ruled),
        "prefix": pa.array([f"/p{h % 10}" for h in ruled], pa.string()),
    })
    pages = ds.map_batches(synth, batch_format="pyarrow",
                           zero_copy_batch=True)
    return apply_robots_rules(pages, rules).select_columns(
        ["doc_id", "host", "path"])


def q_sitemap_roundtrip(sf_dir: str):
    """Sitemap XML ingestion end-to-end (stages/crawl.py
    SitemapParseBatch): every document owns a synthetic ``urlset``
    sitemap whose 3 entries reuse the link-graph targets; loc/lastmod/
    priority are pure doc_id arithmetic DuckDB recomputes, so a green
    hash pins build → parse → unescape → typed projection."""
    import datetime

    from .stages.crawl import SitemapParseBatch

    ds = _read(sf_dir, "documents", columns=["doc_id"])
    n = ds.count()
    epoch = datetime.date(2025, 1, 1)

    def build(batch: pa.Table) -> pa.Table:
        p = batch.column("doc_id").to_numpy(zero_copy_only=False)
        xmls = []
        for d in p:
            entries = []
            for j in range(3):
                t = int((d * 31 + j * 17 + 7) % n)
                lastmod = (epoch
                           + datetime.timedelta(days=t % 365)).isoformat()
                prio = (t % 9 + 1) / 10.0
                entries.append(
                    f"  <url>\n    <loc>https://host{t % _NH}.example.com"
                    f"/p{t}</loc>\n    <lastmod>{lastmod}</lastmod>\n"
                    f"    <priority>{prio:.1f}</priority>\n  </url>\n")
            xmls.append('<?xml version="1.0" encoding="UTF-8"?>\n'
                        '<urlset xmlns="http://www.sitemaps.org/schemas'
                        '/sitemap/0.9">\n' + "".join(entries) + "</urlset>\n")
        return pa.table({"site_id": batch.column("doc_id"),
                         "xml": pa.array(xmls, pa.string())})

    sitemaps = ds.map_batches(build, batch_format="pyarrow",
                              zero_copy_batch=True)
    parsed = sitemaps.map_batches(SitemapParseBatch(), batch_format="pyarrow",
                                  zero_copy_batch=True)

    def round1(batch: pa.Table) -> pa.Table:
        return batch.set_column(
            batch.schema.get_field_index("priority"), "priority",
            pc.round(batch.column("priority"), ndigits=1))

    return parsed.map_batches(round1, batch_format="pyarrow",
                              zero_copy_batch=True)


def q_robots_parse(sf_dir: str):
    """robots.txt parsing for a specific crawler agent (stages/crawl.py
    RobotsParseBatch / parse_robots_rules): synthetic per-host robots
    files exercise comments, allow-all hosts, multi-rule star groups
    and most-specific-wins agent groups; the exploded (host, prefix,
    crawl_delay) rule rows are recomputed arithmetically by DuckDB."""
    import ray.data

    from .stages.crawl import RobotsParseBatch

    hosts = ray.data.range(_NH)

    def build(batch) -> pa.Table:
        ids = batch["id"].to_numpy(zero_copy_only=False) \
            if isinstance(batch, pa.Table) else batch["id"]
        out = []
        for h in np.asarray(ids):
            h = int(h)
            if h % 5 == 4:
                out.append("# crawl freely\n")
                continue
            txt = (f"# robots for host{h}\nUser-agent: *\n"
                   f"Disallow: /p{h % 10}\n")
            if h % 2 == 0:
                txt += f"Disallow: /admin\nAllow: /p{h % 10}/pub\n"
            txt += f"Crawl-delay: {h % 4}\n"
            if h % 3 == 0:
                txt += f"\nUser-agent: graftbot\nDisallow: /g{h % 7}\n"
            out.append(txt)
        return pa.table({"host": pa.array(np.asarray(ids, np.int64)),
                         "robots_txt": pa.array(out, pa.string())})

    robots = hosts.map_batches(build, batch_format="pyarrow")
    return robots.map_batches(RobotsParseBatch(agent="graftbot"),
                              batch_format="pyarrow", zero_copy_batch=True)


def q_frontier_schedule(sf_dir: str):
    """Composed polite-crawl schedule: politeness waves × per-host
    robots Crawl-delay → the earliest second each url may be fetched
    (``fetch_at_s = (wave-1) * delay``). Composes three crawl ops end
    to end: RobotsParseBatch (delay extraction, agent '*'),
    frontier_waves (per-host rank, one bucketed shuffle), and a
    dimension-sized (host → delay) left ``broadcast_join`` — the
    frontier itself never leaves the cluster."""
    import ray.data

    from .stages.crawl import RobotsParseBatch, frontier_waves
    from .stages.joins import broadcast_join

    # per-host delays from the same synthetic robots fleet as
    # q_robots_parse, parsed for the star agent
    hosts = ray.data.range(_NH)

    def build(batch: pa.Table) -> pa.Table:
        ids = batch["id"].to_numpy(zero_copy_only=False)
        out = []
        for h in np.asarray(ids):
            h = int(h)
            if h % 5 == 4:
                out.append("# crawl freely\n")
                continue
            txt = (f"User-agent: *\nDisallow: /p{h % 10}\n"
                   f"Crawl-delay: {h % 4}\n")
            if h % 3 == 0:
                txt += f"\nUser-agent: graftbot\nDisallow: /g{h % 7}\n"
            out.append(txt)
        return pa.table({"host": pa.array(np.asarray(ids, np.int64)),
                         "robots_txt": pa.array(out, pa.string())})

    rules = (hosts.map_batches(build, batch_format="pyarrow")
             .map_batches(RobotsParseBatch(agent="*"),
                          batch_format="pyarrow", zero_copy_batch=True))
    # dimension-sized: one delay per ruled host (at least 1 s); a host's
    # rule rows all carry its one delay
    delays = pa.Table.from_pandas(
        rules.select_columns(["host", "crawl_delay"]).to_pandas()
    ).group_by("host").aggregate([("crawl_delay", "max")])
    delays = pa.table({"host": delays["host"],
                       "delay_s": pc.max_element_wise(
                           delays["crawl_delay_max"], 1)})

    ds = _read(sf_dir, "documents", columns=["doc_id"])

    def synth(batch: pa.Table) -> pa.Table:
        p = batch.column("doc_id").to_numpy(zero_copy_only=False)
        return pa.table({
            "doc_id": pa.array(p),
            "host": pa.array(p % _NH),
            "priority": pa.array((p * 7919) % 1000),
        })

    waves = frontier_waves(
        ds.map_batches(synth, batch_format="pyarrow", zero_copy_batch=True),
        "host", "priority", "doc_id")

    def schedule(batch: pa.Table) -> pa.Table:
        # a host without rules waits 1 s
        delay = pc.fill_null(batch.column("delay_s"), 1)
        return pa.table({
            "doc_id": batch.column("doc_id"),
            "host": batch.column("host"),
            "wave": batch.column("wave"),
            "delay_s": delay,
            "fetch_at_s": pc.multiply(
                pc.subtract(batch.column("wave"), 1), delay)})

    return broadcast_join(waves, delays, "host", how="left").map_batches(
        schedule, batch_format="pyarrow", zero_copy_batch=True)


def q_crawl_round_e2e(sf_dir: str):
    """The composed crawl round (pipelines/crawl_round.py) end-to-end
    over a synthesized WARC snapshot: robots records (host%3==0:
    Disallow /p<h%7>, Crawl-delay h%4+1), sitemap records (host%2==0:
    /s1 pri 0.9, /s2 pri 0.2), content pages /p<doc_id> on 40 hosts —
    parse+apply robots, discover sitemap urls, politeness waves, CDC
    extraction round, then aggregate the resulting SCHEDULE per host.
    Every count/wave/delay is pure doc_id arithmetic."""
    import datetime
    import hashlib as _hl
    import shutil

    from ray.data.aggregate import Count, Max, Sum

    from .pipelines.crawl_round import crawl_round
    from .sources.warc import build_warc_segment

    nh = 40
    epoch = datetime.datetime(2024, 3, 1)
    ds = _read(sf_dir, "documents", columns=["doc_id"])

    tag = _hl.md5(sf_dir.encode()).hexdigest()[:8]
    warc_dir = f"/tmp/graft_crawlround_{tag}/warc"
    state_dir = f"/tmp/graft_crawlround_{tag}/state"
    shutil.rmtree(f"/tmp/graft_crawlround_{tag}", ignore_errors=True)
    os.makedirs(warc_dir, exist_ok=True)

    # meta segment: robots + sitemaps for the 40 hosts (driver-side,
    # dimension-sized)
    meta_recs = []
    for h in range(nh):
        if h % 3 == 0:
            meta_recs.append((
                f"https://h{h}.ex/robots.txt", epoch,
                (f"User-agent: *\nDisallow: /p{h % 7}\n"
                 f"Crawl-delay: {h % 4 + 1}\n").encode()))
        if h % 2 == 0:
            meta_recs.append((
                f"https://h{h}.ex/sitemap.xml", epoch,
                ('<?xml version="1.0"?><urlset>'
                 f"<url><loc>https://h{h}.ex/s1</loc>"
                 "<priority>0.9</priority></url>"
                 f"<url><loc>https://h{h}.ex/s2</loc>"
                 "<priority>0.2</priority></url></urlset>").encode()))
    with open(os.path.join(warc_dir, "seg-meta.warc"), "wb") as f:
        f.write(build_warc_segment(meta_recs, payload_digest=True))

    # content segments, sharded by doc_id block (distributed write)
    def add_seg(batch: pa.Table) -> pa.Table:
        seg = np.asarray(batch.column("doc_id").to_numpy(
            zero_copy_only=False)) // 500
        return batch.append_column("seg", pa.array(seg, pa.int64()))

    def write_segment(g: pa.Table) -> pa.Table:
        ids = np.sort(g.column("doc_id").to_numpy(zero_copy_only=False))
        recs = [(f"https://h{int(p) % nh}.ex/p{int(p)}",
                 epoch,
                 (f"<html><body><p>Doc {int(p)} body.</p></body></html>"
                  ).encode()) for p in ids]
        seg = int(ids[0] // 500)
        payload = build_warc_segment(recs, payload_digest=True)
        tmp = os.path.join(warc_dir, f"seg-{seg:06d}.warc.tmp")
        with open(tmp, "wb") as f:
            f.write(payload)
        os.replace(tmp, os.path.join(warc_dir, f"seg-{seg:06d}.warc"))
        return pa.table({"seg": pa.array([seg], pa.int64())})

    (ds.map_batches(add_seg, batch_format="pyarrow", zero_copy_batch=True)
       .groupby("seg").map_groups(write_segment, batch_format="pyarrow")
       .count())   # barrier: all segments on disk before the round

    out = crawl_round(warc_dir, state_dir)

    def flags(batch: pa.Table) -> pa.Table:
        disc = pc.cast(pc.match_substring_regex(
            batch.column("url"), pattern=r"/s[12]$"), pa.int64())
        return pa.table({
            "host": batch.column("host"),
            "wave": batch.column("wave"),
            "delay_s": batch.column("delay_s"),
            "is_disc": disc,
            "is_recrawl": pc.subtract(pa.scalar(1, pa.int64()), disc),
        })

    sched = out["schedule"].map_batches(flags, batch_format="pyarrow",
                                        zero_copy_batch=True)
    return sched.groupby("host").aggregate(
        Count(alias_name="n_frontier"),
        Sum(on="is_recrawl", alias_name="n_recrawl"),
        Sum(on="is_disc", alias_name="n_discovered"),
        Max(on="wave", alias_name="max_wave"),
        Max(on="delay_s", alias_name="delay_s"),
    )


def q_incremental_delta_urls(sf_dir: str):
    """Incremental recrawl end-to-end (pipelines/incremental.py): run
    TWO real rounds through the CDC state machine (manifest write,
    snapshot diff against the persisted manifest, work-list semi-join,
    delta extraction) over the same synthetic two-snapshot crawl as
    ``crawl_snapshot_diff``; return the urls the second round actually
    re-extracted (its delta parquet). The oracle recomputes the
    new+changed set arithmetically — a green hash pins manifest
    persistence + diff + work-list selection, not just the diff."""
    import datetime
    import hashlib as _hl
    import shutil

    from .pipelines.incremental import incremental_extraction_round

    docs = _read(sf_dir, "documents", columns=["doc_id", "text"])
    n = docs.count()
    ts = datetime.datetime(2024, 1, 1)

    def pages_of(batch: pa.Table, which: str) -> pa.Table:
        p = batch.column("doc_id").to_numpy(zero_copy_only=False)
        texts = batch.column("text").to_pylist()
        urls, htmls = [], []
        for d, txt in zip(p, texts):
            d = int(d)
            if which == "a":
                urls.append(f"https://host{d % _NH}.example.com/p{d}")
                htmls.append(f"<html><body><p>{txt}</p></body>"
                             f"</html>".encode())
            else:
                if d % 10 == 0:
                    continue  # gone
                body = txt + ("v2" if d % 10 == 1 else "")
                urls.append(f"https://host{d % _NH}.example.com/p{d}")
                htmls.append(f"<html><body><p>{body}</p></body>"
                             f"</html>".encode())
                if d % 10 == 2:
                    nd = d + n
                    urls.append(
                        f"https://host{nd % _NH}.example.com/p{nd}")
                    htmls.append(f"<html><body><p>{txt}new</p></body>"
                                 f"</html>".encode())
        m = len(urls)
        return pa.table({
            "url": pa.array(urls, pa.string()),
            "warc_ts": pa.array([ts] * m, pa.timestamp("us")),
            "html": pa.array(htmls, pa.binary()),
            "text": pa.array([""] * m, pa.string()),
            "lang": pa.array(["en"] * m, pa.string()),
        })

    tag = _hl.md5(sf_dir.encode()).hexdigest()[:8]
    state = f"/tmp/graft_incr_{tag}"
    shutil.rmtree(state, ignore_errors=True)
    incremental_extraction_round(
        docs.map_batches(lambda b: pages_of(b, "a"),
                         batch_format="pyarrow", zero_copy_batch=True),
        state)
    incremental_extraction_round(
        docs.map_batches(lambda b: pages_of(b, "b"),
                         batch_format="pyarrow", zero_copy_batch=True),
        state)
    delta = ray.data.read_parquet(os.path.join(state, "delta", "round-1"),
                                  columns=["url"])
    return delta


QUERIES = {
    "crawl_round_e2e": q_crawl_round_e2e,
    "sitemap_roundtrip": q_sitemap_roundtrip,
    "frontier_schedule": q_frontier_schedule,
    "incremental_delta_urls": q_incremental_delta_urls,
    "robots_parse": q_robots_parse,
    "crawl_snapshot_diff": q_crawl_snapshot_diff,
    "links_anchor_stats": q_links_anchor_stats,
    "host_link_degree": q_host_link_degree,
    "host_reciprocity": q_host_reciprocity,
    "frontier_politeness_waves": q_frontier_politeness_waves,
    "frontier_robots_filter": q_frontier_robots_filter,
}

ORACLES = {
    "crawl_round_e2e": """
        -- recompute the composed round's per-host schedule: a page
        -- /p<doc_id> on host h=doc_id%40 is disallowed iff h%3=0 and
        -- its id string starts with h%7 (Disallow /p<h%7> prefix
        -- semantics); sitemap hosts (h%2=0) contribute /s1+/s2;
        -- frontier waves are one-per-host-slot so max_wave = frontier
        -- size; Crawl-delay h%4+1 where robots exist, else 1
        WITH per_host AS (
            SELECT doc_id % 40 AS h,
                   SUM(CASE WHEN (doc_id % 40) % 3 = 0
                             AND CAST(doc_id AS VARCHAR) LIKE
                                 CAST((doc_id % 40) % 7 AS VARCHAR) || '%'
                            THEN 0 ELSE 1 END) AS n_allowed
            FROM documents GROUP BY 1)
        SELECT 'h' || CAST(h AS VARCHAR) || '.ex' AS host,
               CAST(n_allowed + CASE WHEN h % 2 = 0 THEN 2 ELSE 0 END
                    AS BIGINT) AS n_frontier,
               CAST(n_allowed AS BIGINT) AS n_recrawl,
               CAST(CASE WHEN h % 2 = 0 THEN 2 ELSE 0 END
                    AS BIGINT) AS n_discovered,
               CAST(n_allowed + CASE WHEN h % 2 = 0 THEN 2 ELSE 0 END
                    AS BIGINT) AS max_wave,
               CAST(CASE WHEN h % 3 = 0 THEN h % 4 + 1 ELSE 1 END
                    AS BIGINT) AS delay_s
        FROM per_host
    """,
    "incremental_delta_urls": f"""
        -- the work list round 2 must re-extract: changed bodies
        -- (doc_id%10=1) plus brand-new pages (id doc_id+N for
        -- doc_id%10=2); gone/unchanged pages must NOT appear
        SELECT {_url_expr_sql('doc_id')} AS url
        FROM documents WHERE doc_id % 10 = 1
        UNION ALL
        SELECT {_url_expr_sql(
            'doc_id + (SELECT COUNT(*) FROM documents)')} AS url
        FROM documents WHERE doc_id % 10 = 2
    """,
    "frontier_schedule": """
        -- waves (ROW_NUMBER per host) x star-group Crawl-delay from
        -- the synthetic robots fleet; delay floors at 1s, rule-less
        -- (comment-only h%5=4) hosts default to 1s
        WITH waves AS (
            SELECT doc_id, doc_id % 97 AS host,
                   CAST(ROW_NUMBER() OVER (
                       PARTITION BY doc_id % 97
                       ORDER BY (doc_id * 7919) % 1000 DESC, doc_id ASC
                   ) AS BIGINT) AS wave
            FROM documents
        ), delays AS (
            SELECT h AS host,
                   CASE WHEN h % 5 = 4 THEN 1
                        ELSE GREATEST(h % 4, 1) END AS delay_s
            FROM range(0, 97) t(h)
        )
        SELECT w.doc_id, w.host, w.wave,
               CAST(d.delay_s AS BIGINT) AS delay_s,
               CAST((w.wave - 1) * d.delay_s AS BIGINT) AS fetch_at_s
        FROM waves w JOIN delays d ON w.host = d.host
    """,
    "sitemap_roundtrip": """
        -- mirrors q_sitemap_roundtrip's XML builder arithmetic; the
        -- Ray side recovers these values by PARSING the XML it built
        WITH t AS (
            SELECT doc_id AS site_id,
                   (doc_id * 31 + l.j * 17 + 7)
                       % (SELECT COUNT(*) FROM documents) AS t
            FROM documents CROSS JOIN (VALUES (0), (1), (2)) AS l(j)
        )
        SELECT site_id,
               'https://host' || (t % 97) || '.example.com/p' || t AS url,
               CAST(DATE '2025-01-01'
                    + CAST(t % 365 AS INTEGER) AS VARCHAR) AS lastmod,
               ROUND((t % 9 + 1) / 10.0, 1) AS priority
        FROM t
    """,
    "robots_parse": """
        -- expected rule rows for agent 'graftbot' over the synthetic
        -- robots fleet: exact-match group wins where present (h%3=0),
        -- else the star group's rules + delay apply; h%5=4 hosts are
        -- comment-only (allow-all, zero rows); even star hosts carry
        -- an Allow carve-out under their Disallowed prefix
        WITH hosts AS (SELECT h FROM range(0, 97) t(h) WHERE h % 5 <> 4)
        SELECT h AS host, '/g' || (h % 7) AS prefix, FALSE AS allow,
               CAST(-1 AS BIGINT) AS crawl_delay
        FROM hosts WHERE h % 3 = 0
        UNION ALL
        SELECT h, '/p' || (h % 10), FALSE, CAST(h % 4 AS BIGINT)
        FROM hosts WHERE h % 3 <> 0
        UNION ALL
        SELECT h, '/admin', FALSE, CAST(h % 4 AS BIGINT)
        FROM hosts WHERE h % 3 <> 0 AND h % 2 = 0
        UNION ALL
        SELECT h, '/p' || (h % 10) || '/pub', TRUE, CAST(h % 4 AS BIGINT)
        FROM hosts WHERE h % 3 <> 0 AND h % 2 = 0
    """,
    "crawl_snapshot_diff": _SNAPSHOT_DIFF_SQL,
    "links_anchor_stats": f"""
        WITH {_EDGES_SQL.strip()}
        SELECT target_page,
               CAST(COUNT(*) AS BIGINT) AS n_links,
               CAST(COUNT(DISTINCT src_host) AS BIGINT) AS n_src_hosts,
               MIN(anchor) AS top_anchor
        FROM edges GROUP BY target_page
    """,
    "host_link_degree": f"""
        WITH {_EDGES_SQL.strip()},
        o AS (SELECT src_host AS host, CAST(COUNT(*) AS BIGINT) AS n_out
              FROM edges GROUP BY src_host),
        i AS (SELECT dst_host AS host, CAST(COUNT(*) AS BIGINT) AS n_in
              FROM edges GROUP BY dst_host)
        SELECT COALESCE(o.host, i.host) AS host,
               COALESCE(o.n_out, 0) AS n_out,
               COALESCE(i.n_in, 0) AS n_in
        FROM o FULL OUTER JOIN i ON o.host = i.host
    """,
    "host_reciprocity": f"""
        WITH {_EDGES_SQL.strip()},
        directed AS (
            SELECT DISTINCT LEAST(src_host, dst_host) AS lo,
                   GREATEST(src_host, dst_host) AS hi,
                   CASE WHEN src_host < dst_host THEN 1 ELSE 2 END AS dir
            FROM edges WHERE src_host <> dst_host
        ), pairs AS (
            SELECT lo, hi, MIN(dir) AS dmin, MAX(dir) AS dmax
            FROM directed GROUP BY lo, hi
        )
        SELECT CAST(COUNT(*) AS BIGINT) AS n_pairs,
               CAST(SUM(CASE WHEN dmin = 1 AND dmax = 2 THEN 1 ELSE 0 END)
                    AS BIGINT) AS n_reciprocal
        FROM pairs
    """,
    "frontier_politeness_waves": """
        SELECT doc_id, doc_id % 97 AS host,
               (doc_id * 7919) % 1000 AS priority,
               CAST(ROW_NUMBER() OVER (
                   PARTITION BY doc_id % 97
                   ORDER BY (doc_id * 7919) % 1000 DESC, doc_id ASC
               ) AS BIGINT) AS wave
        FROM documents
    """,
    "frontier_robots_filter": """
        WITH pages AS (
            SELECT doc_id, doc_id % 97 AS host,
                   '/p' || doc_id AS path
            FROM documents
        ), rules AS (
            SELECT h AS host, '/p' || (h % 10) AS prefix
            FROM range(0, 97) t(h) WHERE h % 7 = 0
        )
        SELECT p.doc_id, p.host, p.path
        FROM pages p LEFT JOIN rules r ON p.host = r.host
        WHERE r.host IS NULL
           OR p.path NOT LIKE r.prefix || '%'
    """,
}
