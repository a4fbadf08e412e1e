"""Crawl-layer operators over web-scale link/snapshot tables.

The reference extracts one document at a time and never sees the crawl
as a whole (its folder walk, ``src/core/folder_processor.py``, is the
closest analog of a crawl manifest). At 100 TB the *crawl layer* —
snapshot-over-snapshot deltas, the hyperlink graph, anchor-text
aggregation, frontier scheduling, robots application — is first-class
work that the extraction engine has to run before/alongside per-page
extraction. Each operator here is a thin, explicitly-partitioned
composition of the repo's shuffle machinery:

- one bucketed exchange per keyed reduce (``bucketed_group_agg`` /
  ``hash_bucketed_distinct``), partials combined map-side first;
- big⋈big equality joins through ``bucket_hash_join`` (payload moves
  once);
- dimension-sized sides (robots rules) broadcast via ``ray.put``,
  probed vectorized in every batch — never re-shipped, never shuffled.

All per-batch code is Arrow/numpy kernels; no Python-per-row anywhere.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray
import ray.data

from .dedup import bucketed_group_agg, default_num_buckets
from .window import grouped_row_number

_BUCKET = "_bkt"


# ---------------------------------------------------------------------------
# Snapshot diff (incremental recrawl planning)
# ---------------------------------------------------------------------------

def snapshot_diff(prev: "ray.data.Dataset", cur: "ray.data.Dataset",
                  key: str = "url",
                  prev_hash: str = "hash_a", cur_hash: str = "hash_b",
                  num_buckets: int | None = None) -> "ray.data.Dataset":
    """Classify every url across two crawl snapshots.

    ``prev`` carries (key, prev_hash), ``cur`` carries (key, cur_hash)
    — content hashes computed upstream (md5 of the page body). Output
    is one row per distinct url with ``status`` in
    ``{'new','gone','changed','unchanged'}``: the work-list an
    incremental recrawl feeds to extraction (only 'new'+'changed' pages
    re-extract; 'gone' urls tombstone the index).

    Shape: the FULL OUTER join is algebraized away — each snapshot is
    url-UNIQUE (the post-dedup crawl contract), so both sides union as
    (url, hash_a, hash_b) rows with the absent side null and ONE
    bucketed exchange + a C++ hash-aggregate (``min`` skips nulls)
    reassembles the pair per url. Measured equal in wall time to the
    pandas-merge bucket join it replaced (both ~290k urls/s at 2M urls,
    scripts/crawl_bench.py) but stays Arrow end to end — no per-bucket
    object boxing of the url/hash strings, which is the memory term
    that matters when a bucket holds a hot host's slice at 10^12 urls.
    Classification is a per-batch Arrow ``if_else`` chain. Hash columns
    must be non-null for present rows (null means
    absent-from-that-snapshot).
    """

    def pad_prev(batch: pa.Table) -> pa.Table:
        return pa.table({
            key: batch.column(key),
            prev_hash: batch.column(prev_hash),
            cur_hash: pa.nulls(batch.num_rows, pa.string()),
        })

    def pad_cur(batch: pa.Table) -> pa.Table:
        return pa.table({
            key: batch.column(key),
            prev_hash: pa.nulls(batch.num_rows, pa.string()),
            cur_hash: batch.column(cur_hash),
        })

    both = (prev.map_batches(pad_prev, batch_format="pyarrow",
                             zero_copy_batch=True)
            .union(cur.map_batches(pad_cur, batch_format="pyarrow",
                                   zero_copy_batch=True)))
    merged = bucketed_group_agg(both, key,
                                [(prev_hash, "min"), (cur_hash, "min")],
                                num_buckets=num_buckets)

    def classify(batch: pa.Table) -> pa.Table:
        ha, hb = batch.column(prev_hash), batch.column(cur_hash)
        status = pc.if_else(
            pc.is_null(hb), pa.scalar("gone"),
            pc.if_else(
                pc.is_null(ha), pa.scalar("new"),
                pc.if_else(pc.equal(ha, hb),
                           pa.scalar("unchanged"), pa.scalar("changed"))))
        return pa.table({key: batch.column(key), "status": status})

    return merged.map_batches(classify, batch_format="pyarrow",
                              zero_copy_batch=True)


# ---------------------------------------------------------------------------
# Host link-graph aggregates
# ---------------------------------------------------------------------------

def host_degree(edges: "ray.data.Dataset",
                src_col: str = "src_host", dst_col: str = "dst_host",
                num_buckets: int | None = None) -> "ray.data.Dataset":
    """Per-host total out-/in-link counts over a directed edge list.

    Map-side each batch collapses to at most 2×hosts partial rows
    (host, n_out, n_in) — the out-count partial carries n_in=0 and vice
    versa — so ONE bucketed sum exchange produces both degrees with no
    join. Hot hosts (the web's link graph is power-law) cost O(batches)
    shuffle rows, never O(edges).
    """

    def partial(batch: pa.Table) -> pa.Table:
        zero = pa.scalar(0, pa.int64())
        out = (pa.table({"host": batch.column(src_col)})
               .group_by("host").aggregate([([], "count_all")])
               .rename_columns(["host", "n_out"]))
        out = out.append_column("n_in", pc.multiply(out.column("n_out"),
                                                    zero))
        inn = (pa.table({"host": batch.column(dst_col)})
               .group_by("host").aggregate([([], "count_all")])
               .rename_columns(["host", "n_in"]))
        inn = pa.table({"host": inn.column("host"),
                        "n_out": pc.multiply(inn.column("n_in"), zero),
                        "n_in": inn.column("n_in")})
        return pa.concat_tables([out, inn])

    partials = edges.map_batches(partial, batch_format="pyarrow",
                                 zero_copy_batch=True)
    return bucketed_group_agg(partials, "host",
                              [("n_out", "sum"), ("n_in", "sum")],
                              num_buckets=num_buckets)


def reciprocity_stats(edges: "ray.data.Dataset",
                      src_col: str = "src_host", dst_col: str = "dst_host",
                      num_buckets: int | None = None) -> "ray.data.Dataset":
    """Host-graph reciprocity: of all distinct undirected host pairs
    with at least one link, how many are linked in BOTH directions.

    Self-loops are ignored (a host linking itself says nothing about
    reciprocity). Shape: in-batch distinct on the directed pair →
    ONE bucketed exchange keyed on the unordered pair (lo, hi) carrying
    a direction flag → per-bucket (min, max) of the flag: a pair is
    reciprocal iff both flags appear. The final reduce is
    O(distinct pairs) rows collapsing to a single (n_pairs,
    n_reciprocal) row via metadata-sized per-bucket partials.
    """
    if num_buckets is None:
        num_buckets = default_num_buckets(32)

    def directed_partial(batch: pa.Table) -> pa.Table:
        s = batch.column(src_col).to_numpy(zero_copy_only=False)
        d = batch.column(dst_col).to_numpy(zero_copy_only=False)
        keep = s != d
        s, d = s[keep], d[keep]
        lo = np.minimum(s, d)
        hi = np.maximum(s, d)
        # direction flag relative to the unordered key
        flag = np.where(s < d, 1, 2).astype(np.int64)
        t = pa.table({"lo": pa.array(lo), "hi": pa.array(hi),
                      "dir": pa.array(flag)})
        # in-batch dedup of (lo, hi, dir): caps hot-pair shuffle rows
        g = t.group_by(["lo", "hi", "dir"]).aggregate([([], "count_all")])
        return g.drop_columns(["count_all"])

    def add_bucket(batch: pa.Table) -> pa.Table:
        lo = batch.column("lo").to_numpy(zero_copy_only=False)
        hi = batch.column("hi").to_numpy(zero_copy_only=False)
        h = (lo.astype(np.uint64) * np.uint64(0x9E3779B97F4A7C15)
             ^ hi.astype(np.uint64) * np.uint64(0xBF58476D1CE4E5B9))
        return batch.append_column(
            _BUCKET, pa.array((h % np.uint64(num_buckets)).astype(np.int64)))

    def pair_partial(g: pa.Table) -> pa.Table:
        a = (g.drop_columns([_BUCKET])
             .group_by(["lo", "hi"]).aggregate([("dir", "min"),
                                                ("dir", "max")]))
        both = pc.and_(pc.equal(a.column("dir_min"), pa.scalar(1)),
                       pc.equal(a.column("dir_max"), pa.scalar(2)))
        return pa.table({
            "_g": pa.array([0], pa.int64()),
            "n_pairs": pa.array([a.num_rows], pa.int64()),
            "n_reciprocal": pa.array(
                [int(pc.sum(pc.cast(both, pa.int64())).as_py() or 0)],
                pa.int64()),
        })

    from ray.data.aggregate import Sum

    partials = (edges.map_batches(directed_partial, batch_format="pyarrow",
                                  zero_copy_batch=True)
                .map_batches(add_bucket, batch_format="pyarrow",
                             zero_copy_batch=True)
                .groupby(_BUCKET)
                .map_groups(pair_partial, batch_format="pyarrow"))
    out = partials.groupby("_g").aggregate(
        Sum("n_pairs", alias_name="n_pairs"),
        Sum("n_reciprocal", alias_name="n_reciprocal"))
    return out.drop_columns(["_g"])


def anchor_target_agg(links: "ray.data.Dataset",
                      target_col: str = "target_page",
                      anchor_col: str = "anchor",
                      src_host_col: str = "src_host",
                      num_buckets: int | None = None
                      ) -> "ray.data.Dataset":
    """Per-target anchor-text aggregation over an exploded link table.

    For every link target: total inbound links, distinct referring
    hosts, and the lexicographically-first anchor text (the
    deterministic representative — real deployments swap in a
    frequency-weighted choice, same shuffle shape). Anchor text over
    in-links is the classic web-corpus relevance signal (it describes
    the *target*, not the page it sits on).

    Shape: map-side combine to (target, src_host) granularity — hot
    targets cost O(batches × hosts-per-batch) shuffle rows, never
    O(links) — then ONE bucketed exchange on target; the per-bucket
    reduce double-groups vectorized (pair level → target level).
    """
    if num_buckets is None:
        num_buckets = default_num_buckets(32)

    def partial(batch: pa.Table) -> pa.Table:
        t = pa.table({
            target_col: batch.column(target_col),
            src_host_col: batch.column(src_host_col),
            anchor_col: batch.column(anchor_col),
        })
        g = t.group_by([target_col, src_host_col]).aggregate(
            [([], "count_all"), (anchor_col, "min")])
        return g.rename_columns([target_col, src_host_col, "n",
                                 "min_anchor"])

    def add_bucket(batch: pa.Table) -> pa.Table:
        v = (batch.column(target_col).to_numpy(zero_copy_only=False)
             .astype(np.uint64))
        h = v * np.uint64(0x9E3779B97F4A7C15)
        return batch.append_column(
            _BUCKET, pa.array((h % np.uint64(num_buckets)).astype(np.int64)))

    def reduce_bucket(g: pa.Table) -> pa.Table:
        pair = (g.drop_columns([_BUCKET])
                .group_by([target_col, src_host_col])
                .aggregate([("n", "sum"), ("min_anchor", "min")]))
        tgt = pair.group_by(target_col).aggregate(
            [("n_sum", "sum"), ([], "count_all"), ("min_anchor_min", "min")])
        return tgt.rename_columns(
            [target_col, "n_links", "n_src_hosts", "top_anchor"])

    partials = links.map_batches(partial, batch_format="pyarrow",
                                 zero_copy_batch=True)
    return (partials.map_batches(add_bucket, batch_format="pyarrow",
                                 zero_copy_batch=True)
            .groupby(_BUCKET)
            .map_groups(reduce_bucket, batch_format="pyarrow"))


# ---------------------------------------------------------------------------
# Frontier scheduling + robots application
# ---------------------------------------------------------------------------

def frontier_waves(frontier: "ray.data.Dataset", host_col: str,
                   priority_col: str, id_col: str,
                   num_buckets: int | None = None) -> "ray.data.Dataset":
    """Politeness-wave assignment for a crawl frontier: within each
    host, urls are ranked by priority (desc, id asc tiebreak); wave k
    is the set of per-host rank-k urls. A polite crawler fetches one
    url per host per wave, so the wave number IS the earliest slot a
    url can be crawled — computed with one bucketed shuffle on host
    (``grouped_row_number``), no global sort anywhere.
    """
    return grouped_row_number(frontier, host_col,
                              [priority_col, id_col],
                              ascending=[False, True],
                              out_col="wave", num_buckets=num_buckets)


def apply_robots_rules(pages: "ray.data.Dataset", rules: pa.Table,
                       host_col: str = "host", path_col: str = "path"
                       ) -> "ray.data.Dataset":
    """Filter a url table against per-host robots rules with RFC 9309
    precedence.

    ``rules`` is a dimension-sized table (host:int64, prefix:string
    [, allow:bool]) — multiple rules per host are fine; a missing
    ``allow`` column means all-Disallow. The compiled rule fleet is
    grouped by distinct (prefix, allow) value and ``ray.put`` ONCE;
    each batch runs one ``pc.starts_with`` kernel + one sorted-host
    ``isin`` per distinct rule value (robots vocabularies are tiny vs
    the corpus — documented contract). Per row the LONGEST matching
    prefix decides, Allow winning length ties (RFC 9309 §2.2.2, the
    vectorized twin of ``decide_allowed``); unmatched rows are
    allowed. Disallowed rows are dropped.
    """
    from collections import defaultdict

    has_allow = "allow" in rules.column_names
    hosts_np = rules.column("host").to_numpy(zero_copy_only=False)
    prefixes = rules.column("prefix").to_pylist()
    allows = (rules.column("allow").to_pylist() if has_allow
              else [False] * len(prefixes))
    by_rule: dict = defaultdict(list)
    for h, p, a in zip(hosts_np, prefixes, allows):
        by_rule[(p, bool(a))].append(int(h))
    compiled = [(p, a, np.array(sorted(set(hs)), dtype=np.int64))
                for (p, a), hs in sorted(by_rule.items())]
    ref = ray.put(compiled)

    def filt(batch: pa.Table) -> pa.Table:
        comp = ray.get(ref)
        h = batch.column(host_col).to_numpy(zero_copy_only=False)
        n = len(h)
        best_len = np.full(n, -1, dtype=np.int64)
        best_allow = np.ones(n, dtype=bool)
        path_arr = batch.column(path_col)
        for prefix, allow, rhosts in comp:
            m = np.isin(h, rhosts)
            if not m.any():
                continue
            _, regex = _robots_rule_matcher(prefix)
            # fill_null(False): a null path must not poison the numpy
            # AND below (object-dtype None) — null path ⇒ rule doesn't
            # match ⇒ row stays allowed
            if regex is None:
                sw = pc.fill_null(
                    pc.starts_with(path_arr, pattern=prefix),
                    False).to_numpy(zero_copy_only=False)
            else:
                sw = pc.fill_null(
                    pc.match_substring_regex(path_arr, pattern=regex),
                    False).to_numpy(zero_copy_only=False)
            m &= sw
            ln = len(prefix)
            upd = m & ((best_len < ln)
                       | ((best_len == ln) & allow & ~best_allow))
            best_len[upd] = ln
            best_allow[upd] = allow
        return batch.filter(pa.array(best_allow))

    return pages.map_batches(filt, batch_format="pyarrow",
                             zero_copy_batch=True)


# ---------------------------------------------------------------------------
# Crawl front-end parsers: sitemap XML, robots.txt
# ---------------------------------------------------------------------------

_URLBLOCK_RE = __import__("re").compile(r"<url\b[^>]*>(.*?)</url>",
                                        __import__("re").S)
_LOC_RE = __import__("re").compile(r"<loc>\s*(.*?)\s*</loc>",
                                   __import__("re").S)
_LASTMOD_RE = __import__("re").compile(r"<lastmod>\s*(.*?)\s*</lastmod>",
                                       __import__("re").S)
_PRIORITY_RE = __import__("re").compile(r"<priority>\s*(.*?)\s*</priority>",
                                        __import__("re").S)


def _xml_unescape(s: str) -> str:
    return (s.replace("&amp;", "&").replace("&lt;", "<")
            .replace("&gt;", ">").replace("&quot;", '"')
            .replace("&apos;", "'"))


class SitemapParseBatch:
    """Parse ``urlset`` sitemap XML payloads into one row per ``<url>``
    entry: (owner passthrough columns, url, lastmod, priority).

    Stateless actor-pool parse stage, the sitemap analog of the WARC
    record walker (``sources/warc.py``): compiled patterns at module
    import, one linear regex sweep per payload, malformed entries
    (missing ``<loc>``) skipped rather than raised — a crawler must
    survive the web's XML. ``<sitemapindex>`` payloads yield zero rows
    here (index expansion is a fetch concern, not a parse concern).
    """

    def __init__(self, xml_col: str = "xml", id_col: str = "site_id"):
        self.xml_col = xml_col
        self.id_col = id_col

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids_out, urls, lastmods, prios = [], [], [], []
        ids = batch.column(self.id_col).to_pylist()
        for sid, payload in zip(ids, batch.column(self.xml_col).to_pylist()):
            text = payload.decode("utf-8", errors="replace") \
                if isinstance(payload, (bytes, bytearray)) else payload
            for m in _URLBLOCK_RE.finditer(text):
                block = m.group(1)
                loc = _LOC_RE.search(block)
                if not loc or not loc.group(1):
                    continue
                lm = _LASTMOD_RE.search(block)
                pr = _PRIORITY_RE.search(block)
                ids_out.append(sid)
                urls.append(_xml_unescape(loc.group(1)))
                lastmods.append(lm.group(1) if lm else None)
                try:
                    prios.append(float(pr.group(1)) if pr else None)
                except ValueError:
                    prios.append(None)
        return pa.table({
            self.id_col: pa.array(ids_out, pa.int64()),
            "url": pa.array(urls, pa.string()),
            "lastmod": pa.array(lastmods, pa.string()),
            "priority": pa.array(prios, pa.float64()),
        })


def parse_robots_rules(text: str, agent: str = "*"
                       ) -> tuple[list[str], int]:
    """RFC-9309-subset robots.txt parse for one agent (Disallow view).

    Returns ``(disallow_prefixes, crawl_delay)`` — the compiled form
    ``apply_robots_rules`` consumes when Allow precedence is not
    needed. See ``parse_robots_groups`` for the full (prefix, allow)
    rule list.
    """
    rules, delay = parse_robots_groups(text, agent)
    return [p for p, allow in rules if not allow], delay


def parse_robots_groups(text: str, agent: str = "*"
                        ) -> tuple[list[tuple[str, bool]], int]:
    """Full RFC-9309-subset robots.txt parse for one agent.

    Returns ``(rules, crawl_delay)`` with ``rules`` a list of
    ``(path_prefix, is_allow)`` in file order and delay -1 when the
    matched groups declare none. Group semantics: consecutive
    ``User-agent`` lines open a group; a group matches if any of its
    agents equals ``agent`` case-insensitively or is ``*``; when ANY
    group names the agent exactly, only exactly-matching groups apply
    (most-specific-wins, the RFC rule). Comments (#) stripped, empty
    Disallow values (allow-all) ignored, unknown fields skipped.
    Precedence between overlapping Allow/Disallow is the consumer's
    job (``decide_allowed``: longest matching prefix wins, Allow wins
    length ties — RFC 9309 §2.2.2).
    """
    want = agent.lower()
    groups: list[dict] = []
    cur_agents: list[str] = []
    cur: dict | None = None
    for raw in text.split("\n"):
        line = raw.split("#", 1)[0].strip()
        if not line or ":" not in line:
            continue
        field, _, value = line.partition(":")
        field = field.strip().lower()
        value = value.strip()
        if field == "user-agent":
            if cur is not None and (cur["rules"] or cur["delay"] >= 0):
                groups.append(cur)
                cur = None
            if cur is None:
                cur_agents = []
                cur = {"agents": cur_agents, "rules": [], "delay": -1}
            cur_agents.append(value.lower())
        elif cur is not None:
            if field == "disallow" and value:
                cur["rules"].append((value, False))
            elif field == "allow" and value:
                cur["rules"].append((value, True))
            elif field == "crawl-delay":
                try:
                    cur["delay"] = int(float(value))
                except ValueError:
                    pass
    if cur is not None:
        groups.append(cur)

    exact = [g for g in groups if want in g["agents"]]
    matched = exact or [g for g in groups if "*" in g["agents"]]
    rules: list[tuple[str, bool]] = []
    delay = -1
    for g in matched:
        rules.extend(g["rules"])
        if g["delay"] >= 0:
            delay = g["delay"]
    return rules, delay


@__import__("functools").lru_cache(maxsize=4096)
def _robots_rule_matcher(rule: str):
    """Compile one robots path rule to ``(match_fn, regex_or_None)``.

    RFC 9309 §2.2.3 special characters: ``*`` matches any octet
    sequence, a trailing ``$`` anchors the end of the path. Plain
    rules (the overwhelming majority) stay as startswith — no regex
    engine in the hot path for them. Specificity for precedence is
    the rule's octet length, wildcards included (the de-facto
    interpretation used by major crawlers).
    """
    import re as _re

    if "*" not in rule and not rule.endswith("$"):
        return (lambda p, r=rule: p.startswith(r)), None
    body, anchored = (rule[:-1], True) if rule.endswith("$") else (rule,
                                                                   False)
    pattern = ("^" + ".*".join(_re.escape(part)
                               for part in body.split("*"))
               + ("$" if anchored else ""))
    cre = _re.compile(pattern)
    return (lambda p, c=cre: c.match(p) is not None), pattern


def decide_allowed(path: str, rules: list[tuple[str, bool]]) -> bool:
    """RFC 9309 §2.2.2 precedence for one path: the most specific
    (longest) matching rule decides; Allow wins a length tie; no match
    = allowed. Rules may use ``*`` wildcards and ``$`` end anchors."""
    best_len, best_allow = -1, True
    for rule, allow in rules:
        match_fn, _ = _robots_rule_matcher(rule)
        if match_fn(path):
            ln = len(rule)
            if ln > best_len or (ln == best_len and allow):
                best_len, best_allow = ln, allow
    return best_allow


class RobotsParseBatch:
    """Explode robots.txt payloads into (host, prefix, allow,
    crawl_delay) rows for one crawler agent — the compiled-rule table
    that ``apply_robots_rules`` broadcasts. Hosts whose robots.txt
    yields no rules for the agent produce zero rows (allow-all)."""

    def __init__(self, agent: str = "*", host_col: str = "host",
                 text_col: str = "robots_txt"):
        self.agent = agent
        self.host_col = host_col
        self.text_col = text_col

    def __call__(self, batch: pa.Table) -> pa.Table:
        hosts_out, prefixes, allows, delays = [], [], [], []
        hosts = batch.column(self.host_col).to_pylist()
        for h, txt in zip(hosts, batch.column(self.text_col).to_pylist()):
            rules, delay = parse_robots_groups(txt or "", self.agent)
            for p, a in rules:
                hosts_out.append(h)
                prefixes.append(p)
                allows.append(a)
                delays.append(delay)
        return pa.table({
            self.host_col: pa.array(hosts_out, pa.int64()),
            "prefix": pa.array(prefixes, pa.string()),
            "allow": pa.array(allows, pa.bool_()),
            "crawl_delay": pa.array(delays, pa.int64()),
        })


_SMBLOCK_RE = __import__("re").compile(r"<sitemap\b[^>]*>(.*?)</sitemap>",
                                       __import__("re").S)


class SitemapIndexParseBatch:
    """Parse ``sitemapindex`` payloads into one row per child sitemap:
    (owner passthrough, sitemap_url, lastmod). The fetch loop feeds
    these back through the segment reader and then ``SitemapParseBatch``
    — index expansion is exactly one more hop of the same shape."""

    def __init__(self, xml_col: str = "xml", id_col: str = "site_id"):
        self.xml_col = xml_col
        self.id_col = id_col

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids_out, urls, lastmods = [], [], []
        ids = batch.column(self.id_col).to_pylist()
        for sid, payload in zip(ids, batch.column(self.xml_col).to_pylist()):
            text = payload.decode("utf-8", errors="replace") \
                if isinstance(payload, (bytes, bytearray)) else payload
            for m in _SMBLOCK_RE.finditer(text):
                block = m.group(1)
                loc = _LOC_RE.search(block)
                if not loc or not loc.group(1):
                    continue
                lm = _LASTMOD_RE.search(block)
                ids_out.append(sid)
                urls.append(_xml_unescape(loc.group(1)))
                lastmods.append(lm.group(1) if lm else None)
        return pa.table({
            self.id_col: pa.array(ids_out, pa.int64()),
            "sitemap_url": pa.array(urls, pa.string()),
            "lastmod": pa.array(lastmods, pa.string()),
        })
