"""CDX-style URL canonicalization + canonical-URL dedup.

A web corpus's "same page, different URL string" problem: crawlers see
``HTTPS://Example.COM:443/p?utm_source=feed#top`` and
``https://example.com/p`` as distinct keys, so URL-keyed dedup
(``state/url_index.py``, ``keyed_keep_one`` on url) under-merges unless
URLs are canonicalized first. This module is the missing normalization
kernel (the web-archive/CDX canonical-URL transform — reference analog:
``fix_url``'s scheme/TLD repair in ``extractor/links.py``, applied here
to the dedup key instead of display links):

  - scheme and host lowercased (they are case-insensitive per RFC 3986);
  - default ports ``:80``/``:443`` stripped from the authority;
  - the fragment dropped (``#...`` never reaches the server);
  - tracking query params removed (``utm_*``, ``gclid``, ``fbclid`` —
    case-insensitive), with separator cleanup so ``?utm_x=1&page=2``
    canonicalizes to ``?page=2`` and a now-empty query disappears.

Everything is RE2 ``pyarrow.compute`` kernels over the whole column —
no Python row loop — and every pattern is RE2-portable, so the DuckDB
oracle applies the IDENTICAL rewrites (cross-engine parity pinned in
tests/test_urlnorm.py on adversarial URLs). Rows that don't look like
``scheme://authority...`` pass through with only fragment/param
cleanup (relative URLs keep their case: paths are case-sensitive).

Scale shape: canonicalization is per-batch map work; the dedup is ONE
bucketed exchange on the canonical string's stable hash with map-side
(canonical, min_id, n) partials — the ``bucketed_group_agg`` combiner
pattern, so hot canonical URLs (a viral page crawled millions of
times) cost O(batches) rows through the shuffle, not O(crawls).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from .dedup import bucketed_group_agg

# Query params that never change the served page. (?i): hosts emit
# UTM_Source= and utm_source= interchangeably.
TRACKING_PARAM_PATTERN = r"(?i)(utm_[a-z0-9_]+|gclid|fbclid)=[^&]*(&|$)"
_AUTHORITY_PATTERN = (r"^(?P<scheme>[A-Za-z][A-Za-z0-9+.-]*)://"
                      r"(?P<host>[^/?#]*)(?P<rest>.*)$")


def canonicalize_urls(col: pa.ChunkedArray | pa.Array) -> pa.Array:
    """Vectorized canonical form of a URL column (see module doc)."""
    s = pc.cast(col, pa.string())
    s = pc.replace_substring_regex(s, pattern=r"#.*$", replacement="")
    s = pc.replace_substring_regex(s, pattern=TRACKING_PARAM_PATTERN,
                                   replacement="")
    s = pc.replace_substring_regex(s, pattern=r"[?&]+$", replacement="")
    s = pc.replace_substring_regex(s, pattern=r"\?&", replacement="?")
    ex = pc.extract_regex(s, pattern=_AUTHORITY_PATTERN)
    scheme = pc.utf8_lower(pc.struct_field(ex, "scheme"))
    host = pc.utf8_lower(pc.struct_field(ex, "host"))
    host = pc.replace_substring_regex(host, pattern=r":(80|443)$",
                                      replacement="")
    # join scheme + '://' + host + rest with an empty separator (the
    # LAST argument of binary_join_element_wise is the separator)
    n = len(s)
    rebuilt = pc.binary_join_element_wise(
        scheme, pa.array(["://"] * n, pa.string()), host,
        pc.struct_field(ex, "rest"), "")
    out = pc.if_else(pc.is_valid(ex), rebuilt, s)
    return out.combine_chunks() if isinstance(out, pa.ChunkedArray) else out


def surt_keys(col: pa.ChunkedArray | pa.Array) -> pa.Array:
    """SURT (Sort-friendly URI Reordering Transform) key per URL — the
    web-archive CDX index key: host labels reversed and comma-joined,
    then ``)`` + the lowercased path+query, e.g.
    ``https://News.Example.com/A/b?q=1`` -> ``com,example,news)/a/b?q=1``.

    Canonicalization is applied first (tracking params, fragment,
    default ports — ``canonicalize_urls``); userinfo is stripped;
    non-default ports stay on the last label (``com,example:8080)/``).
    Rows that don't parse as ``scheme://authority...`` pass through
    lowercased (they still sort deterministically).

    Scale shape: everything is Arrow kernels except the label reversal,
    which runs once per UNIQUE host in the batch (np.unique + inverse
    take) — crawl batches repeat hosts heavily, so the Python work is
    O(#domains), not O(rows).
    """
    s = canonicalize_urls(col)
    ex = pc.extract_regex(s, pattern=_AUTHORITY_PATTERN)
    host = pc.utf8_lower(pc.struct_field(ex, "host"))
    # strip userinfo (user:pass@) — never part of the key
    host = pc.replace_substring_regex(host, pattern=r"^[^@]*@",
                                      replacement="")
    rest = pc.utf8_lower(pc.struct_field(ex, "rest"))
    rest = pc.if_else(pc.equal(pc.utf8_length(rest), 0),
                      pa.scalar("/", pa.string()), rest)
    valid = pc.is_valid(ex)
    host_np = host.to_pandas().to_numpy(dtype=object)
    uniq, inverse = np.unique(
        np.where(host_np == None, "", host_np), return_inverse=True)  # noqa: E711
    rev = np.empty(len(uniq), dtype=object)
    for i, h in enumerate(uniq):
        name, _, port = h.partition(":")
        key = ",".join(reversed(name.split(".")))
        rev[i] = key + (":" + port if port else "")
    rev_host = pa.array(rev[inverse], pa.string())
    keyed = pc.binary_join_element_wise(
        rev_host, pa.array([")"] * len(s), pa.string()), rest, "")
    out = pc.if_else(valid, keyed, pc.utf8_lower(s))
    return out.combine_chunks() if isinstance(out, pa.ChunkedArray) else out


def canonical_url_dedup(ds: "ray.data.Dataset", url_col: str = "url",
                        id_col: str = "doc_id"
                        ) -> "ray.data.Dataset":
    """(canonical_url, ``id_col`` = min id among the group's rows,
    n_dups): one row per canonical URL. Map-side combine inside each
    batch, then the one bucketed reduce — the exact-dedup shape keyed
    on the canonicalized string."""

    def partial(batch: pa.Table) -> pa.Table:
        t = pa.table({
            "canonical_url": canonicalize_urls(batch.column(url_col)),
            id_col: batch.column(id_col),
        })
        g = t.group_by("canonical_url").aggregate(
            [(id_col, "min"), ([], "count_all")])
        return g.rename_columns(["canonical_url", id_col, "n_dups"])

    return bucketed_group_agg(
        ds.map_batches(partial, batch_format="pyarrow",
                       zero_copy_batch=True),
        "canonical_url", [(id_col, "min"), ("n_dups", "sum")])
