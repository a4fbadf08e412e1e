"""URL canonicalization: cross-engine parity + dedup semantics."""

import duckdb
import pandas as pd
import pyarrow as pa

from full_text_extractor_v6_ray.stages.urlnorm import (
    canonical_url_dedup,
    canonicalize_urls,
)

ADVERSARIAL = [
    "HTTPS://WWW.Example.COM:443/Path/To?utm_source=f&page=2&utm_campaign=x#frag",
    "http://Site.org:80/a/?gclid=abc",
    "https://site.org/a/?x=1&fbclid=zz&y=2",
    "https://a.com/",
    "https://a.com/p?utm_a=1&utm_b=2",
    "https://a.com/p?UTM_Source=1",          # (?i) tracking params
    "ftp://Mixed.Case/Z?utm_x=1&",
    "https://a.com:8443/p",                   # non-default port kept
    "https://a.com/CaseSensitive/Path",       # path case preserved
    "relative/path?utm_source=x&k=1#f",       # no scheme: cleanup only
    "https://a.com/p?x=1&utm_c=2&y=3",        # tracking mid-query
    "https://user:PW@Host.COM/p",             # userinfo lowercased w/ host
    "",
]

_DUCK_CANON = """
    SELECT CASE WHEN regexp_matches(s3, '^[A-Za-z][A-Za-z0-9+.-]*://')
      THEN lower(regexp_extract(s3, '^([A-Za-z][A-Za-z0-9+.-]*)://', 1))
           || '://'
           || regexp_replace(lower(regexp_extract(s3,
                  '^[A-Za-z][A-Za-z0-9+.-]*://([^/?#]*)', 1)),
                  ':(80|443)$', '')
           || regexp_extract(s3,
                  '^[A-Za-z][A-Za-z0-9+.-]*://[^/?#]*(.*)$', 1)
      ELSE s3 END
    FROM (SELECT regexp_replace(regexp_replace(regexp_replace(
              regexp_replace(?, '#.*$', ''),
              '(?i)(utm_[a-z0-9_]+|gclid|fbclid)=[^&]*(&|$)', '', 'g'),
              '[?&]+$', ''),
              '\\?&', '?') AS s3)
"""


def test_canonicalize_matches_duckdb_bytewise():
    got = canonicalize_urls(pa.array(ADVERSARIAL, pa.string())).to_pylist()
    con = duckdb.connect()
    want = [con.execute(_DUCK_CANON, [u]).fetchone()[0]
            for u in ADVERSARIAL]
    assert got == want


def test_canonicalize_semantics():
    got = canonicalize_urls(pa.array(ADVERSARIAL, pa.string())).to_pylist()
    m = dict(zip(ADVERSARIAL, got))
    assert m[ADVERSARIAL[0]] == "https://www.example.com/Path/To?page=2"
    assert m["http://Site.org:80/a/?gclid=abc"] == "http://site.org/a/"
    assert m["https://a.com:8443/p"] == "https://a.com:8443/p"
    assert m["https://a.com/CaseSensitive/Path"].endswith("/CaseSensitive/Path")
    assert m["relative/path?utm_source=x&k=1#f"] == "relative/path?k=1"
    assert m["https://a.com/p?x=1&utm_c=2&y=3"] == "https://a.com/p?x=1&y=3"
    assert m[""] == ""


def test_canonical_url_dedup_groups_variants(ray_session, bucket_count):
    import ray.data

    rows = pd.DataFrame({
        "doc_id": [1, 2, 3, 4, 5],
        "url": [
            "https://a.com/p?x=1",
            "HTTPS://A.COM:443/p?x=1#top",
            "https://a.com/p?utm_source=s&x=1",
            "https://a.com/q",
            "https://b.com/p?x=1",
        ],
    })
    bucket_count(4)
    got = (canonical_url_dedup(ray.data.from_pandas(rows))
           .to_pandas().set_index("canonical_url").sort_index())
    assert got.loc["https://a.com/p?x=1", "n_dups"] == 3
    assert got.loc["https://a.com/p?x=1", "doc_id"] == 1
    assert got.loc["https://a.com/q", "n_dups"] == 1
    assert got.loc["https://b.com/p?x=1", "n_dups"] == 1
    assert len(got) == 3


def test_surt_keys_reversal_ports_userinfo():
    from full_text_extractor_v6_ray.stages.urlnorm import surt_keys

    urls = [
        "https://News.Example.com/A/b?q=1",
        "http://Site.org:80/X",            # default port stripped
        "https://a.b.c.d.example:8443/P",  # non-default port kept
        "https://user:pw@Host.com/p",      # userinfo stripped
        "https://example.com",             # empty path -> '/'
        "https://example.com/p?utm_source=x&k=1#frag",
        "not a url at ALL",                # pass-through lowercased
        None,
    ]
    got = surt_keys(pa.array(urls, pa.string())).to_pylist()
    assert got[0] == "com,example,news)/a/b?q=1"
    assert got[1] == "org,site)/x"
    assert got[2] == "example,d,c,b,a:8443)/p"
    assert got[3] == "com,host)/p"
    assert got[4] == "com,example)/"
    assert got[5] == "com,example)/p?k=1"
    assert got[6] == "not a url at all"
    assert got[7] is None


def test_surt_keys_sorts_captures_of_same_host_adjacent():
    from full_text_extractor_v6_ray.stages.urlnorm import surt_keys

    urls = ["https://b.example.com/1", "https://z.other.net/x",
            "https://a.example.com/2", "https://example.com/0"]
    keys = surt_keys(pa.array(urls, pa.string())).to_pylist()
    ordered = sorted(zip(keys, urls))
    hosts = [u.split("/")[2].split(".")[-2] for _, u in ordered]
    # all example.com subdomains group before other.net
    assert hosts == ["example", "example", "example", "other"]
