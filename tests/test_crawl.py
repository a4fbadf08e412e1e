"""Unit tests for the crawl-layer operators (stages/crawl.py)."""

from __future__ import annotations

import pandas as pd
import pyarrow as pa
import pytest

from full_text_extractor_v6_ray.stages.crawl import (
    anchor_target_agg,
    apply_robots_rules,
    frontier_waves,
    host_degree,
    reciprocity_stats,
    snapshot_diff,
)


def _ds(rows: dict):
    import ray.data

    return ray.data.from_arrow(pa.table(rows))


def test_snapshot_diff_all_statuses(ray_session):
    prev = _ds({"url": ["u1", "u2", "u3"],
                "hash_a": ["h1", "h2", "h3"]})
    cur = _ds({"url": ["u2", "u3", "u4"],
               "hash_b": ["h2", "hX", "h4"]})
    got = snapshot_diff(prev, cur).to_pandas().set_index("url")["status"]
    assert got["u1"] == "gone"
    assert got["u2"] == "unchanged"
    assert got["u3"] == "changed"
    assert got["u4"] == "new"
    assert len(got) == 4


def test_host_degree_known_graph(ray_session):
    edges = _ds({"src_host": [1, 1, 2, 3, 3, 3],
                 "dst_host": [2, 3, 1, 1, 1, 2]})
    got = (host_degree(edges).to_pandas()
           .set_index("host").sort_index())
    assert got.loc[1, "n_out"] == 2 and got.loc[1, "n_in"] == 3
    assert got.loc[2, "n_out"] == 1 and got.loc[2, "n_in"] == 2
    assert got.loc[3, "n_out"] == 3 and got.loc[3, "n_in"] == 1


def test_reciprocity_counts_and_ignores_self_loops(ray_session):
    # 1<->2 reciprocal; 1->3 one-way; 4->4 self-loop ignored;
    # duplicate 1->2 edges collapse to one directed pair
    edges = _ds({"src_host": [1, 1, 2, 1, 4],
                 "dst_host": [2, 2, 1, 3, 4]})
    got = reciprocity_stats(edges).to_pandas()
    assert got["n_pairs"].iloc[0] == 2
    assert got["n_reciprocal"].iloc[0] == 1


def test_anchor_target_agg_values(ray_session):
    links = _ds({
        "target_page": [10, 10, 10, 20],
        "anchor": ["zeta", "alpha", "alpha", "solo"],
        "src_host": [1, 1, 2, 9],
    })
    got = (anchor_target_agg(links).to_pandas()
           .set_index("target_page").sort_index())
    assert got.loc[10, "n_links"] == 3
    assert got.loc[10, "n_src_hosts"] == 2
    assert got.loc[10, "top_anchor"] == "alpha"
    assert got.loc[20, "n_links"] == 1
    assert got.loc[20, "n_src_hosts"] == 1


def test_frontier_waves_politeness(ray_session):
    # host 1 has three urls -> waves 1..3 by priority desc, id tiebreak
    front = _ds({"doc_id": [1, 2, 3, 4],
                 "host": [1, 1, 1, 2],
                 "priority": [5, 9, 9, 1]})
    got = (frontier_waves(front, "host", "priority", "doc_id")
           .to_pandas().set_index("doc_id"))
    assert got.loc[2, "wave"] == 1   # pri 9, lower id wins the tie
    assert got.loc[3, "wave"] == 2
    assert got.loc[1, "wave"] == 3
    assert got.loc[4, "wave"] == 1


def test_robots_filter_prefix_semantics(ray_session):
    pages = _ds({"host": [1, 1, 1, 2],
                 "path": ["/private/x", "/privy", "/pub", "/private/x"]})
    rules = pa.table({"host": pa.array([1], pa.int64()),
                      "prefix": pa.array(["/priv"], pa.string())})
    got = apply_robots_rules(pages, rules).to_pandas()
    kept = set(zip(got["host"], got["path"]))
    # both /private/x and /privy on host 1 match the prefix; host 2
    # has no rule so its identical path survives
    assert kept == {(1, "/pub"), (2, "/private/x")}


def test_robots_filter_null_path_allowed(ray_session):
    # a null path must not poison the batch (kernels return null ->
    # object-dtype None killed the numpy AND pre-fix); the row is
    # treated as non-matching and stays allowed
    pages = _ds({"host": [1, 1, 1],
                 "path": ["/private/x", None, "/pub"]})
    rules = pa.table({"host": pa.array([1], pa.int64()),
                      "prefix": pa.array(["/priv"], pa.string())})
    got = apply_robots_rules(pages, rules).to_pandas()
    assert set(got["path"].fillna("<null>")) == {"<null>", "/pub"}
    # wildcard (regex) rule path too
    rules2 = pa.table({"host": pa.array([1], pa.int64()),
                       "prefix": pa.array(["/priv*x"], pa.string())})
    got2 = apply_robots_rules(pages, rules2).to_pandas()
    assert set(got2["path"].fillna("<null>")) == {"<null>", "/pub"}


def test_robots_filter_empty_rules_passthrough(ray_session):
    pages = _ds({"host": [1, 2], "path": ["/a", "/b"]})
    rules = pa.table({"host": pa.array([], pa.int64()),
                      "prefix": pa.array([], pa.string())})
    got = apply_robots_rules(pages, rules).to_pandas()
    assert len(got) == 2


# ---------------------------------------------------------------------------
# sitemap + robots parsers
# ---------------------------------------------------------------------------

def test_sitemap_parse_entries_and_malformed(ray_session):
    from full_text_extractor_v6_ray.stages.crawl import SitemapParseBatch

    xml = (
        '<?xml version="1.0"?><urlset>'
        "<url><loc> https://a.com/x?q=1&amp;r=2 </loc>"
        "<lastmod>2025-03-04</lastmod><priority>0.8</priority></url>"
        "<url><loc>https://a.com/y</loc></url>"          # no lastmod/prio
        "<url><lastmod>2025-01-01</lastmod></url>"       # no loc: skipped
        "<url><loc>https://a.com/z</loc><priority>bogus</priority></url>"
        "</urlset>")
    batch = pa.table({"site_id": pa.array([7], pa.int64()),
                      "xml": pa.array([xml.encode()], pa.binary())})
    out = SitemapParseBatch()(batch).to_pandas()
    assert list(out["url"]) == ["https://a.com/x?q=1&r=2",
                                "https://a.com/y", "https://a.com/z"]
    assert out["lastmod"].tolist()[0] == "2025-03-04"
    assert out["priority"].tolist()[0] == 0.8
    assert pd.isna(out["priority"].tolist()[2])
    assert (out["site_id"] == 7).all()


def test_robots_parser_group_semantics():
    from full_text_extractor_v6_ray.stages.crawl import parse_robots_rules

    txt = ("# header comment\n"
           "User-agent: alpha\n"
           "User-agent: beta\n"       # two agents share one group
           "Disallow: /shared\n"
           "Crawl-delay: 7\n"
           "\n"
           "User-agent: *\n"
           "Disallow: /star\n"
           "Disallow:\n"              # empty = allow-all, ignored
           "Allow: /ok\n"             # allow rule: not in Disallow view
           "DISALLOW: /case  # trailing comment\n")
    assert parse_robots_rules(txt, "beta") == (["/shared"], 7)
    assert parse_robots_rules(txt, "ALPHA") == (["/shared"], 7)
    # non-listed agent falls through to the star group
    assert parse_robots_rules(txt, "other") == (["/star", "/case"], -1)
    assert parse_robots_rules("", "x") == ([], -1)
    # exact group beats star even when star is first
    txt2 = "User-agent: *\nDisallow: /a\n\nUser-agent: me\nDisallow: /b\n"
    assert parse_robots_rules(txt2, "me") == (["/b"], -1)


def test_robots_parse_feeds_apply_rules(ray_session):
    # composition: parse -> compiled table -> apply_robots_rules
    from full_text_extractor_v6_ray.stages.crawl import (
        RobotsParseBatch,
        apply_robots_rules,
    )

    robots = pa.table({
        "host": pa.array([1, 2], pa.int64()),
        "robots_txt": pa.array(
            ["User-agent: *\nDisallow: /no\n", "# empty\n"], pa.string()),
    })
    rules_tbl = RobotsParseBatch(agent="anybot")(robots)
    rules = pa.table({"host": rules_tbl.column("host"),
                      "prefix": rules_tbl.column("prefix"),
                      "allow": rules_tbl.column("allow")})
    pages = _ds({"host": [1, 1, 2], "path": ["/no/x", "/yes", "/no/x"]})
    got = apply_robots_rules(pages, rules).to_pandas()
    assert set(zip(got["host"], got["path"])) == {(1, "/yes"),
                                                  (2, "/no/x")}


def test_decide_allowed_rfc_precedence():
    from full_text_extractor_v6_ray.stages.crawl import (
        decide_allowed,
        parse_robots_groups,
    )

    txt = ("User-agent: *\n"
           "Disallow: /\n"
           "Allow: /public\n"
           "Disallow: /public/private\n")
    rules, _ = parse_robots_groups(txt, "bot")
    assert decide_allowed("/anything", rules) is False       # bare /
    assert decide_allowed("/public/page", rules) is True     # longer Allow
    assert decide_allowed("/public/private/x", rules) is False
    assert decide_allowed("/other", rules) is False
    # Allow wins an exact length tie
    tie = [("/dir", False), ("/dir", True)]
    assert decide_allowed("/dir/x", tie) is True
    assert decide_allowed("/x", []) is True                  # no rules


def test_apply_robots_rules_allow_precedence(ray_session):
    # vectorized twin of decide_allowed: longest match, Allow wins tie,
    # multiple rules per host
    rules = pa.table({
        "host": pa.array([1, 1, 1, 2, 2], pa.int64()),
        "prefix": pa.array(["/", "/public", "/public/private",
                            "/dir", "/dir"], pa.string()),
        "allow": pa.array([False, True, False, False, True], pa.bool_()),
    })
    pages = _ds({
        "host": [1, 1, 1, 1, 2, 3],
        "path": ["/a", "/public/ok", "/public/private/x", "/public",
                 "/dir/tie", "/anything"],
    })
    got = apply_robots_rules(pages, rules).to_pandas()
    kept = set(zip(got["host"], got["path"]))
    assert kept == {(1, "/public/ok"), (1, "/public"),
                    (2, "/dir/tie"), (3, "/anything")}


def test_robots_wildcards_and_anchors():
    from full_text_extractor_v6_ray.stages.crawl import decide_allowed

    rules = [("/", False), ("/*.php$", False),
             ("/shop/*/sale", True), ("/shop", False)]
    assert decide_allowed("/index.php", rules) is False     # $-anchored
    assert decide_allowed("/index.php5", rules) is False    # bare / rule
    assert decide_allowed("/shop/x/sale/item", rules) is True
    assert decide_allowed("/shop/x", rules) is False
    # a wildcard rule's specificity counts its full octet length
    assert decide_allowed("/abc", [("/a*c", False), ("/ab", True)]) is False


def test_apply_robots_rules_wildcards(ray_session):
    rules = pa.table({
        "host": pa.array([1, 1], pa.int64()),
        "prefix": pa.array(["/*.pdf$", "/docs"], pa.string()),
        "allow": pa.array([False, True], pa.bool_()),
    })
    pages = _ds({"host": [1, 1, 1],
                 "path": ["/docs/a.pdf", "/x/y.pdf", "/docs/page"]})
    got = apply_robots_rules(pages, rules).to_pandas()
    # /docs/a.pdf: /*.pdf$ (len 7) beats /docs (len 5) -> blocked;
    # /x/y.pdf blocked; /docs/page allowed
    assert set(got["path"]) == {"/docs/page"}


def test_sitemap_parse_skips_index_payload():
    from full_text_extractor_v6_ray.stages.crawl import SitemapParseBatch

    idx = ('<?xml version="1.0"?><sitemapindex>'
           "<sitemap><loc>https://a.com/maps/1.xml</loc>"
           "<lastmod>2025-02-01</lastmod></sitemap>"
           "<sitemap><loc>https://a.com/maps/2.xml</loc></sitemap>"
           "<sitemap><lastmod>2025-01-01</lastmod></sitemap>"  # no loc
           "</sitemapindex>")
    batch = pa.table({"site_id": pa.array([3], pa.int64()),
                      "xml": pa.array([idx], pa.string())})
    # an index payload yields zero rows through the urlset parser
    assert SitemapParseBatch()(batch).num_rows == 0
