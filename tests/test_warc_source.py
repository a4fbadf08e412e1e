"""Multi-record WARC segment ingestion (sources/warc.py).

The single-record router path (extractor/containers.warc_inner) is
covered by test_containers; these tests pin the SEGMENT reader — the
Common-Crawl-shaped source where one file carries many records.
"""

import datetime
import gzip

import pyarrow as pa
import pytest

from full_text_extractor_v6_ray.sources.warc import (
    MAX_INFLATED_BYTES,
    WarcToPages,
    build_warc_segment,
    gunzip_members,
    iter_warc_records,
    read_warc_dir,
)

EPOCH = datetime.datetime(2020, 1, 1)


def _recs(n, start=0):
    return [(f"https://ex.com/{i}", EPOCH + datetime.timedelta(seconds=i),
             f"body {i} é".encode("utf-8"))
            for i in range(start, start + n)]


def test_iter_records_skips_non_content():
    # warcinfo leads, every 3rd record HTTP-enveloped; all 7 come back
    recs = _recs(7)
    seg = build_warc_segment(recs, http_envelope_every=3)
    got = list(iter_warc_records(seg))
    assert [(u, t, b) for u, t, b in got] == recs


def test_iter_records_http_envelope_stripped():
    seg = build_warc_segment(_recs(2), http_envelope_every=1)
    bodies = [b for _, _, b in iter_warc_records(seg)]
    assert bodies == [r[2] for r in _recs(2)]
    assert b"HTTP/1.1" not in b"".join(bodies)


def test_iter_records_body_with_crlf_and_warc_magic():
    # Content-Length-driven walk: a body containing \r\n\r\n and a
    # fake "WARC/" header must not derail the next record
    tricky = b"x\r\n\r\nWARC/1.0\r\nWARC-Type: resource\r\n\r\ny"
    recs = [("https://ex.com/a", EPOCH, tricky),
            ("https://ex.com/b", EPOCH, b"clean")]
    got = list(iter_warc_records(build_warc_segment(recs)))
    assert [(u, b) for u, _, b in got] == [
        ("https://ex.com/a", tricky), ("https://ex.com/b", b"clean")]


def test_iter_records_truncated_tail_keeps_prefix():
    seg = build_warc_segment(_recs(4))
    # cut inside the last record's block
    got = list(iter_warc_records(seg[:len(seg) - 10]))
    assert len(got) >= 3
    assert [u for u, _, _ in got[:3]] == [r[0] for r in _recs(3)]


def test_iter_records_garbage_and_empty():
    assert list(iter_warc_records(b"")) == []
    assert list(iter_warc_records(b"not a warc at all")) == []
    # header with an unparseable Content-Length: stop, never raise
    bad = b"WARC/1.0\r\nWARC-Type: resource\r\nContent-Length: ??\r\n\r\nxx"
    assert list(iter_warc_records(bad)) == []


def test_gunzip_members_concatenated_and_plain():
    a, b = b"alpha" * 10, b"beta" * 10
    members = gzip.compress(a, mtime=0) + gzip.compress(b, mtime=0)
    assert gunzip_members(members) == a + b
    assert gunzip_members(gzip.compress(a, mtime=0)) == a
    assert gunzip_members(b"plainly not gzip") == b""
    # truncated second member keeps the first
    assert gunzip_members(members[:len(members) - 8]).startswith(a)


def test_gunzip_members_bomb_guard():
    big = gzip.compress(b"\0" * 4096, mtime=0)
    with pytest.raises(ValueError, match="warc_gzip_too_large"):
        gunzip_members(big, max_bytes=1024)
    assert MAX_INFLATED_BYTES >= (1 << 30)


def test_gzip_member_segment_roundtrip():
    recs = _recs(5)
    seg = build_warc_segment(recs, gzip_members=True,
                             http_envelope_every=2)
    raw = gunzip_members(seg)
    assert list(iter_warc_records(raw)) == recs


def test_warc_to_pages_schema_and_rows():
    seg_a = build_warc_segment(_recs(3))
    seg_b = build_warc_segment(_recs(2, start=10), gzip_members=True)
    batch = pa.table({"path": pa.array(["a.warc", "b.warc.gz"]),
                      "bytes": pa.array([seg_a, seg_b], pa.binary())})
    out = WarcToPages()(batch)
    assert out.column_names == ["url", "warc_ts", "html", "text", "lang"]
    assert out.num_rows == 5
    assert out.column("url").to_pylist() == [
        "https://ex.com/0", "https://ex.com/1", "https://ex.com/2",
        "https://ex.com/10", "https://ex.com/11"]
    assert out.column("warc_ts").to_pylist()[0] == EPOCH
    assert out.column("html").to_pylist()[4] == "body 11 é".encode()


def test_read_warc_dir_end_to_end(ray_session, tmp_path):
    for seg_id in range(3):
        gz = seg_id % 2 == 1
        payload = build_warc_segment(
            _recs(4, start=seg_id * 4), gzip_members=gz,
            http_envelope_every=3)
        name = f"seg-{seg_id}.warc" + (".gz" if gz else "")
        (tmp_path / name).write_bytes(payload)
    (tmp_path / "ignored.txt").write_text("not a segment")

    ds = read_warc_dir(str(tmp_path))
    got = sorted(ds.take_all(), key=lambda r: r["url"])
    want = sorted((f"https://ex.com/{i}" for i in range(12)))
    assert [r["url"] for r in got] == want
    assert all(r["html"].startswith(b"body ") for r in got)

    empty = read_warc_dir(str(tmp_path / "missing"))
    assert empty.count() == 0
    assert empty.schema().names == ["url", "warc_ts", "html", "text",
                                    "lang"]


def test_warc_pages_feed_extraction(ray_session, tmp_path):
    """Segment records carrying real HTML route through the existing
    extract pipeline unchanged — the source composes with the engine."""
    from full_text_extractor_v6_ray.pipelines.extract_pipeline import (
        extract_pages,
    )

    html = (b"<html><head><title>T</title></head>"
            b"<body><h1>Head</h1><p>Hello <b>world</b></p></body></html>")
    recs = [(f"https://ex.com/h{i}", EPOCH, html) for i in range(3)]
    (tmp_path / "s.warc").write_bytes(
        build_warc_segment(recs, http_envelope_every=2))
    out = extract_pages(read_warc_dir(str(tmp_path))).to_pandas()
    assert len(out) == 3
    assert set(out["method"]) == {"html"}
    assert all("Hello **world**" in t for t in out["extracted_text"])


def test_warc_extraction_pipeline_dedup_across_segments(
        ray_session, tmp_path):
    """Composed crawl front-end: two segments carry the SAME url at
    different warc_ts (a recrawl landing in a later segment); the
    pipeline keeps the latest crawl — the flagship semantics, fed from
    raw WARC instead of parquet."""
    from full_text_extractor_v6_ray.pipelines import (
        warc_extraction_pipeline,
    )

    def page(marker):
        return (f"<html><body><h1>V</h1><p>version {marker}</p>"
                f"</body></html>").encode()

    old = [("https://ex.com/dup", EPOCH, page("old")),
           ("https://ex.com/only-a", EPOCH, page("a"))]
    new = [("https://ex.com/dup",
            EPOCH + datetime.timedelta(days=1), page("new")),
           ("https://ex.com/only-b", EPOCH, page("b"))]
    (tmp_path / "s0.warc").write_bytes(build_warc_segment(old))
    (tmp_path / "s1.warc.gz").write_bytes(
        build_warc_segment(new, gzip_members=True))

    out = warc_extraction_pipeline(str(tmp_path)).to_pandas()
    assert sorted(out["url"]) == [
        "https://ex.com/dup", "https://ex.com/only-a",
        "https://ex.com/only-b"]
    dup_text = out.set_index("url").loc["https://ex.com/dup",
                                        "extracted_text"]
    assert "version new" in dup_text and "version old" not in dup_text


POISON = b"\x00POISON" * 64
TIE_TS = EPOCH + datetime.timedelta(days=2)


def _page(marker):
    return (f"<html><body><h1>V</h1><p>version {marker}</p>"
            f"</body></html>").encode()


def _recrawl_segments(folder):
    """Two segments: ``dup``'s older capture is a poison payload; ``tie``
    has one capture per segment at the SAME max warc_ts, the second
    with the longer text."""
    (folder / "s0.warc").write_bytes(build_warc_segment([
        ("https://ex.com/dup", EPOCH, POISON),
        ("https://ex.com/a", EPOCH, _page("a")),
        ("https://ex.com/tie", TIE_TS, _page("short"))]))
    (folder / "s1.warc.gz").write_bytes(build_warc_segment([
        ("https://ex.com/dup", EPOCH + datetime.timedelta(days=1),
         _page("new")),
        ("https://ex.com/tie", EPOCH, _page("stale")),
        ("https://ex.com/tie", TIE_TS, _page("tied and much longer"))],
        gzip_members=True))


def _sorted_rows(ds, cols):
    return sorted(tuple(r[c] for c in cols) for r in ds.take_all())


def test_latest_captures_filters_before_extraction(ray_session, tmp_path):
    """The election keeps only max-warc_ts captures: the poison older
    capture and the stale tie capture never reach extraction, and both
    captures tied at the max survive, flagged for the post-extract
    dedup."""
    from full_text_extractor_v6_ray.pipelines.extract_pipeline import (
        latest_captures,
    )

    _recrawl_segments(tmp_path)
    pages, ties = latest_captures(str(tmp_path))
    rows = _sorted_rows(pages, ["url", "warc_ts", "html"])
    assert ties
    assert [(u, t) for u, t, _ in rows] == [
        ("https://ex.com/a", EPOCH),
        ("https://ex.com/dup", EPOCH + datetime.timedelta(days=1)),
        ("https://ex.com/tie", TIE_TS), ("https://ex.com/tie", TIE_TS)]
    assert all(b"POISON" not in h and b"stale" not in h
               for _, _, h in rows)


def test_latest_captures_semi_join_branch_matches_broadcast(
        ray_session, tmp_path):
    """broadcast_max=0 forces the bucketed election + semi-join: the
    same pages survive, and the post-extract dedup is always run."""
    from full_text_extractor_v6_ray.pipelines.extract_pipeline import (
        latest_captures,
    )

    _recrawl_segments(tmp_path)
    cols = ["url", "warc_ts", "html"]
    bcast, _ = latest_captures(str(tmp_path))
    shuffled, ties = latest_captures(str(tmp_path), broadcast_max=0)
    assert ties
    assert _sorted_rows(shuffled, cols) == _sorted_rows(bcast, cols)
    assert shuffled.schema().names == ["url", "warc_ts", "html", "text",
                                       "lang"]


def test_warc_pipeline_equal_ts_tie_keeps_longer_text(ray_session,
                                                      tmp_path):
    """Captures tied at the max warc_ts are both extracted; the
    post-extract dedup keeps the one with more characters."""
    from full_text_extractor_v6_ray.pipelines import (
        warc_extraction_pipeline,
    )

    _recrawl_segments(tmp_path)
    out = warc_extraction_pipeline(str(tmp_path)).to_pandas()
    assert sorted(out["url"]) == ["https://ex.com/a", "https://ex.com/dup",
                                  "https://ex.com/tie"]
    text = out.set_index("url")["extracted_text"]
    assert "version tied and much longer" in text["https://ex.com/tie"]
    assert "version new" in text["https://ex.com/dup"]


def test_warc_pipeline_empty_dir_keeps_extracted_schema(ray_session,
                                                        tmp_path):
    from full_text_extractor_v6_ray.pipelines import (
        warc_extraction_pipeline,
    )
    from full_text_extractor_v6_ray.stages.extract import EXTRACTED_SCHEMA

    out = warc_extraction_pipeline(str(tmp_path / "missing"))
    assert out.count() == 0
    assert out.schema().base_schema == EXTRACTED_SCHEMA


def test_wet_sink_roundtrip_and_determinism(ray_session, tmp_path):
    """WET sink: extracted text written as conversion records, read
    back through read_warc_dir byte-identically; two runs over the
    same input produce the identical file set and bytes (resumable-
    output determinism)."""
    import hashlib

    import ray.data

    from full_text_extractor_v6_ray.sources.warc import (
        write_wet_segments,
    )

    rows = [{"url": f"https://ex.com/{i}",
             "warc_ts": EPOCH + datetime.timedelta(seconds=i),
             "extracted_text": f"# Doc {i}\n\nbody {i} é",
             "extra_col": i} for i in range(20)]
    ds = ray.data.from_items(rows)

    out_a, out_b = str(tmp_path / "a"), str(tmp_path / "b")
    stats = write_wet_segments(ds, out_a, num_shards=4)
    assert stats == {"segments": 4, "records": 20} or (
        stats["records"] == 20 and stats["segments"] <= 4)

    back = {r["url"]: r for r in read_warc_dir(out_a).take_all()}
    assert len(back) == 20
    for r in rows:
        got = back[r["url"]]
        assert got["html"].decode("utf-8") == r["extracted_text"]
        assert got["warc_ts"] == r["warc_ts"]

    write_wet_segments(ds, out_b, num_shards=4)
    import os as _os
    names_a = sorted(_os.listdir(out_a))
    assert names_a == sorted(_os.listdir(out_b))
    for n in names_a:
        ha = hashlib.md5(open(_os.path.join(out_a, n), "rb").read())
        hb = hashlib.md5(open(_os.path.join(out_b, n), "rb").read())
        assert ha.hexdigest() == hb.hexdigest()


def test_provenance_columns_and_manifest(ray_session, tmp_path):
    """CDX-style lineage: (warc_file, record_idx) per record, and the
    per-segment manifest aggregation over it."""
    from full_text_extractor_v6_ray.sources.warc import (
        warc_segment_manifest,
    )

    for seg_id in range(2):
        payload = build_warc_segment(
            _recs(3, start=seg_id * 3), gzip_members=seg_id == 1)
        name = f"seg-{seg_id}.warc" + (".gz" if seg_id == 1 else "")
        (tmp_path / name).write_bytes(payload)

    rows = read_warc_dir(str(tmp_path), include_provenance=True).take_all()
    assert {r["warc_file"] for r in rows} == {"seg-0.warc",
                                              "seg-1.warc.gz"}
    by_file = {}
    for r in rows:
        by_file.setdefault(r["warc_file"], []).append(r["record_idx"])
    assert sorted(by_file["seg-0.warc"]) == [0, 1, 2]
    assert sorted(by_file["seg-1.warc.gz"]) == [0, 1, 2]

    man = (warc_segment_manifest(str(tmp_path)).to_pandas()
           .sort_values("warc_file").reset_index(drop=True))
    assert list(man["warc_file"]) == ["seg-0.warc", "seg-1.warc.gz"]
    assert list(man["n_records"]) == [3, 3]
    # bodies are "body {i} é" = 9 bytes utf-8 each
    assert list(man["n_bytes"]) == [27, 27]
    assert man.loc[0, "min_ts"] == EPOCH
    assert man.loc[1, "max_ts"] == EPOCH + datetime.timedelta(seconds=5)

    # provenance-typed empty for a missing folder
    empty = read_warc_dir(str(tmp_path / "nope"), include_provenance=True)
    assert empty.schema().names[-2:] == ["warc_file", "record_idx"]


def test_wet_sink_empty_input(ray_session, tmp_path):
    """Empty corpus: zero segments written, stats are explicit zeros —
    the repo's typed-empty convention for composable stages."""
    import pyarrow as _pa
    import ray.data

    from full_text_extractor_v6_ray.sources.warc import (
        write_wet_segments,
    )

    empty = ray.data.from_arrow(_pa.table({
        "url": _pa.array([], _pa.string()),
        "warc_ts": _pa.array([], _pa.timestamp("us")),
        "extracted_text": _pa.array([], _pa.string())}))
    out = str(tmp_path / "wet")
    stats = write_wet_segments(empty, out, num_shards=4)
    assert stats == {"segments": 0, "records": 0}
    import os as _os
    assert _os.listdir(out) == []


def test_build_cdx_index_sorted_with_pointers_and_digest(
        ray_session, tmp_path):
    import hashlib

    from full_text_extractor_v6_ray.sources.warc import build_cdx_index

    # urls across two hosts; captures of one url in BOTH segments
    # (recrawl) must land adjacent and time-ordered in the index
    def recs(seg_id):
        out = []
        for i in range(4):
            host = "B.example.com" if i % 2 else "a.example.com"
            out.append((f"https://{host}/p/{i}",
                        EPOCH + datetime.timedelta(seconds=seg_id * 100 + i),
                        f"seg{seg_id} body {i}".encode()))
        return out

    for seg_id in range(2):
        gz = seg_id % 2 == 1
        payload = build_warc_segment(recs(seg_id), gzip_members=gz,
                                     http_envelope_every=3)
        name = f"seg-{seg_id:06d}.warc" + (".gz" if gz else "")
        (tmp_path / name).write_bytes(payload)

    rows = build_cdx_index(str(tmp_path)).take_all()
    assert len(rows) == 8
    # globally sorted by (url_key, warc_ts)
    keys = [(r["url_key"], r["warc_ts"]) for r in rows]
    assert keys == sorted(keys)
    # SURT: both hosts reverse under com,example; captures adjacent
    assert rows[0]["url_key"].startswith("com,example,a)/")
    by_key = {}
    for r in rows:
        by_key.setdefault(r["url_key"], []).append(r)
    assert len(by_key) == 4  # 4 urls x 2 captures
    for caps in by_key.values():
        assert len(caps) == 2
        assert caps[0]["warc_ts"] < caps[1]["warc_ts"]
        assert caps[0]["warc_file"] == "seg-000000.warc"
        assert caps[1]["warc_file"] == "seg-000001.warc.gz"
    # digest + size + pointer recompute from the source record
    r0 = by_key["com,example,a)/p/0"][0]
    assert r0["digest"] == hashlib.md5(b"seg0 body 0").hexdigest()
    assert r0["n_bytes"] == len(b"seg0 body 0")
    assert r0["record_idx"] == 0
