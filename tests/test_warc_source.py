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
    LOCATOR_SCHEMA,
    MAX_INFLATED_BYTES,
    MAX_RECORDS_PER_SEGMENT,
    FetchRecords,
    WarcToPages,
    build_warc_segment,
    gunzip_members,
    iter_warc_records,
    locate_records,
    read_segments,
    read_warc_dir,
    warc_paths,
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


def test_gunzip_members_many_members_and_trailing_garbage():
    # members longer than one zlib feed, then bytes that are not gzip:
    # every whole member inflates, the garbage stops the walk
    parts = [bytes([65 + i % 26]) * 70_000 + bytes(range(256)) * (i + 1)
             for i in range(5)]
    blob = b"".join(gzip.compress(p, mtime=0) for p in parts)
    assert gunzip_members(blob) == b"".join(parts)
    assert gunzip_members(blob + b"not gzip at all") == b"".join(parts)


def test_iter_records_negative_content_length_stops():
    # a negative length would step the walk backwards onto its own
    # record; it ends the walk like any unskippable record
    good = build_warc_segment(_recs(1), warcinfo=False)
    bad = (b"WARC/1.0\r\nWARC-Type: resource\r\n"
           b"WARC-Target-URI: https://ex.com/x\r\n"
           b"Content-Length: -40\r\n\r\nxx")
    assert [u for u, _, _ in iter_warc_records(good + bad + good)] == [
        "https://ex.com/0"]


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
    """broadcast_max=0 forces the per-bucket election: the same pages
    survive, and the post-extract dedup is always run."""
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


def _request_record(url):
    block = b"GET / HTTP/1.1\r\nHost: ex.com\r\n\r\n"
    return (b"WARC/1.0\r\nWARC-Type: request\r\n"
            b"WARC-Target-URI: " + url.encode() + b"\r\n"
            b"Content-Length: " + str(len(block)).encode() + b"\r\n\r\n"
            + block + b"\r\n\r\n")


def _shape_segments(folder):
    """Every segment shape the locators address, with recrawls across
    them: a plain segment (HTTP envelopes, a request record between
    content records, a truncated tail), a record-gzipped one (truncated
    final member), a whole-file gzip, a gzip whose members split
    records, and a ``tie`` url captured at the same max warc_ts in two
    segments (the second capture with the longer text)."""
    day = datetime.timedelta(days=1)

    def cap(i, k, ts):
        return (f"https://ex.com/p{i}", ts, _page(f"{i} capture {k}"))

    plain = (build_warc_segment([cap(i, 0, EPOCH) for i in range(3)],
                                http_envelope_every=2)
             + _request_record("https://ex.com/p0")
             + build_warc_segment([cap(i, 0, EPOCH) for i in range(3, 6)],
                                  warcinfo=False, http_envelope_every=2))
    (folder / "a-plain.warc").write_bytes(plain[:-25])
    records = build_warc_segment([cap(i, 1, EPOCH + day) for i in range(4)],
                                 gzip_members=True, http_envelope_every=3)
    (folder / "b-records.warc.gz").write_bytes(records[:-12])
    whole = build_warc_segment(
        [cap(2, 2, EPOCH + 2 * day), cap(4, 2, EPOCH + 2 * day),
         ("https://ex.com/tie", TIE_TS, _page("short"))],
        http_envelope_every=2)
    (folder / "c-whole.warc.gz").write_bytes(gzip.compress(whole, mtime=0))
    split = build_warc_segment(
        [cap(5, 3, EPOCH + 3 * day),
         ("https://ex.com/tie", TIE_TS, _page("tied and much longer")),
         cap(6, 0, EPOCH)])
    cut = [0, len(split) // 3, 2 * len(split) // 3, len(split)]
    (folder / "d-split.warc.gz").write_bytes(b"".join(
        gzip.compress(split[a:b], mtime=0) for a, b in zip(cut, cut[1:])))


def _locate_all(paths):
    return pa.concat_tables([locate_records(i, p, open(p, "rb").read())
                             for i, p in enumerate(paths)])


def test_locators_address_every_segment_shape(tmp_path):
    """One locator row per content record; its span is the record in a
    plain segment, the gzip member in a record-gzipped one, and the
    whole file for a record that crosses member boundaries."""
    _shape_segments(tmp_path)
    paths = warc_paths(str(tmp_path))
    sizes = [len(open(p, "rb").read()) for p in paths]
    loc = _locate_all(paths)
    assert loc.schema == LOCATOR_SCHEMA
    rows = loc.to_pylist()
    walked = [len(list(iter_warc_records(
        gunzip_members(b) if b[:2] == b"\x1f\x8b" else b)))
        for b in (open(p, "rb").read() for p in paths)]
    assert [sum(r["seg"] == i for r in rows)
            for i in range(len(paths))] == walked
    by_seg = [[r for r in rows if r["seg"] == i] for i in range(4)]
    plain, members, whole, split = by_seg
    assert all(r["rec_start"] == 0 and r["rec_end"] == r["end"] - r["start"]
               for r in plain)
    assert len({r["start"] for r in members}) == len(members) > 1
    assert all(r["rec_start"] == 0 and r["end"] <= sizes[1]
               for r in members)
    assert all((r["start"], r["end"]) == (0, sizes[2]) for r in whole)
    spans = [(r["start"], r["end"]) for r in split]
    assert (0, sizes[3]) in spans and len(set(spans)) > 1


def test_locator_walk_holds_one_member_at_a_time():
    """On a record-gzipped segment the locator walk inflates one member
    at a time: its Python-heap peak stays under half the segment's
    inflated size (joining the members first costs twice that size)."""
    import random
    import tracemalloc

    rng = random.Random(7)
    raw = build_warc_segment(
        [(f"https://ex.com/{i}", EPOCH, rng.randbytes(4096))
         for i in range(300)], gzip_members=True)
    inflated = len(gunzip_members(raw))
    locate_records(0, "s.warc.gz", raw)   # one-time imports and caches
    tracemalloc.start()
    try:
        n = locate_records(0, "s.warc.gz", raw).num_rows
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert n == 300
    assert peak < inflated / 2, (peak, inflated)


def test_member_wise_locators_match_the_joined_walk():
    """Walking gzip members one at a time gives the locators of one
    walk over all inflated members, wherever the member cuts fall:
    between records, inside one, or inside a record separator."""
    import random
    import re

    from full_text_extractor_v6_ray.sources import warc

    rng = random.Random(3)
    for _ in range(300):
        plain = build_warc_segment(
            [(f"https://ex.com/{i}", EPOCH,
              bytes(rng.choice(b"ab\r\n") for _ in range(rng.randint(0, 9))))
             for i in range(rng.randint(1, 5))],
            warcinfo=rng.random() < 0.5)
        if rng.random() < 0.3:   # lone \r\n record separators
            plain = plain.replace(b"\r\n\r\nWARC/", b"\r\nWARC/")
        near = sorted({min(max(m.start() + d, 0), len(plain))
                       for m in re.finditer(b"WARC/", plain)
                       for d in (-4, -2, 0, 2, 7)})
        cuts = sorted({0, len(plain), *rng.sample(
            near, min(len(near), rng.randint(1, 5)))})
        raw = b"".join(gzip.compress(plain[a:b], mtime=0)
                       for a, b in zip(cuts, cuts[1:]))
        joined = warc._joined_locators(raw, warc._gzip_members(raw), 0,
                                       MAX_RECORDS_PER_SEGMENT)
        assert list(warc._locators(raw)) == list(joined), cuts


def test_locator_walk_keeps_the_segment_record_cap(monkeypatch):
    """``MAX_RECORDS_PER_SEGMENT`` caps the records walked in the whole
    segment, not in each gzip member: the member-wise locator walk
    stops where the joined walk stops."""
    from full_text_extractor_v6_ray.sources import warc

    raw = build_warc_segment(_recs(6), gzip_members=True)
    monkeypatch.setattr(warc, "MAX_RECORDS_PER_SEGMENT", 3)
    urls = locate_records(0, "s.warc.gz", raw).column("url").to_pylist()
    assert urls == [u for u, _, _ in iter_warc_records(
        gunzip_members(raw), max_records=3)] == [r[0] for r in _recs(2)]


def test_fetch_records_matches_the_segment_walk(tmp_path):
    """Reading each record back at its locator gives the row the full
    segment walk gives, for every segment shape."""
    _shape_segments(tmp_path)
    paths = warc_paths(str(tmp_path))
    fetched = FetchRecords(paths)(_locate_all(paths))
    walked = WarcToPages()(pa.table({
        "path": paths,
        "bytes": pa.array([open(p, "rb").read() for p in paths])}))
    assert fetched.schema == walked.schema
    assert fetched.to_pylist() == walked.to_pylist()


def test_read_segments_hands_the_walker_raw_bytes(ray_session, tmp_path):
    """A .warc.gz reaches the walker as the file's raw gzip bytes, so
    ``gunzip_members`` (and its bomb guard) does every inflate."""
    _shape_segments(tmp_path)
    paths = warc_paths(str(tmp_path))

    def walk(seg, path, raw):
        return pa.table({"seg": [seg], "path": [path],
                         "raw": pa.array([raw], pa.binary())})

    rows = sorted(read_segments(paths, walk).take_all(),
                  key=lambda r: r["seg"])
    assert [(r["seg"], r["path"]) for r in rows] == list(enumerate(paths))
    for r in rows:
        assert r["raw"] == open(r["path"], "rb").read()
    assert rows[1]["raw"][:2] == b"\x1f\x8b"


def test_read_warc_dir_truncated_gzip_keeps_prefix(ray_session, tmp_path):
    """A .warc.gz cut inside its last member keeps the records that
    inflated, as ``gunzip_members`` promises."""
    seg = build_warc_segment(_recs(4), gzip_members=True)
    (tmp_path / "s.warc.gz").write_bytes(seg[:-12])
    urls = sorted(r["url"] for r in read_warc_dir(str(tmp_path)).take_all())
    assert urls[:3] == [r[0] for r in _recs(3)]


@pytest.mark.parametrize("broadcast_max", ["default", 0])
def test_warc_pipeline_matches_extract_then_dedup(ray_session, tmp_path,
                                                   monkeypatch,
                                                   broadcast_max):
    """Electing on locators and extracting only the winners gives, row
    for row, what extracting every capture and deduplicating gives —
    on the driver election and on the per-bucket one."""
    import functools

    from full_text_extractor_v6_ray.pipelines import (
        extract_pipeline as ep,
    )
    from full_text_extractor_v6_ray.stages.dedup import dedup_latest_by_ts

    _shape_segments(tmp_path)
    if broadcast_max != "default":
        monkeypatch.setattr(ep, "latest_captures", functools.partial(
            ep.latest_captures, broadcast_max=broadcast_max))
    got = ep.warc_extraction_pipeline(str(tmp_path)).take_all()
    want = dedup_latest_by_ts(ep.extract_pages(
        read_warc_dir(str(tmp_path)))).take_all()

    def by_url(rows):
        return sorted(rows, key=lambda r: r["url"])

    assert len(want) == 8
    assert by_url(got) == by_url(want)
    tie = next(r for r in got if r["url"] == "https://ex.com/tie")
    assert "tied and much longer" in tie["extracted_text"]


def test_warc_pipeline_is_one_execution(ray_session, tmp_path,
                                        count_executions, monkeypatch):
    """The locator walk runs as plain Ray tasks, one per segment, and
    the fetch-extract-write is the one Ray Data execution."""
    from full_text_extractor_v6_ray.pipelines import (
        warc_extraction_pipeline,
    )
    from full_text_extractor_v6_ray.sources import warc

    walks = []

    def spy(paths, walk):
        counts, refs = real(paths, walk)
        walks.append((len(paths), counts, len(refs)))
        return counts, refs

    real = warc.walk_segments
    monkeypatch.setattr(warc, "walk_segments", spy)
    for s in range(3):
        (tmp_path / f"s{s}.warc").write_bytes(build_warc_segment(
            [(f"https://ex.com/{i}", EPOCH + datetime.timedelta(days=s),
              _page(f"{i} {s}")) for i in range(4)]))
    count_executions.clear()
    warc_extraction_pipeline(str(tmp_path), out_dir=str(tmp_path / "out"))
    assert len(count_executions) == 1, count_executions
    assert walks == [(3, [4, 4, 4], 3)]


@pytest.mark.parametrize("broadcast_max", ["default", 0])
def test_locator_tables_reach_the_driver_only_at_or_below_broadcast_max(
        ray_session, tmp_path, monkeypatch, broadcast_max):
    """Above ``broadcast_max`` every value ``latest_captures`` fetches
    is a row count or Ray metadata, never a locator table: the tables
    go from the walk tasks into the bucketed election by reference. At
    or below it the driver fetches them (the spy's positive control)."""
    import ray

    from full_text_extractor_v6_ray.pipelines.extract_pipeline import (
        latest_captures,
    )

    _recrawl_segments(tmp_path)
    kwargs = {} if broadcast_max == "default" else {"broadcast_max": 0}
    got = []

    def spy(refs, *args, **kw):
        out = real(refs, *args, **kw)
        got.append(out)
        return out

    real = ray.get
    with monkeypatch.context() as m:
        m.setattr(ray, "get", spy)
        pages, _ = latest_captures(str(tmp_path), **kwargs)
    assert got[0] == [3, 3]   # the walk's row counts, one per segment
    tables = [v for out in got for v in
              (out if isinstance(out, list) else [out])
              if isinstance(v, pa.Table)]
    if broadcast_max == "default":
        assert sum(t.num_rows for t in tables) == 6
    else:
        assert tables == []
    assert pages.count() == 4


def test_warcinfo_only_segments_elect_nothing(ray_session, tmp_path):
    """Segments holding only ``warcinfo`` records have no content record
    to elect: ``latest_captures`` gives ``(None, False)`` and the
    pipeline an empty Dataset with the extracted schema."""
    from full_text_extractor_v6_ray.pipelines import (
        warc_extraction_pipeline,
    )
    from full_text_extractor_v6_ray.pipelines.extract_pipeline import (
        latest_captures,
    )
    from full_text_extractor_v6_ray.stages.extract import EXTRACTED_SCHEMA

    (tmp_path / "s0.warc").write_bytes(build_warc_segment([]))
    (tmp_path / "s1.warc.gz").write_bytes(
        build_warc_segment([], gzip_members=True))
    assert latest_captures(str(tmp_path)) == (None, False)
    out = warc_extraction_pipeline(str(tmp_path))
    assert out.count() == 0
    assert out.schema().base_schema == EXTRACTED_SCHEMA


def test_warc_pipeline_extracts_one_task_per_winning_segment(ray_session,
                                                              tmp_path):
    """The winners go to extraction as one block per segment that holds
    any: three segments, the first holding only stale captures, give
    two extraction tasks. The extraction asks Ray for no minimum batch,
    so Ray bundles no two winner blocks into one task; each segment's
    ``BATCH_SIZE`` winners fill one ``ExtractBatch`` slice."""
    import re

    from full_text_extractor_v6_ray.pipelines.extract_pipeline import (
        BATCH_SIZE,
        warc_extraction_pipeline,
    )

    n = BATCH_SIZE
    stale = [(f"https://ex.com/{i}", EPOCH, _page(f"old {i}"))
             for i in range(2 * n)]
    (tmp_path / "s0.warc").write_bytes(build_warc_segment(stale))
    for s, gz in ((1, True), (2, False)):
        (tmp_path / f"s{s}.warc{'.gz' if gz else ''}").write_bytes(
            build_warc_segment(
                [(u, EPOCH + datetime.timedelta(days=1), _page(f"new {u}"))
                 for u, _, _ in stale[(s - 1) * n:s * n]],
                gzip_members=gz))
    ds = warc_extraction_pipeline(str(tmp_path)).materialize()
    assert ds.count() == 2 * n
    m = re.search(r"MapBatches\(ExtractBatch\)[^\n:]*: (\d+) tasks executed",
                  ds.stats())
    assert m and int(m.group(1)) == 2, ds.stats()


def test_extract_pages_fuses_into_the_segment_read(ray_session, tmp_path):
    """``extract_pages(read_warc_dir(d))`` is ONE operator, the segment
    walk fused with the extraction, one task per segment: no page block
    crosses the object store between them."""
    from full_text_extractor_v6_ray.pipelines import extract_pages
    from full_text_extractor_v6_ray.testing import count_executions

    for s in range(6):
        (tmp_path / f"s{s}.warc{'.gz' if s % 2 else ''}").write_bytes(
            build_warc_segment(
                [(f"https://ex.com/{s}/{i}", EPOCH, _page(f"{s} {i}"))
                 for i in range(3)], gzip_members=bool(s % 2)))
    with count_executions() as runs:
        out = extract_pages(read_warc_dir(str(tmp_path))).materialize()
    assert out.count() == 18
    [run] = runs
    assert run.tasks() == [("Input", 0),
                           ("ReadWarcSegments->MapBatches(ExtractBatch)", 6)
                           ], run.tasks()
