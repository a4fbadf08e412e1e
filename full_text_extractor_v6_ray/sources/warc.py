"""Multi-record WARC segment ingestion (Common-Crawl-scale source).

``extractor.containers.warc_inner`` (S7) unwraps ONE record — the
router path for a single payload that happens to be a WARC capture. A
real crawl corpus is shaped differently: each ``.warc`` / ``.warc.gz``
SEGMENT carries tens of thousands of records (Common Crawl: ~1 GB
gzipped, ~50k records per segment file). This module turns segments
into pages-schema rows, Ray-Data-first:

    read_segments(paths, WarcToPages().segment)   # one read task per
                                                  # segment: RAW bytes,
                                                  # one row PER RECORD
      -> extract_pages / dedup / sinks            # existing pipeline

or, when only some captures are wanted (the keep-latest election of
``pipelines/extract_pipeline.latest_captures``), in two passes:

    walk_segments(paths, locate_records)   # slim locator rows: plain
                                           # Ray tasks, the same read
      ... pick the wanted rows ...
    map_batches(FetchRecords(paths))       # seek + read + inflate just
                                           # those records

A pass whose output only feeds the driver (the election's locator
walk) runs as plain Ray tasks, not as a Ray Data execution: at
``num_cpus=1`` an execution costs ~35-40 ms plus ~9 ms per task, a plain
task ~1 ms (``scripts/ray_floor.py``).

Scale shape: path discovery is driver-side metadata only; each read
task opens one segment, reads its raw bytes and walks them (never
Ray's ``read_binary_files``, which inflates a ``.gz`` path by
extension, unbounded, before any guard here runs); record walking is a
single linear scan driven by ``Content-Length`` (never a regex over
the blob); the per-record rows flow into the existing extract/dedup
stages with no driver involvement. The unit of parallelism is the segment —
exactly how a 256-node cluster consumes a 100 TB crawl (segments >>
slots), and a failed task re-reads one segment, not the corpus.

Record locators: a content record is addressed the way Common Crawl's
CDX index addresses it — ``(seg, start, end)``, a byte span of the
segment file, plus ``(rec_start, rec_end)``, the record's range in the
span's inflated bytes. A plain ``.warc`` span is the record itself; in
a record-gzipped ``.warc.gz`` it is the gzip member holding the record;
a record that crosses member boundaries (a whole-file gzip split into
several members) gets the whole file as its span. The locator walk
inflates a record-gzipped segment one member at a time.

``.warc.gz`` handling: Common Crawl gzips PER RECORD and concatenates
the members; whole-file gzip also appears in the wild. Every reader
here detects gzip by its magic bytes and inflates with
``gunzip_members`` (one fresh zlib stream per member), bounded by the
``MAX_INFLATED_BYTES`` decompression-bomb guard sized to the standard
~1 GB-segment unit.

WARC format notes (ISO 28500, mirrored from the single-record walker
at ``extractor/containers.py:36-79``): records are
``WARC/1.x\\r\\n<headers>\\r\\n\\r\\n<block>\\r\\n\\r\\n``; content
records are ``response`` / ``resource`` / ``conversion``; an
``application/http; msgtype=response`` block carries an HTTP envelope
whose entity body is the page.
"""

from __future__ import annotations

import bisect
import datetime
import functools
import itertools
import os
import zlib

import pyarrow as pa

from .pages_gen import PAGES_SCHEMA

# Runaway guards: a record count far above any real segment (CC ~50k),
# and an inflate cap at 4x the standard 1 GB segment unit.
MAX_RECORDS_PER_SEGMENT = 1_000_000
MAX_INFLATED_BYTES = 4 << 30

_CONTENT_TYPES = (b"response", b"resource", b"conversion")
# compressed bytes handed to zlib per call while walking gzip members
_GZ_FEED = 1 << 16


def _gzip_members(payload: bytes, max_bytes: int = MAX_INFLATED_BYTES):
    """Yield ``(start, end, inflated)`` for each concatenated gzip member
    of ``payload``: its byte range in ``payload`` and its inflated
    bytes. The input is fed to zlib in ``_GZ_FEED`` slices, so finding
    a member's end costs O(member), not a copy of everything after it.
    The bomb guard and the stop rules are ``gunzip_members``'s."""
    view = memoryview(payload)
    n, pos, total = len(payload), 0, 0
    while pos < n:
        d = zlib.decompressobj(16 + zlib.MAX_WBITS)
        parts: list[bytes] = []
        at = pos
        try:
            while at < n and not d.eof:
                feed = view[at:at + _GZ_FEED]
                out = d.decompress(feed, max_bytes - total + 1)
                total += len(out)
                if total > max_bytes:
                    raise ValueError("warc_gzip_too_large")
                parts.append(out)
                at += len(feed) - len(d.unused_data)
        except zlib.error:
            return   # not gzip / corrupt member: stop before it
        yield pos, at, b"".join(parts)
        if not d.eof:
            return   # truncated member: keep what inflated
        pos = at


def gunzip_members(payload: bytes,
                   max_bytes: int = MAX_INFLATED_BYTES) -> bytes:
    """Inflate ALL concatenated gzip members (record-gzipped .warc.gz)
    or a single whole-file member — bounded by ``max_bytes`` (bomb
    guard). A truncated trailing member yields what inflated cleanly;
    a non-gzip payload returns b"" (callers fall back to raw bytes).
    """
    return b"".join(m for _, _, m in _gzip_members(payload, max_bytes))


def _parse_warc_date(raw: bytes) -> datetime.datetime:
    """WARC-Date (ISO 8601 UTC, e.g. 2020-01-01T00:02:03Z) -> naive-UTC
    datetime (the engine's ``warc_ts`` convention). Epoch on parse
    failure — explicit sentinel, never a raise."""
    try:
        dt = datetime.datetime.fromisoformat(raw.decode("ascii"))
        if dt.tzinfo is not None:
            dt = dt.astimezone(datetime.timezone.utc).replace(tzinfo=None)
        return dt
    except Exception:
        return datetime.datetime(1970, 1, 1)


def _walk_records(payload: bytes,
                  max_records: int = MAX_RECORDS_PER_SEGMENT):
    """The record walker: yield ``(start, block_start, end, headers)``
    for every CONTENT record of a raw (already-inflated) WARC segment —
    the record's range ``[start, end)`` in ``payload`` (header line to
    the end of its block, separator excluded), where its block starts,
    and its lower-cased header map.

    warcinfo / request / metadata records are skipped by their
    ``Content-Length``. Malformed tails degrade to stopping (everything
    parsed so far is kept): a truncated last block ends at the end of
    ``payload``; a missing, unparseable or negative ``Content-Length``
    ends the walk — the never-raise ingestion contract. The generator
    returns ``(stop, walked)``: the offset the walk stopped at
    (``len(payload)`` when it ended exactly at the end of the last
    record or separator, past it when a block was cut short, before it
    when the walk stopped early) and the number of records, of any
    type, it walked.
    """
    pos = 0
    n_total = len(payload)
    for walked in range(max_records):
        if pos >= n_total or not payload.startswith(b"WARC/", pos):
            return pos, walked
        head_end = payload.find(b"\r\n\r\n", pos)
        if head_end < 0:
            return pos, walked
        headers: dict[bytes, bytes] = {}
        for line in payload[pos:head_end].split(b"\r\n")[1:]:
            k, _, v = line.partition(b":")
            headers[k.strip().lower()] = v.strip()
        try:
            n = int(headers.get(b"content-length", b""))
        except ValueError:
            return pos, walked   # unskippable: no way to find the next
        if n < 0:
            return pos, walked
        body_start = head_end + 4
        end = min(body_start + n, n_total)
        if headers.get(b"warc-type", b"") in _CONTENT_TYPES:
            yield pos, body_start, end, headers
        pos = body_start + n
        # record separator: \r\n\r\n per spec; tolerate a lone \r\n
        if payload.startswith(b"\r\n\r\n", pos):
            pos += 4
        elif payload.startswith(b"\r\n", pos):
            pos += 2
    return pos, max_records


def _target(headers: dict[bytes, bytes]) -> str:
    return headers.get(b"warc-target-uri", b"").decode(
        "utf-8", errors="replace")


def iter_warc_records(payload: bytes,
                      max_records: int = MAX_RECORDS_PER_SEGMENT,
                      with_digest: bool = False):
    """Yield (url, warc_ts, block) — or (url, warc_ts, block, digest)
    with ``with_digest=True`` — for every CONTENT record in a raw
    (already-inflated) WARC segment (``_walk_records``). ``digest`` is
    the raw ``WARC-Payload-Digest`` header string (e.g.
    ``sha1:BASE32...``) or None when the record carries none.

    ``application/http; msgtype=response`` blocks are stripped to the
    HTTP entity body.
    """
    for _, body_start, end, headers in _walk_records(payload, max_records):
        block = payload[body_start:end]
        ctype = headers.get(b"content-type", b"")
        body = block
        if ctype.split(b";")[0].strip() == b"application/http":
            http_end = block.find(b"\r\n\r\n")
            body = block[http_end + 4:] if http_end >= 0 else b""
        when = _parse_warc_date(headers.get(b"warc-date", b""))
        if with_digest:
            raw = headers.get(b"warc-payload-digest")
            digest = raw.decode("ascii", errors="replace") if raw else None
            yield _target(headers), when, body, digest
        else:
            yield _target(headers), when, body


_GZ_MAGIC = b"\x1f\x8b"


_PROVENANCE_FIELDS = [("warc_file", pa.string()),
                      ("record_idx", pa.int64())]


class WarcToPages:
    """Segment walk: raw segment bytes -> pages-schema rows, one per
    content record, as the ``read_segments`` walk (``segment``) or over
    (path, bytes) rows (``__call__``). Gzip segments inflate
    member-wise first.

    ``include_provenance=True`` appends CDX-style lineage columns
    ``warc_file`` (segment basename) and ``record_idx`` (0-based index
    of the content record within its segment) — enough to re-fetch any
    record by walking one segment, and the grain the per-segment
    manifest aggregates."""

    def __init__(self, max_inflated: int = MAX_INFLATED_BYTES,
                 include_provenance: bool = False,
                 include_digest: bool = False):
        self.max_inflated = max_inflated
        self.include_provenance = include_provenance
        self.include_digest = include_digest

    def segment(self, seg: int, path: str, raw: bytes) -> pa.Table:
        return self._pages([(path, raw)])

    def __call__(self, batch: pa.Table) -> pa.Table:
        return self._pages(zip(batch.column("path").to_pylist(),
                               batch.column("bytes").to_pylist()))

    def _pages(self, segments) -> pa.Table:
        urls: list[str] = []
        ts: list[datetime.datetime] = []
        blocks: list[bytes] = []
        files: list[str] = []
        idxs: list[int] = []
        digests: list[str | None] = []
        for path, payload in segments:
            if payload[:2] == _GZ_MAGIC:
                payload = gunzip_members(payload, self.max_inflated)
            base = os.path.basename(path)
            for i, rec in enumerate(
                    iter_warc_records(payload, with_digest=True)):
                url, when, body, digest = rec
                urls.append(url)
                ts.append(when)
                blocks.append(body)
                if self.include_digest:
                    digests.append(digest)
                if self.include_provenance:
                    files.append(base)
                    idxs.append(i)
        n = len(urls)
        arrays = [
            pa.array(urls, pa.string()),
            pa.array(ts, pa.timestamp("us")),
            pa.array(blocks, pa.binary()),
            pa.array([""] * n, pa.string()),
            pa.array([""] * n, pa.string()),
        ]
        fields: list = list(PAGES_SCHEMA)
        if self.include_provenance:
            fields += [pa.field(k, t) for k, t in _PROVENANCE_FIELDS]
            arrays += [pa.array(files, pa.string()),
                       pa.array(idxs, pa.int64())]
        if self.include_digest:
            # the crawler-recorded payload digest (WARC-Payload-Digest):
            # incremental rounds trust it instead of re-hashing payloads
            fields.append(pa.field("payload_digest", pa.string()))
            arrays.append(pa.array(digests, pa.string()))
        if len(fields) == len(PAGES_SCHEMA):
            return pa.Table.from_arrays(arrays, schema=PAGES_SCHEMA)
        return pa.Table.from_arrays(arrays, schema=pa.schema(fields))


def warc_paths(folder: str) -> list[str]:
    """The ``.warc`` / ``.warc.gz`` segments of ``folder``, sorted
    lexicographically, so two runs (and two cluster sizes) shard the
    identical segment list and a segment's index in it is stable."""
    try:
        names = sorted(os.listdir(folder))
    except FileNotFoundError:
        names = []
    return [os.path.join(folder, n) for n in names
            if n.endswith(".warc") or n.endswith(".warc.gz")]


def _read_segment(walk, seg: int, path: str) -> list[pa.Table]:
    with open(path, "rb") as f:
        return [walk(seg, path, f.read())]


def _counted_walk(walk, seg: int, path: str) -> tuple[int, pa.Table]:
    [table] = _read_segment(walk, seg, path)
    return table.num_rows, table


@functools.cache
def _counted_walk_task():
    import ray
    return ray.remote(num_returns=2)(_counted_walk)


def walk_segments(paths: list[str], walk) -> tuple[list[int], list]:
    """The segment walk as plain Ray tasks, for a pass whose output only
    feeds the driver: one task per segment runs ``_read_segment(walk,
    seg, path)`` (the raw-bytes read of ``read_segments``) and returns
    the table's row count and the table as two objects. Returns the
    counts, fetched, and the table refs, not fetched (see the module
    notes for why this is not a Ray Data execution)."""
    import ray

    task = _counted_walk_task()
    refs = [task.remote(walk, seg, path) for seg, path in enumerate(paths)]
    return ray.get([n for n, _ in refs]), [t for _, t in refs]


def read_segments(paths: list[str], walk) -> "ray.data.Dataset":
    """One Ray read task per segment: it opens ``paths[seg]``, reads the
    file's RAW bytes and returns ``walk(seg, path, raw)``, an Arrow
    table. A gzip segment reaches ``walk`` compressed, so every inflate
    runs under ``MAX_INFLATED_BYTES``; the segment bytes never enter
    the object store; and because the walk is the read itself, Ray
    never fuses it into a downstream batch stage that would bundle
    many segments into one task."""
    import ray.data
    from ray.data.block import BlockMetadata
    from ray.data.datasource import Datasource, ReadTask

    class WarcSegments(Datasource):
        def estimate_inmemory_data_size(self):
            return None

        def get_read_tasks(self, parallelism):
            return [ReadTask(
                functools.partial(_read_segment, walk, seg, path),
                BlockMetadata(num_rows=None, size_bytes=None,
                              input_files=[path], exec_stats=None))
                for seg, path in enumerate(paths)]

    return ray.data.read_datasource(WarcSegments(),
                                    override_num_blocks=len(paths))


def read_warc_dir(folder: str,
                  include_provenance: bool = False,
                  include_digest: bool = False) -> "ray.data.Dataset":
    """Folder of .warc / .warc.gz segments -> streaming pages Dataset.

    Segments are ``warc_paths(folder)``, each read raw and walked by
    one read task (``read_segments``); an empty folder yields an empty
    Dataset with the exact pages schema (compose without
    special-casing). ``include_digest`` surfaces
    ``WARC-Payload-Digest`` as a ``payload_digest`` column (null where
    absent) — the hash an incremental round trusts instead of
    re-reading every payload.
    """
    import ray.data

    paths = warc_paths(folder)
    if not paths:
        fields: list = list(PAGES_SCHEMA)
        if include_provenance:
            fields += [pa.field(k, t) for k, t in _PROVENANCE_FIELDS]
        if include_digest:
            fields.append(pa.field("payload_digest", pa.string()))
        return ray.data.from_arrow(pa.schema(fields).empty_table())
    return read_segments(
        paths, WarcToPages(include_provenance=include_provenance,
                           include_digest=include_digest).segment)


LOCATOR_SCHEMA = pa.schema([
    ("url", pa.string()),
    ("warc_ts", pa.timestamp("us")),
    ("seg", pa.int32()),        # index into the sorted segment paths
    ("start", pa.int64()),      # the span: [start, end) of the file
    ("end", pa.int64()),
    ("rec_start", pa.int64()),  # the record in the span's inflated bytes
    ("rec_end", pa.int64()),
])


def _locator(h: dict[bytes, bytes], *span) -> tuple:
    return (_target(h), _parse_warc_date(h.get(b"warc-date", b"")), *span)


def _whole_records(data: bytes, max_records: int) -> tuple | None:
    """``(records, walked)`` of ``_walk_records(data, max_records)``
    when the walk ends exactly at the end of ``data``, else None (a
    record or its separator runs past it, or the walk stopped early)."""
    recs: list = []
    walk = _walk_records(data, max_records)
    try:
        while True:
            recs.append(next(walk))
    except StopIteration as done:
        stop, walked = done.value
        return (recs, walked) if stop == len(data) else None


def _joined_locators(raw: bytes, members, base: int, max_records: int):
    """Locators of the records in ``members`` (``_gzip_members``
    triples) walked as one inflated stream that starts ``base`` bytes
    into the segment's inflated bytes: a record inside one member is
    addressed by that member, one that crosses members by the whole
    file."""
    spans, parts = [], []
    for start, end, data in members:
        if data:
            spans.append((start, end))
            parts.append(data)
    ends = list(itertools.accumulate(map(len, parts)))
    data = b"".join(parts)
    del parts
    for start, _, end, h in _walk_records(data, max_records):
        i = bisect.bisect_right(ends, start)   # the member holding it
        lo = ends[i - 1] if i else 0
        yield _locator(h, *((*spans[i], start - lo, end - lo)
                            if end <= ends[i]
                            else (0, len(raw), base + start, base + end)))


def _locators(raw: bytes):
    """``(url, warc_ts, start, end, rec_start, rec_end)`` of every
    content record of one raw segment (see the module notes).

    A gzip segment is walked one member at a time, so a record-gzipped
    segment holds at most two members' inflated bytes at once. From the
    first member whose walk does not end exactly at its end (a record
    crosses members: whole-file gzip, split members, a truncated tail;
    or the segment's record cap ran out) the rest of the segment is
    walked joined, starting one member earlier: a record separator may
    straddle that boundary."""
    if raw[:2] != _GZ_MAGIC:
        for start, _, end, h in _walk_records(raw):
            yield _locator(h, start, end, 0, end - start)
        return
    members = _gzip_members(raw)
    # the last member walked: (member, its locators, base and budget
    # at its start); its locators wait until the next member is whole
    held, base, budget = None, 0, MAX_RECORDS_PER_SEGMENT
    for member in members:
        start, end, data = member
        if not data:
            continue
        whole = _whole_records(data, budget)
        if whole is None:
            first = [member]
            if held:
                first, (base, budget) = [held[0], member], held[2:]
            yield from _joined_locators(
                raw, itertools.chain(first, members), base, budget)
            return
        if held:
            yield from held[1]
        recs, walked = whole
        held = (member, [_locator(h, start, end, s, e)
                         for s, _, e, h in recs], base, budget)
        base += len(data)
        budget -= walked
    if held:
        yield from held[1]


def locate_records(seg: int, path: str, raw: bytes) -> pa.Table:
    """``read_segments`` walk: one ``LOCATOR_SCHEMA`` row per content
    record of one raw segment — the slim first pass: no record body is
    copied out of the segment."""
    cols = list(zip(*_locators(raw))) or [()] * 6
    arrays = [pa.array(cols[0], pa.string()),
              pa.array(cols[1], pa.timestamp("us")),
              pa.array([seg] * len(cols[0]), pa.int32())]
    arrays += [pa.array(c, pa.int64()) for c in cols[2:]]
    return pa.Table.from_arrays(arrays, schema=LOCATOR_SCHEMA)


class FetchRecords:
    """map_batches UDF: ``LOCATOR_SCHEMA`` rows -> pages-schema rows,
    reading only each record's span: ``seek`` + ``read`` of the span,
    ``gunzip_members`` (under ``MAX_INFLATED_BYTES``) when it is gzip,
    then the record walker over the record's bytes (HTTP envelope
    stripped). Rows sorted by ``(seg, start)`` open each segment file
    once per batch and inflate a span shared by several records (a
    whole-file gzip) once."""

    def __init__(self, paths: list[str]):
        self.paths = paths

    def __call__(self, batch: pa.Table) -> pa.Table:
        bodies: list[bytes] = []
        rows = zip(*(batch.column(c).to_pylist() for c in
                     ("seg", "start", "end", "rec_start", "rec_end")))
        for seg, recs in itertools.groupby(rows, key=lambda r: r[0]):
            span, data = None, b""
            with open(self.paths[seg], "rb") as f:
                for _, start, end, lo, hi in recs:
                    if (start, end) != span:
                        span = (start, end)
                        f.seek(start)
                        data = f.read(end - start)
                        if data[:2] == _GZ_MAGIC:
                            data = gunzip_members(data)
                    rec = next(iter_warc_records(data[lo:hi], 1), None)
                    bodies.append(b"" if rec is None else rec[2])
        n = batch.num_rows
        return pa.Table.from_arrays(
            [batch.column("url"), batch.column("warc_ts"),
             pa.array(bodies, pa.binary()),
             pa.array([""] * n, pa.string()),
             pa.array([""] * n, pa.string())], schema=PAGES_SCHEMA)


def warc_segment_manifest(warc_dir: str) -> "ray.data.Dataset":
    """Per-segment ingest accounting: (warc_file, n_records, n_bytes,
    min_ts, max_ts) — the record-level lineage a restarting 100 TB run
    diffs against finished partitions (same role as the extraction
    pipeline's per-partition manifests, at the segment grain). One
    map-side collapse per segment; the groupby moves one row per
    (segment, batch)."""
    from ray.data.aggregate import Count, Max, Min, Sum

    pages = read_warc_dir(warc_dir, include_provenance=True)

    def collapse(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc
        return pa.table({
            "warc_file": batch.column("warc_file"),
            "n_bytes": pc.binary_length(
                batch.column("html")).cast(pa.int64()),
            "warc_ts": batch.column("warc_ts"),
        })

    return (pages.map_batches(collapse, batch_format="pyarrow",
                              zero_copy_batch=True)
            .groupby("warc_file")
            .aggregate(Count(alias_name="n_records"),
                       Sum("n_bytes", alias_name="n_bytes"),
                       Min("warc_ts", alias_name="min_ts"),
                       Max("warc_ts", alias_name="max_ts")))


def build_cdx_index(warc_dir: str) -> "ray.data.Dataset":
    """CDX-style capture index over a folder of WARC segments: one row
    per content record, keyed by the SURT-transformed URL and sorted by
    (url_key, warc_ts) — the web-archive lookup layout (all captures of
    a URL are adjacent, newest last; binary-searchable once written as
    partitioned parquet).

    Columns: ``url_key`` (SURT, ``stages/urlnorm.surt_keys``), ``url``
    (original), ``warc_ts``, ``warc_file`` / ``record_idx`` (re-fetch
    pointer), ``n_bytes``, ``digest`` (md5 hex of the record body —
    DuckDB ``md5()``-comparable).

    Scale shape: per-batch Arrow projection + ONE range-partitioned
    sort (a CDX build IS a global sort job); everything upstream
    streams from the segment walk.
    """
    import pyarrow.compute as pc

    from ..stages.hashing import md5_hex
    from ..stages.urlnorm import surt_keys

    pages = read_warc_dir(warc_dir, include_provenance=True)

    def project(batch: pa.Table) -> pa.Table:
        return pa.table({
            "url_key": surt_keys(batch.column("url")),
            "url": batch.column("url"),
            "warc_ts": batch.column("warc_ts"),
            "warc_file": batch.column("warc_file"),
            "record_idx": batch.column("record_idx"),
            "n_bytes": pc.binary_length(
                batch.column("html")).cast(pa.int64()),
            "digest": md5_hex(batch.column("html")),
        })

    return (pages.map_batches(project, batch_format="pyarrow",
                              zero_copy_batch=True)
            .sort(["url_key", "warc_ts"]))


def write_wet_segments(extracted: "ray.data.Dataset", out_dir: str,
                       num_shards: int = 64,
                       gzip_members: bool = True) -> dict:
    """WET-style sink: extracted text back out as WARC ``conversion``
    records (Common Crawl's extracted-text distribution format), one
    ``.warc[.gz]`` segment per md5-url shard.

    Resumable-output rules: shard membership is the engine hash of the
    url (``stages/hashing.hash64`` — version-independent) — stable
    under repartitioning and retries; rows sort by url inside the shard, so a
    shard file's bytes are deterministic (gzip mtime=0); writes go
    tmp → atomic rename, so a crashed run never leaves a torn segment
    and a re-run reproduces the identical file set. Round-trips through
    ``read_warc_dir`` (conversion records are content records).

    Returns {'segments': n, 'records': m}. One bucketed groupby is the
    only shuffle; text crosses it once.
    """
    from ..stages.hashing import hash64

    os.makedirs(out_dir, exist_ok=True)

    def add_shard(batch: pa.Table) -> pa.Table:
        shard = hash64(batch.column("url")) % num_shards
        return batch.append_column(
            "__shard", pa.array(shard.astype("int64"), pa.int64()))

    def write_shard(g: pa.Table) -> pa.Table:
        shard = int(g.column("__shard")[0].as_py())
        urls = g.column("url").to_pylist()
        order = sorted(range(len(urls)), key=urls.__getitem__)
        ts = g.column("warc_ts").to_pylist()
        texts = g.column("extracted_text").to_pylist()
        recs = [(urls[i], ts[i], (texts[i] or "").encode("utf-8"))
                for i in order]
        payload = build_warc_segment(recs, gzip_members=gzip_members,
                                     warc_type=b"conversion",
                                     content_type=b"text/plain")
        name = f"wet-{shard:05d}.warc" + (".gz" if gzip_members else "")
        tmp = os.path.join(out_dir, name + ".tmp")
        with open(tmp, "wb") as f:
            f.write(payload)
        os.replace(tmp, os.path.join(out_dir, name))
        return pa.table({"shard": pa.array([shard], pa.int64()),
                         "records": pa.array([len(recs)], pa.int64())})

    stats = (extracted.select_columns(["url", "warc_ts", "extracted_text"])
             .map_batches(add_shard, batch_format="pyarrow",
                          zero_copy_batch=True)
             .groupby("__shard")
             .map_groups(write_shard, batch_format="pyarrow")
             .to_pandas())
    return {"segments": int(len(stats)),
            "records": int(stats["records"].sum()) if len(stats) else 0}


# ---------------------------------------------------------------------------
# Deterministic segment builder — fixture machinery and the WET sink's
# record writer: tests and the oracle query synthesize segments from
# the documents table, round-trip them through the reader, and compare
# against SQL recomputed straight from the table.
# ---------------------------------------------------------------------------

def build_warc_segment(records, gzip_members: bool = False,
                       http_envelope_every: int = 0,
                       warcinfo: bool = True,
                       warc_type: bytes = b"resource",
                       content_type: bytes = b"text/html",
                       payload_digest: bool = False) -> bytes:
    """records: iterable of (url: str, ts: datetime, body: bytes) ->
    one WARC segment. ``http_envelope_every=k`` wraps every k-th record
    as an ``application/http; msgtype=response`` block (0 = none) so
    round-trip tests exercise the envelope strip; ``gzip_members``
    gzips per record, Common-Crawl style; ``warc_type``/``content_type``
    select the plain-record flavor (``conversion`` + ``text/plain`` for
    WET output)."""
    import gzip as _gzip

    def finish(rec: bytes) -> bytes:
        # mtime=0: byte-deterministic fixtures (gzip headers embed time)
        return _gzip.compress(rec, 6, mtime=0) if gzip_members else rec

    parts: list[bytes] = []
    if warcinfo:
        info = b"software: graft-fixture\r\n"
        parts.append(finish(
            b"WARC/1.0\r\n"
            b"WARC-Type: warcinfo\r\n"
            b"Content-Type: application/warc-fields\r\n"
            b"Content-Length: " + str(len(info)).encode() + b"\r\n\r\n"
            + info + b"\r\n\r\n"))
    for i, (url, ts, body) in enumerate(records):
        if http_envelope_every and i % http_envelope_every == 0:
            block = (b"HTTP/1.1 200 OK\r\nContent-Type: text/html\r\n\r\n"
                     + body)
            ctype = b"application/http; msgtype=response"
            wtype = b"response"
        else:
            block = body
            ctype = content_type
            wtype = warc_type
        digest_line = b""
        if payload_digest:
            # spec shape: sha1 of the PAYLOAD (entity body, not the
            # HTTP envelope), base32 — what Common Crawl records
            import base64 as _b64
            import hashlib as _hl
            d = _b64.b32encode(_hl.sha1(body).digest())
            digest_line = b"WARC-Payload-Digest: sha1:" + d + b"\r\n"
        parts.append(finish(
            b"WARC/1.0\r\n"
            b"WARC-Type: " + wtype + b"\r\n"
            b"WARC-Target-URI: " + url.encode() + b"\r\n"
            b"WARC-Date: "
            + ts.strftime("%Y-%m-%dT%H:%M:%SZ").encode() + b"\r\n"
            + digest_line +
            b"Content-Type: " + ctype + b"\r\n"
            b"Content-Length: " + str(len(block)).encode() + b"\r\n\r\n"
            + block + b"\r\n\r\n"))
    return b"".join(parts)
