"""Traced mode: spans and per-layer metrics, measured from outside the
program around calls into each module's public functions.

Layers and where their numbers come from:

  sources.warc         gunzip_members + iter_warc_records over every segment
  extractor            sniff_payload / decode_html_payload /
                       parse_html_blocks_fast / score_and_filter /
                       render_blocks per HTML page, extract_document for
                       every other kind (one call per page)
  stages.extract       ExtractBatch.__call__ over 128-row slices
  stages.dedup         dedup_latest_by_ts over materialized extracted rows
  Parquet sink         write_parquet of the materialized output rows
  pipelines.incremental md5_hex pass, snapshot_diff, the traced round
  Ray Data executor    stats of every execution a traced batch job runs,
                       grouped into read / extract / shuffle / reduce_write

The single-process passes recompute the output digest from their own
results, so a pass that does not reproduce the program's output fails
the run instead of reporting numbers for different work.
"""

from __future__ import annotations

import contextlib
import json
import os
import re
import statistics
import time

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from full_text_extractor_v6_ray.config import DEFAULT_CONFIG
from full_text_extractor_v6_ray.extractor.charset import decode_html_payload
from full_text_extractor_v6_ray.extractor.document import extract_document
from full_text_extractor_v6_ray.extractor.html_blocks import score_and_filter
from full_text_extractor_v6_ray.extractor.html_fast import (
    parse_html_blocks_fast,
)
from full_text_extractor_v6_ray.extractor.render import render_blocks
from full_text_extractor_v6_ray.extractor.sniff import sniff_payload
from full_text_extractor_v6_ray.sources.warc import (
    gunzip_members,
    iter_warc_records,
)
from full_text_extractor_v6_ray.stages.extract import ExtractBatch
from full_text_extractor_v6_ray.stages.hashing import md5_hex
from gen import digest_pairs

MIB = float(1 << 20)
KINDS = ("html", "pdf", "gzip", "zip", "ole2", "other")
RAY_STAGES = ("read", "extract", "shuffle", "reduce_write")
_BATCH = 128


class Tracer:
    """In-memory spans ``(id, name, start, end, parent)``, written out
    once at the end, plus the Ray Data stats of traced batch jobs."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self.ray_runs: list[tuple[float, list]] = []

    @contextlib.contextmanager
    def span(self, name: str):
        rec = {"id": len(self.spans), "name": name,
               "parent": self._stack[-1] if self._stack else None,
               "start": time.perf_counter(), "end": None}
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    @contextlib.contextmanager
    def capture(self):
        """Span one traced batch job and keep the stats summary of every
        Ray Data execution it materializes (writes materialize too)."""
        import ray.data

        original = ray.data.Dataset.materialize
        summaries: list = []

        def materialize(ds, *args, **kwargs):
            out = original(ds, *args, **kwargs)
            summaries.append(out._get_stats_summary())
            return out

        ray.data.Dataset.materialize = materialize
        try:
            with self.span("batch_job") as rec:
                yield rec
        finally:
            ray.data.Dataset.materialize = original
            self.ray_runs.append((rec["end"] - rec["start"], summaries))

    def dump(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as f:
            json.dump(self.spans, f)


# ---------------------------------------------------------------------------
# Ray Data executor stats
# ---------------------------------------------------------------------------

def _stage_of(name: str) -> str:
    if "ExtractBatch" in name:
        return "extract"
    if "Write" in name:
        return "reduce_write"
    if name.startswith("Read"):
        return "read"
    if re.match(r"(Sort|Aggregate|Repartition|RandomShuffle|Union|Zip)",
                name):
        return "shuffle"
    return "reduce_write"


def _operators(summaries: list) -> list:
    seen, out = set(), []

    def walk(s):
        for p in s.parents:
            walk(p)
        for op in s.operators_stats:
            key = (s.dataset_uuid, op.operator_name)
            if key not in seen:
                seen.add(key)
                out.append(op)

    for s in summaries:
        walk(s)
    return out


def _tasks(op) -> int:
    m = re.search(r"(\d+) (tasks executed|blocks produced)",
                  op.block_execution_summary_str)
    return int(m.group(1)) if m else 0


def ray_metrics(wall_s: float, summaries: list) -> dict:
    out = {}
    for st in RAY_STAGES:
        for k in ("wall_s", "tasks", "udf_s", "peak_heap_mib"):
            out[f"ray.{st}.{k}"] = 0
    task_wall = 0.0
    for op in _operators(summaries):
        st = _stage_of(op.operator_name)
        out[f"ray.{st}.wall_s"] += op.time_total_s
        out[f"ray.{st}.tasks"] += _tasks(op)
        out[f"ray.{st}.udf_s"] += (op.udf_time or {}).get("sum", 0.0)
        out[f"ray.{st}.peak_heap_mib"] = max(
            out[f"ray.{st}.peak_heap_mib"], (op.memory or {}).get("max", 0))
        task_wall += (op.wall_time or {}).get("sum", 0.0)
    out["ray.outside_tasks_s"] = wall_s - task_wall
    return out


# ---------------------------------------------------------------------------
# single-process layer passes
# ---------------------------------------------------------------------------

def warc_pass(warc_dir: str, tracer: Tracer) -> tuple[pa.Table, dict]:
    """sources.warc: inflate and walk every segment."""
    walk_s, inflated, rows = 0.0, 0, []
    with tracer.span("sources.warc"):
        for name in sorted(os.listdir(warc_dir)):
            with open(os.path.join(warc_dir, name), "rb") as f:
                payload = f.read()
            t = time.perf_counter()
            if payload[:2] == b"\x1f\x8b":
                payload = gunzip_members(payload)
            recs = list(iter_warc_records(payload))
            walk_s += time.perf_counter() - t
            inflated += len(payload)
            rows += [{"url": u, "warc_ts": ts, "html": b, "text": ""}
                     for u, ts, b in recs]
    pages = pa.Table.from_pylist(rows, schema=pa.schema([
        ("url", pa.string()), ("warc_ts", pa.timestamp("us")),
        ("html", pa.binary()), ("text", pa.string())]))
    return pages, {"warc.walk_s": walk_s, "warc.records": len(rows),
                   "warc.inflated_mib": inflated / MIB}


def extractor_pass(pages: pa.Table, tracer: Tracer
                   ) -> tuple[list[str], dict]:
    """extractor: one public-function call per layer per page."""
    cfg = DEFAULT_CONFIG
    acc = dict.fromkeys(("sniff", "decode", "parse", "score", "render",
                         "other"), 0.0)
    kinds = dict.fromkeys(KINDS, 0)
    per_page, texts = [], []
    blocks_total = blocks_kept = 0
    clock = time.perf_counter
    with tracer.span("extractor"):
        for payload, fb in zip(pages.column("html").to_pylist(),
                               pages.column("text").to_pylist()):
            t0 = clock()
            kind = sniff_payload(payload or b"")
            t1 = clock()
            acc["sniff"] += t1 - t0
            kinds[kind if kind in kinds else "other"] += 1
            text = ""
            if kind == "html" and len(payload) <= cfg.max_html_bytes:
                html_text, _ = decode_html_payload(payload)
                t2 = clock()
                blocks, title, _boiler = parse_html_blocks_fast(html_text,
                                                                cfg)
                t3 = clock()
                kept, _dropped = score_and_filter(blocks, cfg)
                t4 = clock()
                text, _spans, _links = render_blocks(kept, title, cfg)
                t5 = clock()
                acc["decode"] += t2 - t1
                acc["parse"] += t3 - t2
                acc["score"] += t4 - t3
                acc["render"] += t5 - t4
                blocks_total += len(blocks)
                blocks_kept += len(kept)
                t1 = t5
            if not text:
                # every other kind, and HTML that renders empty, takes
                # the document router (fallback text or a non-HTML parser)
                text = extract_document(payload, fb or "", cfg).extracted_text
                acc["other"] += clock() - t1
            per_page.append(clock() - t0)
            texts.append(text)
    q = (statistics.quantiles(per_page, n=100) if len(per_page) > 1
         else per_page * 99)
    out = {f"extractor.{k}_s": acc[k] for k in
           ("sniff", "decode", "parse", "score", "render")}
    out["extractor.other_kinds_s"] = acc["other"]
    out.update({f"extractor.pages.{k}": n for k, n in kinds.items()})
    out["extractor.blocks_kept_ratio"] = (blocks_kept / blocks_total
                                          if blocks_total else 0.0)
    out["extractor.page_p50_us"] = q[49] * 1e6
    out["extractor.page_p99_us"] = q[98] * 1e6
    return texts, out


def extract_batch_pass(pages: pa.Table, tracer: Tracer) -> tuple[pa.Table,
                                                                 dict]:
    """stages.extract: ExtractBatch.__call__ per 128-row slice."""
    ex = ExtractBatch()
    parts, total = [], 0.0
    with tracer.span("stages.extract"):
        for i in range(0, pages.num_rows, _BATCH):
            with tracer.span("ExtractBatch") as rec:
                parts.append(ex(pages.slice(i, _BATCH)))
            total += rec["end"] - rec["start"]
    return pa.concat_tables(parts), {"extract.batch_s": total,
                                     "extract.rows": pages.num_rows}


def _latest_digest(pages: pa.Table, texts: list[str]) -> str:
    """Keep-latest per url over (warc_ts desc, n_chars desc)."""
    rows = sorted(zip(pages.column("url").to_pylist(),
                      pages.column("warc_ts").to_pylist(), texts),
                  key=lambda r: (r[0], -r[1].timestamp(), -len(r[2])))
    urls, kept, last = [], [], None
    for url, _ts, text in rows:
        if url != last:
            urls.append(url)
            kept.append(text)
            last = url
    return digest_pairs(urls, kept)


def _dir_mib(path: str) -> float:
    total = 0
    for root, _dirs, files in os.walk(path):
        total += sum(os.path.getsize(os.path.join(root, f)) for f in files)
    return total / MIB


# ---------------------------------------------------------------------------
# the traced run's per-layer metrics
# ---------------------------------------------------------------------------

def _cdc_work(inp: str, tracer: Tracer) -> tuple[pa.Table, dict]:
    """md5 pass over the new snapshot, then snapshot_diff against the
    round-0 manifest; the work list is every url that is new or whose
    payload hash changed since the old snapshot."""
    snap_a = pq.read_table(os.path.join(inp, "snap_a"),
                           columns=["url", "html"])
    snap_b = pq.read_table(os.path.join(inp, "snap_b"))
    with tracer.span("stages.hashing.md5_hex") as rec:
        hash_b = md5_hex(snap_b.column("html"))
    old = dict(zip(snap_a.column("url").to_pylist(),
                   md5_hex(snap_a.column("html")).to_pylist()))
    mask = [old.get(u) != h for u, h in
            zip(snap_b.column("url").to_pylist(), hash_b.to_pylist())]
    return snap_b.filter(pa.array(mask)), {
        "cdc.hash_s": rec["end"] - rec["start"],
        "cdc.diff_s": _cdc_diff(inp, hash_b, snap_b, tracer)}


def _ray_staged(workload: str, inp: str, work: str, work_urls,
                tracer: Tracer) -> dict:
    """Ray stages run one at a time over materialized inputs."""
    import ray.data

    from full_text_extractor_v6_ray.pipelines import extract_pages
    from full_text_extractor_v6_ray.sources.warc import read_warc_dir
    from full_text_extractor_v6_ray.stages.dedup import dedup_latest_by_ts

    if workload == "pages_parquet":
        pages = ray.data.read_parquet(os.path.join(inp, "pages"))
    elif workload == "warc_recrawl":
        pages = read_warc_dir(os.path.join(inp, "warc"))
    else:
        ref = ray.put(work_urls)

        def keep(batch: pa.Table) -> pa.Table:
            return batch.filter(pc.is_in(batch.column("url"),
                                         value_set=ray.get(ref)))

        pages = ray.data.read_parquet(os.path.join(inp, "snap_b")
                                      ).map_batches(keep,
                                                    batch_format="pyarrow")
    pages = pages.materialize()
    out = {}
    extracted = extract_pages(pages).materialize()
    rows = extracted.count()
    if workload == "cdc_delta":
        final = extracted
        out.update({"dedup.s": 0.0, "dedup.rows_in": 0,
                    "dedup.rows_out": 0, "dedup.keep_ratio": 0.0})
    else:
        with tracer.span("stages.dedup") as rec:
            final = dedup_latest_by_ts(extracted).materialize()
        kept = final.count()
        out.update({"dedup.s": rec["end"] - rec["start"],
                    "dedup.rows_in": rows, "dedup.rows_out": kept,
                    "dedup.keep_ratio": kept / rows if rows else 0.0})
    sink = os.path.join(work, "sink")
    with tracer.span("sink.write_parquet") as rec:
        final.write_parquet(sink)
    out["sink.s"] = rec["end"] - rec["start"]
    out["sink.mib"] = _dir_mib(sink)
    return out


def _cdc_diff(inp: str, hash_b, snap_b: pa.Table, tracer: Tracer) -> float:
    import ray.data

    from full_text_extractor_v6_ray.stages.crawl import snapshot_diff

    prev = ray.data.read_parquet(
        os.path.join(inp, "state0", "manifest", "round-0")).map_batches(
        lambda b: pa.table({"url": b.column("url"),
                            "hash_a": b.column("hash")}),
        batch_format="pyarrow")
    cur = ray.data.from_arrow(pa.table({"url": snap_b.column("url"),
                                        "hash_b": hash_b}))
    with tracer.span("stages.crawl.snapshot_diff") as rec:
        snapshot_diff(prev, cur).materialize()
    return rec["end"] - rec["start"]


def layer_metrics(workload: str, inp: str, work: str, meta: dict,
                  reps: list[dict], tracer: Tracer) -> dict:
    """Every per-layer metric; layers a workload does not use read 0."""
    out = {"warc.walk_s": 0.0, "warc.records": 0, "warc.inflated_mib": 0.0}
    cdc = dict.fromkeys(("cdc.round_s", "cdc.hash_s", "cdc.diff_s",
                         "cdc.extracted_rows", "cdc.extract_ratio",
                         "cdc.write_mib"), 0)
    work_urls = None
    with tracer.span("layers"):
        if workload == "pages_parquet":
            pages = pq.read_table(os.path.join(inp, "pages"))
        elif workload == "warc_recrawl":
            pages, warc = warc_pass(os.path.join(inp, "warc"), tracer)
            out.update(warc)
        else:
            pages, times = _cdc_work(inp, tracer)
            cdc.update(times)
            work_urls = pages.column("url").combine_chunks()
        # untimed: the extractor imports its non-HTML parsers on first
        # use, which would otherwise be charged to the first timed pass
        extract_batch_pass(pages, Tracer())
        texts, ext = extractor_pass(pages, tracer)
        out.update(ext)
        _batch, eb = extract_batch_pass(pages, tracer)
        out.update(eb)
        layer_sum = sum(v for k, v in ext.items()
                        if k.endswith("_s") and k.startswith("extractor."))
        out["extract.self_s"] = eb["extract.batch_s"] - layer_sum
        out.update(_ray_staged(workload, inp, work, work_urls, tracer))

    traced = [r for r in reps if r["traced"]]
    plain = [r for r in reps if not r["traced"]]
    wall, summaries = tracer.ray_runs[-1]
    out.update(ray_metrics(wall, summaries))
    if workload == "cdc_delta":
        cdc["cdc.round_s"] = statistics.median(r["wall_s"] for r in traced)
        cdc["cdc.extracted_rows"] = traced[-1]["rows"]
        cdc["cdc.extract_ratio"] = traced[-1]["rows"] / meta["input_pages"]
        target = os.path.join(work, "out")
        cdc["cdc.write_mib"] = sum(
            _dir_mib(os.path.join(target, sub, "round-1"))
            for sub in ("delta", "tombstones", "manifest"))
    out.update(cdc)
    out["trace.overhead_s"] = (
        statistics.median(r["wall_s"] for r in traced)
        - statistics.median(r["wall_s"] for r in plain))
    problems = []
    if _latest_digest(pages, texts) != meta["digest"]:
        problems.append("extractor layer pass digest mismatch")
    return {"metrics": out, "problems": problems}
