"""Per-partition checkpoint manifests: resumable restarts (north rule).

The reference writes one ``.md`` per input file and could-but-doesn't skip
finished work on re-runs (/root/reference/src/processors/folder_processor.py:88-90
— idempotent output, no resume). Here resume is first-class:

  - the input is split into deterministic partitions (contiguous doc_id
    ranges — the analog of "repartition by input file": at real scale one
    partition == one input parquet fragment);
  - each partition is extracted and written ATOMICALLY: parquet to
    ``out/part-<i>.tmp`` -> rename to ``out/part-<i>`` (no hive-style "=" in the dir name: pyarrow would treat it as a partition column) -> manifest json
    ``manifest/<i>.json`` (row counts, per-partition lineage + quality
    metrics) written last;
  - on restart, partitions with a manifest are skipped BEFORE building the
    Dataset — the read set itself shrinks, no wasted scan.

At 10^12-doc scale the same layout works per input fragment; the manifest
write stays tiny (one small json per partition).
"""

from __future__ import annotations

import json
import os
import shutil

import pyarrow.parquet as pq

import ray.data

from ..config import DEFAULT_CONFIG, ExtractConfig
from ..sources.pages_gen import PageGenBatch
from .extract_pipeline import BATCH_SIZE, extract_pages


def _partition_ranges(n_rows: int, n_parts: int) -> list[tuple[int, int]]:
    """Deterministic contiguous row ranges [(start, stop), ...]."""
    n_parts = max(1, min(n_parts, n_rows)) if n_rows else 1
    step = (n_rows + n_parts - 1) // n_parts if n_rows else 0
    return [(i, min(i + step, n_rows)) for i in range(0, n_rows, step)] if step else [(0, 0)]


def completed_partitions(out_dir: str) -> set[int]:
    mdir = os.path.join(out_dir, "manifest")
    if not os.path.isdir(mdir):
        return set()
    done = set()
    for f in os.listdir(mdir):
        if f.endswith(".json"):
            try:
                done.add(int(f[:-5]))
            except ValueError:
                continue
    return done


def run_checkpointed_extraction(
    sf_dir: str,
    out_dir: str,
    n_partitions: int = 8,
    seed: int = 42,
    cfg: ExtractConfig = DEFAULT_CONFIG,
    fail_after_partition: int | None = None,
) -> dict:
    """Extract all partitions not yet checkpointed; return run summary.

    ``fail_after_partition`` injects a crash after that many newly-written
    partitions (test hook for resume semantics).
    """
    docs_path = os.path.join(sf_dir, "documents.parquet")
    n_rows = pq.read_metadata(docs_path).num_rows
    ranges = _partition_ranges(n_rows, n_partitions)

    os.makedirs(os.path.join(out_dir, "manifest"), exist_ok=True)

    # Run-level manifest: resume is only valid against the SAME plan.
    # Re-running with a different n_partitions / row count / input path /
    # seed would silently map old manifest ids onto different row ranges
    # (dropping or duplicating rows) — fail loudly instead.
    run_meta = {"input_path": docs_path, "n_rows": n_rows,
                "n_partitions": len(ranges), "seed": seed}
    run_path = os.path.join(out_dir, "manifest", "_run.json")
    if os.path.exists(run_path):
        with open(run_path) as f:
            prev = json.load(f)
        if prev != run_meta:
            raise ValueError(
                f"checkpoint resume mismatch: {out_dir} was written with "
                f"{prev}, current run plans {run_meta}; use a fresh out_dir "
                f"or delete the stale checkpoint")
    else:
        tmp = run_path + ".tmp"
        with open(tmp, "w") as f:
            json.dump(run_meta, f, sort_keys=True)
        os.rename(tmp, run_path)

    done = completed_partitions(out_dir)
    # Belt-and-braces: each per-partition manifest must describe the same
    # input slice this run would assign to its id.
    for pid in sorted(done):
        if pid >= len(ranges):
            raise ValueError(
                f"checkpoint resume mismatch: manifest {pid} beyond the "
                f"{len(ranges)} partitions of the current plan")
        with open(os.path.join(out_dir, "manifest", f"{pid}.json")) as f:
            m = json.load(f)
        start, stop = ranges[pid]
        expect = {"path": docs_path, "row_start": start, "row_stop": stop}
        if m.get("input") != expect:
            raise ValueError(
                f"checkpoint resume mismatch: manifest {pid} covers "
                f"{m.get('input')}, current plan assigns {expect}")
    newly = 0
    skipped = 0

    for pid, (start, stop) in enumerate(ranges):
        if pid in done:
            skipped += 1
            continue

        # partition-local dataset: read only this doc_id range.
        # (driver testdata is a single file -> row-slice; at scale this is
        # read_parquet(fragment_paths[pid]) — one fragment per partition)
        tbl = pq.read_table(docs_path,
                            columns=["doc_id", "text", "lang", "source"]
                            ).slice(start, stop - start)
        ds = ray.data.from_arrow(tbl)
        pages = ds.map_batches(PageGenBatch(seed), batch_format="pyarrow",
                               batch_size=BATCH_SIZE)
        extracted = extract_pages(pages, cfg=cfg)

        part_tmp = os.path.join(out_dir, f"part-{pid:05d}.tmp")
        part_final = os.path.join(out_dir, f"part-{pid:05d}")
        shutil.rmtree(part_tmp, ignore_errors=True)
        shutil.rmtree(part_final, ignore_errors=True)
        extracted.write_parquet(part_tmp)
        os.rename(part_tmp, part_final)

        # per-partition lineage + quality metrics (north rule)
        out_tbl = pq.read_table(part_final,
                                columns=["n_chars", "n_links", "error",
                                         "quality_score", "method"])
        n_out = out_tbl.num_rows
        errs = sum(1 for e in out_tbl["error"].to_pylist() if e)
        manifest = {
            "partition": pid,
            "input": {"path": docs_path, "row_start": start, "row_stop": stop},
            "rows_in": stop - start,
            "rows_out": n_out,
            "n_errors": errs,
            "total_chars": sum(out_tbl["n_chars"].to_pylist()),
            "total_links": sum(out_tbl["n_links"].to_pylist()),
            "avg_quality": (sum(out_tbl["quality_score"].to_pylist()) / n_out
                            if n_out else 0.0),
            "methods": {m: out_tbl["method"].to_pylist().count(m)
                        for m in sorted(set(out_tbl["method"].to_pylist()))},
            "extractor_version": "0.1.0",
            "seed": seed,
        }
        tmp_manifest = os.path.join(out_dir, "manifest", f"{pid}.json.tmp")
        with open(tmp_manifest, "w") as f:
            json.dump(manifest, f, sort_keys=True)
        os.rename(tmp_manifest, os.path.join(out_dir, "manifest", f"{pid}.json"))
        newly += 1

        if fail_after_partition is not None and newly >= fail_after_partition:
            raise RuntimeError(f"injected failure after {newly} partitions")

    return {"partitions": len(ranges), "newly_written": newly,
            "skipped": skipped, "out_dir": out_dir}


def read_checkpointed_output(out_dir: str) -> "ray.data.Dataset":
    """Read all completed partitions back as one Dataset."""
    files = []
    for pid in sorted(completed_partitions(out_dir)):
        d = os.path.join(out_dir, f"part-{pid:05d}")
        files.extend(os.path.join(d, f) for f in sorted(os.listdir(d))
                     if f.endswith(".parquet"))
    return ray.data.read_parquet(files)
