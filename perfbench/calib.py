"""The host-speed reference job, which shares no code with the program.

On a shared host (4 vCPUs, Xeon at 2.0 GHz) the speed of the same code
swung 2x within half an hour, and set-up time swung with it. Every
timed batch job is therefore preceded by this fixed Ray Data job
of the same shape (read, map_batches, write_parquet) over a fixed CPU
kernel: a regex tag walk over a fixed HTML string, dict counting, a
join, zlib and md5. Its wall time says how fast the host runs Ray work
at that moment; ``run.py`` scales each batch job's throughput by it.
"""

from __future__ import annotations

import hashlib
import re
import shutil
import time
import zlib

import pyarrow as pa

REF_ROWS = 160              # kernel calls per reference job, in 4 blocks
REF_NOMINAL_S = 0.5         # reference job wall time that rates are scaled to

_TAG = re.compile(r"<(/?)([a-zA-Z][a-zA-Z0-9]*)[^>]*>")
_DOC = ("<html><head><title>t</title></head><body>" + "".join(
    f"<div class='c{i % 7}'><p>word {i} alpha beta gamma delta</p>"
    f"<a href='/x/{i}'>l{i}</a></div>" for i in range(400))
    + "</body></html>")


def kernel() -> str:
    counts: dict[str, int] = {}
    opened = []
    for m in _TAG.finditer(_DOC):
        name = m.group(2).lower()
        counts[name] = counts.get(name, 0) + 1
        if not m.group(1):
            opened.append(name)
    packed = zlib.compress(" ".join(opened).encode(), 1)
    return hashlib.md5(packed).hexdigest()


def _kernel_batch(batch: pa.Table) -> pa.Table:
    return pa.table({"id": batch.column("id"),
                     "digest": [kernel() for _ in range(batch.num_rows)]})


def reference_job(out: str) -> float:
    """Wall seconds of one reference job writing into ``out``."""
    import ray.data

    shutil.rmtree(out, ignore_errors=True)
    t = time.perf_counter()
    ray.data.range(REF_ROWS, override_num_blocks=4).map_batches(
        _kernel_batch, batch_format="pyarrow").write_parquet(out)
    wall = time.perf_counter() - t
    shutil.rmtree(out, ignore_errors=True)
    return wall
