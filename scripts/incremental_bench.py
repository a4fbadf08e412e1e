"""Incremental recrawl at scale: full round 0 vs a 5%-delta round 1.

Usage: python scripts/incremental_bench.py [n_pages] [num_cpus] [broadcast_max]
Prints one JSON line, with each timed round's Ray executions as
``round{0,1}_operators``: per execution, ``[operator, tasks]`` per
physical operator. OWNS its Ray session. ``broadcast_max`` (default
``stages.joins.BROADCAST_MAX``) picks the round's path: 0 forces the
bucketed exchange (3 Ray executions per recrawl round), a value at or
above the previous manifest's row count the single-scan probe path (1).
The round state goes to a fresh directory under $TMPDIR (removed at
exit; TMPDIR=/dev/shm keeps it on a RAM disk).
"""

from __future__ import annotations

import datetime
import json
import os
import shutil
import sys
import tempfile
import time

import numpy as np
import pyarrow as pa

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

N = int(sys.argv[1]) if len(sys.argv) > 1 else 500_000
CPUS = int(sys.argv[2]) if len(sys.argv) > 2 else 32
KW = {"broadcast_max": int(sys.argv[3])} if len(sys.argv) > 3 else {}
STATE = tempfile.mkdtemp(prefix="incr_bench_")
_TS = datetime.datetime(2024, 1, 1)

_BODY = ("Lorem ipsum dolor sit amet, consectetur adipiscing elit. " * 12)
# realistic page: ~5 KB, many blocks/links, so extraction (not the
# slim hash scan) dominates a full round — the regime the delta saves
_ARTICLE = "".join(
    f"<h2>Section {i}</h2><p>{_BODY}</p>"
    f"<ul><li>item {i}a <a href='/l{i}'>ref {i}</a></li>"
    f"<li>item {i}b</li></ul>" for i in range(8))


def _pages(round_tag: str):
    import ray.data

    base = ray.data.range(N, override_num_blocks=max(CPUS * 4, 64))

    def gen(batch: pa.Table) -> pa.Table:
        p = batch.column("id").to_numpy(zero_copy_only=False)
        urls, htmls = [], []
        for d in p:
            d = int(d)
            # round "b": 5% of pages change body
            suffix = " CHANGED v2" if (round_tag == "b" and d % 20 == 0) \
                else ""
            urls.append(f"https://host{d % 9973}.example.com/p{d}")
            htmls.append(
                (f"<html><head><title>Page {d}</title></head><body>"
                 f"<nav><a href='/'>home</a><a href='/x'>x</a></nav>"
                 f"<article><h1>Title {d}</h1><p>{_BODY}{suffix}</p>"
                 f"{_ARTICLE}</article>"
                 f"<footer>© example</footer></body></html>").encode())
        m = len(urls)
        return pa.table({
            "url": pa.array(urls, pa.string()),
            "warc_ts": pa.array([_TS] * m, pa.timestamp("us")),
            "html": pa.array(htmls, pa.binary()),
            "text": pa.array([""] * m, pa.string()),
            "lang": pa.array(["en"] * m, pa.string()),
        })

    return base.map_batches(gen, batch_format="pyarrow",
                            zero_copy_batch=True)


def _operators(executions) -> list:
    return [[list(op) for op in e.tasks()] for e in executions]


def main() -> None:
    import ray

    ray.init(address="local", num_cpus=CPUS, include_dashboard=False,
             logging_level="ERROR", log_to_driver=False)
    from ray.data import DataContext
    DataContext.get_current().enable_progress_bars = False

    from full_text_extractor_v6_ray.pipelines.incremental import (
        incremental_extraction_round,
    )
    from full_text_extractor_v6_ray.testing import count_executions

    shutil.rmtree(STATE, ignore_errors=True)
    with count_executions() as executions:
        t = time.perf_counter()
        s0 = incremental_extraction_round(_pages("a"), STATE, **KW)
        t0 = round(time.perf_counter() - t, 2)
        x0 = len(executions)
        ops0 = _operators(executions)

        executions.clear()
        t = time.perf_counter()
        s1 = incremental_extraction_round(_pages("b"), STATE, **KW)
        t1 = round(time.perf_counter() - t, 2)
        x1 = len(executions)
        ops1 = _operators(executions)

    # base compaction: accumulate a realistic delta chain (alternating
    # snapshots flip 5% per round -> 16 rounds of churn on disk), time
    # corpus reconstruction before/after compact_state (the
    # read_current_corpus growth nit from round-4 verdict item 4)
    from full_text_extractor_v6_ray.pipelines.incremental import (
        compact_state,
        read_current_corpus,
    )

    n_churn = 16
    for i in range(n_churn):
        incremental_extraction_round(_pages("a" if i % 2 else "b"), STATE,
                                     **KW)

    t = time.perf_counter()
    n_before = read_current_corpus(STATE).count()
    t_read_chain = round(time.perf_counter() - t, 2)

    t = time.perf_counter()
    compact_state(STATE)
    t_compact = round(time.perf_counter() - t, 2)

    t = time.perf_counter()
    n_after = read_current_corpus(STATE).count()
    t_read_base = round(time.perf_counter() - t, 2)
    assert n_before == n_after, (n_before, n_after)

    out = {
        "metric": "incremental_round_sec",
        "n_pages": N, "num_cpus": CPUS, **KW,
        "round0_sec": t0, "round0_extracted": s0["extracted_rows"],
        "round0_executions": x0, "round0_operators": ops0,
        "round1_sec": t1, "round1_extracted": s1["extracted_rows"],
        "round1_executions": x1, "round1_operators": ops1,
        "round1_changed": s1["n_changed"],
        "round1_unchanged": s1["n_unchanged"],
        "delta_fraction": round(s1["extracted_rows"] / N, 4),
        "speedup_vs_full": round(t0 / t1, 2) if t1 else None,
        "churn_rounds": n_churn + 2,
        "reconstruct_chain_sec": t_read_chain,
        "compact_sec": t_compact,
        "reconstruct_post_compact_sec": t_read_base,
        "corpus_rows": n_after,
    }
    print(json.dumps(out))
    shutil.rmtree(STATE, ignore_errors=True)
    ray.shutdown()


if __name__ == "__main__":
    main()
