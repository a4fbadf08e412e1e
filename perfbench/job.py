"""One benchmark job process: set up Ray, warm up, run timed batch jobs.

Usage: python3 perfbench/job.py SPEC.json

``run.py`` starts this file in a fresh process for every job and reads
the result file named in the spec. The spec keys are ``workload``,
``input`` and ``warm`` (generated input directories), ``work`` (scratch
directory for outputs and state), ``budget_s`` (seconds of timed
repetitions), ``num_cpus``, ``ray_tmp``, ``trace`` and ``result``.

Timeline of a job:

  setup_s   import ray + ray.init + package import + one warm-up batch job
            over the small ``warm`` input of the same workload
  prepare   untimed: cdc_delta commits its round-0 state once per input
            (the warm-up input's round 0 is committed the same way, so
            the first job of a run pays it inside setup_s); one warm-up
            run of the reference job of ``calib.py``
  reps      each: restore outputs/state (untimed), run the reference job
            (timed on its own), run the batch job (timed), check the
            output against the reference digest (untimed); repeated
            while half a repetition still fits in ``budget_s``, at least
            once
  layers    ``trace`` only: the per-layer passes of ``layers.py``
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()   # set-up starts before the first import

import contextlib  # noqa: E402
import json  # noqa: E402
import logging  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

import pyarrow.parquet as pq  # noqa: E402
import ray  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))
sys.path.insert(0, HERE)

import calib  # noqa: E402


# ---------------------------------------------------------------------------
# the batch jobs, one per workload
# ---------------------------------------------------------------------------

def run_pages_parquet(inp: str, out: str) -> dict:
    from full_text_extractor_v6_ray.pipelines import extract_pages
    from full_text_extractor_v6_ray.stages.dedup import dedup_latest_by_ts

    ds = dedup_latest_by_ts(extract_pages(
        ray.data.read_parquet(os.path.join(inp, "pages"))))
    ds.write_parquet(out)
    return {"out": out}


def run_warc_recrawl(inp: str, out: str) -> dict:
    from full_text_extractor_v6_ray.pipelines import warc_extraction_pipeline

    warc_extraction_pipeline(os.path.join(inp, "warc"), out_dir=out)
    return {"out": out}


def run_cdc_delta(inp: str, state: str, snapshot: str = "snap_b") -> dict:
    """One incremental round over ``snapshot``; over ``snap_a`` into an
    empty ``state`` it commits the round-0 state the timed round reads."""
    from full_text_extractor_v6_ray.pipelines.incremental import (
        incremental_extraction_round,
    )

    summary = incremental_extraction_round(
        ray.data.read_parquet(os.path.join(inp, snapshot)), state)
    return {"out": os.path.join(state, "delta", f"round-{summary['round']}"),
            "summary": summary}


JOBS = {"pages_parquet": run_pages_parquet,
        "warc_recrawl": run_warc_recrawl,
        "cdc_delta": run_cdc_delta}


def restore(workload: str, inp: str, target: str) -> None:
    """Untimed reset before a batch job: an empty output directory, or
    for cdc_delta a fresh copy of the committed round-0 state."""
    shutil.rmtree(target, ignore_errors=True)
    if workload == "cdc_delta":
        shutil.copytree(os.path.join(inp, "state0"), target)


def check(workload: str, meta: dict, res: dict) -> dict:
    """Compare one batch job's output with the reference in ``meta``."""
    from gen import digest_pairs

    t = pq.read_table(res["out"], columns=["url", "extracted_text", "error"])
    urls = t.column("url").to_pylist()
    errors = sum(bool(e) for e in t.column("error").to_pylist())
    digest = digest_pairs(urls, t.column("extracted_text").to_pylist())
    problems = []
    if len(urls) != meta["rows"] or len(set(urls)) != len(urls):
        problems.append(f"rows {len(urls)} != {meta['rows']}")
    if digest != meta["digest"]:
        problems.append("digest mismatch")
    if workload == "cdc_delta":
        got = {k: res["summary"][k] for k in meta["counts"]}
        if got != meta["counts"]:
            problems.append(f"round counts {got} != {meta['counts']}")
    return {"rows": len(urls), "errors": errors, "digest": digest,
            "problems": problems}


# ---------------------------------------------------------------------------
# process main
# ---------------------------------------------------------------------------

def _init_ray(spec: dict) -> None:
    ray.init(address="local", num_cpus=spec["num_cpus"],
             include_dashboard=False, logging_level="ERROR",
             log_to_driver=False, _temp_dir=spec["ray_tmp"],
             object_store_memory=spec["object_store_bytes"])
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False
    logging.getLogger("ray.data").setLevel(logging.ERROR)


def _ensure_state0(inp: str, work: str) -> None:
    """cdc_delta: commit round 0 over ``snap_a`` once per input; later
    jobs on the same input reuse it."""
    if not os.path.isdir(os.path.join(inp, "state0")):
        tmp = os.path.join(work, "state0.tmp")
        shutil.rmtree(tmp, ignore_errors=True)
        run_cdc_delta(inp, tmp, snapshot="snap_a")
        os.replace(tmp, os.path.join(inp, "state0"))


def _warm_up(workload: str, warm: str, work: str) -> None:
    target = os.path.join(work, "warm")
    if workload == "cdc_delta":
        _ensure_state0(warm, work)
    restore(workload, warm, target)
    JOBS[workload](warm, target)
    shutil.rmtree(target, ignore_errors=True)


def main(spec_path: str) -> None:
    with open(spec_path) as f:
        spec = json.load(f)
    workload, inp, work = spec["workload"], spec["input"], spec["work"]
    with open(os.path.join(inp, "meta.json")) as f:
        meta = json.load(f)

    _init_ray(spec)
    import full_text_extractor_v6_ray.pipelines  # noqa: F401
    _warm_up(workload, spec["warm"], work)
    setup_s = time.perf_counter() - _T0

    t = time.perf_counter()
    if workload == "cdc_delta":
        _ensure_state0(inp, work)
    ref_out = os.path.join(work, "ref")
    calib.reference_job(ref_out)
    prepare_s = time.perf_counter() - t

    tracer = None
    if spec["trace"]:
        from layers import Tracer
        tracer = Tracer()

    target = os.path.join(work, "out")
    reps, cycles = [], []
    min_reps = 2 if tracer else 1
    deadline = time.perf_counter() + spec["budget_s"]
    # a repetition starts only while more than half of a typical one
    # fits, so a job overruns its budget by half a repetition at most
    while len(reps) < min_reps or (
            deadline - time.perf_counter() > statistics.median(cycles) / 2):
        # traced mode alternates untraced and traced repetitions, so the
        # tracing overhead is measured on the same process and input
        traced = tracer is not None and len(reps) % 2 == 1
        cycle = time.perf_counter()
        restore(workload, inp, target)
        ref_s = calib.reference_job(ref_out)
        with tracer.capture() if traced else contextlib.nullcontext():
            t = time.perf_counter()
            res = JOBS[workload](inp, target)
            wall = time.perf_counter() - t
        reps.append({"wall_s": wall, "ref_s": ref_s, "traced": traced,
                     **check(workload, meta, res)})
        cycles.append(time.perf_counter() - cycle)

    result = {"setup_s": setup_s, "prepare_s": prepare_s, "reps": reps}
    if tracer is not None:
        from layers import layer_metrics
        result.update(layer_metrics(workload, inp, work, meta, reps, tracer))
        tracer.dump(spec["trace_file"])
    shutil.rmtree(target, ignore_errors=True)
    ray.shutdown()
    with open(spec["result"] + ".tmp", "w") as f:
        json.dump(result, f)
    os.replace(spec["result"] + ".tmp", spec["result"])


if __name__ == "__main__":
    main(sys.argv[1])
